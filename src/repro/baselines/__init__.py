"""Baseline link-prediction models compared against DEKG-ILP in the paper.

Transductive methods (TransE, RotatE, DistMult, ConvE, and the model-zoo
additions ComplEx, HolE, ProjE, SimplE) are adapted to the inductive setting
exactly as described in §V-B: they are trained on the original KG and unseen
entities receive randomly initialized embeddings.  Inductive methods (GEN,
RuleN, GraIL, TACT) follow their published designs on top of this
repository's KG/GNN substrate.

Every baseline registers itself with :mod:`repro.registry` at import time.
"""

from repro.baselines.base import LinkPredictor, EmbeddingModel
from repro.baselines.transe import TransE
from repro.baselines.rotate import RotatE
from repro.baselines.distmult import DistMult
from repro.baselines.conve import ConvE
from repro.baselines.complex import ComplEx
from repro.baselines.hole import HolE
from repro.baselines.proje import ProjE
from repro.baselines.simple import SimplE
from repro.baselines.gen import GEN
from repro.baselines.rulen import RuleN
from repro.baselines.grail import Grail
from repro.baselines.tact import TACT

__all__ = [
    "LinkPredictor",
    "EmbeddingModel",
    "TransE",
    "RotatE",
    "DistMult",
    "ConvE",
    "ComplEx",
    "HolE",
    "ProjE",
    "SimplE",
    "GEN",
    "RuleN",
    "Grail",
    "TACT",
]
