"""Correctness gates: a run's numbers count only when these pass.

Each gate takes plain outputs (losses, metric summaries, scores) and returns
a list of failure messages -- empty when the outputs are correct -- so the
self-test can feed it deliberately perturbed outputs.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

REFERENCES_PATH = Path(__file__).with_name("references.json")


def load_references() -> Dict:
    return json.loads(REFERENCES_PATH.read_text(encoding="utf-8"))


def check_train(losses_per_op: Sequence[Sequence[float]],
                reference: Optional[float], tolerance: float,
                band: Optional[Tuple[float, float]]) -> List[str]:
    """Every epoch loss finite; every fit's final loss equal to the others,
    inside the recorded ``band`` and, when the seed has one, equal to its
    recorded reference within ``tolerance`` (losses are read at the four
    decimals the trainer prints)."""
    failures = []
    for op, losses in enumerate(losses_per_op):
        if not losses:
            failures.append(f"fit {op}: no epoch losses reported")
        elif not all(math.isfinite(loss) for loss in losses):
            failures.append(f"fit {op}: non-finite loss in {list(losses)}")
    finals = [losses[-1] for losses in losses_per_op if losses]
    if finals and any(final != finals[0] for final in finals):
        failures.append(f"fits of one seed disagree on the final loss: {finals}")
    if band is not None:
        for final in finals:
            if not band[0] <= final <= band[1]:
                failures.append(f"final loss {final} outside the recorded band {band}")
    if reference is not None:
        for final in finals:
            if not abs(final - reference) <= tolerance:
                failures.append(
                    f"final loss {final} differs from the recorded reference "
                    f"{reference} by more than {tolerance}")
    return failures


def check_rank(summaries: Sequence[Dict], band: Tuple[float, float]) -> List[str]:
    """Overall MRR inside the recorded band; every op's summary identical."""
    failures = []
    low, high = band
    for op, summary in enumerate(summaries):
        mrr = summary["overall"]["MRR"]
        if not low <= mrr <= high:
            failures.append(f"op {op}: MRR {mrr} outside the recorded band {band}")
    if any(summary != summaries[0] for summary in summaries):
        failures.append("ops ranking the same checkpoint produced different summaries")
    return failures


def check_sharded(sharded: Sequence[Dict], in_process: Dict) -> List[str]:
    """Sharded summaries bit-identical to the in-process one."""
    return [f"op {op}: sharded summary differs from the in-process summary"
            for op, summary in enumerate(sharded) if summary != in_process]


def check_served(served: Sequence[Tuple[str, List, List[float]]],
                 direct: Sequence[List[float]]) -> List[str]:
    """Served scores bit-identical to direct ``score_many`` on the sample."""
    failures = []
    for (model, triples, scores), expected in zip(served, direct):
        if list(scores) != list(expected):
            failures.append(f"{model} request of {len(triples)} triples: served "
                            "scores differ from direct score_many")
    return failures
