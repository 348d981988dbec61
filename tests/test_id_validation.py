"""Ids are checked where triples enter: the ``Evaluator`` and the pipeline.

Both entry points apply the rule the scoring service applies to requests
(:func:`repro.kg.triple.checked_id`): an id is an integer (Python or numpy,
never a bool) inside the context graph's vocabulary.  Anything else raises
:class:`~repro.kg.triple.InvalidTriple` naming the offending field, instead
of scoring ``relation = -1`` as the last relation, ``head = True`` as
entity 1, ``head = 1.7`` as entity 1, or leaking numpy's ``IndexError``.
Valid ids in any integer type score exactly like Python ints.

The context graph itself is checked where a model binds it: ``set_context``
refuses a graph with more entities or relations than the model's tables,
so serving, the ``Evaluator`` and the pipeline refuse it before scoring.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import ModelConfig, TrainingConfig
from repro.core.model import DEKGILP
from repro.core.pipeline import LinkPredictionPipeline
from repro.eval.evaluator import Evaluator
from repro.kg.graph import KnowledgeGraph
from repro.kg.triple import InvalidTriple, Triple
from repro.registry import build_model, model_names
from repro.serving import InvalidRequest, ScoringService

#: Stands for the first id past the context graph's vocabulary.
PAST_VOCAB = object()

BAD_IDS = [
    pytest.param("head", True, id="bool-head"),
    pytest.param("head", np.bool_(True), id="numpy-bool-head"),
    pytest.param("head", 1.7, id="float-head"),
    pytest.param("tail", np.float64(2.0), id="numpy-float-tail"),
    pytest.param("tail", None, id="none-tail"),
    pytest.param("relation", -1, id="negative-relation"),
    pytest.param("head", -1, id="negative-head"),
    pytest.param("relation", PAST_VOCAB, id="relation-past-vocab"),
    pytest.param("tail", PAST_VOCAB, id="tail-past-vocab"),
]


def _ids(graph, field, value):
    ids = {"head": 0, "relation": 0, "tail": 1}
    if value is PAST_VOCAB:
        value = graph.num_relations if field == "relation" else graph.num_entities
    ids[field] = value
    return ids


def test_serving_refuses_with_the_same_error():
    assert InvalidRequest is InvalidTriple
    assert issubclass(InvalidTriple, ValueError)


# --------------------------------------------------------------------- #
# Evaluator.evaluate(test_triples=...)
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def evaluator_and_model(small_benchmark):
    model = DEKGILP(small_benchmark.num_relations, seed=0,
                    config=ModelConfig(embedding_dim=8, gnn_hidden_dim=8,
                                       edge_dropout=0.0))
    model.eval()
    return Evaluator(small_benchmark, max_candidates=5, seed=0), model


@pytest.mark.parametrize("field,value", BAD_IDS)
def test_evaluator_refuses_bad_ids(evaluator_and_model, small_benchmark, field, value):
    evaluator, model = evaluator_and_model
    ids = _ids(evaluator.context_graph, field, value)
    bad = Triple(ids["head"], ids["relation"], ids["tail"])
    with pytest.raises(InvalidTriple, match=field):
        evaluator.evaluate(model, test_triples=[small_benchmark.test_triples[0], bad])


def test_evaluator_refuses_a_string_id_and_a_short_triple(evaluator_and_model):
    evaluator, model = evaluator_and_model
    with pytest.raises(InvalidTriple, match="head"):
        evaluator.evaluate(model, test_triples=[("3", 0, 1)])
    with pytest.raises(InvalidTriple, match="sequence"):
        evaluator.evaluate(model, test_triples=[(0, 1)])


def test_evaluator_numpy_and_tuple_ids_rank_like_triples(evaluator_and_model,
                                                         small_benchmark):
    evaluator, model = evaluator_and_model
    triples = small_benchmark.test_triples[:3]
    as_numpy = [np.array(t.astuple(), dtype=np.int64) for t in triples]
    expected = evaluator.evaluate(model, test_triples=triples).summary()
    assert evaluator.evaluate(model, test_triples=as_numpy).summary() == expected
    assert evaluator.evaluate(
        model, test_triples=[t.astuple() for t in triples]).summary() == expected


# --------------------------------------------------------------------- #
# LinkPredictionPipeline.score / predict_*
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def pipeline():
    from repro.kg.vocabulary import Vocabulary

    vocab = Vocabulary()
    vocab.add_entities(f"e{i}" for i in range(6))
    vocab.add_relations(f"r{k}" for k in range(3))
    graph = KnowledgeGraph(6, 3, [Triple(0, 0, 1), Triple(1, 1, 2), Triple(0, 2, 2),
                                  Triple(3, 0, 4), Triple(4, 1, 5), Triple(2, 0, 3)],
                           vocab)
    pipeline = LinkPredictionPipeline(
        graph, model_config=ModelConfig(embedding_dim=8, gnn_hidden_dim=8,
                                        edge_dropout=0.0),
        training_config=TrainingConfig(epochs=1, batch_size=4,
                                       contrastive_examples=1, seed=0),
        seed=0)
    pipeline.fit()
    return pipeline


def _query(pipeline, query, field, value):
    ids = _ids(pipeline.original, field, value)
    if query == "score":
        return pipeline.score(ids["head"], ids["relation"], ids["tail"])
    if query == "predict_tail":
        return pipeline.predict_tail(ids["head"], ids["relation"],
                                     candidates=[ids["tail"]])
    if query == "predict_head":
        return pipeline.predict_head(ids["relation"], ids["tail"],
                                     candidates=[ids["head"]])
    return pipeline.predict_relation(ids["head"], ids["tail"])


#: Every query with every bad id it takes (predict_relation takes no relation).
PIPELINE_CASES = [
    pytest.param(query, *case.values, id=f"{query}-{case.id}")
    for query in ("score", "predict_tail", "predict_head", "predict_relation")
    for case in BAD_IDS
    if not (query == "predict_relation" and case.values[0] == "relation")
]


@pytest.mark.parametrize("query,field,value", PIPELINE_CASES)
def test_pipeline_refuses_bad_ids(pipeline, query, field, value):
    # A candidate list's entries are checked as candidates.
    expected = ("candidate" if (query, field) in {("predict_tail", "tail"),
                                                  ("predict_head", "head")}
                else field)
    with pytest.raises(InvalidTriple, match=expected):
        _query(pipeline, query, field, value)


def test_pipeline_integer_types_score_alike(pipeline):
    expected = pipeline.score(0, 2, 2)
    assert pipeline.score(np.int64(0), np.int32(2), np.uint8(2)) == expected
    assert pipeline.score("e0", "r2", "e2") == expected
    tails = pipeline.predict_tail(0, 0, candidates=[np.int64(1), 2])
    assert tails == pipeline.predict_tail(0, 0, candidates=[1, 2])


# --------------------------------------------------------------------- #
# a context graph larger than the model's tables
# --------------------------------------------------------------------- #
def _small_model(name):
    """``name`` built for 6 entities and 3 relations."""
    return build_model(name, num_entities=6, num_relations=3, embedding_dim=8, seed=0)


#: One more entity, or one more relation, than ``_small_model``'s tables.
LARGER_GRAPHS = {
    "entities": lambda: KnowledgeGraph(7, 3, [Triple(0, 0, 1), Triple(5, 2, 6)]),
    "relations": lambda: KnowledgeGraph(6, 4, [Triple(0, 0, 1), Triple(4, 3, 5)]),
}

#: (model, table kind) for every registered model that records the size of
#: that table; RuleN records neither and scores an unknown relation as 0.
VOCABULARY_CASES = [
    pytest.param(name, kind, id=f"{name}-{kind}")
    for name in model_names()
    for kind in LARGER_GRAPHS
    if hasattr(_small_model(name), f"num_{kind}")
]


@pytest.mark.parametrize("name,kind", VOCABULARY_CASES)
def test_set_context_refuses_a_larger_graph(name, kind):
    with pytest.raises(ValueError, match=kind[:6]):
        _small_model(name).set_context(LARGER_GRAPHS[kind]())


@pytest.mark.parametrize("name,kind", VOCABULARY_CASES)
def test_scoring_service_refuses_a_larger_graph(name, kind):
    with pytest.raises(ValueError, match=kind[:6]):
        ScoringService({name: _small_model(name)}, LARGER_GRAPHS[kind]())


def test_refusal_names_the_model_and_both_sizes():
    with pytest.raises(ValueError, match="TransE was built for 6 entities, but the "
                                         "context graph has 7"):
        _small_model("TransE").set_context(LARGER_GRAPHS["entities"]())
    with pytest.raises(ValueError, match="Grail was built for 3 relations, but the "
                                         "context graph has 4"):
        _small_model("Grail").set_context(LARGER_GRAPHS["relations"]())
