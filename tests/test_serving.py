"""Serving-layer invariants: coalescing bit-identity, drain, faults, wire.

The load-bearing guarantee of :mod:`repro.serving` is that putting a
coalescer, a daemon and N concurrent clients between a model and its
scores changes **nothing** about the scores: every response is bit-identical
to calling ``model.score_many`` with the request's composition directly,
and ``rank`` responses equal :meth:`ShardWorkload.rank_item` exactly.
The tests here pin that — for every registered model, for arbitrary
interleavings/batch caps/budget timeouts (hypothesis), under injected
flush/request faults, and across both transports.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main as cli_main
from repro.datasets.benchmark import build_benchmark
from repro.eval.evaluator import Evaluator
from repro.eval.ranking import candidate_rng, filtered_candidates
from repro.kg.triple import Triple
from repro.registry import build_model, model_names, registered_models
from repro.resilience import install_fault_plan, reset_fault_state
from repro.serving import (CoalescerClosed, InProcessClient, InvalidRequest, ReplicaDied,
                           RequestCoalescer, ScoringService, ServiceOverloaded,
                           ServingError, SocketClient, handle_request, serve,
                           wait_until_serving)
from repro.shm import active_segments


@pytest.fixture(autouse=True)
def _clean_faults():
    reset_fault_state()
    yield
    reset_fault_state()


# --------------------------------------------------------------------- #
# coalescer unit tests on a synthetic scorer
# --------------------------------------------------------------------- #
def _composition_sensitive_scorer(calls):
    """A scorer whose outputs depend on the batch composition.

    ``score(t) = h*10000 + r*100 + t + 0.001*len(batch)`` — any fusion or
    splitting of a request changes its scores, so result equality proves
    the coalescer preserved each request's composition exactly.  Model
    ``"fus"`` is elementwise (composition-independent) and declared
    fusable; ``"raw"`` is composition-sensitive and not fusable.
    """
    def score_fn(model, triples):
        calls.append((model, tuple(triples)))
        base = [t.head * 10000 + t.relation * 100 + t.tail for t in triples]
        if model == "fus":
            return base
        return [value + 0.001 * len(triples) for value in base]
    return score_fn


def _expected(model, triples):
    base = [t.head * 10000 + t.relation * 100 + t.tail for t in triples]
    if model == "fus":
        return [float(v) for v in base]
    return [float(v + 0.001 * len(triples)) for v in base]


def _triples(spec):
    return [Triple(h, r, t) for h, r, t in spec]


class TestRequestCoalescer:
    def test_non_fusable_requests_keep_their_composition(self):
        calls = []
        coalescer = RequestCoalescer(_composition_sensitive_scorer(calls),
                                     max_batch=64, max_wait_ms=20.0,
                                     fusable=lambda m: m == "fus")
        requests = [_triples([(1, 0, 2), (3, 1, 4)]),
                    _triples([(5, 0, 6)]),
                    _triples([(7, 1, 8), (9, 0, 1), (2, 1, 3)])]
        futures = [coalescer.submit("raw", r) for r in requests]
        results = [f.result(timeout=10) for f in futures]
        coalescer.close()
        for request, result in zip(requests, results):
            assert result == _expected("raw", request)
        # every score_fn call was exactly one submitted request
        assert sorted(len(c[1]) for c in calls) == sorted(len(r) for r in requests)

    def test_fusable_requests_fuse_with_identical_scores(self):
        calls = []
        coalescer = RequestCoalescer(_composition_sensitive_scorer(calls),
                                     max_batch=64, max_wait_ms=50.0,
                                     fusable=lambda m: m == "fus")
        requests = [_triples([(i, 0, i + 1)]) for i in range(8)]
        futures = [coalescer.submit("fus", r) for r in requests]
        results = [f.result(timeout=10) for f in futures]
        coalescer.close()
        for request, result in zip(requests, results):
            assert result == _expected("fus", request)
        stats = coalescer.stats()
        assert stats["fused_requests"] > 0
        assert stats["flushes"] < len(requests)

    @pytest.mark.parametrize("models", [["U"], ["F", "U"]],
                             ids=["alone", "behind-a-fusable-one"])
    def test_a_request_that_cannot_fuse_is_flushed_at_once(self, models):
        # Waiting out the budget could not find it a fusion partner.
        coalescer = RequestCoalescer(lambda m, ts: [0.0] * len(ts),
                                     max_wait_ms=500.0, fusable=lambda m: m == "F")
        try:
            start = time.monotonic()
            futures = [coalescer.submit(model, _triples([(0, 0, 1)])) for model in models]
            assert [future.result(timeout=10) for future in futures] == [[0.0]] * len(models)
            assert time.monotonic() - start < 0.25
        finally:
            coalescer.close()

    def test_fusable_requests_still_wait_for_a_partner(self):
        calls = []
        coalescer = RequestCoalescer(_composition_sensitive_scorer(calls),
                                     max_wait_ms=500.0, fusable=lambda m: m == "F")
        requests = [_triples([(0, 0, 1)]), _triples([(1, 0, 2)])]
        try:
            futures = [coalescer.submit("F", request) for request in requests]
            for future in futures:
                future.result(timeout=10)
        finally:
            coalescer.close()
        assert calls == [("F", tuple(requests[0] + requests[1]))]

    def test_fusion_respects_max_batch(self):
        calls = []
        coalescer = RequestCoalescer(_composition_sensitive_scorer(calls),
                                     max_batch=3, max_wait_ms=50.0,
                                     fusable=lambda m: True)
        futures = [coalescer.submit("fus", _triples([(i, 0, 0), (i, 1, 1)]))
                   for i in range(5)]
        for f in futures:
            f.result(timeout=10)
        coalescer.close()
        assert all(len(c[1]) <= 3 for c in calls)

    def test_scorer_exception_lands_on_the_future(self):
        def score_fn(model, triples):
            if model == "bad":
                raise ValueError("boom")
            return [0.0] * len(triples)
        coalescer = RequestCoalescer(score_fn, max_wait_ms=1.0)
        bad = coalescer.submit("bad", _triples([(0, 0, 0)]))
        good = coalescer.submit("ok", _triples([(1, 0, 1)]))
        with pytest.raises(ValueError, match="boom"):
            bad.result(timeout=10)
        assert good.result(timeout=10) == [0.0]
        coalescer.close()

    def test_close_drains_every_future_then_rejects(self):
        calls = []
        coalescer = RequestCoalescer(_composition_sensitive_scorer(calls),
                                     max_batch=4, max_wait_ms=200.0,
                                     fusable=lambda m: False)
        requests = [_triples([(i, 0, i)]) for i in range(25)]
        futures = [coalescer.submit("raw", r) for r in requests]
        coalescer.close()  # immediately: queued requests must still resolve
        for request, future in zip(requests, futures):
            assert future.done()
            assert future.result(timeout=0) == _expected("raw", request)
        with pytest.raises(CoalescerClosed):
            coalescer.submit("raw", _triples([(0, 0, 0)]))

    def test_drain_blocks_until_resolved(self):
        release = threading.Event()

        def slow_fn(model, triples):
            release.wait(timeout=10)
            return [1.0] * len(triples)

        coalescer = RequestCoalescer(slow_fn, max_wait_ms=0.0)
        future = coalescer.submit("m", _triples([(0, 0, 0)]))
        threading.Timer(0.05, release.set).start()
        coalescer.drain()
        assert future.done() and future.result() == [1.0]
        coalescer.close()


@settings(max_examples=25, deadline=None)
@given(
    requests=st.lists(
        st.tuples(st.sampled_from(["fus", "raw"]),
                  st.lists(st.tuples(st.integers(0, 9), st.integers(0, 3),
                                     st.integers(0, 9)),
                           min_size=1, max_size=5)),
        min_size=1, max_size=12),
    max_batch=st.integers(1, 8),
    max_wait_ms=st.sampled_from([0.0, 1.0, 25.0]),
)
def test_coalesced_scores_bit_identical_for_any_interleaving(
        requests, max_batch, max_wait_ms):
    """Arbitrary request streams, batch caps and budget timeouts never
    change a single score relative to per-request sequential scoring."""
    calls = []
    coalescer = RequestCoalescer(_composition_sensitive_scorer(calls),
                                 max_batch=max_batch, max_wait_ms=max_wait_ms,
                                 fusable=lambda m: m == "fus")
    try:
        futures = [(model, _triples(spec), coalescer.submit(model, _triples(spec)))
                   for model, spec in requests]
        for model, triples, future in futures:
            assert future.result(timeout=10) == _expected(model, triples)
    finally:
        coalescer.close()
    # non-fusable compositions were never altered
    for model, batch in calls:
        if model == "raw":
            assert tuple(batch) in {tuple(_triples(spec))
                                    for m, spec in requests if m == "raw"}


# --------------------------------------------------------------------- #
# fault drills (mirrors repro.resilience.chaos: degraded but correct)
# --------------------------------------------------------------------- #
class TestServingFaults:
    def test_flush_raise_degrades_to_per_request_with_identical_scores(self):
        install_fault_plan("serve_flush:0:raise")
        calls = []
        coalescer = RequestCoalescer(_composition_sensitive_scorer(calls),
                                     max_batch=64, max_wait_ms=20.0,
                                     fusable=lambda m: True)
        requests = [_triples([(i, 0, i + 1), (i, 1, i)]) for i in range(4)]
        futures = [coalescer.submit("raw", r) for r in requests]
        results = [f.result(timeout=10) for f in futures]
        coalescer.close()
        for request, result in zip(requests, results):
            assert result == _expected("raw", request)
        assert coalescer.stats()["degraded_flushes"] == 1

    def test_flush_hang_delays_but_scores_unchanged(self):
        install_fault_plan("serve_flush:0:hang:0.2")
        calls = []
        coalescer = RequestCoalescer(_composition_sensitive_scorer(calls),
                                     max_wait_ms=0.0)
        started = time.monotonic()
        future = coalescer.submit("raw", _triples([(2, 1, 3)]))
        result = future.result(timeout=10)
        elapsed = time.monotonic() - started
        coalescer.close()
        assert result == _expected("raw", _triples([(2, 1, 3)]))
        assert elapsed >= 0.2
        assert coalescer.stats()["degraded_flushes"] == 0

    def test_fault_on_degraded_path_resolves_futures_with_error(self):
        # Both the flush and its degraded retry are faulted: the futures
        # must resolve with the error — never hang, never drop.
        install_fault_plan("serve_flush:0:raise,serve_flush:0@1:raise")
        coalescer = RequestCoalescer(lambda m, ts: [0.0] * len(ts),
                                     max_wait_ms=0.0)
        future = coalescer.submit("m", _triples([(0, 0, 0)]))
        with pytest.raises(Exception):
            future.result(timeout=10)
        coalescer.close()


def test_bad_request_fails_alone_in_a_fused_flush():
    """A request that fails inside a fused flush fails only itself: the
    group re-runs one request at a time, and the good requests get the
    scores of a direct ``score_many`` call, bit for bit.

    ``ScoringService.submit`` refuses an out-of-range id before queueing
    it, so the bad request enters the service's coalescer directly, as a
    request that passes validation and still fails in the model would."""
    graph = build_benchmark("fb15k-237", "EQ", seed=0, scale=0.2).split.evaluation_graph()
    model = build_model("TransE", num_entities=graph.num_entities,
                        num_relations=graph.num_relations, embedding_dim=8, seed=0)
    good = [Triple(0, 0, 1), Triple(2, 1, 3)]
    with ScoringService({"TransE": model}, graph, max_wait_ms=50.0) as service:
        with pytest.raises(InvalidRequest):
            service.submit("TransE", [Triple(0, 0, 10 ** 6)])
        futures = [service.submit("TransE", good[:1]),
                   service._coalescer.submit("TransE", [Triple(0, 0, 10 ** 6)]),
                   service.submit("TransE", good[1:])]
        with pytest.raises(IndexError):
            futures[1].result(timeout=10)
        assert futures[0].result(timeout=10) == [float(s) for s in model.score_many(good[:1])]
        assert futures[2].result(timeout=10) == [float(s) for s in model.score_many(good[1:])]
        stats = service.stats()["coalescer"]
    assert stats["split_groups"] == 1


# --------------------------------------------------------------------- #
# request validation: malformed ids are refused before the coalescer
# --------------------------------------------------------------------- #
#: Stands for the first id past the served graph's vocabulary.
PAST_VOCAB = object()

BAD_IDS = [
    pytest.param("head", True, id="bool-head"),
    pytest.param("head", np.bool_(True), id="numpy-bool-head"),
    pytest.param("head", 1.7, id="float-head"),
    pytest.param("tail", np.float64(2.0), id="numpy-float-tail"),
    pytest.param("head", "3", id="string-head"),
    pytest.param("tail", None, id="none-tail"),
    pytest.param("relation", -1, id="negative-relation"),
    pytest.param("head", -1, id="negative-head"),
    pytest.param("relation", PAST_VOCAB, id="relation-past-vocab"),
    pytest.param("tail", PAST_VOCAB, id="tail-past-vocab"),
]


@pytest.fixture(scope="module")
def transe_service():
    """TransE on fb15k-237 EQ at scale 0.2, served with a relaxed budget."""
    graph = build_benchmark("fb15k-237", "EQ", seed=0, scale=0.2).split.evaluation_graph()
    model = build_model("TransE", num_entities=graph.num_entities,
                        num_relations=graph.num_relations, embedding_dim=8, seed=0)
    service = ScoringService({"TransE": model}, graph, max_wait_ms=1.0)
    yield service
    service.close()


def _bad_triple(graph, field, value):
    triple = {"head": 0, "relation": 0, "tail": 1}
    if value is PAST_VOCAB:
        value = graph.num_relations if field == "relation" else graph.num_entities
    triple[field] = value
    return triple


@pytest.mark.parametrize("op", ["score", "score_many", "rank", "rank_candidate"])
@pytest.mark.parametrize("field,value", BAD_IDS)
def test_malformed_ids_are_refused_before_the_coalescer(transe_service, op, field, value):
    """A bool, float, string or out-of-vocabulary id raises ``InvalidRequest``
    from every scoring op, nothing reaches a flush, and the error is counted."""
    service = transe_service
    bad = _bad_triple(service.graph, field, value)
    wire = [bad["head"], bad["relation"], bad["tail"]]
    flushes = service.coalescer_stats()["flushes"]
    errors = service.stats()["errors"]
    with pytest.raises(InvalidRequest, match=field):
        if op == "score":
            service.score("TransE", bad["head"], bad["relation"], bad["tail"])
        elif op == "score_many":
            service.score_many("TransE", [(0, 0, 1), wire])
        elif op == "rank":
            service.rank("TransE", wire, [(0, 0, 2)])
        else:
            service.rank("TransE", (0, 0, 1), [(0, 0, 2), wire])
    assert service.coalescer_stats()["flushes"] == flushes
    assert service.stats()["errors"] == errors + 1


def test_numpy_integer_ids_score_like_python_ints(transe_service):
    model = transe_service._models["TransE"]
    direct = [float(s) for s in model.score_many([Triple(2, 1, 3)])]
    assert transe_service.score("TransE", np.int64(2), np.int32(1), np.uint8(3)) == direct[0]
    assert transe_service.score_many("TransE", [np.array([2, 1, 3])]) == direct


def test_malformed_triple_shapes_are_refused(transe_service):
    for triples in ([(0, 1)], [(0, 0, 1, 2)], [5], 7):
        with pytest.raises(InvalidRequest):
            transe_service.score_many("TransE", triples)


def test_daemon_answers_invalid_code_for_malformed_ids(serving_dataset):
    """Raw JSON over the socket: the daemon passes ids through uncoerced,
    answers ``"code": "invalid"`` and keeps serving the connection.  The
    socket client sends numpy integers as JSON integers and floats as they
    are, so the daemon sees them uncoerced too."""
    graph = serving_dataset.split.evaluation_graph()
    models = {"TransE": build_model("TransE", num_entities=graph.num_entities,
                                    num_relations=graph.num_relations,
                                    embedding_dim=8, seed=0)}
    service = ScoringService(models, graph, max_wait_ms=1.0)
    server = serve(service, port=0)
    host, port = server.server_address
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.02}, daemon=True)
    thread.start()
    wait_until_serving(host, port)
    requests = [
        {"op": "score", "model": "TransE", "head": True, "relation": 0, "tail": 1},
        {"op": "score", "model": "TransE", "head": 1.7, "relation": 0, "tail": 1},
        {"op": "score_many", "model": "TransE", "triples": [[0, -1, 1]]},
        {"op": "rank", "model": "TransE", "triple": ["3", 0, 1], "candidates": [[0, 0, 2]]},
        {"op": "score", "model": "TransE", "head": 2, "relation": 1, "tail": 3},
    ]
    try:
        with socket.create_connection((host, port), timeout=30) as connection:
            reader = connection.makefile("r", encoding="utf-8")
            responses = []
            for request in requests:
                connection.sendall((json.dumps(request) + "\n").encode("utf-8"))
                responses.append(json.loads(reader.readline()))
            reader.close()
        with SocketClient(host, port) as client:
            numpy_ids = client.score("TransE", np.int64(2), np.int32(1), np.uint8(3))
            with pytest.raises(ServingError, match="invalid"):
                client.score_many("TransE", [(2, 1, 3.0)])
    finally:
        server.shutdown()
        server.server_close()
        service.close()
    for response in responses[:-1]:
        assert response["ok"] is False
        assert response["code"] == "invalid"
        assert response["error"].startswith("invalid: ")
    direct = float(models["TransE"].score_many([Triple(2, 1, 3)])[0])
    assert responses[-1] == {"ok": True, "result": direct}
    assert numpy_ids == direct


# --------------------------------------------------------------------- #
# service-level bit-identity on real registered models
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def serving_dataset():
    return build_benchmark("fb15k-237", "EQ", seed=0, scale=0.15)


@pytest.fixture(scope="module")
def full_service(serving_dataset):
    """Every registered model (untrained — scoring is deterministic either
    way, and bit-identity is about composition, not quality) behind one
    service with a tight latency budget."""
    graph = serving_dataset.split.evaluation_graph()
    models = {name: build_model(name, num_entities=graph.num_entities,
                                num_relations=graph.num_relations,
                                embedding_dim=8, seed=0)
              for name in model_names()}
    service = ScoringService(models, graph, max_batch=32, max_wait_ms=1.0)
    yield service
    service.close()


@pytest.mark.parametrize("name", model_names())
def test_every_registered_model_scores_bit_identical_through_service(
        name, serving_dataset, full_service):
    triples = list(serving_dataset.test_triples[:5])
    model = full_service._models[name]
    direct = [float(s) for s in model.score_many(triples)]
    served = full_service.score_many(name, triples)
    assert served == direct


def test_concurrent_clients_stay_bit_identical(serving_dataset, full_service):
    triples = list(serving_dataset.test_triples[:4])
    names = ["DEKG-ILP", "TransE", "Grail", "DistMult", "RotatE"]
    direct = {n: [float(s) for s in full_service._models[n].score_many(triples)]
              for n in names}
    results, errors = {}, []

    def query(n):
        try:
            results[n] = full_service.score_many(n, triples)
        except Exception as error:  # pragma: no cover - surfaced below
            errors.append(error)

    threads = [threading.Thread(target=query, args=(n,)) for n in names]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert results == direct


def test_rank_matches_evaluator_rank_item(serving_dataset, full_service):
    client = InProcessClient(full_service)
    evaluator = Evaluator(serving_dataset, max_candidates=15, seed=0)
    for name in ("DEKG-ILP", "TransE", "Grail"):
        workload = evaluator._workload(list(serving_dataset.test_triples), name)
        for item in (0, 1, 3):
            triple_index, form_index = divmod(item, len(workload.forms))
            triple = workload.triples[triple_index]
            candidates = filtered_candidates(
                triple, workload.forms[form_index],
                entity_candidates=workload.entity_candidates,
                relation_candidates=workload.relation_candidates,
                known_facts=workload.known_facts,
                max_candidates=workload.max_candidates,
                rng=candidate_rng(workload.seed, triple_index, form_index))
            direct = workload.rank_item(full_service._models[name], item)
            served = client.rank(name, triple, candidates)
            assert served["rank"] == direct
            assert served["num_candidates"] == len(candidates)


def test_compare_equals_individual_scores(serving_dataset, full_service):
    triple = serving_dataset.test_triples[0]
    compared = full_service.compare(triple)
    assert set(compared) == set(model_names())
    for name, score in compared.items():
        direct = float(full_service._models[name].score_many([triple])[0])
        assert score == direct


def test_shared_provider_groups_by_signature(full_service):
    # DEKG-ILP/-R/-C share (2, True, 150); DEKG-ILP-N/Grail/TACT share
    # (2, False, 150): two shared providers, both multi-model.
    providers = {}
    for name in ("DEKG-ILP", "DEKG-ILP-R", "DEKG-ILP-C", "DEKG-ILP-N",
                 "Grail", "TACT"):
        providers.setdefault(
            full_service._models[name].subgraph_provider.extraction_signature,
            set()).add(id(full_service._models[name].subgraph_provider))
    assert all(len(ids) == 1 for ids in providers.values())
    assert len(providers) == 2
    stats = full_service.stats()
    shared = [p for p in stats["providers"] if p["shared"]]
    assert len(shared) == 2


def test_stats_shape_and_telemetry(full_service):
    stats = full_service.stats()
    assert stats["requests"] > 0
    assert set(stats["latency"]) == {"p50_ms", "p99_ms"}
    assert stats["latency"]["p50_ms"] is not None
    assert stats["coalescer"]["flushes"] > 0
    assert json.dumps(stats)  # the stats endpoint must be JSON-serializable


def test_request_fault_gives_degraded_response_then_recovers(full_service):
    install_fault_plan("serve_request:0:raise")
    degraded = handle_request(full_service, {"op": "ping"}, request_index=0)
    assert degraded == {"ok": False, "error": degraded["error"]}
    assert "degraded" in degraded["error"]
    healthy = handle_request(full_service, {"op": "ping"}, request_index=1)
    assert healthy == {"ok": True, "result": "pong"}


def test_unknown_op_and_unknown_model_are_clean_errors(full_service):
    client = InProcessClient(full_service)
    with pytest.raises(ServingError, match="unknown op"):
        client.request({"op": "frobnicate"})
    with pytest.raises(ServingError, match="not served"):
        client.score("NoSuchModel", 0, 0, 1)


# --------------------------------------------------------------------- #
# socket transport + daemon lifecycle
# --------------------------------------------------------------------- #
def test_socket_round_trip_and_shutdown_drain(serving_dataset, tmp_path):
    graph = serving_dataset.split.evaluation_graph()
    models = {"TransE": build_model("TransE", num_entities=graph.num_entities,
                                    num_relations=graph.num_relations,
                                    embedding_dim=8, seed=0)}
    stats_path = tmp_path / "serving_stats.json"
    service = ScoringService(models, graph, max_wait_ms=1.0,
                             stats_path=stats_path)
    server = serve(service, port=0)
    host, port = server.server_address
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.02}, daemon=True)
    thread.start()
    wait_until_serving(host, port)
    triples = list(serving_dataset.test_triples[:5])
    direct = [float(s) for s in models["TransE"].score_many(triples)]
    try:
        with SocketClient(host, port) as client:
            assert client.ping() == "pong"
            assert client.score_many("TransE", triples) == direct
            listing = client.models()
            assert listing[0]["name"] == "TransE"
            assert listing[0]["capabilities"]["batch_invariant_scoring"] is True
            assert client.shutdown_daemon() == "shutting down"
        thread.join(timeout=10)
        assert not thread.is_alive()
    finally:
        server.server_close()
    assert service.close() == stats_path or stats_path.exists()
    flushed = json.loads(stats_path.read_text())
    assert flushed["requests"] >= 1  # only scoring ops count as requests
    assert "coalescer" in flushed


# --------------------------------------------------------------------- #
# multi-process serving replicas (shared-memory pages)
# --------------------------------------------------------------------- #
class _SlowModel:
    """A deliberately slow scorer for backpressure tests."""

    name = "slow"

    def set_context(self, graph):
        pass

    def score_many(self, triples):
        time.sleep(0.15)
        return [0.0] * len(triples)

    def num_parameters(self):
        return 0


class TestServingReplicas:
    def _eval_models(self, graph, names):
        models = {name: build_model(name, num_entities=graph.num_entities,
                                    num_relations=graph.num_relations,
                                    embedding_dim=8, seed=0)
                  for name in names}
        for model in models.values():
            if hasattr(model, "eval"):
                model.eval()
        return models

    def test_replica_scores_bit_identical_and_segments_released(
            self, serving_dataset):
        graph = serving_dataset.split.evaluation_graph()
        models = self._eval_models(graph, ["DEKG-ILP", "TransE"])
        triples = list(serving_dataset.test_triples[:5])
        service = ScoringService(models, graph, max_wait_ms=1.0, replicas=2)
        try:
            for name in models:
                direct = [float(s) for s in models[name].score_many(triples)]
                served = InProcessClient(service).score_many(name, triples)
                assert served == direct, \
                    f"{name}: replica-served scores diverged from direct"
            replica_stats = service.stats()["replicas"]
            assert replica_stats["replicas"] == 2
            assert replica_stats["dispatched_batches"] >= 1
            assert set(replica_stats["models"]) == set(models)
        finally:
            service.close()
        listed = active_segments()
        assert listed in (None, []), f"leaked shm segments: {listed}"

    def test_training_mode_model_stays_in_process(self, serving_dataset):
        graph = serving_dataset.split.evaluation_graph()
        models = self._eval_models(graph, ["TransE"])
        trainee = build_model("DEKG-ILP", num_entities=graph.num_entities,
                              num_relations=graph.num_relations,
                              embedding_dim=8, seed=0)
        assert trainee.training
        models["DEKG-ILP"] = trainee
        triples = list(serving_dataset.test_triples[:3])
        with pytest.warns(RuntimeWarning, match="training mode"):
            service = ScoringService(models, graph, max_wait_ms=1.0, replicas=1)
        try:
            pool = service._replica_pool
            assert pool.serves("TransE")
            assert not pool.serves("DEKG-ILP")
            # The in-process path still serves the unshipped model, scores
            # unchanged.
            direct = [float(s) for s in trainee.score_many(triples)]
            assert InProcessClient(service).score_many("DEKG-ILP",
                                                       triples) == direct
        finally:
            service.close()

    def test_dead_replica_fails_only_its_request(self, serving_dataset,
                                                 monkeypatch):
        # The replicas inherit the plan: the one scoring dispatch 0 and the
        # one scoring dispatch 1 are SIGKILLed.  A bare Pool would leave
        # dispatch 0 pending forever and stall the flush thread.
        monkeypatch.setenv("REPRO_FAULTS", "replica:0:kill,replica:1:kill")
        graph = serving_dataset.split.evaluation_graph()
        models = self._eval_models(graph, ["DEKG-ILP"])
        triples = list(serving_dataset.test_triples[:4])
        service = ScoringService(models, graph, max_wait_ms=1.0, replicas=1)
        try:
            direct = [float(s) for s in models["DEKG-ILP"].score_many(triples)]
            started = time.monotonic()
            with pytest.raises(ReplicaDied):
                service.submit("DEKG-ILP", triples).result(timeout=60)
            assert time.monotonic() - started < 10.0
            response = handle_request(service, {"op": "score_many",
                                                "model": "DEKG-ILP",
                                                "triples": triples})
            assert not response["ok"] and response["code"] == "replica_died"
            # The respawned replica serves the next request, bit for bit.
            assert service.submit("DEKG-ILP", triples).result(timeout=60) == direct
            replica_stats = service.stats()["replicas"]
            assert replica_stats["dispatched_batches"] == 3
            assert replica_stats["lost_batches"] == 2
        finally:
            service.close()
        listed = active_segments()
        assert listed in (None, []), f"leaked shm segments: {listed}"

    def test_close_is_idempotent_and_late_close_safe(self, serving_dataset):
        graph = serving_dataset.split.evaluation_graph()
        models = self._eval_models(graph, ["TransE"])
        service = ScoringService(models, graph, max_wait_ms=1.0, replicas=1)
        service.close()
        service.close()
        listed = active_segments()
        assert listed in (None, []), f"leaked shm segments: {listed}"


# --------------------------------------------------------------------- #
# connection-level backpressure
# --------------------------------------------------------------------- #
class TestBackpressure:
    def test_bounded_queue_rejects_and_counts(self, serving_dataset):
        graph = serving_dataset.split.evaluation_graph()
        service = ScoringService({"slow": _SlowModel()}, graph,
                                 max_wait_ms=40.0, max_pending=1)
        try:
            first = service.submit("slow", [Triple(0, 0, 1)])
            rejected = 0
            for _ in range(4):
                try:
                    service.submit("slow", [Triple(0, 0, 1)])
                except ServiceOverloaded:
                    rejected += 1
            assert rejected >= 1, "bounded queue never rejected a request"
            assert first.result(timeout=10) == [0.0]
            assert service.stats()["coalescer"]["rejected_requests"] == rejected
            assert service.stats()["coalescer"]["max_pending"] == 1
        finally:
            service.close()

    def test_wire_response_carries_overloaded_code(self, serving_dataset):
        graph = serving_dataset.split.evaluation_graph()
        service = ScoringService({"slow": _SlowModel()}, graph,
                                 max_wait_ms=40.0, max_pending=1)
        try:
            service.submit("slow", [Triple(0, 0, 1)])
            response = None
            for _ in range(4):
                response = handle_request(
                    service, {"op": "score", "model": "slow",
                              "head": 0, "relation": 0, "tail": 1})
                if not response["ok"]:
                    break
            assert response is not None and not response["ok"]
            assert response["code"] == "overloaded"
            assert "retry with backoff" in response["error"]
        finally:
            service.close()

    def test_unbounded_by_default(self):
        coalescer = RequestCoalescer(lambda m, ts: [0.0] * len(ts))
        assert coalescer.max_pending is None
        coalescer.close()

    def test_invalid_max_pending_rejected(self):
        with pytest.raises(ValueError, match="max_pending"):
            RequestCoalescer(lambda m, ts: [], max_pending=0)


# --------------------------------------------------------------------- #
# CLI surface
# --------------------------------------------------------------------- #
def test_models_json_flag_emits_registry_listing(capsys):
    assert cli_main(["models", "--json"]) == 0
    listing = json.loads(capsys.readouterr().out)
    by_name = {row["name"]: row for row in listing}
    assert set(by_name) == set(model_names())
    assert by_name["TransE"]["capabilities"]["batch_invariant_scoring"] is True
    assert by_name["DEKG-ILP"]["capabilities"]["batch_invariant_scoring"] is False
    assert all(row["parameters"] >= 0 for row in listing)  # RuleN is parameter-free


def test_models_table_lists_batch_invariant_capability(capsys):
    assert cli_main(["models"]) == 0
    output = capsys.readouterr().out
    assert "batch-invariant" in output


def test_serve_requires_exactly_one_source():
    with pytest.raises(SystemExit, match="exactly one"):
        cli_main(["serve"])
    with pytest.raises(SystemExit, match="exactly one"):
        cli_main(["serve", "--config", "a.json", "--checkpoint", "b.npz"])


def test_registry_flags_match_measured_invariance():
    """The 9 elementwise scorers are flagged; subgraph/conv models are not."""
    flags = {name: spec.batch_invariant_scoring
             for name, spec in registered_models().items()}
    assert flags == {
        "DEKG-ILP": False, "DEKG-ILP-R": False, "DEKG-ILP-C": False,
        "DEKG-ILP-N": False, "TransE": True, "RotatE": True,
        "DistMult": True, "ConvE": False, "ComplEx": True, "HolE": True,
        "ProjE": True, "SimplE": True, "GEN": True, "RuleN": True,
        "Grail": False, "TACT": False,
    }
