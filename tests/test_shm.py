"""Shared-memory page invariants: integrity, zero-copy parity, zero leaks.

PR 10's zero-copy scale-out rests on three claims, each pinned here:

* **Integrity** — a page round-trips arrays bit-for-bit behind read-only
  views, and any corruption (a flipped byte in the segment, a wrong
  manifest checksum, a vanished segment) raises
  :class:`CheckpointCorruptionError` naming what broke, never returning
  silently wrong arrays.
* **Parity** — a :class:`SharedGraphView` answers every ``KnowledgeGraph``
  query identically to the dict-backed original, and a model restored
  from a parameter page (or the byte fallback) scores bit-identically to
  the source model — for **every** registered model, on hypothesis-drawn
  workloads.
* **Leak-freedom** — no named segment survives any teardown path of the
  supervised shard pool: clean exit, killed worker, retried attach fault,
  exhausted-attempts fallback, a parent-side interrupt, or a SIGKILL of the
  parent and its workers (the resource tracker unlinks what they left).
"""

from __future__ import annotations

import copy
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Set

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.persistence import (CheckpointCorruptionError, params_from_shm,
                                    params_to_shm)
from repro.eval.evaluator import Evaluator
from repro.eval.sharding import make_shm_model_spec, restore_model
from repro.kg.graph import SharedGraphView, graph_from_shm, graph_to_shm
from repro.kg.triple import Triple
from repro.registry import build_model, model_names
from repro.resilience import install_fault_plan, reset_fault_state
from repro.shm import (SEGMENT_PREFIX, PageSpec, active_segments, attach_page,
                       create_page, shm_available, shm_enabled)

needs_shm = pytest.mark.skipif(not shm_available(),
                               reason="POSIX shared memory unavailable")


@pytest.fixture(scope="module")
def tiny_dekgilp(small_benchmark):
    """A deterministic eval-mode DEKG-ILP (scoring cost, not training, matters)."""
    from repro.core.config import ModelConfig
    from repro.core.model import DEKGILP

    model = DEKGILP(small_benchmark.num_relations,
                    config=ModelConfig(embedding_dim=8, gnn_hidden_dim=8,
                                       edge_dropout=0.0),
                    seed=0)
    model.eval()
    return model


def _segments():
    listed = active_segments()
    return [] if listed is None else listed


@pytest.fixture(autouse=True)
def _clean_state():
    """Every test starts fault-free and must end without a named segment."""
    reset_fault_state()
    assert _segments() == []
    yield
    reset_fault_state()
    assert _segments() == [], f"leaked shm segments: {_segments()}"


# --------------------------------------------------------------------- #
# page primitives: round trip, read-only views, corruption detection
# --------------------------------------------------------------------- #
@needs_shm
class TestPagePrimitives:
    def _arrays(self):
        rng = np.random.default_rng(7)
        return {
            "weights": rng.normal(size=(5, 3)),
            "offsets": np.arange(11, dtype=np.int64),
            "empty": np.zeros((0, 2), dtype=np.float32),
        }

    def test_round_trip_bit_identical_and_read_only(self):
        arrays = self._arrays()
        with create_page(arrays, header={"kind": "test"}) as handle:
            page = attach_page(handle.spec)
            try:
                assert set(page.arrays) == set(arrays)
                for name, original in arrays.items():
                    view = page.arrays[name]
                    assert view.dtype == original.dtype
                    assert np.array_equal(view, original)
                    assert not view.flags.writeable
                    if view.size:
                        with pytest.raises(ValueError):
                            view[tuple(0 for _ in view.shape)] = 0
                assert handle.spec.header == {"kind": "test"}
            finally:
                page.close()

    def test_spec_json_round_trip(self):
        with create_page(self._arrays()) as handle:
            spec = PageSpec.from_json(handle.spec.to_json())
            assert spec == handle.spec
            page = attach_page(spec)
            page.close()

    def test_manifest_checksum_corruption_raises(self):
        with create_page(self._arrays()) as handle:
            manifest = copy.deepcopy(handle.spec.manifest)
            manifest["arrays"]["weights"]["crc32"] ^= 1
            bad = PageSpec(name=handle.spec.name, manifest=manifest)
            with pytest.raises(CheckpointCorruptionError, match="weights"):
                attach_page(bad)

    def test_segment_byte_corruption_raises(self):
        from multiprocessing import shared_memory

        with create_page(self._arrays()) as handle:
            entry = handle.spec.manifest["arrays"]["offsets"]
            raw = shared_memory.SharedMemory(name=handle.spec.name)
            try:
                raw.buf[entry["offset"]] ^= 0xFF
            finally:
                raw.close()
            with pytest.raises(CheckpointCorruptionError, match="offsets"):
                attach_page(handle.spec)

    def test_missing_segment_raises(self):
        handle = create_page(self._arrays())
        spec = handle.spec
        handle.release()
        with pytest.raises(CheckpointCorruptionError):
            attach_page(spec)

    def test_release_is_idempotent(self):
        handle = create_page(self._arrays())
        handle.release()
        handle.release()
        assert _segments() == []


# --------------------------------------------------------------------- #
# shared graph view: every KnowledgeGraph query answers identically
# --------------------------------------------------------------------- #
@needs_shm
class TestSharedGraphView:
    def test_view_matches_dict_backed_graph(self, tiny_graph):
        spec, handle = graph_to_shm(tiny_graph)
        view = graph_from_shm(spec)
        try:
            assert isinstance(view, SharedGraphView)
            assert view.num_entities == tiny_graph.num_entities
            assert view.num_relations == tiny_graph.num_relations
            assert view.num_triples() == tiny_graph.num_triples()
            assert len(view) == len(tiny_graph)
            assert set(view) == set(tiny_graph)
            for triple in tiny_graph:
                assert view.contains(triple.head, triple.relation, triple.tail)
                assert triple in view
            assert not view.contains(0, 0, tiny_graph.num_entities - 1) or \
                tiny_graph.contains(0, 0, tiny_graph.num_entities - 1)
            for entity in range(tiny_graph.num_entities):
                assert view.degree(entity) == tiny_graph.degree(entity)
                assert view.neighbors(entity) == tiny_graph.neighbors(entity)
                assert np.array_equal(view.relation_component_table(entity),
                                      tiny_graph.relation_component_table(entity))
            assert list(view.entities()) == list(tiny_graph.entities())
            assert np.array_equal(view.triple_array(), tiny_graph.triple_array())
            ours, theirs = view.adjacency(), tiny_graph.adjacency()
            assert np.array_equal(ours.und_offsets, theirs.und_offsets)
            assert np.array_equal(ours.und_neighbors, theirs.und_neighbors)
        finally:
            view.close()
            handle.release()

    def test_lazy_dict_indexes_match(self, tiny_graph):
        spec, handle = graph_to_shm(tiny_graph)
        view = graph_from_shm(spec)
        try:
            # RuleN and friends consume the dict indexes; __getattr__
            # materializes them on demand from the shared triple array.
            assert view._out == tiny_graph._out
            assert view._triple_set == tiny_graph._triple_set
        finally:
            view.close()
            handle.release()

    def test_view_is_frozen(self, tiny_graph):
        spec, handle = graph_to_shm(tiny_graph)
        view = graph_from_shm(spec)
        try:
            with pytest.raises(TypeError):
                view.add_triple(Triple(0, 0, 1))
            with pytest.raises(TypeError):
                view.add_triples([Triple(0, 0, 1)])
        finally:
            view.close()
            handle.release()


# --------------------------------------------------------------------- #
# parameter pages: zero-copy restore scores bit-identically
# --------------------------------------------------------------------- #
@needs_shm
class TestParameterPages:
    def test_params_round_trip_bit_identical(self, small_benchmark, tiny_dekgilp):
        graph = small_benchmark.split.evaluation_graph()
        tiny_dekgilp.set_context(graph)
        triples = list(small_benchmark.test_triples[:4])
        reference = [float(s) for s in tiny_dekgilp.score_many(triples)]

        handle = params_to_shm(tiny_dekgilp)
        try:
            restored = params_from_shm(handle.spec)
            restored.set_context(graph)
            assert [float(s) for s in restored.score_many(triples)] == reference
            # Adopted parameters are the read-only page views, not copies
            # (state_dict() would copy; the live param data must not).
            params = dict(restored.named_parameters())
            assert params
            assert all(not p.data.flags.writeable for p in params.values())
            del restored
        finally:
            handle.release()


_REPLICA_MODELS = {}


@pytest.mark.parametrize("name", model_names())
@given(data=st.data())
@settings(max_examples=2, deadline=None)
def test_shm_replica_scores_bit_identical_per_model(name, small_benchmark, data):
    """Every registered model: replica-restored scoring equals the source.

    The replica spec is exactly what eval shards and serving replicas
    restore from (a parameter page where the model supports it, the
    checkpoint/pickle fallback otherwise), so equality here is the
    bit-identity guarantee at its narrowest point.
    """
    graph = small_benchmark.split.evaluation_graph()
    if name not in _REPLICA_MODELS:
        model = build_model(name, num_entities=graph.num_entities,
                            num_relations=graph.num_relations,
                            embedding_dim=8, seed=0)
        if hasattr(model, "eval"):
            model.eval()
        _REPLICA_MODELS[name] = model
    model = _REPLICA_MODELS[name]
    model.set_context(graph)

    pool = list(small_benchmark.test_triples[:8])
    indices = data.draw(st.lists(st.integers(0, len(pool) - 1),
                                 min_size=1, max_size=4, unique=True))
    triples = [pool[i] for i in indices]
    reference = [float(s) for s in model.score_many(triples)]

    spec, handle = make_shm_model_spec(model)
    try:
        replica = restore_model(spec)
        replica.set_context(graph)
        assert [float(s) for s in replica.score_many(triples)] == reference
        del replica
    finally:
        if handle is not None:
            handle.release()


# --------------------------------------------------------------------- #
# segment lifecycle: no teardown path may leak a named segment
# --------------------------------------------------------------------- #
class TestSegmentLifecycle:
    def _sequential(self, small_benchmark, tiny_dekgilp):
        evaluator = Evaluator(small_benchmark, max_candidates=5, seed=0)
        triples = small_benchmark.test_triples[:4]
        return evaluator, triples, evaluator.evaluate(
            tiny_dekgilp, test_triples=triples).summary()

    def _run(self, small_benchmark, tiny_dekgilp, monkeypatch, faults=None,
             attempts=3):
        evaluator = Evaluator(small_benchmark, max_candidates=5, seed=0,
                              shard_timeout=60.0, shard_attempts=attempts)
        triples = small_benchmark.test_triples[:4]
        baseline = evaluator.evaluate(tiny_dekgilp, test_triples=triples).summary()
        if faults is not None:
            # Through the environment, which every pool worker gets.
            monkeypatch.setenv("REPRO_FAULTS", faults)
        try:
            sharded = evaluator.evaluate(tiny_dekgilp, test_triples=triples,
                                         workers=2).summary()
        finally:
            monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert sharded == baseline
        assert _segments() == []

    def test_clean_run_leaves_no_segments(self, small_benchmark, tiny_dekgilp,
                                          monkeypatch):
        self._run(small_benchmark, tiny_dekgilp, monkeypatch)

    def test_killed_worker_leaves_no_segments(self, small_benchmark,
                                              tiny_dekgilp, monkeypatch):
        self._run(small_benchmark, tiny_dekgilp, monkeypatch,
                  faults="shard:0:kill")

    def test_attach_fault_retries_and_leaves_no_segments(
            self, small_benchmark, tiny_dekgilp, monkeypatch):
        if not shm_enabled():
            pytest.skip("shm disabled: no attach path to fault")
        self._run(small_benchmark, tiny_dekgilp, monkeypatch,
                  faults="shm_attach:0:raise")

    def test_exhausted_attempts_fall_back_and_leave_no_segments(
            self, small_benchmark, tiny_dekgilp, monkeypatch):
        # Shard 0 fails every attempt -> the supervisor degrades it to the
        # in-process fallback sweep, which runs BEFORE the pages are
        # released (the sweep itself may still need them).
        self._run(small_benchmark, tiny_dekgilp, monkeypatch,
                  faults="shard:0@0:raise,shard:0@1:raise", attempts=2)

    def test_parent_interrupt_leaves_no_segments(self, small_benchmark,
                                                 tiny_dekgilp):
        evaluator = Evaluator(small_benchmark, max_candidates=5, seed=0,
                              shard_timeout=60.0, shard_attempts=2)
        # Parent-side simulated Ctrl-C on an early supervision poll tick.
        install_fault_plan("supervisor:1:interrupt")
        with pytest.raises(KeyboardInterrupt):
            evaluator.evaluate(tiny_dekgilp,
                               test_triples=small_benchmark.test_triples[:4],
                               workers=2)
        assert _segments() == []


# --------------------------------------------------------------------- #
# a SIGKILLed owner: the resource tracker is the only one left to unlink
# --------------------------------------------------------------------- #
_SRC = str(Path(__file__).resolve().parent.parent / "src")

#: Starts the resource tracker in the caller's process group, then moves
#: itself into a group of its own, so the fork server and the workers it
#: starts can be SIGKILLed together while the tracker survives them.
#: Workers import this script too, hence everything sits under the guard.
_KILLED_OWNER_SCRIPT = """
import os
import sys

sys.path.insert(0, {src!r})

if __name__ == "__main__":
    from multiprocessing import resource_tracker

    resource_tracker.ensure_running()
    print(resource_tracker._resource_tracker._pid, flush=True)
    os.setpgid(0, 0)

    from repro.core.config import ModelConfig
    from repro.core.model import DEKGILP
    from repro.datasets.benchmark import build_benchmark
    from repro.eval.evaluator import Evaluator

    dataset = build_benchmark("fb15k-237", "EQ", seed=1, scale=0.25)
    model = DEKGILP(dataset.num_relations, seed=0,
                    config=ModelConfig(embedding_dim=8, gnn_hidden_dim=8,
                                       edge_dropout=0.0))
    model.eval()
    Evaluator(dataset, max_candidates=5, seed=0).evaluate(
        model, test_triples=dataset.test_triples[:4], workers=2)
"""


def _group_pids(group: int) -> List[int]:
    pids = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                if os.getpgid(int(entry)) == group:
                    pids.append(int(entry))
            except OSError:
                pass
    return pids


def _mapped_pages(pid: int) -> Set[str]:
    try:
        with open(f"/proc/{pid}/maps") as maps:
            return {line.split("/dev/shm/")[1].split()[0] for line in maps
                    if "/dev/shm/" + SEGMENT_PREFIX in line}
    except OSError:
        return set()


def _running(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _wait_for(condition, timeout: float) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if condition():
            return True
        time.sleep(0.1)
    return False


@needs_shm
@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
class TestKilledOwner:
    def test_sigkilled_evaluation_leaves_no_page(self, tmp_path):
        script = tmp_path / "owner.py"
        script.write_text(_KILLED_OWNER_SCRIPT.format(src=_SRC))
        env = {key: value for key, value in os.environ.items()
               if key not in ("PYTHONPATH", "REPRO_FAULTS")}
        env["REPRO_FAULTS"] = "shard:*:hang:60"  # workers hang after attaching
        process = subprocess.Popen([sys.executable, str(script)], cwd=tmp_path,
                                   env=env, stdout=subprocess.PIPE, text=True)
        pages: Set[str] = set()
        try:
            ready, _, _ = select.select([process.stdout], [], [], 60.0)
            assert ready, "the run never reported its resource tracker"
            tracker = int(process.stdout.readline())

            def workers_attached() -> bool:
                attached = [pid for pid in _group_pids(process.pid)
                            if pid != process.pid and _mapped_pages(pid)]
                for pid in attached:
                    pages.update(_mapped_pages(pid))
                return len(attached) >= 2

            assert _wait_for(workers_attached, 90.0), "workers never attached"
            os.killpg(process.pid, signal.SIGKILL)
            process.wait(timeout=30)
            assert _wait_for(lambda: not _running(tracker), 30.0), \
                "the resource tracker outlived the killed run"
            leaked = sorted(name for name in pages
                            if os.path.exists(f"/dev/shm/{name}"))
            assert leaked == [], f"a SIGKILLed run leaked {leaked}"
        finally:
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:  # gone, or never left the caller's group
                process.kill()
            process.wait()
            process.stdout.close()
            for name in pages:  # keep a failure from tripping later leak checks
                try:
                    os.unlink(f"/dev/shm/{name}")
                except OSError:
                    pass
