"""Tests for the fault-tolerant execution layer.

Covers the fault-injection grammar and hooks, the atomic-write helpers, the
supervised pool's recovery paths (error retry, timeout reassignment, attempt
exhaustion, in-process degradation, interruption, the per-worker BLAS
thread budget), the training resume journal, and the checkpoint-error
chaining in ``make_model_spec``.

Pool tests use module-level task functions: ``SupervisedPool`` spawns fresh
interpreters, so everything shipped to a worker must be importable by name.
"""

from __future__ import annotations

import json
import os
import pickle
import signal
import time

import numpy as np
import pytest

from repro.autodiff.optim import Adam
from repro.autodiff.tensor import Tensor
from repro.core.config import ModelConfig, TrainingConfig
from repro.core.model import DEKGILP
from repro.core.trainer import Trainer
from repro.eval.sharding import make_model_spec
from repro.resilience import (FaultInjected, FaultPlan, RetryPolicy,
                              SupervisedPool, active_plan, atomic_write_bytes,
                              atomic_write_json, atomic_write_text, fire,
                              install_fault_plan, mangle, reset_fault_state)
from repro.resilience import atomic as atomic_module
from repro.resilience import supervisor as supervisor_module
from repro.resilience.supervisor import THREAD_VARIABLES, usable_cores


@pytest.fixture(autouse=True)
def _clean_fault_state():
    """Every test starts and ends without an installed plan or counters."""
    reset_fault_state()
    yield
    reset_fault_state()


# --------------------------------------------------------------------- #
# fault plan grammar and hooks
# --------------------------------------------------------------------- #
class TestFaultPlan:
    def test_parse_full_grammar(self):
        plan = FaultPlan.parse(
            "shard:2:kill, shard:0:hang:30,epoch:1@1:raise,shard:*:raise")
        kill, hang, retry_raise, wildcard = plan.specs
        assert (kill.site, kill.index, kill.attempt, kill.action) == \
            ("shard", 2, 0, "kill")
        assert (hang.action, hang.arg) == ("hang", 30.0)
        assert (retry_raise.site, retry_raise.index, retry_raise.attempt) == \
            ("epoch", 1, 1)
        assert wildcard.index is None

    def test_match_is_keyed_by_site_index_attempt(self):
        plan = FaultPlan.parse("shard:1:raise,shard:2@1:raise")
        assert plan.match("shard", 1, attempt=0) is not None
        assert plan.match("shard", 1, attempt=1) is None      # retries recover
        assert plan.match("shard", 2, attempt=0) is None      # armed for retry
        assert plan.match("shard", 2, attempt=1) is not None
        assert plan.match("epoch", 1, attempt=0) is None      # other site

    def test_wildcard_matches_every_index(self):
        plan = FaultPlan.parse("shard:*:raise")
        assert plan.match("shard", 0) is not None
        assert plan.match("shard", 99) is not None

    @pytest.mark.parametrize("text", [
        "shard:1",                 # too few fields
        "shard:1:explode",         # unknown action
        "shard:1:kill:3",          # kill takes no argument
        "shard:1:hang:3:4",        # too many fields
    ])
    def test_malformed_specs_rejected(self, text):
        with pytest.raises(ValueError):
            FaultPlan.parse(text)

    def test_env_plan_and_programmatic_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "shard:3:raise")
        assert active_plan().match("shard", 3) is not None
        install_fault_plan(None)             # explicit opt-out beats the env
        assert active_plan() is None
        reset_fault_state()                  # back to deferring to the env
        assert active_plan().match("shard", 3) is not None

    def test_fire_raise_and_interrupt(self):
        install_fault_plan("shard:1:raise,epoch:2:interrupt")
        fire("shard", 0)                     # non-matching: no-op
        with pytest.raises(FaultInjected) as excinfo:
            fire("shard", 1)
        assert (excinfo.value.site, excinfo.value.index) == ("shard", 1)
        with pytest.raises(KeyboardInterrupt):
            fire("epoch", 2)

    def test_mangle_counts_payloads_per_site(self):
        install_fault_plan("checkpoint:1:corrupt:2,checkpoint:2:truncate:3")
        data = b"abcdef"
        assert mangle("checkpoint", data) == data             # payload 0: clean
        flipped = mangle("checkpoint", data)                  # payload 1
        assert flipped != data and flipped[2] == data[2] ^ 0xFF
        assert mangle("checkpoint", data) == b"abc"           # payload 2
        assert mangle("other-site", data) == data             # site isolation

    def test_mangle_without_plan_is_identity(self):
        assert mangle("checkpoint", b"payload") == b"payload"


# --------------------------------------------------------------------- #
# atomic writes
# --------------------------------------------------------------------- #
class TestAtomicWrites:
    def test_bytes_roundtrip_and_overwrite(self, tmp_path):
        path = tmp_path / "artifact.bin"
        assert atomic_write_bytes(path, b"one") == path
        assert path.read_bytes() == b"one"
        atomic_write_bytes(path, b"two")
        assert path.read_bytes() == b"two"
        assert [p.name for p in tmp_path.iterdir()] == ["artifact.bin"]

    def test_creates_missing_parents(self, tmp_path):
        path = tmp_path / "a" / "b" / "artifact.txt"
        atomic_write_text(path, "hello")
        assert path.read_text() == "hello"

    def test_json_roundtrip(self, tmp_path):
        path = atomic_write_json(tmp_path / "m.json", {"mrr": 0.5, "runs": [1, 2]})
        assert json.loads(path.read_text()) == {"mrr": 0.5, "runs": [1, 2]}

    def test_failed_write_leaves_no_temporary(self, tmp_path, monkeypatch):
        path = tmp_path / "artifact.bin"
        atomic_write_bytes(path, b"intact")

        def exploding_replace(src, dst):
            raise OSError("disk on fire")

        monkeypatch.setattr(atomic_module.os, "replace", exploding_replace)
        with pytest.raises(OSError):
            atomic_write_bytes(path, b"torn")
        # The prior artifact survives untouched and no .tmp file leaks.
        assert path.read_bytes() == b"intact"
        assert [p.name for p in tmp_path.iterdir()] == ["artifact.bin"]


# --------------------------------------------------------------------- #
# supervised pool
# --------------------------------------------------------------------- #
def _double(index, payload, attempt):
    return payload * 2


def _flaky_once(index, payload, attempt):
    """Index 1 fails its first attempt, succeeds on retry."""
    if index == 1 and attempt == 0:
        raise ValueError("transient failure")
    return payload * 2


def _always_fails_index_zero(index, payload, attempt):
    if index == 0:
        raise ValueError("permanent failure")
    return payload * 2


def _hangs_first_attempt(index, payload, attempt):
    if index == 0 and attempt == 0:
        time.sleep(60)
    return payload * 2


def _kills_first_attempt(index, payload, attempt):
    if index == 0 and attempt == 0:
        os.kill(os.getpid(), signal.SIGKILL)
    return payload * 2


def _sleepy(index, payload, attempt):
    time.sleep(30)
    return payload


def _fallback(index, payload):
    return payload * 2


_FAST = dict(backoff_base=0.01, poll_interval=0.01)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(timeout=0)
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base=-1)
        RetryPolicy(timeout=None)  # deadlines off is a valid configuration

    def test_backoff_doubles_and_caps(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_max=0.35)
        assert policy.backoff(1) == pytest.approx(0.1)
        assert policy.backoff(2) == pytest.approx(0.2)
        assert policy.backoff(3) == pytest.approx(0.35)  # capped


class TestSupervisedPool:
    def test_results_ordered_like_pool_map(self):
        pool = SupervisedPool(processes=2, policy=RetryPolicy(**_FAST))
        assert pool.run(_double, [1, 2, 3, 4, 5], _fallback) == [2, 4, 6, 8, 10]
        assert pool.events == []

    def test_empty_payloads(self):
        assert SupervisedPool(processes=1).run(_double, [], _fallback) == []

    def test_processes_must_be_positive(self):
        with pytest.raises(ValueError):
            SupervisedPool(processes=0)

    def test_worker_error_is_retried(self):
        pool = SupervisedPool(processes=2, policy=RetryPolicy(**_FAST))
        events = []
        results = pool.run(_flaky_once, [10, 20, 30], _fallback,
                           on_event=events.append)
        assert results == [20, 40, 60]
        kinds = [event.kind for event in events]
        assert "error" in kinds and "retry" in kinds

    def test_exhausted_attempts_degrade_to_fallback(self):
        pool = SupervisedPool(processes=2,
                              policy=RetryPolicy(max_attempts=2, **_FAST))
        results = pool.run(_always_fails_index_zero, [10, 20], _fallback)
        assert results == [20, 40]  # index 0 completed in-process
        kinds = [event.kind for event in pool.events]
        assert kinds.count("error") == 2 and "fallback" in kinds

    def test_hung_task_is_reassigned_before_completion(self):
        pool = SupervisedPool(
            processes=2, policy=RetryPolicy(timeout=1.0, **_FAST))
        results = pool.run(_hangs_first_attempt, [10, 20], _fallback)
        assert results == [20, 40]
        kinds = [event.kind for event in pool.events]
        assert "timeout" in kinds

    def test_killed_worker_fails_its_task_immediately(self):
        pool = SupervisedPool(
            processes=2, policy=RetryPolicy(timeout=30.0, **_FAST))
        start = time.monotonic()
        results = pool.run(_kills_first_attempt, [10, 20], _fallback)
        assert results == [20, 40]
        # Detected via worker liveness, not by waiting out the 30s deadline.
        assert time.monotonic() - start < 25.0
        assert "worker-died" in [event.kind for event in pool.events]

    def test_interrupt_reports_progress_and_reraises(self):
        # An injected parent-side interrupt on the supervision loop's third
        # poll tick, while every task sleeps: no shard can have completed.
        install_fault_plan("supervisor:2:interrupt")
        pool = SupervisedPool(processes=2, policy=RetryPolicy(**_FAST))
        progress = []
        with pytest.raises(KeyboardInterrupt):
            pool.run(_sleepy, [1, 2], _fallback,
                     on_interrupt=lambda done, total: progress.append((done, total)))
        assert progress == [(0, 2)]


# --------------------------------------------------------------------- #
# per-worker BLAS thread budget
# --------------------------------------------------------------------- #
def _thread_report(index, payload, attempt):
    """The worker's thread variables, after any planned ``shard`` fault."""
    fire("shard", index, attempt)
    return {name: os.environ.get(name) for name in THREAD_VARIABLES}


def _thread_report_then_fail(index, payload, attempt):
    raise ValueError(json.dumps(_thread_report(index, payload, attempt)))


def _no_fallback(index, payload):
    raise RuntimeError(f"task {index} fell back to the parent")


class TestWorkerThreadBudget:
    @pytest.fixture(autouse=True)
    def _unset_thread_variables(self, monkeypatch):
        for name in THREAD_VARIABLES:
            monkeypatch.delenv(name, raising=False)

    @staticmethod
    def _budget(processes):
        return {name: str(max(1, usable_cores() // processes))
                for name in THREAD_VARIABLES}

    def test_unset_variables_get_the_budget(self):
        before = dict(os.environ)
        pool = SupervisedPool(processes=2, policy=RetryPolicy(**_FAST))
        reports = pool.run(_thread_report, [0, 1, 2], _no_fallback)
        assert reports == [self._budget(2)] * 3
        assert dict(os.environ) == before

    def test_user_setting_reaches_workers_unchanged(self, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        pool = SupervisedPool(processes=2, policy=RetryPolicy(**_FAST))
        reports = pool.run(_thread_report, [0, 1], _no_fallback)
        expected = {name: None for name in THREAD_VARIABLES}
        expected["OMP_NUM_THREADS"] = "3"
        assert reports == [expected] * 2

    def test_parent_environment_restored_after_failed_runs(self, monkeypatch):
        before = dict(os.environ)
        # A run that raises: the task fails in the worker (reporting what it
        # saw), attempts run out, and the fallback raises.
        failing = SupervisedPool(processes=2,
                                 policy=RetryPolicy(max_attempts=1, **_FAST))
        with pytest.raises(RuntimeError, match="fell back"):
            failing.run(_thread_report_then_fail, [0], _no_fallback)
        errors = [event for event in failing.events if event.kind == "error"]
        assert json.dumps(self._budget(2)) in errors[0].detail
        assert dict(os.environ) == before

        # A pool that fails to start: the budget was in place for it, and
        # is gone again afterwards.
        seen = []
        real_context = supervisor_module.get_context("spawn")

        class _Unstartable:
            SimpleQueue = staticmethod(real_context.SimpleQueue)

            @staticmethod
            def Pool(**kwargs):
                seen.append({name: os.environ.get(name) for name in THREAD_VARIABLES})
                raise OSError("no processes left")

        monkeypatch.setattr(supervisor_module, "get_context", lambda _: _Unstartable)
        with pytest.raises(OSError, match="no processes left"):
            SupervisedPool(processes=2).run(_double, [1], _fallback)
        assert seen == [self._budget(2)]
        assert dict(os.environ) == before

    def test_respawned_worker_gets_the_budget(self, monkeypatch):
        # One process: the retry after the kill can only run on the worker
        # the pool respawned.
        monkeypatch.setenv("REPRO_FAULTS", "shard:0:kill")
        pool = SupervisedPool(processes=1,
                              policy=RetryPolicy(timeout=30.0, **_FAST))
        reports = pool.run(_thread_report, [0, 1], _no_fallback)
        assert "worker-died" in [event.kind for event in pool.events]
        assert reports == [self._budget(1)] * 2


# --------------------------------------------------------------------- #
# make_model_spec error chaining
# --------------------------------------------------------------------- #
class TestMakeModelSpecDiagnostics:
    @pytest.fixture
    def model(self):
        return DEKGILP(3, config=ModelConfig(embedding_dim=8, gnn_hidden_dim=8),
                       seed=0)

    def test_checkpoint_failure_warns_and_falls_back_to_pickle(
            self, model, monkeypatch):
        def broken_checkpoint(m):
            raise RuntimeError("checkpoint writer exploded")

        monkeypatch.setattr("repro.core.persistence.model_to_bytes",
                            broken_checkpoint)
        with pytest.warns(RuntimeWarning, match="checkpoint writer exploded"):
            spec = make_model_spec(model)
        assert spec.kind == "pickle"

    def test_double_failure_chains_the_checkpoint_error(self, model, monkeypatch):
        def broken_checkpoint(m):
            raise RuntimeError("checkpoint writer exploded")

        def broken_pickle(obj, *args, **kwargs):
            raise pickle.PicklingError("unpicklable closure")

        monkeypatch.setattr("repro.core.persistence.model_to_bytes",
                            broken_checkpoint)
        monkeypatch.setattr("repro.eval.sharding.pickle.dumps", broken_pickle)
        with pytest.warns(RuntimeWarning):
            with pytest.raises(TypeError, match="checkpoint serialization failed"
                               ) as excinfo:
                make_model_spec(model)
        # The root cause (the checkpoint error) is chained, not discarded.
        assert isinstance(excinfo.value.__cause__, RuntimeError)
        assert "checkpoint writer exploded" in str(excinfo.value.__cause__)


# --------------------------------------------------------------------- #
# training journal / resume
# --------------------------------------------------------------------- #
def _make_trainer(graph, journal_path=None, seed=0, epochs=2,
                  checkpoint_every=1):
    config = ModelConfig(embedding_dim=8, gnn_hidden_dim=8, edge_dropout=0.5)
    training = TrainingConfig(epochs=epochs, batch_size=4,
                              contrastive_examples=1, seed=seed,
                              checkpoint_every=checkpoint_every)
    model = DEKGILP(3, config=config, seed=seed)
    return Trainer(model, graph, training, journal_path=journal_path)


class TestTrainingResume:
    def test_resumed_run_is_bit_identical(self, tiny_graph, tmp_path):
        journal = tmp_path / "journal.npz"
        straight = _make_trainer(tiny_graph)
        straight.fit()

        interrupted = _make_trainer(tiny_graph, journal_path=journal)
        interrupted.fit(epochs=1)            # journal written after epoch 0
        assert journal.exists()

        resumed = _make_trainer(tiny_graph, journal_path=journal)
        assert resumed.restore_journal() == 1
        resumed.fit()

        # Bit-identical final parameters despite the restart (dropout is on,
        # so any RNG drift between the two runs would show here).
        for name, value in straight.model.state_dict().items():
            np.testing.assert_array_equal(
                value, resumed.model.state_dict()[name], err_msg=name)
        assert len(resumed.history.records) == 2

    def test_restore_rejects_model_checkpoint(self, tiny_graph, tmp_path):
        from repro.core.persistence import save_model

        trainer = _make_trainer(tiny_graph)
        path = save_model(trainer.model, tmp_path / "model.npz")
        with pytest.raises(ValueError, match="not a training journal"):
            trainer.restore_journal(path)

    def test_restore_rejects_seed_mismatch(self, tiny_graph, tmp_path):
        journal = tmp_path / "journal.npz"
        writer = _make_trainer(tiny_graph, journal_path=journal)
        writer.fit(epochs=1)
        reader = _make_trainer(tiny_graph, journal_path=journal, seed=1)
        with pytest.raises(ValueError, match="seed"):
            reader.restore_journal()

    def test_journal_requires_a_path(self, tiny_graph):
        trainer = _make_trainer(tiny_graph)
        with pytest.raises(ValueError, match="no journal path"):
            trainer.write_journal()
        with pytest.raises(ValueError, match="no journal path"):
            trainer.restore_journal()

    def test_interrupted_fit_flushes_progress_record(self, tiny_graph, tmp_path):
        journal = tmp_path / "journal.npz"
        install_fault_plan("epoch:1:interrupt")  # Ctrl-C at the start of epoch 1
        trainer = _make_trainer(tiny_graph, journal_path=journal)
        with pytest.raises(KeyboardInterrupt):
            trainer.fit()
        record = json.loads((tmp_path / "journal.progress.json").read_text())
        assert record["kind"] == "training-interrupt"
        assert record["completed_epochs"] == 1
        assert record["target_epochs"] == 2
        assert record["journal"] == str(journal)

    def test_checkpoint_every_zero_writes_no_journal(self, tiny_graph, tmp_path):
        journal = tmp_path / "journal.npz"
        trainer = _make_trainer(tiny_graph, journal_path=journal,
                                checkpoint_every=0)
        trainer.fit()
        assert not journal.exists()


class TestAdamStateDict:
    def test_roundtrip(self):
        params = [Tensor(np.ones((2, 2)), requires_grad=True),
                  Tensor(np.zeros(3), requires_grad=True)]
        optimizer = Adam(params, lr=0.1)
        for _ in range(3):
            for param in params:
                param.grad = np.ones_like(param.data)
            optimizer.step()
        state = optimizer.state_dict()

        fresh = Adam([Tensor(np.ones((2, 2)), requires_grad=True),
                      Tensor(np.zeros(3), requires_grad=True)], lr=0.1)
        fresh.load_state_dict(state)
        assert fresh._step == optimizer._step
        for restored, original in zip(fresh._m, optimizer._m):
            np.testing.assert_array_equal(restored, original)
        for restored, original in zip(fresh._v, optimizer._v):
            np.testing.assert_array_equal(restored, original)

    def test_load_rejects_wrong_shapes(self):
        optimizer = Adam([Tensor(np.ones((2, 2)), requires_grad=True)])
        state = optimizer.state_dict()
        other = Adam([Tensor(np.ones(5), requires_grad=True)])
        with pytest.raises(ValueError):
            other.load_state_dict(state)
