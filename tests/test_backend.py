"""Tests for the pluggable array-backend seam (:mod:`repro.backend`).

Four layers of guarantees:

* **registry and selection** — known vs available backends, unknown names,
  the unavailable-cupy path, scoped activation and the resolution order;
* **backend parity** — every autodiff primitive, forward and backward,
  produces bit-identical results under every available CPU backend
  (hypothesis-driven against the numpy reference; cupy is skip-marked on
  machines without a GPU);
* **seam integrity** — nothing under ``repro/autodiff`` or ``repro/gnn``
  imports numpy directly; the backend package is the only array-module
  entry point, so activating a different backend really retargets the
  whole engine;
* **provenance** — the backend name rides along in experiment configs,
  checkpoints and counter-seeded dropout stays deterministic and
  backend-independent.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import repro
from repro.autodiff import functional as F
from repro.autodiff.layers import Dropout
from repro.autodiff.tensor import (Tensor, basis_message_passing, gather, scatter_add,
                                   segment_mean, segment_sum)
from repro.backend import (BACKEND_ENV_VAR, BackendUnavailableError, NumpyBackend,
                           TracingBackend, active_backend, available_backends,
                           get_backend, hxp, known_backend_names, register_backend,
                           resolve_backend_name, set_active_backend, thread_counts,
                           use_backend, xp)
from repro.backend.counter_rng import edge_keys, element_keys, uniform_from_keys
from repro.core.config import ModelConfig
from repro.core.model import DEKGILP
from repro.core.persistence import load_model, model_to_bytes, save_model
from repro.experiment import ExperimentConfig

# ----------------------------------------------------------------------- #
# registry and selection
# ----------------------------------------------------------------------- #
class TestRegistry:
    def test_known_backends(self):
        known = known_backend_names()
        assert {"numpy", "tracing", "cupy"} <= set(known)
        assert known == tuple(sorted(known))

    def test_numpy_and_tracing_always_available(self):
        assert {"numpy", "tracing"} <= set(available_backends())

    def test_available_is_subset_of_known(self):
        assert set(available_backends()) <= set(known_backend_names())

    def test_unknown_backend_raises_value_error(self):
        with pytest.raises(ValueError, match="unknown backend"):
            get_backend("torch")

    def test_cupy_unavailable_without_gpu(self):
        if "cupy" in available_backends():
            pytest.skip("cupy importable on this machine")
        with pytest.raises(BackendUnavailableError, match="cupy"):
            get_backend("cupy")
        # the failure is memoized, not retried
        with pytest.raises(BackendUnavailableError):
            get_backend("cupy")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_backend("numpy", NumpyBackend)

    def test_backends_are_singletons(self):
        assert get_backend("numpy") is get_backend("numpy")
        assert get_backend("tracing") is get_backend("tracing")


class TestSelection:
    def test_default_backend_is_numpy(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert active_backend().name in available_backends()

    def test_use_backend_scopes_and_restores(self):
        before = active_backend().name
        with use_backend("tracing") as backend:
            assert backend.name == "tracing"
            assert active_backend() is backend
        assert active_backend().name == before

    def test_use_backend_none_is_a_no_op(self):
        before = active_backend()
        with use_backend(None) as backend:
            assert backend is before
        assert active_backend() is before

    def test_use_backend_restores_on_exception(self):
        before = active_backend().name
        with pytest.raises(RuntimeError):
            with use_backend("tracing"):
                raise RuntimeError("boom")
        assert active_backend().name == before

    def test_nested_scopes(self):
        with use_backend("tracing"):
            with use_backend("numpy"):
                assert active_backend().name == "numpy"
            assert active_backend().name == "tracing"

    def test_set_active_backend_returns_previous(self):
        previous = set_active_backend("tracing")
        try:
            assert active_backend().name == "tracing"
        finally:
            set_active_backend(previous.name)

    def test_resolve_backend_name(self):
        assert resolve_backend_name("tracing") == "tracing"
        assert resolve_backend_name(None) == active_backend().name
        with use_backend("tracing"):
            assert resolve_backend_name(None) == "tracing"

    def test_proxies_retarget_with_the_backend(self):
        with use_backend("tracing"):
            tracing = active_backend()
            tracing.reset()
            xp.zeros(3)
            hxp.arange(2)
            assert tracing.calls["zeros"] == 1
            assert tracing.calls["host.arange"] == 1
        # back under numpy the proxy is the raw module again
        assert isinstance(xp.zeros(3), np.ndarray)

    def test_describe_and_thread_counts(self):
        description = active_backend().describe()
        assert description["name"] == active_backend().name
        assert set(description["dtype_policy"]) == {"float", "int", "bool"}
        counts = thread_counts()
        assert "OMP_NUM_THREADS" in counts and "cpu_count" in counts


# ----------------------------------------------------------------------- #
# numpy scatter kernel
# ----------------------------------------------------------------------- #
def _reference_scatter(indices, values, num_rows):
    out = np.zeros((num_rows,) + values.shape[1:])
    np.add.at(out, indices, values)
    return out


@st.composite
def _scatter_cases(draw):
    """(indices, values, num_rows) across sizes, ranks, densities, duplicates."""
    num_edges = draw(st.integers(0, 2000))
    if draw(st.booleans()):  # sparse regime: many more rows than edges
        num_rows = draw(st.integers(4 * num_edges + 1, 4 * num_edges + 4000))
    else:
        num_rows = draw(st.integers(1, max(1, 4 * num_edges)))
    # A small pool of distinct destinations makes the indices duplicate-heavy.
    distinct = draw(st.integers(1, min(num_rows, 5000)))
    trailing = draw(st.sampled_from([(), (1,), (3,), (32,), (4, 2)]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pool = rng.choice(num_rows, size=distinct, replace=False)
    indices = pool[rng.integers(0, distinct, num_edges)]
    values = rng.normal(size=(num_edges,) + trailing)
    return indices, values, num_rows


class TestScatterDispatch:
    """Calls into ``NumpyBackend.scatter_rows``, one kernel for every shape."""

    @settings(max_examples=60, deadline=None)
    @given(case=_scatter_cases())
    def test_dispatch_matches_add_at(self, case):
        """Equal to ``np.add.at`` bit for bit at every size, rank and density."""
        indices, values, num_rows = case
        result = NumpyBackend().scatter_rows(indices, values, num_rows)
        assert result.shape == (num_rows,) + values.shape[1:]
        np.testing.assert_array_equal(
            result, _reference_scatter(indices, values, num_rows))

    @pytest.mark.parametrize("trailing", [(), (2,), (2, 3)])
    @pytest.mark.parametrize("num_edges", [4, 200])
    def test_out_of_range_rows_raise(self, trailing, num_edges):
        """Rows outside ``[0, num_rows)`` raise at every size, never drop."""
        values = np.ones((num_edges,) + trailing)
        for bad in (3, -1):
            indices = np.array([0, bad] * (num_edges // 2))
            with pytest.raises(IndexError):
                NumpyBackend().scatter_rows(indices, values, 3)

    def test_dense_2d_path_is_bit_identical(self):
        """A dense, duplicate-heavy 2-D scatter equals ``np.add.at`` exactly."""
        rng = np.random.default_rng(0)
        values = rng.normal(size=(4096, 16))
        indices = rng.integers(0, 512, 4096)
        np.testing.assert_array_equal(
            NumpyBackend().scatter_rows(indices, values, 512),
            _reference_scatter(indices, values, 512))

    def test_3d_values_fall_back_to_add_at(self):
        """3-D values give exactly the ``np.add.at`` result, as 2-D ones do."""
        rng = np.random.default_rng(1)
        values = rng.normal(size=(300, 4, 2))
        indices = rng.integers(0, 10, 300)
        np.testing.assert_array_equal(
            NumpyBackend().scatter_rows(indices, values, 10),
            _reference_scatter(indices, values, 10))

    def test_empty_and_unoccupied_rows(self):
        backend = NumpyBackend()
        out = backend.scatter_rows(np.zeros(0, dtype=np.int64),
                                   np.zeros((0, 4)), 7)
        np.testing.assert_array_equal(out, np.zeros((7, 4)))
        # sparse occupancy with holes: unoccupied rows must stay zero
        values = np.ones((200, 2))
        indices = np.repeat(np.array([3, 999, 1500]), [100, 60, 40])
        result = backend.scatter_rows(indices, values, 2000)
        np.testing.assert_array_equal(result.sum(axis=0), [200.0, 200.0])
        assert result[0, 0] == 0.0 and result[1999, 0] == 0.0


# ----------------------------------------------------------------------- #
# backend parity: every autodiff primitive vs the numpy reference
# ----------------------------------------------------------------------- #
def _index_for(rows: int) -> np.ndarray:
    """A deterministic index array with duplicates and full coverage."""
    return (np.arange(rows + 2) * 3 % rows).astype(np.int64)


#: name -> builder(base 2-D float array) -> (inputs to grad, output tensor).
#: Together these exercise every differentiable primitive of the engine.
PRIMITIVES = {
    "add": lambda a: _binary(a, lambda x, y: x + y),
    "sub": lambda a: _binary(a, lambda x, y: x - y),
    "mul": lambda a: _binary(a, lambda x, y: x * y),
    "div": lambda a: _binary(a + 0.0, lambda x, y: x / (y * y + 1.0)),
    "pow": lambda a: _unary(a, lambda x: (x * x + 1.0) ** 1.5),
    "neg": lambda a: _unary(a, lambda x: -x),
    "matmul": lambda a: _binary_t(a, lambda x, y: x @ y),
    "exp": lambda a: _unary(a, lambda x: x.exp()),
    "log": lambda a: _unary(a, lambda x: (x * x + 0.5).log()),
    "sqrt": lambda a: _unary(a, lambda x: (x * x + 0.5).sqrt()),
    "relu": lambda a: _unary(a, lambda x: x.relu()),
    "sigmoid": lambda a: _unary(a, lambda x: x.sigmoid()),
    "tanh": lambda a: _unary(a, lambda x: x.tanh()),
    "sin": lambda a: _unary(a, lambda x: x.sin()),
    "cos": lambda a: _unary(a, lambda x: x.cos()),
    "abs": lambda a: _unary(a, lambda x: x.abs()),
    "clamp_min": lambda a: _unary(a, lambda x: x.clamp_min(0.1)),
    "sum_axis": lambda a: _unary(a, lambda x: x.sum(axis=0, keepdims=True)),
    "mean": lambda a: _unary(a, lambda x: x.mean(axis=-1)),
    "norm": lambda a: _unary(a, lambda x: x.norm()),
    "reshape": lambda a: _unary(a, lambda x: x.reshape(-1)),
    "transpose": lambda a: _unary(a, lambda x: x.T * 2.0),
    "getitem": lambda a: _unary(a, lambda x: x[:: 2]),
    "concat": lambda a: _binary(a, lambda x, y: Tensor.concat([x, y], axis=0)),
    "stack": lambda a: _binary(a, lambda x, y: Tensor.stack([x, y], axis=0)),
    "gather": lambda a: _unary(a, lambda x: gather(x, _index_for(a.shape[0]))),
    "scatter_add": lambda a: _unary(
        a, lambda x: scatter_add(gather(x, _index_for(a.shape[0])),
                                 _index_for(a.shape[0]), a.shape[0] + 1)),
    "segment_sum": lambda a: _unary(
        a, lambda x: segment_sum(x, np.arange(a.shape[0]) % 2, 3)),
    "segment_mean": lambda a: _unary(
        a, lambda x: segment_mean(x, np.arange(a.shape[0]) % 2, 3)),
    "basis_message_passing": lambda a: _message_passing(a),
    "softmax": lambda a: _unary(a, lambda x: F.softmax(x, axis=-1)),
    "log_softmax": lambda a: _unary(a, lambda x: F.log_softmax(x, axis=-1)),
    "bce_with_logits": lambda a: _binary(
        a, lambda x, y: F.binary_cross_entropy_with_logits(x, y.sigmoid())),
    "margin_ranking": lambda a: _binary(
        a, lambda x, y: F.margin_ranking_loss(x, y, margin=1.0)),
    "euclidean": lambda a: _binary(a, lambda x, y: F.euclidean_distance(x, y)),
}


def _unary(base, op):
    x = Tensor(base.copy(), requires_grad=True)
    return (x,), op(x)


def _binary(base, op):
    x = Tensor(base.copy(), requires_grad=True)
    y = Tensor(base.copy() * 0.5 + 0.25, requires_grad=True)
    return (x, y), op(x, y)


def _binary_t(base, op):
    x = Tensor(base.copy(), requires_grad=True)
    y = Tensor(base.T.copy(), requires_grad=True)
    return (x, y), op(x, y)


def _message_passing(base):
    """``basis_message_passing`` over ``base``'s rows as nodes, with two bases."""
    index = _index_for(base.shape[0])
    features = Tensor(base.copy(), requires_grad=True)
    basis_matrix = Tensor(np.concatenate([base.T, base.T * 0.5 + 0.25], axis=1),
                          requires_grad=True)
    coefficients = Tensor(base[index, :1] * np.array([1.0, -0.5]) + 0.1, requires_grad=True)
    out = basis_message_passing(features, basis_matrix, coefficients, index, index[::-1])
    return (features, basis_matrix, coefficients), out


def _run_primitive(name: str, base: np.ndarray):
    """Forward data + input gradients of one primitive under the active backend."""
    inputs, output = PRIMITIVES[name](base)
    output.sum().backward()
    return (np.asarray(output.data).copy(),
            [np.asarray(t.grad).copy() for t in inputs])


finite_floats = st.floats(min_value=-4.0, max_value=4.0,
                          allow_nan=False, allow_infinity=False)
base_arrays = arrays(dtype=np.float64,
                     shape=st.tuples(st.integers(2, 5), st.integers(1, 4)),
                     elements=finite_floats)

#: Every known backend; unavailable ones (cupy without a GPU) are skip-marked.
BACKEND_PARAMS = [
    pytest.param(name,
                 marks=() if name in available_backends()
                 else pytest.mark.skip(reason=f"backend {name!r} not available"))
    for name in known_backend_names()
]


class TestBackendParity:
    @pytest.mark.parametrize("backend_name", BACKEND_PARAMS)
    @settings(max_examples=15, deadline=None)
    @given(base=base_arrays)
    def test_all_primitives_match_numpy_reference(self, backend_name, base):
        """Forward and backward of every primitive, bit-identical vs numpy."""
        with use_backend("numpy"):
            reference = {name: _run_primitive(name, base) for name in PRIMITIVES}
        with use_backend(backend_name):
            for name in PRIMITIVES:
                data, grads = _run_primitive(name, base)
                expected_data, expected_grads = reference[name]
                np.testing.assert_array_equal(
                    data, expected_data,
                    err_msg=f"{name}: forward diverged under {backend_name!r}")
                assert len(grads) == len(expected_grads)
                for grad, expected in zip(grads, expected_grads):
                    np.testing.assert_array_equal(
                        grad, expected,
                        err_msg=f"{name}: gradient diverged under {backend_name!r}")

    @pytest.mark.parametrize("backend_name", BACKEND_PARAMS)
    def test_indexed_kernels_grad_check(self, backend_name):
        """Finite-difference grad check of the kernel-backed primitives."""
        rng = np.random.default_rng(0)
        base = rng.normal(size=(5, 3))
        with use_backend(backend_name):
            for name in ("gather", "scatter_add", "segment_sum", "segment_mean"):
                inputs, output = PRIMITIVES[name](base)
                output.sum().backward()
                analytic = np.asarray(inputs[0].grad)
                numeric = np.zeros_like(base)
                epsilon = 1e-6
                for index in np.ndindex(*base.shape):
                    bumped = base.copy()
                    bumped[index] += epsilon
                    _, plus = PRIMITIVES[name](bumped)
                    bumped[index] -= 2 * epsilon
                    _, minus = PRIMITIVES[name](bumped)
                    numeric[index] = (float(np.asarray(plus.sum().data))
                                      - float(np.asarray(minus.sum().data))) / (2 * epsilon)
                np.testing.assert_allclose(
                    analytic, numeric, atol=1e-5,
                    err_msg=f"{name}: grad check failed under {backend_name!r}")

    def test_tracing_backend_records_kernel_dispatches(self):
        with use_backend("tracing"):
            tracing = active_backend()
            tracing.reset()
            source = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
            out = scatter_add(gather(source, [0, 1, 1, 3]), [0, 2, 2, 1], 3)
            out.sum().backward()
            kernels = tracing.kernel_calls()
        assert kernels["kernel.gather_rows"] >= 2  # forward + scatter backward
        assert kernels["kernel.scatter_rows"] >= 2  # scatter forward + gather backward


# ----------------------------------------------------------------------- #
# seam integrity: the backend package is the only numpy entry point
# ----------------------------------------------------------------------- #
#: Real import statements only — numpy mentioned in docstrings/comments is fine.
_NUMPY_IMPORT = re.compile(r"^\s*(import\s+numpy\b|from\s+numpy\b)", re.MULTILINE)
#: Packages that must route every array operation through repro.backend.
_SEAM_PACKAGES = ("autodiff", "gnn")


class TestSeamIntegrity:
    def test_no_direct_numpy_imports_behind_the_seam(self):
        src_root = Path(repro.__file__).resolve().parent
        offenders = []
        for package in _SEAM_PACKAGES:
            for path in sorted((src_root / package).rglob("*.py")):
                text = path.read_text(encoding="utf-8")
                if _NUMPY_IMPORT.search(text):
                    offenders.append(str(path.relative_to(src_root)))
        assert not offenders, (
            f"direct numpy imports behind the backend seam: {offenders}; "
            "use `from repro.backend import xp` (compute) or `hxp` (host) instead")

    def test_seam_packages_exist(self):
        # guard against the integrity test silently scanning nothing
        src_root = Path(repro.__file__).resolve().parent
        for package in _SEAM_PACKAGES:
            assert list((src_root / package).rglob("*.py")), package


# ----------------------------------------------------------------------- #
# provenance: configs, checkpoints, metrics
# ----------------------------------------------------------------------- #
class TestBackendProvenance:
    def test_model_config_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown backend"):
            ModelConfig(backend="torch")

    def test_model_config_accepts_known_backend(self):
        assert ModelConfig(backend="tracing").backend == "tracing"
        assert ModelConfig().backend is None

    def test_experiment_config_round_trips_backend(self):
        config = ExperimentConfig(backend="tracing")
        data = config.to_dict()
        assert data["backend"] == "tracing"
        restored = ExperimentConfig.from_dict(data)
        assert restored.backend == "tracing"
        assert ExperimentConfig.from_dict({"backend": None}).backend is None

    def test_experiment_config_validate_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown backend"):
            ExperimentConfig(backend="torch").validate()

    def test_checkpoint_header_records_backend(self, tiny_graph, tmp_path):
        model = DEKGILP(3, config=ModelConfig(embedding_dim=8, gnn_hidden_dim=8,
                                              edge_dropout=0.0), seed=0)
        with use_backend("tracing"):
            path = save_model(model, tmp_path / "model.npz")
        import json
        with np.load(path) as archive:
            header = json.loads(bytes(archive["__header__"].tolist()).decode("utf-8"))
        assert header["backend"] == "tracing"
        # saved under tracing, restored under numpy: backend is provenance,
        # not a restore constraint
        restored = load_model(path)
        for name, value in model.state_dict().items():
            np.testing.assert_array_equal(value, restored.state_dict()[name])

    def test_cross_backend_scores_bit_identical(self, tiny_graph):
        from repro.core.persistence import model_from_bytes
        from repro.kg.triple import Triple

        model = DEKGILP(3, config=ModelConfig(embedding_dim=8, gnn_hidden_dim=8,
                                              edge_dropout=0.0), seed=0)
        payload = model_to_bytes(model)
        model.set_context(tiny_graph)
        model.eval()
        triples = [Triple(0, 0, 1), Triple(0, 1, 2), Triple(3, 0, 4)]
        expected = [model.score(t) for t in triples]
        with use_backend("tracing"):
            replica = model_from_bytes(payload)
            replica.set_context(tiny_graph)
            scores = [replica.score(t) for t in triples]
        assert scores == expected


# ----------------------------------------------------------------------- #
# counter-seeded dropout
# ----------------------------------------------------------------------- #
class TestCounterSeededDropout:
    def test_same_seed_and_counter_same_mask(self):
        x = Tensor(np.ones((6, 5)))
        first = F.dropout(x, 0.5, seed=7, counter=0).data
        second = F.dropout(x, 0.5, seed=7, counter=0).data
        np.testing.assert_array_equal(first, second)

    def test_counter_advances_the_stream(self):
        x = Tensor(np.ones((8, 8)))
        masks = {F.dropout(x, 0.5, seed=7, counter=c).data.tobytes()
                 for c in range(4)}
        assert len(masks) == 4

    def test_different_seeds_differ(self):
        x = Tensor(np.ones((8, 8)))
        assert not np.array_equal(F.dropout(x, 0.5, seed=1).data,
                                  F.dropout(x, 0.5, seed=2).data)

    def test_mask_is_backend_independent(self):
        x = Tensor(np.ones((6, 5)))
        with use_backend("numpy"):
            reference = F.dropout(x, 0.4, seed=11, counter=3).data
        with use_backend("tracing"):
            traced = F.dropout(Tensor(np.ones((6, 5))), 0.4, seed=11, counter=3).data
        np.testing.assert_array_equal(np.asarray(traced), reference)

    def test_kept_elements_are_rescaled(self):
        x = Tensor(np.ones((20, 20)))
        out = F.dropout(x, 0.25, seed=0).data
        kept = out[out != 0.0]
        np.testing.assert_allclose(kept, 1.0 / 0.75)
        assert 0.0 < kept.size < out.size  # some dropped, some kept

    def test_eval_mode_and_zero_rate_are_identity(self):
        x = Tensor(np.ones(5))
        assert F.dropout(x, 0.5, training=False) is x
        assert F.dropout(x, 0.0) is x

    def test_rate_one_rejected(self):
        with pytest.raises(ValueError):
            F.dropout(Tensor(np.ones(3)), 1.0)

    def test_legacy_rng_argument_stays_deterministic(self):
        x = Tensor(np.ones((6, 5)))
        first = F.dropout(x, 0.5, rng=np.random.default_rng(3)).data
        second = F.dropout(x, 0.5, rng=np.random.default_rng(3)).data
        np.testing.assert_array_equal(first, second)

    def test_dropout_layer_advances_its_counter(self):
        layer_a = Dropout(0.5, seed=9)
        layer_b = Dropout(0.5, seed=9)
        x = Tensor(np.ones((6, 5)))
        first_a, second_a = layer_a(x).data, layer_a(x).data
        first_b, second_b = layer_b(x).data, layer_b(x).data
        np.testing.assert_array_equal(first_a, first_b)   # same seed, same stream
        np.testing.assert_array_equal(second_a, second_b)
        assert not np.array_equal(first_a, second_a)      # counter advanced


# ----------------------------------------------------------------------- #
# counter RNG building blocks
# ----------------------------------------------------------------------- #
class TestCounterRng:
    def test_uniforms_deterministic_and_in_range(self):
        keys = element_keys(1000)
        first = uniform_from_keys(keys, 7, 3)
        second = uniform_from_keys(keys, 7, 3)
        np.testing.assert_array_equal(first, second)
        assert np.all((first >= 0.0) & (first < 1.0))

    def test_salts_shift_the_stream(self):
        keys = element_keys(256)
        assert not np.array_equal(uniform_from_keys(keys, 1),
                                  uniform_from_keys(keys, 2))
        assert not np.array_equal(uniform_from_keys(keys, 1, 0),
                                  uniform_from_keys(keys, 1, 1))

    def test_edge_keys_depend_on_global_identity(self):
        edges = np.array([[0, 1, 2], [1, 0, 0]])
        same = edge_keys([10, 20, 30], edges)
        np.testing.assert_array_equal(same, edge_keys([10, 20, 30], edges))
        # a different node relabeling of the same local edges -> different keys
        assert not np.array_equal(same, edge_keys([10, 20, 31], edges))

    def test_empty_edges(self):
        assert edge_keys([1, 2], np.zeros((0, 3), dtype=np.int64)).shape == (0,)
