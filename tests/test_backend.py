"""Tests for the indexed kernels and the counter RNG (:mod:`repro.backend`).

* **kernels** — ``NumpyBackend``'s three scipy sparse-product kernels equal
  their numpy oracles (``np.add.at`` and the ``einsum`` chains below) bit
  for bit, and reject bad index arrays before building a sparse matrix;
* **dispatch** — the autodiff primitives reach the kernels through the
  classes, at call time, so a wrapper installed on ``NumpyBackend`` or
  ``ArrayBackend`` after import (perfbench's ``kernels.*`` probes) sees every
  call;
* **backend provenance** — ``ModelConfig`` names no array backend, so a
  model config that sets one is refused;
* **counter-seeded dropout** and its splitmix64 building blocks.
"""

from __future__ import annotations

import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro.autodiff import functional as F
from repro.autodiff.layers import Dropout
from repro.autodiff.tensor import Tensor, basis_message_passing, gather, scatter_add
from repro.backend import ArrayBackend, NumpyBackend
from repro.backend.counter_rng import edge_keys, element_keys, uniform_from_keys
from repro.core.config import ModelConfig
from repro.core.model import DEKGILP
from repro.experiment import ExperimentConfig
from repro.kg.triple import Triple


# ----------------------------------------------------------------------- #
# the kernels and their numpy oracles
# ----------------------------------------------------------------------- #
def _reference_scatter(indices, values, num_rows):
    """The ``scatter_rows`` oracle: ``np.add.at`` into zeros."""
    out = np.zeros((num_rows,) + values.shape[1:])
    np.add.at(out, indices, values)
    return out


def _einsum_gather_combine(values, indices, weights):
    """The ``gather_combine`` oracle: gather the rows, then contract the
    block axis with ``einsum("ebo,eb->eo")``."""
    num_edges, num_blocks = weights.shape
    gathered = values[indices].reshape(num_edges, num_blocks, values.shape[1] // num_blocks)
    return np.einsum("ebo,eb->eo", gathered, weights)


def _einsum_scatter_combine(values, indices, weights, num_rows):
    """The ``scatter_combine`` oracle: the ``einsum("eo,eb->ebo")`` outer
    product summed into ``num_rows`` rows by ``np.add.at``."""
    num_edges, num_blocks = weights.shape
    blocks = np.einsum("eo,eb->ebo", values, weights).reshape(
        num_edges, num_blocks * values.shape[1])
    return _reference_scatter(indices, blocks, num_rows)


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
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    if layout == "F":
        values = np.asfortranarray(values)
    elif layout == "strided":  # every other row of a twice-as-long array
        values = np.repeat(values, 2, axis=0)[::2]
    return indices, values, num_rows


class TestScatterDispatch:
    """Calls into ``NumpyBackend.scatter_rows``, one kernel for every shape."""

    @settings(max_examples=60, deadline=None)
    @given(case=_scatter_cases())
    @example(case=(np.zeros(0, dtype=np.int64), np.zeros((0, 32)), 5))
    @example(case=(np.zeros(0, dtype=np.int64), np.zeros((0, 4, 2)), 0))
    @example(case=(np.array([2, 0, 2]), np.arange(12.0).reshape(4, 3).T, 3))
    def test_dispatch_matches_add_at(self, case):
        """Equal to ``np.add.at`` bit for bit at every size, rank, density and
        memory layout, empty multi-column values included."""
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


def _ordered_basis_sum(values, indices, weights):
    """The oracle: ``Σ_b weights[:, b] · (block b of values[indices])``, one block
    at a time in ``b`` order."""
    num_edges, num_blocks = weights.shape
    width = values.shape[1] // num_blocks
    gathered = values[indices].reshape(num_edges, num_blocks, width)
    out = np.zeros((num_edges, width))
    for block in range(num_blocks):
        out = out + gathered[:, block, :] * weights[:, block:block + 1]
    return out


@st.composite
def _gather_combine_cases(draw):
    """(values, indices, weights) with few distinct sources, so duplicates abound."""
    num_rows = draw(st.integers(1, 60))
    num_edges = draw(st.integers(0, 300))
    num_blocks = draw(st.integers(1, 6))
    width = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pool = rng.choice(num_rows, size=draw(st.integers(1, num_rows)), replace=False)
    indices = pool[rng.integers(0, len(pool), num_edges)]
    return (rng.normal(size=(num_rows, num_blocks * width)), indices,
            rng.normal(size=(num_edges, num_blocks)))


@st.composite
def _scatter_combine_cases(draw):
    """(values, indices, weights, num_rows): a ``gather_combine`` case's
    indices and weights, with ``(E, W)`` values in a drawn memory layout."""
    projected, indices, weights = draw(_gather_combine_cases())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    values = rng.normal(size=(len(indices), projected.shape[1] // weights.shape[1]))
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    if layout == "F":
        values = np.asfortranarray(values)
    elif layout == "strided":  # every other row of a twice-as-long array
        values = np.repeat(values, 2, axis=0)[::2]
    return values, indices, weights, projected.shape[0]


class TestSparseKernels:
    """The scipy products: ``gather_combine``'s and
    ``scatter_combine``'s exactness, the index checks all three kernels make
    first, and the lazy ``scipy`` import."""

    @settings(max_examples=80, deadline=None)
    @given(case=_gather_combine_cases())
    @example(case=(np.ones((3, 8)), np.zeros(0, dtype=np.int64), np.zeros((0, 4))))
    @example(case=(np.arange(6.0).reshape(1, 6), np.zeros(5, dtype=np.int64),
                   np.linspace(-1.0, 1.0, 15).reshape(5, 3)))
    @example(case=(np.arange(12.0).reshape(4, 3), np.array([3, 3, 0]), np.ones((3, 1))))
    def test_matches_ordered_basis_sum(self, case):
        """Equal, bit for bit, to adding the bases one at a time in ``b`` order,
        and for two or more output columns to the einsum oracle as well.

        At one output column einsum reduces the ``B`` products in another
        order, so there the kernel can differ from it in the last bit; in
        4,000 random shapes the only mismatches were ``out = 1`` with
        ``B ≥ 3``.  The kernel keeps the ``b`` order at every width.
        """
        values, indices, weights = case
        result = NumpyBackend().gather_combine(values, indices, weights)
        expected = _ordered_basis_sum(values, indices, weights)
        assert result.shape == expected.shape
        np.testing.assert_array_equal(result, expected)
        if expected.shape[1] >= 2:
            np.testing.assert_array_equal(result, _einsum_gather_combine(values, indices, weights))

    @settings(max_examples=80, deadline=None)
    @given(case=_scatter_combine_cases())
    @example(case=(np.zeros((0, 4)), np.zeros(0, dtype=np.int64), np.zeros((0, 3)), 5))
    @example(case=(np.linspace(-1.0, 1.0, 5).reshape(5, 1), np.array([2, 0, 2, 2, 1]),
                   np.linspace(0.5, 2.5, 15).reshape(5, 3), 3))
    @example(case=(np.asfortranarray(np.arange(12.0).reshape(4, 3)), np.array([1, 1, 0, 1]),
                   np.ones((4, 1)), 2))
    def test_scatter_combine_matches_its_default(self, case):
        """Equal, bit for bit, to the ``einsum("eo,eb->ebo")`` outer product
        summed by ``np.add.at`` (:func:`_einsum_scatter_combine`), and to the
        broadcast outer product summed by the ``scatter_rows`` kernel: each
        term is one product, and every row adds its terms in edge order."""
        values, indices, weights, num_rows = case
        result = NumpyBackend().scatter_combine(values, indices, weights, num_rows)
        assert result.shape == (num_rows, weights.shape[1] * values.shape[1])
        np.testing.assert_array_equal(
            result, _einsum_scatter_combine(values, indices, weights, num_rows))
        outer = (values[:, None, :] * weights[:, :, None]).reshape(len(indices), result.shape[1])
        np.testing.assert_array_equal(
            result, NumpyBackend().scatter_rows(indices, outer, num_rows))

    @pytest.mark.parametrize("kernel", ["scatter_rows", "gather_combine", "scatter_combine"])
    @pytest.mark.parametrize("indices,error", [([0, 3], IndexError), ([0, -1], IndexError),
                                               ([0.0, 1.0], TypeError)])
    def test_bad_indices_raise_before_any_sparse_call(self, monkeypatch, kernel, indices,
                                                      error):
        """scipy does not bounds-check the indices of a sparse matrix it is
        handed, so the kernels reject them before building one."""
        import scipy.sparse

        def refuse(*args, **kwargs):
            raise AssertionError("a sparse matrix was built from unchecked indices")

        monkeypatch.setattr(scipy.sparse, "csr_array", refuse)
        monkeypatch.setattr(scipy.sparse, "csc_array", refuse)
        backend, indices = NumpyBackend(), np.array(indices)
        with pytest.raises(error):
            if kernel == "scatter_rows":
                backend.scatter_rows(indices, np.ones((2, 4)), 3)
            elif kernel == "gather_combine":
                backend.gather_combine(np.ones((3, 8)), indices, np.ones((2, 2)))
            else:
                backend.scatter_combine(np.ones((2, 4)), indices, np.ones((2, 2)), 3)

    def test_import_leaves_scipy_unloaded(self):
        """``import repro``, ``repro.experiment`` and ``repro.cli`` load no
        scipy module: the kernels import ``scipy.sparse`` on their first call,
        so start-up and training set-up do not pay for it."""
        src = Path(repro.__file__).resolve().parent.parent
        code = ("import sys, repro, repro.experiment, repro.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                env=dict(os.environ, PYTHONPATH=str(src)), timeout=120,
                                check=True)
        assert result.stdout.strip() == "[]"


# ----------------------------------------------------------------------- #
# dispatch: the primitives reach the kernels through the classes
# ----------------------------------------------------------------------- #
#: The kernel methods perfbench's ``kernels.*`` probes wrap, with the class
#: each is defined on.
_SPIED_KERNELS = ((NumpyBackend, "scatter_rows"), (NumpyBackend, "gather_combine"),
                  (NumpyBackend, "scatter_combine"), (ArrayBackend, "gather_rows"))


@pytest.fixture
def kernel_calls(monkeypatch):
    """Call counts of the kernel methods, spied on the classes the way
    perfbench patches them: after every ``repro`` module is imported."""
    calls = Counter()
    for owner, name in _SPIED_KERNELS:
        def spy(self, *args, _kernel=vars(owner)[name], _name=name, **kwargs):
            calls[_name] += 1
            return _kernel(self, *args, **kwargs)

        monkeypatch.setattr(owner, name, spy)
    return calls


def _message_passing(base):
    """``basis_message_passing`` over ``base``'s rows as nodes, with two
    bases, every input requiring grad."""
    index = (np.arange(base.shape[0] + 2) * 3 % base.shape[0]).astype(np.int64)
    features = Tensor(base.copy(), requires_grad=True)
    basis_matrix = Tensor(np.concatenate([base.T, base.T * 0.5 + 0.25], axis=1),
                          requires_grad=True)
    coefficients = Tensor(base[index, :1] * np.array([1.0, -0.5]) + 0.1, requires_grad=True)
    out = basis_message_passing(features, basis_matrix, coefficients, index, index[::-1])
    return (features, basis_matrix, coefficients), out


class TestKernelDispatch:
    """A call site that bound a kernel method at import time would run the
    kernel unseen by these spies, and perfbench's ``kernels.*`` metrics
    would read 0 without being marked absent."""

    def test_gather_and_scatter_add_reach_the_row_kernels(self, kernel_calls):
        source = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
        out = scatter_add(gather(source, [0, 1, 1, 3]), [0, 2, 2, 1], 3)
        out.sum().backward()
        assert kernel_calls["gather_rows"] >= 2  # forward + scatter backward
        assert kernel_calls["scatter_rows"] >= 2  # scatter forward + gather backward

    def test_message_passing_forward_is_one_gather_combine(self, kernel_calls):
        _, out = _message_passing(np.arange(12.0).reshape(4, 3))
        assert kernel_calls["gather_combine"] == 1
        assert out.shape == (4, 4)

    def test_message_passing_backward_is_one_scatter_combine(self, kernel_calls):
        """One message-passing backward, all three inputs requiring grad, is
        one ``scatter_combine`` and two row gathers (``grad[destinations]``
        and ``P[sources]``), with no ``scatter_rows``: the feature and basis
        gradients are GEMMs over the summed ``(N, B·out)`` projection
        gradient, not scatters of per-edge products."""
        inputs, out = _message_passing(np.arange(12.0).reshape(4, 3))
        kernel_calls.clear()
        out.sum().backward()
        assert kernel_calls["scatter_combine"] == 1
        assert kernel_calls["scatter_rows"] == 0
        assert kernel_calls["gather_rows"] == 2
        assert all(tensor.grad is not None for tensor in inputs)

    def test_dekg_ilp_training_step_reaches_every_kernel(self, kernel_calls, tiny_graph):
        model = DEKGILP(tiny_graph.num_relations,
                        config=ModelConfig(embedding_dim=8, gnn_hidden_dim=8), seed=0)
        model.set_context(tiny_graph)
        model.train()
        scores = model.forward_batch([Triple(0, 0, 1), Triple(0, 1, 2), Triple(3, 0, 4)])
        scores.sum().backward()
        unseen = [name for _, name in _SPIED_KERNELS if not kernel_calls[name]]
        assert unseen == []


# ----------------------------------------------------------------------- #
# backend provenance
# ----------------------------------------------------------------------- #
class TestBackendProvenance:
    def test_model_config_rejects_unknown_backend(self):
        """Checkpoints that carry ``backend`` still restore (the field is
        retired), but a new config cannot set it, in code or in JSON."""
        with pytest.raises(TypeError, match="backend"):
            ModelConfig(backend="torch")
        config = {"model": {"name": "DEKG-ILP", "overrides": {"backend": "torch"}}}
        with pytest.raises(ValueError, match="unknown key 'model.overrides.backend'"):
            ExperimentConfig.from_dict(config)


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

    def test_unseeded_calls_draw_fresh_masks(self):
        x = Tensor(np.ones((8, 8)))
        assert not np.array_equal(F.dropout(x, 0.5).data, F.dropout(x, 0.5).data)

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
