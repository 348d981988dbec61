"""Message-passing / subgraph-scoring speedup benchmark.

Compares the seed implementation of the GSM hot path against the optimized
one shipped in this tree, at the default model sizes (hidden_dim=32, 2-hop
neighborhoods, subgraphs capped at 150 nodes):

* seed: dense ``(num_nodes, num_edges)`` one-hot scatter matmul per layer,
  per-edge ``(E, in_dim, out_dim)`` relation-weight materialization, one GNN
  pass per scored link, Python set/list BFS during extraction;
* new: the fused ``basis_message_passing`` autodiff node (one node-side
  basis GEMM, gather, basis contraction and scatter per layer), CSR-array
  BFS, and block-diagonal batched scoring with cached relation-agnostic
  extractions.

The seed compute path is reconstructed here (dense aggregation is still
shipped as ``aggregate_messages_dense``; the per-edge weight materialization
and Python BFS are re-implemented locally) so the speedup is measured against
what the repository actually did before, on identical inputs, with forward
results asserted equal.
"""

from __future__ import annotations

import time
from collections import deque

import numpy as np

from common import print_banner
from repro.autodiff.tensor import Tensor, no_grad
from repro.backend import NumpyBackend
from repro.core.gsm import GSM
from repro.core.model import DEKGILP
from repro.core.config import ModelConfig
from repro.eval.ranking import filtered_candidates
from repro.gnn.message_passing import aggregate_messages, aggregate_messages_dense
import repro.gnn.rgcn as rgcn_mod
import repro.subgraph.extraction as extraction_mod
from repro.kg.graph import KnowledgeGraph
from repro.kg.triple import Triple

HIDDEN_DIM = 32      # the paper's optimal GSM width
HOPS = 2             # default neighborhood radius
NUM_LINKS = 50       # links scored per measurement (matches Table IV)


# --------------------------------------------------------------------- #
# seed-implementation reconstructions
# --------------------------------------------------------------------- #
def _seed_edge_messages(self, node_features, sources, relations, destinations,
                        edge_weights):
    """Seed edge path: per-edge matvec, then the dense one-hot aggregation.

    Materializes an ``(E, in_dim, out_dim)`` weight tensor for the messages
    and sums them through a ``(num_nodes, num_edges)`` scatter matmul.
    ``edge_weights`` (gate x dropout x degree norm, from the layer) scales
    each message, as the seed's weighted dense aggregation did.
    """
    weights = self.relation_weights(relations)
    source_features = node_features.gather_rows(sources)
    messages = (source_features.reshape(len(relations), self.in_dim, 1) * weights).sum(axis=1)
    return aggregate_messages_dense(messages * edge_weights, destinations,
                                    node_features.shape[0])


def _seed_k_hop(graph, entity, hops, exclude=None):
    exclude = exclude or set()
    visited = {entity}
    frontier = {entity}
    for _ in range(hops):
        next_frontier = set()
        for node in frontier:
            for neighbor in graph.neighbors(node):
                if neighbor in visited or neighbor in exclude:
                    continue
                visited.add(neighbor)
                next_frontier.add(neighbor)
        if not next_frontier:
            break
        frontier = next_frontier
    return visited


def _seed_shortest_paths(graph, source, targets, max_distance, forbidden=None):
    forbidden = forbidden or set()
    targets = set(targets)
    distances = {}
    if source in targets:
        distances[source] = 0
    seen = {source}
    queue = deque([(source, 0)])
    while queue:
        node, dist = queue.popleft()
        if dist >= max_distance:
            continue
        for neighbor in graph.neighbors(node):
            if neighbor in seen:
                continue
            seen.add(neighbor)
            if neighbor in targets and neighbor not in distances:
                distances[neighbor] = dist + 1
            if neighbor not in forbidden:
                queue.append((neighbor, dist + 1))
    return distances


def _seed_collect_edges(graph, nodes, target=None):
    nodes = nodes.tolist()
    node_index = {node: position for position, node in enumerate(nodes)}
    edge_rows = []
    node_set = set(nodes)
    for node in nodes:
        for triple in graph.triples_from(node):
            if triple.tail in node_set:
                if target is not None and triple == target:
                    continue
                edge_rows.append((node_index[triple.head], triple.relation,
                                  node_index[triple.tail]))
    return np.array(edge_rows, dtype=np.int64) if edge_rows else np.zeros((0, 3), dtype=np.int64)


class _seed_compute_path:
    """Context manager that swaps the layer's fused edge path for the seed one.

    ``RGCNLayer.edge_messages`` is the layer's single call into message
    passing, so replacing it routes every layer through
    :func:`_seed_edge_messages`.  The seed calls are counted, and leaving the
    context asserts there were some, so a layer that stops calling
    ``edge_messages`` cannot make the seed side silently run the new code.
    """

    def __enter__(self):
        self.calls = 0
        self._messages = rgcn_mod.RGCNLayer.edge_messages

        def seed_edge_messages(layer, *args):
            self.calls += 1
            return _seed_edge_messages(layer, *args)

        rgcn_mod.RGCNLayer.edge_messages = seed_edge_messages
        return self

    def __exit__(self, exc_type, *exc):
        rgcn_mod.RGCNLayer.edge_messages = self._messages
        if exc_type is None:
            assert self.calls > 0, "the seed edge path never ran"
        return False


class _seed_extraction_path:
    """Context manager that swaps subgraph extraction back to Python BFS."""

    def __enter__(self):
        self._saved = (extraction_mod.k_hop_neighborhood,
                       extraction_mod.shortest_path_lengths,
                       extraction_mod.collect_induced_edges)
        extraction_mod.k_hop_neighborhood = _seed_k_hop
        extraction_mod.shortest_path_lengths = _seed_shortest_paths
        extraction_mod.collect_induced_edges = _seed_collect_edges
        return self

    def __exit__(self, *exc):
        (extraction_mod.k_hop_neighborhood,
         extraction_mod.shortest_path_lengths,
         extraction_mod.collect_induced_edges) = self._saved
        return False


# --------------------------------------------------------------------- #
# fixtures
# --------------------------------------------------------------------- #
def _dense_graph(num_entities=300, num_relations=10, num_triples=3000, seed=0):
    """A synthetic KG whose 2-hop subgraphs fill the default 150-node cap."""
    rng = np.random.default_rng(seed)
    tuples = {
        (int(h), int(r), int(t))
        for h, r, t in zip(
            rng.integers(0, num_entities, num_triples),
            rng.integers(0, num_relations, num_triples),
            rng.integers(0, num_entities, num_triples),
        )
    }
    return KnowledgeGraph(num_entities, num_relations,
                          [Triple(*t) for t in sorted(tuples)])


def _timeit(fn, repeats):
    fn()  # warm-up
    start = time.perf_counter()
    for _ in range(repeats):
        result = fn()
    return (time.perf_counter() - start) / repeats, result


# --------------------------------------------------------------------- #
# benchmarks
# --------------------------------------------------------------------- #
def test_aggregate_messages_micro():
    """Dense one-hot scatter vs scatter_add, forward + backward."""
    rng = np.random.default_rng(0)
    rows = []
    for num_nodes, num_edges in ((150, 600), (600, 4000)):
        msg_values = rng.normal(size=(num_edges, HIDDEN_DIM))
        gate_values = rng.uniform(0.1, 1.0, size=(num_edges, 1))
        destinations = rng.integers(0, num_nodes, num_edges)

        def run(aggregate):
            def step():
                messages = Tensor(msg_values, requires_grad=True)
                weights = Tensor(gate_values, requires_grad=True)
                out = aggregate(messages * weights, destinations, num_nodes)
                out.sum().backward()
                return out.data
            return step

        t_dense, dense_out = _timeit(run(aggregate_messages_dense), repeats=30)
        t_sparse, sparse_out = _timeit(run(aggregate_messages), repeats=30)
        np.testing.assert_allclose(sparse_out, dense_out, atol=1e-10)
        rows.append((num_nodes, num_edges, t_dense * 1000, t_sparse * 1000,
                     t_dense / t_sparse))

    print_banner("aggregate_messages: dense one-hot scatter vs scatter_add (fwd+bwd)")
    for num_nodes, num_edges, ms_dense, ms_sparse, speedup in rows:
        print(f"  N={num_nodes:4d} E={num_edges:5d}: dense {ms_dense:7.3f} ms   "
              f"scatter {ms_sparse:7.3f} ms   speedup {speedup:4.1f}x")
    # The dense path degrades as O(N*E); at the larger size the win is
    # decisive (~8x locally).  The floor is deliberately loose so shared CI
    # runners cannot flake the job; the printed table carries the real factor.
    assert rows[-1][-1] >= 2.0


def test_scatter_kernel_micro():
    """CPU scatter kernel: ``np.add.at`` vs the backend's ``scatter_rows``.

    The numpy backend's ``scatter_rows`` is a scipy CSC product with unit
    weights for values wider than one column.  Each row asserts it bit-identical to
    the ufunc scatter before reporting a speedup.  Gated: >= 1.5x over
    ``np.add.at`` on the dense shape and >= 1.0x on the sparse one, whose
    cost both kernels spend mostly faulting in the output's pages (see
    ``bench_backend.py``).
    """
    rng = np.random.default_rng(0)
    backend = NumpyBackend()
    rows = []
    for label, num_rows, num_edges, floor in (("dense", 4096, 16384, 1.5),
                                              ("sparse", 262144, 16384, 1.0)):
        values = rng.normal(size=(num_edges, HIDDEN_DIM))
        indices = rng.integers(0, num_rows, num_edges)

        def add_at():
            out = np.zeros((num_rows, HIDDEN_DIM))
            np.add.at(out, indices, values)
            return out

        t_add_at, reference = _timeit(add_at, repeats=10)
        t_kernel, result = _timeit(
            lambda: backend.scatter_rows(indices, values, num_rows), repeats=10)
        np.testing.assert_array_equal(result, reference)
        rows.append((label, num_rows, num_edges, t_add_at * 1000, t_kernel * 1000,
                     t_add_at / t_kernel, floor))

    print_banner("scatter_rows: np.add.at vs the sparse-product kernel")
    for label, num_rows, num_edges, ms_add_at, ms_kernel, speedup, _ in rows:
        print(f"  {label:6s} rows={num_rows:6d} E={num_edges:5d}: "
              f"add.at {ms_add_at:7.3f} ms   kernel {ms_kernel:7.3f} ms   "
              f"({speedup:4.1f}x)")
    for label, *_, speedup, floor in rows:
        assert speedup >= floor, f"{label}: {speedup:.2f}x below the {floor}x floor"


def test_subgraph_scoring_speedup():
    """Seed vs optimized GSM scoring of 50 default-size subgraphs."""
    graph = _dense_graph()
    gsm = GSM(graph.num_relations, hidden_dim=HIDDEN_DIM, hops=HOPS,
              rng=np.random.default_rng(0))
    gsm.eval()
    rng = np.random.default_rng(1)
    links = [Triple(int(rng.integers(graph.num_entities)),
                    int(rng.integers(graph.num_relations)),
                    int(rng.integers(graph.num_entities)))
             for _ in range(NUM_LINKS)]
    subgraphs = [extraction_mod.extract_enclosing_subgraph(
                     graph, Triple(t.head, 0, t.tail), hops=HOPS,
                     max_nodes=gsm.max_subgraph_nodes, omit_target_edge=False)
                 for t in links]
    relations = [t.relation for t in links]
    mean_nodes = float(np.mean([s.num_nodes for s in subgraphs]))
    mean_edges = float(np.mean([s.num_edges for s in subgraphs]))

    # -- inference ---------------------------------------------------- #
    def seed_inference():
        with no_grad(), _seed_compute_path():
            return np.array([float(gsm.score_batch([s], [r]).data[0])
                             for s, r in zip(subgraphs, relations)])

    def new_inference():
        with no_grad():
            parts = [gsm.score_batch(subgraphs[i:i + 8], relations[i:i + 8]).data
                     for i in range(0, NUM_LINKS, 8)]
        return np.concatenate(parts)

    t_seed, seed_scores = _timeit(seed_inference, repeats=5)
    t_new, new_scores = _timeit(new_inference, repeats=5)
    np.testing.assert_allclose(new_scores, seed_scores, atol=1e-10)
    inference_speedup = t_seed / t_new

    # -- training (forward + backward) -------------------------------- #
    def seed_training():
        with _seed_compute_path():
            total = None
            for s, r in zip(subgraphs, relations):
                score = gsm.score_batch([s], [r]).sum()
                total = score if total is None else total + score
            total.backward()
            gsm.zero_grad()

    def new_training():
        total = None
        for i in range(0, NUM_LINKS, 8):
            score = gsm.score_batch(subgraphs[i:i + 8], relations[i:i + 8]).sum()
            total = score if total is None else total + score
        total.backward()
        gsm.zero_grad()

    t_seed_train, _ = _timeit(seed_training, repeats=3)
    t_new_train, _ = _timeit(new_training, repeats=3)
    training_speedup = t_seed_train / t_new_train

    print_banner(
        f"GSM subgraph scoring — {NUM_LINKS} links, hidden={HIDDEN_DIM}, "
        f"{HOPS}-hop, mean subgraph {mean_nodes:.0f} nodes / {mean_edges:.0f} edges")
    print(f"  inference:    seed {t_seed*1000:7.1f} ms   new {t_new*1000:7.1f} ms"
          f"   speedup {inference_speedup:4.1f}x")
    print(f"  train fwd+bwd: seed {t_seed_train*1000:6.1f} ms   new {t_new_train*1000:7.1f} ms"
          f"   speedup {training_speedup:4.1f}x")
    # Generous floors so CI noise cannot flake the run; locally this measures
    # ~4x for both.  The printed numbers are the real result.
    assert inference_speedup >= 1.5
    assert training_speedup >= 1.5


def test_end_to_end_candidate_ranking():
    """Full ranking workload: extraction + scoring, seed path vs batched+cached."""
    graph = _dense_graph(num_entities=200, num_triples=1200, seed=2)
    model = DEKGILP(graph.num_relations,
                    config=ModelConfig(embedding_dim=HIDDEN_DIM,
                                       gnn_hidden_dim=HIDDEN_DIM,
                                       subgraph_hops=HOPS),
                    seed=0)
    model.eval()
    model.set_context(graph)
    rng = np.random.default_rng(3)
    entities = graph.entities()
    known = {t.astuple() for t in graph.triples}
    test_triples = graph.triples[:8]

    # The evaluator's workload: per test triple and prediction form, the true
    # triple plus up to 25 filtered corrupted candidates.
    batches = []
    for triple in test_triples:
        for form in ("head", "tail", "relation"):
            candidates = filtered_candidates(
                triple, form, entities, list(range(graph.num_relations)), known,
                max_candidates=25, rng=rng)
            batches.append([triple] + candidates)

    def seed_path():
        with _seed_extraction_path(), _seed_compute_path():
            return [np.array([model.score(t) for t in batch]) for batch in batches]

    def new_path():
        model.set_context(graph)  # reset the subgraph cache: measure cold
        return [model.score_many(batch) for batch in batches]

    t_seed, seed_scores = _timeit(seed_path, repeats=2)
    t_new, new_scores = _timeit(new_path, repeats=2)
    for a, b in zip(seed_scores, new_scores):
        np.testing.assert_allclose(b, a, atol=1e-8)
    speedup = t_seed / t_new

    total = sum(len(b) for b in batches)
    print_banner(
        f"End-to-end ranking — {len(batches)} (triple, form) groups, "
        f"{total} scored links incl. extraction")
    print(f"  seed {t_seed*1000:7.1f} ms   new {t_new*1000:7.1f} ms   speedup {speedup:4.1f}x")
    # ~3.6x on an idle machine.  Extraction is allocation-heavy, so under CPU
    # contention this ratio can collapse toward 1x; the gate here is the
    # numerical-equivalence assert above, and the timing is informational.


if __name__ == "__main__":
    test_aggregate_messages_micro()
    test_scatter_kernel_micro()
    test_subgraph_scoring_speedup()
    test_end_to_end_candidate_ranking()
