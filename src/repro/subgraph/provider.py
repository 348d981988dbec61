"""Batched multi-source subgraph extraction behind one pinned LRU cache.

This module is the single extraction path for every consumer of enclosing
subgraphs (the DEKG-ILP model, the Grail/TACT baselines, evaluation-shard
workers).  It contributes two things on top of
:func:`repro.subgraph.extraction.extract_enclosing_subgraph`:

* :func:`extract_batch` — a **multi-source frontier BFS** that expands all
  (head, tail) frontier sets of a batch against the CSR snapshot at once.
  Per-source visited state lives in stacked boolean masks borrowed from the
  snapshot's :class:`~repro.kg.graph.TraversalScratch` pool, every hop of
  every traversal in the batch advances in a handful of numpy operations,
  and candidate sets, double-radius labels (:func:`_assemble_labels_batch`)
  and the induced edges of all subgraphs are likewise assembled in
  vectorized passes over flat ``pair * num_nodes + node`` keys.  The result
  is **bit-identical** to running the per-pair extractor on each target
  (same node arrays, labels, endpoint rows and induced edges, same dtypes):
  candidates emerge in the per-pair path's sorted-node order, and any pair
  the ``max_nodes`` cap touches falls back to the original set/dict
  assembly (:func:`_assemble_pair_labels`), whose insertion order the cap's
  stable degree sort ties break on.

  Each returned :class:`~repro.subgraph.extraction.ExtractedSubgraph`
  holds int64 ``nodes``, ``(n, 2)`` int8 ``node_labels``, ``(E, 3)`` int32
  ``edges`` and its head/tail rows.  The three arrays are slices (views) of
  one batch array each, so a cached extraction keeps its batch's arrays
  alive until the last extraction of that batch is evicted.  One-hot
  features are derived from the labels on use, never stored.

* :class:`SubgraphProvider` — extraction caching in one :class:`PinnedLRU`
  store per provider: a bounded LRU plus a pinned set of true-pair
  extractions that uniformly-drawn corruptions can never evict.  The store
  belongs to the CSR snapshot it was filled from and starts empty when the
  context graph changes.

Cached extractions are relation-agnostic (``omit_target_edge=False``):
consumers mask the scored link's edge per candidate, exactly like the
pre-provider LRU on :class:`repro.core.model.DEKGILP` did.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.backend import hxp as np  # host-side index math via the backend seam

from repro.kg.graph import CSRAdjacency, KnowledgeGraph
from repro.kg.triple import Triple
from repro.subgraph.extraction import (ExtractedSubgraph, _cap_labels,
                                       _region_candidates, check_hops,
                                       label_arrays)
from repro.subgraph.labeling import UNREACHABLE, label_nodes

#: Cache key of one relation-agnostic extraction: the (head, tail) pair.
PairKey = Tuple[int, int]

_EMPTY = np.zeros(0, dtype=np.int64)


# --------------------------------------------------------------------- #
# multi-source traversal
# --------------------------------------------------------------------- #
def _stacked_bfs(adjacency: CSRAdjacency, sources: np.ndarray, hops: int,
                 blocked: Optional[np.ndarray] = None
                 ) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Level-synchronous BFS from many sources at once (stacked masks).

    ``sources`` is a ``(S,)`` int64 array — one independent traversal per
    entry (out-of-range sources simply stay empty, like the per-pair
    helpers).  ``blocked`` optionally gives each traversal one node whose
    *expansion* is forbidden: the node is still reached and recorded at its
    distance, it just never enters the next frontier — and a source expands
    even when it equals its own blocked node, matching
    :func:`repro.subgraph.neighborhood.shortest_path_lengths`.

    Returns ``levels``: for each distance ``d = 1..hops`` a pair
    ``(rows, nodes)`` of aligned arrays — traversal ``rows[i]`` (an index
    into ``sources``) reached ``nodes[i]`` at distance ``d`` — sorted by
    (row, node), so every traversal sees its frontier in ascending node
    order exactly like the per-pair BFS (whose frontiers pass through
    ``np.unique``).
    """
    num_sources = int(sources.shape[0])
    num_nodes = adjacency.num_nodes
    valid = (sources >= 0) & (sources < num_nodes)
    rows = np.flatnonzero(valid).astype(np.int64)
    nodes = sources[valid].astype(np.int64)
    levels: List[Tuple[np.ndarray, np.ndarray]] = []
    if num_nodes == 0 or rows.size == 0:
        return levels
    scratch = adjacency.scratch()
    seen = scratch.borrow_mask_matrix(num_sources)
    seen_flat = seen.reshape(-1)
    touched: List[np.ndarray] = []
    try:
        start_flat = rows * num_nodes + nodes
        seen_flat[start_flat] = True
        touched.append(start_flat)
        for _ in range(hops):
            if nodes.size == 0:
                break
            counts = adjacency.und_offsets[nodes + 1] - adjacency.und_offsets[nodes]
            neighbor_nodes = adjacency.neighbors_of_many(nodes)
            if neighbor_nodes.size == 0:
                break
            neighbor_rows = np.repeat(rows, counts)
            # Dedupe (row, node) pairs; unique() also sorts, giving each
            # traversal its frontier in ascending node order.
            flat = np.unique(neighbor_rows * num_nodes + neighbor_nodes)
            flat = flat[~seen_flat[flat]]
            if flat.size == 0:
                break
            seen_flat[flat] = True
            touched.append(flat)
            reached_rows = flat // num_nodes
            reached_nodes = flat - reached_rows * num_nodes
            levels.append((reached_rows, reached_nodes))
            if blocked is None:
                rows, nodes = reached_rows, reached_nodes
            else:
                keep = reached_nodes != blocked[reached_rows]
                rows, nodes = reached_rows[keep], reached_nodes[keep]
        return levels
    finally:
        scratch.release_mask_matrix(seen, touched)


def _per_source_levels(levels: List[Tuple[np.ndarray, np.ndarray]],
                       num_sources: int) -> List[List[np.ndarray]]:
    """Re-slice stacked BFS levels into per-source lists of node arrays."""
    out: List[List[np.ndarray]] = [[] for _ in range(num_sources)]
    boundaries_probe = np.arange(num_sources + 1, dtype=np.int64)
    for rows, nodes in levels:
        bounds = np.searchsorted(rows, boundaries_probe)
        for source in range(num_sources):
            lo, hi = bounds[source], bounds[source + 1]
            out[source].append(nodes[lo:hi] if hi > lo else _EMPTY)
    return out


def _region_set(source: int, source_levels: List[np.ndarray]) -> set:
    """Python set of one traversal's region, in per-pair insertion order."""
    region = {int(source)}
    for level_nodes in source_levels:
        region.update(int(node) for node in level_nodes)
    return region


def _distance_dict(source: int, source_levels: List[np.ndarray]) -> Dict[int, int]:
    """BFS distances of one traversal (superset of the per-pair target dict).

    The per-pair helper records distances only for candidate nodes; recording
    every reached node is a superset with identical values, and
    ``label_nodes`` only ever reads candidate nodes.
    """
    distances = {int(source): 0}
    for distance, level_nodes in enumerate(source_levels, start=1):
        for node in level_nodes:
            distances[int(node)] = distance
    return distances


# --------------------------------------------------------------------- #
# label assembly
# --------------------------------------------------------------------- #
def _assemble_pair_labels(graph: KnowledgeGraph, head: int, tail: int,
                          head_region_levels: List[np.ndarray],
                          tail_region_levels: List[np.ndarray],
                          head_distance_levels: List[np.ndarray],
                          tail_distance_levels: List[np.ndarray],
                          hops: int, improved_labeling: bool, max_nodes: int
                          ) -> Tuple[np.ndarray, np.ndarray, int, int]:
    """One pair's label assembly through the original dict/set machinery.

    Kept as the reference path: :func:`_assemble_labels_batch` falls back to
    it whenever the ``max_nodes`` cap triggers (the cap's stable degree sort
    breaks ties on Python *set iteration order*, which has no array
    equivalent), and the equivalence tests pit the two implementations
    against each other.  Returns ``(nodes, node_labels, head_row,
    tail_row)`` like the per-pair extractor.
    """
    head_region = _region_set(head, head_region_levels)
    tail_region = _region_set(tail, tail_region_levels)
    candidate_nodes = _region_candidates(head_region, tail_region,
                                         head, tail, improved_labeling)
    distances_to_head = _distance_dict(head, head_distance_levels)
    distances_to_tail = _distance_dict(tail, tail_distance_levels)
    labels = label_nodes(distances_to_head, distances_to_tail,
                         candidate_nodes, head, tail, hops,
                         improved=improved_labeling)
    labels = _cap_labels(graph, labels, head, tail, max_nodes)
    return label_arrays(labels, head, tail)


def _assemble_all_pairs_legacy(graph: KnowledgeGraph, heads: np.ndarray,
                               tails: np.ndarray, region_levels, distance_levels,
                               hops: int, improved_labeling: bool, max_nodes: int):
    """Per-pair assembly of the whole batch (degenerate-input fallback)."""
    num_targets = int(heads.shape[0])
    region = _per_source_levels(region_levels, 2 * num_targets)
    distance = _per_source_levels(distance_levels, 2 * num_targets)
    assembled = [
        _assemble_pair_labels(graph, int(heads[pair]), int(tails[pair]),
                              region[2 * pair], region[2 * pair + 1],
                              distance[2 * pair], distance[2 * pair + 1],
                              hops, improved_labeling, max_nodes)
        for pair in range(num_targets)
    ]
    return tuple(list(column) for column in zip(*assembled))


def _assemble_labels_batch(graph: KnowledgeGraph, heads: np.ndarray,
                           tails: np.ndarray,
                           region_levels: List[Tuple[np.ndarray, np.ndarray]],
                           distance_levels: List[Tuple[np.ndarray, np.ndarray]],
                           hops: int, improved_labeling: bool, max_nodes: int
                           ) -> Tuple[List[np.ndarray], List[np.ndarray],
                                      List[int], List[int]]:
    """Vectorized candidate/label assembly for the whole batch.

    Replaces the per-pair ``_region_set`` / ``_distance_dict`` /
    ``label_nodes`` dict machinery with flat ``pair * num_nodes + node`` key
    arrays: candidate sets come out of one ``np.unique`` over the stacked
    region levels (improved labeling) or one ``np.intersect1d`` of the
    per-endpoint key sets (GraIL), and BFS distances are two gathers from a
    borrowed scratch matrix whose ``-1`` fill doubles as the ``UNREACHABLE``
    sentinel.  Candidates emerge sorted by (pair, node) — exactly the
    ascending node order of the per-pair path — so nodes, labels, endpoint
    rows and downstream induced edges are all bit-identical.

    Returns per-pair ``nodes`` (int64) and ``node_labels`` (``(n, 2)``
    int8), which are slices (views) of one batch array each, plus each
    pair's head and tail rows.  A pair whose label count exceeds
    ``max_nodes`` falls back to :func:`_assemble_pair_labels`: only the
    original set-based assembly reproduces the insertion order that the
    cap's stable degree sort breaks ties on.
    """
    adjacency = graph.adjacency()
    num_targets = int(heads.shape[0])
    num_nodes = adjacency.num_nodes
    endpoints_ok = ((heads >= 0) & (heads < num_nodes)
                    & (tails >= 0) & (tails < num_nodes))
    if num_nodes == 0 or not bool(endpoints_ok.all()):
        # Out-of-range endpoints poison the flat pair*num_nodes+node keys;
        # such degenerate batches take the reference path wholesale.
        return _assemble_all_pairs_legacy(graph, heads, tails, region_levels,
                                          distance_levels, hops,
                                          improved_labeling, max_nodes)

    pair_ids = np.arange(num_targets, dtype=np.int64)
    head_endpoint_keys = pair_ids * num_nodes + heads
    tail_endpoint_keys = pair_ids * num_nodes + tails
    level_keys = [(rows // 2) * num_nodes + nodes for rows, nodes in region_levels]
    if improved_labeling:
        candidate_keys = np.unique(np.concatenate(
            level_keys + [head_endpoint_keys, tail_endpoint_keys]))
    else:
        # GraIL keeps the region intersection plus the endpoints.  The
        # traversal rows interleave [h0, t0, h1, t1, ...]: even rows belong
        # to head regions, odd rows to tail regions.
        head_keys = [keys[(rows % 2) == 0] for keys, (rows, _) in
                     zip(level_keys, region_levels)]
        tail_keys = [keys[(rows % 2) == 1] for keys, (rows, _) in
                     zip(level_keys, region_levels)]
        shared = np.intersect1d(
            np.unique(np.concatenate(head_keys + [head_endpoint_keys])),
            np.unique(np.concatenate(tail_keys + [tail_endpoint_keys])),
            assume_unique=True)
        candidate_keys = np.union1d(
            shared, np.concatenate([head_endpoint_keys, tail_endpoint_keys]))
    cand_pairs = candidate_keys // num_nodes
    cand_nodes = candidate_keys - cand_pairs * num_nodes

    # Distances of every candidate to its pair's endpoints, via one scratch
    # matrix holding all 2B blocked traversals (row stride = num_nodes).
    scratch = adjacency.scratch()
    matrix = scratch.borrow_index_matrix(2 * num_targets)
    matrix_flat = matrix.reshape(-1)
    touched: List[np.ndarray] = []
    try:
        source_rows = np.arange(2 * num_targets, dtype=np.int64)
        source_nodes = np.empty(2 * num_targets, dtype=np.int64)
        source_nodes[0::2] = heads
        source_nodes[1::2] = tails
        source_flat = source_rows * num_nodes + source_nodes
        matrix_flat[source_flat] = 0
        touched.append(source_flat)
        for distance, (rows, nodes) in enumerate(distance_levels, start=1):
            level_flat = rows * num_nodes + nodes
            matrix_flat[level_flat] = distance
            touched.append(level_flat)
        distance_to_head = matrix_flat[(2 * cand_pairs) * num_nodes + cand_nodes]
        distance_to_tail = matrix_flat[(2 * cand_pairs + 1) * num_nodes + cand_nodes]
    finally:
        scratch.release_index_matrix(matrix, touched)

    # label_nodes order: the tail rule fires first, then the head rule
    # overwrites, so a head == tail self-loop ends up labeled (0, 1).
    is_head = cand_nodes == heads[cand_pairs]
    is_tail = cand_nodes == tails[cand_pairs]
    if not improved_labeling:
        keep = (((distance_to_head != UNREACHABLE)
                 & (distance_to_tail != UNREACHABLE))
                | is_head | is_tail)
        cand_pairs, cand_nodes = cand_pairs[keep], cand_nodes[keep]
        distance_to_head, distance_to_tail = distance_to_head[keep], distance_to_tail[keep]
        is_head, is_tail = is_head[keep], is_tail[keep]
    labels_all = np.empty((cand_nodes.shape[0], 2), dtype=np.int8)
    labels_all[:, 0] = distance_to_head
    labels_all[:, 1] = distance_to_tail
    labels_all[is_tail] = (1, 0)
    labels_all[is_head] = (0, 1)

    # Every pair holds exactly one head and one tail candidate (the
    # endpoint keys are always candidates), so their positions, in pair
    # order, less each pair's first position are the local rows.
    bounds = np.searchsorted(cand_pairs, np.arange(num_targets + 1, dtype=np.int64))
    starts = bounds[:-1]
    head_rows = (np.flatnonzero(is_head) - starts).tolist()
    tail_rows = (np.flatnonzero(is_tail) - starts).tolist()
    bounds = bounds.tolist()
    nodes_list: List[np.ndarray] = []
    labels_list: List[np.ndarray] = []
    fallback_region = fallback_distance = None
    for pair in range(num_targets):
        lo, hi = bounds[pair], bounds[pair + 1]
        if hi - lo > max_nodes:
            if fallback_region is None:
                fallback_region = _per_source_levels(region_levels, 2 * num_targets)
                fallback_distance = _per_source_levels(distance_levels, 2 * num_targets)
            nodes, labels, head_rows[pair], tail_rows[pair] = _assemble_pair_labels(
                graph, int(heads[pair]), int(tails[pair]),
                fallback_region[2 * pair], fallback_region[2 * pair + 1],
                fallback_distance[2 * pair], fallback_distance[2 * pair + 1],
                hops, improved_labeling, max_nodes)
        else:
            nodes, labels = cand_nodes[lo:hi], labels_all[lo:hi]
        nodes_list.append(nodes)
        labels_list.append(labels)
    return nodes_list, labels_list, head_rows, tail_rows


# --------------------------------------------------------------------- #
# batched induced-edge collection
# --------------------------------------------------------------------- #
def _collect_induced_edges_batch(graph: KnowledgeGraph,
                                 nodes_list: Sequence[np.ndarray],
                                 targets: Optional[Sequence[Triple]]
                                 ) -> List[np.ndarray]:
    """Induced edges of every subgraph in one vectorized CSR pass.

    ``nodes_list[b]`` holds subgraph ``b``'s retained global node ids in
    ascending order (their positions are the local indices).  When
    ``targets`` is given, each subgraph's own target link is dropped, exactly
    like the per-pair :func:`~repro.subgraph.extraction.collect_induced_edges`.
    Each subgraph's ``(E, 3)`` int32 edges are a slice (view) of one batch
    array.
    """
    adjacency = graph.adjacency()
    num_graph_nodes = adjacency.num_nodes
    num_subgraphs = len(nodes_list)
    counts = np.fromiter((nodes.shape[0] for nodes in nodes_list),
                         dtype=np.int64, count=num_subgraphs)
    if counts.sum() == 0:
        return [np.zeros((0, 3), dtype=np.int32)] * num_subgraphs
    all_nodes = np.concatenate(nodes_list)
    pair_of_node = np.repeat(np.arange(num_subgraphs, dtype=np.int64), counts)
    local_values = np.concatenate([np.arange(count, dtype=np.int64)
                                   for count in counts if count])

    scratch = adjacency.scratch()
    local = scratch.borrow_index_matrix(num_subgraphs)
    local_flat = local.reshape(-1)
    flat_index = pair_of_node * num_graph_nodes + all_nodes
    try:
        local_flat[flat_index] = local_values
        heads, relations, tails = adjacency.out_edges_of_many(all_nodes)
        out_counts = adjacency.out_offsets[all_nodes + 1] - adjacency.out_offsets[all_nodes]
        edge_pair = np.repeat(pair_of_node, out_counts)
        local_tails = local_flat[edge_pair * num_graph_nodes + tails]
        keep = local_tails >= 0
        if targets is not None:
            target_heads = np.fromiter((t.head for t in targets), np.int64, num_subgraphs)
            target_relations = np.fromiter((t.relation for t in targets), np.int64, num_subgraphs)
            target_tails = np.fromiter((t.tail for t in targets), np.int64, num_subgraphs)
            keep &= ~((heads == target_heads[edge_pair])
                      & (relations == target_relations[edge_pair])
                      & (tails == target_tails[edge_pair]))
        kept_pair = edge_pair[keep]
        stacked = np.empty((kept_pair.shape[0], 3), dtype=np.int32)
        stacked[:, 0] = local_flat[kept_pair * num_graph_nodes + heads[keep]]
        stacked[:, 1] = relations[keep]
        stacked[:, 2] = local_tails[keep]
        bounds = np.zeros(num_subgraphs + 1, dtype=np.int64)
        np.cumsum(np.bincount(kept_pair, minlength=num_subgraphs), out=bounds[1:])
        bounds = bounds.tolist()
        return [stacked[bounds[b]:bounds[b + 1]] for b in range(num_subgraphs)]
    finally:
        scratch.release_index_matrix(local, [flat_index])


# --------------------------------------------------------------------- #
# the batched extractor
# --------------------------------------------------------------------- #
def extract_batch(graph: KnowledgeGraph, targets: Sequence[Triple],
                  hops: int = 2, improved_labeling: bool = True,
                  max_nodes: int = 200,
                  omit_target_edge: bool = True) -> List[ExtractedSubgraph]:
    """Extract the subgraphs around many target links in one batched sweep.

    Semantically ``[extract_enclosing_subgraph(graph, t, ...) for t in
    targets]``, and bit-identical to it (nodes, labels, endpoint rows,
    induced edges, dtypes included) — but the four BFS traversals every
    pair needs (two k-hop regions, two double-radius distance maps) run as
    two stacked multi-source sweeps over the whole batch, candidate sets
    and labels are assembled in vectorized passes over flat ``pair *
    num_nodes + node`` keys, and the induced edges of all subgraphs are
    gathered in one vectorized CSR pass, so the Python/numpy per-call
    overhead is paid once per batch instead of once per pair.  Every
    returned extraction's arrays are views into this batch's arrays.
    """
    check_hops(hops)
    targets = list(targets)
    if not targets:
        return []
    num_targets = len(targets)
    adjacency = graph.adjacency()
    heads = np.fromiter((t.head for t in targets), np.int64, num_targets)
    tails = np.fromiter((t.tail for t in targets), np.int64, num_targets)
    # Interleave [h0, t0, h1, t1, ...]: one traversal per endpoint.
    sources = np.empty(2 * num_targets, dtype=np.int64)
    sources[0::2] = heads
    sources[1::2] = tails
    partners = np.empty_like(sources)
    partners[0::2] = tails
    partners[1::2] = heads

    region_levels = _stacked_bfs(adjacency, sources, hops)
    distance_levels = _stacked_bfs(adjacency, sources, hops, blocked=partners)
    nodes_list, labels_list, head_rows, tail_rows = _assemble_labels_batch(
        graph, heads, tails, region_levels, distance_levels,
        hops, improved_labeling, max_nodes)

    edges_list = _collect_induced_edges_batch(
        graph, nodes_list, targets if omit_target_edge else None)

    return [
        ExtractedSubgraph(target=target, nodes=nodes, node_labels=labels,
                          edges=edges, head_row=head_row, tail_row=tail_row,
                          hops=hops)
        for target, nodes, labels, edges, head_row, tail_row in zip(
            targets, nodes_list, labels_list, edges_list, head_rows, tail_rows)
    ]


def masked_edges(graph: KnowledgeGraph, subgraph: ExtractedSubgraph,
                 triple: Triple) -> np.ndarray:
    """``subgraph.edges`` with the scored link dropped when it exists.

    Cached extractions are relation-agnostic and keep every induced edge;
    consumers call this per candidate to drop the matching edge — exactly
    what target-aware extraction (``omit_target_edge=True``) would have
    omitted, so scoring a cached extraction equals scoring a fresh one.
    ``subgraph`` must be the ``(triple.head, triple.tail)`` extraction.
    """
    edges = subgraph.edges
    if graph.contains(triple.head, triple.relation, triple.tail):
        keep = ~((edges[:, 0] == subgraph.head_row)
                 & (edges[:, 1] == triple.relation)
                 & (edges[:, 2] == subgraph.tail_row))
        edges = edges[keep]
    return edges


# --------------------------------------------------------------------- #
# the store
# --------------------------------------------------------------------- #
class PinnedLRU:
    """Bounded LRU store plus a pinned set that eviction never touches.

    Training draws corrupted pairs uniformly, so an unpinned LRU keeps
    churning true-pair extractions out (the ~0.55 warm hit-rate ceiling);
    pinning the true pairs — every training positive, every evaluation
    target — keeps their extractions resident across corruptions and epochs
    while the uniformly-drawn corruptions fight over the LRU portion.  At
    most ``capacity`` keys are ever pinned (first come, first pinned); later
    offers stay ordinary LRU entries, so residency is bounded by
    ``2 * capacity``.
    """

    def __init__(self, capacity: int):
        self.capacity = int(capacity)
        self._entries: "OrderedDict[PairKey, ExtractedSubgraph]" = OrderedDict()
        self._pin_keys: set = set()
        self._pinned: Dict[PairKey, ExtractedSubgraph] = {}

    def get(self, key: PairKey) -> Optional[ExtractedSubgraph]:
        value = self._pinned.get(key)
        if value is None:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
        return value

    def put(self, key: PairKey, value: ExtractedSubgraph) -> None:
        if key in self._pin_keys:
            self._pinned[key] = value
            return
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def pin(self, keys: Iterable[PairKey]) -> None:
        """Pin ``keys``, moving any already-cached entry out of the LRU."""
        for key in keys:
            if key in self._pin_keys:
                continue
            if len(self._pin_keys) >= self.capacity:
                break
            self._pin_keys.add(key)
            value = self._entries.pop(key, None)
            if value is not None:
                self._pinned[key] = value

    def __len__(self) -> int:
        return len(self._entries) + len(self._pinned)


# --------------------------------------------------------------------- #
# the provider
# --------------------------------------------------------------------- #
class SubgraphProvider:
    """Cached, batched, relation-agnostic subgraph extraction for one model.

    One provider owns the extraction hyper-parameters (``hops``,
    ``improved_labeling``, ``max_nodes``) and one :class:`PinnedLRU` store of
    ``cache_size`` entries for the CSR snapshot it currently serves.
    Switching to another snapshot (a new context graph, an in-place
    mutation) starts an empty store, so a stale extraction can never be
    served.  Misses are extracted through the multi-source
    :func:`extract_batch`, a lone miss too.

    Hit/miss counters are kept at two scopes: ``lifetime_*`` (never reset
    implicitly) and ``context_*`` (reset whenever the active snapshot
    changes), so reuse across splits stays visible without losing the
    per-context picture.
    """

    def __init__(self, hops: int = 2, improved_labeling: bool = True,
                 max_nodes: int = 200, cache_size: int = 4096):
        if cache_size < 1:
            raise ValueError("cache_size must be >= 1")
        self.hops = hops
        self.improved_labeling = improved_labeling
        self.max_nodes = max_nodes
        self.cache_size = cache_size
        self._snapshot: Optional[CSRAdjacency] = None
        self._store = PinnedLRU(cache_size)
        self.lifetime_hits = 0
        self.lifetime_misses = 0
        self.context_hits = 0
        self.context_misses = 0
        self.context_switches = 0

    # ------------------------------------------------------------------ #
    @property
    def extraction_signature(self) -> Tuple[int, bool, int]:
        """What a cached extraction depends on besides the graph snapshot."""
        return (self.hops, self.improved_labeling, self.max_nodes)

    def _store_for(self, graph: KnowledgeGraph) -> PinnedLRU:
        snapshot = graph.adjacency()
        if self._snapshot is not snapshot:
            self._snapshot = snapshot
            self._store = PinnedLRU(self.cache_size)
            self.context_hits = 0
            self.context_misses = 0
            self.context_switches += 1
        return self._store

    # ------------------------------------------------------------------ #
    def get_many(self, graph: KnowledgeGraph,
                 pairs: Sequence[Tuple[int, int]]) -> List[ExtractedSubgraph]:
        """Extractions for every ``(head, tail)`` pair, served from cache.

        Lookup order matches the historical per-triple loop: a pair repeated
        within one batch counts one miss and then hits the entry the first
        occurrence produced.  All misses of the batch are extracted in one
        :func:`extract_batch` sweep.
        """
        store = self._store_for(graph)
        results: List[Optional[ExtractedSubgraph]] = [None] * len(pairs)
        pending: "OrderedDict[PairKey, List[int]]" = OrderedDict()
        hits = 0
        for position, (head, tail) in enumerate(pairs):
            key = (int(head), int(tail))
            if key in pending:
                pending[key].append(position)
                hits += 1
                continue
            cached = store.get(key)
            if cached is not None:
                results[position] = cached
                hits += 1
            else:
                pending[key] = [position]
        misses = len(pending)
        self.lifetime_hits += hits
        self.lifetime_misses += misses
        self.context_hits += hits
        self.context_misses += misses
        if pending:
            extracted = extract_batch(
                graph, [Triple(head, 0, tail) for head, tail in pending],
                hops=self.hops, improved_labeling=self.improved_labeling,
                max_nodes=self.max_nodes, omit_target_edge=False)
            for (key, positions), subgraph in zip(pending.items(), extracted):
                store.put(key, subgraph)
                for position in positions:
                    results[position] = subgraph
        return results  # type: ignore[return-value]

    def pin_pairs(self, graph: KnowledgeGraph,
                  pairs: Iterable[Tuple[int, int]]) -> None:
        """Mark true pairs whose extractions eviction must never drop.

        The marked pairs stay resident across corruptions and epochs once
        extracted, up to ``cache_size`` pins per snapshot.
        """
        self._store_for(graph).pin((int(head), int(tail)) for head, tail in pairs)

    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, float]:
        """Both counter scopes plus the active store's shape.

        ``hits`` / ``misses`` / ``hit_rate`` are the lifetime counters (the
        historical keys of ``DEKGILP.subgraph_cache_stats``); the
        ``context_*`` scope rewinds whenever the active snapshot changes, so
        a caller can tell reuse across splits from reuse within one context.
        """

        def _rate(hits: int, misses: int) -> float:
            lookups = hits + misses
            return hits / lookups if lookups else float("nan")

        return {
            "hits": float(self.lifetime_hits),
            "misses": float(self.lifetime_misses),
            "hit_rate": _rate(self.lifetime_hits, self.lifetime_misses),
            "lifetime_hits": float(self.lifetime_hits),
            "lifetime_misses": float(self.lifetime_misses),
            "lifetime_hit_rate": _rate(self.lifetime_hits, self.lifetime_misses),
            "context_hits": float(self.context_hits),
            "context_misses": float(self.context_misses),
            "context_hit_rate": _rate(self.context_hits, self.context_misses),
            "context_switches": float(self.context_switches),
            "entries": float(len(self._store)),
            "capacity": float(self._store.capacity),
        }

    def reset_stats(self) -> None:
        """Zero both counter scopes (cache contents are kept)."""
        self.lifetime_hits = 0
        self.lifetime_misses = 0
        self.context_hits = 0
        self.context_misses = 0
        self.context_switches = 0


# --------------------------------------------------------------------- #
# the shared-provider seam
# --------------------------------------------------------------------- #
def share_provider(models: Sequence[object]) -> Optional[SubgraphProvider]:
    """Build one provider for several provider-backed models and inject it.

    Extractions are relation-agnostic and keyed by ``(head, tail)`` per CSR
    snapshot, so models that agree on the extraction signature (``hops``,
    ``improved_labeling``, ``max_nodes``) can serve from one cache: DEKG-ILP,
    Grail and TACT evaluated on the same context graph reuse every
    extraction instead of each paying for its own.  Models without a
    ``subgraph_provider`` (the embedding baselines, DEKG-ILP with GSM
    disabled) are skipped; models whose signatures disagree raise, because a
    shared entry would not be the extraction the model's own provider would
    have produced.

    The shared provider takes the *largest* ``cache_size`` among the
    adoptees (a shared cache serves a superset of any single model's
    workload).  Returns the injected provider, or ``None`` when no model in
    ``models`` is provider-backed.

    Counter scopes stay correct under multi-model use by construction —
    hits/misses/switches live on the provider, not the adopting models, so
    ``stats()`` reports the combined workload and every model's
    ``subgraph_cache_stats`` views the same numbers.
    """
    backed = [model for model in models
              if getattr(model, "subgraph_provider", None) is not None]
    if not backed:
        return None
    signatures = {model.subgraph_provider.extraction_signature for model in backed}
    if len(signatures) > 1:
        described = {getattr(model, "name", type(model).__name__):
                     model.subgraph_provider.extraction_signature
                     for model in backed}
        raise ValueError(
            "models disagree on the extraction signature "
            f"(hops, improved_labeling, max_nodes): {described}; "
            "a shared provider would serve wrong extractions")
    template = backed[0].subgraph_provider
    shared = SubgraphProvider(
        hops=template.hops,
        improved_labeling=template.improved_labeling,
        max_nodes=template.max_nodes,
        cache_size=max(model.subgraph_provider.cache_size for model in backed),
    )
    for model in backed:
        model.use_subgraph_provider(shared)
    return shared
