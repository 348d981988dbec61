"""Enclosing-subgraph extraction around a target link (§IV-C1 of the paper).

For an *enclosing* link both endpoints live in the same connected component and
the extracted subgraph is the union of their k-hop neighborhoods (GraIL keeps
only the intersection; the improved GSM keeps the union so that one-sided
nodes survive).  For a *bridging* link the two neighborhoods are disjoint and
the extraction naturally yields two disconnected components — exactly the
situation the improved node labeling is designed to handle.

An extraction is array-backed (:class:`ExtractedSubgraph`): ascending int64
global ``nodes`` (a node's position is its local row), ``(n, 2)`` int8
double-radius ``node_labels``, ``(E, 3)`` int32 local ``edges``, and the
head/tail rows.  One-hot ``node_features`` are derived from the labels on
use.  :func:`extract_enclosing_subgraph` is the per-pair reference; the
batched :func:`~repro.subgraph.provider.extract_batch` returns the same
arrays as slices (views) of its batch arrays, which keep the whole batch's
arrays alive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

import numpy as np

from repro.kg.graph import KnowledgeGraph
from repro.kg.triple import Triple
from repro.subgraph.labeling import label_nodes, node_label_features
from repro.subgraph.neighborhood import k_hop_neighborhood, shortest_path_lengths

#: ``node_labels`` is int8, so a hop budget must stay below int8's maximum.
MAX_HOPS = 126


@dataclass(slots=True)
class ExtractedSubgraph:
    """The materialized subgraph around one target link, ready for the GNN.

    Array-backed: besides ``target`` it holds three arrays and three ints.
    From :func:`~repro.subgraph.provider.extract_batch` the arrays are
    slices (views) of that batch's arrays, so a cached extraction keeps
    its whole batch's arrays alive until every extraction of the batch is
    gone.
    """

    target: Triple
    nodes: np.ndarray
    """``(n,)`` int64 global entity ids of the retained nodes, ascending;
    a node's position is its local row."""
    node_labels: np.ndarray
    """``(n, 2)`` int8 double-radius labels ``(d(i, u), d(j, u))`` per row,
    ``UNREACHABLE`` (-1) for an out-of-range distance."""
    edges: np.ndarray
    """``(n_edges, 3)`` int32 array of (local_head, relation, local_tail)."""
    head_row: int
    """Local row of the target link's head entity."""
    tail_row: int
    """Local row of the target link's tail entity."""
    hops: int
    """Neighborhood radius the labels were computed with."""

    @property
    def num_nodes(self) -> int:
        return int(self.nodes.shape[0])

    @property
    def num_edges(self) -> int:
        return int(self.edges.shape[0])

    @property
    def node_features(self) -> np.ndarray:
        """``(n_nodes, 2 * (hops + 1))`` float64 one-hot double-radius features.

        Derived from ``node_labels`` on every access; nothing float is stored.
        """
        return node_label_features(self.node_labels, self.hops)

    def head_index(self) -> int:
        """Local index of the target link's head entity."""
        return self.head_row

    def tail_index(self) -> int:
        """Local index of the target link's tail entity."""
        return self.tail_row

    def is_disconnected(self) -> bool:
        """True when no path connects head and tail inside the subgraph (bridging case)."""
        if self.num_edges == 0:
            return True
        adjacency: Dict[int, Set[int]] = {}
        for local_head, _, local_tail in self.edges:
            adjacency.setdefault(int(local_head), set()).add(int(local_tail))
            adjacency.setdefault(int(local_tail), set()).add(int(local_head))
        start, goal = self.head_index(), self.tail_index()
        frontier = [start]
        seen = {start}
        while frontier:
            node = frontier.pop()
            if node == goal:
                return False
            for neighbor in adjacency.get(node, ()):
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        return True


def check_hops(hops: int) -> None:
    """Reject a hop budget whose distances the int8 ``node_labels`` cannot hold."""
    if hops > MAX_HOPS:
        raise ValueError(f"hops must be <= {MAX_HOPS} (int8 node labels), got {hops}")


def label_arrays(labels: Dict[int, Tuple[int, int]], head: int, tail: int
                 ) -> Tuple[np.ndarray, np.ndarray, int, int]:
    """A label dict as ``(nodes, node_labels, head_row, tail_row)`` arrays.

    Rows follow ascending global id; ``labels`` always holds both endpoints.
    """
    ordered = sorted(labels)
    nodes = np.array(ordered, dtype=np.int64)
    node_labels = np.array([labels[node] for node in ordered],
                           dtype=np.int8).reshape(-1, 2)
    return (nodes, node_labels, int(np.searchsorted(nodes, head)),
            int(np.searchsorted(nodes, tail)))


def collect_induced_edges(graph: KnowledgeGraph, nodes: np.ndarray,
                          target: Optional[Triple] = None) -> np.ndarray:
    """Edges of the subgraph induced on ``nodes``, re-indexed to local ids.

    ``nodes`` holds the retained global ids in ascending order; a node's
    position is its local index.  Gathers the out-edge CSR slices of every
    retained node in one vectorized pass and keeps the edges whose tail is
    also retained; the ``target`` link itself (if present in the graph) is
    dropped.  Edge order matches the historical per-node iteration:
    ascending head id, insertion order within one head.  Returns an
    ``(E, 3)`` int32 array.  The global→local index map is borrowed from
    the snapshot's scratch pool and reset output-sensitively.
    """
    adjacency = graph.adjacency()
    nodes_arr = np.asarray(nodes, dtype=np.int64)
    scratch = adjacency.scratch()
    local = scratch.borrow_index_map()
    try:
        local[nodes_arr] = np.arange(nodes_arr.shape[0], dtype=np.int64)
        heads, relations, tails = adjacency.out_edges_of_many(nodes_arr)
        keep = local[tails] >= 0
        if target is not None:
            keep &= ~((heads == target.head)
                      & (relations == target.relation)
                      & (tails == target.tail))
        edges = np.empty((int(np.count_nonzero(keep)), 3), dtype=np.int32)
        edges[:, 0] = local[heads[keep]]
        edges[:, 1] = relations[keep]
        edges[:, 2] = local[tails[keep]]
        return edges
    finally:
        scratch.release_index_map(local, [nodes_arr])


def _region_candidates(head_region: Set[int], tail_region: Set[int],
                       head: int, tail: int, improved_labeling: bool) -> Set[int]:
    """Candidate node set from the two k-hop regions (union vs GraIL pruning).

    Shared verbatim by the per-pair and the batched extraction paths: the set
    operations (and therefore the set iteration order, which the
    ``max_nodes`` cap's stable degree sort ties break on) must be identical
    for the two paths to produce bit-identical subgraphs.
    """
    if improved_labeling:
        return head_region | tail_region
    return (head_region & tail_region) | {head, tail}


def _cap_labels(graph: KnowledgeGraph, labels: Dict[int, Tuple[int, int]],
                head: int, tail: int, max_nodes: int) -> Dict[int, Tuple[int, int]]:
    """Cap the subgraph size for tractability, keeping the endpoints.

    The highest-degree overflow nodes are dropped first; the stable sort
    breaks degree ties in label-insertion order, which is why both extraction
    paths construct ``labels`` through identical set/dict operations.
    """
    if len(labels) <= max_nodes:
        return labels
    keep = {head, tail}
    others = sorted((node for node in labels if node not in keep),
                    key=lambda n: graph.degree(n))
    for node in others[: max_nodes - len(keep)]:
        keep.add(node)
    return {node: lab for node, lab in labels.items() if node in keep}


def extract_enclosing_subgraph(graph: KnowledgeGraph, target: Triple, hops: int = 2,
                               improved_labeling: bool = True,
                               max_nodes: int = 200,
                               omit_target_edge: bool = True) -> ExtractedSubgraph:
    """Extract and label the subgraph around ``target`` from ``graph``.

    Parameters
    ----------
    graph:
        The context graph (for evaluation this is ``G ∪ G'``; the target link
        itself is never required to be present).
    target:
        The link being scored.
    hops:
        Neighborhood radius ``t``.
    improved_labeling:
        ``True`` uses the paper's labeling that keeps one-sided nodes with the
        ``-1`` sentinel; ``False`` reproduces GraIL's pruning.
    max_nodes:
        Safety cap on subgraph size; the highest-degree overflow nodes are
        dropped first (endpoints are always kept).
    omit_target_edge:
        Drop the target link itself from the collected edges if it happens to
        exist in ``graph``.  Callers that cache one extraction per
        ``(head, tail)`` pair and re-score it under many candidate relations
        pass ``False`` and mask the matching edge per candidate instead.
    """
    check_hops(hops)
    head, tail = target.head, target.tail
    head_region = k_hop_neighborhood(graph, head, hops)
    tail_region = k_hop_neighborhood(graph, tail, hops)
    candidate_nodes = _region_candidates(head_region, tail_region, head, tail,
                                         improved_labeling)

    distances_to_head = shortest_path_lengths(graph, head, candidate_nodes,
                                              max_distance=hops, forbidden={tail})
    distances_to_tail = shortest_path_lengths(graph, tail, candidate_nodes,
                                              max_distance=hops, forbidden={head})
    labels = label_nodes(distances_to_head, distances_to_tail, candidate_nodes,
                         head, tail, hops, improved=improved_labeling)
    labels = _cap_labels(graph, labels, head, tail, max_nodes)

    nodes, node_labels, head_row, tail_row = label_arrays(labels, head, tail)
    edges = collect_induced_edges(graph, nodes,
                                  target if omit_target_edge else None)
    return ExtractedSubgraph(target=target, nodes=nodes, node_labels=node_labels,
                             edges=edges, head_row=head_row, tail_row=tail_row,
                             hops=hops)
