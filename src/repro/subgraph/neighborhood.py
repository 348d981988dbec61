"""Breadth-first neighborhood utilities over a knowledge graph.

Both traversals run level-synchronously on the graph's frozen CSR adjacency
snapshot (:meth:`repro.kg.graph.KnowledgeGraph.adjacency`): each hop gathers
the concatenated neighbor lists of the whole frontier in a handful of numpy
operations instead of looping over Python sets node by node.

The entity-indexed work arrays (visited/seen masks, target and forbidden
membership masks) are borrowed from the snapshot's
:class:`~repro.kg.graph.TraversalScratch` pool and reset output-sensitively —
only the entries a traversal actually touched are cleared on release — so
extraction cost scales with the visited region, not with ``num_entities``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

import numpy as np

from repro.kg.graph import KnowledgeGraph


def _mark_members(mask: np.ndarray, ids: Optional[Iterable[int]],
                  touched: List) -> None:
    """Set ``mask[ids]`` (out-of-range ids ignored) and record the writes."""
    if not ids:
        return
    arr = np.fromiter((int(i) for i in ids), dtype=np.int64)
    arr = arr[(arr >= 0) & (arr < mask.shape[0])]
    mask[arr] = True
    touched.append(arr)


def k_hop_neighborhood(graph: KnowledgeGraph, entity: int, hops: int,
                       exclude: Optional[Set[int]] = None) -> Set[int]:
    """Return all entities within ``hops`` undirected steps of ``entity``.

    ``entity`` itself is included.  Entities in ``exclude`` are neither visited
    nor traversed (used to forbid paths through the other endpoint when
    computing double-radius labels).
    """
    if hops < 0:
        raise ValueError("hops must be non-negative")
    num_entities = graph.num_entities
    if not 0 <= entity < num_entities:
        return {entity}
    adjacency = graph.adjacency()
    scratch = adjacency.scratch()
    visited = scratch.borrow_mask()
    touched: List = [entity]
    try:
        visited[entity] = True
        _mark_members(visited, exclude, touched)
        result = {int(entity)}
        frontier = np.array([entity], dtype=np.int64)
        for _ in range(hops):
            neighbors = adjacency.neighbors_of_many(frontier)
            if neighbors.size == 0:
                break
            neighbors = np.unique(neighbors)
            frontier = neighbors[~visited[neighbors]]
            if frontier.size == 0:
                break
            visited[frontier] = True
            touched.append(frontier)
            result.update(int(n) for n in frontier)
        return result
    finally:
        scratch.release_mask(visited, touched)


def shortest_path_lengths(graph: KnowledgeGraph, source: int,
                          targets: Iterable[int], max_distance: int,
                          forbidden: Optional[Set[int]] = None) -> Dict[int, int]:
    """BFS distances from ``source`` to each target, capped at ``max_distance``.

    Paths may not pass *through* nodes in ``forbidden`` (the paper's node
    labeling forbids paths through the other endpoint of the target link), but
    a forbidden node can still be a target itself.  Targets that are not
    reachable within ``max_distance`` are omitted from the result.
    """
    num_entities = graph.num_entities
    target_set = {int(t) for t in targets}
    distances: Dict[int, int] = {}
    if source in target_set:
        distances[source] = 0
    if not 0 <= source < num_entities:
        return distances
    adjacency = graph.adjacency()
    scratch = adjacency.scratch()
    is_target = scratch.borrow_mask()
    blocked = scratch.borrow_mask()
    seen = scratch.borrow_mask()
    target_touched: List = []
    blocked_touched: List = []
    seen_touched: List = [source]
    try:
        _mark_members(is_target, target_set, target_touched)
        _mark_members(blocked, forbidden, blocked_touched)
        seen[source] = True
        # The source always expands, even if listed as forbidden.
        frontier = np.array([source], dtype=np.int64)
        for distance in range(1, max_distance + 1):
            neighbors = adjacency.neighbors_of_many(frontier)
            if neighbors.size == 0:
                break
            neighbors = np.unique(neighbors)
            reached = neighbors[~seen[neighbors]]
            if reached.size == 0:
                break
            seen[reached] = True
            seen_touched.append(reached)
            for node in reached[is_target[reached]]:
                distances[int(node)] = distance
            frontier = reached[~blocked[reached]]
            if frontier.size == 0:
                break
        return distances
    finally:
        scratch.release_mask(seen, seen_touched)
        scratch.release_mask(blocked, blocked_touched)
        scratch.release_mask(is_target, target_touched)
