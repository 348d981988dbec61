"""In-memory knowledge graph with adjacency and relation-component indexes.

Besides the Python-dict indexes used for single-entity queries, the graph
exposes a frozen CSR-style adjacency snapshot (:meth:`KnowledgeGraph.adjacency`)
holding flat ``int64`` neighbor/relation arrays plus offsets.  It is built
lazily on first use, invalidated whenever a triple is added, and is what the
subgraph-extraction hot path (BFS frontier expansion, induced-edge collection)
operates on — no per-node Python ``set``/``list`` churn.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.kg.triple import Triple
from repro.kg.vocabulary import Vocabulary
from repro.shm import AttachedPage, PageHandle, PageSpec, attach_page, create_page


def _ragged_take(offsets: np.ndarray, values: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Concatenate the CSR slices ``values[offsets[n]:offsets[n+1]]`` for ``nodes``."""
    starts = offsets[nodes]
    counts = offsets[nodes + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=values.dtype)
    # index = start_i + (position within slice), vectorized over all slices
    ends = np.cumsum(counts)
    index = np.arange(total, dtype=np.int64) + np.repeat(starts - (ends - counts), counts)
    return values[index]


class TraversalScratch:
    """Pool of reusable O(num_entities) work arrays for one CSR snapshot.

    Subgraph extraction needs a handful of entity-indexed arrays per call
    (BFS visited masks, target/forbidden membership masks, a global→local
    index map).  Allocating them fresh makes every extraction cost
    O(num_entities) even when the subgraph itself is tiny; borrowing from
    this pool and resetting only the entries a traversal actually touched
    keeps the per-call cost proportional to the visited region.

    Protocol: ``borrow_*`` hands out a clean array (boolean masks all
    ``False``, index maps all ``-1``); the caller must pass every index it
    wrote to back through the matching ``release_*`` — typically from a
    ``finally`` block so an exception cannot poison the pool.  Not
    thread-safe (nothing in this library is); an un-released array is
    simply dropped and the next borrow allocates a fresh one.
    """

    def __init__(self, num_nodes: int):
        self.num_nodes = num_nodes
        self._bool_masks: List[np.ndarray] = []
        self._index_maps: List[np.ndarray] = []
        self._mask_matrices: Dict[int, List[np.ndarray]] = {}
        self._index_matrices: Dict[int, List[np.ndarray]] = {}

    def borrow_mask(self) -> np.ndarray:
        """A ``(num_nodes,)`` boolean mask, guaranteed all ``False``."""
        if self._bool_masks:
            return self._bool_masks.pop()
        return np.zeros(self.num_nodes, dtype=bool)

    def release_mask(self, mask: np.ndarray, touched: Iterable) -> None:
        """Return ``mask`` after clearing the ``touched`` indices/arrays."""
        for entry in touched:
            mask[entry] = False
        self._bool_masks.append(mask)

    def borrow_index_map(self) -> np.ndarray:
        """A ``(num_nodes,)`` int64 map, guaranteed all ``-1``."""
        if self._index_maps:
            return self._index_maps.pop()
        return np.full(self.num_nodes, -1, dtype=np.int64)

    def release_index_map(self, index_map: np.ndarray, touched: Iterable) -> None:
        """Return ``index_map`` after resetting the ``touched`` entries to -1."""
        for entry in touched:
            index_map[entry] = -1
        self._index_maps.append(index_map)

    # -- stacked (per-source-row) variants for batched multi-source BFS ---- #
    @staticmethod
    def _row_bucket(rows: int) -> int:
        """Round a row request up to the next power of two.

        Batch sizes vary call to call (the pending-miss count shrinks as a
        cache warms), so pooling by *exact* row count would park one matrix
        per distinct size for the snapshot's lifetime; bucketing bounds the
        pool at O(log max_rows) matrices.  Callers only index rows
        ``< rows``, so handing back a taller matrix is safe.
        """
        return 1 << max(0, rows - 1).bit_length()

    def borrow_mask_matrix(self, rows: int) -> np.ndarray:
        """A ``(>= rows, num_nodes)`` boolean matrix, guaranteed all ``False``.

        Batched extraction keeps one row of per-source BFS state per frontier;
        pooling keeps the per-batch cost proportional to what the sweep
        actually touches instead of O(rows * num_nodes) fresh zeros.
        """
        bucket = self._row_bucket(rows)
        pool = self._mask_matrices.get(bucket)
        if pool:
            return pool.pop()
        return np.zeros((bucket, self.num_nodes), dtype=bool)

    def release_mask_matrix(self, matrix: np.ndarray, touched_flat: Iterable) -> None:
        """Return a mask matrix after clearing the touched *flat* indices."""
        flat = matrix.reshape(-1)
        for entry in touched_flat:
            flat[entry] = False
        self._mask_matrices.setdefault(matrix.shape[0], []).append(matrix)

    def borrow_index_matrix(self, rows: int) -> np.ndarray:
        """A ``(>= rows, num_nodes)`` int64 matrix, guaranteed all ``-1``."""
        bucket = self._row_bucket(rows)
        pool = self._index_matrices.get(bucket)
        if pool:
            return pool.pop()
        return np.full((bucket, self.num_nodes), -1, dtype=np.int64)

    def release_index_matrix(self, matrix: np.ndarray, touched_flat: Iterable) -> None:
        """Return an index matrix after resetting the touched flat indices."""
        flat = matrix.reshape(-1)
        for entry in touched_flat:
            flat[entry] = -1
        self._index_matrices.setdefault(matrix.shape[0], []).append(matrix)


@dataclass(frozen=True)
class CSRAdjacency:
    """Immutable compressed-sparse-row view of a :class:`KnowledgeGraph`.

    Two indexes are kept, both addressed by global entity id:

    * undirected unique-neighbor lists (``und_*``) driving BFS frontier
      expansion in :mod:`repro.subgraph.neighborhood`;
    * directed out-edge lists (``out_*``; tails and relations, stably sorted
      by head so per-head insertion order is preserved) driving induced-edge
      collection in :mod:`repro.subgraph.extraction`.
    """

    num_nodes: int
    und_offsets: np.ndarray   #: ``(num_nodes + 1,)`` slice bounds into ``und_neighbors``
    und_neighbors: np.ndarray  #: flat unique undirected neighbor ids
    out_offsets: np.ndarray   #: ``(num_nodes + 1,)`` slice bounds into ``out_tails``
    out_tails: np.ndarray     #: flat tail ids of out-edges, grouped by head
    out_relations: np.ndarray  #: relation ids aligned with ``out_tails``

    def scratch(self) -> TraversalScratch:
        """Lazily-created :class:`TraversalScratch` tied to this snapshot.

        The scratch pool shares the snapshot's lifetime: when graph mutation
        discards the snapshot, the work arrays (sized to its node count) go
        with it.
        """
        existing = self.__dict__.get("_scratch")
        if existing is None:
            existing = TraversalScratch(self.num_nodes)
            object.__setattr__(self, "_scratch", existing)
        return existing

    def neighbors(self, node: int) -> np.ndarray:
        """Unique undirected neighbors of ``node`` (read-only view)."""
        return self.und_neighbors[self.und_offsets[node]:self.und_offsets[node + 1]]

    def neighbors_of_many(self, nodes: np.ndarray) -> np.ndarray:
        """Concatenated undirected neighbors of every node in ``nodes``."""
        return _ragged_take(self.und_offsets, self.und_neighbors, np.asarray(nodes, dtype=np.int64))

    def out_edges_of_many(self, nodes: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Out-edges of ``nodes`` as ``(heads, relations, tails)`` flat arrays.

        Edges appear grouped in the order of ``nodes``; within one head they
        keep the graph's triple-insertion order.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        counts = self.out_offsets[nodes + 1] - self.out_offsets[nodes]
        heads = np.repeat(nodes, counts)
        tails = _ragged_take(self.out_offsets, self.out_tails, nodes)
        relations = _ragged_take(self.out_offsets, self.out_relations, nodes)
        return heads, relations, tails

    @staticmethod
    def build(num_nodes: int, triples: np.ndarray) -> "CSRAdjacency":
        """Construct the snapshot from an ``(n, 3)`` triple array."""
        heads = triples[:, 0]
        relations = triples[:, 1]
        tails = triples[:, 2]

        # Directed out-edges, stably grouped by head.
        order = np.argsort(heads, kind="stable")
        out_counts = np.bincount(heads, minlength=num_nodes)
        out_offsets = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(out_counts, out=out_offsets[1:])

        # Undirected unique neighbors from both edge directions.
        src = np.concatenate([heads, tails])
        dst = np.concatenate([tails, heads])
        pair_order = np.lexsort((dst, src))
        src, dst = src[pair_order], dst[pair_order]
        if src.size:
            keep = np.ones(src.size, dtype=bool)
            keep[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
            src, dst = src[keep], dst[keep]
        und_counts = np.bincount(src, minlength=num_nodes)
        und_offsets = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(und_counts, out=und_offsets[1:])

        return CSRAdjacency(
            num_nodes=num_nodes,
            und_offsets=und_offsets,
            und_neighbors=dst,
            out_offsets=out_offsets,
            out_tails=tails[order],
            out_relations=relations[order],
        )


class KnowledgeGraph:
    """A multi-relational directed graph ``G(E, R) = {(h, r, t)}``.

    The class maintains several indexes that the rest of the library relies
    on:

    * ``neighbors(entity)`` — undirected adjacency for subgraph extraction.
    * ``relation_component_table(entity)`` — per-relation triple counts used by
      the CLRM module (Eq. 2 of the paper).
    * ``triples_from(head)`` / ``triples_to(tail)`` — directed adjacency used
      by rule mining and message passing.
    """

    def __init__(self, num_entities: int, num_relations: int,
                 triples: Optional[Iterable[Triple]] = None,
                 vocabulary: Optional[Vocabulary] = None):
        if num_entities < 0 or num_relations < 0:
            raise ValueError("entity and relation counts must be non-negative")
        self.num_entities = num_entities
        self.num_relations = num_relations
        self.vocabulary = vocabulary
        self._triples: List[Triple] = []
        self._triple_set: Set[Tuple[int, int, int]] = set()
        self._out: Dict[int, List[Triple]] = defaultdict(list)
        self._in: Dict[int, List[Triple]] = defaultdict(list)
        self._undirected: Dict[int, Set[int]] = defaultdict(set)
        self._relation_counts: Dict[int, Dict[int, int]] = defaultdict(lambda: defaultdict(int))
        self._adjacency: Optional[CSRAdjacency] = None
        if triples is not None:
            self.add_triples(triples)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_tuples(cls, tuples: Iterable[Tuple[int, int, int]], num_entities: int,
                    num_relations: int, vocabulary: Optional[Vocabulary] = None) -> "KnowledgeGraph":
        """Build a graph from ``(head, relation, tail)`` integer tuples."""
        triples = [Triple(*t) for t in tuples]
        return cls(num_entities, num_relations, triples, vocabulary)

    def add_triple(self, triple: Triple) -> bool:
        """Add a triple; returns ``False`` if it was already present."""
        key = triple.astuple()
        if key in self._triple_set:
            return False
        self._validate(triple)
        self._adjacency = None  # mutation invalidates the frozen CSR snapshot
        self._triple_set.add(key)
        self._triples.append(triple)
        self._out[triple.head].append(triple)
        self._in[triple.tail].append(triple)
        self._undirected[triple.head].add(triple.tail)
        self._undirected[triple.tail].add(triple.head)
        self._relation_counts[triple.head][triple.relation] += 1
        self._relation_counts[triple.tail][triple.relation] += 1
        return True

    def add_triples(self, triples: Iterable[Triple]) -> int:
        """Add many triples; returns how many were new."""
        return sum(1 for triple in triples if self.add_triple(triple))

    def _validate(self, triple: Triple) -> None:
        if not (0 <= triple.head < self.num_entities and 0 <= triple.tail < self.num_entities):
            raise ValueError(f"entity id out of range in {triple} (num_entities={self.num_entities})")
        if not 0 <= triple.relation < self.num_relations:
            raise ValueError(f"relation id out of range in {triple} (num_relations={self.num_relations})")

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    @property
    def triples(self) -> List[Triple]:
        return list(self._triples)

    def num_triples(self) -> int:
        return len(self._triples)

    def __len__(self) -> int:
        return len(self._triples)

    def __contains__(self, triple: Triple) -> bool:
        return triple.astuple() in self._triple_set

    def __iter__(self) -> Iterator[Triple]:
        return iter(self._triples)

    def contains(self, head: int, relation: int, tail: int) -> bool:
        return (head, relation, tail) in self._triple_set

    def entities(self) -> List[int]:
        """Entities that appear in at least one triple."""
        seen = set()
        for triple in self._triples:
            seen.add(triple.head)
            seen.add(triple.tail)
        return sorted(seen)

    def relations(self) -> List[int]:
        """Relations that appear in at least one triple."""
        return sorted({triple.relation for triple in self._triples})

    def triples_from(self, head: int) -> List[Triple]:
        """All triples whose head is ``head``."""
        return list(self._out.get(head, ()))

    def triples_to(self, tail: int) -> List[Triple]:
        """All triples whose tail is ``tail``."""
        return list(self._in.get(tail, ()))

    def triples_of(self, entity: int) -> List[Triple]:
        """All triples touching ``entity`` (as head or tail)."""
        return self.triples_from(entity) + self.triples_to(entity)

    def neighbors(self, entity: int) -> Set[int]:
        """Undirected neighbours of ``entity``."""
        return set(self._undirected.get(entity, ()))

    def degree(self, entity: int) -> int:
        """Number of triples touching ``entity``."""
        return len(self._out.get(entity, ())) + len(self._in.get(entity, ()))

    def adjacency(self) -> CSRAdjacency:
        """Frozen CSR adjacency snapshot (built lazily, invalidated on mutation).

        The returned object is shared between callers; treat its arrays as
        read-only.  Adding a triple discards the cached snapshot, so holders of
        a stale reference keep a consistent (if outdated) view.
        """
        if self._adjacency is None:
            self._adjacency = CSRAdjacency.build(self.num_entities, self.triple_array())
        return self._adjacency

    # ------------------------------------------------------------------ #
    # relation-component table (Eq. 2)
    # ------------------------------------------------------------------ #
    def relation_component_table(self, entity: int) -> np.ndarray:
        """Return ``A_i``: the count of triples per relation touching ``entity``."""
        counts = np.zeros(self.num_relations, dtype=np.float64)
        for relation, count in self._relation_counts.get(entity, {}).items():
            counts[relation] = count
        return counts

    def relation_component_matrix(self, entities: Optional[Sequence[int]] = None) -> np.ndarray:
        """Stack relation-component tables for ``entities`` (default: all)."""
        if entities is None:
            entities = range(self.num_entities)
        return np.stack([self.relation_component_table(e) for e in entities])

    # ------------------------------------------------------------------ #
    # derived graphs
    # ------------------------------------------------------------------ #
    def subgraph(self, entities: Set[int]) -> "KnowledgeGraph":
        """Return the induced subgraph on ``entities`` (keeps global ids)."""
        sub = KnowledgeGraph(self.num_entities, self.num_relations, vocabulary=self.vocabulary)
        sub.add_triples(t for t in self._triples if t.head in entities and t.tail in entities)
        return sub

    def merge(self, other: "KnowledgeGraph") -> "KnowledgeGraph":
        """Union of this graph and ``other`` (entity/relation spaces must agree)."""
        if other.num_relations != self.num_relations:
            raise ValueError("cannot merge graphs with different relation spaces")
        merged = KnowledgeGraph(max(self.num_entities, other.num_entities),
                                self.num_relations, vocabulary=self.vocabulary)
        merged.add_triples(self._triples)
        merged.add_triples(other.triples)
        return merged

    def triple_array(self) -> np.ndarray:
        """Return all triples as an ``(n, 3)`` int array ``[head, relation, tail]``."""
        if not self._triples:
            return np.zeros((0, 3), dtype=np.int64)
        return np.array([t.astuple() for t in self._triples], dtype=np.int64)

    def copy(self) -> "KnowledgeGraph":
        """Deep copy of the graph structure (vocabulary is shared)."""
        return KnowledgeGraph(self.num_entities, self.num_relations,
                              self._triples, self.vocabulary)

    def __reduce__(self):
        """Pickle as (shape, triples, vocabulary); indexes rebuild on load.

        The per-entity relation-count index uses a lambda default factory,
        which the default pickle machinery rejects — and shipping derived
        indexes (adjacency dicts, the CSR snapshot, its scratch pool) across
        a process boundary would be wasted bytes anyway, since reconstruction
        from the triple list is deterministic and cheap.  This is what makes
        evaluation-shard workers able to receive the context graph at all.
        """
        return (KnowledgeGraph,
                (self.num_entities, self.num_relations, self._triples, self.vocabulary))


# --------------------------------------------------------------------- #
# shared-memory export: zero-copy scale-out (repro.shm consumers)
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class GraphPageSpec:
    """Attach ticket for a graph page: the shape plus the page manifest.

    Tiny and picklable — this is what crosses the process boundary in place
    of the pickled graph when shared memory is enabled.
    """

    num_entities: int
    num_relations: int
    page: PageSpec


def graph_to_shm(graph: KnowledgeGraph) -> Tuple[GraphPageSpec, PageHandle]:
    """Export ``graph``'s frozen snapshot into one shared-memory page.

    The page holds everything the scoring hot paths read — the ``(n, 3)``
    triple array, the five CSR adjacency arrays, a per-entity degree array,
    sorted membership keys for O(log n) ``contains``, and the Eq. 2
    relation-component counts as an entity-indexed CSR — so a worker can
    rebuild a fully usable read-only view without copying a byte.  The
    caller owns the returned :class:`~repro.shm.PageHandle` and must
    ``release()`` it when the last consumer is done.
    """
    triples = np.ascontiguousarray(graph.triple_array(), dtype=np.int64)
    heads, relations, tails = triples[:, 0], triples[:, 1], triples[:, 2]
    adjacency = graph.adjacency()
    num_entities = graph.num_entities
    num_relations = graph.num_relations

    degree = (np.bincount(heads, minlength=num_entities)
              + np.bincount(tails, minlength=num_entities)).astype(np.int64)

    arrays: Dict[str, np.ndarray] = {
        "triples": triples,
        "und_offsets": adjacency.und_offsets,
        "und_neighbors": adjacency.und_neighbors,
        "out_offsets": adjacency.out_offsets,
        "out_tails": adjacency.out_tails,
        "out_relations": adjacency.out_relations,
        "degree": degree,
    }

    # Membership keys: each triple encoded as ``(h * R + r) * E + t`` and
    # sorted for binary search.  Skipped when the encoding could overflow
    # int64 (absurdly large vocabularies); the view then falls back to a
    # lazily materialized Python set for ``contains``.
    has_keys = False
    if num_entities > 0 and num_relations > 0:
        max_key = (((num_entities - 1) * num_relations + (num_relations - 1))
                   * num_entities + (num_entities - 1))
        if max_key < 2 ** 62:
            keys = (heads * num_relations + relations) * num_entities + tails
            arrays["triple_keys"] = np.sort(keys)
            has_keys = True

    # Relation-component counts (Eq. 2) as an entity-indexed CSR.  Each
    # triple contributes to *both* endpoints (a self-loop twice), matching
    # the dict index maintained by :meth:`KnowledgeGraph.add_triple`.
    pair_entities = np.concatenate([heads, tails])
    pair_relations = np.concatenate([relations, relations])
    if num_relations > 0:
        encoded = pair_entities * num_relations + pair_relations
        unique, counts = np.unique(encoded, return_counts=True)
        rc_entities = unique // num_relations
        rc_relations = unique % num_relations
    else:
        rc_entities = np.empty(0, dtype=np.int64)
        rc_relations = np.empty(0, dtype=np.int64)
        counts = np.empty(0, dtype=np.int64)
    rc_offsets = np.zeros(num_entities + 1, dtype=np.int64)
    np.cumsum(np.bincount(rc_entities, minlength=num_entities), out=rc_offsets[1:])
    arrays["rc_offsets"] = rc_offsets
    arrays["rc_relations"] = rc_relations.astype(np.int64)
    arrays["rc_counts"] = counts.astype(np.int64)

    handle = create_page(arrays, header={
        "kind": "graph-csr",
        "num_entities": num_entities,
        "num_relations": num_relations,
        "has_keys": has_keys,
    })
    spec = GraphPageSpec(num_entities=num_entities,
                         num_relations=num_relations,
                         page=handle.spec)
    return spec, handle


def graph_from_shm(spec: GraphPageSpec, verify: bool = True) -> "SharedGraphView":
    """Attach the page named by ``spec`` and rebuild a read-only graph view."""
    page = attach_page(spec.page, verify=verify)
    return SharedGraphView(spec, page)


class SharedGraphView(KnowledgeGraph):
    """Read-only :class:`KnowledgeGraph` backed by a shared CSR page.

    Everything the scoring hot paths touch — :meth:`adjacency`,
    :meth:`degree`, :meth:`contains`, :meth:`relation_component_table`,
    :meth:`triple_array` — is answered straight from zero-copy array views
    over the page buffer; per-process marginal memory is O(1), not
    O(graph).  The Python-dict indexes of the base class (``triples_from``,
    ``triples_of``, iteration as :class:`Triple` objects) are materialized
    lazily on first use so dict-API consumers like RuleN still work, at the
    cost of a private copy in that one process.  Mutation raises
    ``TypeError``; :meth:`KnowledgeGraph.copy` hands back a regular mutable
    graph.
    """

    _LAZY_INDEXES = ("_triples", "_triple_set", "_out", "_in",
                     "_undirected", "_relation_counts")

    def __init__(self, spec: GraphPageSpec, page: AttachedPage):
        # Deliberately *not* calling KnowledgeGraph.__init__: the dict
        # indexes it builds are exactly the O(graph) per-process cost this
        # view exists to avoid.
        self.num_entities = spec.num_entities
        self.num_relations = spec.num_relations
        self.vocabulary = None
        self.shm_spec = spec
        self._page = page
        arrays = page.arrays
        self._shared_triples = arrays["triples"]
        self._degree_array = arrays["degree"]
        self._triple_keys = arrays.get("triple_keys")
        self._rc_offsets = arrays["rc_offsets"]
        self._rc_relations = arrays["rc_relations"]
        self._rc_counts = arrays["rc_counts"]
        self._adjacency = CSRAdjacency(
            num_nodes=spec.num_entities,
            und_offsets=arrays["und_offsets"],
            und_neighbors=arrays["und_neighbors"],
            out_offsets=arrays["out_offsets"],
            out_tails=arrays["out_tails"],
            out_relations=arrays["out_relations"],
        )

    # -- lifecycle ------------------------------------------------------ #
    def close(self) -> None:
        """Drop this process's mapping (best effort; views may pin it)."""
        page, self._page = self._page, None
        if page is not None:
            page.close()

    # -- mutation is forbidden ------------------------------------------ #
    def add_triple(self, triple: Triple) -> bool:
        raise TypeError("SharedGraphView is read-only; use .copy() to get a "
                        "mutable graph")

    def add_triples(self, triples: Iterable[Triple]) -> int:
        raise TypeError("SharedGraphView is read-only; use .copy() to get a "
                        "mutable graph")

    # -- zero-copy query overrides -------------------------------------- #
    def triple_array(self) -> np.ndarray:
        return self._shared_triples

    def num_triples(self) -> int:
        return int(self._shared_triples.shape[0])

    def __len__(self) -> int:
        return int(self._shared_triples.shape[0])

    def __iter__(self) -> Iterator[Triple]:
        for head, relation, tail in self._shared_triples:
            yield Triple(int(head), int(relation), int(tail))

    def contains(self, head: int, relation: int, tail: int) -> bool:
        if not (0 <= head < self.num_entities
                and 0 <= tail < self.num_entities
                and 0 <= relation < self.num_relations):
            return False
        keys = self._triple_keys
        if keys is not None:
            key = (head * self.num_relations + relation) * self.num_entities + tail
            index = int(np.searchsorted(keys, key))
            return index < keys.size and int(keys[index]) == key
        return (head, relation, tail) in self._triple_set

    def __contains__(self, triple: Triple) -> bool:
        return self.contains(triple.head, triple.relation, triple.tail)

    def degree(self, entity: int) -> int:
        if 0 <= entity < self.num_entities:
            return int(self._degree_array[entity])
        return 0

    def neighbors(self, entity: int) -> Set[int]:
        if 0 <= entity < self.num_entities:
            return {int(n) for n in self._adjacency.neighbors(entity)}
        return set()

    def entities(self) -> List[int]:
        if self._shared_triples.shape[0] == 0:
            return []
        return [int(e) for e in np.unique(self._shared_triples[:, (0, 2)])]

    def relations(self) -> List[int]:
        if self._shared_triples.shape[0] == 0:
            return []
        return [int(r) for r in np.unique(self._shared_triples[:, 1])]

    def relation_component_table(self, entity: int) -> np.ndarray:
        counts = np.zeros(self.num_relations, dtype=np.float64)
        if 0 <= entity < self.num_entities:
            start = int(self._rc_offsets[entity])
            stop = int(self._rc_offsets[entity + 1])
            counts[self._rc_relations[start:stop]] = self._rc_counts[start:stop]
        return counts

    # -- lazy dict-index fallback (RuleN and friends) ------------------- #
    def __getattr__(self, name: str):
        if name in SharedGraphView._LAZY_INDEXES:
            self._materialize_indexes()
            return self.__dict__[name]
        raise AttributeError(name)

    def _materialize_indexes(self) -> None:
        """Build the base class's dict indexes from the shared triple array.

        Only consumers that genuinely need Triple objects or per-entity
        triple lists pay this; the scoring hot paths never do.
        """
        triples = [Triple(int(h), int(r), int(t))
                   for h, r, t in self._shared_triples]
        out: Dict[int, List[Triple]] = defaultdict(list)
        in_: Dict[int, List[Triple]] = defaultdict(list)
        undirected: Dict[int, Set[int]] = defaultdict(set)
        relation_counts: Dict[int, Dict[int, int]] = defaultdict(lambda: defaultdict(int))
        for triple in triples:
            out[triple.head].append(triple)
            in_[triple.tail].append(triple)
            undirected[triple.head].add(triple.tail)
            undirected[triple.tail].add(triple.head)
            relation_counts[triple.head][triple.relation] += 1
            relation_counts[triple.tail][triple.relation] += 1
        self.__dict__.update(
            _triples=triples,
            _triple_set={t.astuple() for t in triples},
            _out=out,
            _in=in_,
            _undirected=undirected,
            _relation_counts=relation_counts,
        )
