"""The basic fact unit of a knowledge graph, and the id check every entry
point applies to triples it is handed."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Sequence, Union

import numpy as np

if TYPE_CHECKING:
    from repro.kg.graph import KnowledgeGraph


@dataclass(frozen=True, order=True)
class Triple:
    """A ``(head, relation, tail)`` fact.

    Entities and relations are referenced by integer ids; the mapping from ids
    to human-readable names lives in :class:`~repro.kg.vocabulary.Vocabulary`.
    """

    head: int
    relation: int
    tail: int

    def reversed(self) -> "Triple":
        """Return the triple with head and tail swapped (same relation id)."""
        return Triple(self.tail, self.relation, self.head)

    def astuple(self) -> tuple[int, int, int]:
        """Return ``(head, relation, tail)`` as a plain tuple."""
        return (self.head, self.relation, self.tail)

    def __iter__(self):
        yield self.head
        yield self.relation
        yield self.tail


class InvalidTriple(ValueError):
    """A triple refused before anything is scored: not a ``(head, relation,
    tail)`` triple, or an id that is not an integer in the graph's
    vocabulary."""


def checked_id(value: Any, size: int, field: str) -> int:
    """``value`` as an ``int`` in ``[0, size)``; bools, floats and strings are refused."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise InvalidTriple(f"{field} must be an integer id, got {value!r}")
    if not 0 <= value < size:
        raise InvalidTriple(f"{field} id {value} is outside [0, {size}) of the graph")
    return int(value)


def checked_triple(value: Union[Triple, Sequence[int]],
                   graph: "KnowledgeGraph") -> Triple:
    """Accept ``Triple`` or a ``(head, relation, tail)`` sequence whose ids
    index ``graph``'s entities and relations."""
    if isinstance(value, Triple):
        head, relation, tail = value.head, value.relation, value.tail
    else:
        try:
            head, relation, tail = value
        except (TypeError, ValueError):
            raise InvalidTriple(
                f"a triple is a (head, relation, tail) sequence, got {value!r}") from None
    return Triple(checked_id(head, graph.num_entities, "head"),
                  checked_id(relation, graph.num_relations, "relation"),
                  checked_id(tail, graph.num_entities, "tail"))
