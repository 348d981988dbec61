"""Clients of the scoring daemon: in-process and over the socket.

Both speak the same op dictionaries and go through the same
:func:`~repro.serving.daemon.handle_request` semantics, so tests and
benchmarks can swap transports without changing assertions:

* :class:`InProcessClient` wraps a live :class:`ScoringService` directly —
  no socket, no serialization of scores beyond the wire dict shape.  This
  is what the equivalence gates use, because it exercises the coalescer
  (the part whose bit-identity needs proving) without the float → JSON →
  float round trip.
* :class:`SocketClient` speaks line-delimited JSON over TCP to a running
  daemon.  JSON round-trips Python floats exactly (``repr``-based
  serialization), so socket responses are bit-identical to in-process
  responses too.

Errors come back as :class:`ServingError` carrying the daemon's error text.
"""

from __future__ import annotations

import json
import socket
from typing import Any, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.kg.triple import Triple
from repro.serving.daemon import handle_request
from repro.serving.service import ScoringService

TripleLike = Union[Triple, Sequence[int]]


class ServingError(RuntimeError):
    """An ``{"ok": false}`` response, with the daemon's error text."""


def _wire_triple(triple: TripleLike) -> List[Any]:
    """The ids as JSON values, uncoerced: the service validates them, so a
    float or a bool is refused there instead of truncated here."""
    if isinstance(triple, Triple):
        triple = (triple.head, triple.relation, triple.tail)
    return [value.item() if isinstance(value, np.generic) else value for value in triple]


class _OpsMixin:
    """The op surface, built on a single ``request`` primitive."""

    def request(self, payload: Dict[str, Any]) -> Any:
        raise NotImplementedError

    def ping(self) -> str:
        return self.request({"op": "ping"})

    def models(self) -> List[Dict[str, Any]]:
        return self.request({"op": "models"})

    def score(self, model: str, head: int, relation: int, tail: int) -> float:
        head, relation, tail = _wire_triple((head, relation, tail))
        return self.request({"op": "score", "model": model, "head": head,
                             "relation": relation, "tail": tail})

    def score_many(self, model: str, triples: Sequence[TripleLike]) -> List[float]:
        return self.request({"op": "score_many", "model": model,
                             "triples": [_wire_triple(t) for t in triples]})

    def rank(self, model: str, triple: TripleLike,
             candidates: Sequence[TripleLike]) -> Dict[str, Any]:
        return self.request({"op": "rank", "model": model,
                             "triple": _wire_triple(triple),
                             "candidates": [_wire_triple(t) for t in candidates]})

    def compare(self, triple: TripleLike) -> Dict[str, float]:
        return self.request({"op": "compare", "triple": _wire_triple(triple)})

    def stats(self) -> Dict[str, Any]:
        return self.request({"op": "stats"})


class InProcessClient(_OpsMixin):
    """Direct client of a live service — the transport tests/benches use."""

    def __init__(self, service: ScoringService):
        self._service = service

    def request(self, payload: Dict[str, Any]) -> Any:
        response = handle_request(self._service, payload)
        if not response["ok"]:
            raise ServingError(response["error"])
        return response["result"]


class SocketClient(_OpsMixin):
    """ndjson-over-TCP client of a running daemon."""

    def __init__(self, host: str = "127.0.0.1", port: int = 7777,
                 timeout: Optional[float] = 30.0):
        self._socket = socket.create_connection((host, port), timeout=timeout)
        self._reader = self._socket.makefile("r", encoding="utf-8")

    def request(self, payload: Dict[str, Any]) -> Any:
        self._socket.sendall((json.dumps(payload) + "\n").encode("utf-8"))
        line = self._reader.readline()
        if not line:
            raise ServingError("connection closed by the daemon")
        response = json.loads(line)
        if not response["ok"]:
            raise ServingError(response["error"])
        return response["result"]

    def shutdown_daemon(self) -> str:
        """Ask the daemon to stop (drains in-flight work, flushes stats)."""
        return self.request({"op": "shutdown"})

    def close(self) -> None:
        try:
            self._reader.close()
        finally:
            self._socket.close()

    def __enter__(self) -> "SocketClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
