"""Line-delimited-JSON socket transport around a :class:`ScoringService`.

Stdlib only: a :class:`socketserver.ThreadingTCPServer` accepts one JSON
object per line and answers one JSON object per line —

    {"op": "score", "model": "TransE", "head": 3, "relation": 1, "tail": 7}
    {"ok": true, "result": -2.3517}

Ops: ``ping``, ``models``, ``score``, ``score_many``, ``rank``,
``compare``, ``stats``, ``shutdown``.  Responses are ``{"ok": true,
"result": ...}`` or ``{"ok": false, "error": "..."}``; a malformed or
failing request never takes the daemon down — the connection gets the
error line and the loop keeps serving.  When the service's bounded
pending queue is full the response carries ``"code": "overloaded"`` so
clients can back off programmatically; a request whose scoring replica
died answers ``"code": "replica_died"``, and one with a malformed triple or
an id outside the served graph ``"code": "invalid"``.  Concurrency comes from
thread-per-connection accept; compute stays serialized (and batched
across connections) on the service's coalescer flush thread — which, with
``--replicas N``, dispatches each flushed batch to one of N spawned
scoring replicas sharing the model/graph via read-only shm pages.

Lifecycle: SIGTERM and SIGINT (Ctrl-C) stop the accept loop, drain every
in-flight request, and flush telemetry through the PR 7 atomic writer —
the ``stats_path`` JSON is either the complete final snapshot or the
previous one, never a torn file.

Fault site ``serve_request`` fires per handled request (indexed by a
process-wide request ordinal): a ``raise`` degrades that one request to an
error response while the daemon keeps serving — the chaos drill asserts
exactly this degraded-but-correct behavior.
"""

from __future__ import annotations

import json
import signal
import socket
import socketserver
import threading
from typing import Any, Dict, Optional, Tuple

from repro.resilience import FaultInjected, fire
from repro.serving.coalescer import ServiceOverloaded
from repro.serving.replicas import ReplicaDied
from repro.serving.service import InvalidRequest, ScoringService

#: Fault site fired once per decoded request line.
REQUEST_FAULT_SITE = "serve_request"


def handle_request(service: ScoringService, request: Dict[str, Any],
                   *, request_index: int = 0) -> Dict[str, Any]:
    """Dispatch one decoded request dict to the service (transport-agnostic).

    Shared by the socket handler and the in-process client, so both
    transports see identical semantics, error text included.  The returned
    dict is the wire response: ``{"ok": true, "result": ...}`` on success.
    """
    try:
        fire(REQUEST_FAULT_SITE, request_index)
        op = request.get("op")
        if op == "ping":
            result: Any = "pong"
        elif op == "models":
            result = service.models()
        elif op == "score":
            result = service.score(request["model"], request["head"],
                                   request["relation"], request["tail"])
        elif op == "score_many":
            result = service.score_many(request["model"], request["triples"])
        elif op == "rank":
            result = service.rank(request["model"], request["triple"],
                                  request["candidates"])
        elif op == "compare":
            result = service.compare(request["triple"])
        elif op == "stats":
            result = service.stats()
        else:
            raise ValueError(f"unknown op {op!r}; expected one of "
                             "['ping', 'models', 'score', 'score_many', "
                             "'rank', 'compare', 'stats', 'shutdown']")
        return {"ok": True, "result": result}
    except InvalidRequest as error:
        # A malformed triple or an id outside the served graph, refused
        # before it was queued.
        return {"ok": False, "error": f"invalid: {error}", "code": "invalid"}
    except ServiceOverloaded as error:
        # Structured backpressure: the bounded pending queue is full.  The
        # "code" field lets clients branch on it without parsing prose.
        return {"ok": False, "error": f"overloaded: {error}",
                "code": "overloaded"}
    except ReplicaDied as error:
        # Only this request was lost; the respawned replica serves the next.
        return {"ok": False, "error": f"replica died: {error}",
                "code": "replica_died"}
    except FaultInjected as error:
        return {"ok": False, "error": f"degraded: {error}"}
    except (KeyError, TypeError, ValueError) as error:
        return {"ok": False, "error": f"{type(error).__name__}: {error}"}


class ScoringServer(socketserver.ThreadingTCPServer):
    """ndjson TCP front end; owns nothing but the transport."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address: Tuple[str, int], service: ScoringService):
        self.service = service
        self._request_counter = 0
        self._counter_lock = threading.Lock()
        super().__init__(address, _ConnectionHandler)

    def next_request_index(self) -> int:
        with self._counter_lock:
            index = self._request_counter
            self._request_counter += 1
        return index


class _ConnectionHandler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        server: ScoringServer = self.server  # type: ignore[assignment]
        for line in self.rfile:
            line = line.strip()
            if not line:
                continue
            try:
                request = json.loads(line)
            except json.JSONDecodeError as error:
                response = {"ok": False, "error": f"malformed JSON: {error}"}
            else:
                if request.get("op") == "shutdown":
                    self._send({"ok": True, "result": "shutting down"})
                    # shutdown() must run off the handler thread (it joins
                    # the serve_forever loop, which joins handler threads).
                    threading.Thread(target=server.shutdown, daemon=True).start()
                    return
                response = handle_request(server.service, request,
                                          request_index=server.next_request_index())
            self._send(response)

    def _send(self, response: Dict[str, Any]) -> None:
        self.wfile.write((json.dumps(response) + "\n").encode("utf-8"))
        self.wfile.flush()


def serve(service: ScoringService, host: str = "127.0.0.1", port: int = 0
          ) -> ScoringServer:
    """Bind a server for ``service`` (``port=0`` picks a free port).

    The caller drives the accept loop — ``serve_forever`` on a thread for
    tests/benchmarks, or :func:`run_daemon` for the CLI's blocking daemon.
    """
    return ScoringServer((host, port), service)


def run_daemon(service: ScoringService, host: str = "127.0.0.1",
               port: int = 7777, install_signals: bool = True) -> Optional[Any]:
    """Serve until SIGTERM/SIGINT/``shutdown``, then drain and flush stats.

    Blocks on the accept loop.  Returns the stats path when telemetry was
    persisted.  Signal handlers are only installed on the main thread
    (``install_signals=False`` lets tests run the daemon on a side thread
    and stop it with the ``shutdown`` op).
    """
    server = serve(service, host, port)

    def _stop(_signum, _frame) -> None:
        # shutdown() joins the accept loop; it must not run on the thread
        # executing serve_forever, and signal handlers do — hand it off.
        threading.Thread(target=server.shutdown, daemon=True).start()

    previous = {}
    if install_signals:
        for signum in (signal.SIGTERM, signal.SIGINT):
            previous[signum] = signal.signal(signum, _stop)
    try:
        server.serve_forever(poll_interval=0.05)
    finally:
        if install_signals:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
        server.server_close()
        # Graceful drain: every accepted request resolves before the
        # coalescer stops, then telemetry lands atomically.
        stats_path = service.close()
    return stats_path


def wait_until_serving(host: str, port: int, timeout: float = 5.0) -> None:
    """Block until the daemon accepts connections (test/benchmark helper)."""
    import time
    deadline = time.monotonic() + timeout
    while True:
        try:
            with socket.create_connection((host, port), timeout=0.2):
                return
        except OSError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.02)
