"""Long-lived link-prediction serving: warm models, coalesced requests.

The batch entry points (``repro run``/``evaluate``) load, score, exit;
this package keeps a :class:`~repro.serving.service.ScoringService` warm
behind ``python -m repro serve`` — models loaded once through the
registry, subgraph extractions shared across models and requests, and
concurrent queries coalesced into batched compute under a latency budget
without ever changing a score bit (see
:mod:`repro.serving.coalescer` for the invariance rules).

Layers, transport-agnostic inward:

* :mod:`repro.serving.coalescer` — queue + flush thread + futures +
  bounded-queue backpressure;
* :mod:`repro.serving.replicas` — multi-process scoring replicas sharing
  the model and graph via read-only shared-memory pages;
* :mod:`repro.serving.service` — models, provider sharing, telemetry;
* :mod:`repro.serving.daemon` — ndjson TCP transport + graceful lifecycle;
* :mod:`repro.serving.client` — in-process and socket clients.
"""

from repro.serving.client import InProcessClient, ServingError, SocketClient
from repro.serving.coalescer import (CoalescerClosed, RequestCoalescer,
                                     ServiceOverloaded)
from repro.serving.daemon import (ScoringServer, handle_request, run_daemon,
                                  serve, wait_until_serving)
from repro.serving.replicas import ReplicaDied, ReplicaPool
from repro.serving.service import ScoringService

__all__ = [
    "CoalescerClosed",
    "InProcessClient",
    "ReplicaDied",
    "ReplicaPool",
    "RequestCoalescer",
    "ScoringServer",
    "ScoringService",
    "ServiceOverloaded",
    "ServingError",
    "SocketClient",
    "handle_request",
    "run_daemon",
    "serve",
    "wait_until_serving",
]
