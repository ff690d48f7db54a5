"""repro.service — the always-on asyncio measurement service.

The deployment story of the paper is a long-lived infrastructure serving
continuous path lookups and data-plane traffic; this package turns the
repo's batch substrates into exactly that. :class:`MeasurementService`
owns a persistent :class:`~repro.control.network.ScionNetwork` and
exposes an in-process async API — ``lookup_paths``, ``submit_traffic``,
``inject_fault``, paginated ``get_results`` — drained by a bounded worker
pool with admission control, per-client token-bucket rate limiting,
per-attempt timeouts with retry/backoff classification, and graceful
drain. Every queue/reject/latency signal lands in ``repro.obs``.

Because correctness under concurrency must be testable, the package also
ships its own deterministic harness (:mod:`repro.service.harness`): a
virtual-clock driver with zero wall-clock sleeps, a seeded multi-client
load generator (:mod:`repro.service.clients`), and global invariant
checks (response conservation, exact rate-limit replay, counter
reconciliation, quiescent drain). :func:`run_session` bundles it all
into one scripted, byte-identically-replayable session.
"""

from .clients import LoadConfig, LoadGenerator, PlannedRequest
from .clock import Clock, VirtualClock, WallClock
from .harness import DeadlockError, check_invariants, run_virtual, settle
from .limits import BoundedQueue, QueueClosed, TokenBucket
from .requests import (
    REJECTED_STATUSES,
    Request,
    RequestKind,
    Response,
    ResultPage,
    Status,
)
from .service import SERVICE_LATENCY_BUCKETS, MeasurementService, ServiceConfig
from .session import (
    MINI_SCALE,
    SessionConfig,
    SessionReport,
    run_session,
)

__all__ = [
    "Clock",
    "VirtualClock",
    "WallClock",
    "TokenBucket",
    "BoundedQueue",
    "QueueClosed",
    "Request",
    "RequestKind",
    "Response",
    "ResultPage",
    "Status",
    "REJECTED_STATUSES",
    "MeasurementService",
    "ServiceConfig",
    "SERVICE_LATENCY_BUCKETS",
    "LoadConfig",
    "LoadGenerator",
    "PlannedRequest",
    "DeadlockError",
    "settle",
    "run_virtual",
    "check_invariants",
    "MINI_SCALE",
    "SessionConfig",
    "SessionReport",
    "run_session",
]
