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

from .clients import LoadConfig, LoadGenerator
from .clock import VirtualClock
from .harness import DeadlockError, check_invariants, run_virtual
from .limits import BoundedQueue, QueueClosed, TokenBucket
from .requests import REJECTED_STATUSES, Request, RequestKind, Status
from .service import MeasurementService, ServiceConfig
from .session import SessionConfig, run_session

__all__ = [
    "VirtualClock",
    "TokenBucket",
    "BoundedQueue",
    "QueueClosed",
    "Request",
    "RequestKind",
    "Status",
    "REJECTED_STATUSES",
    "MeasurementService",
    "ServiceConfig",
    "LoadConfig",
    "LoadGenerator",
    "DeadlockError",
    "run_virtual",
    "check_invariants",
    "SessionConfig",
    "run_session",
]
