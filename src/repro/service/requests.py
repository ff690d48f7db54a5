"""Request/response vocabulary of the measurement service.

Everything that crosses the service boundary is a plain, picklable value:
requests carry primitives only, responses carry primitives only. That is
what makes two seeded runs of the same scenario byte-comparable — the
aggregate snapshot is computed from these values alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple

__all__ = [
    "RequestKind",
    "Status",
    "Request",
    "Response",
    "ResultPage",
    "REJECTED_STATUSES",
    "classify_exception",
]


class RequestKind(Enum):
    """The four operations the in-process API accepts."""

    LOOKUP_PATHS = "lookup_paths"
    SUBMIT_TRAFFIC = "submit_traffic"
    INJECT_FAULT = "inject_fault"
    GET_RESULTS = "get_results"


class Status(Enum):
    """Terminal state of a submitted request.

    Admission rejections (``REJECTED_*``) are decided synchronously at
    submit time and never occupy a queue slot or a worker. ``TIMEOUT`` is
    the retryable failure class — the worker retries with exponential
    backoff until the attempt budget runs out. ``FAILED`` is the
    non-retryable class (invalid arguments, unknown endpoints): retrying
    cannot help, so the first failure is final.
    """

    OK = "ok"
    REJECTED_QUEUE_FULL = "rejected_queue_full"
    REJECTED_RATE_LIMITED = "rejected_rate_limited"
    REJECTED_SHUTTING_DOWN = "rejected_shutting_down"
    TIMEOUT = "timeout"
    FAILED = "failed"


REJECTED_STATUSES = (
    Status.REJECTED_QUEUE_FULL,
    Status.REJECTED_RATE_LIMITED,
    Status.REJECTED_SHUTTING_DOWN,
)


def classify_exception(exc: BaseException) -> bool:
    """Whether a handler failure is retryable.

    ``TimeoutError`` (the per-attempt deadline) is transient; everything
    else — bad arguments, unknown ASes, domain errors — is permanent.
    """
    return isinstance(exc, TimeoutError)


@dataclass(frozen=True, slots=True)
class Request:
    """One operation submitted by a client.

    Exactly the fields the chosen ``kind`` needs are read; the rest stay
    at their defaults. ``cost`` overrides the configured simulated service
    time of the operation (the load generator uses it to plant slow
    requests that exercise the timeout/backoff path).
    """

    kind: RequestKind
    client_id: str
    #: LOOKUP_PATHS / SUBMIT_TRAFFIC endpoints.
    src: int = 0
    dst: int = 0
    #: SUBMIT_TRAFFIC flow size (packets of ``traffic.flows.PAYLOAD_BYTES``).
    num_packets: int = 1
    #: INJECT_FAULT action ("fail" | "recover") and link target.
    action: str = "fail"
    link_id: int = 0
    #: GET_RESULTS page (absolute offset into the client's result log).
    offset: int = 0
    limit: int = 50
    #: Simulated service-time override in seconds (None = per-kind config).
    cost: Optional[float] = None


@dataclass(frozen=True, slots=True)
class Response:
    """The single terminal answer to one submitted request."""

    request_id: int
    client_id: str
    kind: RequestKind
    status: Status
    #: Execution attempts consumed (0 for admission rejections).
    attempts: int
    submitted_at: float
    completed_at: float
    #: Primitive result payload (path count, delivered packets, page, …).
    payload: Tuple = ()
    error: str = ""

    @property
    def latency(self) -> float:
        """Seconds from submission to the terminal answer."""
        return self.completed_at - self.submitted_at


@dataclass(frozen=True, slots=True)
class ResultPage:
    """One page of a client's completed-request log.

    Offsets are absolute positions in the client's lifetime log, so a
    page token stays valid even after the bounded store dropped its oldest
    records: ``first_offset`` is the oldest record still held, and
    ``next_offset`` is ``None`` once the page reached the end.
    """

    items: Tuple = ()
    total: int = 0
    first_offset: int = 0
    next_offset: Optional[int] = None
