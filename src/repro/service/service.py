"""The always-on measurement service (`repro.service`).

:class:`MeasurementService` owns a persistent, already-ran
:class:`~repro.control.network.ScionNetwork` and serves four operations
concurrently from an in-process async API::

    service = MeasurementService(network, config=ServiceConfig())
    await service.start()
    response = await service.request(RequestKind.LOOKUP_PATHS, "client-1",
                                     src=..., dst=...)
    ...
    await service.drain()

The pipeline per request:

1. **admission** (synchronous, at submit): shutdown check, then the
   client's token bucket (rate limiting), then the bounded queue (depth
   limiting). A rejection resolves the response future immediately and
   never occupies a worker.
2. **execution**: a fixed pool of worker tasks drains the queue in FIFO
   order. Each attempt runs the handler against the network and charges a
   simulated service time through the clock; a per-attempt timeout
   classifies failures into retryable (timeout → exponential backoff, up
   to ``max_attempts``) and permanent (domain errors → fail fast).
3. **results**: every terminal response is appended to the client's
   bounded result log, queryable through paginated ``GET_RESULTS``.

Concurrency model (DESIGN.md §10): everything runs on one asyncio event
loop; tasks interleave only at ``await`` points. Handlers therefore treat
each synchronous block as atomic, and re-validate anything that may have
changed across their own awaits — e.g. a lookup re-filters its candidate
paths against :class:`~repro.control.revocation.RevocationService` after
its service-time sleep, using the revocation epoch to detect interleaved
fault injections.

Every queue/reject/latency signal is published through ``repro.obs``; the
``--obs-dir`` bundle's ``metrics.json`` is the service dashboard.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Deque, Dict, List, Optional, Tuple

from ..control.network import ScionNetwork
from ..obs import NULL_TELEMETRY, Telemetry
from ..obs.slo import DEFAULT_SERVICE_SLOS, evaluate_slos
from ..traffic.engine import TrafficConfig, TrafficEngine
from ..traffic.flows import Flow, FlowConfig, FlowGenerator
from .clock import Clock, WallClock
from .limits import BoundedQueue, QueueClosed, TokenBucket
from .requests import (
    Request,
    RequestKind,
    Response,
    ResultPage,
    Status,
    classify_exception,
)

__all__ = ["ServiceConfig", "MeasurementService", "SERVICE_LATENCY_BUCKETS"]

#: Bucket bounds (seconds) of the request-latency histograms; simulated
#: service times land in the millisecond range, retries in the tenths.
SERVICE_LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)


@dataclass(frozen=True)
class ServiceConfig:
    """All the knobs of the service, with production-shaped defaults."""

    #: Worker tasks draining the queue — the in-flight execution bound.
    workers: int = 4
    #: Bounded request-queue depth (admission control).
    queue_depth: int = 64
    #: Per-client token-bucket refill rate (requests/second) and burst.
    rate_per_client: float = 50.0
    burst_per_client: float = 20.0
    #: Per-attempt deadline in seconds (0 disables timeouts).
    request_timeout: float = 1.0
    #: Execution attempts per request (timeouts retry until exhausted).
    max_attempts: int = 3
    #: Exponential backoff between retry attempts.
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    #: Bounded per-client result log (oldest records drop first).
    results_per_client: int = 512
    #: Hard cap on a GET_RESULTS page size.
    page_limit: int = 100
    #: Simulated service time per operation kind, in seconds.
    lookup_cost: float = 0.004
    traffic_cost: float = 0.012
    fault_cost: float = 0.008
    results_cost: float = 0.001
    #: Maintenance cadence: cache sweeps + utilization tick roll (0 = off).
    maintenance_interval: float = 1.0
    #: Record the admission journal (client, time, decision) for the
    #: invariant harness's exact rate-limit replay.
    journal: bool = True

    def __post_init__(self) -> None:
        if self.workers < 1 or self.queue_depth < 1:
            raise ValueError("workers and queue_depth must be positive")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.rate_per_client < 0 or self.burst_per_client <= 0:
            raise ValueError("rate must be >= 0 and burst positive")
        if self.results_per_client < 1 or self.page_limit < 1:
            raise ValueError("results_per_client and page_limit must be positive")

    def cost_of(self, kind: RequestKind) -> float:
        return {
            RequestKind.LOOKUP_PATHS: self.lookup_cost,
            RequestKind.SUBMIT_TRAFFIC: self.traffic_cost,
            RequestKind.INJECT_FAULT: self.fault_cost,
            RequestKind.GET_RESULTS: self.results_cost,
        }[kind]


class _ClientLog:
    """Bounded per-client result log with absolute-offset pagination."""

    __slots__ = ("first_offset", "records", "dropped")

    def __init__(self) -> None:
        self.first_offset = 0
        self.records: Deque[Tuple] = deque()
        self.dropped = 0


# Queue entries: (request_id, request, response_future, submitted_at,
# open causal root span — a no-op handle when tracing is disabled).
_QueueEntry = Tuple[int, Request, asyncio.Future, float, object]


class MeasurementService:
    """Serves concurrent measurement requests over one persistent network."""

    def __init__(
        self,
        network: ScionNetwork,
        *,
        config: Optional[ServiceConfig] = None,
        clock: Optional[Clock] = None,
        obs: Optional[Telemetry] = None,
        engine: Optional[TrafficEngine] = None,
        name: str = "service",
    ) -> None:
        self.network = network
        self.config = config or ServiceConfig()
        self.clock = clock if clock is not None else WallClock()
        self.obs = obs if obs is not None else NULL_TELEMETRY
        self.name = name
        self.engine = engine if engine is not None else self._build_engine()

        self._queue: BoundedQueue = BoundedQueue(self.config.queue_depth)
        self._buckets: Dict[str, TokenBucket] = {}
        self._logs: Dict[str, _ClientLog] = {}
        self._workers: List[asyncio.Task] = []
        self._maintenance_task: Optional[asyncio.Task] = None
        self._accepting = False
        self._started = False
        self._in_flight = 0
        self._next_request_id = 0
        #: (client_id, submit_time, admission outcome) — the exact replay
        #: record the invariant harness checks the token buckets against.
        self.journal: List[Tuple[str, float, str]] = []
        #: Latencies of terminal (non-rejected) responses, completion order.
        self.latencies: List[float] = []
        self.stats: Dict[str, int] = {
            "submitted": 0,
            "accepted": 0,
            "rejected_queue_full": 0,
            "rejected_rate_limited": 0,
            "rejected_shutting_down": 0,
            "completed_ok": 0,
            "completed_timeout": 0,
            "completed_failed": 0,
            "attempts": 0,
            "retries": 0,
            "timeouts_observed": 0,
            "results_dropped": 0,
            "maintenance_rounds": 0,
            "peak_queue_depth": 0,
            "peak_in_flight": 0,
        }
        #: Service-time origin: simulated network time advances with the
        #: service clock from the moment the service is constructed.
        self._t0 = self.clock.now()
        self._sim_base = network.now

    def _build_engine(self) -> TrafficEngine:
        """A per-request traffic engine over every non-core AS."""
        endpoints = sorted(self.network.topology.non_core_asns())
        generator = FlowGenerator(
            endpoints, FlowConfig(flows_per_tick=1, num_ticks=1)
        )
        return TrafficEngine(
            self.network,
            generator,
            TrafficConfig(),
            name=f"{self.name}-traffic",
            obs=self.obs,
        )

    # ------------------------------------------------------------ lifecycle

    async def start(self) -> "MeasurementService":
        """Spawn the worker pool and the maintenance loop."""
        if self._started:
            raise RuntimeError("service already started")
        self._started = True
        self._accepting = True
        self._workers = [
            asyncio.ensure_future(self._worker())
            for _ in range(self.config.workers)
        ]
        if self.config.maintenance_interval > 0:
            self._maintenance_task = asyncio.ensure_future(self._maintenance())
        return self

    async def drain(self) -> Dict[str, int]:
        """Graceful shutdown: stop admitting, finish the backlog, stop.

        New submissions are rejected with ``REJECTED_SHUTTING_DOWN`` from
        the moment drain begins. Workers finish every request admitted
        before the drain, then exit; the maintenance loop is cancelled.
        On return the queue is empty and zero requests are in flight.
        """
        self._accepting = False
        self._queue.close()
        if self._workers:
            await asyncio.gather(*self._workers)
            self._workers = []
        if self._maintenance_task is not None:
            self._maintenance_task.cancel()
            try:
                await self._maintenance_task
            except asyncio.CancelledError:
                pass
            self._maintenance_task = None
        assert self._in_flight == 0 and self._queue.qsize() == 0
        metrics = self.obs.metrics
        if metrics.enabled:
            metrics.gauge(
                "service.drained", {"service": self.name}, mode="max"
            ).set(1.0)
        return dict(self.stats)

    @property
    def in_flight(self) -> int:
        return self._in_flight

    def queue_depth(self) -> int:
        return self._queue.qsize()

    def pending(self) -> int:
        """Admitted requests not yet answered (queued + in flight)."""
        return self._queue.qsize() + self._in_flight

    def _sim_now(self) -> float:
        """Simulated network time: beaconing end + service uptime."""
        return self._sim_base + (self.clock.now() - self._t0)

    # ------------------------------------------------------------ admission

    def submit(self, request: Request) -> "asyncio.Future[Response]":
        """Admit one request; always returns a future with the response.

        Admission is fully synchronous (no awaits), so the decision
        sequence per client is atomic under the single-loop model and
        exactly replayable from the journal.
        """
        now = self.clock.now()
        self.stats["submitted"] += 1
        request_id = self._next_request_id
        self._next_request_id += 1
        metrics = self.obs.metrics
        labels = {"service": self.name}
        if metrics.enabled:
            metrics.counter("service.submitted", labels).inc()

        if not self._accepting:
            return self._reject(
                request_id, request, now, Status.REJECTED_SHUTTING_DOWN
            )
        bucket = self._buckets.get(request.client_id)
        if bucket is None:
            bucket = self._buckets[request.client_id] = TokenBucket(
                self.config.rate_per_client,
                self.config.burst_per_client,
                now=now,
            )
        if not bucket.try_acquire(now):
            return self._reject(
                request_id, request, now, Status.REJECTED_RATE_LIMITED
            )
        future: asyncio.Future = asyncio.get_event_loop().create_future()
        # The request's causal root opens at admission and closes at the
        # terminal response; its trace id derives from (seed, request_id).
        root = self.obs.causal.root(
            request_id, "service", request.kind.value,
            at=now, client=request.client_id,
        )
        if not self._queue.try_put((request_id, request, future, now, root)):
            # Discard the unclosed root (never recorded); _reject records
            # the canonical zero-length root for this request instead.
            return self._reject(
                request_id, request, now, Status.REJECTED_QUEUE_FULL
            )
        self.stats["accepted"] += 1
        depth = self._queue.qsize()
        if depth > self.stats["peak_queue_depth"]:
            self.stats["peak_queue_depth"] = depth
        if self.config.journal:
            self.journal.append((request.client_id, now, "accepted"))
        if self.obs.flight.enabled:
            self.obs.flight.record(
                "admission", "accepted",
                request=request_id, client=request.client_id,
                kind=request.kind.value, depth=depth,
            )
        if metrics.enabled:
            metrics.counter("service.accepted", labels).inc()
            metrics.gauge(
                "service.queue_depth_peak", labels, mode="max"
            ).set(float(self.stats["peak_queue_depth"]))
        return future

    def _reject(
        self,
        request_id: int,
        request: Request,
        now: float,
        status: Status,
    ) -> "asyncio.Future[Response]":
        self.stats[status.value] += 1
        if self.config.journal:
            self.journal.append((request.client_id, now, status.value))
        causal = self.obs.causal
        if causal.enabled:
            # Rejected requests still get a (zero-length) rooted trace,
            # so every admitted-or-rejected request_id is accounted for.
            causal.record(
                causal.derive_context(request_id),
                "service", request.kind.value, now, now,
                client=request.client_id, status=status.value,
            )
        if self.obs.flight.enabled:
            self.obs.flight.record(
                "admission", status.value,
                request=request_id, client=request.client_id,
                kind=request.kind.value,
            )
        metrics = self.obs.metrics
        if metrics.enabled:
            metrics.counter(
                "service.rejected",
                {"service": self.name, "reason": status.value},
            ).inc()
        response = Response(
            request_id=request_id,
            client_id=request.client_id,
            kind=request.kind,
            status=status,
            attempts=0,
            submitted_at=now,
            completed_at=now,
        )
        self._record(response)
        future: asyncio.Future = asyncio.get_event_loop().create_future()
        future.set_result(response)
        return future

    async def request(
        self, kind: RequestKind, client_id: str, **fields
    ) -> Response:
        """Submit and await one request (convenience wrapper)."""
        return await self.submit(
            Request(kind=kind, client_id=client_id, **fields)
        )

    # ------------------------------------------------------------ execution

    async def _worker(self) -> None:
        while True:
            try:
                entry = await self._queue.get()
            except QueueClosed:
                return
            request_id, request, future, submitted_at, root = entry
            self._in_flight += 1
            if self._in_flight > self.stats["peak_in_flight"]:
                self.stats["peak_in_flight"] = self._in_flight
            try:
                picked_up = self.clock.now()
                wait = picked_up - submitted_at
                self.obs.causal.record(
                    root.ctx, "service", "queue.wait",
                    submitted_at, picked_up,
                )
                metrics = self.obs.metrics
                if metrics.enabled:
                    metrics.histogram(
                        "service.queue_wait_seconds",
                        SERVICE_LATENCY_BUCKETS,
                        {"service": self.name},
                    ).observe(wait)
                    metrics.gauge(
                        "service.in_flight_peak",
                        {"service": self.name},
                        mode="max",
                    ).set(float(self.stats["peak_in_flight"]))
                response = await self._execute(
                    request_id, request, submitted_at, root
                )
            finally:
                self._in_flight -= 1
            root.end(
                at=response.completed_at,
                status=response.status.value,
                attempts=response.attempts,
            )
            self._record(response)
            if not future.done():
                future.set_result(response)

    async def _execute(
        self, request_id: int, request: Request, submitted_at: float, root
    ) -> Response:
        """Attempt/retry loop producing exactly one terminal response."""
        config = self.config
        causal = self.obs.causal
        flight = self.obs.flight
        attempts = 0
        while True:
            attempts += 1
            self.stats["attempts"] += 1
            attempt_span = causal.begin(
                root.ctx, "service", "attempt",
                at=self.clock.now(), n=attempts,
            )
            try:
                payload = await self._attempt_with_timeout(
                    request_id, request, attempt_span.ctx
                )
                attempt_span.end(at=self.clock.now(), status="ok")
                return self._terminal(
                    request_id, request, Status.OK, attempts,
                    submitted_at, payload=payload,
                )
            except asyncio.CancelledError:
                raise
            except BaseException as exc:  # noqa: BLE001 - classified below
                retryable = classify_exception(exc)
                attempt_span.end(
                    at=self.clock.now(),
                    error=True, reason=type(exc).__name__,
                )
                if retryable:
                    self.stats["timeouts_observed"] += 1
                    if flight.enabled:
                        flight.record(
                            "execute", "attempt_timeout",
                            request=request_id, attempt=attempts,
                            kind=request.kind.value,
                        )
                if retryable and attempts < config.max_attempts:
                    self.stats["retries"] += 1
                    if self.obs.metrics.enabled:
                        self.obs.metrics.counter(
                            "service.retries", {"service": self.name}
                        ).inc()
                    delay = config.backoff_base * (
                        config.backoff_factor ** (attempts - 1)
                    )
                    backoff_start = self.clock.now()
                    await self.clock.sleep(delay)
                    causal.record(
                        root.ctx, "service", "backoff",
                        backoff_start, self.clock.now(), attempt=attempts,
                    )
                    continue
                status = Status.TIMEOUT if retryable else Status.FAILED
                response = self._terminal(
                    request_id, request, status, attempts, submitted_at,
                    error=f"{type(exc).__name__}: {exc}",
                )
                if flight.enabled:
                    flight.record(
                        "execute", status.value,
                        request=request_id, attempts=attempts,
                        kind=request.kind.value,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                    flight.dump(
                        "request_timeout" if retryable
                        else "request_failed",
                        detail={
                            "request": request_id,
                            "client": request.client_id,
                            "kind": request.kind.value,
                            "attempts": attempts,
                            "error": f"{type(exc).__name__}: {exc}",
                        },
                    )
                return response

    def _terminal(
        self,
        request_id: int,
        request: Request,
        status: Status,
        attempts: int,
        submitted_at: float,
        *,
        payload: Tuple = (),
        error: str = "",
    ) -> Response:
        completed_at = self.clock.now()
        response = Response(
            request_id=request_id,
            client_id=request.client_id,
            kind=request.kind,
            status=status,
            attempts=attempts,
            submitted_at=submitted_at,
            completed_at=completed_at,
            payload=payload,
            error=error,
        )
        self.stats[f"completed_{status.value}"] += 1
        self.latencies.append(response.latency)
        metrics = self.obs.metrics
        if metrics.enabled:
            labels = {
                "service": self.name,
                "kind": request.kind.value,
                "status": status.value,
            }
            metrics.counter("service.completed", labels).inc()
            metrics.histogram(
                "service.latency_seconds",
                SERVICE_LATENCY_BUCKETS,
                {"service": self.name, "kind": request.kind.value},
            ).observe(response.latency)
        return response

    async def _attempt_with_timeout(
        self, request_id: int, request: Request, ctx=None
    ) -> Tuple:
        """One handler attempt under the per-attempt deadline."""
        coro = self._dispatch(request_id, request, ctx)
        timeout = self.config.request_timeout
        if timeout is None or timeout <= 0:
            return await coro
        task = asyncio.ensure_future(coro)
        timer = asyncio.ensure_future(self.clock.sleep(timeout))
        await asyncio.wait({task, timer}, return_when=asyncio.FIRST_COMPLETED)
        if task.done():
            timer.cancel()
            return task.result()
        task.cancel()
        try:
            await task
        except asyncio.CancelledError:
            pass
        raise TimeoutError(f"attempt exceeded {timeout}s")

    def _cost(self, request: Request) -> float:
        if request.cost is not None:
            return request.cost
        return self.config.cost_of(request.kind)

    async def _dispatch(
        self, request_id: int, request: Request, ctx=None
    ) -> Tuple:
        if request.kind is RequestKind.LOOKUP_PATHS:
            return await self._handle_lookup(request, ctx)
        if request.kind is RequestKind.SUBMIT_TRAFFIC:
            return await self._handle_traffic(request_id, request, ctx)
        if request.kind is RequestKind.INJECT_FAULT:
            return await self._handle_fault(request, ctx)
        if request.kind is RequestKind.GET_RESULTS:
            return await self._handle_results(request, ctx)
        raise ValueError(f"unknown request kind {request.kind!r}")

    # ------------------------------------------------------------- handlers

    async def _handle_lookup(self, request: Request, ctx=None) -> Tuple:
        """Path lookup through the path-server hierarchy + segment caches.

        The candidate set is computed synchronously (atomic on the loop),
        then the simulated service time is charged. A fault injected while
        this coroutine was suspended would leave the candidates stale, so
        after the await the revocation epoch is consulted and — if it
        moved — the candidates are re-filtered against the live revocation
        set before the response is built (the invalidation-during-lookup
        hazard of DESIGN.md §10).
        """
        causal = self.obs.causal
        revocations = self.network.revocations
        epoch_before = revocations.epoch if revocations is not None else 0
        caches_before = (
            self.network.cache_counters() if causal.enabled else None
        )
        # Ambient for this synchronous block, so the segment caches'
        # per-lookup events land in the request's tree.
        with causal.begin(ctx, "control", "lookup") as span:
            paths = self.network.lookup_paths(
                request.src, request.dst, now=self._sim_now()
            )
            if revocations is not None:
                paths = revocations.filter_paths(paths, self._sim_now())
            if causal.enabled:
                caches_after = self.network.cache_counters()
                span.set(
                    candidates=len(paths),
                    cache_hits=caches_after["hit"] - caches_before["hit"],
                    cache_misses=(
                        caches_after["miss"] - caches_before["miss"]
                    ),
                )
        service_start = self.clock.now()
        await self.clock.sleep(self._cost(request))
        causal.record(
            ctx, "service", "service_time", service_start, self.clock.now()
        )
        if revocations is not None and revocations.epoch != epoch_before:
            paths = revocations.filter_paths(paths, self._sim_now())
        best = paths[0].asns if paths else ()
        if self.obs.flight.enabled:
            self.obs.flight.record(
                "lookup", "done", src=request.src, dst=request.dst,
                candidates=len(paths),
            )
        return ("paths", len(paths), best)

    async def _handle_traffic(
        self, request_id: int, request: Request, ctx=None
    ) -> Tuple:
        """Serve one user flow end to end through the traffic engine."""
        causal = self.obs.causal
        flow = Flow(
            flow_id=request_id,
            tick=0,
            src=request.src,
            dst=request.dst,
            num_packets=max(1, request.num_packets),
            payload_bytes=request.payload_bytes,
        )
        with causal.begin(ctx, "traffic", "forward") as span:
            outcome = self.engine.serve_one(flow)
            span.set(
                delivered=outcome.delivered_packets,
                completed=1 if outcome.completed else 0,
            )
        service_start = self.clock.now()
        await self.clock.sleep(self._cost(request))
        causal.record(
            ctx, "service", "service_time", service_start, self.clock.now()
        )
        return (
            "traffic",
            outcome.delivered_packets,
            1 if outcome.completed else 0,
            outcome.latency if outcome.latency is not None else -1.0,
        )

    async def _handle_fault(self, request: Request, ctx=None) -> Tuple:
        """Fail or recover one link through the §4.1 revocation machinery."""
        if request.action == "fail":
            self.network.fail_link(request.link_id)
        elif request.action == "recover":
            self.network.recover_link(request.link_id)
        else:
            raise ValueError(f"unknown fault action {request.action!r}")
        if self.obs.flight.enabled:
            self.obs.flight.record(
                "fault", request.action, link=request.link_id
            )
        service_start = self.clock.now()
        await self.clock.sleep(self._cost(request))
        self.obs.causal.record(
            ctx, "service", "service_time", service_start, self.clock.now(),
            action=request.action,
        )
        revocations = self.network.revocations
        epoch = revocations.epoch if revocations is not None else 0
        return ("fault", request.action, request.link_id, epoch)

    async def _handle_results(self, request: Request, ctx=None) -> Tuple:
        """A page of the requesting client's completed-request log."""
        page = self.results_page(
            request.client_id, request.offset, request.limit
        )
        service_start = self.clock.now()
        await self.clock.sleep(self._cost(request))
        self.obs.causal.record(
            ctx, "service", "service_time", service_start, self.clock.now()
        )
        return (
            "results",
            page.total,
            page.first_offset,
            -1 if page.next_offset is None else page.next_offset,
            page.items,
        )

    # -------------------------------------------------------------- results

    def _record(self, response: Response) -> None:
        log = self._logs.get(response.client_id)
        if log is None:
            log = self._logs[response.client_id] = _ClientLog()
        log.records.append(
            (response.request_id, response.kind.value, response.status.value)
        )
        while len(log.records) > self.config.results_per_client:
            log.records.popleft()
            log.first_offset += 1
            log.dropped += 1
            self.stats["results_dropped"] += 1

    def results_page(
        self, client_id: str, offset: int = 0, limit: int = 50
    ) -> ResultPage:
        """A page of the client's result log, by absolute offset."""
        if offset < 0 or limit < 1:
            raise ValueError("offset must be >= 0 and limit positive")
        limit = min(limit, self.config.page_limit)
        log = self._logs.get(client_id)
        if log is None:
            return ResultPage()
        total = log.first_offset + len(log.records)
        start = max(offset, log.first_offset)
        index = start - log.first_offset
        items = tuple(islice(log.records, index, index + limit))
        end = start + len(items)
        return ResultPage(
            items=items,
            total=total,
            first_offset=log.first_offset,
            next_offset=end if end < total else None,
        )

    # ---------------------------------------------------------- maintenance

    async def _maintenance(self) -> None:
        """The service's periodic keep-alive loop: sweep the segment
        caches and roll the traffic engine's utilization tick."""
        while True:
            await self.clock.sleep(self.config.maintenance_interval)
            self.stats["maintenance_rounds"] += 1
            now = self._sim_now()
            swept = sum(
                cache.sweep(now) for _, cache in self.network.segment_caches()
            )
            self.engine.roll_tick()
            metrics = self.obs.metrics
            if metrics.enabled:
                labels = {"service": self.name}
                metrics.counter("service.maintenance_rounds", labels).inc()
                if swept:
                    metrics.counter("service.cache_swept", labels).inc(swept)

    # ------------------------------------------------------------ snapshots

    def slo_results(self):
        """Evaluate the service SLOs against the live registry."""
        if not self.obs.metrics.enabled:
            return []
        return evaluate_slos(self.obs.metrics, DEFAULT_SERVICE_SLOS)

    def aggregate_snapshot(self) -> Dict:
        """Deterministic primitives summarizing the service's lifetime.

        Two runs of the same seeded scenario under a virtual clock produce
        byte-identical JSON serializations of this dict — the acceptance
        check of the deterministic harness.
        """
        latencies = sorted(self.latencies)

        def percentile(fraction: float) -> float:
            if not latencies:
                return 0.0
            index = min(len(latencies) - 1, int(fraction * len(latencies)))
            return latencies[index]

        return {
            "service": self.name,
            "stats": dict(sorted(self.stats.items())),
            "latency": {
                "count": len(latencies),
                "sum": round(sum(latencies), 9),
                "p50": round(percentile(0.50), 9),
                "p99": round(percentile(0.99), 9),
            },
            "results": {
                "clients": len(self._logs),
                "records": sum(
                    len(log.records) for log in self._logs.values()
                ),
                "dropped": sum(
                    log.dropped for log in self._logs.values()
                ),
            },
            "queue": {
                "accepted": self._queue.accepted,
                "delivered": self._queue.delivered,
                "depth": self._queue.qsize(),
            },
            "in_flight": self._in_flight,
        }
