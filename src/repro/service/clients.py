"""Seeded multi-client load generation for the measurement service.

A :class:`LoadGenerator` materializes thousands of simulated clients,
each replaying a deterministic request mix: Zipf-popular endpoints (the
same traffic-matrix shape as :mod:`repro.traffic.flows`), a fixed
blend of path lookups, traffic submissions, fault injections (always as
fail/recover pairs so the network heals) and paginated result queries,
with exponential think times and a planted fraction of slow requests that
exercise the timeout/retry path.

Determinism contract: client ``i``'s entire plan — start offset, think
times, operation kinds, endpoints, fault targets — is a pure function of
``(config.seed, i)``. Under a virtual clock two runs of the same config
therefore submit byte-identical request sequences at identical times.
"""

from __future__ import annotations

import asyncio
from bisect import bisect_left
from dataclasses import dataclass
from random import Random
from typing import List, Optional, Sequence, Tuple

from ..traffic.flows import cumulative, zipf_weights
from .requests import Request, RequestKind, Response
from .service import MeasurementService

__all__ = ["LoadConfig", "PlannedRequest", "LoadGenerator"]

#: Client start times spread uniformly over this many seconds.
START_SPREAD = 2.0
#: Mean think time between a response and the next request.
THINK_MEAN = 0.05
#: Operation mix weights (normalized; faults are left out when the
#: generator has no fault-candidate links).
MIX = (("lookup", 0.62), ("traffic", 0.25), ("fault", 0.03), ("results", 0.10))
#: Fraction of requests planted with a slow service-time override.
SLOW_FRACTION = 0.01
SLOW_COST = 5.0
#: Packets per submitted flow (upper bound; uniform 1..N).
MAX_FLOW_PACKETS = 8


@dataclass(frozen=True)
class LoadConfig:
    """Size and seed of one load scenario."""

    num_clients: int = 1000
    requests_per_client: int = 3
    seed: int = 42

    def __post_init__(self) -> None:
        if self.num_clients < 1 or self.requests_per_client < 1:
            raise ValueError("need at least one client and one request")


@dataclass(frozen=True, slots=True)
class PlannedRequest:
    """One step of a client's plan: wait ``gap`` seconds, then submit."""

    gap: float
    request: Request


class LoadGenerator:
    """Deterministic request plans over a set of endpoint ASes."""

    def __init__(
        self,
        endpoints: Sequence[int],
        config: LoadConfig,
        *,
        fault_links: Sequence[int] = (),
    ) -> None:
        self.endpoints: Tuple[int, ...] = tuple(sorted(set(endpoints)))
        if len(self.endpoints) < 2:
            raise ValueError("need at least two endpoint ASes")
        self.config = config
        self.fault_links: Tuple[int, ...] = tuple(sorted(set(fault_links)))
        weights = [(n, w) for n, w in MIX if n != "fault" or self.fault_links]
        self._ops: List[str] = [name for name, _ in weights]
        self._op_cumulative = cumulative([w for _, w in weights])
        self._zipf_cumulative = cumulative(zipf_weights(len(self.endpoints)))

    # ------------------------------------------------------------- planning

    def _pick_endpoint(self, rng: Random) -> int:
        return self.endpoints[
            bisect_left(self._zipf_cumulative, rng.random())
        ]

    def _pick_op(self, rng: Random) -> str:
        return self._ops[bisect_left(self._op_cumulative, rng.random())]

    @staticmethod
    def client_name(client_id: int) -> str:
        return f"client-{client_id:05d}"

    def client_plan(self, client_id: int) -> List[PlannedRequest]:
        """The client's full deterministic plan (seed, client_id) → steps."""
        config = self.config
        rng = Random((config.seed << 20) + client_id)
        name = self.client_name(client_id)
        plan: List[PlannedRequest] = [
            # The first gap is the client's start offset.
        ]
        gap = rng.uniform(0.0, START_SPREAD)
        steps = 0
        while steps < config.requests_per_client:
            op = self._pick_op(rng)
            cost: Optional[float] = (
                SLOW_COST if rng.random() < SLOW_FRACTION else None
            )
            if op == "fault":
                # Always a fail/recover pair, so the network heals and the
                # scenario's end state does not depend on the mix tail.
                link_id = self.fault_links[
                    rng.randrange(len(self.fault_links))
                ]
                plan.append(
                    PlannedRequest(
                        gap=gap,
                        request=Request(
                            kind=RequestKind.INJECT_FAULT,
                            client_id=name,
                            action="fail",
                            link_id=link_id,
                            cost=cost,
                        ),
                    )
                )
                gap = rng.expovariate(1.0 / THINK_MEAN)
                plan.append(
                    PlannedRequest(
                        gap=gap,
                        request=Request(
                            kind=RequestKind.INJECT_FAULT,
                            client_id=name,
                            action="recover",
                            link_id=link_id,
                        ),
                    )
                )
                steps += 2
            elif op == "traffic":
                src = self._pick_endpoint(rng)
                dst = self._pick_endpoint(rng)
                while dst == src:
                    dst = self._pick_endpoint(rng)
                plan.append(
                    PlannedRequest(
                        gap=gap,
                        request=Request(
                            kind=RequestKind.SUBMIT_TRAFFIC,
                            client_id=name,
                            src=src,
                            dst=dst,
                            num_packets=rng.randint(1, MAX_FLOW_PACKETS),
                            cost=cost,
                        ),
                    )
                )
                steps += 1
            elif op == "results":
                plan.append(
                    PlannedRequest(
                        gap=gap,
                        request=Request(
                            kind=RequestKind.GET_RESULTS,
                            client_id=name,
                            offset=0,
                            limit=20,
                            cost=cost,
                        ),
                    )
                )
                steps += 1
            else:  # lookup
                src = self._pick_endpoint(rng)
                dst = self._pick_endpoint(rng)
                while dst == src:
                    dst = self._pick_endpoint(rng)
                plan.append(
                    PlannedRequest(
                        gap=gap,
                        request=Request(
                            kind=RequestKind.LOOKUP_PATHS,
                            client_id=name,
                            src=src,
                            dst=dst,
                            cost=cost,
                        ),
                    )
                )
                steps += 1
            gap = rng.expovariate(1.0 / THINK_MEAN)
        return plan

    # ------------------------------------------------------------ execution

    async def run_client(
        self, service: MeasurementService, client_id: int
    ) -> List[Response]:
        """Replay one client's plan sequentially against the service."""
        responses: List[Response] = []
        for step in self.client_plan(client_id):
            if step.gap > 0:
                await service.clock.sleep(step.gap)
            responses.append(await service.submit(step.request))
        return responses

    async def run(self, service: MeasurementService) -> List[Response]:
        """Run every client concurrently; responses in client order."""
        tasks = [
            asyncio.ensure_future(self.run_client(service, client_id))
            for client_id in range(self.config.num_clients)
        ]
        per_client = await asyncio.gather(*tasks)
        return [response for batch in per_client for response in batch]
