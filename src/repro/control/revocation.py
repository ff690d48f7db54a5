"""Path revocation (§4.1, "Path Revocations").

"Path revocations triggered by failing links have two reactions depending
on where the failure occurred. The AS in which the failing link is located
revokes the affected path segments at the core path server, which is an
intra-ISD operation. Endpoints and border routers that use a path
containing a failed link are informed of the link failure through SCION
Control Message Protocol (SCMP) messages sent by the border router
observing the failed link."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set

from ..topology.model import Topology
from .messages import Component, ControlMessageLog, Scope, revocation_size
from .path_server import CorePathServer

__all__ = ["Revocation", "SCMPNotification", "RevocationService"]

#: Validity of a revocation in seconds; failures are re-announced while
#: they persist.
REVOCATION_LIFETIME = 600.0


@dataclass(frozen=True, slots=True)
class Revocation:
    """A signed statement that an interface (hence a link) has failed."""

    link_id: int
    issuing_asn: int
    issued_at: float

    @property
    def expires_at(self) -> float:
        return self.issued_at + REVOCATION_LIFETIME

    def is_valid(self, now: float) -> bool:
        return self.issued_at <= now < self.expires_at


@dataclass(frozen=True, slots=True)
class SCMPNotification:
    """An SCMP message telling a path user about a failed link."""

    revocation: Revocation
    notified_endpoint: int


class RevocationService:
    """Coordinates the two revocation reactions for one topology.

    **Concurrency model (single asyncio loop).** The service is safe for
    interleaved use from concurrent tasks under cooperative (asyncio)
    concurrency: no method awaits, so each call runs atomically with
    respect to every other task on the loop. Mutations are *observable*
    across await points, though — a task that resolved paths and then
    suspended may resume after a revocation landed. :attr:`epoch` is
    bumped on every state change (``revoke_link`` and ``clear``); such a
    task snapshots the epoch before suspending and, if it moved,
    re-validates its paths through :meth:`filter_paths` before using
    them. Not thread-safe; never shared across threads.
    """

    def __init__(
        self,
        topology: Topology,
        core_servers: Optional[Dict[int, CorePathServer]] = None,
        log: Optional[ControlMessageLog] = None,
    ) -> None:
        self.topology = topology
        self.core_servers = dict(core_servers) if core_servers else {}
        self.log = log if log is not None else ControlMessageLog()
        self._revoked: Dict[int, Revocation] = {}
        #: Monotonic state-change counter; bumped by every ``revoke_link``
        #: and every effective ``clear``. Cheap staleness check for tasks
        #: holding resolved paths across an await point.
        self.epoch = 0

    # ------------------------------------------------------------ reactions

    def revoke_link(self, link_id: int, now: float) -> Revocation:
        """Reaction 1: the AS owning the link revokes affected segments at
        the core path servers of its ISD (intra-ISD scope).

        Without instantiated path servers (beaconing-level fault runs) the
        intra-ISD dissemination is still accounted: one revocation message
        per core AS of the issuing ISD lands in the log, so revocation
        byte counts are comparable across the full-stack and
        beaconing-only setups.
        """
        link = self.topology.link(link_id)
        issuing_asn = link.a.asn
        revocation = Revocation(
            link_id=link_id, issuing_asn=issuing_asn, issued_at=now
        )
        self._revoked[link_id] = revocation
        self.epoch += 1
        isd = self.topology.as_node(issuing_asn).isd
        servers = [
            server
            for server in self.core_servers.values()
            if isd is None or server.isd == isd
        ]
        if servers:
            for server in sorted(servers, key=lambda s: s.asn):
                server.revoke_link(link_id, now)
                self.log.log(
                    Component.PATH_REVOCATION,
                    Scope.ISD,
                    revocation_size(),
                    now,
                    issuing_asn,
                    server.asn,
                )
        else:
            for asn in self._core_recipients(isd):
                self.log.log(
                    Component.PATH_REVOCATION,
                    Scope.ISD,
                    revocation_size(),
                    now,
                    issuing_asn,
                    asn,
                )
        return revocation

    def _core_recipients(self, isd: Optional[int]) -> List[int]:
        """Core ASes of ``isd`` (all core ASes when ISDs are unassigned)."""
        return sorted(
            asn
            for asn in self.topology.core_asns()
            if isd is None or self.topology.as_node(asn).isd == isd
        )

    def notify_path_users(
        self,
        revocation: Revocation,
        active_paths: Dict[int, Sequence[Sequence[int]]],
        now: float,
    ) -> List[SCMPNotification]:
        """Reaction 2: SCMP messages from the border router observing the
        failure to every endpoint whose active path crosses the link.

        ``active_paths`` maps an endpoint ASN to the link-id sequences of
        the paths it currently uses.
        """
        notifications: List[SCMPNotification] = []
        for endpoint, paths in sorted(active_paths.items()):
            if any(revocation.link_id in path for path in paths):
                notifications.append(
                    SCMPNotification(revocation, endpoint)
                )
                self.log.log(
                    Component.PATH_REVOCATION,
                    Scope.AS,
                    revocation_size(),
                    now,
                    revocation.issuing_asn,
                    endpoint,
                )
        return notifications

    def clear(self, link_id: int) -> bool:
        """Forget a revocation once the link has recovered (the production
        system achieves the same by letting the revocation lifetime lapse
        without re-announcement). Returns whether one was pending."""
        cleared = self._revoked.pop(link_id, None) is not None
        if cleared:
            self.epoch += 1
        return cleared

    # -------------------------------------------------------------- queries

    def is_revoked(self, link_id: int, now: float) -> bool:
        revocation = self._revoked.get(link_id)
        return revocation is not None and revocation.is_valid(now)

    def revoked_links(self, now: float) -> Set[int]:
        """Ids of the links under a revocation that is valid at ``now``."""
        return {
            link_id
            for link_id, revocation in self._revoked.items()
            if revocation.is_valid(now)
        }

    def filter_paths(self, paths: Iterable, now: float) -> List:
        """The paths (anything with ``.link_ids``) not crossing a link
        revoked at ``now`` — the endpoint's immediate failover: 'hosts
        switch to a different path as soon as the SCMP message is
        received'. The one copy of this filter."""
        revoked = self.revoked_links(now)
        if not revoked:
            return list(paths)
        return [path for path in paths if revoked.isdisjoint(path.link_ids)]
