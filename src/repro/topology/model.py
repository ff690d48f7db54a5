"""AS-level topology model.

The evaluation of the paper runs on an AS-level *multigraph*: autonomous
systems connected by one or more inter-domain links, where each link
terminates at a numbered interface on either side (Section 2.2 of the paper:
"A path segment in SCION is described by the inter-domain interfaces of the
outgoing and incoming border routers of two neighboring ASes").

Multiple parallel links between the same AS pair are first-class citizens:
the CAIDA ``as-rel-geo`` dataset used by the paper annotates each adjacency
with the set of interconnection locations, and the path-diversity algorithm's
whole point is to exploit parallel links. Every link therefore carries a
``location`` so that synthetic topologies mirror the geolocation-derived
multiplicity of the real dataset.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

__all__ = [
    "Relationship",
    "ASNode",
    "Link",
    "LinkEnd",
    "Topology",
    "TopologyError",
]


class TopologyError(ValueError):
    """Raised for structurally invalid topology mutations or queries."""


class Relationship(enum.Enum):
    """Business relationship of an inter-domain link.

    Values follow the CAIDA ``as-rel`` convention: ``-1`` denotes a
    provider-to-customer edge (the first AS is the provider) and ``0`` a
    settlement-free peering edge. ``CORE`` marks links between SCION core
    ASes, which in the paper's experiments form their own selective-flooding
    mesh regardless of the underlying business relationship.
    """

    PROVIDER_CUSTOMER = -1
    PEER_PEER = 0
    CORE = 1

    @classmethod
    def from_caida(cls, value: int) -> "Relationship":
        if value == -1:
            return cls.PROVIDER_CUSTOMER
        if value == 0:
            return cls.PEER_PEER
        raise TopologyError(f"unknown CAIDA relationship code: {value!r}")

    def to_caida(self) -> int:
        if self is Relationship.PROVIDER_CUSTOMER:
            return -1
        if self is Relationship.PEER_PEER:
            return 0
        raise TopologyError("CORE links have no CAIDA relationship code")


@dataclass(frozen=True)
class LinkEnd:
    """One endpoint of an inter-domain link: an (AS, interface id) pair."""

    asn: int
    ifid: int


@dataclass(frozen=True)
class Link:
    """A single inter-domain link between two interfaces of two ASes.

    For ``PROVIDER_CUSTOMER`` links, ``a`` is always the provider side.
    ``link_id`` is unique within a :class:`Topology` and doubles as the
    ``link_id`` key of the paper's Link History Table.
    """

    link_id: int
    a: LinkEnd
    b: LinkEnd
    relationship: Relationship
    location: str = ""

    def endpoints(self) -> Tuple[int, int]:
        return (self.a.asn, self.b.asn)

    def other(self, asn: int) -> int:
        """The AS on the far side of the link from ``asn``."""
        if asn == self.a.asn:
            return self.b.asn
        if asn == self.b.asn:
            return self.a.asn
        raise TopologyError(f"AS {asn} is not an endpoint of link {self.link_id}")

    def end(self, asn: int) -> LinkEnd:
        if asn == self.a.asn:
            return self.a
        if asn == self.b.asn:
            return self.b
        raise TopologyError(f"AS {asn} is not an endpoint of link {self.link_id}")

    def is_provider(self, asn: int) -> bool:
        """True if ``asn`` is the provider side of a provider-customer link."""
        return self.relationship is Relationship.PROVIDER_CUSTOMER and asn == self.a.asn

    def is_customer(self, asn: int) -> bool:
        """True if ``asn`` is the customer side of a provider-customer link."""
        return self.relationship is Relationship.PROVIDER_CUSTOMER and asn == self.b.asn


@dataclass
class ASNode:
    """An autonomous system.

    ``isd`` is the isolation domain the AS belongs to (``None`` before ISD
    assignment) and ``is_core`` marks ISD core ASes (Section 2.1). ASes keep
    an interface table mapping local interface ids to the link they terminate.
    """

    asn: int
    isd: Optional[int] = None
    is_core: bool = False
    name: str = ""
    interfaces: Dict[int, Link] = field(default_factory=dict, repr=False)

    @property
    def degree(self) -> int:
        """Number of inter-domain links (interfaces) of this AS."""
        return len(self.interfaces)

    def links(self) -> List[Link]:
        return list(self.interfaces.values())


class Topology:
    """A mutable AS-level multigraph with relationship-annotated links."""

    def __init__(self, name: str = "topology") -> None:
        self.name = name
        self._ases: Dict[int, ASNode] = {}
        self._links: Dict[int, Link] = {}
        self._adjacency: Dict[int, Dict[int, List[Link]]] = {}
        self._next_link_id = 1
        self._next_ifid: Dict[int, int] = {}
        # Lazy per-AS indexes (neighbor sets, incident link ids, peering
        # links), rebuilt on demand after any mutation touching the AS.
        self._neighbor_cache: Dict[int, frozenset] = {}
        self._incident_cache: Dict[int, Tuple[int, ...]] = {}
        self._peering_cache: Dict[int, Tuple[Tuple[int, int], ...]] = {}
        self._link_epoch = 0

    @property
    def link_epoch(self) -> int:
        """Moves on every ``add_link``/``remove_link``/``remove_as``."""
        return self._link_epoch

    # ------------------------------------------------------------------ ASes

    def add_as(
        self,
        asn: int,
        *,
        isd: Optional[int] = None,
        is_core: bool = False,
        name: str = "",
    ) -> ASNode:
        """Register an AS; returns the node. Idempotent on repeated asn."""
        node = self._ases.get(asn)
        if node is None:
            node = ASNode(asn=asn, isd=isd, is_core=is_core, name=name)
            self._ases[asn] = node
            self._adjacency[asn] = {}
            self._next_ifid[asn] = 1
        else:
            if isd is not None:
                node.isd = isd
            node.is_core = node.is_core or is_core
            if name:
                node.name = name
        return node

    def as_node(self, asn: int) -> ASNode:
        try:
            return self._ases[asn]
        except KeyError:
            raise TopologyError(f"unknown AS {asn}") from None

    def has_as(self, asn: int) -> bool:
        return asn in self._ases

    def ases(self) -> Iterator[ASNode]:
        return iter(self._ases.values())

    def asns(self) -> List[int]:
        return list(self._ases)

    def core_asns(self) -> List[int]:
        return [node.asn for node in self._ases.values() if node.is_core]

    def non_core_asns(self) -> List[int]:
        return [node.asn for node in self._ases.values() if not node.is_core]

    @property
    def num_ases(self) -> int:
        return len(self._ases)

    @property
    def num_links(self) -> int:
        return len(self._links)

    # ----------------------------------------------------------------- links

    def add_link(
        self,
        a_asn: int,
        b_asn: int,
        relationship: Relationship,
        *,
        location: str = "",
        a_ifid: Optional[int] = None,
        b_ifid: Optional[int] = None,
        link_id: Optional[int] = None,
    ) -> Link:
        """Add a link between ``a_asn`` and ``b_asn``.

        For provider-customer links ``a_asn`` is the provider. Interface ids
        are allocated sequentially per AS unless given explicitly; an
        explicit ``link_id`` lets sub-topologies keep their parent's ids.
        """
        if a_asn == b_asn:
            raise TopologyError(f"self-loop on AS {a_asn} is not allowed")
        for asn in (a_asn, b_asn):
            if asn not in self._ases:
                raise TopologyError(f"unknown AS {asn}; add_as() it first")
        a_ifid = self._allocate_ifid(a_asn) if a_ifid is None else a_ifid
        b_ifid = self._allocate_ifid(b_asn) if b_ifid is None else b_ifid
        for asn, ifid in ((a_asn, a_ifid), (b_asn, b_ifid)):
            if ifid in self._ases[asn].interfaces:
                raise TopologyError(f"interface {ifid} already in use on AS {asn}")
        if link_id is None:
            link_id = self._next_link_id
        elif link_id in self._links:
            raise TopologyError(f"link id {link_id} already in use")
        link = Link(
            link_id=link_id,
            a=LinkEnd(a_asn, a_ifid),
            b=LinkEnd(b_asn, b_ifid),
            relationship=relationship,
            location=location,
        )
        self._next_link_id = max(self._next_link_id, link_id) + 1
        self._links[link.link_id] = link
        self._ases[a_asn].interfaces[a_ifid] = link
        self._ases[b_asn].interfaces[b_ifid] = link
        self._adjacency[a_asn].setdefault(b_asn, []).append(link)
        self._adjacency[b_asn].setdefault(a_asn, []).append(link)
        self._invalidate_indexes(a_asn, b_asn)
        return link

    def _allocate_ifid(self, asn: int) -> int:
        ifid = self._next_ifid[asn]
        while ifid in self._ases[asn].interfaces:
            ifid += 1
        self._next_ifid[asn] = ifid + 1
        return ifid

    def link(self, link_id: int) -> Link:
        try:
            return self._links[link_id]
        except KeyError:
            raise TopologyError(f"unknown link {link_id}") from None

    def links(self) -> Iterator[Link]:
        return iter(self._links.values())

    def links_between(self, a_asn: int, b_asn: int) -> List[Link]:
        """All parallel links between two ASes (possibly empty)."""
        return list(self._adjacency.get(a_asn, {}).get(b_asn, ()))

    def neighbors(self, asn: int) -> List[int]:
        """Neighboring ASes (each listed once, however many parallel links)."""
        return list(self._adjacency.get(asn, {}))

    def neighbor_set(self, asn: int) -> frozenset:
        """Cached frozen set of neighboring ASes.

        The shard partitioner and fault injector walk adjacency a lot;
        this avoids re-materialising the neighbor list per query. The
        cache entry is dropped whenever a link or AS mutation touches
        ``asn``.
        """
        cached = self._neighbor_cache.get(asn)
        if cached is None:
            cached = frozenset(self._adjacency.get(asn, {}))
            self._neighbor_cache[asn] = cached
        return cached

    def incident_link_ids(self, asn: int) -> Tuple[int, ...]:
        """Cached sorted tuple of link ids incident to ``asn``.

        Replaces the ad-hoc ``sorted(l.link_id for l in node.links())``
        scans in the fault injector and AS-failure handling.
        """
        cached = self._incident_cache.get(asn)
        if cached is None:
            node = self.as_node(asn)
            cached = tuple(
                sorted(link.link_id for link in node.interfaces.values())
            )
            self._incident_cache[asn] = cached
        return cached

    def peering_links(self, asn: int) -> Tuple[Tuple[int, int], ...]:
        """Cached ``(peer ASN, link id)`` pairs of the AS's peering links.

        Parallel links to one peer keep their :meth:`links_between` order.
        The segment combinator joins peering shortcuts through this index
        instead of probing :meth:`links_between` for every AS pair of an
        up- and a down-segment.
        """
        cached = self._peering_cache.get(asn)
        if cached is None:
            cached = tuple(
                (far, link.link_id)
                for far, links in self._adjacency.get(asn, {}).items()
                for link in links
                if link.relationship is Relationship.PEER_PEER
            )
            self._peering_cache[asn] = cached
        return cached

    def _invalidate_indexes(self, *asns: int) -> None:
        self._link_epoch += 1
        for asn in asns:
            self._neighbor_cache.pop(asn, None)
            self._incident_cache.pop(asn, None)
            self._peering_cache.pop(asn, None)

    def degree(self, asn: int) -> int:
        """Link (interface) degree — parallel links count individually."""
        return self.as_node(asn).degree

    # ----------------------------------------------- relationship navigation

    def providers(self, asn: int) -> Set[int]:
        return {
            link.a.asn
            for link in self.as_node(asn).interfaces.values()
            if link.is_customer(asn)
        }

    def customers(self, asn: int) -> Set[int]:
        return {
            link.b.asn
            for link in self.as_node(asn).interfaces.values()
            if link.is_provider(asn)
        }

    # ----------------------------------------------------------- destructive

    def remove_link(self, link_id: int) -> None:
        link = self.link(link_id)
        del self._links[link_id]
        del self._ases[link.a.asn].interfaces[link.a.ifid]
        del self._ases[link.b.asn].interfaces[link.b.ifid]
        for near, far in ((link.a.asn, link.b.asn), (link.b.asn, link.a.asn)):
            bucket = self._adjacency[near][far]
            bucket.remove(link)
            if not bucket:
                del self._adjacency[near][far]
        self._invalidate_indexes(link.a.asn, link.b.asn)

    def remove_as(self, asn: int) -> None:
        node = self.as_node(asn)
        for link in list(node.interfaces.values()):
            self.remove_link(link.link_id)
        del self._ases[asn]
        del self._adjacency[asn]
        del self._next_ifid[asn]
        self._invalidate_indexes(asn)

    # -------------------------------------------------------------- exports

    def subtopology(self, asns: Iterable[int], name: str = "") -> "Topology":
        """Induced sub-multigraph on ``asns`` (links with both ends inside).

        Link and interface ids are preserved, so beacons produced on a
        sub-topology remain meaningful in the parent topology.
        """
        keep = set(asns)
        sub = Topology(name=name or f"{self.name}-sub")
        for asn in keep:
            node = self.as_node(asn)
            sub.add_as(asn, isd=node.isd, is_core=node.is_core, name=node.name)
        for link in self._links.values():
            if link.a.asn in keep and link.b.asn in keep:
                sub.add_link(
                    link.a.asn,
                    link.b.asn,
                    link.relationship,
                    location=link.location,
                    a_ifid=link.a.ifid,
                    b_ifid=link.b.ifid,
                    link_id=link.link_id,
                )
        return sub

    def is_connected(self) -> bool:
        """Whether every AS can reach every other over any link type."""
        if not self._ases:
            return True
        start = next(iter(self._ases))
        seen = {start}
        frontier = [start]
        while frontier:
            asn = frontier.pop()
            for neighbor in self._adjacency[asn]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        return len(seen) == len(self._ases)

    def validate(self) -> None:
        """Check internal invariants; raises :class:`TopologyError`."""
        for link in self._links.values():
            for end in (link.a, link.b):
                node = self._ases.get(end.asn)
                if node is None:
                    raise TopologyError(
                        f"link {link.link_id} references unknown AS {end.asn}"
                    )
                if node.interfaces.get(end.ifid) is not link:
                    raise TopologyError(
                        f"interface table of AS {end.asn} does not map "
                        f"ifid {end.ifid} to link {link.link_id}"
                    )
        for asn, node in self._ases.items():
            for ifid, link in node.interfaces.items():
                if self._links.get(link.link_id) is not link:
                    raise TopologyError(
                        f"AS {asn} interface {ifid} references stale link "
                        f"{link.link_id}"
                    )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Topology(name={self.name!r}, ases={self.num_ases}, "
            f"links={self.num_links})"
        )
