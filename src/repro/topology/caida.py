"""CAIDA dataset serialization.

The paper builds its topologies from two public CAIDA datasets:

* ``as-rel`` — AS relationships, one line per adjacency:
  ``<provider>|<customer>|-1`` or ``<peer>|<peer>|0``; comment lines start
  with ``#``.
* ``as-rel-geo`` — AS relationships *with interconnection locations*; we use
  the published format ``<as1>|<as2>|<loc1>,<rel1>|<loc2>,<rel2>|...`` where
  each location entry denotes one interconnection point (one parallel link in
  our model).

This module reads and writes both formats so that the real (public) CAIDA
files can replace the synthetic generator, and so synthetic topologies can
be exported for inspection with standard CAIDA tooling.
"""

from __future__ import annotations

import io
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, TextIO, Tuple, Union

from .model import Relationship, Topology, TopologyError

__all__ = [
    "parse_as_rel",
    "write_as_rel",
    "parse_as_rel_geo",
    "write_as_rel_geo",
    "load_topology",
]

PathOrText = Union[str, Path, TextIO]


@contextmanager
def _opened(target: PathOrText, mode: str) -> Iterator[TextIO]:
    """``target`` itself, or the file it names, closed on exit."""
    if isinstance(target, (str, Path)):
        with open(target, mode, encoding="utf-8") as stream:
            yield stream
    else:
        yield target


def _read(source: PathOrText, topo: Topology, shape: str) -> List[Tuple]:
    """Add the two ASes of every data line of a CAIDA file to ``topo``;
    return the lines as ``(where, a, b, rest)``. ``where`` is the
    ``name:line`` every rejection starts with, ``rest`` the fields after
    the two (distinct, non-negative) AS numbers."""
    records = []
    with _opened(source, "r") as stream:
        for line_no, raw in enumerate(stream, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            where, parts = f"{topo.name}:{line_no}", line.split("|")
            if len(parts) < 3:
                raise TopologyError(f"{where}: expected {shape!r}, got {line!r}")
            a_asn = _field(where, "first AS", parts[0])
            b_asn = _field(where, "second AS", parts[1])
            if a_asn == b_asn:
                raise TopologyError(f"{where}: second AS {b_asn} is a self-loop")
            topo.add_as(a_asn)
            topo.add_as(b_asn)
            records.append((where, a_asn, b_asn, parts[2:]))
    return records


def _field(where: str, field: str, text: str, relationship: bool = False):
    """``text`` as an AS number or, with ``relationship``, a CAIDA code."""
    try:
        value = int(text)
        if relationship:
            return Relationship.from_caida(value)
        if value >= 0:
            return value
    except ValueError:  # TopologyError included
        pass
    wanted = "-1 or 0" if relationship else "an AS number"
    raise TopologyError(f"{where}: {field} {text!r} is not {wanted}")


def parse_as_rel(source: PathOrText, *, name: str = "caida-as-rel") -> Topology:
    """Parse a CAIDA ``as-rel`` file into a single-link-per-adjacency
    topology; an adjacency listed twice (either way round) is rejected."""
    topo = Topology(name=name)
    first: Dict[frozenset, str] = {}
    for where, a_asn, b_asn, rest in _read(source, topo, "a|b|rel"):
        seen = first.setdefault(frozenset((a_asn, b_asn)), where)
        if seen != where:
            raise TopologyError(f"{where}: adjacency {a_asn}|{b_asn} repeats {seen}")
        topo.add_link(a_asn, b_asn, _field(where, "relationship", rest[0], True))
    return topo


def write_as_rel(topo: Topology, target: PathOrText) -> None:
    """Write the adjacency structure (one line per adjacency) in ``as-rel``
    format. Parallel links collapse into one line; CORE links are emitted as
    peering (code 0), the closest CAIDA equivalent."""
    with _opened(target, "w") as stream:
        stream.write(f"# as-rel export of {topo.name}\n")
        seen: set = set()
        for link in topo.links():
            key = frozenset(link.endpoints())
            if key in seen:
                continue
            seen.add(key)
            if link.relationship is Relationship.PROVIDER_CUSTOMER:
                stream.write(f"{link.a.asn}|{link.b.asn}|-1\n")
            else:
                stream.write(f"{link.a.asn}|{link.b.asn}|0\n")


def parse_as_rel_geo(
    source: PathOrText, *, name: str = "caida-as-rel-geo"
) -> Topology:
    """Parse an ``as-rel-geo`` file.

    Each location entry of a line becomes one parallel link located at that
    interconnection point. All entries of one line must agree on the
    relationship; the first AS is the provider for ``-1`` entries.
    """
    topo = Topology(name=name)
    for where, a_asn, b_asn, entries in _read(source, topo, "a|b|loc,rel|..."):
        for entry in filter(None, map(str.strip, entries)):
            location, _, rel_text = entry.rpartition(",")
            if not location:
                raise TopologyError(f"{where}: geo entry {entry!r} has no location")
            relationship = _field(where, "relationship", rel_text, True)
            topo.add_link(a_asn, b_asn, relationship, location=location)
    return topo


def write_as_rel_geo(topo: Topology, target: PathOrText) -> None:
    """Write the multigraph in ``as-rel-geo`` format (round-trips with
    :func:`parse_as_rel_geo`, modulo CORE links being encoded as peering)."""
    with _opened(target, "w") as stream:
        stream.write(f"# as-rel-geo export of {topo.name}\n")
        grouped: Dict[Tuple[int, int], List[str]] = {}
        for link in topo.links():
            if link.relationship is Relationship.PROVIDER_CUSTOMER:
                key = (link.a.asn, link.b.asn)
                code = -1
            else:
                key = (min(link.endpoints()), max(link.endpoints()))
                code = 0
            location = link.location or "Unknown"
            grouped.setdefault(key, []).append(f"{location},{code}")
        for (a_asn, b_asn), entries in sorted(grouped.items()):
            stream.write(f"{a_asn}|{b_asn}|" + "|".join(entries) + "\n")


def load_topology(source: PathOrText, *, fmt: str = "auto") -> Topology:
    """Load a topology, sniffing the format when ``fmt='auto'``.

    ``as-rel-geo`` entries are ``location,rel``: a comma in the first data
    line's third field is how sniffing tells the two formats apart.
    """
    if fmt not in ("auto", "as-rel", "as-rel-geo"):
        raise ValueError(f"unknown format {fmt!r}")
    with _opened(source, "r") as stream:
        text = stream.read()
    if fmt == "auto":
        lines = (line.strip() for line in text.splitlines())
        data = (line for line in lines if line and not line.startswith("#"))
        third = next(data, "").split("|")[2:3]
        fmt = "as-rel-geo" if third and "," in third[0] else "as-rel"
    parser = parse_as_rel_geo if fmt == "as-rel-geo" else parse_as_rel
    return parser(io.StringIO(text))
