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
from pathlib import Path
from typing import Dict, List, TextIO, Tuple, Union

from .model import Relationship, Topology, TopologyError

__all__ = [
    "parse_as_rel",
    "write_as_rel",
    "parse_as_rel_geo",
    "write_as_rel_geo",
    "load_topology",
]

PathOrText = Union[str, Path, TextIO]


def _open_for_read(source: PathOrText) -> Tuple[TextIO, bool]:
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="utf-8"), True
    return source, False


def _open_for_write(target: PathOrText) -> Tuple[TextIO, bool]:
    if isinstance(target, (str, Path)):
        return open(target, "w", encoding="utf-8"), True
    return target, False


def parse_as_rel(source: PathOrText, *, name: str = "caida-as-rel") -> Topology:
    """Parse a CAIDA ``as-rel`` file into a single-link-per-adjacency topology."""
    stream, owned = _open_for_read(source)
    try:
        topo = Topology(name=name)
        for line_no, raw in enumerate(stream, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("|")
            if len(parts) < 3:
                raise TopologyError(
                    f"{name}:{line_no}: expected 'a|b|rel', got {line!r}"
                )
            a_asn, b_asn = int(parts[0]), int(parts[1])
            relationship = Relationship.from_caida(int(parts[2]))
            topo.add_as(a_asn)
            topo.add_as(b_asn)
            topo.add_link(a_asn, b_asn, relationship)
        return topo
    finally:
        if owned:
            stream.close()


def write_as_rel(topo: Topology, target: PathOrText) -> None:
    """Write the adjacency structure (one line per adjacency) in ``as-rel``
    format. Parallel links collapse into one line; CORE links are emitted as
    peering (code 0), the closest CAIDA equivalent."""
    stream, owned = _open_for_write(target)
    try:
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
    finally:
        if owned:
            stream.close()


def parse_as_rel_geo(
    source: PathOrText, *, name: str = "caida-as-rel-geo"
) -> Topology:
    """Parse an ``as-rel-geo`` file.

    Each location entry of a line becomes one parallel link located at that
    interconnection point. All entries of one line must agree on the
    relationship; the first AS is the provider for ``-1`` entries.
    """
    stream, owned = _open_for_read(source)
    try:
        topo = Topology(name=name)
        for line_no, raw in enumerate(stream, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("|")
            if len(parts) < 3:
                raise TopologyError(
                    f"{name}:{line_no}: expected 'a|b|loc,rel|...', got {line!r}"
                )
            a_asn, b_asn = int(parts[0]), int(parts[1])
            topo.add_as(a_asn)
            topo.add_as(b_asn)
            for entry in parts[2:]:
                entry = entry.strip()
                if not entry:
                    continue
                location, _, rel_text = entry.rpartition(",")
                if not location:
                    raise TopologyError(
                        f"{name}:{line_no}: malformed geo entry {entry!r}"
                    )
                relationship = Relationship.from_caida(int(rel_text))
                topo.add_link(a_asn, b_asn, relationship, location=location)
        return topo
    finally:
        if owned:
            stream.close()


def write_as_rel_geo(topo: Topology, target: PathOrText) -> None:
    """Write the multigraph in ``as-rel-geo`` format (round-trips with
    :func:`parse_as_rel_geo`, modulo CORE links being encoded as peering)."""
    stream, owned = _open_for_write(target)
    try:
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
    finally:
        if owned:
            stream.close()


def load_topology(source: PathOrText, *, fmt: str = "auto") -> Topology:
    """Load a topology, sniffing the format when ``fmt='auto'``.

    ``as-rel-geo`` lines have a non-integer third field (``location,rel``),
    which is how sniffing distinguishes the two formats.
    """
    if fmt not in ("auto", "as-rel", "as-rel-geo"):
        raise ValueError(f"unknown format {fmt!r}")
    if isinstance(source, (str, Path)):
        text = Path(source).read_text(encoding="utf-8")
    else:
        text = source.read()
    if fmt == "auto":
        fmt = "as-rel"
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("|")
            if len(parts) >= 3:
                try:
                    int(parts[2])
                except ValueError:
                    fmt = "as-rel-geo"
            break
    parser = parse_as_rel_geo if fmt == "as-rel-geo" else parse_as_rel
    return parser(io.StringIO(text))
