"""Tests for CAIDA as-rel / as-rel-geo serialization."""

import io
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topology import (
    InternetGeneratorConfig,
    Relationship,
    Topology,
    TopologyError,
    generate_internet,
    load_topology,
    parse_as_rel,
    parse_as_rel_geo,
    write_as_rel,
    write_as_rel_geo,
)

AS_REL_SAMPLE = """\
# inferred AS relationships
# provider|customer|-1 ; peer|peer|0
1|2|-1
1|3|-1
2|3|0
"""

AS_REL_GEO_SAMPLE = """\
# geo sample
1|2|Zurich,-1|Frankfurt,-1
2|3|London,0
"""


class TestParseAsRel:
    def test_parses_relationships(self):
        topo = parse_as_rel(io.StringIO(AS_REL_SAMPLE))
        assert topo.num_ases == 3
        assert topo.num_links == 3
        assert topo.customers(1) == {2, 3}
        assert {peer for peer, _ in topo.peering_links(2)} == {3}

    def test_comments_and_blank_lines_skipped(self):
        topo = parse_as_rel(io.StringIO("# c\n\n1|2|0\n"))
        assert topo.num_links == 1

    def test_malformed_line_raises(self):
        with pytest.raises(TopologyError):
            parse_as_rel(io.StringIO("1|2\n"))

    def test_unknown_relationship_raises(self):
        with pytest.raises(TopologyError, match=r"^caida-as-rel:1: relationship '7'"):
            parse_as_rel(io.StringIO("1|2|7\n"))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1|x|0", r"^caida-as-rel:1: second AS 'x' is not an AS number"),
            ("# c\n-5|2|0", r"^caida-as-rel:2: first AS '-5' is not an AS number"),
            ("1|2|0\n3|3|0", r"^caida-as-rel:2: second AS 3 is a self-loop"),
        ],
    )
    def test_bad_field_names_file_line_and_field(self, text, message):
        with pytest.raises(TopologyError, match=message):
            parse_as_rel(io.StringIO(text))

    def test_repeated_adjacency_names_both_lines(self):
        # The docstring's promise: one link per adjacency, whichever way round.
        with pytest.raises(
            TopologyError,
            match=r"^caida-as-rel:4: adjacency 2\|1 repeats caida-as-rel:2$",
        ):
            parse_as_rel(io.StringIO("# c\n1|2|0\n1|3|-1\n2|1|-1\n"))


class TestParseAsRelGeo:
    def test_each_location_becomes_a_parallel_link(self):
        topo = parse_as_rel_geo(io.StringIO(AS_REL_GEO_SAMPLE))
        assert len(topo.links_between(1, 2)) == 2
        locations = {l.location for l in topo.links_between(1, 2)}
        assert locations == {"Zurich", "Frankfurt"}
        assert len(topo.links_between(2, 3)) == 1

    def test_relationship_orientation_preserved(self):
        topo = parse_as_rel_geo(io.StringIO(AS_REL_GEO_SAMPLE))
        assert topo.customers(1) == {2}
        assert {peer for peer, _ in topo.peering_links(2)} == {3}

    def test_malformed_geo_entry_raises(self):
        with pytest.raises(TopologyError):
            parse_as_rel_geo(io.StringIO("1|2|-1\n"))

    def test_bad_relationship_names_file_line_and_field(self):
        with pytest.raises(
            TopologyError,
            match=r"^caida-as-rel-geo:1: relationship 'abc' is not -1 or 0",
        ):
            parse_as_rel_geo(io.StringIO("1|2|Zurich,abc"))

    def test_location_with_comma_is_preserved(self):
        topo = parse_as_rel_geo(io.StringIO("1|2|New York,NY,-1\n"))
        link = topo.links_between(1, 2)[0]
        assert link.location == "New York,NY"


class TestRoundTrips:
    def test_as_rel_geo_round_trip_preserves_multigraph(self):
        topo = generate_internet(InternetGeneratorConfig(num_ases=80, seed=9))
        buffer = io.StringIO()
        write_as_rel_geo(topo, buffer)
        buffer.seek(0)
        parsed = parse_as_rel_geo(buffer)
        assert parsed.num_ases == topo.num_ases
        assert parsed.num_links == topo.num_links
        for asn in topo.asns():
            assert set(parsed.neighbors(asn)) == set(topo.neighbors(asn))
            assert parsed.providers(asn) == topo.providers(asn)

    def test_as_rel_round_trip_preserves_adjacency(self):
        topo = generate_internet(InternetGeneratorConfig(num_ases=60, seed=10))
        buffer = io.StringIO()
        write_as_rel(topo, buffer)
        buffer.seek(0)
        parsed = parse_as_rel(buffer)
        assert parsed.num_ases == topo.num_ases
        for asn in topo.asns():
            assert set(parsed.neighbors(asn)) == set(topo.neighbors(asn))

    def test_file_round_trip(self, tmp_path):
        topo = generate_internet(InternetGeneratorConfig(num_ases=40, seed=2))
        path = tmp_path / "topo.as-rel-geo"
        write_as_rel_geo(topo, path)
        parsed = parse_as_rel_geo(path)
        assert parsed.num_links == topo.num_links


class TestLoadTopology:
    def test_sniffs_as_rel(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text(AS_REL_SAMPLE)
        topo = load_topology(path)
        assert topo.num_links == 3

    def test_sniffs_as_rel_geo(self, tmp_path):
        path = tmp_path / "y.txt"
        path.write_text(AS_REL_GEO_SAMPLE)
        topo = load_topology(path)
        assert len(topo.links_between(1, 2)) == 2

    def test_explicit_format(self):
        topo = load_topology(io.StringIO(AS_REL_SAMPLE), fmt="as-rel")
        assert topo.num_links == 3

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            load_topology(io.StringIO(""), fmt="json")


def _exported(writer) -> str:
    buffer = io.StringIO()
    writer(generate_internet(InternetGeneratorConfig(num_ases=12, seed=4)), buffer)
    return buffer.getvalue()


EXPORTS = {
    "as-rel": (parse_as_rel, _exported(write_as_rel)),
    "as-rel-geo": (parse_as_rel_geo, _exported(write_as_rel_geo)),
}
#: A delete (empty string) or an insert/replace of a character the two
#: formats give meaning to, plus one they never use.
EDITS = st.tuples(
    st.integers(min_value=0),
    st.booleans(),
    st.sampled_from(["", "0", "1", "7", "-", "|", ",", "#", "x", " ", "\n"]),
)


class TestHostileInput:
    @pytest.mark.parametrize("fmt", sorted(EXPORTS))
    @settings(max_examples=150, deadline=None)
    @given(edits=st.lists(EDITS, min_size=1, max_size=4))
    def test_every_rejection_is_a_topology_error_naming_a_line(self, fmt, edits):
        parser, text = EXPORTS[fmt]
        for at, replace, char in edits:
            at %= len(text) + 1
            text = text[:at] + char + text[at + (replace or not char):]
        try:
            parser(io.StringIO(text))
        except TopologyError as error:
            assert re.match(rf"caida-{fmt}:\d+: \S", str(error)), str(error)
