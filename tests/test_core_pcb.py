"""Unit tests for the PCB model."""

import copy
import pickle
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import (
    PCB,
    Hop,
    PCB_HEADER_BYTES,
    PCB_HOP_FIXED_BYTES,
    SIGNATURE_BYTES,
)


@pytest.fixture()
def chain_pcb() -> PCB:
    """Origin 1 -> link 10 -> AS 2 -> link 20 -> AS 3."""
    pcb = PCB.originate(1, issued_at=0.0, lifetime=3600.0)
    return pcb.extend(10, 2).extend(20, 3)


class TestConstruction:
    def test_originate(self):
        pcb = PCB.originate(7, issued_at=100.0, lifetime=60.0)
        assert pcb.origin == 7
        assert pcb.hops == (Hop(7),)
        assert pcb.path_length == 0
        assert pcb.last_asn == 7

    def test_extend_appends_hop(self, chain_pcb):
        assert chain_pcb.path_asns() == (1, 2, 3)
        assert chain_pcb.link_ids() == (10, 20)
        assert chain_pcb.last_asn == 3
        assert chain_pcb.path_length == 2

    def test_extend_preserves_initiator_timestamps(self, chain_pcb):
        assert chain_pcb.issued_at == 0.0
        assert chain_pcb.lifetime == 3600.0

    def test_extend_rejects_loops(self, chain_pcb):
        with pytest.raises(ValueError):
            chain_pcb.extend(30, 1)
        with pytest.raises(ValueError):
            chain_pcb.extend(30, 2)

    def test_invalid_construction_rejected(self):
        with pytest.raises(ValueError):
            PCB(origin=1, issued_at=0.0, lifetime=60.0, hops=())
        with pytest.raises(ValueError):
            PCB(origin=1, issued_at=0.0, lifetime=60.0, hops=(Hop(2),))
        with pytest.raises(ValueError):
            PCB(origin=1, issued_at=0.0, lifetime=0.0, hops=(Hop(1),))
        with pytest.raises(ValueError):
            PCB(origin=1, issued_at=0.0, lifetime=60.0, hops=(Hop(1, 5),))
        with pytest.raises(ValueError):
            PCB(
                origin=1,
                issued_at=0.0,
                lifetime=60.0,
                hops=(Hop(1), Hop(2, None)),
            )


class TestValidity:
    def test_validity_window(self):
        pcb = PCB.originate(1, issued_at=100.0, lifetime=50.0)
        assert not pcb.is_valid(99.9)
        assert pcb.is_valid(100.0)
        assert pcb.is_valid(149.9)
        assert not pcb.is_valid(150.0)

    def test_age_and_remaining(self):
        pcb = PCB.originate(1, issued_at=100.0, lifetime=50.0)
        assert pcb.age(120.0) == 20.0
        assert pcb.remaining_lifetime(120.0) == 30.0
        assert pcb.expires_at == 150.0


class TestIdentity:
    def test_path_key_ignores_instance_timestamps(self, chain_pcb):
        newer = PCB(
            origin=1,
            issued_at=500.0,
            lifetime=3600.0,
            hops=chain_pcb.hops,
        )
        assert newer.path_key() == chain_pcb.path_key()

    def test_different_links_are_different_paths(self, chain_pcb):
        other = PCB.originate(1, 0.0, 3600.0).extend(11, 2).extend(20, 3)
        assert other.path_key() != chain_pcb.path_key()

    def test_contains_queries(self, chain_pcb):
        assert chain_pcb.contains_as(2)
        assert not chain_pcb.contains_as(9)
        assert chain_pcb.contains_link(10)
        assert not chain_pcb.contains_link(99)


class TestSlottedDerivedFields:
    """The compute-once slots are derived state: invisible to equality,
    hashing, ``repr``, pickling and copying, and as frozen as the fields."""

    def test_no_instance_dict(self, chain_pcb):
        assert not hasattr(chain_pcb, "__dict__")
        assert not hasattr(chain_pcb.hops[0], "__dict__")

    def test_equality_and_hash_ignore_derived_slots(self, chain_pcb):
        rebuilt = PCB(
            origin=1, issued_at=0.0, lifetime=3600.0, hops=chain_pcb.hops
        )
        assert rebuilt == chain_pcb and hash(rebuilt) == hash(chain_pcb)
        assert {chain_pcb: "x"}[rebuilt] == "x"
        # Same path key and expiry, different instance: not equal.
        newer = PCB(origin=1, issued_at=1.0, lifetime=3599.0, hops=chain_pcb.hops)
        assert newer.expires_at == chain_pcb.expires_at
        assert newer.path_key() == chain_pcb.path_key()
        assert newer != chain_pcb
        assert "_path_key" not in repr(chain_pcb)
        assert "expires_at" not in repr(chain_pcb)

    @pytest.mark.parametrize(
        "roundtrip",
        [
            lambda pcb: pickle.loads(pickle.dumps(pcb)),
            copy.copy,
            copy.deepcopy,
        ],
        ids=["pickle", "copy", "deepcopy"],
    )
    def test_roundtrips_rebuild_the_derived_slots(self, chain_pcb, roundtrip):
        clone = roundtrip(chain_pcb)
        assert clone == chain_pcb and clone is not chain_pcb
        assert clone.link_ids() == (10, 20)
        assert clone.path_key() == (1, (10, 20))
        assert clone.path_asns() == (1, 2, 3)
        assert clone.expires_at == 3600.0
        assert clone.contains_as(3) and clone.contains_link(20)
        with pytest.raises(ValueError):
            clone.extend(30, 2)

    def test_pickle_carries_only_the_fields(self, chain_pcb):
        _, args = chain_pcb.__reduce__()
        assert args == (1, 0.0, 3600.0, chain_pcb.hops)

    @pytest.mark.parametrize(
        "name", ["origin", "issued_at", "hops", "expires_at", "_link_ids"]
    )
    def test_assignment_raises(self, chain_pcb, name):
        with pytest.raises(FrozenInstanceError):
            setattr(chain_pcb, name, getattr(chain_pcb, name))
        with pytest.raises(FrozenInstanceError):
            chain_pcb.hops[0].asn = 9


class TestExtendBuildsFromTheParent:
    """``extend`` assembles the child from the parent's derived tuples
    without ``__init__``; it must be the beacon ``PCB(...)`` builds."""

    #: Every slot of the class, fields and derived alike.
    SLOTS = (
        "origin", "issued_at", "lifetime", "hops",
        "expires_at", "_asns", "_link_ids", "_path_key",
    )

    @given(
        issued=st.floats(min_value=0, max_value=1e6, allow_nan=False),
        lifetime=st.floats(min_value=1e-3, max_value=1e6, allow_nan=False),
        links=st.lists(st.integers(min_value=1, max_value=500), max_size=8),
    )
    def test_equals_the_constructed_beacon_slot_for_slot(
        self, issued, lifetime, links
    ):
        extended = PCB.originate(7, issued, lifetime)
        for hop, link_id in enumerate(links):
            extended = extended.extend(link_id, 100 + hop)
        hops = (Hop(7),) + tuple(
            Hop(100 + hop, link_id) for hop, link_id in enumerate(links)
        )
        built = PCB(origin=7, issued_at=issued, lifetime=lifetime, hops=hops)
        assert PCB.__slots__ == self.SLOTS
        for name in self.SLOTS:
            assert getattr(extended, name) == getattr(built, name), name
        assert extended == built and hash(extended) == hash(built)
        assert repr(extended) == repr(built)
        assert extended.path_asns() == built.path_asns()
        assert extended.link_ids() == built.link_ids()
        assert extended.path_key() == built.path_key()
        assert extended.wire_size() == built.wire_size()
        clone = pickle.loads(pickle.dumps(extended))
        for name in self.SLOTS:
            assert getattr(clone, name) == getattr(built, name), name

    def test_rejects_what_the_constructor_rejects(self, chain_pcb):
        with pytest.raises(ValueError, match="already on the path"):
            chain_pcb.extend(30, 3)
        with pytest.raises(ValueError, match="must record their ingress link"):
            chain_pcb.extend(None, 4)


class TestWireSize:
    def test_origin_size(self):
        pcb = PCB.originate(1, 0.0, 60.0)
        assert pcb.wire_size() == PCB_HEADER_BYTES + (
            PCB_HOP_FIXED_BYTES + SIGNATURE_BYTES
        )

    def test_size_grows_per_hop(self, chain_pcb):
        expected = PCB_HEADER_BYTES + 3 * (PCB_HOP_FIXED_BYTES + SIGNATURE_BYTES)
        assert chain_pcb.wire_size() == expected

    @given(hops=st.integers(min_value=0, max_value=20))
    def test_size_linear_in_hops(self, hops):
        pcb = PCB.originate(0, 0.0, 60.0)
        for i in range(hops):
            pcb = pcb.extend(100 + i, i + 1)
        assert pcb.wire_size() == PCB_HEADER_BYTES + (hops + 1) * (
            PCB_HOP_FIXED_BYTES + SIGNATURE_BYTES
        )


@given(
    issued=st.floats(min_value=0, max_value=1e6, allow_nan=False),
    lifetime=st.floats(min_value=1e-3, max_value=1e6, allow_nan=False),
    probe=st.floats(min_value=-1e6, max_value=2e6, allow_nan=False),
)
def test_validity_is_exactly_the_half_open_window(issued, lifetime, probe):
    pcb = PCB.originate(1, issued, lifetime)
    assert pcb.is_valid(probe) == (issued <= probe < issued + lifetime)
