"""The records built per event are slotted, and they survive a pickle or
a deep copy unchanged.

A slotted record has no per-instance ``__dict__``, so each one costs
tens of bytes less; ``endpoint_stack`` builds about fifty thousand of
them. Warm-state snapshots pickle the simulation's in-flight
``Transmission``s and ``InterfaceStats``, so every record
must also round-trip through ``pickle`` and ``copy.deepcopy``.
"""

import copy
import dataclasses
import pickle

import pytest

from repro.bgp.policy import NeighborKind, Route
from repro.bgp.speaker import Advertisement
from repro.control.revocation import Revocation, SCMPNotification
from repro.control.segments import PathSegment, SegmentType
from repro.core.policy import Transmission
from repro.dataplane.combinator import EndToEndPath
from repro.dataplane.hopfield import HopField, pack_covered, pack_timestamp
from repro.dataplane.packet import ForwardingPath, HostAddress, ScionPacket
from repro.multipath.scheduler import PathAssignment, PathSplit
from repro.service.clients import PlannedRequest
from repro.service.requests import (
    Request,
    RequestKind,
    Response,
    ResultPage,
    Status,
)
from repro.simulation import (
    BeaconingConfig,
    BeaconingSimulation,
    diversity_factory,
)
from repro.simulation.metrics import InterfaceSnapshot, InterfaceStats
from repro.topology import generate_core_mesh
from repro.traffic.engine import FlowOutcome
from repro.traffic.flows import Flow


def _warm_simulation() -> BeaconingSimulation:
    """A core mesh three intervals in, with beacons in flight."""
    config = BeaconingConfig(
        interval=600.0, duration=12 * 600.0, pcb_lifetime=5 * 600.0,
        storage_limit=6,
    )
    sim = BeaconingSimulation(
        generate_core_mesh(7, seed=3), diversity_factory(), config
    )
    return sim.run_intervals(3)


def _records():
    """One instance of each per-event record."""
    hop = HopField(asn=3, ingress_ifid=1, egress_ifid=2, expiry=600.0,
                   mac=b"\x01" * 6)
    forwarding = ForwardingPath(timestamp=0.0, hop_fields=(hop,), cursor=0)
    source, destination = HostAddress(1, 10), HostAddress(2, 20, "10.0.0.2")
    path = EndToEndPath(asns=(10, 3, 20), link_ids=(5, 6), expires_at=600.0)
    revocation = Revocation(link_id=5, issuing_asn=3, issued_at=60.0)
    assignment = PathAssignment(path=path, packets=4, weight=0.5)
    request = Request(RequestKind.LOOKUP_PATHS, "client-1", src=10, dst=20)
    response = Response(
        request_id=7, client_id="client-1", kind=RequestKind.LOOKUP_PATHS,
        status=Status.OK, attempts=1, submitted_at=0.5, completed_at=0.75,
        payload=(3,),
    )
    return [
        _warm_simulation().step()[0],
        InterfaceStats(pcbs=3, bytes=900),
        InterfaceSnapshot(pcbs=3, bytes=900),
        Route(prefix=1, as_path=(1, 2), neighbor=2,
              learned_from=NeighborKind.PEER),
        Advertisement(sender=2, receiver=3, prefix=1, as_path=(1, 2)),
        hop,
        source,
        forwarding,
        ScionPacket(source, destination, forwarding, payload_bytes=1200),
        path,
        PathSegment(SegmentType.CORE, asns=(1, 2), link_ids=(5,),
                    issued_at=0.0, expires_at=600.0),
        revocation,
        SCMPNotification(revocation=revocation, notified_endpoint=10),
        Flow(flow_id=1, tick=0, src=10, dst=20, num_packets=4),
        FlowOutcome(flow_id=1, completed=True, delivered_packets=4,
                    offered_bytes=4800, delivered_bytes=4800, latency=0.02,
                    scmp_event=False, macs_verified=8),
        assignment,
        PathSplit(flow_key=1, num_packets=4, assignments=(assignment,)),
        request,
        response,
        ResultPage(items=(response,), total=1, first_offset=0,
                   next_offset=None),
        PlannedRequest(gap=0.25, request=request),
    ]


RECORDS = _records()
IDS = [type(record).__name__ for record in RECORDS]


def test_every_record_class_is_listed_once():
    assert len(set(IDS)) == len(IDS) == 21


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_record_is_slotted(record):
    cls = type(record)
    assert "__slots__" in vars(cls)
    assert not hasattr(record, "__dict__")
    params = cls.__dataclass_params__
    if params.frozen:
        name = dataclasses.fields(record)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, getattr(record, name))


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_record_round_trips(record):
    assert pickle.loads(pickle.dumps(record)) == record
    assert copy.deepcopy(record) == record


@pytest.mark.parametrize(
    "record",
    [r for r in RECORDS if isinstance(r, (HopField, ForwardingPath, ScionPacket))],
    ids=lambda record: type(record).__name__,
)
def test_carried_bytes_survive_a_round_trip(record):
    """The bytes a hop field's MAC covers and a path's packed timestamp
    take no part in ``==``, so the round trip above cannot see them: a
    pickle or copy must keep them."""

    def carried(record):
        if isinstance(record, HopField):
            return (record.covered,)
        path = record.path if isinstance(record, ScionPacket) else record
        return (path.packed_timestamp,) + tuple(
            hop.covered for hop in path.hop_fields
        )

    expected = carried(record)
    assert expected[-1] == pack_covered(1, 2, 600.0)
    assert expected[0] in (pack_timestamp(0.0), pack_covered(1, 2, 600.0))
    assert carried(pickle.loads(pickle.dumps(record))) == expected
    assert carried(copy.deepcopy(record)) == expected


def test_warm_simulation_resumes_from_its_pickle():
    """In-flight transmissions and the interface counters come back from
    a snapshot, and the restored run steps to the same bytes."""
    sim = _warm_simulation()
    assert sim._in_flight
    restored = pickle.loads(pickle.dumps(sim))
    for _ in range(2):
        assert restored._in_flight == sim._in_flight
        assert pickle.dumps(restored._in_flight) == pickle.dumps(sim._in_flight)
        assert pickle.dumps(restored.metrics) == pickle.dumps(sim.metrics)
        sim.step()
        restored.step()
    assert sim.metrics.total_pcbs > 0
