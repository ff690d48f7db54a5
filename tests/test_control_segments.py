"""Tests for path segments and control-message accounting."""

import random
from typing import Dict, List, Optional, Tuple

import pytest

from repro.control import (
    Component,
    ControlMessageLog,
    PathSegment,
    Scope,
    SegmentType,
    segment_wire_size,
)
from repro.core import PCB
from repro.experiments.table1 import _median_flow_period, _widest_scope


@pytest.fixture()
def beacon():
    """Core 1 -> (L10) -> 2 -> (L20) -> 3."""
    return PCB.originate(1, 0.0, 3600.0).extend(10, 2).extend(20, 3)


class TestSegmentConstruction:
    def test_down_segment_keeps_beacon_direction(self, beacon):
        segment = PathSegment.from_pcb(beacon, SegmentType.DOWN)
        assert segment.asns == (1, 2, 3)
        assert segment.link_ids == (10, 20)
        assert segment.core_asn == 1
        assert segment.first_asn == 1
        assert segment.last_asn == 3

    def test_up_segment_reverses(self, beacon):
        segment = PathSegment.from_pcb(beacon, SegmentType.UP)
        assert segment.asns == (3, 2, 1)
        assert segment.link_ids == (20, 10)
        assert segment.core_asn == 1

    def test_reversed_flips_type_and_order(self, beacon):
        down = PathSegment.from_pcb(beacon, SegmentType.DOWN)
        up = down.reversed()
        assert up.segment_type is SegmentType.UP
        assert up.asns == tuple(reversed(down.asns))
        assert up.reversed() == down

    def test_core_segment_reversed_stays_core(self, beacon):
        core = PathSegment.from_pcb(beacon, SegmentType.CORE)
        assert core.reversed().segment_type is SegmentType.CORE

    def test_validity_follows_beacon(self, beacon):
        segment = PathSegment.from_pcb(beacon, SegmentType.DOWN)
        assert segment.is_valid(100.0)
        assert not segment.is_valid(3600.0)

    def test_invalid_construction_rejected(self):
        with pytest.raises(ValueError):
            PathSegment(SegmentType.UP, (), (), 0.0, 1.0)
        with pytest.raises(ValueError):
            PathSegment(SegmentType.UP, (1, 2), (), 0.0, 1.0)
        with pytest.raises(ValueError):
            PathSegment(SegmentType.UP, (1,), (), 1.0, 1.0)

    def test_contains_queries(self, beacon):
        segment = PathSegment.from_pcb(beacon, SegmentType.DOWN)
        assert segment.contains_link(10)
        assert not segment.contains_link(99)

    def test_wire_size_counts_all_hops(self, beacon):
        segment = PathSegment.from_pcb(beacon, SegmentType.DOWN)
        assert segment_wire_size(segment) == 32 + 3 * (32 + 96)


class TestControlMessageLog:
    def test_log_and_aggregate(self):
        log = ControlMessageLog()
        log.log(Component.PATH_REGISTRATION, Scope.ISD, 100, 1.0, 5, 1)
        log.log(Component.PATH_REGISTRATION, Scope.ISD, 200, 2.0, 6, 1)
        log.log(Component.ENDPOINT_PATH_LOOKUP, Scope.AS, 50, 3.0, 5, 5)
        assert log.count() == 3
        assert log.count(Component.PATH_REGISTRATION) == 2
        assert log.bytes(Component.PATH_REGISTRATION) == 300
        assert log.scopes(Component.ENDPOINT_PATH_LOOKUP) == {Scope.AS}
        assert sorted(log.flow_times(Component.PATH_REGISTRATION)) == [
            [1.0],
            [2.0],
        ]
        assert log.count(Component.PATH_REVOCATION) == 0
        assert log.scopes(Component.PATH_REVOCATION) == set()
        assert len(log) == 3

    def test_a_flow_keeps_its_distinct_times_ascending(self):
        log = ControlMessageLog()
        for time in (5.0, 1.0, 5.0, 3.0, 1.0):
            log.log(Component.PATH_REVOCATION, Scope.ISD, 10, time, 1, 2)
        log.log(Component.PATH_REVOCATION, Scope.AS, 10, 4.0, 1, 2, subject=9)
        assert sorted(log.flow_times(Component.PATH_REVOCATION)) == [
            [1.0, 3.0, 5.0],
            [4.0],
        ]
        assert log.count(Component.PATH_REVOCATION) == 6


# ------------------------------------------- tallies vs. the message list


def reference_median_flow_period(messages) -> Optional[float]:
    """Table 1's frequency input computed from the full message list: each
    flow's times with duplicates, sorted, and only the rising gaps."""
    by_flow: Dict[Tuple, List[float]] = {}
    for component, scope, size, time, sender, receiver, subject in messages:
        by_flow.setdefault((sender, receiver, subject), []).append(time)
    gaps: List[float] = []
    for times in by_flow.values():
        times.sort()
        gaps.extend(b - a for a, b in zip(times, times[1:]) if b > a)
    if not gaps:
        return None
    gaps.sort()
    return gaps[len(gaps) // 2]


_SCOPE_ORDER = {Scope.AS: 0, Scope.ISD: 1, Scope.GLOBAL: 2}


def random_stream(rng):
    """Messages over every component with mixed scopes and sizes, a few
    senders, receivers and subjects (so flows are shared and distinct),
    and a clock that repeats, steps back and restarts halfway. The clock's
    pace varies by stream, so the busiest flows' gaps reach every
    frequency class."""
    start = rng.choice((0.0, 1000.0))
    pace = rng.choice((0.1, 1.0, 30.0, 600.0))
    clock = start
    length = rng.randrange(1, 400)
    for index in range(length):
        roll = rng.random()
        if index == length // 2 or roll < 0.02:
            clock = start
        elif roll < 0.12:
            clock -= pace * rng.choice((0.5, 1.0, 20.0))
        elif roll < 0.35:
            pass
        else:
            clock += pace * rng.choice((0.25, 0.5, 1.0, 2.0))
        yield (
            rng.choice(list(Component)),
            rng.choice(list(Scope)),
            rng.randrange(1, 2000),
            clock,
            rng.randrange(2),
            rng.randrange(2),
            rng.choice((None, 7)),
        )


@pytest.mark.parametrize("seed", range(60))
def test_tallies_answer_as_the_message_list_does(seed):
    """Count, bytes, widest scope and the median flow period (so Table 1's
    frequency class) equal what the message list gives."""
    messages = list(random_stream(random.Random(seed)))
    log = ControlMessageLog()
    for message in messages:
        log.log(*message)
    assert len(log) == log.count() == len(messages)
    assert log.bytes() == sum(m[2] for m in messages)
    for component in Component:
        mine = [m for m in messages if m[0] is component]
        assert log.count(component) == len(mine)
        assert log.bytes(component) == sum(m[2] for m in mine)
        assert log.scopes(component) == {m[1] for m in mine}
        assert _median_flow_period(log, component) == (
            reference_median_flow_period(mine)
        )
        if mine:
            assert _widest_scope(log, component) is max(
                (m[1] for m in mine), key=_SCOPE_ORDER.__getitem__
            )
