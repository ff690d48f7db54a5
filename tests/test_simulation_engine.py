"""Tests for the discrete-event simulation core."""

import pytest

from repro.simulation import SimulationClock, Simulator


class TestClock:
    def test_advances_forward(self):
        clock = SimulationClock()
        clock.advance_to(10.0)
        assert clock.now == 10.0

    def test_rejects_backwards(self):
        clock = SimulationClock()
        clock.advance_to(5.0)
        with pytest.raises(ValueError):
            clock.advance_to(4.0)


class TestEventQueue:
    def test_orders_by_time(self):
        sim = Simulator()
        order = []
        sim.schedule_at(5.0, lambda: order.append("b"))
        sim.schedule_at(1.0, lambda: order.append("a"))
        sim.schedule_at(9.0, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_fifo_for_same_time(self):
        sim = Simulator()
        order = []
        sim.schedule_at(1.0, lambda: order.append(1))
        sim.schedule_at(1.0, lambda: order.append(2))
        sim.schedule_at(1.0, lambda: order.append(3))
        sim.run()
        assert order == [1, 2, 3]


class TestSimulator:
    def test_runs_until_drained(self):
        sim = Simulator()
        hits = []
        sim.schedule_at(sim.now + 1.0, lambda: hits.append(sim.now))
        sim.schedule_at(sim.now + 2.0, lambda: hits.append(sim.now))
        processed = sim.run()
        assert processed == 2
        assert hits == [1.0, 2.0]
        assert sim.now == 2.0

    def test_events_can_schedule_events(self):
        sim = Simulator()
        hits = []

        def chain(n):
            hits.append(sim.now)
            if n > 0:
                sim.schedule_at(sim.now + 1.0, lambda: chain(n - 1))

        sim.schedule_at(sim.now + 1.0, lambda: chain(3))
        sim.run()
        assert hits == [1.0, 2.0, 3.0, 4.0]

    def test_until_horizon(self):
        sim = Simulator()
        hits = []
        sim.schedule_at(sim.now + 1.0, lambda: hits.append(1))
        sim.schedule_at(sim.now + 10.0, lambda: hits.append(2))
        sim.run(until=5.0)
        assert hits == [1]
        assert sim.now == 5.0
        sim.run()
        assert hits == [1, 2]

    def test_cannot_schedule_in_past(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule_at(sim.now - 1.0, lambda: None)
        sim.schedule_at(sim.now + 5.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(1.0, lambda: None)


class TestSimulatorRegression:
    def test_horizon_advance_still_happens_when_drained(self):
        sim = Simulator()
        sim.schedule_at(sim.now + 1.0, lambda: None)
        sim.run(until=5.0)
        assert sim.now == 5.0

    def test_horizon_stops_before_later_events(self):
        """With an event beyond the horizon the clock stops at the
        horizon, keeping the event runnable later."""
        sim = Simulator()
        hits = []
        sim.schedule_at(sim.now + 10.0, lambda: hits.append(1))
        sim.run(until=5.0)
        assert sim.now == 5.0 and hits == []
        sim.run(until=20.0)
        assert hits == [1]


class TestEventQueueLen:
    def test_len_is_live_count(self):
        """``len`` counts the events scheduled and not yet run."""
        sim = Simulator()
        for i in range(5):
            sim.schedule_at(float(i), lambda: None)
        assert len(sim) == 5
        sim.run(until=2.0)
        assert len(sim) == 2

    def test_len_drains_to_zero(self):
        sim = Simulator()
        for i in range(3):
            sim.schedule_at(float(i + 1), lambda: None)
        sim.run()
        assert len(sim) == 0
