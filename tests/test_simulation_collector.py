"""The simulators pause the cyclic collector per unit of work (DESIGN §5).

Premise: a beaconing step and a BGP event loop build no reference cycle,
so with the collector off ``gc.collect()`` finds nothing unreachable after
them — reference counting already freed everything they dropped. Contract:
``collector_paused`` re-enables the collector, leaves a caller's disabled
collector alone, and settles generation 0 when the unit ends.
"""

import gc

import pytest

from repro.bgp.simulator import BGPSimulation
from repro.obs import Telemetry
from repro.simulation import (
    BeaconingConfig,
    BeaconingSimulation,
    baseline_factory,
    diversity_factory,
)
from repro.simulation.engine import collector_paused
from repro.topology import (
    InternetGeneratorConfig,
    generate_core_mesh,
    generate_internet,
)

def _unreachable_after(unit) -> int:
    """Objects only the collector could free once ``unit()`` ran with it
    off (so no settle hides a young cycle)."""
    gc.collect()
    gc.disable()
    try:
        unit()
        return gc.collect()
    finally:
        gc.enable()


class TestNoCyclePremise:
    def test_bgp_convergence(self):
        internet = generate_internet(InternetGeneratorConfig(num_ases=60, seed=3))
        bgp = BGPSimulation(internet)
        assert _unreachable_after(bgp.run) == 0
        assert bgp.converged

    @pytest.mark.parametrize("telemetry", [False, True], ids=["plain", "telemetry"])
    @pytest.mark.parametrize(
        "factory, eviction",
        [
            (diversity_factory, "shortest"),
            (diversity_factory, "diverse"),
            (baseline_factory, "shortest"),
        ],
        ids=["diversity-shortest", "diversity-diverse", "baseline"],
    )
    def test_beaconing_intervals(self, factory, eviction, telemetry):
        # A limit of 4 fills every bucket, so eviction runs each interval.
        config = BeaconingConfig(
            interval=600.0, duration=6 * 600.0, pcb_lifetime=6 * 3600.0,
            storage_limit=4, eviction_policy=eviction,
        )
        sim = BeaconingSimulation(
            generate_core_mesh(10, mean_degree=3.0, seed=5), factory(), config
        )
        if telemetry:
            sim.attach_telemetry(Telemetry.collecting())
        assert _unreachable_after(lambda: sim.run_intervals(6)) == 0
        assert sim.metrics.total_pcbs > 0


class TestCollectorPaused:
    def test_reenabled_after_an_exception(self):
        assert gc.isenabled()
        with pytest.raises(RuntimeError):
            with collector_paused():
                assert not gc.isenabled()
                raise RuntimeError("unit failed")
        assert gc.isenabled()

    def test_noop_when_the_caller_disabled_the_collector(self):
        gc.disable()
        try:
            with collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()  # the caller's state is kept
        finally:
            gc.enable()

    def test_a_settled_unit_leaves_generation_0_empty(self):
        @collector_paused()
        def unit():
            return [[index] for index in range(5000)]

        kept = unit()
        assert gc.isenabled()
        assert gc.get_count()[0] < 100
        assert len(kept) == 5000
