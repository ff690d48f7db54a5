"""Tests for the end-to-end traffic workload engine (repro.traffic)."""

import dataclasses
import pickle

import pytest

from repro.control.network import ScionNetwork
from repro.dataplane import (
    ForwardingError,
    ForwardingPath,
    HostAddress,
    ScionPacket,
    build_forwarding_path,
)
from repro.deployment.sig import IPPacket
from repro.experiments.common import build_full_stack_topology
from repro.experiments.config import TEST_SCALE
from repro.kernels import PythonBackend
from repro.multipath.scheduler import SchedulerContext, get_strategy
from repro.topology.latency import LatencyModel
from repro.traffic.flows import MAX_FLOW_PACKETS, PAYLOAD_BYTES
from repro.traffic import (
    FlowConfig,
    FlowGenerator,
    TrafficConfig,
    TrafficEngine,
    TrafficFaultPlan,
    select_legacy_asns,
)

FLOWS = FlowConfig(flows_per_tick=10, num_ticks=6, seed=11)


@pytest.fixture(scope="module")
def topology():
    return build_full_stack_topology(TEST_SCALE, leaves_per_core=2)


def make_network(topology):
    return ScionNetwork(
        topology,
        algorithm="diversity",
        core_config=TEST_SCALE.core_beaconing_config(5),
        intra_config=TEST_SCALE.intra_isd_config(5),
    ).run()


@pytest.fixture(scope="module")
def network(topology):
    """Shared warm network for read-mostly tests; tests that depend on
    exact cache counters or failures build their own via make_network."""
    return make_network(topology)


def leaf_endpoints(topology):
    return sorted(topology.non_core_asns())


class TestFlowGenerator:
    def test_deterministic_across_instances(self):
        a = FlowGenerator([1, 2, 3, 4], FLOWS)
        b = FlowGenerator([4, 3, 2, 1], FLOWS)  # order-insensitive
        for tick in range(FLOWS.num_ticks):
            assert a.flows_for_tick(tick) == b.flows_for_tick(tick)

    def test_ticks_independent_of_call_order(self):
        gen = FlowGenerator([1, 2, 3, 4], FLOWS)
        late_first = gen.flows_for_tick(3)
        gen.flows_for_tick(0)
        assert gen.flows_for_tick(3) == late_first

    def test_zipf_skew_prefers_top_ranked(self):
        config = FlowConfig(flows_per_tick=200, num_ticks=5, seed=3)
        gen = FlowGenerator(list(range(100, 120)), config)
        counts = {}
        for tick in range(config.num_ticks):
            for flow in gen.flows_for_tick(tick):
                counts[flow.src] = counts.get(flow.src, 0) + 1
                counts[flow.dst] = counts.get(flow.dst, 0) + 1
        assert counts.get(100, 0) > 4 * counts.get(119, 0)

    def test_src_never_equals_dst(self):
        gen = FlowGenerator([1, 2], FLOWS)
        for tick in range(FLOWS.num_ticks):
            assert all(f.src != f.dst for f in gen.flows_for_tick(tick))

    def test_flow_sizes_bounded(self):
        gen = FlowGenerator([1, 2, 3], FLOWS)
        for flow in gen.flows_for_tick(0):
            assert 1 <= flow.num_packets <= MAX_FLOW_PACKETS
            assert flow.size_bytes == flow.num_packets * PAYLOAD_BYTES

    def test_validation(self):
        with pytest.raises(ValueError):
            FlowGenerator([1], FLOWS)
        with pytest.raises(ValueError):
            FlowConfig(flows_per_tick=0)


class TestPolicies:
    """The three endpoint rankings, on the scheduler contract at k=1."""

    def _context(self, network, utilization=None, history=None):
        latency = LatencyModel(network.topology, seed=0)
        observed = {}
        if utilization is not None:
            observed["link_utilization"] = utilization
        if history is not None:
            observed["pair_links"] = history
        return SchedulerContext(
            lambda path: latency.path_latency(path.link_ids), **observed
        )

    def _select(self, name, paths, ctx):
        split = get_strategy(name).split(0, 4, paths, 1, ctx)
        (assignment,) = split.assignments
        assert assignment.packets == 4
        return assignment.path

    def _multipath_pair(self, network):
        leaves = leaf_endpoints(network.topology)
        for src in leaves:
            for dst in reversed(leaves):
                if src == dst:
                    continue
                paths = network.lookup_paths(src, dst)
                if len(paths) >= 2:
                    return src, dst, paths
        pytest.skip("no multi-path pair at test scale")

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="hottest-potato.*choose from"):
            get_strategy("hottest-potato")
        # ... and at the configuration boundary, naming the choices.
        with pytest.raises(ValueError, match="'nope'.*shortest-latency"):
            TrafficConfig(policy="nope")

    def test_shortest_latency_picks_minimum(self, network):
        src, dst, paths = self._multipath_pair(network)
        ctx = self._context(network)
        chosen = self._select("shortest-latency", paths, ctx)
        assert ctx.path_latency(chosen) == min(
            ctx.path_latency(path) for path in paths
        )

    def test_most_disjoint_avoids_history(self, network):
        src, dst, paths = self._multipath_pair(network)
        first = self._select("most-disjoint", paths, self._context(network))
        history = {(src, dst): frozenset(first.link_ids)}
        second = self._select(
            "most-disjoint", paths, self._context(network, history=history)
        )
        used = history[(src, dst)]
        overlap = lambda path: sum(1 for l in path.link_ids if l in used)
        assert overlap(second) == min(overlap(path) for path in paths)

    def test_most_disjoint_permutation_invariant(self, network):
        """The ordering contract the strategy docstring documents: the
        choice is a pure function of the candidate *set* — any candidate
        permutation yields the identical path, because the rank tuple
        ends in the (asns, link_ids) total order."""
        import itertools

        src, dst, paths = self._multipath_pair(network)
        history = {(src, dst): frozenset(paths[0].link_ids)}
        ctx = self._context(network, history=history)
        permutations = itertools.islice(itertools.permutations(paths), 24)
        chosen = {
            (picked.asns, picked.link_ids)
            for ordering in permutations
            for picked in [self._select("most-disjoint", list(ordering), ctx)]
        }
        assert len(chosen) == 1

    def test_least_utilized_routes_around_load(self, network):
        src, dst, paths = self._multipath_pair(network)
        quiet = self._select("least-utilized", paths, self._context(network))
        # Saturate the chosen path's links; the policy must move away.
        hot = set(quiet.link_ids)
        ctx = self._context(
            network, utilization=lambda link_id: 9.0 if link_id in hot else 0.0
        )
        moved = self._select("least-utilized", paths, ctx)
        bottleneck = lambda path: max(
            (ctx.link_utilization(l) for l in path.link_ids), default=0.0
        )
        assert bottleneck(moved) == min(bottleneck(path) for path in paths)


class TestTrafficEngine:
    def test_end_to_end_accounting(self, topology):
        network = make_network(topology)
        engine = TrafficEngine(
            network,
            FlowGenerator(leaf_endpoints(topology), FLOWS),
            TrafficConfig(link_capacity_bps=4e6),
        )
        result = engine.run()
        assert result.flows_started == FLOWS.flows_per_tick * FLOWS.num_ticks
        assert result.flows_started == result.flows_completed + result.flows_failed
        for tick in range(result.ticks):
            assert (
                result.offered_bytes[tick]
                == result.delivered_bytes[tick] + result.lost_bytes[tick]
            )
        assert result.packets_forwarded > 0
        # Every forwarded packet crosses at least two ASes, each a MAC check.
        assert result.macs_verified >= 2 * result.packets_forwarded
        assert result.mean_goodput_bps() > 0
        assert result.link_bytes and all(
            count > 0 for count in result.link_bytes.values()
        )
        assert 0 < result.max_utilization() <= 1.0
        assert result.cache_hits + result.cache_misses > 0
        assert 0.0 < result.cache_hit_rate() < 1.0
        assert result.flow_latencies and all(
            latency > 0 for latency in result.flow_latencies
        )
        assert result.latency_percentile(0.95) >= result.latency_percentile(0.5)

    def test_deterministic_across_fresh_networks(self, topology):
        def run():
            engine = TrafficEngine(
                make_network(topology),
                FlowGenerator(leaf_endpoints(topology), FLOWS),
                TrafficConfig(link_capacity_bps=4e6),
            )
            return engine.run()

        assert pickle.dumps(run()) == pickle.dumps(run())

    def test_rejects_unknown_legacy_as(self, network):
        with pytest.raises(ValueError, match="not workload endpoints"):
            TrafficEngine(
                network,
                FlowGenerator(leaf_endpoints(network.topology), FLOWS),
                TrafficConfig(),
                legacy_asns=(999999,),
            )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrafficConfig(link_capacity_bps=0.0)
        with pytest.raises(ValueError):
            TrafficFaultPlan(fail_tick=0, recover_tick=3)
        with pytest.raises(ValueError):
            TrafficFaultPlan(fail_tick=3, recover_tick=3)

    def test_fault_plan_must_fit_workload(self, network):
        engine = TrafficEngine(
            network,
            FlowGenerator(leaf_endpoints(network.topology), FLOWS),
            TrafficConfig(),
        )
        with pytest.raises(ValueError, match="recover within"):
            engine.run(TrafficFaultPlan(fail_tick=2, recover_tick=99))


class TestMacVerification:
    def test_corrupted_mac_is_rejected(self, network):
        """A packet whose hop-field MAC was tampered with must be dropped
        by the first router that checks it."""
        leaves = leaf_endpoints(network.topology)
        src, dst = leaves[0], leaves[-1]
        path = network.lookup_paths(src, dst)[0]
        forwarding = build_forwarding_path(
            network.topology,
            path.asns,
            path.link_ids,
            timestamp=network.now,
            expiry=path.expires_at,
        )
        hops = list(forwarding.hop_fields)
        target = len(hops) // 2
        corrupted_mac = bytes(hops[target].mac[:-1]) + bytes(
            [hops[target].mac[-1] ^ 0xFF]
        )
        hops[target] = dataclasses.replace(hops[target], mac=corrupted_mac)
        bad = ScionPacket(
            source=HostAddress(1, src),
            destination=HostAddress(1, dst),
            path=ForwardingPath(
                timestamp=forwarding.timestamp, hop_fields=tuple(hops)
            ),
            payload_bytes=1200,
        )
        with pytest.raises(ForwardingError, match="MAC"):
            network.router_table.deliver_packet(bad, now=network.now)


class TestForwardingHeaders:
    class Recording(PythonBackend):
        def __init__(self):
            self.packets = []

        def deliver_flow(self, routers, packet, count, *, now):
            self.packets.append(packet)
            return super().deliver_flow(routers, packet, count, now=now)

    def test_a_flow_after_now_moves_carries_the_new_time(self, topology):
        """Hop fields are chained once per path and timestamp: two flows at
        one ``now`` share them, a flow after ``now`` moves carries fields
        stamped and MACed at the new time."""
        network = make_network(topology)
        leaves = leaf_endpoints(topology)
        kernel = self.Recording()
        engine = TrafficEngine(
            network,
            FlowGenerator(leaves, FLOWS),
            TrafficConfig(),
            backend=kernel,
        )
        flow = FlowGenerator(leaves, FLOWS).flows_for_tick(0)[0]
        before = network.now
        assert engine.serve_one(flow).completed
        assert engine.serve_one(flow).completed
        network.now = before + 60.5
        assert engine.serve_one(flow).completed
        first, second, moved = (packet.path for packet in kernel.packets)
        assert first is second and first.timestamp == before
        assert moved.timestamp == before + 60.5
        assert moved in {
            build_forwarding_path(
                topology,
                path.asns,
                path.link_ids,
                timestamp=before + 60.5,
                expiry=path.expires_at,
            )
            for path in network.lookup_paths(flow.src, flow.dst)
        }
        assert moved.hop_fields != first.hop_fields


class TestSIGGateway:
    def test_legacy_flows_traverse_gateways(self, topology):
        """End-to-end: flows whose endpoints are legacy ASes enter/leave
        through SIGs, and the counts match the workload exactly."""
        network = make_network(topology)
        endpoints = leaf_endpoints(topology)
        legacy = select_legacy_asns(endpoints, 0.25)
        assert legacy
        engine = TrafficEngine(
            network,
            FlowGenerator(endpoints, FLOWS),
            TrafficConfig(link_capacity_bps=4e6),
            legacy_asns=legacy,
        )
        result = engine.run()
        assert result.flows_failed == 0  # no faults: everything delivers
        legacy_set = set(legacy)
        expected_encapsulated = sum(
            flow.num_packets
            for tick in range(FLOWS.num_ticks)
            for flow in engine.generator.flows_for_tick(tick)
            if flow.src in legacy_set
        )
        expected_decapsulated = sum(
            flow.num_packets
            for tick in range(FLOWS.num_ticks)
            for flow in engine.generator.flows_for_tick(tick)
            if flow.dst in legacy_set
        )
        assert result.sig_encapsulated == expected_encapsulated > 0
        assert result.sig_decapsulated == expected_decapsulated > 0
        assert result.legacy_asns == legacy

    def test_gateway_round_trip_preserves_payload(self, network):
        """One SCION->legacy packet through the real machinery: encapsulate
        at the source SIG, hop-field forwarding, decapsulate at the far
        SIG, inner IP packet intact."""
        endpoints = leaf_endpoints(network.topology)
        legacy_src, legacy_dst = endpoints[0], endpoints[-1]
        engine = TrafficEngine(
            network,
            FlowGenerator(endpoints, FLOWS),
            TrafficConfig(),
            legacy_asns=(legacy_src, legacy_dst),
        )
        path = network.lookup_paths(legacy_src, legacy_dst)[0]
        forwarding = build_forwarding_path(
            network.topology,
            path.asns,
            path.link_ids,
            timestamp=network.now,
            expiry=path.expires_at,
        )
        inner = IPPacket(
            src_ip=engine._host_ip(legacy_src),
            dst_ip=engine._host_ip(legacy_dst),
            payload_bytes=700,
        )
        scion = engine._sigs[legacy_src].encapsulate(inner, forwarding)
        assert scion is not None
        assert scion.destination.asn == legacy_dst
        traversed = network.router_table.deliver_packet(
            scion, now=network.now
        )
        assert traversed == list(path.asns)
        out = engine._sigs[legacy_dst].decapsulate(scion)
        assert out.src_ip == inner.src_ip
        assert out.dst_ip == inner.dst_ip
        assert out.total_bytes == inner.total_bytes


class TestFaultCoupling:
    def test_goodput_dips_and_recovers(self, topology):
        network = make_network(topology)
        config = FlowConfig(flows_per_tick=12, num_ticks=10, seed=7)
        engine = TrafficEngine(
            network,
            FlowGenerator(leaf_endpoints(topology), config),
            TrafficConfig(link_capacity_bps=4e6),
        )
        plan = TrafficFaultPlan(fail_tick=3, recover_tick=7)
        result = engine.run(plan)
        assert result.fail_tick == 3 and result.recover_tick == 7
        assert result.failed_links
        # Healthy before the fault, lossy during it, healthy again after.
        assert all(result.lost_bytes[tick] == 0 for tick in range(3))
        assert sum(result.lost_bytes[3:7]) > 0
        assert all(result.lost_bytes[tick] == 0 for tick in range(7, 10))
        assert result.scmp_events > 0
        assert result.re_lookups > 0
        dip = result.goodput_dip()
        assert dip is not None and dip[1] < 1.0
        recovered = result.recovered_goodput_fraction()
        assert recovered is not None and recovered > 0.8


class TestAliveFilter:
    """The engine hands the strategy the candidates a per-link scan of
    its failed-link set would leave — with no failure, with a failure off
    the candidates, and with one on them."""

    class Recording:
        name = "recording"

        def __init__(self, inner):
            self.inner, self.offered = inner, []

        def split(self, flow_key, num_packets, candidates, k, ctx):
            self.offered.append(list(candidates))
            return self.inner.split(flow_key, num_packets, candidates, k, ctx)

    def test_matches_the_per_link_scan(self, topology):
        network = make_network(topology)
        src, dst, paths = TestPolicies()._multipath_pair(network)
        engine = TrafficEngine(
            network,
            FlowGenerator(leaf_endpoints(topology), FLOWS),
            TrafficConfig(),
        )
        strategy = engine.scheduler = self.Recording(engine.scheduler)
        flow = dataclasses.replace(
            FlowGenerator([src, dst], FLOWS).flows_for_tick(0)[0],
            src=src, dst=dst,
        )
        on_paths = {l for p in paths for l in p.link_ids}
        off_paths = min(
            l.link_id for l in topology.links() if l.link_id not in on_paths
        )
        split = strategy.inner.split(0, 1, paths, 1, engine._sched_ctx)
        (best,) = [assignment.path for assignment in split.assignments]
        for failed in (set(), {off_paths}, {best.link_ids[0]}, on_paths):
            engine._failed_links = set(failed)
            expected = [
                p for p in paths
                if not any(l in failed for l in p.link_ids)
            ]
            strategy.offered.clear()
            outcome = engine.serve_one(flow)
            if expected:
                assert strategy.offered == [expected]
                assert outcome.completed and not outcome.scmp_event
            else:
                assert strategy.offered == []
                assert not outcome.completed and outcome.scmp_event


class TestCacheEventLifecycle:
    def test_hooks_detach_after_run(self, topology):
        """Regression: the engine installs cache-event trace hooks on the
        *network's* caches; ``run()`` must detach them so a finished run's
        trace recorder is not kept alive (and collecting) by the reusable
        network."""
        from repro.obs import Telemetry

        network = make_network(topology)
        tel = Telemetry.collecting()
        engine = TrafficEngine(
            network,
            FlowGenerator(leaf_endpoints(topology), FLOWS),
            TrafficConfig(link_capacity_bps=4e6),
            obs=tel,
        )
        assert any(
            cache.on_event is not None for _, cache in network.segment_caches()
        )
        engine.run()
        assert all(
            cache.on_event is None for _, cache in network.segment_caches()
        )
        assert engine._wired_caches == []

    def test_second_run_rewires_cleanly(self, topology):
        """A fresh traced engine over the same network re-attaches its own
        hooks and still produces a deterministic result."""
        from repro.obs import Telemetry

        network = make_network(topology)
        first = TrafficEngine(
            network,
            FlowGenerator(leaf_endpoints(topology), FLOWS),
            TrafficConfig(link_capacity_bps=4e6),
            obs=Telemetry.collecting(),
        )
        first.run()
        tel = Telemetry.collecting()
        second = TrafficEngine(
            network,
            FlowGenerator(leaf_endpoints(topology), FLOWS),
            TrafficConfig(link_capacity_bps=4e6),
            obs=tel,
        )
        second.run()
        events = [
            s for s in tel.causal.spans if s["name"].startswith("cache_")
        ]
        assert events, "second engine's hooks never fired"
        # Each is an instant under the tick span that looked it up.
        ticks = {
            s["span"] for s in tel.causal.spans if s["name"] == "tick"
        }
        assert all(
            e["parent"] in ticks and e["t0"] == e["t1"] and e["wall"] == 0.0
            and e["cat"] == "path_server"
            and set(e["args"]) == {"cache", "key"}
            for e in events
        )
        assert all(
            cache.on_event is None for _, cache in network.segment_caches()
        )


class TestRuntimeIntegration:
    def test_select_legacy_asns(self):
        endpoints = list(range(100, 112))
        assert select_legacy_asns(endpoints, 0.0) == ()
        assert select_legacy_asns(endpoints, 1.0) == tuple(endpoints)
        half = select_legacy_asns(endpoints, 0.5)
        assert len(half) == 6
        assert len(set(half)) == 6
        assert set(half) <= set(endpoints)
        with pytest.raises(ValueError):
            select_legacy_asns(endpoints, 1.5)

    def test_jobs_parallelism_is_invisible(self):
        """The acceptance bar: ``--jobs 2`` is pickle-identical to
        ``--jobs 1`` on the same (reduced) experiment."""
        from repro.experiments.traffic import run_traffic
        from repro.runtime import ExperimentRuntime

        kwargs = dict(policies=("shortest-latency",))
        serial = run_traffic(
            TEST_SCALE, runtime=ExperimentRuntime(jobs=1), **kwargs
        )
        parallel = run_traffic(
            TEST_SCALE, runtime=ExperimentRuntime(jobs=2), **kwargs
        )
        assert sorted(serial.results) == sorted(parallel.results)
        for name, result in serial.results.items():
            assert pickle.dumps(result) == pickle.dumps(
                parallel.results[name]
            ), f"series {name} differs between jobs=1 and jobs=2"

    def test_render_mentions_all_series(self):
        from repro.experiments.traffic import run_traffic
        from repro.runtime import ExperimentRuntime

        result = run_traffic(
            TEST_SCALE,
            runtime=ExperimentRuntime(jobs=1),
            policies=("shortest-latency",),
        )
        text = result.render()
        assert "diversity/shortest-latency" in text
        assert "diversity/faulted" in text
        assert "dip" in text


class TestMultipathEngine:
    """The traffic engine with a multipath strategy (repro.multipath)."""

    def _run(self, topology, strategy, k_paths=3):
        network = make_network(topology)
        engine = TrafficEngine(
            network,
            FlowGenerator(leaf_endpoints(topology), FLOWS),
            TrafficConfig(
                link_capacity_bps=4e6, strategy=strategy, k_paths=k_paths
            ),
        )
        return engine.run()

    def test_config_validates_strategy_and_k(self):
        with pytest.raises(ValueError, match="unknown multipath strategy"):
            TrafficConfig(strategy="warmest-potato")
        with pytest.raises(ValueError, match="k_paths"):
            TrafficConfig(k_paths=0)

    def test_unset_strategy_runs_the_policy_at_k1(self, network):
        def engine(**selection):
            return TrafficEngine(
                network,
                FlowGenerator(leaf_endpoints(network.topology), FLOWS),
                TrafficConfig(**selection),
            )

        policy = engine(policy="most-disjoint", k_paths=3)
        assert policy.scheduler is get_strategy("most-disjoint")
        assert policy._k_paths == 1
        split = engine(policy="most-disjoint", strategy="round-robin", k_paths=3)
        assert split.scheduler is get_strategy("round-robin")
        assert split._k_paths == 3

    def test_single_path_reconciliation_exact(self, topology):
        """Satellite: per-path goodput attribution reconciles exactly
        with the aggregate, in the classic single-path engine."""
        network = make_network(topology)
        engine = TrafficEngine(
            network,
            FlowGenerator(leaf_endpoints(topology), FLOWS),
            TrafficConfig(link_capacity_bps=4e6),
        )
        result = engine.run()
        assert sum(result.path_delivered_bytes.values()) == sum(
            result.delivered_bytes
        )
        assert result.multipath_splits == 0
        assert result.subflows == 0
        offered = sum(result.path_offered_bytes.values())
        # Unroutable flows never select a path, so path-level offered
        # bytes can undershoot but never exceed the run's offered bytes.
        assert offered <= sum(result.offered_bytes)

    def test_multipath_reconciliation_exact(self, topology):
        for strategy in ("round-robin", "weighted-ecmp", "max-disjoint"):
            result = self._run(topology, strategy)
            assert sum(result.path_delivered_bytes.values()) == sum(
                result.delivered_bytes
            ), strategy
            assert result.flows_started == (
                result.flows_completed + result.flows_failed
            )
            for tick in range(result.ticks):
                assert (
                    result.offered_bytes[tick]
                    == result.delivered_bytes[tick] + result.lost_bytes[tick]
                ), strategy

    def test_multipath_splits_and_shares(self, topology):
        result = self._run(topology, "weighted-ecmp")
        assert result.multipath_splits > 0
        assert result.subflows > result.multipath_splits
        shares = result.goodput_shares()
        assert shares
        assert sum(shares.values()) == pytest.approx(1.0)
        assert all(share > 0 for share in shares.values())

    def _backend_twins(self, topology, config, *, faulted=False):
        from repro.kernels import available_backends

        if "numpy" not in available_backends():
            pytest.skip("numpy backend unavailable")
        endpoints = leaf_endpoints(topology)
        runs = []
        for backend in ("python", "numpy"):
            engine = TrafficEngine(
                make_network(topology),
                FlowGenerator(endpoints, FLOWS),
                config,
                legacy_asns=(
                    select_legacy_asns(endpoints, 0.25) if faulted else ()
                ),
                backend=backend,
            )
            runs.append(
                engine.run(TrafficFaultPlan(2, 4) if faulted else None)
            )
        assert pickle.dumps(runs[0]) == pickle.dumps(runs[1])
        return runs[0]

    def test_multipath_backends_identical(self, topology):
        self._backend_twins(
            topology,
            TrafficConfig(
                link_capacity_bps=4e6, strategy="weighted-ecmp", k_paths=3
            ),
        )

    def test_policy_backends_identical_under_faults(self, topology):
        """A k=1 ranking rides the same pipeline, SCMP invalidation and
        SIG accounting included, and keeps the split counters at 0."""
        result = self._backend_twins(
            topology,
            TrafficConfig(link_capacity_bps=4e6, policy="least-utilized"),
            faulted=True,
        )
        assert result.scmp_events and result.sig_encapsulated
        assert result.subflows == result.multipath_splits == 0

    @pytest.mark.parametrize(
        "selection, label",
        [
            (dict(strategy="weighted-ecmp", k_paths=3), "multipath/weighted-ecmp"),
            (dict(policy="most-disjoint"), "most-disjoint"),
        ],
    )
    def test_one_policy_label_per_run(self, network, selection, label):
        """Every ``traffic.*`` series of one run — counters, both
        histograms — and the spec's report labels name the selection
        that actually ran, not the unused ``policy`` default."""
        from repro.obs import Telemetry
        from repro.traffic import TrafficSpec

        tel = Telemetry.collecting()
        config = TrafficConfig(link_capacity_bps=4e6, **selection)
        TrafficEngine(
            network,
            FlowGenerator(leaf_endpoints(network.topology), FLOWS),
            config,
            obs=tel,
        ).run()
        snapshot = tel.metrics.snapshot()
        seen = {
            entry["name"]: entry["labels"]["policy"]
            for kind in ("counters", "histograms")
            for entry in snapshot[kind]
            if entry["name"].startswith("traffic.")
        }
        assert {"traffic.path_hops", "traffic.flows_completed"} <= set(seen)
        assert set(seen.values()) == {label}
        spec = TrafficSpec(
            name="t",
            algorithm="diversity",
            flow_config=FLOWS,
            traffic_config=config,
            core_config=TEST_SCALE.core_beaconing_config(5),
            intra_config=TEST_SCALE.intra_isd_config(5),
        )
        assert spec.labels()["policy"] == label
