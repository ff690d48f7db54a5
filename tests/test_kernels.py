"""Unit tests for the pluggable kernel backends (repro.kernels)."""

import dataclasses
import pickle

import pytest

from repro.control.network import ScionNetwork
from repro.core.link_history import LinkHistoryTable
from repro.dataplane import (
    ForwardingError,
    ForwardingPath,
    HostAddress,
    ScionPacket,
    build_forwarding_path,
)
from repro.experiments.common import build_full_stack_topology
from repro.experiments.config import TEST_SCALE
from repro.kernels import (
    BACKEND_NAMES,
    HopFieldSoA,
    KernelBackend,
    PythonBackend,
    available_backends,
    get_backend,
    numpy_available,
    pad_rows,
    resolve_backend,
)

requires_numpy = pytest.mark.skipif(
    not numpy_available(), reason="numpy extra not installed"
)


@pytest.fixture(scope="module")
def topology():
    return build_full_stack_topology(TEST_SCALE, leaves_per_core=2)


@pytest.fixture(scope="module")
def network(topology):
    return ScionNetwork(
        topology,
        algorithm="diversity",
        core_config=TEST_SCALE.core_beaconing_config(5),
        intra_config=TEST_SCALE.intra_isd_config(5),
    ).run()


def forwarding_path(network):
    leaves = sorted(network.topology.non_core_asns())
    src, dst = leaves[0], leaves[-1]
    path = network.lookup_paths(src, dst)[0]
    return src, dst, build_forwarding_path(
        network.topology,
        path.asns,
        path.link_ids,
        timestamp=network.now,
        expiry=path.expires_at,
    )


def make_packet(network, *, hop_fields=None, src=None, dst=None, cursor=0):
    path_src, path_dst, forwarding = forwarding_path(network)
    if hop_fields is not None or cursor:
        forwarding = ForwardingPath(
            timestamp=forwarding.timestamp,
            hop_fields=tuple(hop_fields or forwarding.hop_fields),
            cursor=cursor,
        )
    return ScionPacket(
        source=HostAddress(1, src if src is not None else path_src),
        destination=HostAddress(1, dst if dst is not None else path_dst),
        path=forwarding,
        payload_bytes=1200,
    )


class TestRegistry:
    def test_names_and_availability(self):
        assert BACKEND_NAMES == ("python", "numpy")
        assert "python" in available_backends()
        assert set(available_backends()) <= set(BACKEND_NAMES)

    def test_get_backend_python(self):
        backend = get_backend("python")
        assert isinstance(backend, PythonBackend)
        assert backend.name == "python"

    def test_get_backend_unknown(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            get_backend("fortran")

    def test_resolve_backend(self):
        assert resolve_backend(None).name == "python"
        assert resolve_backend("python").name == "python"
        instance = PythonBackend()
        assert resolve_backend(instance) is instance

    @requires_numpy
    def test_numpy_backend_registered(self):
        backend = get_backend("numpy")
        assert isinstance(backend, KernelBackend)
        assert backend.name == "numpy"

    @requires_numpy
    def test_numpy_backend_pickles_without_cache(self, network):
        backend = get_backend("numpy")
        packet = make_packet(network)
        backend.deliver_flow(
            network.router_table, packet, 3, now=network.now
        )
        assert backend._flow_cache
        clone = pickle.loads(pickle.dumps(backend))
        assert clone._flow_cache == {}
        assert clone._cache_routers is None


class TestHopFieldSoA:
    def test_round_trip_exact(self, network):
        _, _, forwarding = forwarding_path(network)
        soa = HopFieldSoA.from_hop_fields(forwarding.hop_fields)
        assert len(soa) == len(forwarding.hop_fields)
        assert [
            (soa.asns[i], soa.ingress[i], soa.egress[i], soa.expiry[i], soa.mac(i))
            for i in range(len(soa))
        ] == [
            (hop.asn, hop.ingress_ifid, hop.egress_ifid, hop.expiry, hop.mac)
            for hop in forwarding.hop_fields
        ]

    def test_mac_slices_align(self, network):
        _, _, forwarding = forwarding_path(network)
        soa = HopFieldSoA.from_hop_fields(forwarding.hop_fields)
        for index, hop in enumerate(forwarding.hop_fields):
            assert soa.mac(index) == hop.mac

    def test_pad_unpad_round_trip(self):
        rows = [(1, 2, 3), (), (4,), (5, 6)]
        matrix, lengths = pad_rows(rows, fill=-1)
        assert all(len(row) == 3 for row in matrix)
        assert matrix[1] == [-1, -1, -1]
        assert [
            tuple(row[:length]) for row, length in zip(matrix, lengths)
        ] == rows

    def test_pad_empty(self):
        matrix, lengths = pad_rows([], fill=0)
        assert matrix == [] and lengths == []


class TestDeliverFlowParity:
    """Every backend must agree with the python reference packet-for-packet
    on delivered counts and traversed hops — valid and invalid paths."""

    def _deliveries(self, network, packet, now=None, count=5):
        now = network.now if now is None else now
        return {
            name: get_backend(name).deliver_flow(
                network.router_table, packet, count, now=now
            )
            for name in available_backends()
        }

    def _assert_agree(self, results):
        reference = results["python"]
        for name, value in results.items():
            assert value == reference, (
                f"backend {name}: {value} != python {reference}"
            )
        return reference

    def test_valid_flow_delivers_all(self, network):
        results = self._deliveries(network, make_packet(network))
        delivered, hops = self._assert_agree(results)
        assert delivered == 5
        assert hops >= 2

    def test_tampered_mac_drops_flow(self, network):
        packet = make_packet(network)
        hops = list(packet.path.hop_fields)
        target = len(hops) // 2
        bad_mac = bytes(hops[target].mac[:-1]) + bytes(
            [hops[target].mac[-1] ^ 0xFF]
        )
        hops[target] = dataclasses.replace(hops[target], mac=bad_mac)
        bad = make_packet(network, hop_fields=hops)
        delivered, _ = self._assert_agree(self._deliveries(network, bad))
        assert delivered == 0

    def test_expired_path_drops_flow(self, network):
        packet = make_packet(network)
        expiry = max(hop.expiry for hop in packet.path.hop_fields)
        results = self._deliveries(network, packet, now=expiry + 1.0)
        delivered, _ = self._assert_agree(results)
        assert delivered == 0

    def test_wrong_source_drops_flow(self, network):
        packet = make_packet(network)
        wrong = packet.destination.asn  # path starts at the source AS
        bad = make_packet(network, src=wrong)
        delivered, _ = self._assert_agree(self._deliveries(network, bad))
        assert delivered == 0

    def test_wrong_destination_drops_flow(self, network):
        packet = make_packet(network)
        wrong = packet.source.asn  # path terminates at the destination AS
        bad = make_packet(network, dst=wrong)
        delivered, _ = self._assert_agree(self._deliveries(network, bad))
        assert delivered == 0

    def test_consumed_path_drops_flow(self, network):
        """A path whose terminal hop still has an egress (the walk runs
        off the end) fails identically on every backend."""
        packet = make_packet(network)
        hops = [
            dataclasses.replace(hop, egress_ifid=hop.egress_ifid or 7)
            for hop in packet.path.hop_fields
        ]
        bad = make_packet(network, hop_fields=hops)
        delivered, _ = self._assert_agree(self._deliveries(network, bad))
        assert delivered == 0

    def test_mid_path_cursor_delivers_the_rest(self, network):
        """A packet picked up mid-path (sent from the AS its cursor is at)
        is walked from there: the remaining hops, on every backend."""
        hop_fields = make_packet(network).path.hop_fields
        mid = len(hop_fields) // 2
        resumed = make_packet(network, cursor=mid, src=hop_fields[mid].asn)
        results = self._deliveries(network, resumed)
        assert self._assert_agree(results) == (5, len(hop_fields) - mid)
        # Same hop fields, original source: not where the cursor stands.
        stray = make_packet(network, cursor=mid)
        assert self._assert_agree(self._deliveries(network, stray)) == (0, 0)

    def test_fully_consumed_cursor_drops_flow(self, network):
        """``cursor == len(hop_fields)``: the reference used to escape with
        ``ValueError`` here while numpy answered ``(0, 0)``."""
        hop_fields = make_packet(network).path.hop_fields
        consumed = make_packet(network, cursor=len(hop_fields))
        with pytest.raises(ForwardingError, match="path already consumed"):
            network.router_table.deliver_packet(consumed, now=network.now)
        results = self._deliveries(network, consumed)
        assert self._assert_agree(results) == (0, 0)

    @requires_numpy
    def test_numpy_memo_tells_cursors_apart(self, network):
        """One backend instance, one set of hop fields, two cursors: the
        second verdict must not be the first one's memo entry."""
        backend = get_backend("numpy")
        packet = make_packet(network)
        hop_fields = packet.path.hop_fields
        consumed = make_packet(network, cursor=len(hop_fields))
        routers, now = network.router_table, network.now
        assert backend.deliver_flow(routers, packet, 3, now=now) == (
            3,
            len(hop_fields),
        )
        assert backend.deliver_flow(routers, consumed, 3, now=now) == (0, 0)

    @requires_numpy
    def test_numpy_memo_resets_on_new_router_table(self, topology):
        backend = get_backend("numpy")
        first = ScionNetwork(
            topology,
            algorithm="diversity",
            core_config=TEST_SCALE.core_beaconing_config(5),
            intra_config=TEST_SCALE.intra_isd_config(5),
        ).run()
        packet = make_packet(first)
        backend.deliver_flow(first.router_table, packet, 2, now=first.now)
        assert len(backend._flow_cache) == 1
        second = ScionNetwork(
            topology,
            algorithm="diversity",
            core_config=TEST_SCALE.core_beaconing_config(5),
            intra_config=TEST_SCALE.intra_isd_config(5),
        ).run()
        other = make_packet(second)
        backend.deliver_flow(second.router_table, other, 2, now=second.now)
        # The memo was voided when the router table changed.
        assert backend._cache_routers is second.router_table
        assert len(backend._flow_cache) == 1


class TestBatchDiversityParity:
    def _table(self):
        table = LinkHistoryTable()
        table.increment([1, 2, 3])
        table.increment([2, 3])
        table.increment([3])
        table.decrement([1])
        return table

    def _rows(self):
        return [
            (1, 2, 3),
            (2, 3),
            (3,),
            (),
            (1, 4),  # link 4 never counted: geometric mean collapses to 0
            (3, 2, 1),  # permutation of the first row
        ]

    def test_python_matches_scalar_table(self):
        table, rows = self._table(), self._rows()
        batch = PythonBackend().batch_diversity(table, rows)
        for row, (version, counter_sum, gm) in zip(rows, batch):
            assert version == table.version(row)
            assert counter_sum == sum(table.counter(l) for l in row)
            assert gm == table.geometric_mean(row)

    def test_python_matches_memoised_rows(self):
        """Algorithm 1 reads the table through ``row``; the kernel
        contract's batch call must keep agreeing with it."""
        table, rows = self._table(), [row for row in self._rows() if row]
        batch = PythonBackend().batch_diversity(table, rows)
        for _ in range(2):  # second pass answers from the memo
            for row, (_, counter_sum, gm) in zip(rows, batch):
                assert table.row(row[:-1], row[-1]) == (counter_sum, gm)

    @requires_numpy
    def test_numpy_matches_python_bitwise(self):
        table, rows = self._table(), self._rows()
        reference = PythonBackend().batch_diversity(table, rows)
        batched = get_backend("numpy").batch_diversity(table, rows)
        assert pickle.dumps(batched) == pickle.dumps(reference)

    @requires_numpy
    def test_numpy_empty_batch(self):
        assert get_backend("numpy").batch_diversity(self._table(), []) == []

    @requires_numpy
    def test_numpy_long_rows_stay_bitwise(self):
        """Beyond 8 links NumPy's pairwise float summation would diverge
        from scalar accumulation; the backend must not use it."""
        table = LinkHistoryTable()
        links = tuple(range(1, 40))
        for count, link_id in enumerate(links, start=1):
            for _ in range(count):
                table.increment([link_id])
        rows = [links, links[::-1], links[:17]]
        reference = PythonBackend().batch_diversity(table, rows)
        batched = get_backend("numpy").batch_diversity(table, rows)
        assert pickle.dumps(batched) == pickle.dumps(reference)
