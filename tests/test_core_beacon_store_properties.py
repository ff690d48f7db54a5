"""Property-based BeaconStore tests: randomized operation interleavings
(fixed seeds, plain ``random.Random`` — no extra dependencies) against the
store's count/limit/consistency invariants."""

from random import Random

import pytest

from repro.core import BeaconStore, PCB


def random_pcb(rng: Random, now: float) -> PCB:
    """A random loop-free beacon over a small AS/link id space."""
    origin = rng.randint(1, 4)
    pcb = PCB.originate(origin, now - rng.randint(0, 5), 100.0)
    visited = {origin}
    for _ in range(rng.randint(0, 4)):
        candidates = [asn for asn in range(1, 10) if asn not in visited]
        nxt = rng.choice(candidates)
        visited.add(nxt)
        pcb = pcb.extend(rng.randint(1, 12), nxt)
    return pcb


def check_invariants(store: BeaconStore) -> None:
    # Total count is the sum of the per-origin counts.
    assert store.count() == sum(
        store.count(origin) for origin in store.origins()
    )
    for origin in store.origins():
        bucket = store.beacons(origin)
        # The per-origin limit is never exceeded.
        if store.storage_limit is not None:
            assert store.count(origin) <= store.storage_limit
        # count agrees with the materialized list, keys are unique, and
        # every beacon is stored under its own origin.
        assert len(bucket) == store.count(origin)
        keys = [pcb.path_key() for pcb in bucket]
        assert len(set(keys)) == len(keys)
        assert all(pcb.origin == origin for pcb in bucket)
        # The deterministic order: shortest path first, then oldest.
        ordering = [
            (pcb.path_length, pcb.issued_at, pcb.path_key()) for pcb in bucket
        ]
        assert ordering == sorted(ordering)
        # Membership queries agree with enumeration.
        for pcb in bucket:
            assert pcb in store
            assert store.get(pcb.path_key()) is pcb


@pytest.mark.parametrize("eviction_policy", ["shortest", "diverse"])
@pytest.mark.parametrize("seed", range(8))
def test_random_interleavings_preserve_invariants(seed, eviction_policy):
    rng = Random(seed)
    store = BeaconStore(storage_limit=5, eviction_policy=eviction_policy)
    now = 10.0
    for _ in range(300):
        now += rng.random()
        op = rng.randrange(100)
        before = store.count()
        if op < 60:
            pcb = random_pcb(rng, now)
            had = store.get(pcb.path_key())
            changed = store.insert(pcb, now)
            if changed and had is None:
                # A fresh insert grows the store unless eviction kicked in
                # (possibly evicting the newcomer's own bucket back down).
                assert store.count() in (before, before + 1)
            if not changed:
                assert store.count() == before
        elif op < 70:
            link_id = rng.randint(1, 12)
            removed = store.remove_crossing(link_id)
            assert store.count() == before - removed
            assert not any(
                link_id in pcb.link_ids() for pcb in store.all_beacons()
            )
        elif op < 80:
            asn = rng.randint(2, 9)
            removed = store.remove_traversing_as(asn)
            assert store.count() == before - removed
            assert not any(
                pcb.contains_as(asn) for pcb in store.all_beacons()
            )
        elif op < 90:
            removed = store.purge_expired(now)
            assert store.count() == before - removed
            assert all(
                pcb.is_valid(now) for pcb in store.all_beacons(now=now)
            )
        elif op < 95:
            beacons = list(store.all_beacons())
            if beacons:
                victim = rng.choice(beacons)
                assert store.remove(victim.path_key()) is victim
                assert store.count() == before - 1
                assert store.remove(victim.path_key()) is None
        else:
            assert store.clear() == before
            assert store.count() == 0
        check_invariants(store)


@pytest.mark.parametrize("seed", range(4))
def test_unlimited_store_never_evicts(seed):
    rng = Random(100 + seed)
    store = BeaconStore(storage_limit=None)
    inserted = set()
    now = 1.0
    for _ in range(200):
        pcb = random_pcb(rng, now)
        if store.insert(pcb, now):
            inserted.add(pcb.path_key())
        check_invariants(store)
    assert store.count() == len(inserted)


def test_limit_reached_keeps_count_stable():
    """Once an origin bucket is at the limit, inserts of distinct paths
    never push the count beyond it, whatever the interleaving."""
    rng = Random(7)
    store = BeaconStore(storage_limit=3)
    now = 5.0
    for _ in range(100):
        store.insert(random_pcb(rng, now), now)
        for origin in store.origins():
            assert store.count(origin) <= 3


class RescanningStore(BeaconStore):
    """The eviction the store had before it tracked expiries: every fresh
    insert re-scans its bucket for invalid beacons and rebuilds every
    beacon's eviction key. Kept here as the reference the scan-free
    ``_evict`` must agree with."""

    def insert(self, pcb, now):
        if not pcb.is_valid(now):
            return False
        bucket = self._by_origin.setdefault(pcb.origin, {})
        key = pcb.path_key()
        existing = bucket.get(key)
        if existing is not None:
            if pcb.issued_at <= existing.issued_at:
                return False
            bucket[key] = pcb
            self._sorted_cache.pop(pcb.origin, None)
            return True
        bucket[key] = pcb
        self._sorted_cache.pop(pcb.origin, None)
        self._evict(pcb.origin, now)
        return key in bucket

    def _evict(self, origin, now):
        bucket = self._by_origin[origin]
        for key in [k for k, pcb in bucket.items() if not pcb.is_valid(now)]:
            del bucket[key]
        self._sorted_cache.pop(origin, None)
        if self.storage_limit is None:
            return
        while len(bucket) > self.storage_limit:
            if self.eviction_policy == "diverse":
                worst = self._most_redundant(bucket)
            else:
                worst = max(
                    bucket.values(),
                    key=lambda pcb: (
                        pcb.path_length, -pcb.issued_at, pcb.path_key()
                    ),
                )
            del bucket[worst.path_key()]


def contents(store: BeaconStore):
    return {origin: store.beacons(origin) for origin in store.origins()}


@pytest.mark.parametrize("eviction_policy", ["shortest", "diverse"])
@pytest.mark.parametrize("seed", range(10))
def test_scan_free_eviction_drops_what_a_full_rescan_drops(seed, eviction_policy):
    rng = Random(1000 + seed)
    store = BeaconStore(storage_limit=4, eviction_policy=eviction_policy)
    reference = RescanningStore(storage_limit=4, eviction_policy=eviction_policy)
    now = 10.0
    sent = []  # inserted beacons, the pool newer instances are drawn from
    for _ in range(500):
        # Mostly forwards; now and then the clock a caller passes steps back.
        now += rng.random() * 4 if rng.random() < 0.95 else -rng.random() * 3
        op = rng.randrange(100)
        if op < 55:
            # Mixed lifetimes: some beacons expire within a few operations.
            pcb = random_pcb(rng, now)
            pcb = PCB(
                pcb.origin, pcb.issued_at, rng.choice([3.0, 8.0, 40.0, 400.0]),
                pcb.hops,
            )
        elif op < 80 and sent:
            # A newer (or, rarely, older) instance over a path seen before.
            old = rng.choice(sent)
            pcb = PCB(
                old.origin, now - rng.choice([0.0, 0.0, 0.5, 30.0]),
                old.lifetime, old.hops,
            )
        elif op < 90:
            link_id = rng.randint(1, 12)
            assert store.remove_crossing(link_id) == reference.remove_crossing(
                link_id
            )
            pcb = None
        else:
            assert store.purge_expired(now) == reference.purge_expired(now)
            pcb = None
        if pcb is not None:
            sent.append(pcb)
            assert store.insert(pcb, now) == reference.insert(pcb, now)
        assert store.count() == reference.count()
        assert contents(store) == contents(reference)
        for origin in store.origins():
            assert store.beacons(origin, now) == reference.beacons(origin, now)
