"""Property-based BeaconStore tests: randomized operation interleavings
(fixed seeds, plain ``random.Random`` — no extra dependencies) against the
store's count/limit/consistency invariants."""

from random import Random

import pytest

from repro.core import BeaconStore, PCB


def random_pcb(rng: Random, now: float, origin: int = None) -> PCB:
    """A random loop-free beacon over a small AS/link id space."""
    origin = origin or rng.randint(1, 4)
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
    ``insert`` must agree with."""

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


def worst_of_a_full_bucket(rng: Random, store: BeaconStore):
    """The beacon the ``shortest`` policy would evict next from one of the
    full buckets (the one the store may be remembering), or None."""
    full = [
        origin
        for origin in store.origins()
        if store.count(origin) == store.storage_limit
    ]
    if not full:
        return None
    return max(
        store.beacons(rng.choice(full)),
        key=lambda pcb: (pcb.path_length, -pcb.issued_at, pcb.path_key()),
    )


@pytest.mark.parametrize("eviction_policy", ["shortest", "diverse"])
@pytest.mark.parametrize("seed", range(10))
def test_scan_free_eviction_drops_what_a_full_rescan_drops(seed, eviction_policy):
    rng = Random(1000 + seed)
    store = BeaconStore(storage_limit=4, eviction_policy=eviction_policy)
    reference = RescanningStore(storage_limit=4, eviction_policy=eviction_policy)
    now = 10.0
    sent = []  # inserted beacons, the pool newer instances are drawn from
    # Odd seeds: some beacons expire within a few operations. Even seeds:
    # buckets stay full with no expiry due, where the store answers from
    # the worst beacon it remembers.
    lifetimes = [3.0, 8.0, 40.0, 400.0] if seed % 2 else [400.0, 400.0, 90.0]
    for _ in range(700):
        # Mostly forwards; now and then the clock a caller passes steps back.
        now += rng.random() * 4 if rng.random() < 0.95 else -rng.random() * 3
        op = rng.randrange(130)
        pcb = None
        worst = worst_of_a_full_bucket(rng, reference) if op >= 100 else None
        if op < 55:
            pcb = random_pcb(rng, now)
            pcb = PCB(
                pcb.origin, pcb.issued_at, rng.choice(lifetimes), pcb.hops
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
        elif op < 100:
            assert store.purge_expired(now) == reference.purge_expired(now)
        elif worst is None:
            continue
        # From here on: aimed at the worst beacon of a full bucket, the one
        # the store remembers to turn worse newcomers away without a scan.
        elif op < 108:
            # Replaced in place by a newer instance: no longer the worst.
            pcb = PCB(worst.origin, max(now, worst.issued_at + 1.0), 400.0, worst.hops)
            now = pcb.issued_at
        elif op < 114:
            # A newcomer tying it on length and age, either side of its key.
            hops = worst.hops[:-1] + (
                type(worst.hops[-1])(
                    worst.hops[-1].asn,
                    worst.hops[-1].ingress_link_id + rng.choice([-1, 1]),
                ),
            ) if worst.path_length else worst.hops
            pcb = PCB(worst.origin, worst.issued_at, worst.lifetime, hops)
        elif op < 118:
            # An insert at the very moment the bucket's first expiry is due
            # (or, one time in three, just before it).
            now = min(p.expires_at for p in reference.beacons(worst.origin))
            now -= rng.choice([0.0, 0.0, 0.25])
            pcb = random_pcb(rng, now, worst.origin)
        elif op < 121:
            assert store.remove(worst.path_key()) == reference.remove(
                worst.path_key()
            )
        elif op < 124 and worst.link_ids():
            link_id = rng.choice(worst.link_ids())
            assert store.remove_crossing(link_id) == reference.remove_crossing(
                link_id
            )
        elif op < 127 and worst.path_length:
            asn = rng.choice(worst.path_asns()[1:])
            assert store.remove_traversing_as(
                asn
            ) == reference.remove_traversing_as(asn)
        elif op < 129:
            now = max(now, worst.expires_at)
            assert store.purge_expired(now) == reference.purge_expired(now)
        else:
            assert store.clear() == reference.clear()
        if pcb is not None:
            sent.append(pcb)
            assert store.insert(pcb, now) == reference.insert(pcb, now)
        assert store.count() == reference.count()
        assert contents(store) == contents(reference)
        for origin in store.origins():
            assert store.beacons(origin, now) == reference.beacons(origin, now)
        # What the store remembers is what a rescan would find.
        for origin, remembered in store._worst.items():
            assert store.count(origin) == store.storage_limit
            assert remembered is max(
                store.beacons(origin),
                key=lambda pcb: (pcb.path_length, -pcb.issued_at, pcb.path_key()),
            )


def test_replacing_the_remembered_worst_in_place_forgets_it():
    """The newer instance of the worst beacon is a *better* beacon, so
    another one becomes the worst; a newcomer between the two must lose to
    the new worst, not push the refreshed path out."""
    store = BeaconStore(storage_limit=2)
    reference = RescanningStore(storage_limit=2)
    old = PCB.originate(1, 0.0, 400.0).extend(5, 2)
    middle = PCB.originate(1, 2.0, 400.0).extend(6, 2)
    newcomers = [
        PCB.originate(1, 0.0, 400.0).extend(9, 2),  # worse than both: sets the memory
        PCB(1, 5.0, 400.0, old.hops),  # the worst, refreshed in place
        PCB.originate(1, 1.0, 400.0).extend(7, 2),  # older than ``middle`` only
    ]
    for both in (store, reference):
        assert both.insert(old, 5.0) and both.insert(middle, 5.0)
        assert [both.insert(pcb, 5.0) for pcb in newcomers] == [False, True, False]
    assert contents(store) == contents(reference)
    assert store.get(old.path_key()).issued_at == 5.0
