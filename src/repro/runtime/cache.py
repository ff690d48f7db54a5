"""Content-addressed disk cache for expensive experiment prerequisites.

The experiment pipeline repeats three costly steps across figures, storage
limits and re-runs: generating the synthetic Internet, constructing the
core/ISD topologies, and driving a beaconing simulation through its
steady-state warm-up. All three are deterministic functions of the
:class:`~repro.experiments.config.ExperimentScale` and the beaconing
configuration, so their results are cached to disk keyed by a content hash
of those inputs (the measurement-platform pattern of caching pipeline state
between stages, cf. Iris).

Cache entries are pickles written atomically (temp file + ``os.replace``)
so concurrent workers of one process pool — or two concurrent experiment
invocations — never observe a half-written entry. A corrupted or
unreadable entry is treated as a miss and deleted, never propagated.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, Optional, Tuple

__all__ = [
    "CACHE_DIR_ENV",
    "ExperimentCache",
    "default_cache_dir",
    "fingerprint",
    "stable_key",
    "topology_fingerprint",
]

#: Environment variable overriding the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Bump to invalidate every existing cache entry on format changes.
#: "2": BeaconingSimulation snapshots gained fault-injection state
#: (failed-AS set, loss model, loss counter, algorithm factory).
#: "3": PCB, Hop, SentRecord and LinkHistoryTable became slotted.
#: "4": SentRegistry keyed by pair, then path; BeaconStore drops its caches.
_CACHE_VERSION = "4"


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``~/.cache/repro``."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro"


def _canonical(value: Any) -> Any:
    """Reduce ``value`` to JSON-serializable primitives, deterministically."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {
            f.name: _canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
        return {"__dataclass__": type(value).__name__, **fields}
    if isinstance(value, enum.Enum):
        return {"__enum__": type(value).__name__, "value": _canonical(value.value)}
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_canonical(v) for v in value)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(
        f"cannot fingerprint {type(value).__name__!r}; pass primitives, "
        "dataclasses, enums or containers of them"
    )


def fingerprint(*parts: Any) -> str:
    """Stable content hash of arbitrary (canonicalizable) inputs."""
    payload = json.dumps(
        [_CACHE_VERSION, _canonical(list(parts))],
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def stable_key(kind: str, *parts: Any) -> str:
    """A namespaced cache key: ``<kind>-<content hash>``."""
    return f"{kind}-{fingerprint(*parts)[:32]}"


def topology_fingerprint(topology) -> str:
    """Content hash of a :class:`~repro.topology.model.Topology`.

    Covers the AS set (with ISD/core flags) and every link with its
    endpoints, interface ids, relationship and location — everything the
    beaconing simulations read.
    """
    ases = sorted(
        (node.asn, node.isd if node.isd is not None else -1, node.is_core)
        for node in topology.ases()
    )
    links = sorted(
        (
            link.link_id,
            link.a.asn,
            link.a.ifid,
            link.b.asn,
            link.b.ifid,
            link.relationship.value,
            link.location,
        )
        for link in topology.links()
    )
    return fingerprint("topology", ases, links)


class ExperimentCache:
    """Pickle-backed key/value store with corruption recovery."""

    def __init__(self, directory: Optional[os.PathLike] = None) -> None:
        self.directory = Path(directory) if directory else default_cache_dir()
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------- io

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.pkl"

    def load(self, key: str) -> Tuple[bool, Any]:
        """Return ``(hit, value)``; corrupted entries count as misses."""
        path = self._path(key)
        try:
            with path.open("rb") as handle:
                value = pickle.load(handle)
        except FileNotFoundError:
            self.misses += 1
            return False, None
        except Exception:
            # Truncated write, stale format, unpicklable class rename, ...:
            # recover by dropping the entry and rebuilding.
            self.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return False, None
        self.hits += 1
        return True, value

    def store(self, key: str, value: Any) -> None:
        path = self._path(key)
        fd, tmp_name = tempfile.mkstemp(
            dir=self.directory, prefix=f".{key}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def get_or_build(self, key: str, build) -> Tuple[bool, Any]:
        """Load ``key``, or build, store and return it. ``(hit, value)``."""
        hit, value = self.load(key)
        if hit:
            return True, value
        value = build()
        self.store(key, value)
        return False, value

    # ------------------------------------------------------------ inventory

    def clear(self) -> int:
        """Delete every cache entry; returns how many were removed."""
        removed = 0
        for path in self.directory.glob("*.pkl"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ExperimentCache({str(self.directory)!r}, hits={self.hits}, "
            f"misses={self.misses})"
        )
