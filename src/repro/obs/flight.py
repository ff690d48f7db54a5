"""Dump-on-failure flight recorder.

Always-on services can't afford to persist every event, but when a
request times out or an invariant trips, the events *leading up to* the
failure are exactly what a post-mortem needs. The flight recorder keeps
a bounded ring of recent events per subsystem (admission, execute,
lookup, shard, ...) at O(1) cost per record, and only materializes them
— to memory always, to a JSONL file when a directory is configured —
when a trigger fires: request timeout, retry exhaustion,
``DeadlockError``, or invariant failure.

Timestamps come from the same pluggable clock as causal spans (the
service's virtual clock), so dumps are deterministic and replayable.
Dump files are named ``flight-{seq:03d}-{trigger}.jsonl`` with a
monotonically increasing sequence number; a ``max_dumps`` cap keeps a
pathological run (every request timing out) from writing thousands of
near-identical post-mortems — further triggers are counted but
suppressed.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from typing import Callable, Deque, Dict, List, Optional

__all__ = ["FlightRecorder"]


class FlightRecorder:
    """Per-subsystem ring buffers that dump JSONL on failure triggers."""

    def __init__(
        self,
        enabled: bool = True,
        *,
        capacity: int = 256,
        max_dumps: int = 8,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.enabled = enabled
        self.capacity = capacity
        self.max_dumps = max_dumps
        self.clock = clock
        self.directory: Optional[Path] = None
        self.rings: Dict[str, Deque[Dict]] = {}
        #: Every dump taken this run (also written to ``directory`` if set).
        self.dumps: List[Dict] = []
        self.suppressed = 0
        self._seq = 0
        self._events = 0

    def configure(
        self,
        *,
        clock: Optional[Callable[[], float]] = None,
        directory: Optional[str] = None,
    ) -> "FlightRecorder":
        """Late binding of the clock and the dump directory. Ring
        capacity and the dump cap are fixed at construction: rings
        already hold their ``maxlen``."""
        if clock is not None:
            self.clock = clock
        if directory is not None:
            self.directory = Path(directory)
        return self

    def _now(self) -> float:
        return self.clock() if self.clock is not None else 0.0

    def record(self, subsystem: str, event: str, **fields) -> None:
        """Append one event to ``subsystem``'s ring (evicting the oldest
        once the ring is at capacity). ``seq``, ``t`` and ``event`` are
        the record's own: a field of the same name does not replace
        them."""
        if not self.enabled:
            return
        ring = self.rings.get(subsystem)
        if ring is None:
            ring = self.rings[subsystem] = deque(maxlen=self.capacity)
        self._events += 1
        record = {
            "seq": self._events, "t": round(self._now(), 9), "event": event
        }
        for key, value in fields.items():
            record.setdefault(key, value)
        ring.append(record)

    def dump(self, trigger: str, *, detail: Optional[Dict] = None) -> Optional[Dict]:
        """Materialize every ring into a post-mortem record.

        Returns the dump dict (also kept in :attr:`dumps`), or ``None``
        when disabled or the ``max_dumps`` cap suppressed it.
        """
        if not self.enabled:
            return None
        if len(self.dumps) >= self.max_dumps:
            self.suppressed += 1
            return None
        self._seq += 1
        dump = {
            "dump": self._seq,
            "trigger": trigger,
            "t": round(self._now(), 9),
            "detail": detail or {},
            "events": {
                subsystem: list(ring)
                for subsystem, ring in sorted(self.rings.items())
            },
        }
        self.dumps.append(dump)
        if self.directory is not None:
            self._write(dump)
        return dump

    def _write(self, dump: Dict) -> Path:
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.directory / f"flight-{dump['dump']:03d}-{dump['trigger']}.jsonl"
        with path.open("w", encoding="utf-8") as handle:
            header = {
                key: dump[key] for key in ("dump", "trigger", "t", "detail")
            }
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for subsystem, events in dump["events"].items():
                for event in events:
                    record = {"subsystem": subsystem}
                    record.update(event)
                    handle.write(json.dumps(record, sort_keys=True) + "\n")
        return path

    def summary(self) -> Dict:
        """Run-level accounting for reports: triggers taken/suppressed
        and total events recorded."""
        return {
            "dumps": len(self.dumps),
            "suppressed": self.suppressed,
            "events": self._events,
            "triggers": [d["trigger"] for d in self.dumps],
        }
