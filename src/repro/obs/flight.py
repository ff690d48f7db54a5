"""Dump-on-failure post-mortems: a slice of the span stream.

Always-on services can't afford to persist every event, but when a
request times out or an invariant trips, what happened *just before* the
failure is exactly what a post-mortem needs. The span recorder already
holds it — admissions, attempts, lookups and faults are spans of their
requests' trees (:mod:`repro.obs.context`) — so the flight recorder keeps
nothing of its own. When a trigger fires (request timeout, request
failed, ``DeadlockError``, invariant failure) it copies the tracer's last
:data:`SPANS_PER_DUMP` records into a post-mortem: to memory always, to
a JSONL file when a directory is set.

The dump's timestamp is the tracer's clock (the service's virtual
clock), so dumps are deterministic and replayable. Files are named
``flight-{n:03d}-{trigger}.jsonl``; after :data:`MAX_DUMPS` a
pathological run (every request timing out) counts further triggers as
suppressed instead of writing thousands of near-identical post-mortems.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional

from .context import CausalTracer

__all__ = ["FlightRecorder", "SPANS_PER_DUMP", "MAX_DUMPS"]

#: Span records one dump carries: the tail of the stream at the trigger.
SPANS_PER_DUMP = 256
#: Dumps one run keeps; later triggers are only counted as suppressed.
MAX_DUMPS = 8


class FlightRecorder:
    """Post-mortems over one tracer's span stream, taken on failure triggers."""

    def __init__(self, causal: CausalTracer) -> None:
        self.causal = causal
        #: Where dumps are also written as files (the bundle's ``flight/``).
        self.directory: Optional[Path] = None
        #: Every dump taken this run.
        self.dumps: List[Dict] = []
        self.suppressed = 0

    @property
    def enabled(self) -> bool:
        return self.causal.enabled

    def dump(self, trigger: str, *, detail: Optional[Dict] = None) -> Optional[Dict]:
        """Materialize the stream's tail into a post-mortem record.

        Returns the dump dict (also kept in :attr:`dumps`), or ``None``
        when disabled or the :data:`MAX_DUMPS` cap suppressed it.
        """
        if not self.enabled:
            return None
        if len(self.dumps) >= MAX_DUMPS:
            self.suppressed += 1
            return None
        dump = {
            "dump": len(self.dumps) + 1,
            "trigger": trigger,
            "t": round(self.causal.now(), 9),
            "detail": detail or {},
            "spans": self.causal.spans[-SPANS_PER_DUMP:],
        }
        self.dumps.append(dump)
        if self.directory is not None:
            path = self.directory / f"flight-{dump['dump']:03d}-{trigger}.jsonl"
            with path.open("w", encoding="utf-8") as handle:
                header = {
                    key: dump[key] for key in ("dump", "trigger", "t", "detail")
                }
                handle.write(json.dumps(header, sort_keys=True) + "\n")
                for span in dump["spans"]:
                    handle.write(json.dumps(span, sort_keys=True) + "\n")
        return dump

    def summary(self) -> Dict:
        """Run-level accounting for reports: triggers taken/suppressed
        and the length of the stream the dumps were cut from."""
        return {
            "dumps": len(self.dumps),
            "suppressed": self.suppressed,
            "events": len(self.causal.spans),
            "triggers": [d["trigger"] for d in self.dumps],
        }
