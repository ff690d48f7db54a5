"""Opt-in sampling profiler for simulation and forwarding hot loops.

The profiler is a *sampling timer*, not a tracer: every call to a phase
is counted, but only every ``sample_every``-th call is actually timed
(two ``perf_counter`` reads), and the total is extrapolated from the
sampled mean. That keeps the enabled overhead proportional to
``1/sample_every`` on loops that run millions of iterations — the
simulator event loop and the per-packet forwarding loop — while still
ranking hot phases accurately.

Disabled profilers return the shared no-op span, so the guard on a hot
path is one attribute load and one branch.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

from .context import NULL_SPAN

__all__ = ["Profiler"]


class _ProfiledSpan:
    __slots__ = ("profiler", "phase", "start")

    def __init__(self, profiler: "Profiler", phase: str) -> None:
        self.profiler = profiler
        self.phase = phase

    def __enter__(self) -> "_ProfiledSpan":
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        elapsed = time.perf_counter() - self.start
        profiler = self.profiler
        profiler._seconds[self.phase] = (
            profiler._seconds.get(self.phase, 0.0) + elapsed
        )
        profiler._samples[self.phase] = (
            profiler._samples.get(self.phase, 0) + 1
        )
        return False


class Profiler:
    """Counts phase entries; times a deterministic 1-in-N sample."""

    def __init__(self, enabled: bool = False, sample_every: int = 8) -> None:
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.enabled = enabled
        self.sample_every = sample_every
        self._calls: Dict[str, int] = {}
        self._samples: Dict[str, int] = {}
        self._seconds: Dict[str, float] = {}

    def sample(self, phase: str):
        """Context manager for one entry into ``phase``.

        Always counts the call; times it only on the sampling grid.
        """
        if not self.enabled:
            return NULL_SPAN
        calls = self._calls.get(phase, 0)
        self._calls[phase] = calls + 1
        if calls % self.sample_every:
            return NULL_SPAN
        return _ProfiledSpan(self, phase)

    # ------------------------------------------------------------- reports

    def report(self) -> Dict[str, Dict[str, float]]:
        """Per-phase calls, timed samples, and extrapolated seconds."""
        out: Dict[str, Dict[str, float]] = {}
        for phase, calls in self._calls.items():
            samples = self._samples.get(phase, 0)
            sampled = self._seconds.get(phase, 0.0)
            estimate = sampled * (calls / samples) if samples else 0.0
            out[phase] = {
                "calls": calls,
                "samples": samples,
                "seconds_sampled": sampled,
                "seconds_estimate": estimate,
            }
        return out

    def hot_phases(self, count: int = 10) -> List[Tuple[str, float]]:
        """Top phases by extrapolated wall seconds, hottest first."""
        report = self.report()
        ranked = sorted(
            report.items(),
            key=lambda item: (-item[1]["seconds_estimate"], item[0]),
        )
        return [
            (phase, stats["seconds_estimate"])
            for phase, stats in ranked[:count]
        ]
