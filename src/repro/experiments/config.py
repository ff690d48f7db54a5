"""Experiment scales, and the registry entry every experiment exports.

The paper's evaluation runs at Internet scale (12000-AS CAIDA topology,
2000 core ASes in 200 ISDs, a 7028-AS ISD) on an ns-3 cluster. A pure-
Python reproduction parameterizes every size, with four presets:

* ``MINI`` — a 40-AS, 2-ISD full-stack network that builds in well under
  a second: what CI and the service unit/load tests serve against;
* ``TEST`` — seconds-fast, for unit/integration tests;
* ``BENCH`` — the default ``--scale`` of ``python -m repro.experiments``
  (minutes per figure) and the core that ``bench/``'s ``core_beaconing``
  workload steps, large enough that the paper's orderings and factor gaps
  are visible;
* ``PAPER`` — the published sizes, for machines with hours to spare.

The timing parameters (10-minute beaconing interval, 6-hour PCB lifetime,
dissemination limit 5) are the paper's for all presets; only topology sizes
and sample counts shrink.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Optional, Tuple

from ..simulation.beaconing import BeaconingConfig, BeaconingMode

__all__ = [
    "ExperimentScale", "MINI_SCALE", "TEST_SCALE", "BENCH_SCALE", "PAPER_SCALE",
    "SCALES", "get_scale", "scale_preset", "positive_int", "Experiment", "Text",
]


@dataclass(frozen=True)
class ExperimentScale:
    """All knobs an experiment needs, bundled."""

    name: str
    #: Synthetic Internet size (the AS-rel-geo stand-in).
    internet_ases: int
    #: Core network: number of ISDs and core ASes per ISD.
    num_isds: int
    cores_per_isd: int
    #: Large-ISD experiment: number of core ASes and a cap on members.
    isd_cores: int
    isd_max_ases: int
    #: How many monitor ASes Figure 5 reports over.
    num_monitors: int
    #: How many AS pairs Figures 6a/6b sample.
    num_pairs: int
    #: Beaconing timing (paper defaults).
    interval: float = 600.0
    duration: float = 6 * 3600.0
    pcb_lifetime: float = 6 * 3600.0
    #: Steady-state warm-up before Figure 5 measures (in intervals).
    warmup_intervals: int = 36
    seed: int = 7

    @property
    def core_ases(self) -> int:
        return self.num_isds * self.cores_per_isd

    def core_beaconing_config(
        self, storage_limit: Optional[int] = 60
    ) -> BeaconingConfig:
        return BeaconingConfig(
            interval=self.interval,
            duration=self.duration,
            pcb_lifetime=self.pcb_lifetime,
            storage_limit=storage_limit,
            mode=BeaconingMode.CORE,
        )

    def intra_isd_config(
        self, storage_limit: Optional[int] = 60
    ) -> BeaconingConfig:
        return BeaconingConfig(
            interval=self.interval,
            duration=self.duration,
            pcb_lifetime=self.pcb_lifetime,
            storage_limit=storage_limit,
            mode=BeaconingMode.INTRA_ISD,
        )

    def scaled(self, **overrides) -> "ExperimentScale":
        return replace(self, **overrides)


TEST_SCALE = ExperimentScale(
    name="test",
    internet_ases=120,
    num_isds=3,
    cores_per_isd=4,
    isd_cores=2,
    isd_max_ases=40,
    num_monitors=8,
    num_pairs=20,
    duration=6 * 600.0,
    warmup_intervals=6,
)

MINI_SCALE = replace(
    TEST_SCALE,
    name="mini",
    internet_ases=40,
    num_isds=2,
    cores_per_isd=2,
    isd_max_ases=20,
)

BENCH_SCALE = ExperimentScale(
    name="bench",
    internet_ases=250,
    num_isds=4,
    cores_per_isd=4,
    isd_cores=4,
    isd_max_ases=100,
    num_monitors=10,
    num_pairs=80,
    warmup_intervals=36,
)

PAPER_SCALE = ExperimentScale(
    name="paper",
    internet_ases=12000,
    num_isds=200,
    cores_per_isd=10,
    isd_cores=11,
    isd_max_ases=7028,
    num_monitors=26,
    num_pairs=2000,
    warmup_intervals=36,
)


#: Every preset by name; ``--scale`` takes its ``choices=`` from here.
SCALES = {
    s.name: s for s in (MINI_SCALE, TEST_SCALE, BENCH_SCALE, PAPER_SCALE)
}


def get_scale(name: str) -> ExperimentScale:
    try:
        return SCALES[name]
    except KeyError:
        raise ValueError(
            f"unknown scale {name!r}; choose from {sorted(SCALES)}"
        ) from None


def scale_preset(table: Mapping, scale_name: str, family: str):
    """``table[scale_name]`` — a family's per-scale sizing row — or a
    ``ValueError`` naming the family, the scale and the presets it has."""
    if scale_name not in table:
        raise ValueError(
            f"{family} has no sizing for scale {scale_name!r}; "
            f"known presets: {', '.join(table)}"
        )
    return table[scale_name]


def positive_int(text: str) -> int:
    """``type=`` of every count flag: an integer >= 1. argparse turns the
    error into an exit-2 usage message naming the flag."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


@dataclass(frozen=True)
class Experiment:
    """One sub-command of ``python -m repro.experiments``: each family's
    module exports one as ``EXPERIMENT``; the driver is generic over them."""

    name: str
    help: str
    #: ``run(args, scale, runtime)`` → a result with ``.render()``.
    run: Callable
    aliases: Tuple[str, ...] = ()
    #: The presets the family has sizing for: its ``--scale`` choices.
    scales: Tuple[str, ...] = tuple(SCALES)
    #: Whether the ``all`` sub-command runs it.
    in_all: bool = True
    #: Takes ``--jobs/--backend`` and the cache flags, prints its
    #: timing report, opens a root span.
    uses_runtime: bool = True
    #: Declares, on the sub-command's parser, the flags only this family reads.
    add_arguments: Callable = lambda parser: None


@dataclass(frozen=True)
class Text:
    """An experiment result that is already its rendering."""

    text: str

    def render(self) -> str:
        return self.text
