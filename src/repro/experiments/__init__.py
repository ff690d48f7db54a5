"""Experiment harnesses: one module per table/figure of the paper."""

from .config import (
    BENCH_SCALE,
    PAPER_SCALE,
    TEST_SCALE,
    ExperimentScale,
    get_scale,
)
from .common import (
    CoreTopologies,
    build_core_topologies,
    build_full_stack_topology,
    build_internet,
    build_large_isd,
)
from .table1 import Table1Result, Table1Row, run_table1
from .figure5 import Figure5Result, run_figure5
from .figure6 import Figure6Result, run_figure6, sample_pairs
from .scionlab import ScionlabResult, run_scionlab
from .gridsearch import GridSearchExperiment, run_gridsearch

__all__ = [
    "BENCH_SCALE",
    "PAPER_SCALE",
    "TEST_SCALE",
    "ExperimentScale",
    "get_scale",
    "CoreTopologies",
    "build_core_topologies",
    "build_full_stack_topology",
    "build_internet",
    "build_large_isd",
    "Table1Result",
    "Table1Row",
    "run_table1",
    "Figure5Result",
    "run_figure5",
    "Figure6Result",
    "run_figure6",
    "sample_pairs",
    "ScionlabResult",
    "run_scionlab",
    "GridSearchExperiment",
    "run_gridsearch",
]
