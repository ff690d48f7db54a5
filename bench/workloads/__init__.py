"""The four workloads. Each module exposes:

``SETUP_REPEATS``
    how many times the untraced run repeats ``setup`` (``setup_s`` is the
    median);
``setup(run) -> state``
    build inputs from ``run.seed`` and bring the system to the state the
    timed work starts from; nothing here counts towards ``work_s``;
``work(run, state)``
    the fixed, checked work, timed stage by stage with ``run.stage``;
    identical code runs untraced and traced;
``instrument(run, state)``
    traced run only: wrap the calls too frequent for a span each;
``layers(run, state, untraced)``
    traced run only: derive the per-layer metrics and make the per-layer
    measurements that are not part of the work.
"""

import importlib
import shutil
import tempfile
from contextlib import contextmanager
from pathlib import Path

#: Scratch space inside the checkout (git-ignored), emptied after use.
WORK_DIR = Path(__file__).resolve().parent.parent / ".work"


def get(name: str):
    return importlib.import_module(f"workloads.{name}")


@contextmanager
def scratch_dir():
    """A fresh directory under ``bench/.work``, removed on exit."""
    WORK_DIR.mkdir(exist_ok=True)
    directory = tempfile.mkdtemp(dir=WORK_DIR)
    try:
        yield directory
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def build_network(run, leaves_per_core: int):
    """The ran test-scale full-stack network ``endpoint_stack`` and
    ``upper_stack`` start from; in the traced run its two steps are spans
    and per-layer metrics."""
    S = run.S
    scale = S.get_scale("test").scaled(seed=run.topology_seed)
    with run.tracer.span("topology.full_stack_build") as build:
        topology = S.build_full_stack_topology(
            scale, leaves_per_core=leaves_per_core
        )
    with run.tracer.span("control.network_run") as control:
        network = S.ScionNetwork(
            topology,
            algorithm="diversity",
            core_config=scale.core_beaconing_config(5),
            intra_config=scale.intra_isd_config(5),
        ).run()
    if run.tracer.enabled:
        run.put("topology.full_stack_build.s", build.seconds)
        run.put("control.network_run.s", control.seconds)
    return network


def percentile(ordered, fraction: float) -> float:
    """The sample at ``fraction`` of an ascending list."""
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]
