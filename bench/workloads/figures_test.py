"""figures_test: the paper's artefact suite at test scale.

One pass of Table 1, Figure 5, Figure 6 and the SCIONLab trio (Figures
7-9) through ``ExperimentRuntime(jobs=1, cache=None)``, each result
rendered. This is ROADMAP's definition of end to end: diversity beaconing
is about 65% of it, baseline beaconing 15%, BGP 5%, analysis 6%, so a
gain in any of those layers shows here in proportion, and so does
overhead added by a runtime or CLI refactor.

Checks: at the golden topology seed and full size every Figure 5/6 series
is compared with ``tests/fixtures/figure{5,6}_test.json`` exactly as
``tests/test_golden_regression.py`` does; at every seed the properties
that held on all 35 topology seeds tried at test scale (Table 1
classification, Figure 5 diversity < baseline and intra-ISD < diversity,
Figure 6 orderings and optimum bound, SCIONLab diversity not below the
measurement proxy), and a non-empty render per artefact. Below full size the simulated horizon is
too short for the shape properties, so only structure is checked.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import catalogue
from workloads import scratch_dir

SETUP_REPEATS = 3

ARTEFACTS = ("table1", "figure5", "figure6", "scionlab")
REPO = Path(__file__).resolve().parent.parent.parent
FIXTURES = REPO / "tests" / "fixtures"


def setup(run):
    base = run.S.get_scale("test")
    intervals = run.scaled(int(base.duration // base.interval))
    scale = base.scaled(
        seed=run.topology_seed,
        duration=intervals * base.interval,
        warmup_intervals=run.scaled(base.warmup_intervals),
        num_pairs=run.scaled(base.num_pairs, minimum=4),
    )
    golden = None
    if run.full_size and run.topology_seed == catalogue.GOLDEN_SEED:
        # A missing fixture is a check that cannot run: fail loudly.
        golden = {
            name: json.loads((FIXTURES / f"{name}_test.json").read_text())
            for name in ("figure5", "figure6")
        }
    return {"scale": scale, "golden": golden}


def _suite(run, scale, cache):
    """One pass over the four artefacts; returns results and reports."""
    S = run.S
    runners = {
        "table1": lambda rt: S.run_table1(scale, runtime=rt),
        "figure5": lambda rt: S.run_figure5(scale, runtime=rt),
        "figure6": lambda rt: S.run_figure6(scale, runtime=rt),
        "scionlab": lambda rt: S.run_scionlab(
            scale, seed=run.topology_seed, runtime=rt
        ),
    }
    # The suite's only demand-side input is the order a user asks for the
    # artefacts in; each builds its own topologies, so cost is unchanged.
    order = list(ARTEFACTS)
    random.Random(run.seed).shuffle(order)
    results, reports = {}, {}
    for name in order:
        runtime = S.ExperimentRuntime(jobs=1, cache=cache)
        with run.stage(name):
            results[name] = runners[name](runtime)
            text = results[name].render()
        reports[name] = runtime.report
        run.check(bool(text.strip()), f"{name}: empty render")
    return results, reports


def work(run, state):
    results, state["reports"] = _suite(run, state["scale"], None)
    run.put("suite_s", run.work_s)
    with run.tracer.span("check"):
        _check(run, results, state["golden"])


def _check(run, results, golden):
    S = run.S
    figure5, figure6 = results["figure5"], results["figure6"]
    median = figure5.median_relative
    run.check(
        all(median(name) > 0 for name in S.FIGURE5_SERIES),
        "figure5: a series has a non-positive median",
    )
    optimum = figure6.values["optimum"]
    run.check(
        all(
            0 <= value <= best
            for name in figure6.series_names()
            for value, best in zip(figure6.values[name], optimum)
        ),
        "figure6: a series exceeds the optimum",
    )
    if run.full_size:
        run.check(results["table1"].matches_paper(), "table1: classification")
        run.check(
            median("scion-core-diversity") < median("scion-core-baseline"),
            "figure5: diversity not below baseline",
        )
        run.check(
            median("scion-intra-isd-baseline") < median("scion-core-diversity"),
            "figure5: intra-ISD not the cheapest SCION component",
        )
        run.check(figure6.orderings_hold(), "figure6: orderings")
        lab = results["scionlab"]
        floor = lab.mean_fraction_of_optimum("measurement") - 0.02
        run.check(
            all(
                lab.mean_fraction_of_optimum(f"diversity({k})") >= floor
                for k in (5, 10, 15, 60)
            ),
            "scionlab: diversity below the measurement proxy",
        )
    if golden is None:
        return
    monthly = figure5.comparison.monthly_bytes
    for series, expected in golden["figure5"]["monthly_bytes"].items():
        actual = {str(asn): v for asn, v in monthly.get(series, {}).items()}
        run.check(
            sorted(actual) == sorted(expected)
            and all(
                math.isclose(actual[asn], value, rel_tol=1e-9)
                for asn, value in expected.items()
            ),
            f"figure5 golden: series {series!r} diverged",
        )
    run.check(
        [list(pair) for pair in figure6.pairs] == golden["figure6"]["pairs"],
        "figure6 golden: sampled pair set changed",
    )
    for series, expected in golden["figure6"]["values"].items():
        run.check(
            list(figure6.values.get(series, ())) == expected,
            f"figure6 golden: series {series!r} diverged",
        )


def instrument(run, state):
    """Nothing to wrap: the simulations are created inside the runtime's
    task bodies, out of reach from outside. ``core_beaconing`` wraps the
    same select/insert calls on simulations it owns."""


def layers(run, state, untraced):
    S = run.S
    scale = state["scale"]
    phases = [p for report in state["reports"].values() for p in report.phases]
    for name in ARTEFACTS:
        run.put(f"experiments.{name}.s", run.stages[name].wall_s)
    run.put(
        "runtime.overhead_s", run.work_s - sum(p.seconds for p in phases)
    )
    run.put(
        "analysis.optimum_max_flow.s",
        sum(p.seconds for p in phases if p.name == "optimum-max-flow"),
    )
    run.put(
        "analysis.evaluate_pairs.s",
        sum(p.seconds for p in phases if p.name.endswith(":analyze")),
    )

    with run.tracer.span("layer:topology.generate_internet") as span:
        internet = S.build_internet(scale)
    run.put("topology.generate_internet.s", span.seconds)
    with run.tracer.span("layer:topology.core_build") as span:
        S.build_core_topologies(scale)
    run.put("topology.core_build.s", span.seconds)
    with run.tracer.span("layer:bgp.convergence") as span:
        bgp = S.BGPSimulation(internet).run()
    run.put("bgp.convergence.s", span.seconds)
    run.put("bgp.updates_per_s", bgp.total_updates() / span.seconds)
    run.counts["bgp.updates"] = bgp.total_updates()
    run.check(bgp.converged, "bgp: did not converge")

    # Second pass against a warm cache directory; the first fills it.
    with scratch_dir() as cache_dir:
        filler = run.child()
        with run.tracer.span("layer:runtime.cache_fill"):
            _suite(filler, scale, cache_dir)
        warm = run.child()
        with run.tracer.span("layer:runtime.warm_cache"):
            _, reports = _suite(warm, scale, cache_dir)
    warm_phases = [p for report in reports.values() for p in report.phases]
    cached = sum(len(report.cached_phases()) for report in reports.values())
    run.put("runtime.warm_cache.suite_s", warm.work_s)
    run.put("runtime.warm_cache.hit_ratio", cached / len(warm_phases))
    run.check(
        warm.failed == 0 and filler.failed == 0,
        "runtime: a cached pass rendered nothing",
    )
