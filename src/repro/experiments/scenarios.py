"""The ``scenarios`` experiment: run declarative deployment scenarios.

A thin adapter between the CLI and :mod:`repro.scenario`: resolve what to
run (a built-in family at the current scale, or a spec file) and dispatch
through the shared :class:`~repro.runtime.ExperimentRuntime`, so
``--jobs``/caching/telemetry behave exactly
like every other experiment::

    python -m repro.experiments scenarios --family hijack-isolation
    python -m repro.experiments scenarios --scenario-file examples/scenario_partial_deployment.toml
    python -m repro.experiments scenarios --list-families
"""

from __future__ import annotations

from ..scenario import (
    ScenarioError,
    build_family,
    family_names,
    load_spec,
    run_family,
    run_scenario,
)
from .config import Experiment, Text

__all__ = ["render_family_list"]


def render_family_list(scale_name: str = "test") -> str:
    """The built-in families with their variant counts at one scale."""
    lines = [f"Built-in scenario families (scale={scale_name}):"]
    for name in family_names():
        specs = build_family(name, scale_name)
        variants = ", ".join(spec.name for spec in specs)
        lines.append(f"  {name:24s} {len(specs)} variant(s): {variants}")
    return "\n".join(lines)


def _add_arguments(parser) -> None:
    what = parser.add_mutually_exclusive_group(required=True)
    what.add_argument(
        "--family", default=None, choices=family_names(),
        help="built-in scenario family to run (see --list-families)",
    )
    what.add_argument(
        "--scenario-file", default=None,
        help="run one scenario spec from a TOML/JSON file",
    )
    what.add_argument(
        "--list-families", action="store_true",
        help="list the built-in scenario families at --scale and stop",
    )


def _run_cli(args, scale, runtime):
    """Run the one selector the required argparse group let through."""
    if args.list_families:
        return Text(render_family_list(scale.name))
    if args.family:
        return run_family(args.family, scale.name, runtime=runtime)
    try:
        return run_scenario(load_spec(args.scenario_file), runtime=runtime)
    except ScenarioError as exc:
        args.error(f"--scenario-file: {exc}")


EXPERIMENT = Experiment(
    name="scenarios",
    help="declarative deployment-diversity scenario families (repro.scenario)",
    run=_run_cli,
    in_all=False,
    add_arguments=_add_arguments,
)
