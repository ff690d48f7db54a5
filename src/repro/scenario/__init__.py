"""Declarative scenario compiler for deployment-diversity experiments.

The subsystem has three layers, mirroring a classic compiler:

* :mod:`repro.scenario.spec` — the frontend: a declarative DSL of plain
  dataclasses (loadable from TOML/JSON) describing ISDs, core/non-core
  ASes, IXP models, SIG legacy fractions, leased lines, partial
  deployment with a BGP rump, and fault/traffic overlays — with eager,
  field-addressed validation (:class:`ScenarioError`);
* :mod:`repro.scenario.compiler` — the deterministic lowering from a
  :class:`ScenarioSpec` to the existing ``Topology``/deployment/faults/
  traffic objects plus a run plan (pure, seeded, content-addressed);
* :mod:`repro.scenario.runner` — execution of the compiled plan through
  :class:`~repro.runtime.ExperimentRuntime`, preserving the repo-wide
  jobs/backend determinism contract.

:mod:`repro.scenario.families` ships the built-in scenario families the
``scenarios`` CLI experiment exposes.
"""

from .compiler import (
    CompiledHijack,
    CompiledIXP,
    CompiledScenario,
    compile_scenario,
    spec_hash,
)
from .families import FAMILIES, SMOKE_FAMILY, build_family, family_names
from .runner import (
    FamilyRunResult,
    HijackResult,
    ScenarioRunResult,
    measure_hijack,
    run_family,
    run_scenario,
)
from .spec import (
    DeploymentSpec,
    FaultOverlaySpec,
    HijackSpec,
    IsdLayoutSpec,
    IXPSpec,
    LeasedLineSpec,
    ScenarioError,
    ScenarioSpec,
    SigSpec,
    SubstrateSpec,
    TrafficOverlaySpec,
    load_spec,
)

__all__ = [
    "CompiledHijack",
    "CompiledIXP",
    "CompiledScenario",
    "compile_scenario",
    "spec_hash",
    "FAMILIES",
    "SMOKE_FAMILY",
    "build_family",
    "family_names",
    "FamilyRunResult",
    "HijackResult",
    "ScenarioRunResult",
    "measure_hijack",
    "run_family",
    "run_scenario",
    "DeploymentSpec",
    "FaultOverlaySpec",
    "HijackSpec",
    "IsdLayoutSpec",
    "IXPSpec",
    "LeasedLineSpec",
    "ScenarioError",
    "ScenarioSpec",
    "SigSpec",
    "SubstrateSpec",
    "TrafficOverlaySpec",
    "load_spec",
]
