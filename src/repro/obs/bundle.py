"""The ``--obs-dir`` bundle: one run's telemetry as one directory.

``metrics.json`` (merged registry snapshot), ``trace.jsonl`` (stitched
span stream), ``flight/`` (post-mortem dumps, possibly none), ``slo.json``
(compliance summary — only when the run evaluated SLOs, i.e. ``serve``)
and ``manifest.json``: the schema, the experiments run, the members the
run produced with their record counts, and each run's report — so a thin
trace can be read against the phases that were cache hits. The directory
is created *before* the run: a bad path fails while nothing is computed
yet.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Sequence

__all__ = ["BUNDLE_SCHEMA", "create_bundle", "write_bundle"]

BUNDLE_SCHEMA = "repro-obs/1"


def create_bundle(directory, telemetry) -> None:
    """Create ``directory`` and its ``flight/`` (``OSError`` if that is
    impossible) and point the flight recorder's dumps there."""
    flight = Path(directory) / "flight"
    flight.mkdir(parents=True, exist_ok=True)
    telemetry.flight.configure(directory=flight)


def write_bundle(directory, telemetry, runs: Sequence[Dict]) -> Dict:
    """Write the members and the manifest; returns the manifest. ``runs``
    are ``RunReport.to_dict()`` dicts, one per experiment run; the last
    one's ``slo``, when it evaluated any, is ``slo.json``."""
    root, slo = Path(directory), runs[-1]["slo"]
    (root / "metrics.json").write_text(telemetry.metrics.to_json() + "\n")
    spans = telemetry.causal.write_jsonl(root / "trace.jsonl")
    series = sum(len(rows) for rows in telemetry.metrics.snapshot().values())
    files = {
        "metrics.json": {"records": series},
        "trace.jsonl": {"records": spans},
        "flight/": {"records": len(list((root / "flight").iterdir()))},
    }
    if slo:
        (root / "slo.json").write_text(
            json.dumps(slo, sort_keys=True, indent=2) + "\n"
        )
        files["slo.json"] = {"records": len(slo["objectives"])}
    manifest = {
        "schema": BUNDLE_SCHEMA,
        "experiments": [run["experiment"] for run in runs],
        "files": files,
        "runs": list(runs),
    }
    (root / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n"
    )
    return manifest
