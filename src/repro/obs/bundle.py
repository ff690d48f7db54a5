"""The ``--obs-dir`` bundle: one run's telemetry as one directory.

``metrics.json`` (merged registry snapshot), ``trace.jsonl`` (stitched
span stream), ``flight/`` (post-mortem dumps, possibly none), ``slo.json``
(compliance summary — only when the run evaluated SLOs, i.e. ``serve``),
``results.json`` (per experiment, its result's ``data()`` and its wall
seconds: ``{experiment: {"data": ..., "seconds": ...}}``) and
``manifest.json``: the schema, the experiments run, the members the run
produced with their record counts, and each run's report — so a thin
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
    impossible), remove the dumps and ``slo.json`` an earlier run left
    there, and point the flight recorder's dumps at ``flight/``."""
    root = Path(directory)
    flight = root / "flight"
    flight.mkdir(parents=True, exist_ok=True)
    for stale in (*flight.glob("flight-*.jsonl"), root / "slo.json"):
        stale.unlink(missing_ok=True)
    telemetry.flight.directory = flight


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def write_bundle(
    directory, telemetry, runs: Sequence[Dict], results: Dict[str, Dict]
) -> Dict:
    """Write the members and the manifest; returns the manifest. ``runs``
    are ``RunReport.to_dict()`` dicts, one per experiment run; the last
    one's ``slo``, when it evaluated any, is ``slo.json``. ``results`` is
    ``results.json``: ``{"data": ..., "seconds": ...}`` per experiment."""
    root, slo = Path(directory), runs[-1]["slo"]
    (root / "metrics.json").write_text(telemetry.metrics.to_json() + "\n")
    spans = telemetry.causal.write_jsonl(root / "trace.jsonl")
    series = sum(len(rows) for rows in telemetry.metrics.snapshot().values())
    _write_json(root / "results.json", results)
    files = {
        "metrics.json": {"records": series},
        "trace.jsonl": {"records": spans},
        "flight/": {"records": len(telemetry.flight.dumps)},
        "results.json": {"records": len(results)},
    }
    if slo:
        _write_json(root / "slo.json", slo)
        files["slo.json"] = {"records": len(slo["objectives"])}
    manifest = {
        "schema": BUNDLE_SCHEMA,
        "experiments": [run["experiment"] for run in runs],
        "files": files,
        "runs": list(runs),
    }
    _write_json(root / "manifest.json", manifest)
    return manifest
