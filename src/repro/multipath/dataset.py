"""ML-ready path dataset exporter (ROADMAP item 5, dataset layer).

Serializes :class:`~repro.multipath.churn.ChurnResult` horizons into the
per-path time-series layout ML path-selection work (ScionPathML-style)
trains on: one row per (interval, pair, candidate path) carrying
latency, loss, goodput share, diversity and churn signals.

The export is **versioned, schema-validated and content-addressed**:

* ``series.jsonl`` — one JSON object per row, keys in schema order,
  compact separators, sorted label keys — byte-stable across processes;
* ``series.csv`` — the same rows for tooling that wants flat CSV;
* ``paths.json`` — the static path table (AS/link sequences, endpoints,
  propagation latency) rows join against via ``path_id``;
* ``manifest.json`` — the schema (version + typed field descriptors),
  per-run summaries, per-file sha256/bytes/row counts, and a
  ``dataset_id`` derived from the file digests — two exports are the
  same dataset iff their ids match, which is how the acceptance test
  pins ``--jobs 1`` == ``--jobs N`` and python == numpy byte-identity.

No wall-clock timestamps anywhere: re-exporting the same results yields
the same bytes. :func:`validate_dataset` re-hashes everything and checks
rows against the schema, so a consumer can trust a directory without
trusting its producer.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from typing import Dict, Iterable, Sequence, Tuple, Union

from .churn import ROW_FIELDS, ChurnResult

__all__ = [
    "SCHEMA_VERSION",
    "DATASET_FIELDS",
    "DatasetError",
    "write_dataset",
    "validate_dataset",
]

#: Bump on any incompatible row-layout change.
SCHEMA_VERSION = 1

_SERIES = "series.jsonl"
_CSV = "series.csv"
_PATHS = "paths.json"
_MANIFEST = "manifest.json"

#: (name, kind, description) for every exported column, in row order.
#: ``kind`` is one of ``int`` / ``float`` / ``str`` and is enforced by
#: :func:`validate_dataset`.
DATASET_FIELDS: Tuple[Tuple[str, str, str], ...] = (
    ("run", "str", "Name of the churn run this row belongs to."),
    ("strategy", "str", "Multipath scheduling strategy of the run."),
    ("k_paths", "int", "Maximum paths per flow the strategy may select."),
    ("interval", "int", "Scheduling interval index within the horizon."),
    ("src", "int", "Source AS number of the monitored pair."),
    ("dst", "int", "Destination AS number of the monitored pair."),
    ("path_id", "str", "Stable blake2b identifier of the candidate path."),
    ("available", "int", "1 if the path's beacon was alive this interval."),
    ("selected", "int", "1 if the scheduler put packets on this path."),
    ("offered_packets", "int", "Packets scheduled onto this path."),
    ("delivered_packets", "int", "Packets delivered end-to-end."),
    ("lost_packets", "int", "Packets lost (faults, capacity overflow)."),
    (
        "latency_seconds",
        "float",
        "Propagation latency plus the load-dependent queueing term.",
    ),
    (
        "goodput_share",
        "float",
        "This path's fraction of the pair's delivered packets.",
    ),
    ("switch", "int", "1 if the pair switched path sets this interval."),
    (
        "age_intervals",
        "int",
        "Intervals since the path's beacon was (re-)issued; 0 while down.",
    ),
    (
        "diversity",
        "float",
        "Link-level diversity of the pair's selected path set.",
    ),
)

_KINDS = {"int": int, "float": float, "str": str}

# The exporter serializes ChurnResult rows positionally; the two modules
# must agree on layout or every export would be silently misaligned.
assert tuple(name for name, _, _ in DATASET_FIELDS[3:]) == ROW_FIELDS


class DatasetError(ValueError):
    """A dataset directory failed schema or integrity validation."""


def _iter_rows(results: Sequence[ChurnResult]) -> Iterable[Dict]:
    for result in results:
        prefix = (result.name, result.strategy, result.k_paths)
        for row in result.rows:
            yield dict(
                zip((name for name, _, _ in DATASET_FIELDS), prefix + row)
            )


def _render_series(results: Sequence[ChurnResult]) -> Tuple[bytes, int]:
    buffer = io.StringIO()
    rows = 0
    for record in _iter_rows(results):
        buffer.write(json.dumps(record, separators=(",", ":")))
        buffer.write("\n")
        rows += 1
    return buffer.getvalue().encode("ascii"), rows


def _render_csv(results: Sequence[ChurnResult]) -> Tuple[bytes, int]:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow([name for name, _, _ in DATASET_FIELDS])
    rows = 0
    for record in _iter_rows(results):
        writer.writerow([record[name] for name, _, _ in DATASET_FIELDS])
        rows += 1
    return buffer.getvalue().encode("ascii"), rows


def _render_paths(results: Sequence[ChurnResult]) -> bytes:
    table = {}
    for result in results:
        for path_id in sorted(result.paths):
            src, dst, asns, link_ids, propagation = result.paths[path_id]
            table.setdefault(
                path_id,
                {
                    "src": src,
                    "dst": dst,
                    "asns": list(asns),
                    "link_ids": list(link_ids),
                    "propagation_seconds": propagation,
                },
            )
    return (
        json.dumps(table, indent=2, sort_keys=True) + "\n"
    ).encode("ascii")


def _sha256(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def _dataset_id(files: Dict[str, Dict]) -> str:
    material = ";".join(
        f"{name}:{entry['sha256']}" for name, entry in sorted(files.items())
    )
    return hashlib.sha256(material.encode("ascii")).hexdigest()


def write_dataset(
    results: Union[ChurnResult, Sequence[ChurnResult]],
    directory: str,
) -> Dict:
    """Export one or more churn results into ``directory``.

    Returns the manifest (also written as ``manifest.json``). Runs are
    exported in the given order; rows within a run keep the driver's
    (interval, pair, candidate) order, so the export is a pure function
    of the results.
    """
    if isinstance(results, ChurnResult):
        results = [results]
    results = list(results)
    if not results:
        raise ValueError("write_dataset needs at least one ChurnResult")
    names = [result.name for result in results]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate run names in export: {names}")

    os.makedirs(directory, exist_ok=True)
    series, jsonl_rows = _render_series(results)
    table, csv_rows = _render_csv(results)
    paths = _render_paths(results)

    files = {
        _SERIES: {"sha256": _sha256(series), "bytes": len(series), "rows": jsonl_rows},
        _CSV: {"sha256": _sha256(table), "bytes": len(table), "rows": csv_rows},
        _PATHS: {"sha256": _sha256(paths), "bytes": len(paths), "rows": None},
    }
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "fields": [
            {"name": name, "kind": kind, "description": description}
            for name, kind, description in DATASET_FIELDS
        ],
        "runs": [
            {
                "name": result.name,
                "strategy": result.strategy,
                "k_paths": result.k_paths,
                "num_intervals": result.num_intervals,
                "interval_seconds": result.interval_seconds,
                "payload_bytes": result.payload_bytes,
                "seed": result.seed,
                "pairs": [list(pair) for pair in result.pairs],
                "num_paths": len(result.paths),
                "rows": len(result.rows),
                "packets_offered": result.packets_offered,
                "packets_delivered": result.packets_delivered,
                "packets_lost": result.packets_lost,
                "beacon_expiries": result.beacon_expiries,
                "switch_events": result.switch_events,
                "scmp_events": result.scmp_events,
                "aggregate_goodput_bps": result.aggregate_goodput_bps(),
            }
            for result in results
        ],
        "files": files,
        "dataset_id": _dataset_id(files),
    }

    for name, payload in (
        (_SERIES, series),
        (_CSV, table),
        (_PATHS, paths),
    ):
        with open(os.path.join(directory, name), "wb") as handle:
            handle.write(payload)
    with open(
        os.path.join(directory, _MANIFEST), "w", encoding="ascii"
    ) as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return manifest


def _check_row(record: Dict, line: int) -> None:
    expected = [name for name, _, _ in DATASET_FIELDS]
    if list(record) != expected:
        raise DatasetError(
            f"row {line}: keys {list(record)} != schema order {expected}"
        )
    for name, kind, _ in DATASET_FIELDS:
        value = record[name]
        if kind == "float":
            ok = isinstance(value, (int, float)) and not isinstance(
                value, bool
            )
        else:
            ok = isinstance(value, _KINDS[kind]) and not isinstance(
                value, bool
            )
        if not ok:
            raise DatasetError(
                f"row {line}: field {name!r} = {value!r} is not {kind}"
            )


def validate_dataset(directory: str) -> Dict:
    """Validate an exported dataset directory end to end.

    Checks the manifest schema version, re-hashes every file against its
    recorded sha256 and the derived ``dataset_id``, verifies row counts,
    and type-checks every JSONL row against the field schema. Returns
    the manifest on success; raises :class:`DatasetError` otherwise.
    """
    manifest_path = os.path.join(directory, _MANIFEST)
    try:
        with open(manifest_path, "r", encoding="ascii") as handle:
            manifest = json.load(handle)
    except (OSError, ValueError) as exc:
        raise DatasetError(f"unreadable manifest {manifest_path}: {exc}")

    if manifest.get("schema_version") != SCHEMA_VERSION:
        raise DatasetError(
            f"schema_version {manifest.get('schema_version')!r} != "
            f"{SCHEMA_VERSION}"
        )
    declared = [
        (field["name"], field["kind"])
        for field in manifest.get("fields", [])
    ]
    expected = [(name, kind) for name, kind, _ in DATASET_FIELDS]
    if declared != expected:
        raise DatasetError(f"field schema mismatch: {declared}")

    files = manifest.get("files", {})
    for name in (_SERIES, _CSV, _PATHS):
        entry = files.get(name)
        if entry is None:
            raise DatasetError(f"manifest lists no entry for {name}")
        try:
            with open(os.path.join(directory, name), "rb") as handle:
                payload = handle.read()
        except OSError as exc:
            raise DatasetError(f"unreadable dataset file {name}: {exc}")
        if _sha256(payload) != entry["sha256"]:
            raise DatasetError(f"{name}: sha256 mismatch (file modified?)")
        if len(payload) != entry["bytes"]:
            raise DatasetError(f"{name}: byte count mismatch")
    if manifest.get("dataset_id") != _dataset_id(files):
        raise DatasetError("dataset_id does not match file digests")

    with open(
        os.path.join(directory, _SERIES), "r", encoding="ascii"
    ) as handle:
        rows = 0
        for line_number, line in enumerate(handle, start=1):
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise DatasetError(f"row {line_number}: bad JSON: {exc}")
            _check_row(record, line_number)
            rows += 1
    if rows != files[_SERIES]["rows"]:
        raise DatasetError(
            f"series row count {rows} != manifest {files[_SERIES]['rows']}"
        )
    expected_rows = sum(run["rows"] for run in manifest.get("runs", []))
    if rows != expected_rows:
        raise DatasetError(
            f"series row count {rows} != per-run sum {expected_rows}"
        )
    return manifest
