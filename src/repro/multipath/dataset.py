"""ML-ready path dataset exporter (the multipath stack's dataset layer).

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
the same bytes. Each file is written once, front to back, and hashed as
it goes out, so an export holds no whole file in memory; validation
reads in chunks and lines the same way. :func:`validate_dataset` re-hashes
everything, checks rows against the schema and each CSV row against its
JSONL row, so a consumer can trust a directory without trusting its
producer.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from typing import (
    Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union,
)

from ..traffic.flows import PAYLOAD_BYTES
from .churn import INTERVAL_SECONDS, ROW_FIELDS, ChurnResult

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

#: Read size of :func:`validate_dataset`'s hashing pass.
_CHUNK_BYTES = 1 << 16

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

_NAMES: Tuple[str, ...] = tuple(name for name, _, _ in DATASET_FIELDS)

_KINDS = {"int": int, "float": float, "str": str}

# The exporter serializes ChurnResult rows positionally; the two modules
# must agree on layout or every export would be silently misaligned.
assert _NAMES[3:] == ROW_FIELDS


class DatasetError(ValueError):
    """A dataset directory failed schema or integrity validation."""


def _iter_rows(results: Sequence[ChurnResult]) -> Iterator[Tuple]:
    """Every exported row as a tuple in :data:`DATASET_FIELDS` order."""
    for result in results:
        prefix = (result.name, result.strategy, result.k_paths)
        for row in result.rows:
            yield prefix + row


class _Echo:
    """A ``csv.writer`` target that hands each formatted row back."""

    def write(self, text: str) -> str:
        return text


def _series_text(results: Sequence[ChurnResult]) -> Iterator[str]:
    for values in _iter_rows(results):
        yield json.dumps(
            dict(zip(_NAMES, values)), separators=(",", ":")
        ) + "\n"


def _csv_text(results: Sequence[ChurnResult]) -> Iterator[str]:
    writer = csv.writer(_Echo(), lineterminator="\n")
    yield writer.writerow(_NAMES)
    for values in _iter_rows(results):
        yield writer.writerow(values)


def _paths_text(results: Sequence[ChurnResult]) -> Iterator[str]:
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
    yield json.dumps(table, indent=2, sort_keys=True) + "\n"


def _write_file(path: str, text: Iterable[str], rows: Optional[int]) -> Dict:
    """Write one dataset file once, front to back, keeping its sha256 and
    byte count as the text goes out; returns its manifest entry."""
    digest = hashlib.sha256()
    size = 0
    with open(path, "wb") as handle:
        for piece in text:
            data = piece.encode("ascii")
            digest.update(data)
            size += len(data)
            handle.write(data)
    return {"sha256": digest.hexdigest(), "bytes": size, "rows": rows}


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
    rows = sum(len(result.rows) for result in results)
    files = {
        name: _write_file(os.path.join(directory, name), text(results), count)
        for name, text, count in (
            (_SERIES, _series_text, rows),
            (_CSV, _csv_text, rows),
            (_PATHS, _paths_text, None),
        )
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
                "interval_seconds": INTERVAL_SECONDS,
                "payload_bytes": PAYLOAD_BYTES,
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

    with open(
        os.path.join(directory, _MANIFEST), "w", encoding="ascii"
    ) as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return manifest


def _digest_file(directory: str, name: str) -> Tuple[str, int]:
    """The sha256 and byte count of one dataset file, read in fixed-size
    chunks."""
    digest = hashlib.sha256()
    size = 0
    try:
        with open(os.path.join(directory, name), "rb") as handle:
            for chunk in iter(lambda: handle.read(_CHUNK_BYTES), b""):
                digest.update(chunk)
                size += len(chunk)
    except OSError as exc:
        raise DatasetError(f"unreadable dataset file {name}: {exc}")
    return digest.hexdigest(), size


def _check_row(record: Dict, line: int) -> None:
    if tuple(record) != _NAMES:
        raise DatasetError(
            f"row {line}: keys {list(record)} != schema order {list(_NAMES)}"
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


def _check_csv_row(row: List[str], expected: List[str], line: int) -> None:
    """``row`` of ``series.csv`` against the JSONL record's rendering."""
    if row == expected:
        return
    for index in range(max(len(row), len(expected))):
        got = row[index] if index < len(row) else None
        want = expected[index] if index < len(expected) else None
        if got != want:
            name = _NAMES[index] if index < len(_NAMES) else f"#{index}"
            raise DatasetError(
                f"{_CSV}: row {line}: field {name!r} = {got!r} != "
                f"{want!r} in {_SERIES}"
            )


def validate_dataset(directory: str) -> Dict:
    """Validate an exported dataset directory end to end.

    Checks the manifest schema version, re-hashes every file against its
    recorded sha256 and the derived ``dataset_id``, type-checks every JSONL
    row against the field schema, and reads ``series.csv`` beside it line
    by line: its header must be the schema's names and each row the JSONL
    record rendered as the exporter renders it. Returns the manifest on
    success; raises :class:`DatasetError` otherwise.
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
        sha256, size = _digest_file(directory, name)
        if sha256 != entry["sha256"]:
            raise DatasetError(f"{name}: sha256 mismatch (file modified?)")
        if size != entry["bytes"]:
            raise DatasetError(f"{name}: byte count mismatch")
    if manifest.get("dataset_id") != _dataset_id(files):
        raise DatasetError("dataset_id does not match file digests")

    render = csv.writer(_Echo(), lineterminator="\n").writerow
    with open(
        os.path.join(directory, _SERIES), "r", encoding="ascii"
    ) as series, open(
        os.path.join(directory, _CSV), "r", encoding="ascii", newline=""
    ) as table:
        table_rows = csv.reader(table)
        header = next(table_rows, None)
        if header != list(_NAMES):
            raise DatasetError(
                f"{_CSV}: header {header} != schema order {list(_NAMES)}"
            )
        rows = csv_rows = 0
        for line_number, line in enumerate(series, start=1):
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise DatasetError(f"row {line_number}: bad JSON: {exc}")
            _check_row(record, line_number)
            rows += 1
            row = next(table_rows, None)
            if row is None:
                continue
            csv_rows += 1
            _check_csv_row(
                row, next(csv.reader([render(record.values())])), line_number
            )
        csv_rows += sum(1 for _ in table_rows)
    if rows != files[_SERIES]["rows"]:
        raise DatasetError(
            f"series row count {rows} != manifest {files[_SERIES]['rows']}"
        )
    if csv_rows != files[_CSV]["rows"]:
        raise DatasetError(
            f"{_CSV}: row count {csv_rows} != manifest {files[_CSV]['rows']}"
        )
    if csv_rows != rows:
        raise DatasetError(
            f"{_CSV}: row count {csv_rows} != {_SERIES}'s {rows}"
        )
    expected_rows = sum(run["rows"] for run in manifest.get("runs", []))
    if rows != expected_rows:
        raise DatasetError(
            f"series row count {rows} != per-run sum {expected_rows}"
        )
    return manifest
