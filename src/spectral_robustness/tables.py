"""CSV schemas: prediction traces, dataset labels, accuracies, metrics.

All writers format floats with shortest round-trip decimals and emit rows in a
deterministic order, so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import csv

import numpy as np

from .errors import TraceParseError
from .path_metrics import ROW_SUM_TOLERANCE, MetricSummary, PathMetrics, PredictionTrace
from .regression import AccuracyRecord, MetricRecord


def fmt_float(x) -> str:
    """Shortest decimal string that round-trips to the same float64."""
    return np.format_float_positional(np.float64(x), unique=True, trim="-")


def read_traces(path) -> list[PredictionTrace]:
    """Parse a trace CSV (header ``path_id,step,p_0,...,p_{K-1}``).

    Steps must be contiguous from 1 within each path; every probability row
    must be nonnegative and sum to 1 within 1e-4. Violations raise
    TraceParseError naming the file line.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise TraceParseError(f"{path}: empty file") from None
        k = len(header) - 2
        expected = ["path_id", "step"] + [f"p_{i}" for i in range(k)]
        if k < 2 or header != expected:
            raise TraceParseError(
                f"{path} line 1: header must be path_id,step,p_0,...,p_{{K-1}} "
                f"with K >= 2, got {','.join(header)}"
            )

        rows: dict[str, list[list[float]]] = {}
        for line_no, row in enumerate(reader, start=2):
            if len(row) != k + 2:
                raise TraceParseError(
                    f"{path} line {line_no}: expected {k + 2} fields, got {len(row)}"
                )
            path_id = row[0]
            try:
                step = int(row[1])
                probs = [float(v) for v in row[2:]]
            except ValueError as exc:
                raise TraceParseError(f"{path} line {line_no}: {exc}") from None
            seen = rows.setdefault(path_id, [])
            if step != len(seen) + 1:
                raise TraceParseError(
                    f"{path} line {line_no}: path {path_id!r} expected step "
                    f"{len(seen) + 1}, got {step} (steps must be contiguous from 1)"
                )
            if any(p < 0 for p in probs):
                raise TraceParseError(
                    f"{path} line {line_no}: path {path_id!r} has a negative probability"
                )
            total = sum(probs)
            if abs(total - 1.0) > ROW_SUM_TOLERANCE:
                raise TraceParseError(
                    f"{path} line {line_no}: path {path_id!r} probabilities sum to "
                    f"{total:.6f}, not 1"
                )
            seen.append(probs)

    traces = []
    for path_id, probs in rows.items():
        if len(probs) < 2:
            raise TraceParseError(f"{path}: path {path_id!r} has fewer than 2 steps")
        traces.append(PredictionTrace(probs=np.asarray(probs), path_id=path_id))
    return traces


def write_traces(path, traces) -> None:
    traces = list(traces)
    if not traces:
        raise TraceParseError("cannot write an empty trace table")
    k = traces[0].probs.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["path_id", "step"] + [f"p_{i}" for i in range(k)])
        for trace in traces:
            if trace.probs.shape[1] != k:
                raise TraceParseError("all traces must share the same class count")
            for step, row in enumerate(trace.probs, start=1):
                writer.writerow([trace.path_id, step] + [fmt_float(p) for p in row])


def read_labels(path, n_items: int | None = None) -> np.ndarray:
    """Read an ``index,label`` CSV covering indices 0..N-1 exactly once."""
    entries: dict[int, int] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["index", "label"]:
            raise TraceParseError(f"{path} line 1: header must be index,label")
        for line_no, row in enumerate(reader, start=2):
            try:
                idx, label = int(row[0]), int(row[1])
            except (ValueError, IndexError):
                raise TraceParseError(f"{path} line {line_no}: bad row {row!r}") from None
            if idx in entries:
                raise TraceParseError(f"{path} line {line_no}: duplicate index {idx}")
            entries[idx] = label
    n = n_items if n_items is not None else len(entries)
    if sorted(entries) != list(range(n)):
        raise TraceParseError(f"{path}: indices must cover 0..{n - 1} exactly once")
    return np.asarray([entries[i] for i in range(n)], dtype=np.int64)


def write_labels(path, labels) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "label"])
        for i, label in enumerate(labels):
            writer.writerow([i, int(label)])


def _reject_duplicate(seen: dict, key: tuple, path, line_no: int, names: str) -> None:
    """Record ``key``'s line, or raise if an earlier line already had it."""
    first = seen.setdefault(key, line_no)
    if first != line_no:
        raise TraceParseError(
            f"{path} line {line_no}: duplicate ({names}) {key!r}, first on line {first}"
        )


def read_accuracies(path) -> list[AccuracyRecord]:
    """Read an accuracy CSV; a repeated (model_id, dataset_id) raises TraceParseError."""
    records = []
    seen: dict[tuple[str, str], int] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != ["model_id", "group", "dataset_id", "correct", "total"]:
            raise TraceParseError(
                f"{path} line 1: header must be model_id,group,dataset_id,correct,total"
            )
        for line_no, row in enumerate(reader, start=2):
            try:
                rec = AccuracyRecord(
                    model_id=row["model_id"],
                    group=row["group"],
                    dataset_id=row["dataset_id"],
                    correct=int(row["correct"]),
                    total=int(row["total"]),
                )
            except (TypeError, ValueError) as exc:
                raise TraceParseError(f"{path} line {line_no}: {exc}") from None
            key = (rec.model_id, rec.dataset_id)
            _reject_duplicate(seen, key, path, line_no, "model_id, dataset_id")
            records.append(rec)
    return records


def write_accuracies(path, records) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model_id", "group", "dataset_id", "correct", "total"])
        for rec in records:
            writer.writerow([rec.model_id, rec.group, rec.dataset_id, rec.correct, rec.total])


def read_metrics(path) -> list[MetricRecord]:
    """Read a model-metrics CSV; a repeated (model_id, metric_name) raises TraceParseError."""
    records = []
    seen: dict[tuple[str, str], int] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != ["model_id", "metric_name", "value", "value_kind"]:
            raise TraceParseError(
                f"{path} line 1: header must be model_id,metric_name,value,value_kind"
            )
        for line_no, row in enumerate(reader, start=2):
            try:
                rec = MetricRecord(
                    model_id=row["model_id"],
                    metric_name=row["metric_name"],
                    value=float(row["value"]),
                    value_kind=row["value_kind"],
                )
            except (TypeError, ValueError) as exc:
                raise TraceParseError(f"{path} line {line_no}: {exc}") from None
            key = (rec.model_id, rec.metric_name)
            _reject_duplicate(seen, key, path, line_no, "model_id, metric_name")
            records.append(rec)
    return records


def write_metrics(path, records) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model_id", "metric_name", "value", "value_kind"])
        for rec in records:
            writer.writerow([rec.model_id, rec.metric_name, fmt_float(rec.value), rec.value_kind])


def write_path_metrics(
    path,
    metrics: list[PathMetrics],
    hff_summary: MetricSummary,
    cd_summary: MetricSummary,
    threshold_k: int,
) -> None:
    """Per-path hff/cd rows followed by ``__``-prefixed summary footer rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["path_id", "hff", "cd"])
        for m in metrics:
            writer.writerow([m.path_id, fmt_float(m.hff), m.cd])
        writer.writerow(["__hff_threshold_k__", threshold_k, ""])
        for name, h, c in [
            ("mean", hff_summary.mean, cd_summary.mean),
            ("sample_std", hff_summary.sample_std, cd_summary.sample_std),
            ("n", hff_summary.n, cd_summary.n),
            ("ci95_low", hff_summary.ci95_low, cd_summary.ci95_low),
            ("ci95_high", hff_summary.ci95_high, cd_summary.ci95_high),
        ]:
            writer.writerow(
                [f"__{name}__", h if name == "n" else fmt_float(h), c if name == "n" else fmt_float(c)]
            )


def read_path_metrics(path) -> tuple[list[PathMetrics], dict[str, tuple[str, str]]]:
    """Read back a path-metrics CSV; returns (per-path rows, footer values)."""
    per_path = []
    footer: dict[str, tuple[str, str]] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["path_id", "hff", "cd"]:
            raise TraceParseError(f"{path} line 1: header must be path_id,hff,cd")
        for line_no, row in enumerate(reader, start=2):
            if len(row) != 3:
                raise TraceParseError(f"{path} line {line_no}: expected 3 fields")
            if row[0].startswith("__"):
                footer[row[0].strip("_")] = (row[1], row[2])
            else:
                try:
                    per_path.append(PathMetrics(row[0], float(row[1]), int(row[2])))
                except ValueError as exc:
                    raise TraceParseError(f"{path} line {line_no}: {exc}") from None
    return per_path, footer
