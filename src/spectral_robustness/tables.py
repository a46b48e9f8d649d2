"""CSV schemas: prediction traces, dataset labels, accuracies, metrics.

All writers format floats with ``fmt_float``, the shortest decimal that
round-trips to the same float64, written positionally (never in exponent
form) from Python's ``repr``, so file bytes do not depend on the numpy
version. Rows come in a deterministic order, so identical inputs produce
byte-identical files.

This module is the only one that knows a CSV layout. Every table is read
row by row through ``_numbered``: an exact header, then rows of exactly its
field count; a blank line is a row of no fields and so an error, and errors
name the physical line a row starts on. Every reader turns a line that does
not decode or that ``csv`` cannot parse (say, a field over its size limit)
into a TraceParseError naming the file and the line.
"""

from __future__ import annotations

import array
import contextlib
import csv
import io
import itertools

import numpy as np

from . import tensorio
from .errors import InvalidInputError, TraceParseError
from .path_metrics import ROW_SUM_TOLERANCE, MetricSummary, PathMetrics, PredictionTrace
from .regression import AccuracyRecord, MetricRecord, ProbitRegression


# Characters of CSV text checked for undecodable bytes at once.
_BLOCK_CHARS = 1 << 16

# Headers of the row tables; the trace table's depends on its class count.
LABEL_COLUMNS = ("index", "label")
ACCURACY_COLUMNS = ("model_id", "group", "dataset_id", "correct", "total")
METRIC_COLUMNS = ("model_id", "metric_name", "value", "value_kind")
PATH_METRIC_COLUMNS = ("path_id", "hff", "cd")
# A path-metrics CSV ends in footer rows ``__hff_threshold_k__`` and then
# ``__<field>__`` for each summary field; ``_FOOTER_KEYS`` maps each footer
# ``path_id`` to its key in ``read_path_metrics``' footer dict.
_SUMMARY_FIELDS = ("mean", "sample_std", "n", "ci95_low", "ci95_high")
_FOOTER_KEYS = {f"__{name}__": name for name in ("hff_threshold_k",) + _SUMMARY_FIELDS}
FIT_COLUMNS = (
    "group", "n_models", "slope", "intercept", "r2", "status", "x_spec", "x_transform", "ood_dataset",
)


def fmt_float(x) -> str:
    """Shortest decimal string that round-trips to the same float64, never in exponent form.

    Equals ``np.format_float_positional(np.float64(x), unique=True, trim="-")``
    for every float64: ``repr`` yields the same shortest digits, so this only
    drops its trailing ``.0`` and writes its exponent forms out positionally.
    """
    return _positional(repr(float(x)))


def _positional(s: str) -> str:
    """``fmt_float`` of the float whose ``repr`` is ``s``."""
    if "e" not in s:
        return s[:-2] if s.endswith(".0") else s
    # repr uses exponent form below 1e-4 and from 1e16 up, always with one
    # digit before the point, so the digits either gain leading zeros after
    # "0." or trailing zeros before an implied point.
    mantissa, _, exponent = s.partition("e")
    sign = "-" if mantissa[0] == "-" else ""
    digits = mantissa.lstrip("-").replace(".", "")
    point = 1 + int(exponent)
    if point <= 0:
        return f"{sign}0.{'0' * -point}{digits}"
    return sign + digits + "0" * (point - len(digits))


def read_traces(path) -> list[PredictionTrace]:
    """Parse a trace CSV (header ``path_id,step,p_0,...,p_{K-1}``).

    Rows of one path may be interleaved with other paths' rows; traces come
    back in order of each path's first row. Steps must be contiguous from 1
    within each path; every probability must be finite and nonnegative and
    every row must sum to 1 within 1e-4. The first offending line in file
    order raises TraceParseError naming it; within a line the checks run in
    the order field count, parse, step, sign, row sum, finiteness.
    """
    with _csv_reader(path) as reader:
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
        flat = array.array("d")
        rows: dict[str, list[int]] = {}
        lines: list[int] = []
        fault = None
        try:
            for line, row in _numbered(path, reader, k + 2):
                path_id = row[0]
                try:
                    step = int(row[1])
                    flat.extend(map(float, row[2:]))
                except ValueError as exc:
                    fault = TraceParseError(f"{path} line {line}: {exc}")
                    break
                path_rows = rows.setdefault(path_id, [])
                if step != len(path_rows) + 1:
                    fault = TraceParseError(
                        f"{path} line {line}: path {path_id!r} expected step "
                        f"{len(path_rows) + 1}, got {step} (steps must be contiguous from 1)"
                    )
                    break
                path_rows.append(len(lines))
                lines.append(line)
        except csv.Error as exc:
            fault = _unparseable(path, reader, exc)
        except TraceParseError as exc:
            fault = exc

    # The row that ended the scan may have left some of its values in ``flat``.
    table = np.frombuffer(flat, count=len(lines) * k).reshape(len(lines), k)
    with np.errstate(invalid="ignore", over="ignore"):
        sums = table.sum(axis=1)
    faults = [
        (table < 0).any(axis=1),
        np.abs(sums - 1.0) > ROW_SUM_TOLERANCE,
        ~np.isfinite(table).all(axis=1),
    ]
    bad = np.flatnonzero(np.logical_or.reduce(faults))
    if bad.size:
        i = int(bad[0])
        path_id = next(path_id for path_id, path_rows in rows.items() if i in path_rows)
        messages = [
            f"path {path_id!r} has a negative probability",
            f"path {path_id!r} probabilities sum to {sums[i]:.6f}, not 1",
            f"path {path_id!r} has a non-finite probability",
        ]
        kind = next(j for j, check in enumerate(faults) if check[i])
        raise TraceParseError(f"{path} line {lines[i]}: {messages[kind]}")
    if fault is not None:
        raise fault
    for path_id, path_rows in rows.items():
        if len(path_rows) < 2:
            raise TraceParseError(f"{path}: path {path_id!r} has fewer than 2 steps")
    return [PredictionTrace(table[path_rows], path_id) for path_id, path_rows in rows.items()]


@contextlib.contextmanager
def _csv_reader(path):
    """``csv.reader`` over the text file at ``path``.

    A line that does not decode, or that ``csv`` cannot parse, raises
    TraceParseError naming the file and the line.
    """
    with open(path, newline="", errors="surrogateescape") as fh:
        reader = csv.reader(itertools.chain.from_iterable(_decoded_blocks(fh, path)))
        try:
            yield reader
        except csv.Error as exc:
            raise _unparseable(path, reader, exc) from None


def _rows(path, header):
    """``(line, row)`` for each body row of the CSV at ``path``, ``line`` its first physical line.

    The first row must be ``header``, and every row must have exactly as many
    fields; a blank line is a row of none.
    """
    header = list(header)
    with _csv_reader(path) as reader:
        if next(reader, None) != header:
            raise TraceParseError(f"{path} line 1: header must be {','.join(header)}")
        yield from _numbered(path, reader, len(header))


def _numbered(path, reader, width):
    """``(line, row)`` for each remaining row of ``reader``, ``line`` its first physical line.

    A row without exactly ``width`` fields, a blank line included, raises TraceParseError.
    """
    line = reader.line_num + 1
    for row in reader:
        if len(row) != width:
            raise TraceParseError(f"{path} line {line}: expected {width} fields, got {len(row)}")
        yield line, row
        line = reader.line_num + 1


def write_rows(path, header, rows) -> None:
    """Write ``header`` and ``rows`` as CSV; every float cell, Python or numpy, via ``fmt_float``."""
    with tensorio.atomic_open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(
            [fmt_float(cell) if isinstance(cell, (float, np.floating)) else cell for cell in row]
            for row in rows
        )


def _decoded_blocks(fh, path):
    """Blocks of lines of ``fh``, opened with errors="surrogateescape".

    A line holding an undecodable byte raises TraceParseError once the lines
    before it are out. Checking block by block, all-ASCII text, which cannot
    hold one, costs no Python call per line.
    """
    line_no = 0
    while block := fh.readlines(_BLOCK_CHARS):
        if not all(map(str.isascii, block)):
            for i, line in enumerate(block):
                # An undecodable byte b is read as the lone surrogate
                # U+DC00 + b, which no encoding can encode.
                try:
                    line.encode(fh.encoding)
                except UnicodeEncodeError as exc:
                    yield block[:i]
                    byte = ord(line[exc.start]) - 0xDC00
                    raise TraceParseError(
                        f"{path} line {line_no + i + 1}: byte 0x{byte:02x} is not valid {fh.encoding} text"
                    ) from None
        line_no += len(block)
        yield block


def _unparseable(path, reader, exc: csv.Error) -> TraceParseError:
    return TraceParseError(f"{path} line {reader.line_num}: {exc}")


def write_traces(path, traces) -> None:
    """Write ``path_id,step,p_0,...`` rows, step 1 up, one trace after another.

    Every trace must have the first one's class count; this is checked before
    the file is opened, so a failed call leaves no file behind.
    """
    traces = list(traces)
    if not traces:
        raise TraceParseError("cannot write an empty trace table")
    k = traces[0].probs.shape[1]
    if any(trace.probs.shape[1] != k for trace in traces):
        raise TraceParseError("all traces must share the same class count")
    with tensorio.atomic_open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["path_id", "step"] + [f"p_{i}" for i in range(k)])
        for trace in traces:
            prefix = _csv_prefix(trace.path_id)
            t = trace.probs.shape[0]
            probs = trace.probs.ravel()
            tokens = list(map(repr, probs.tolist()))
            # repr already is fmt_float's answer except in exponent form
            # (below 1e-4, and from 1e16 up, where every float is integral)
            # or with a trailing ".0" (integral values).
            for i in np.flatnonzero((np.abs(probs) < 1e-4) | (probs == np.floor(probs))).tolist():
                tokens[i] = _positional(tokens[i])
            fh.write(
                "".join(
                    f"{prefix}{step + 1},{','.join(tokens[step * k : (step + 1) * k])}\r\n"
                    for step in range(t)
                )
            )


def _csv_prefix(field) -> str:
    """``field`` as csv.writer writes it, followed by the delimiter."""
    buf = io.StringIO()
    csv.writer(buf).writerow([field, ""])
    return buf.getvalue()[:-2]


def read_labels(path, n_items: int | None = None) -> np.ndarray:
    """Read an ``index,label`` CSV covering indices 0..N-1 exactly once."""
    entries: dict[int, int] = {}
    for line_no, row in _rows(path, LABEL_COLUMNS):
        try:
            idx, label = int(row[0]), int(row[1])
        except ValueError:
            raise TraceParseError(f"{path} line {line_no}: bad row {row!r}") from None
        if idx in entries:
            raise TraceParseError(f"{path} line {line_no}: duplicate index {idx}")
        entries[idx] = label
    n = n_items if n_items is not None else len(entries)
    if sorted(entries) != list(range(n)):
        raise TraceParseError(f"{path}: indices must cover 0..{n - 1} exactly once")
    return np.asarray([entries[i] for i in range(n)], dtype=np.int64)


def write_labels(path, labels) -> None:
    write_rows(path, LABEL_COLUMNS, ([i, int(label)] for i, label in enumerate(labels)))


def _reject_duplicate(seen: dict, key, path, line_no: int, names: str) -> None:
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
    for line_no, (model_id, group, dataset_id, correct, total) in _rows(path, ACCURACY_COLUMNS):
        try:
            rec = AccuracyRecord(model_id, group, dataset_id, int(correct), int(total))
        except ValueError as exc:
            raise TraceParseError(f"{path} line {line_no}: {exc}") from None
        _reject_duplicate(seen, (model_id, dataset_id), path, line_no, "model_id, dataset_id")
        records.append(rec)
    return records


def write_accuracies(path, records) -> None:
    write_rows(
        path,
        ACCURACY_COLUMNS,
        ([r.model_id, r.group, r.dataset_id, r.correct, r.total] for r in records),
    )


def read_metrics(path) -> list[MetricRecord]:
    """Read a model-metrics CSV; a repeated (model_id, metric_name) raises TraceParseError."""
    records = []
    seen: dict[tuple[str, str], int] = {}
    for line_no, (model_id, metric_name, value, value_kind) in _rows(path, METRIC_COLUMNS):
        try:
            rec = MetricRecord(model_id, metric_name, float(value), value_kind)
        except ValueError as exc:
            raise TraceParseError(f"{path} line {line_no}: {exc}") from None
        _reject_duplicate(seen, (model_id, metric_name), path, line_no, "model_id, metric_name")
        records.append(rec)
    return records


def write_metrics(path, records) -> None:
    write_rows(
        path,
        METRIC_COLUMNS,
        ([r.model_id, r.metric_name, r.value, r.value_kind] for r in records),
    )


def write_path_metrics(
    path,
    metrics: list[PathMetrics],
    hff_summary: MetricSummary,
    cd_summary: MetricSummary,
    threshold_k: int,
) -> None:
    """Per-path hff/cd rows followed by ``__``-prefixed summary footer rows.

    A ``path_id`` equal to a footer row's name raises InvalidInputError
    before the file is opened.
    """
    for m in metrics:
        if m.path_id in _FOOTER_KEYS:
            raise InvalidInputError(f"path_id {m.path_id!r} is reserved for a summary footer row")
    rows = [[m.path_id, m.hff, m.cd] for m in metrics]
    rows.append(["__hff_threshold_k__", threshold_k, ""])
    for name in _SUMMARY_FIELDS:
        rows.append([f"__{name}__", getattr(hff_summary, name), getattr(cd_summary, name)])
    write_rows(path, PATH_METRIC_COLUMNS, rows)


def read_path_metrics(path) -> tuple[list[PathMetrics], dict[str, tuple[str, str]]]:
    """Read back a path-metrics CSV; returns (per-path rows, footer values).

    Only the footer names ``write_path_metrics`` writes are footer rows; any
    other ``path_id``, ``__``-prefixed or not, is a path. A repeated
    ``path_id``, footer names included, raises TraceParseError.
    """
    per_path = []
    footer: dict[str, tuple[str, str]] = {}
    seen: dict[str, int] = {}
    for line_no, (path_id, hff, cd) in _rows(path, PATH_METRIC_COLUMNS):
        _reject_duplicate(seen, path_id, path, line_no, "path_id")
        if path_id in _FOOTER_KEYS:
            footer[_FOOTER_KEYS[path_id]] = (hff, cd)
            continue
        try:
            per_path.append(PathMetrics(path_id, float(hff), int(cd)))
        except ValueError as exc:
            raise TraceParseError(f"{path} line {line_no}: {exc}") from None
    return per_path, footer


def write_fit(path, result: ProbitRegression) -> None:
    """The fit CSV of ``specrob regress``: fitted groups, skipped groups, then ``__average__``."""
    tail = [result.x_spec, result.x_transform, result.ood_dataset]
    rows = [
        [fit.group, fit.n_models, fit.slope, fit.intercept, fit.r_squared, "fitted", *tail]
        for fit in result.per_group
    ]
    rows += [[group, "", "", "", "", f"skipped: {reason}", *tail] for group, reason in result.skipped]
    n_models = sum(fit.n_models for fit in result.per_group)
    rows.append(["__average__", n_models, result.averaged_slope, "", result.averaged_r2, "fitted", *tail])
    write_rows(path, FIT_COLUMNS, rows)


def read_fit(path) -> list[dict[str, str]]:
    """Rows of a fit CSV written by ``write_fit``, as dicts keyed by FIT_COLUMNS."""
    return [dict(zip(FIT_COLUMNS, row)) for _, row in _rows(path, FIT_COLUMNS)]
