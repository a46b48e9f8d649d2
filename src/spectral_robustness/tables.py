"""CSV schemas: prediction traces, dataset labels, accuracies, metrics.

All writers format floats with ``fmt_float``, the shortest decimal that
round-trips to the same float64, written positionally (never in exponent
form) from Python's ``repr``, so file bytes do not depend on the numpy
version. Rows come in a deterministic order, so identical inputs produce
byte-identical files.

Every CSV header is defined here and every table is read here; ``cli``
orders the fields of the manifest, band and Jacobian rows it writes. Every
table is read row by row through ``_numbered``: an exact header, then rows
of exactly its field count; a blank line is a row of no fields and so an
error, and errors name the physical line a row starts on. The row tables go
through ``_read_records``, which converts, builds and de-duplicates each row
as it is read. Every reader turns a line that does not decode or that
``csv`` cannot parse (say, a field over its size limit) into a
TraceParseError naming the file and the line. Every line, the header
included, is read with a cap above any legal row (``_line_cap``), so a file
without newlines is not read whole. The one exception to the row loop is the
plain blocks of a trace file: ``read_traces`` parses each with numpy, up to
the first block that is not plain, and reads the rest of the file through
csv. The file is read once, and both parsers feed the same checks, so traces
and errors are the row loop's.
"""

from __future__ import annotations

import array
import contextlib
import csv
import io
import itertools
import re

import numpy as np

from . import tensorio
from .errors import InvalidInputError, TraceParseError
from .path_metrics import MetricSummary, PathMetrics, PredictionTrace, first_bad_row
from .regression import AccuracyRecord, MetricRecord, ProbitRegression


# Characters of CSV text checked for undecodable bytes, or parsed by numpy, at once.
_BLOCK_CHARS = 1 << 16

# Headers of the row tables; the trace table's depends on its class count.
LABEL_COLUMNS = ("index", "label")
MANIFEST_COLUMNS = (
    "path_id", "mode", "source_index", "target_index", "class_relation", "cutoff", "steps", "seed",
    "file",
)
BAND_COLUMNS = ("low", "mid", "high", "r1", "r2", "source_count")
JACOBIAN_COLUMNS = (
    "frobenius_norm", "ci95_low", "ci95_high", "n_estimates", "n_proj", "batch_size", "target",
    "method", "predictor", "seed",
)
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
    within each path, and every row must pass ``path_metrics.first_bad_row``.
    The first offending line in file order raises TraceParseError naming it;
    within a line the checks run in the order field count, parse, step, then
    ``first_bad_row``'s sign, row sum, finiteness.

    The file is read once (``_trace_rows``): numpy parses its plain blocks and
    csv the rest. Both hand over each row as its path id, step and line, with
    its values in one table, so every check below runs once for any file.
    """
    flat = array.array("d")
    rows: dict[str, list[int]] = {}
    lines: list[int] = []
    fault = None
    with open(path, newline="", errors="surrogateescape") as fh:
        k, parsed = _trace_rows(path, _decoded_blocks(fh, path), flat)
        try:
            for path_id, step, line in parsed:
                path_rows = rows.setdefault(path_id, [])
                if step != len(path_rows) + 1:
                    fault = TraceParseError(
                        f"{path} line {line}: path {path_id!r} expected step "
                        f"{len(path_rows) + 1}, got {step} (steps must be contiguous from 1)"
                    )
                    break
                path_rows.append(len(lines))
                lines.append(line)
        except TraceParseError as exc:
            fault = exc

    # The row that ended the scan, and the rest of its block, may have left values in ``flat``.
    table = np.frombuffer(flat, count=len(lines) * k).reshape(len(lines), k)
    bad = first_bad_row(table)
    if bad is not None:
        i, reason = bad
        path_id = next(path_id for path_id, path_rows in rows.items() if i in path_rows)
        raise TraceParseError(f"{path} line {lines[i]}: path {path_id!r} {reason}")
    if fault is not None:
        raise fault
    for path_id, path_rows in rows.items():
        if len(path_rows) < 2:
            raise TraceParseError(f"{path}: path {path_id!r} has fewer than 2 steps")
    return [PredictionTrace(table[path_rows], path_id) for path_id, path_rows in rows.items()]


def _trace_header(k: int) -> list[str]:
    """The fields of a trace CSV's header for K classes."""
    return ["path_id", "step"] + [f"p_{i}" for i in range(k)]


def _may_be_trace_header(text: str) -> bool:
    """Whether csv may still read a line that starts with ``text`` as a trace header.

    Such a line is ``path_id,step,p_0,...`` with some of its fields quoted:
    with its quotes dropped it is that text, and it holds at most two a field.
    """
    bare = text.replace('"', "")
    fields = bare.count(",") + 1
    return text.count('"') <= 2 * fields and ",".join(_trace_header(fields - 2)).startswith(bare)


def _trace_rows(path, blocks, flat):
    """K, and ``(path_id, step, line)`` for each body row of a trace CSV, from its ``_decoded_blocks``.

    Each row's K values are in ``flat`` by the time it comes out; a missing or
    bad header raises TraceParseError here. A header that is exactly
    ``path_id,step,p_0,...`` leaves the body to ``_block_rows``; any other goes
    to csv, with the whole file.
    """
    first = next(blocks, None)
    if first is None:
        raise TraceParseError(f"{path}: empty file")
    k = first[0].count(",") - 1
    if k >= 2 and first[0].rstrip("\r\n") == ",".join(_trace_header(k)):
        return k, _block_rows(path, k, blocks, 1, flat)
    reader = csv.reader(itertools.chain(first, itertools.chain.from_iterable(blocks)))
    header = _first_row(path, reader)
    k = len(header) - 2
    if k < 2 or header != _trace_header(k):
        raise TraceParseError(
            f"{path} line 1: header must be path_id,step,p_0,...,p_{{K-1}} "
            f"with K >= 2, got {','.join(header)}"
        )
    return k, _csv_rows(path, reader, k, 0, flat)


# Not in a plain trace line: a quote, which csv reads as quoting, and a
# control character other than the line end. ``_PLAIN_ASCII`` is every other
# ASCII character.
_NOT_PLAIN = re.compile('["\x00-\x09\x0b\x0c\x0e-\x1f\x7f-\x9f]')
_PLAIN_ASCII = b"\r\n" + bytes(range(0x20, 0x7F)).replace(b'"', b"")


def _block_rows(path, k, blocks, before, flat):
    """``_trace_rows``' rows of ``blocks``, which start ``before`` lines into the file.

    A block is plain when each line holds no ``"`` and no control character
    but its line end, exactly K + 1 commas, and no more characters than
    ``csv.field_size_limit()``: csv would split it at its commas alone. All
    ASCII, it is checked by one ``bytes.translate`` that deletes its plain
    characters. One ``numpy.loadtxt`` call parses a plain block: it takes the
    path id and step as the text between the commas and reads the
    probabilities with ``PyOS_string_to_double``, as ``float()`` does; steps
    go through ``int()``. The first block that is not plain, or that numpy or
    ``int()`` refuses, goes to csv with every block after it. A plain block
    ends on a line end and holds no quote, so csv starts at a record.
    """
    limit = csv.field_size_limit()
    dtype = np.dtype([("path_id", object), ("step", object), ("probs", np.float64, (k,))])
    for block in blocks:
        text = "".join(block)
        if text.isascii():
            plain = not text.encode("ascii").translate(None, _PLAIN_ASCII)
        else:
            plain = not _NOT_PLAIN.search(text)
        steps = []
        if plain and max(map(len, block)) <= limit and text.count(",") == (k + 1) * len(block):
            with contextlib.suppress(ValueError):
                parsed = np.loadtxt(block, dtype=dtype, delimiter=",", comments=None, ndmin=1)
                steps = list(map(int, parsed["step"].tolist()))
        # Empty unless the block is plain and numpy and int() took it, one row a line.
        if len(steps) != len(block):
            reader = csv.reader(itertools.chain(block, itertools.chain.from_iterable(blocks)))
            yield from _csv_rows(path, reader, k, before, flat)
            return
        flat.frombytes(parsed["probs"].tobytes())
        yield from zip(parsed["path_id"].tolist(), steps, range(before + 1, before + 1 + len(block)))
        before += len(block)


def _csv_rows(path, reader, k, before, flat):
    """``_trace_rows``' rows of ``reader``, which starts ``before`` lines into the file."""
    for line, row in _numbered(path, reader, k + 2, before):
        try:
            step = int(row[1])
            flat.extend(map(float, row[2:]))
        except ValueError as exc:
            raise TraceParseError(f"{path} line {line}: {exc}") from None
        yield row[0], step, line


def _first_row(path, reader):
    """The first row of ``reader``, or None if it has none."""
    try:
        return next(reader, None)
    except csv.Error as exc:
        raise TraceParseError(f"{path} line {reader.line_num}: {exc}") from None


def _numbered(path, reader, width, before=0):
    """``(line, row)`` for each remaining row of ``reader``, ``line`` its first physical line.

    ``before`` is the number of lines in the file ahead of the reader's
    first. A row without exactly ``width`` fields, a blank line included, or
    that csv cannot parse, raises TraceParseError.
    """
    line = before + reader.line_num + 1
    try:
        for row in reader:
            if len(row) != width:
                raise TraceParseError(f"{path} line {line}: expected {width} fields, got {len(row)}")
            yield line, row
            line = before + reader.line_num + 1
    except csv.Error as exc:
        raise TraceParseError(f"{path} line {before + reader.line_num}: {exc}") from None


def write_rows(path, header, rows) -> None:
    """Write ``header`` and ``rows`` as CSV; every float cell, Python or numpy, via ``fmt_float``."""
    with tensorio.atomic_open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(
            [fmt_float(cell) if isinstance(cell, (float, np.floating)) else cell for cell in row]
            for row in rows
        )


def _line_cap(width: int) -> int:
    """Characters in a line beyond any legal row of ``width`` fields.

    A field of at most ``csv.field_size_limit()`` characters takes at most
    twice as many plus two in the file, quoted with each quote doubled; the
    cap leaves room for one field more than ``width``, commas and line end
    included.
    """
    return (width + 1) * (2 * csv.field_size_limit() + 3)


def _line_block(readline, cap: int) -> list[str]:
    """Lines from ``readline`` up to about ``_BLOCK_CHARS`` characters.

    Each is read with ``readline(cap + 1)``, so a line longer than ``cap``
    characters is cut after ``cap + 1`` of them and ends the block.
    """
    block, size = [], 0
    while size < _BLOCK_CHARS and (line := readline(cap + 1)):
        block.append(line)
        size += len(line)
        if len(line) > cap:
            break
    return block


def _decoded_blocks(fh, path, width=None):
    """Blocks of lines of ``fh``, opened with errors="surrogateescape"; none is empty.

    A line holding an undecodable byte raises TraceParseError once the lines
    before it are out. Checking block by block, all-ASCII text, which cannot
    hold one, costs no Python call per line. Every line is read with a cap
    (``_line_cap``), so a file without newlines is not read whole. The header,
    a block of its own, is capped for its ``width`` fields; a trace header
    (``width`` None) is read in pieces of a 4-field cap while
    ``_may_be_trace_header`` holds, so one of any class count is read whole.
    The lines after it are capped for the header's field count. A longer
    line is handed on cut, so that csv reports a field over its limit there
    as it would on the whole line, and asking for the line after it raises
    TraceParseError.
    """
    cap = _line_cap(width or 4)
    header = piece = fh.readline(cap + 1)
    while width is None and len(piece) > cap and _may_be_trace_header(header):
        piece = fh.readline(cap + 1)
        header += piece
    cap = _line_cap(width or header.count(",") + 1)
    block = [header] if header else []
    line_no = 0
    while block:
        if not all(map(str.isascii, block)):
            for i, line in enumerate(block):
                # An undecodable byte b is read as the lone surrogate
                # U+DC00 + b, which no encoding can encode.
                try:
                    line.encode(fh.encoding)
                except UnicodeEncodeError as exc:
                    if i:
                        yield block[:i]
                    byte = ord(line[exc.start]) - 0xDC00
                    raise TraceParseError(
                        f"{path} line {line_no + i + 1}: byte 0x{byte:02x} is not valid {fh.encoding} text"
                    ) from None
        line_no += len(block)
        yield block
        if len(block[-1]) > cap:
            raise TraceParseError(f"{path} line {line_no}: longer than {cap} characters")
        block = _line_block(fh.readline, cap)


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
        writer.writerow(_trace_header(k))
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
    """Read an ``index,label`` CSV covering indices 0..N-1 exactly once (``01`` repeats ``1``)."""
    entries = dict(_read_records(path, LABEL_COLUMNS, lambda index, label: (index, label), (int, int), (0,)))
    n = n_items if n_items is not None else len(entries)
    if sorted(entries) != list(range(n)):
        raise TraceParseError(f"{path}: indices must cover 0..{n - 1} exactly once")
    return np.asarray([entries[i] for i in range(n)], dtype=np.int64)


def write_labels(path, labels) -> None:
    write_rows(path, LABEL_COLUMNS, ([i, int(label)] for i, label in enumerate(labels)))


def _read_records(path, columns, record, types, key_fields=()) -> list:
    """``record`` of each row of the table at ``path``, its fields converted by ``types``.

    The first row must be ``columns``, and every row must have exactly as
    many fields; a blank line is a row of none. Each row is converted and
    checked as it is read, so the first faulty line in the file is reported.
    A field or record that raises ValueError, and a repeat of the converted
    fields at ``key_fields``, raise TraceParseError naming the line.
    """
    records, seen = [], {}
    names = ", ".join(columns[i] for i in key_fields)
    with open(path, newline="", errors="surrogateescape") as fh:
        reader = csv.reader(itertools.chain.from_iterable(_decoded_blocks(fh, path, len(columns))))
        if _first_row(path, reader) != list(columns):
            raise TraceParseError(f"{path} line 1: header must be {','.join(columns)}")
        for line_no, row in _numbered(path, reader, len(columns)):
            try:
                fields = [convert(field) for convert, field in zip(types, row)]
                records.append(record(*fields))
            except ValueError as exc:
                raise TraceParseError(f"{path} line {line_no}: {exc}") from None
            key = tuple(fields[i] for i in key_fields)
            first = seen.setdefault(key, line_no)
            if key_fields and first != line_no:
                shown = key[0] if len(key) == 1 else key
                raise TraceParseError(
                    f"{path} line {line_no}: duplicate ({names}) {shown!r}, first on line {first}"
                )
    return records


def read_accuracies(path) -> list[AccuracyRecord]:
    """Read an accuracy CSV; a repeated (model_id, dataset_id) raises TraceParseError."""
    return _read_records(path, ACCURACY_COLUMNS, AccuracyRecord, (str, str, str, int, int), (0, 2))


def write_accuracies(path, records) -> None:
    write_rows(
        path,
        ACCURACY_COLUMNS,
        ([r.model_id, r.group, r.dataset_id, r.correct, r.total] for r in records),
    )


def read_metrics(path) -> list[MetricRecord]:
    """Read a model-metrics CSV; a repeated (model_id, metric_name) raises TraceParseError."""
    return _read_records(path, METRIC_COLUMNS, MetricRecord, (str, str, float, str), (0, 1))


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
    records = _read_records(path, PATH_METRIC_COLUMNS, _path_metrics_record, (str, str, str), (0,))
    per_path = [rec for rec in records if isinstance(rec, PathMetrics)]
    footer = {_FOOTER_KEYS[rec[0]]: rec[1:] for rec in records if not isinstance(rec, PathMetrics)}
    return per_path, footer


def _path_metrics_record(path_id: str, hff: str, cd: str):
    """A footer row's raw fields, or any other row as PathMetrics."""
    if path_id in _FOOTER_KEYS:
        return path_id, hff, cd
    return PathMetrics(path_id, float(hff), int(cd))


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
    types = (str,) * len(FIT_COLUMNS)
    return _read_records(path, FIT_COLUMNS, lambda *row: dict(zip(FIT_COLUMNS, row)), types)
