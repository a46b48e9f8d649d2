import csv
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spectral_robustness import (
    AccuracyRecord,
    InvalidInputError,
    MetricRecord,
    PredictionTrace,
    TraceParseError,
    compute_path_metrics,
    summarize_gaussian,
)
from spectral_robustness import tables
from spectral_robustness.path_metrics import ROW_SUM_TOLERANCE
from spectral_robustness.tables import (
    fmt_float,
    read_accuracies,
    read_labels,
    read_metrics,
    read_path_metrics,
    read_traces,
    write_accuracies,
    write_labels,
    write_metrics,
    write_path_metrics,
    write_traces,
)

VALID_TRACES = """path_id,step,p_0,p_1
a,1,0.5,0.5
a,2,0.25,0.75
a,3,0.1,0.9
b,1,1.0,0.0
b,2,0.0,1.0
"""


def write_text(tmp_path, content, name="t.csv"):
    p = tmp_path / name
    p.write_text(content)
    return p


def reference_fmt_float(x) -> str:
    return np.format_float_positional(np.float64(x), unique=True, trim="-")


class TestFmtFloat:
    @settings(max_examples=2000, deadline=None)
    @given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
    def test_matches_numpy_positional(self, x):
        assert fmt_float(x) == reference_fmt_float(x)

    @pytest.mark.parametrize(
        "x",
        [
            0.0, -0.0, 1e-5, -1e-5, 1.5e-5, 9.999e-5, 1e-4, 1e15, 1e16, 1.2345e16, 1e22,
            5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
            -1.7976931348623157e308, float("inf"), float("-inf"), float("nan"),
            0.1, 1 / 3, 2.0**53, 2.0**53 + 2, 0, 1, -7, 123456789, 10**20, np.float32(0.1),
        ],
    )
    def test_edge_values(self, x):
        assert fmt_float(x) == reference_fmt_float(x)

    def test_never_exponent_form(self):
        assert fmt_float(1.5e-5) == "0.000015"
        assert fmt_float(1e16) == "10000000000000000"
        assert fmt_float(-2.0) == "-2"


class TestReadTraces:
    def test_two_valid_paths(self, tmp_path):
        traces = read_traces(write_text(tmp_path, VALID_TRACES))
        assert [t.path_id for t in traces] == ["a", "b"]
        assert traces[0].probs.shape == (3, 2)
        assert traces[1].probs[1, 1] == 1.0

    def test_bad_row_sum_names_line(self, tmp_path):
        content = VALID_TRACES.replace("a,2,0.25,0.75", "a,2,0.25,0.55")
        with pytest.raises(TraceParseError, match="line 3"):
            read_traces(write_text(tmp_path, content))

    def test_missing_step_is_non_contiguous(self, tmp_path):
        content = VALID_TRACES.replace("a,2,0.25,0.75\n", "")
        with pytest.raises(TraceParseError, match="contiguous"):
            read_traces(write_text(tmp_path, content))

    def test_steps_must_start_at_one(self, tmp_path):
        content = "path_id,step,p_0,p_1\nq,2,0.5,0.5\nq,3,0.5,0.5\n"
        with pytest.raises(TraceParseError, match="line 2"):
            read_traces(write_text(tmp_path, content))

    def test_negative_probability_rejected(self, tmp_path):
        content = VALID_TRACES.replace("b,2,0.0,1.0", "b,2,-0.1,1.1")
        with pytest.raises(TraceParseError, match="negative"):
            read_traces(write_text(tmp_path, content))

    def test_bad_header_rejected(self, tmp_path):
        with pytest.raises(TraceParseError, match="header"):
            read_traces(write_text(tmp_path, "id,step,p_0,p_1\nx,1,0.5,0.5\n"))

    def test_single_step_path_rejected(self, tmp_path):
        content = VALID_TRACES + "c,1,0.5,0.5\n"
        with pytest.raises(TraceParseError, match="fewer than 2"):
            read_traces(write_text(tmp_path, content))

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        raw = rng.random((7, 3))
        probs = raw / raw.sum(axis=1, keepdims=True)
        traces = [PredictionTrace(probs, path_id="p0")]
        out = tmp_path / "out.csv"
        write_traces(out, traces)
        back = read_traces(out)
        assert np.array_equal(back[0].probs, probs)

    @pytest.mark.parametrize("block_chars", [1, 30, 1 << 16])
    def test_interleaved_paths_grouped_in_first_appearance_order(
        self, tmp_path, monkeypatch, block_chars
    ):
        monkeypatch.setattr(tables, "_BLOCK_CHARS", block_chars)
        content = (
            "path_id,step,p_0,p_1\n"
            "b,1,0.5,0.5\na,1,1.0,0.0\nb,2,0.25,0.75\nc,1,0.1,0.9\n"
            "a,2,0.0,1.0\nc,2,0.2,0.8\nb,3,0.125,0.875\n"
        )
        traces = read_traces(write_text(tmp_path, content))
        assert [t.path_id for t in traces] == ["b", "a", "c"]
        assert traces[0].probs[:, 0].tolist() == [0.5, 0.25, 0.125]
        assert traces[1].probs.tolist() == [[1.0, 0.0], [0.0, 1.0]]
        assert traces[2].probs[:, 1].tolist() == [0.9, 0.8]

    @pytest.mark.parametrize(
        "row, message",
        [
            ("a,1,0.5", "line 2: expected 4 fields, got 3"),
            ("a,x,0.5,0.5", "line 2: invalid literal for int() with base 10: 'x'"),
            ("a,1,0.5,half", "line 2: could not convert string to float: 'half'"),
            (
                "a,2,0.5,0.5",
                "line 2: path 'a' expected step 1, got 2 (steps must be contiguous from 1)",
            ),
            (
                "a,99999999999999999999999,0.5,0.5",
                "line 2: path 'a' expected step 1, got 99999999999999999999999 "
                "(steps must be contiguous from 1)",
            ),
            ("a,1,-0.5,1.5", "line 2: path 'a' has a negative probability"),
            ("a,1,0.5,0.4", "line 2: path 'a' probabilities sum to 0.900000, not 1"),
            ("a,1,inf,0.5", "line 2: path 'a' probabilities sum to inf, not 1"),
            ("a,1,nan,0.5", "line 2: path 'a' has a non-finite probability"),
        ],
    )
    def test_single_fault_messages(self, tmp_path, row, message):
        path = write_text(tmp_path, f"path_id,step,p_0,p_1\n{row}\na,2,0.5,0.5\n")
        with pytest.raises(TraceParseError) as info:
            read_traces(path)
        assert str(info.value) == f"{path} {message}"

    @pytest.mark.parametrize(
        "rows, line",
        [
            (["a,1,0.5,0.5", "a,x,0.5,0.5", "a,3,0.5,0.5", "a,4,0.5"], 3),
            (["a,1,0.5,0.5", "a,2,0.5", "a,3,0.5,0.5", "a,x,0.5,0.5"], 3),
            (["a,1,0.5,0.5", "a,2,0.5,0.4", "a,3,0.5,0.5", "a,4,0.5"], 3),
            (["a,1,0.5,0.5", "a,2,0.5,0.5", "a,3,0.5,nan", "a,3,zero,0.5"], 4),
            (["a,1,0.5,0.5", "a,2,0.5,0.5", "a,3,0.5,0.5", "a,5,-1,2", "a,x,0.5,0.5"], 5),
            (["a,1,0.5,0.5", "a,2,0.5,0.5", "a,3,0.5", "b,1,0.5,0.5", "b,2,0.5,0.5"], 4),
        ],
    )
    @pytest.mark.parametrize("block_chars", [1, 30, 1 << 16])
    def test_first_fault_in_file_order_is_reported(
        self, tmp_path, monkeypatch, rows, line, block_chars
    ):
        monkeypatch.setattr(tables, "_BLOCK_CHARS", block_chars)
        content = "path_id,step,p_0,p_1\n" + "\n".join(rows) + "\n"
        with pytest.raises(TraceParseError, match=f"line {line}:"):
            read_traces(write_text(tmp_path, content))

    def test_row_sum_checked_as_prediction_trace_checks_it(self, tmp_path):
        # Summed left to right this row is 1.0001, within the tolerance; numpy's
        # row sum, which PredictionTrace uses, can round it to just above.
        row = [
            0.11599786885353584, 0.019708942096822033, 0.2176073802093417,
            0.1266264320195725, 0.001420266352009653, 0.17122604982590556,
            0.21679252834962204, 0.13072053229319067,
        ]
        values = ",".join(map(repr, row))
        header = "path_id,step," + ",".join(f"p_{i}" for i in range(8))
        content = f"{header}\na,1,{values}\na,2,{values}\n"
        try:
            traces = read_traces(write_text(tmp_path, content))
        except TraceParseError as exc:
            assert "line 2:" in str(exc)
        else:
            assert traces[0].probs.tolist() == [row, row]

    def test_peak_memory_follows_the_table(self, tmp_path):
        rng = np.random.default_rng(5)
        n_paths, t, k = 200, 100, 10
        path = tmp_path / "t.csv"
        write_traces(
            path,
            [PredictionTrace(rng.dirichlet(np.ones(k), t), path_id=f"p{i}") for i in range(n_paths)],
        )
        tracemalloc.start()
        try:
            traces = read_traces(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(traces) == n_paths
        assert peak <= 5 * n_paths * t * k * 8


def reference_read_traces(path):
    """The README's trace contract, checked one row at a time.

    Each row is checked in full, in the order field count, parse, step, sign,
    row sum (``np.sum`` of the row as float64), finiteness, before the next
    line is read.
    """
    with open(path) as fh:
        encoding = fh.encoding

    def decoded_lines():
        for line_no, raw in enumerate(path.read_bytes().splitlines(keepends=True), start=1):
            try:
                yield raw.decode(encoding)
            except UnicodeDecodeError as exc:
                raise TraceParseError(
                    f"{path} line {line_no}: byte 0x{raw[exc.start]:02x} is not valid {encoding} text"
                ) from None

    reader = csv.reader(decoded_lines())
    traces: dict[str, list[list[float]]] = {}
    try:
        header = next(reader)
        k = len(header) - 2
        line_no = reader.line_num + 1
        for row in reader:
            where = f"{path} line {line_no}"
            if len(row) != k + 2:
                raise TraceParseError(f"{where}: expected {k + 2} fields, got {len(row)}")
            path_id = row[0]
            try:
                step = int(row[1])
                probs = [float(p) for p in row[2:]]
            except ValueError as exc:
                raise TraceParseError(f"{where}: {exc}") from None
            earlier = traces.setdefault(path_id, [])
            if step != len(earlier) + 1:
                raise TraceParseError(
                    f"{where}: path {path_id!r} expected step {len(earlier) + 1}, got {step} "
                    "(steps must be contiguous from 1)"
                )
            if any(p < 0 for p in probs):
                raise TraceParseError(f"{where}: path {path_id!r} has a negative probability")
            with np.errstate(over="ignore", invalid="ignore"):
                total = np.sum(np.array(probs, dtype=np.float64))
            if abs(total - 1.0) > ROW_SUM_TOLERANCE:
                raise TraceParseError(f"{where}: path {path_id!r} probabilities sum to {total:.6f}, not 1")
            if not all(map(math.isfinite, probs)):
                raise TraceParseError(f"{where}: path {path_id!r} has a non-finite probability")
            earlier.append(probs)
            line_no = reader.line_num + 1
    except csv.Error as exc:
        raise TraceParseError(f"{path} line {reader.line_num}: {exc}") from None
    for path_id, rows in traces.items():
        if len(rows) < 2:
            raise TraceParseError(f"{path}: path {path_id!r} has fewer than 2 steps")
    return [PredictionTrace(np.array(rows), path_id) for path_id, rows in traces.items()]


# Values a mutation may put into one field, by mutation name.
FIELD_VALUES = {
    "bad float": "half", "negative": "-0.5", "sum off": "0.9",
    "nan": "nan", "inf": "inf", "-inf": "-inf", "1e400": "1e400",
}
MUTATIONS = [
    "drop", "duplicate", "swap", "short", "long", "blank", "undecodable", "over limit",
    "quoted newline", "bad int", *FIELD_VALUES,
]


def mutate(rows, kind, i, j):
    """Apply one row-level mutation to ``rows`` (lists of field strings) in place."""
    if not rows:
        return
    r = i % len(rows)
    row = rows[r]
    field = j % len(row) if row else None
    if kind == "drop":
        del rows[r]
    elif kind == "duplicate":
        rows.insert(r, list(row))
    elif kind == "swap":
        s = j % len(rows)
        rows[r], rows[s] = rows[s], rows[r]
    elif kind == "short":
        rows[r] = row[:-1]
    elif kind == "long":
        rows[r] = row + ["0"]
    elif kind == "blank":
        rows.insert(r, [])
    elif kind == "undecodable" and row:
        row[0] += "\udcff"
    elif kind == "over limit" and row:
        row[0] = "x" * 200_000
    elif kind == "quoted newline" and row:
        row[field] = f'"{row[field]}\n"'
    elif kind == "bad int" and len(row) > 1:
        row[1] = "x"
    elif field is not None and kind in FIELD_VALUES:
        row[field] = FIELD_VALUES[kind]


@st.composite
def trace_tables(draw):
    """Bytes of a trace CSV after 0 to 2 row-level mutations.

    Before them it is valid: up to 3 interleaved paths of 2 to 5 steps, K = 2 or 3.
    """
    rnd = draw(st.randoms(use_true_random=False))
    k = rnd.randint(2, 3)
    order = [p for p in range(rnd.randint(1, 3)) for _ in range(rnd.randint(2, 5))]
    rnd.shuffle(order)
    steps = [0, 0, 0]
    rows = []
    for p in order:
        steps[p] += 1
        weights = [rnd.randint(0, 4) for _ in range(k)]
        weights[rnd.randrange(k)] += 1
        rows.append(["abc"[p], str(steps[p]), *(repr(w / sum(weights)) for w in weights)])
    for _ in range(rnd.randint(0, 2)):
        mutate(rows, rnd.choice(MUTATIONS), rnd.randrange(100), rnd.randrange(100))
    header = "path_id,step," + ",".join(f"p_{i}" for i in range(k))
    text = "\n".join([header] + [",".join(row) for row in rows]) + "\n"
    return text.encode("utf-8", "surrogateescape")


def outcome(read, path):
    """The traces ``read`` returns, to the bit, or its TraceParseError text."""
    try:
        return [(t.path_id, t.probs.shape, t.probs.tobytes()) for t in read(path)]
    except TraceParseError as exc:
        return str(exc)


class TestReadTracesAgainstReference:
    @settings(
        max_examples=150,
        derandomize=True,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(trace_tables())
    def test_same_traces_or_same_message(self, tmp_path, content):
        path = tmp_path / "t.csv"
        path.write_bytes(content)
        assert outcome(read_traces, path) == outcome(reference_read_traces, path)


def reference_write_traces(path, traces):
    """The per-value trace writer that write_traces must match byte for byte."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["path_id", "step"] + [f"p_{i}" for i in range(traces[0].probs.shape[1])])
        for trace in traces:
            for step, row in enumerate(trace.probs, start=1):
                writer.writerow([trace.path_id, step] + [reference_fmt_float(p) for p in row])


class TestWriteTraces:
    def test_bytes_match_per_value_writer(self, tmp_path):
        rng = np.random.default_rng(3)
        logits = 12 * rng.standard_normal((6, 5))
        soft = np.exp(logits - logits.max(axis=1, keepdims=True))
        one_hot = np.eye(5)[[0, 4, 4, 2]]
        tiny = np.full((3, 5), 2.5e-5)
        tiny[:, 0] = 1 - 4 * 2.5e-5
        zeros = np.array([[0.0, 0.5, 0.0, 0.25, 0.25], [0.25, 0.25, 0.25, 0.25, 0.0]])
        traces = [
            PredictionTrace(soft / soft.sum(axis=1, keepdims=True), path_id="plain"),
            PredictionTrace(one_hot, path_id="comma,id"),
            PredictionTrace(tiny, path_id='quote "id"'),
            PredictionTrace(rng.dirichlet(np.full(5, 0.05), 4), path_id=""),
            PredictionTrace(rng.dirichlet(np.ones(5), 4), path_id="line\nbreak"),
            PredictionTrace(zeros, path_id="zeros"),
            PredictionTrace(np.asfortranarray(rng.dirichlet(np.ones(5), 3)), path_id="F order"),
        ]
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_traces(got, traces)
        reference_write_traces(want, traces)
        assert got.read_bytes() == want.read_bytes()
        assert b"e-" not in got.read_bytes()
        back = read_traces(got)
        assert [t.path_id for t in back] == [t.path_id for t in traces]
        assert all(np.array_equal(b.probs, t.probs) for b, t in zip(back, traces))

    def test_mixed_class_counts_write_no_file(self, tmp_path):
        traces = [
            PredictionTrace(np.full((3, 2), 0.5), path_id="two"),
            PredictionTrace(np.full((3, 3), 1 / 3), path_id="three"),
        ]
        out = tmp_path / "out.csv"
        with pytest.raises(TraceParseError, match="class count"):
            write_traces(out, traces)
        assert not out.exists()


# Each reader, its header plus one valid row, and a row template whose first
# field (the label, for read_labels) is "{}"; "2" and "2\n" keep the row valid.
READERS = [
    (read_traces, "path_id,step,p_0,p_1\na,1,0.5,0.5\na,2,0.5,0.5\n", "{},1,0.5,0.5\n"),
    (read_labels, "index,label\n0,1\n", "1,{}\n"),
    (read_accuracies, "model_id,group,dataset_id,correct,total\nm0,g,d,8,10\n", "{},g,d,8,10\n"),
    (read_metrics, "model_id,metric_name,value,value_kind\nm0,hff,0.2,raw\n", "{},hff,0.2,raw\n"),
    (read_path_metrics, "path_id,hff,cd\np0,0.2,3\n", "{},0.2,3\n"),
    (tables.read_fit, ",".join(tables.FIT_COLUMNS) + "\ng,2,1,0,1,fitted,x,raw,ood\n",
     "{},2,1,0,1,fitted,x,raw,ood\n"),
]


class TestUnreadableLines:
    """Lines that do not decode or that csv cannot parse fail with their line."""

    @pytest.mark.parametrize("reader, head, row", READERS)
    def test_field_over_csv_limit(self, tmp_path, reader, head, row):
        path = write_text(tmp_path, head + row.format("x" * 200_000))
        with pytest.raises(TraceParseError) as info:
            reader(path)
        line = head.count("\n") + 1
        assert str(info.value).startswith(f"{path} line {line}: field larger than field limit")

    @pytest.mark.parametrize("reader, head, row", READERS)
    def test_undecodable_byte(self, tmp_path, reader, head, row):
        path = tmp_path / "t.csv"
        path.write_bytes(head.encode() + row.format("\udcff").encode("utf-8", "surrogateescape"))
        with pytest.raises(TraceParseError) as info:
            reader(path)
        line = head.count("\n") + 1
        assert str(info.value).startswith(f"{path} line {line}: byte 0xff is not valid")

    @pytest.mark.parametrize("reader, head, row", READERS)
    def test_unreadable_header(self, tmp_path, reader, head, row):
        path = tmp_path / "t.csv"
        path.write_bytes(b"\xfe" + head.encode())
        with pytest.raises(TraceParseError) as info:
            reader(path)
        assert str(info.value).startswith(f"{path} line 1: byte 0xfe is not valid")

    @pytest.mark.parametrize("unreadable", ["x" * 200_000, "\udcff"])
    @pytest.mark.parametrize("block_chars", [1, 30, 1 << 16])
    def test_first_fault_in_file_order_wins_over_unreadable_line(
        self, tmp_path, monkeypatch, unreadable, block_chars
    ):
        monkeypatch.setattr(tables, "_BLOCK_CHARS", block_chars)
        rows = ["a,1,0.5,0.5", "a,2,0.5,0.5", "b,1,0.5,0.5", f"{unreadable},1,0.5,0.5"]
        path = tmp_path / "t.csv"
        content = "path_id,step,p_0,p_1\n" + "\n".join(rows) + "\n"
        path.write_bytes(content.encode("utf-8", "surrogateescape"))
        with pytest.raises(TraceParseError) as info:
            read_traces(path)
        assert str(info.value).startswith(f"{path} line 5: ")
        rows[1] = "a,3,0.5,0.5"
        content = "path_id,step,p_0,p_1\n" + "\n".join(rows) + "\n"
        path.write_bytes(content.encode("utf-8", "surrogateescape"))
        with pytest.raises(TraceParseError, match="line 3: path 'a' expected step 2"):
            read_traces(path)

    def test_non_ascii_text_still_reads(self, tmp_path):
        path = write_text(tmp_path, "path_id,step,p_0,p_1\né,1,0.5,0.5\né,2,0.5,0.5\n")
        assert [t.path_id for t in read_traces(path)] == ["é"]


class TestRowShape:
    """Every reader wants exactly the header's field count and names the physical line."""

    @staticmethod
    def cases(row):
        long_row = row.format("2").replace("\n", ",9\n")
        short_row = row.format("2").rsplit(",", 1)[0] + "\n"
        return [
            # (body after the head, first line of the bad row, fields it has)
            (long_row, 0, 1),
            (short_row, 0, -1),
            ("\n" + row.format("2"), 0, None),
            (row.format('"2\n"') + long_row, 2, 1),
        ]

    @pytest.mark.parametrize("case", range(4), ids=["long", "short", "blank", "quoted newline"])
    @pytest.mark.parametrize("reader, head, row", READERS)
    def test_wrong_field_count_names_physical_line(self, tmp_path, reader, head, row, case):
        body, offset, extra = self.cases(row)[case]
        path = write_text(tmp_path, head + body)
        width = head.split("\n")[0].count(",") + 1
        got = 0 if extra is None else width + extra
        with pytest.raises(TraceParseError) as info:
            reader(path)
        line = head.count("\n") + 1 + offset
        assert str(info.value) == f"{path} line {line}: expected {width} fields, got {got}"


class TestLabels:
    def test_round_trip(self, tmp_path):
        out = tmp_path / "labels.csv"
        write_labels(out, [1, 0, 2, 1])
        assert np.array_equal(read_labels(out), [1, 0, 2, 1])

    def test_incomplete_coverage_rejected(self, tmp_path):
        content = "index,label\n0,1\n2,0\n"
        with pytest.raises(TraceParseError, match="cover"):
            read_labels(write_text(tmp_path, content))

    def test_duplicate_index_rejected(self, tmp_path):
        content = "index,label\n0,1\n0,2\n"
        with pytest.raises(TraceParseError, match="duplicate"):
            read_labels(write_text(tmp_path, content))


class TestAccuracyMetricTables:
    def test_accuracies_round_trip(self, tmp_path):
        records = [
            AccuracyRecord("m0", "conv", "id-set", 812, 1000),
            AccuracyRecord("m1", "vgg", "ood-set", 455, 1000),
        ]
        out = tmp_path / "acc.csv"
        write_accuracies(out, records)
        assert read_accuracies(out) == records

    def test_metrics_round_trip(self, tmp_path):
        records = [
            MetricRecord("m0", "amp_hff", 0.1875, "raw"),
            MetricRecord("m1", "ID accuracy", 0.91, "accuracy"),
        ]
        out = tmp_path / "met.csv"
        write_metrics(out, records)
        assert read_metrics(out) == records

    def test_accuracy_header_enforced(self, tmp_path):
        with pytest.raises(TraceParseError, match="header"):
            read_accuracies(write_text(tmp_path, "model,grp\nm,g\n"))

    def test_bad_counts_named_with_line(self, tmp_path):
        content = "model_id,group,dataset_id,correct,total\nm0,g,d,junk,100\n"
        with pytest.raises(TraceParseError, match="line 2"):
            read_accuracies(write_text(tmp_path, content))

    def test_duplicate_accuracy_rows_rejected_with_both_lines(self, tmp_path):
        content = (
            "model_id,group,dataset_id,correct,total\n"
            "m0,g,id-set,80,100\nm0,g,ood-set,60,100\nm0,h,id-set,81,100\n"
        )
        with pytest.raises(TraceParseError, match="line 4: duplicate.*first on line 2"):
            read_accuracies(write_text(tmp_path, content))

    def test_duplicate_metric_rows_rejected_with_both_lines(self, tmp_path):
        content = (
            "model_id,metric_name,value,value_kind\n"
            "m0,amp_hff,0.2,raw\nm1,amp_hff,0.3,raw\nm0,amp_hff,0.25,raw\n"
        )
        with pytest.raises(TraceParseError, match="line 4: duplicate.*first on line 2"):
            read_metrics(write_text(tmp_path, content))


class TestPathMetricsTable:
    def test_round_trip_with_footer(self, tmp_path):
        rng = np.random.default_rng(1)
        raw = rng.random((20, 3))
        traces = [
            PredictionTrace(raw / raw.sum(axis=1, keepdims=True), path_id=f"p{i}")
            for i in range(3)
        ]
        per_path = compute_path_metrics(traces, threshold_k=4)
        hff_summary = summarize_gaussian([m.hff for m in per_path])
        cd_summary = summarize_gaussian([m.cd for m in per_path])
        out = tmp_path / "metrics.csv"
        write_path_metrics(out, per_path, hff_summary, cd_summary, threshold_k=4)

        rows, footer = read_path_metrics(out)
        assert [r.path_id for r in rows] == ["p0", "p1", "p2"]
        assert rows[0].hff == per_path[0].hff
        assert footer["hff_threshold_k"][0] == "4"
        assert float(footer["mean"][0]) == hff_summary.mean
        assert float(footer["ci95_high"][1]) == cd_summary.ci95_high

    def test_underscored_path_id_is_a_path(self, tmp_path):
        traces = [PredictionTrace(np.full((5, 2), 0.5), path_id=pid) for pid in ("__x__", "p")]
        per_path = compute_path_metrics(traces, threshold_k=2)
        s = summarize_gaussian([m.hff for m in per_path])
        c = summarize_gaussian([m.cd for m in per_path])
        out = tmp_path / "metrics.csv"
        write_path_metrics(out, per_path, s, c, 2)
        rows, footer = read_path_metrics(out)
        assert rows == per_path
        assert sorted(footer) == ["ci95_high", "ci95_low", "hff_threshold_k", "mean", "n", "sample_std"]

    @pytest.mark.parametrize(
        "path_id",
        ["__hff_threshold_k__", "__mean__", "__sample_std__", "__n__", "__ci95_low__", "__ci95_high__"],
    )
    def test_footer_name_as_path_id_rejected_before_writing(self, tmp_path, path_id):
        per_path = compute_path_metrics([PredictionTrace(np.full((5, 2), 0.5), path_id=path_id)], 2)
        s = summarize_gaussian([m.hff for m in per_path])
        out = tmp_path / "metrics.csv"
        with pytest.raises(InvalidInputError, match=f"path_id '{path_id}' is reserved"):
            write_path_metrics(out, per_path, s, s, 2)
        assert not out.exists()

    @pytest.mark.parametrize(
        "body, key, first",
        [
            ("p0,0.2,3\n__mean__,0.2,3\np1,0.4,5\n__mean__,0.3,4\n", "'__mean__'", 3),
            ("p0,0.2,3\np1,0.4,5\n__mean__,0.3,4\np0,0.3,4\n", "'p0'", 2),
        ],
    )
    def test_repeated_row_rejected_with_both_lines(self, tmp_path, body, key, first):
        path = write_text(tmp_path, "path_id,hff,cd\n" + body)
        with pytest.raises(TraceParseError) as info:
            read_path_metrics(path)
        assert str(info.value) == f"{path} line 5: duplicate (path_id) {key}, first on line {first}"

    def test_deterministic_bytes(self, tmp_path):
        raw = np.full((5, 2), 0.5)
        traces = [PredictionTrace(raw, path_id="p")]
        per_path = compute_path_metrics(traces, threshold_k=2)
        s = summarize_gaussian([m.hff for m in per_path])
        c = summarize_gaussian([m.cd for m in per_path])
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_path_metrics(a, per_path, s, c, 2)
        write_path_metrics(b, per_path, s, c, 2)
        assert a.read_bytes() == b.read_bytes()
