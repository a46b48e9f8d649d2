import numpy as np
import pytest

from spectral_robustness import (
    AccuracyRecord,
    MetricRecord,
    PredictionTrace,
    TraceParseError,
    compute_path_metrics,
    summarize_gaussian,
)
from spectral_robustness.tables import (
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
