"""Spans, counters and the calibrated clock of one benchmark process.

Spans wrap the benchmark's own calls into each package module. A span records
its name (``<module>.<function>``), start, end, parent span, root span and the
run id; spans stay in memory and are written once, when the run ends. A
disabled tracer records no spans, so the untraced run pays only for a no-op
context manager per call.

The clock: on a shared host the CPU's speed swings by up to 60% within
seconds, and all kinds of work slow together. So at module-call boundaries, at
most every PROBE_INTERVAL seconds of work, the tracer times a small fixed
reference kernel. A run's calibrated time sums each stretch of work scaled by
REF_SECONDS / (the mean of the probes around it): seconds at the host speed at
which the kernel takes REF_SECONDS, about its time on a quiet 2-vCPU x86_64
host. Probe time is excluded from every time the tracer reports, and span
times are calibrated the same way.
"""

from __future__ import annotations

import bisect
import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

REF_SECONDS = 0.0011
PROBE_INTERVAL = 0.05

# Span name -> per-layer time metric it feeds. Spans with no entry here (the
# benchmark's own ``bench.*`` spans) feed ``bench.glue_s``.
TIME_METRICS = {
    "paths.sample_path_specs": "paths.sample_s",
    "paths.amplitude_path": "paths.amplitude_s",
    "paths.phase_path": "paths.phase_s",
    "jacobian.predict": "jacobian.predict_s",
    "jacobian.fit_mlp": "jacobian.fit_s",
    "path_metrics.PredictionTrace": "path_metrics.trace_s",
    "path_metrics.hff": "path_metrics.hff_s",
    "path_metrics.consistent_distance": "path_metrics.cd_s",
    "spectral.psd": "spectral.psd_s",
    "corruptions.corrupt_batch": "corruptions.s",
    "shift_psd.paired_shift_psd": "shift_psd.paired_s",
    "shift_psd.class_averaged_shift_psd": "shift_psd.class_averaged_s",
    "shift_psd.band_fractions": "shift_psd.summary_s",
    "shift_psd.radial_profile": "shift_psd.summary_s",
    "tensorio.write_tensor": "tensorio.write_s",
    "tensorio.read_tensor": "tensorio.read_s",
    "tables.write_traces": "tables.write_traces_s",
    "tables.write_labels": "tables.write_s",
    "tables.write_accuracies": "tables.write_s",
    "tables.write_metrics": "tables.write_s",
    "tables.read_path_metrics": "tables.read_s",
    "regression.grouped_regression": "regression.fit_s",
    "synthetic.make_blobs": "synthetic.s",
    "synthetic.powerlaw_images": "synthetic.s",
}
GLUE = "bench.glue_s"


def reference_kernel():
    """Fixed numpy work mixing FFTs, a matmul, tanh and a Python loop, as the package does.

    Returns a function that runs the kernel once and returns its wall time.
    """
    rng = np.random.default_rng(12345)
    images = rng.normal(size=(8, 3, 32, 32))
    a, b = rng.normal(size=(32, 3072)), rng.normal(size=(3072, 32))

    def run() -> float:
        start = time.perf_counter()
        np.fft.ifft2(np.fft.fft2(images, axes=(-2, -1)), axes=(-2, -1)).real
        np.tanh(a @ b)
        sum(float(i) * 0.5 for i in range(1000))
        return time.perf_counter() - start

    for _ in range(20):
        run()
    return run


class Tracer:
    """Span and counter recorder and calibrated clock for one benchmark process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.enabled = False
        self.spans: list[dict] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._stack: list[int] = []
        self._reference = reference_kernel()
        self._probe_time = 0.0
        self._mark: float | None = None
        self._last_ref = 0.0
        self._segments: list[tuple[float, float]] = []
        # Every calibrated stretch of work: start, end (work seconds) and factor.
        self._timeline: list[tuple[float, float, float]] = []

    def now(self) -> float:
        """Seconds of work: the wall clock less the time spent in reference probes."""
        return time.perf_counter() - self._probe_time

    def _probe(self) -> float:
        start = time.perf_counter()
        seconds = self._reference()
        self._probe_time += time.perf_counter() - start
        return seconds

    def _close_segment(self) -> None:
        end = self.now()
        ref = self._probe()
        factor = 2 * REF_SECONDS / (self._last_ref + ref)
        self._segments.append((end - self._mark, factor))
        self._timeline.append((self._mark, end, factor))
        self._last_ref = ref
        self._mark = self.now()

    def start_clock(self) -> None:
        self._segments = []
        self._last_ref = self._probe()
        self._mark = self.now()

    def tick(self) -> None:
        """Probe the host speed if PROBE_INTERVAL of work passed since the last probe."""
        if self._mark is not None and self.now() - self._mark >= PROBE_INTERVAL:
            self._close_segment()

    def stop_clock(self) -> tuple[float, float]:
        """Work seconds since ``start_clock``, raw and calibrated."""
        self._close_segment()
        self._mark = None
        raw = sum(work for work, _ in self._segments)
        return raw, sum(work * factor for work, factor in self._segments)

    def calibrated(self, start: float, end: float) -> float:
        """Calibrated seconds of the work between two ``now()`` readings."""
        total = covered = 0.0
        i = bisect.bisect_right(self._timeline, (start, float("inf"), 0.0)) - 1
        for seg_start, seg_end, factor in self._timeline[max(i, 0):]:
            if seg_start >= end:
                break
            overlap = min(end, seg_end) - max(start, seg_start)
            if overlap > 0:
                total += overlap * factor
                covered += overlap
        return total + (end - start - covered)

    @contextmanager
    def span(self, name: str, metric: str | None = None):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = {
            "name": name,
            "metric": metric or TIME_METRICS.get(name, GLUE),
            "start": self.now(),
            "end": None,
            "parent": parent,
            "root": index if parent is None else self.spans[parent]["root"],
            "run_id": self.run_id,
        }
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record["end"] = self.now()
            self._stack.pop()

    def call(self, name: str, fn, *args, metric: str | None = None, **kwargs):
        """Call ``fn`` inside a span named ``name``, probing the host speed first if due."""
        self.tick()
        with self.span(name, metric):
            return fn(*args, **kwargs)

    def count(self, metric: str, n: float = 1) -> None:
        """Add ``n`` to a counter of the root span now open."""
        if self.enabled and self._stack:
            self.counts[self.spans[self._stack[-1]]["root"]][metric] += n

    def per_root(self, root_name: str) -> list[dict[str, float]]:
        """Self time per metric and counters, one dict per root span named ``root_name``.

        Self time is a span's calibrated duration minus the time its child
        spans cover. Children of one span never overlap (one caller, one
        thread), so their coverage is the sum of their durations.
        """
        duration = [self.calibrated(s["start"], s["end"]) for s in self.spans]
        child_time = [0.0] * len(self.spans)
        for i, s in enumerate(self.spans):
            if s["parent"] is not None:
                child_time[s["parent"]] += duration[i]
        totals: dict[int, dict[str, float]] = {}
        for i, s in enumerate(self.spans):
            if s["parent"] is None and s["name"] == root_name:
                totals[i] = defaultdict(float, {"bench.wall_s": duration[i]})
        for i, s in enumerate(self.spans):
            if s["root"] in totals:
                totals[s["root"]][s["metric"]] += duration[i] - child_time[i]
        for root, values in totals.items():
            values.update(self.counts.get(root, {}))
        return list(totals.values())

    def write(self, path) -> None:
        """Write the spans as JSON lines, each with its calibrated duration."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({**s, "calibrated_s": self.calibrated(s["start"], s["end"])}) + "\n")


def median_per_metric(rows: list[dict[str, float]], names) -> dict[str, float]:
    """Median over rows of each named metric; a metric absent from a row counts as 0."""
    return {name: statistics.median(row.get(name, 0.0) for row in rows) for name in names}
