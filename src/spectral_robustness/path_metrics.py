"""Prediction-trace metrics: high frequency fraction and consistent distance.

A trace is the (T, K) matrix of class probabilities a model produced along one
interpolation path. HFF measures how much of the class-averaged 1D Fourier
amplitude of those probability sequences sits above a frequency threshold;
consistent distance is the first step whose argmax class differs from the
starting one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, checked_count

# Of the 50 one-sided bins at T=100, bins above 10 count as high frequency.
DEFAULT_HFF_THRESHOLD = 10

ROW_SUM_TOLERANCE = 1e-4


def first_bad_row(probs: np.ndarray) -> tuple[int, str] | None:
    """(index, reason) of the first bad row of a (rows, K) float64 table, or None if all pass.

    A row fails on a negative value, then a sum more than ``ROW_SUM_TOLERANCE``
    from 1, then a non-finite value. A valid table costs two whole-table
    reductions: a non-finite value makes its row's sum fail the tolerance.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        sums = probs.sum(axis=1)
        off = np.abs(sums - 1.0)
        if probs.min(initial=0.0) >= 0 and off.max(initial=0.0) <= ROW_SUM_TOLERANCE:
            return None
        faults = [(probs < 0).any(axis=1), off > ROW_SUM_TOLERANCE, ~np.isfinite(probs).all(axis=1)]
    row = int(np.flatnonzero(np.logical_or.reduce(faults))[0])
    reasons = [
        "has a negative probability",
        f"probabilities sum to {sums[row]:.6f}, not 1",
        "has a non-finite probability",
    ]
    return row, reasons[next(j for j, fault in enumerate(faults) if fault[row])]


@dataclass
class PredictionTrace:
    """Row-stochastic (T, K) probability matrix for one path; a bad row is named 0-based."""

    probs: np.ndarray
    path_id: str = ""

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.ndim != 2:
            raise InvalidInputError(f"trace must be a (T, K) matrix, got shape {probs.shape}")
        t, k = probs.shape
        if t < 2 or k < 2:
            raise InvalidInputError(f"trace needs T >= 2 and K >= 2, got {probs.shape}")
        bad = first_bad_row(probs)
        if bad is not None:
            row, reason = bad
            raise InvalidInputError(f"trace {self.path_id!r} row {row} {reason}")
        self.probs = probs


@dataclass
class PathMetrics:
    """HFF and CD for one path."""

    path_id: str
    hff: float
    cd: int


@dataclass
class MetricSummary:
    """Mean with sample std and Gaussian 95% CI (mean +/- 1.96*std/sqrt(n))."""

    mean: float
    sample_std: float
    n: int
    ci95_low: float
    ci95_high: float


def hff(trace: PredictionTrace, threshold_k: int = DEFAULT_HFF_THRESHOLD) -> float:
    """Fraction of class-averaged one-sided DFT amplitude above threshold_k.

    Per class, the length-T probability sequence is transformed to bins
    0..floor(T/2); the magnitudes are averaged over classes, and the result is
    sum(bins > threshold_k) / sum(all bins), DC included in the denominator.
    A constant trace therefore scores exactly 0.
    """
    t = trace.probs.shape[0]
    if checked_count("threshold_k", threshold_k, 1) > t // 2:
        raise InvalidInputError(
            f"threshold_k must be in [1, {t // 2}] for T={t}, got {threshold_k}"
        )
    if np.all(trace.probs == trace.probs[0]):
        # All amplitude sits at DC; return 0 exactly rather than FFT roundoff.
        return 0.0
    amplitudes = np.abs(np.fft.rfft(trace.probs, axis=0))  # (T//2 + 1, K)
    mean_amp = amplitudes.mean(axis=1)
    # Rows sum to 1, so the DC bin alone is about T/K and the total is never 0.
    return float(mean_amp[threshold_k + 1 :].sum() / mean_amp.sum())


def consistent_distance(trace: PredictionTrace) -> int:
    """1-based index of the first step classified differently from step 1.

    Ties in a row's argmax resolve to the lowest class index. Returns T when
    the argmax never changes.
    """
    classes = np.argmax(trace.probs, axis=1)
    changed = np.nonzero(classes != classes[0])[0]
    t = trace.probs.shape[0]
    return int(changed[0]) + 1 if changed.size else t


def compute_path_metrics(
    traces, threshold_k: int = DEFAULT_HFF_THRESHOLD
) -> list[PathMetrics]:
    return [
        PathMetrics(path_id=tr.path_id, hff=hff(tr, threshold_k), cd=consistent_distance(tr))
        for tr in traces
    ]


def summarize_gaussian(values) -> MetricSummary:
    """Mean, sample std (n-1 denominator, 0 when n = 1), and Gaussian 95% CI.

    An array is read directly, flattened in C order; any other iterable is
    collected into a list first. All-equal values give that value as the mean
    and both CI ends, and std 0.0. The statistics are taken on the values
    divided by a power of two that brings their largest magnitude into
    [1, 2), then scaled back, so squared deviations cannot overflow while the
    results fit float64. Power-of-two scaling is exact, so the results are
    those of the unscaled formulas wherever nothing is subnormal once scaled.
    Empty input and NaN or +-inf values raise InvalidInputError.
    """
    if not isinstance(values, np.ndarray):
        values = list(values)
    values = np.ravel(np.asarray(values, dtype=np.float64))
    if values.size == 0:
        raise InvalidInputError("cannot summarize an empty sequence")
    if not np.all(np.isfinite(values)):
        raise InvalidInputError("cannot summarize non-finite values")
    n = values.size
    same = np.all(values == values[0])
    # frexp puts the magnitude in [0.5, 1) times 2**e; 2**(e - 1) stays
    # finite up to the float64 maximum.
    scale = np.ldexp(1.0, np.frexp(np.max(np.abs(values)))[1] - 1)
    scaled = values / scale
    mean = values[0] / scale if same else scaled.mean()
    std = 0.0 if same else scaled.std(ddof=1)
    half = 1.96 * std / np.sqrt(n)
    return MetricSummary(
        mean=float(mean * scale),
        sample_std=float(std * scale),
        n=int(n),
        ci95_low=float((mean - half) * scale),
        ci95_high=float((mean + half) * scale),
    )
