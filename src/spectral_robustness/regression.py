"""Probit-domain robustness statistics.

OOD accuracy is regressed against ID accuracy (or any model metric) after
mapping accuracies through the inverse standard normal CDF, where ID/OOD
relationships are approximately linear. Fits are computed per group and the
reported slope and R^2 are unweighted means over groups, never pooled refits.
Accuracy uncertainty uses exact Clopper-Pearson intervals.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy import special

from .errors import DegenerateFitError, InvalidInputError, checked_count, checked_real

PROBIT_EPS = 1e-6
ID_ACCURACY = "ID accuracy"


@dataclass
class AccuracyRecord:
    model_id: str
    group: str
    dataset_id: str
    correct: int
    total: int

    def __post_init__(self):
        self.correct, self.total = _checked_counts(self.correct, self.total, f" for {self.model_id}")

    @property
    def accuracy(self) -> float:
        return self.correct / self.total


@dataclass
class MetricRecord:
    model_id: str
    metric_name: str
    value: float
    value_kind: str = "raw"  # "accuracy" values are probit-transformed as predictors

    def __post_init__(self):
        if self.value_kind not in ("accuracy", "raw"):
            raise InvalidInputError(f"unknown value_kind {self.value_kind!r}")
        if not np.isfinite(checked_real(f"metric {self.metric_name!r}", self.value)):
            raise InvalidInputError(f"metric {self.metric_name!r} must be finite, got {self.value}")
        if self.value_kind == "accuracy" and not 0.0 <= self.value <= 1.0:
            raise InvalidInputError(
                f"accuracy metric {self.metric_name!r} must be in [0, 1], got {self.value}"
            )


class GroupFit(NamedTuple):
    group: str
    slope: float
    intercept: float
    r_squared: float
    n_models: int


class ModelPoint(NamedTuple):
    """One model of a regression: its predictor value and probit(OOD accuracy)."""

    x: float
    y: float
    group: str
    ci: tuple[float, float]  # Clopper-Pearson interval of the OOD accuracy, probit units


@dataclass
class ProbitRegression:
    """Per-group probit-domain fits plus their unweighted averages.

    ``points`` holds one ModelPoint per model with both a predictor value and
    an OOD accuracy, in ``model_id`` order, skipped groups' models included.
    """

    per_group: list[GroupFit]
    averaged_slope: float
    averaged_r2: float
    x_spec: str
    x_transform: str  # "probit" or "raw", recorded so outputs are self-describing
    ood_dataset: str
    skipped: list[tuple[str, str]] = field(default_factory=list)
    points: list[ModelPoint] = field(default_factory=list)


def _checked_counts(correct, total, owner: str) -> tuple[int, int]:
    """``correct`` and ``total`` as ints with ``total >= 1`` and ``0 <= correct <= total``.

    A count that is not an int raises ``checked_count``'s message naming it;
    int counts out of range raise ``invalid counts{owner}: correct/total``.
    """
    correct, total = checked_count("correct", correct), checked_count("total", total)
    if total < 1 or not 0 <= correct <= total:
        raise InvalidInputError(f"invalid counts{owner}: {correct}/{total}")
    return correct, total


def clopper_pearson(correct: int, total: int, alpha: float = 0.05) -> tuple[float, float]:
    """Exact binomial CI from Beta quantiles; closed at 0 and 1 for edge counts."""
    correct, total = _checked_counts(correct, total, "")
    if not 0.0 < checked_real("alpha", alpha) < 1.0:
        raise InvalidInputError(f"alpha must be in (0, 1), got {alpha}")
    # betaincinv(a, b, q) is the Beta(a, b) quantile at q.
    low = (
        0.0
        if correct == 0
        else float(special.betaincinv(correct, total - correct + 1, alpha / 2))
    )
    high = (
        1.0
        if correct == total
        else float(special.betaincinv(correct + 1, total - correct, 1 - alpha / 2))
    )
    return low, high


def probit(p: float):
    """Inverse standard normal CDF of p clamped into [PROBIT_EPS, 1 - PROBIT_EPS]."""
    p = np.asarray(p, dtype=np.float64)
    if not np.all((p >= 0) & (p <= 1)):
        raise InvalidInputError("probit input must lie in [0, 1]")
    out = special.ndtri(np.clip(p, PROBIT_EPS, 1.0 - PROBIT_EPS))
    return float(out) if out.ndim == 0 else out


def fit_line(xs, ys) -> tuple[float, float, float]:
    """Ordinary least squares fit; returns (slope, intercept, R^2).

    All-equal xs raise DegenerateFitError; all-equal ys give the horizontal
    line (0.0, y, 1.0) exactly. Sums are taken on each side divided by a
    power of two that brings its largest magnitude into [1, 2), so distinct
    values cannot underflow or overflow them; that scaling is exact wherever
    nothing is subnormal once scaled.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise InvalidInputError("xs and ys must be 1D sequences of equal length")
    if xs.size < 2:
        raise InvalidInputError(f"need at least 2 points, got {xs.size}")
    if np.all(xs == xs[0]):
        raise DegenerateFitError("all x values are identical; line is undefined")
    if np.all(ys == ys[0]):
        return 0.0, float(ys[0]), 1.0
    x_exp, y_exp = (int(np.frexp(np.max(np.abs(v)))[1]) - 1 for v in (xs, ys))
    xs, ys = np.ldexp(xs, -x_exp), np.ldexp(ys, -y_exp)
    x_mean, y_mean = xs.mean(), ys.mean()
    slope = np.sum((xs - x_mean) * (ys - y_mean)) / np.sum((xs - x_mean) ** 2)
    intercept = y_mean - slope * x_mean
    residuals = ys - (slope * xs + intercept)
    r2 = 1.0 - np.sum(residuals**2) / np.sum((ys - y_mean) ** 2)
    slope, intercept = np.ldexp(slope, y_exp - x_exp), np.ldexp(intercept, y_exp)
    return float(slope), float(intercept), float(min(max(r2, 0.0), 1.0))


def grouped_regression(
    accuracies: list[AccuracyRecord],
    metrics: list[MetricRecord],
    x_spec: str,
    ood_dataset: str,
    id_dataset: str | None = None,
) -> ProbitRegression:
    """Fit probit(OOD accuracy) against a predictor, per group, then average.

    The predictor is probit(ID accuracy) when x_spec == "ID accuracy",
    probit(value) for accuracy-kind metrics, and the raw value otherwise.
    A group with fewer than 2 usable models, or whose predictor values are
    all equal, is skipped with a warning and excluded from the averages; its
    models still get points. Two accuracy records for one (model_id,
    dataset_id), or two metric records for one (model_id, metric_name), that
    the fit would read raise InvalidInputError, and so do an ``id_dataset``
    equal to ``ood_dataset`` and one that no accuracy record has for "ID
    accuracy", before any fit.
    """
    by_model_ood = _one_per_model(
        [rec for rec in accuracies if rec.dataset_id == ood_dataset], "dataset_id", ood_dataset
    )
    if not by_model_ood:
        raise InvalidInputError(f"no accuracy records for OOD dataset {ood_dataset!r}")

    if x_spec == ID_ACCURACY:
        id_dataset = _resolve_id_dataset(accuracies, ood_dataset, id_dataset)
        by_model_id = _one_per_model(
            [rec for rec in accuracies if rec.dataset_id == id_dataset], "dataset_id", id_dataset
        )
        if not by_model_id:
            raise InvalidInputError(f"no accuracy records for ID dataset {id_dataset!r}")
        x_values = {model_id: probit(rec.accuracy) for model_id, rec in by_model_id.items()}
        x_transform = "probit"
    else:
        wanted = _one_per_model(
            [m for m in metrics if m.metric_name == x_spec], "metric_name", x_spec
        )
        if not wanted:
            raise InvalidInputError(f"no metric records named {x_spec!r}")
        kinds = {m.value_kind for m in wanted.values()}
        if len(kinds) != 1:
            raise InvalidInputError(f"metric {x_spec!r} mixes value kinds {sorted(kinds)}")
        x_transform = "probit" if kinds.pop() == "accuracy" else "raw"
        x_values = {
            model_id: probit(m.value) if x_transform == "probit" else m.value
            for model_id, m in wanted.items()
        }

    # A group's points stay in accuracy-table order: fit_line's sums depend on it.
    points: dict[str, ModelPoint] = {}
    groups: dict[str, list[ModelPoint]] = {}
    for model_id, ood_rec in by_model_ood.items():
        if model_id not in x_values:
            continue
        low, high = clopper_pearson(ood_rec.correct, ood_rec.total)
        point = ModelPoint(
            x_values[model_id],
            probit(ood_rec.accuracy),
            str(ood_rec.group),
            (probit(low), probit(high)),
        )
        points[model_id] = point
        groups.setdefault(point.group, []).append(point)

    fits: list[GroupFit] = []
    skipped: list[tuple[str, str]] = []
    for key, members in sorted(groups.items()):
        xs = [p.x for p in members]
        if len({float(x) for x in xs}) < 2:
            reason = "constant predictor values" if len(xs) > 1 else f"only {len(xs)} usable model(s)"
            warnings.warn(f"skipping group {key!r}: {reason}")
            skipped.append((key, reason))
            continue
        slope, intercept, r2 = fit_line(xs, [p.y for p in members])
        fits.append(GroupFit(key, slope, intercept, r2, len(members)))

    if not fits:
        raise InvalidInputError("no group had enough usable models to fit")
    return ProbitRegression(
        per_group=fits,
        averaged_slope=float(np.mean([f.slope for f in fits])),
        averaged_r2=float(np.mean([f.r_squared for f in fits])),
        x_spec=x_spec,
        x_transform=x_transform,
        ood_dataset=ood_dataset,
        skipped=skipped,
        points=[points[model_id] for model_id in sorted(points)],
    )


def effective_robustness(id_acc: float, ood_acc: float, slope: float, intercept: float) -> float:
    """Probit-domain residual above the baseline line; positive means above it."""
    return float(probit(ood_acc) - (slope * probit(id_acc) + intercept))


def _one_per_model(records: list, field_name: str, value: str) -> dict:
    """``records``, which share ``field_name`` == ``value``, by model_id.

    A second record for one model raises InvalidInputError naming the key.
    """
    by_model: dict = {}
    for rec in records:
        if rec.model_id in by_model:
            raise InvalidInputError(
                f"duplicate (model_id, {field_name}) {(rec.model_id, value)!r}"
            )
        by_model[rec.model_id] = rec
    return by_model


def _resolve_id_dataset(accuracies, ood_dataset: str, id_dataset: str | None) -> str:
    if id_dataset == ood_dataset:
        raise InvalidInputError(f"ID and OOD dataset are both {ood_dataset!r}")
    if id_dataset is not None:
        return id_dataset
    others = sorted({rec.dataset_id for rec in accuracies} - {ood_dataset})
    if len(others) != 1:
        raise InvalidInputError(
            "cannot infer the ID dataset: expected exactly one non-OOD dataset_id, "
            f"found {others}; pass id_dataset explicitly"
        )
    return others[0]
