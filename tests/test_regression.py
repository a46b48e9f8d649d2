import inspect
import math
import re

import numpy as np
import pytest
from scipy import special

from spectral_robustness import (
    AccuracyRecord,
    DegenerateFitError,
    InvalidInputError,
    MetricRecord,
    clopper_pearson,
    effective_robustness,
    fit_line,
    grouped_regression,
    probit,
    regression,
)


def normal_cdf(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def probit_oracle(p, lo=-12.0, hi=12.0):
    """Invert the erf-based normal CDF by bisection."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if normal_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def binom_tail_upper(k, n, p):
    """P(X >= k) for X ~ Binomial(n, p), exact."""
    return sum(math.comb(n, i) * p**i * (1 - p) ** (n - i) for i in range(k, n + 1))


def binom_tail_lower(k, n, p):
    """P(X <= k)."""
    return sum(math.comb(n, i) * p**i * (1 - p) ** (n - i) for i in range(0, k + 1))


def clopper_pearson_oracle(k, n, alpha=0.05):
    """Invert the exact binomial tails by bisection."""
    if k == 0:
        low = 0.0
    else:
        lo, hi = 0.0, 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if binom_tail_upper(k, n, mid) < alpha / 2:
                lo = mid
            else:
                hi = mid
        low = 0.5 * (lo + hi)
    if k == n:
        high = 1.0
    else:
        lo, hi = 0.0, 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if binom_tail_lower(k, n, mid) > alpha / 2:
                lo = mid
            else:
                hi = mid
        high = 0.5 * (lo + hi)
    return low, high


class TestMetricRecord:
    @pytest.mark.parametrize("kind", ["raw", "accuracy"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_rejected(self, kind, value):
        with pytest.raises(InvalidInputError, match="'hff' must be finite"):
            MetricRecord("m0", "hff", value, kind)

    @pytest.mark.parametrize("kind", ["raw", "accuracy"])
    @pytest.mark.parametrize(
        "value", [True, np.bool_(False), "1.5", None, 0.5 + 0j, np.array(0.5)],
        ids=["bool", "numpy-bool", "str", "none", "complex", "0d-array"],
    )
    def test_non_real_value_rejected(self, kind, value):
        message = f"metric 'hff' must be a real number, got {value!r}"
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            MetricRecord("m0", "hff", value, kind)

    @pytest.mark.parametrize("value", [1, np.int64(0), 0.25, np.float32(0.5)], ids=repr)
    def test_real_values_are_kept(self, value):
        assert MetricRecord("m0", "acc", value, "accuracy").value is value

    @pytest.mark.parametrize(
        "kind, value, message",
        [
            ("probit", 0.5, "unknown value_kind 'probit'"),
            ("accuracy", 1.5, "accuracy metric 'acc' must be in [0, 1], got 1.5"),
            ("accuracy", -0.25, "accuracy metric 'acc' must be in [0, 1], got -0.25"),
        ],
    )
    def test_unknown_kind_or_accuracy_out_of_range_rejected(self, kind, value, message):
        with pytest.raises(InvalidInputError) as info:
            MetricRecord("m0", "acc", value, kind)
        assert str(info.value) == message


class TestClopperPearson:
    def test_zero_successes_closed_form(self):
        low, high = clopper_pearson(0, 10)
        assert low == 0.0
        assert high == pytest.approx(1.0 - 0.025 ** (1 / 10), abs=1e-9)

    def test_all_successes_closed_form(self):
        low, high = clopper_pearson(10, 10)
        assert high == 1.0
        assert low == pytest.approx(0.025 ** (1 / 10), abs=1e-9)

    def test_matches_bisection_oracle(self):
        for n in (1, 5, 10, 20):
            for k in range(n + 1):
                got = clopper_pearson(k, n)
                want = clopper_pearson_oracle(k, n)
                assert got[0] == pytest.approx(want[0], abs=1e-9)
                assert got[1] == pytest.approx(want[1], abs=1e-9)

    def test_contains_point_estimate(self):
        for n in (3, 17, 100):
            for k in range(0, n + 1, max(1, n // 7)):
                low, high = clopper_pearson(k, n)
                assert low <= k / n <= high

    def test_width_shrinks_with_total(self):
        widths = []
        for n in (10, 40, 160, 640):
            low, high = clopper_pearson(int(0.8 * n), n)
            widths.append(high - low)
        assert widths == sorted(widths, reverse=True)

    def test_invalid_counts_rejected(self):
        with pytest.raises(InvalidInputError):
            clopper_pearson(5, 4)
        with pytest.raises(InvalidInputError):
            clopper_pearson(-1, 4)
        with pytest.raises(InvalidInputError):
            clopper_pearson(1, 4, alpha=1.5)


# Counts that are not ints raise the count rule's message; int counts out of
# range name both counts.
BAD_COUNTS = [
    (2.5, 10, "correct must be an int, got 2.5"),
    (True, 2, "correct must be an int, got True"),
    (3, 10.0, "total must be an int, got 10.0"),
    (1, False, "total must be an int, got False"),
    (np.float64(2), 10, "correct must be an int, got "),
    (5, 4, "invalid counts{owner}: 5/4"),
    (-1, 4, "invalid counts{owner}: -1/4"),
    (0, 0, "invalid counts{owner}: 0/0"),
]
BAD_COUNT_IDS = ["float-correct", "bool-correct", "float-total", "bool-total", "numpy-float-correct",
                 "correct>total", "negative-correct", "zero-total"]


@pytest.mark.parametrize("correct, total, message", BAD_COUNTS, ids=BAD_COUNT_IDS)
def test_clopper_pearson_follows_the_count_rule(correct, total, message):
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message.format(owner=''))}"):
        clopper_pearson(correct, total)


@pytest.mark.parametrize("correct, total, message", BAD_COUNTS, ids=BAD_COUNT_IDS)
def test_accuracy_record_follows_the_count_rule(correct, total, message):
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message.format(owner=' for m'))}"):
        AccuracyRecord("m", "g", "d", correct, total)


def test_numpy_int_counts_are_kept():
    record = AccuracyRecord("m", "g", "d", np.int64(3), np.int32(10))
    assert (record.correct, record.total, record.accuracy) == (3, 10, 0.3)
    assert clopper_pearson(np.int64(3), np.int64(10)) == clopper_pearson(3, 10)


class TestProbit:
    def test_median_is_zero(self):
        assert probit(0.5) == 0.0

    def test_upper_tail_value(self):
        assert probit(0.975) == pytest.approx(1.959964, abs=1e-6)

    def test_matches_bisection_oracle_on_grid(self):
        for p in np.linspace(0.001, 0.999, 97):
            assert probit(float(p)) == pytest.approx(probit_oracle(p), abs=1e-8)

    def test_round_trip_with_normal_cdf(self):
        for x in np.linspace(-4, 4, 41):
            assert probit(normal_cdf(x)) == pytest.approx(x, abs=1e-8)

    def test_strictly_monotone(self):
        grid = np.linspace(0.01, 0.99, 99)
        values = [probit(float(p)) for p in grid]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_endpoints_are_clamped(self):
        assert np.isfinite(probit(0.0))
        assert np.isfinite(probit(1.0))
        assert probit(0.0) == probit(1e-7)

    def test_clamp_is_probit_eps_and_not_a_parameter(self):
        assert list(inspect.signature(probit).parameters) == ["p"]
        assert probit(0.0) == special.ndtri(regression.PROBIT_EPS)
        assert probit(1.0) == special.ndtri(1.0 - regression.PROBIT_EPS)

    def test_out_of_range_rejected(self):
        for p in (1.2, -0.1, np.nan, [0.5, np.nan]):
            with pytest.raises(InvalidInputError, match=r"probit input must lie in \[0, 1\]"):
                probit(p)


class TestFitLine:
    def test_exact_line_recovery(self):
        xs = np.linspace(-2, 3, 12)
        ys = 0.9 * xs + 0.1
        slope, intercept, r2 = fit_line(xs, ys)
        assert slope == pytest.approx(0.9, abs=1e-9)
        assert intercept == pytest.approx(0.1, abs=1e-9)
        assert r2 == pytest.approx(1.0, abs=1e-9)

    def test_two_points_always_perfect(self):
        slope, intercept, r2 = fit_line([0.0, 2.0], [1.0, 0.0])
        assert r2 == 1.0
        assert slope == pytest.approx(-0.5)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(0)
        xs = rng.normal(size=40)
        ys = rng.normal(size=40)
        slope, intercept, r2 = fit_line(xs, ys)
        # Solve [n, sum x; sum x, sum x^2] [b; m] = [sum y; sum xy] directly.
        a_mat = np.array([[len(xs), xs.sum()], [xs.sum(), (xs * xs).sum()]])
        rhs = np.array([ys.sum(), (xs * ys).sum()])
        b_hat, m_hat = np.linalg.solve(a_mat, rhs)
        assert slope == pytest.approx(m_hat, abs=1e-10)
        assert intercept == pytest.approx(b_hat, abs=1e-10)
        resid = ys - (m_hat * xs + b_hat)
        r2_hat = 1 - (resid @ resid) / np.sum((ys - ys.mean()) ** 2)
        assert r2 == pytest.approx(r2_hat, abs=1e-10)

    def test_affine_equivariance(self):
        rng = np.random.default_rng(1)
        xs = rng.normal(size=25)
        ys = 1.7 * xs + rng.normal(scale=0.3, size=25)
        slope, _, r2 = fit_line(xs, ys)
        slope2, _, r2_2 = fit_line(4.0 * xs + 2.0, ys)
        assert slope2 == pytest.approx(slope / 4.0, abs=1e-9)
        assert r2_2 == pytest.approx(r2, abs=1e-9)

    @pytest.mark.parametrize("y", [3.0, 0.1, probit(37 / 200)], ids=["3.0", "0.1", "probit-37/200"])
    def test_constant_ys_conventions(self, y):
        # The rounded mean of three 0.1s or probit(37/200)s is not the value,
        # so their spread about it is not 0; the line is read off the values.
        assert fit_line([0, 1, 2], [y] * 3) == (0.0, y, 1.0)

    @pytest.mark.parametrize(
        "xs", [[1.0] * 3, [0.1] * 3, [probit(5 / 200)] * 3, [0.0, -0.0]],
        ids=["1.0", "0.1", "probit-5/200", "signed-zeros"],
    )
    def test_degenerate_xs_rejected(self, xs):
        # Three equal 0.1s or probit(5/200)s have a rounding-error spread
        # about their rounded mean; no line goes through them.
        with pytest.raises(DegenerateFitError, match="^all x values are identical; line is undefined$"):
            fit_line(xs, np.arange(len(xs), dtype=float))

    @pytest.mark.parametrize(
        "xs, ys, want_slope, want_intercept",
        [
            ([1e-200, 2e-200, 3e-200], [1.0, 2.0, 3.0], 1e200, 0.0),
            ([1.0, 2.0, 3.0], [1e-200, 2e-200, 3e-200], 1e-200, 0.0),
            ([-1e300, 0.0, 1e300], [1.0, 2.0, 3.0], 1e-300, 2.0),
            ([1.0, 2.0, 3.0], [-1e300, 0.0, 1e300], 1e300, -2e300),
        ],
        ids=["tiny-xs", "tiny-ys", "huge-xs", "huge-ys"],
    )
    def test_distinct_values_far_from_one_fit(self, xs, ys, want_slope, want_intercept):
        # Unscaled, the squared deviations of the tiny values underflow to 0
        # and those of the huge values overflow to inf.
        slope, intercept, r2 = fit_line(xs, ys)
        assert slope == pytest.approx(want_slope, rel=1e-12)
        assert intercept == pytest.approx(want_intercept, rel=1e-12, abs=1e-12 * max(map(abs, ys)))
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_scaled_sums_equal_the_unscaled_formulas(self):
        # Dividing by a power of two changes no bit wherever the unscaled
        # sums neither underflow nor overflow.
        rng = np.random.default_rng(12)
        for trial in range(300):
            n = int(rng.integers(2, 12))
            if trial % 2:
                xs = probit(rng.integers(0, 201, n) / 200)
                ys = probit(rng.integers(0, 201, n) / 200)
            else:
                xs = rng.normal(size=n) * 10.0 ** rng.uniform(-100, 100)
                ys = rng.normal(size=n) * 10.0 ** rng.uniform(-100, 100)
            if np.all(xs == xs[0]) or np.all(ys == ys[0]):
                continue
            x_mean, y_mean = xs.mean(), ys.mean()
            slope = np.sum((xs - x_mean) * (ys - y_mean)) / np.sum((xs - x_mean) ** 2)
            intercept = y_mean - slope * x_mean
            r2 = 1.0 - np.sum((ys - (slope * xs + intercept)) ** 2) / np.sum((ys - y_mean) ** 2)
            expected = (slope, intercept, min(max(r2, 0.0), 1.0))
            assert np.array(fit_line(xs, ys)).tobytes() == np.array(expected).tobytes()


class TestGroupedRegression:
    def test_identity_line_single_group(self):
        # OOD counts equal ID counts, so probit(y) == probit(x) exactly.
        accs = []
        for i, correct in enumerate([6000, 7000, 8000, 9000]):
            accs.append(AccuracyRecord(f"m{i}", "g", "id-set", correct, 10000))
            accs.append(AccuracyRecord(f"m{i}", "g", "ood-set", correct, 10000))
        result = grouped_regression(accs, [], "ID accuracy", "ood-set")
        assert len(result.per_group) == 1
        fit = result.per_group[0]
        assert fit.slope == pytest.approx(1.0, abs=1e-12)
        assert fit.intercept == pytest.approx(0.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert result.x_transform == "probit"

    def test_raw_metric_line(self):
        # Derive raw metric values from the realized OOD accuracies so the
        # points sit exactly on y = -2 x + 0.5.
        m, b = -2.0, 0.5
        accs, mets = [], []
        for i, correct in enumerate([5500, 6500, 7500, 8500]):
            accs.append(AccuracyRecord(f"m{i}", "g", "ood-set", correct, 10000))
            accs.append(AccuracyRecord(f"m{i}", "g", "id-set", correct, 10000))
            y = probit(correct / 10000)
            mets.append(MetricRecord(f"m{i}", "hff", (y - b) / m, "raw"))
        result = grouped_regression(accs, mets, "hff", "ood-set")
        fit = result.per_group[0]
        assert fit.slope == pytest.approx(m, abs=1e-9)
        assert fit.intercept == pytest.approx(b, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-9)
        assert result.x_transform == "raw"

    def test_average_over_groups(self):
        # Two groups engineered to (0.8, R^2=1) and a noisier one; averages are
        # plain means of the per-group values.
        accs = []
        for i, correct in enumerate([6000, 7000, 8000]):
            accs.append(AccuracyRecord(f"a{i}", "g1", "id-set", correct, 10000))
            accs.append(AccuracyRecord(f"a{i}", "g1", "ood-set", correct, 10000))
        for i, (idc, oodc) in enumerate([(6000, 5000), (7000, 7500), (8000, 7000)]):
            accs.append(AccuracyRecord(f"b{i}", "g2", "id-set", idc, 10000))
            accs.append(AccuracyRecord(f"b{i}", "g2", "ood-set", oodc, 10000))
        result = grouped_regression(accs, [], "ID accuracy", "ood-set")
        fits = {f.group: f for f in result.per_group}
        assert result.averaged_slope == pytest.approx(
            (fits["g1"].slope + fits["g2"].slope) / 2, abs=1e-12
        )
        assert result.averaged_r2 == pytest.approx(
            (fits["g1"].r_squared + fits["g2"].r_squared) / 2, abs=1e-12
        )

    def test_synthetic_cohort_recovery(self):
        rng = np.random.default_rng(42)
        lines = {"conv": (0.9, -0.3), "resnet": (1.1, -0.5), "vgg": (0.8, -0.2)}
        total = 10000
        accs = []
        for group, (m, b) in lines.items():
            for i in range(8):
                z_id = rng.uniform(0.3, 1.5)
                p_id = normal_cdf(z_id)
                p_ood = normal_cdf(m * z_id + b)
                accs.append(
                    AccuracyRecord(
                        f"{group}{i}", group, "id-set", int(rng.binomial(total, p_id)), total
                    )
                )
                accs.append(
                    AccuracyRecord(
                        f"{group}{i}", group, "ood-set", int(rng.binomial(total, p_ood)), total
                    )
                )
        result = grouped_regression(accs, [], "ID accuracy", "ood-set")
        true_mean_slope = np.mean([m for m, _ in lines.values()])
        assert abs(result.averaged_slope - true_mean_slope) < 0.05
        assert abs(result.averaged_r2 - 1.0) < 0.1

    def test_small_group_skipped_with_warning(self):
        accs = []
        for i, correct in enumerate([6000, 7000, 8000]):
            accs.append(AccuracyRecord(f"m{i}", "big", "id-set", correct, 10000))
            accs.append(AccuracyRecord(f"m{i}", "big", "ood-set", correct, 10000))
        accs.append(AccuracyRecord("solo", "tiny", "id-set", 5000, 10000))
        accs.append(AccuracyRecord("solo", "tiny", "ood-set", 5000, 10000))
        with pytest.warns(UserWarning, match="tiny"):
            result = grouped_regression(accs, [], "ID accuracy", "ood-set")
        assert [f.group for f in result.per_group] == ["big"]
        assert result.skipped == [("tiny", "only 1 usable model(s)")]

    @pytest.mark.parametrize(
        "x_spec, spread_ood, averaged_slope",
        [("ID accuracy", (80, 95, 110), 0.7224228433631026),
         ("mean_hff", (80, 87, 94), 0.8903862051798489)],
        ids=["id-accuracy", "mean-hff"],
    )
    def test_group_of_equal_predictor_values_skipped(
        self, monkeypatch, x_spec, spread_ood, averaged_slope
    ):
        # A line through three models tied at ID accuracy 5/200 or at
        # mean_hff 0.1 would be made of rounding error (slopes 0.667 and
        # 10.7) and would move the average off the spread group's slope.
        accs, mets = [], []
        for group, ids, oods, hffs in (
            ("tied", (5, 5, 5), (2, 3, 4), (0.1, 0.1, 0.1)),
            ("spread", (100, 120, 140), spread_ood, (0.2, 0.3, 0.4)),
        ):
            for i in range(3):
                accs.append(AccuracyRecord(f"{group}{i}", group, "id-set", ids[i], 200))
                accs.append(AccuracyRecord(f"{group}{i}", group, "ood-set", oods[i], 200))
                mets.append(MetricRecord(f"{group}{i}", "mean_hff", hffs[i]))
        fitted = []
        monkeypatch.setattr(
            regression, "fit_line", lambda xs, ys: fitted.append(len(xs)) or fit_line(xs, ys)
        )
        with pytest.warns(UserWarning, match="^skipping group 'tied': constant predictor values$"):
            result = grouped_regression(accs, mets, x_spec, "ood-set")
        assert result.skipped == [("tied", "constant predictor values")]
        assert [f.group for f in result.per_group] == ["spread"]
        assert result.averaged_slope == averaged_slope
        assert len(result.points) == 6
        # The skip is read off the values; a tied group never reaches fit_line.
        assert fitted == [3]

    def test_ambiguous_id_dataset_rejected(self):
        accs = [
            AccuracyRecord("m0", "g", "id-a", 6000, 10000),
            AccuracyRecord("m0", "g", "id-b", 6500, 10000),
            AccuracyRecord("m0", "g", "ood-set", 5000, 10000),
            AccuracyRecord("m1", "g", "id-a", 7000, 10000),
            AccuracyRecord("m1", "g", "id-b", 7500, 10000),
            AccuracyRecord("m1", "g", "ood-set", 6000, 10000),
        ]
        with pytest.raises(InvalidInputError, match="infer"):
            grouped_regression(accs, [], "ID accuracy", "ood-set")
        result = grouped_regression(accs, [], "ID accuracy", "ood-set", id_dataset="id-b")
        assert len(result.per_group) == 1

    def test_id_dataset_equal_to_ood_dataset_rejected_before_any_fit(self, monkeypatch):
        fits = []
        monkeypatch.setattr(regression, "fit_line", lambda *args: fits.append(args))
        accs = []
        for i, correct in enumerate([6000, 7000, 8000]):
            accs.append(AccuracyRecord(f"m{i}", "g", "id-set", correct, 10000))
            accs.append(AccuracyRecord(f"m{i}", "g", "ood-set", correct - 500, 10000))
        with pytest.raises(InvalidInputError) as info:
            grouped_regression(accs, [], "ID accuracy", "ood-set", id_dataset="ood-set")
        assert str(info.value) == "ID and OOD dataset are both 'ood-set'"
        assert fits == []

    def test_unknown_id_dataset_rejected_naming_it_before_any_fit(self, monkeypatch):
        fits = []
        monkeypatch.setattr(regression, "fit_line", lambda *args: fits.append(args))
        accs = []
        for i, correct in enumerate([6000, 7000, 8000]):
            accs.append(AccuracyRecord(f"m{i}", "g", "id-set", correct, 10000))
            accs.append(AccuracyRecord(f"m{i}", "g", "ood-set", correct - 500, 10000))
        with pytest.raises(InvalidInputError) as info:
            grouped_regression(accs, [], "ID accuracy", "ood-set", id_dataset="nope")
        assert str(info.value) == "no accuracy records for ID dataset 'nope'"
        assert fits == []

    @pytest.mark.parametrize(
        "ood, kinds, message",
        [
            ("nope", ("raw", "raw"), "no accuracy records for OOD dataset 'nope'"),
            ("ood-set", ("raw", "accuracy"), "metric 'hff' mixes value kinds ['accuracy', 'raw']"),
        ],
        ids=["unknown-ood", "mixed-kinds"],
    )
    def test_unreadable_inputs_rejected(self, ood, kinds, message):
        accs = [AccuracyRecord(f"m{i}", "g", "ood-set", 6000 + i, 10000) for i in range(2)]
        mets = [MetricRecord(f"m{i}", "hff", 0.1 * (i + 1), kind) for i, kind in enumerate(kinds)]
        with pytest.raises(InvalidInputError) as info:
            grouped_regression(accs, mets, "hff", ood)
        assert str(info.value) == message

    def test_no_fittable_group_rejected(self):
        accs = [AccuracyRecord("solo", "one", "ood-set", 6000, 10000)]
        accs += [AccuracyRecord(f"m{i}", "tied", "ood-set", 6000 + i, 10000) for i in range(3)]
        mets = [MetricRecord(m.model_id, "hff", 0.1) for m in accs]
        with pytest.warns(UserWarning) as caught, pytest.raises(InvalidInputError) as info:
            grouped_regression(accs, mets, "hff", "ood-set")
        assert str(info.value) == "no group had enough usable models to fit"
        assert [str(w.message) for w in caught] == [
            "skipping group 'one': only 1 usable model(s)",
            "skipping group 'tied': constant predictor values",
        ]

    @pytest.mark.parametrize("dataset_id", ["ood-set", "id-set"])
    def test_repeated_accuracy_record_rejected(self, dataset_id):
        accs = []
        for i, correct in enumerate([6000, 7000, 8000]):
            accs.append(AccuracyRecord(f"m{i}", "g", "id-set", correct, 10000))
            accs.append(AccuracyRecord(f"m{i}", "g", "ood-set", correct, 10000))
        accs.append(AccuracyRecord("m1", "g", dataset_id, 2000, 10000))
        with pytest.raises(
            InvalidInputError,
            match=re.escape(f"duplicate (model_id, dataset_id) ('m1', '{dataset_id}')"),
        ):
            grouped_regression(accs, [], "ID accuracy", "ood-set")

    def test_repeated_metric_record_rejected(self):
        accs = [AccuracyRecord(f"m{i}", "g", "ood-set", 6000 + i, 10000) for i in range(2)]
        mets = [MetricRecord("m0", "hff", 0.1, "raw"), MetricRecord("m1", "hff", 0.2, "raw")]
        mets.append(MetricRecord("m0", "hff", 0.9, "raw"))
        # A repeat under another metric name is not read by this fit.
        mets.append(MetricRecord("m0", "cd", 0.5, "raw"))
        mets.append(MetricRecord("m0", "cd", 0.6, "raw"))
        with pytest.raises(
            InvalidInputError, match=re.escape("duplicate (model_id, metric_name) ('m0', 'hff')")
        ):
            grouped_regression(accs, mets, "hff", "ood-set")
        mets.pop(2)
        assert grouped_regression(accs, mets, "hff", "ood-set").per_group[0].n_models == 2


class TestModelPoints:
    """ProbitRegression.points against a recomputation from the records."""

    @staticmethod
    def records():
        rng = np.random.default_rng(7)
        accs, mets = [], []
        for model, group in [("c2", "conv"), ("a0", "vgg"), ("c0", "conv"), ("b1", "vgg"),
                             ("c1", "conv"), ("s0", "solo")]:
            id_correct = int(rng.integers(5000, 9000))
            accs.append(AccuracyRecord(model, group, "id-set", id_correct, 10000))
            accs.append(AccuracyRecord(model, group, "ood-set", id_correct - 900, 10000))
            mets.append(MetricRecord(model, "hff", float(rng.uniform(0.1, 0.3)), "raw"))
            mets.append(MetricRecord(model, "acc_c", float(rng.uniform(0.3, 0.9)), "accuracy"))
        # No predictor value for this model, so no point.
        accs.append(AccuracyRecord("z9", "vgg", "ood-set", 4000, 10000))
        return accs, mets

    @pytest.mark.parametrize("x_spec", ["ID accuracy", "acc_c", "hff"])
    def test_points_recomputed(self, x_spec):
        accs, mets = self.records()
        with pytest.warns(UserWarning, match="solo"):
            result = grouped_regression(accs, mets, x_spec, "ood-set")
        assert result.skipped == [("solo", "only 1 usable model(s)")]
        if x_spec == "ID accuracy":
            xs = {r.model_id: probit(r.accuracy) for r in accs if r.dataset_id == "id-set"}
        else:
            xs = {m.model_id: m.value for m in mets if m.metric_name == x_spec}
            if x_spec == "acc_c":
                xs = {k: probit(v) for k, v in xs.items()}
        want = []
        for r in sorted(accs, key=lambda r: r.model_id):
            if r.dataset_id == "ood-set" and r.model_id in xs:
                lo, hi = clopper_pearson(r.correct, r.total)
                want.append((xs[r.model_id], probit(r.accuracy), r.group, (probit(lo), probit(hi))))
        assert result.points == want
        assert [p.group for p in result.points] == ["vgg", "vgg", "conv", "conv", "conv", "solo"]

    def test_fits_use_the_points(self):
        accs, mets = self.records()
        with pytest.warns(UserWarning):
            result = grouped_regression(accs, mets, "hff", "ood-set")
        for fit in result.per_group:
            members = [p for p in result.points if p.group == fit.group]
            slope, intercept, r2 = fit_line([p.x for p in members], [p.y for p in members])
            assert (fit.slope, fit.intercept, fit.r_squared) == pytest.approx((slope, intercept, r2))
            assert fit.n_models == len(members)


class TestEffectiveRobustness:
    def test_point_on_baseline_scores_zero(self):
        m, b = 0.9, -0.3
        id_acc = 0.8
        ood_acc = normal_cdf(m * probit(id_acc) + b)
        assert effective_robustness(id_acc, ood_acc, m, b) == pytest.approx(0.0, abs=1e-9)

    def test_residual_is_definitional(self):
        m, b = 1.0, 0.0
        id_acc = 0.7
        target = m * probit(id_acc) + b + 0.3
        ood_acc = normal_cdf(target)
        assert effective_robustness(id_acc, ood_acc, m, b) == pytest.approx(0.3, abs=1e-9)

    def test_depends_only_on_point_and_baseline(self):
        before = effective_robustness(0.8, 0.75, 0.9, -0.2)
        after = effective_robustness(0.8, 0.75, 0.9, -0.2)
        assert before == after

    def test_range_validation(self):
        for id_acc, ood_acc in ((1.2, 0.5), (0.5, -0.1), (np.nan, 0.5), (0.5, np.nan)):
            with pytest.raises(InvalidInputError, match=r"probit input must lie in \[0, 1\]"):
                effective_robustness(id_acc, ood_acc, 1.0, 0.0)
