import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_robustness import (
    InvalidInputError,
    PredictionTrace,
    consistent_distance,
    hff,
    summarize_gaussian,
)


def random_trace(rng, t=None, k=None):
    t = t or rng.integers(3, 40)
    k = k or rng.integers(2, 8)
    raw = rng.random((t, k)) + 1e-9
    return PredictionTrace(raw / raw.sum(axis=1, keepdims=True), path_id="r")


def hff_oracle(probs, threshold_k):
    """Direct-definition recomputation with explicit complex exponential sums."""
    t, k = probs.shape
    n_bins = t // 2 + 1
    amps = np.zeros(n_bins)
    for j in range(k):
        for f in range(n_bins):
            acc = 0.0 + 0.0j
            for step in range(t):
                acc += probs[step, j] * np.exp(-2j * np.pi * f * step / t)
            amps[f] += abs(acc) / k
    return amps[threshold_k + 1 :].sum() / amps.sum()


def cd_oracle(probs):
    """Brute-force scan with explicit first-max tie breaking."""
    def argmax_lowest(row):
        best = 0
        for j in range(1, len(row)):
            if row[j] > row[best]:
                best = j
        return best

    first = argmax_lowest(probs[0])
    for step in range(1, len(probs)):
        if argmax_lowest(probs[step]) != first:
            return step + 1
    return len(probs)


class TestTraceValidation:
    @pytest.mark.parametrize(
        "probs, message",
        [
            ([[0.5, 0.5], [0.5, 0.3]], "row 1 probabilities sum to 0.800000, not 1"),
            ([[1.2, -0.2], [0.5, 0.5]], "row 0 has a negative probability"),
            ([[0.5, 0.5], [np.nan, 0.5]], "row 1 has a non-finite probability"),
            ([[0.5, 0.5], [np.inf, 0.5]], "row 1 probabilities sum to inf, not 1"),
            ([[0.5, 0.5], [-np.inf, np.inf]], "row 1 has a negative probability"),
            # The row sum overflows: no RuntimeWarning, the row is named.
            ([[1e308, 1e308], [0.5, 0.5]], "row 0 probabilities sum to inf, not 1"),
            # Rows are checked in order; within a row, sign before sum before finiteness.
            ([[0.5, 0.5], [0.5, np.nan], [-1.0, 2.0]], "row 1 has a non-finite probability"),
            ([[0.5, 0.5], [0.5, 0.5], [0.5, 0.5], [-0.5, 0.5]], "row 3 has a negative probability"),
        ],
    )
    def test_bad_row_named(self, probs, message):
        with pytest.raises(InvalidInputError) as info:
            PredictionTrace(np.array(probs), path_id="p0")
        assert str(info.value) == f"trace 'p0' {message}"

    def test_rejects_single_step_or_class(self):
        with pytest.raises(InvalidInputError):
            PredictionTrace(np.array([[0.5, 0.5]]))
        with pytest.raises(InvalidInputError):
            PredictionTrace(np.array([[1.0], [1.0]]))


class TestHff:
    def test_constant_trace_scores_zero(self):
        trace = PredictionTrace(np.tile([0.3, 0.7], (50, 1)))
        assert hff(trace, threshold_k=5) == 0.0

    def test_single_cosine_analytic_value(self):
        # p1 = 0.5 + 0.25 cos(2 pi 20 t / 100): one-sided amplitudes are 50 at
        # DC and 12.5 at bin 20 per class, so hff = 12.5 / 62.5 = 0.2.
        t = np.arange(100)
        p1 = 0.5 + 0.25 * np.cos(2 * np.pi * 20 * t / 100)
        trace = PredictionTrace(np.stack([p1, 1 - p1], axis=1))
        assert hff(trace, threshold_k=10) == pytest.approx(0.2, abs=1e-9)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            trace = random_trace(rng)
            threshold = int(rng.integers(1, trace.probs.shape[0] // 2 + 1))
            assert hff(trace, threshold) == pytest.approx(
                hff_oracle(trace.probs, threshold), abs=1e-9
            )

    def test_bounds_and_column_permutation_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            trace = random_trace(rng)
            value = hff(trace, 1)
            assert 0.0 <= value <= 1.0
            perm = rng.permutation(trace.probs.shape[1])
            shuffled = PredictionTrace(trace.probs[:, perm])
            assert hff(shuffled, 1) == pytest.approx(value, abs=1e-12)

    def test_reversal_invariance(self):
        rng = np.random.default_rng(3)
        trace = random_trace(rng, t=30)
        reversed_trace = PredictionTrace(trace.probs[::-1])
        assert hff(reversed_trace, 4) == pytest.approx(hff(trace, 4), abs=1e-12)

    @pytest.mark.parametrize(
        "threshold, message",
        [
            (0, "threshold_k must be an int >= 1, got 0"),
            (11, "threshold_k must be in [1, 10] for T=20, got 11"),
            (2.5, "threshold_k must be an int >= 1, got 2.5"),
            (True, "threshold_k must be an int >= 1, got True"),
        ],
    )
    def test_threshold_bounds_enforced(self, threshold, message):
        trace = random_trace(np.random.default_rng(4), t=20)
        with pytest.raises(InvalidInputError) as info:
            hff(trace, threshold)
        assert str(info.value) == message

    def test_numpy_int_threshold_accepted(self):
        trace = random_trace(np.random.default_rng(4), t=20)
        assert hff(trace, np.int64(10)) == hff(trace, 10)


class TestConsistentDistance:
    def test_constant_argmax_returns_sentinel(self):
        probs = np.tile([0.6, 0.4], (25, 1))
        assert consistent_distance(PredictionTrace(probs)) == 25

    def test_first_change_index(self):
        probs = np.tile([0.6, 0.4], (50, 1))
        probs[36:] = [0.4, 0.6]  # step 37 in 1-based numbering
        assert consistent_distance(PredictionTrace(probs)) == 37

    def test_tie_breaks_to_lowest_class(self):
        probs = np.full((5, 4), 0.125)
        probs[:, 0] = 0.25
        probs[:, 3] = 0.25  # exact two-way tie between classes 0 and 3
        probs[3] = [0.1, 0.6, 0.2, 0.1]
        trace = PredictionTrace(probs / probs.sum(axis=1, keepdims=True))
        assert consistent_distance(trace) == cd_oracle(trace.probs) == 4

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            trace = random_trace(rng)
            assert consistent_distance(trace) == cd_oracle(trace.probs)

    def test_truncation_after_first_change(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            trace = random_trace(rng, t=30)
            cd = consistent_distance(trace)
            if cd < 30:
                truncated = PredictionTrace(trace.probs[:cd])
                assert consistent_distance(truncated) == cd


class TestSummarizeGaussian:
    @pytest.mark.parametrize(
        "values", [[3.0] * 3, [0.1] * 3, np.full(4000, 0.1), [-2.5e-310] * 5, [1.7e308] * 2],
        ids=["3.0", "0.1", "4000x0.1", "subnormal", "near-max"],
    )
    def test_constant_values(self, values):
        # The rounded mean of three 0.1s is 0.10000000000000002, with a
        # spread of 1.7e-17 about it; equal values are read off the values.
        s = summarize_gaussian(values)
        v = values[0]
        assert (s.mean, s.sample_std, s.n) == (v, 0.0, len(values))
        assert s.ci95_low == s.ci95_high == v

    def test_two_point_example(self):
        s = summarize_gaussian([0.0, 1.0])
        assert s.mean == 0.5
        assert s.sample_std == pytest.approx(0.70711, abs=1e-5)
        assert s.ci95_high - s.mean == pytest.approx(0.98, abs=1e-5)

    def test_single_value(self):
        s = summarize_gaussian([1.5])
        assert (s.mean, s.sample_std, s.ci95_low, s.ci95_high) == (1.5, 0.0, 1.5, 1.5)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(7)
        values = rng.normal(size=257)
        s = summarize_gaussian(values)
        mean = sum(values) / len(values)
        var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
        assert s.mean == pytest.approx(mean, abs=1e-12)
        assert s.sample_std == pytest.approx(np.sqrt(var), abs=1e-12)
        assert s.ci95_low == pytest.approx(mean - 1.96 * np.sqrt(var / len(values)), abs=1e-12)

    def test_ci_width_scales_as_inverse_sqrt_n(self):
        rng = np.random.default_rng(8)
        widths = {}
        for n in (400, 1600):
            ratios = []
            for _ in range(40):
                s = summarize_gaussian(rng.normal(size=n))
                ratios.append(s.ci95_high - s.ci95_low)
            widths[n] = np.mean(ratios)
        assert widths[400] / widths[1600] == pytest.approx(2.0, rel=0.1)

    @pytest.mark.parametrize(
        "make",
        [
            lambda a: a,
            lambda a: a.astype(np.float32),
            lambda a: a[::-1],
            lambda a: a.reshape(40, 100),
            lambda a: np.asfortranarray(a.reshape(40, 100)),
        ],
        ids=["float64", "float32", "reversed", "2d", "fortran"],
    )
    def test_array_input_equals_list_and_generator_input(self, make):
        values = make(np.random.default_rng(9).exponential(size=4000))
        as_list = summarize_gaussian([v for v in np.asarray(values).ravel()])
        assert summarize_gaussian(values) == as_list
        assert summarize_gaussian(float(v) for v in np.asarray(values).ravel()) == as_list

    def test_scaled_statistics_equal_the_unscaled_formulas(self):
        # Below the old limit (squared deviations beyond float64 from about
        # 1e154) the power-of-two scaling changes no bit.
        rng = np.random.default_rng(10)
        for trial in range(400):
            n = int(rng.choice([1, 2, 3, 7, 100, 4000]))
            draw = [rng.normal, rng.exponential, lambda size: rng.lognormal(0.0, 4.0, size)][trial % 3]
            values = draw(size=n) * 10.0 ** rng.uniform(-150, 150)
            mean = float(values.mean())
            std = float(values.std(ddof=1)) if n > 1 else 0.0
            half = 1.96 * std / np.sqrt(n)
            expected = (mean, std, mean - half, mean + half)
            s = summarize_gaussian(values)
            got = (s.mean, s.sample_std, s.ci95_low, s.ci95_high)
            assert np.array(got).tobytes() == np.array(expected).tobytes()

    def test_values_near_the_float64_maximum(self):
        s = summarize_gaussian([1.7e308, 1.7e308, 1.6e308])
        assert s.mean == pytest.approx(1.6666666666666667e308, rel=1e-15)
        assert s.sample_std == pytest.approx(np.sqrt(1 / 3) * 1e307, rel=1e-15)
        assert s.ci95_high == pytest.approx(s.mean + 1.96 * s.sample_std / np.sqrt(3), rel=1e-15)

    @pytest.mark.parametrize(
        "values, message",
        [
            ([], "cannot summarize an empty sequence"),
            (np.zeros((3, 0)), "cannot summarize an empty sequence"),
            ([1.0, np.nan], "cannot summarize non-finite values"),
            ([1.0, np.inf], "cannot summarize non-finite values"),
            (np.array([-np.inf, 2.0]), "cannot summarize non-finite values"),
        ],
    )
    def test_empty_or_non_finite_rejected(self, values, message):
        with pytest.raises(InvalidInputError) as info:
            summarize_gaussian(values)
        assert str(info.value) == message


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3),
        min_size=2,
        max_size=12,
    )
)
def test_hff_bounds_property(raw):
    probs = np.asarray(raw)
    probs = probs / probs.sum(axis=1, keepdims=True)
    value = hff(PredictionTrace(probs), 1)
    assert 0.0 <= value <= 1.0


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 30), st.integers(0))
def test_cd_in_legal_range_property(t, seed):
    rng = np.random.default_rng(seed % 2**32)
    raw = rng.random((t, 3)) + 1e-9
    trace = PredictionTrace(raw / raw.sum(axis=1, keepdims=True))
    assert 2 <= consistent_distance(trace) <= t
