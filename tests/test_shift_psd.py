import numpy as np
import pytest

from spectral_robustness import (
    CorruptionSpec,
    InvalidInputError,
    PsdMap,
    UndefinedMetricError,
    band_fractions,
    class_averaged_shift_psd,
    corrupt_batch,
    paired_shift_psd,
    powerlaw_images,
    psd,
    radial_profile,
)
from spectral_robustness.shift_psd import DEFAULT_BAND_EDGES, PROFILE_BIN_WIDTH


def normalized_radius_oracle(h, w):
    r = np.empty((h, w))
    for i in range(h):
        for j in range(w):
            u = i if i <= h // 2 else i - h
            v = j if j <= w // 2 else j - w
            r[i, j] = np.sqrt((2 * u / h) ** 2 + (2 * v / w) ** 2) / np.sqrt(2)
    return r


class TestPairedShiftPsd:
    def test_identical_batches_give_zero_map(self):
        images = np.random.default_rng(0).normal(size=(5, 1, 8, 8))
        result = paired_shift_psd(images, images)
        assert np.all(result.power == 0)

    def test_brightness_shift_is_dc_only(self):
        rng = np.random.default_rng(1)
        images = rng.normal(size=(10, 1, 16, 16))
        shifted = images + 0.5
        result = paired_shift_psd(images, shifted)
        assert result.power[0, 0] == pytest.approx(0.25 * 256, rel=1e-9)
        rest = result.power.copy()
        rest[0, 0] = 0
        assert np.abs(rest).max() < 1e-9

    def test_white_noise_shift_is_flat(self):
        rng = np.random.default_rng(2)
        images = rng.normal(size=(5000, 1, 32, 32)) * 0.5
        noisy = images + rng.normal(0, 0.3, size=images.shape)
        result = paired_shift_psd(images, noisy)
        assert np.abs(result.power - 0.09).max() < 0.1 * 0.09

    def test_translation_consistency(self):
        # Quantized data keeps the +3.5 translation exact in float64, so the
        # difference images (and hence the map) are bit-identical.
        rng = np.random.default_rng(3)
        a = np.round(rng.normal(size=(4, 1, 8, 8)) * 2**20) / 2**20
        b = np.round((a + rng.normal(0, 0.2, size=a.shape)) * 2**20) / 2**20
        base = paired_shift_psd(a, b)
        shifted = paired_shift_psd(a + 3.5, b + 3.5)
        assert np.array_equal(base.power, shifted.power)

    def test_length_mismatch_rejected(self):
        a = np.zeros((3, 1, 8, 8))
        with pytest.raises(InvalidInputError):
            paired_shift_psd(a, a[:2])

    @pytest.mark.parametrize("side", ["originals", "corrupted"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_pixel_named(self, side, bad):
        rng = np.random.default_rng(7)
        stacks = {name: rng.normal(size=(3, 3, 8, 8)) for name in ("originals", "corrupted")}
        stacks[side][1, 1, 4, 5] = bad
        with pytest.raises(InvalidInputError, match=f"^{side} contains non-finite values$"):
            paired_shift_psd(stacks["originals"], stacks["corrupted"])

    def test_overflowing_difference_power_rejected(self):
        a = np.random.default_rng(8).normal(size=(3, 3, 8, 8))
        b = a.copy()
        b[1, 1, 4, 5] = 1e200
        with pytest.raises(InvalidInputError, match="^psd power overflows"):
            paired_shift_psd(a, b)

    def test_difference_beyond_float64_rejected(self):
        a = np.random.default_rng(9).normal(size=(3, 3, 8, 8))
        a[1, 1, 4, 5] = 1e308
        with pytest.raises(InvalidInputError, match="^psd input contains non-finite values$"):
            paired_shift_psd(a, -a)


class TestClassAveragedShiftPsd:
    def test_identical_groups_give_exact_zero(self):
        rng = np.random.default_rng(4)
        groups = {k: rng.normal(size=(6, 1, 8, 8)) for k in range(3)}
        result = class_averaged_shift_psd(groups, groups)
        assert np.all(result.power == 0)
        assert result.source_count == 3

    def test_added_white_noise_reads_flat(self):
        rng = np.random.default_rng(5)
        sigma = 0.2
        a = {}
        b = {}
        for k in range(2):
            base = rng.normal(size=(2000, 1, 32, 32)) * 0.25
            a[k] = base
            b[k] = base + rng.normal(0, sigma, size=base.shape)
        result = class_averaged_shift_psd(a, b)
        assert np.abs(result.power - sigma**2).max() < 0.15 * sigma**2

    def test_reshuffled_split_stays_below_monte_carlo_null(self):
        rng = np.random.default_rng(6)
        pools = {k: rng.normal(size=(400, 1, 16, 16)) for k in range(2)}

        def split_stat(seed):
            split_rng = np.random.default_rng(seed)
            a, b = {}, {}
            for k, pool in pools.items():
                order = split_rng.permutation(len(pool))
                half = len(pool) // 2
                a[k] = pool[order[:half]]
                b[k] = pool[order[half:]]
            return np.abs(class_averaged_shift_psd(a, b).power).max()

        test_stat = split_stat(100)
        null = [split_stat(200 + i) for i in range(20)]
        assert test_stat <= 1.5 * max(null)

    def test_mismatched_keys_rejected(self):
        imgs = np.zeros((2, 1, 8, 8))
        with pytest.raises(InvalidInputError):
            class_averaged_shift_psd({0: imgs}, {1: imgs})

    @pytest.mark.parametrize("side", ["a", "b"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_pixel_named(self, side, bad):
        rng = np.random.default_rng(10)
        groups = {g: {k: rng.normal(size=(3, 3, 8, 8)) for k in range(3)} for g in "ab"}
        groups[side][1][1, 1, 4, 5] = bad
        with pytest.raises(InvalidInputError, match=rf"^{side}\[1\] contains non-finite values$"):
            class_averaged_shift_psd(groups["a"], groups["b"])

    def test_overflowing_power_rejected(self):
        rng = np.random.default_rng(11)
        a = {k: rng.normal(size=(3, 3, 8, 8)) for k in range(3)}
        b = {k: v.copy() for k, v in a.items()}
        b[1][1, 1, 4, 5] = 1e200
        with pytest.raises(InvalidInputError, match="^psd power overflows"):
            class_averaged_shift_psd(a, b)


class TestRadialProfile:
    def test_dc_only_map(self):
        power = np.zeros((16, 16))
        power[0, 0] = 4.0
        profile = radial_profile(PsdMap(power, 1))
        assert profile[0][0] == pytest.approx(0.025)
        assert profile[0][1] > 0
        for _, mean in profile[1:]:
            assert mean == 0

    def test_flat_map(self):
        profile = radial_profile(PsdMap(np.full((32, 32), 2.5), 1))
        for _, mean in profile:
            assert mean == pytest.approx(2.5)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(7)
        power = rng.normal(size=(24, 20))
        profile = radial_profile(PsdMap(power, 1))
        r = normalized_radius_oracle(24, 20)
        n_bins = int(round(1.0 / PROFILE_BIN_WIDTH))
        expected = []
        for i in range(n_bins):
            values = []
            for row in range(24):
                for col in range(20):
                    idx = min(int(r[row, col] / PROFILE_BIN_WIDTH), n_bins - 1)
                    if idx == i:
                        values.append(power[row, col])
            if values:
                expected.append(((i + 0.5) * PROFILE_BIN_WIDTH, np.mean(np.asarray(values))))
        assert len(profile) == len(expected)
        for (c1, m1), (c2, m2) in zip(profile, expected):
            assert c1 == pytest.approx(c2)
            assert m1 == m2


class TestBandFractions:
    def test_dc_only_map(self):
        power = np.zeros((16, 16))
        power[0, 0] = 1.0
        f = band_fractions(PsdMap(power, 1))
        assert (f.low, f.mid, f.high) == (1.0, 0.0, 0.0)

    def test_corner_bin_is_high(self):
        power = np.zeros((16, 16))
        power[8, 8] = -2.0  # signed power still counts via absolute value
        f = band_fractions(PsdMap(power, 1))
        assert (f.low, f.mid, f.high) == (0.0, 0.0, 1.0)

    def test_flat_map_matches_bin_enumeration(self):
        f = band_fractions(PsdMap(np.ones((32, 32)), 1))
        r = normalized_radius_oracle(32, 32)
        r1, r2 = DEFAULT_BAND_EDGES
        n = r.size
        assert f.low == pytest.approx(np.sum(r <= r1) / n)
        assert f.mid == pytest.approx(np.sum((r > r1) & (r <= r2)) / n)
        assert f.high == pytest.approx(np.sum(r > r2) / n)

    def test_fractions_sum_to_one(self):
        rng = np.random.default_rng(8)
        f = band_fractions(PsdMap(rng.normal(size=(16, 24)), 1))
        assert abs(f.low + f.mid + f.high - 1.0) < 1e-9

    def test_custom_edges(self):
        f = band_fractions(PsdMap(np.ones((32, 32)), 1), edges=(0.2, 0.9))
        r = normalized_radius_oracle(32, 32)
        assert f.low == pytest.approx(np.sum(r <= 0.2) / r.size)

    def test_zero_map_rejected(self):
        with pytest.raises(UndefinedMetricError):
            band_fractions(PsdMap(np.zeros((8, 8)), 1))

    def test_bad_edges_rejected(self):
        with pytest.raises(InvalidInputError):
            band_fractions(PsdMap(np.ones((8, 8)), 1), edges=(0.5, 0.4))


@pytest.fixture(scope="module")
def natural_images():
    return powerlaw_images((1, 32, 32), n=500, slope=1.0, seed=9)


class TestCorruptionBandOrdering:
    """Desk-scale analogue of the low/mid/high placement of corruption families."""

    def test_brightness_is_low(self, natural_images):
        shifted = corrupt_batch(natural_images, CorruptionSpec("brightness", 0.5))
        f = band_fractions(paired_shift_psd(natural_images, shifted))
        assert f.low > 0.9

    def test_blur_is_low_mid(self, natural_images):
        shifted = corrupt_batch(natural_images, CorruptionSpec("gaussian_blur", 1.5))
        f = band_fractions(paired_shift_psd(natural_images, shifted))
        assert f.low + f.mid > f.high

    def test_gaussian_noise_is_high(self, natural_images):
        shifted = corrupt_batch(natural_images, CorruptionSpec("gaussian_noise", 0.3, seed=1))
        f = band_fractions(paired_shift_psd(natural_images, shifted))
        assert f.high > f.mid > f.low

    def test_impulse_noise_is_high(self, natural_images):
        shifted = corrupt_batch(natural_images, CorruptionSpec("impulse_noise", 0.05, seed=2))
        f = band_fractions(paired_shift_psd(natural_images, shifted))
        assert f.high == max(f.low, f.mid, f.high)
