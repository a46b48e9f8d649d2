import collections
import math
import time

import numpy as np
import pytest
from scipy import stats

from spectral_robustness import (
    InvalidInputError,
    PathSpec,
    amplitude_path,
    decompose,
    dft2,
    phase_path,
    pixel_path,
    sample_path_specs,
    wrap_angle,
)
from spectral_robustness import paths, spectral


def random_pair(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=shape), rng.normal(size=shape)


def cifar_pair(seed):
    return random_pair((3, 32, 32), seed)


def antipodal_pair(shape, seed):
    # x1 = -x0 puts every phase difference exactly on the +-pi tie.
    x0 = np.random.default_rng(seed).normal(size=shape)
    return x0, -x0


def shape_id(shape):
    return "x".join(map(str, shape))


# Per-lambda oracles: T = 101 puts lambda = 0.37 exactly at step 37.
ORACLE_SHAPES = [(3, 32, 32), (1, 7, 9), (3, 8, 5), (1, 2, 2)]
ORACLE_RHOS = [0.0, 0.2, 0.4, 1.0]
ORACLE_T, ORACLE_STEP, ORACLE_LAMBDA = 101, 37, 0.37


def oracle_mask(h, w, rho):
    included = np.zeros((h, w), dtype=bool)
    for i in range(h):
        for j in range(w):
            u = i if i <= h // 2 else i - h
            v = j if j <= w // 2 else j - w
            r = np.sqrt((2 * u / h) ** 2 + (2 * v / w) ** 2) / np.sqrt(2)
            included[i, j] = r <= rho
    return included


def phase_diff(a, b):
    return np.abs(wrap_angle(a - b))


class TestWrapAngle:
    def test_branch_cut_example(self):
        # p0 = 3.0, p1 = -3.0: the short way around crosses the cut.
        delta = wrap_angle(-3.0 - 3.0)
        assert abs(delta - (2 * np.pi - 6.0)) < 1e-12
        interpolated = wrap_angle(3.0 + 0.5 * delta)
        assert abs(interpolated - np.pi) < 1e-5

    def test_range_and_antipode_tie(self):
        values = np.linspace(-10, 10, 10001)
        wrapped = wrap_angle(values)
        assert np.all(wrapped > -np.pi)
        assert np.all(wrapped <= np.pi)
        assert wrap_angle(np.pi) == pytest.approx(np.pi)
        assert wrap_angle(-np.pi) == pytest.approx(np.pi)

    def test_identity_inside_range(self):
        for theta in [-3.0, -1.0, 0.0, 0.5, 3.0]:
            assert wrap_angle(theta) == pytest.approx(theta, abs=1e-12)


class TestAmplitudePath:
    def test_lambda_zero_reconstructs_source(self):
        x0, x1 = cifar_pair(0)
        path = amplitude_path(x0, x1, rho=0.4, t=5)
        assert np.abs(path.images[0] - x0).max() < 1e-4

    def test_full_blend_reaches_target_amplitude(self):
        x0, x1 = cifar_pair(1)
        path = amplitude_path(x0, x1, rho=1.0, t=3)
        d_result = decompose(dft2(path.images[-1]))
        d0 = decompose(dft2(x0))
        d1 = decompose(dft2(x1))
        sel = d1.amplitude > 1e-6
        assert np.abs(d_result.amplitude - d1.amplitude)[sel].max() < 1e-3
        assert phase_diff(d_result.phase, d0.phase)[sel].max() < 1e-3

    @pytest.mark.parametrize("rho", ORACLE_RHOS)
    @pytest.mark.parametrize("shape", ORACLE_SHAPES, ids=shape_id)
    def test_matches_step_by_step_oracle(self, shape, rho):
        x0, x1 = random_pair(shape, 2)
        path = amplitude_path(x0, x1, rho=rho, t=ORACLE_T)
        assert abs(path.lambdas[ORACLE_STEP] - ORACLE_LAMBDA) < 1e-12

        lam = ORACLE_LAMBDA
        mask = oracle_mask(shape[1], shape[2], rho)
        expected = np.empty_like(x0)
        for ch in range(shape[0]):
            s0 = np.fft.fft2(x0[ch])
            s1 = np.fft.fft2(x1[ch])
            amp = np.where(mask, (1 - lam) * np.abs(s0) + lam * np.abs(s1), np.abs(s0))
            expected[ch] = np.fft.ifft2(amp * np.exp(1j * np.angle(s0))).real
        scale = max(np.abs(x0).max(), np.abs(x1).max())
        assert np.abs(path.images[ORACLE_STEP] - expected).max() <= 1e-12 * scale

    def test_off_mask_bins_untouched(self):
        x0, x1 = cifar_pair(3)
        rho = 0.3
        path = amplitude_path(x0, x1, rho=rho, t=4)
        d0 = decompose(dft2(x0))
        outside = ~oracle_mask(32, 32, rho)
        for img in path.images:
            d = decompose(dft2(img))
            sel = outside[None] & (d0.amplitude > 1e-6)
            assert np.abs(d.amplitude - d0.amplitude)[sel].max() < 1e-3
            assert phase_diff(d.phase, d0.phase)[sel].max() < 1e-3

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            amplitude_path(np.zeros((1, 8, 8)), np.zeros((1, 8, 6)), 0.4, 3)


class TestPhasePath:
    def test_lambda_zero_reconstructs_source(self):
        x0, x1 = cifar_pair(4)
        path = phase_path(x0, x1, rho=0.4, t=5)
        assert np.abs(path.images[0] - x0).max() < 1e-4

    @pytest.mark.parametrize(
        "x0, x1",
        [cifar_pair(5), antipodal_pair((3, 32, 32), 5), antipodal_pair((1, 7, 9), 5)],
        ids=["random", "antipodal-3x32x32", "antipodal-1x7x9"],
    )
    def test_amplitude_preserved_along_path(self, x0, x1):
        d0 = decompose(dft2(x0))
        sel = d0.amplitude > 1e-6
        path = phase_path(x0, x1, rho=0.4, t=7)
        for img in path.images:
            d = decompose(dft2(img))
            assert np.abs(d.amplitude - d0.amplitude)[sel].max() < 1e-3

    def test_amplitude_preserved_with_flipped_dc_sign(self):
        # Endpoints with opposite DC signs would break amplitude preservation
        # if the DC phase were rotated through complex values.
        x0, x1 = cifar_pair(6)
        x0 = x0 - x0.mean() + 0.5
        x1 = x1 - x1.mean() - 0.5
        d0 = decompose(dft2(x0))
        sel = d0.amplitude > 1e-6
        path = phase_path(x0, x1, rho=0.4, t=5)
        for img in path.images:
            d = decompose(dft2(img))
            assert np.abs(d.amplitude - d0.amplitude)[sel].max() < 1e-3

    @pytest.mark.parametrize("rho", ORACLE_RHOS)
    @pytest.mark.parametrize("shape", ORACLE_SHAPES, ids=shape_id)
    def test_matches_step_by_step_oracle(self, shape, rho):
        # Random endpoints have no exact antipodal ties, so the full-spectrum
        # rotation below is Hermitian and needs no tie handling.
        x0, x1 = random_pair(shape, 13)
        path = phase_path(x0, x1, rho=rho, t=ORACLE_T)

        lam = ORACLE_LAMBDA
        h, w = shape[1:]
        mask = oracle_mask(h, w, rho)
        for i in [0] + ([h // 2] if h % 2 == 0 else []):
            for j in [0] + ([w // 2] if w % 2 == 0 else []):
                mask[i, j] = False  # self-conjugate
        expected = np.empty_like(x0)
        for ch in range(shape[0]):
            s0 = np.fft.fft2(x0[ch])
            p0 = np.angle(s0)
            delta = wrap_angle(np.angle(np.fft.fft2(x1[ch])) - p0)
            phase = np.where(mask, wrap_angle(p0 + lam * delta), p0)
            expected[ch] = np.fft.ifft2(np.abs(s0) * np.exp(1j * phase)).real
        scale = max(np.abs(x0).max(), np.abs(x1).max())
        assert np.abs(path.images[ORACLE_STEP] - expected).max() <= 1e-12 * scale

    @pytest.mark.parametrize("ties", [False, True], ids=["random", "antipodal"])
    @pytest.mark.parametrize("rho", [0.0, 0.4, 1.0])
    @pytest.mark.parametrize("shape", [(3, 32, 32), (1, 7, 9), (2, 6, 6)], ids=shape_id)
    def test_equals_full_grid_rotation(self, shape, rho, ties):
        # Rotating every half-grid bin by exp(i lambda delta), delta = 0 off
        # the moved bins, is the same arithmetic on the same FFT backend.
        x0, x1 = antipodal_pair(shape, 16) if ties else random_pair(shape, 16)
        t = 11
        h, w = shape[1:]
        s0, s1 = spectral.rfft2(x0), spectral.rfft2(x1)
        mask = oracle_mask(h, w, rho)[:, : w // 2 + 1]
        for i in [0] + ([h // 2] if h % 2 == 0 else []):
            for j in [0] + ([w // 2] if w % 2 == 0 else []):
                mask[i, j] = False  # self-conjugate
        p0 = decompose(s0).phase
        delta = np.where(mask, wrap_angle(decompose(s1).phase - p0), 0.0)
        # Odd increment: on columns 0 and W/2, row H - u takes -delta of row u.
        for j in [0] + ([w // 2] if w % 2 == 0 else []):
            for i in range(1, (h + 1) // 2):
                delta[:, h - i, j] = -delta[:, i, j]
        lambdas = np.arange(t) / (t - 1)
        expected = spectral.irfft2(s0 * np.exp(1j * lambdas[:, None, None, None] * delta), (h, w))
        assert np.array_equal(phase_path(x0, x1, rho=rho, t=t).images, expected)

    def test_masked_phase_moves_toward_target(self):
        x0, x1 = cifar_pair(7)
        d0 = decompose(dft2(x0))
        d1 = decompose(dft2(x1))
        path = phase_path(x0, x1, rho=0.4, t=3)
        d_mid = decompose(dft2(path.images[1]))
        mask = oracle_mask(32, 32, 0.4)
        mask[0, 0] = mask[16, 0] = mask[0, 16] = mask[16, 16] = False  # self-conjugate
        expected = wrap_angle(d0.phase + 0.5 * wrap_angle(d1.phase - d0.phase))
        sel = mask[None] & (d0.amplitude > 1e-6)
        assert phase_diff(d_mid.phase, expected)[sel].max() < 1e-3

    def test_off_mask_phase_untouched(self):
        x0, x1 = cifar_pair(8)
        rho = 0.25
        d0 = decompose(dft2(x0))
        outside = ~oracle_mask(32, 32, rho)
        path = phase_path(x0, x1, rho=rho, t=4)
        for img in path.images:
            d = decompose(dft2(img))
            sel = outside[None] & (d0.amplitude > 1e-6)
            assert phase_diff(d.phase, d0.phase)[sel].max() < 1e-3


def reference_phase_path(x0, x1, rho, t):
    """One-shot formula: every step's spectrum in one (bins, T) array, then one irfft2."""
    h, w = x0.shape[1:]
    s0, s1 = spectral.rfft2(x0), spectral.rfft2(x1)
    mask = spectral.radial_mask(h, w, rho).included[:, : w // 2 + 1]
    p0 = decompose(s0).phase
    delta = np.where(mask, wrap_angle(decompose(s1).phase - p0), 0.0)
    spectral.mirror_half_grid(delta, w, -1)
    lambdas = np.arange(t, dtype=np.float64) / (t - 1)
    moved = np.flatnonzero(delta)
    bins = s0.ravel()
    spectra = np.repeat(bins[:, None], t, axis=1)
    spectra[moved] = bins[moved, None] * np.exp(1j * lambdas * delta.ravel()[moved, None])
    return spectral.irfft2(spectra.T.reshape((t,) + s0.shape), (h, w))


class TestPhaseBlocks:
    """Blocks of lambda steps on several threads, or forced onto one: the one-shot formula's bytes."""

    # Each block rotates and inverts only its own steps' spectra, so neither
    # the thread count nor the block size moves a bit.
    @pytest.mark.parametrize("cpus", [1, 2, 4, 7], ids=lambda cpus: f"{cpus}-cpus")
    @pytest.mark.parametrize(
        "block_steps", [None, 1, 7, 200], ids=["default-block", "1-step", "7-steps", "200-steps"]
    )
    @pytest.mark.parametrize(
        "shape, rho, t, ties",
        [
            ((3, 32, 32), 0.4, 106, False),  # 6 default blocks, the last of one step
            ((3, 32, 32), 1.0, 2, True),
            ((1, 7, 9), 0.0, 101, True),  # odd sides
            ((1, 7, 9), 0.4, 2, False),
            ((2, 8, 5), 1.0, 101, False),
            ((1, 2, 2), 0.4, 101, True),
        ],
        ids=["3x32x32-106", "3x32x32-2-ties", "1x7x9-101-ties", "1x7x9-2", "2x8x5-101",
             "1x2x2-101-ties"],
    )
    def test_matches_one_shot_formula(
        self, monkeypatch, spawned_threads, cpus, block_steps, shape, rho, t, ties
    ):
        monkeypatch.setattr(spectral, "_cpu_count", lambda: cpus)
        pixels = math.prod(shape)
        if block_steps is not None:
            monkeypatch.setattr(spectral, "_CHUNK_PIXELS", block_steps * pixels)
        x0, x1 = antipodal_pair(shape, 20) if ties else random_pair(shape, 20)
        images = phase_path(x0, x1, rho, t).images
        assert np.array_equal(images, reference_phase_path(x0, x1, rho, t))
        assert images.flags.c_contiguous
        n_blocks = -(-t // max(1, spectral._CHUNK_PIXELS // pixels))
        assert bool(spawned_threads) is (cpus > 1 and n_blocks >= 4)

    # More CPUs than run_chunks uses threads, so the bound holds on any host.
    def test_peak_memory_follows_the_output(self, traced_peak, monkeypatch):
        monkeypatch.setattr(spectral, "_cpu_count", lambda: 64)
        x0, x1 = cifar_pair(21)
        path, peak = traced_peak(lambda: phase_path(x0, x1, 0.4, 1000))
        assert peak <= 1.3 * path.images.nbytes


# Finite endpoints whose spectra or images leave float64 raise; at 1e300 the
# path stays finite. The (1, 8, 8) spectra stay finite at 1e307, the images
# do not; at 4e307 the spectra overflow too.
@pytest.mark.parametrize(
    "shape, scale, overflows",
    [
        ((1, 8, 8), 1e300, False),
        ((3, 32, 32), 1e300, False),
        ((1, 8, 8), 1e307, True),
        ((3, 32, 32), 1e306, True),
        ((1, 8, 8), 4e307, True),
    ],
)
@pytest.mark.parametrize(
    "mode, build", [("amplitude", amplitude_path), ("phase", phase_path)], ids=["amplitude", "phase"]
)
def test_overflowing_fourier_path_rejected(mode, build, shape, scale, overflows):
    x0, x1 = random_pair(shape, 22)
    x0, x1 = x0 * scale, x1 * scale
    assert np.all(np.isfinite(x0)) and np.all(np.isfinite(x1))
    if not overflows:
        assert np.all(np.isfinite(build(x0, x1, 0.4, 5).images))
        return
    with pytest.raises(InvalidInputError) as info:
        build(x0, x1, 0.4, 5)
    assert str(info.value) == f"{mode} path overflows float64: the endpoints are too large"


def test_overflowing_rotation_rejected():
    # Both spectra are finite, but bin (0, 1) of x0 is 1.7e308 * (1 + 1j), so
    # rotating it overflows in the multiply, which warns without an errstate.
    x0 = np.array([[[1e308, -7e307, -7e307, 1e308], [0.0, 0.0, 0.0, 0.0]]])
    x1 = np.array([[[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 9.0]]])
    with pytest.raises(InvalidInputError, match="^phase path overflows float64"):
        phase_path(x0, x1, 1.0, 3)


class TestPixelPath:
    def test_midpoint_is_elementwise_mean(self):
        x0, x1 = cifar_pair(9)
        path = pixel_path(x0, x1, t=3)
        assert np.array_equal(path.images[1], (x0 + x1) / 2)

    def test_identical_endpoints_give_constant_path(self):
        x0, _ = cifar_pair(10)
        path = pixel_path(x0, x0, t=4)
        for img in path.images:
            assert np.abs(img - x0).max() < 1e-12

    def test_quarter_point_matches_formula(self):
        x0, x1 = cifar_pair(11)
        path = pixel_path(x0, x1, t=5)
        assert np.array_equal(path.images[1], 0.75 * x0 + 0.25 * x1)

    @pytest.mark.parametrize("t", [2, 100, 1000])
    def test_peak_memory_is_the_output_one_chunk_and_a_few_images(self, traced_peak, t):
        x0, x1 = cifar_pair(13)
        path, peak = traced_peak(lambda: pixel_path(x0, x1, t))
        assert peak <= path.images.nbytes + 8 * spectral._CHUNK_PIXELS + 4 * x0.nbytes

    def test_lambda_grid_and_endpoints(self):
        x0, x1 = cifar_pair(12)
        path = pixel_path(x0, x1, t=5)
        assert np.allclose(path.lambdas, [0, 0.25, 0.5, 0.75, 1.0])
        assert np.array_equal(path.images[0], x0)
        assert np.array_equal(path.images[-1], x1)


class TestSamplePathSpecs:
    labels = np.array([0, 0, 0, 1, 1, 2])

    def test_within_class_pairs_share_labels(self):
        specs = sample_path_specs(self.labels, 50, "amplitude", "within", seed=1)
        for spec in specs:
            assert self.labels[spec.source_index] == self.labels[spec.target_index]
            assert spec.source_index != spec.target_index

    def test_between_class_pairs_differ(self):
        specs = sample_path_specs(self.labels, 50, "phase", "between", seed=2)
        for spec in specs:
            assert self.labels[spec.source_index] != self.labels[spec.target_index]

    def test_deterministic_given_seed(self):
        a = sample_path_specs(self.labels, 20, "pixel", "unconstrained", seed=3)
        b = sample_path_specs(self.labels, 20, "pixel", "unconstrained", seed=3)
        assert a == b

    def test_per_path_streams_are_stable_under_count(self):
        few = sample_path_specs(self.labels, 5, "pixel", "unconstrained", seed=4)
        many = sample_path_specs(self.labels, 15, "pixel", "unconstrained", seed=4)
        assert many[:5] == few

    @staticmethod
    def valid_pairs(labels, relation):
        n = len(labels)
        return [
            (a, b) for a in range(n) for b in range(n)
            if a != b and (relation == "unconstrained" or (labels[a] == labels[b]) == (relation == "within"))
        ]

    @pytest.mark.parametrize("labels", [[0, 0, 0, 1, 1, 2], [3, 1, 3, 1, 1, 7, 7], [0, 1, 1], [2, 2]])
    @pytest.mark.parametrize("relation", ["within", "between", "unconstrained"])
    def test_pairs_are_uniform_over_the_valid_pairs(self, labels, relation):
        valid = self.valid_pairs(labels, relation)
        if not valid:
            with pytest.raises(InvalidInputError):
                sample_path_specs(labels, 1, "pixel", relation, seed=0)
            return
        per_pair = 200
        specs = sample_path_specs(labels, per_pair * len(valid), "pixel", relation, seed=9)
        counts = collections.Counter((spec.source_index, spec.target_index) for spec in specs)
        assert set(counts) == set(valid)
        if len(valid) > 1:
            observed = np.array([counts[pair] for pair in valid])
            chi2 = float(np.sum((observed - per_pair) ** 2) / per_pair)
            assert chi2 < stats.chi2.ppf(1 - 1e-6, len(valid) - 1)

    @pytest.mark.parametrize("labels", [[0, 0, 0, 1, 1, 2], [3, 1, 3, 1, 1, 7, 7], [0, 1, 1]])
    @pytest.mark.parametrize("relation", ["within", "between", "unconstrained"])
    def test_each_number_names_one_valid_pair(self, monkeypatch, labels, relation):
        # Pair i's stream numbers the valid pairs; a stream whose draw is i shows each is named once.
        class Counting:
            def __init__(self, key):
                self.i = key[1]

            def integers(self, high):
                assert 0 <= self.i < high
                return self.i

        valid = self.valid_pairs(labels, relation)
        monkeypatch.setattr(paths.np.random, "default_rng", Counting)
        specs = sample_path_specs(labels, len(valid), "pixel", relation, seed=0)
        assert sorted((spec.source_index, spec.target_index) for spec in specs) == valid

    @pytest.mark.parametrize(
        "relation, labels, want",
        [
            ("within", np.concatenate([[0], np.arange(9999)]), {(0, 1), (1, 0)}),
            ("between", np.eye(1, 10000, 4321, dtype=np.int64)[0], None),
        ],
        ids=["one-within-pair-among-singletons", "one-minority-item"],
    )
    def test_skewed_labels_take_no_longer(self, relation, labels, want):
        start = time.perf_counter()
        specs = sample_path_specs(labels, 20, "pixel", relation, seed=3)
        assert time.perf_counter() - start < 1.0
        pairs = {(spec.source_index, spec.target_index) for spec in specs}
        if want is not None:
            assert pairs <= want
        else:
            assert all(4321 in pair for pair in pairs)

    def test_unsatisfiable_relation_rejected(self):
        with pytest.raises(InvalidInputError):
            sample_path_specs(np.array([0, 1, 2]), 5, "pixel", "within", seed=0)
        with pytest.raises(InvalidInputError):
            sample_path_specs(np.array([1, 1, 1]), 5, "pixel", "between", seed=0)

    @pytest.mark.parametrize(
        "mode, relation, message",
        [
            ("warp", "within", "unknown path mode 'warp'"),
            ("pixel", "inside", "unknown class relation 'inside'"),
        ],
    )
    def test_unknown_mode_or_relation_rejected(self, mode, relation, message):
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            sample_path_specs(self.labels, 5, mode, relation, seed=0)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"n_paths": 0}, "n_paths must be an int >= 1, got 0"),
            ({"n_paths": 2.5}, "n_paths must be an int >= 1, got 2.5"),
            ({"n_paths": True}, "n_paths must be an int >= 1, got True"),
            ({"t": 1}, "steps must be an int >= 2, got 1"),
            ({"t": 2.5}, "steps must be an int >= 2, got 2.5"),
            ({"seed": -1}, "seed must be an int >= 0, got -1"),
            ({"seed": 2.5}, "seed must be an int >= 0, got 2.5"),
            ({"seed": True}, "seed must be an int >= 0, got True"),
        ],
    )
    def test_bad_count_rejected(self, kwargs, message):
        with pytest.raises(InvalidInputError) as info:
            sample_path_specs(self.labels, **{"n_paths": 5, "mode": "pixel", **kwargs})
        assert str(info.value) == message

    def test_numpy_int_counts_accepted(self):
        specs = sample_path_specs(self.labels, np.int64(3), "pixel", t=np.int32(4), seed=np.int64(5))
        assert specs == sample_path_specs(self.labels, 3, "pixel", t=4, seed=5)
        assert type(specs[0].steps) is int
        assert type(specs[0].seed) is int

    @pytest.mark.parametrize(
        "args, message",
        [
            (("amplitude", 1, 1, "within", 0.4, 100, 0), "source and target must differ"),
            (("amplitude", 0, 1, "within", 0.4, 1, 0), "steps must be an int >= 2, got 1"),
            (("amplitude", 0, 1, "within", 0.4, 2.5, 0), "steps must be an int >= 2, got 2.5"),
            (("amplitude", 0, 1, "within", 0.4, True, 0), "steps must be an int >= 2, got True"),
            (("amplitude", 0, 1, "within", 0.4, 100, -1), "seed must be an int >= 0, got -1"),
            (("amplitude", 0, 1, "within", 0.4, 100, 2.5), "seed must be an int >= 0, got 2.5"),
            (("warp", 0, 1, "within", 0.4, 100, 0), "unknown path mode 'warp'"),
        ],
    )
    def test_spec_validation(self, args, message):
        with pytest.raises(InvalidInputError) as info:
            PathSpec(*args)
        assert str(info.value) == message


@pytest.mark.parametrize(
    "build",
    [
        lambda a, b: amplitude_path(a, b, 0.4, 3),
        lambda a, b: phase_path(a, b, 0.4, 3),
        lambda a, b: pixel_path(a, b, 3),
    ],
    ids=["amplitude", "phase", "pixel"],
)
def test_bad_endpoints_rejected(build):
    x0 = np.zeros((1, 8, 8))
    with pytest.raises(InvalidInputError):
        build(x0, np.full((1, 8, 8), np.nan))
    with pytest.raises(InvalidInputError):
        build(x0[0], x0[0])


@pytest.mark.parametrize("t", [1, 2.5, True, np.float64(3.0)], ids=repr)
@pytest.mark.parametrize(
    "build",
    [
        lambda a, b, t: amplitude_path(a, b, 0.4, t),
        lambda a, b, t: phase_path(a, b, 0.4, t),
        lambda a, b, t: pixel_path(a, b, t),
    ],
    ids=["amplitude", "phase", "pixel"],
)
def test_bad_step_count_rejected(build, t):
    x0, x1 = random_pair((1, 8, 8), 3)
    with pytest.raises(InvalidInputError) as info:
        build(x0, x1, t)
    assert str(info.value) == f"T must be an int >= 2, got {t!r}"
