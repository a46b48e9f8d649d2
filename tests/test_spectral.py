import numpy as np
import pytest
import scipy.fft

from spectral_robustness import (
    InvalidInputError,
    decompose,
    dft2,
    idft2_real,
    psd,
    radial_mask,
)


def naive_dft2(channel):
    """Direct O(N^2) double-sum DFT of one (H, W) channel."""
    h, w = channel.shape
    rows = np.arange(h)
    cols = np.arange(w)
    out = np.empty((h, w), dtype=np.complex128)
    for u in range(h):
        for v in range(w):
            kernel = np.exp(-2j * np.pi * (u * rows[:, None] / h + v * cols[None, :] / w))
            out[u, v] = np.sum(channel * kernel)
    return out


def naive_idft2(channel):
    """Direct inverse DFT of one (H, W) spectrum channel."""
    h, w = channel.shape
    rows = np.arange(h)
    cols = np.arange(w)
    out = np.empty((h, w), dtype=np.complex128)
    for r in range(h):
        for c in range(w):
            kernel = np.exp(2j * np.pi * (rows[:, None] * r / h + cols[None, :] * c / w))
            out[r, c] = np.sum(channel * kernel) / (h * w)
    return out


def signed_index(i, n):
    return i if i <= n // 2 else i - n


def mask_oracle(h, w, rho):
    """Enumerate every bin against the normalized-radius cutoff definition."""
    included = np.zeros((h, w), dtype=bool)
    for i in range(h):
        for j in range(w):
            u = signed_index(i, h)
            v = signed_index(j, w)
            r = np.sqrt((2 * u / h) ** 2 + (2 * v / w) ** 2) / np.sqrt(2)
            included[i, j] = r <= rho
    return included


class TestDft2:
    def test_constant_image_is_dc_only(self):
        c = 1.7
        spec = dft2(np.full((1, 4, 4), c))
        assert abs(spec[0, 0, 0] - 16 * c) < 1e-6
        rest = spec.copy()
        rest[0, 0, 0] = 0
        assert np.abs(rest).max() < 1e-6

    def test_delta_image_has_flat_spectrum(self):
        img = np.zeros((1, 4, 6))
        img[0, 2, 3] = 1.0
        assert np.abs(np.abs(dft2(img)) - 1.0).max() < 1e-12

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(42)
        img = rng.normal(size=(3, 8, 8))
        spec = dft2(img)
        for ch in range(3):
            assert np.abs(spec[ch] - naive_dft2(img[ch])).max() < 1e-6

    def test_parseval(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            img = rng.normal(size=(2, 16, 12))
            spec = dft2(img)
            for ch in range(2):
                lhs = np.sum(np.abs(spec[ch]) ** 2)
                rhs = 16 * 12 * np.sum(img[ch] ** 2)
                assert abs(lhs - rhs) / rhs < 1e-5

    def test_rejects_non_finite(self):
        img = np.zeros((1, 4, 4))
        img[0, 1, 1] = np.nan
        with pytest.raises(InvalidInputError):
            dft2(img)

    def test_rejects_tiny_images(self):
        with pytest.raises(InvalidInputError):
            dft2(np.zeros((1, 1, 4)))


class TestIdft2Real:
    def test_round_trip(self):
        rng = np.random.default_rng(7)
        img = rng.normal(size=(3, 32, 32))
        assert np.abs(idft2_real(dft2(img)) - img).max() < 1e-5

    def test_dc_only_spectrum_gives_constant(self):
        spec = np.zeros((1, 5, 7), dtype=complex)
        spec[0, 0, 0] = 35.0
        assert np.abs(idft2_real(spec) - 1.0).max() < 1e-12

    def test_asymmetric_spectrum_matches_naive_real_part(self):
        rng = np.random.default_rng(3)
        spec = dft2(rng.normal(size=(1, 6, 6)))
        spec[0, 1, 2] += 0.5 + 0.25j  # break Hermitian symmetry
        ours = idft2_real(spec)
        oracle = naive_idft2(spec[0]).real
        assert np.abs(ours[0] - oracle).max() < 1e-10

    def test_rejects_non_finite(self):
        spec = np.zeros((1, 4, 4), dtype=complex)
        spec[0, 0, 0] = np.inf
        with pytest.raises(InvalidInputError):
            idft2_real(spec)


class TestDecomposeRecompose:
    def test_modulus_and_argument(self):
        spec = np.full((1, 2, 2), 3 + 4j)
        d = decompose(spec)
        assert np.allclose(d.amplitude, 5.0)
        assert np.allclose(d.phase, np.arctan2(4, 3))

    def test_zero_bin_gets_zero_phase(self):
        d = decompose(np.zeros((1, 2, 2), dtype=complex))
        assert np.all(d.amplitude == 0)
        assert np.all(d.phase == 0)

    def test_phase_range(self):
        rng = np.random.default_rng(5)
        spec = rng.normal(size=(2, 8, 8)) + 1j * rng.normal(size=(2, 8, 8))
        spec[0, 0, 0] = -1.0 + 0j
        spec[0, 0, 1] = complex(-1.0, -0.0)  # negative-zero imaginary part
        d = decompose(spec)
        assert np.all(d.phase > -np.pi)
        assert np.all(d.phase <= np.pi)

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        spec = rng.normal(size=(3, 8, 8)) + 1j * rng.normal(size=(3, 8, 8))
        d = decompose(spec)
        back = d.amplitude * np.exp(1j * d.phase)
        assert np.abs(back - spec).max() < 1e-6


class TestRadialMask:
    def test_rho_zero_keeps_only_dc(self):
        mask = radial_mask(8, 8, 0.0)
        assert mask.included[0, 0]
        assert mask.included.sum() == 1

    def test_rho_one_keeps_everything(self):
        assert radial_mask(6, 10, 1.0).included.all()

    @pytest.mark.parametrize("h,w,rho", [(8, 8, 0.5), (8, 8, 0.37), (7, 9, 0.5), (16, 8, 0.25)])
    def test_matches_enumeration_oracle(self, h, w, rho):
        assert np.array_equal(radial_mask(h, w, rho).included, mask_oracle(h, w, rho))

    def test_monotone_in_rho(self):
        previous = radial_mask(12, 12, 0.0).included
        for rho in np.linspace(0.05, 1.0, 20):
            current = radial_mask(12, 12, rho).included
            assert np.all(previous <= current)
            previous = current

    def test_conjugate_symmetry(self):
        mask = radial_mask(8, 10, 0.5).included
        for i in range(8):
            for j in range(10):
                assert mask[i, j] == mask[(-i) % 8, (-j) % 10]

    def test_rejects_bad_rho(self):
        with pytest.raises(InvalidInputError):
            radial_mask(8, 8, 1.5)
        with pytest.raises(InvalidInputError):
            radial_mask(8, 8, -0.1)


class TestPsd:
    def test_constant_image(self):
        c = 2.0
        result = psd([np.full((1, 4, 4), c)])
        assert abs(result.power[0, 0] - c * c * 16) < 1e-9
        rest = result.power.copy()
        rest[0, 0] = 0
        assert np.abs(rest).max() < 1e-9

    def test_white_noise_is_flat(self):
        # E|X[u,v]|^2 = H*W*sigma^2 for i.i.d. noise, so power ~ sigma^2 = 1.
        rng = np.random.default_rng(123)
        images = rng.normal(size=(10000, 1, 32, 32))
        result = psd(images)
        assert result.source_count == 10000
        assert np.abs(result.power - 1.0).max() < 0.05

    def test_single_cosine_concentrates_in_two_bins(self):
        h = w = 32
        rows = np.arange(h)
        img = np.tile(np.cos(2 * np.pi * 3 * rows[:, None] / h), (1, 1, w))
        result = psd([img])
        # DFT of cos(2*pi*3r/H) puts H*W/2 in bins (+-3, 0), power (H*W)/4 each.
        expected = h * w / 4
        assert abs(result.power[3, 0] - expected) < 1e-6
        assert abs(result.power[h - 3, 0] - expected) < 1e-6
        rest = result.power.copy()
        rest[3, 0] = rest[h - 3, 0] = 0
        assert np.abs(rest).max() < 1e-6

    def test_copies_average_exactly(self):
        rng = np.random.default_rng(9)
        img = rng.normal(size=(3, 8, 8))
        one = psd([img])
        four = psd([img, img, img, img])
        assert np.array_equal(one.power, four.power)
        assert four.source_count == 4

    def test_rejects_empty_and_mismatched(self):
        with pytest.raises(InvalidInputError):
            psd([])
        with pytest.raises(InvalidInputError):
            psd([np.zeros((1, 4, 4)), np.zeros((1, 8, 8))])


def full_spectrum_psd(stack):
    """The full-DFT formula: mean over channels, then images, of |fft2|^2 / (H*W)."""
    h, w = stack.shape[-2:]
    spectra = np.fft.fft2(stack, axes=(-2, -1))
    return np.mean(np.mean(np.abs(spectra) ** 2, axis=1) / (h * w), axis=0)


class TestPsdHalfSpectrum:
    SHAPES = [(5, 3, 8, 8), (4, 2, 7, 9), (3, 1, 8, 5), (3, 2, 9, 6), (2, 3, 2, 2), (6, 1, 32, 32)]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_matches_full_spectrum_formula(self, shape):
        stack = np.random.default_rng(17).normal(size=shape) * 3.0 + 1.0
        expected = full_spectrum_psd(stack)
        power = psd(stack).power
        assert power.shape == shape[-2:]
        assert np.abs(power - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("shape", SHAPES)
    def test_point_symmetric_bit_for_bit(self, shape):
        power = psd(np.random.default_rng(18).normal(size=shape)).power
        h, w = power.shape
        mirror = power[(-np.arange(h)) % h][:, (-np.arange(w)) % w]
        assert np.array_equal(power, mirror)


def memory_layouts(stack):
    """The same values in C order, Fortran order, reversed strides, channels-last and float32."""
    return {
        "C": np.ascontiguousarray(stack),
        "F": np.asfortranarray(stack),
        "reversed": np.ascontiguousarray(stack[::-1, ::-1, ::-1, ::-1])[::-1, ::-1, ::-1, ::-1],
        "transposed": np.ascontiguousarray(stack.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2),
        "float32": stack.astype(np.float32),
    }


class TestPsdLayoutsAndFiniteness:
    @pytest.mark.parametrize("shape", [(400, 3, 32, 32), (5, 1, 7, 9), (4, 3, 9, 6), (3, 2, 2, 2)])
    @pytest.mark.parametrize("layout", ["C", "F", "reversed", "transposed", "float32"])
    def test_half_map_equals_inline_formula(self, shape, layout):
        stack = memory_layouts(np.random.default_rng(21).normal(size=shape) * 2.0 + 0.3)[layout]
        h, w = shape[-2:]
        spectra = scipy.fft.rfft2(np.asarray(stack, dtype=np.float64))
        per_image = np.mean(spectra.real**2 + spectra.imag**2, axis=1) / (h * w)
        # Columns 0 and W/2 hold each bin and its mirror; psd copies rows
        # below H/2 there from their mirrors, so those bins are compared by
        # the point-symmetry test instead.
        computed = np.ones((h, w // 2 + 1), dtype=bool)
        computed[h // 2 + 1 :, [0] + ([w // 2] if w % 2 == 0 else [])] = False
        power = psd(stack).power[:, : w // 2 + 1]
        assert np.array_equal(power[computed], np.mean(per_image, axis=0)[computed])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_pixel_rejected(self, bad):
        stack = np.random.default_rng(22).normal(size=(3, 3, 8, 8))
        stack[1, 1, 4, 5] = bad
        with pytest.raises(InvalidInputError, match="^psd input contains non-finite values$"):
            psd(stack)

    @pytest.mark.parametrize("fill", [False, True])
    def test_overflowing_power_rejected(self, fill):
        if fill:
            stack = np.full((2, 1, 4, 4), 1e200)
        else:
            stack = np.random.default_rng(23).normal(size=(3, 3, 8, 8))
            stack[1, 1, 4, 5] = 1e200
        with pytest.raises(InvalidInputError, match="^psd power overflows"):
            psd(stack)
