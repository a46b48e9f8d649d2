import re
import sys
import threading
import time

import numpy as np
import pytest
import scipy.fft
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spectral_robustness import (
    InvalidInputError,
    decompose,
    dft2,
    psd,
    radial_mask,
)
from spectral_robustness import spectral
from spectral_robustness.spectral import chunk_slices, mirror_half_grid, run_chunks


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_image_named_off_the_spectrum(self, bad):
        img = np.zeros((2, 4, 4))
        img[1, 1, 1] = bad
        with pytest.raises(InvalidInputError, match="^image contains non-finite values$"):
            dft2(img)

    @pytest.mark.parametrize("value", [1e308, -np.finfo(np.float64).max])
    def test_finite_image_whose_spectrum_overflows_is_rejected(self, value):
        with pytest.raises(InvalidInputError, match="^spectrum overflows float64: the image is too large$"):
            dft2(np.full((1, 4, 4), value))

    def test_largest_finite_spectrum_is_returned(self):
        spec = dft2(np.full((1, 4, 4), 1e307))
        assert spec[0, 0, 0] == 16e307

    def test_rejects_tiny_images(self):
        with pytest.raises(InvalidInputError):
            dft2(np.zeros((1, 1, 4)))


class TestMirrorHalfGrid:
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("w", [2, 5, 6, 7])
    @pytest.mark.parametrize("h", [2, 5, 6, 7])
    def test_half_grid_pairs_obey_sign(self, h, w, sign):
        before = np.random.default_rng(10 * h + w).normal(size=(2, h, w // 2 + 1))
        values = before.copy()
        mirror_half_grid(values, w, sign)
        for u in range(h):
            for v in range(w // 2 + 1):
                mu, mv = -u % h, -v % w
                if mv > w // 2 or u < mu:
                    # The mirror is off the half grid, or this bin leads its pair.
                    assert np.array_equal(values[:, u, v], before[:, u, v])
                if mv <= w // 2 and u < mu:
                    assert np.array_equal(values[:, mu, mv], sign * before[:, u, v])
                if (mu, mv) == (u, v):
                    expected = before[:, u, v] if sign == 1 else np.zeros(2)
                    assert np.array_equal(values[:, u, v], expected)


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

    @pytest.mark.parametrize(
        "spec, message",
        [
            (np.zeros((8, 8), dtype=complex), "spectrum must have shape (C, H, W), got (8, 8)"),
            (np.zeros((1, 1, 2, 2), dtype=complex),
             "spectrum must have shape (C, H, W), got (1, 1, 2, 2)"),
            (np.full((1, 2, 2), complex(1.0, np.nan)), "spectrum contains non-finite values"),
            (np.full((1, 2, 2), np.inf + 0j), "spectrum contains non-finite values"),
        ],
        ids=["2d", "4d", "nan", "inf"],
    )
    def test_bad_spectrum_rejected(self, spec, message):
        with pytest.raises(InvalidInputError) as info:
            decompose(spec)
        assert str(info.value) == message


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

    @pytest.mark.parametrize(
        "h, w, message",
        [
            (4.5, 4, "h must be an int, got 4.5"),
            (4, 4.0, "w must be an int, got 4.0"),
            (True, 4, "h must be an int, got True"),
            (np.float64(4), 4, "h must be an int, got "),
            (1, 4, "grid must be at least 2x2, got 1x4"),
            (4, -3, "grid must be at least 2x2, got 4x-3"),
        ],
        ids=["float-h", "float-w", "bool-h", "numpy-float-h", "one-row", "negative-w"],
    )
    def test_rejects_bad_grid(self, h, w, message):
        for build in (spectral.normalized_radius, lambda h, w: radial_mask(h, w, 0.4)):
            with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}"):
                build(h, w)


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


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 3000), pixels_per_item=st.integers(1, 300_000))
@example(n=1, pixels_per_item=3 * 32 * 32)
@example(n=1, pixels_per_item=3 * 200 * 200)  # an item larger than a chunk
@example(n=5, pixels_per_item=3 * 200 * 200)
@example(n=400, pixels_per_item=3 * 32 * 32)
def test_chunk_slices_cover_the_items_once_in_order(n, pixels_per_item):
    chunks = [range(n)[rows] for rows in chunk_slices(n, pixels_per_item)]
    assert [i for chunk in chunks for i in chunk] == list(range(n))
    limit = max(1, 2**16 // pixels_per_item)
    sizes = [len(chunk) for chunk in chunks]
    assert all(1 <= size <= limit for size in sizes)
    # Every chunk but the last is full.
    assert all(size == limit for size in sizes[:-1])


class TestRunChunks:
    """The chunk runner: every chunk once, on a pool only when it can pay, faults in order."""

    @pytest.fixture
    def cpus(self, monkeypatch):
        def force(count):
            monkeypatch.setattr(spectral, "_cpu_count", lambda: count)

        return force

    @pytest.mark.parametrize("cpus_given, n_chunks, threads", [
        (1, 100, 0), (2, 3, 0), (2, 4, 1), (4, 100, 3), (8, 5, 3), (64, 100, 3),
    ])
    def test_each_chunk_runs_once(self, cpus, spawned_threads, cpus_given, n_chunks, threads):
        cpus(cpus_given)
        ran = []
        run_chunks(ran.append, range(0, 3 * n_chunks, 3))
        assert sorted(ran) == list(range(0, 3 * n_chunks, 3))
        assert len(spawned_threads) == threads
        assert not any(thread.is_alive() for thread in spawned_threads)
        if not threads:
            assert ran == list(range(0, 3 * n_chunks, 3))

    def test_no_chunk_lost_or_repeated_under_fast_switching(self, cpus):
        cpus(8)
        counts = np.zeros(3000, dtype=int)

        def chunk(lo):
            counts[lo] += 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(target=run_chunks, args=(chunk, range(len(counts))))
            runner.start()
            runner.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        assert np.all(counts == 1)

    def test_chunks_run_at_once(self, cpus):
        cpus(2)
        # Two chunks meet at the barrier only if they run at the same time.
        barrier = threading.Barrier(2, timeout=10)
        run_chunks(lambda lo: barrier.wait(), range(4))

    @pytest.mark.parametrize("cpus_given", [1, 2])
    def test_chunks_run_under_the_callers_errstate(self, cpus, cpus_given):
        cpus(cpus_given)
        big = np.full(3, 1e300)
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError):
                run_chunks(lambda lo: big * big, range(4))
        squares = np.empty((4, 3))

        def square(lo):
            squares[lo] = big * big

        with np.errstate(over="ignore"):
            run_chunks(square, range(4))
        assert np.all(squares == np.inf)

    @pytest.mark.parametrize("cpus_given", [1, 2])
    def test_first_fault_in_chunk_order_is_raised(self, cpus, cpus_given):
        cpus(cpus_given)

        def chunk(lo):
            if lo == 1:
                time.sleep(0.05)
            if lo in (1, 3):
                raise ValueError(f"chunk {lo}")

        with pytest.raises(ValueError, match="^chunk 1$"):
            run_chunks(chunk, range(6))

    def test_fault_cancels_chunks_not_started(self, cpus):
        cpus(2)
        ran = []

        def chunk(lo):
            if lo == 0:
                raise ValueError("chunk 0")
            time.sleep(0.02)
            ran.append(lo)

        with pytest.raises(ValueError, match="^chunk 0$"):
            run_chunks(chunk, range(50))
        # Only chunks taken before chunk 0 raised have run.
        assert len(ran) <= 10

    def test_cpu_count_reads_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(spectral.os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        assert spectral._cpu_count() == 3
        monkeypatch.delattr(spectral.os, "sched_getaffinity")
        monkeypatch.setattr(spectral.os, "cpu_count", lambda: None)
        assert spectral._cpu_count() == 1
