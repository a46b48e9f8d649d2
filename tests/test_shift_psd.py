import functools
import gc
import math
import weakref
from collections import Counter

import numpy as np
import pytest
import scipy.fft

from spectral_robustness import (
    CorruptionSpec,
    InvalidInputError,
    PsdMap,
    UndefinedMetricError,
    band_fractions,
    class_averaged_shift_psd,
    corrupt_batch,
    make_blobs,
    paired_shift_psd,
    powerlaw_images,
    psd,
    radial_profile,
)
from spectral_robustness import spectral
from spectral_robustness.spectral import DEFAULT_BAND_EDGES, PROFILE_BIN_WIDTH
from spectral_robustness.spectral import _CHUNK_PIXELS, normalized_radius
from spectral_robustness.synthetic import _STD_LEAF_VALUES, _divide_by_std


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
        with pytest.raises(InvalidInputError, match="^psd power overflows float64"):
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


def reference_psd(images):
    """One-shot formula: the whole stack through one rfft2, squared, then both means."""
    stack = np.asarray(images, dtype=np.float64)
    n, _, h, w = stack.shape
    parts = scipy.fft.rfft2(stack).view(np.float64)
    np.multiply(parts, parts, out=parts)
    per_image = np.mean(parts[..., 0::2] + parts[..., 1::2], axis=1) / (h * w)
    half = np.mean(per_image, axis=0)
    power = np.empty((h, w))
    power[:, : w // 2 + 1] = half
    for u in range(h):
        for v in range(w // 2 + 1, w):
            power[u, v] = half[-u % h, w - v]
    for v in [0] + ([w // 2] if w % 2 == 0 else []):
        for u in range(1, (h + 1) // 2):
            power[h - u, v] = power[u, v]
    return power


def images_per_chunk(image_shape):
    return max(1, _CHUNK_PIXELS // math.prod(image_shape))


LAYOUTS = {
    "C": lambda x: x,
    "F": np.asfortranarray,
    "reversed": lambda x: np.ascontiguousarray(x[::-1, ::-1, ::-1, ::-1])[::-1, ::-1, ::-1, ::-1],
    "transposed": lambda x: np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2),
    "float32": lambda x: x.astype(np.float32),
}


class TestChunkedPsdMatchesOneShotFormula:
    """The chunked maps equal the one-shot formula bit for bit."""

    @pytest.fixture(params=[(3, 32, 32), (1, 9, 7), (2, 2, 2)], ids=str)
    def image_shape(self, request):
        return request.param

    @pytest.fixture(params=["1", "chunk-1", "chunk", "chunk+1", "400"])
    def n(self, request, image_shape):
        chunk = images_per_chunk(image_shape)
        return {"1": 1, "chunk-1": chunk - 1, "chunk": chunk, "chunk+1": chunk + 1, "400": 400}[
            request.param
        ]

    @staticmethod
    def pair(image_shape, n, layout):
        rng = np.random.default_rng([n, *image_shape])
        a = rng.normal(size=(n, *image_shape)) * 3.0 + 0.5
        b = a + rng.normal(0.0, 0.2, size=a.shape)
        return LAYOUTS[layout](a), LAYOUTS[layout](b)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_psd(self, image_shape, n, layout):
        a, _ = self.pair(image_shape, n, layout)
        result = psd(a)
        assert np.array_equal(result.power, reference_psd(a))
        assert result.source_count == n

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_paired_shift_psd(self, image_shape, n, layout):
        a, b = self.pair(image_shape, n, layout)
        expected = reference_psd(np.asarray(b, dtype=np.float64) - np.asarray(a, dtype=np.float64))
        assert np.array_equal(paired_shift_psd(a, b).power, expected)

    @pytest.mark.parametrize("layout", ["C", "F", "float32"])
    def test_class_averaged_shift_psd(self, image_shape, n, layout):
        a, b = self.pair(image_shape, n, layout)
        groups_a = {k: a[k::3] for k in range(min(3, n))}
        groups_b = {k: b[::-1][k::2] for k in range(min(3, n))}
        deltas = [reference_psd(groups_b[k]) - reference_psd(groups_a[k]) for k in sorted(groups_a)]
        result = class_averaged_shift_psd(groups_a, groups_b)
        assert np.array_equal(result.power, np.mean(deltas, axis=0))


class TestThreadedPsd:
    """With its chunks on several threads, or forced onto one, psd gives the one-shot maps."""

    IMAGE_SHAPE = (2, 9, 7)
    PER_CHUNK = 3

    @pytest.fixture(params=[1, 4], ids=["1-cpu", "4-cpus"])
    def cpus(self, request, monkeypatch):
        monkeypatch.setattr(spectral, "_cpu_count", lambda: request.param)
        monkeypatch.setattr(spectral, "_CHUNK_PIXELS", self.PER_CHUNK * math.prod(self.IMAGE_SHAPE))
        return request.param

    def stacks(self, n_chunks):
        # The last chunk holds one image.
        n = self.PER_CHUNK * n_chunks - 1
        rng = np.random.default_rng([n, 7])
        a = rng.normal(size=(n, *self.IMAGE_SHAPE)) * 3.0 + 0.5
        return a, a + rng.normal(0.0, 0.2, size=a.shape)

    @pytest.mark.parametrize("n_chunks", [1, 3, 4, 100])
    def test_maps_match_one_shot_formula(self, cpus, n_chunks, spawned_threads):
        a, b = self.stacks(n_chunks)
        assert np.array_equal(psd(a).power, reference_psd(a))
        assert np.array_equal(paired_shift_psd(a, b).power, reference_psd(b - a))
        assert bool(spawned_threads) is (cpus > 1 and n_chunks >= 4)

    @pytest.mark.parametrize("n_classes", [1, 2])
    @pytest.mark.parametrize("n_chunks", [1, 2, 3, 4, 100])
    def test_class_averaged_map_matches_one_shot_formula(
        self, cpus, n_classes, n_chunks, spawned_threads
    ):
        # The groups' chunks run together: threads from 4 chunks in all.
        a, b = self.stacks(n_chunks)
        groups_a = {k: a[k::n_classes] for k in range(n_classes)}
        groups_b = {k: b[::-1][k::n_classes] for k in range(n_classes)}
        deltas = [reference_psd(groups_b[k]) - reference_psd(groups_a[k]) for k in range(n_classes)]
        averaged = class_averaged_shift_psd(groups_a, groups_b).power
        assert np.array_equal(averaged, np.mean(deltas, axis=0))
        total = sum(-(-len(g) // self.PER_CHUNK) for g in [*groups_a.values(), *groups_b.values()])
        assert bool(spawned_threads) is (cpus > 1 and total >= 4)

    @pytest.mark.parametrize(
        "a1, b1, message",
        [
            ("nan", "fine", "a[1] contains non-finite values"),
            ("fine", "1e200", "psd power overflows float64: the input is too large"),
            ("fine", "1-channel", "image sizes differ between groups for class 1"),
        ],
    )
    def test_fault_in_one_group_keeps_its_message(self, cpus, a1, b1, message):
        a, b = self.stacks(100)
        inputs = {"fine": a[:40], "1-channel": a[:40, :1], "nan": a[:40].copy(), "1e200": a[:40].copy()}
        inputs["nan"][31, 1, 4, 5] = np.nan
        inputs["1e200"][31, 1, 4, 5] = 1e200
        groups_a = {0: a[40:], 1: inputs[a1], 2: a}
        groups_b = {0: b[40:], 1: inputs[b1], 2: b}
        with pytest.raises(InvalidInputError) as info:
            class_averaged_shift_psd(groups_a, groups_b)
        assert str(info.value) == message

    @pytest.mark.parametrize("scale", [1e-200, 1.0, 1e150])
    @pytest.mark.parametrize("n_chunks", [1, 4])
    def test_paired_map_is_psd_of_the_difference_bit_for_bit(self, cpus, scale, n_chunks):
        # paired_shift_psd forms originals - corrupted, the negation of b - a.
        a, b = self.stacks(n_chunks)
        a, b = a * scale, b * scale
        assert paired_shift_psd(a, b).power.tobytes() == psd(b - a).power.tobytes()

    @pytest.mark.parametrize(
        "bad, message",
        [
            (np.nan, "psd input contains non-finite values"),
            (1e200, "psd power overflows float64: the input is too large"),
        ],
    )
    def test_fault_in_one_chunk_keeps_its_message(self, cpus, bad, message):
        _, b = self.stacks(100)
        b[151, 1, 4, 5] = bad
        with pytest.raises(InvalidInputError) as info:
            psd(b)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "bad, message",
        [
            (np.nan, "corrupted contains non-finite values"),
            (1e200, "psd power overflows float64: the input is too large"),
        ],
    )
    def test_fault_in_one_chunk_named_by_paired_shift_psd(self, cpus, bad, message):
        a, b = self.stacks(100)
        b[151, 1, 4, 5] = bad
        with pytest.raises(InvalidInputError) as info:
            paired_shift_psd(a, b)
        assert str(info.value) == message


class TestShiftPsdMessages:
    """Every input's structure is checked before any transform; values are read off the maps."""

    @staticmethod
    def stack(n, image_shape=(3, 8, 8), bad=None):
        x = np.random.default_rng(n).normal(size=(n, *image_shape))
        if bad is not None:
            x[1, 0, 4, 5] = bad
        return x

    @pytest.mark.parametrize(
        "originals, corrupted, message",
        [
            ("fine", "short", "originals/corrupted shape mismatch: (3, 3, 8, 8) vs (2, 3, 8, 8)"),
            # Unequal shapes are a structure fault: no value is read.
            ("nan", "short", "originals/corrupted shape mismatch: (3, 3, 8, 8) vs (2, 3, 8, 8)"),
            ("fine", "inf-short", "originals/corrupted shape mismatch: (3, 3, 8, 8) vs (2, 3, 8, 8)"),
            ("nan", "inf", "originals contains non-finite values"),
            ("empty", "nan", "originals must be nonempty"),
            ("fine", "3-d", "corrupted must be a nonempty (N, C, H, W) stack, got (3, 8, 8)"),
            # Both inputs' structure is checked before either's values.
            ("nan", "3-d", "corrupted must be a nonempty (N, C, H, W) stack, got (3, 8, 8)"),
            ("mixed", "fine", "originals images must share a shape, got [(3, 4, 4), (3, 8, 8)]"),
            ("fine", "1e200", "psd power overflows float64: the input is too large"),
            ("1e308", "-1e308", "psd power overflows float64: the input is too large"),
            ("-1e308", "1e308", "psd power overflows float64: the input is too large"),
            ("short", "1e308", "originals/corrupted shape mismatch: (2, 3, 8, 8) vs (3, 3, 8, 8)"),
            ("nan", "1e308", "originals contains non-finite values"),
            ("3-d", "1e308", "originals must be a nonempty (N, C, H, W) stack, got (3, 8, 8)"),
        ],
    )
    def test_paired(self, originals, corrupted, message):
        inputs = {
            "fine": self.stack(3),
            "short": self.stack(2),
            "nan": self.stack(3, bad=np.nan),
            "inf": self.stack(3, bad=np.inf),
            "inf-short": self.stack(2, bad=-np.inf),
            "empty": [],
            "3-d": np.zeros((3, 8, 8)),
            "mixed": [np.zeros((3, 8, 8)), np.zeros((3, 4, 4))],
            "1e200": self.stack(3, bad=1e200),
            "1e308": self.stack(3, bad=1e308),
            "-1e308": -self.stack(3, bad=1e308),
        }
        with pytest.raises(InvalidInputError) as info:
            paired_shift_psd(inputs[originals], inputs[corrupted])
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "a0, b0, a1, b1, message",
        [
            ("fine", "fine", "nan", "fine", "a[1] contains non-finite values"),
            ("fine", "fine", "fine", "inf", "b[1] contains non-finite values"),
            ("fine", "fine", "1e200", "nan", "psd power overflows float64: the input is too large"),
            ("fine", "fine", "nan", "1e200", "a[1] contains non-finite values"),
            ("fine", "fine", "empty", "fine", "a[1] must be nonempty"),
            ("fine", "fine", "fine", "3-d", "b[1] must be a nonempty (N, C, H, W) stack, got (3, 8, 8)"),
            ("fine", "fine", "fine", "small", "image sizes differ between groups for class 1"),
            # Every group must have the (C, H, W) of a[0], (3, 8, 8).
            ("fine", "fine", "16x16", "16x16", "image sizes differ between groups for class 1"),
            ("fine", "fine", "fine", "1-channel", "image sizes differ between groups for class 1"),
            ("fine", "fine", "1-channel", "1-channel", "image sizes differ between groups for class 1"),
            ("fine", "1-channel", "fine", "fine", "image sizes differ between groups for class 0"),
            # Every group's structure is checked, in the order a[0], b[0],
            # class 0's sizes, a[1], b[1], class 1's sizes, before any map:
            # a structure fault in a later class comes before a value fault
            # in an earlier one.
            ("nan", "fine", "fine", "3-d", "b[1] must be a nonempty (N, C, H, W) stack, got (3, 8, 8)"),
            ("fine", "inf", "empty", "fine", "a[1] must be nonempty"),
            ("1e200", "fine", "mixed", "fine", "a[1] images must share a shape, got [(3, 4, 4), (3, 8, 8)]"),
            ("fine", "nan", "fine", "1-channel", "image sizes differ between groups for class 1"),
            ("fine", "small", "nan", "fine", "image sizes differ between groups for class 0"),
            ("fine", "3-d", "nan", "fine", "b[0] must be a nonempty (N, C, H, W) stack, got (3, 8, 8)"),
            ("fine", "fine", "nan", "3-d", "b[1] must be a nonempty (N, C, H, W) stack, got (3, 8, 8)"),
            ("fine", "fine", "fine", "small-nan", "image sizes differ between groups for class 1"),
        ],
    )
    def test_class_averaged(self, a0, b0, a1, b1, message):
        inputs = {
            "fine": self.stack(3),
            "16x16": self.stack(3, (3, 16, 16)),
            "1-channel": self.stack(3, (1, 8, 8)),
            "nan": self.stack(3, bad=np.nan),
            "inf": self.stack(4, bad=np.inf),
            "1e200": self.stack(3, bad=1e200),
            "empty": [],
            "3-d": np.zeros((3, 8, 8)),
            "mixed": [np.zeros((3, 8, 8)), np.zeros((3, 4, 4))],
            "small": self.stack(3, (3, 4, 4)),
            "small-nan": np.full((3, 3, 4, 4), np.nan),
        }
        a = {0: inputs[a0], 1: inputs[a1]}
        b = {0: inputs[b0], 1: inputs[b1]}
        with pytest.raises(InvalidInputError) as info:
            class_averaged_shift_psd(a, b)
        assert str(info.value) == message

    @pytest.mark.parametrize("a1, b1", [("fine", "3-d"), ("empty", "fine"), ("fine", "1-channel")])
    def test_structure_fault_in_a_later_class_runs_no_transform(self, monkeypatch, a1, b1):
        transforms = []

        def counted_rfft2(x):
            transforms.append(x.shape)
            return scipy.fft.rfft2(x)

        monkeypatch.setattr(spectral, "rfft2", counted_rfft2)
        inputs = {
            "fine": self.stack(3), "3-d": np.zeros((3, 8, 8)), "empty": [], "1-channel": self.stack(3, (1, 8, 8))
        }
        a = {0: self.stack(3, bad=np.nan), 1: inputs[a1], 2: self.stack(3)}
        b = {0: self.stack(3), 1: inputs[b1], 2: self.stack(3)}
        with pytest.raises(InvalidInputError, match=r"\[1\]|class 1$"):
            class_averaged_shift_psd(a, b)
        with pytest.raises(InvalidInputError, match="shape mismatch"):
            paired_shift_psd(self.stack(3, bad=np.nan), self.stack(2))
        assert transforms == []
        # The spy sees the transforms of valid input, one chunk per group.
        class_averaged_shift_psd({0: self.stack(3)}, {0: self.stack(3)})
        assert transforms == [(3, 3, 8, 8)] * 2

    @pytest.mark.parametrize("bad", [None, np.nan, 1e200])
    def test_generators_are_iterated_once(self, bad):
        yielded = Counter()

        def images(name, stack):
            for image in stack:
                yielded[name] += 1
                yield image

        fine, other = self.stack(3), self.stack(3, bad=bad)
        calls = [
            lambda: paired_shift_psd(images("originals", fine), images("corrupted", other)),
            lambda: class_averaged_shift_psd({0: images("a", fine)}, {0: images("b", other)}),
        ]
        for call in calls:
            if bad is None:
                call()
            else:
                with pytest.raises(InvalidInputError):
                    call()
        assert yielded == {"originals": 3, "corrupted": 3, "a": 3, "b": 3}

    def test_one_shot_iterables_named_like_arrays(self):
        a, b = self.stack(3, bad=np.nan), self.stack(3)
        with pytest.raises(InvalidInputError, match="^originals contains non-finite values$"):
            paired_shift_psd(iter(a), iter(b))
        with pytest.raises(InvalidInputError, match=r"^b\[0\] contains non-finite values$"):
            class_averaged_shift_psd({0: iter(b)}, {0: iter(a)})
        c = 2.0 * b[::-1]
        assert np.array_equal(paired_shift_psd(iter(b), iter(c)).power, paired_shift_psd(b, c).power)


class TestPsdMemory:
    @pytest.fixture(scope="class")
    def pair(self):
        rng = np.random.default_rng(12)
        a = rng.normal(size=(2000, 3, 32, 32))
        return a, a + rng.normal(0.0, 0.3, size=a.shape)

    @pytest.mark.parametrize("name", ["psd", "paired_shift_psd"])
    def test_peak_stays_below_a_third_of_one_input(self, pair, name, traced_peak, monkeypatch):
        # More CPUs than run_chunks uses threads, so the bound holds on any host.
        monkeypatch.setattr(spectral, "_cpu_count", lambda: 64)
        call = {"psd": lambda: psd(pair[1]), "paired_shift_psd": lambda: paired_shift_psd(*pair)}[name]
        _, peak = traced_peak(call)
        assert peak <= 0.3 * pair[0].nbytes

    def test_class_averaged_peak_stays_below_a_third_of_the_groups(self, pair, traced_peak, monkeypatch):
        # Every group's per-image powers are held until the last chunk, and
        # each is 17/96 of its float64 (3, 32, 32) images.
        monkeypatch.setattr(spectral, "_cpu_count", lambda: 64)
        a = {k: pair[0][400 * k : 400 * (k + 1)] for k in range(5)}
        b = {k: pair[1][k::5] for k in range(5)}
        _, peak = traced_peak(lambda: class_averaged_shift_psd(a, b))
        assert peak <= 0.3 * (pair[0].nbytes + pair[1].nbytes)


@pytest.mark.parametrize("shape", [(2, 8, 8), (8,)])
def test_psd_map_must_be_2d(shape):
    with pytest.raises(InvalidInputError) as info:
        PsdMap(np.ones(shape), 1)
    assert str(info.value) == f"PSD map must be 2D, got shape {shape}"


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


def blur_oracle(x, sigma):
    """scipy's ``reflect`` blur as a DCT-II multiplier: eigenvalue sum_j g_j cos(pi k j / N) per side.

    ``reflect`` is the half-sample symmetric extension, which the DCT-II
    diagonalizes; g is the kernel truncated at radius ceil(3 sigma) and
    normalised, and a radius past the side reflects more than once.
    """
    r = math.ceil(3.0 * sigma)
    j = np.arange(-r, r + 1)
    g = np.exp(-0.5 * (j / sigma) ** 2)
    g /= g.sum()
    lam_h, lam_w = (np.cos(np.pi * np.arange(n)[:, None] * j / n) @ g for n in x.shape[-2:])
    coefficients = scipy.fft.dctn(x, axes=(-2, -1), norm="ortho") * lam_h[:, None] * lam_w
    return scipy.fft.idctn(coefficients, axes=(-2, -1), norm="ortho")


def block_average_matrix(n, factor):
    """(n, n) matrix that replaces each run of ``factor`` values by its mean."""
    i = np.arange(n)
    return (i[:, None] // factor == i[None, :] // factor) / factor


class TestClosedFormShiftMaps:
    """The paired maps of blur, contrast and pixelate against their closed forms."""

    @staticmethod
    def assert_map_equals(images, spec, expected):
        got = paired_shift_psd(images, corrupt_batch(images, spec)).power
        assert np.abs(got - expected.power).max() <= 8 * np.spacing(got.max())

    @pytest.mark.parametrize(
        "image_shape, sigma",
        [((3, 32, 32), 1.0), ((2, 9, 7), 0.8), ((2, 8, 6), 1.5), ((2, 5, 6), 2.5), ((1, 8, 8), 3.0)],
        ids=["32x32", "odd", "even", "radius-8-past-both-sides", "radius-9-past-the-side"],
    )
    def test_blur_is_a_dct_multiplier(self, image_shape, sigma):
        x = np.random.default_rng(1).normal(size=(20,) + image_shape)
        self.assert_map_equals(x, CorruptionSpec("gaussian_blur", sigma), psd(blur_oracle(x, sigma) - x))

    @pytest.mark.parametrize(
        "image_shape, c", [((3, 32, 32), 0.5), ((2, 9, 7), 0.3), ((2, 8, 6), 1.7)], ids=["32x32", "odd", "even"]
    )
    def test_contrast_scales_the_mean_removed_psd(self, image_shape, c):
        x = np.random.default_rng(2).normal(size=(20,) + image_shape)
        mean_removed = psd(x - x.mean(axis=(2, 3), keepdims=True))
        expected = PsdMap((1.0 - c) ** 2 * mean_removed.power, mean_removed.source_count)
        self.assert_map_equals(x, CorruptionSpec("contrast", c), expected)

    @pytest.mark.parametrize(
        "image_shape, factor",
        [((3, 32, 32), 2), ((2, 9, 6), 3), ((2, 8, 12), 4), ((1, 7, 7), 7)],
        ids=["32x32", "odd-height", "even", "one-block"],
    )
    def test_pixelate_is_a_block_average(self, image_shape, factor):
        x = np.random.default_rng(3).normal(size=(20,) + image_shape)
        a_h, a_w = (block_average_matrix(n, factor) for n in image_shape[1:])
        self.assert_map_equals(x, CorruptionSpec("pixelate", factor), psd(a_h @ x @ a_w.T - x))


def reference_powerlaw_amplitude(h, w, slope):
    """exp(-slope log r - max) off DC, 0 at DC, scaled to a Euclidean norm of H * W."""
    r = normalized_radius(h, w)
    log_amp = np.full((h, w), -np.inf)
    log_amp[r > 0] = -slope * np.log(r[r > 0])
    amp = np.exp(log_amp - log_amp.max())
    return amp * (h * w / np.sqrt(np.sum(amp**2)))


def reference_powerlaw_spectra(image_shape, n, slope, seed):
    """One-shot formula: every half-grid phase drawn at once, the full Hermitian spectrum written out."""
    c, h, w = image_shape
    draws = np.random.default_rng([seed, 11]).uniform(-np.pi, np.pi, size=(n, c, h, w // 2 + 1))
    u, v = np.arange(h)[:, None], np.arange(w)
    mu, mv = -u % h, -v % w
    # A bin takes its own draw where it leads its pair, on the half grid and
    # with its mirror off it or in a later row; its mirror's draw, negated,
    # where the mirror leads; and phase 0 or pi by its own draw's sign where
    # it is its own mirror.
    leads = (v <= w // 2) & ((mv > w // 2) | (u < mu))
    own = (u == mu) & (v == mv)
    own_draws = draws[..., u, np.minimum(v, w // 2)]
    mirror_draws = draws[..., mu, np.minimum(mv, w // 2)]
    phases = np.where(own, np.where(own_draws < 0, np.pi, 0.0), np.where(leads, own_draws, -mirror_draws))
    return reference_powerlaw_amplitude(h, w, slope) * np.exp(1j * phases)


@functools.cache
def powerlaw_in_one_chunk(image_shape, n, slope, seed):
    """``powerlaw_images`` with the whole stack in one chunk, on one thread."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectral, "_cpu_count", lambda: 1)
        patch.setattr(spectral, "_CHUNK_PIXELS", n * math.prod(image_shape))
        return powerlaw_images(image_shape, n, slope, seed)


POWERLAW_STACKS = pytest.mark.parametrize(
    "image_shape, n, slope, seed",
    [
        ((1, 32, 32), 1, 1.0, 0),  # a single image
        ((1, 32, 32), 196, 1.0, 3),  # 4 default chunks, the last of 4 images
        ((3, 32, 32), 200, 1.5, 5),  # not a multiple of the default chunk
        ((1, 9, 7), 50, 0.5, 2),  # odd sides
        ((3, 300, 300), 2, 1.0, 1),  # one image larger than a chunk
    ],
)


class TestPowerlawImages:
    @POWERLAW_STACKS
    def test_one_chunk_matches_one_shot_formula(self, image_shape, n, slope, seed):
        spectra = reference_powerlaw_spectra(image_shape, n, slope, seed)
        images = powerlaw_in_one_chunk(image_shape, n, slope, seed)
        assert np.abs(images - np.fft.ifft2(spectra).real).max() <= 1e-12

    # Each chunk draws from a copy of the phase stream advanced to its first
    # image, so neither the thread count nor the chunk size moves a bit.
    @pytest.mark.parametrize("cpus", [1, 2, 4, 7], ids=lambda cpus: f"{cpus}-cpus")
    @pytest.mark.parametrize(
        "chunk_images", [None, 1, 3, 0.5], ids=["default-chunk", "1-image", "3-images", "half-image"]
    )
    @POWERLAW_STACKS
    def test_chunked_stack_matches_one_chunk(
        self, monkeypatch, spawned_threads, cpus, chunk_images, image_shape, n, slope, seed
    ):
        monkeypatch.setattr(spectral, "_cpu_count", lambda: cpus)
        values = math.prod(image_shape)
        if chunk_images is not None:
            monkeypatch.setattr(spectral, "_CHUNK_PIXELS", int(chunk_images * values))
        images = powerlaw_images(image_shape, n, slope, seed)
        assert images.flags.c_contiguous
        assert images.dtype == np.float64
        n_chunks = -(-n // max(1, spectral._CHUNK_PIXELS // values))
        assert bool(spawned_threads) is (cpus > 1 and n_chunks >= 4)
        assert np.array_equal(images, powerlaw_in_one_chunk(image_shape, n, slope, seed))

    # The slopes past 100 overflowed an r^-slope amplitude, its inverse FFT or
    # the squares of a std pass.
    @pytest.mark.parametrize("slope", [-3.0, 0.5, 1.0, 2.0, 150.0, 186.0, 400.0])
    @pytest.mark.parametrize(
        "image_shape", [(1, 32, 32), (3, 9, 7), (1, 8, 6), (2, 7, 7), (1, 2, 2), (1, 64, 64), (3, 300, 300)]
    )
    def test_every_image_has_the_amplitude(self, image_shape, slope):
        images = powerlaw_images(image_shape, 3, slope, seed=4)
        _, h, w = image_shape
        amp = reference_powerlaw_amplitude(h, w, slope)
        spectra = np.fft.fft2(images)
        mirrored = np.conj(spectra[..., -np.arange(h) % h, :][..., -np.arange(w) % w])
        assert np.abs(np.abs(spectra) - amp).max() <= 1e-12 * amp.max()
        assert np.abs(spectra - mirrored).max() <= 1e-12 * amp.max()
        assert np.abs(images.mean(axis=(2, 3))).max() <= 1e-12
        assert abs(images.std() - 1.0) <= 1e-12

    @pytest.mark.parametrize("slope", [-np.finfo(np.float64).max, -1e300, 1e300, np.finfo(np.float64).max])
    def test_extreme_slopes_give_unit_std_images(self, slope):
        images = powerlaw_images((2, 9, 8), 3, slope)
        assert np.all(np.isfinite(images))
        assert np.abs(images.mean(axis=(2, 3))).max() <= 1e-12
        assert abs(images.std() - 1.0) <= 1e-12

    @pytest.mark.parametrize("image_shape, n, m", [((3, 9, 7), 5, 3), ((1, 32, 32), 196, 50)])
    def test_first_images_do_not_depend_on_n(self, image_shape, n, m):
        assert np.array_equal(powerlaw_images(image_shape, n, seed=6)[:m], powerlaw_images(image_shape, m, seed=6))

    # More CPUs than run_chunks uses threads, so the bound holds on any host.
    @pytest.mark.parametrize("cpus", [None, 64], ids=["host-cpus", "64-cpus"])
    def test_peak_memory_follows_the_output(self, traced_peak, monkeypatch, cpus):
        if cpus is not None:
            monkeypatch.setattr(spectral, "_cpu_count", lambda: cpus)
        images, peak = traced_peak(lambda: powerlaw_images((1, 32, 32), n=2000))
        assert peak <= 2.5 * images.nbytes

    @pytest.mark.parametrize(
        "image_shape, n, slope",
        [
            ((0, 8, 8), 4, 1.0),
            ((1, 0, 8), 4, 1.0),
            ((1, 1, 8), 4, 1.0),
            ((1, 8, 1), 4, 1.0),
            ((8, 8), 4, 1.0),
            ((1, 8.0, 8), 4, 1.0),
            (5, 4, 1.0),
            (None, 4, 1.0),
            ("188", 4, 1.0),
            ((1, 8, 8), 0, 1.0),
            ((1, 8, 8), 2.5, 1.0),
            ((1, 8, 8), 2.0, 1.0),
            ((1, 8, 8), True, 1.0),
            ((1, 8, 8), 4, float("nan")),
            ((1, 8, 8), 4, float("inf")),
            ((1, 8, 8), 4, -float("inf")),
        ],
    )
    def test_bad_input_rejected(self, image_shape, n, slope):
        with pytest.raises(InvalidInputError):
            powerlaw_images(image_shape, n=n, slope=slope)

    @pytest.mark.parametrize("seed", [-1, 2.5, True], ids=repr)
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(InvalidInputError) as info:
            powerlaw_images((1, 8, 8), n=4, seed=seed)
        assert str(info.value) == f"seed must be an int >= 0, got {seed!r}"

    def test_numpy_int_seed_accepted(self):
        expected = powerlaw_images((1, 8, 8), 4, seed=2)
        assert np.array_equal(powerlaw_images((1, 8, 8), 4, seed=np.int64(2)), expected)


class TestMakeBlobsInput:
    @pytest.mark.parametrize(
        "image_shape, n_classes, n_per_class, noise",
        [
            ((0, 8, 8), 2, 4, 0.25),
            ((1, 8, 0), 2, 4, 0.25),
            ((1, 8), 2, 4, 0.25),
            ((1, True, 8), 2, 4, 0.25),
            (5, 2, 4, 0.25),
            (None, 2, 4, 0.25),
            ("188", 2, 2, 0.25),
            ((1, 8, 8), 1, 4, 0.25),
            ((1, 8, 8), 2.0, 4, 0.25),
            ((1, 8, 8), True, 4, 0.25),
            ((1, 8, 8), 2, 0, 0.25),
            ((1, 8, 8), 2, 2.5, 0.25),
            ((1, 8, 8), 2, True, 0.25),
            ((1, 8, 8), 2, 4, float("nan")),
            ((1, 8, 8), 2, 4, float("inf")),
            ((1, 8, 8), 2, 4, -0.1),
            ((1, 8, 8), 2, 4, 1e300),  # the std overflows
            ((1, 8, 8), 2, 4, 1e307),  # the mean overflows
            ((1, 8, 8), 2, 4, 1e308),  # noise * z overflows
            ((1, 8, 8), 2, 4, np.finfo(np.float64).max),
        ],
    )
    def test_bad_input_rejected(self, image_shape, n_classes, n_per_class, noise):
        # pytest turns a RuntimeWarning into an error here, so an overflow must
        # end in InvalidInputError without one.
        with pytest.raises(InvalidInputError):
            make_blobs(image_shape, n_classes=n_classes, n_per_class=n_per_class, noise=noise)

    @pytest.mark.parametrize("seed", [-1, 2.5, True], ids=repr)
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(InvalidInputError) as info:
            make_blobs((1, 8, 8), n_classes=2, n_per_class=4, seed=seed)
        assert str(info.value) == f"seed must be an int >= 0, got {seed!r}"


def reference_make_blobs(image_shape, n_classes, n_per_class, noise, seed):
    """One-shot formula: every class built, then one mean and one ``np.std`` of the stack."""
    c, h, w = image_shape
    rng = np.random.default_rng([seed, 7])
    ys, xs = np.mgrid[0:h, 0:w]
    templates = []
    for k in range(n_classes):
        cy = rng.uniform(0.25 * h, 0.75 * h)
        cx = rng.uniform(0.25 * w, 0.75 * w)
        width = rng.uniform(0.12, 0.25) * min(h, w)
        bump = np.exp(-(((ys - cy) ** 2 + (xs - cx) ** 2) / (2.0 * width**2)))
        templates.append((1.0 if k % 2 == 0 else -1.0) * np.tile(bump, (c, 1, 1)))
    classes = []
    for k in range(n_classes):
        scale = rng.uniform(0.8, 1.2, size=(n_per_class, 1, 1, 1))
        classes.append(templates[k][None] * scale + rng.normal(0.0, noise, size=(n_per_class, c, h, w)))
    images = np.concatenate(classes)
    images -= images.mean()
    images /= images.std()
    return images, np.repeat(np.arange(n_classes), n_per_class)


class TestMakeBlobs:
    @pytest.mark.parametrize(
        "image_shape, n_classes, n_per_class, noise, seed",
        [
            ((1, 8, 8), 2, 1, 0.25, 0),  # two images
            ((1, 8, 8), 2, 100, 0.25, 3),  # the defaults
            ((3, 32, 32), 10, 120, 6.0, 5),  # several leaves of the std's tree
            ((2, 9, 7), 3, 11, 0.0, 2),  # odd sides, no noise
            ((3, 32, 32), 10, 12, 6.0, 4),  # the benchmark's blobs, fewer per class
            ((2, 7, 9), 3, 5, 0.0, 6),
        ],
    )
    def test_matches_one_shot_formula(self, image_shape, n_classes, n_per_class, noise, seed):
        images, labels = make_blobs(image_shape, n_classes, n_per_class, noise, seed)
        ref_images, ref_labels = reference_make_blobs(image_shape, n_classes, n_per_class, noise, seed)
        # Bytes, so a zero's sign counts too.
        assert images.tobytes() == ref_images.tobytes()
        assert labels.dtype == ref_labels.dtype and np.array_equal(labels, ref_labels)

    def test_peak_memory_follows_the_output(self, traced_peak):
        n_per_class = 120
        (images, _), peak = traced_peak(
            lambda: make_blobs((3, 32, 32), 10, n_per_class, noise=6.0, seed=1)
        )
        # The output, one class block and the std's scratch. Building a class as
        # template * scale + normal draws, then copying it in, holds two class
        # blocks besides the output (numpy adds into the product in place) and
        # fails this bound.
        assert peak <= images.nbytes + images[:n_per_class].nbytes + 8 * _STD_LEAF_VALUES


class TestDivideByStd:
    """Centring and unit-std scaling equal ``x -= x.mean(); x /= x.std()`` bit for bit at every tree shape."""

    # A split point off by a few values changes the last bit of only some
    # sums, so each size is tried at several seeds.
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(
        "size",
        [7, 8, 128, 129, _STD_LEAF_VALUES, _STD_LEAF_VALUES + 1, 3 * _STD_LEAF_VALUES + 5, 1200 * 3072,
         1200 * 3072 + 13],
    )
    def test_matches_numpy_std(self, size, seed):
        x = np.random.default_rng([size, seed]).normal(2.0, 3.0, size=size)
        expected = x - x.mean()
        expected /= expected.std()
        _divide_by_std(x)
        assert np.array_equal(x, expected)

    def test_single_value_has_std_zero_and_is_rejected(self):
        x = np.array([2.5])
        assert x.std() == 0.0
        with pytest.raises(InvalidInputError, match="std 0.0"):
            _divide_by_std(x)

    def test_keeps_no_reference_to_the_images(self):
        # A reference cycle would hold each scaled stack until the cyclic
        # collector ran, which shows as peak RSS, not as traced memory.
        x = np.random.default_rng(1).normal(size=3 * _STD_LEAF_VALUES + 5)
        gc.disable()
        try:
            _divide_by_std(x)
            ref = weakref.ref(x)
            del x
            assert ref() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("value", [np.inf, np.nan, 1e308])
    def test_non_finite_std_rejected(self, value):
        x = np.random.default_rng(0).normal(size=3 * _STD_LEAF_VALUES + 5)
        x[-1] = value
        with pytest.raises(InvalidInputError, match="^generated images have std"):
            _divide_by_std(x)
