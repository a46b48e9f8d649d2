import math
import re

import numpy as np
import pytest
from scipy import ndimage

from spectral_robustness import CorruptionSpec, InvalidInputError, corrupt_batch
from spectral_robustness import spectral
from spectral_robustness.corruptions import CORRUPTION_KINDS


def sample_image(seed=0, shape=(3, 32, 32)):
    return np.random.default_rng(seed).normal(size=shape)


def corrupt_image(image, spec):
    """One (C, H, W) image corrupted as a stack of one."""
    return corrupt_batch(image[None], spec)[0]


class TestBrightnessContrast:
    def test_zero_offset_is_identity(self):
        img = sample_image()
        out = corrupt_image(img, CorruptionSpec("brightness", 0.0))
        assert np.array_equal(out, img)

    def test_brightness_shifts_every_pixel(self):
        img = sample_image(1)
        out = corrupt_image(img, CorruptionSpec("brightness", 0.7))
        assert np.allclose(out - img, 0.7)

    def test_unit_contrast_is_identity(self):
        img = sample_image(2)
        out = corrupt_image(img, CorruptionSpec("contrast", 1.0))
        assert np.abs(out - img).max() < 1e-12

    def test_contrast_scales_about_channel_mean(self):
        img = sample_image(3)
        out = corrupt_image(img, CorruptionSpec("contrast", 0.5))
        for c in range(img.shape[0]):
            m = img[c].mean()
            assert np.abs(out[c] - (m + 0.5 * (img[c] - m))).max() < 1e-12

    def test_brightness_contrast_commutation_closed_form(self):
        # contrast(brightness(x)) and brightness(contrast(x)) differ only per
        # the analytic composition of the two affine maps.
        img = sample_image(4, shape=(1, 8, 8))
        delta, s = 0.3, 1.4
        bc = corrupt_image(
            corrupt_image(img, CorruptionSpec("brightness", delta)),
            CorruptionSpec("contrast", s),
        )
        cb = corrupt_image(
            corrupt_image(img, CorruptionSpec("contrast", s)),
            CorruptionSpec("brightness", delta),
        )
        # Both orders equal contrast-then-brightness analytically: the channel
        # mean absorbs the offset, so bc == cb exactly in exact arithmetic.
        assert np.abs(bc - cb).max() < 1e-10


class TestNoise:
    def test_gaussian_noise_moment(self):
        img = np.zeros((1, 1024, 1024))
        out = corrupt_image(img, CorruptionSpec("gaussian_noise", 0.3, seed=5))
        measured = (out - img).std()
        assert abs(measured - 0.3) / 0.3 < 0.02

    def test_gaussian_noise_reproducible(self):
        img = sample_image(6)
        spec = CorruptionSpec("gaussian_noise", 0.2, seed=11)
        assert np.array_equal(corrupt_image(img, spec), corrupt_image(img, spec))

    def test_impulse_noise_uses_image_extremes(self):
        img = sample_image(7)
        out = corrupt_image(img, CorruptionSpec("impulse_noise", 0.3, seed=8))
        changed = out != img
        assert np.all(np.isin(out[changed], [img.min(), img.max()]))
        frac = changed.mean()
        assert 0.2 < frac < 0.4

    def test_impulse_zero_probability_is_identity(self):
        img = sample_image(8)
        out = corrupt_image(img, CorruptionSpec("impulse_noise", 0.0, seed=9))
        assert np.array_equal(out, img)

    def test_impulse_reproducible(self):
        img = sample_image(9)
        spec = CorruptionSpec("impulse_noise", 0.1, seed=3)
        assert np.array_equal(corrupt_image(img, spec), corrupt_image(img, spec))


class TestBlurPixelate:
    def test_blur_preserves_mean(self):
        img = sample_image(10)
        out = corrupt_image(img, CorruptionSpec("gaussian_blur", 1.5))
        assert abs(out.mean() - img.mean()) < 1e-5

    def test_blur_reduces_variance(self):
        img = sample_image(11)
        out = corrupt_image(img, CorruptionSpec("gaussian_blur", 2.0))
        assert out.std() < 0.5 * img.std()

    def test_blur_of_constant_is_constant(self):
        img = np.full((1, 16, 16), 1.25)
        out = corrupt_image(img, CorruptionSpec("gaussian_blur", 1.0))
        assert np.abs(out - 1.25).max() < 1e-12

    def test_pixelate_blocks_carry_block_means(self):
        img = sample_image(12, shape=(1, 32, 32))
        out = corrupt_image(img, CorruptionSpec("pixelate", 4))
        for by in range(8):
            for bx in range(8):
                block = img[0, 4 * by : 4 * by + 4, 4 * bx : 4 * bx + 4]
                got = out[0, 4 * by : 4 * by + 4, 4 * bx : 4 * bx + 4]
                assert np.allclose(got, block.mean())

    def test_pixelate_factor_one_is_identity(self):
        img = sample_image(13)
        out = corrupt_image(img, CorruptionSpec("pixelate", 1))
        assert np.array_equal(out, img)

    @pytest.mark.parametrize("factor", [8, 16])
    @pytest.mark.parametrize("seed", range(5))
    def test_pixelate_large_factors_within_three_ulps_of_numpy_mean(self, factor, seed):
        rng = np.random.default_rng([16, seed])
        stack = rng.normal(size=(4, 3, 32, 32)) * rng.uniform(0.1, 100) + rng.uniform(-50, 50)
        blocks = stack.reshape(4, 3, 32 // factor, factor, 32 // factor, factor)
        expected = blocks.mean(axis=(3, 5)).repeat(factor, axis=2).repeat(factor, axis=3)
        got = corrupt_batch(stack, CorruptionSpec("pixelate", factor))
        assert np.abs(got - expected).max() <= 3 * np.spacing(np.abs(stack).max())

    @pytest.mark.parametrize("factor", [2, 4, 8])
    def test_pixelate_does_not_depend_on_memory_layout(self, factor):
        # numpy's mean over the block axes sums Fortran and channels-last
        # stacks in another order; the block sums here have one fixed order.
        stack = np.random.default_rng(17).normal(size=(7, 3, 32, 32)) * 2.0 + 0.5
        spec = CorruptionSpec("pixelate", factor)
        expected = corrupt_batch(stack, spec)
        for given in (
            np.asfortranarray(stack),
            np.ascontiguousarray(stack.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2),
        ):
            assert np.array_equal(corrupt_batch(given, spec), expected)

    def test_pixelate_requires_divisible_factor(self):
        with pytest.raises(InvalidInputError):
            corrupt_image(sample_image(14, shape=(1, 30, 30)), CorruptionSpec("pixelate", 4))


class TestSpecValidation:
    @pytest.mark.parametrize(
        "kind,param",
        [
            ("gaussian_noise", -0.1),
            ("impulse_noise", 1.5),
            ("gaussian_blur", 0.0),
            ("pixelate", 2.5),
            ("pixelate", 0),
            ("nonsense", 1.0),
        ],
    )
    def test_invalid_specs_rejected(self, kind, param):
        with pytest.raises(InvalidInputError):
            CorruptionSpec(kind, param)

    @pytest.mark.parametrize("seed", [-1, 2.5, True], ids=repr)
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(InvalidInputError) as info:
            CorruptionSpec("gaussian_noise", 0.1, seed=seed)
        assert str(info.value) == f"seed must be an int >= 0, got {seed!r}"

    def test_numpy_int_seed_accepted(self):
        spec = CorruptionSpec("impulse_noise", 0.1, seed=np.int64(3))
        assert type(spec.seed) is int
        images = np.stack([sample_image(22), sample_image(23)])
        expected = corrupt_batch(images, CorruptionSpec("impulse_noise", 0.1, seed=3))
        assert np.array_equal(corrupt_batch(images, spec), expected)


class TestBatch:
    def test_batch_slices_one_stream(self):
        images = np.stack([sample_image(20), sample_image(21)])
        spec = CorruptionSpec("gaussian_noise", 0.5, seed=2)
        out = corrupt_batch(images, spec)
        # Image i takes the i-th block of one stream's draws.
        noise = np.random.default_rng([2, 0]).normal(0.0, 0.5, size=images.shape)
        assert np.array_equal(out, images + noise)
        assert not np.array_equal(noise[0], noise[1])
        again = corrupt_batch(images, spec)
        assert np.array_equal(out, again)


def reference_corruption(x, kind, param, seed, rng=None):
    """Reference: one (C, H, W) image corrupted by the per-image formula.

    Noise is drawn from ``rng`` when given, else from the seed's own stream.
    """
    if kind == "brightness":
        return x + param
    if kind == "contrast":
        mean_c = x.mean(axis=(1, 2), keepdims=True)
        return mean_c + param * (x - mean_c)
    if kind == "gaussian_noise":
        rng = np.random.default_rng([seed, 0]) if rng is None else rng
        return x + rng.normal(0.0, param, size=x.shape)
    if kind == "impulse_noise":
        rng = np.random.default_rng([seed, 1]) if rng is None else rng
        lo, hi = x.min(), x.max()
        flip = rng.random(x.shape) < param
        salt = rng.random(x.shape) < 0.5
        return np.where(flip, np.where(salt, hi, lo), x)
    if kind == "gaussian_blur":
        radius = math.ceil(3.0 * param)
        out = np.empty_like(x)
        for c in range(x.shape[0]):
            out[c] = ndimage.gaussian_filter(x[c], sigma=param, mode="reflect", radius=radius)
        return out
    factor = int(param)
    c, h, w = x.shape
    if h % factor or w % factor:
        raise InvalidInputError("indivisible")
    blocks = x.reshape(c, h // factor, factor, w // factor, factor)
    return blocks.mean(axis=(2, 4)).repeat(factor, axis=1).repeat(factor, axis=2)


def reference_batch(stack, kind, param, seed):
    """Reference: corrupt_batch as a per-image loop, image i drawing next from one stream."""
    rng = np.random.default_rng([seed, 1 if kind == "impulse_noise" else 0])
    return np.stack([reference_corruption(x, kind, param, seed, rng) for x in stack])


GOLDEN_PARAMS = [
    ("brightness", 0.7),
    ("brightness", -1.3),
    ("contrast", 0.5),
    ("contrast", 1.7),
    ("gaussian_noise", 0.3),
    ("gaussian_noise", 1.1),
    ("impulse_noise", 0.05),
    ("impulse_noise", 0.6),
    ("gaussian_blur", 1.0),
    ("gaussian_blur", 0.45),
    ("pixelate", 1),
    ("pixelate", 2),
    ("pixelate", 4),
]


class TestGoldenCorruptions:
    """The whole-stack kernel reproduces the per-image formulas bit for bit."""

    @pytest.mark.parametrize("kind,param", GOLDEN_PARAMS)
    @pytest.mark.parametrize("shape", [(7, 3, 32, 32), (3, 1, 7, 9), (1, 2, 8, 6)])
    def test_batch_matches_per_image_loop(self, kind, param, shape):
        stack = np.random.default_rng(31).normal(size=shape) * 2.0 + 0.5
        spec = CorruptionSpec(kind, param, seed=19)
        try:
            expected = reference_batch(stack, kind, param, 19)
        except InvalidInputError:
            with pytest.raises(InvalidInputError, match="must divide"):
                corrupt_batch(stack, spec)
            return
        assert np.array_equal(corrupt_batch(stack, spec), expected)

    @pytest.mark.parametrize("kind,param", GOLDEN_PARAMS)
    def test_single_image_matches_formula(self, kind, param):
        img = sample_image(32, shape=(3, 16, 12))
        spec = CorruptionSpec(kind, param, seed=23)
        assert np.array_equal(corrupt_image(img, spec), reference_corruption(img, kind, param, 23))

    def test_every_kind_covered(self):
        assert {kind for kind, _ in GOLDEN_PARAMS} == set(CORRUPTION_KINDS)

    @pytest.mark.parametrize("param", [0.0, 0.3])
    def test_noise_keeps_the_formula_sign_of_zero(self, param):
        # np.array_equal counts -0.0 equal to 0.0, so the bytes are compared.
        stack = np.random.default_rng(34).normal(size=(4, 2, 5, 6))
        stack.reshape(-1)[::3] = -0.0
        got = corrupt_batch(stack, CorruptionSpec("gaussian_noise", param, seed=35))
        assert got.tobytes() == reference_batch(stack, "gaussian_noise", param, 35).tobytes()

    @pytest.mark.parametrize("kind,param", GOLDEN_PARAMS)
    def test_output_is_a_fresh_writable_array(self, kind, param):
        stack = np.random.default_rng(27).normal(size=(3, 2, 8, 12))
        out = corrupt_batch(stack, CorruptionSpec(kind, param, seed=28))
        assert out.flags.writeable
        assert not np.shares_memory(out, stack)
        out += 1.0

    @pytest.mark.parametrize("kind,param", GOLDEN_PARAMS)
    @pytest.mark.parametrize("m", [1, 5])
    def test_prefix_of_a_stack_is_corrupted_as_that_prefix(self, kind, param, m):
        stack = np.random.default_rng(24).normal(size=(6, 2, 8, 12))
        spec = CorruptionSpec(kind, param, seed=25)
        assert np.array_equal(corrupt_batch(stack, spec)[:m], corrupt_batch(stack[:m], spec))

    @pytest.mark.parametrize("kind,param", GOLDEN_PARAMS[::2])
    def test_one_generator_per_noise_call(self, monkeypatch, kind, param):
        stack = np.random.default_rng(26).normal(size=(50, 1, 4, 4))
        built = []
        make = np.random.default_rng

        def counting(*args, **kwargs):
            built.append(args)
            return make(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", counting)
        corrupt_batch(stack, CorruptionSpec(kind, param, seed=27))
        assert len(built) == (1 if kind.endswith("_noise") else 0)

    @pytest.mark.parametrize(
        "kind,param",
        [("contrast", 0.5), ("contrast", 1.7), ("impulse_noise", 0.05), ("impulse_noise", 0.6)],
    )
    @pytest.mark.parametrize("layout", ["F", "reversed", "transposed", "float32"])
    def test_memory_layout_does_not_change_output(self, kind, param, layout):
        stack = np.random.default_rng(33).normal(size=(5, 3, 9, 6)) * 2.0 + 0.5
        stacks = {
            "F": np.asfortranarray(stack),
            "reversed": np.ascontiguousarray(stack[::-1, ::-1, ::-1, ::-1])[::-1, ::-1, ::-1, ::-1],
            "transposed": np.ascontiguousarray(stack.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2),
            "float32": stack.astype(np.float32),
        }
        given = stacks[layout]
        expected = reference_batch(given.astype(np.float64), kind, param, 29)
        assert np.array_equal(corrupt_batch(given, CorruptionSpec(kind, param, seed=29)), expected)


class TestImpulseChunks:
    """Impulse noise draws a block of images at a time, as the per-image loop would."""

    CHUNK = spectral._CHUNK_PIXELS // (3 * 32 * 32)

    @pytest.mark.parametrize("param", [0.0, 0.05, 1.0])
    @pytest.mark.parametrize(
        "shape",
        [
            (1, 3, 32, 32),
            (CHUNK - 1, 3, 32, 32),
            (CHUNK, 3, 32, 32),
            (CHUNK + 1, 3, 32, 32),
            (2 * CHUNK + 3, 3, 32, 32),
            (3, 1, 200, 200),  # one image per block
            (2, 3, 200, 200),  # one image larger than a chunk
        ],
    )
    def test_matches_per_image_loop(self, shape, param):
        stack = np.random.default_rng(41).normal(size=shape)
        expected = reference_batch(stack, "impulse_noise", param, 43)
        assert np.array_equal(corrupt_batch(stack, CorruptionSpec("impulse_noise", param, seed=43)), expected)


class TestThreadedBlocks:
    """Blocks of images on several threads, or forced onto one: every kind gives the per-image loop."""

    @pytest.fixture(params=[1, 4], ids=["1-cpu", "4-cpus"])
    def cpus(self, request, monkeypatch):
        monkeypatch.setattr(spectral, "_cpu_count", lambda: request.param)
        return request.param

    @pytest.mark.parametrize("kind,param", GOLDEN_PARAMS)
    @pytest.mark.parametrize("image_shape", [(2, 9, 7), (1, 8, 12)], ids=str)
    @pytest.mark.parametrize("n_blocks", [1, 3, 4, 100])
    def test_matches_per_image_loop(
        self, cpus, monkeypatch, spawned_threads, kind, param, image_shape, n_blocks
    ):
        # Blocks of 3 images; the last block holds two.
        monkeypatch.setattr(spectral, "_CHUNK_PIXELS", 3 * math.prod(image_shape))
        stack = np.random.default_rng([n_blocks, 45]).normal(size=(3 * n_blocks - 1, *image_shape))
        spec = CorruptionSpec(kind, param, seed=46)
        try:
            expected = reference_batch(stack, kind, param, 46)
        except InvalidInputError:
            with pytest.raises(InvalidInputError, match="must divide"):
                corrupt_batch(stack, spec)
            return
        assert np.array_equal(corrupt_batch(stack, spec), expected)
        assert bool(spawned_threads) is (cpus > 1 and n_blocks >= 4)

    @pytest.mark.parametrize("param", [0.0, 0.05, 0.6, 1.0])
    @pytest.mark.parametrize("image_shape", [(1, 7, 9), (3, 5, 3)], ids=str)
    @pytest.mark.parametrize(
        "per_block, n",
        [(5, 23), (5, 21), (4, 4), (7, 30), (2, 11)],
        ids=["5-of-23", "5-of-21", "one-block", "7-of-30", "2-of-11"],
    )
    def test_impulse_streams_split_at_any_block(self, cpus, monkeypatch, param, image_shape, per_block, n):
        # Each block advances a copy of the stream to its first image's draws.
        monkeypatch.setattr(spectral, "_CHUNK_PIXELS", per_block * math.prod(image_shape))
        stack = np.random.default_rng([n, 47]).normal(size=(n, *image_shape))
        expected = reference_batch(stack, "impulse_noise", param, 48)
        assert np.array_equal(corrupt_batch(stack, CorruptionSpec("impulse_noise", param, seed=48)), expected)

    @pytest.mark.parametrize(
        "kind, param, value",
        [
            ("gaussian_blur", 1.0, 1.79e308),
            ("brightness", 1e308, 1e308),
            ("contrast", 0.5, 1e308),
            ("pixelate", 2, 1e308),
            ("gaussian_noise", 1e307, 1.7e308),
        ],
        ids=["blur", "brightness", "contrast", "pixelate", "noise-add"],
    )
    def test_overflow_in_one_block_keeps_its_message(self, cpus, monkeypatch, kind, param, value):
        monkeypatch.setattr(spectral, "_CHUNK_PIXELS", 16)
        stack = huge(1.0, shape=(40, 1, 4, 4))
        stack[29] = value
        message = f"^{kind} with param {re.escape(str(param))} takes the images beyond the float64 range$"
        with pytest.raises(InvalidInputError, match=message):
            corrupt_batch(stack, CorruptionSpec(kind, param))


def huge(value, shape=(2, 1, 4, 4)):
    """A stack of normals scaled by ``value``, with every |pixel| well inside float64."""
    return np.random.default_rng(44).normal(size=shape) * value


class TestOverflow:
    """A corruption whose result leaves the float64 range is rejected, naming kind and param."""

    @pytest.mark.parametrize(
        "kind, param, stack",
        [
            ("brightness", 1e308, np.full((2, 1, 4, 4), 1e308)),
            ("contrast", 1e300, huge(1e38)),
            ("contrast", 0.5, np.full((2, 1, 4, 4), 1e308)),  # the channel mean's sum
            ("pixelate", 2, np.full((2, 1, 4, 4), 1e308)),
            ("gaussian_noise", 1e308, huge(1.0)),  # the draws themselves are inf
            ("gaussian_noise", 1e307, np.full((2, 1, 4, 4), 1.7e308)),  # the add overflows
            ("gaussian_blur", 1.0, np.full((2, 1, 4, 4), 1.79e308)),  # scipy's sums overflow
        ],
        ids=["brightness", "contrast", "contrast-mean", "pixelate", "noise-draw", "noise-add", "blur"],
    )
    def test_rejected(self, kind, param, stack):
        spec = CorruptionSpec(kind, param, seed=3)
        message = f"^{kind} with param {re.escape(str(param))} takes the images beyond the float64 range$"
        with pytest.raises(InvalidInputError, match=message):
            corrupt_batch(stack, spec)
        with pytest.raises(InvalidInputError, match=message):
            corrupt_image(stack[0], spec)

    def test_blur_near_the_limit_is_kept(self):
        # The filter's symmetric pair sums stay below the float64 limit here.
        out = corrupt_batch(np.full((2, 1, 4, 4), 8e307), CorruptionSpec("gaussian_blur", 1.0))
        assert np.all(np.isfinite(out))
        assert np.allclose(out, 8e307, rtol=1e-12, atol=0)


class TestInputValidation:
    @pytest.mark.parametrize("kind,param", GOLDEN_PARAMS[::2])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, kind, param, bad):
        stack = sample_image(40, shape=(2, 1, 8, 8))
        stack[1, 0, 3, 4] = bad
        spec = CorruptionSpec(kind, param, seed=1)
        with pytest.raises(InvalidInputError, match="non-finite"):
            corrupt_batch(stack, spec)
        with pytest.raises(InvalidInputError, match="non-finite"):
            corrupt_image(stack[1], spec)

    @pytest.mark.parametrize("kind,param", GOLDEN_PARAMS[::2])
    @pytest.mark.parametrize("shape", [(0, 1, 8, 8), (2, 0, 8, 8), (2, 1, 0, 8), (8, 8), (2, 1, 8, 8, 1)])
    def test_empty_or_misshapen_stack_rejected(self, kind, param, shape):
        with pytest.raises(InvalidInputError):
            corrupt_batch(np.zeros(shape), CorruptionSpec(kind, param))

    @pytest.mark.parametrize("shape", [(8, 8), (1, 0, 8), (1, 1, 8, 8)])
    def test_bad_image_rejected(self, shape):
        with pytest.raises(InvalidInputError):
            corrupt_image(np.zeros(shape), CorruptionSpec("brightness", 0.1))
