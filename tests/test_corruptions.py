import math

import numpy as np
import pytest
from scipy import ndimage

from spectral_robustness import CorruptionSpec, InvalidInputError, apply_corruption, corrupt_batch
from spectral_robustness.corruptions import CORRUPTION_KINDS


def sample_image(seed=0, shape=(3, 32, 32)):
    return np.random.default_rng(seed).normal(size=shape)


class TestBrightnessContrast:
    def test_zero_offset_is_identity(self):
        img = sample_image()
        out = apply_corruption(img, CorruptionSpec("brightness", 0.0))
        assert np.array_equal(out, img)

    def test_brightness_shifts_every_pixel(self):
        img = sample_image(1)
        out = apply_corruption(img, CorruptionSpec("brightness", 0.7))
        assert np.allclose(out - img, 0.7)

    def test_unit_contrast_is_identity(self):
        img = sample_image(2)
        out = apply_corruption(img, CorruptionSpec("contrast", 1.0))
        assert np.abs(out - img).max() < 1e-12

    def test_contrast_scales_about_channel_mean(self):
        img = sample_image(3)
        out = apply_corruption(img, CorruptionSpec("contrast", 0.5))
        for c in range(img.shape[0]):
            m = img[c].mean()
            assert np.abs(out[c] - (m + 0.5 * (img[c] - m))).max() < 1e-12

    def test_brightness_contrast_commutation_closed_form(self):
        # contrast(brightness(x)) and brightness(contrast(x)) differ only per
        # the analytic composition of the two affine maps.
        img = sample_image(4, shape=(1, 8, 8))
        delta, s = 0.3, 1.4
        bc = apply_corruption(
            apply_corruption(img, CorruptionSpec("brightness", delta)),
            CorruptionSpec("contrast", s),
        )
        cb = apply_corruption(
            apply_corruption(img, CorruptionSpec("contrast", s)),
            CorruptionSpec("brightness", delta),
        )
        # Both orders equal contrast-then-brightness analytically: the channel
        # mean absorbs the offset, so bc == cb exactly in exact arithmetic.
        assert np.abs(bc - cb).max() < 1e-10


class TestNoise:
    def test_gaussian_noise_moment(self):
        img = np.zeros((1, 1024, 1024))
        out = apply_corruption(img, CorruptionSpec("gaussian_noise", 0.3, seed=5))
        measured = (out - img).std()
        assert abs(measured - 0.3) / 0.3 < 0.02

    def test_gaussian_noise_reproducible(self):
        img = sample_image(6)
        spec = CorruptionSpec("gaussian_noise", 0.2, seed=11)
        assert np.array_equal(apply_corruption(img, spec), apply_corruption(img, spec))

    def test_impulse_noise_uses_image_extremes(self):
        img = sample_image(7)
        out = apply_corruption(img, CorruptionSpec("impulse_noise", 0.3, seed=8))
        changed = out != img
        assert np.all(np.isin(out[changed], [img.min(), img.max()]))
        frac = changed.mean()
        assert 0.2 < frac < 0.4

    def test_impulse_zero_probability_is_identity(self):
        img = sample_image(8)
        out = apply_corruption(img, CorruptionSpec("impulse_noise", 0.0, seed=9))
        assert np.array_equal(out, img)

    def test_impulse_reproducible(self):
        img = sample_image(9)
        spec = CorruptionSpec("impulse_noise", 0.1, seed=3)
        assert np.array_equal(apply_corruption(img, spec), apply_corruption(img, spec))


class TestBlurPixelate:
    def test_blur_preserves_mean(self):
        img = sample_image(10)
        out = apply_corruption(img, CorruptionSpec("gaussian_blur", 1.5))
        assert abs(out.mean() - img.mean()) < 1e-5

    def test_blur_reduces_variance(self):
        img = sample_image(11)
        out = apply_corruption(img, CorruptionSpec("gaussian_blur", 2.0))
        assert out.std() < 0.5 * img.std()

    def test_blur_of_constant_is_constant(self):
        img = np.full((1, 16, 16), 1.25)
        out = apply_corruption(img, CorruptionSpec("gaussian_blur", 1.0))
        assert np.abs(out - 1.25).max() < 1e-12

    def test_pixelate_blocks_carry_block_means(self):
        img = sample_image(12, shape=(1, 32, 32))
        out = apply_corruption(img, CorruptionSpec("pixelate", 4))
        for by in range(8):
            for bx in range(8):
                block = img[0, 4 * by : 4 * by + 4, 4 * bx : 4 * bx + 4]
                got = out[0, 4 * by : 4 * by + 4, 4 * bx : 4 * bx + 4]
                assert np.allclose(got, block.mean())

    def test_pixelate_factor_one_is_identity(self):
        img = sample_image(13)
        out = apply_corruption(img, CorruptionSpec("pixelate", 1))
        assert np.array_equal(out, img)

    def test_pixelate_requires_divisible_factor(self):
        with pytest.raises(InvalidInputError):
            apply_corruption(sample_image(14, shape=(1, 30, 30)), CorruptionSpec("pixelate", 4))


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


class TestBatch:
    def test_batch_derives_per_image_seeds(self):
        images = np.stack([sample_image(20), sample_image(21)])
        spec = CorruptionSpec("gaussian_noise", 0.5, seed=2)
        out = corrupt_batch(images, spec)
        # Different images must receive different noise draws.
        assert not np.allclose(out[0] - images[0], out[1] - images[1])
        again = corrupt_batch(images, spec)
        assert np.array_equal(out, again)


def reference_corruption(x, kind, param, seed):
    """Reference: one (C, H, W) image corrupted by the per-image formula."""
    if kind == "brightness":
        return x + param
    if kind == "contrast":
        mean_c = x.mean(axis=(1, 2), keepdims=True)
        return mean_c + param * (x - mean_c)
    if kind == "gaussian_noise":
        rng = np.random.default_rng([seed, 0])
        return x + rng.normal(0.0, param, size=x.shape)
    if kind == "impulse_noise":
        rng = np.random.default_rng([seed, 1])
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
    """Reference: corrupt_batch as a per-image loop, image i seeded from (seed, i)."""
    return np.stack(
        [
            reference_corruption(
                stack[i], kind, param, int(np.random.SeedSequence([seed, i]).generate_state(1)[0])
            )
            for i in range(len(stack))
        ]
    )


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
        assert np.array_equal(apply_corruption(img, spec), reference_corruption(img, kind, param, 23))

    def test_every_kind_covered(self):
        assert {kind for kind, _ in GOLDEN_PARAMS} == set(CORRUPTION_KINDS)

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
            apply_corruption(stack[1], spec)

    @pytest.mark.parametrize("kind,param", GOLDEN_PARAMS[::2])
    @pytest.mark.parametrize("shape", [(0, 1, 8, 8), (2, 0, 8, 8), (2, 1, 0, 8), (8, 8), (2, 1, 8, 8, 1)])
    def test_empty_or_misshapen_stack_rejected(self, kind, param, shape):
        with pytest.raises(InvalidInputError):
            corrupt_batch(np.zeros(shape), CorruptionSpec(kind, param))

    @pytest.mark.parametrize("shape", [(8, 8), (1, 0, 8), (1, 1, 8, 8)])
    def test_bad_image_rejected(self, shape):
        with pytest.raises(InvalidInputError):
            apply_corruption(np.zeros(shape), CorruptionSpec("brightness", 0.1))
