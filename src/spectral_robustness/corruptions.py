"""Synthetic corruption families for desk-scale distribution-shift experiments.

These are simplified stand-ins for the common-corruptions benchmark families:
two low-frequency kinds (brightness, contrast), two mid (gaussian_blur,
pixelate), and two high (gaussian_noise, impulse_noise). Outputs are not
clamped; images are assumed to be mean/std normalized real values.

One kernel corrupts a whole (N, C, H, W) stack. The deterministic kinds run
as array operations over the stack. Each stochastic call builds one RNG
stream from the spec's seed, and image i takes the i-th consecutive block of
its draws, so the first m images of a stack are corrupted exactly as the
stack of those m images alone would be.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import InvalidInputError
from .spectral import image_stack, run_chunks

CORRUPTION_KINDS = (
    "brightness",
    "contrast",
    "gaussian_noise",
    "impulse_noise",
    "gaussian_blur",
    "pixelate",
)

# Impulse noise draws its flip and salt fields this many pixels at a time, so
# a chunk's draws stay in cache.
_CHUNK_PIXELS = 1 << 15

# Gaussian blur filters blocks of whole images of about this many pixels
# (42 CIFAR images), one block per thread at a time.
_BLUR_BLOCK_PIXELS = 1 << 17


@dataclass
class CorruptionSpec:
    """One corruption: kind, its scalar parameter, and a seed for stochastic kinds.

    param meaning by kind: brightness offset, contrast scale, noise std,
    impulse flip probability, blur kernel sigma, pixelation block factor.
    """

    kind: str
    param: float
    seed: int = 0

    def __post_init__(self):
        if self.kind not in CORRUPTION_KINDS:
            raise InvalidInputError(f"unknown corruption kind {self.kind!r}")
        if not np.isfinite(self.param):
            raise InvalidInputError("corruption param must be finite")
        if self.kind == "gaussian_noise" and self.param < 0:
            raise InvalidInputError("noise std must be >= 0")
        if self.kind == "impulse_noise" and not 0.0 <= self.param <= 1.0:
            raise InvalidInputError("flip probability must be in [0, 1]")
        if self.kind == "gaussian_blur" and self.param <= 0:
            raise InvalidInputError("blur sigma must be > 0")
        if self.kind == "pixelate":
            if self.param < 1 or self.param != int(self.param):
                raise InvalidInputError("block factor must be an integer >= 1")


def corrupt_batch(images, spec: CorruptionSpec) -> np.ndarray:
    """Apply a corruption to an (N, C, H, W) stack, bit-reproducible given the seed.

    Noise comes from one stream, ``default_rng([seed, 0])`` for gaussian
    noise and ``default_rng([seed, 1])`` for impulse noise; image i takes the
    i-th consecutive block of its draws. Arithmetic or noise draws that
    overflow float64 raise InvalidInputError naming the kind and param, and
    so does a blur whose sums inside scipy's filter overflow. The blur
    filters blocks of whole images through ``spectral.run_chunks``, on up to
    one thread per CPU, with the same result as one filter over the stack; the
    other kinds run in the calling thread.
    """
    stack = image_stack(images, "images")
    try:
        with np.errstate(over="raise"):
            return _corrupt_stack(stack, spec)
    except FloatingPointError:
        raise InvalidInputError(
            f"{spec.kind} with param {spec.param} takes the images beyond the float64 range"
        ) from None


def _corrupt_stack(stack: np.ndarray, spec: CorruptionSpec) -> np.ndarray:
    """Corrupt a validated stack; image i draws the i-th block of the spec's stream."""
    n, c, h, w = stack.shape
    kind, param = spec.kind, spec.param

    if kind == "brightness":
        return stack + param

    if kind == "contrast":
        mean_c = stack.mean(axis=(2, 3), keepdims=True)
        out = stack - mean_c
        out *= param
        out += mean_c
        return out

    if kind == "gaussian_noise":
        noise = np.random.default_rng([spec.seed, 0]).normal(0.0, param, size=stack.shape)
        # The generator scales its draws without raising a floating-point
        # error, so a std near the float64 limit gives inf draws silently.
        if not np.all(np.isfinite(noise)):
            raise FloatingPointError("noise draws overflow")
        return np.add(stack, noise, out=noise)

    if kind == "impulse_noise":
        out = stack.copy()
        rng = np.random.default_rng([spec.seed, 1])
        per_chunk = max(1, _CHUNK_PIXELS // (c * h * w))
        for lo in range(0, n, per_chunk):
            block = out[lo : lo + per_chunk]
            # Image i of the chunk takes the i-th (2, C, H, W) block of the
            # draw: its flip field, then its salt field.
            u = rng.random((len(block), 2, c, h, w))
            salt = block.max(axis=(1, 2, 3))
            pepper = block.min(axis=(1, 2, 3))
            flipped = np.nonzero(u[:, 0] < param)
            image = flipped[0]
            block[flipped] = np.where(u[:, 1][flipped] < 0.5, salt[image], pepper[image])
        return out

    if kind == "gaussian_blur":
        # scipy 'reflect' is symmetric edge padding, which keeps the image
        # mean exactly for a normalized kernel. Sigma 0 leaves N and C alone,
        # so each image is filtered on its own and blocks of images, filtered
        # in parallel, give the whole stack's result.
        r = math.ceil(3.0 * param)
        out = np.empty(stack.shape)
        per_block = max(1, _BLUR_BLOCK_PIXELS // (c * h * w))

        def blur_block(lo: int) -> None:
            ndimage.gaussian_filter(
                stack[lo : lo + per_block], sigma=(0, 0, param, param), mode="reflect",
                radius=(0, 0, r, r), output=out[lo : lo + per_block],
            )

        run_chunks(blur_block, range(0, n, per_block))
        # scipy's filter does not consult numpy's errstate, so a sum that
        # overflows shows only as a non-finite result of finite input.
        if not np.all(np.isfinite(out)):
            raise FloatingPointError("blur sums overflow")
        return out

    # pixelate: sum each block row along its pixels, then add the rows in
    # order and divide once. The order is fixed, so unlike numpy's
    # blocks.mean(axis=(3, 5)) the result does not depend on the stack's
    # memory layout. On C-ordered stacks it equals that mean bit for bit at
    # factors 1, 2 and 4; from factor 8 numpy sums pairwise, and the two
    # differ by at most 3 units in the last place of the largest |pixel|
    # (measured on 200 random stacks at factors 8 and 16).
    factor = int(param)
    if h % factor or w % factor:
        raise InvalidInputError(f"block factor {factor} must divide H={h} and W={w}")
    blocks = stack.reshape(n, c, h // factor, factor, w // factor, factor)
    rows = blocks[..., 0].copy()
    for j in range(1, factor):
        rows += blocks[..., j]
    means = rows[:, :, :, 0].copy()
    for i in range(1, factor):
        means += rows[:, :, :, i]
    means /= factor * factor
    out = np.empty(stack.shape)
    out.reshape(blocks.shape)[...] = means[:, :, :, None, :, None]
    return out
