"""Synthetic corruption families for desk-scale distribution-shift experiments.

These are simplified stand-ins for the common-corruptions benchmark families:
two low-frequency kinds (brightness, contrast), two mid (gaussian_blur,
pixelate), and two high (gaussian_noise, impulse_noise). Outputs are not
clamped; images are assumed to be mean/std normalized real values.

One kernel corrupts an image or a whole (N, C, H, W) stack. The
deterministic kinds run as array operations over the stack; the stochastic
kinds draw each image's noise from its own RNG stream, keyed by that image's
seed. Corrupting a stack therefore gives, image by image, what corrupting
each image alone with its seed gives.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import InvalidInputError
from .spectral import image_stack

CORRUPTION_KINDS = (
    "brightness",
    "contrast",
    "gaussian_noise",
    "impulse_noise",
    "gaussian_blur",
    "pixelate",
)


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


def apply_corruption(image, spec: CorruptionSpec) -> np.ndarray:
    """Apply one corruption to a (C, H, W) image, bit-reproducible given the seed."""
    x = np.asarray(image, dtype=np.float64)
    if x.ndim != 3:
        raise InvalidInputError(f"image must have shape (C, H, W), got {x.shape}")
    return _corrupt(x[None], spec, lambda i: spec.seed, "image")[0]


def corrupt_batch(images, spec: CorruptionSpec) -> np.ndarray:
    """Apply a corruption to an (N, C, H, W) stack, seeding image i from (seed, i)."""
    return _corrupt(images, spec, lambda i: _derive_seed(spec.seed, i), "images")


def _corrupt(images, spec: CorruptionSpec, seed_of: Callable[[int], int], name: str) -> np.ndarray:
    """Corrupt every image of a stack; image i's random draws are seeded by ``seed_of(i)``."""
    stack = image_stack(images, name)
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
        noise = np.empty_like(stack)
        for i in range(n):
            noise[i] = np.random.default_rng([seed_of(i), 0]).normal(0.0, param, size=(c, h, w))
        return np.add(stack, noise, out=noise)

    if kind == "impulse_noise":
        out = stack.copy()
        u = np.empty((2, c, h, w))
        for i, image in enumerate(out):
            # One draw of both fields equals drawing flip's, then salt's.
            np.random.default_rng([seed_of(i), 1]).random(out=u)
            np.copyto(image, np.where(u[1] < 0.5, image.max(), image.min()), where=u[0] < param)
        return out

    if kind == "gaussian_blur":
        # scipy 'reflect' is symmetric edge padding, which keeps the image
        # mean exactly for a normalized kernel; sigma 0 leaves N and C alone.
        r = math.ceil(3.0 * param)
        return ndimage.gaussian_filter(
            stack, sigma=(0, 0, param, param), mode="reflect", radius=(0, 0, r, r)
        )

    # pixelate
    factor = int(param)
    if h % factor or w % factor:
        raise InvalidInputError(f"block factor {factor} must divide H={h} and W={w}")
    blocks = stack.reshape(n, c, h // factor, factor, w // factor, factor)
    means = blocks.mean(axis=(3, 5))
    return means.repeat(factor, axis=2).repeat(factor, axis=3)


def _derive_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])
