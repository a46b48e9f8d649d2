"""Synthetic corruption families for desk-scale distribution-shift experiments.

These are simplified stand-ins for the common-corruptions benchmark families:
two low-frequency kinds (brightness, contrast), two mid (gaussian_blur,
pixelate), and two high (gaussian_noise, impulse_noise). Outputs are not
clamped; images are assumed to be mean/std normalized real values.

One kernel corrupts a whole (N, C, H, W) stack, in blocks of whole images
cut by ``spectral.chunk_slices`` and run through ``spectral.run_chunks`` on
up to one thread per CPU. Each kind's arithmetic stays within an image, so
the blocks give the whole stack's result. Each stochastic call builds one
RNG stream from the spec's seed, and image i takes the i-th consecutive
block of its draws, so the first m images of a stack are corrupted exactly
as the stack of those m images alone would be. Impulse noise takes exactly
2 * C * H * W 64-bit outputs per image, so each block draws from a copy of
the stream advanced to its first image (``spectral.stream_at``); gaussian
noise draws a varying number of outputs per value, so its stream is drawn
whole, in order, as standard normals, and each block scales its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import InvalidInputError, checked_count, checked_real
from .spectral import chunk_slices, image_stack, run_chunks, stream_at

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
        self.seed = checked_count("seed", self.seed, 0)
        if self.kind not in CORRUPTION_KINDS:
            raise InvalidInputError(f"unknown corruption kind {self.kind!r}")
        if not np.isfinite(checked_real("param", self.param)):
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
    i-th consecutive block of its draws. Faults are read off the result:
    the input is finite, so a non-finite pixel in a block's output means its
    arithmetic, noise or blur sums overflowed float64, and that block raises
    InvalidInputError naming the kind and param. Every kind
    works on blocks of whole images of ``spectral.chunk_slices`` through
    ``spectral.run_chunks``, on up to one thread per CPU, and the result is
    bit-identical for any thread count: each block's arithmetic stays within
    its own images, and an impulse-noise block draws, in one call, from a
    copy of the stream advanced to its first image's draws. Gaussian noise
    is drawn whole first, in the calling thread, as standard normals z, and
    each block adds ``param * z + 0.0``, the bytes of ``normal(0, param)``.
    """
    stack = image_stack(images, "images")
    with np.errstate(over="ignore", invalid="ignore"):
        return _corrupt_stack(stack, spec)


def _corrupt_stack(stack: np.ndarray, spec: CorruptionSpec) -> np.ndarray:
    """Corrupt a validated stack, a block of whole images at a time."""
    n, c, h, w = stack.shape
    kind, param = spec.kind, spec.param
    if kind == "pixelate" and (h % int(param) or w % int(param)):
        raise InvalidInputError(f"block factor {int(param)} must divide H={h} and W={w}")
    out = np.empty(stack.shape)
    if kind == "gaussian_noise":
        # The ziggurat takes a varying number of outputs per draw, so a block
        # cannot know where its draws start: the stream is drawn whole, as
        # standard normals, and each block scales its own.
        np.random.default_rng([spec.seed, 0]).standard_normal(out=out)
    if kind == "impulse_noise":
        stream = np.random.default_rng([spec.seed, 1]).bit_generator.state

    def corrupt_block(rows: slice) -> None:
        x, y = stack[rows], out[rows]
        if kind == "brightness":
            np.add(x, param, out=y)
        elif kind == "contrast":
            mean_c = x.mean(axis=(2, 3), keepdims=True)
            np.subtract(x, mean_c, out=y)
            y *= param
            y += mean_c
        elif kind == "gaussian_noise":
            # normal(0, param) would draw 0.0 + param * z: adding 0.0 turns a
            # -0.0 product into +0.0 as it does.
            y *= param
            y += 0.0
            y += x
        elif kind == "impulse_noise":
            _impulse_block(x, y, param, stream, rows.start)
        elif kind == "gaussian_blur":
            # scipy 'reflect' is symmetric edge padding, which keeps the image
            # mean exactly for a normalized kernel. Sigma 0 leaves N and C
            # alone, so each image is filtered on its own.
            r = math.ceil(3.0 * param)
            ndimage.gaussian_filter(
                x, sigma=(0, 0, param, param), mode="reflect", radius=(0, 0, r, r), output=y
            )
        else:
            _pixelate_block(x, y, int(param))
        if not np.all(np.isfinite(y)):
            raise InvalidInputError(
                f"{kind} with param {param} takes the images beyond the float64 range"
            )

    run_chunks(corrupt_block, chunk_slices(n, c * h * w))
    return out


def _impulse_block(x: np.ndarray, y: np.ndarray, param: float, stream: dict, lo: int) -> None:
    """Impulse noise on images ``lo, lo + 1, ...`` of a stack: ``x`` in, ``y`` out.

    Image i of the stack takes the i-th (2, C, H, W) block of the stream's
    draws, its flip field, then its salt field. ``random()`` takes one 64-bit
    output per float64, so this block's draws start ``lo * 2 * C * H * W``
    outputs into the stream, where ``stream_at`` advances a copy of its PCG64
    ``stream`` state to.
    """
    size = x[0].size
    u = stream_at(stream, 2 * size * lo).random((len(x), 2, size))
    y[...] = x
    salt = x.max(axis=(1, 2, 3))
    pepper = x.min(axis=(1, 2, 3))
    # Flat indices of the flipped pixels in the block, whose rows of the
    # C-ordered output ``y`` reshapes as a view; pixel f of image i has its
    # salt draw (i + 1) * size values further on in ``u``.
    flipped = np.flatnonzero(u[:, 0] < param)
    image = flipped // size
    salty = u.reshape(-1)[flipped + (image + 1) * size] < 0.5
    y.reshape(-1)[flipped] = np.where(salty, salt[image], pepper[image])


def _pixelate_block(x: np.ndarray, y: np.ndarray, factor: int) -> None:
    """Pixelate the images ``x`` into ``y``.

    Each block row is summed along its pixels, then the rows are added in
    order and divided once. The order is fixed, so unlike numpy's
    blocks.mean(axis=(3, 5)) the result does not depend on the stack's
    memory layout. On C-ordered stacks it equals that mean bit for bit at
    factors 1, 2 and 4; from factor 8 numpy sums pairwise, and the two
    differ by at most 3 units in the last place of the largest |pixel|
    (measured on 200 random stacks at factors 8 and 16).
    """
    m, c, h, w = x.shape
    blocks = x.reshape(m, c, h // factor, factor, w // factor, factor)
    rows = blocks[..., 0].copy()
    for j in range(1, factor):
        rows += blocks[..., j]
    means = rows[:, :, :, 0].copy()
    for i in range(1, factor):
        means += rows[:, :, :, i]
    means /= factor * factor
    y.reshape(blocks.shape)[...] = means[:, :, :, None, :, None]
