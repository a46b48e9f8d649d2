"""Synthetic image datasets for desk-scale experiments.

Blob images give a trivially learnable classification task for the built-in
predictors; power-law images mimic natural-image spectral statistics (Fourier
amplitude falling off as 1/r^slope, in every bin of every image) for
shift-PSD experiments. Power-law images are Hermitian half spectra inverted
with ``spectral.irfft2``, synthesized in chunks of ``spectral.chunk_slices``
on up to one thread per CPU (at most 4), each chunk drawing from a copy of
the one phase stream advanced to its first image, so the output does not
depend on the thread count; their amplitude fixes unit std by Parseval, with
no pass over the output. Blob images are drawn on one thread straight into
the output and centred and scaled to unit std without a full-size
temporary, so a call's peak memory is its output plus a few chunks.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError, checked_count, checked_real
from .spectral import chunk_slices, irfft2, mirror_half_grid, normalized_radius, run_chunks
from .spectral import self_conjugate_bins, stream_at

# ``make_blobs``' unit-std scaling sums runs of at most this many values at once.
_STD_LEAF_VALUES = 1 << 15


def _checked_shape(image_shape) -> tuple[int, int, int]:
    dims = () if isinstance(image_shape, (str, bytes)) or not np.iterable(image_shape) else tuple(image_shape)
    if len(dims) != 3:
        raise InvalidInputError(f"image_shape must be three ints >= 1, got {image_shape!r}")
    return tuple(checked_count(f"image_shape[{i}]", v, 1) for i, v in enumerate(dims))


def _pairwise_sum(flat: np.ndarray, leaf_sum) -> np.float64:
    """Sum of ``leaf_sum`` over the leaves of numpy's pairwise-summation tree.

    numpy's float64 ``add.reduce`` of a contiguous run of n values splits it
    at ``n2 = n // 2; n2 -= n2 % 8`` and adds the two halves' sums. Splitting
    the same way down to runs of at most ``_STD_LEAF_VALUES`` and handing each
    run to ``leaf_sum``, a ``np.add.reduce`` of that run (or of a function of
    it), gives the whole-array sum bit for bit.
    """
    if len(flat) <= _STD_LEAF_VALUES:
        return leaf_sum(flat)
    n2 = len(flat) // 2
    n2 -= n2 % 8
    return _pairwise_sum(flat[:n2], leaf_sum) + _pairwise_sum(flat[n2:], leaf_sum)


def _divide_by_std(images: np.ndarray) -> None:
    """Centre a C-contiguous ``images`` in place and scale it to unit std; raise if the data overflowed.

    The result is ``images -= images.mean()`` then ``images /= images.std()``
    bit for bit: the means and the sum of squared deviations follow numpy's
    pairwise tree (``_pairwise_sum``), each leaf is shifted in the pass that
    sums it for the std's own mean, and the deviations are formed one leaf
    at a time, so no full-size temporary is made.
    """
    flat = images.reshape(-1)
    scratch = np.empty(min(flat.size, _STD_LEAF_VALUES))

    def centered_sum(run: np.ndarray) -> np.float64:
        run -= shift
        return np.add.reduce(run)

    def squared_deviations(run: np.ndarray) -> np.float64:
        dev = scratch[: len(run)]
        np.subtract(run, mean, out=dev)
        np.multiply(dev, dev, out=dev)
        return np.add.reduce(dev)

    with np.errstate(over="ignore", invalid="ignore"):
        shift = _pairwise_sum(flat, np.add.reduce) / flat.size
        mean = _pairwise_sum(flat, centered_sum) / flat.size
        std = np.sqrt(_pairwise_sum(flat, squared_deviations) / flat.size)
    if not (np.isfinite(std) and std > 0):
        raise InvalidInputError(f"generated images have std {std}; the arguments leave float64 range")
    images /= std


def make_blobs(
    image_shape: tuple[int, int, int] = (1, 8, 8),
    n_classes: int = 2,
    n_per_class: int = 100,
    noise: float = 0.25,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian-bump class templates plus pixel noise, scaled to zero mean and unit std.

    Returns (images, labels) with images of shape (n_classes*n_per_class, C, H, W).
    Class k's rows are template_k * scale + normal(0, noise) per image, with
    scales uniform on [0.8, 1.2), all drawn from ``default_rng([seed, 7])``.
    The noise is drawn with ``standard_normal(out=...)`` straight into the
    output, a ``spectral.chunk_slices`` chunk of rows at a time, and scaled
    there; template * scale goes through one chunk-sized buffer. The stack is
    then ``images -= images.mean()`` and ``images /= images.std()`` bit for
    bit, so peak memory is the output, one chunk and the std's scratch.
    """
    c, h, w = _checked_shape(image_shape)
    n_classes = checked_count("n_classes", n_classes, 2)
    n_per_class = checked_count("n_per_class", n_per_class, 1)
    if not (np.isfinite(checked_real("noise", noise)) and noise >= 0):
        raise InvalidInputError(f"noise must be finite and >= 0, got {noise}")
    seed = checked_count("seed", seed, 0)
    rng = np.random.default_rng([seed, 7])
    ys, xs = np.mgrid[0:h, 0:w]
    bumps = []
    for k in range(n_classes):
        cy = rng.uniform(0.25 * h, 0.75 * h)
        cx = rng.uniform(0.25 * w, 0.75 * w)
        width = rng.uniform(0.12, 0.25) * min(h, w)
        bump = np.exp(-(((ys - cy) ** 2 + (xs - cx) ** 2) / (2.0 * width**2)))
        # 0.0 - bump, not -bump: no template pixel is -0.0, so template * scale
        # + noise * z below is numpy's template * scale + normal(0, noise) =
        # template * scale + (0 + noise * z) bit for bit.
        bumps.append(bump if k % 2 == 0 else 0.0 - bump)

    images = np.empty((n_classes * n_per_class, c, h, w))
    labels = np.repeat(np.arange(n_classes, dtype=np.int64), n_per_class)
    chunks = chunk_slices(n_per_class, c * h * w)
    # template * scale for one chunk of rows, one channel: the channels share a template.
    scaled = np.empty((chunks[0].stop, 1, h, w))
    # A huge noise overflows to inf here, and the std below rejects it.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_classes):
            scale = rng.uniform(0.8, 1.2, size=(n_per_class, 1, 1, 1))
            lo = k * n_per_class
            for rows in chunks:
                block = images[lo + rows.start : lo + rows.stop]
                rng.standard_normal(out=block)
                block *= noise
                block += np.multiply(bumps[k], scale[rows], out=scaled[: len(block)])
    _divide_by_std(images)
    return images, labels


def powerlaw_images(
    image_shape: tuple[int, int, int] = (1, 32, 32),
    n: int = 100,
    slope: float = 1.0,
    seed: int = 0,
) -> np.ndarray:
    """Random-phase images whose Fourier amplitude is 1/r^slope in every bin of every image.

    Returns a C-contiguous float64 ``(n, C, H, W)`` stack. Each image channel
    has the real Hermitian spectrum amp * exp(i phi): amp is 0 at DC and
    (r / r0)^(-slope) elsewhere, for r0 the radius of its largest bin, so no
    finite slope overflows, scaled to a Euclidean norm of H * W. By Parseval
    every image channel then has mean 0 and variance 1, so the stack has unit
    std with no pass over the output.

    Phases are uniform on [-pi, pi), drawn on the ``spectral.rfft2`` half
    grid, C * H * (W//2 + 1) per image, from one ``default_rng([seed, 11])``
    stream in image order, so the first m images take the same phases
    whatever ``n`` is. ``spectral.mirror_half_grid`` makes them odd, and a bin
    that is its own mirror takes phase 0 or pi by the sign of its own draw.
    Images are synthesized a chunk of ``spectral.chunk_slices`` at a time
    through ``spectral.run_chunks``, on up to 4 threads, each chunk inverting
    its own spectra with ``spectral.irfft2`` into its own rows of the
    output. ``uniform`` takes one 64-bit output per value, so a chunk draws
    from a copy of the stream advanced to its first image
    (``spectral.stream_at``), and the stack is bit-identical for any thread
    count and chunk size. Peak memory is the output and the half spectra of
    up to 4 chunks in flight.
    """
    c, h, w = _checked_shape(image_shape)
    n = checked_count("n", n, 1)
    if h < 2 or w < 2:
        raise InvalidInputError(f"power-law images need H, W >= 2, got {image_shape!r}")
    if not np.isfinite(checked_real("slope", slope)):
        raise InvalidInputError(f"slope must be finite, got {slope}")
    seed = checked_count("seed", seed, 0)
    r = normalized_radius(h, w)
    amp = np.power(r / (r[r > 0].min() if slope > 0 else r.max()), -slope, out=np.zeros_like(r), where=r > 0)
    amp = amp[:, : w // 2 + 1] * (h * w / np.linalg.norm(amp))
    own_rows, own_cols = self_conjugate_bins(h, w)
    stream = np.random.default_rng([seed, 11]).bit_generator.state
    images = np.empty((n, c, h, w))

    def synthesize(rows: slice) -> None:
        out = images[rows]
        phases = stream_at(stream, rows.start * c * amp.size).uniform(-np.pi, np.pi, (len(out), c) + amp.shape)
        signed = np.copysign(amp[own_rows, own_cols], phases[..., own_rows, own_cols])
        mirror_half_grid(phases, w, -1)
        spectra = np.exp(1j * phases)
        spectra *= amp
        spectra[..., own_rows, own_cols] = signed
        out[...] = irfft2(spectra, (h, w))

    run_chunks(synthesize, chunk_slices(n, c * h * w))
    return images
