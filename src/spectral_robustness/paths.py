"""Interpolation paths between image pairs: Fourier amplitude, Fourier phase, pixel.

A path holds T images for evenly spaced lambda in [0, 1]. Amplitude paths blend
the low-frequency amplitudes of the two endpoints while keeping the source
phases everywhere; phase paths blend low-frequency phases along the shortest
angular arc while keeping the source amplitudes; pixel paths lerp in pixel
space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, checked_count, checked_real
from .spectral import (
    chunk_slices, decompose, image_stack, irfft2, mirror_half_grid, radial_mask, rfft2, run_chunks
)

PATH_MODES = ("amplitude", "phase", "pixel")
CLASS_RELATIONS = ("within", "between", "unconstrained")

# Paper-procedure defaults: 100 lambda steps per path; low-frequency cutoff 0.4
# for CIFAR-scale amplitude and phase. The paper's large-image cutoffs (0.2 for
# phase, 1.0 for amplitude) are passed explicitly.
DEFAULT_STEPS = 100
DEFAULT_CUTOFF = 0.4


@dataclass
class PathSpec:
    """Recipe for one interpolation path between two dataset items."""

    mode: str
    source_index: int
    target_index: int
    class_relation: str
    cutoff: float
    steps: int
    seed: int

    def __post_init__(self):
        if self.mode not in PATH_MODES:
            raise InvalidInputError(f"unknown path mode {self.mode!r}")
        if self.class_relation not in CLASS_RELATIONS:
            raise InvalidInputError(f"unknown class relation {self.class_relation!r}")
        for name, least in (("source_index", 0), ("target_index", 0), ("steps", 2), ("seed", 0)):
            setattr(self, name, checked_count(name, getattr(self, name), least))
        if self.source_index == self.target_index:
            raise InvalidInputError("source and target must differ")
        if not 0.0 <= checked_real("cutoff", self.cutoff) <= 1.0:
            raise InvalidInputError(f"cutoff must be in [0, 1], got {self.cutoff}")


@dataclass
class InterpolationPath:
    """T path images (T, C, H, W) with their lambda grid t/(T-1)."""

    images: np.ndarray
    lambdas: np.ndarray


def _check_pair(x0, x1, t: int) -> tuple[np.ndarray, np.ndarray]:
    checked_count("T", t, 2)
    x0, x1 = image_stack([x0, x1], "path endpoints")
    return x0, x1


def _lambda_grid(t: int) -> np.ndarray:
    return np.arange(t, dtype=np.float64) / (t - 1)


def wrap_angle(theta) -> np.ndarray:
    """Wrap angles into (-pi, pi]; exact antipodes resolve to +pi."""
    return np.pi - np.mod(np.pi - np.asarray(theta, dtype=np.float64), 2.0 * np.pi)


def _overflow(mode: str) -> InvalidInputError:
    return InvalidInputError(f"{mode} path overflows float64: the endpoints are too large")


def _half_spectra(x0, x1, rho: float, mode: str):
    """Real-input half spectra (C, H, W//2+1) of both endpoints and the radial mask."""
    h, w = x0.shape[1:]
    mask = radial_mask(h, w, rho).included[:, : w // 2 + 1]
    s0, s1 = rfft2(x0), rfft2(x1)
    if not (np.all(np.isfinite(s0)) and np.all(np.isfinite(s1))):
        raise _overflow(mode)
    return s0, s1, mask


def _lerp(x0: np.ndarray, x1: np.ndarray, t: int) -> InterpolationPath:
    """(1 - lambda) * x0 + lambda * x1, written chunk by chunk of steps into one output.

    The chunks are ``chunk_slices``', run on one thread: threaded, the lerp
    ran slower. Each chunk needs one temporary of its own size.
    """
    lambdas = _lambda_grid(t)
    images = np.empty((t,) + x0.shape)
    for steps in chunk_slices(t, x0.size):
        lam = lambdas[steps, None, None, None]
        out = images[steps]
        np.multiply(1.0 - lam, x0, out=out)
        out += lam * x1
    return InterpolationPath(images=images, lambdas=lambdas)


def amplitude_path(x0, x1, rho: float, t: int = DEFAULT_STEPS) -> InterpolationPath:
    """Blend low-frequency amplitude from x0 toward x1, keeping x0's phase.

    On bins inside the radial mask the amplitude is (1-lambda)*a0 + lambda*a1;
    outside it stays a0. The phase is p0 everywhere. The inverse DFT is linear
    in lambda, so this is the pixel path from x0 to the amplitude-swap hybrid:
    a1 on the mask, a0 off it, with p0 everywhere. Finite endpoints whose
    hybrid overflows float64 raise InvalidInputError.
    """
    x0, x1 = _check_pair(x0, x1, t)
    s0, s1, mask = _half_spectra(x0, x1, rho, "amplitude")
    spectrum = np.where(mask, decompose(s1).amplitude * np.exp(1j * decompose(s0).phase), s0)
    hybrid = irfft2(spectrum, x0.shape[1:])
    if not np.all(np.isfinite(hybrid)):
        raise _overflow("amplitude")
    return _lerp(x0, hybrid, t)


def phase_path(x0, x1, rho: float, t: int = DEFAULT_STEPS) -> InterpolationPath:
    """Rotate low-frequency phase from p0 toward p1, keeping x0's amplitude.

    The per-bin increment is the shortest angular arc wrap(p1 - p0), and the
    phase at lambda is p0 + lambda * wrap(p1 - p0). Self-conjugate bins (DC
    and the Nyquist intersections) keep p0 outright: their phases are confined
    to {0, pi} for real images, so a continuous rotation there would corrupt
    the amplitude through the real-part projection instead of moving the
    phase. The increment is antisymmetric between each bin and its conjugate
    mirror, also at exact antipodal ties, so every path image keeps |X0|.

    The images are built in blocks of lambda steps cut by
    ``spectral.chunk_slices`` and run through ``spectral.run_chunks``, on up
    to 4 threads. A block rotates its own steps' spectra and inverts them
    into its own rows of the output, so the path is bit-identical for any
    thread count and block size; it peaks at the output plus up to 4 blocks
    in flight. Finite endpoints whose images overflow float64 raise InvalidInputError.
    """
    x0, x1 = _check_pair(x0, x1, t)
    h, w = x0.shape[1:]
    s0, s1, mask = _half_spectra(x0, x1, rho, "phase")
    p0 = decompose(s0).phase
    delta = np.where(mask, wrap_angle(decompose(s1).phase - p0), 0.0)
    # The increment must be odd, delta(-k) = -delta(k). Where the half grid
    # holds both a bin and its mirror, wrap_angle sends a tie to +pi at both;
    # a bin that is its own mirror gets 0, so it keeps p0.
    mirror_half_grid(delta, w, -1)
    lambdas = _lambda_grid(t)
    # Only bins with a nonzero increment rotate; elsewhere s0 * exp(0j) == s0.
    # A block's spectra are bin-major, (bins, steps), so each moved bin is one row.
    moved = np.flatnonzero(delta)
    bins = s0.ravel()
    increments = delta.ravel()[moved, None]
    images = np.empty((t,) + x0.shape)

    def rotate(steps: slice) -> None:
        lam = lambdas[steps]
        spectra = np.repeat(bins[:, None], lam.size, axis=1)
        spectra[moved] = bins[moved, None] * np.exp(1j * lam * increments)
        out = images[steps]
        out[...] = irfft2(spectra.T.reshape(out.shape[:2] + s0.shape[1:]), (h, w))
        if not np.all(np.isfinite(out)):
            raise _overflow("phase")

    with np.errstate(over="ignore", invalid="ignore"):
        run_chunks(rotate, chunk_slices(t, x0.size))
    return InterpolationPath(images=images, lambdas=lambdas)


def pixel_path(x0, x1, t: int = DEFAULT_STEPS) -> InterpolationPath:
    """Linear interpolation in pixel space: (1-lambda)*x0 + lambda*x1."""
    x0, x1 = _check_pair(x0, x1, t)
    return _lerp(x0, x1, t)


def build_path(x0, x1, spec: PathSpec) -> InterpolationPath:
    """Construct the path described by a PathSpec for the given endpoint images."""
    if spec.mode == "amplitude":
        return amplitude_path(x0, x1, spec.cutoff, spec.steps)
    if spec.mode == "phase":
        return phase_path(x0, x1, spec.cutoff, spec.steps)
    return pixel_path(x0, x1, spec.steps)


def _partner_runs(labels: np.ndarray, class_relation: str):
    """Where each item's valid partners lie in one ordering of the items.

    Returns (order, lo, size, skip_lo, skip_size): item i's partners are the
    items at positions lo[i] .. lo[i] + size[i] of ``order``, less the
    skip_size[i] positions from skip_lo[i] on (the item itself, or its own
    class). Items are ordered by class, so each class is one run; without a
    class relation all items are one class.
    """
    n = len(labels)
    if class_relation in ("within", "between"):
        _, group, counts = np.unique(labels, return_inverse=True, return_counts=True)
        group = group.reshape(n)
    else:
        group, counts = np.zeros(n, dtype=np.int64), np.array([n])
    order = np.argsort(group, kind="stable")
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n)
    start, count = (np.cumsum(counts) - counts)[group], counts[group]
    if class_relation == "between":
        return order, np.zeros(n, dtype=np.int64), np.full(n, n), start, count
    return order, start, count, pos, np.ones(n, dtype=np.int64)


def sample_path_specs(
    labels,
    n_paths: int,
    mode: str,
    class_relation: str = "unconstrained",
    rho: float = DEFAULT_CUTOFF,
    t: int = DEFAULT_STEPS,
    seed: int = 0,
) -> list[PathSpec]:
    """Draw n_paths endpoint pairs uniformly at random subject to class_relation.

    Pair i is drawn from an RNG stream derived from (seed, i), so individual
    paths are reproducible independently of how many are requested. The
    valid ordered pairs are numbered source by source, each source taking as
    many numbers as it has valid partners, and pair i is the one numbered
    by one ``integers`` draw of its stream: the source is found by its
    cumulative count (``searchsorted``), and the partner is uniform among the
    source's own. No draw is rejected, so the time per pair does not depend
    on how the labels are spread. The first ``PathSpec`` rejects an unknown
    mode or class relation, and a ``t`` that is not an int >= 2; a ``seed``
    that is not an int >= 0 is rejected before any draw.
    """
    labels = np.asarray(labels)
    n = labels.shape[0]
    n_paths = checked_count("n_paths", n_paths, 1)
    seed = checked_count("seed", seed, 0)
    rho = checked_real("rho", rho)
    if n < 2:
        raise InvalidInputError("dataset must contain at least 2 items")

    order, lo, size, skip_lo, skip_size = _partner_runs(labels, class_relation)
    partners = np.cumsum(size - skip_size)
    if partners[-1] == 0:
        raise InvalidInputError(
            "within-class pairs need a class with >= 2 items"
            if class_relation == "within"
            else "between-class pairs need >= 2 distinct classes"
        )

    specs = []
    for i in range(n_paths):
        pair = np.random.default_rng([seed, i]).integers(partners[-1])
        src = int(np.searchsorted(partners, pair, side="right"))
        at = lo[src] + pair - (partners[src - 1] if src else 0)
        if at >= skip_lo[src]:
            at += skip_size[src]
        specs.append(
            PathSpec(
                mode=mode,
                source_index=src,
                target_index=int(order[at]),
                class_relation=class_relation,
                cutoff=float(rho),
                steps=t,
                seed=seed,
            )
        )
    return specs
