"""2D DFT machinery: transforms, amplitude/phase decomposition, radial masks, PSDs.

Images are real arrays of shape (C, H, W) in normalized-pixel units (values may
be negative after mean/std normalization). Spectra are complex arrays of the
same shape using the standard unnormalized DFT convention, so Parseval reads
``sum |X|^2 = H*W * sum |x|^2`` per channel.

Every 2D transform in this package goes through ``rfft2`` and ``irfft2``
here, the one place that picks the FFT backend (``scipy.fft``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.fft

from .errors import InvalidInputError


@dataclass
class FourierDecomposition:
    """Per-channel amplitude (modulus) and phase (principal argument) of a spectrum.

    Phases lie in (-pi, pi]; bins with zero amplitude carry phase 0.
    """

    amplitude: np.ndarray
    phase: np.ndarray


@dataclass
class RadialMask:
    """Boolean (H, W) frequency mask: bins with normalized radius <= rho.

    The layout matches unshifted DFT indexing (DC at [0, 0]).
    """

    included: np.ndarray
    rho: float


@dataclass
class PsdMap:
    """Channel- and image-averaged power per frequency bin, shape (H, W).

    ``power`` is signed only for shift maps (differences of PSDs); a PSD of a
    single dataset is elementwise nonnegative. ``source_count`` records how
    many items were averaged.
    """

    power: np.ndarray
    source_count: int


def _as_spectrum(s) -> np.ndarray:
    s = np.asarray(s, dtype=np.complex128)
    if s.ndim != 3:
        raise InvalidInputError(f"spectrum must have shape (C, H, W), got {s.shape}")
    if not np.all(np.isfinite(s)):
        raise InvalidInputError("spectrum contains non-finite values")
    return s


def rfft2(x) -> np.ndarray:
    """Real-input half spectrum over the last two axes: shape (..., H, W//2 + 1)."""
    return scipy.fft.rfft2(x)


def irfft2(spectra, shape) -> np.ndarray:
    """Inverse of ``rfft2``: real (..., H, W) images from half spectra, with ``shape`` = (H, W)."""
    return scipy.fft.irfft2(spectra, s=shape)


def _mirror_columns(half: np.ndarray, h: int, w: int) -> np.ndarray:
    """Half-grid values at (-u, -v) for the full-grid columns v = W//2+1 .. W-1, in that order."""
    return half[..., -np.arange(h) % h, (w - 1) // 2 : 0 : -1]


def dft2(image) -> np.ndarray:
    """Forward unnormalized 2D DFT applied per channel.

    The columns past W/2 are the conjugate mirrors X[-u, -v] of the real
    input's half spectrum.
    """
    x = np.asarray(image, dtype=np.float64)
    if x.ndim != 3 or x.shape[1] < 2 or x.shape[2] < 2:
        raise InvalidInputError(f"image must have shape (C, H, W) with H, W >= 2, got {x.shape}")
    x = image_stack(x[None], "image")[0]
    h, w = x.shape[1:]
    half = rfft2(x)
    full = np.empty(x.shape, dtype=np.complex128)
    full[..., : w // 2 + 1] = half
    full[..., w // 2 + 1 :] = np.conj(_mirror_columns(half, h, w))
    return full


def idft2_real(spectrum) -> np.ndarray:
    """Inverse 2D DFT per channel, keeping the real component.

    Any imaginary residue from a non-Hermitian spectrum is discarded. The
    real part of the inverse DFT of X is the inverse DFT of X's Hermitian
    part (X[u, v] + conj(X[-u, -v])) / 2, which runs on the half grid.
    """
    s = _as_spectrum(spectrum)
    h, w = s.shape[1:]
    cols = np.arange(w // 2 + 1)
    mirror = s[:, -np.arange(h)[:, None] % h, -cols % w]
    return irfft2((s[..., cols] + np.conj(mirror)) / 2, (h, w))


def decompose(spectrum) -> FourierDecomposition:
    """Split a spectrum into modulus and principal argument in (-pi, pi]."""
    s = _as_spectrum(spectrum)
    amplitude = np.abs(s)
    phase = np.angle(s)
    # np.angle can land on -pi for bins with a negative-zero imaginary part;
    # fold onto +pi so phases stay in (-pi, pi].
    phase[phase <= -np.pi] = np.pi
    phase[amplitude == 0.0] = 0.0
    return FourierDecomposition(amplitude=amplitude, phase=phase)


def normalized_radius(h: int, w: int) -> np.ndarray:
    """Normalized frequency radius r(u, v) in [0, 1] on the unshifted DFT grid.

    With signed frequency indices u, v, r = sqrt((2u/h)^2 + (2v/w)^2) / sqrt(2),
    so r = 0 at DC and r = 1 at the corner (Nyquist, Nyquist) bin.
    """
    if h < 2 or w < 2:
        raise InvalidInputError(f"grid must be at least 2x2, got {h}x{w}")
    fu = 2.0 * np.fft.fftfreq(h)  # == 2u/h for signed index u
    fv = 2.0 * np.fft.fftfreq(w)
    return np.sqrt(fu[:, None] ** 2 + fv[None, :] ** 2) / np.sqrt(2.0)


def radial_mask(h: int, w: int, rho: float) -> RadialMask:
    """Low-frequency mask: include every bin with normalized radius <= rho.

    rho = 0 keeps only DC; rho = 1 keeps all h*w bins.
    """
    if not 0.0 <= rho <= 1.0:
        raise InvalidInputError(f"rho must be in [0, 1], got {rho}")
    return RadialMask(included=normalized_radius(h, w) <= rho, rho=float(rho))


def half_grid_mirrors(h: int, w: int) -> tuple[np.ndarray, list[int]]:
    """Rows and columns where the rfft2 half grid holds both a bin and its mirror.

    Columns 0 and W/2 (W even) hold every row; there the mirror (-u, -v) of
    bin (u, v) is (H - u, v). Returns the rows u with 0 < u < H - u, as an
    (R, 1) index array, and those columns, so ``x[..., h - rows, cols]``
    addresses the mirrors of ``x[..., rows, cols]``.
    """
    return np.arange(1, (h + 1) // 2)[:, None], [0] + ([w // 2] if w % 2 == 0 else [])


def _stack(images, name: str) -> np.ndarray:
    """``image_stack`` without its finiteness scan."""
    if isinstance(images, np.ndarray) and images.ndim == 4:
        stack = np.asarray(images, dtype=np.float64)
    else:
        items = [np.asarray(im, dtype=np.float64) for im in images]
        if not items:
            raise InvalidInputError(f"{name} must be nonempty")
        shapes = {im.shape for im in items}
        if len(shapes) != 1:
            raise InvalidInputError(f"{name} images must share a shape, got {sorted(shapes)}")
        stack = np.stack(items)
    if stack.ndim != 4 or 0 in stack.shape:
        raise InvalidInputError(f"{name} must be a nonempty (N, C, H, W) stack, got {stack.shape}")
    return stack


def image_stack(images, name: str) -> np.ndarray:
    """Validate images and stack them into a float64 (N, C, H, W) array.

    ``images`` is an (N, C, H, W) array or a sequence of (C, H, W) images of
    one shape. Empty input, mixed shapes, an empty axis and non-finite values
    raise InvalidInputError naming ``name``.
    """
    stack = _stack(images, name)
    if not np.all(np.isfinite(stack)):
        raise InvalidInputError(f"{name} contains non-finite values")
    return stack


def psd(images: Sequence) -> PsdMap:
    """Mean power spectral density |X|^2 / (H*W) over images and channels.

    The normalization makes unit-variance white noise flat at expected power 1.
    The power is computed on the real half-spectrum and mirrored through
    P[u, v] = P[-u, -v], so the map is exactly point-symmetric.

    Non-finite input and power beyond the float64 range raise
    InvalidInputError. Finiteness is checked on the map, not the input: the
    DC bin sums every pixel, so a non-finite pixel always reaches the map.
    """
    stack = _stack(images, "psd input")
    n, _, h, w = stack.shape
    # The real and imaginary parts, interleaved, squared in place.
    parts = rfft2(stack).view(np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(parts, parts, out=parts)
        # Channel mean first, then image mean, so repeated identical images
        # average bit-identically.
        per_image = np.mean(parts[..., 0::2] + parts[..., 1::2], axis=1) / (h * w)
        half = np.mean(per_image, axis=0)
    if not np.all(np.isfinite(half)):
        if not np.all(np.isfinite(stack)):
            raise InvalidInputError("psd input contains non-finite values")
        raise InvalidInputError("psd power overflows float64: the input is too large")
    power = np.empty((h, w))
    power[:, : w // 2 + 1] = half
    rows, cols = half_grid_mirrors(h, w)
    power[h - rows, cols] = power[rows, cols]
    # The remaining columns are the mirrors (-u, -v) of half-grid bins.
    power[:, w // 2 + 1 :] = _mirror_columns(power, h, w)
    return PsdMap(power=power, source_count=n)
