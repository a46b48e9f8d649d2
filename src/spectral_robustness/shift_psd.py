"""Spectral characterization of distribution shifts.

Two estimators match the two kinds of OOD data: paired corruptions (PSD of the
per-image difference) and recollected test sets (difference of class-averaged
PSDs, averaged over classes). Maps are summarized by a radial profile and by
low/mid/high band fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import InvalidInputError, UndefinedMetricError
from .spectral import PsdMap, image_stack, normalized_radius, psd

# Band edges on normalized radius. The low edge keeps the lowest third of
# radii; the high edge sits below 2/3 because on a square frequency grid the
# annulus between r=1/3 and r=2/3 holds the majority of bins, which would make
# a spectrally flat (white-noise) shift read as mid-dominant. With the high
# edge at 0.6 a flat map has high as its largest band, matching the low/mid/
# high placement of the corruption families these maps are meant to reproduce.
DEFAULT_BAND_EDGES = (1.0 / 3.0, 0.6)

PROFILE_BIN_WIDTH = 0.05


@dataclass
class BandFractions:
    """Shares of total absolute power in the low/mid/high radius bands."""

    low: float
    mid: float
    high: float


def paired_shift_psd(originals: Sequence, corrupted: Sequence) -> PsdMap:
    """PSD of per-pair difference images (corrupted_i - original_i).

    The difference is formed a chunk at a time inside ``psd``. A difference
    beyond the float64 range raises InvalidInputError from ``psd``.
    """
    originals, corrupted = _readable_twice(originals), _readable_twice(corrupted)
    try:
        return psd(corrupted, minus=originals)
    except InvalidInputError as error:
        fault = error
    # Name the input at fault, in the order the inputs are checked.
    orig = image_stack(originals, "originals")
    corr = image_stack(corrupted, "corrupted")
    if orig.shape != corr.shape:
        raise InvalidInputError(
            f"originals/corrupted shape mismatch: {orig.shape} vs {corr.shape}"
        )
    raise fault


def _readable_twice(images):
    """``images``, as a list if it is no array, so an error path can read it again."""
    return images if isinstance(images, np.ndarray) else list(images)


def _group_psd(images, name: str) -> PsdMap:
    """``psd(images)``, naming ``name`` when the fault is in the images."""
    images = _readable_twice(images)
    try:
        return psd(images)
    except InvalidInputError as error:
        fault = error
    image_stack(images, name)
    raise fault


def class_averaged_shift_psd(a: Mapping, b: Mapping) -> PsdMap:
    """Mean over classes of psd(b_class) - psd(a_class); values may be signed."""
    keys_a, keys_b = set(a.keys()), set(b.keys())
    if keys_a != keys_b:
        raise InvalidInputError(
            f"class keys differ: only in a {sorted(keys_a - keys_b)}, "
            f"only in b {sorted(keys_b - keys_a)}"
        )
    if not keys_a:
        raise InvalidInputError("no classes given")
    deltas = []
    for key in sorted(keys_a, key=str):
        psd_a = _group_psd(a[key], f"a[{key!r}]")
        psd_b = _group_psd(b[key], f"b[{key!r}]")
        if psd_a.power.shape != psd_b.power.shape:
            raise InvalidInputError(f"image sizes differ between groups for class {key!r}")
        deltas.append(psd_b.power - psd_a.power)
    return PsdMap(power=np.mean(deltas, axis=0), source_count=len(deltas))


def radial_profile(psd_map: PsdMap) -> list[tuple[float, float]]:
    """Mean power per radius annulus of width 0.05; empty annuli are omitted."""
    power = np.asarray(psd_map.power, dtype=np.float64)
    r = normalized_radius(*power.shape)
    n_bins = int(round(1.0 / PROFILE_BIN_WIDTH))
    idx = np.minimum((r / PROFILE_BIN_WIDTH).astype(int), n_bins - 1)
    profile = []
    for i in range(n_bins):
        sel = idx == i
        if np.any(sel):
            center = (i + 0.5) * PROFILE_BIN_WIDTH
            profile.append((center, float(power[sel].mean())))
    return profile


def band_fractions(psd_map: PsdMap, edges: tuple[float, float] = DEFAULT_BAND_EDGES) -> BandFractions:
    """Split total |power| into low (r <= r1), mid (r1 < r <= r2), high (r > r2).

    Absolute values are used because shift maps may be signed.
    """
    r1, r2 = edges
    if not 0.0 < r1 < r2 < 1.0:
        raise InvalidInputError(f"band edges must satisfy 0 < r1 < r2 < 1, got {edges}")
    power = np.abs(np.asarray(psd_map.power, dtype=np.float64))
    total = power.sum()
    if total == 0.0:
        raise UndefinedMetricError("band fractions are undefined for an all-zero map")
    r = normalized_radius(*power.shape)
    low = power[r <= r1].sum() / total
    mid = power[(r > r1) & (r <= r2)].sum() / total
    high = power[r > r2].sum() / total
    return BandFractions(low=float(low), mid=float(mid), high=float(high))
