"""Summaries of shift maps: ``radial_profile``, ``band_fractions`` with its
``BandFractions``, and the band constants.

The maps come from ``spectral``: ``paired_shift_psd`` for paired corruptions
and ``class_averaged_shift_psd`` for recollected test sets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, UndefinedMetricError
from .spectral import PsdMap, normalized_radius

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
