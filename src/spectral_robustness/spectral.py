"""2D DFT machinery: transforms, amplitude/phase decomposition, radial masks,
PSDs, the paired and class-averaged shift maps and their summaries (radial
profiles and band fractions).

Images are real arrays of shape (C, H, W) in normalized-pixel units (values may
be negative after mean/std normalization). Spectra are complex arrays of the
same shape using the standard unnormalized DFT convention, so Parseval reads
``sum |X|^2 = H*W * sum |x|^2`` per channel.

Every 2D transform in this package goes through ``rfft2`` and ``irfft2``
here, the one place that picks the FFT backend (``scipy.fft``).
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np
import scipy.fft

from .errors import InvalidInputError, UndefinedMetricError, checked_count, checked_real

# Every threaded kernel works on chunks of items of about this many float64
# pixels (21 CIFAR images or path steps), so a chunk's temporaries stay in
# cache; ``chunk_slices`` cuts them.
_CHUNK_PIXELS = 1 << 16

# ``run_chunks`` runs fewer chunks than this in the calling thread. On two
# CPUs, psd's 20-image chunks ran slower on two threads at 3 chunks and no
# faster at 2, and faster from 4 chunks on.
_MIN_THREADED_CHUNKS = 4

# ``run_chunks`` runs at most this many chunks at once, so a kernel's
# temporaries in flight stay a fixed size however many CPUs there are.
_MAX_THREADS = 4

# Band edges on normalized radius. The low edge keeps the lowest third of
# radii; the high edge sits below 2/3 because on a square frequency grid the
# annulus between r=1/3 and r=2/3 holds the majority of bins, which would make
# a spectrally flat (white-noise) shift read as mid-dominant. With the high
# edge at 0.6 a flat map has high as its largest band, matching the low/mid/
# high placement of the corruption families these maps are meant to reproduce.
DEFAULT_BAND_EDGES = (1.0 / 3.0, 0.6)

PROFILE_BIN_WIDTH = 0.05


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
    many items were averaged. ``power`` must be 2D.
    """

    power: np.ndarray
    source_count: int

    def __post_init__(self):
        if np.ndim(self.power) != 2:
            raise InvalidInputError(f"PSD map must be 2D, got shape {np.shape(self.power)}")


@dataclass
class BandFractions:
    """Shares of total absolute power in the low/mid/high radius bands."""

    low: float
    mid: float
    high: float


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


def _full_grid(half: np.ndarray, w: int) -> np.ndarray:
    """The full (..., H, W) grid of an rfft2 half grid.

    The columns past W/2 are the conjugate mirrors ``conj(half[-u, -v])``;
    on a real map, such as a PSD, the ``conj`` changes nothing.
    """
    h = half.shape[-2]
    full = np.empty(half.shape[:-1] + (w,), dtype=half.dtype)
    full[..., : w // 2 + 1] = half
    full[..., w // 2 + 1 :] = np.conj(half[..., -np.arange(h) % h, (w - 1) // 2 : 0 : -1])
    return full


def self_conjugate_bins(h: int, w: int) -> tuple[np.ndarray, list[int]]:
    """(rows, cols) of the bins of an H x W grid's half grid that are their own mirror (-u, -v).

    They are rows 0 and H/2 of columns 0 and W/2, the halves only at even
    sides. ``rows`` is a column, so ``values[..., rows, cols]`` picks every
    such bin of a half grid.
    """
    return np.array([0] + [h // 2] * (h % 2 == 0))[:, None], [0] + [w // 2] * (w % 2 == 0)


def mirror_half_grid(values: np.ndarray, w: int, sign: int) -> None:
    """Make columns 0 and W/2 of a half grid obey f(-k) = sign * f(k), in place.

    Those columns hold every row, and there the mirror (-u, -v) of bin (u, v)
    is (H - u, v): rows 0 < u < H - u are copied, times ``sign``, onto their
    mirrors. With sign -1 the bins that are their own mirror
    (``self_conjugate_bins``) are set to 0, the one value f(k) = -f(k) allows.
    """
    h = values.shape[-2]
    own_rows, cols = self_conjugate_bins(h, w)
    rows = np.arange(1, (h + 1) // 2)[:, None]
    values[..., h - rows, cols] = sign * values[..., rows, cols]
    if sign < 0:
        values[..., own_rows, cols] = 0.0


def dft2(image) -> np.ndarray:
    """Forward unnormalized 2D DFT applied per channel.

    The columns past W/2 are the conjugate mirrors X[-u, -v] of the real
    input's half spectrum. Values are read off that half spectrum, the way
    ``psd`` reads its map, so a finite image may fail as overflowing float64.
    """
    x = np.asarray(image, dtype=np.float64)
    if x.ndim != 3 or x.shape[1] < 2 or x.shape[2] < 2:
        raise InvalidInputError(f"image must have shape (C, H, W) with H, W >= 2, got {x.shape}")
    half = rfft2(x)
    _check_transform(half, {"image": x}, "spectrum overflows float64: the image is too large")
    return _full_grid(half, x.shape[2])


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
    h, w = checked_count("h", h), checked_count("w", w)
    if h < 2 or w < 2:
        raise InvalidInputError(f"grid must be at least 2x2, got {h}x{w}")
    fu = 2.0 * np.fft.fftfreq(h)  # == 2u/h for signed index u
    fv = 2.0 * np.fft.fftfreq(w)
    return np.sqrt(fu[:, None] ** 2 + fv[None, :] ** 2) / np.sqrt(2.0)


def radial_mask(h: int, w: int, rho: float) -> RadialMask:
    """Low-frequency mask: include every bin with normalized radius <= rho.

    rho = 0 keeps only DC; rho = 1 keeps all h*w bins.
    """
    if not 0.0 <= checked_real("rho", rho) <= 1.0:
        raise InvalidInputError(f"rho must be in [0, 1], got {rho}")
    return RadialMask(included=normalized_radius(h, w) <= rho, rho=float(rho))


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
    _name_non_finite({name: stack})
    return stack


def _name_non_finite(stacks: dict[str, np.ndarray]) -> None:
    """Raise InvalidInputError naming the first of ``stacks``, in order, with a non-finite value."""
    for name, stack in stacks.items():
        if not np.all(np.isfinite(stack)):
            raise InvalidInputError(f"{name} contains non-finite values")


def _check_transform(out: np.ndarray, stacks: dict[str, np.ndarray], overflow: str) -> None:
    """Unless ``out``, a transform of ``stacks``, is finite: name a non-finite stack, or say ``overflow``."""
    if not np.all(np.isfinite(out)):
        _name_non_finite(stacks)
        raise InvalidInputError(overflow)


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity mask, where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def chunk_slices(n: int, pixels_per_item: int) -> list[slice]:
    """Slices of ``range(n)``, in order, of about 2^16 pixels of items each and at least one item.

    An item is one (C, H, W) image or path step of ``pixels_per_item`` pixels.
    Every threaded kernel cuts its work here and hands the slices to
    ``run_chunks``.
    """
    per_chunk = max(1, _CHUNK_PIXELS // pixels_per_item)
    return [slice(lo, min(lo + per_chunk, n)) for lo in range(0, n, per_chunk)]


def run_chunks(chunk: Callable, items: Sequence) -> None:
    """Call ``chunk(item)`` once for each item, one thread per CPU.

    An item is a slice of ``chunk_slices``, or a tuple that holds one. Each
    chunk must write only its own slice of the output, so the result does
    not depend on which thread runs it. The calling thread and one new thread
    per further CPU in the process's affinity mask, up to 4 threads in all,
    take the chunks in order; with one CPU or fewer than 4 chunks the calling
    thread takes them all. Each chunk runs under the caller's
    ``np.errstate``, which does not follow a call into a new thread. After an
    exception no chunk is started, and the exception of the first chunk in
    order that raised one is re-raised.
    """
    threaded = len(items) >= _MIN_THREADED_CHUNKS
    workers = min(_cpu_count(), _MAX_THREADS, len(items)) if threaded else 1
    state = np.geterr()
    pending = iter(enumerate(items))
    lock = threading.Lock()
    faults: dict[int, BaseException] = {}

    def work() -> None:
        with np.errstate(**state):
            while True:
                with lock:
                    index, item = (None, None) if faults else next(pending, (None, None))
                if index is None:
                    return
                try:
                    chunk(item)
                except BaseException as error:
                    with lock:
                        faults[index] = error
                    return

    # The calling thread takes chunks too, rather than wait for the others.
    threads = []
    try:
        for _ in range(workers - 1):
            thread = threading.Thread(target=work)
            thread.start()
            threads.append(thread)
        work()
    finally:
        for thread in threads:
            thread.join()
    if faults:
        raise faults[min(faults)]


def stream_at(state: Mapping, outputs: int) -> np.random.Generator:
    """A generator on a copy of PCG64 ``state``, advanced by ``outputs`` 64-bit outputs.

    A chunk whose draws take a fixed number of outputs per value (one per
    float64 of ``random()`` or ``uniform()``) starts ``outputs`` into the one
    stream of its call, so every chunk draws what a sequential pass would.
    """
    bits = np.random.PCG64()
    bits.state = state
    return np.random.Generator(bits.advance(outputs))


def psd(images: Sequence) -> PsdMap:
    """Mean power spectral density |X|^2 / (H*W) over images and channels.

    The normalization makes unit-variance white noise flat at expected power 1.
    The power is computed on the real half-spectrum and mirrored through
    P[u, v] = P[-u, -v], so the map is exactly point-symmetric. The images
    are cut by ``chunk_slices`` and run through ``run_chunks``, on up to one
    thread per CPU; each chunk fills its own images' rows, and the image
    mean runs after them, so the map is bit-identical for any thread count.
    ``paired_shift_psd`` is the PSD of a difference of two stacks, formed the
    same way a chunk at a time.

    Finiteness is checked on the map, not the input: the DC bin sums every
    pixel, so a non-finite pixel always reaches the map. A non-finite map
    raises InvalidInputError saying the psd input contains non-finite
    values, or with the input finite that the power overflows float64.
    """
    return _psd_map([{"psd input": _stack(images, "psd input")}])[0]


def paired_shift_psd(originals: Sequence, corrupted: Sequence) -> PsdMap:
    """PSD of per-pair difference images (corrupted_i - original_i).

    It is formed as the PSD of originals - corrupted, a chunk at a time and
    never in full, the same power bit for bit as ``psd(corrupted - originals)``
    since negation is exact. The structure of ``originals``, of ``corrupted``
    and then their equal shapes are checked before any transform; values are
    read off the map as ``psd`` reads them, naming ``originals`` first.
    """
    orig, corr = _stack(originals, "originals"), _stack(corrupted, "corrupted")
    if orig.shape != corr.shape:
        raise InvalidInputError(f"originals/corrupted shape mismatch: {orig.shape} vs {corr.shape}")
    return _psd_map([{"originals": orig, "corrupted": corr}])[0]


def class_averaged_shift_psd(a: Mapping, b: Mapping) -> PsdMap:
    """Mean over classes of psd(b_class) - psd(a_class); values may be signed.

    Classes run in order of ``str(key)``. Every group's structure is checked
    before any transform, a[k], b[k] and then their (C, H, W) against the
    first class's ``a`` group, class by class. The chunks of every group then
    run through one ``run_chunks`` call, so the classes share the CPUs; the
    map is bit-identical for any thread count. Values are read off the maps
    as ``psd`` reads them, in group order.
    """
    keys_a, keys_b = set(a.keys()), set(b.keys())
    if keys_a != keys_b:
        raise InvalidInputError(
            f"class keys differ: only in a {sorted(keys_a - keys_b)}, "
            f"only in b {sorted(keys_b - keys_a)}"
        )
    if not keys_a:
        raise InvalidInputError("no classes given")

    groups = []
    image_shape = None
    for key in sorted(keys_a, key=str):
        name_a, name_b = f"a[{key!r}]", f"b[{key!r}]"
        stack_a, stack_b = _stack(a[key], name_a), _stack(b[key], name_b)
        image_shape = image_shape or stack_a.shape[1:]
        if not stack_a.shape[1:] == stack_b.shape[1:] == image_shape:
            raise InvalidInputError(f"image sizes differ between groups for class {key!r}")
        groups += [{name_a: stack_a}, {name_b: stack_b}]
    maps = _psd_map(groups)
    deltas = [map_b.power - map_a.power for map_a, map_b in zip(maps[0::2], maps[1::2])]
    return PsdMap(power=np.mean(deltas, axis=0), source_count=len(deltas))


def _psd_map(groups: Sequence[dict[str, np.ndarray]]) -> list[PsdMap]:
    """``psd`` of each group's first stack (name -> ``_stack`` output), less its second if given.

    The chunks of all groups run through one ``run_chunks`` call. The maps
    are checked in group order, and a non-finite one names the first stack
    of its group holding a non-finite value.
    """
    # Per-image powers of each group, filled one chunk of images at a time.
    filled = []
    chunks = []
    for stacks in groups:
        stack, *rest = stacks.values()
        minus = rest[0] if rest else None
        n, c, h, w = stack.shape
        per_image = np.empty((n, h, w // 2 + 1))
        filled.append((stacks, per_image, w))
        chunks += [((stack, minus, per_image), rows) for rows in chunk_slices(n, c * h * w)]

    def chunk_power(item) -> None:
        (stack, minus, per_image), rows = item
        _, c, h, w = stack.shape
        chunk = stack[rows]
        if minus is not None:
            chunk = chunk - minus[rows]
        # The real and imaginary parts, interleaved, squared in place.
        parts = rfft2(chunk).view(np.float64)
        np.multiply(parts, parts, out=parts)
        power = parts[..., 0::2]
        power += parts[..., 1::2]
        # Channel mean first, then image mean, so repeated identical images
        # average bit-identically. This is np.mean's sum and division.
        out = per_image[rows]
        np.add.reduce(power, axis=1, out=out)
        out /= c
        out /= h * w

    with np.errstate(over="ignore", invalid="ignore"):
        run_chunks(chunk_power, chunks)
        halves = [np.mean(per_image, axis=0) for _, per_image, _ in filled]
    maps = []
    for (stacks, per_image, w), half in zip(filled, halves):
        _check_transform(half, stacks, "psd power overflows float64: the input is too large")
        mirror_half_grid(half, w, 1)
        maps.append(PsdMap(power=_full_grid(half, w), source_count=len(per_image)))
    return maps


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
