"""Random-projection estimation of the input-output Jacobian Frobenius norm.

For a predictor f mapping a D-pixel image to K outputs, E_v[K * ||J^T v||^2]
over unit vectors v on the K-sphere equals ||J||_F^2; averaging the per-sample,
per-projection estimates over a batch and taking a square root gives the
reported norm, with a Gaussian 95% CI built on the squared-norm estimates
(treated as i.i.d.) and mapped through sqrt.

A predictor with an analytic Jacobian overrides ``sq_vjp_norms(batch, vs)``,
the one VJP entry point, which makes ``has_vjp`` True: one call returns all
B x n_proj squared norms, for cotangents v uniform on the unit K-sphere.
Others fall back to central finite differences, step ``DEFAULT_FD_EPS``, along
sign directions u = s / sqrt(D), s uniform on {-1, +1}^D (one random bit per
pixel), by the dual identity E_u[D * ||J u||^2] = ||J||_F^2 (Hutchinson's
estimator), with one ``predict`` call per sample holding all of its
2 * n_proj perturbations. A sample's steps eps * u = +-eps / sqrt(D) come
from a 256 x 8 table of steps, one row per byte value, indexed by the
sample's block of the stream's raw bytes; the differences of all samples'
outputs are reduced once, after the last call. The raw bytes of a block of
samples, about 512 KiB, come from one ``integers`` draw of uint32 words,
which gives each sample the bytes of its own ``Generator.bytes`` call, so
the perturbed batches and estimates are those of unpacking each sample's
bits from its own call and reducing it as it arrives, bit for bit. The
K-dimensional cotangents stay on the sphere: at K = 2 with softmax outputs,
sign cotangents would double each projection's variance.

The built-in predictors take a non-empty batch of images of D values each,
D being their first layer's width, and a ``CallablePredictor`` a batch of
images of its ``image_shape``; each raises InvalidInputError for any other
batch. A linear predictor's logits have J = W at every x, so its VJP
route never multiplies the batch.

The built-in predictors' forward passes add the bias, apply tanh and take
the softmax in place on the arrays their products return, and ``fit_mlp``
writes every (N, hidden) and (N, K) value of an epoch into buffers
allocated once per call. The operations and their order are those of the
plain formulas, so outputs, estimates and fitted weights are the plain
formulas' bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, checked_count, checked_real
from .path_metrics import summarize_gaussian
from .spectral import chunk_slices, image_stack

DEFAULT_N_PROJ = 10
DEFAULT_BATCH_SIZE = 400
DEFAULT_FD_EPS = 1e-4


@dataclass
class JacobianConfig:
    n_proj: int = DEFAULT_N_PROJ
    batch_size: int = DEFAULT_BATCH_SIZE
    seed: int = 0

    def __post_init__(self):
        self.n_proj = checked_count("n_proj", self.n_proj, 1)
        self.batch_size = checked_count("batch_size", self.batch_size, 1)
        self.seed = checked_count("seed", self.seed, 0)


@dataclass
class JacobianEstimate:
    frobenius_norm: float
    ci95_low: float
    ci95_high: float
    n_estimates: int
    target: str
    method: str  # "vjp" or "fd"


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    """Softmax along the last axis of a float ``z``, in place; returns ``z``."""
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


class Predictor:
    """Maps an (N, C, H, W) image batch to an (N, K) output matrix.

    ``target`` says whether outputs are logits or softmax probabilities. A
    predictor with an analytic Jacobian overrides ``sq_vjp_norms``; others
    are handled by finite differences on ``predict``.
    """

    target = "probs"
    n_outputs = 0

    @property
    def has_vjp(self) -> bool:
        """Whether the class overrides ``sq_vjp_norms``; a subclass's own ``has_vjp`` attribute wins."""
        return type(self).sq_vjp_norms is not Predictor.sq_vjp_norms

    def predict(self, batch: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def sq_vjp_norms(self, batch: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """(B, P) squared norms ||J(x_s)^T v_{s,j}||^2 for a (B, ...) batch and (B, P, K) ``vs``."""
        raise NotImplementedError("this predictor has no analytic VJP")


def _check_target(target: str) -> str:
    if target not in ("logits", "probs"):
        raise InvalidInputError(f"target must be 'logits' or 'probs', got {target!r}")
    return target


def _probs_cotangents(p: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """(diag(p) - p p^T) v for (B, K) softmax outputs p and (B, P, K) cotangents v."""
    p = p[:, None, :]
    return p * vs - p * np.sum(vs * p, axis=-1, keepdims=True)


def _check_finite(*params) -> None:
    if not all(np.all(np.isfinite(p)) for p in params):
        raise InvalidInputError("weights and biases must be finite")


def _sq_row_norms(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """||a_i @ w||^2 for every row a_i along the last axis of ``a``, without forming ``a @ w``.

    R from the QR factorisation of w^T satisfies R^T R = w w^T, so
    ||a_i @ w||^2 = a_i (w w^T) a_i^T = ||R a_i||^2: a quadratic form in the
    small Gram matrix, kept a sum of squares so it never rounds below zero.
    """
    r = np.linalg.qr(w.T, mode="r")
    y = a @ r.T
    return np.sum(y * y, axis=-1)


class _FirstLayerPredictor(Predictor):
    """A built-in predictor whose first layer multiplies flattened images by ``first_weights``.

    Subclasses supply the forward pass ``_forward(flat) -> (state, logits)``,
    whose logits are a new array that the softmax overwrites, and
    ``_pullback(state, g)``, which takes (B, P, K) cotangents at the
    logits back to the first layer's outputs; the input gradient is then
    that cotangent times ``first_weights``.
    """

    def __init__(self, first_weights: np.ndarray, n_outputs: int, image_shape, target: str):
        d = first_weights.shape[1]
        self.image_shape = image_shape if image_shape is not None else (1, 1, d)
        if int(np.prod(self.image_shape)) != d:
            raise InvalidInputError(f"image_shape {self.image_shape} does not flatten to D={d}")
        self._first_weights = first_weights
        self.target = _check_target(target)
        self.n_outputs = n_outputs

    def _flat(self, batch) -> np.ndarray:
        """The batch as (B, D) float64 rows; InvalidInputError unless B >= 1 and each image holds D values."""
        batch = np.asarray(batch, dtype=np.float64)
        d = self._first_weights.shape[1]
        n = batch.shape[0] if batch.ndim else 0
        if n == 0 or math.prod(batch.shape[1:]) != d:
            raise InvalidInputError(
                f"batch must hold at least one image of D={d} values, got {n} of shape {batch.shape[1:]}"
            )
        return batch.reshape(n, d)

    def _cotangents(self, batch, vs) -> np.ndarray:
        """``vs`` as float64, checked to be (B, P, K) for the batch's B."""
        vs = np.asarray(vs, dtype=np.float64)
        if vs.ndim != 3 or vs.shape[0] != len(batch) or vs.shape[2] != self.n_outputs:
            raise InvalidInputError(
                f"vs must be (B, P, K) = ({len(batch)}, P, {self.n_outputs}), got {vs.shape}"
            )
        return vs

    def predict(self, batch: np.ndarray) -> np.ndarray:
        _, z = self._forward(self._flat(batch))
        return _softmax_rows(z) if self.target == "probs" else z

    def _first_layer_cotangents(self, batch, vs) -> np.ndarray:
        flat = self._flat(batch)
        vs = self._cotangents(flat, vs)
        state, z = self._forward(flat)
        if self.target == "probs":
            vs = _probs_cotangents(_softmax_rows(z), vs)
        return self._pullback(state, vs)

    def vjp(self, x, v) -> np.ndarray:
        """J(x)^T v as an image, for one image ``x`` and one K-vector ``v``."""
        g = self._first_layer_cotangents(np.asarray(x)[None], np.asarray(v)[None, None])
        return (g[0, 0] @ self._first_weights).reshape(self.image_shape)

    def sq_vjp_norms(self, batch, vs):
        # Norms beyond the float64 range come out inf or nan, and
        # estimate_jacobian_norm rejects them.
        with np.errstate(over="ignore", invalid="ignore"):
            return _sq_row_norms(self._first_layer_cotangents(batch, vs), self._first_weights)


class LinearPredictor(_FirstLayerPredictor):
    """f(x) = W x + b on flattened images, optionally through a softmax head."""

    def __init__(self, weights, bias=None, image_shape=None, target: str = "probs"):
        self.weights = np.asarray(weights, dtype=np.float64)
        if self.weights.ndim != 2:
            raise InvalidInputError(f"weights must be (K, D), got {self.weights.shape}")
        k = len(self.weights)
        self.bias = np.zeros(k) if bias is None else np.asarray(bias, dtype=np.float64)
        if self.bias.shape != (k,):
            raise InvalidInputError(f"bias must have shape ({k},), got {self.bias.shape}")
        _check_finite(self.weights, self.bias)
        super().__init__(self.weights, k, image_shape, target)

    def _forward(self, flat):
        z = flat @ self.weights.T
        z += self.bias
        return None, z

    def _pullback(self, state, g):
        return g

    def _first_layer_cotangents(self, batch, vs) -> np.ndarray:
        if self.target == "probs":
            return super()._first_layer_cotangents(batch, vs)
        # J = W at every x: the logits' cotangents are the input layer's.
        return self._cotangents(self._flat(batch), vs)


class MlpPredictor(_FirstLayerPredictor):
    """One-hidden-layer network: softmax(W2 tanh(W1 x + b1) + b2)."""

    def __init__(self, w1, b1, w2, b2, image_shape=None, target: str = "probs"):
        self.w1 = np.asarray(w1, dtype=np.float64)
        self.b1 = np.asarray(b1, dtype=np.float64)
        self.w2 = np.asarray(w2, dtype=np.float64)
        self.b2 = np.asarray(b2, dtype=np.float64)
        if self.w1.ndim != 2 or self.w2.ndim != 2:
            raise InvalidInputError("w1 and w2 must be matrices")
        hidden = len(self.w1)
        k, hidden2 = self.w2.shape
        if hidden != hidden2 or self.b1.shape != (hidden,) or self.b2.shape != (k,):
            raise InvalidInputError("inconsistent MLP weight shapes")
        _check_finite(self.w1, self.b1, self.w2, self.b2)
        super().__init__(self.w1, k, image_shape, target)

    def _forward(self, flat):
        h = flat @ self.w1.T
        h += self.b1
        np.tanh(h, out=h)
        z = h @ self.w2.T
        z += self.b2
        return h, z

    def _pullback(self, h, g):
        """Cotangents at the pre-activations W1 x + b1."""
        slope = np.multiply(h, h)
        np.subtract(1.0, slope, out=slope)
        g = g @ self.w2
        g *= slope[:, None, :]
        return g


class CallablePredictor(Predictor):
    """Wraps a black-box batch->outputs callable; Jacobians come from finite differences.

    ``predict`` takes only batches of ``image_shape`` images and raises
    InvalidInputError naming both shapes for any other.
    """

    def __init__(self, fn, n_outputs: int, image_shape, target: str = "probs"):
        self.fn = fn
        self.n_outputs = checked_count("n_outputs", n_outputs, 1)
        self.image_shape = tuple(image_shape)
        self.target = _check_target(target)

    def predict(self, batch: np.ndarray) -> np.ndarray:
        batch = np.asarray(batch, dtype=np.float64)
        if batch.shape[1:] != self.image_shape:
            raise InvalidInputError(f"batch images must have shape {self.image_shape}, got {batch.shape[1:]}")
        return np.asarray(self.fn(batch), dtype=np.float64)


def _unit_rows(rng: np.random.Generator, b: int, n: int, dim: int) -> np.ndarray:
    """(b, n, dim) uniform unit vectors in R^dim from one ``standard_normal`` draw of ``rng``.

    Sample s takes the s-th block of n rows. Rows are normalised Gaussian
    draws; a zero row is then redrawn from the same stream, in (sample, row)
    order.
    """
    g = rng.standard_normal((b, n, dim))
    norms = np.sqrt(np.sum(g * g, axis=2))
    for s, i in zip(*np.nonzero(norms == 0)):
        while norms[s, i] == 0:
            g[s, i] = rng.standard_normal(dim)
            norms[s, i] = np.sqrt(np.sum(g[s, i] * g[s, i]))
    return g / norms[..., None]


def _step_table(step: float) -> np.ndarray:
    """(256, 8) table whose row v holds the steps for the bits of byte v: -step for a 1, else +step.

    Bits run most significant first, as ``np.unpackbits`` orders them, so
    taking rows by a stream's raw bytes gives the steps of its bits in order.
    """
    bits = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)
    return np.where(bits == 1, -step, step)


def _stream_bytes(rng: np.random.Generator, m: int, n_bytes: int) -> np.ndarray:
    """(m, n_bytes) uint8 whose row s holds the s-th of m ``rng.bytes(n_bytes)`` calls' bytes.

    ``Generator.bytes(n)`` is ceil(n / 4) uint32 words of ``integers`` as
    little-endian bytes, cut to n, so one draw of m rows of words gives the
    same bytes and leaves the stream where the m calls would.
    """
    words = rng.integers(0, 2**32, size=(m, -(-n_bytes // 4)), dtype=np.uint32)
    return words.astype("<u4", copy=False).view(np.uint8)[:, :n_bytes]


def estimate_jacobian_norm(predictor: Predictor, batch, config: JacobianConfig) -> JacobianEstimate:
    """Estimate the (root-mean-square over the batch) Jacobian Frobenius norm.

    One RNG stream, ``default_rng(seed)``, serves the whole batch, and
    sample s takes the s-th consecutive block of its draws: unit-sphere
    cotangents for the VJP route (all B x n_proj in one draw), sign
    directions from the stream's raw bytes for the finite-difference route,
    ceil(n_proj * D / 8) bytes per sample. Those bytes are drawn for a block
    of samples at a time, about 512 KiB (one ``chunk_slices`` chunk of
    float64 pixels), so the sign buffer does not grow with the batch; they
    are the bytes of one ``Generator.bytes`` call per sample. The first m
    samples therefore draw what a batch of those m samples would. The
    reduction runs in (sample, projection) order so results are bit-stable
    per seed.

    The nominal 95% CI treats a sample's projections as independent although
    they share J(x). Measured on the blob MLP of the tests at seeds
    2000-2399, it covered the exact norm in 377/400 (K=2) and 383/400 (K=4)
    runs by finite differences, and in 397/400 and 388/400 by VJP.

    A sample whose estimates are not finite raises InvalidInputError naming
    the sample, on either route; so does a mean or CI bound of the squared
    norms beyond the float64 range.
    """
    batch = image_stack(batch, "batch")
    if len(batch) != config.batch_size:
        raise InvalidInputError(
            f"batch has {len(batch)} samples but config.batch_size is {config.batch_size}"
        )
    k = predictor.n_outputs
    if k < 1:
        raise InvalidInputError("predictor must declare n_outputs >= 1")
    d = int(np.prod(batch.shape[1:]))
    method = "vjp" if predictor.has_vjp else "fd"

    rng = np.random.default_rng(config.seed)
    if method == "vjp":
        vs = _unit_rows(rng, config.batch_size, config.n_proj, k)
        sq_norms = predictor.sq_vjp_norms(batch, vs)
        with np.errstate(over="ignore"):
            estimates = k * sq_norms
    else:
        # eps * u_j = +-step exactly, with step = eps * (1 / sqrt(D)) rounded once.
        table = _step_table(DEFAULT_FD_EPS * (1.0 / np.sqrt(d)))
        p = config.n_proj
        n_bytes = -(-p * d // 8)
        xs = batch.reshape(len(batch), d)
        outs = []
        for block in chunk_slices(len(batch), -(-n_bytes // 8)):
            signs = _stream_bytes(rng, block.stop - block.start, n_bytes)
            for s, raw in zip(range(block.start, block.stop), signs):
                # One predict call takes the sample's 2p perturbed images, in a fresh
                # array: a black-box predictor may keep the batch it was given. The
                # steps go into its first p rows, the last byte's spare bits past
                # them (room is kept for a batch of fewer than 8 values); x - steps
                # then fills rows p.., and x + steps overwrites the steps in place.
                buf = np.empty(max(2 * p * d, 8 * n_bytes))
                # Indices are bytes, always in range; "clip" lets take write into out unbuffered.
                np.take(table, raw, axis=0, out=buf[: 8 * n_bytes].reshape(n_bytes, 8), mode="clip")
                flat = buf[: 2 * p * d].reshape(2 * p, d)
                np.subtract(xs[s], flat[:p], out=flat[p:])
                np.add(xs[s], flat[:p], out=flat[:p])
                out = predictor.predict(flat.reshape((2 * p,) + batch.shape[1:]))
                if out.shape != (2 * p, k):
                    raise InvalidInputError(
                        f"predict returned shape {out.shape} for sample {s}, expected {(2 * p, k)}"
                    )
                # A copy, in predict's own dtype: a predictor may reuse its output buffer.
                outs.append(out.copy())
        # Outputs that are not finite, or too large to square, are rejected
        # below by the per-sample finiteness check.
        with np.errstate(over="ignore", invalid="ignore"):
            outs = np.stack(outs)
            ju = (outs[:, :p] - outs[:, p:]) / (2.0 * DEFAULT_FD_EPS)
            estimates = np.asarray(d * np.sum(ju * ju, axis=2), dtype=np.float64)
    finite = np.isfinite(estimates).all(axis=1)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise InvalidInputError(
            f"sq_vjp_norms gives a non-finite squared norm for sample {bad}"
            if method == "vjp"
            else f"predict outputs for sample {bad} give a non-finite finite-difference estimate"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        s = summarize_gaussian(estimates.ravel())
    if not np.all(np.isfinite([s.mean, s.ci95_low, s.ci95_high])):
        raise InvalidInputError("the squared norm estimates overflow float64 in their mean or 95% CI")
    return JacobianEstimate(
        frobenius_norm=float(np.sqrt(s.mean)),
        ci95_low=float(np.sqrt(max(s.ci95_low, 0.0))),
        ci95_high=float(np.sqrt(s.ci95_high)),
        n_estimates=s.n,
        target=predictor.target,
        method=method,
    )


def pack_mlp_weights(predictor: MlpPredictor) -> np.ndarray:
    """Flatten MLP weights into one 1D array: [D, hidden, K, w1, b1, w2, b2].

    The three leading dimensions are stored as floats (exact for any
    realistic layer size), so the whole network fits one tensor-container
    file.
    """
    hidden, d = predictor.w1.shape
    k = predictor.w2.shape[0]
    return np.concatenate(
        [
            np.array([d, hidden, k], dtype=np.float64),
            predictor.w1.ravel(),
            predictor.b1,
            predictor.w2.ravel(),
            predictor.b2,
        ]
    )


def unpack_mlp_weights(packed, image_shape=None, target: str = "probs") -> MlpPredictor:
    """Inverse of pack_mlp_weights; the three leading dims must be integers >= 1."""
    packed = np.asarray(packed, dtype=np.float64).ravel()
    if packed.size < 3:
        raise InvalidInputError("packed MLP weights must start with [D, hidden, K]")
    dims = packed[:3]
    if not np.all(np.isfinite(dims) & (dims >= 1) & (dims == np.floor(dims))):
        raise InvalidInputError(
            f"packed MLP dims [D, hidden, K] must be integers >= 1, got {dims.tolist()}"
        )
    d, hidden, k = (int(v) for v in dims)
    expected = 3 + hidden * d + hidden + k * hidden + k
    if packed.size != expected:
        raise InvalidInputError(
            f"packed MLP weights have {packed.size} values, expected {expected} "
            f"for D={d}, hidden={hidden}, K={k}"
        )
    w1, b1, w2, b2 = np.split(packed[3:], np.cumsum([hidden * d, hidden, k * hidden]))
    return MlpPredictor(
        w1.reshape(hidden, d), b1, w2.reshape(k, hidden), b2, image_shape=image_shape, target=target
    )


def fit_mlp(
    images,
    labels,
    hidden: int = 16,
    epochs: int = 300,
    lr: float = 0.5,
    seed: int = 0,
    target: str = "probs",
) -> MlpPredictor:
    """Fit the built-in MLP to labeled images with full-batch gradient descent.

    Plain cross-entropy descent, deterministic given the seed. ``images`` is
    a finite (N, C, H, W) stack (or a sequence of (C, H, W) images) and
    ``labels`` N integer classes >= 0, the largest >= 1 (it sets K - 1);
    ``hidden`` must be an int >= 1, ``epochs`` an int >= 0, ``lr`` finite
    and > 0 and ``target`` 'logits' or 'probs'.
    Inputs are checked before any random draw and raise InvalidInputError.

    The loop trains the pre-activations Z = X W1^T (X the (N, D) flattened
    images) instead of W1: the step W1 -= lr * dH^T X moves Z by exactly
    -lr * (X X^T) dH, so W1 is formed once at the end as
    W1_0 - lr * (sum of dH)^T X. Each epoch then costs O(N^2 hidden) instead
    of O(N D hidden). The N x N Gram matrix X X^T is formed only when N <= D,
    so it never takes more memory than the images; for N > D the same step
    is applied as X (X^T dH). The weights equal those of updating W1 in
    every epoch up to rounding.
    """
    images = image_stack(images, "images")
    labels = np.asarray(labels)
    if labels.shape != (len(images),):
        raise InvalidInputError(
            f"expected {len(images)} labels for {len(images)} images, got shape {labels.shape}"
        )
    if not np.issubdtype(labels.dtype, np.integer) or labels.min() < 0:
        raise InvalidInputError("labels must be integers >= 0")
    hidden = checked_count("hidden", hidden, 1)
    epochs = checked_count("epochs", epochs, 0)
    if not (np.isfinite(checked_real("lr", lr)) and lr > 0):
        raise InvalidInputError(f"lr must be finite and > 0, got {lr}")
    _check_target(target)
    seed = checked_count("seed", seed, 0)
    image_shape = images.shape[1:]
    n_classes = int(labels.max()) + 1
    if n_classes < 2:
        raise InvalidInputError("need at least 2 classes")
    flat = images.reshape(len(images), -1)
    n, d = flat.shape
    rng = np.random.default_rng([seed, 13])
    w1 = rng.normal(0.0, 1.0 / np.sqrt(d), size=(hidden, d))
    b1 = np.zeros(hidden)
    w2 = rng.normal(0.0, 1.0 / np.sqrt(hidden), size=(n_classes, hidden))
    b2 = np.zeros(n_classes)

    onehot = np.eye(n_classes)[labels]
    z = flat @ w1.T
    gram = flat @ flat.T if n <= d else None
    dh_sum = np.zeros((n, hidden))
    # Buffers for every (N, hidden) and (N, K) value of an epoch.
    hid, dh, slope, z_step = (np.empty((n, hidden)) for _ in range(4))
    dz = np.empty((n, n_classes))
    for _ in range(epochs):
        np.tanh(np.add(z, b1, out=hid), out=hid)
        _softmax_rows(np.add(np.matmul(hid, w2.T, out=dz), b2, out=dz))
        dz -= onehot
        dz /= n  # cross-entropy + softmax gradient
        gw2 = dz.T @ hid
        gb2 = dz.sum(axis=0)
        np.matmul(dz, w2, out=dh)
        np.subtract(1.0, np.multiply(hid, hid, out=slope), out=slope)
        dh *= slope
        gb1 = dh.sum(axis=0)
        w2 -= np.multiply(lr, gw2, out=gw2)
        b2 -= np.multiply(lr, gb2, out=gb2)
        b1 -= np.multiply(lr, gb1, out=gb1)
        if gram is not None:
            np.matmul(gram, dh, out=z_step)
        else:
            np.matmul(flat, flat.T @ dh, out=z_step)
        z -= np.multiply(lr, z_step, out=z_step)
        dh_sum += dh
    w1_step = dh_sum.T @ flat
    w1 -= np.multiply(lr, w1_step, out=w1_step)

    return MlpPredictor(w1, b1, w2, b2, image_shape=image_shape, target=target)
