"""Random-projection estimation of the input-output Jacobian Frobenius norm.

For a predictor f mapping a D-pixel image to K outputs, E_v[K * ||J^T v||^2]
over unit vectors v on the K-sphere equals ||J||_F^2; averaging the per-sample,
per-projection estimates over a batch and taking a square root gives the
reported norm, with a Gaussian 95% CI built on the squared-norm estimates
(treated as i.i.d.) and mapped through sqrt.

Predictors with an analytic vector-Jacobian product return all B x n_proj
squared norms from one ``sq_vjp_norms(batch, vs)`` call, with cotangents v
uniform on the unit K-sphere. Predictors without one fall back to central
finite differences along random input-space sign directions u = s / sqrt(D),
s uniform on {-1, +1}^D, using the dual identity E_u[D * ||J u||^2] =
||J||_F^2 (Hutchinson's estimator), with one ``predict`` call per sample
holding all of its 2 * n_proj perturbations. Sign directions take one random
bit per pixel. The K-dimensional cotangents stay on the sphere: at K = 2 with
softmax outputs, sign cotangents would double each projection's variance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .synthetic import make_blobs

DEFAULT_N_PROJ = 10
DEFAULT_BATCH_SIZE = 400
DEFAULT_FD_EPS = 1e-4


@dataclass
class JacobianConfig:
    n_proj: int = DEFAULT_N_PROJ
    batch_size: int = DEFAULT_BATCH_SIZE
    seed: int = 0
    fd_eps: float = DEFAULT_FD_EPS

    def __post_init__(self):
        if self.n_proj < 1 or self.batch_size < 1:
            raise InvalidInputError("n_proj and batch_size must be >= 1")
        if self.fd_eps <= 0:
            raise InvalidInputError("fd_eps must be > 0")


@dataclass
class JacobianEstimate:
    frobenius_norm: float
    ci95_low: float
    ci95_high: float
    n_estimates: int
    target: str
    method: str  # "vjp" or "fd"


def softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


class Predictor:
    """Maps an (N, C, H, W) image batch to an (N, K) output matrix.

    ``target`` says whether outputs are logits or softmax probabilities.
    Subclasses with an analytic VJP override ``vjp`` and report
    ``has_vjp = True``; they may also override ``sq_vjp_norms`` with a batched
    closed form. Others are handled by finite differences.
    """

    target = "probs"
    n_outputs = 0
    has_vjp = False

    def predict(self, batch: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def vjp(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError("this predictor has no analytic VJP")

    def sq_vjp_norms(self, batch: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """(B, P) squared norms ||J(x_s)^T v_{s,j}||^2 for a (B, ...) batch and (B, P, K) ``vs``.

        This default loops over ``vjp``.
        """
        out = np.empty(np.shape(vs)[:2])
        for s, x in enumerate(batch):
            for j, v in enumerate(vs[s]):
                grad = self.vjp(x, v)
                out[s, j] = np.sum(grad * grad)
        return out


def _check_target(target: str) -> str:
    if target not in ("logits", "probs"):
        raise InvalidInputError(f"target must be 'logits' or 'probs', got {target!r}")
    return target


def _probs_cotangents(p: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """(diag(p) - p p^T) v for (B, K) softmax outputs p and (B, P, K) cotangents v."""
    p = p[:, None, :]
    return p * vs - p * np.sum(vs * p, axis=-1, keepdims=True)


def _sq_row_norms(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """||a_i @ w||^2 for every row a_i along the last axis of ``a``, without forming ``a @ w``.

    R from the QR factorisation of w^T satisfies R^T R = w w^T, so
    ||a_i @ w||^2 = a_i (w w^T) a_i^T = ||R a_i||^2: a quadratic form in the
    small Gram matrix, kept a sum of squares so it never rounds below zero.
    """
    r = np.linalg.qr(w.T, mode="r")
    y = a @ r.T
    return np.sum(y * y, axis=-1)


def vjp_linear_softmax(weights, bias, x, v, target: str = "probs") -> np.ndarray:
    """VJP of a linear predictor: W^T v for logits, W^T (diag(p) - p p^T) v for probs."""
    weights = np.asarray(weights, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64).ravel()
    v = np.asarray(v, dtype=np.float64)
    k, d = weights.shape
    if bias.shape != (k,) or x.shape != (d,) or v.shape != (k,):
        raise InvalidInputError(
            f"inconsistent shapes: W {weights.shape}, b {bias.shape}, x {x.shape}, v {v.shape}"
        )
    if _check_target(target) == "logits":
        return weights.T @ v
    p = softmax(weights @ x + bias)
    return weights.T @ (p * v - p * (p @ v))


class LinearPredictor(Predictor):
    """f(x) = W x + b on flattened images, optionally through a softmax head."""

    has_vjp = True

    def __init__(self, weights, bias=None, image_shape=None, target: str = "probs"):
        self.weights = np.asarray(weights, dtype=np.float64)
        if self.weights.ndim != 2:
            raise InvalidInputError(f"weights must be (K, D), got {self.weights.shape}")
        k, d = self.weights.shape
        self.bias = np.zeros(k) if bias is None else np.asarray(bias, dtype=np.float64)
        if self.bias.shape != (k,):
            raise InvalidInputError(f"bias must have shape ({k},), got {self.bias.shape}")
        self.image_shape = image_shape if image_shape is not None else (1, 1, d)
        if int(np.prod(self.image_shape)) != d:
            raise InvalidInputError(f"image_shape {self.image_shape} does not flatten to D={d}")
        self.target = _check_target(target)
        self.n_outputs = k

    def predict(self, batch: np.ndarray) -> np.ndarray:
        flat = np.asarray(batch, dtype=np.float64).reshape(len(batch), -1)
        z = flat @ self.weights.T + self.bias
        return softmax(z) if self.target == "probs" else z

    def vjp(self, x, v):
        out = vjp_linear_softmax(self.weights, self.bias, np.ravel(x), v, self.target)
        return out.reshape(self.image_shape)

    def sq_vjp_norms(self, batch, vs):
        vs = np.asarray(vs, dtype=np.float64)
        if self.target == "probs":
            vs = _probs_cotangents(self.predict(batch), vs)
        return _sq_row_norms(vs, self.weights)


class MlpPredictor(Predictor):
    """One-hidden-layer network: softmax(W2 tanh(W1 x + b1) + b2)."""

    has_vjp = True

    def __init__(self, w1, b1, w2, b2, image_shape=None, target: str = "probs"):
        self.w1 = np.asarray(w1, dtype=np.float64)
        self.b1 = np.asarray(b1, dtype=np.float64)
        self.w2 = np.asarray(w2, dtype=np.float64)
        self.b2 = np.asarray(b2, dtype=np.float64)
        if self.w1.ndim != 2 or self.w2.ndim != 2:
            raise InvalidInputError("w1 and w2 must be matrices")
        hidden, d = self.w1.shape
        k, hidden2 = self.w2.shape
        if hidden != hidden2 or self.b1.shape != (hidden,) or self.b2.shape != (k,):
            raise InvalidInputError("inconsistent MLP weight shapes")
        self.image_shape = image_shape if image_shape is not None else (1, 1, d)
        if int(np.prod(self.image_shape)) != d:
            raise InvalidInputError(f"image_shape {self.image_shape} does not flatten to D={d}")
        self.target = _check_target(target)
        self.n_outputs = k

    def _forward(self, flat: np.ndarray):
        h = np.tanh(flat @ self.w1.T + self.b1)
        z = h @ self.w2.T + self.b2
        return h, z

    def predict(self, batch: np.ndarray) -> np.ndarray:
        flat = np.asarray(batch, dtype=np.float64).reshape(len(batch), -1)
        _, z = self._forward(flat)
        return softmax(z) if self.target == "probs" else z

    def _hidden_cotangents(self, batch, vs) -> np.ndarray:
        """(B, P, hidden) cotangents at the pre-activations W1 x + b1 for (B, P, K) ``vs``."""
        flat = np.asarray(batch, dtype=np.float64).reshape(len(batch), -1)
        h, z = self._forward(flat)
        vs = np.asarray(vs, dtype=np.float64)
        if self.target == "probs":
            vs = _probs_cotangents(softmax(z), vs)
        return (vs @ self.w2) * (1.0 - h**2)[:, None, :]

    def vjp(self, x, v):
        gu = self._hidden_cotangents(np.asarray(x)[None], np.asarray(v)[None, None])
        return (gu[0, 0] @ self.w1).reshape(self.image_shape)

    def sq_vjp_norms(self, batch, vs):
        return _sq_row_norms(self._hidden_cotangents(batch, vs), self.w1)


class CallablePredictor(Predictor):
    """Wraps a black-box batch->outputs callable; Jacobians come from finite differences."""

    def __init__(self, fn, n_outputs: int, image_shape, target: str = "probs"):
        self.fn = fn
        self.n_outputs = int(n_outputs)
        self.image_shape = tuple(image_shape)
        self.target = _check_target(target)

    def predict(self, batch: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(np.asarray(batch, dtype=np.float64)), dtype=np.float64)


def fd_directional_derivative(predictor: Predictor, x, u, eps: float = DEFAULT_FD_EPS) -> np.ndarray:
    """Central-difference directional derivative (f(x + eps*u) - f(x - eps*u)) / (2 eps)."""
    if eps <= 0:
        raise InvalidInputError("eps must be > 0")
    x = np.asarray(x, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    if u.shape != x.shape:
        raise InvalidInputError(f"direction shape {u.shape} != input shape {x.shape}")
    norm = np.sqrt(np.sum(u * u))
    if abs(norm - 1.0) > 1e-9:
        raise InvalidInputError(f"direction must be a unit vector, got norm {norm}")
    return _central_differences(predictor, x, (eps * u)[None], eps)[0]


def _central_differences(predictor: Predictor, x, steps, eps: float) -> np.ndarray:
    """(P, K) central differences (f(x + d) - f(x - d)) / (2 eps) along P steps d = eps * u.

    One ``predict`` call takes all 2P perturbed images, in a fresh array: a
    black-box predictor may keep the batch it was given.
    """
    p = len(steps)
    batch = np.empty((2 * p,) + x.shape)
    np.add(x, steps, out=batch[:p])
    np.subtract(x, steps, out=batch[p:])
    out = predictor.predict(batch)
    return (out[:p] - out[p:]) / (2.0 * eps)


def _unit_rows(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    """n uniform unit vectors in R^dim: normalised Gaussian rows, a zero row redrawn."""
    g = rng.standard_normal((n, dim))
    norms = np.sqrt(np.sum(g * g, axis=1))
    while not norms.all():
        i = int(np.argmin(norms))
        g[i] = rng.standard_normal(dim)
        norms[i] = np.sqrt(np.sum(g[i] * g[i]))
    return g / norms[:, None]


def _sign_bits(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    """(n, dim) uniform bits from the first n*dim bits of ``rng.bytes``; a 1 marks a -1 sign.

    Row j gives the unit direction u_j = s_j / sqrt(dim) with s_j = 1 - 2 * bits[j].
    """
    raw = np.frombuffer(rng.bytes(-(-n * dim // 8)), dtype=np.uint8)
    return np.unpackbits(raw, count=n * dim).reshape(n, dim)


def estimate_jacobian_norm(predictor: Predictor, batch, config: JacobianConfig) -> JacobianEstimate:
    """Estimate the (root-mean-square over the batch) Jacobian Frobenius norm.

    Each of the B samples draws its n_proj projections from one RNG stream
    keyed by (seed, sample): unit-sphere cotangents for the VJP route, sign
    directions from the stream's raw bytes for the finite-difference route.
    The reduction runs in (sample, projection) order so results are
    bit-stable per seed.
    """
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 4:
        raise InvalidInputError(f"batch must be (B, C, H, W), got shape {batch.shape}")
    if len(batch) != config.batch_size:
        raise InvalidInputError(
            f"batch has {len(batch)} samples but config.batch_size is {config.batch_size}"
        )
    k = predictor.n_outputs
    if k < 1:
        raise InvalidInputError("predictor must declare n_outputs >= 1")
    d = int(np.prod(batch.shape[1:]))
    method = "vjp" if predictor.has_vjp else "fd"

    rngs = [np.random.default_rng([config.seed, s]) for s in range(config.batch_size)]
    if method == "vjp":
        vs = np.stack([_unit_rows(rng, config.n_proj, k) for rng in rngs])
        estimates = k * predictor.sq_vjp_norms(batch, vs)
    else:
        # eps * u_j = +-step exactly, with step = eps * (1 / sqrt(D)) rounded once.
        step = config.fd_eps * (1.0 / np.sqrt(d))
        estimates = np.empty((config.batch_size, config.n_proj))
        for s, (x, rng) in enumerate(zip(batch, rngs)):
            bits = _sign_bits(rng, config.n_proj, d).reshape((config.n_proj,) + x.shape)
            steps = bits * (-2.0 * step)
            steps += step
            ju = _central_differences(predictor, x, steps, config.fd_eps)
            estimates[s] = d * np.sum(ju * ju, axis=1)
    estimates = estimates.ravel()

    n = estimates.size
    mean = float(estimates.mean())
    std = float(estimates.std(ddof=1)) if n > 1 else 0.0
    half = 1.96 * std / np.sqrt(n)
    return JacobianEstimate(
        frobenius_norm=float(np.sqrt(mean)),
        ci95_low=float(np.sqrt(max(mean - half, 0.0))),
        ci95_high=float(np.sqrt(mean + half)),
        n_estimates=int(n),
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
    """Inverse of pack_mlp_weights."""
    packed = np.asarray(packed, dtype=np.float64).ravel()
    if packed.size < 3:
        raise InvalidInputError("packed MLP weights must start with [D, hidden, K]")
    d, hidden, k = (int(v) for v in packed[:3])
    expected = 3 + hidden * d + hidden + k * hidden + k
    if packed.size != expected:
        raise InvalidInputError(
            f"packed MLP weights have {packed.size} values, expected {expected} "
            f"for D={d}, hidden={hidden}, K={k}"
        )
    pos = 3
    w1 = packed[pos : pos + hidden * d].reshape(hidden, d)
    pos += hidden * d
    b1 = packed[pos : pos + hidden]
    pos += hidden
    w2 = packed[pos : pos + k * hidden].reshape(k, hidden)
    pos += k * hidden
    b2 = packed[pos : pos + k]
    return MlpPredictor(w1, b1, w2, b2, image_shape=image_shape, target=target)


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

    Plain cross-entropy descent, deterministic given the seed.
    """
    images = np.asarray(images, dtype=np.float64)
    labels = np.asarray(labels)
    if images.ndim != 4 or len(images) != len(labels):
        raise InvalidInputError("expected (N, C, H, W) images with matching labels")
    image_shape = images.shape[1:]
    n_classes = int(labels.max()) + 1
    if n_classes < 2:
        raise InvalidInputError("need at least 2 classes")
    d = int(np.prod(image_shape))
    rng = np.random.default_rng([seed, 13])
    w1 = rng.normal(0.0, 1.0 / np.sqrt(d), size=(hidden, d))
    b1 = np.zeros(hidden)
    w2 = rng.normal(0.0, 1.0 / np.sqrt(hidden), size=(n_classes, hidden))
    b2 = np.zeros(n_classes)

    flat = images.reshape(len(images), -1)
    onehot = np.eye(n_classes)[labels]
    n = len(flat)
    for _ in range(epochs):
        hid = np.tanh(flat @ w1.T + b1)
        probs = softmax(hid @ w2.T + b2)
        dz = (probs - onehot) / n  # cross-entropy + softmax gradient
        gw2 = dz.T @ hid
        gb2 = dz.sum(axis=0)
        dh = (dz @ w2) * (1.0 - hid**2)
        gw1 = dh.T @ flat
        gb1 = dh.sum(axis=0)
        w2 -= lr * gw2
        b2 -= lr * gb2
        w1 -= lr * gw1
        b1 -= lr * gb1

    return MlpPredictor(w1, b1, w2, b2, image_shape=image_shape, target=target)


def train_blob_mlp(
    image_shape: tuple[int, int, int] = (1, 8, 8),
    n_classes: int = 2,
    hidden: int = 16,
    n_per_class: int = 100,
    epochs: int = 300,
    lr: float = 0.5,
    seed: int = 0,
    target: str = "probs",
) -> tuple[MlpPredictor, np.ndarray, np.ndarray]:
    """Fit the built-in MLP to a fresh synthetic blob dataset.

    Deterministic given the seed. Returns (predictor, images, labels) so
    callers can reuse the training data as a desk-scale dataset.
    """
    images, labels = make_blobs(image_shape, n_classes, n_per_class, seed=seed)
    predictor = fit_mlp(images, labels, hidden, epochs, lr, seed=seed, target=target)
    return predictor, images, labels
