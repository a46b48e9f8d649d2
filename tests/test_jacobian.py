import re

import numpy as np
import pytest

from spectral_robustness import (
    CallablePredictor,
    InvalidInputError,
    JacobianConfig,
    LinearPredictor,
    MlpPredictor,
    Predictor,
    estimate_jacobian_norm,
    fit_mlp,
    make_blobs,
)
from spectral_robustness.jacobian import (
    DEFAULT_FD_EPS,
    _step_table,
    _unit_rows,
    pack_mlp_weights,
    unpack_mlp_weights,
)
from spectral_robustness import jacobian, spectral
from spectral_robustness.path_metrics import summarize_gaussian


def random_linear(seed, k=10, d=50, target="logits"):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(k, d))
    b = rng.normal(size=k)
    return LinearPredictor(w, b, image_shape=(1, 1, d), target=target)


class TestLinearPredictorVjp:
    def test_logits_basis_vector_returns_weight_row(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=(4, 6))
        b = rng.normal(size=4)
        x = rng.normal(size=6)
        for k in range(4):
            v = np.zeros(4)
            v[k] = 1.0
            assert np.allclose(LinearPredictor(w, b, target="logits").vjp(x, v), w[k])

    def test_probs_at_uniform_point(self):
        # All logits equal => p = (1/2, 1/2); (diag(p) - p p^T) e_0 = (1/4, -1/4).
        w = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        b = np.zeros(2)
        x = np.zeros(3)
        out = LinearPredictor(w, b, target="probs").vjp(x, np.array([1.0, 0.0]))
        assert np.allclose(out, 0.25 * (w[0] - w[1]))

    def test_matches_central_difference(self):
        rng = np.random.default_rng(1)
        for target in ("logits", "probs"):
            w = rng.normal(size=(3, 5))
            b = rng.normal(size=3)
            x = rng.normal(size=5)
            v = rng.normal(size=3)
            analytic = LinearPredictor(w, b, target=target).vjp(x, v).ravel()

            def f(xx):
                z = w @ xx + b
                return softmax_by_formula(z) if target == "probs" else z

            eps = 1e-6
            fd = np.empty(5)
            for i in range(5):
                e = np.zeros(5)
                e[i] = eps
                fd[i] = v @ (f(x + e) - f(x - e)) / (2 * eps)
            assert np.abs(analytic - fd).max() < 1e-5

    @pytest.mark.parametrize(
        "weights, bias, message",
        [
            (np.zeros(3), None, r"weights must be \(K, D\), got \(3,\)"),
            (np.zeros((2, 3, 1)), None, r"weights must be \(K, D\), got \(2, 3, 1\)"),
            (np.zeros((2, 3)), np.zeros(3), r"bias must have shape \(2,\), got \(3,\)"),
            (np.zeros((2, 3)), np.zeros((2, 1)), r"bias must have shape \(2,\), got \(2, 1\)"),
        ],
        ids=["1-d-weights", "3-d-weights", "long-bias", "2-d-bias"],
    )
    def test_bad_weight_shapes_rejected(self, weights, bias, message):
        with pytest.raises(InvalidInputError, match=message):
            LinearPredictor(weights, bias)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("part", ["weights", "bias"])
    def test_non_finite_parameters_rejected(self, part, bad):
        params = {"weights": np.ones((2, 3)), "bias": np.zeros(2)}
        params[part][-1, ...] = bad
        with pytest.raises(InvalidInputError, match="^weights and biases must be finite$"):
            LinearPredictor(**params)


def random_mlp(seed, hidden=7, d=12, k=4, target="probs", image_shape=None):
    rng = np.random.default_rng(seed)
    return MlpPredictor(
        rng.normal(size=(hidden, d)),
        rng.normal(size=hidden),
        rng.normal(size=(k, hidden)),
        rng.normal(size=k),
        image_shape=image_shape or (1, 3, d // 3),
        target=target,
    )


def blob_mlp(image_shape=(1, 8, 8), n_classes=2, n_per_class=100, seed=0):
    """(predictor, images, labels): ``fit_mlp``, with its defaults, on ``make_blobs`` data, both at ``seed``."""
    images, labels = make_blobs(image_shape, n_classes, n_per_class, seed=seed)
    return fit_mlp(images, labels, seed=seed), images, labels


def central_difference(predictor, x, u, eps):
    """The oracle (predict(x + eps*u) - predict(x - eps*u)) / (2 eps), one image per call."""
    plus = predictor.predict((x + eps * u)[None])[0]
    minus = predictor.predict((x - eps * u)[None])[0]
    return (plus - minus) / (2.0 * eps)


def sign_bits(rng, n, d):
    """(n, d) bits, the first n*d of ``rng.bytes`` most significant first; a 1 marks a -1 sign."""
    raw = np.frombuffer(rng.bytes(-(-n * d // 8)), dtype=np.uint8)
    return np.unpackbits(raw, count=n * d).reshape(n, d)


def sign_directions(rng, n, image_shape):
    """The estimator's finite-difference directions s / sqrt(D), s in {-1, +1}^D, as images."""
    d = int(np.prod(image_shape))
    return ((1.0 - 2.0 * sign_bits(rng, n, d)) / np.sqrt(d)).reshape((n,) + tuple(image_shape))


def kept_batches(predictor_fn, n_outputs, batch, n_proj, seed):
    """Every batch a black-box predictor is handed during one finite-difference estimate."""
    kept = []

    def fn(b):
        kept.append(b)
        return predictor_fn(b)

    predictor = CallablePredictor(fn, n_outputs, batch.shape[1:])
    estimate_jacobian_norm(predictor, batch, JacobianConfig(n_proj, len(batch), seed=seed))
    return kept


def mlp_coverage_hits(n_classes, black_box, reps=100):
    """How many of ``reps`` seeds give a CI covering a blob MLP's exact batch norm.

    The exact norm comes from VJPs on the K basis vectors; the pooled CI
    treats a sample's projections as i.i.d. although they share J(x), and
    must still cover this fixed-batch target. ``black_box`` wraps the MLP in
    a CallablePredictor, so the estimate takes finite differences.
    """
    mlp, images, _ = blob_mlp((1, 8, 8), n_classes, seed=0)
    batch = images[::n_classes]
    basis = np.eye(n_classes)
    exact = np.sqrt(np.mean([sum(np.sum(mlp.vjp(x, e) ** 2) for e in basis) for x in batch]))
    predictor = CallablePredictor(mlp.predict, n_classes, (1, 8, 8)) if black_box else mlp
    hits = 0
    for rep in range(reps):
        est = estimate_jacobian_norm(predictor, batch, JacobianConfig(10, 100, seed=2000 + rep))
        assert est.method == ("fd" if black_box else "vjp")
        hits += est.ci95_low <= exact <= est.ci95_high
    return hits


class TestSqVjpNorms:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: random_linear(30, k=5, d=12, target="logits"),
            lambda: random_linear(31, k=5, d=12, target="probs"),
            lambda: random_mlp(32, target="logits"),
            lambda: random_mlp(33, target="probs"),
        ],
        ids=["linear-logits", "linear-probs", "mlp-logits", "mlp-probs"],
    )
    def test_matches_direct_vjp(self, make):
        predictor = make()
        rng = np.random.default_rng(35)
        batch = rng.normal(size=(6, 1, 3, 4))
        vs = rng.normal(size=(6, 3, predictor.n_outputs))
        got = predictor.sq_vjp_norms(batch, vs)
        want = np.array(
            [[np.sum(predictor.vjp(x, v) ** 2) for v in row] for x, row in zip(batch, vs)]
        )
        assert got.shape == (6, 3)
        assert np.allclose(got, want, rtol=1e-10, atol=0)

    def test_base_predictor_has_no_vjp(self):
        # sq_vjp_norms is the one VJP entry point; a predictor without it takes finite differences.
        predictor = Predictor()
        assert not predictor.has_vjp
        assert not hasattr(predictor, "vjp")
        with pytest.raises(NotImplementedError):
            predictor.sq_vjp_norms(np.zeros((1, 1, 2, 2)), np.zeros((1, 1, 2)))

    def test_route_follows_the_override(self):
        # A subclass that overrides sq_vjp_norms takes the VJP route without setting has_vjp.
        class Unit(Predictor):
            target, n_outputs = "logits", 1

            def sq_vjp_norms(self, batch, vs):
                return np.ones(vs.shape[:2])

        est = estimate_jacobian_norm(Unit(), np.zeros((3, 1, 2, 2)), JacobianConfig(2, 3, seed=0))
        assert (est.method, est.frobenius_norm) == ("vjp", 1.0)
        assert random_mlp(34).has_vjp and random_linear(35).has_vjp
        assert not CallablePredictor(np.tanh, 1, (1, 2, 2)).has_vjp


BUILTINS = [
    lambda: random_linear(60, k=5, d=12, target="logits"),
    lambda: random_linear(61, k=5, d=12, target="probs"),
    lambda: random_mlp(62, target="logits"),
    lambda: random_mlp(63, target="probs"),
]
BUILTIN_IDS = ["linear-logits", "linear-probs", "mlp-logits", "mlp-probs"]


class TestPixelCount:
    """The built-in predictors take only non-empty batches of D-value images."""

    @pytest.mark.parametrize("make", BUILTINS, ids=BUILTIN_IDS)
    @pytest.mark.parametrize(
        "shape, message",
        [((5, 1, 3, 5), "got 5 of shape (1, 3, 5)"), ((0, 1, 3, 4), "got 0 of shape (1, 3, 4)"),
         ((5, 13), "got 5 of shape (13,)"), ((12,), "got 12 of shape ()")],
        ids=["wrong-pixels", "empty", "flat-wrong", "one-flat-image"],
    )
    @pytest.mark.parametrize("method", ["predict", "sq_vjp_norms"])
    def test_batch_of_other_images_rejected(self, make, shape, message, method):
        predictor = make()
        batch = np.zeros(shape)
        args = (batch,) if method == "predict" else (batch, np.zeros((shape[0], 2, predictor.n_outputs)))
        with pytest.raises(InvalidInputError) as info:
            getattr(predictor, method)(*args)
        assert str(info.value) == f"batch must hold at least one image of D=12 values, {message}"

    @pytest.mark.parametrize("make", BUILTINS, ids=BUILTIN_IDS)
    def test_vjp_of_an_image_of_other_size_rejected(self, make):
        predictor = make()
        with pytest.raises(InvalidInputError, match=re.escape("D=12 values, got 1 of shape (1, 3, 5)")):
            predictor.vjp(np.zeros((1, 3, 5)), np.ones(predictor.n_outputs))
        # A flat image of D values is an image.
        flat = predictor.vjp(np.zeros(12), np.ones(predictor.n_outputs))
        assert np.array_equal(flat, predictor.vjp(np.zeros((1, 3, 4)), np.ones(predictor.n_outputs)))

    @pytest.mark.parametrize("make", BUILTINS, ids=BUILTIN_IDS)
    def test_estimate_on_images_of_other_size_rejected(self, make):
        with pytest.raises(InvalidInputError, match=re.escape("D=12 values, got 5 of shape (1, 3, 5)")):
            estimate_jacobian_norm(make(), np.zeros((5, 1, 3, 5)), JacobianConfig(2, 5, seed=0))

    @pytest.mark.parametrize("make", BUILTINS, ids=BUILTIN_IDS)
    @pytest.mark.parametrize("bad", ["samples", "outputs", "2d", "4d"])
    def test_cotangents_of_other_shape_rejected(self, make, bad):
        predictor = make()
        k = predictor.n_outputs
        shape = {"samples": (4, 2, k), "outputs": (5, 2, k + 1), "2d": (5, 2), "4d": (5, 1, 2, k)}[bad]
        with pytest.raises(InvalidInputError) as info:
            predictor.sq_vjp_norms(np.zeros((5, 1, 3, 4)), np.zeros(shape))
        assert str(info.value) == f"vs must be (B, P, K) = (5, P, {k}), got {shape}"

    @pytest.mark.parametrize("shape", [(5, 1, 8, 8), (5, 3, 32, 31), (5, 3072), (3072,)], ids=str)
    def test_callable_predictor_rejects_images_of_other_shape(self, shape):
        calls = []
        predictor = CallablePredictor(lambda b: calls.append(b) or np.zeros((len(b), 2)), 2, (3, 32, 32))
        message = f"batch images must have shape (3, 32, 32), got {shape[1:]}"
        with pytest.raises(InvalidInputError) as info:
            predictor.predict(np.zeros(shape))
        assert str(info.value) == message
        if len(shape) == 4:
            with pytest.raises(InvalidInputError) as info:
                estimate_jacobian_norm(predictor, np.zeros(shape), JacobianConfig(2, 5, seed=0))
            assert str(info.value) == message
        assert calls == []
        assert predictor.predict(np.zeros((4, 3, 32, 32))).shape == (4, 2)

    def test_linear_logits_norms_never_run_the_forward_pass(self, monkeypatch):
        rng = np.random.default_rng(64)
        predictor = random_linear(65, k=5, d=12, target="logits")
        batch = rng.normal(size=(7, 1, 3, 4))
        vs = rng.normal(size=(7, 3, 5))
        want = jacobian._sq_row_norms(vs, predictor.weights)
        forwards = []
        monkeypatch.setattr(LinearPredictor, "_forward", lambda self, flat: forwards.append(flat))
        got = predictor.sq_vjp_norms(batch, vs)
        assert forwards == []
        # J = W: the norms are those of the cotangents through W, bit for bit.
        assert got.tobytes() == want.tobytes()
        est = estimate_jacobian_norm(predictor, batch, JacobianConfig(3, 7, seed=66))
        assert forwards == [] and est.method == "vjp"


class TestFiniteDifference:
    def test_exact_on_linear_map(self):
        predictor = random_linear(2, k=3, d=4)
        x = np.random.default_rng(3).normal(size=(1, 1, 4))
        u = np.zeros((1, 1, 4))
        u[0, 0, 1] = 1.0
        out = central_difference(predictor, x, u, eps=0.37)
        assert np.abs(out - predictor.weights[:, 1]).max() < 1e-9

    def test_componentwise_square(self):
        predictor = CallablePredictor(
            lambda batch: batch.reshape(len(batch), -1) ** 2, 1, (1, 1, 1), target="logits"
        )
        out = central_difference(predictor, np.full((1, 1, 1), 3.0), np.ones((1, 1, 1)), eps=1e-3)
        assert abs(out[0] - 6.0) < 1e-6

    def test_mlp_matches_analytic_jvp(self):
        rng = np.random.default_rng(4)
        mlp = MlpPredictor(
            rng.normal(size=(8, 6)),
            rng.normal(size=8),
            rng.normal(size=(3, 8)),
            rng.normal(size=3),
            image_shape=(1, 1, 6),
        )
        x = rng.normal(size=(1, 1, 6))
        u = rng.normal(size=(1, 1, 6))
        u /= np.linalg.norm(u)

        flat = x.ravel()
        h = np.tanh(mlp.w1 @ flat + mlp.b1)
        p = softmax_by_formula(mlp.w2 @ h + mlp.b2)
        dz = mlp.w2 @ ((1 - h**2) * (mlp.w1 @ u.ravel()))
        jvp = p * dz - p * (p @ dz)

        fd = central_difference(mlp, x, u, eps=1e-4)
        assert np.abs(fd - jvp).max() < 1e-4


class TestEstimateJacobianNorm:
    def test_linear_logits_matches_closed_form(self):
        predictor = random_linear(6)
        true_norm = np.linalg.norm(predictor.weights)
        batch = np.random.default_rng(7).normal(size=(400, 1, 1, 50))
        config = JacobianConfig(n_proj=10, batch_size=400, seed=1)
        est = estimate_jacobian_norm(predictor, batch, config)
        assert est.n_estimates == 4000
        assert abs(est.frobenius_norm - true_norm) / true_norm < 0.05
        assert est.ci95_low <= est.frobenius_norm <= est.ci95_high

    def test_zero_weights_give_exact_zero(self):
        predictor = LinearPredictor(np.zeros((5, 8)), target="logits", image_shape=(1, 2, 4))
        batch = np.zeros((10, 1, 2, 4))
        est = estimate_jacobian_norm(predictor, batch, JacobianConfig(2, 10, seed=0))
        assert est.frobenius_norm == 0.0
        assert est.ci95_low == est.ci95_high == 0.0

    def test_scalar_map_is_exact_with_zero_width_ci(self):
        a = -2.5
        predictor = LinearPredictor(np.array([[a]]), target="logits", image_shape=(1, 1, 1))
        batch = np.random.default_rng(8).normal(size=(6, 1, 1, 1))
        est = estimate_jacobian_norm(predictor, batch, JacobianConfig(3, 6, seed=2))
        assert est.frobenius_norm == pytest.approx(abs(a), abs=1e-12)
        assert est.ci95_high - est.ci95_low < 1e-9

    def test_deterministic_given_seed(self):
        predictor = random_linear(9, k=4, d=12)
        batch = np.random.default_rng(10).normal(size=(20, 1, 1, 12))
        config = JacobianConfig(5, 20, seed=3)
        a = estimate_jacobian_norm(predictor, batch, config)
        b = estimate_jacobian_norm(predictor, batch, config)
        assert a == b

    def test_scale_equivariance_with_paired_seeds(self):
        rng = np.random.default_rng(11)
        w = rng.normal(size=(4, 9))
        batch = rng.normal(size=(30, 1, 1, 9))
        config = JacobianConfig(4, 30, seed=4)
        base = estimate_jacobian_norm(
            LinearPredictor(w, target="logits", image_shape=(1, 1, 9)), batch, config
        )
        scaled = estimate_jacobian_norm(
            LinearPredictor(3.0 * w, target="logits", image_shape=(1, 1, 9)), batch, config
        )
        assert scaled.frobenius_norm == pytest.approx(3.0 * base.frobenius_norm, rel=1e-12)

    def test_fd_fallback_on_black_box_linear(self):
        rng = np.random.default_rng(12)
        w = rng.normal(size=(3, 16))
        predictor = CallablePredictor(
            lambda batch: batch.reshape(len(batch), -1) @ w.T, 3, (1, 4, 4), target="logits"
        )
        batch = rng.normal(size=(100, 1, 4, 4))
        est = estimate_jacobian_norm(predictor, batch, JacobianConfig(20, 100, seed=5))
        assert est.method == "fd"
        true_norm = np.linalg.norm(w)
        assert abs(est.frobenius_norm - true_norm) / true_norm < 0.1

    def test_fd_estimate_equals_per_direction_derivatives(self):
        mlp = random_mlp(40, hidden=6, d=12, k=3)
        predictor = CallablePredictor(mlp.predict, 3, (1, 3, 4))
        batch = np.random.default_rng(41).normal(size=(7, 1, 3, 4))
        est = estimate_jacobian_norm(predictor, batch, JacobianConfig(5, 7, seed=42))
        per_direction = []
        rng = np.random.default_rng(42)
        for x in batch:
            for u in sign_directions(rng, 5, x.shape):
                ju = central_difference(predictor, x, u, DEFAULT_FD_EPS)
                per_direction.append(12 * np.sum(ju * ju))
        assert est.method == "fd"
        assert est.frobenius_norm == pytest.approx(np.sqrt(np.mean(per_direction)), rel=1e-9)

    def test_sign_directions_are_uniform_signs(self):
        # Zero images: each perturbed image is +-eps * u, so its signs are the directions'.
        zeros = np.zeros((2, 1, 1, 1000))
        kept = kept_batches(lambda b: b.reshape(len(b), -1)[:, :2], 2, zeros, 20, seed=45)
        ups = np.concatenate([b[:20] for b in kept]).reshape(40, 1000)
        step = DEFAULT_FD_EPS * (1.0 / np.sqrt(1000))
        assert set(np.unique(ups)) == {-step, step}
        # 40,000 fair signs: the count of minus signs is within 5 standard deviations of 20,000.
        assert abs(int(np.sum(ups < 0)) - 20000) < 5 * 100
        # Samples take consecutive bits of one stream, with no reuse across samples.
        (once,) = kept_batches(lambda b: b.reshape(len(b), -1)[:, :2], 2, zeros[:1], 40, seed=45)
        assert np.array_equal(ups, once[:40].reshape(40, 1000))

    def test_step_table_rows_follow_the_bits_of_their_byte(self):
        table = _step_table(0.25)
        bits = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)
        assert table.shape == (256, 8)
        assert np.array_equal(table, 0.25 - 0.5 * bits)

    @pytest.mark.parametrize(
        "image_shape, n_proj",
        [((1, 3, 4), 3), ((1, 2, 4), 3), ((2, 4, 4), 2), ((1, 3, 4), 1), ((3, 5, 7), 1),
         ((1, 1, 1), 3), ((1, 1, 2), 1)],
        ids=["pd36", "pd24", "pd64", "one-projection", "one-projection-pd105", "pd3", "pd2"],
    )
    def test_fd_batches_are_fresh_and_hold_the_perturbations(self, image_shape, n_proj):
        d = int(np.prod(image_shape))
        mlp = random_mlp(46, hidden=5, d=d, k=3, image_shape=image_shape)
        batch = np.random.default_rng(47).normal(size=(4,) + image_shape)
        eps = DEFAULT_FD_EPS
        kept = kept_batches(mlp.predict, 3, batch, n_proj, seed=48)
        assert len(kept) == 4
        assert len({id(seen) for seen in kept}) == 4
        rng = np.random.default_rng(48)
        for x, seen in zip(batch, kept):
            us = sign_directions(rng, n_proj, x.shape)
            assert np.array_equal(seen, np.concatenate([x + eps * us, x - eps * us]))

    @pytest.mark.parametrize(
        "image_shape, n_proj, block_pixels",
        [((1, 3, 4), 3, 2), ((1, 3, 4), 3, 1), ((1, 2, 4), 3, 3), ((1, 1, 1), 7, 1), ((3, 5, 7), 1, 6)],
        ids=["bytes5-two-per-block", "bytes5-one-per-block", "bytes3", "bytes1", "bytes14"],
    )
    def test_batches_spanning_draw_blocks_follow_one_bytes_call_per_sample(
        self, monkeypatch, image_shape, n_proj, block_pixels
    ):
        # A block holds about _CHUNK_PIXELS float64 of sign bytes: a ceil(n_bytes / 8)-pixel item.
        monkeypatch.setattr(spectral, "_CHUNK_PIXELS", block_pixels)
        d = int(np.prod(image_shape))
        n_bytes = -(-n_proj * d // 8)
        assert len(spectral.chunk_slices(7, -(-n_bytes // 8))) >= 2
        mlp = random_mlp(67, hidden=5, d=d, k=3, image_shape=image_shape)
        batch = np.random.default_rng(68).normal(size=(7,) + image_shape)
        kept = kept_batches(mlp.predict, 3, batch, n_proj, seed=69)
        rng = np.random.default_rng(69)
        for x, seen in zip(batch, kept):
            us = sign_directions(rng, n_proj, x.shape)
            assert np.array_equal(seen, np.concatenate([x + DEFAULT_FD_EPS * us, x - DEFAULT_FD_EPS * us]))

    def test_cifar_batch_spanning_two_default_blocks_follows_the_oracle(self):
        # 10 projections of 3x32x32 take 3840 sign bytes a sample: 136 samples a 512 KiB block.
        image_shape = (3, 32, 32)
        assert len(spectral.chunk_slices(137, 3840 // 8)) == 2
        batch = np.random.default_rng(70).normal(size=(137,) + image_shape)
        rng = np.random.default_rng(71)
        matches = []

        def checked(b):
            # Compared as each batch arrives: all 137 would take 67 MB.
            us = sign_directions(rng, 10, image_shape)
            matches.append(np.array_equal(b[:10], batch[len(matches)] + DEFAULT_FD_EPS * us))
            return b.reshape(len(b), -1)[:, :2]

        predictor = CallablePredictor(checked, 2, image_shape)
        estimate_jacobian_norm(predictor, batch, JacobianConfig(10, 137, seed=71))
        assert matches == [True] * 137

    def test_fd_route_draws_its_signs_once_per_block(self, monkeypatch):
        monkeypatch.setattr(spectral, "_CHUNK_PIXELS", 2)
        calls = []
        make = np.random.default_rng

        class Recording:
            """A generator that records each method called on it, with its size."""

            def __init__(self, *args):
                self.rng = make(*args)

            def __getattr__(self, name):
                method = getattr(self.rng, name)

                def recorded(*args, **kwargs):
                    calls.append((name, kwargs.get("size")))
                    return method(*args, **kwargs)

                return recorded

        mlp = random_mlp(72, hidden=5, d=12, k=3)
        batch = np.random.default_rng(73).normal(size=(5, 1, 3, 4))
        predictor = CallablePredictor(mlp.predict, 3, (1, 3, 4))
        monkeypatch.setattr(np.random, "default_rng", Recording)
        est = estimate_jacobian_norm(predictor, batch, JacobianConfig(3, 5, seed=74))
        # 36 signs a sample are 5 bytes, two uint32 words; blocks of two samples.
        assert est.method == "fd"
        assert calls == [("integers", (2, 2)), ("integers", (2, 2)), ("integers", (1, 2))]

    def test_sign_buffer_does_not_grow_with_the_batch(self, traced_peak):
        image_shape, n_proj = (1, 64, 64), 16
        n_bytes = n_proj * 4096 // 8
        step_bytes = 2 * n_proj * 4096 * 8
        predictor = CallablePredictor(lambda b: np.zeros((len(b), 1)), 1, image_shape, "logits")

        def peak(b):
            batch, config = np.zeros((b,) + image_shape), JacobianConfig(n_proj, b, seed=75)
            return traced_peak(lambda: estimate_jacobian_norm(predictor, batch, config))[1]

        small, large = peak(64), peak(512)
        # Two samples' perturbed batches, one 512 KiB block of sign bytes and the outputs.
        assert large <= 2 * step_bytes + 8 * spectral._CHUNK_PIXELS + (1 << 19)
        # All 512 samples' sign bytes would add 448 * n_bytes (3.5 MiB) to the 64-sample peak.
        assert large - small < 448 * n_bytes // 8

    def test_fd_reads_each_output_before_predict_reuses_its_buffer(self):
        mlp = random_mlp(52, hidden=6, d=12, k=3)
        buffer = np.empty((8, 3))

        def reused(batch):
            buffer[...] = mlp.predict(batch)
            return buffer

        batch = np.random.default_rng(53).normal(size=(5, 1, 3, 4))
        config = JacobianConfig(4, 5, seed=54)
        fresh = estimate_jacobian_norm(CallablePredictor(mlp.predict, 3, (1, 3, 4)), batch, config)
        again = estimate_jacobian_norm(CallablePredictor(reused, 3, (1, 3, 4)), batch, config)
        assert again == fresh

    def test_fd_keeps_a_float32_predict_in_float32(self):
        mlp = random_mlp(49, hidden=6, d=12, k=3)

        class Float32Predictor(Predictor):
            n_outputs = 3

            def predict(self, batch):
                return mlp.predict(batch).astype(np.float32)

        batch = np.random.default_rng(50).normal(size=(6, 1, 3, 4))
        est = estimate_jacobian_norm(Float32Predictor(), batch, JacobianConfig(4, 6, seed=51))
        per_sample, wide = [], []
        rng = np.random.default_rng(51)
        for x in batch:
            us = sign_directions(rng, 4, x.shape)
            steps = DEFAULT_FD_EPS * us
            out = Float32Predictor().predict(np.concatenate([x + steps, x - steps]))
            ju = (out[:4] - out[4:]) / (2.0 * DEFAULT_FD_EPS)
            per_sample.append(12 * np.sum(ju * ju, axis=1))
            ju = (out[:4].astype(np.float64) - out[4:]) / (2.0 * DEFAULT_FD_EPS)
            wide.append(12 * np.sum(ju * ju, axis=1))
        assert per_sample[0].dtype == np.float32
        want = summarize_gaussian(np.concatenate(per_sample).astype(np.float64))
        assert est.frobenius_norm == np.sqrt(want.mean)
        assert (est.ci95_low, est.ci95_high) == (np.sqrt(max(want.ci95_low, 0.0)), np.sqrt(want.ci95_high))
        # The pin is sharp: float64 arithmetic on the same outputs gives another estimate.
        assert np.sqrt(summarize_gaussian(np.concatenate(wide)).mean) != est.frobenius_norm

    def test_fd_makes_one_predict_call_per_sample(self):
        w = np.random.default_rng(43).normal(size=(3, 16))
        calls = []

        def fn(batch):
            calls.append(len(batch))
            return batch.reshape(len(batch), -1) @ w.T

        predictor = CallablePredictor(fn, 3, (1, 4, 4), target="logits")
        batch = np.random.default_rng(44).normal(size=(9, 1, 4, 4))
        estimate_jacobian_norm(predictor, batch, JacobianConfig(6, 9, seed=0))
        assert calls == [12] * 9

    @pytest.mark.parametrize(
        "make",
        [
            lambda: random_linear(50, k=10, d=48, target="logits"),
            lambda: random_linear(51, k=10, d=48, target="probs"),
            lambda: random_mlp(52, hidden=16, d=48, k=10, target="probs"),
        ],
        ids=["linear-logits", "linear-probs", "mlp-probs"],
    )
    @pytest.mark.parametrize("seed", [0, 7])
    def test_vjp_estimate_equals_per_sample_cotangent_loop(self, make, seed):
        def unit_rows(rng, n, dim):
            g = rng.standard_normal((n, dim))
            norms = np.sqrt(np.sum(g * g, axis=1))
            while not norms.all():
                i = int(np.argmin(norms))
                g[i] = rng.standard_normal(dim)
                norms[i] = np.sqrt(np.sum(g[i] * g[i]))
            return g / norms[:, None]

        predictor = make()
        batch = np.random.default_rng(53).normal(size=(40, 1, 1, 48))
        # Sample s takes the s-th block of one stream's draws.
        rng = np.random.default_rng(seed)
        vs = np.stack([unit_rows(rng, 10, 10) for _ in range(40)])
        estimates = (10 * predictor.sq_vjp_norms(batch, vs)).ravel()
        mean = float(estimates.mean())
        half = 1.96 * float(estimates.std(ddof=1)) / np.sqrt(estimates.size)
        est = estimate_jacobian_norm(predictor, batch, JacobianConfig(10, 40, seed=seed))
        assert est.method == "vjp"
        assert est.frobenius_norm == float(np.sqrt(mean))
        assert est.ci95_low == float(np.sqrt(max(mean - half, 0.0)))
        assert est.ci95_high == float(np.sqrt(mean + half))

    def test_zero_direction_is_redrawn_from_the_same_stream(self):
        class Stream:
            def __init__(self, draws):
                self.draws = list(draws)

            def standard_normal(self, size=None):
                return np.array(self.draws.pop(0), dtype=np.float64).reshape(size)

        # One draw for every row, then the zero rows' redraws in (sample, row) order.
        stream = Stream(
            [
                [[[-2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [3.0, 4.0]]],
                [0.0, 0.0],
                [0.0, -2.0],
                [5.0, 0.0],
            ]
        )
        rows = _unit_rows(stream, 2, 2, 2)
        assert np.array_equal(rows, [[[-1.0, 0.0], [0.0, -1.0]], [[1.0, 0.0], [0.6, 0.8]]])
        assert stream.draws == []

    def test_prefix_of_a_batch_draws_the_same_cotangents(self):
        mlp = random_mlp(54, hidden=5, d=12, k=3)
        seen = []

        class Spy(MlpPredictor):
            def sq_vjp_norms(self, batch, vs):
                seen.append(vs)
                return super().sq_vjp_norms(batch, vs)

        spy = Spy(mlp.w1, mlp.b1, mlp.w2, mlp.b2, image_shape=(1, 3, 4))
        batch = np.random.default_rng(55).normal(size=(9, 1, 3, 4))
        for m in (9, 1, 8):
            estimate_jacobian_norm(spy, batch[:m], JacobianConfig(4, m, seed=56))
        full, first, most = seen
        assert full.shape == (9, 4, 3)
        assert np.array_equal(first, full[:1])
        assert np.array_equal(most, full[:8])

    @pytest.mark.parametrize("black_box", [False, True], ids=["vjp", "fd"])
    def test_one_generator_per_estimate(self, monkeypatch, black_box):
        mlp = random_mlp(57, hidden=4, d=12, k=3)
        predictor = CallablePredictor(mlp.predict, 3, (1, 3, 4)) if black_box else mlp
        batch = np.random.default_rng(58).normal(size=(50, 1, 3, 4))
        built = []
        make = np.random.default_rng

        def counting(*args, **kwargs):
            built.append(args)
            return make(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", counting)
        est = estimate_jacobian_norm(predictor, batch, JacobianConfig(5, 50, seed=59))
        assert est.method == ("fd" if black_box else "vjp")
        assert built == [(59,)]

    def test_ci_coverage_smoke(self):
        predictor = random_linear(13, k=6, d=20)
        true_norm = np.linalg.norm(predictor.weights)
        batch = np.random.default_rng(14).normal(size=(100, 1, 1, 20))
        hits = 0
        for rep in range(25):
            est = estimate_jacobian_norm(
                predictor, batch, JacobianConfig(10, 100, seed=1000 + rep)
            )
            hits += est.ci95_low <= true_norm <= est.ci95_high
        assert hits >= 20

    @pytest.mark.parametrize("n_classes", [2, 4])
    def test_ci_coverage_on_nonlinear_mlp(self, n_classes):
        assert mlp_coverage_hits(n_classes, black_box=False) >= 88

    @pytest.mark.parametrize("n_classes", [2, 4])
    def test_fd_ci_coverage_on_nonlinear_mlp(self, n_classes):
        assert mlp_coverage_hits(n_classes, black_box=True) >= 88

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("black_box", [False, True], ids=["vjp", "fd"])
    def test_non_finite_batch_rejected(self, bad, black_box):
        mlp = random_mlp(16, hidden=4, d=12, k=3)
        predictor = CallablePredictor(mlp.predict, 3, (1, 3, 4)) if black_box else mlp
        batch = np.random.default_rng(17).normal(size=(5, 1, 3, 4))
        batch[2, 0, 1, 3] = bad
        with pytest.raises(InvalidInputError, match="batch contains non-finite values"):
            estimate_jacobian_norm(predictor, batch, JacobianConfig(2, 5, seed=0))

    @pytest.mark.parametrize(
        "spoil, message",
        [
            (lambda out: out[:, :2], r"shape \(4, 2\) for sample 3, expected \(4, 3\)$"),
            (lambda out: out[:-1], r"shape \(3, 3\) for sample 3, expected \(4, 3\)$"),
            (lambda out: out.ravel(), r"shape \(12,\) for sample 3, expected \(4, 3\)$"),
            (lambda out: out * np.nan, "^predict outputs for sample 3 give a non-finite finite-diff"),
            (lambda out: out + np.inf, "^predict outputs for sample 3 give a non-finite finite-diff"),
            (lambda out: out * 1e200, "^predict outputs for sample 3 give a non-finite finite-diff"),
        ],
        ids=["columns", "rows", "flat", "nan", "inf", "1e200"],
    )
    def test_bad_black_box_output_rejected(self, spoil, message):
        mlp = random_mlp(18, hidden=4, d=12, k=3)
        calls = []

        def fn(batch):
            calls.append(len(batch))
            out = mlp.predict(batch)
            # Samples 3 and 4 get a bad output; the error names sample 3.
            return spoil(out) if len(calls) >= 4 else out

        predictor = CallablePredictor(fn, 3, (1, 3, 4))
        batch = np.random.default_rng(19).normal(size=(5, 1, 3, 4))
        with pytest.raises(InvalidInputError, match=message):
            estimate_jacobian_norm(predictor, batch, JacobianConfig(2, 5, seed=0))

    @pytest.mark.parametrize(
        "weight, black_box, message",
        [
            (1e160, False, "sq_vjp_norms gives a non-finite squared norm for sample 0"),
            (1.2e153, False, "sq_vjp_norms gives a non-finite squared norm for sample 1"),
            (1e153, True, "predict outputs for sample 0 give a non-finite finite-difference estimate"),
        ],
        ids=["vjp-1e160", "vjp-1.2e153", "fd-1e153"],
    )
    def test_norms_beyond_float64_rejected(self, weight, black_box, message):
        # Equal weights give every sample one Jacobian, of squared norm
        # K * D * weight**2 = 48 * weight**2: beyond float64 at 1e160, and one
        # sample's estimate beyond it at 1.2e153.
        linear = LinearPredictor(np.full((3, 16), weight), image_shape=(1, 4, 4), target="logits")
        predictor = CallablePredictor(linear.predict, 3, (1, 4, 4), "logits") if black_box else linear
        batch = np.random.default_rng(20).normal(size=(5, 1, 4, 4))
        with pytest.raises(InvalidInputError) as info:
            estimate_jacobian_norm(predictor, batch, JacobianConfig(4, 5, seed=0))
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "weight, black_box",
        [(1e150, False), (1e150, True), (1e152, False), (1e152, True), (1.1e153, False)],
        ids=["vjp-1e150", "fd-1e150", "vjp-1e152", "fd-1e152", "vjp-1.1e153"],
    )
    def test_norms_up_to_the_float64_range_returned(self, weight, black_box):
        # The squared estimates reach 1e308 at 1.1e153; their squared
        # deviations would overflow from about 1e154.
        def estimate(w):
            linear = LinearPredictor(np.full((3, 16), w), image_shape=(1, 4, 4), target="logits")
            predictor = CallablePredictor(linear.predict, 3, (1, 4, 4), "logits") if black_box else linear
            batch = np.random.default_rng(20).normal(size=(5, 1, 4, 4))
            return estimate_jacobian_norm(predictor, batch, JacobianConfig(4, 5, seed=0))

        big, unit = estimate(weight), estimate(1.0)
        assert 0 < big.ci95_low <= big.frobenius_norm <= big.ci95_high < np.inf
        # The finite-difference steps round differently at every weight.
        rtol = 1e-6 if black_box else 1e-12
        for got, expected in [(big.frobenius_norm, unit.frobenius_norm), (big.ci95_high, unit.ci95_high)]:
            assert got / weight == pytest.approx(expected, rel=rtol)

    def test_ci_beyond_float64_rejected(self):
        class Fixed(Predictor):
            target, n_outputs, has_vjp = "logits", 1, True

            def sq_vjp_norms(self, batch, vs):
                return np.array([[1.7e308, 0.0]])

        # Mean 8.5e307, std 1.2e308: the upper CI bound is about 2.5e308.
        with pytest.raises(InvalidInputError) as info:
            estimate_jacobian_norm(Fixed(), np.zeros((1, 1, 2, 2)), JacobianConfig(2, 1, seed=0))
        assert str(info.value) == "the squared norm estimates overflow float64 in their mean or 95% CI"

    def test_batch_size_mismatch_rejected(self):
        predictor = random_linear(15, k=2, d=4)
        with pytest.raises(InvalidInputError):
            estimate_jacobian_norm(
                predictor, np.zeros((5, 1, 1, 4)), JacobianConfig(2, 10, seed=0)
            )


def reference_fit(images, labels, hidden=16, epochs=300, lr=0.5, seed=0):
    """Full-batch descent updating W1 in every epoch: two (N, D) x (D, hidden) products each."""
    flat = images.reshape(len(images), -1)
    n, d = flat.shape
    k = int(labels.max()) + 1
    rng = np.random.default_rng([seed, 13])
    w1 = rng.normal(0.0, 1.0 / np.sqrt(d), size=(hidden, d))
    b1 = np.zeros(hidden)
    w2 = rng.normal(0.0, 1.0 / np.sqrt(hidden), size=(k, hidden))
    b2 = np.zeros(k)
    onehot = np.eye(k)[labels]
    for _ in range(epochs):
        hid = np.tanh(flat @ w1.T + b1)
        dz = (softmax_by_formula(hid @ w2.T + b2) - onehot) / n
        dh = (dz @ w2) * (1.0 - hid**2)
        w2 -= lr * (dz.T @ hid)
        b2 -= lr * dz.sum(axis=0)
        w1 -= lr * (dh.T @ flat)
        b1 -= lr * dh.sum(axis=0)
    return w1, b1, w2, b2


# (image_shape, n_classes, n_per_class): N = 45 <= D = 192 trains through the
# N x N Gram matrix, N = 200 > D = 64 through the images.
GRAM_SIDES = [((3, 8, 8), 3, 15), ((1, 8, 8), 2, 100)]
GRAM_SIDE_IDS = ["gram-n45-d192", "images-n200-d64"]


def softmax_by_formula(z):
    """Softmax as it first was: three new arrays."""
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def fit_by_formula(images, labels, hidden, epochs, lr, seed):
    """``fit_mlp``'s loop with a new array for every value: the operations, in order, that it reuses buffers for."""
    flat = images.reshape(len(images), -1)
    n, d = flat.shape
    k = int(labels.max()) + 1
    rng = np.random.default_rng([seed, 13])
    w1 = rng.normal(0.0, 1.0 / np.sqrt(d), size=(hidden, d))
    b1 = np.zeros(hidden)
    w2 = rng.normal(0.0, 1.0 / np.sqrt(hidden), size=(k, hidden))
    b2 = np.zeros(k)
    onehot = np.eye(k)[labels]
    z = flat @ w1.T
    gram = flat @ flat.T if n <= d else None
    dh_sum = np.zeros((n, hidden))
    for _ in range(epochs):
        hid = np.tanh(z + b1)
        dz = (softmax_by_formula(hid @ w2.T + b2) - onehot) / n
        dh = (dz @ w2) * (1.0 - hid**2)
        w2 -= lr * (dz.T @ hid)
        b2 -= lr * dz.sum(axis=0)
        b1 -= lr * dh.sum(axis=0)
        z -= lr * (gram @ dh if gram is not None else flat @ (flat.T @ dh))
        dh_sum += dh
    w1 -= lr * (dh_sum.T @ flat)
    return w1, b1, w2, b2


class TestBuffersKeepTheBytes:
    """Reused buffers change no bit of the fitted weights, outputs or VJP norms."""

    @pytest.mark.parametrize("target", ["probs", "logits"])
    @pytest.mark.parametrize("shape, n_classes, n_per_class", GRAM_SIDES, ids=GRAM_SIDE_IDS)
    def test_fit_mlp_equals_the_formula_loop(self, shape, n_classes, n_per_class, target):
        images, labels = make_blobs(shape, n_classes, n_per_class, seed=31)
        fitted = fit_mlp(images, labels, hidden=8, epochs=40, lr=0.7, seed=32, target=target)
        want = fit_by_formula(images, labels, 8, 40, 0.7, 32)
        for got, expected in zip((fitted.w1, fitted.b1, fitted.w2, fitted.b2), want):
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "z",
        [
            np.random.default_rng(1).normal(scale=30.0, size=(50, 10)),
            np.random.default_rng(2).normal(size=7),
            np.random.default_rng(3).normal(scale=800.0, size=(3, 4, 5)),
            np.random.default_rng(4).normal(scale=10.0, size=(9, 3)).astype(np.float32),
            np.array([[700.0, -745.0, 0.0], [-0.0, 0.0, -0.0]]),
        ],
        ids=["logits", "one-row", "three-axes", "float32", "extremes"],
    )
    def test_softmax_equals_the_formula(self, z):
        got, want = jacobian._softmax_rows(z.astype(np.result_type(z, 1.0))), softmax_by_formula(z)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("target", ["probs", "logits"])
    def test_forward_passes_and_vjp_norms_equal_the_formula(self, target):
        rng = np.random.default_rng(33)
        mlp = MlpPredictor(rng.normal(size=(6, 12)), rng.normal(size=6), rng.normal(size=(4, 6)),
                           rng.normal(size=4), image_shape=(3, 2, 2), target=target)
        linear = LinearPredictor(rng.normal(size=(4, 12)), rng.normal(size=4), image_shape=(3, 2, 2),
                                 target=target)
        batch = rng.normal(scale=3.0, size=(9, 3, 2, 2))
        vs = rng.normal(size=(9, 5, 4))
        flat = batch.reshape(9, -1)
        h = np.tanh(flat @ mlp.w1.T + mlp.b1)
        for model, z, pullback in [
            (mlp, h @ mlp.w2.T + mlp.b2, lambda g: (g @ mlp.w2) * (1.0 - h**2)[:, None, :]),
            (linear, flat @ linear.weights.T + linear.bias, lambda g: g),
        ]:
            outputs, g = z, vs
            if target == "probs":
                outputs = softmax_by_formula(z)
                g = jacobian._probs_cotangents(outputs, vs)
            assert model.predict(batch).tobytes() == outputs.tobytes()
            want = jacobian._sq_row_norms(pullback(g), model._first_weights)
            assert model.sq_vjp_norms(batch, vs).tobytes() == want.tobytes()


class TestBuiltinMlp:
    @pytest.mark.parametrize("shape, n_classes, n_per_class", GRAM_SIDES, ids=GRAM_SIDE_IDS)
    def test_training_is_deterministic(self, shape, n_classes, n_per_class):
        a, images_a, labels_a = blob_mlp(shape, n_classes, n_per_class, seed=21)
        b, images_b, _ = blob_mlp(shape, n_classes, n_per_class, seed=21)
        assert np.array_equal(a.w1, b.w1)
        assert np.array_equal(a.w2, b.w2)
        assert np.array_equal(images_a, images_b)

    @pytest.mark.parametrize("shape, n_classes, n_per_class", GRAM_SIDES, ids=GRAM_SIDE_IDS)
    def test_matches_per_epoch_weight_updates(self, shape, n_classes, n_per_class):
        images, labels = make_blobs(shape, n_classes, n_per_class, seed=27)
        fitted = fit_mlp(images, labels, seed=28)
        reference = reference_fit(images, labels, seed=28)
        for got, want in zip((fitted.w1, fitted.b1, fitted.w2, fitted.b2), reference):
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
        w1, b1, w2, b2 = reference
        want_classes = (np.tanh(images.reshape(len(images), -1) @ w1.T + b1) @ w2.T + b2).argmax(1)
        assert np.array_equal(fitted.predict(images).argmax(axis=1), want_classes)

    @pytest.mark.parametrize(
        "images, labels, kwargs, message",
        [
            (np.full((4, 1, 1, 4), np.nan), [0, 1, 0, 1], {}, "images contains non-finite"),
            (np.zeros((0, 1, 1, 4)), [], {}, "images must be a nonempty"),
            (np.zeros((4, 1, 1, 4)), [0, 1, 0, 1.0], {}, "labels must be integers"),
            (np.zeros((4, 1, 1, 4)), [0, 1, -1, 1], {}, "labels must be integers >= 0"),
            (np.zeros((4, 1, 1, 4)), [0, 1, 0], {}, "expected 4 labels"),
            (np.zeros((4, 1, 1, 4)), [0, 1, 0, 1], {"hidden": 0}, "hidden must be an int >= 1, got 0"),
            (np.zeros((4, 1, 1, 4)), [0, 1, 0, 1], {"epochs": -1}, "epochs must be an int >= 0, got -1"),
            (np.zeros((4, 1, 1, 4)), [0, 1, 0, 1], {"hidden": 2.5}, "hidden must be an int >= 1, got 2.5"),
            (np.zeros((4, 1, 1, 4)), [0, 1, 0, 1], {"hidden": True}, "hidden must be an int >= 1, got True"),
            (np.zeros((4, 1, 1, 4)), [0, 1, 0, 1], {"hidden": np.float64(4)},
             "hidden must be an int >= 1, got"),
            (np.zeros((4, 1, 1, 4)), [0, 1, 0, 1], {"epochs": 2.5}, "epochs must be an int >= 0, got 2.5"),
            (np.zeros((4, 1, 1, 4)), [0, 1, 0, 1], {"lr": 0.0}, "lr must be finite and > 0"),
            (np.zeros((4, 1, 1, 4)), [0, 1, 0, 1], {"lr": np.inf}, "lr must be finite and > 0"),
            (np.zeros((4, 1, 1, 4)), [0, 1, 0, 1], {"lr": np.nan}, "lr must be finite and > 0"),
            (np.zeros((4, 1, 1, 4)), [0, 1, 0, 1], {"lr": True}, "lr must be a real number, got True"),
            (np.zeros((4, 1, 1, 4)), [0, 1, 0, 1], {"target": "scores"}, "target must be 'logits' or"),
            (np.zeros((4, 1, 1, 4)), [0, 0, 0, 0], {}, "need at least 2 classes"),
            (np.zeros((4, 1, 1, 4)), [0, 1, 0, 1], {"seed": -1}, "seed must be an int >= 0, got -1"),
            (np.zeros((4, 1, 1, 4)), [0, 1, 0, 1], {"seed": 2.5}, "seed must be an int >= 0, got 2.5"),
            (np.zeros((4, 1, 1, 4)), [0, 1, 0, 1], {"seed": True}, "seed must be an int >= 0, got True"),
        ],
        ids=["nan-images", "empty-stack", "float-labels", "negative-label", "label-count",
             "hidden-0", "negative-epochs", "float-hidden", "bool-hidden", "numpy-float-hidden",
             "float-epochs", "zero-lr", "infinite-lr", "nan-lr", "bool-lr", "unknown-target", "one-class",
             "negative-seed", "float-seed", "bool-seed"],
    )
    def test_invalid_input_rejected_before_any_draw(self, monkeypatch, images, labels, kwargs, message):
        def no_draw(*args, **kw):
            raise AssertionError("fit_mlp drew from an RNG before validating its inputs")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        with pytest.raises(InvalidInputError, match=message):
            fit_mlp(images, labels, **kwargs)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"hidden": 2.5}, "hidden must be an int >= 1, got 2.5"),
            ({"hidden": True}, "hidden must be an int >= 1, got True"),
            ({"epochs": 2.5}, "epochs must be an int >= 0, got 2.5"),
            ({"epochs": -1}, "epochs must be an int >= 0, got -1"),
            ({"lr": 0}, "lr must be finite and > 0, got 0"),
            ({"lr": True}, "lr must be a real number, got True"),
            ({"lr": "0.5"}, "lr must be a real number, got '0.5'"),
            ({"seed": -1}, "seed must be an int >= 0, got -1"),
            ({"target": "scores"}, "target must be 'logits' or 'probs', got 'scores'"),
        ],
        ids=["float-hidden", "bool-hidden", "float-epochs", "negative-epochs", "zero-lr", "bool-lr",
             "str-lr", "negative-seed", "unknown-target"],
    )
    def test_training_arguments_rejected_on_blobs_with_exact_message(self, monkeypatch, kwargs, message):
        # The blob data that `specrob jacobian` trains on without --weights; each message is whole.
        images, labels = make_blobs((1, 4, 4), 2, 2, seed=0)
        drawn = []
        monkeypatch.setattr(np.random, "default_rng", lambda *a, **kw: drawn.append(a))
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            fit_mlp(images, labels, **kwargs)
        assert drawn == []

    def test_fits_the_blobs(self):
        predictor, images, labels = blob_mlp(seed=22)
        preds = predictor.predict(images).argmax(axis=1)
        assert (preds == labels).mean() > 0.95

    def test_probs_rows_sum_to_one(self):
        predictor, images, _ = blob_mlp(seed=23)
        probs = predictor.predict(images[:16])
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(probs >= 0)

    def test_weight_packing_round_trip(self):
        predictor, _, _ = blob_mlp(seed=24)
        packed = pack_mlp_weights(predictor)
        restored = unpack_mlp_weights(packed, image_shape=predictor.image_shape)
        assert np.array_equal(predictor.w1, restored.w1)
        assert np.array_equal(predictor.b1, restored.b1)
        assert np.array_equal(predictor.w2, restored.w2)
        assert np.array_equal(predictor.b2, restored.b2)

    @pytest.mark.parametrize("index", range(4), ids=["w1", "b1", "w2", "b2"])
    def test_non_finite_parameters_rejected(self, index):
        predictor = random_mlp(27)
        params = [p.copy() for p in (predictor.w1, predictor.b1, predictor.w2, predictor.b2)]
        params[index][0, ...] = np.nan
        with pytest.raises(InvalidInputError, match="^weights and biases must be finite$"):
            MlpPredictor(*params)

    @pytest.mark.parametrize("dim", [16.7, np.nan, np.inf, 0.0, -12.0], ids=str)
    def test_packed_dims_must_be_integers_of_at_least_one(self, dim):
        packed = pack_mlp_weights(random_mlp(28))
        packed[0] = dim
        with pytest.raises(InvalidInputError, match=r"^packed MLP dims \[D, hidden, K\] must be"):
            unpack_mlp_weights(packed)

    def test_mlp_vjp_matches_finite_difference(self):
        predictor, images, _ = blob_mlp(seed=25)
        rng = np.random.default_rng(26)
        x = images[0]
        v = rng.normal(size=predictor.n_outputs)
        analytic = predictor.vjp(x, v).ravel()

        eps = 1e-6
        flat = x.ravel()
        fd = np.empty(flat.size)
        for i in range(flat.size):
            e = np.zeros(flat.size)
            e[i] = eps
            up = predictor.predict((flat + e).reshape(1, *x.shape))[0]
            down = predictor.predict((flat - e).reshape(1, *x.shape))[0]
            fd[i] = v @ (up - down) / (2 * eps)
        assert np.abs(analytic - fd).max() < 1e-5


class TestConfigValidation:
    @pytest.mark.parametrize(
        "n_proj, batch_size, message",
        [
            (0, 10, "n_proj must be an int >= 1, got 0"),
            (1, 0, "batch_size must be an int >= 1, got 0"),
            (2.5, 10, "n_proj must be an int >= 1, got 2.5"),
            (True, 10, "n_proj must be an int >= 1, got True"),
            (1, 10.0, "batch_size must be an int >= 1, got 10.0"),
        ],
    )
    def test_bad_config_rejected(self, n_proj, batch_size, message):
        with pytest.raises(InvalidInputError) as info:
            JacobianConfig(n_proj=n_proj, batch_size=batch_size)
        assert str(info.value) == message

    @pytest.mark.parametrize("seed", [-1, 2.5, True], ids=repr)
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(InvalidInputError) as info:
            JacobianConfig(seed=seed)
        assert str(info.value) == f"seed must be an int >= 0, got {seed!r}"

    def test_numpy_int_config_accepted(self):
        config = JacobianConfig(np.int64(3), np.int32(10), np.int64(4))
        assert (config.n_proj, config.batch_size, config.seed) == (3, 10, 4)
        assert type(config.seed) is int
