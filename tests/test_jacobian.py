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
    fd_directional_derivative,
    train_blob_mlp,
    vjp_linear_softmax,
)
from spectral_robustness.jacobian import (
    _sign_bits,
    _unit_rows,
    pack_mlp_weights,
    softmax,
    unpack_mlp_weights,
)


def random_linear(seed, k=10, d=50, target="logits"):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(k, d))
    b = rng.normal(size=k)
    return LinearPredictor(w, b, image_shape=(1, 1, d), target=target)


class TestVjpLinearSoftmax:
    def test_logits_basis_vector_returns_weight_row(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=(4, 6))
        b = rng.normal(size=4)
        x = rng.normal(size=6)
        for k in range(4):
            v = np.zeros(4)
            v[k] = 1.0
            assert np.allclose(vjp_linear_softmax(w, b, x, v, "logits"), w[k])

    def test_probs_at_uniform_point(self):
        # All logits equal => p = (1/2, 1/2); (diag(p) - p p^T) e_0 = (1/4, -1/4).
        w = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        b = np.zeros(2)
        x = np.zeros(3)
        out = vjp_linear_softmax(w, b, x, np.array([1.0, 0.0]), "probs")
        assert np.allclose(out, 0.25 * (w[0] - w[1]))

    def test_matches_central_difference(self):
        rng = np.random.default_rng(1)
        for target in ("logits", "probs"):
            w = rng.normal(size=(3, 5))
            b = rng.normal(size=3)
            x = rng.normal(size=5)
            v = rng.normal(size=3)
            analytic = vjp_linear_softmax(w, b, x, v, target)

            def f(xx):
                z = w @ xx + b
                return softmax(z) if target == "probs" else z

            eps = 1e-6
            fd = np.empty(5)
            for i in range(5):
                e = np.zeros(5)
                e[i] = eps
                fd[i] = v @ (f(x + e) - f(x - e)) / (2 * eps)
            assert np.abs(analytic - fd).max() < 1e-5

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            vjp_linear_softmax(np.zeros((2, 3)), np.zeros(2), np.zeros(4), np.zeros(2))


def random_mlp(seed, hidden=7, d=12, k=4, target="probs"):
    rng = np.random.default_rng(seed)
    return MlpPredictor(
        rng.normal(size=(hidden, d)),
        rng.normal(size=hidden),
        rng.normal(size=(k, hidden)),
        rng.normal(size=k),
        image_shape=(1, 3, d // 3),
        target=target,
    )


class VjpOnlyMlp(Predictor):
    """A third-party predictor that implements ``vjp`` but not ``sq_vjp_norms``."""

    has_vjp = True

    def __init__(self, mlp):
        self.mlp = mlp
        self.n_outputs = mlp.n_outputs
        self.target = mlp.target

    def predict(self, batch):
        return self.mlp.predict(batch)

    def vjp(self, x, v):
        return self.mlp.vjp(x, v)


def sign_directions(rng, n, image_shape):
    """The estimator's finite-difference directions s / sqrt(D), s in {-1, +1}^D, as images."""
    d = int(np.prod(image_shape))
    return ((1.0 - 2.0 * _sign_bits(rng, n, d)) / np.sqrt(d)).reshape((n,) + tuple(image_shape))


def mlp_coverage_hits(n_classes, black_box, reps=100):
    """How many of ``reps`` seeds give a CI covering a blob MLP's exact batch norm.

    The exact norm comes from VJPs on the K basis vectors; the pooled CI
    treats a sample's projections as i.i.d. although they share J(x), and
    must still cover this fixed-batch target. ``black_box`` wraps the MLP in
    a CallablePredictor, so the estimate takes finite differences.
    """
    mlp, images, _ = train_blob_mlp((1, 8, 8), n_classes=n_classes, seed=0)
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
            lambda: VjpOnlyMlp(random_mlp(34, target="probs")),
        ],
        ids=["linear-logits", "linear-probs", "mlp-logits", "mlp-probs", "vjp-only-subclass"],
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


class TestFiniteDifference:
    def test_exact_on_linear_map(self):
        predictor = random_linear(2, k=3, d=4)
        x = np.random.default_rng(3).normal(size=(1, 1, 4))
        u = np.zeros((1, 1, 4))
        u[0, 0, 1] = 1.0
        out = fd_directional_derivative(predictor, x, u, eps=0.37)
        assert np.abs(out - predictor.weights[:, 1]).max() < 1e-9

    def test_componentwise_square(self):
        predictor = CallablePredictor(
            lambda batch: batch.reshape(len(batch), -1) ** 2, 1, (1, 1, 1), target="logits"
        )
        out = fd_directional_derivative(
            predictor, np.full((1, 1, 1), 3.0), np.ones((1, 1, 1)), eps=1e-3
        )
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
        p = softmax(mlp.w2 @ h + mlp.b2)
        dz = mlp.w2 @ ((1 - h**2) * (mlp.w1 @ u.ravel()))
        jvp = p * dz - p * (p @ dz)

        fd = fd_directional_derivative(mlp, x, u, eps=1e-4)
        assert np.abs(fd - jvp).max() < 1e-4

    def test_requires_unit_direction(self):
        predictor = random_linear(5, k=2, d=3)
        with pytest.raises(InvalidInputError):
            fd_directional_derivative(predictor, np.zeros((1, 1, 3)), np.full((1, 1, 3), 0.5))


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
        est = estimate_jacobian_norm(predictor, batch, JacobianConfig(5, 7, seed=42, fd_eps=1e-3))
        per_direction = []
        for s, x in enumerate(batch):
            for u in sign_directions(np.random.default_rng([42, s]), 5, x.shape):
                ju = fd_directional_derivative(predictor, x, u, eps=1e-3)
                per_direction.append(12 * np.sum(ju * ju))
        assert est.method == "fd"
        assert est.frobenius_norm == pytest.approx(np.sqrt(np.mean(per_direction)), rel=1e-9)

    def test_sign_directions_are_uniform_signs(self):
        bits = _sign_bits(np.random.default_rng(45), 40, 1000)
        assert bits.shape == (40, 1000)
        assert set(np.unique(bits)) == {0, 1}
        # 40,000 fair bits: the count of ones is within 5 standard deviations of 20,000.
        assert abs(int(bits.sum()) - 20000) < 5 * 100
        # Rows come from consecutive bits of one stream, with no reuse across rows.
        again = _sign_bits(np.random.default_rng(45), 80, 500).reshape(40, 1000)
        assert np.array_equal(bits, again)

    def test_fd_batches_are_fresh_and_hold_the_perturbations(self):
        mlp = random_mlp(46, hidden=5, d=12, k=3)
        kept = []

        def fn(batch):
            kept.append(batch)
            return mlp.predict(batch)

        predictor = CallablePredictor(fn, 3, (1, 3, 4))
        batch = np.random.default_rng(47).normal(size=(4, 1, 3, 4))
        eps = 1e-3
        estimate_jacobian_norm(predictor, batch, JacobianConfig(3, 4, seed=48, fd_eps=eps))
        assert len(kept) == 4
        for s, (x, seen) in enumerate(zip(batch, kept)):
            us = sign_directions(np.random.default_rng([48, s]), 3, x.shape)
            assert np.array_equal(seen, np.concatenate([x + eps * us, x - eps * us]))

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
        vs = np.stack([unit_rows(np.random.default_rng([seed, s]), 10, 10) for s in range(40)])
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

            def standard_normal(self, size=None, out=None):
                draw = np.array(self.draws.pop(0), dtype=np.float64)
                if out is None:
                    return draw.reshape(size)
                out[...] = draw
                return out

        # The first stream has no draws left, so a redraw taken from it would raise.
        first = Stream([[[-2.0, 0.0], [0.0, 5.0]]])
        second = Stream([[[3.0, 4.0], [0.0, 0.0]], [0.0, 0.0], [0.0, -2.0]])
        rows = _unit_rows([first, second], 2, 2)
        assert np.array_equal(rows, [[[-1.0, 0.0], [0.0, 1.0]], [[0.6, 0.8], [0.0, -1.0]]])
        assert second.draws == []

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

    def test_batch_size_mismatch_rejected(self):
        predictor = random_linear(15, k=2, d=4)
        with pytest.raises(InvalidInputError):
            estimate_jacobian_norm(
                predictor, np.zeros((5, 1, 1, 4)), JacobianConfig(2, 10, seed=0)
            )


class TestBuiltinMlp:
    def test_training_is_deterministic(self):
        a, images_a, labels_a = train_blob_mlp(seed=21)
        b, images_b, _ = train_blob_mlp(seed=21)
        assert np.array_equal(a.w1, b.w1)
        assert np.array_equal(a.w2, b.w2)
        assert np.array_equal(images_a, images_b)

    def test_fits_the_blobs(self):
        predictor, images, labels = train_blob_mlp(seed=22)
        preds = predictor.predict(images).argmax(axis=1)
        assert (preds == labels).mean() > 0.95

    def test_probs_rows_sum_to_one(self):
        predictor, images, _ = train_blob_mlp(seed=23)
        probs = predictor.predict(images[:16])
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(probs >= 0)

    def test_weight_packing_round_trip(self):
        predictor, _, _ = train_blob_mlp(seed=24)
        packed = pack_mlp_weights(predictor)
        restored = unpack_mlp_weights(packed, image_shape=predictor.image_shape)
        assert np.array_equal(predictor.w1, restored.w1)
        assert np.array_equal(predictor.b1, restored.b1)
        assert np.array_equal(predictor.w2, restored.w2)
        assert np.array_equal(predictor.b2, restored.b2)

    def test_mlp_vjp_matches_finite_difference(self):
        predictor, images, _ = train_blob_mlp(seed=25)
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
    def test_bad_config_rejected(self):
        with pytest.raises(InvalidInputError):
            JacobianConfig(n_proj=0, batch_size=10)
        with pytest.raises(InvalidInputError):
            JacobianConfig(n_proj=1, batch_size=0)
        with pytest.raises(InvalidInputError):
            JacobianConfig(fd_eps=0.0)
