"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
Every tolerance and runtime budget is pinned here.
"""

import csv
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from spectral_robustness import (
    AccuracyRecord,
    CorruptionSpec,
    JacobianConfig,
    LinearPredictor,
    MetricRecord,
    PredictionTrace,
    PsdMap,
    band_fractions,
    clopper_pearson,
    consistent_distance,
    corrupt_batch,
    decompose,
    dft2,
    estimate_jacobian_norm,
    fit_line,
    grouped_regression,
    hff,
    fit_mlp,
    make_blobs,
    paired_shift_psd,
    powerlaw_images,
    probit,
    radial_mask,
    wrap_angle,
)
from spectral_robustness.cli import main as cli_main
from spectral_robustness.errors import TraceParseError
from spectral_robustness.paths import amplitude_path, phase_path
from spectral_robustness.render import emit_pgm, emit_scatter_svg
from spectral_robustness.tables import (
    read_path_metrics,
    read_traces,
    write_accuracies,
    write_labels,
    write_metrics,
    write_traces,
)
from spectral_robustness.tensorio import read_tensor, write_tensor


@contextmanager
def criterion(num, title, budget_s):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"\n[criterion {num:2d}] FAIL  {title}")
        raise
    elapsed = time.perf_counter() - start
    print(f"\n[criterion {num:2d}] PASS  {title}  ({elapsed:.2f}s / {budget_s}s)")
    assert elapsed < budget_s, f"criterion {num} over budget: {elapsed:.2f}s"


def naive_dft2(channel):
    h, w = channel.shape
    rows = np.arange(h)[:, None]
    cols = np.arange(w)[None, :]
    out = np.empty((h, w), dtype=np.complex128)
    for u in range(h):
        for v in range(w):
            out[u, v] = np.sum(channel * np.exp(-2j * np.pi * (u * rows / h + v * cols / w)))
    return out


def normal_cdf(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def test_criterion_01_spectral_correctness():
    with criterion(1, "dft2 vs naive oracle, Parseval, round trip", 5):
        rng = np.random.default_rng(101)
        for _ in range(100):
            img = rng.normal(size=(3, 8, 8))
            spec = dft2(img)
            for ch in range(3):
                assert np.abs(spec[ch] - naive_dft2(img[ch])).max() < 1e-6
                energy_image = 64 * np.sum(img[ch] ** 2)
                energy_spec = np.sum(np.abs(spec[ch]) ** 2)
                assert abs(energy_spec - energy_image) / energy_image < 1e-5
            assert np.abs(np.fft.ifft2(spec).real - img).max() < 1e-5


def test_criterion_02_path_construction():
    with criterion(2, "amplitude/phase path preservation over 200 CIFAR-shaped pairs", 60):
        rng = np.random.default_rng(202)
        rhos = (0.2, 0.4, 1.0)
        t = 100
        for pair_idx in range(200):
            rho = rhos[pair_idx % 3]
            x0 = rng.normal(size=(3, 32, 32))
            x1 = rng.normal(size=(3, 32, 32))
            d0 = decompose(dft2(x0))
            d1 = decompose(dft2(x1))
            mask = radial_mask(32, 32, rho).included

            amp_path = amplitude_path(x0, x1, rho, t)
            assert np.abs(amp_path.images[0] - x0).max() < 1e-4
            spectra = np.fft.fft2(amp_path.images, axes=(-2, -1))
            lam = amp_path.lambdas[:, None, None, None]
            blended = np.where(
                mask[None, None],
                (1 - lam) * d0.amplitude[None] + lam * d1.amplitude[None],
                d0.amplitude[None],
            )
            sel = blended > 1e-6
            phase_err = np.abs(wrap_angle(np.angle(spectra) - d0.phase[None]))
            assert phase_err[sel].max() < 1e-3
            off = (~mask)[None, None] & (d0.amplitude[None] > 1e-6)
            if np.any(off):
                amp_err = np.abs(np.abs(spectra) - d0.amplitude[None])
                assert amp_err[np.broadcast_to(off, amp_err.shape)].max() < 1e-3

            ph_path = phase_path(x0, x1, rho, t)
            assert np.abs(ph_path.images[0] - x0).max() < 1e-4
            spectra = np.fft.fft2(ph_path.images, axes=(-2, -1))
            sel = np.broadcast_to(d0.amplitude[None] > 1e-6, spectra.shape)
            amp_err = np.abs(np.abs(spectra) - d0.amplitude[None])
            assert amp_err[sel].max() < 1e-3


def test_criterion_03_hff_analytic():
    with criterion(3, "HFF cosine value, constant-trace zero, naive-oracle match", 5):
        steps = np.arange(100)
        p1 = 0.5 + 0.25 * np.cos(2 * np.pi * 20 * steps / 100)
        cosine = PredictionTrace(np.stack([p1, 1 - p1], axis=1))
        assert abs(hff(cosine, 10) - 0.2) < 1e-9

        constant = PredictionTrace(np.tile([0.25, 0.75], (100, 1)))
        assert hff(constant, 10) == 0.0

        rng = np.random.default_rng(303)
        for _ in range(1000):
            t = int(rng.integers(4, 30))
            k = int(rng.integers(2, 6))
            raw = rng.random((t, k)) + 1e-9
            trace = PredictionTrace(raw / raw.sum(axis=1, keepdims=True))
            threshold = int(rng.integers(1, t // 2 + 1))

            n_bins = t // 2 + 1
            amps = np.zeros(n_bins)
            for j in range(k):
                for f in range(n_bins):
                    amps[f] += abs(
                        np.sum(trace.probs[:, j] * np.exp(-2j * np.pi * f * steps[:t] / t))
                    )
            amps /= k
            expected = amps[threshold + 1 :].sum() / amps.sum()
            assert abs(hff(trace, threshold) - expected) < 1e-9


def test_criterion_04_cd_semantics():
    with criterion(4, "consistent distance vs brute-force scan, sentinel and ties", 2):
        rng = np.random.default_rng(404)

        def oracle(probs):
            first = max(range(probs.shape[1]), key=lambda j: (probs[0, j], -j))
            for step in range(1, len(probs)):
                current = max(range(probs.shape[1]), key=lambda j: (probs[step, j], -j))
                if current != first:
                    return step + 1
            return len(probs)

        for _ in range(1000):
            t = int(rng.integers(2, 30))
            k = int(rng.integers(2, 6))
            raw = rng.random((t, k)) + 1e-9
            trace = PredictionTrace(raw / raw.sum(axis=1, keepdims=True))
            assert consistent_distance(trace) == oracle(trace.probs)

        sentinel = PredictionTrace(np.tile([0.7, 0.3], (42, 1)))
        assert consistent_distance(sentinel) == 42

        tie = np.full((6, 4), 0.125)
        tie[:, 0] = tie[:, 3] = 0.25  # classes 0 and 3 tied; 0 must win
        tie[4] = [0.05, 0.7, 0.15, 0.1]
        tie_trace = PredictionTrace(tie / tie.sum(axis=1, keepdims=True))
        assert consistent_distance(tie_trace) == 5


def test_criterion_05_shift_psd_ordering():
    with criterion(5, "brightness low, noise high, white-noise flatness (2000 images)", 60):
        images = powerlaw_images((1, 32, 32), n=2000, slope=1.0, seed=505)

        bright = corrupt_batch(images, CorruptionSpec("brightness", 0.5))
        f = band_fractions(paired_shift_psd(images, bright))
        assert f.low > 0.9

        noisy = corrupt_batch(images, CorruptionSpec("gaussian_noise", 0.3, seed=1))
        f = band_fractions(paired_shift_psd(images, noisy))
        assert f.high == max(f.low, f.mid, f.high)

        shift = paired_shift_psd(images, noisy)
        assert np.abs(shift.power - 0.09).max() < 0.1 * 0.09


def test_criterion_06_jacobian_estimator():
    with criterion(6, "closed-form match, CI coverage, n^{-1/2} decay", 120):
        rng = np.random.default_rng(606)
        weights = rng.normal(size=(10, 50))
        predictor = LinearPredictor(weights, target="logits", image_shape=(1, 1, 50))
        true_norm = np.linalg.norm(weights)
        batch = rng.normal(size=(400, 1, 1, 50))

        est = estimate_jacobian_norm(predictor, batch, JacobianConfig(10, 400, seed=0))
        assert est.n_estimates == 4000
        assert abs(est.frobenius_norm - true_norm) / true_norm < 0.05

        hits = 0
        for rep in range(100):
            e = estimate_jacobian_norm(predictor, batch, JacobianConfig(10, 400, seed=7000 + rep))
            hits += e.ci95_low <= true_norm <= e.ci95_high
        assert hits >= 88

        def mean_abs_rel_error(n_proj, b, reps, seed0):
            sub_batch = batch[:b]
            errs = []
            for rep in range(reps):
                e = estimate_jacobian_norm(
                    predictor, sub_batch, JacobianConfig(n_proj, b, seed=seed0 + rep)
                )
                errs.append(abs(e.frobenius_norm - true_norm) / true_norm)
            return float(np.mean(errs))

        err_small = mean_abs_rel_error(5, 100, 100, 10_000)  # n = 500
        err_large = mean_abs_rel_error(20, 400, 100, 20_000)  # n = 8000
        ratio = err_small / err_large
        expected = math.sqrt(8000 / 500)
        assert expected / 3 < ratio < expected * 3


def test_criterion_07_exact_statistics():
    with criterion(7, "Clopper-Pearson vs binomial bisection, probit oracle", 10):
        def tail_upper(k, n, p):
            return sum(math.comb(n, i) * p**i * (1 - p) ** (n - i) for i in range(k, n + 1))

        def tail_lower(k, n, p):
            return sum(math.comb(n, i) * p**i * (1 - p) ** (n - i) for i in range(0, k + 1))

        def bisect(fn, target, increasing):
            lo, hi = 0.0, 1.0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if (fn(mid) < target) == increasing:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)

        for n in range(1, 21):
            for k in range(n + 1):
                low, high = clopper_pearson(k, n)
                want_low = 0.0 if k == 0 else bisect(lambda p: tail_upper(k, n, p), 0.025, True)
                want_high = 1.0 if k == n else bisect(lambda p: tail_lower(k, n, p), 0.025, False)
                assert abs(low - want_low) < 1e-9
                assert abs(high - want_high) < 1e-9

        assert clopper_pearson(0, 10)[1] == pytest.approx(1 - 0.025 ** 0.1, abs=1e-12)
        assert clopper_pearson(10, 10)[0] == pytest.approx(0.025 ** 0.1, abs=1e-12)

        assert probit(0.5) == 0.0
        for p in np.linspace(0.001, 0.999, 199):
            lo, hi = -12.0, 12.0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if normal_cdf(mid) < p:
                    lo = mid
                else:
                    hi = mid
            assert abs(probit(float(p)) - 0.5 * (lo + hi)) < 1e-8


def test_criterion_08_regression_recovery():
    with criterion(8, "synthetic cohort slope/R^2 recovery, exact-line fits", 10):
        rng = np.random.default_rng(808)
        lines = {"conv": (0.9, -0.3), "resnet": (1.1, -0.5), "vgg": (0.8, -0.2)}
        total = 10000
        records = []
        for group, (m, b) in lines.items():
            for i in range(10):
                z_id = rng.uniform(0.3, 1.5)
                p_id = normal_cdf(z_id)
                p_ood = normal_cdf(m * z_id + b)
                records.append(
                    AccuracyRecord(f"{group}{i}", group, "id-set", int(rng.binomial(total, p_id)), total)
                )
                records.append(
                    AccuracyRecord(f"{group}{i}", group, "ood-set", int(rng.binomial(total, p_ood)), total)
                )
        result = grouped_regression(records, [], "ID accuracy", "ood-set")
        true_mean = np.mean([m for m, _ in lines.values()])
        assert abs(result.averaged_slope - true_mean) < 0.05
        assert abs(result.averaged_r2 - 1.0) < 0.1

        xs = np.linspace(-1, 2, 9)
        slope, intercept, r2 = fit_line(xs, 0.9 * xs + 0.1)
        assert abs(slope - 0.9) < 1e-9
        assert abs(r2 - 1.0) < 1e-9


def _run_toy_pipeline(root, seed):
    """Blob dataset -> built-in MLPs -> gen-paths -> traces -> metrics -> regress."""
    root.mkdir(parents=True, exist_ok=True)
    n_per_class = 150
    n_train = 50
    all_images, all_labels = make_blobs((1, 8, 8), 2, n_per_class, noise=2.0, seed=seed)
    train_idx, eval_idx = [], []
    for k in range(2):
        lo = k * n_per_class
        train_idx.extend(range(lo, lo + n_train))
        eval_idx.extend(range(lo + n_train, lo + n_per_class))
    train_x, train_y = all_images[train_idx], all_labels[train_idx]
    images, labels = all_images[eval_idx], all_labels[eval_idx]

    cohort = []
    for hidden, group in ((6, "mlp_h6"), (16, "mlp_h16")):
        for i, epochs in enumerate((20, 60, 160)):
            predictor = fit_mlp(
                train_x, train_y, hidden=hidden, epochs=epochs, seed=seed + 31 * i + hidden
            )
            cohort.append((f"{group}_m{i}", group, predictor))

    images_path = root / "images.tnsr"
    labels_path = root / "labels.csv"
    write_tensor(images_path, images.astype(np.float32))
    write_labels(labels_path, labels)

    paths_dir = root / "paths"
    rc = cli_main(
        [
            "gen-paths",
            "--images", str(images_path),
            "--labels", str(labels_path),
            "--mode", "amplitude",
            "--cutoff", "0.4",
            "--steps", "100",
            "--n-paths", "200",
            "--seed", str(seed),
            "--out", str(paths_dir),
        ]
    )
    assert rc == 0
    with open(paths_dir / "manifest.csv") as fh:
        manifest = list(csv.DictReader(fh))
    assert len(manifest) == 200

    path_images = []
    for row in manifest:
        data, _ = read_tensor(paths_dir / row["file"])
        path_images.append(np.asarray(data, dtype=np.float64))

    ood_images = corrupt_batch(images, CorruptionSpec("gaussian_noise", 1.0, seed=seed + 99))

    accuracies, metrics = [], []
    traces_path = root / "traces.csv"
    for model_id, group, predictor in cohort:
        traces = [
            PredictionTrace(predictor.predict(p_imgs), path_id=row["path_id"])
            for row, p_imgs in zip(manifest, path_images)
        ]
        if model_id == cohort[0][0]:
            write_traces(traces_path, traces)
        hffs = [hff(tr, 10) for tr in traces]
        metrics.append(MetricRecord(model_id, "amp_hff", float(np.mean(hffs)), "raw"))

        id_correct = int((predictor.predict(images).argmax(axis=1) == labels).sum())
        ood_correct = int((predictor.predict(ood_images).argmax(axis=1) == labels).sum())
        accuracies.append(AccuracyRecord(model_id, group, "id-blobs", id_correct, len(images)))
        accuracies.append(AccuracyRecord(model_id, group, "ood-blobs", ood_correct, len(images)))

    metrics_out = root / "metrics.csv"
    rc = cli_main(
        ["path-metrics", "--traces", str(traces_path), "--hff-threshold", "10",
         "--out", str(metrics_out)]
    )
    assert rc == 0

    acc_path = root / "accuracies.csv"
    met_path = root / "model_metrics.csv"
    write_accuracies(acc_path, accuracies)
    write_metrics(met_path, metrics)
    fit_path = root / "fit.csv"
    svg_path = root / "plot.svg"
    rc = cli_main(
        [
            "regress",
            "--accuracies", str(acc_path),
            "--metrics", str(met_path),
            "--x", "ID accuracy",
            "--ood", "ood-blobs",
            "--out", str(fit_path),
            "--svg", str(svg_path),
        ]
    )
    assert rc == 0
    return metrics_out, fit_path, svg_path, traces_path, paths_dir


def test_criterion_09_end_to_end_pipeline(tmp_path):
    with criterion(9, "toy blobs -> MLP -> paths -> traces -> metrics -> regress", 300):
        first = _run_toy_pipeline(tmp_path / "run1", seed=909)
        second = _run_toy_pipeline(tmp_path / "run2", seed=909)

        rows, footer = read_path_metrics(first[0])
        assert len(rows) == 200
        assert all(0.0 <= r.hff <= 1.0 for r in rows)
        assert all(2 <= r.cd <= 100 for r in rows)
        assert footer["hff_threshold_k"][0] == "10"

        for a, b in zip(first, second):
            if a.is_dir():
                assert (a / "manifest.csv").read_bytes() == (b / "manifest.csv").read_bytes()
                assert (a / "path_00000.tnsr").read_bytes() == (b / "path_00000.tnsr").read_bytes()
            else:
                assert a.read_bytes() == b.read_bytes(), f"{a} differs between runs"


def test_criterion_10_io_round_trips(tmp_path):
    with criterion(10, "tensor bit-exactness, trace validation, SVG/PGM determinism", 5):
        rng = np.random.default_rng(1010)
        for i in range(50):
            shape = tuple(int(s) for s in rng.integers(1, 6, size=3))
            arr = rng.normal(size=shape).astype(np.float32)
            out = tmp_path / f"t{i}.tnsr"
            write_tensor(out, arr)
            back, got_shape = read_tensor(out)
            assert tuple(got_shape) == shape
            assert np.array_equal(back.view(np.uint32), arr.view(np.uint32))

        fixtures = {
            "bad_sum.csv": "path_id,step,p_0,p_1\nx,1,0.4,0.4\nx,2,0.5,0.5\n",
            "missing_step.csv": "path_id,step,p_0,p_1\nx,1,0.5,0.5\nx,3,0.5,0.5\n",
            "negative.csv": "path_id,step,p_0,p_1\nx,1,-0.2,1.2\nx,2,0.5,0.5\n",
            "starts_at_two.csv": "path_id,step,p_0,p_1\nx,2,0.5,0.5\nx,3,0.5,0.5\n",
        }
        for name, content in fixtures.items():
            bad = tmp_path / name
            bad.write_text(content)
            with pytest.raises(TraceParseError, match=r"line \d+"):
                read_traces(bad)

        points = [(0.1, 0.5, "g", (0.4, 0.6)), (0.9, 1.2, "g", (1.1, 1.3))]
        lines = [("g", 0.9, 0.1, 0.75)]
        svg_a, svg_b = tmp_path / "a.svg", tmp_path / "b.svg"
        emit_scatter_svg(points, lines, svg_a)
        emit_scatter_svg(points, lines, svg_b)
        assert svg_a.read_bytes() == svg_b.read_bytes()

        power = rng.uniform(0.2, 3.0, size=(16, 16))
        pgm_a, pgm_b = tmp_path / "a.pgm", tmp_path / "b.pgm"
        emit_pgm(PsdMap(power, 1), pgm_a)
        emit_pgm(PsdMap(power, 1), pgm_b)
        assert pgm_a.read_bytes() == pgm_b.read_bytes()
