"""The three benchmark workloads.

Each workload builds its inputs from the seed in ``setup``, runs one round of
fixed work in ``run_round`` and checks that round's outputs in ``check``,
outside the timed region. A round returns the count of checked operations it
attempted and the workload-specific figures the report prints; the runner
times it with the tracer's clock. Checks are oracles (identities the outputs
must satisfy), not pinned values, so a documented change of RNG streams needs
no benchmark edit.
"""

from __future__ import annotations

import contextlib
import csv
import io
import shutil
from pathlib import Path

import numpy as np

import spectral_robustness as sr
from spectral_robustness import cli, tables, tensorio

SHAPE = (3, 32, 32)
N_CLASSES = 10
STEPS = 100
RHO = 0.4
HFF_THRESHOLD = 10
OOD_STD = 1.0
# Built-in MLPs as (hidden, epochs): varied capacity and training length make
# the cohort's accuracies and HFFs spread, so every regression is well posed.
MLP_COHORT = ((4, 5), (4, 20), (8, 10), (8, 40), (16, 15), (16, 60), (32, 25))


def _seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def _ridge_linear(tr, x, y, target: str) -> sr.LinearPredictor:
    """Ridge least squares (penalty 10) onto centred one-hot labels, in the N x N dual form."""
    with tr.span("bench.fit_linear"):
        flat = x.reshape(len(x), -1)
        onehot = np.eye(N_CLASSES)[y] - 1.0 / N_CLASSES
        alpha = np.linalg.solve(flat @ flat.T + 10.0 * np.eye(len(flat)), onehot)
        return sr.LinearPredictor((flat.T @ alpha).T, image_shape=SHAPE, target=target)


def _long_tailed_blobs(tr, seed: int):
    """10-class blobs with class counts falling by 0.72 per class, split in half."""
    images, labels = tr.call(
        "synthetic.make_blobs", sr.make_blobs, SHAPE, N_CLASSES, 120, noise=6.0, seed=seed
    )
    counts = np.maximum((120 * 0.72 ** np.arange(N_CLASSES)).astype(int), 8)
    keep = np.concatenate([np.nonzero(labels == k)[0][:c] for k, c in enumerate(counts)])
    train, evaluate = keep[0::2], keep[1::2]
    return images[train], labels[train], images[evaluate], labels[evaluate]


def _fit_cohort(tr, x, y, seed: int) -> list[tuple[str, sr.Predictor]]:
    cohort = []
    for hidden, epochs in MLP_COHORT:
        model = tr.call(
            "jacobian.fit_mlp", sr.fit_mlp, x, y, hidden=hidden, epochs=epochs,
            seed=_seed(seed, hidden, epochs),
        )
        cohort.append((f"mlp_h{hidden}_e{epochs}", model))
    cohort.append(("linear_ridge", _ridge_linear(tr, x, y, "probs")))
    return cohort


def _predict(tr, model, images) -> np.ndarray:
    probs = tr.call("jacobian.predict", model.predict, images)
    tr.count("jacobian.predict_calls")
    tr.count("jacobian.predict_images", len(images))
    return probs


def _accuracy(tr, model, images, labels) -> int:
    return int((_predict(tr, model, images).argmax(axis=1) == labels).sum())


class _Cohort:
    """Shared set-up of the two path workloads: long-tailed blobs and a fitted cohort."""

    def __init__(self, seed: int, tracer):
        self.seed = seed
        self.tr = tracer

    def setup(self) -> None:
        tr = self.tr
        train_x, train_y, self.x, self.y = _long_tailed_blobs(tr, self.seed)
        self.cohort = _fit_cohort(tr, train_x, train_y, self.seed)
        self.ood_x = tr.call(
            "corruptions.corrupt_batch", sr.corrupt_batch, self.x,
            sr.CorruptionSpec("gaussian_noise", OOD_STD, seed=_seed(self.seed, 99)),
        )


class ProbeCifar(_Cohort):
    """The paper's loop in memory: paths -> cohort traces -> HFF/CD -> regressions."""

    name = "probe_cifar"
    n_paths = 16

    def run_round(self, k: int) -> dict:
        tr = self.tr
        kept, latencies = [], []
        with tr.span("bench.round"):
            specs = tr.call(
                "paths.sample_path_specs", sr.sample_path_specs, self.y, self.n_paths,
                "amplitude", "between", RHO, STEPS, seed=_seed(self.seed, k),
            )
            hffs = {model_id: [] for model_id, _ in self.cohort}
            for i, spec in enumerate(specs):
                mode = ("amplitude", "phase")[i % 2]
                build = sr.amplitude_path if mode == "amplitude" else sr.phase_path
                t0 = tr.now()
                with tr.span("bench.path"):
                    x0, x1 = self.x[spec.source_index], self.x[spec.target_index]
                    path = tr.call(f"paths.{mode}_path", build, x0, x1, RHO, STEPS)
                    tr.count("paths.built")
                    scores = []
                    for model_id, model in self.cohort:
                        trace = tr.call(
                            "path_metrics.PredictionTrace", sr.PredictionTrace,
                            _predict(tr, model, path.images), path_id=f"p{i}",
                        )
                        h = tr.call("path_metrics.hff", sr.hff, trace, HFF_THRESHOLD)
                        c = tr.call("path_metrics.consistent_distance", sr.consistent_distance, trace)
                        tr.count("path_metrics.traces")
                        hffs[model_id].append(h)
                        scores.append((h, c))
                latencies.append(tr.now() - t0)
                kept.append((mode, spec.source_index, path.images[[0, STEPS // 2, -1]], scores))

            accuracies, metrics = [], []
            for model_id, model in self.cohort:
                for dataset, images in (("id", self.x), ("ood", self.ood_x)):
                    correct = _accuracy(tr, model, images, self.y)
                    accuracies.append(sr.AccuracyRecord(model_id, "cohort", dataset, correct, len(self.y)))
                metrics.append(sr.MetricRecord(model_id, "mean_hff", float(np.mean(hffs[model_id]))))
            fits = [
                tr.call(
                    "regression.grouped_regression", sr.grouped_regression, accuracies, metrics,
                    x_spec=x_spec, ood_dataset="ood",
                )
                for x_spec in (sr.regression.ID_ACCURACY, "mean_hff")
            ]
        return {"attempted": len(kept) + len(fits), "paths": len(kept),
                "path_latencies": latencies, "kept": kept, "fits": fits}

    def check(self, out: dict) -> list[str]:
        errors = []
        for mode, src, images, scores in out["kept"]:
            source = sr.dft2(self.x[src])
            err = _path_error(mode, self.x[src], source, images)
            for h, c in scores:
                if not (0.0 <= h <= 1.0 and 1 <= c <= STEPS):
                    err = err or f"HFF {h} or CD {c} out of range"
            if err:
                errors.append(f"{mode} path from {src}: {err}")
        for fit in out["fits"]:
            fitted = sum(g.n_models for g in fit.per_group)
            if fit.skipped or fitted != len(self.cohort):
                errors.append(f"regression on {fit.x_spec} fitted {fitted} of {len(self.cohort)} models")
        return errors


def _path_error(mode: str, x0, source, images) -> str:
    """Oracles for a Fourier path kept as its images at lambda 0, 1/2 and 1."""
    scale = np.abs(source).max()
    if not np.allclose(images[0], x0, rtol=0, atol=1e-9 * np.abs(x0).max()):
        return "image at lambda=0 differs from the source"
    spectra = np.fft.fft2(images, axes=(-2, -1))
    if mode == "phase":
        if not np.allclose(np.abs(spectra), np.abs(source)[None], rtol=0, atol=1e-9 * scale):
            return "phase path changed the source amplitude"
        return ""
    live = np.abs(spectra) > 1e-6 * scale
    drift = np.abs(sr.wrap_angle(np.angle(spectra) - np.angle(source)[None]))
    if np.any(drift[live] > 1e-6):
        return "amplitude path changed the source phase"
    return ""


class CliFiles(_Cohort):
    """The file route for external models: .tnsr/CSV files through the specrob CLI."""

    name = "cli_files"
    n_paths = 16

    def __init__(self, seed: int, tracer, workdir: Path):
        super().__init__(seed, tracer)
        self.workdir = workdir

    def setup(self) -> None:
        super().setup()
        self.x32 = self.x.astype(np.float32)
        self.accuracies = [
            sr.AccuracyRecord(model_id, "cohort", dataset, _accuracy(self.tr, model, images, self.y), len(self.y))
            for model_id, model in self.cohort
            for dataset, images in (("id", self.x), ("ood", self.ood_x))
        ]

    def _cli(self, argv: list, metric: str) -> int:
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            rc = self.tr.call("cli.main", cli.main, [str(a) for a in argv], metric=metric)
        if rc != 0:
            self.tr.count("cli.nonzero_exits")
            self.cli_errors.append(f"specrob {argv[0]} exited {rc}: {captured.getvalue().strip()}")
        return rc

    def run_round(self, k: int) -> dict:
        tr = self.tr
        d = self.workdir / f"round{k}"
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
        self.cli_errors = []
        with tr.span("bench.round"):
            tr.call("tensorio.write_tensor", tensorio.write_tensor, d / "images.tnsr", self.x32)
            tr.count("tensorio.write_mb", self.x32.nbytes / 1e6)
            tr.call("tables.write_labels", tables.write_labels, d / "labels.csv", self.y)
            self._cli(
                ["gen-paths", "--images", d / "images.tnsr", "--labels", d / "labels.csv",
                 "--mode", "pixel", "--class-relation", "between", "--steps", STEPS,
                 "--n-paths", self.n_paths, "--seed", _seed(self.seed, k), "--out", d / "paths"],
                "cli.gen_paths_s",
            )
            with open(d / "paths" / "manifest.csv", newline="") as fh:
                manifest = list(csv.DictReader(fh))
            traces = {model_id: [] for model_id, _ in self.cohort}
            for row in manifest:
                images, _ = tr.call("tensorio.read_tensor", tensorio.read_tensor, d / "paths" / row["file"])
                tr.count("tensorio.read_mb", images.nbytes / 1e6)
                for model_id, model in self.cohort:
                    traces[model_id].append(
                        tr.call(
                            "path_metrics.PredictionTrace", sr.PredictionTrace,
                            _predict(tr, model, images), path_id=row["path_id"],
                        )
                    )
                    tr.count("path_metrics.traces")

            metrics = []
            for model_id, _ in self.cohort:
                trace_file, metrics_file = d / f"traces_{model_id}.csv", d / f"metrics_{model_id}.csv"
                tr.call("tables.write_traces", tables.write_traces, trace_file, traces[model_id])
                tr.count("tables.trace_rows", len(manifest) * STEPS)
                self._cli(
                    ["path-metrics", "--traces", trace_file, "--hff-threshold", HFF_THRESHOLD,
                     "--out", metrics_file],
                    "cli.path_metrics_s",
                )
                _, footer = tr.call("tables.read_path_metrics", tables.read_path_metrics, metrics_file)
                metrics.append(sr.MetricRecord(model_id, "mean_hff", float(footer["mean"][0])))
            tr.call("tables.write_accuracies", tables.write_accuracies, d / "accuracies.csv", self.accuracies)
            tr.call("tables.write_metrics", tables.write_metrics, d / "model_metrics.csv", metrics)
            self._cli(
                ["regress", "--accuracies", d / "accuracies.csv", "--metrics", d / "model_metrics.csv",
                 "--x", "mean_hff", "--ood", "ood", "--out", d / "fit.csv", "--svg", d / "plot.svg"],
                "cli.regress_s",
            )
            self._cli(
                ["report", "--metrics", d / f"metrics_{self.cohort[0][0]}.csv", "--fit", d / "fit.csv",
                 "--out", d / "report.md"],
                "cli.report_s",
            )
        disk = sum(f.stat().st_size for f in d.rglob("*") if f.is_file())
        return {"attempted": 4 + len(manifest) + len(self.cohort),
                "paths": len(manifest), "disk_bytes": disk, "dir": d,
                "manifest": manifest, "cli_errors": self.cli_errors}

    def check(self, out: dict) -> list[str]:
        d, errors = out["dir"], list(out["cli_errors"])
        if len(out["manifest"]) != self.n_paths:
            errors.append(f"manifest lists {len(out['manifest'])} of {self.n_paths} paths")
        for row in out["manifest"]:
            images, _ = tensorio.read_tensor(d / "paths" / row["file"])
            src, dst = int(row["source_index"]), int(row["target_index"])
            if not (np.array_equal(images[0], self.x32[src]) and np.array_equal(images[-1], self.x32[dst])):
                errors.append(f"pixel path {row['path_id']} endpoints differ from its source/target")
        for model_id, _ in self.cohort:
            try:
                rows, _ = tables.read_path_metrics(d / f"metrics_{model_id}.csv")
                written = tables.read_traces(d / f"traces_{model_id}.csv")
            except (ValueError, OSError) as exc:
                errors.append(f"{model_id}: {exc}")
                continue
            expected = [(t.path_id, sr.hff(t, HFF_THRESHOLD), sr.consistent_distance(t)) for t in written]
            got = [(r.path_id, r.hff, r.cd) for r in rows]
            if got != expected or not all(0.0 <= h <= 1.0 and 1 <= c <= STEPS for _, h, c in got):
                errors.append(f"{model_id}: path-metrics CSV disagrees with its traces")
        try:
            with open(d / "fit.csv", newline="") as fh:
                fit_rows = list(csv.DictReader(fh))
            average = [r for r in fit_rows if r["group"] == "__average__"]
            if (any(r["status"] != "fitted" for r in fit_rows) or len(average) != 1
                    or int(average[0]["n_models"]) != len(self.cohort)):
                errors.append("regression did not fit the full cohort")
            if not (d / "plot.svg").stat().st_size or not (d / "report.md").stat().st_size:
                errors.append("empty SVG or report")
        except (OSError, KeyError, ValueError) as exc:
            errors.append(f"regress/report outputs unreadable: {exc}")
        shutil.rmtree(d, ignore_errors=True)
        return errors


# Corruption kinds with a mid-severity parameter, and the band each must
# dominate when the oracle names one.
CORRUPTIONS = (
    ("brightness", 0.5, "low"),
    ("contrast", 0.5, None),
    ("gaussian_noise", 0.3, "high"),
    ("impulse_noise", 0.05, "high"),
    ("gaussian_blur", 1.0, None),
    ("pixelate", 2, None),
)


class ShiftJacobian:
    """Shift PSDs of every corruption kind and Jacobian norms by VJP and by FD."""

    name = "shift_jacobian"
    n_images = 400
    n_proj = 10

    def __init__(self, seed: int, tracer):
        self.seed = seed
        self.tr = tracer

    def setup(self) -> None:
        tr, seed = self.tr, self.seed
        self.x = tr.call("synthetic.powerlaw_images", sr.powerlaw_images, SHAPE, self.n_images, 1.0, seed=seed)
        # A recollected set with a steeper spectrum, compared class by class.
        self.recollected = tr.call(
            "synthetic.powerlaw_images", sr.powerlaw_images, SHAPE, self.n_images, 1.5, seed=seed + 1
        )
        rng = np.random.default_rng([seed, 5])
        self.labels = rng.integers(0, N_CLASSES, size=self.n_images)
        self.recollected_labels = rng.integers(0, N_CLASSES, size=self.n_images)
        train_x, train_y, _, _ = _long_tailed_blobs(tr, seed)
        mlp = tr.call("jacobian.fit_mlp", sr.fit_mlp, train_x, train_y, hidden=16, epochs=30, seed=seed)
        linear = _ridge_linear(tr, train_x, train_y, "logits")

        # The FD estimate is one long library call; probing the host speed
        # from inside its predict callable keeps the clock's stretches short.
        def counted_predict(batch):
            tr.tick()
            tr.count("jacobian.fd_predict_calls")
            return mlp.predict(batch)

        self.predictors = (
            ("linear_logits", linear),
            ("linear_probs", sr.LinearPredictor(linear.weights, linear.bias, SHAPE, "probs")),
            ("mlp_probs", mlp),
            ("mlp_fd", sr.CallablePredictor(counted_predict, N_CLASSES, SHAPE, "probs")),
        )

    def run_round(self, k: int) -> dict:
        tr = self.tr
        shifts, estimates = [], []
        with tr.span("bench.round"):
            start = tr.now()
            for kind, param, _ in CORRUPTIONS:
                with tr.span("bench.shift_map"):
                    corrupted = tr.call(
                        "corruptions.corrupt_batch", sr.corrupt_batch, self.x,
                        sr.CorruptionSpec(kind, param, seed=_seed(self.seed, k)),
                    )
                    tr.count("corruptions.images", len(corrupted))
                    shift = tr.call("shift_psd.paired_shift_psd", sr.paired_shift_psd, self.x, corrupted)
                    fractions = tr.call("shift_psd.band_fractions", sr.band_fractions, shift)
                    profile = tr.call("shift_psd.radial_profile", sr.radial_profile, shift)
                shifts.append((kind, fractions, profile))
            groups_a = {c: self.x[self.labels == c] for c in range(N_CLASSES)}
            groups_b = {c: self.recollected[self.recollected_labels == c] for c in range(N_CLASSES)}
            averaged = tr.call(
                "shift_psd.class_averaged_shift_psd", sr.class_averaged_shift_psd, groups_a, groups_b
            )
            clean = tr.call("spectral.psd", sr.psd, self.x)
            shift_wall = tr.now() - start

            jacobian_start = tr.now()
            for label, predictor in self.predictors:
                estimate = tr.call(
                    "jacobian.estimate_jacobian_norm", sr.estimate_jacobian_norm, predictor, self.x,
                    sr.JacobianConfig(self.n_proj, self.n_images, seed=_seed(self.seed, k)),
                    metric="jacobian.vjp_s" if predictor.has_vjp else "jacobian.fd_s",
                )
                tr.count("jacobian.estimates")
                estimates.append((label, estimate))
            jacobian_wall = tr.now() - jacobian_start
        return {"attempted": len(shifts) + 2 + len(estimates),
                "shift_maps": len(shifts) + 2, "shift_wall": shift_wall,
                "norms": len(estimates), "jacobian_wall": jacobian_wall,
                "shifts": shifts, "averaged": averaged, "clean": clean, "estimates": estimates}

    def check(self, out: dict) -> list[str]:
        errors = []
        for (kind, fractions, profile), (_, _, dominant) in zip(out["shifts"], CORRUPTIONS):
            shares = {"low": fractions.low, "mid": fractions.mid, "high": fractions.high}
            if abs(sum(shares.values()) - 1.0) > 1e-9:
                errors.append(f"{kind}: band fractions sum to {sum(shares.values())}")
            if dominant and max(shares, key=shares.get) != dominant:
                errors.append(f"{kind}: expected {dominant}-dominant bands, got {shares}")
            if not all(np.isfinite(p) and p >= 0 for _, p in profile):
                errors.append(f"{kind}: radial profile has negative or non-finite power")
        if out["averaged"].power.shape != SHAPE[1:] or not np.all(np.isfinite(out["averaged"].power)):
            errors.append("class-averaged shift map is malformed")
        if np.any(out["clean"].power < 0):
            errors.append("clean PSD has negative power")
        for label, est in out["estimates"]:
            if not (0 < est.frobenius_norm < np.inf and est.ci95_low <= est.frobenius_norm <= est.ci95_high):
                errors.append(f"{label}: estimate {est} is not a positive norm inside its CI")
        exact = float(np.linalg.norm(self.predictors[0][1].weights))
        linear = out["estimates"][0][1].frobenius_norm
        if abs(linear - exact) > 0.05 * exact:
            errors.append(f"linear logits estimate {linear} is not within 5% of ||W||_F = {exact}")
        methods = [est.method for _, est in out["estimates"]]
        if methods != ["vjp", "vjp", "vjp", "fd"]:
            errors.append(f"estimates used methods {methods}, expected VJP x3 then FD")
        return errors


WORKLOADS = {cls.name: cls for cls in (ProbeCifar, CliFiles, ShiftJacobian)}
