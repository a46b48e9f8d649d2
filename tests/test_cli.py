import csv
import os

import numpy as np
import pytest

from spectral_robustness.cli import build_parser, main
from spectral_robustness.synthetic import make_blobs
from spectral_robustness.tables import (
    read_path_metrics,
    write_accuracies,
    write_labels,
    write_metrics,
    write_traces,
)
from spectral_robustness.tensorio import read_tensor, write_tensor
from spectral_robustness import AccuracyRecord, MetricRecord, MlpPredictor, PredictionTrace, tensorio
from spectral_robustness.jacobian import pack_mlp_weights
from spectral_robustness.spectral import class_averaged_shift_psd


@pytest.fixture()
def blob_files(tmp_path):
    images, labels = make_blobs((1, 8, 8), n_classes=2, n_per_class=8, seed=3)
    images_path = tmp_path / "images.tnsr"
    labels_path = tmp_path / "labels.csv"
    write_tensor(images_path, images.astype(np.float32))
    write_labels(labels_path, labels)
    return images_path, labels_path


class TestParser:
    def test_usage_error_between_two_runs_changes_nothing(self, tmp_path, capsys, blob_files):
        images_path, _ = blob_files

        def corrupt(out, *extra):
            return main(["corrupt", "--images", str(images_path), "--kind", "gaussian_noise",
                         "--param", "0.3", *extra, "--out", str(out)])

        parser = build_parser()
        assert corrupt(tmp_path / "first.tnsr") == 0
        # --seed parses before the bad --param stops the command.
        with pytest.raises(SystemExit) as info:
            corrupt(tmp_path / "bad.tnsr", "--seed", "5", "--param", "x")
        assert info.value.code == 2
        assert "invalid float value: 'x'" in capsys.readouterr().err
        assert corrupt(tmp_path / "second.tnsr") == 0
        assert build_parser() is parser
        assert not (tmp_path / "bad.tnsr").exists()
        assert (tmp_path / "first.tnsr").read_bytes() == (tmp_path / "second.tnsr").read_bytes()


class TestGenPaths:
    def test_writes_manifest_and_tensors(self, tmp_path, blob_files):
        images_path, labels_path = blob_files
        out = tmp_path / "paths"
        rc = main(
            [
                "gen-paths",
                "--images", str(images_path),
                "--labels", str(labels_path),
                "--mode", "amplitude",
                "--class-relation", "between",
                "--cutoff", "0.4",
                "--steps", "5",
                "--n-paths", "3",
                "--seed", "7",
                "--out", str(out),
            ]
        )
        assert rc == 0
        with open(out / "manifest.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        data, shape = read_tensor(out / rows[0]["file"])
        assert shape == [5, 1, 8, 8]

    def test_deterministic_across_runs(self, tmp_path, blob_files):
        images_path, labels_path = blob_files
        outs = []
        for name in ("run1", "run2"):
            out = tmp_path / name
            main(
                [
                    "gen-paths",
                    "--images", str(images_path),
                    "--labels", str(labels_path),
                    "--mode", "phase",
                    "--steps", "4",
                    "--n-paths", "2",
                    "--seed", "9",
                    "--out", str(out),
                ]
            )
            outs.append(out)
        for name in ["manifest.csv", "path_00000.tnsr", "path_00001.tnsr"]:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_interrupted_rerun_leaves_no_manifest(self, tmp_path, blob_files, monkeypatch):
        images_path, labels_path = blob_files
        images, _ = read_tensor(images_path)
        out = tmp_path / "paths"
        out.mkdir()
        # A user's files, the last three named like path files but not as a run
        # names them (the last with Arabic-Indic digits, which int() would read as 7).
        kept = ["notes.txt", "path_000004.tnsr", "path_00004.tnsr.bak",
                "path_\u0660\u0660\u0660\u0660\u0667.tnsr"]
        for name in kept:
            (out / name).write_text("a user's file\n")

        def gen_paths(seed, n_paths):
            return main(["gen-paths", "--images", str(images_path), "--labels", str(labels_path),
                         "--mode", "pixel", "--steps", "3", "--n-paths", str(n_paths),
                         "--seed", str(seed), "--out", str(out)])

        assert gen_paths(seed=1, n_paths=4) == 0
        real_write, calls = tensorio.write_tensor, []

        def fail_on_third_call(*args):
            calls.append(args[0])
            if len(calls) == 3:
                raise OSError("disk full")
            real_write(*args)

        monkeypatch.setattr(tensorio, "write_tensor", fail_on_third_call)
        assert gen_paths(seed=2, n_paths=4) == 2
        assert len(calls) == 3
        assert not (out / "manifest.csv").exists()
        monkeypatch.undo()

        assert gen_paths(seed=2, n_paths=3) == 0
        with open(out / "manifest.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["file"] for row in rows] == [f"path_0000{i}.tnsr" for i in range(3)]
        for row in rows:
            path, _ = read_tensor(out / row["file"])
            assert np.array_equal(path[0], images[int(row["source_index"])])
            assert np.array_equal(path[-1], images[int(row["target_index"])])
        # The first run's fourth path is gone; files no run writes stay.
        assert not (out / "path_00003.tnsr").exists()
        assert (out / "notes.txt").read_text() == "a user's file\n"
        assert sorted(os.listdir(out)) == sorted(
            ["manifest.csv"] + kept + [f"path_0000{i}.tnsr" for i in range(3)]
        )

    def test_negative_seed_fails_before_output(self, tmp_path, capsys, blob_files):
        images_path, labels_path = blob_files
        out = tmp_path / "paths"
        rc = main(["gen-paths", "--images", str(images_path), "--labels", str(labels_path),
                   "--mode", "phase", "--n-paths", "2", "--seed", "-2", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == "error: seed must be an int >= 0, got -2\n"
        assert not out.exists()


class TestCorrupt:
    def test_negative_seed_fails_before_output(self, tmp_path, capsys, blob_files):
        images_path, _ = blob_files
        out = tmp_path / "corr.tnsr"
        rc = main(["corrupt", "--images", str(images_path), "--kind", "impulse_noise",
                   "--param", "0.1", "--seed", "-2", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == "error: seed must be an int >= 0, got -2\n"
        assert not out.exists()

    def test_brightness_roundtrip(self, tmp_path, blob_files):
        images_path, _ = blob_files
        out = tmp_path / "corr.tnsr"
        rc = main(
            [
                "corrupt",
                "--images", str(images_path),
                "--kind", "brightness",
                "--param", "0.5",
                "--out", str(out),
            ]
        )
        assert rc == 0
        original, _ = read_tensor(images_path)
        corrupted, _ = read_tensor(out)
        assert np.allclose(corrupted - original, 0.5, atol=1e-6)

    @pytest.mark.parametrize(
        "data, message",
        [
            (np.full((2, 1, 4, 4), np.nan, dtype=np.float32), "contains non-finite values"),
            (np.zeros((2, 4, 4), dtype=np.float32), "must be a nonempty (N, C, H, W) stack"),
        ],
        ids=["nan", "3-d"],
    )
    def test_bad_image_stack_fails_before_output(self, tmp_path, capsys, data, message):
        images = tmp_path / "bad.tnsr"
        write_tensor(images, data)
        out = tmp_path / "corr.tnsr"
        rc = main(["corrupt", "--images", str(images), "--kind", "brightness", "--param", "0.5",
                   "--out", str(out)])
        assert rc == 2
        assert f"{images} {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "shape, payload",
        [(b"[4294967296,4294967296]", b""), (b"[true,1,2,2]", b"\x00" * 16)],
        ids=["int64-wrapping-shape", "bool-in-shape"],
    )
    def test_bad_header_shape_fails_before_output(self, tmp_path, capsys, shape, payload):
        images = tmp_path / "bad.tnsr"
        images.write_bytes(
            b'{"dtype":"f32","shape":' + shape + b',"order":"row-major","byte_order":"little"}\n'
            + payload
        )
        out = tmp_path / "corr.tnsr"
        rc = main(["corrupt", "--images", str(images), "--kind", "brightness", "--param", "0.5",
                   "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {images}: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "kind, param", [("contrast", "1e300"), ("gaussian_noise", "1e308")]
    )
    def test_overflowing_result_fails_before_output(self, tmp_path, capsys, kind, param):
        images = tmp_path / "big.tnsr"
        data = np.random.default_rng(0).normal(size=(2, 1, 4, 4)) * 1e38
        write_tensor(images, data.astype(np.float32))
        out = tmp_path / "corr.tnsr"
        rc = main(["corrupt", "--images", str(images), "--kind", kind, "--param", param,
                   "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == f"error: {kind} with param {float(param)} takes the images beyond the float64 range\n"
        assert not out.exists()


class TestPsdShift:
    def test_paired_mode_with_bands_and_pgm(self, tmp_path, blob_files):
        images_path, _ = blob_files
        corr = tmp_path / "corr.tnsr"
        main(
            [
                "corrupt",
                "--images", str(images_path),
                "--kind", "brightness",
                "--param", "0.5",
                "--out", str(corr),
            ]
        )
        out = tmp_path / "psd.tnsr"
        bands = tmp_path / "bands.csv"
        pgm = tmp_path / "psd.pgm"
        rc = main(
            [
                "psd-shift",
                "--mode", "paired",
                "--a", str(images_path),
                "--b", str(corr),
                "--out", str(out),
                "--bands", str(bands),
                "--pgm", str(pgm),
            ]
        )
        assert rc == 0
        with open(bands) as fh:
            row = list(csv.DictReader(fh))[0]
        assert float(row["low"]) > 0.9
        assert pgm.read_text().startswith("P2")
        _, shape = read_tensor(out)
        assert shape == [8, 8]

    def test_class_averaged_requires_labels(self, tmp_path, blob_files):
        images_path, labels_path = blob_files
        rc = main(
            [
                "psd-shift",
                "--mode", "class-averaged",
                "--a", str(images_path),
                "--b", str(images_path),
                "--out", str(tmp_path / "psd.tnsr"),
            ]
        )
        assert rc == 2

    def test_missing_labels_named_before_any_file_is_read(self, tmp_path, capsys):
        out = tmp_path / "psd.tnsr"
        rc = main(["psd-shift", "--mode", "class-averaged", "--a", str(tmp_path / "none.tnsr"),
                   "--b", str(tmp_path / "none.tnsr"), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: class-averaged mode needs --labels-a and --labels-b\n"
        )
        assert not out.exists()

    def test_class_averaged_identical_groups(self, tmp_path, blob_files):
        images_path, labels_path = blob_files
        out = tmp_path / "psd.tnsr"
        rc = main(
            [
                "psd-shift",
                "--mode", "class-averaged",
                "--a", str(images_path),
                "--b", str(images_path),
                "--labels-a", str(labels_path),
                "--labels-b", str(labels_path),
                "--out", str(out),
                "--band-edges", "0.2,0.7",
            ]
        )
        # identical groups -> all-zero map -> band fractions undefined
        assert rc == 2

    @pytest.mark.parametrize("edges", ["0.3", "0.3,x", "0.2,0.4,0.6"])
    def test_bad_band_edges_are_a_usage_error_before_any_read(self, tmp_path, capsys, edges):
        out = tmp_path / "psd.tnsr"
        argv = ["psd-shift", "--mode", "paired", "--a", str(tmp_path / "missing-a.tnsr"),
                "--b", str(tmp_path / "missing-b.tnsr"), "--out", str(out), "--band-edges", edges]
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --band-edges: expected two numbers r1,r2, got '{edges}'" in err
        assert "missing" not in err
        assert not out.exists()

    def test_shift_map_beyond_float32_fails_without_output(self, tmp_path, capsys):
        # Inputs near 1e30 fit float32, but their power (about 1e60) does not.
        rng = np.random.default_rng(4)
        a = rng.normal(size=(4, 1, 8, 8)) * 1e30
        write_tensor(tmp_path / "a.tnsr", a)
        write_tensor(tmp_path / "b.tnsr", 2 * a)
        out = tmp_path / "psd.tnsr"
        rc = main(["psd-shift", "--mode", "paired", "--a", str(tmp_path / "a.tnsr"),
                   "--b", str(tmp_path / "b.tnsr"), "--out", str(out)])
        assert rc == 2
        assert f"{out}: a finite value overflows float32" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["a.tnsr", "b.tnsr"]


    @pytest.mark.parametrize("late", ["--pgm", "--bands"])
    @pytest.mark.parametrize("old", [None, b"old bytes"], ids=["no-old-out", "old-out"])
    def test_missing_directory_for_a_later_output_writes_nothing(self, tmp_path, capsys, late, old):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(4, 1, 8, 8))
        write_tensor(tmp_path / "a.tnsr", a)
        write_tensor(tmp_path / "b.tnsr", a + rng.normal(size=a.shape))
        out = tmp_path / "psd.tnsr"
        if old is not None:
            out.write_bytes(old)
        targets = {"--pgm": tmp_path / "psd.pgm", "--bands": tmp_path / "bands.csv"}
        targets[late] = tmp_path / "nodir" / "late"
        rc = main(["psd-shift", "--mode", "paired", "--a", str(tmp_path / "a.tnsr"),
                   "--b", str(tmp_path / "b.tnsr"), "--out", str(out),
                   "--pgm", str(targets["--pgm"]), "--bands", str(targets["--bands"])])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [
            f"error: {targets[late]}: output must be a regular file in an existing directory"
        ]
        assert (out.read_bytes() if out.exists() else None) == old
        assert sorted(os.listdir(tmp_path)) == sorted(["a.tnsr", "b.tnsr"] + ["psd.tnsr"] * bool(old))

    @pytest.mark.parametrize("alias", [False, True], ids=["same-path", "symlink"])
    def test_two_outputs_naming_one_file_write_nothing(self, tmp_path, capsys, alias):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(4, 1, 8, 8))
        write_tensor(tmp_path / "a.tnsr", a)
        write_tensor(tmp_path / "b.tnsr", a + rng.normal(size=a.shape))
        out = tmp_path / "o.tnsr"
        pgm = tmp_path / "link.pgm" if alias else out
        if alias:
            pgm.symlink_to(out)
        rc = main(["psd-shift", "--mode", "paired", "--a", str(tmp_path / "a.tnsr"),
                   "--b", str(tmp_path / "b.tnsr"), "--out", str(out), "--pgm", str(pgm),
                   "--bands", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: --out and --pgm name one output file, {os.path.realpath(out)}"
        ]
        assert sorted(os.listdir(tmp_path)) == ["a.tnsr", "b.tnsr"] + ["link.pgm"] * alias
        assert not out.exists()

    def test_class_averaged_copies_no_class_out_of_its_inputs(self, tmp_path, traced_peak):
        # Copying every class out of both stacks peaked at about 4.5 float64
        # stacks; sorting each stack in place and slicing it peaks at about 3.
        rng = np.random.default_rng(8)
        shape = (400, 3, 32, 32)
        stacks, groups = {}, {}
        for name in ("a", "b"):
            images = rng.normal(size=shape).astype(np.float32)
            labels = rng.integers(0, 10, size=shape[0])
            write_tensor(tmp_path / f"{name}.tnsr", images)
            write_labels(tmp_path / f"{name}.csv", labels)
            stacks[name] = images.astype(np.float64)
            groups[name] = {int(k): stacks[name][labels == k] for k in np.unique(labels)}
        expected = class_averaged_shift_psd(groups["a"], groups["b"]).power.astype(np.float32)
        out = tmp_path / "psd.tnsr"
        argv = ["psd-shift", "--mode", "class-averaged", "--a", str(tmp_path / "a.tnsr"),
                "--b", str(tmp_path / "b.tnsr"), "--labels-a", str(tmp_path / "a.csv"),
                "--labels-b", str(tmp_path / "b.csv"), "--out", str(out)]
        rc, peak = traced_peak(lambda: main(argv))
        assert rc == 0
        assert np.array_equal(read_tensor(out)[0], expected)
        assert peak < 3.7 * stacks["a"].nbytes


class TestPathMetricsCommand:
    def test_metrics_csv(self, tmp_path):
        rng = np.random.default_rng(0)
        traces = []
        for i in range(4):
            raw = rng.random((30, 3)) + 1e-8
            traces.append(
                PredictionTrace(raw / raw.sum(axis=1, keepdims=True), path_id=f"p{i}")
            )
        tr_path = tmp_path / "traces.csv"
        write_traces(tr_path, traces)
        out = tmp_path / "metrics.csv"
        rc = main(
            ["path-metrics", "--traces", str(tr_path), "--hff-threshold", "5", "--out", str(out)]
        )
        assert rc == 0
        rows, footer = read_path_metrics(out)
        assert len(rows) == 4
        assert footer["hff_threshold_k"][0] == "5"
        assert all(0.0 <= r.hff <= 1.0 for r in rows)
        assert all(2 <= r.cd <= 30 for r in rows)

    def test_threshold_over_the_shortest_path_fails_naming_it(self, tmp_path, capsys):
        rng = np.random.default_rng(7)
        traces = []
        for path_id, t in (("long", 100), ("short", 3)):
            raw = rng.random((t, 2)) + 1e-8
            traces.append(PredictionTrace(raw / raw.sum(axis=1, keepdims=True), path_id=path_id))
        tr_path = tmp_path / "traces.csv"
        write_traces(tr_path, traces)
        out = tmp_path / "m.csv"
        rc = main(["path-metrics", "--traces", str(tr_path), "--hff-threshold", "10", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {tr_path}: --hff-threshold must be at most 1 for path 'short' of 3 steps, got 10\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("k", ["0", "-3"])
    def test_threshold_below_one_fails_naming_the_option(self, tmp_path, capsys, k):
        raw = np.full((10, 2), 0.5)
        tr_path = tmp_path / "traces.csv"
        write_traces(tr_path, [PredictionTrace(raw, path_id="p")])
        out = tmp_path / "m.csv"
        rc = main(["path-metrics", "--traces", str(tr_path), "--hff-threshold", k, "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: --hff-threshold must be at least 1, got {k}\n"
        assert not out.exists()

    def test_malformed_traces_fail(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("path_id,step,p_0,p_1\nx,1,0.9,0.9\nx,2,0.5,0.5\n")
        rc = main(["path-metrics", "--traces", str(bad), "--out", str(tmp_path / "m.csv")])
        assert rc == 2

    @pytest.mark.parametrize("header", ["path_id,step,p_0,p_1\n", "path_id,step,p_0,p_1"])
    def test_header_only_traces_fail_naming_the_file(self, tmp_path, capsys, header):
        bad = tmp_path / "bad.csv"
        bad.write_text(header)
        out = tmp_path / "m.csv"
        rc = main(["path-metrics", "--traces", str(bad), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {bad}: no trace rows\n"
        assert not out.exists()

    def test_field_over_csv_limit_fails_with_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("path_id,step,p_0,p_1\na,1,0.5,0.5\na,2,0.5,0.5\n" + "x" * 200_000 + ",1,0.5,0.5\n")
        out = tmp_path / "m.csv"
        rc = main(["path-metrics", "--traces", str(bad), "--out", str(out)])
        assert rc == 2
        assert f"{bad} line 4: field larger than field limit" in capsys.readouterr().err
        assert not out.exists()

    def test_undecodable_byte_fails_with_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"path_id,step,p_0,p_1\na,1,0.5,0.5\nb\xff,1,0.5,0.5\nb\xff,2,0.5,0.5\n")
        out = tmp_path / "m.csv"
        rc = main(["path-metrics", "--traces", str(bad), "--out", str(out)])
        assert rc == 2
        assert f"{bad} line 3: byte 0xff is not valid" in capsys.readouterr().err
        assert not out.exists()


class TestJacobianCommand:
    def test_linear_predictor(self, tmp_path):
        rng = np.random.default_rng(1)
        k, d = 4, 16
        w = rng.normal(size=(k, d + 1)).astype(np.float32)
        w[:, -1] = 0.0
        weights = tmp_path / "w.tnsr"
        write_tensor(weights, w)
        images = tmp_path / "x.tnsr"
        write_tensor(images, rng.normal(size=(50, 1, 4, 4)).astype(np.float32))
        out = tmp_path / "jac.csv"
        rc = main(
            [
                "jacobian",
                "--predictor", "linear",
                "--weights", str(weights),
                "--images", str(images),
                "--nproj", "40",
                "--batch", "50",
                "--target", "logits",
                "--seed", "5",
                "--out", str(out),
            ]
        )
        assert rc == 0
        with open(out) as fh:
            row = list(csv.DictReader(fh))[0]
        true_norm = np.linalg.norm(w[:, :-1].astype(np.float64))
        assert abs(float(row["frobenius_norm"]) - true_norm) / true_norm < 0.1
        assert row["method"] == "vjp"
        assert row["n_estimates"] == "2000"

    def test_missing_linear_weights_named_before_any_file_is_read(self, tmp_path, capsys):
        out = tmp_path / "jac.csv"
        rc = main(["jacobian", "--predictor", "linear", "--images", str(tmp_path / "none.tnsr"),
                   "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == "error: --weights is required for the linear predictor\n"
        assert not out.exists()

    def test_builtin_mlp_without_weights(self, tmp_path, blob_files):
        images_path, _ = blob_files
        out = tmp_path / "jac.csv"
        rc = main(
            [
                "jacobian",
                "--predictor", "mlp",
                "--images", str(images_path),
                "--nproj", "2",
                "--batch", "8",
                "--seed", "3",
                "--out", str(out),
            ]
        )
        assert rc == 0
        with open(out) as fh:
            row = list(csv.DictReader(fh))[0]
        assert float(row["frobenius_norm"]) > 0
        assert row["target"] == "probs"

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--batch", "17"], "need at least 17 images for batch size 17, got 16"),
            (["--batch", "8", "--nproj", "0"], "n_proj must be an int >= 1, got 0"),
            (["--batch", "8", "--seed", "-2"], "seed must be an int >= 0, got -2"),
        ],
        ids=["batch-over-image-count", "nproj-0", "negative-seed"],
    )
    def test_bad_batch_or_nproj_fails_before_training(
        self, tmp_path, capsys, monkeypatch, blob_files, flags, message
    ):
        def no_training(*args, **kwargs):
            raise AssertionError("the MLP was trained before the arguments were checked")

        monkeypatch.setattr("spectral_robustness.jacobian.fit_mlp", no_training)
        monkeypatch.setattr("spectral_robustness.synthetic.make_blobs", no_training)
        images_path, _ = blob_files
        out = tmp_path / "jac.csv"
        rc = main(
            ["jacobian", "--predictor", "mlp", "--images", str(images_path), "--out", str(out)]
            + flags
        )
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {message}"]
        assert not out.exists()


    @staticmethod
    def write_mlp_weights(path, dims=(16, 3, 2), bad=None):
        """Packed weights of a small MLP on (1, 4, 4) images, with the ``bad`` (index, value) set."""
        rng = np.random.default_rng(6)
        predictor = MlpPredictor(
            rng.normal(size=(3, 16)), np.zeros(3), rng.normal(size=(2, 3)), np.zeros(2)
        )
        packed = pack_mlp_weights(predictor)
        packed[:3] = dims
        if bad is not None:
            packed[bad[0]] = bad[1]
        write_tensor(path, packed)

    @pytest.mark.parametrize(
        "predictor, weights, message",
        [
            ("linear", "nan-weight", "weights and biases must be finite"),
            ("mlp", "nan-weight", "weights and biases must be finite"),
            ("mlp", "fractional-dim",
             "packed MLP dims [D, hidden, K] must be integers >= 1, got [16.5, 3.0, 2.0]"),
            ("mlp", "nan-dim",
             "packed MLP dims [D, hidden, K] must be integers >= 1, got [16.0, nan, 2.0]"),
            ("linear", "no-bias-column",
             "linear weights must have shape (K, D+1) with D=16, got [2, 16]"),
            ("linear", "flat", "linear weights must have shape (K, D+1) with D=16, got [34]"),
            ("mlp", "short", "packed MLP weights must start with [D, hidden, K]"),
            ("mlp", "one-value-short",
             "packed MLP weights have 61 values, expected 62 for D=16, hidden=3, K=2"),
        ],
        ids=["linear-nan-weight", "mlp-nan-weight", "mlp-fractional-dim", "mlp-nan-dim",
             "linear-no-bias-column", "linear-flat", "mlp-short", "mlp-one-value-short"],
    )
    def test_bad_weights_fail_before_output(self, tmp_path, capsys, predictor, weights, message):
        rng = np.random.default_rng(7)
        images = tmp_path / "x.tnsr"
        write_tensor(images, rng.normal(size=(8, 1, 4, 4)))
        path = tmp_path / "w.tnsr"
        if predictor == "linear":
            w = rng.normal(size={"no-bias-column": (2, 16), "flat": (34,)}.get(weights, (2, 17)))
            if weights == "nan-weight":
                w[1, 5] = np.nan
            write_tensor(path, w)
        elif weights in ("short", "one-value-short"):
            self.write_mlp_weights(path)
            packed, _ = read_tensor(path)
            write_tensor(path, packed[:2] if weights == "short" else packed[:-1])
        else:
            self.write_mlp_weights(
                path,
                dims=(16.5, 3, 2) if weights == "fractional-dim" else (16, 3, 2),
                bad={"nan-weight": (10, np.nan), "nan-dim": (1, np.nan)}.get(weights),
            )
        out = tmp_path / "jac.csv"
        rc = main(["jacobian", "--predictor", predictor, "--weights", str(path),
                   "--images", str(images), "--batch", "8", "--nproj", "2", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not out.exists()


class TestRegressCommand:
    def make_tables(self, tmp_path):
        accs, mets = [], []
        rng = np.random.default_rng(2)
        for g, slope in (("conv", 0.9), ("vgg", 1.0)):
            for i in range(5):
                idc = int(6000 + 800 * i + rng.integers(0, 50))
                accs.append(AccuracyRecord(f"{g}{i}", g, "id-set", idc, 10000))
                accs.append(AccuracyRecord(f"{g}{i}", g, "ood-set", int(idc * 0.9), 10000))
                mets.append(MetricRecord(f"{g}{i}", "amp_hff", 0.3 - 0.02 * i, "raw"))
        acc_path = tmp_path / "acc.csv"
        met_path = tmp_path / "met.csv"
        write_accuracies(acc_path, accs)
        write_metrics(met_path, mets)
        return acc_path, met_path

    def test_id_accuracy_fit_with_svg(self, tmp_path):
        acc_path, met_path = self.make_tables(tmp_path)
        out = tmp_path / "fit.csv"
        svg = tmp_path / "plot.svg"
        rc = main(
            [
                "regress",
                "--accuracies", str(acc_path),
                "--metrics", str(met_path),
                "--x", "ID accuracy",
                "--ood", "ood-set",
                "--out", str(out),
                "--svg", str(svg),
            ]
        )
        assert rc == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        groups = [r["group"] for r in rows]
        assert groups == ["conv", "vgg", "__average__"]
        assert all(r["x_transform"] == "probit" for r in rows)
        assert svg.read_text().startswith("<?xml")

    @pytest.mark.parametrize("alias", [False, True], ids=["same-path", "symlink"])
    def test_out_and_svg_naming_one_file_write_nothing(self, tmp_path, capsys, alias):
        acc_path, met_path = self.make_tables(tmp_path)
        out = tmp_path / "fit.csv"
        svg = tmp_path / "plot.svg" if alias else out
        if alias:
            svg.symlink_to(out)
        rc = main(["regress", "--accuracies", str(acc_path), "--metrics", str(met_path),
                   "--x", "ID accuracy", "--ood", "ood-set", "--out", str(out), "--svg", str(svg)])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: --out and --svg name one output file, {os.path.realpath(out)}"
        ]
        assert sorted(os.listdir(tmp_path)) == ["acc.csv", "met.csv"] + ["plot.svg"] * alias
        assert not out.exists()

    @pytest.mark.parametrize("x", ["ID accuracy", "amp_hff"])
    def test_svg_has_one_marker_per_model(self, tmp_path, x):
        acc_path, met_path = self.make_tables(tmp_path)
        with open(acc_path, "a") as fh:
            # A group of one is skipped but still drawn; a model with no ID
            # accuracy and no metric has no x and is not.
            fh.write("solo0,solo,id-set,7000,10000\nsolo0,solo,ood-set,6000,10000\n")
            fh.write("orphan,vgg,ood-set,5000,10000\n")
        with open(met_path, "a") as fh:
            fh.write("solo0,amp_hff,0.2,raw\n")
        svg = tmp_path / "plot.svg"
        with pytest.warns(UserWarning, match="solo"):
            rc = main(["regress", "--accuracies", str(acc_path), "--metrics", str(met_path),
                       "--x", x, "--ood", "ood-set", "--out", str(tmp_path / "fit.csv"),
                       "--svg", str(svg)])
        assert rc == 0
        text = svg.read_text()
        assert text.count("<circle") == 11
        assert ">solo</text>" in text

    def test_metric_fit(self, tmp_path):
        acc_path, met_path = self.make_tables(tmp_path)
        out = tmp_path / "fit.csv"
        rc = main(
            [
                "regress",
                "--accuracies", str(acc_path),
                "--metrics", str(met_path),
                "--x", "amp_hff",
                "--ood", "ood-set",
                "--out", str(out),
            ]
        )
        assert rc == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert all(r["x_transform"] == "raw" for r in rows)

    def test_unknown_metric_fails(self, tmp_path):
        acc_path, met_path = self.make_tables(tmp_path)
        rc = main(
            [
                "regress",
                "--accuracies", str(acc_path),
                "--metrics", str(met_path),
                "--x", "nope",
                "--ood", "ood-set",
                "--out", str(tmp_path / "fit.csv"),
            ]
        )
        assert rc == 2

    def test_duplicate_metric_row_fails_before_output(self, tmp_path, capsys):
        acc_path, met_path = self.make_tables(tmp_path)
        with open(met_path, "a") as fh:
            fh.write("conv0,amp_hff,0.5,raw\n")
        out = tmp_path / "fit.csv"
        rc = main(
            [
                "regress",
                "--accuracies", str(acc_path),
                "--metrics", str(met_path),
                "--x", "amp_hff",
                "--ood", "ood-set",
                "--out", str(out),
            ]
        )
        assert rc == 2
        assert "line 12: duplicate" in capsys.readouterr().err
        assert not out.exists()

    def test_id_dataset_equal_to_ood_dataset_fails_before_output(self, tmp_path, capsys):
        acc_path, met_path = self.make_tables(tmp_path)
        out, svg = tmp_path / "fit.csv", tmp_path / "plot.svg"
        rc = main(["regress", "--accuracies", str(acc_path), "--metrics", str(met_path),
                   "--x", "ID accuracy", "--id", "ood-set", "--ood", "ood-set",
                   "--out", str(out), "--svg", str(svg)])
        assert rc == 2
        assert capsys.readouterr().err == "error: ID and OOD dataset are both 'ood-set'\n"
        assert not out.exists() and not svg.exists()

    def test_unknown_id_dataset_fails_naming_it_before_output(self, tmp_path, capsys):
        acc_path, met_path = self.make_tables(tmp_path)
        out = tmp_path / "fit.csv"
        rc = main(["regress", "--accuracies", str(acc_path), "--metrics", str(met_path),
                   "--x", "ID accuracy", "--id", "nope", "--ood", "ood-set", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == "error: no accuracy records for ID dataset 'nope'\n"
        assert not out.exists()

    def test_group_by_is_not_an_option(self, tmp_path, capsys):
        acc_path, met_path = self.make_tables(tmp_path)
        out = tmp_path / "fit.csv"
        with pytest.raises(SystemExit) as exc:
            main(["regress", "--accuracies", str(acc_path), "--metrics", str(met_path),
                  "--x", "ID accuracy", "--ood", "ood-set", "--group-by", "g", "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --group-by g" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_metric_fails_before_output(self, tmp_path, capsys, value):
        acc_path, met_path = self.make_tables(tmp_path)
        with open(met_path, "a") as fh:
            fh.write(f"extra,amp_hff,{value},raw\n")
        out, svg = tmp_path / "fit.csv", tmp_path / "plot.svg"
        rc = main(["regress", "--accuracies", str(acc_path), "--metrics", str(met_path),
                   "--x", "amp_hff", "--ood", "ood-set", "--out", str(out), "--svg", str(svg)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {met_path} line 12: metric 'amp_hff' must be finite, got {float(value)}\n"
        )
        assert not out.exists() and not svg.exists()


    @pytest.mark.parametrize("old", [None, b"old bytes"], ids=["no-old-out", "old-out"])
    def test_missing_svg_directory_writes_nothing(self, tmp_path, capsys, old):
        acc_path, met_path = self.make_tables(tmp_path)
        out = tmp_path / "fit.csv"
        if old is not None:
            out.write_bytes(old)
        svg = tmp_path / "nodir" / "plot.svg"
        rc = main(["regress", "--accuracies", str(acc_path), "--metrics", str(met_path),
                   "--x", "ID accuracy", "--ood", "ood-set", "--out", str(out), "--svg", str(svg)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {svg}: output must be a regular file in an existing directory"]
        assert (out.read_bytes() if out.exists() else None) == old


class TestReportCommand:
    def test_markdown_summary(self, tmp_path):
        rng = np.random.default_rng(3)
        raw = rng.random((20, 2)) + 1e-8
        traces = [PredictionTrace(raw / raw.sum(axis=1, keepdims=True), path_id="p0")]
        tr_path = tmp_path / "traces.csv"
        write_traces(tr_path, traces)
        metrics_path = tmp_path / "metrics.csv"
        main(["path-metrics", "--traces", str(tr_path), "--out", str(metrics_path)])
        report = tmp_path / "report.md"
        rc = main(["report", "--metrics", str(metrics_path), "--out", str(report)])
        assert rc == 0
        text = report.read_text()
        assert text.startswith("# Robustness metrics report")
        assert "| HFF |" in text

    def test_underscored_path_id_counts_as_a_path(self, tmp_path):
        raw = np.full((20, 2), 0.5)
        tr_path = tmp_path / "traces.csv"
        write_traces(tr_path, [PredictionTrace(raw, path_id=pid) for pid in ("__x__", "p")])
        metrics_path = tmp_path / "metrics.csv"
        assert main(["path-metrics", "--traces", str(tr_path), "--out", str(metrics_path)]) == 0
        report = tmp_path / "report.md"
        assert main(["report", "--metrics", str(metrics_path), "--out", str(report)]) == 0
        assert "Paths analyzed: 2\n" in report.read_text()

    def test_header_only_metrics_fail_naming_the_file(self, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.csv"
        metrics_path.write_text("path_id,hff,cd\n")
        report = tmp_path / "report.md"
        rc = main(["report", "--metrics", str(metrics_path), "--out", str(report)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {metrics_path}: no path rows\n"
        assert not report.exists()

    def test_footer_name_as_path_id_fails_before_output(self, tmp_path, capsys):
        tr_path = tmp_path / "traces.csv"
        write_traces(tr_path, [PredictionTrace(np.full((20, 2), 0.5), path_id="__mean__")])
        metrics_path = tmp_path / "metrics.csv"
        rc = main(["path-metrics", "--traces", str(tr_path), "--out", str(metrics_path)])
        assert rc == 2
        assert "path_id '__mean__' is reserved for a summary footer row" in capsys.readouterr().err
        assert not metrics_path.exists()

    @pytest.mark.parametrize(
        "row, key, first",
        [("__mean__,0.9,9", "'__mean__'", 4), ("p0,0.9,9", "'p0'", 2)],
    )
    def test_repeated_metrics_row_fails_before_output(self, tmp_path, capsys, row, key, first):
        metrics_path = tmp_path / "metrics.csv"
        metrics_path.write_text(f"path_id,hff,cd\np0,0.2,3\n__hff_threshold_k__,10,\n__mean__,0.2,3\n{row}\n")
        report = tmp_path / "report.md"
        rc = main(["report", "--metrics", str(metrics_path), "--out", str(report)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{metrics_path} line 5: duplicate (path_id) {key}, first on line {first}" in err
        assert not report.exists()

    def test_fit_section_has_one_row_per_fit_row(self, tmp_path):
        tr_path = tmp_path / "traces.csv"
        write_traces(tr_path, [PredictionTrace(np.full((20, 2), 0.5), path_id="p0")])
        metrics_path = tmp_path / "metrics.csv"
        assert main(["path-metrics", "--traces", str(tr_path), "--out", str(metrics_path)]) == 0
        accs, mets = [], []
        for group, oods, hffs in (("tied", (2, 3, 4), (0.1,) * 3),
                                  ("spread", (80, 87, 94), (0.2, 0.3, 0.4))):
            for i in range(3):
                accs.append(AccuracyRecord(f"{group}{i}", group, "ood-set", oods[i], 200))
                mets.append(MetricRecord(f"{group}{i}", "mean_hff", hffs[i]))
        write_accuracies(tmp_path / "acc.csv", accs)
        write_metrics(tmp_path / "met.csv", mets)
        fit = tmp_path / "fit.csv"
        with pytest.warns(UserWarning, match="^skipping group 'tied': constant predictor values$"):
            rc = main(["regress", "--accuracies", str(tmp_path / "acc.csv"),
                       "--metrics", str(tmp_path / "met.csv"), "--x", "mean_hff",
                       "--ood", "ood-set", "--out", str(fit)])
        assert rc == 0
        with open(fit, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["group"], r["status"]) for r in rows] == [
            ("spread", "fitted"),
            ("tied", "skipped: constant predictor values"),
            ("__average__", "fitted"),
        ]
        report = tmp_path / "report.md"
        assert main(["report", "--metrics", str(metrics_path), "--fit", str(fit), "--out", str(report)]) == 0
        text = report.read_text()
        section = text[text.index("## Probit-domain regression"):].split("\n")
        assert section == [
            "## Probit-domain regression",
            "",
            "Predictor: mean_hff (raw); OOD dataset: ood-set",
            "",
            "| group | n | slope | intercept | R^2 | status |",
            "|---|---|---|---|---|---|",
            *(f"| {r['group']} | {r['n_models']} | {r['slope']} | {r['intercept']} | "
              f"{r['r2']} | {r['status']} |" for r in rows),
            "",
        ]

    def test_unreadable_fit_fails_with_line(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        raw = rng.random((20, 2)) + 1e-8
        tr_path = tmp_path / "traces.csv"
        write_traces(tr_path, [PredictionTrace(raw / raw.sum(axis=1, keepdims=True), path_id="p0")])
        metrics_path = tmp_path / "metrics.csv"
        main(["path-metrics", "--traces", str(tr_path), "--out", str(metrics_path)])
        header = b"group,n_models,slope,intercept,r2,status,x_spec,x_transform,ood_dataset\n"
        for name, body, message in [
            ("long.csv", b"g" * 200_000 + b",2,1,0,1,fitted,x,raw,ood\n", "line 2: field larger"),
            ("bytes.csv", b"g\xff,2,1,0,1,fitted,x,raw,ood\n", "line 2: byte 0xff"),
            ("header.csv", b"group,slope\ng,1\n", "line 1: header must be"),
        ]:
            fit = tmp_path / name
            fit.write_bytes(header + body if name != "header.csv" else body)
            report = tmp_path / "report.md"
            rc = main(["report", "--metrics", str(metrics_path), "--fit", str(fit), "--out", str(report)])
            assert rc == 2
            assert f"{fit} {message}" in capsys.readouterr().err
            assert not report.exists()
