import argparse
import json
import math
import os
import re
import stat

import numpy as np
import pytest

from spectral_robustness import (
    InvalidInputError,
    MetricSummary,
    PathMetrics,
    PredictionTrace,
    PsdMap,
    TensorFormatError,
    cli,
    render,
    tables,
    tensorio,
)
from spectral_robustness.tensorio import read_tensor, write_tensor


class TestWrite:
    def test_exact_byte_layout(self, tmp_path):
        out = tmp_path / "t.tnsr"
        write_tensor(out, np.arange(4, dtype=np.float32).reshape(1, 2, 2))
        raw = out.read_bytes()
        header = b'{"dtype":"f32","shape":[1,2,2],"order":"row-major","byte_order":"little"}\n'
        assert raw.startswith(header)
        payload = raw[len(header) :]
        assert len(payload) == 16
        assert np.array_equal(
            np.frombuffer(payload, dtype="<f4"), np.arange(4, dtype=np.float32)
        )

    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        for i in range(10):
            arr = rng.normal(size=(3, 5, 7)).astype(np.float32)
            out = tmp_path / f"r{i}.tnsr"
            write_tensor(out, arr)
            back, shape = read_tensor(out)
            assert shape == [3, 5, 7]
            assert np.array_equal(back.view(np.uint32), arr.view(np.uint32))

    def test_float32_overflow_rejected_before_writing(self, tmp_path):
        out = tmp_path / "big.tnsr"
        with pytest.raises(TensorFormatError, match=r"big\.tnsr: a finite value overflows float32"):
            write_tensor(out, np.array([1.0, 1e39, 2.0]))
        assert os.listdir(tmp_path) == []

    def test_non_finite_values_round_trip(self, tmp_path):
        out = tmp_path / "nf.tnsr"
        arr = np.array([np.nan, np.inf, -np.inf, 3.4e38, -1.0])
        write_tensor(out, arr)
        back, _ = read_tensor(out)
        assert np.array_equal(back, arr.astype(np.float32), equal_nan=True)

    def test_interrupted_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        out = tmp_path / "x.tnsr"
        write_tensor(out, np.arange(6.0).reshape(2, 3))
        before = out.read_bytes()

        class FullDisk:
            """Writes the header, then half of the payload, then fails."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                if len(data) == 4 * 16:
                    self.fh.write(data[:32])
                    raise OSError("disk full")
                return self.fh.write(data)

        real_open = open
        monkeypatch.setattr(tensorio, "open", lambda *a: FullDisk(real_open(*a)), raising=False)
        for name in ("x.tnsr", "new.tnsr"):
            with pytest.raises(OSError, match="disk full"):
                write_tensor(tmp_path / name, np.ones((4, 4)))
        assert os.listdir(tmp_path) == ["x.tnsr"]
        assert out.read_bytes() == before


class TestRead:
    def test_missing_newline_rejected(self, tmp_path):
        p = tmp_path / "x.tnsr"
        p.write_bytes(b'{"dtype":"f32"}')
        with pytest.raises(TensorFormatError, match="header"):
            read_tensor(p)

    def test_file_without_newline_rejected_without_reading_it_whole(self, tmp_path, traced_peak):
        p = tmp_path / "x.tnsr"
        with open(p, "wb") as fh:
            fh.truncate(64 << 20)  # 64 MiB of zero bytes, sparse where the file system allows
        info, peak = traced_peak(lambda: pytest.raises(TensorFormatError, read_tensor, p))
        assert str(info.value) == f"{p}: missing header line (no newline in the first 4096 bytes)"
        assert peak < 1 << 20

    def test_header_cap_lies_past_the_longest_header_written(self, tmp_path):
        # 64 dimensions of 19 digits, padded with JSON spaces to the last byte the cap allows.
        dims = ",".join(["0"] + ["9223372036854775807"] * 63)
        body = f'{{"dtype":"f32","order":"row-major","byte_order":"little","shape":[{dims}]}}'
        assert len(body) < 1400
        p = tmp_path / "x.tnsr"
        p.write_bytes(body.encode() + b" " * (tensorio._HEADER_CAP - 1 - len(body)) + b"\n")
        with pytest.raises(TensorFormatError, match="bad shape"):
            read_tensor(p)
        p.write_bytes(b" " + p.read_bytes())
        with pytest.raises(TensorFormatError, match="missing header line"):
            read_tensor(p)

    @pytest.mark.parametrize("shape", [[1] * 65, [0, 2**62, 2**62]], ids=["65-dims", "too-big"])
    def test_shape_numpy_cannot_hold_rejected(self, tmp_path, shape):
        p = tmp_path / "x.tnsr"
        header = {"dtype": "f32", "shape": shape, "order": "row-major", "byte_order": "little"}
        p.write_bytes(json.dumps(header).encode() + b"\n" + b"\x00" * 4 * math.prod(shape))
        with pytest.raises(TensorFormatError, match=re.escape(f"{p}: bad shape {shape!r}: ")):
            read_tensor(p)

    def test_malformed_json_rejected(self, tmp_path):
        p = tmp_path / "x.tnsr"
        p.write_bytes(b"not json\n" + b"\x00" * 4)
        with pytest.raises(TensorFormatError, match="malformed"):
            read_tensor(p)

    def test_unsupported_dtype_rejected(self, tmp_path):
        p = tmp_path / "x.tnsr"
        p.write_bytes(
            b'{"dtype":"f64","shape":[1],"order":"row-major","byte_order":"little"}\n'
            + b"\x00" * 8
        )
        with pytest.raises(TensorFormatError, match="dtype"):
            read_tensor(p)

    def test_truncated_payload_rejected(self, tmp_path):
        p = tmp_path / "x.tnsr"
        p.write_bytes(
            b'{"dtype":"f32","shape":[2,2],"order":"row-major","byte_order":"little"}\n'
            + b"\x00" * 10
        )
        with pytest.raises(TensorFormatError, match="payload"):
            read_tensor(p)

    def test_overlong_payload_rejected(self, tmp_path):
        p = tmp_path / "x.tnsr"
        p.write_bytes(
            b'{"dtype":"f32","shape":[2],"order":"row-major","byte_order":"little"}\n'
            + b"\x00" * 12
        )
        with pytest.raises(TensorFormatError, match="payload has 12 bytes, expected 8"):
            read_tensor(p)

    def test_shape_whose_product_wraps_int64_rejected(self, tmp_path):
        # 2^32 * 2^32 is 0 in int64, which an empty payload would match.
        p = tmp_path / "huge.tnsr"
        p.write_bytes(
            b'{"dtype":"f32","shape":[4294967296,4294967296],"order":"row-major",'
            b'"byte_order":"little"}\n'
        )
        with pytest.raises(TensorFormatError, match=r"huge\.tnsr: payload has 0 bytes"):
            read_tensor(p)

    def test_bool_in_shape_rejected(self, tmp_path):
        p = tmp_path / "bool.tnsr"
        p.write_bytes(
            b'{"dtype":"f32","shape":[true,2],"order":"row-major","byte_order":"little"}\n'
            + b"\x00" * 8
        )
        with pytest.raises(TensorFormatError, match=r"bool\.tnsr: bad shape \[True, 2\]"):
            read_tensor(p)

    def test_result_is_writable_float32(self, tmp_path):
        out = tmp_path / "w.tnsr"
        write_tensor(out, np.arange(6, dtype=np.float32).reshape(2, 3))
        back, _ = read_tensor(out)
        assert back.dtype == np.float32 and back.flags.writeable
        back[0, 0] = 7.0

    def test_missing_keys_rejected(self, tmp_path):
        p = tmp_path / "x.tnsr"
        p.write_bytes(b'{"dtype":"f32","shape":[0]}\n')
        with pytest.raises(TensorFormatError, match="keys"):
            read_tensor(p)


def _write_report(out, metrics_csv):
    cli.cmd_report(argparse.Namespace(metrics=str(metrics_csv), fit=None, out=str(out)))


# Every writer of an output file, called with an output path and a prepared input.
WRITERS = {
    "write_tensor": lambda out, _: write_tensor(out, np.arange(64.0).reshape(4, 16)),
    "write_rows": lambda out, _: tables.write_rows(
        out, ["i", "x"], [[i, i / 7] for i in range(40)]
    ),
    "write_traces": lambda out, _: tables.write_traces(
        out, [PredictionTrace(np.full((9, 4), 0.25), path_id=f"p{i}") for i in range(3)]
    ),
    "emit_scatter_svg": lambda out, _: render.emit_scatter_svg(
        [(0.0, 0.1, "g", None), (1.0, 0.9, "g", (0.8, 1.0))], [("g", 0.8, 0.1, 0.9)], out
    ),
    "emit_pgm": lambda out, _: render.emit_pgm(PsdMap(np.arange(48.0).reshape(6, 8), 1), out),
    "cmd_report": _write_report,
}


class TestAtomicOpen:
    @pytest.fixture()
    def metrics_csv(self, tmp_path):
        """The input of ``cmd_report``, written before any test patches ``open``."""
        path = tmp_path / "in" / "metrics.csv"
        path.parent.mkdir()
        summary = MetricSummary(0.5, 0.1, 2, 0.4, 0.6)
        tables.write_path_metrics(path, [PathMetrics("p0", 0.5, 3)], summary, summary, 10)
        return path

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_failure_halfway_keeps_the_old_file(self, tmp_path, monkeypatch, metrics_csv, writer):
        write = WRITERS[writer]
        reference = tmp_path / "reference"
        write(reference, metrics_csv)
        room = reference.stat().st_size // 2
        out = tmp_path / "out"
        out.mkdir()
        (out / "old").write_bytes(b"old bytes\n")
        failures = []

        class FullDisk:
            """A file on a disk with ``room`` bytes free; every output here is ASCII."""

            def __init__(self, fh):
                self.fh = fh
                self.written = 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                if self.written + len(data) > room:
                    self.fh.write(data[: room - self.written])
                    failures.append(self.written)
                    raise OSError("disk full")
                self.written += len(data)
                return self.fh.write(data)

        real_open = open
        monkeypatch.setattr(
            tensorio, "open", lambda *a, **kw: FullDisk(real_open(*a, **kw)), raising=False
        )
        for name in ("old", "new"):
            with pytest.raises(OSError, match="disk full"):
                write(out / name, metrics_csv)
        # Both writes failed partway, after writing some of the file.
        assert len(failures) == 2 and room > 0
        assert os.listdir(out) == ["old"]
        assert (out / "old").read_bytes() == b"old bytes\n"

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_symlink_is_written_through(self, tmp_path, metrics_csv, writer):
        write = WRITERS[writer]
        reference = tmp_path / "reference"
        write(reference, metrics_csv)
        real_dir, link_dir = tmp_path / "real", tmp_path / "links"
        real_dir.mkdir()
        link_dir.mkdir()
        (real_dir / "out").write_bytes(b"old bytes\n")
        link = link_dir / "out"
        link.symlink_to(real_dir / "out")
        write(link, metrics_csv)
        assert link.is_symlink()
        assert (real_dir / "out").read_bytes() == reference.read_bytes()
        assert os.listdir(real_dir) == ["out"] and os.listdir(link_dir) == ["out"]

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    @pytest.mark.parametrize("mode", [0o600, 0o640, None], ids=["0600", "0640", "new"])
    def test_permission_bits_are_kept(self, tmp_path, metrics_csv, writer, mode):
        out = tmp_path / "out"
        if mode is None:
            # A new output gets the umask's default, as a plain open would give it.
            (tmp_path / "plain").touch()
            mode = stat.S_IMODE((tmp_path / "plain").stat().st_mode)
        else:
            out.write_bytes(b"old bytes\n")
            out.chmod(mode)
        WRITERS[writer](out, metrics_csv)
        assert out.read_bytes() != b"old bytes\n"
        assert stat.S_IMODE(out.stat().st_mode) == mode

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("writer", sorted(WRITERS))
    @pytest.mark.parametrize("kind", ["fifo", "directory", "missing_directory"])
    def test_bad_target_rejected_before_anything_is_made(self, tmp_path, metrics_csv, writer, kind):
        out = tmp_path / "out"
        out.mkdir()
        target = out / "target"
        if kind == "fifo":
            os.mkfifo(target)
            # With a reader open, a writer that opened the pipe would fail here, not block.
            reader = os.open(target, os.O_RDONLY | os.O_NONBLOCK)
        elif kind == "directory":
            target.mkdir()
        else:
            target = out / "missing" / "target"
        try:
            with pytest.raises(
                InvalidInputError,
                match=f"^{re.escape(str(target))}: output must be a regular file "
                "in an existing directory$",
            ):
                WRITERS[writer](target, metrics_csv)
        finally:
            if kind == "fifo":
                os.close(reader)
        assert os.listdir(out) == ([] if kind == "missing_directory" else ["target"])
        assert kind != "directory" or os.listdir(target) == []
