import os

import numpy as np
import pytest

from spectral_robustness import TensorFormatError, tensorio
from spectral_robustness.tensorio import read_tensor, write_tensor


class TestWrite:
    def test_exact_byte_layout(self, tmp_path):
        out = tmp_path / "t.tnsr"
        write_tensor(out, np.arange(4, dtype=np.float32), shape=[1, 2, 2])
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

    def test_count_mismatch_rejected_before_writing(self, tmp_path):
        out = tmp_path / "bad.tnsr"
        with pytest.raises(TensorFormatError):
            write_tensor(out, np.zeros(5), shape=[2, 2])
        assert not out.exists()

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

    def test_result_is_writable_float32(self, tmp_path):
        out = tmp_path / "w.tnsr"
        write_tensor(out, np.arange(6, dtype=np.float32), shape=[2, 3])
        back, _ = read_tensor(out)
        assert back.dtype == np.float32 and back.flags.writeable
        back[0, 0] = 7.0

    def test_missing_keys_rejected(self, tmp_path):
        p = tmp_path / "x.tnsr"
        p.write_bytes(b'{"dtype":"f32","shape":[0]}\n')
        with pytest.raises(TensorFormatError, match="keys"):
            read_tensor(p)
