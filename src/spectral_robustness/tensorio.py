"""Single-file tensor container: one JSON header line + raw float32 payload.

The header is a single UTF-8 line such as
``{"dtype":"f32","shape":[1,2,2],"order":"row-major","byte_order":"little"}``
terminated by a newline and followed immediately by little-endian IEEE-754
binary32 values in row-major order. Write/read round trips are bit-exact.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import uuid

import numpy as np

from .errors import InvalidInputError, TensorFormatError

_HEADER_KEYS = ("dtype", "shape", "order", "byte_order")


def write_tensor(path, data, shape=None) -> None:
    """Write an array to the container format; fails before touching the file on bad data.

    A shape mismatch or a finite value beyond the float32 range raises
    TensorFormatError; NaN and +-inf are stored as they are. The file appears
    under ``path`` only once it is complete.
    """
    path = os.fspath(path)
    arr = np.asarray(data)
    if shape is None:
        shape = list(arr.shape)
    shape = [int(s) for s in shape]
    count = int(np.prod(shape)) if shape else 1
    if arr.size != count:
        raise TensorFormatError(
            f"data has {arr.size} values but shape {shape} needs {count}"
        )
    try:
        with np.errstate(over="raise"):
            payload = np.ascontiguousarray(arr.reshape(-1), dtype="<f4").tobytes()
    except FloatingPointError:
        raise TensorFormatError(f"{path}: a finite value overflows float32") from None
    header = json.dumps(
        {"dtype": "f32", "shape": shape, "order": "row-major", "byte_order": "little"},
        separators=(",", ":"),
    )
    with atomic_open(path, "wb") as fh:
        fh.write(header.encode("utf-8"))
        fh.write(b"\n")
        fh.write(payload)


@contextlib.contextmanager
def atomic_open(path, mode, **open_kwargs):
    """The package's one way to write an output file; ``mode`` is "w" or "wb".

    Writes a temp file beside ``path``, renamed in on success with an old ``path``'s
    permission bits; on an exception it is removed and an old ``path`` keeps its bytes.
    A symlink is written through; a target that is not a regular file, or has no
    directory, raises InvalidInputError before any file is made. Hard links are not
    kept. No fsync: this covers a failed command, not power loss.
    """
    real = os.path.realpath(path)
    head, tail = os.path.split(real)
    if not os.path.isdir(head) or os.path.exists(real) and not os.path.isfile(real):
        raise InvalidInputError(f"{path}: output must be a regular file in an existing directory")
    tmp = os.path.join(head, f".{tail}.{uuid.uuid4().hex}.tmp")
    fh = open(tmp, mode.replace("w", "x"), **open_kwargs)
    try:
        with fh:
            yield fh
        with contextlib.suppress(FileNotFoundError):
            shutil.copymode(real, tmp)
        os.replace(tmp, real)
    except BaseException:
        os.remove(tmp)
        raise


def read_tensor(path) -> tuple[np.ndarray, list[int]]:
    """Read a container file back as (float32 array, shape).

    The payload goes straight from the file into one writable array; its
    length is checked against the header before it is read.
    """
    with open(path, "rb") as fh:
        line = fh.readline()
        if not line.endswith(b"\n"):
            raise TensorFormatError(f"{path}: missing header line")
        try:
            header = json.loads(line[:-1].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise TensorFormatError(f"{path}: malformed header: {exc}") from exc
        if not isinstance(header, dict) or set(header) != set(_HEADER_KEYS):
            raise TensorFormatError(f"{path}: header must have keys {_HEADER_KEYS}")
        if header["dtype"] != "f32":
            raise TensorFormatError(f"{path}: unsupported dtype {header['dtype']!r}")
        if header["order"] != "row-major" or header["byte_order"] != "little":
            raise TensorFormatError(f"{path}: unsupported layout {header!r}")
        shape = header["shape"]
        if not isinstance(shape, list) or not all(isinstance(s, int) and s >= 0 for s in shape):
            raise TensorFormatError(f"{path}: bad shape {shape!r}")
        count = int(np.prod(shape)) if shape else 1
        payload_bytes = os.fstat(fh.fileno()).st_size - fh.tell()
        if payload_bytes != 4 * count:
            raise TensorFormatError(
                f"{path}: payload has {payload_bytes} bytes, expected {4 * count}"
            )
        data = np.fromfile(fh, dtype="<f4", count=count)
    return data.astype(np.float32, copy=False).reshape(shape), list(shape)
