"""Single-file tensor container: one JSON header line + raw float32 payload.

The header is a single UTF-8 line such as
``{"dtype":"f32","shape":[1,2,2],"order":"row-major","byte_order":"little"}``
terminated by a newline and followed immediately by little-endian IEEE-754
binary32 values in row-major order. Write/read round trips are bit-exact.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import shutil
import uuid

import numpy as np

from .errors import InvalidInputError, TensorFormatError

_HEADER_KEYS = ("dtype", "shape", "order", "byte_order")

# The most bytes ``read_tensor`` reads looking for the header's newline.
# numpy arrays have at most 64 dimensions, each under 2^63 (19 digits), so
# no header ``write_tensor`` writes reaches 1400 bytes.
_HEADER_CAP = 4096


def write_tensor(path, data) -> None:
    """Write an array to the container format; fails before touching the file on bad data.

    A finite value beyond the float32 range raises TensorFormatError; NaN and
    +-inf are stored as they are. The file appears under ``path`` only once
    it is complete.
    """
    path = os.fspath(path)
    arr = np.asarray(data)
    try:
        with np.errstate(over="raise"):
            payload = np.ascontiguousarray(arr.reshape(-1), dtype="<f4")
    except FloatingPointError:
        raise TensorFormatError(f"{path}: a finite value overflows float32") from None
    header = json.dumps(
        {"dtype": "f32", "shape": list(arr.shape), "order": "row-major", "byte_order": "little"},
        separators=(",", ":"),
    )
    with atomic_open(path, "wb") as fh:
        fh.write(header.encode("utf-8"))
        fh.write(b"\n")
        fh.write(payload.view(np.uint8))  # a bytes-like view: len() counts bytes, no copy


@contextlib.contextmanager
def atomic_open(path, mode, **open_kwargs):
    """The package's one way to write an output file; ``mode`` is "w" or "wb".

    Writes a temp file beside ``path``, renamed in on success with an old ``path``'s
    permission bits; on an exception it is removed and an old ``path`` keeps its bytes.
    A symlink is written through; a target that is not a regular file, or has no
    directory, raises InvalidInputError (from ``check_output``) before any file is made.
    Hard links are not kept. No fsync: this covers a failed command, not power loss.
    """
    real = check_output(path)
    head, tail = os.path.split(real)
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


def check_output(path) -> str:
    """The real path ``atomic_open`` writes for ``path``.

    Raises InvalidInputError unless that is a regular file, or no file, in an
    existing directory.
    """
    real = os.path.realpath(path)
    head = os.path.dirname(real)
    if not os.path.isdir(head) or os.path.exists(real) and not os.path.isfile(real):
        raise InvalidInputError(f"{path}: output must be a regular file in an existing directory")
    return real


def read_tensor(path) -> tuple[np.ndarray, list[int]]:
    """Read a container file back as (float32 array, shape).

    The payload goes straight from the file into one writable array; its
    length is checked against the header before it is read. The header line
    is read with a cap of ``_HEADER_CAP`` bytes, so a file without a newline
    fails before it is read whole. A shape numpy cannot hold raises
    TensorFormatError too.
    """
    with open(path, "rb") as fh:
        line = fh.readline(_HEADER_CAP)
        if not line.endswith(b"\n"):
            raise TensorFormatError(
                f"{path}: missing header line (no newline in the first {_HEADER_CAP} bytes)"
            )
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
        if not isinstance(shape, list) or not all(type(s) is int and s >= 0 for s in shape):
            raise TensorFormatError(f"{path}: bad shape {shape!r}")
        # Python ints: a numpy product of a huge shape wraps around.
        count = math.prod(shape)
        payload_bytes = os.fstat(fh.fileno()).st_size - fh.tell()
        if payload_bytes != 4 * count:
            raise TensorFormatError(
                f"{path}: payload has {payload_bytes} bytes, expected {4 * count}"
            )
        data = np.fromfile(fh, dtype="<f4", count=count)
    try:
        data = data.reshape(shape)
    except ValueError as exc:
        raise TensorFormatError(f"{path}: bad shape {shape!r}: {exc}") from None
    return data.astype(np.float32, copy=False), list(shape)
