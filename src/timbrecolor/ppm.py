"""Binary PPM (P6) images, and _write: the one writer of every output file."""

from __future__ import annotations

import errno
import os
import re
from pathlib import Path

import numpy as np

__all__ = ["write_ppm", "read_ppm"]


def _write(*outputs) -> None:
    """Write each (path, pieces) output in turn, its pieces a generator of bytes-like objects.
    Before any piece, refuse two outputs at one path, and with open's own error a path that
    open refuses: empty, a directory, or under a missing directory or a file.  A file opens
    once its first piece exists.  Any later failure removes each file this call opened that is
    a regular file and not a symlink (so never /dev/stdout), and closes the failed pieces."""
    paths = [os.path.abspath(path) for path, _pieces in outputs]
    if len(set(paths)) < len(paths):
        raise ValueError(f"two outputs name the same path {max(paths, key=paths.count)}")
    for name in (os.fspath(path) for path, _pieces in outputs):
        try:  # "" fails with ENOENT, and the trailing slash makes a directory that is a file fail with ENOTDIR
            os.stat(os.path.join(os.path.dirname(name) or (name and "."), ""))
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, name) from None
        if os.path.isdir(name):
            raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), name)
    opened = []
    try:
        for path, pieces in outputs:
            first = next(pieces, b"")
            with open(path, "wb") as fh:  # inside the try: a failed close is a failure too
                opened.append(path)
                fh.write(first)
                fh.writelines(pieces)
    except BaseException:
        for path in opened:
            if os.path.isfile(path) and not os.path.islink(path):
                os.unlink(path)
        pieces.close()  # the generator's finally clauses run now, not at collection
        raise


def _ppm_pieces(bands, width: int, height: int):
    """A width x height P6 header, then the bands: C-contiguous uint8 pixel rows, each its own buffer."""
    yield f"P6\n{width} {height}\n255\n".encode("ascii")
    yield from bands


def write_ppm(path: str | Path, pixels: np.ndarray) -> None:
    """Write an (H, W, 3) uint8 array as binary PPM."""
    arr = np.asarray(pixels)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ValueError(f"pixels must have shape (H, W, 3), got {arr.shape}")
    if arr.dtype != np.uint8:
        raise ValueError(f"pixels must be uint8, got {arr.dtype}")
    _write((path, _ppm_pieces([np.ascontiguousarray(arr)], arr.shape[1], arr.shape[0])))


def read_ppm(path: str | Path) -> np.ndarray:
    """Read a binary PPM written by write_ppm back to (H, W, 3) uint8."""
    blob = Path(path).read_bytes()
    match = re.match(rb"\s*(\S+)\s+(\S+)\s+(\S+)\s+(\S+)", blob)  # \s: the bytes isspace accepts
    if match is None:
        raise ValueError("malformed PPM header")
    magic, width, height, maxval = match.groups()
    if magic != b"P6" or maxval != b"255":
        raise ValueError("only P6 with maxval 255 is supported")
    w, h = int(width), int(height)
    offset = match.end() + 1  # single whitespace after maxval
    body = blob[offset : offset + w * h * 3]
    if len(body) != w * h * 3:
        raise ValueError("PPM pixel data truncated")
    return np.frombuffer(body, dtype=np.uint8).reshape(h, w, 3)
