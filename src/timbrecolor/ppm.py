"""Binary PPM (P6) images, and _write: the one writer of every output file."""

from __future__ import annotations

import errno
import os
import re
from pathlib import Path

import numpy as np

__all__ = ["write_ppm", "read_ppm"]


def _write(*outputs) -> None:
    """Write each (path, pieces) output in turn, its pieces bytes-like.  Before any
    piece, refuse two outputs at one path, and an output whose directory does not
    exist, as open would.  A file opens once its first piece exists.  Any later
    failure removes each file this call opened that is a regular file and not a
    symlink (so never /dev/stdout), then closes the failed output's pieces."""
    paths = [os.path.abspath(path) for path, _pieces in outputs]
    if len(set(paths)) < len(paths):
        raise ValueError(f"two outputs name the same path {max(paths, key=paths.count)}")
    for (path, _pieces), full in zip(outputs, paths):
        if not os.path.exists(os.path.dirname(full)):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), os.fspath(path))
    opened = []
    try:
        for path, pieces in outputs:
            pieces = iter(pieces)
            first = next(pieces, b"")
            with open(path, "wb") as fh:  # inside the try: a failed close is a failure too
                opened.append(path)
                fh.write(first)  # before the next piece may reuse first's buffer
                fh.writelines(pieces)
    except BaseException:
        for path in opened:
            if os.path.isfile(path) and not os.path.islink(path):
                os.unlink(path)
        if hasattr(pieces, "close"):  # a generator's finally clauses run now, not at collection
            pieces.close()
        raise


def _ppm_pieces(pixels: np.ndarray) -> tuple:
    """The header and the pixel buffer itself, not a bytes copy, of (H, W, 3) uint8 pixels."""
    arr = np.asarray(pixels)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ValueError(f"pixels must have shape (H, W, 3), got {arr.shape}")
    if arr.dtype != np.uint8:
        raise ValueError(f"pixels must be uint8, got {arr.dtype}")
    return f"P6\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode("ascii"), np.ascontiguousarray(arr)


def write_ppm(path: str | Path, pixels: np.ndarray) -> None:
    """Write an (H, W, 3) uint8 array as binary PPM."""
    _write((path, _ppm_pieces(pixels)))


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
