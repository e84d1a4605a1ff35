"""Binary PPM (P6) images: trivial to write, byte-reproducible to test."""

from __future__ import annotations

from pathlib import Path

import numpy as np

__all__ = ["write_ppm", "read_ppm"]


def write_ppm(path: str | Path, pixels: np.ndarray) -> None:
    """Write an (H, W, 3) uint8 array as binary PPM."""
    arr = np.asarray(pixels)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ValueError(f"pixels must have shape (H, W, 3), got {arr.shape}")
    if arr.dtype != np.uint8:
        raise ValueError(f"pixels must be uint8, got {arr.dtype}")
    height, width = arr.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{width} {height}\n255\n".encode("ascii"))
        fh.write(np.ascontiguousarray(arr))  # the pixel buffer itself, not a bytes copy of it


def read_ppm(path: str | Path) -> np.ndarray:
    """Read a binary PPM written by write_ppm back to (H, W, 3) uint8."""
    blob = Path(path).read_bytes()
    fields: list[bytes] = []
    offset = 0
    while len(fields) < 4:
        while offset < len(blob) and blob[offset : offset + 1].isspace():
            offset += 1
        start = offset
        while offset < len(blob) and not blob[offset : offset + 1].isspace():
            offset += 1
        if start == offset:
            raise ValueError("malformed PPM header")
        fields.append(blob[start:offset])
    offset += 1  # single whitespace after maxval
    magic, width, height, maxval = fields
    if magic != b"P6" or maxval != b"255":
        raise ValueError("only P6 with maxval 255 is supported")
    w, h = int(width), int(height)
    body = blob[offset : offset + w * h * 3]
    if len(body) != w * h * 3:
        raise ValueError("PPM pixel data truncated")
    return np.frombuffer(body, dtype=np.uint8).reshape(h, w, 3)
