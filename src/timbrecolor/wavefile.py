"""Minimal RIFF/WAVE reader and writer: PCM, 16 bit, mono, little endian.

Hand rolled on struct rather than delegated, because the read path must
report *which* format field or chunk disqualified a file, and the write
path must be byte-reproducible: a fixed 44-byte header followed by raw
samples, so file size is exactly 44 + 2 * sample_count.  Both paths
work in fixed-size blocks, so neither one's memory grows with the file.
"""

from __future__ import annotations

import contextlib
import os
import struct
from pathlib import Path

import numpy as np

from .ppm import _write
from .synth import _BLOCK_SAMPLES, SampledWave, _gather, _views

__all__ = ["WavFormatError", "write_wav", "read_wav"]

_PCM_FORMAT = 1
_BITS = 16
_CHANNELS = 1
_SCALE = 32767.0


class WavFormatError(ValueError):
    """Raised when a WAV file is malformed or uses an unsupported format."""


def write_wav(wave: SampledWave, path: str | Path) -> None:
    """Write samples as 16-bit PCM mono; inputs must lie in [-1, 1], checked before the path opens."""
    if not (wave.samples.min(initial=0.0) >= -1.0 and wave.samples.max(initial=0.0) <= 1.0):  # a NaN fails too
        raise ValueError("samples exceed [-1, 1]; normalize before writing")
    _write((path, _wav_pieces(wave.sample_rate, len(wave.samples), [wave.samples])))


def _pcm16(blocks):
    """Check and quantize float64 blocks of any length, each view of _BLOCK_SAMPLES into a fresh int16 array."""
    scratch = np.empty(_BLOCK_SAMPLES)  # reused: fresh float64 temporaries fault their pages in again
    for block in (view for whole in blocks for view in _views(whole)):
        if not (block.min(initial=0.0) >= -1.0 and block.max(initial=0.0) <= 1.0):  # a NaN fails too
            raise ValueError("samples exceed [-1, 1]; normalize before writing")
        x = scratch[: len(block)]
        yield np.floor(np.add(np.multiply(block, _SCALE, out=x), 0.5, out=x), out=x).astype("<i2")


def _check_wav_rate(rate: int) -> None:
    if rate > 2**31 - 1:  # the header holds rate and its byte rate, 2 * rate, in 32 bits
        raise ValueError(f"sample rate {rate} exceeds the WAV limit of 2147483647")


def _wav_pieces(rate: int, count: int, blocks):
    """The pieces of a WAV file of count samples, given as float64 blocks."""
    _check_wav_rate(rate)
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + 2 * count, b"WAVE", b"fmt ", 16,
        _PCM_FORMAT, _CHANNELS, rate, rate * _CHANNELS * (_BITS // 8),
        _CHANNELS * (_BITS // 8), _BITS, b"data", 2 * count,
    )
    yield header
    yield from _pcm16(blocks)


@contextlib.contextmanager
def _read_pcm16(path: str | Path):
    """Open a 16-bit PCM mono WAV, check it without reading its samples and
    yield (rate, count, blocks): the samples as float64 blocks of
    _BLOCK_SAMPLES, each in one buffer that the next block overwrites."""
    with open(path, "rb") as fh:
        rate, count = _scan(fh)
        yield rate, count, _pcm16_blocks(fh, count)


def _scan(fh) -> tuple[int, int]:
    """(rate, sample count), checked with seek and read; leaves fh at the first sample."""
    size = fh.seek(0, os.SEEK_END)  # the truncation checks measure against it
    if size < 12:
        raise WavFormatError(f"file too short for a RIFF header: {size} bytes, need 12")
    fh.seek(0)
    head = fh.read(12)
    if head[0:4] != b"RIFF":
        raise WavFormatError("missing 'RIFF' magic in bytes 0..3")
    if head[8:12] != b"WAVE":
        raise WavFormatError("missing 'WAVE' form type in bytes 8..11")
    chunks: dict[bytes, tuple[int, int]] = {}  # id -> (body offset, size) of its first copy
    offset = 12
    while offset < size:
        if offset + 8 > size:
            raise WavFormatError(
                f"truncated chunk header at byte {offset}: {size - offset} bytes left, need 8"
            )
        fh.seek(offset)
        chunk_id, length = struct.unpack("<4sI", fh.read(8))
        body = offset + 8
        if body + length > size:
            raise WavFormatError(
                f"truncated '{chunk_id.decode('ascii', 'replace')}' chunk: "
                f"declares {length} bytes, {size - body} available"
            )
        chunks.setdefault(chunk_id, (body, length))
        offset = body + length + (length & 1)  # chunks are word aligned
    if b"fmt " not in chunks:
        raise WavFormatError("missing 'fmt ' chunk")
    fmt_at, fmt_size = chunks[b"fmt "]
    if fmt_size < 16:
        raise WavFormatError(f"'fmt ' chunk holds {fmt_size} bytes, need at least 16")
    fh.seek(fmt_at)
    audio_format, channels, rate, _byte_rate, _block_align, bits = struct.unpack(
        "<HHIIHH", fh.read(16)
    )
    if audio_format != _PCM_FORMAT:
        raise WavFormatError(
            f"unsupported audio format {audio_format} (only PCM = {_PCM_FORMAT})"
        )
    if channels != _CHANNELS:
        raise WavFormatError(
            f"unsupported channel count {channels} (only mono = {_CHANNELS})"
        )
    if bits != _BITS:
        raise WavFormatError(f"unsupported bits per sample {bits} (only {_BITS})")
    if rate < 1:
        raise WavFormatError(f"invalid sample rate {rate}")
    if b"data" not in chunks:
        raise WavFormatError("missing 'data' chunk")
    data_at, data_size = chunks[b"data"]
    if data_size % 2 != 0:
        raise WavFormatError(
            f"'data' chunk length {data_size} is not a whole number of 16-bit samples"
        )
    fh.seek(data_at)
    return rate, data_size // 2


def _pcm16_blocks(fh, count: int):
    """count samples: fresh bytes per block, divided into one float64 buffer reused block to block."""
    out = np.empty(min(count, _BLOCK_SAMPLES))  # a fresh one per block would fault its pages in again
    for start in range(0, count, _BLOCK_SAMPLES):
        n = min(_BLOCK_SAMPLES, count - start)
        raw = fh.read(2 * n)
        if len(raw) != 2 * n:  # the file shrank after its header was read
            raise WavFormatError(
                f"truncated 'data' chunk: read {2 * start + len(raw)} of {2 * count} bytes"
            )
        yield np.divide(np.frombuffer(raw, dtype="<i2"), _SCALE, out=out[:n])


def read_wav(path: str | Path) -> SampledWave:
    """Read a 16-bit PCM mono WAV; anything else is rejected by name."""
    with _read_pcm16(path) as (rate, count, blocks):
        samples = _gather(count, blocks)
    return SampledWave(sample_rate=rate, samples=samples)
