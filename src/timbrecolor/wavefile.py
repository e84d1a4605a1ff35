"""Minimal RIFF/WAVE reader and writer: PCM, 16 bit, mono, little endian.

Hand rolled on struct rather than delegated, because the read path must
report *which* format field or chunk disqualified a file, and the write
path must be byte-reproducible: a fixed 44-byte header followed by raw
samples, so file size is exactly 44 + 2 * sample_count.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .synth import SampledWave

__all__ = ["WavFormatError", "write_wav", "read_wav"]

_PCM_FORMAT = 1
_BITS = 16
_CHANNELS = 1
_SCALE = 32767.0


class WavFormatError(ValueError):
    """Raised when a WAV file is malformed or uses an unsupported format."""


def write_wav(wave: SampledWave, path: str | Path) -> None:
    """Write samples as 16-bit PCM mono; inputs must lie in [-1, 1]."""
    _write_pcm16(path, wave.sample_rate, len(wave.samples), [wave.samples])


def _pcm16(blocks):
    """Check and quantize float64 blocks in buffers reused from block to block."""
    scratch, pcm = np.empty(0), np.empty(0, dtype="<i2")
    for block in blocks:
        if len(block) > len(scratch):
            scratch, pcm = np.empty(len(block)), np.empty(len(block), dtype="<i2")
        x, out = scratch[: len(block)], pcm[: len(block)]
        if not np.all(np.abs(block, out=x) <= 1.0):  # a NaN fails the comparison too
            raise ValueError("samples exceed [-1, 1]; normalize before writing")
        np.add(np.multiply(block, _SCALE, out=x), 0.5, out=x)
        np.copyto(out, np.floor(x, out=x), casting="unsafe")  # astype's C cast
        yield memoryview(out)


def _write_pcm16(path: str | Path, rate: int, count: int, blocks) -> None:
    """Write count samples, given as float64 blocks, header first.  The file
    is opened once the first block passes its check, so a bad first block
    leaves a file at path as it was; a later failure removes the new file."""
    if rate > 2**31 - 1:  # the header holds rate and its byte rate, 2 * rate, in 32 bits
        raise ValueError(f"sample rate {rate} exceeds the WAV limit of 2147483647")
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + 2 * count, b"WAVE", b"fmt ", 16,
        _PCM_FORMAT, _CHANNELS, rate, rate * _CHANNELS * (_BITS // 8),
        _CHANNELS * (_BITS // 8), _BITS, b"data", 2 * count,
    )
    pieces = _pcm16(blocks)
    first = next(pieces, b"")
    fh = open(path, "wb")
    try:
        with fh:  # inside the try: a failed flush on close also removes the file
            fh.writelines((header, first))  # before the next block reuses first's buffer
            fh.writelines(pieces)
    except BaseException:
        if Path(path).is_file() and not Path(path).is_symlink():  # not /dev/stdout
            Path(path).unlink()
        raise


def _scan_chunks(blob: memoryview) -> dict[bytes, memoryview]:
    chunks: dict[bytes, memoryview] = {}
    offset = 12
    while offset < len(blob):
        if offset + 8 > len(blob):
            raise WavFormatError(
                f"truncated chunk header at byte {offset}: "
                f"{len(blob) - offset} bytes left, need 8"
            )
        chunk_id, size = struct.unpack_from("<4sI", blob, offset)
        body_start = offset + 8
        if body_start + size > len(blob):
            raise WavFormatError(
                f"truncated '{chunk_id.decode('ascii', 'replace')}' chunk: "
                f"declares {size} bytes, {len(blob) - body_start} available"
            )
        if chunk_id not in chunks:
            chunks[chunk_id] = blob[body_start : body_start + size]
        offset = body_start + size + (size & 1)  # chunks are word aligned
    return chunks


def read_wav(path: str | Path) -> SampledWave:
    """Read a 16-bit PCM mono WAV; anything else is rejected by name."""
    blob = Path(path).read_bytes()
    if len(blob) < 12:
        raise WavFormatError(
            f"file too short for a RIFF header: {len(blob)} bytes, need 12"
        )
    if blob[0:4] != b"RIFF":
        raise WavFormatError("missing 'RIFF' magic in bytes 0..3")
    if blob[8:12] != b"WAVE":
        raise WavFormatError("missing 'WAVE' form type in bytes 8..11")
    chunks = _scan_chunks(memoryview(blob))  # chunks are views: no copies
    if b"fmt " not in chunks:
        raise WavFormatError("missing 'fmt ' chunk")
    fmt = chunks[b"fmt "]
    if len(fmt) < 16:
        raise WavFormatError(
            f"'fmt ' chunk holds {len(fmt)} bytes, need at least 16"
        )
    audio_format, channels, rate, _byte_rate, _block_align, bits = struct.unpack_from(
        "<HHIIHH", fmt, 0
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
        raise WavFormatError(
            f"unsupported bits per sample {bits} (only {_BITS})"
        )
    if rate < 1:
        raise WavFormatError(f"invalid sample rate {rate}")
    if b"data" not in chunks:
        raise WavFormatError("missing 'data' chunk")
    data = chunks[b"data"]
    if len(data) % 2 != 0:
        raise WavFormatError(
            f"'data' chunk length {len(data)} is not a whole number of "
            f"16-bit samples"
        )
    samples = np.frombuffer(data, dtype="<i2") / _SCALE  # one float64 array, no temporary
    return SampledWave(sample_rate=rate, samples=samples)
