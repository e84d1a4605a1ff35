"""PCM16 mono WAV writing and reading, including malformed files."""

import os
import struct
import tracemalloc
import wave as stdlib_wave

import numpy as np
import pytest

from timbrecolor import ppm, wavefile
from timbrecolor.cli import main
from timbrecolor.synth import SampledWave
from timbrecolor.ppm import _write
from timbrecolor.wavefile import WavFormatError, _wav_pieces, read_wav, write_wav


def pcm16_file(
    path,
    *,
    audio_format=1,
    channels=1,
    rate=8000,
    bits=16,
    frames=b"\x00\x00\x01\x00",
    data_size=None,
    magic=b"RIFF",
    form=b"WAVE",
    include_fmt=True,
    include_data=True,
):
    """Hand-assemble a WAV file byte by byte, valid by default."""
    block_align = channels * bits // 8
    fmt_body = struct.pack(
        "<HHIIHH", audio_format, channels, rate, rate * block_align, block_align, bits
    )
    chunks = b""
    if include_fmt:
        chunks += b"fmt " + struct.pack("<I", len(fmt_body)) + fmt_body
    if include_data:
        size = len(frames) if data_size is None else data_size
        chunks += b"data" + struct.pack("<I", size) + frames
    blob = magic + struct.pack("<I", 4 + len(chunks)) + form + chunks
    path.write_bytes(blob)
    return path


class TestRoundTrip:
    def test_quantization_error_is_below_one_step(self, tmp_path):
        rng = np.random.default_rng(11)
        samples = np.concatenate(
            [rng.uniform(-1.0, 1.0, size=1000), [-1.0, 0.0, 1.0]]
        )
        wave = SampledWave(sample_rate=44100, samples=samples)
        path = tmp_path / "round.wav"
        write_wav(wave, path)
        back = read_wav(path)
        assert back.sample_rate == 44100
        assert len(back.samples) == len(samples)
        assert np.max(np.abs(back.samples - samples)) <= 2.0**-15

    def test_file_size_is_header_plus_payload(self, tmp_path):
        wave = SampledWave(sample_rate=8000, samples=np.zeros(321))
        path = tmp_path / "size.wav"
        write_wav(wave, path)
        assert path.stat().st_size == 44 + 2 * 321

    def test_full_scale_is_exact(self, tmp_path):
        wave = SampledWave(sample_rate=8000, samples=np.array([1.0, -1.0, 0.0]))
        path = tmp_path / "full.wav"
        write_wav(wave, path)
        raw = np.frombuffer(path.read_bytes()[44:], dtype="<i2")
        assert list(raw) == [32767, -32767, 0]

    def test_integral_float_rate_writes_the_integer_rate_file(self, tmp_path):
        wave = SampledWave(sample_rate=8000.0, samples=np.zeros(4))
        assert type(wave.sample_rate) is int
        write_wav(wave, tmp_path / "float.wav")
        write_wav(SampledWave(sample_rate=8000, samples=np.zeros(4)), tmp_path / "int.wav")
        assert (tmp_path / "float.wav").read_bytes() == (tmp_path / "int.wav").read_bytes()

    def test_rejects_out_of_range_samples(self, tmp_path):
        wave = SampledWave(sample_rate=8000, samples=np.array([0.0, 1.5]))
        with pytest.raises(ValueError, match="normalize"):
            write_wav(wave, tmp_path / "clip.wav")

    @pytest.mark.parametrize("rate", [2**31, 2**32])
    def test_a_rate_past_the_header_limit_writes_no_file(self, tmp_path, rate):
        # the header stores the byte rate, 2 * rate, in 32 bits
        path = tmp_path / "fast.wav"
        message = f"^sample rate {rate} exceeds the WAV limit of 2147483647$"
        with pytest.raises(ValueError, match=message):
            write_wav(SampledWave(sample_rate=rate, samples=np.zeros(4)), path)
        assert not path.exists()

    def test_a_rate_past_the_header_limit_is_refused_at_the_call(self):
        # not at the first piece: fm-path relies on it to refuse the rate before any color row
        with pytest.raises(ValueError, match="^sample rate 2147483648 exceeds the WAV limit of 2147483647$"):
            _wav_pieces(2**31, 4, [np.zeros(4)])

    def test_the_largest_header_rate_still_writes(self, tmp_path):
        samples = np.array([0.0, 0.5, -1.0, 1.0])
        write_wav(SampledWave(sample_rate=2**31 - 1, samples=samples), tmp_path / "top.wav")
        back = read_wav(tmp_path / "top.wav")
        assert back.sample_rate == 2**31 - 1
        assert np.array_equal(back.samples, np.floor(samples * 32767 + 0.5) / 32767)


class TestBlockWriter:
    def test_blocks_write_the_bytes_of_one_buffer(self, tmp_path):
        samples = np.random.default_rng(5).uniform(-1.0, 1.0, 1000)
        write_wav(SampledWave(sample_rate=8000, samples=samples), tmp_path / "one.wav")
        _write((tmp_path / "many.wav", _wav_pieces(8000, 1000, wavefile._pcm16(np.split(samples, [0, 1, 300, 999])))))
        assert (tmp_path / "many.wav").read_bytes() == (tmp_path / "one.wav").read_bytes()

    def test_empty_wave_is_a_bare_header(self, tmp_path):
        write_wav(SampledWave(sample_rate=8000, samples=np.zeros(0)), tmp_path / "e.wav")
        assert (tmp_path / "e.wav").stat().st_size == 44
        assert read_wav(tmp_path / "e.wav").samples.size == 0

    @pytest.mark.parametrize("at", [1, 2**16, 3 * 2**16 + 5], ids=["first-block", "second-block", "last-block"])
    def test_bad_samples_leave_an_existing_file_untouched(self, tmp_path, at):
        path = tmp_path / "keep.wav"
        path.write_bytes(b"previous contents")
        samples = np.zeros(3 * 2**16 + 6)
        samples[at] = 1.5
        wave = SampledWave(sample_rate=8000, samples=samples)
        with pytest.raises(ValueError, match=r"^samples exceed \[-1, 1\]; normalize before writing$"):
            write_wav(wave, path)
        assert path.read_bytes() == b"previous contents"

    def test_an_interrupted_write_removes_the_partial_file(self, tmp_path):
        def blocks():
            yield np.zeros(4)
            raise KeyboardInterrupt

        path = tmp_path / "stopped.wav"
        with pytest.raises(KeyboardInterrupt):
            _write((path, _wav_pieces(8000, 8, wavefile._pcm16(blocks()))))
        assert not path.exists()

    def test_a_failed_close_removes_the_file(self, tmp_path, monkeypatch):
        def open_on_a_full_disk(path, mode):
            fh = open(path, mode)
            real_close = fh.close

            def close():
                real_close()
                raise OSError(28, "No space left on device")

            fh.close = close
            return fh

        monkeypatch.setattr(ppm, "open", open_on_a_full_disk, raising=False)
        path = tmp_path / "full.wav"
        with pytest.raises(OSError, match="No space left"):
            _write((path, _wav_pieces(8000, 4, wavefile._pcm16([np.zeros(4)]))))
        assert not path.exists()

    def test_a_symlink_is_not_removed(self, tmp_path):
        def blocks():
            yield np.zeros(4)
            raise ValueError("second block")

        target = tmp_path / "target.wav"
        link = tmp_path / "link.wav"
        link.symlink_to(target)
        with pytest.raises(ValueError):
            _write((link, _wav_pieces(8000, 6, wavefile._pcm16(blocks()))))
        assert link.is_symlink()


def one_shot_pcm16(block):
    """The encoder with fresh arrays per block: the reference for the reused scratch buffer."""
    return np.floor(block * 32767.0 + 0.5).astype("<i2").tobytes()


# values where x * 32767 + 0.5 is (about) whole, the rounding edges of floor,
# each with its two float neighbours, then full scale and both zeros
EDGE = 0.5 / 32767.0
EDGES = [e * s for e in (EDGE, 1.5 / 32767.0, 32766.5 / 32767.0) for s in (1.0, -1.0)]
EDGE_VALUES = np.array(
    [np.nextafter(e, d) for e in EDGES for d in (-np.inf, np.inf)] + EDGES + [1.0, -1.0, -0.0, 0.0]
)


def traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestReusedBuffers:
    @pytest.mark.parametrize(
        "sizes",
        [
            [5000, 7, 5000],  # long, short, long: the short block reuses the long one's scratch
            [7, 5000, 7, 6000],
            [1],
            [1, 1, 1],
            [0, 4, 0, 3],
            [],
            [2 * 2**16 + 3, 7],  # longer than one view: cut into views of 2**16
        ],
        ids=str,
    )
    def test_blocks_equal_the_one_shot_encoder(self, tmp_path, sizes):
        rng = np.random.default_rng(len(sizes) + sum(sizes))
        blocks = [rng.uniform(-1.0, 1.0, n) for n in sizes]
        if blocks and len(blocks[0]):
            blocks[0][: len(EDGE_VALUES)] = EDGE_VALUES[: len(blocks[0])]
        count = sum(sizes)
        _write((tmp_path / "w.wav", _wav_pieces(8000, count, wavefile._pcm16(iter(blocks)))))
        raw = (tmp_path / "w.wav").read_bytes()
        assert len(raw) == 44 + 2 * count
        assert raw[44:] == b"".join(map(one_shot_pcm16, blocks))
        pieces = list(wavefile._pcm16(blocks))  # each piece its own array, which no later block overwrites
        assert b"".join(pieces) == raw[44:]

    def test_edge_values_encode_as_before(self, tmp_path):
        write_wav(SampledWave(sample_rate=8000, samples=EDGE_VALUES), tmp_path / "e.wav")
        raw = (tmp_path / "e.wav").read_bytes()[44:]
        assert raw == one_shot_pcm16(EDGE_VALUES)
        assert set(np.frombuffer(raw, dtype="<i2")) == {0, 1, -1, 2, -2, 32767, -32767, 32766, -32766}

    def test_write_peak_memory_per_sample(self, tmp_path):
        wave = SampledWave(sample_rate=44100, samples=np.linspace(-1.0, 1.0, 10**6))
        peak = traced_peak(lambda: write_wav(wave, tmp_path / "m.wav"))
        assert peak < 13 * 10**6

    def test_write_peak_memory_does_not_grow_with_the_wave(self, tmp_path):
        def peak(count):
            wave = SampledWave(sample_rate=44100, samples=np.linspace(-1.0, 1.0, count))
            return traced_peak(lambda: write_wav(wave, tmp_path / "m.wav"))

        short, long = peak(10**6), peak(4 * 10**6)
        assert abs(long - short) < 0.1 * short, (short, long)

    def test_read_peak_memory_per_sample(self, tmp_path):
        count = 60 * 44100
        t = np.arange(count, dtype=np.float64) / 44100
        write_wav(SampledWave(sample_rate=44100, samples=0.8 * np.sin(2764.6 * t)), tmp_path / "r.wav")
        del t
        peak = traced_peak(lambda: read_wav(tmp_path / "r.wav"))
        assert peak < 12 * count

    def test_samples_equal_the_copying_reader(self, tmp_path):
        frames = np.random.default_rng(3).integers(-32768, 32768, 999).astype("<i2").tobytes()
        path = pcm16_file(tmp_path / "x.wav", frames=frames)
        want = np.frombuffer(frames, dtype="<i2").astype(np.float64) / 32767.0
        assert read_wav(path).samples.tobytes() == want.tobytes()


class TestAgainstStdlibWave:
    def test_reads_files_written_by_the_stdlib(self, tmp_path):
        path = tmp_path / "stdlib.wav"
        values = np.array([0, 1000, -1000, 32767, -32767], dtype="<i2")
        with stdlib_wave.open(str(path), "wb") as handle:
            handle.setnchannels(1)
            handle.setsampwidth(2)
            handle.setframerate(8000)
            handle.writeframes(values.tobytes())
        wave = read_wav(path)
        assert wave.sample_rate == 8000
        assert np.allclose(wave.samples, values / 32767.0, atol=0)

    def test_stdlib_reads_files_written_here(self, tmp_path):
        path = tmp_path / "ours.wav"
        samples = np.linspace(-0.5, 0.5, 64)
        write_wav(SampledWave(sample_rate=22050, samples=samples), path)
        with stdlib_wave.open(str(path), "rb") as handle:
            assert handle.getnchannels() == 1
            assert handle.getsampwidth() == 2
            assert handle.getframerate() == 22050
            assert handle.getnframes() == 64
            raw = np.frombuffer(handle.readframes(64), dtype="<i2")
        assert np.array_equal(raw, np.floor(samples * 32767.0 + 0.5).astype("<i2"))


class TestMalformedFiles:
    def test_not_riff(self, tmp_path):
        path = pcm16_file(tmp_path / "bad.wav", magic=b"RIFX")
        with pytest.raises(WavFormatError, match="RIFF"):
            read_wav(path)

    def test_too_short_for_header(self, tmp_path):
        path = tmp_path / "tiny.wav"
        path.write_bytes(b"RIFF\x00\x00")
        with pytest.raises(WavFormatError, match="too short"):
            read_wav(path)

    def test_not_wave_form(self, tmp_path):
        path = pcm16_file(tmp_path / "form.wav", form=b"AVI ")
        with pytest.raises(WavFormatError, match="WAVE"):
            read_wav(path)

    def test_missing_fmt_chunk(self, tmp_path):
        path = pcm16_file(tmp_path / "nofmt.wav", include_fmt=False)
        with pytest.raises(WavFormatError, match="fmt"):
            read_wav(path)

    def test_missing_data_chunk(self, tmp_path):
        path = pcm16_file(tmp_path / "nodata.wav", include_data=False)
        with pytest.raises(WavFormatError, match="data"):
            read_wav(path)

    def test_stereo_rejected_by_name(self, tmp_path):
        path = pcm16_file(tmp_path / "stereo.wav", channels=2)
        with pytest.raises(WavFormatError, match="channel count 2"):
            read_wav(path)

    def test_float_format_rejected_by_code(self, tmp_path):
        path = pcm16_file(tmp_path / "float.wav", audio_format=3)
        with pytest.raises(WavFormatError, match="audio format 3"):
            read_wav(path)

    def test_eight_bit_rejected(self, tmp_path):
        path = pcm16_file(tmp_path / "8bit.wav", bits=8)
        with pytest.raises(WavFormatError, match="bits per sample 8"):
            read_wav(path)

    def test_truncated_data_chunk_names_the_chunk(self, tmp_path):
        path = pcm16_file(tmp_path / "trunc.wav", data_size=100)
        with pytest.raises(WavFormatError, match="'data'"):
            read_wav(path)

    def test_odd_data_length(self, tmp_path):
        path = pcm16_file(tmp_path / "odd.wav", frames=b"\x00\x00\x01")
        with pytest.raises(WavFormatError, match="16-bit"):
            read_wav(path)

    def test_zero_rate_rejected(self, tmp_path):
        path = pcm16_file(tmp_path / "rate.wav", rate=0)
        with pytest.raises(WavFormatError, match="sample rate"):
            read_wav(path)

    @pytest.mark.parametrize("size", [8, 14])
    def test_short_fmt_chunk_names_its_size(self, tmp_path, size):
        path = riff_file(tmp_path / "short.wav", chunk(b"fmt ", FMT[:size]), chunk(b"data", b"\x00\x00"))
        with pytest.raises(WavFormatError) as info:
            read_wav(path)
        assert str(info.value) == f"'fmt ' chunk holds {size} bytes, need at least 16"


def chunk(chunk_id, body):
    """One RIFF chunk, padded to an even length."""
    return chunk_id + struct.pack("<I", len(body)) + body + b"\x00" * (len(body) & 1)


def riff_file(path, *chunks):
    body = b"WAVE" + b"".join(chunks)
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    return path


FMT = struct.pack("<HHIIHH", 1, 1, 8000, 16000, 2, 16)
STEREO_FMT = struct.pack("<HHIIHH", 1, 2, 8000, 32000, 4, 16)

# the chunk orders a reader meets in the wild; the first copy of a chunk wins
LAYOUTS = {
    "list-before-data": lambda frames: [chunk(b"fmt ", FMT), chunk(b"LIST", b"INFOISFT" * 3), chunk(b"data", frames)],
    "odd-padded-chunk": lambda frames: [chunk(b"junk", b"abc"), chunk(b"fmt ", FMT), chunk(b"data", frames)],
    "chunk-after-data": lambda frames: [chunk(b"fmt ", FMT), chunk(b"data", frames), chunk(b"cue ", b"\x01" * 7)],
    "duplicates": lambda frames: [
        chunk(b"fmt ", FMT), chunk(b"data", frames), chunk(b"fmt ", STEREO_FMT), chunk(b"data", b"\x7f\x7f" * 9),
    ],
}


def collect(blocks):
    """Copies of the blocks: the reader overwrites one buffer block after block."""
    return [block.copy() for block in blocks]


class TestStreamedReader:
    @pytest.mark.parametrize("count", [0, 1, 2**16 - 1, 2**16, 2**16 + 1])
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_blocks_concatenate_to_read_wav(self, tmp_path, layout, count):
        frames = np.random.default_rng(count).integers(-32768, 32768, count).astype("<i2")
        path = riff_file(tmp_path / "x.wav", *LAYOUTS[layout](frames.tobytes()))
        with wavefile._read_pcm16(path) as (rate, n, blocks):
            parts = collect(blocks)
        assert (rate, n) == (8000, count)
        assert [len(part) for part in parts] == [min(2**16, count - k) for k in range(0, count, 2**16)]
        streamed = np.concatenate([np.zeros(0), *parts])
        assert streamed.tobytes() == read_wav(path).samples.tobytes()
        assert streamed.tobytes() == (frames / 32767.0).tobytes()

    def test_a_file_cut_short_after_the_scan_raises(self, tmp_path):
        path = riff_file(tmp_path / "cut.wav", chunk(b"fmt ", FMT), chunk(b"data", b"\x01\x00" * (3 * 2**16)))
        with wavefile._read_pcm16(path) as (rate, count, blocks):
            os.truncate(path, 44 + 2 * 100)  # between the scan and the first readinto
            parts = []
            # the bytes read may include what the file buffer held before the cut
            with pytest.raises(WavFormatError, match=r"^truncated 'data' chunk: read \d+ of 393216 bytes$"):
                for block in blocks:
                    parts.append(block.copy())
        assert count == 3 * 2**16
        assert parts == []  # no block of zeros stands in for the missing samples

    def test_a_file_cut_inside_a_later_block_yields_only_whole_blocks(self, tmp_path):
        path = riff_file(tmp_path / "cut.wav", chunk(b"fmt ", FMT), chunk(b"data", b"\x01\x00" * (3 * 2**16)))
        with wavefile._read_pcm16(path) as (rate, count, blocks):
            os.truncate(path, 44 + 2 * (2**16 + 5))
            parts = []
            with pytest.raises(WavFormatError, match=r"^truncated 'data' chunk: read 131082 of 393216 bytes$"):
                for block in blocks:
                    parts.append(block.copy())
        assert [len(part) for part in parts] == [2**16]
        assert np.all(parts[0] == 1 / 32767.0)


def malformed_inputs(tmp_path):
    """Every TestMalformedFiles input, plus the chunk-list faults, by name."""
    tiny = tmp_path / "tiny.wav"
    tiny.write_bytes(b"RIFF\x00\x00")
    short_fmt = riff_file(tmp_path / "short_fmt.wav", chunk(b"fmt ", FMT[:14]), chunk(b"data", b"\x00\x00"))
    cut_header = tmp_path / "cut_header.wav"
    cut_header.write_bytes(pcm16_file(tmp_path / "base.wav").read_bytes() + b"LIS")
    return {
        "not-riff": pcm16_file(tmp_path / "bad.wav", magic=b"RIFX"),
        "too-short": tiny,
        "not-wave": pcm16_file(tmp_path / "form.wav", form=b"AVI "),
        "no-fmt": pcm16_file(tmp_path / "nofmt.wav", include_fmt=False),
        "no-data": pcm16_file(tmp_path / "nodata.wav", include_data=False),
        "stereo": pcm16_file(tmp_path / "stereo.wav", channels=2),
        "float": pcm16_file(tmp_path / "float.wav", audio_format=3),
        "8-bit": pcm16_file(tmp_path / "8bit.wav", bits=8),
        "truncated-data": pcm16_file(tmp_path / "trunc.wav", data_size=100),
        "odd-data": pcm16_file(tmp_path / "odd.wav", frames=b"\x00\x00\x01"),
        "zero-rate": pcm16_file(tmp_path / "rate.wav", rate=0),
        "short-fmt": short_fmt,
        "cut-chunk-header": cut_header,
    }


MALFORMED = [
    "not-riff", "too-short", "not-wave", "no-fmt", "no-data", "stereo", "float", "8-bit",
    "truncated-data", "odd-data", "zero-rate", "short-fmt", "cut-chunk-header",
]


class TestMalformedFilesThroughWav2Color:
    @pytest.mark.parametrize("name", MALFORMED)
    def test_exit_2_with_the_read_wav_message(self, tmp_path, capsys, name):
        path = malformed_inputs(tmp_path)[name]
        with pytest.raises(WavFormatError) as raised:
            read_wav(path)
        out = tmp_path / "out"
        args = ["wav2color", "--in", str(path), "--fundamental", "440",
                "--out-csv", str(out / "c.csv"), "--out-img", str(out / "c.ppm")]
        assert main(args) == 2
        assert capsys.readouterr().err == f"error: {raised.value}\n"
        assert not out.exists()

    def test_format_errors_come_before_analysis_errors(self, tmp_path, capsys):
        # a stereo file and a fundamental at Nyquist: the file is named first
        path = pcm16_file(tmp_path / "stereo.wav", channels=2)
        assert main(["wav2color", "--in", str(path), "--fundamental", "4000"]) == 2
        assert capsys.readouterr().err == "error: unsupported channel count 2 (only mono = 1)\n"
