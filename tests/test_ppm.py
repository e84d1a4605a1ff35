"""Binary PPM images: exact bytes, and no copy of the pixels on the way out."""

import os
import tracemalloc

import numpy as np
import pytest

from timbrecolor import ppm
from timbrecolor.ppm import read_ppm, write_ppm


class TestWritePPM:
    def test_bytes_are_the_header_then_the_pixels(self, tmp_path):
        pixels = np.arange(2 * 3 * 3, dtype=np.uint8).reshape(2, 3, 3)
        write_ppm(tmp_path / "a.ppm", pixels)
        assert (tmp_path / "a.ppm").read_bytes() == b"P6\n3 2\n255\n" + pixels.tobytes()

    def test_a_strided_view_is_written_row_by_row(self, tmp_path):
        pixels = np.arange(4 * 6 * 3, dtype=np.uint8).reshape(4, 6, 3)[::2, ::-3]
        write_ppm(tmp_path / "a.ppm", pixels)
        assert np.array_equal(read_ppm(tmp_path / "a.ppm"), pixels)

    def test_an_empty_image_is_its_header(self, tmp_path):
        write_ppm(tmp_path / "a.ppm", np.zeros((0, 5, 3), dtype=np.uint8))
        assert (tmp_path / "a.ppm").read_bytes() == b"P6\n5 0\n255\n"

    def test_peak_memory_stays_below_the_image(self, tmp_path):
        pixels = np.full((1024, 2048, 3), 7, dtype=np.uint8)  # 6.3 MB
        tracemalloc.start()
        try:
            write_ppm(tmp_path / "big.ppm", pixels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < pixels.nbytes
        assert (tmp_path / "big.ppm").stat().st_size == len(b"P6\n2048 1024\n255\n") + pixels.nbytes

    @pytest.mark.parametrize(
        "pixels, message",
        [
            (np.zeros((2, 3), dtype=np.uint8), "pixels must have shape (H, W, 3), got (2, 3)"),
            (np.zeros((2, 3, 4), dtype=np.uint8), "pixels must have shape (H, W, 3), got (2, 3, 4)"),
            (np.zeros((2, 3, 3)), "pixels must be uint8, got float64"),
            (np.zeros((2, 3, 3), dtype=np.int64), "pixels must be uint8, got int64"),
        ],
        ids=["2-d", "4-channels", "float64", "int64"],
    )
    def test_a_bad_array_is_refused_before_the_file_is_opened(self, tmp_path, pixels, message):
        with pytest.raises(ValueError) as info:
            write_ppm(tmp_path / "a.ppm", pixels)
        assert str(info.value) == message
        assert list(tmp_path.iterdir()) == []

    def test_bad_pixels_leave_an_existing_file_untouched(self, tmp_path):
        path = tmp_path / "keep.ppm"
        path.write_bytes(b"previous contents")
        with pytest.raises(ValueError, match=r"^pixels must be uint8, got float64$"):
            write_ppm(path, np.zeros((2, 3, 3)))
        assert path.read_bytes() == b"previous contents"

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
        path = tmp_path / "full.ppm"
        with pytest.raises(OSError, match="No space left"):
            write_ppm(path, np.zeros((2, 3, 3), dtype=np.uint8))
        assert not path.exists()


class TestWrite:
    def test_a_missing_directory_is_refused_before_any_piece_is_taken(self, tmp_path):
        taken = []

        def pieces(name):
            taken.append(name)
            yield b"written"

        (tmp_path / "a.txt").write_bytes(b"before the call")
        missing = tmp_path / "missing" / "b.txt"
        with pytest.raises(FileNotFoundError) as info:
            ppm._write((tmp_path / "a.txt", pieces("a")), (missing, pieces("b")))
        assert str(info.value) == f"[Errno 2] No such file or directory: '{missing}'"
        with pytest.raises(FileNotFoundError) as opened:
            open(missing, "wb")
        assert str(info.value) == str(opened.value)
        assert taken == []
        assert list(tmp_path.iterdir()) == [tmp_path / "a.txt"]
        assert (tmp_path / "a.txt").read_bytes() == b"before the call"

    @pytest.mark.parametrize(
        "name, error",
        [
            ("missing/b.txt", FileNotFoundError),
            ("afile/b.txt", NotADirectoryError),
            ("afile/sub/b.txt", NotADirectoryError),
            ("adir", IsADirectoryError),
            (".", IsADirectoryError),
            ("", FileNotFoundError),
        ],
        ids=["missing-directory", "parent-is-a-file", "grandparent-is-a-file", "directory", "dot", "empty"],
    )
    def test_a_path_open_refuses_is_refused_with_its_error_before_any_piece(
        self, tmp_path, monkeypatch, name, error
    ):
        taken = []

        def pieces(label):
            taken.append(label)
            yield b"written"

        monkeypatch.chdir(tmp_path)
        (tmp_path / "afile").write_bytes(b"a file")
        (tmp_path / "adir").mkdir()
        (tmp_path / "a.txt").write_bytes(b"before the call")
        with pytest.raises(OSError) as info:
            ppm._write(("a.txt", pieces("a")), (name, pieces("b")))
        with pytest.raises(OSError) as opened:
            open(name, "wb")
        assert type(info.value) is type(opened.value) is error
        assert str(info.value) == str(opened.value)
        assert taken == []
        assert sorted(os.listdir(tmp_path)) == ["a.txt", "adir", "afile"]
        assert (tmp_path / "a.txt").read_bytes() == b"before the call"
        assert (tmp_path / "afile").read_bytes() == b"a file"
        assert os.listdir(tmp_path / "adir") == []


PIXELS = bytes(range(18))  # a 3 x 2 image


class TestReadPPM:
    @pytest.mark.parametrize(
        "blob",
        [
            b"P6\n3 2\n255\n" + PIXELS,
            b" \t\n\r\x0b\x0cP6\t3\r2\x0b255\x0c" + PIXELS,  # the six whitespace bytes
            b"P6  3\n\n2 \t 255\r" + PIXELS + b"trailing bytes",
        ],
        ids=["written", "every-whitespace", "runs-and-trailer"],
    )
    def test_fields_are_split_at_any_whitespace_and_one_byte_ends_the_header(self, tmp_path, blob):
        (tmp_path / "a.ppm").write_bytes(blob)
        assert read_ppm(tmp_path / "a.ppm").tobytes() == PIXELS
        assert read_ppm(tmp_path / "a.ppm").shape == (2, 3, 3)

    @pytest.mark.parametrize(
        "blob, message",
        [
            (b"", "malformed PPM header"),
            (b" \n\t", "malformed PPM header"),
            (b"P6\n3 2", "malformed PPM header"),
            (b"P6\n3 2\n", "malformed PPM header"),
            (b"P6\n3 2\n\n\n", "malformed PPM header"),
            (b"P6\n-1 -3\n255\n" + PIXELS[:9], "malformed PPM header"),
            (b"P6\n1e3 2\n255\n" + PIXELS, "malformed PPM header"),
            (b"P6\n+2 3\n255\n" + PIXELS, "malformed PPM header"),
            (b"P6\n3 1_0\n255\n" + PIXELS, "malformed PPM header"),
            (b"P5\n3 2\n255\n" + PIXELS, "only P6 with maxval 255 is supported"),
            (b"P6\n3 2\n65535\n" + PIXELS, "only P6 with maxval 255 is supported"),
            (b"P6\n3 2\n255" + PIXELS, "only P6 with maxval 255 is supported"),  # maxval runs on
            (b"P6\n3 2\n255\n" + PIXELS[:-1], "PPM pixel data truncated"),
            (b"P6\n3 2\n255", "PPM pixel data truncated"),
        ],
        ids=[
            "empty", "whitespace-only", "no-maxval", "no-maxval-newline", "blank-lines",
            "negative-size", "exponent-width", "signed-width", "underscored-height",
            "P5", "maxval-65535", "no-separator", "one-byte-short", "header-only",
        ],
    )
    def test_each_fault_has_its_message(self, tmp_path, blob, message):
        (tmp_path / "a.ppm").write_bytes(blob)
        with pytest.raises(ValueError) as info:
            read_ppm(tmp_path / "a.ppm")
        assert str(info.value) == message
