"""Binary PPM images: exact bytes, and no copy of the pixels on the way out."""

import tracemalloc

import numpy as np

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
