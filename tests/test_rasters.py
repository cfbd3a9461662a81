import numpy as np
import pytest

from flowpose import rasters
from flowpose.camera import Intrinsics
from flowpose.errors import RasterFormatError


class TestRasterRoundtrip:
    def test_single_channel(self, tmp_path):
        data = np.random.default_rng(0).uniform(0, 5, (6, 8)).astype(np.float32)
        path = tmp_path / "d.engr"
        rasters.write_raster(path, data)
        back = rasters.read_raster(path)
        assert back.shape == (6, 8)
        assert np.array_equal(back.astype(np.float32), data)

    def test_multi_channel(self, tmp_path):
        data = np.random.default_rng(1).uniform(-1, 1, (4, 5, 5)).astype(np.float32)
        path = tmp_path / "f.engr"
        rasters.write_raster(path, data)
        back = rasters.read_raster(path)
        assert back.shape == (4, 5, 5)
        assert np.array_equal(back.astype(np.float32), data)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.engr"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(RasterFormatError):
            rasters.read_raster(path)

    def test_truncated_payload(self, tmp_path):
        data = np.zeros((4, 4), dtype=np.float32)
        path = tmp_path / "t.engr"
        rasters.write_raster(path, data)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(RasterFormatError):
            rasters.read_raster(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "v.engr"
        import struct
        path.write_bytes(struct.pack("<4sIIII", b"ENGR", 9, 1, 1, 1) + b"\x00" * 4)
        with pytest.raises(RasterFormatError):
            rasters.read_raster(path)


    def test_signalling_nan_reads_as_nan(self, tmp_path):
        path = tmp_path / "snan.engr"
        import struct
        path.write_bytes(struct.pack("<4sIIII", b"ENGR", 1, 2, 1, 1)
                         + b"\x00\x00\x81\x7f" + b"\x00\x00\x80\x3f")
        back = rasters.read_raster(path)    # warnings are errors in tests
        assert np.isnan(back[0, 0]) and back[0, 1] == 1.0


class TestIntrinsicsFile:
    def test_roundtrip(self, tmp_path):
        K = Intrinsics(fx=101.5, fy=99.25, cx=32.125, cy=24.5,
                       width=64, height=48)
        path = tmp_path / "K.txt"
        rasters.write_intrinsics(path, K)
        back = rasters.read_intrinsics(path)
        assert back == K

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "K.txt"
        path.write_text("100 100 32\n")
        with pytest.raises(RasterFormatError):
            rasters.read_intrinsics(path)
