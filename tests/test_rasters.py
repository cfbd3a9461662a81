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

    @pytest.mark.parametrize("data", [
        np.linspace(-3.0, 3.0, 24).reshape(4, 6),
        np.linspace(-3.0, 3.0, 60).reshape(4, 5, 3).transpose(1, 0, 2),
        np.float32([[1.5, np.nan], [np.inf, -np.inf]]),
        np.float64([[1e-50, -0.0], [3e38, np.nan]]),
    ], ids=["float64", "strided", "float32", "extremes"])
    def test_bytes_match_three_pass_conversion(self, tmp_path, data):
        path = tmp_path / "r.engr"
        rasters.write_raster(path, data)
        ref = np.asarray(data, dtype=np.float32)
        h, w = ref.shape[:2]
        c = ref.shape[2] if ref.ndim == 3 else 1
        assert path.read_bytes() == (
            rasters._HEADER.pack(b"ENGR", 1, w, h, c)
            + np.ascontiguousarray(ref).astype('<f4').tobytes())

    @pytest.mark.parametrize("value", [1e39, -3.5e38])
    def test_float32_overflow_is_value_error(self, tmp_path, value):
        path = tmp_path / "big.engr"
        with pytest.raises(ValueError, match="overflows float32"):
            rasters.write_raster(path, np.float64([[1.0, value]]))
        assert not path.exists()

    def test_parts_join_their_channels(self):
        # an (H, W) part is one channel; a later part can overflow too
        rng = np.random.default_rng(2)
        flow, depth = rng.normal(size=(3, 4, 2)), rng.normal(size=(3, 4))
        joined = np.concatenate([flow, depth[..., None], flow], axis=-1)
        assert (rasters.encode_raster("j.engr", flow, depth, flow)
                == rasters.encode_raster("j.engr", joined))
        depth[2, 3] = 1e39
        with pytest.raises(ValueError, match="^j.engr: a finite value"):
            rasters.encode_raster("j.engr", flow, depth)

    @pytest.mark.parametrize("shape", [(5,), (2, 3, 4, 1)])
    def test_other_dimensions_rejected(self, shape):
        with pytest.raises(ValueError) as exc:
            rasters.encode_raster("r.engr", np.zeros(shape))
        assert str(exc.value) == (
            f"raster must be 2-D or 3-D, got shapes {[shape]}")

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
