import os
import threading
import tracemalloc

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
        # quieted in place: its payload is kept, and widening it warns not
        assert back.view('<u4')[0, 0] == 0x7fc10000
        with np.errstate(all='raise'):
            wide = back.astype(float)
        assert wide.view('<u8')[0, 0] == 0x7ff8200000000000

    @pytest.mark.parametrize("shape", [(3, 4), (3, 4, 5)])
    def test_reads_float32_into_one_buffer(self, tmp_path, shape):
        data = np.random.default_rng(3).normal(size=shape)
        data.flat[[1, 7]] = [np.nan, -np.inf]
        path = tmp_path / "r.engr"
        rasters.write_raster(path, data)
        back = rasters.read_raster(path)
        assert back.shape == shape and back.dtype == np.dtype('<f4')
        assert back.tobytes() == data.astype('<f4').tobytes()
        # the array that read_raster filled holds the raster's data bytes and
        # nothing else, and the caller may write to it
        owner = back if back.base is None else back.base
        assert owner.flags.owndata and owner.nbytes == 4 * data.size
        assert back.flags.writeable

    @pytest.mark.parametrize("extra", [-4, -1, 1, 8])
    def test_other_data_length_names_both_sizes(self, tmp_path, extra):
        path = tmp_path / "n.engr"
        rasters.write_raster(path, np.zeros((2, 3)))
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) + extra] if extra < 0
                         else raw + b"\x00" * extra)
        with pytest.raises(RasterFormatError) as exc:
            rasters.read_raster(path)
        assert str(exc.value) == (
            f"{path}: expected 24 data bytes, got {24 + extra}")

    def test_header_beyond_the_file_allocates_nothing(self, tmp_path):
        # a header that claims a 2^32-byte raster on a 4-byte payload
        path = tmp_path / "huge.engr"
        import struct
        path.write_bytes(struct.pack("<4sIIII", b"ENGR", 1, 65536, 16384, 1)
                         + b"\x00" * 4)
        tracemalloc.start()
        try:
            with pytest.raises(RasterFormatError,
                               match="expected 4294967296 data bytes, got 4$"):
                rasters.read_raster(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e5

    def test_header_beyond_the_pipe_allocates_nothing(self, tmp_path):
        # the same lying header through a pipe, whose length the reader
        # learns only by reading: no array of the claimed size is made
        import struct
        raw = struct.pack("<4sIIII", b"ENGR", 1, 65536, 16384, 1) \
            + b"\x00" * 4
        path = tmp_path / "pipe"
        os.mkfifo(path)
        writer = threading.Thread(target=lambda: path.write_bytes(raw),
                                  daemon=True)
        writer.start()
        tracemalloc.start()
        try:
            with pytest.raises(RasterFormatError,
                               match="expected 4294967296 data bytes, got 4$"):
                rasters.read_raster(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert peak < 2e5

    @pytest.mark.parametrize("cut", [0, 4, -4])
    def test_reads_a_pipe(self, tmp_path, cut):
        # a pipe's length is known only once it is read
        data = np.arange(12.0).reshape(3, 4)
        raw = rasters.encode_raster("p.engr", data)
        path = tmp_path / "pipe"
        os.mkfifo(path)
        writer = threading.Thread(
            target=lambda: path.write_bytes(
                raw[:len(raw) - cut] if cut >= 0 else raw + b"\x00" * -cut),
            daemon=True)
        writer.start()
        try:
            if cut:
                # a longer stream is read only one byte past the count
                got = "44" if cut > 0 else "more than 48"
                with pytest.raises(RasterFormatError,
                                   match=f"expected 48 data bytes, got {got}$"):
                    rasters.read_raster(path)
            else:
                assert np.array_equal(rasters.read_raster(path), data)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()


class TestIntrinsicsFile:
    def test_roundtrip(self, tmp_path):
        K = Intrinsics(fx=101.5, fy=99.25, cx=32.125, cy=24.5,
                       width=64, height=48)
        path = tmp_path / "K.txt"
        rasters.write_intrinsics(path, K)
        back = rasters.read_intrinsics(path)
        assert back == K

    def test_byte_order_mark_accepted(self, tmp_path):
        # read_text drops the mark, for intrinsics as for TUM files
        path = tmp_path / "K.txt"
        path.write_bytes(b"\xef\xbb\xbf100 100 32 24 64 48\n")
        assert rasters.read_intrinsics(path) == Intrinsics(
            fx=100.0, fy=100.0, cx=32.0, cy=24.0, width=64, height=48)

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "K.txt"
        path.write_text("100 100 32\n")
        with pytest.raises(RasterFormatError):
            rasters.read_intrinsics(path)
