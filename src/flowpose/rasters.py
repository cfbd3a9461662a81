"""ENGR raster file format and the intrinsics text file.

ENGR layout: magic b"ENGR", then little-endian u32 version (=1), width,
height, channels, followed by float32 data in row-major order with
channels interleaved.
"""

import contextlib
import os
import stat
import struct

import numpy as np

from .camera import Intrinsics
from .errors import RasterFormatError

MAGIC = b"ENGR"
VERSION = 1
_HEADER = struct.Struct("<4sIIII")
# the bit that makes a float32 NaN quiet
_QUIET_BIT = 0x00400000


@contextlib.contextmanager
def float32_cast(path):
    """A block in which a finite value that overflows a float32 cast is a
    ValueError that names `path`, the file the values are meant for."""
    try:
        with np.errstate(over='raise'):
            yield
    except FloatingPointError:
        raise ValueError(f"{path}: a finite value overflows float32") from None


def encode_raster(path, *parts):
    """The ENGR bytes of a raster whose channels are those of `parts`, in
    order: (H, W) or (H, W, C) float arrays of one size. Each part is cast
    straight into the float32 data, so no stacked or float64 copy is made.
    NaN and infinite values are encoded as they are; a finite value beyond
    the float32 range is the ValueError of float32_cast."""
    if not parts or any(np.ndim(part) not in (2, 3) for part in parts):
        raise ValueError("raster must be 2-D or 3-D, got shapes "
                         f"{[np.shape(part) for part in parts]}")
    parts = [np.atleast_3d(part) for part in parts]
    h, w = parts[0].shape[:2]
    c = sum(part.shape[2] for part in parts)
    encoded = bytearray(_HEADER.size + 4 * h * w * c)
    _HEADER.pack_into(encoded, 0, MAGIC, VERSION, w, h, c)
    data = np.frombuffer(encoded, dtype='<f4',
                         offset=_HEADER.size).reshape(h, w, c)
    start = 0
    with float32_cast(path):
        for part in parts:
            data[:, :, start:start + part.shape[2]] = part
            start += part.shape[2]
    return encoded


def write_raster(path, data):
    """Write a (H, W) or (H, W, C) float array as an ENGR raster, encoded by
    encode_raster; when it cannot be encoded, no file is written."""
    encoded = encode_raster(path, data)
    with open(path, 'wb') as fh:
        fh.write(encoded)


def read_raster(path):
    """Read an ENGR raster as the file's float32 values, shape (H, W, C); a
    single-channel raster is returned as (H, W).

    The values are read into one writable little-endian float32 array, with
    no bytes or float64 copy: a caller widens what it computes with. Each
    signalling NaN is quieted in place (its quiet bit set), so no later
    widening warns; it widens to the float64 NaN that converting the
    signalling one gives.
    """
    with open(path, 'rb') as fh:
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise RasterFormatError(f"{path}: truncated header")
        magic, version, w, h, c = _HEADER.unpack(header)
        if magic != MAGIC:
            raise RasterFormatError(f"{path}: bad magic {magic!r}")
        if version != VERSION:
            raise RasterFormatError(f"{path}: unsupported version {version}")
        expected = w * h * c * 4
        # a regular file's size is known before reading, so a header that
        # claims more data than the file holds allocates nothing; a pipe is
        # read in 64 KiB pieces (its capacity) up to one byte past the count
        st = os.fstat(fh.fileno())
        if not stat.S_ISREG(st.st_mode):
            buf = bytearray()
            while piece := fh.read(min(1 << 16, expected + 1 - len(buf))):
                buf += piece
            got = len(buf) if len(buf) <= expected else f"more than {expected}"
            if got == expected:
                data = np.frombuffer(buf, dtype='<f4').reshape(h, w, c)
        elif (got := st.st_size - fh.tell()) == expected:
            data = np.empty((h, w, c), dtype='<f4')
            got = fh.readinto(data) + len(fh.read())
    if got != expected:
        raise RasterFormatError(
            f"{path}: expected {expected} data bytes, got {got}")
    with np.errstate(invalid='ignore'):     # a signalling NaN may flag it
        nan = np.isnan(data)
    bits = data.view('<u4')
    np.bitwise_or(bits, _QUIET_BIT, out=bits, where=nan)
    if c == 1:
        return data[:, :, 0]
    return data


def intrinsics_line(K):
    """The intrinsics file's single line: fx fy cx cy width height."""
    return ("%.17g %.17g %.17g %.17g %d %d\n"
            % (K.fx, K.fy, K.cx, K.cy, K.width, K.height))


def write_intrinsics(path, K):
    """Write an intrinsics file, the one line of intrinsics_line."""
    with open(path, 'w') as fh:
        fh.write(intrinsics_line(K))


def read_text(path):
    """The contents of a UTF-8 text file, without the byte-order mark that
    some editors write at its start; RasterFormatError if it is not
    UTF-8."""
    with open(path, 'r', encoding='utf-8-sig') as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise RasterFormatError(f"{path}: {exc}") from exc


def read_intrinsics(path):
    """Read an intrinsics file; a file whose values Intrinsics rejects is a
    RasterFormatError naming the file."""
    parts = read_text(path).split()
    if len(parts) != 6:
        raise RasterFormatError(
            f"{path}: expected 6 intrinsics fields, got {len(parts)}")
    try:
        fx, fy, cx, cy = (float(p) for p in parts[:4])
        width, height = int(parts[4]), int(parts[5])
        return Intrinsics(fx=fx, fy=fy, cx=cx, cy=cy, width=width,
                          height=height)
    except ValueError as exc:
        raise RasterFormatError(f"{path}: {exc}") from exc
