"""ENGR raster file format and the intrinsics text file.

ENGR layout: magic b"ENGR", then little-endian u32 version (=1), width,
height, channels, followed by float32 data in row-major order with
channels interleaved.
"""

import struct

import numpy as np

from .camera import Intrinsics
from .errors import RasterFormatError

MAGIC = b"ENGR"
VERSION = 1
_HEADER = struct.Struct("<4sIIII")


def encode_raster(path, *parts):
    """The ENGR bytes of a raster whose channels are those of `parts`, in
    order: (H, W) or (H, W, C) float arrays of one size. Each part is cast
    straight into the float32 data, so no stacked or float64 copy is made.
    NaN and infinite values are encoded as they are; a finite value beyond
    the float32 range is a ValueError that names `path`, the file the bytes
    are meant for."""
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
    try:
        with np.errstate(over='raise'):
            for part in parts:
                data[:, :, start:start + part.shape[2]] = part
                start += part.shape[2]
    except FloatingPointError:
        raise ValueError(f"{path}: a finite value overflows float32") from None
    return encoded


def write_raster(path, data):
    """Write a (H, W) or (H, W, C) float array as an ENGR raster, encoded by
    encode_raster; when it cannot be encoded, no file is written."""
    encoded = encode_raster(path, data)
    with open(path, 'wb') as fh:
        fh.write(encoded)


def read_raster(path):
    """Read an ENGR raster as a float64 array of shape (H, W, C); a
    single-channel raster is returned as (H, W)."""
    with open(path, 'rb') as fh:
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise RasterFormatError(f"{path}: truncated header")
        magic, version, w, h, c = _HEADER.unpack(header)
        if magic != MAGIC:
            raise RasterFormatError(f"{path}: bad magic {magic!r}")
        if version != VERSION:
            raise RasterFormatError(f"{path}: unsupported version {version}")
        payload = fh.read()
    expected = w * h * c * 4
    if len(payload) != expected:
        raise RasterFormatError(
            f"{path}: expected {expected} data bytes, got {len(payload)}")
    with np.errstate(invalid='ignore'):     # a signalling NaN stays a NaN
        data = np.frombuffer(payload, dtype='<f4').reshape(h, w, c).astype(float)
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
    """The contents of a UTF-8 text file; RasterFormatError if it is not
    UTF-8."""
    with open(path, 'r', encoding='utf-8') as fh:
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
