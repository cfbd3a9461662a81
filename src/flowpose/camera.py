"""Pinhole camera model, bilinear sampling, warping and pose-induced flow.

Raster convention: arrays are (height, width[, channels]) with pixel (x, y)
addressed as data[y, x]. Pixel centres sit at integer coordinates.

Two kernels serve this module, the solver and the synthetic renderer:
`pixel_offsets` (x - cx, y - cy), which checks that the raster is
K.width x K.height, and `divide`, the perspective divide with the
cheirality test.

Flow rasters are stored in pixel units; the solver converts to normalised
camera coordinates by dividing by (fx, fy). flow_from_pose returns
normalised flow.
"""

from dataclasses import dataclass

import numpy as np

from .errors import RasterFormatError

# A point is in front of the camera when its depth exceeds this.
CHEIRALITY_EPS = 1e-12


@dataclass(frozen=True)
class Intrinsics:
    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if not (0 < self.fx < np.inf and 0 < self.fy < np.inf):
            raise ValueError("focal lengths must be positive and finite, "
                             f"got fx {self.fx:g}, fy {self.fy:g}")
        if not (0 < self.cx < self.width) or not (0 < self.cy < self.height):
            raise ValueError(
                f"principal point must lie inside the {self.width}x"
                f"{self.height} raster, got cx {self.cx:g}, cy {self.cy:g}")


def depth_valid_mask(depth):
    """Valid where depth is finite and strictly positive."""
    depth = np.asarray(depth)
    return np.isfinite(depth) & (depth > 0)


def pixel_offsets(K, shape):
    """(x - cx, y - cy) as two (H, W) arrays; raises RasterFormatError
    unless shape is (K.height, K.width). Offsets, not rays: d * (x - cx) / fx
    and d * ((x - cx) / fx) round differently."""
    h, w = shape
    if (h, w) != (K.height, K.width):
        raise RasterFormatError(
            f"intrinsics are {K.width}x{K.height} but the raster is {w}x{h}")
    return np.meshgrid(np.arange(w, dtype=float) - K.cx,
                       np.arange(h, dtype=float) - K.cy)


def check_same_size(first, second, names):
    """Raise RasterFormatError, naming both sizes, unless two rasters agree
    in height and width; names are the two rasters' names."""
    (h1, w1), (h2, w2) = np.shape(first)[:2], np.shape(second)[:2]
    if (h1, w1) != (h2, w2):
        raise RasterFormatError(f"{names[0]} raster is {w1}x{h1} but "
                                f"{names[1]} raster is {w2}x{h2}")


def divide(Y, out=None):
    """Perspective divide of channel-first camera points Y (3, ...): returns
    (Y[:2] / z, front), where front marks the points whose z exceeds
    CHEIRALITY_EPS and z is replaced by 1 elsewhere. A NaN z is not in
    front. The quotient goes to `out` when given; Y[:2] itself may be it."""
    z = Y[2]
    front = z > CHEIRALITY_EPS
    if not front.all():
        z = np.where(front, z, 1.0)
    return np.divide(Y[:2], z, out=out), front


def bilinear_sample(img, px, py):
    """Sample img at continuous pixel coordinates with 4-neighbour bilinear
    interpolation.

    Returns (values, valid) where valid is False for out-of-bounds queries.
    Accepts scalars or arrays; values get a trailing channel axis when the
    image has one.
    """
    img = np.asarray(img, dtype=float)
    px = np.atleast_1d(np.asarray(px, dtype=float))
    py = np.atleast_1d(np.asarray(py, dtype=float))
    h, w = img.shape[:2]
    valid = (px >= 0) & (px <= w - 1) & (py >= 0) & (py <= h - 1)
    pxc = np.clip(px, 0, w - 1)
    pyc = np.clip(py, 0, h - 1)
    x0 = np.clip(np.floor(pxc).astype(int), 0, w - 2) if w > 1 else np.zeros_like(pxc, int)
    y0 = np.clip(np.floor(pyc).astype(int), 0, h - 2) if h > 1 else np.zeros_like(pyc, int)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    ax = pxc - x0
    ay = pyc - y0
    if img.ndim == 3:
        ax = ax[..., None]
        ay = ay[..., None]
    out = ((1 - ax) * (1 - ay) * img[y0, x0]
           + ax * (1 - ay) * img[y0, x1]
           + (1 - ax) * ay * img[y1, x0]
           + ax * ay * img[y1, x1])
    return out, valid


def _moved_grid(depth, T, K):
    """Backproject every pixel, move it by T and divide. Returns (uv (2, H, W)
    in the target view, valid depth and in front, pixel offsets)."""
    depth = np.asarray(depth, dtype=float)
    ox, oy = pixel_offsets(K, depth.shape)
    valid = depth_valid_mask(depth)
    X = np.empty((depth.size, 3))       # one point a row
    d = X[:, 2]
    d[...] = 1.0
    np.copyto(d, depth.ravel(), where=valid.ravel())
    for c, (o, f) in enumerate(((ox, K.fx), (oy, K.fy))):
        np.multiply(d, o.ravel(), out=X[:, c])
        X[:, c] /= f
    # R^T copied C-ordered: on the transposed view BLAS takes another gemm
    # path, with the same bits, that is slower and adds 0.6 MB to the peak
    # RSS of a process
    Y = X @ np.ascontiguousarray(T[:3, :3].T)
    # X's buffer is free once Y is formed: it takes the moved points
    # channel first, so that divide reads contiguous rows, and then uv
    moved = X.reshape((3,) + depth.shape)
    np.add(Y.T.reshape(moved.shape), T[:3, 3, None, None], out=moved)
    uv, front = divide(moved, out=moved[:2])
    return uv, valid & front, (ox, oy)


def warp_image(src, depth, T, K):
    """Warp src into the depth map's frame: backproject, transform, project,
    sample bilinearly.

    Returns (warped image, validity mask). Pixels failing cheirality or
    sampling out of bounds are invalid; invalid pixels hold 0.
    """
    # a coordinate that overflows to inf, or on to NaN, is outside the raster
    with np.errstate(over='ignore', invalid='ignore'):
        uv, mask, _ = _moved_grid(depth, T, K)
        px, py = uv[0] * K.fx + K.cx, uv[1] * K.fy + K.cy
        values, in_bounds = bilinear_sample(src, px, py)
    mask &= in_bounds
    values[~mask] = 0.0
    return values, mask


def flow_from_pose(depth, T, K):
    """Pose-induced dense flow in normalised camera coordinates.

    Returns (flow (H,W,2), validity mask). flow is divide(T X), X the pixel
    lifted to its depth, minus the pixel's normalised coordinate; invalid
    pixels hold 0.
    """
    uv, mask, offsets = _moved_grid(depth, T, K)
    flow = np.empty(mask.shape + (2,))
    for c, (o, f) in enumerate(zip(offsets, (K.fx, K.fy))):
        np.divide(o, f, out=flow[..., c])
        np.subtract(uv[c], flow[..., c], out=flow[..., c])
    flow[~mask] = 0.0
    return flow, mask


def flow_normalised_to_pixels(flow, K):
    """Scale a normalised-coordinate flow field (..., 2) to pixel units, one
    component at a time: a product broadcast over the length-2 last axis
    takes about three times as long."""
    flow = np.asarray(flow, dtype=float)
    pixels = np.empty_like(flow)
    for c, f in enumerate((K.fx, K.fy)):
        np.multiply(flow[..., c], f, out=pixels[..., c])
    return pixels
