"""Pinhole camera model, bilinear sampling, warping and pose-induced flow.

Raster convention: arrays are (height, width[, channels]) with pixel (x, y)
addressed as data[y, x]. Pixel centres sit at integer coordinates.

Two kernels serve this module, the solver and the synthetic renderer:
`pixel_offsets` (x - cx, y - cy), which checks that the raster is
K.width x K.height, and `divide`, the perspective divide with the
cheirality test.

Flow rasters are stored in pixel units; the solver converts to normalised
camera coordinates by dividing by (fx, fy). flow_from_pose returns
normalised flow, with a pixel-unit variant alongside.
"""

from dataclasses import dataclass

import numpy as np

from . import se3
from .errors import CheiralityError, RasterFormatError


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
            raise ValueError("focal lengths must be positive and finite")
        if not (0 < self.cx < self.width) or not (0 < self.cy < self.height):
            raise ValueError("principal point must lie inside the raster")

    def matrix(self):
        return np.array([[self.fx, 0.0, self.cx],
                         [0.0, self.fy, self.cy],
                         [0.0, 0.0, 1.0]])


def project(x):
    """Perspective division: 3-vector camera point -> normalised 2-vector."""
    x = np.asarray(x, dtype=float)
    if x[2] <= se3.CHEIRALITY_EPS:
        raise CheiralityError("point not in front of the camera")
    return x[:2] / x[2]


def backproject(depth, u, K):
    """Lift pixel u with metric depth into the camera frame: D * K^-1 * (u, 1)."""
    if not (np.isfinite(depth) and depth > 0):
        raise ValueError("depth must be positive and finite")
    ux, uy = u
    return depth * np.array([(ux - K.cx) / K.fx, (uy - K.cy) / K.fy, 1.0])


def pixel_to_normalised(u, K):
    u = np.asarray(u, dtype=float)
    return np.stack([(u[..., 0] - K.cx) / K.fx,
                     (u[..., 1] - K.cy) / K.fy], axis=-1)


def normalised_to_pixel(n, K):
    n = np.asarray(n, dtype=float)
    return np.stack([n[..., 0] * K.fx + K.cx,
                     n[..., 1] * K.fy + K.cy], axis=-1)


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


def divide(Y):
    """Perspective divide of channel-first camera points Y (3, ...): returns
    (Y[:2] / z, front) with front = z > se3.CHEIRALITY_EPS, and z replaced by
    1 where front is False."""
    z = Y[2]
    front = z > se3.CHEIRALITY_EPS
    if not front.all():
        z = np.where(front, z, 1.0)
    return Y[:2] / z, front


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
    d = np.where(valid, depth, 1.0)
    X = np.stack([d * ox / K.fx, d * oy / K.fy, d], axis=-1)
    Y = X @ T[:3, :3].T + T[:3, 3]
    uv, front = divide(np.moveaxis(Y, -1, 0))
    return uv, valid & front, (ox, oy)


def warp_image(src, depth, T, K):
    """Warp src into the depth map's frame: backproject, transform, project,
    sample bilinearly.

    Returns (warped image, validity mask). Pixels failing cheirality or
    sampling out of bounds are invalid; invalid pixels hold 0.
    """
    uv, mask, _ = _moved_grid(depth, T, K)
    values, in_bounds = bilinear_sample(src, uv[0] * K.fx + K.cx,
                                        uv[1] * K.fy + K.cy)
    mask &= in_bounds
    values[~mask] = 0.0
    return values, mask


def flow_from_pose(depth, T, K):
    """Pose-induced dense flow in normalised camera coordinates.

    Returns (flow (H,W,2), validity mask). flow = project(T * backproject)
    minus the original normalised coordinate; invalid pixels hold 0.
    """
    uv, mask, (ox, oy) = _moved_grid(depth, T, K)
    flow = np.stack([uv[0] - ox / K.fx, uv[1] - oy / K.fy], axis=-1)
    return np.where(mask[..., None], flow, 0.0), mask


def flow_normalised_to_pixels(flow, K):
    """Scale a normalised-coordinate flow field to pixel units."""
    return flow * np.array([K.fx, K.fy])


def flow_pixels_to_normalised(flow, K):
    """Scale a pixel-unit flow field to normalised camera coordinates."""
    return flow / np.array([K.fx, K.fy])
