"""Scalar loss functions: berHu depth loss, stereo photometric consistency,
depth smoothness, the combined semi-supervised loss, the unsupervised pose
photometric loss and the pose-vector loss.

Masks: a pixel invalid in any participating raster is excluded; means are
over the valid count. Accumulation is plain row-major numpy reduction, so
results are bit-repeatable.
"""

from dataclasses import dataclass

import numpy as np

from . import camera, se3
from .camera import check_same_size, depth_valid_mask
from .errors import InsufficientDataError, RasterFormatError


@dataclass(frozen=True)
class LossWeights:
    lambda1: float = 2.0
    lambda2: float = 1.0
    lambda3: float = float(np.exp(-4.0))

    def __post_init__(self):
        weights = (self.lambda1, self.lambda2, self.lambda3)
        if not all(w >= 0 for w in weights):    # NaN fails it too
            raise ValueError("loss weights must be nonnegative, got lambda1 "
                             "%g, lambda2 %g, lambda3 %g" % weights)


def berhu(pred, gt, valid=None):
    """Reverse Huber loss: L1 below the cutoff c, quadratic above it.

    c = (1/5) * max |pred - gt| over valid pixels; the quadratic branch
    (d^2 + c^2) / (2c) meets the linear branch at |d| = c exactly.
    """
    pred = np.asarray(pred, dtype=float)
    gt = np.asarray(gt, dtype=float)
    check_same_size(pred, gt, ("pred", "gt"))
    if pred.shape != gt.shape:
        raise RasterFormatError(f"pred raster has shape {pred.shape} but "
                                f"gt raster has shape {gt.shape}")
    if valid is None:
        valid = depth_valid_mask(gt)
    valid = valid & np.isfinite(pred) & np.isfinite(gt)
    if not np.any(valid):
        h, w = gt.shape[:2]
        raise InsufficientDataError(f"empty validity mask over the {w}x{h} "
                                    "raster")
    d = np.abs(pred[valid] - gt[valid])
    c = d.max() / 5.0
    if c == 0.0:
        return 0.0
    loss = np.where(d <= c, d, (d * d + c * c) / (2.0 * c))
    return float(loss.mean())


def smoothness(depth):
    """Mean |forward x-gradient| + |forward y-gradient| over the interior,
    skipping the gradients that touch a non-finite depth."""
    depth = np.asarray(depth, dtype=float)
    if depth.ndim != 2:
        raise RasterFormatError("depth raster must have a single channel")
    h, w = depth.shape
    if h < 2 or w < 2:
        raise InsufficientDataError(
            f"depth raster is {w}x{h}; smoothness needs at least 2x2")
    finite = np.isfinite(depth)
    valid = finite[:-1, :-1] & finite[:-1, 1:] & finite[1:, :-1]
    if not np.any(valid):
        raise InsufficientDataError(
            f"no valid pixels: every smoothness gradient of the {w}x{h} "
            "raster touches a non-finite depth")
    with np.errstate(invalid='ignore'):     # inf - inf, masked out
        g = (np.abs(depth[:-1, 1:] - depth[:-1, :-1])
             + np.abs(depth[1:, :-1] - depth[:-1, :-1]))
    return float(np.mean(g[valid]))


def photometric_lr(img_l, img_r, depth_l, depth_r, baseline, K):
    """Left-right photometric consistency: sum of the two directional mean
    absolute intensity differences after depth-based warping."""
    if not 0 <= baseline < np.inf:
        raise ValueError(
            f"baseline must be finite and nonnegative, got {baseline:g}")
    # the right camera sits at +baseline along x, so left-frame points shift
    # by -baseline in the right frame
    t_rl = se3.exp([-baseline, 0.0, 0.0, 0.0, 0.0, 0.0])
    t_lr = se3.exp([baseline, 0.0, 0.0, 0.0, 0.0, 0.0])
    return (_warped_difference(img_l, img_r, depth_l, t_rl, K)
            + _warped_difference(img_r, img_l, depth_r, t_lr, K))


def combined_semisupervised(pred_l, pred_r, gt_l, gt_r, img_l, img_r,
                            baseline, K, weights=LossWeights()):
    """lambda1*(berHu_L + berHu_R) + lambda2*photometric + lambda3*(smooth_L + smooth_R)."""
    lb = berhu(pred_l, gt_l) + berhu(pred_r, gt_r)
    lc = photometric_lr(img_l, img_r, pred_l, pred_r, baseline, K)
    ls = smoothness(pred_l) + smoothness(pred_r)
    return weights.lambda1 * lb + weights.lambda2 * lc + weights.lambda3 * ls


def pose_photometric(img_1, img_2, depth_1, xi, K):
    """Mean absolute intensity difference between img_1 and img_2 warped by
    exp(xi) through depth_1."""
    with np.errstate(over='ignore'):    # an inf translation warps nothing
        return _warped_difference(img_1, img_2, depth_1, se3.exp(xi), K)


def _warped_difference(img_a, img_b, depth_a, T, K):
    """Mean absolute intensity difference between img_a and img_b warped
    by T through depth_a, over the pixels valid after warping. Both images
    must have the depth raster's size."""
    if np.ndim(depth_a) != 2:
        raise RasterFormatError("depth raster must have a single channel")
    for img in (img_a, img_b):
        check_same_size(img, depth_a, ("image", "depth"))
    warped, mask = camera.warp_image(img_b, depth_a, T, K)
    if not np.any(mask):
        h, w = np.shape(depth_a)
        raise InsufficientDataError(
            f"no valid pixels after warping the {w}x{h} raster")
    diff = np.abs(np.asarray(img_a, dtype=float) - warped)
    if diff.ndim == 3:
        diff = diff.mean(axis=-1)
    return float(diff[mask].mean())


def pose_loss(xi, T_gt):
    """Euclidean distance between xi and log(T_gt)."""
    xi = np.asarray(xi, dtype=float)
    return float(np.linalg.norm(xi - se3.log(T_gt)))
