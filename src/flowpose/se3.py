"""SE(3) / se(3) machinery.

Motion vectors are 6-vectors ordered (v_x, v_y, v_z, w_x, w_y, w_z):
translation first, then rotation about x, y, z. This ordering matches the
column order of the pose Jacobian used by the solver.

Transforms act on inverse-depth homogeneous points (u, v, 1, q) where
(u, v) are normalised camera coordinates and q is inverse depth.
"""

import numpy as np

from .camera import divide
from .errors import CheiralityError

# Rotation angles at or beyond pi - LOG_ANGLE_MARGIN are rejected by log();
# the branch of the logarithm is ambiguous there.
LOG_ANGLE_MARGIN = 1e-6

# Below this angle the Rodrigues coefficients switch to Taylor series.
SMALL_ANGLE = 1e-6


def generators():
    """Return the 6 se(3) generator matrices as a (6, 4, 4) array."""
    G = np.zeros((6, 4, 4))
    G[0, 0, 3] = 1.0
    G[1, 1, 3] = 1.0
    G[2, 2, 3] = 1.0
    # rotation about x
    G[3, 1, 2] = -1.0
    G[3, 2, 1] = 1.0
    # rotation about y
    G[4, 0, 2] = 1.0
    G[4, 2, 0] = -1.0
    # rotation about z
    G[5, 0, 1] = -1.0
    G[5, 1, 0] = 1.0
    return G


def hat(w):
    """(..., 3) vectors -> (..., 3, 3) skew-symmetric matrices."""
    w = np.asarray(w, dtype=float)
    K = np.zeros(w.shape[:-1] + (3, 3))
    K[..., 0, 1], K[..., 0, 2], K[..., 1, 2] = -w[..., 2], w[..., 1], -w[..., 0]
    K[..., 1, 0], K[..., 2, 0], K[..., 2, 1] = w[..., 2], -w[..., 1], w[..., 0]
    return K


def _rodrigues_coefficients(theta):
    """Return (A, B, C) with A = sin(t)/t, B = (1-cos(t))/t^2, C = (t-sin(t))/t^3.

    theta may be an array whose angles all lie on one side of SMALL_ANGLE.
    """
    if np.all(theta < SMALL_ANGLE):
        t2 = theta * theta
        A = 1.0 - t2 / 6.0 + t2 * t2 / 120.0 - t2 * t2 * t2 / 5040.0
        B = 0.5 - t2 / 24.0 + t2 * t2 / 720.0 - t2 * t2 * t2 / 40320.0
        C = (1.0 / 6.0 - t2 / 120.0 + t2 * t2 / 5040.0
             - t2 * t2 * t2 / 362880.0)
        return A, B, C
    A = np.sin(theta) / theta
    B = (1.0 - np.cos(theta)) / (theta * theta)
    C = (theta - np.sin(theta)) / np.float_power(theta, 3)
    return A, B, C


def exp(xi):
    """Exponential map se(3) -> SE(3), returning a 4x4 transform matrix,
    or an (N, 4, 4) stack for an (N, 6) stack of motion vectors.

    Uses the closed-form Rodrigues formula with a series fallback for
    rotation magnitude below 1e-6.
    """
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (6,) and (xi.ndim != 2 or xi.shape[1] != 6):
        raise ValueError("motion vector must have 6 components")
    if not np.all(np.isfinite(xi)):
        raise ValueError("motion vector must be finite")
    v, w = xi[..., :3], xi[..., 3:]
    if xi.ndim == 1:
        A, B, C = _rodrigues_coefficients(np.linalg.norm(w))
    else:
        theta = row_norms(w)
        # the coefficients branch on the angle, so each branch gets its rows
        small = theta < SMALL_ANGLE
        A, B, C = np.empty((3, len(xi)))
        A[small], B[small], C[small] = _rodrigues_coefficients(theta[small])
        A[~small], B[~small], C[~small] = _rodrigues_coefficients(theta[~small])
        A, B, C = A[:, None, None], B[:, None, None], C[:, None, None]
    K = hat(w)
    K2 = K @ K
    T = np.zeros(xi.shape[:-1] + (4, 4))
    T[..., :3, :3] = np.eye(3) + A * K + B * K2
    V = np.eye(3) + B * K + C * K2
    T[..., :3, 3:] = V @ v[..., None]
    T[..., 3, 3] = 1.0
    return T


def row_norms(x):
    """Euclidean norms of the rows of an (N, k) array. Each row goes through
    the same BLAS dot product as np.linalg.norm of that row alone, so the
    result equals the per-row norms bit for bit."""
    return np.sqrt((x[:, None, :] @ x[:, :, None])[:, 0, 0])


def log(T):
    """Logarithm map SE(3) -> se(3).

    Raises ValueError when the rotation angle is at or beyond
    pi - 1e-6 (branch ambiguity).
    """
    T = np.asarray(T, dtype=float)
    R = T[:3, :3]
    t = T[:3, 3]
    cos_theta = np.clip((np.trace(R) - 1.0) / 2.0, -1.0, 1.0)
    theta = np.arccos(cos_theta)
    if theta >= np.pi - LOG_ANGLE_MARGIN:
        raise ValueError("rotation angle too close to pi for log()")
    w_skew = (R - R.T) / 2.0
    vee = np.array([w_skew[2, 1], w_skew[0, 2], w_skew[1, 0]])
    if theta < SMALL_ANGLE:
        t2 = theta * theta
        # theta / sin(theta)
        scale = 1.0 + t2 / 6.0 + 7.0 * t2 * t2 / 360.0
        D = 1.0 / 12.0 + t2 / 720.0 + t2 * t2 / 30240.0
    else:
        scale = theta / np.sin(theta)
        A, B, _ = _rodrigues_coefficients(theta)
        D = (1.0 - A / (2.0 * B)) / (theta * theta)
    w = vee * scale
    K = hat(w)
    Vinv = np.eye(3) - 0.5 * K + D * (K @ K)
    v = Vinv @ t
    return np.concatenate([v, w])


def compose(A, B):
    """Matrix product of two transforms."""
    return np.asarray(A, dtype=float) @ np.asarray(B, dtype=float)


def inverse(T):
    """Inverse transform, exploiting the [R t; 0 1] block structure; an
    (N, 4, 4) stack gives the stack of inverses."""
    T = np.asarray(T, dtype=float)
    Rt = np.swapaxes(T[..., :3, :3], -1, -2)
    out = np.zeros_like(T)
    out[..., :3, :3] = Rt
    out[..., :3, 3:] = -Rt @ T[..., :3, 3:]
    out[..., 3, 3] = 1.0
    return out


def apply(T, p):
    """Act on an inverse-depth point (u, v, 1, q) and renormalise.

    Raises CheiralityError when the transformed point fails camera.divide's
    cheirality test: its third homogeneous component is not above
    camera.CHEIRALITY_EPS.
    """
    y = np.asarray(T, dtype=float) @ np.asarray(p, dtype=float)
    uv, front = divide(y[:3])
    if not front:
        raise CheiralityError("point maps behind or onto the camera plane")
    return np.concatenate([uv, y[2:] / y[2]])


def is_rigid(T, tol=1e-9):
    """Check the SE(3) invariants: orthonormal R, det 1, last row (0,0,0,1)."""
    T = np.asarray(T, dtype=float)
    R = T[:3, :3]
    if np.linalg.norm(R.T @ R - np.eye(3)) > tol:
        return False
    if abs(np.linalg.det(R) - 1.0) > tol:
        return False
    return bool(np.all(T[3] == np.array([0.0, 0.0, 0.0, 1.0])))
