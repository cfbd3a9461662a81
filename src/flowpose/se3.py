"""SE(3) / se(3) machinery.

Motion vectors are 6-vectors ordered (v_x, v_y, v_z, w_x, w_y, w_z):
translation first, then rotation about x, y, z. This ordering matches the
column order of the pose Jacobian used by the solver.

Transforms act on inverse-depth homogeneous points (u, v, 1, q) where
(u, v) are normalised camera coordinates and q is inverse depth.
"""

import numpy as np

from .errors import CheiralityError

# Rotation angles at or beyond pi - LOG_ANGLE_MARGIN are rejected by log();
# the branch of the logarithm is ambiguous there.
LOG_ANGLE_MARGIN = 1e-6

# Below this angle the Rodrigues coefficients switch to Taylor series.
SMALL_ANGLE = 1e-6

# A point is in front of the camera when its depth exceeds this.
CHEIRALITY_EPS = 1e-12


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
    """3-vector -> 3x3 skew-symmetric matrix."""
    wx, wy, wz = w
    return np.array([[0.0, -wz, wy],
                     [wz, 0.0, -wx],
                     [-wy, wx, 0.0]])


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
    if xi.ndim == 2:
        return _exp_stack(xi)
    v = xi[:3]
    w = xi[3:]
    theta = np.linalg.norm(w)
    K = hat(w)
    K2 = K @ K
    A, B, C = _rodrigues_coefficients(theta)
    R = np.eye(3) + A * K + B * K2
    V = np.eye(3) + B * K + C * K2
    T = np.eye(4)
    T[:3, :3] = R
    T[:3, 3] = V @ v
    return T


def row_norms(x):
    """Euclidean norms of the rows of an (N, k) array. Each row goes through
    the same BLAS dot product as np.linalg.norm of that row alone, so the
    result equals the per-row norms bit for bit."""
    return np.sqrt((x[:, None, :] @ x[:, :, None])[:, 0, 0])


def _exp_stack(xi):
    """exp over an (N, 6) stack, with the scalar path's formulas per row."""
    n = len(xi)
    v = xi[:, :3]
    w = xi[:, 3:]
    theta = row_norms(w)
    K = np.zeros((n, 3, 3))
    K[:, 0, 1], K[:, 0, 2], K[:, 1, 2] = -w[:, 2], w[:, 1], -w[:, 0]
    K[:, 1, 0], K[:, 2, 0], K[:, 2, 1] = w[:, 2], -w[:, 1], w[:, 0]
    K2 = K @ K
    # the coefficients branch on the angle, so each branch gets its rows
    small = theta < SMALL_ANGLE
    A, B, C = np.empty((3, n))
    A[small], B[small], C[small] = _rodrigues_coefficients(theta[small])
    A[~small], B[~small], C[~small] = _rodrigues_coefficients(theta[~small])
    A, B, C = A[:, None, None], B[:, None, None], C[:, None, None]
    T = np.zeros((n, 4, 4))
    T[:, :3, :3] = np.eye(3) + A * K + B * K2
    V = np.eye(3) + B * K + C * K2
    T[:, :3, 3] = (V @ v[:, :, None])[:, :, 0]
    T[:, 3, 3] = 1.0
    return T


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
    if T.ndim == 3:
        Rt = np.swapaxes(T[:, :3, :3], 1, 2)
        out = np.zeros_like(T)
        out[:, :3, :3] = Rt
        out[:, :3, 3] = (-Rt @ T[:, :3, 3, None])[:, :, 0]
        out[:, 3, 3] = 1.0
        return out
    R = T[:3, :3]
    t = T[:3, 3]
    out = np.eye(4)
    out[:3, :3] = R.T
    out[:3, 3] = -R.T @ t
    return out


def apply(T, p):
    """Act on an inverse-depth point (u, v, 1, q) and renormalise.

    Raises CheiralityError when the transformed point lands behind or on
    the camera plane (third homogeneous component <= CHEIRALITY_EPS).
    """
    p = np.asarray(p, dtype=float)
    y = np.asarray(T, dtype=float) @ p
    if y[2] <= CHEIRALITY_EPS:
        raise CheiralityError("point maps behind or onto the camera plane")
    return y / y[2]


def is_rigid(T, tol=1e-9):
    """Check the SE(3) invariants: orthonormal R, det 1, last row (0,0,0,1)."""
    T = np.asarray(T, dtype=float)
    R = T[:3, :3]
    if np.linalg.norm(R.T @ R - np.eye(3)) > tol:
        return False
    if abs(np.linalg.det(R) - 1.0) > tol:
        return False
    return bool(np.all(T[3] == np.array([0.0, 0.0, 0.0, 1.0])))
