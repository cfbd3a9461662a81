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

# Rotation angles above this are rejected by exp(): the cube of the angle in
# the Rodrigues coefficients overflows beyond cbrt(float max) ~ 5.6e102.
MAX_ANGLE = 1e100
_ANGLE_ERROR = f"motion vector's rotation angle exceeds {MAX_ANGLE:g}"

# exp()'s bounds on the magnitude of each motion component: finite for the
# translation, MAX_ANGLE for the rotation, whose square then cannot
# overflow the angle
_COMPONENT_BOUNDS = np.array([np.finfo(float).max] * 3 + [MAX_ANGLE] * 3)


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
    rotation magnitude below 1e-6. Raises ValueError for a non-finite
    component or a rotation angle above MAX_ANGLE.
    """
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (6,) and (xi.ndim != 2 or xi.shape[1] != 6):
        raise ValueError("motion vector must have 6 components")
    if not (np.abs(xi) <= _COMPONENT_BOUNDS).all():
        if not np.isfinite(xi).all():
            raise ValueError("motion vector must be finite")
        raise ValueError(_ANGLE_ERROR)
    v, w = xi[..., :3], xi[..., 3:]
    theta = np.linalg.norm(w) if xi.ndim == 1 else row_norms(w)
    if np.count_nonzero(theta > MAX_ANGLE):
        raise ValueError(_ANGLE_ERROR)
    if xi.ndim == 1:
        A, B, C = _rodrigues_coefficients(theta)
    else:
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


def left_jacobian(xi):
    """The 6x6 left Jacobian J of a motion vector: exp(xi + d) equals
    exp(J d) exp(xi) to first order in d.

    J is the series sum_n ad(xi)^n / (n + 1)!, which the minimal polynomial
    of ad(xi) closes to a quartic in ad(xi) (Barfoot, State Estimation for
    Robotics, 2017). Its coefficients cancel badly at small rotation
    angles, so below 0.1 they are Taylor series; either way J is within
    about 2e-14 of the series, per unit of translation.
    """
    xi = np.asarray(xi, dtype=float)
    ad = np.zeros((6, 6))
    ad[:3, :3] = ad[3:, 3:] = hat(xi[3:])
    ad[:3, 3:] = hat(xi[:3])
    t = np.linalg.norm(xi[3:])
    if t < 0.1:
        t2 = t * t
        t4 = t2 * t2
        t6 = t4 * t2
        coefficients = (0.5 - t4 / 720.0 + t6 / 20160.0,
                        1.0 / 6.0 - t4 / 5040.0 + t6 / 181440.0,
                        1.0 / 24.0 - t2 / 360.0 + t4 / 13440.0
                        - t6 / 907200.0,
                        1.0 / 120.0 - t2 / 2520.0 + t4 / 120960.0
                        - t6 / 9979200.0)
    else:
        s, c = np.sin(t), np.cos(t)
        coefficients = ((4.0 - t * s - 4.0 * c) / (2.0 * t ** 2),
                        (4.0 * t - 5.0 * s + t * c) / (2.0 * t ** 3),
                        (2.0 - t * s - 2.0 * c) / (2.0 * t ** 4),
                        (2.0 * t - 3.0 * s + t * c) / (2.0 * t ** 5))
    J = np.eye(6)
    power = np.eye(6)
    for coefficient in coefficients:
        power = power @ ad
        J += coefficient * power
    return J


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
