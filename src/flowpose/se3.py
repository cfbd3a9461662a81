"""SE(3) / se(3) machinery.

Motion vectors are 6-vectors ordered (v_x, v_y, v_z, w_x, w_y, w_z):
translation first, then rotation about x, y, z. This ordering matches the
column order of the pose Jacobian used by the solver.

Transforms act on inverse-depth homogeneous points (u, v, 1, q) where
(u, v) are normalised camera coordinates and q is inverse depth.
"""

import math

import numpy as np

from .camera import divide
from .errors import CheiralityError

# Rotation angles at or beyond pi - LOG_ANGLE_MARGIN are rejected by log();
# the branch of the logarithm is ambiguous there.
LOG_ANGLE_MARGIN = 1e-6

# Below this angle log() takes theta / sin(theta) and the coefficient of
# K^2 in V^-1 from their Taylor series.
SMALL_ANGLE = 1e-6

# Below this angle _coefficients takes C = (t - sin(t)) / t^3 from its
# series: the direct form loses digits to cancellation below about 1, and
# nine terms of the series are exact to rounding up to it.
_SERIES_ANGLE = 1.0

# Rotation angles above this are rejected by exp(): the cube of the angle in
# the Rodrigues coefficients overflows beyond cbrt(float max) ~ 5.6e102.
MAX_ANGLE = 1e100
_ANGLE_ERROR = f"motion vector's rotation angle exceeds {MAX_ANGLE:g}"


def _nonfinite_error(values):
    """The ValueError of a motion vector with a non-finite component."""
    return ValueError("motion vector must be finite, got ("
                      + ", ".join(f"{v:g}" for v in values) + ")")


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


def _coefficients(t, sin=np.sin):
    """A = sin(t) / t, B = (1 - cos(t)) / t^2 and C = (t - sin(t)) / t^3 of
    rotation angles t >= 0: a Python float with sin=math.sin, or an array.

    B = (sin(t/2) / (t/2))^2 / 2 neither cancels nor underflows. C takes
    its Taylor series below _SERIES_ANGLE and the direct form above it.
    Each is within 1e-15 of its true value (tests/test_se3.py), and a
    float gets the bits of the same angle in an array: the operations are
    the same, and math.sin rounds as np.sin does.
    """
    # t + 1e-300 is t above 1e-284, and below that the coefficients are at
    # their limits (1, 1/2, 1/6); it keeps t = 0 and t/2 off 0 / 0
    t = t + 1e-300
    h = 0.5 * t
    s = sin(h) / h
    sin_t = sin(t)
    t2 = t * t
    small = t < _SERIES_ANGLE
    # each form gets angles where it is finite: the series 0 above the
    # switch, the direct form's divisor t^3 + 1 below it; the 0/1 masks
    # then pick one, exactly
    x = t2 * small
    series = 1 / 6 - x * (1 / 120 - x * (1 / 5040 - x * (1 / 362880 - x * (
        1 / 39916800 - x * (1 / 6227020800 - x * (1 / 1307674368000 - x * (
            1 / 355687428096000 - x / 121645100408832000)))))))
    direct = (t - sin_t) / (t2 * t + small)
    return (sin_t / t, 0.5 * s * s,
            small * series + (t >= _SERIES_ANGLE) * direct)


def _identity_plus(a, b, k, q):
    """The rows of numpy's (I + a K) + b Q as lists, entry by entry in
    numpy's order, from K's off-diagonal entries k = (k01, k02, k10, k12,
    k20, k21) and Q's rows. On the diagonal 1 + a * 0 is 1; elsewhere the
    identity's 0 + turns a -0.0 product into +0.0."""
    k01, k02, k10, k12, k20, k21 = k
    (q00, q01, q02), (q10, q11, q12), (q20, q21, q22) = q
    return [
        [1.0 + b * q00, (0.0 + a * k01) + b * q01, (0.0 + a * k02) + b * q02],
        [(0.0 + a * k10) + b * q10, 1.0 + b * q11, (0.0 + a * k12) + b * q12],
        [(0.0 + a * k20) + b * q20, (0.0 + a * k21) + b * q21, 1.0 + b * q22]]


def _exp_twist(xi):
    """exp of one (6,) motion vector; see exp."""
    values = xi.tolist()
    if not all(map(math.isfinite, values)):
        raise _nonfinite_error(values)
    _, _, _, w0, w1, w2 = values
    if not (abs(w0) <= MAX_ANGLE and abs(w1) <= MAX_ANGLE
            and abs(w2) <= MAX_ANGLE):
        raise ValueError(_ANGLE_ERROR)
    theta = float(np.linalg.norm(xi[3:]))
    if theta > MAX_ANGLE:
        raise ValueError(_ANGLE_ERROR)
    A, B, C = _coefficients(theta, math.sin)
    k = (-w2, w1, w2, -w0, -w1, w0)     # K's off-diagonal entries, as hat's
    k01, k02, k10, k12, k20, k21 = k
    K = np.array([[0.0, k01, k02], [k10, 0.0, k12], [k20, k21, 0.0]])
    K2 = (K @ K).tolist()
    V = np.array(_identity_plus(B, C, k, K2))
    (t0,), (t1,), (t2,) = (V @ xi[:3, None]).tolist()
    r0, r1, r2 = _identity_plus(A, B, k, K2)
    return np.array([[*r0, t0], [*r1, t1], [*r2, t2], [0.0, 0.0, 0.0, 1.0]])


def exp(xi):
    """Exponential map se(3) -> SE(3), returning a 4x4 transform matrix,
    or an (N, 4, 4) stack for an (N, 6) stack of motion vectors.

    Uses the closed-form Rodrigues formula, with coefficients that keep
    their digits at every angle (_coefficients). Raises ValueError for a
    non-finite component or a rotation angle above MAX_ANGLE.

    A (6,) motion vector takes a body of Python floats: 12 us a call
    against 20 us for the same formulas on 3x3 arrays (x86-64, numpy
    2.4.6). It computes every entry in numpy's order, and hands numpy only
    the three calls whose rounding depends on the BLAS kernel:
    np.linalg.norm of the rotation (which copies a strided view before its
    dot product), K @ K and V @ v. So its bytes are those of the array
    formulas, signed zeros included, under any BLAS kernel.
    """
    xi = np.asarray(xi, dtype=float)
    if xi.shape == (6,):
        return _exp_twist(xi)
    if xi.ndim != 2 or xi.shape[1] != 6:
        raise ValueError("motion vector must have 6 components")
    if not (np.abs(xi) <= _COMPONENT_BOUNDS).all():
        finite = np.isfinite(xi).all(axis=1)
        if not finite.all():
            # the first row with a non-finite component
            raise _nonfinite_error(xi[np.argmin(finite)].tolist())
        raise ValueError(_ANGLE_ERROR)
    v, w = xi[:, :3], xi[:, 3:]
    theta = row_norms(w)
    if np.count_nonzero(theta > MAX_ANGLE):
        raise ValueError(_ANGLE_ERROR)
    A, B, C = (c[:, None, None] for c in _coefficients(theta))
    K = hat(w)
    K2 = K @ K
    T = np.zeros((len(xi), 4, 4))
    T[:, :3, :3] = np.eye(3) + A * K + B * K2
    V = np.eye(3) + B * K + C * K2
    T[:, :3, 3:] = V @ v[:, :, None]
    T[:, 3, 3] = 1.0
    return T


def row_norms(x):
    """Euclidean norms of the rows of an (N, k) array. Each row goes through
    the same BLAS dot product as np.linalg.norm of that row alone, so the
    result equals the per-row norms bit for bit."""
    return np.sqrt((x[:, None, :] @ x[:, :, None])[:, 0, 0])


def log(T):
    """Logarithm map SE(3) -> se(3).

    The angle is atan2(sin, cos) of the rotation, which keeps its digits
    near pi, where arccos of the trace would not. The axis a comes from the
    skew part of R, sin(theta) a, while cos(theta) >= 0. Beyond that it
    comes from the symmetric part, (R + R^T) / 2 - cos(theta) I =
    (1 - cos(theta)) a a^T: near pi the skew part's entries shrink with
    sin(theta) but keep the rounding of R's O(1) entries. Raises ValueError
    when the angle is at or beyond pi - 1e-6 (branch ambiguity).
    """
    T = np.asarray(T, dtype=float)
    R = T[:3, :3]
    t = T[:3, 3]
    w_skew = (R - R.T) / 2.0
    vee = np.array([w_skew[2, 1], w_skew[0, 2], w_skew[1, 0]])
    sin_theta = float(np.linalg.norm(vee))
    cos_theta = (np.trace(R) - 1.0) / 2.0
    theta = math.atan2(sin_theta, cos_theta)
    if theta >= np.pi - LOG_ANGLE_MARGIN:
        raise ValueError("rotation angle too close to pi for log()")
    if theta < SMALL_ANGLE:
        t2 = theta * theta
        # theta / sin(theta)
        w = vee * (1.0 + t2 / 6.0 + 7.0 * t2 * t2 / 360.0)
        D = 1.0 / 12.0 + t2 / 720.0 + t2 * t2 / 30240.0
    else:
        if cos_theta >= 0.0:
            w = vee * (theta / sin_theta)
        else:
            S = (R + R.T) / 2.0 - cos_theta * np.eye(3)
            # the row of the largest diagonal entry, (1 - cos) a_k a
            k = int(np.argmax(np.diag(S)))
            axis = S[k] / math.sqrt(S[k, k] * (1.0 - cos_theta))
            w = axis * (theta if axis @ vee >= 0.0 else -theta)
        A, B, _ = _coefficients(theta, math.sin)
        D = (1.0 - A / (2.0 * B)) / (theta * theta)
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
