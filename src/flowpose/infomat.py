"""2x2 information-matrix parametrisation and the Gaussian flow NLL.

Raw parameters (a_hat, b_hat, g_hat) map to the symmetric matrix

    [[c_x, c_xy], [c_xy, c_y]]
    c_x = exp(a_hat), c_y = exp(g_hat),
    c_xy = exp((a_hat + g_hat) / 2) * tanh(b_hat),

which is positive-definite for every finite input since |tanh| < 1.

All functions broadcast: scalars or stacked arrays of parameters/residuals
work alike.
"""

import numpy as np

from .errors import DegenerateGeometryError, InsufficientDataError

# exp() of a raw information parameter above this overflows to inf.
LOG_FLOAT_MAX = float(np.log(np.finfo(float).max))


def _check_finite(*arrays):
    for a in arrays:
        if not np.all(np.isfinite(a)):
            raise ValueError("information parameters and residuals must be finite")


def _check_exponents(a_hat, g_hat):
    """Raise DegenerateGeometryError where exp(a_hat) or exp(g_hat) overflows."""
    worst = max(np.max(a_hat, initial=-np.inf), np.max(g_hat, initial=-np.inf))
    if worst > LOG_FLOAT_MAX:
        raise DegenerateGeometryError(
            f"confidence exp({worst:.6g}) overflows: a_hat and g_hat must "
            f"stay below log(finfo(float).max) = {LOG_FLOAT_MAX:.6g}",
            worst=float(worst), limit=LOG_FLOAT_MAX)


def build(a_hat, b_hat, g_hat):
    """Return (c_x, c_y, c_xy) of the information matrix."""
    a_hat = np.asarray(a_hat, dtype=float)
    b_hat = np.asarray(b_hat, dtype=float)
    g_hat = np.asarray(g_hat, dtype=float)
    _check_finite(a_hat, b_hat, g_hat)
    _check_exponents(a_hat, g_hat)
    c_x = np.exp(a_hat)
    c_y = np.exp(g_hat)
    c_xy = np.exp((a_hat + g_hat) / 2.0) * np.tanh(b_hat)
    return c_x, c_y, c_xy


def log_det(a_hat, b_hat, g_hat):
    """log det of the information matrix.

    The correlation factor contributes log(1 - tanh^2(b_hat)), evaluated
    as 2 * (log 2 - |b_hat| - log1p(exp(-2 |b_hat|))) so the result stays
    finite even when tanh(b_hat) rounds to +-1.
    """
    a_hat = np.asarray(a_hat, dtype=float)
    b_hat = np.asarray(b_hat, dtype=float)
    g_hat = np.asarray(g_hat, dtype=float)
    ab = np.abs(b_hat)
    return a_hat + g_hat + 2.0 * (np.log(2.0) - ab - np.log1p(np.exp(-2.0 * ab)))


def flow_nll(rx, ry, a_hat, b_hat, g_hat):
    """Per-sample negative log-likelihood 0.5 * (r^T I r - log det I)."""
    rx = np.asarray(rx, dtype=float)
    ry = np.asarray(ry, dtype=float)
    _check_finite(rx, ry)
    c_x, c_y, c_xy = build(a_hat, b_hat, g_hat)
    quad = c_x * rx * rx + 2.0 * c_xy * rx * ry + c_y * ry * ry
    return 0.5 * (quad - log_det(a_hat, b_hat, g_hat))


def flow_nll_map(residuals, info, valid=None):
    """Mean NLL over the valid pixels of a residual map; pixels outside
    valid are not evaluated, so they may hold non-finite values.

    residuals: (..., 2); info: (..., 3) raw parameters.
    """
    residuals = np.asarray(residuals, dtype=float)
    info = np.asarray(info, dtype=float)
    if valid is not None:
        if not np.any(valid):
            raise InsufficientDataError("no valid pixels")
        residuals, info = residuals[valid], info[valid]
    nll = flow_nll(residuals[..., 0], residuals[..., 1],
                   info[..., 0], info[..., 1], info[..., 2])
    return float(np.mean(nll))


def nll_gradients(rx, ry, a_hat, b_hat, g_hat):
    """Analytic gradient of flow_nll.

    Returns (dL/drx, dL/dry, dL/da_hat, dL/db_hat, dL/dg_hat), broadcast
    over the inputs.
    """
    rx = np.asarray(rx, dtype=float)
    ry = np.asarray(ry, dtype=float)
    _check_finite(rx, ry)
    c_x, c_y, c_xy = build(a_hat, b_hat, g_hat)
    th = np.tanh(np.asarray(b_hat, dtype=float))
    sech2 = 1.0 - th * th
    s = np.exp((np.asarray(a_hat, dtype=float) + np.asarray(g_hat, dtype=float)) / 2.0)
    d_rx = c_x * rx + c_xy * ry
    d_ry = c_y * ry + c_xy * rx
    # d c_xy / d a_hat = c_xy / 2 (same for g_hat); d logdet / d a_hat = 1
    d_a = 0.5 * (c_x * rx * rx + c_xy * rx * ry - 1.0)
    d_g = 0.5 * (c_y * ry * ry + c_xy * rx * ry - 1.0)
    # d c_xy / d b_hat = s * sech^2; d logdet / d b_hat = -2 tanh
    d_b = rx * ry * s * sech2 + th
    return d_rx, d_ry, d_a, d_b, d_g


def confidences(exponents, out=None):
    """Diagonal confidences (C_x, C_y) = (exp(a_hat), exp(g_hat)).

    exponents: (2, ...) raw (a_hat, g_hat) stacked on the first axis; the
    result has the same shape and goes to `out` when it is given, which may
    be `exponents` itself. The off-diagonal term is used only by the NLL
    loss, not by the solver's diagonal weights. Raises
    DegenerateGeometryError when a confidence would overflow.
    """
    exponents = np.asarray(exponents, dtype=float)
    _check_exponents(exponents[0], exponents[1])
    return np.exp(exponents, out=out)
