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
    bad = sum(np.size(a) - np.count_nonzero(np.isfinite(a)) for a in arrays)
    if bad:
        raise ValueError("information parameters and residuals must be "
                         f"finite: {bad} of {sum(map(np.size, arrays))} "
                         "values are not")


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


def _overflow_error(name, terms, rx, ry, a_hat, b_hat, g_hat):
    """The DegenerateGeometryError of per-pixel terms that overflow, naming
    the first term that is not finite, else the largest, and its pixel's
    residual and raw parameters; the inputs broadcast to the terms' shape."""
    i = np.argmax(np.where(np.isfinite(terms), terms, np.inf))
    rx, ry, a, b, g = (np.broadcast_to(x, terms.shape).flat[i]
                       for x in (rx, ry, a_hat, b_hat, g_hat))
    term = terms.flat[i]
    return DegenerateGeometryError(
        f"{name} of {terms.size} pixel{'s' * (terms.size != 1)} overflows: "
        f"term {term:.6g} at residual ({rx:.6g}, {ry:.6g}) with a_hat "
        f"{a:.6g}, b_hat {b:.6g}, g_hat {g:.6g}", worst=float(term))


def flow_nll(rx, ry, a_hat, b_hat, g_hat):
    """Per-sample negative log-likelihood 0.5 * (r^T I r - log det I).
    Raises DegenerateGeometryError where a sample's value overflows."""
    rx = np.asarray(rx, dtype=float)
    ry = np.asarray(ry, dtype=float)
    _check_finite(rx, ry)
    c_x, c_y, c_xy = build(a_hat, b_hat, g_hat)
    # a huge residual times a large confidence overflows a term, or their sum
    with np.errstate(over='ignore', invalid='ignore'):
        quad = c_x * rx * rx + 2.0 * c_xy * rx * ry + c_y * ry * ry
        nll = 0.5 * (quad - log_det(a_hat, b_hat, g_hat))
    if not np.isfinite(nll).all():
        raise _overflow_error("flow NLL", nll, rx, ry, a_hat, b_hat, g_hat)
    return nll


def flow_nll_map(residuals, info, valid=None):
    """Mean NLL over the valid pixels of a residual map; pixels outside
    valid are not evaluated, so they may hold non-finite values.

    residuals: (..., 2); info: (..., 3) raw parameters.
    """
    residuals = np.asarray(residuals, dtype=float)
    info = np.asarray(info, dtype=float)
    if valid is not None:
        if not np.any(valid):
            size = "x".join(map(str, np.shape(valid)[::-1]))
            raise InsufficientDataError(f"no valid pixels in the {size} mask")
        residuals, info = residuals[valid], info[valid]
    samples = (residuals[..., 0], residuals[..., 1],
               info[..., 0], info[..., 1], info[..., 2])
    nll = flow_nll(*samples)
    if not nll.size:
        raise InsufficientDataError(f"no pixels: residuals {residuals.shape}")
    with np.errstate(over='ignore'):    # the sum of huge finite terms
        value = float(np.mean(nll))
    if not np.isfinite(value):
        raise _overflow_error("flow NLL", nll, *samples)
    return value


def nll_gradients(rx, ry, a_hat, b_hat, g_hat):
    """Analytic gradient of flow_nll.

    Returns (dL/drx, dL/dry, dL/da_hat, dL/db_hat, dL/dg_hat), broadcast
    over the inputs. Raises DegenerateGeometryError where one overflows.
    """
    rx = np.asarray(rx, dtype=float)
    ry = np.asarray(ry, dtype=float)
    _check_finite(rx, ry)
    c_x, c_y, c_xy = build(a_hat, b_hat, g_hat)
    th = np.tanh(np.asarray(b_hat, dtype=float))
    sech2 = 1.0 - th * th
    s = np.exp((np.asarray(a_hat, dtype=float) + np.asarray(g_hat, dtype=float)) / 2.0)
    with np.errstate(over='ignore', invalid='ignore'):  # checked below
        d_rx = c_x * rx + c_xy * ry
        d_ry = c_y * ry + c_xy * rx
        # d c_xy / d a_hat = c_xy / 2 (same for g_hat); d logdet / d a_hat = 1
        d_a = 0.5 * (c_x * rx * rx + c_xy * rx * ry - 1.0)
        d_g = 0.5 * (c_y * ry * ry + c_xy * rx * ry - 1.0)
        # d c_xy / d b_hat = s * sech^2; d logdet / d b_hat = -2 tanh
        d_b = rx * ry * s * sech2 + th
    gradients = d_rx, d_ry, d_a, d_b, d_g
    for name, d in zip(("rx", "ry", "a_hat", "b_hat", "g_hat"), gradients):
        if not np.isfinite(d).all():
            raise _overflow_error(f"flow NLL gradient dL/d{name}", d,
                                  rx, ry, a_hat, b_hat, g_hat)
    return gradients


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
