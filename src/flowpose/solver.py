"""Confidence-weighted iteratively reweighted Gauss-Newton pose estimation
from a depth map and a dense flow field.

Conventions:
  * estimated flow F+ = (T x)_[u,v] - x_[u,v] on inverse-depth points
    x = (u, v, 1, q), residual r = F+ - F, all in normalised camera
    coordinates (flow rasters are pixel-valued and converted on entry);
  * per-pixel Jacobian of F+ w.r.t. the motion vector at the identity is

        [[ q, 0, -u q, -u v,   u^2+1, -v ],
         [ 0, q, -v q, -v^2-1, u v,    u ]];

    it depends only on the fixed points (u, v, q), so `prepare` builds it
    once per solve, together with the valid pixels, the measured flow and
    the confidences (the precomputed-Jacobian idea of the inverse
    compositional algorithm, Baker & Matthews, IJCV 2004);
  * diagonal robust weight per pixel:
        diag(C_x m^2 / (m^2 + r_x^2), C_y m^2 / (m^2 + r_y^2))
    with m the mean residual magnitude of the image, recomputed each
    iteration from the residuals at the current estimate;
  * update solves (J^T W J) beta = -J^T W r and applies xi <- xi + beta.
"""

from dataclasses import dataclass, field

import numpy as np

from . import infomat, se3
from .camera import (check_same_size, depth_valid_mask, divide,
                     flow_pixels_to_normalised, pixel_offsets)
from .errors import DegenerateGeometryError, InsufficientDataError

# Inverse depths outside this band destabilise the Jacobian and are masked.
Q_MIN = 1e-4
Q_MAX = 1e4

CONDITION_LIMIT = 1e12


@dataclass
class FlowField:
    """Dense flow plus raw information parameters.

    flow: (H, W, 2) in pixel units; info: (H, W, 3) raw (a_hat, b_hat,
    g_hat); valid: (H, W) bool.
    """
    flow: np.ndarray
    info: np.ndarray
    valid: np.ndarray = None

    def __post_init__(self):
        self.flow = np.asarray(self.flow, dtype=float)
        self.info = np.asarray(self.info, dtype=float)
        if self.flow.shape[:2] != self.info.shape[:2]:
            raise ValueError("flow and info shapes differ")
        finite = np.all(np.isfinite(self.flow), axis=-1) \
            & np.all(np.isfinite(self.info), axis=-1)
        if self.valid is None:
            self.valid = finite
        else:
            self.valid = np.asarray(self.valid, dtype=bool) & finite


@dataclass
class SolverConfig:
    max_iterations: int = 20
    convergence_tol: float = 1e-9
    min_valid_pixels: int = 64
    use_confidence: bool = True
    single_iteration: bool = False
    damping: float = 0.0
    seed_xi: np.ndarray = field(default_factory=lambda: np.zeros(6))

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.convergence_tol <= 0:
            raise ValueError("convergence_tol must be positive")
        self.seed_xi = np.asarray(self.seed_xi, dtype=float)


@dataclass
class ResidualReport:
    residuals: np.ndarray       # (H, W, 2), normalised units; 0 where invalid.
                                # None from gauss_newton_step, which does not
                                # scatter them back into the raster
    m: float                    # mean residual magnitude over valid pixels
    weighted_cost: float
    valid_count: int


@dataclass
class SolveResult:
    xi: np.ndarray
    iterations: int
    converged: bool
    final_cost: float
    per_iteration_costs: list


@dataclass
class Problem:
    """The parts of a solve that do not depend on the motion estimate, over
    the N valid pixels in raster order."""
    shape: tuple                # (H, W) of the rasters
    index: np.ndarray           # (N,) flat raster index of each valid pixel
    points: np.ndarray          # (4, N) inverse-depth points, rows u, v, 1, q
    flow: np.ndarray            # (2, N) measured flow, normalised units
    conf: np.ndarray = None     # (2, N) confidences, rows C_x, C_y
    JT: np.ndarray = None       # (6, 2N) transposed Jacobians: the columns
                                # hold all x rows, then all y rows


def _geometry(depth, flow_field, K):
    """The valid pixels' points and measured flow; checks that depth, flow
    and intrinsics describe the same raster size."""
    depth = np.asarray(depth, dtype=float)
    check_same_size(depth, flow_field.flow, ("depth", "flow"))
    h, w = depth.shape
    ox, oy = pixel_offsets(K, (h, w))

    mask = depth_valid_mask(depth) & flow_field.valid
    q = np.zeros_like(depth)
    np.divide(1.0, depth, out=q, where=mask)
    mask &= (q >= Q_MIN) & (q <= Q_MAX)
    index = np.flatnonzero(mask)
    points = np.empty((4, len(index)))
    points[0] = ox.ravel()[index] / K.fx
    points[1] = oy.ravel()[index] / K.fy
    points[2] = 1.0
    points[3] = q.ravel()[index]
    meas = flow_pixels_to_normalised(flow_field.flow.reshape(-1, 2)[index], K)
    return Problem(shape=(h, w), index=index, points=points, flow=meas.T.copy())


# Overflow from extreme inputs (absurd focal lengths, huge flow times huge
# confidences) ends in A or b, which gauss_newton_step checks for finiteness.
_OVERFLOW_CHECKED = np.errstate(over='ignore', invalid='ignore')


@_OVERFLOW_CHECKED
def prepare(depth, flow_field, K, config):
    """Everything constant over a solve: the valid pixels, their points and
    measured flow, their confidences (ones with use_confidence off) and the
    Jacobians at the identity."""
    problem = _geometry(depth, flow_field, K)
    n = len(problem.index)
    if config.use_confidence:
        info = flow_field.info.reshape(-1, 3)[problem.index]
        problem.conf = np.stack(infomat.confidences(info))
    else:
        problem.conf = np.ones((2, n))
    u, v, _, q = problem.points
    problem.JT = _jacobians(u, v, q).reshape(6, 2 * n)
    return problem


def _residuals(problem, xi):
    """Residuals r = F+ - F at exp(xi) over the pixels that stay in front of
    the camera.

    Returns (r (2, M), keep) where keep is None when all N pixels pass the
    cheirality test and an (N,) bool mask of the M passing ones otherwise.
    """
    T = se3.exp(xi)
    # T acting on (u, v, 1, q): rows 0..2 give R (u,v,1)^T + t q
    r, keep = divide(T[:3] @ problem.points)
    r -= problem.points[:2]     # in place: no fresh (2, N) per iteration
    r -= problem.flow
    if keep.all():
        return r, None
    return r[:, keep], keep


def _residual_report(r, min_valid_pixels):
    """m and the unweighted cost of (2, M) residuals; raises when M is below
    min_valid_pixels."""
    valid_count = r.shape[1]
    if valid_count < min_valid_pixels:
        raise InsufficientDataError(
            f"{valid_count} valid pixels < required {min_valid_pixels}")
    squares = r[0] * r[0] + r[1] * r[1]
    m = float(np.sqrt(squares).mean()) if valid_count else 0.0
    return ResidualReport(residuals=None, m=m,
                          weighted_cost=float(squares.sum()),
                          valid_count=valid_count)


def compute_residuals(depth, flow_field, xi, K, min_valid_pixels=64):
    """Residual flow r = F+ - F in normalised camera coordinates.

    F+ is the flow induced by exp(xi) on the inverse-depth points of the
    depth map; F is the measured flow converted from pixel units.
    """
    problem = _geometry(depth, flow_field, K)
    r, keep = _residuals(problem, xi)
    report = _residual_report(r, min_valid_pixels)
    h, w = problem.shape
    residuals = np.zeros((h * w, 2))
    residuals[problem.index if keep is None else problem.index[keep]] = r.T
    report.residuals = residuals.reshape(h, w, 2)
    return report


def jacobian_row(u, v, q):
    """2x6 Jacobian of the estimated flow w.r.t. the motion vector at the
    identity, for an inverse-depth point (u, v, 1, q)."""
    return _jacobians(*np.array([[u], [v], [q]], dtype=float))[:, :, 0].T


def _jacobians(u, v, q):
    """Transposed Jacobians for (N,) arrays of u, v and q, as a (6, 2, N)
    array: entry [j, i, n] is the derivative of flow component i at point n
    w.r.t. motion component j."""
    J = np.zeros((6, 2, len(u)))
    J[0, 0] = q
    J[2, 0] = -u * q
    J[3, 0] = -u * v
    J[4, 0] = u * u + 1.0
    J[5, 0] = -v
    J[1, 1] = q
    J[2, 1] = -v * q
    J[3, 1] = -v * v - 1.0
    J[4, 1] = u * v
    J[5, 1] = u
    return J


def build_weight(c_x, c_y, rx, ry, m):
    """Diagonal entries of the per-pixel robust weight matrix.

    When m = 0 (all residuals exactly zero) the weights collapse to the
    confidences.
    """
    c_x = np.asarray(c_x, dtype=float)
    c_y = np.asarray(c_y, dtype=float)
    rx = np.asarray(rx, dtype=float)
    ry = np.asarray(ry, dtype=float)
    if m == 0.0:
        wx, _ = np.broadcast_arrays(c_x, rx)
        wy, _ = np.broadcast_arrays(c_y, ry)
        return wx.copy(), wy.copy()
    m2 = m * m
    return c_x * m2 / (m2 + rx * rx), c_y * m2 / (m2 + ry * ry)


@_OVERFLOW_CHECKED
def gauss_newton_step(problem, xi, config):
    """One weighted Gauss-Newton update on a prepared problem.

    Returns (beta, report); the caller applies xi <- xi + beta.
    """
    r, keep = _residuals(problem, xi)
    report = _residual_report(r, config.min_valid_pixels)
    JT, conf = problem.JT, problem.conf
    if keep is not None:
        JT = JT.reshape(6, 2, -1)[:, :, keep].reshape(6, -1)
        conf = conf[:, keep]
    wx, wy = build_weight(conf[0], conf[1], r[0], r[1], report.m)
    w = np.concatenate([wx, wy])            # (2M,), the columns of JT
    r = r.reshape(-1)

    JwT = JT * w
    A = JwT @ JT.T
    b = JwT @ r
    if config.damping > 0:
        A = A + config.damping * np.eye(6)

    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
        raise DegenerateGeometryError("normal equations are not finite")
    eigs = np.linalg.eigvalsh(A)
    if eigs[0] <= 0 or eigs[-1] / eigs[0] > CONDITION_LIMIT:
        raise DegenerateGeometryError(
            "normal equations singular or ill-conditioned")
    beta = np.linalg.solve(A, -b)

    report.weighted_cost = float(np.sum(w * r * r))
    return beta, report


def solve(depth, flow_field, K, config=None):
    """Iterate gauss_newton_step until the update norm drops below the
    convergence tolerance or the iteration budget is exhausted.

    The Jacobians, the valid pixels and the confidences are built once, by
    `prepare`; residuals, m and the weights are recomputed every iteration
    (true IRLS). With single_iteration set, stops after one step.
    """
    if config is None:
        config = SolverConfig()
    problem = prepare(depth, flow_field, K, config)
    xi = np.array(config.seed_xi, dtype=float)
    costs = []
    converged = False
    iterations = 0
    final_cost = float('nan')
    max_iter = 1 if config.single_iteration else config.max_iterations
    for _ in range(max_iter):
        beta, report = gauss_newton_step(problem, xi, config)
        xi = xi + beta
        iterations += 1
        costs.append(report.weighted_cost)
        final_cost = report.weighted_cost
        if np.linalg.norm(beta) < config.convergence_tol:
            converged = True
            break
    return SolveResult(xi=xi, iterations=iterations, converged=converged,
                       final_cost=final_cost, per_iteration_costs=costs)
