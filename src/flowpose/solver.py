"""Confidence-weighted iteratively reweighted Gauss-Newton pose estimation
from a depth map and a dense flow field.

Conventions:
  * estimated flow F+ = (T x)_[u,v] - x_[u,v] on inverse-depth points
    x = (u, v, 1, q), residual r = F+ - F, all in normalised camera
    coordinates (flow rasters are pixel-valued and converted on entry);
  * per-pixel Jacobian of F+ w.r.t. the motion vector at the identity is

        [[ q, 0, -u q, -u v,   u^2+1, -v ],
         [ 0, q, -v q, -v^2-1, u v,    u ]];

    it depends only on the fixed points (u, v, q), yet it is not stored
    for the solve: each block pass builds it from the block's points into
    a buffer the pass reuses. Stored whole, as in the precomputed-Jacobian
    idea of the inverse compositional algorithm (Baker & Matthews, IJCV
    2004), it would take 96 bytes a pixel, nearly half of a QVGA solve's
    traced peak, to save one build in each of about 3 full-resolution
    steps;
  * diagonal robust weight per pixel:
        diag(C_x m^2 / (m^2 + r_x^2), C_y m^2 / (m^2 + r_y^2))
    with m the mean residual magnitude of the image, recomputed each
    iteration from the residuals at the current estimate;
  * a Gauss-Newton step solves (J^T W J) beta = -J^T W r. The residuals
    and m take one pass over all pixels; J^T W J, J^T W r and the weighted
    cost are then summed over blocks of _BLOCK pixels, so a block's
    Jacobians, weights and residuals stay in cache and no weighted copy of
    the Jacobians is made;
  * update: the loop stops when ||beta|| < CONVERGENCE_TOL and returns
    xi + beta, where b(xi) = J^T W r = 0. A plain step, xi <- xi + beta,
    contracts the error of a noisy frame by only about 0.4, because m moves
    with xi. So later steps are Newton steps on the loop's own fixed-point
    equation g(xi) = b(xi) = sum_c J0_c W_c(xi) r_c(xi), whose root does
    not move: xi <- xi - H^-1 b, with
        H = sum_c J0_c diag(psi'_c) Jr_c^T + outer(gm, dm),
    psi'_c = C_c m^2 (m^2 - r_c^2) / (m^2 + r_c^2)^2 the derivative of the
    M-estimator's weighted residual (Huber, 1967), gm its derivative by m,
    Jr the true dr/dxi at the warped points times the SE(3) left Jacobian
    of xi (Barfoot, 2017), and dm the derivative of m. H takes a second
    block pass, which costs about 1.5-2 plain steps at QVGA, so it is built
    only at a step whose ||beta|| is at least 1e-6 (_WARM_TOL); below that
    a step reuses the last H (a chord step), or is plain when there is none.
    The first step from the seed is plain, and so are the last step the
    budget allows, a step with m = 0 and a step whose H is singular or not
    finite. If the ||beta|| evaluated at a Newton point is larger than the
    one before it, the loop falls back to the plain point xi_k + beta_k and
    takes only plain steps from then on. Noisy QVGA frames converge in 3
    full-resolution steps with one full-resolution H;
  * warm start: a problem of at least 32768 valid pixels (QVGA and larger)
    first runs the same loop on every 8th valid pixel, copied into rows of
    their own, down to ||beta|| < 1e-6 within max_iterations steps (the
    coarse-to-fine idea of dense odometry, Steinbruecker et al., ICCV
    workshops 2011, as a subsample rather than a pyramid). Only a converged
    warm-up hands its xi to the full loop, which then runs from there with
    the whole budget, its first step a Newton step; an unconverged one, or
    one that raises for too few pixels or degenerate geometry, is dropped
    and the full loop starts from seed_xi with a plain step. The full
    loop's fixed point does not depend on its start, so only the last
    digits of the returned xi move. Warm-up steps are reported with update
    'coarse' and do not count as iterations, so a solve can take up to
    2 * max_iterations Gauss-Newton steps.
"""

from dataclasses import dataclass, field

import numpy as np

from . import infomat, se3
from .camera import check_same_size, divide, pixel_offsets
from .errors import (DegenerateGeometryError, InsufficientDataError,
                     RasterFormatError)

# Inverse depths outside this band destabilise the Jacobian and are masked.
Q_MIN = 1e-4
Q_MAX = 1e4

CONDITION_LIMIT = 1e12

# The loop converges when ||beta|| falls below CONVERGENCE_TOL; a step with
# fewer than MIN_VALID_PIXELS pixels in front of the camera raises
# InsufficientDataError. Neither is a setting: a looser value let a solve
# print a far-off pose as converged, with exit 0.
CONVERGENCE_TOL = 1e-9
MIN_VALID_PIXELS = 64

# Pixels per block of the normal-equation sums. A block's Jacobians (6, 2, B),
# weights and residuals take about 0.5 MB and stay in L2 cache; with blocks of
# 32768 a QVGA or VGA step took about 1.4 times as long.
_BLOCK = 4096

# The warm-up of a large solve: every _WARM_STRIDE-th valid pixel, down to
# ||beta|| < _WARM_TOL, for problems of at least _WARM_GATE valid pixels.
# Stride 16 at 1e-4 left frames with outliers slower, and 1e-9 wasted
# coarse steps on noisy frames. Below the gate (the 64x48 and 96x72
# scenes) a solve takes no warm-up. _WARM_TOL is also the ||beta|| below
# which a Newton step reuses the last Newton matrix rather than pay for a
# new one.
_WARM_STRIDE = 8
_WARM_TOL = 1e-6
_WARM_GATE = 32768


@dataclass
class FlowField:
    """Dense flow plus raw information parameters.

    flow: (H, W, 2) in pixel units; info: (H, W, 3) raw (a_hat, b_hat,
    g_hat); valid: (H, W) bool, True where all five channels are finite.
    NaN flow marks a pixel that holds no measurement.
    """
    flow: np.ndarray
    info: np.ndarray
    valid: np.ndarray = field(init=False)

    def __post_init__(self):
        self.flow = np.asarray(self.flow, dtype=float)
        self.info = np.asarray(self.info, dtype=float)
        size = self.flow.shape[:2]
        if self.flow.shape != size + (2,) or self.info.shape != size + (3,):
            raise ValueError("flow and info must be (H, W, 2) and (H, W, 3), "
                             f"got {self.flow.shape} and {self.info.shape}")
        # one elementwise pass per channel: np.all over the short channel
        # axis is several times slower
        self.valid = np.ones(size, dtype=bool)
        for raster in (self.flow, self.info):
            for c in range(raster.shape[-1]):
                self.valid &= np.isfinite(raster[..., c])

    @classmethod
    def from_raster(cls, data):
        """The flow field of a 5-channel or a 2-channel (zero info) raster."""
        data = np.atleast_3d(data)
        if data.shape[2] not in (2, 5):
            raise RasterFormatError(
                f"flow raster must have 2 or 5 channels, got {data.shape[2]}")
        info = (data[..., 2:] if data.shape[2] == 5
                else np.zeros(data.shape[:2] + (3,)))
        return cls(flow=data[..., :2], info=info)

    def raster(self):
        """The 5-channel flow raster: flow, then a_hat, b_hat, g_hat."""
        return np.concatenate([self.flow, self.info], axis=-1)


@dataclass
class SolverConfig:
    max_iterations: int = 20
    use_confidence: bool = True
    seed_xi: np.ndarray = field(default_factory=lambda: np.zeros(6))

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError(
                f"max_iterations must be >= 1, got {self.max_iterations}")
        self.seed_xi = np.asarray(self.seed_xi, dtype=float)


@dataclass
class ResidualReport:
    """Residual statistics of one gauss_newton_step, at the xi it was given,
    its step and conditioning, and the kind of update `solve` made from it."""
    m: float                    # mean residual magnitude over valid pixels
    weighted_cost: float        # sum of w * r^2 over valid pixels
    valid_count: int
    update: str = 'plain'       # 'plain', 'newton' or 'coarse', set by
                                # solve: 'newton' where xi <- xi - H^-1 b
                                # replaced xi + beta; a fall-back counts as
                                # 'plain', and every warm-up step as 'coarse'
    step_norm: float = None     # ||beta||, which solve tests for convergence
    eig_min: float = None       # extreme eigenvalues of the normal matrix A
    eig_max: float = None


@dataclass
class SolveResult:
    xi: np.ndarray
    converged: bool
    reports: list               # the ResidualReport of each
                                # gauss_newton_step call, in order: the
                                # warm-up's first, then the full loop's
    problem: 'Problem' = None   # what `prepare` built for the solve

    @property
    def iterations(self):
        """The full-resolution steps: warm-up steps do not count."""
        return sum(report.update != 'coarse' for report in self.reports)


@dataclass
class Problem:
    """The parts of a solve that do not depend on the motion estimate, over
    the N valid pixels in raster order."""
    shape: tuple                # (H, W) of the rasters
    index: np.ndarray           # (N,) flat raster index of each valid pixel
    points: np.ndarray          # (4, N) inverse-depth points, rows u, v, 1, q
    flow: np.ndarray            # (2, N) measured flow, normalised units
    conf: np.ndarray            # (2, N) confidences, rows C_x, C_y


# Overflow from extreme inputs (absurd focal lengths, huge flow times huge
# confidences) ends in A or b, which gauss_newton_step checks for finiteness.
_OVERFLOW_CHECKED = np.errstate(over='ignore', invalid='ignore')


@_OVERFLOW_CHECKED
def prepare(depth, flow_field, K, config):
    """Everything constant over a solve: the valid pixels, their points and
    measured flow, and their confidences (ones with use_confidence off)."""
    depth = np.asarray(depth, dtype=float)
    if depth.ndim != 2:
        raise RasterFormatError("depth raster must have a single channel")
    check_same_size(depth, flow_field.flow, ("depth", "flow"))
    h, w = depth.shape
    ox, oy = pixel_offsets(K, (h, w))

    with np.errstate(divide='ignore'):
        q = 1.0 / depth     # NaN, inf, 0 and < 0 depths: q outside the band
    index = np.flatnonzero(flow_field.valid & (q >= Q_MIN) & (q <= Q_MAX))
    # every gather goes straight into its row: a gather of (N, 2) flow rows
    # and its transposed copy took three times as long. The index is in
    # range, so mode='clip' changes no value; it only spares np.take the
    # buffered copy of `out` that its default mode makes.
    points = np.empty((4, len(index)))
    meas = np.empty((2, len(index)))
    pixels = flow_field.flow.reshape(-1, 2)
    for c, (o, f) in enumerate(((ox, K.fx), (oy, K.fy))):
        np.take(o.ravel(), index, out=points[c], mode='clip')
        points[c] /= f
        np.divide(pixels[:, c][index], f, out=meas[c])
    points[2] = 1.0
    np.take(q.ravel(), index, out=points[3], mode='clip')
    n = len(index)
    if config.use_confidence:
        # only the a_hat and g_hat channels, each gathered into its row; the
        # exponentials overwrite them
        info = flow_field.info.reshape(-1, 3)
        conf = np.empty((2, n))
        for row, c in enumerate((0, 2)):
            conf[row] = info[:, c][index]
        conf = infomat.confidences(conf, out=conf)
    else:
        conf = np.ones((2, n))
    return Problem(shape=(h, w), index=index, points=points, flow=meas,
                   conf=conf)


def _residuals(problem, xi):
    """Residuals r = F+ - F at exp(xi) over the pixels that stay in front of
    the camera.

    Returns (r (2, M), keep) where keep is None when all N pixels pass the
    cheirality test and an (N,) bool mask of the M passing ones otherwise.
    Raises InsufficientDataError when M is below MIN_VALID_PIXELS.
    """
    T = se3.exp(xi)
    # T acting on (u, v, 1, q): rows 0..2 give R (u,v,1)^T + t q
    r, keep = divide(T[:3] @ problem.points)
    r -= problem.points[:2]     # in place: no fresh (2, N) per iteration
    r -= problem.flow
    if keep.all():
        keep = None
    else:
        # row-major, as r is: r[:, keep] would be laid out column-major
        r = np.compress(keep, r, axis=1)
    count, required = r.shape[1], MIN_VALID_PIXELS
    if count < required:
        raise InsufficientDataError(
            f"{count} valid pixels < required {required}",
            valid_count=count, required=required)
    return r, keep


def compute_residuals(problem, xi):
    """Residual flow r = F+ - F at exp(xi), in normalised camera
    coordinates, as an (H, W, 2) raster that holds 0 at invalid pixels.

    F+ is the flow induced by exp(xi) on the prepared problem's points; F
    is the measured flow.
    """
    r, keep = _residuals(problem, xi)
    h, w = problem.shape
    residuals = np.zeros((h * w, 2))
    residuals[problem.index if keep is None else problem.index[keep]] = r.T
    return residuals.reshape(h, w, 2)


def jacobian_row(u, v, q):
    """2x6 Jacobian of the estimated flow w.r.t. the motion vector at the
    identity, for an inverse-depth point (u, v, 1, q)."""
    return _jacobians(*np.array([[u], [v], [q]], dtype=float))[:, :, 0].T


def _jacobian_buffer(n=_BLOCK):
    """A (6, 2, n) buffer for _jacobians, with its two zero rows set."""
    J = np.empty((6, 2, n))
    J[1, 0] = 0.0
    J[0, 1] = 0.0
    return J


def _jacobians(u, v, q, out=None):
    """Transposed Jacobians for (N,) arrays of u, v and q, as a (6, 2, N)
    array: entry [j, i, n] is the derivative of flow component i at point n
    w.r.t. motion component j.

    With `out`, a _jacobian_buffer of at least N columns, the ten nonzero
    rows are written into its first N columns, which are returned as a
    view; its zero rows are left as they are.
    """
    J = (_jacobian_buffer(len(u)) if out is None else out)[:, :, :len(u)]
    x, y = J[:, 0], J[:, 1]     # the x rows and the y rows
    # each row is computed in place, and -v and u v are reused: no (N,)
    # temporary, and the values of -u q, -u v, -v q and -v v - 1 bit for bit
    np.copyto(x[0], q)
    np.multiply(u, q, out=x[2])
    np.negative(x[2], out=x[2])
    np.multiply(u, v, out=y[4])
    np.negative(y[4], out=x[3])
    np.multiply(u, u, out=x[4])
    np.add(x[4], 1.0, out=x[4])
    np.negative(v, out=x[5])
    np.copyto(y[1], q)
    np.multiply(x[5], q, out=y[2])
    np.multiply(x[5], v, out=y[3])
    np.subtract(y[3], 1.0, out=y[3])
    np.copyto(y[5], u)
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
def gauss_newton_step(problem, xi):
    """One weighted Gauss-Newton update on a prepared problem.

    Returns (beta, report, terms): the caller applies xi <- xi + beta, or
    takes the Newton update that terms leads to.
    """
    r, keep = _residuals(problem, xi)
    m = float(np.sqrt(r[0] * r[0] + r[1] * r[1]).mean())
    conf, cols = problem.conf, None
    if keep is not None:
        cols = np.flatnonzero(keep)
        conf = conf[:, cols]
    wx, wy = build_weight(conf[0], conf[1], r[0], r[1], m)

    A = np.zeros((6, 6))
    b = np.zeros(6)
    cost = 0.0
    buffer = _jacobian_buffer()
    for start in range(0, r.shape[1], _BLOCK):
        blk = slice(start, start + _BLOCK)
        # a block gathers its own kept points: problem.points[:, cols]
        # would copy all of them
        points = problem.points[:, blk if cols is None else cols[blk]]
        JT = _jacobians(points[0], points[1], points[3], out=buffer)
        # one flow component at a time: J is a (6, B) view of JT
        for J, wc, rc in zip(JT.transpose(1, 0, 2),
                             (wx[blk], wy[blk]), r[:, blk]):
            wr = wc * rc
            A += (J * wc) @ J.T
            b += J @ wr
            cost += wr @ rc

    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
        raise DegenerateGeometryError("normal equations are not finite")
    eig_min, eig_max = (float(e) for e in np.linalg.eigvalsh(A)[[0, -1]])
    if eig_min <= 0 or eig_max / eig_min > CONDITION_LIMIT:
        raise DegenerateGeometryError(
            "normal equations singular or ill-conditioned",
            eig_min=eig_min, eig_max=eig_max, limit=CONDITION_LIMIT)
    beta = np.linalg.solve(A, -b)
    report = ResidualReport(m=m, weighted_cost=float(cost),
                            valid_count=r.shape[1],
                            step_norm=float(np.linalg.norm(beta)),
                            eig_min=eig_min, eig_max=eig_max)
    return beta, report, NewtonTerms(problem=problem, xi=xi, r=r, cols=cols,
                                     conf=conf, m=m, b=b)


@dataclass(eq=False)
class NewtonTerms:
    """What a Newton update needs from one gauss_newton_step: b, the value
    at xi of the loop's fixed-point function g(xi) = sum_c J0_c W_c r_c, and
    the step's own residuals, m and confidences, from which `matrix` builds
    H = dg/dxi."""
    problem: Problem
    xi: np.ndarray
    r: np.ndarray               # (2, M) residuals at the M kept pixels
    cols: np.ndarray            # (M,) their columns, or None for all N
    conf: np.ndarray            # (2, M) their confidences
    m: float
    b: np.ndarray

    # a tiny m, whose square underflows, divides by zero; the loop checks
    # H for finiteness
    @np.errstate(all='ignore')
    def matrix(self):
        """H = sum_c J0_c diag(psi'_c) Jr_c^T + outer(gm, dm), summed over
        the kept pixels in blocks of _BLOCK.

        psi_c = C_c m^2 r_c / (m^2 + r_c^2) is the weighted residual, so
        psi'_c = C_c m^2 (m^2 - r_c^2) / (m^2 + r_c^2)^2 and its derivative
        by m gives gm = sum_c J0_c 2 C_c m r_c^3 / (m^2 + r_c^2)^2. Jr is
        the true dr/dxi: _jacobians at the warped points T x times the left
        Jacobian of xi, which every block shares and so multiplies the sums
        once. dm = mean_n (r_x Jr_x + r_y Jr_y) / |r_n| is the derivative of
        m. Needs m > 0.
        """
        problem, r, cols, m = self.problem, self.r, self.cols, self.m
        T = se3.exp(self.xi)[:3]
        m2 = m * m
        H = np.zeros((6, 6))
        gm = np.zeros(6)
        dm = np.zeros(6)
        j0_buffer, jw_buffer = _jacobian_buffer(), _jacobian_buffer()
        for start in range(0, r.shape[1], _BLOCK):
            blk = slice(start, start + _BLOCK)
            points = problem.points[:, blk if cols is None else cols[blk]]
            J0 = _jacobians(points[0], points[1], points[3], out=j0_buffer)
            y = T @ points
            # the warped points (u', v', 1, q'), scaled to a third entry of 1
            Jw = _jacobians(*divide(y)[0], points[3] / y[2], out=jw_buffer)
            rb = r[:, blk]
            norm = np.sqrt(rb[0] * rb[0] + rb[1] * rb[1])
            inverse = np.divide(1.0, norm, out=np.zeros_like(norm),
                                where=norm > 0)
            for J, Jr, c, rc in zip(J0.transpose(1, 0, 2),
                                    Jw.transpose(1, 0, 2), self.conf[:, blk],
                                    rb):
                r2 = rc * rc
                scale = m2 + r2
                scale = c / (scale * scale)
                H += (J * (scale * m2 * (m2 - r2))) @ Jr.T
                gm += J @ (scale * (2.0 * m) * r2 * rc)
                dm += Jr @ (rc * inverse)
        Jl = se3.left_jacobian(self.xi)
        return H @ Jl + np.outer(gm, (dm / r.shape[1]) @ Jl)


def _subsample(problem, stride):
    """The problem over every stride-th of its valid pixels, with its own
    contiguous rows."""
    return Problem(shape=problem.shape, index=problem.index[::stride],
                   points=np.ascontiguousarray(problem.points[:, ::stride]),
                   flow=np.ascontiguousarray(problem.flow[:, ::stride]),
                   conf=np.ascontiguousarray(problem.conf[:, ::stride]))


def _newton_update(H, b):
    """-H^-1 b, or None where H is not finite or is singular."""
    if not np.all(np.isfinite(H)):
        return None
    try:
        step = np.linalg.solve(H, -b)
    except np.linalg.LinAlgError:
        return None
    return step if np.all(np.isfinite(step)) else None


def _iterate(problem, xi, config, tol, reports, newton):
    """The loop from xi until ||beta|| < tol or the iteration budget is
    spent; its first step is a Newton step only with `newton` set. Appends
    each step's report to reports and returns (xi, converged)."""
    converged = False
    first = 0 if newton else 1      # the first step that may be a Newton step
    H = None
    plain = None        # (point, ||beta||) of the plain step a Newton step
                        # replaced
    for k in range(config.max_iterations):
        beta, report, terms = gauss_newton_step(problem, xi)
        reports.append(report)
        norm = report.step_norm
        if norm < tol:
            converged = True
            xi = xi + beta
            break
        if plain is not None and norm > plain[1]:
            # the Newton step did worse: plain steps from the plain point on
            xi, plain, first = plain[0], None, config.max_iterations
            continue
        step, plain = beta, None
        if first <= k < config.max_iterations - 1 and report.m > 0:
            if norm >= _WARM_TOL:
                H = terms.matrix()
            newton_step = None if H is None else _newton_update(H, terms.b)
            if newton_step is None:
                H = None
            else:
                step, plain = newton_step, (xi + beta, norm)
                report.update = 'newton'
        del terms       # its residuals: the next step makes its own
        xi = xi + step
    return xi, converged


def solve(depth, flow_field, K, config=None):
    """Iterate gauss_newton_step until the update norm drops below
    CONVERGENCE_TOL or the iteration budget is exhausted.

    The valid pixels, their points and the confidences are built once, by
    `prepare`; residuals, m and the weights are recomputed every iteration
    (true IRLS), and the Jacobians block by block within each step. Steps
    after the first are Newton steps on the loop's fixed point, and a
    problem of at least _WARM_GATE valid pixels is first solved on every
    _WARM_STRIDE-th of them, as the module docstring says. The result keeps
    the prepared Problem, so a caller can pass it to compute_residuals
    without building the geometry again.
    """
    if config is None:
        config = SolverConfig()
    problem = prepare(depth, flow_field, K, config)
    xi = np.array(config.seed_xi, dtype=float)
    reports = []
    warm = False
    if len(problem.index) >= _WARM_GATE:
        # the subsample lives only for the call, so the full loop's
        # temporaries reuse its memory
        try:
            start, warm = _iterate(_subsample(problem, _WARM_STRIDE), xi,
                                   config, _WARM_TOL, reports, newton=False)
        except (InsufficientDataError, DegenerateGeometryError):
            warm = False
        for report in reports:
            report.update = 'coarse'
        if warm:
            xi = start
    xi, converged = _iterate(problem, xi, config, CONVERGENCE_TOL, reports,
                             newton=warm)
    return SolveResult(xi=xi, converged=converged, reports=reports,
                       problem=problem)
