"""Trajectory chaining, TUM-format I/O, timestamp association, scaled
alignment and ATE/RPE scoring.

Trajectories are ordered lists of (timestamp, 4x4 world-from-camera pose)
with strictly increasing timestamps.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import se3
from .errors import (DegenerateGeometryError, InsufficientDataError,
                     RasterFormatError)
from .rasters import read_text


@dataclass
class Trajectory:
    timestamps: np.ndarray      # (N,)
    poses: np.ndarray           # (N, 4, 4)

    def __post_init__(self):
        self.timestamps = np.asarray(self.timestamps, dtype=float)
        self.poses = np.asarray(self.poses, dtype=float)
        if len(self.timestamps) != len(self.poses):
            raise ValueError("timestamp/pose count mismatch: "
                             f"{len(self.timestamps)} timestamps, "
                             f"{len(self.poses)} poses")
        if not np.all(np.isfinite(self.timestamps)):
            i = int(np.argmin(np.isfinite(self.timestamps)))
            raise ValueError(f"timestamps must be finite: sample {i} is "
                             f"{self.timestamps[i].item()!r}")
        # compared, not subtracted: the difference of huge timestamps
        # would overflow
        out_of_order = self.timestamps[1:] <= self.timestamps[:-1]
        if out_of_order.any():
            i = int(np.argmax(out_of_order))
            before, after = self.timestamps[i:i + 2].tolist()
            raise ValueError(
                f"timestamps must be strictly increasing: sample {i + 1} at "
                f"{after!r} does not follow sample {i} at {before!r}")

    def __len__(self):
        return len(self.timestamps)

    def positions(self):
        return self.poses[:, :3, 3]


@dataclass
class AlignmentResult:
    rotation: np.ndarray
    translation: np.ndarray
    scale: float
    per_pose_scales: np.ndarray
    low_rank: bool


@dataclass
class EvalReport:
    ate_rmse: float
    rpe_trans: float
    rpe_rot_deg: float
    per_pose_scales: np.ndarray
    matched_count: int


def chain(relatives):
    """Chain frame-to-frame motion vectors into a world-frame trajectory.

    relatives: ordered list of (timestamp, xi) where xi maps the previous
    frame's points into the current frame. Pose_k = Pose_{k-1} *
    inverse(exp(xi_k)) starting from the identity.
    """
    timestamps = np.array([float(ts) for ts, _ in relatives])
    xis = np.array([xi for _, xi in relatives], dtype=float)
    steps = se3.inverse(se3.exp(xis.reshape(len(relatives), 6)))
    poses = np.empty_like(steps)
    current = np.eye(4)
    for row, step in zip(poses, steps):
        current = np.dot(current, step, out=row)
    return Trajectory(timestamps, poses)


def _indices(pairs):
    """(estimate indices, ground-truth indices) of a sequence of pairs or
    of a (K, 2) integer array, which is not copied."""
    idx = np.asarray(pairs, dtype=int).reshape(-1, 2)
    return idx[:, 0], idx[:, 1]


def _finite(name, values):
    """values, unless one of them is inf or nan: then a
    DegenerateGeometryError whose message names the quantity."""
    if not np.all(np.isfinite(values)):
        raise DegenerateGeometryError(
            f"{name} is not finite: the trajectory's numbers overflow")
    return values


class _Pairs(list):
    """A list of (est_index, gt_index) tuples that also holds them as the
    (K, 2) integer array `indices`."""

    __slots__ = ('indices',)


def associate(est, gt, max_dt=0.02):
    """Greedy nearest-timestamp matching, each sample used at most once.

    Candidates are the pairs with abs(te - tg) <= max_dt, taken in (dt,
    est index, gt index) order. They come from a window around each
    estimate timestamp, so the cost grows with the number of candidates,
    not with the product of the trajectory lengths. The greedy loop takes
    every candidate that comes first in that order for both of its
    samples: no earlier candidate can have used either. So one array pass
    takes all of those, and the loop runs only over the candidates whose
    two samples they leave free, which it meets in the same order with
    the same samples free; on 30 Hz estimates against 100 Hz ground truth
    that is a handful in thousands.

    Returns a list of (est_index, gt_index) pairs sorted by time, with the
    same pairs as a (K, 2) array in its `indices`. Raises an
    InsufficientDataError carrying matched_count and max_dt when fewer than
    2 matches are found.
    """
    if not (max_dt > 0):
        raise ValueError(f"max_dt must be positive, got {max_dt:g}")
    te, tg = est.timestamps, gt.timestamps
    # The window is wider than max_dt by 1e-9 of it plus 4 ulps of the
    # largest timestamp, more than the rounding of its bounds and of
    # abs(te - tg), so it holds every candidate; the exact test decides.
    scale = max(np.abs(te).max(initial=0.0), np.abs(tg).max(initial=0.0))
    pad = max_dt + 1e-9 * max_dt + scale * 2.0 ** -50
    with np.errstate(over='ignore'):    # far-apart samples are no candidates
        lo = np.searchsorted(tg, te - pad, side='left')
        hi = np.searchsorted(tg, te + pad, side='right')
        counts = hi - lo
        i = np.repeat(np.arange(len(te)), counts)
        j = np.arange(len(i)) + np.repeat(lo - np.cumsum(counts) + counts,
                                          counts)
        dt = np.abs(te[i] - tg[j])
    keep = dt <= max_dt
    i, j, dt = i[keep], j[keep], dt[keep]
    order = np.lexsort((j, i, dt))
    i, j = i[order], j[order]
    # each sample's first candidate in that order, by rank
    rank = np.arange(len(i))
    first_e = np.full(len(te), len(i))
    first_g = np.full(len(tg), len(i))
    np.minimum.at(first_e, i, rank)
    np.minimum.at(first_g, j, rank)
    first = (first_e[i] == rank) & (first_g[j] == rank)
    match = np.full(len(te), -1)    # each estimate's gt index, or -1
    match[i[first]] = j[first]
    # the candidates neither of whose samples a first-for-both pair took
    rest = ~(first[first_e[i]] | first[first_g[j]])
    used_e, used_g = bytearray(len(te)), bytearray(len(tg))
    for a, b in zip(i[rest].tolist(), j[rest].tolist()):
        if used_e[a] or used_g[b]:
            continue
        used_e[a] = used_g[b] = 1
        match[a] = b
    ie = np.flatnonzero(match >= 0)     # estimate timestamps increase
    if len(ie) < 2:
        raise InsufficientDataError(
            f"fewer than 2 associated samples: {len(ie)} within max_dt "
            f"{max_dt:g} s", matched_count=len(ie), max_dt=max_dt)
    ig = match[ie]
    pairs = _Pairs(zip(ie.tolist(), ig.tolist()))
    pairs.indices = np.column_stack((ie, ig))
    return pairs


def _per_pose_scales(est, gt, pairs):
    """Ground-truth over estimated step-length ratios for adjacent matched
    pairs; steps shorter than 1e-9 m in the estimate are skipped."""
    ie, ig = _indices(pairs)
    with np.errstate(over='ignore', invalid='ignore'):  # checked below
        de = se3.row_norms(np.diff(est.positions()[ie], axis=0))
        dg = se3.row_norms(np.diff(gt.positions()[ig], axis=0))
    # an overflowing step length would turn its ratio into 0 or inf
    _finite("per-pose scale", [de, dg])
    moving = ~(de < 1e-9)
    return dg[moving] / de[moving]


def align_and_scale(est, gt, pairs):
    """Closed-form rigid alignment plus a single global scale.

    Rotation from the orthogonal-Procrustes solution on centred matched
    positions, scale from the least-squares ratio, translation matching
    the centroids. Returns (aligned estimate, AlignmentResult).
    """
    ie, ig = _indices(pairs)
    if len(ie) < 2:
        raise InsufficientDataError(
            f"need at least 2 pairs to align, got {len(ie)}",
            pair_count=len(ie))
    pe = est.positions()[ie]
    pg = gt.positions()[ig]
    with np.errstate(over='ignore', invalid='ignore'):  # checked below
        mu_e = pe.mean(axis=0)
        mu_g = pg.mean(axis=0)
        ce = pe - mu_e
        cg = pg - mu_g
        H = ce.T @ cg
    # the SVD would fail to converge on the inf or nan left by overflow
    if not np.all(np.isfinite(H)):
        raise DegenerateGeometryError(
            "matched positions overflow the alignment's centroids or "
            "cross-covariance")
    U, S, Vt = np.linalg.svd(H)
    if np.array_equal(pe, pg):
        # identical matched positions align exactly: with R = I the scale
        # is 1, the translation 0 and the aligned poses the estimate's
        R = np.eye(3)
    else:
        D = np.eye(3)
        if np.linalg.det(Vt.T @ U.T) < 0:
            D[2, 2] = -1.0
        R = Vt.T @ D @ U.T
    low_rank = S[1] <= 1e-12 * max(S[0], 1e-300)

    aligned_poses = est.poses.copy()
    with np.errstate(over='ignore', invalid='ignore'):  # checked below
        denom = np.sum(ce * ce)
        scale = float(np.sum(cg * (ce @ R.T)) / denom) if denom > 0 else 1.0
        t = mu_g - scale * R @ mu_e
        aligned_poses[:, :3, 3] = scale * est.poses[:, :3, 3] @ R.T + t
    # an overflowing denominator would turn the scale into 0
    _finite("alignment scale", [denom, scale])
    aligned_poses[:, :3, :3] = R @ est.poses[:, :3, :3]
    aligned = Trajectory(est.timestamps.copy(), aligned_poses)
    result = AlignmentResult(rotation=R, translation=t, scale=scale,
                             per_pose_scales=_per_pose_scales(est, gt, pairs),
                             low_rank=bool(low_rank))
    return aligned, result


def ate(aligned_est, gt, pairs):
    """RMSE of matched position differences (metres)."""
    ie, ig = _indices(pairs)
    with np.errstate(over='ignore', invalid='ignore'):  # checked below
        err = np.linalg.norm(aligned_est.positions()[ie]
                             - gt.positions()[ig], axis=1)
        return _finite("ATE", float(np.sqrt(np.mean(err ** 2))))


def rpe(est, gt, pairs, delta=1):
    """Relative pose error at a fixed matched-index step.

    Returns (translational RMSE in metres, rotational RMSE in degrees).
    """
    if delta < 1:
        raise ValueError(f"delta must be >= 1, got {delta}")
    ie, ig = _indices(pairs)
    if len(ie) <= delta:
        raise InsufficientDataError(
            f"not enough pairs for delta {delta}: {len(ie)} pairs, need "
            f"at least {delta + 1}", pair_count=len(ie), delta=delta)
    with np.errstate(over='ignore', invalid='ignore'):  # checked below
        rel_gt = se3.inverse(gt.poses[ig[:-delta]]) @ gt.poses[ig[delta:]]
        rel_est = se3.inverse(est.poses[ie[:-delta]]) @ est.poses[ie[delta:]]
        E = se3.inverse(rel_gt) @ rel_est
        terr = se3.row_norms(E[:, :3, 3])
        c = np.clip((np.trace(E[:, :3, :3], axis1=1, axis2=2) - 1.0) / 2.0,
                    -1.0, 1.0)
        rerr = np.degrees(np.arccos(c))
        # identical relative motions score exactly zero
        same = np.all(rel_gt == rel_est, axis=(1, 2))
        terr[same] = 0.0
        rerr[same] = 0.0
        errors = (float(np.sqrt(np.mean(terr ** 2))),
                  float(np.sqrt(np.mean(rerr ** 2))))
    return _finite("RPE", errors)


def evaluate(est, gt, max_dt=0.02, rpe_delta=1):
    """Full evaluation: associate, align with scale, score ATE and RPE.

    Raises DegenerateGeometryError when no estimated step is long enough
    to give a per-pose scale.
    """
    # associate's pairs as one (K, 2) index array for every stage
    pairs = associate(est, gt, max_dt).indices
    aligned, alignment = align_and_scale(est, gt, pairs)
    rpe_t, rpe_r = rpe(est, gt, pairs, rpe_delta)
    if len(alignment.per_pose_scales) == 0:
        raise DegenerateGeometryError(
            "per-pose scale is undefined: no estimated step is 1e-9 m or "
            "longer")
    return EvalReport(ate_rmse=ate(aligned, gt, pairs),
                      rpe_trans=rpe_t, rpe_rot_deg=rpe_r,
                      per_pose_scales=alignment.per_pose_scales,
                      matched_count=len(pairs))


# --- TUM trajectory text format -------------------------------------------

def quaternion_from_rotation(R):
    """Rotation matrix -> quaternion (qx, qy, qz, qw), qw >= 0; an
    (N, 3, 3) stack gives (N, 4).

    Each matrix takes the branch its trace and diagonal select, and the
    same arithmetic, as it would alone: the stack gives the quaternions of
    its matrices bit for bit.
    """
    R = np.asarray(R, dtype=float)
    stack = R.reshape(-1, 3, 3)
    d0, d1, d2 = stack[:, 0, 0], stack[:, 1, 1], stack[:, 2, 2]
    tr = d0 + d1 + d2
    w_big = tr > 0
    x_big = ~w_big & (d0 > d1) & (d0 > d2)
    y_big = ~w_big & ~x_big & (d1 > d2)
    z_big = ~(w_big | x_big | y_big)
    q = np.empty((len(stack), 4))

    M = stack[w_big]
    s = np.sqrt(tr[w_big] + 1.0) * 2.0
    q[w_big, 3] = 0.25 * s
    q[w_big, 0] = (M[:, 2, 1] - M[:, 1, 2]) / s
    q[w_big, 1] = (M[:, 0, 2] - M[:, 2, 0]) / s
    q[w_big, 2] = (M[:, 1, 0] - M[:, 0, 1]) / s

    # axis k has the largest diagonal entry; i < j are the other two and
    # c, d the two after k in cyclic order
    for k, rows in enumerate((x_big, y_big, z_big)):
        i, j = [a for a in range(3) if a != k]
        c, d = (k + 1) % 3, (k + 2) % 3
        M = stack[rows]
        s = np.sqrt(1.0 + M[:, k, k] - M[:, i, i] - M[:, j, j]) * 2.0
        q[rows, 3] = (M[:, d, c] - M[:, c, d]) / s
        q[rows, k] = 0.25 * s
        for a in (i, j):
            q[rows, a] = (M[:, a, k] + M[:, k, a]) / s

    q /= se3.row_norms(q)[:, None]
    flip = q[:, 3] < 0
    q[flip] = -q[flip]
    return q.reshape(R.shape[:-2] + (4,))


def rotation_from_quaternion(qx, qy, qz, qw):
    """Rotation matrix of a quaternion of any nonzero length; arrays of N
    components give an (N, 3, 3) stack.

    Each quaternion is first scaled by the power of two that brings its
    largest component into [0.5, 1). That scaling is exact, so unit
    quaternions keep every bit of the matrix, and huge or tiny components
    neither overflow nor vanish when squared.
    """
    qx, qy, qz, qw = (np.asarray(c, dtype=float)
                      for c in np.broadcast_arrays(qx, qy, qz, qw))
    _, e = np.frexp(np.maximum(np.maximum(np.abs(qx), np.abs(qy)),
                               np.maximum(np.abs(qz), np.abs(qw))))
    qx, qy, qz, qw = (np.ldexp(c, -e) for c in (qx, qy, qz, qw))
    xx, yy, zz = qx * qx, qy * qy, qz * qz
    n = xx + yy + zz + qw * qw
    if np.any(n == 0):
        raise RasterFormatError("zero quaternion in trajectory file")
    s = 2.0 / n
    xy, xz, yz = qx * qy, qx * qz, qy * qz
    xw, yw, zw = qx * qw, qy * qw, qz * qw
    R = np.empty(n.shape + (3, 3))
    R[..., 0, 0] = 1 - s * (yy + zz)
    R[..., 0, 1] = s * (xy - zw)
    R[..., 0, 2] = s * (xz + yw)
    R[..., 1, 0] = s * (xy + zw)
    R[..., 1, 1] = 1 - s * (xx + zz)
    R[..., 1, 2] = s * (yz - xw)
    R[..., 2, 0] = s * (xz - yw)
    R[..., 2, 1] = s * (yz + xw)
    R[..., 2, 2] = 1 - s * (xx + yy)
    return R


_TUM_FIELDS = ('timestamp', 'tx', 'ty', 'tz', 'qx', 'qy', 'qz', 'qw')


def _tum_values(lines):
    """The fields of a well-formed TUM file from one np.loadtxt call: an
    (N, 8) array of finite floats with N > 0, or None for any other file.

    The samples are the lines the line loop parses. A line whose first
    field starts with '#' is a comment, as `lstrip` and `split` strip the
    same whitespace; loadtxt skips blank lines itself. loadtxt and float()
    round alike, but loadtxt rejects some fields float() reads (`1_0`,
    non-ASCII digits), so whatever it rejects or warns about is left to
    _tum_lines, which names the fault.
    """
    # the `in` test only saves the lstrip of lines without '#'
    samples = [line for line in lines
               if '#' not in line or not line.lstrip().startswith('#')]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter('error')
            values = np.loadtxt(samples, comments=None, ndmin=2)
    except (ValueError, Warning):   # the line loop decides
        return None
    if values.shape[1] == 8 and len(values) and np.all(np.isfinite(values)):
        return values
    return None


def _tum_lines(path, lines):
    """The (N, 8) fields of a TUM file parsed line by line with float();
    a RasterFormatError names the first malformed line."""
    rows = []
    for lineno, line in enumerate(lines, 1):
        parts = line.split()
        if not parts or parts[0].startswith('#'):
            continue
        if len(parts) != 8:
            raise RasterFormatError(
                f"{path}:{lineno}: expected 8 fields, got {len(parts)}")
        try:
            row = [float(p) for p in parts]
        except ValueError as exc:
            raise RasterFormatError(f"{path}:{lineno}: {exc}") from exc
        for name, value, text in zip(_TUM_FIELDS, row, parts):
            if not math.isfinite(value):
                raise RasterFormatError(
                    f"{path}:{lineno}: {name} {text} is not finite")
        rows.append(row)
    if not rows:
        raise RasterFormatError(f"{path}: no trajectory samples")
    return np.array(rows)


def read_tum(path):
    """Read a TUM-format trajectory: `timestamp tx ty tz qx qy qz qw` per
    line, '#' comments ignored. A file that is not UTF-8 text, or whose
    samples Trajectory rejects, is a RasterFormatError naming the file; a
    malformed line is one naming the first such line."""
    lines = read_text(path).split('\n')
    values = _tum_values(lines)
    if values is None:
        values = _tum_lines(path, lines)
    poses = np.zeros((len(values), 4, 4))
    poses[:, :3, :3] = rotation_from_quaternion(*values[:, 4:].T)
    poses[:, :3, 3] = values[:, 1:4]
    poses[:, 3, 3] = 1.0
    try:
        return Trajectory(values[:, 0], poses)
    except ValueError as exc:
        raise RasterFormatError(f"{path}: {exc}") from exc


def write_tum(traj, path):
    """Write a trajectory in TUM format with 6-decimal timestamps."""
    poses = traj.poses.reshape(-1, 4, 4)
    rows = np.column_stack([traj.timestamps, poses[:, :3, 3],
                            quaternion_from_rotation(poses[:, :3, :3])])
    with open(path, 'w') as fh:
        fh.write("# timestamp tx ty tz qx qy qz qw\n")
        fh.writelines("%.6f %.9f %.9f %.9f %.9f %.9f %.9f %.9f\n" % tuple(row)
                      for row in rows.tolist())
