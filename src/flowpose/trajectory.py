"""Trajectory chaining, TUM-format I/O, timestamp association, scaled
alignment and ATE/RPE scoring.

Trajectories are ordered lists of (timestamp, 4x4 world-from-camera pose)
with strictly increasing timestamps.
"""

import math
from dataclasses import dataclass, field

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
            raise ValueError("timestamp/pose count mismatch")
        if not np.all(np.isfinite(self.timestamps)):
            raise ValueError("timestamps must be finite")
        if len(self.timestamps) > 1 and np.any(np.diff(self.timestamps) <= 0):
            raise ValueError("timestamps must be strictly increasing")

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
    timestamps = []
    poses = []
    current = np.eye(4)
    for ts, xi in relatives:
        current = current @ se3.inverse(se3.exp(xi))
        timestamps.append(float(ts))
        poses.append(current)
    return Trajectory(np.array(timestamps), np.array(poses))


def associate(est, gt, max_dt=0.02):
    """Greedy nearest-timestamp matching, each sample used at most once.

    Returns a list of (est_index, gt_index) pairs sorted by time. Raises
    when fewer than 2 matches are found.
    """
    if max_dt <= 0:
        raise ValueError("max_dt must be positive")
    candidates = []
    for i, te in enumerate(est.timestamps):
        for j, tg in enumerate(gt.timestamps):
            dt = abs(te - tg)
            if dt <= max_dt:
                candidates.append((dt, i, j))
    candidates.sort()
    used_e, used_g = set(), set()
    pairs = []
    for _, i, j in candidates:
        if i in used_e or j in used_g:
            continue
        used_e.add(i)
        used_g.add(j)
        pairs.append((i, j))
    pairs.sort(key=lambda p: est.timestamps[p[0]])
    if len(pairs) < 2:
        raise InsufficientDataError("fewer than 2 associated samples")
    return pairs


def _per_pose_scales(est, gt, pairs):
    """Ground-truth over estimated step-length ratios for adjacent matched
    pairs; steps shorter than 1e-9 m in the estimate are skipped."""
    pe = est.positions()
    pg = gt.positions()
    scales = []
    for (i0, j0), (i1, j1) in zip(pairs[:-1], pairs[1:]):
        de = np.linalg.norm(pe[i1] - pe[i0])
        dg = np.linalg.norm(pg[j1] - pg[j0])
        if de < 1e-9:
            continue
        scales.append(dg / de)
    return np.array(scales)


def align_and_scale(est, gt, pairs):
    """Closed-form rigid alignment plus a single global scale.

    Rotation from the orthogonal-Procrustes solution on centred matched
    positions, scale from the least-squares ratio, translation matching
    the centroids. Returns (aligned estimate, AlignmentResult).
    """
    pairs = list(pairs)
    if len(pairs) < 2:
        raise InsufficientDataError("need at least 2 pairs to align")
    pe = est.positions()[[i for i, _ in pairs]]
    pg = gt.positions()[[j for _, j in pairs]]
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
    if np.array_equal(pe, pg):
        # identical inputs align exactly; skipping the SVD keeps the
        # aligned estimate bitwise equal to the ground truth
        sv = np.linalg.svd(cg, compute_uv=False)
        low_rank = sv[1] <= 1e-12 * max(sv[0], 1e-300)
        result = AlignmentResult(rotation=np.eye(3), translation=np.zeros(3),
                                 scale=1.0,
                                 per_pose_scales=_per_pose_scales(est, gt, pairs),
                                 low_rank=bool(low_rank))
        aligned = Trajectory(est.timestamps.copy(), est.poses.copy())
        return aligned, result

    U, S, Vt = np.linalg.svd(H)
    D = np.eye(3)
    if np.linalg.det(Vt.T @ U.T) < 0:
        D[2, 2] = -1.0
    R = Vt.T @ D @ U.T
    low_rank = S[1] <= 1e-12 * max(S[0], 1e-300)

    denom = float(np.sum(ce * ce))
    scale = float(np.sum(cg * (ce @ R.T)) / denom) if denom > 0 else 1.0
    t = mu_g - scale * R @ mu_e

    aligned_poses = est.poses.copy()
    aligned_poses[:, :3, :3] = R @ est.poses[:, :3, :3]
    aligned_poses[:, :3, 3] = scale * est.poses[:, :3, 3] @ R.T + t
    aligned = Trajectory(est.timestamps.copy(), aligned_poses)
    result = AlignmentResult(rotation=R, translation=t, scale=scale,
                             per_pose_scales=_per_pose_scales(est, gt, pairs),
                             low_rank=bool(low_rank))
    return aligned, result


def ate(aligned_est, gt, pairs):
    """RMSE of matched position differences (metres)."""
    pe = aligned_est.positions()[[i for i, _ in pairs]]
    pg = gt.positions()[[j for _, j in pairs]]
    err = np.linalg.norm(pe - pg, axis=1)
    return float(np.sqrt(np.mean(err ** 2)))


def _rotation_angle_deg(R):
    c = np.clip((np.trace(R) - 1.0) / 2.0, -1.0, 1.0)
    return float(np.degrees(np.arccos(c)))


def rpe(est, gt, pairs, delta=1):
    """Relative pose error at a fixed matched-index step.

    Returns (translational RMSE in metres, rotational RMSE in degrees).
    """
    if delta < 1:
        raise ValueError("delta must be >= 1")
    pairs = list(pairs)
    if len(pairs) <= delta:
        raise InsufficientDataError("not enough pairs for the chosen delta")
    terrs = []
    rerrs = []
    for (i0, j0), (i1, j1) in zip(pairs[:-delta], pairs[delta:]):
        rel_gt = se3.inverse(gt.poses[j0]) @ gt.poses[j1]
        rel_est = se3.inverse(est.poses[i0]) @ est.poses[i1]
        if np.array_equal(rel_gt, rel_est):
            # identical relative motions score exactly zero
            terrs.append(0.0)
            rerrs.append(0.0)
            continue
        E = se3.inverse(rel_gt) @ rel_est
        terrs.append(np.linalg.norm(E[:3, 3]))
        rerrs.append(_rotation_angle_deg(E[:3, :3]))
    return (float(np.sqrt(np.mean(np.array(terrs) ** 2))),
            float(np.sqrt(np.mean(np.array(rerrs) ** 2))))


def evaluate(est, gt, max_dt=0.02, rpe_delta=1):
    """Full evaluation: associate, align with scale, score ATE and RPE."""
    pairs = associate(est, gt, max_dt)
    aligned, alignment = align_and_scale(est, gt, pairs)
    rpe_t, rpe_r = rpe(est, gt, pairs, rpe_delta)
    return EvalReport(ate_rmse=ate(aligned, gt, pairs),
                      rpe_trans=rpe_t, rpe_rot_deg=rpe_r,
                      per_pose_scales=alignment.per_pose_scales,
                      matched_count=len(pairs))


# --- TUM trajectory text format -------------------------------------------

def quaternion_from_rotation(R):
    """Rotation matrix -> quaternion (qx, qy, qz, qw), qw >= 0."""
    R = np.asarray(R, dtype=float)
    tr = np.trace(R)
    if tr > 0:
        s = np.sqrt(tr + 1.0) * 2.0
        qw = 0.25 * s
        qx = (R[2, 1] - R[1, 2]) / s
        qy = (R[0, 2] - R[2, 0]) / s
        qz = (R[1, 0] - R[0, 1]) / s
    elif R[0, 0] > R[1, 1] and R[0, 0] > R[2, 2]:
        s = np.sqrt(1.0 + R[0, 0] - R[1, 1] - R[2, 2]) * 2.0
        qw = (R[2, 1] - R[1, 2]) / s
        qx = 0.25 * s
        qy = (R[0, 1] + R[1, 0]) / s
        qz = (R[0, 2] + R[2, 0]) / s
    elif R[1, 1] > R[2, 2]:
        s = np.sqrt(1.0 + R[1, 1] - R[0, 0] - R[2, 2]) * 2.0
        qw = (R[0, 2] - R[2, 0]) / s
        qx = (R[0, 1] + R[1, 0]) / s
        qy = 0.25 * s
        qz = (R[1, 2] + R[2, 1]) / s
    else:
        s = np.sqrt(1.0 + R[2, 2] - R[0, 0] - R[1, 1]) * 2.0
        qw = (R[1, 0] - R[0, 1]) / s
        qx = (R[0, 2] + R[2, 0]) / s
        qy = (R[1, 2] + R[2, 1]) / s
        qz = 0.25 * s
    q = np.array([qx, qy, qz, qw])
    q /= np.linalg.norm(q)
    if q[3] < 0:
        q = -q
    return q


def rotation_from_quaternion(qx, qy, qz, qw):
    n = qx * qx + qy * qy + qz * qz + qw * qw
    if n == 0:
        raise RasterFormatError("zero quaternion in trajectory file")
    s = 2.0 / n
    return np.array([
        [1 - s * (qy * qy + qz * qz), s * (qx * qy - qz * qw), s * (qx * qz + qy * qw)],
        [s * (qx * qy + qz * qw), 1 - s * (qx * qx + qz * qz), s * (qy * qz - qx * qw)],
        [s * (qx * qz - qy * qw), s * (qy * qz + qx * qw), 1 - s * (qx * qx + qy * qy)],
    ])


_TUM_FIELDS = ('timestamp', 'tx', 'ty', 'tz', 'qx', 'qy', 'qz', 'qw')


def read_tum(path):
    """Read a TUM-format trajectory: `timestamp tx ty tz qx qy qz qw` per
    line, '#' comments ignored. A file that is not UTF-8 text, or whose
    samples Trajectory rejects, is a RasterFormatError naming the file."""
    timestamps = []
    poses = []
    for lineno, line in enumerate(read_text(path).split('\n'), 1):
        line = line.strip()
        if not line or line.startswith('#'):
            continue
        parts = line.split()
        if len(parts) != 8:
            raise RasterFormatError(
                f"{path}:{lineno}: expected 8 fields, got {len(parts)}")
        try:
            vals = [float(p) for p in parts]
        except ValueError as exc:
            raise RasterFormatError(f"{path}:{lineno}: {exc}") from exc
        for name, value, text in zip(_TUM_FIELDS, vals, parts):
            if not math.isfinite(value):
                raise RasterFormatError(
                    f"{path}:{lineno}: {name} {text} is not finite")
        ts, tx, ty, tz, qx, qy, qz, qw = vals
        T = np.eye(4)
        T[:3, :3] = rotation_from_quaternion(qx, qy, qz, qw)
        T[:3, 3] = (tx, ty, tz)
        timestamps.append(ts)
        poses.append(T)
    if not timestamps:
        raise RasterFormatError(f"{path}: no trajectory samples")
    try:
        return Trajectory(np.array(timestamps), np.array(poses))
    except ValueError as exc:
        raise RasterFormatError(f"{path}: {exc}") from exc


def write_tum(traj, path):
    """Write a trajectory in TUM format with 6-decimal timestamps."""
    with open(path, 'w') as fh:
        fh.write("# timestamp tx ty tz qx qy qz qw\n")
        for ts, T in zip(traj.timestamps, traj.poses):
            q = quaternion_from_rotation(T[:3, :3])
            t = T[:3, 3]
            fh.write("%.6f %.9f %.9f %.9f %.9f %.9f %.9f %.9f\n"
                     % (ts, t[0], t[1], t[2], q[0], q[1], q[2], q[3]))
