"""The benchmark's three workloads.

Each workload makes its inputs from the seed (``setup``), names the
`flowpose` command line of each operation (``argv``) and checks each
operation's output (``check``). Items cycle: operation k runs item
k % len(items).
"""

import hashlib
import os
import shutil

import numpy as np

from flowpose import rasters, se3, synthetic, trajectory
from flowpose.camera import Intrinsics

import oracle

# TUM RGB-D-like QVGA camera. Explicit, because synthetic.default_intrinsics
# (fx = 100) spans so wide a field of view that SmoothRandomDepth goes
# nonpositive at larger rasters.
QVGA = Intrinsics(fx=262.5, fy=262.5, cx=159.5, cy=119.5, width=320, height=240)
DEPTH_AMPLITUDE = 0.5       # depth 2 +- <1 m over the QVGA field of view
MOTION_NORM = 0.02          # per-frame twist norm
NOISE_SIGMA = 0.5           # px
OUTLIER_FRACTION = 0.1
OUTLIER_MAGNITUDE = 20.0    # px
# frame kinds, cycled: (noise sigma, outlier fraction, outlier magnitude)
KINDS = ((0.0, 0.0, 0.0),
         (NOISE_SIGMA, 0.0, 0.0),
         (NOISE_SIGMA, OUTLIER_FRACTION, OUTLIER_MAGNITUDE))
EXACT_TOL = 1e-8            # noiseless frames, as acceptance test 04
NOISY_TOL = 2e-3            # ||xi - xi_gt|| bound on noisy frames


def _sha256(path):
    with open(path, 'rb') as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _solved_xi(stdout):
    """The twist printed by `flowpose solve`."""
    return np.array([float(f) for f in stdout.split()[:6]])


def _scene_specs(seed, count):
    """`count` QVGA scene specs cycling through KINDS, with per-frame depth
    seeds and random-direction motions of norm MOTION_NORM."""
    rng = np.random.default_rng([seed, 1])
    specs = []
    for k in range(count):
        direction = rng.normal(size=6)
        sigma, fraction, magnitude = KINDS[k % len(KINDS)]
        specs.append(synthetic.SceneSpec(
            width=QVGA.width, height=QVGA.height, intrinsics=QVGA,
            motion=direction / np.linalg.norm(direction) * MOTION_NORM,
            depth_model=synthetic.SmoothRandomDepth(
                seed=int(rng.integers(1 << 31)), amplitude=DEPTH_AMPLITUDE),
            noise_sigma=sigma, outlier_fraction=fraction,
            outlier_magnitude=magnitude, seed=int(rng.integers(1 << 31))))
    return specs


class Odometry:
    """`flowpose solve` on one QVGA frame per operation."""

    name = 'odometry-qvga'
    frames = 30

    def __init__(self, seed):
        self.specs = _scene_specs(seed, self.frames)
        self.solved = {}        # frame -> stdout of its first solve

    def _scene(self, k):
        return os.path.join(self.directory, f'frame{k:03d}')

    def setup(self, directory):
        self.directory = directory
        for k, spec in enumerate(self.specs):
            synthetic.write_scene(spec, self._scene(k))
        return list(range(self.frames))

    def argv(self, k):
        scene = self._scene(k)
        return ['solve', '--depth', os.path.join(scene, 'depth.engr'),
                '--flow', os.path.join(scene, 'flow.engr'),
                '--intrinsics', os.path.join(scene, 'intrinsics.txt')]

    def check(self, k, stdout):
        fields = stdout.split()
        if len(fields) != 9:
            return False
        err = float(np.linalg.norm(_solved_xi(stdout) - self.specs[k].motion))
        if self.specs[k].noise_sigma == 0.0:
            ok = err < EXACT_TOL and fields[7] == '1'
        else:
            ok = err < NOISY_TOL
        first = self.solved.setdefault(k, stdout)
        return ok and first == stdout

    def pose_errors(self):
        return [float(np.linalg.norm(_solved_xi(out) - self.specs[k].motion))
                for k, out in sorted(self.solved.items())]

    def ate_inputs(self, directory):
        """Chain the solved and the true motions at 30 Hz and write both as
        TUM files; returns the `eval-traj` argv."""
        est, gt = [], []
        for k, out in sorted(self.solved.items()):
            est.append((k / 30.0, _solved_xi(out)))
            gt.append((k / 30.0, self.specs[k].motion))
        est_path = os.path.join(directory, 'solved.txt')
        gt_path = os.path.join(directory, 'truth.txt')
        trajectory.write_tum(trajectory.chain(est), est_path)
        trajectory.write_tum(trajectory.chain(gt), gt_path)
        return ['eval-traj', '--est', est_path, '--gt', gt_path]


def _sequence(rng, gt_path, est_path):
    """Write one ground-truth / estimate pair in TUM format.

    Ground truth: 3300 poses at 100 Hz chained from small motions, with
    three 0.12 s gaps. Estimate: 30 Hz with +-4 ms timestamp jitter, 2% of
    frames dropped, a 0.8 scale error and small pose noise. Estimate samples
    inside a gap have no ground truth within max_dt.
    """
    n_gt, n_est = 3300, 990
    t0 = 1305031100.0
    steps = np.concatenate([rng.normal(0.0, 0.002, (n_gt, 3)) + [0.0, 0.0, 0.01],
                            rng.normal(0.0, 0.003, (n_gt, 3))], axis=1)
    gt = trajectory.chain([(t0 + k * 0.01, xi) for k, xi in enumerate(steps)])

    keep_gt = np.ones(n_gt, dtype=bool)
    for start in rng.choice(np.arange(100, n_gt - 100, 300), 3, replace=False):
        keep_gt[start:start + 12] = False

    t_est = t0 + 0.005 + np.arange(n_est) / 30.0 + rng.uniform(-0.004, 0.004, n_est)
    keep_est = np.ones(n_est, dtype=bool)
    keep_est[rng.choice(np.arange(1, n_est - 1), n_est // 50, replace=False)] = False
    t_est = t_est[keep_est]
    nearest = np.clip(np.rint((t_est - t0) / 0.01).astype(int), 0, n_gt - 1)
    poses = gt.poses[nearest].copy()
    poses[:, :3, 3] *= 0.8
    noise = np.concatenate([rng.normal(0.0, 0.003, (len(t_est), 3)),
                            rng.normal(0.0, 0.002, (len(t_est), 3))], axis=1)
    poses = np.array([T @ se3.exp(d) for T, d in zip(poses, noise)])

    trajectory.write_tum(trajectory.Trajectory(gt.timestamps[keep_gt],
                                               gt.poses[keep_gt]), gt_path)
    trajectory.write_tum(trajectory.Trajectory(t_est, poses), est_path)


class TrajEval:
    """`flowpose eval-traj` on one long sequence per operation."""

    name = 'traj-eval-long'
    sequences = 3

    def __init__(self, seed):
        self.seed = seed
        self.seen = {}

    def setup(self, directory):
        rng = np.random.default_rng([self.seed, 2])
        self.paths, self.expected = [], []
        for k in range(self.sequences):
            gt_path = os.path.join(directory, f'gt{k}.txt')
            est_path = os.path.join(directory, f'est{k}.txt')
            _sequence(rng, gt_path, est_path)
            self.paths.append((est_path, gt_path))
            self.expected.append(oracle.evaluate(est_path, gt_path))
        return list(range(self.sequences))

    def argv(self, k):
        est_path, gt_path = self.paths[k]
        return ['eval-traj', '--est', est_path, '--gt', gt_path]

    def check(self, k, stdout):
        try:
            got = oracle.parse_eval_output(stdout)
        except ValueError:
            return False
        first = self.seen.setdefault(k, stdout)
        return oracle.agrees(got, self.expected[k]) and first == stdout


class Synth:
    """`flowpose synth` of one QVGA scene per operation; the scene directory
    is checked against its manifest and then removed."""

    name = 'synth-scenes'
    scenes = 12

    def __init__(self, seed):
        self.specs = _scene_specs(seed, self.scenes)
        self.digests = {}       # scene -> manifest text of its first render

    def setup(self, directory):
        self.directory = directory
        self.intrinsics = os.path.join(directory, 'intrinsics.txt')
        rasters.write_intrinsics(self.intrinsics, QVGA)
        return list(range(self.scenes))

    def _out(self, k):
        return os.path.join(self.directory, f'scene{k:03d}')

    def argv(self, k):
        spec = self.specs[k]
        model = spec.depth_model
        return ['synth', '--width', str(spec.width), '--height', str(spec.height),
                '--depth', f'smooth:{model.seed},{model.amplitude!r}',
                '--motion=' + ','.join(repr(float(x)) for x in spec.motion),
                '--intrinsics', self.intrinsics,
                '--noise-sigma', repr(spec.noise_sigma),
                '--outlier-fraction', repr(spec.outlier_fraction),
                '--outlier-magnitude', repr(spec.outlier_magnitude),
                '--seed', str(spec.seed), '--out', self._out(k)]

    def check(self, k, stdout):
        out = self._out(k)
        manifest = os.path.join(out, 'manifest.txt')
        text = None
        try:
            ok = stdout.strip() == manifest
            with open(manifest) as fh:
                text = fh.read()
            lines = [line.split() for line in text.splitlines()]
            ok = ok and len(lines) == 5 and all(
                _sha256(os.path.join(out, name)) == digest
                for name, digest in lines)
        except (OSError, ValueError):
            ok = False
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return ok and self.digests.setdefault(k, text) == text


WORKLOADS = {w.name: w for w in (Odometry, TrajEval, Synth)}
