import warnings

import numpy as np
import pytest

from flowpose import se3, trajectory
from flowpose.errors import InsufficientDataError, RasterFormatError
from flowpose.trajectory import Trajectory


def random_trajectory(rng, n=20, dt=0.1, scale=0.1):
    ts = np.arange(n) * dt
    poses = [se3.exp(rng.uniform(-scale, scale, 6)) for _ in range(n)]
    # ensure world-frame poses with varied positions
    poses = [p.copy() for p in poses]
    for i, p in enumerate(poses):
        p[:3, 3] += [0.5 * i, 0.1 * i, 0.02 * i * i]
    return Trajectory(ts, np.array(poses))


class TestTrajectory:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_timestamps_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Trajectory(np.array([0.0, bad, 2.0]), np.tile(np.eye(4), (3, 1, 1)))


class TestChain:
    def test_all_zero(self):
        traj = trajectory.chain([(float(i), np.zeros(6)) for i in range(5)])
        for T in traj.poses:
            assert np.array_equal(T, np.eye(4))

    def test_constant_translation_linear(self):
        xi = np.array([0.1, 0, 0, 0, 0, 0])
        traj = trajectory.chain([(float(i), xi) for i in range(5)])
        positions = traj.positions()
        steps = np.diff(positions, axis=0)
        assert np.allclose(steps, steps[0], atol=1e-12)
        assert np.allclose(positions[0], [-0.1, 0, 0], atol=1e-12)

    def test_matches_brute_force_product(self):
        rng = np.random.default_rng(30)
        rels = [(float(i), rng.uniform(-0.1, 0.1, 6)) for i in range(10)]
        traj = trajectory.chain(rels)
        current = np.eye(4)
        for k, (_, xi) in enumerate(rels):
            current = current @ np.linalg.inv(se3.exp(xi))
            assert np.max(np.abs(traj.poses[k] - current)) < 1e-10

    def test_chain_of_ground_truth_logs_reproduces_trajectory(self):
        rng = np.random.default_rng(31)
        gt = random_trajectory(rng, n=15)
        rels = []
        for k in range(1, len(gt)):
            # xi mapping frame k-1 into frame k
            rel = se3.inverse(se3.inverse(gt.poses[k - 1]) @ gt.poses[k])
            rels.append((float(gt.timestamps[k]), se3.log(rel)))
        est = trajectory.chain(rels)
        # compare against ground truth expressed relative to its first pose
        gt_rel = Trajectory(gt.timestamps[1:],
                            np.array([se3.inverse(gt.poses[0]) @ p
                                      for p in gt.poses[1:]]))
        pairs = trajectory.associate(est, gt_rel)
        aligned, _ = trajectory.align_and_scale(est, gt_rel, pairs)
        assert trajectory.ate(aligned, gt_rel, pairs) < 1e-9


class TestAssociate:
    def test_identical_timestamps(self):
        rng = np.random.default_rng(32)
        t = random_trajectory(rng)
        pairs = trajectory.associate(t, t)
        assert pairs == [(i, i) for i in range(len(t))]

    def test_disjoint_ranges(self):
        rng = np.random.default_rng(33)
        a = random_trajectory(rng, n=5)
        b = Trajectory(a.timestamps + 100.0, a.poses)
        with pytest.raises(InsufficientDataError):
            trajectory.associate(a, b)

    def test_jittered_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(34)
        gt = random_trajectory(rng, n=12)
        est = Trajectory(gt.timestamps + rng.uniform(-0.015, 0.015, len(gt)),
                         gt.poses)
        order = np.argsort(est.timestamps)
        est = Trajectory(est.timestamps[order], est.poses[order])
        pairs = trajectory.associate(est, gt, max_dt=0.02)
        assert len(pairs) == len(gt)
        # greedy-by-smallest-dt oracle
        cands = sorted((abs(est.timestamps[i] - gt.timestamps[j]), i, j)
                       for i in range(len(est)) for j in range(len(gt))
                       if abs(est.timestamps[i] - gt.timestamps[j]) <= 0.02)
        used_i, used_j, expected = set(), set(), []
        for _, i, j in cands:
            if i not in used_i and j not in used_j:
                used_i.add(i)
                used_j.add(j)
                expected.append((i, j))
        expected.sort(key=lambda p: est.timestamps[p[0]])
        assert pairs == expected


class TestAlignAndScale:
    def test_identity_alignment(self):
        rng = np.random.default_rng(35)
        t = random_trajectory(rng)
        pairs = trajectory.associate(t, t)
        aligned, result = trajectory.align_and_scale(t, t, pairs)
        assert abs(result.scale - 1.0) < 1e-12
        assert np.allclose(result.rotation, np.eye(3), atol=1e-9)
        assert np.allclose(result.per_pose_scales, 1.0, atol=1e-9)
        assert np.max(np.abs(aligned.poses - t.poses)) < 1e-9

    def test_uniform_half_scale(self):
        rng = np.random.default_rng(36)
        gt = random_trajectory(rng)
        est_poses = gt.poses.copy()
        est_poses[:, :3, 3] *= 0.5
        est = Trajectory(gt.timestamps, est_poses)
        pairs = trajectory.associate(est, gt)
        aligned, result = trajectory.align_and_scale(est, gt, pairs)
        assert abs(result.scale - 2.0) < 1e-9
        assert np.allclose(result.per_pose_scales, 2.0, atol=1e-9)
        assert trajectory.ate(aligned, gt, pairs) < 1e-9

    def test_recovers_random_rotation(self):
        rng = np.random.default_rng(37)
        gt = random_trajectory(rng)
        R = se3.exp(np.concatenate([np.zeros(3), rng.uniform(-1, 1, 3)]))[:3, :3]
        est_poses = gt.poses.copy()
        est_poses[:, :3, 3] = gt.positions() @ R + rng.normal(0, 1e-6, (len(gt), 3))
        est = Trajectory(gt.timestamps, est_poses)
        pairs = trajectory.associate(est, gt)
        _, result = trajectory.align_and_scale(est, gt, pairs)
        # positions were right-multiplied by R (i.e. rotated by R^T), so
        # the recovered est-to-gt rotation is R itself
        assert np.max(np.abs(result.rotation - R)) < 1e-5

    def test_collinear_flagged_low_rank(self):
        ts = np.arange(5, dtype=float)
        poses = np.array([np.eye(4)] * 5)
        poses = poses.copy()
        for i in range(5):
            poses[i, 0, 3] = float(i)
        t = Trajectory(ts, poses)
        pairs = [(i, i) for i in range(5)]
        _, result = trajectory.align_and_scale(t, t, pairs)
        assert result.low_rank


class TestAteRpe:
    def test_perfect_estimate(self):
        rng = np.random.default_rng(38)
        t = random_trajectory(rng)
        report = trajectory.evaluate(t, t)
        assert report.ate_rmse == pytest.approx(0.0, abs=1e-12)
        assert report.rpe_trans == pytest.approx(0.0, abs=1e-12)
        assert report.rpe_rot_deg == pytest.approx(0.0, abs=1e-12)

    def test_constant_offset_is_gauge(self):
        rng = np.random.default_rng(39)
        gt = random_trajectory(rng)
        est_poses = gt.poses.copy()
        est_poses[:, :3, 3] += [1.0, -2.0, 0.5]
        est = Trajectory(gt.timestamps, est_poses)
        pairs = trajectory.associate(est, gt)
        aligned, _ = trajectory.align_and_scale(est, gt, pairs)
        assert trajectory.ate(aligned, gt, pairs) < 1e-9

    def test_single_perturbed_pose_matches_hand_computation(self):
        # gt: poses at unit x steps; est: pose 2 offset by 0.1 in y
        n = 4
        ts = np.arange(n, dtype=float)
        gt_poses = np.array([np.eye(4)] * n)
        gt_poses = gt_poses.copy()
        for i in range(n):
            gt_poses[i, 0, 3] = float(i)
        est_poses = gt_poses.copy()
        est_poses[2, 1, 3] += 0.1
        gt = Trajectory(ts, gt_poses)
        est = Trajectory(ts, est_poses)
        pairs = [(i, i) for i in range(n)]
        # direct-definition RPE at delta 1: E differs only around index 2
        rpe_t, rpe_r = trajectory.rpe(est, gt, pairs, delta=1)
        expected = np.sqrt((0.0 + 0.1 ** 2 + 0.1 ** 2 + 0.0) / 3)
        assert rpe_t == pytest.approx(expected, abs=1e-12)
        assert rpe_r == pytest.approx(0.0, abs=1e-12)

    def test_rpe_invariant_to_independent_gauges(self):
        rng = np.random.default_rng(40)
        gt = random_trajectory(rng)
        est = random_trajectory(np.random.default_rng(41))
        pairs = trajectory.associate(est, gt)
        base = trajectory.rpe(est, gt, pairs)
        G1 = se3.exp(rng.uniform(-1, 1, 6))
        G2 = se3.exp(rng.uniform(-1, 1, 6))
        est2 = Trajectory(est.timestamps, np.array([G1 @ p for p in est.poses]))
        gt2 = Trajectory(gt.timestamps, np.array([G2 @ p for p in gt.poses]))
        moved = trajectory.rpe(est2, gt2, pairs)
        assert abs(base[0] - moved[0]) < 1e-9
        assert abs(base[1] - moved[1]) < 1e-9

    def test_scaling_estimate_scales_per_pose_ratios(self):
        rng = np.random.default_rng(42)
        gt = random_trajectory(rng)
        est_poses = gt.poses.copy()
        est_poses[:, :3, 3] *= 4.0
        est = Trajectory(gt.timestamps, est_poses)
        pairs = trajectory.associate(est, gt)
        aligned, result = trajectory.align_and_scale(est, gt, pairs)
        assert np.allclose(result.per_pose_scales, 0.25, atol=1e-9)
        assert trajectory.ate(aligned, gt, pairs) < 1e-9

    def test_insufficient_pairs_for_delta(self):
        rng = np.random.default_rng(43)
        t = random_trajectory(rng, n=3)
        pairs = [(i, i) for i in range(3)]
        with pytest.raises(InsufficientDataError):
            trajectory.rpe(t, t, pairs, delta=5)


class TestTumIO:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(44)
        t = random_trajectory(rng)
        path = tmp_path / "traj.txt"
        trajectory.write_tum(t, path)
        back = trajectory.read_tum(path)
        assert np.max(np.abs(back.timestamps - t.timestamps)) < 1e-6
        assert np.max(np.abs(back.positions() - t.positions())) < 1e-8
        for a, b in zip(back.poses, t.poses):
            assert np.max(np.abs(a[:3, :3] - b[:3, :3])) < 1e-7

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "traj.txt"
        path.write_text("# header\n\n0.0 0 0 0 0 0 0 1\n1.0 1 0 0 0 0 0 1\n")
        t = trajectory.read_tum(path)
        assert len(t) == 2

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "traj.txt"
        path.write_text("0.0 1 2 3\n")
        with pytest.raises(RasterFormatError):
            trajectory.read_tum(path)

    # every field must be finite, not only the timestamp
    @pytest.mark.parametrize("line, field", [
        ("nan 1 0 0 0 0 0 1", "timestamp"),
        ("inf 1 0 0 0 0 0 1", "timestamp"),
        ("-inf 1 0 0 0 0 0 1", "timestamp"),
        ("1.0 nan 0 0 0 0 0 1", "tx"),
        ("1.0 1 0 0 inf 0 0 1", "qx"),
        ("1.0 1 0 0 0 0 0 -inf", "qw"),
    ], ids=["nan", "inf", "-inf", "tx-nan", "qx-inf", "qw-inf"])
    def test_non_finite_timestamp_rejected_with_line(self, tmp_path, line,
                                                     field):
        path = tmp_path / "traj.txt"
        path.write_text("# header\n0.0 0 0 0 0 0 0 1\n"
                        f"{line}\n2.0 2 0 0 0 0 0 1\n")
        with pytest.raises(RasterFormatError, match=f":3: {field} "):
            trajectory.read_tum(path)

    def test_non_finite_timestamp_exits_3(self, tmp_path, capsys):
        from flowpose import cli
        path = tmp_path / "traj.txt"
        for line in ("nan 1 0 0 0 0 0 1", "1.0 nan 0 0 0 0 0 1",
                     "1.0 1 0 0 inf 0 0 1"):
            path.write_text(f"0.0 0 0 0 0 0 0 1\n{line}\n"
                            "2.0 2 0 0 0 0 0 1\n3.0 3 0 0 0 0 0 1\n")
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = cli.main(["eval-traj", "--est", str(path),
                                 "--gt", str(path)])
            captured = capsys.readouterr()
            assert code == 3
            assert captured.out == ""
            assert len(captured.err.splitlines()) == 1 and ":2:" in captured.err

    def test_quaternion_roundtrip(self):
        rng = np.random.default_rng(45)
        for _ in range(100):
            R = se3.exp(np.concatenate([np.zeros(3),
                                        rng.uniform(-2, 2, 3)]))[:3, :3]
            q = trajectory.quaternion_from_rotation(R)
            back = trajectory.rotation_from_quaternion(*q)
            assert np.max(np.abs(back - R)) < 1e-12
