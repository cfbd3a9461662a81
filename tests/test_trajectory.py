import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowpose import se3, trajectory
from flowpose.errors import (DegenerateGeometryError, InsufficientDataError,
                             RasterFormatError)
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
    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError) as exc:
            Trajectory(np.arange(3.0), np.tile(np.eye(4), (2, 1, 1)))
        assert str(exc.value) == (
            "timestamp/pose count mismatch: 3 timestamps, 2 poses")

    def test_first_sample_out_of_order_is_named(self):
        with pytest.raises(ValueError) as exc:
            Trajectory(np.array([0.0, 2.0, 1.5, 1.0]),
                       np.tile(np.eye(4), (4, 1, 1)))
        assert str(exc.value) == (
            "timestamps must be strictly increasing: sample 2 at 1.5 does "
            "not follow sample 1 at 2.0")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_timestamps_rejected(self, bad):
        with pytest.raises(ValueError) as exc:
            Trajectory(np.array([0.0, bad, 2.0]), np.tile(np.eye(4), (3, 1, 1)))
        assert str(exc.value) == (
            f"timestamps must be finite: sample 1 is {bad!r}")


    def test_huge_timestamps_compare_without_overflow(self):
        poses = np.tile(np.eye(4), (2, 1, 1))
        assert len(Trajectory(np.array([-1.7e308, 1.7e308]), poses)) == 2
        with pytest.raises(ValueError, match="increasing"):
            Trajectory(np.array([1.7e308, -1.7e308]), poses)


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

    def test_matches_step_loop(self):
        # each pose is the product that a plain `current = current @ step`
        # loop forms, to the last bit: on wild steps, and on a chain as
        # long and as smooth as a benchmark ground truth
        rng = np.random.default_rng(29)
        for xis in (rng.normal(0, 0.3, (300, 6)),
                    rng.normal(0, 0.003, (3300, 6)) + [0, 0, 0.01, 0, 0, 0]):
            rels = [(0.1 * k, xi) for k, xi in enumerate(xis)]
            current = np.eye(4)
            for (_, xi), T in zip(rels, trajectory.chain(rels).poses):
                current = current @ se3.inverse(se3.exp(xi))
                assert T.tobytes() == current.tobytes()

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

    @pytest.mark.parametrize("max_dt, text", [(0.0, "0"), (-1.0, "-1"),
                                              (np.nan, "nan")])
    def test_max_dt_not_positive_rejected(self, max_dt, text):
        a = random_trajectory(np.random.default_rng(33), n=5)
        with pytest.raises(ValueError) as exc:
            trajectory.associate(a, a, max_dt)
        assert str(exc.value) == f"max_dt must be positive, got {text}"

    def test_disjoint_ranges(self):
        rng = np.random.default_rng(33)
        a = random_trajectory(rng, n=5)
        b = Trajectory(a.timestamps + 100.0, a.poses)
        with pytest.raises(InsufficientDataError) as info:
            trajectory.associate(a, b)
        assert (info.value.matched_count, info.value.max_dt) == (0, 0.02)
        assert str(info.value) == (
            "fewer than 2 associated samples: 0 within max_dt 0.02 s")
        # one sample in reach of the other trajectory
        b = Trajectory(np.append(a.timestamps[:1], a.timestamps[1:] + 100.0),
                       a.poses)
        with pytest.raises(InsufficientDataError,
                           match=r"samples: 1 within max_dt 0\.5 s$") as info:
            trajectory.associate(a, b, max_dt=0.5)
        assert (info.value.matched_count, info.value.max_dt) == (1, 0.5)

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
        assert result.scale == 1.0
        assert np.array_equal(result.rotation, np.eye(3))
        assert np.array_equal(result.translation, np.zeros(3))
        assert np.allclose(result.per_pose_scales, 1.0, atol=1e-9)
        assert np.array_equal(aligned.poses, t.poses)

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

    # a line along x with a 1e-8 m wiggle in y: the same singular-value ratio
    # of H decides low_rank for identical and for scaled inputs (identical
    # ones used to compare the positions' singular values, not their squares)
    @pytest.mark.parametrize("gt_scale", [1.0, 1.0000001])
    def test_near_line_low_rank_on_one_scale(self, gt_scale):
        poses = np.tile(np.eye(4), (50, 1, 1))
        poses[:, 0, 3] = np.arange(50, dtype=float)
        poses[:, 1, 3] = 1e-8 * (-1.0) ** np.arange(50)
        est = Trajectory(np.arange(50) * 0.1, poses)
        gt_poses = poses.copy()
        gt_poses[:, :3, 3] *= gt_scale
        gt = Trajectory(est.timestamps, gt_poses)
        pairs = [(i, i) for i in range(50)]
        _, result = trajectory.align_and_scale(est, gt, pairs)
        assert result.low_rank

    # finite positions whose sum overflows; the SVD used to raise LinAlgError
    @pytest.mark.parametrize("identical", [False, True])
    def test_overflowing_positions_are_degenerate(self, identical):
        gt = random_trajectory(np.random.default_rng(38))
        poses = gt.poses.copy()
        poses[:, :3, 3] = 1e308
        est = Trajectory(gt.timestamps, poses)
        pairs = [(i, i) for i in range(len(gt))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateGeometryError, match="overflow"):
                trajectory.align_and_scale(est, est if identical else gt, pairs)

    # Identical inputs take the other inputs' scale check: the sum of
    # squares of positions near 4.9e152 overflows, as it does against a
    # ground truth scaled by 0.999 (identical inputs scored 0 before)
    @pytest.mark.parametrize("gt_scale", [1.0, 0.999])
    def test_overflowing_scale_is_degenerate(self, gt_scale):
        rng = np.random.default_rng(39)
        poses = np.tile(np.eye(4), (1000, 1, 1))
        poses[:, :3, 3] = rng.uniform(-4.9e152, 4.9e152, (1000, 3))
        est = Trajectory(np.arange(1000) * 0.1, poses)
        gt_poses = poses.copy()
        gt_poses[:, :3, 3] *= gt_scale
        gt = Trajectory(est.timestamps, gt_poses)
        pairs = [(i, i) for i in range(len(est))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateGeometryError,
                               match="alignment scale"):
                trajectory.align_and_scale(est, gt, pairs)

    @pytest.mark.parametrize("count", [0, 1])
    def test_too_few_pairs_to_align(self, count):
        rng = np.random.default_rng(44)
        t = random_trajectory(rng, n=3)
        with pytest.raises(InsufficientDataError) as info:
            trajectory.align_and_scale(t, t, [(i, i) for i in range(count)])
        assert info.value.pair_count == count
        assert str(info.value) == f"need at least 2 pairs to align, got {count}"


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

    def test_delta_below_one_rejected(self):
        t = random_trajectory(np.random.default_rng(43), n=3)
        with pytest.raises(ValueError) as exc:
            trajectory.rpe(t, t, [(i, i) for i in range(3)], delta=0)
        assert str(exc.value) == "delta must be >= 1, got 0"

    def test_insufficient_pairs_for_delta(self):
        rng = np.random.default_rng(43)
        t = random_trajectory(rng, n=3)
        pairs = [(i, i) for i in range(3)]
        with pytest.raises(InsufficientDataError) as info:
            trajectory.rpe(t, t, pairs, delta=5)
        assert (info.value.pair_count, info.value.delta) == (3, 5)
        assert str(info.value) == (
            "not enough pairs for delta 5: 3 pairs, need at least 6")
        with pytest.raises(InsufficientDataError, match="3 pairs, need at least 4"):
            trajectory.rpe(t, t, pairs, delta=3)
        assert trajectory.rpe(t, t, pairs, delta=2) == (0.0, 0.0)

    # evaluate converts its pairs once; each stage then takes views
    def test_index_array_is_not_copied(self):
        pairs = [(0, 1), (2, 3), (4, 6)]
        idx = np.array(pairs)
        ie, ig = trajectory._indices(idx)
        assert np.shares_memory(ie, idx) and np.shares_memory(ig, idx)
        for got in (trajectory._indices(idx), trajectory._indices(pairs)):
            assert [a.tolist() for a in got] == [[0, 2, 4], [1, 3, 6]]


class TestOverflowingScores:
    """A score whose arithmetic overflows is a DegenerateGeometryError that
    names it, not an inf, nan or 0 returned as a number."""

    @pytest.mark.parametrize("score", ["ATE", "RPE", "per-pose scale",
                                       "alignment scale"])
    def test_named_in_error(self, score):
        gt = random_trajectory(np.random.default_rng(47))
        far = gt.poses.copy()
        far[:, 0, 3] += 1e200 * np.arange(len(gt))
        far = Trajectory(gt.timestamps, far)
        pairs = [(i, i) for i in range(len(gt))]
        call = {"ATE": lambda: trajectory.ate(far, gt, pairs),
                "RPE": lambda: trajectory.rpe(gt, far, pairs),
                "per-pose scale": lambda: trajectory._per_pose_scales(
                    gt, far, pairs),
                "alignment scale": lambda: trajectory.align_and_scale(
                    far, gt, pairs)}[score]
        with pytest.raises(DegenerateGeometryError,
                           match=f"^{score} is not finite"):
            call()

    def test_estimate_that_never_moves(self):
        gt = random_trajectory(np.random.default_rng(48))
        still = Trajectory(gt.timestamps, np.tile(np.eye(4), (len(gt), 1, 1)))
        with pytest.raises(DegenerateGeometryError, match="per-pose scale"):
            trajectory.evaluate(still, gt)


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


# The per-pose loops that the batched trajectory code replaced, kept as the
# reference it must reproduce: the same pairs, and scores within 1e-12.

def reference_associate(est, gt, max_dt=0.02):
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


def loop_candidates(est, gt, max_dt=0.02):
    """The candidates that associate's greedy loop visits: those whose two
    samples no first-for-both candidate takes, from the exhaustive list."""
    candidates = sorted((abs(te - tg), i, j)
                        for i, te in enumerate(est.timestamps)
                        for j, tg in enumerate(gt.timestamps)
                        if abs(te - tg) <= max_dt)
    first_e, first_g = {}, {}
    for rank, (_, i, j) in enumerate(candidates):
        first_e.setdefault(i, rank)
        first_g.setdefault(j, rank)
    taken = [(i, j) for rank, (_, i, j) in enumerate(candidates)
             if first_e[i] == rank == first_g[j]]
    used_e, used_g = {i for i, _ in taken}, {j for _, j in taken}
    return [(i, j) for _, i, j in candidates
            if i not in used_e and j not in used_g]


def reference_per_pose_scales(est, gt, pairs):
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


def reference_rpe(est, gt, pairs, delta=1):
    terrs = []
    rerrs = []
    for (i0, j0), (i1, j1) in zip(pairs[:-delta], pairs[delta:]):
        rel_gt = se3.inverse(gt.poses[j0]) @ gt.poses[j1]
        rel_est = se3.inverse(est.poses[i0]) @ est.poses[i1]
        if np.array_equal(rel_gt, rel_est):
            terrs.append(0.0)
            rerrs.append(0.0)
            continue
        E = se3.inverse(rel_gt) @ rel_est
        terrs.append(np.linalg.norm(E[:3, 3]))
        c = np.clip((np.trace(E[:3, :3]) - 1.0) / 2.0, -1.0, 1.0)
        rerrs.append(float(np.degrees(np.arccos(c))))
    return (float(np.sqrt(np.mean(np.array(terrs) ** 2))),
            float(np.sqrt(np.mean(np.array(rerrs) ** 2))))


def reference_read_tum(path):
    timestamps = []
    poses = []
    for lineno, line in enumerate(path.read_text(encoding='utf-8')
                                  .split('\n'), 1):
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
        for name, value, text in zip(trajectory._TUM_FIELDS, vals, parts):
            if not math.isfinite(value):
                raise RasterFormatError(
                    f"{path}:{lineno}: {name} {text} is not finite")
        ts, tx, ty, tz, qx, qy, qz, qw = vals
        n = qx * qx + qy * qy + qz * qz + qw * qw
        if n == 0:
            raise RasterFormatError("zero quaternion in trajectory file")
        s = 2.0 / n
        T = np.eye(4)
        T[:3, :3] = [
            [1 - s * (qy * qy + qz * qz), s * (qx * qy - qz * qw), s * (qx * qz + qy * qw)],
            [s * (qx * qy + qz * qw), 1 - s * (qx * qx + qz * qz), s * (qy * qz - qx * qw)],
            [s * (qx * qz - qy * qw), s * (qy * qz + qx * qw), 1 - s * (qx * qx + qy * qy)],
        ]
        T[:3, 3] = (tx, ty, tz)
        timestamps.append(ts)
        poses.append(T)
    if not timestamps:
        raise RasterFormatError(f"{path}: no trajectory samples")
    try:
        return Trajectory(np.array(timestamps), np.array(poses))
    except ValueError as exc:
        raise RasterFormatError(f"{path}: {exc}") from exc


def reference_rotation_from_quaternion(qx, qy, qz, qw):
    q = np.stack(np.broadcast_arrays(qx, qy, qz, qw), axis=-1).astype(float)
    _, e = np.frexp(np.max(np.abs(q), axis=-1, keepdims=True))
    qx, qy, qz, qw = np.moveaxis(np.ldexp(q, -e), -1, 0)
    n = qx * qx + qy * qy + qz * qz + qw * qw
    if np.any(n == 0):
        raise RasterFormatError("zero quaternion in trajectory file")
    s = 2.0 / n
    R = np.array([
        [1 - s * (qy * qy + qz * qz), s * (qx * qy - qz * qw), s * (qx * qz + qy * qw)],
        [s * (qx * qy + qz * qw), 1 - s * (qx * qx + qz * qz), s * (qy * qz - qx * qw)],
        [s * (qx * qz - qy * qw), s * (qy * qz + qx * qw), 1 - s * (qx * qx + qy * qy)],
    ])
    return np.moveaxis(R, (0, 1), (-2, -1))


def reference_quaternion_from_rotation(R):
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


def reference_write_tum(traj, path):
    with open(path, 'w') as fh:
        fh.write("# timestamp tx ty tz qx qy qz qw\n")
        for ts, T in zip(traj.timestamps, traj.poses):
            q = reference_quaternion_from_rotation(T[:3, :3])
            t = T[:3, 3]
            fh.write("%.6f %.9f %.9f %.9f %.9f %.9f %.9f %.9f\n"
                     % (ts, t[0], t[1], t[2], q[0], q[1], q[2], q[3]))


def rotations_on_every_branch(rng):
    """Rotations of any angle up to pi (about a third have trace <= 0),
    half turns and near half turns about the axes and diagonals (those
    about negative axes flip to qw >= 0 with exact zeros in q), and
    unstructured 3x3 matrices, which reach each branch with any signs."""
    axes = rng.normal(size=(600, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    twists = axes * rng.uniform(0.0, np.pi, (600, 1))
    for axis in ([1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, 0, 0], [0, -1, 0],
                 [0, 0, -1], [1, 1, 0], [1, 0, 1], [0, 1, 1], [1, 1, 1],
                 [1, -1, 1]):
        axis = np.array(axis, dtype=float) / np.linalg.norm(axis)
        for angle in (np.pi, np.pi - 1e-9, np.pi - 1e-4, 2 * np.pi / 3):
            twists = np.vstack([twists, axis * angle])
    rotations = se3.exp(np.hstack([np.zeros_like(twists), twists]))[:, :3, :3]
    return np.concatenate([rotations, [np.eye(3), np.diag([1.0, -1, -1]),
                                       np.diag([-1.0, 1, -1]),
                                       np.diag([-1.0, -1, 1])],
                           rng.normal(size=(300, 3, 3))])


def assert_same_associate(est, gt, max_dt):
    try:
        want = reference_associate(est, gt, max_dt)
    except InsufficientDataError:
        with pytest.raises(InsufficientDataError):
            trajectory.associate(est, gt, max_dt)
        return None
    got = trajectory.associate(est, gt, max_dt)
    assert got == want
    # the same pairs as the (K, 2) array that evaluate reads
    assert got.indices.tolist() == [list(p) for p in want]
    return got


def assert_same_scores(est, gt, pairs, delta=1):
    assert trajectory.rpe(est, gt, pairs, delta) == pytest.approx(
        reference_rpe(est, gt, pairs, delta), rel=1e-12, abs=0.0)
    want = reference_per_pose_scales(est, gt, pairs)
    got = trajectory._per_pose_scales(est, gt, pairs)
    assert got.shape == want.shape
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def at_times(timestamps):
    poses = np.tile(np.eye(4), (len(timestamps), 1, 1))
    poses[:, 0, 3] = np.arange(len(timestamps))
    return Trajectory(np.asarray(timestamps, dtype=float), poses)


def gappy_pair(seed, base=0.0, n=200):
    """100 Hz ground truth with two gaps and a 30 Hz jittered, noisy and
    rescaled estimate, with samples dropped."""
    rng = np.random.default_rng(seed)
    gt = trajectory.chain([(base + 0.01 * k, rng.normal(0.0, 0.02, 6))
                           for k in range(n)])
    keep = np.ones(n, dtype=bool)
    keep[40:55] = keep[120:124] = False
    gt = Trajectory(gt.timestamps[keep], gt.poses[keep])
    t_est = base + 0.004 + np.arange(n // 3) / 30.0
    t_est += rng.uniform(-0.004, 0.004, len(t_est))
    t_est = np.delete(t_est, [5, 17])
    nearest = np.clip(np.rint((t_est - base) / 0.01).astype(int), 0, n - 1)
    all_poses = trajectory.chain([(0.01 * k, x) for k, x in
                                  enumerate(rng.normal(0.0, 0.02, (n, 6)))]).poses
    poses = all_poses[nearest] @ se3.exp(rng.normal(0.0, 0.003, (len(t_est), 6)))
    poses[:, :3, 3] *= 0.8
    return Trajectory(t_est, poses), gt


# Line soups for read_tum against the line loop. Fields are repr floats
# whose squares neither overflow nor go subnormal, so no quaternion is zero
# and scaling one by a power of two keeps its rotation's bits, or tokens
# that float() and np.loadtxt treat differently or that no parser takes.
# The separators are whitespace to both, whitespace to neither, or a line
# break once the file is read. Timestamps mostly increase.
SOUP_TOKENS = ["1_0", "\u0668", "0x10", "nan", "-Infinity", "8#x", "#"]
SOUP_SEPARATORS = [" ", "\t", "\xa0", "\x0b", "\x1c", "\x00", "\r"]


@st.composite
def tum_soups(draw):
    # Each soup draws its own separators, tokens, token rate, field counts
    # and trailing-comment rate, so that many soups are well formed and
    # many are not. The fields come from one seeded Random per soup:
    # drawing each of them costs more than the reads it tests.
    separators = draw(st.lists(st.sampled_from(SOUP_SEPARATORS), min_size=1,
                               max_size=3, unique=True))
    tokens = draw(st.lists(st.sampled_from(SOUP_TOKENS), min_size=1,
                           max_size=3, unique=True))
    token_rate = draw(st.sampled_from([0, 4, 20]))
    counts = draw(st.sampled_from([[8], [7, 8, 8, 9]]))
    trailing = draw(st.sampled_from([0, 0, 4]))
    kinds = draw(st.lists(st.sampled_from(["data"] * 4 + ["blank", "comment"]),
                          max_size=12))
    rnd = draw(st.randoms(use_true_random=False))

    def separator():
        return rnd.choice(separators)

    def field(text):
        if token_rate and rnd.randrange(token_rate) == 0:
            return rnd.choice(tokens)
        return text

    def number():
        return repr(rnd.choice([-1.0, 1.0]) * 10.0 ** rnd.uniform(-6.0, 6.0))

    lines = []
    for k, kind in enumerate(kinds):
        if kind == "blank":
            lines.append("".join(separator()
                                 for _ in range(rnd.randrange(3))))
        elif kind == "comment":
            lead = separator() if rnd.random() < 0.5 else ""
            lines.append(lead + "#" + rnd.choice(
                ["", " timestamp tx ty tz qx qy qz qw", "1"]))
        else:
            fields = [field(repr(k + 0.25))]
            fields += [field(number())
                       for _ in range(rnd.choice(counts) - 1)]
            text = separator().join(fields)
            if rnd.random() < 0.5:
                text = separator() + text + separator()
            if trailing and rnd.randrange(trailing) == 0:
                # a trailing comment is a field to the line loop
                text += " #" + rnd.choice(["", "x", " note"])
            lines.append(text)
    return "\n".join(lines) + rnd.choice(["", "\n"])


def read_outcome(read, path):
    """A read's trajectory as raw bits, or its RasterFormatError message."""
    try:
        traj = read(path)
    except RasterFormatError as exc:
        return str(exc)
    return (traj.timestamps.view(np.uint64).tolist(),
            traj.poses.view(np.uint64).tolist())


class TestMatchesPerPoseLoops:
    # dyadic timestamps make exact dt ties, which the (dt, i, j) order breaks
    def test_associate_dyadic_ties(self):
        gt = at_times(np.arange(16) * 0.25)
        est = at_times(np.arange(15) * 0.25 + 0.125)
        for max_dt in (0.125, 0.25, 0.375, 1.0):
            pairs = assert_same_associate(est, gt, max_dt)
            assert pairs is not None

    # samples alternate est, gt, est, ... with gaps that shrink along the
    # chain: each sample's first candidate is the gap after it, so only the
    # last gap is first for both its samples, and the loop takes every
    # other gap from the end back
    @pytest.mark.parametrize("base", [0.0, 1.3e9])
    def test_associate_alternating_chain(self, base):
        n = 40
        gaps = (0.9 - np.arange(2 * n - 1) * (0.4 / (2 * n))) * 1e-3
        t = base + np.concatenate([[0.0], np.cumsum(gaps)])
        est, gt = at_times(t[0::2]), at_times(t[1::2])
        max_dt = 0.95e-3
        assert len(loop_candidates(est, gt, max_dt)) == 2 * n - 3
        pairs = assert_same_associate(est, gt, max_dt)
        assert pairs == [(k, k) for k in range(n)]

    # dt ties at an estimate and at a ground-truth sample: the (est, gt)
    # order decides, and the first-for-both pass leaves the loop a chain
    @pytest.mark.parametrize("est_ticks,gt_ticks,window", [
        ([1, 3, 5, 7], [0, 2, 4, 6, 8], 1),
        ([0, 2, 4, 6, 8], [1, 3, 5, 7], 1),
        ([0, 2, 3, 5, 8], [1, 4, 6, 7], 2),
        ([2, 4, 6], [0, 1, 3, 5, 7, 8], 2),
    ])
    def test_associate_ties_at_both_ends(self, est_ticks, gt_ticks, window):
        est = at_times(np.array(est_ticks) / 64.0)
        gt = at_times(np.array(gt_ticks) / 64.0)
        assert loop_candidates(est, gt, window / 64.0)
        assert_same_associate(est, gt, window / 64.0)

    # 30 Hz estimates against 100 Hz ground truth with gaps, as in the
    # benchmark: the first-for-both pass takes all pairs but those of the
    # one candidate left to the loop (seeds 3 and 9 of the first 12 leave
    # one; the others none)
    @pytest.mark.parametrize("seed", [3, 9])
    def test_associate_bench_like_sequence(self, seed):
        est, gt = gappy_pair(seed, 1305031100.0, n=900)
        assert len(loop_candidates(est, gt)) == 1
        pairs = assert_same_associate(est, gt, 0.02)
        assert len(pairs) > 250

    @pytest.mark.parametrize("base", [0.0, 3.0, 1.3e9])
    def test_associate_at_max_dt(self, base):
        max_dt = 0.02
        te = base + 0.5
        tg = te - max_dt
        d = abs(te - tg)
        gt = at_times([tg - 1.0, tg, te + 1.0])
        est = at_times([tg - 1.0, te, te + 1.0])
        for limit in (d, np.nextafter(d, 0.0), np.nextafter(d, 1.0)):
            pairs = assert_same_associate(est, gt, limit)
            assert ((1, 1) in pairs) == (d <= limit)
        # the ground-truth sample one ulp inside and one ulp outside
        for shifted in (np.nextafter(tg, np.inf), np.nextafter(tg, -np.inf)):
            gt_shifted = at_times([tg - 1.0, shifted, te + 1.0])
            pairs = assert_same_associate(est, gt_shifted, d)
            assert ((1, 1) in pairs) == (abs(te - shifted) <= d)

    # tg - te rounds down to max_dt while te + max_dt rounds below tg: a
    # search window of exactly max_dt would miss the pair
    def test_associate_window_covers_its_rounding(self):
        te, tg, max_dt = 0.02390086056587607, 0.12390086056587608, 0.1
        assert tg > te + max_dt and tg - te <= max_dt
        pairs = assert_same_associate(at_times([te - 1.0, te]),
                                      at_times([te - 1.0, tg]), max_dt)
        assert pairs == [(0, 0), (1, 1)]

    @pytest.mark.parametrize("base", [0.0, 1.3e9])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_gaps_and_rpe_delta(self, base, seed):
        est, gt = gappy_pair(seed, base)
        for max_dt in (0.003, 0.005, 0.02):
            pairs = assert_same_associate(est, gt, max_dt)
            for delta in (1, 2, 5):
                assert_same_scores(est, gt, pairs, delta)
        report = trajectory.evaluate(est, gt, rpe_delta=3)
        pairs = reference_associate(est, gt)
        assert report.matched_count == len(pairs)
        assert (report.rpe_trans, report.rpe_rot_deg) == pytest.approx(
            reference_rpe(est, gt, pairs, 3), rel=1e-12, abs=0.0)

    def test_identical_relative_motions_score_exactly_zero(self):
        est, gt = gappy_pair(2)
        pairs = trajectory.associate(est, gt)
        assert trajectory.rpe(gt, gt, [(j, j) for _, j in pairs]) == (0.0, 0.0)
        # the estimate copies the ground truth's matched poses from the
        # tenth pair on, so only the steps before it score
        poses = est.poses.copy()
        for i, j in pairs[10:]:
            poses[i] = gt.poses[j]
        copied = Trajectory(est.timestamps, poses)
        assert_same_scores(copied, gt, pairs)
        ie = [i for i, _ in pairs]
        assert trajectory.rpe(copied, gt, pairs[10:]) == (0.0, 0.0)
        assert trajectory.rpe(copied, gt, pairs) != (0.0, 0.0)
        assert len(ie) > 12

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.integers(0, 400), min_size=1, max_size=40, unique=True),
           st.lists(st.integers(0, 400), min_size=1, max_size=40, unique=True),
           st.sampled_from([0.0, 1.3e9]),
           st.sampled_from([1, 3, 4, 7, 16]))
    def test_associate_property(self, est_ticks, gt_ticks, base, window):
        # ticks of 1/64 s: exact, tie-prone distances at any base
        est = at_times(base + np.sort(est_ticks) / 64.0)
        gt = at_times(base + np.sort(gt_ticks) / 64.0)
        assert_same_associate(est, gt, window / 64.0)

    def test_quaternion_stack_matches_per_matrix(self):
        R = rotations_on_every_branch(np.random.default_rng(49))
        d0, d1, d2 = R[:, 0, 0], R[:, 1, 1], R[:, 2, 2]
        trace = d0 + d1 + d2
        x_big = (trace <= 0) & (d0 > d1) & (d0 > d2)
        y_big = (trace <= 0) & ~x_big & (d1 > d2)
        z_big = (trace <= 0) & ~x_big & ~y_big
        assert min(x_big.sum(), y_big.sum(), z_big.sum()) > 50
        got = trajectory.quaternion_from_rotation(R)
        want = np.array([reference_quaternion_from_rotation(M) for M in R])
        # bit for bit, signed zeros too
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        one = trajectory.quaternion_from_rotation(R[0])
        assert one.shape == (4,)
        assert np.array_equal(one.view(np.uint64), want[0].view(np.uint64))

    def test_rotation_stack_matches_stacked_reference(self):
        rng = np.random.default_rng(53)
        q = rng.normal(size=(400, 4))
        q[:100] *= 10.0 ** rng.uniform(-300, 300, (100, 1))
        q[100:200] *= 10.0 ** rng.uniform(-300, 300, (100, 4))
        signed = rng.random((200, 4)) < 0.4
        q[200:][signed] = np.where(rng.random(signed.sum()) < 0.5, 0.0, -0.0)
        q[200:][np.all(signed, axis=1), 3] = 1.0
        for args in (q.T, q[0], (q[:, 0], 0.0, -0.0, 1.0),
                     (0.5, 0.5, 0.5, -0.5)):
            got = trajectory.rotation_from_quaternion(*args)
            want = reference_rotation_from_quaternion(*args)
            assert got.shape == want.shape
            # bit for bit, signed zeros too
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        for zero in ((0.0, -0.0, 0.0, 0.0),
                     ([0.5, -0.0, 1.0], 0.0, 0.0, [1.0, 0.0, 2.0])):
            with pytest.raises(RasterFormatError, match="zero quaternion"):
                trajectory.rotation_from_quaternion(*zero)

    def test_write_tum_matches_pose_loop(self, tmp_path):
        rng = np.random.default_rng(50)
        R = rotations_on_every_branch(rng)
        poses = np.tile(np.eye(4), (len(R), 1, 1))
        poses[:, :3, :3] = R
        poses[:, :3, 3] = rng.normal(size=(len(R), 3)) * 10.0
        traj = Trajectory(1.3e9 + 0.01 * np.arange(len(R)), poses)
        trajectory.write_tum(traj, tmp_path / "got.txt")
        reference_write_tum(traj, tmp_path / "want.txt")
        assert (tmp_path / "got.txt").read_bytes() \
            == (tmp_path / "want.txt").read_bytes()

    def test_read_tum_matches_line_loop(self, tmp_path):
        rng = np.random.default_rng(46)
        path = tmp_path / "traj.txt"
        lines = ["# timestamp tx ty tz qx qy qz qw", ""]
        for k in range(50):
            q = rng.normal(size=4) * rng.choice([1.0, 3.7, 1e-3, 250.0])
            t = rng.normal(size=3)
            lines.append(" ".join(repr(float(v)) for v in
                                  [1.3e9 + 0.01 * k, *t, *q]))
        path.write_text("\n".join(lines) + "\n")
        got = trajectory.read_tum(path)
        want = reference_read_tum(path)
        assert np.array_equal(got.timestamps, want.timestamps)
        assert np.array_equal(got.poses, want.poses)

    @pytest.mark.parametrize("lines", [
        ["0 0 0 0 0 0 0 1", "1 0 0 0 0 0 1", "2 0 0 nan 0 0 0 1"],
        ["0 0 0 0 0 0 0 1", "1 0 0 nan 0 0 0 1", "2 0 0 0 0 0 1"],
        ["0 0 0 0 0 0 0 1", "1 0 x 0 0 0 0 1", "2 0 0 inf 0 0 0 1"],
        ["0 0 0 0 0 0 0 1", "1 0 0 inf 0 0 0 1", "2 0 x 0 0 0 0 1"],
        ["0 0 0 0 0 0 0 1", "1 0 0 0 0 nan inf 1", "2 0 0 0 0 0 0 1"],
        ["0 0 0 0 0 0 0 1", "1 0 0 0 0 0 0 1 9"],
        ["# nothing", ""],
        ["1 0 0 0 0 0 0 1", "0 0 0 0 0 0 0 1"],
        ["0 0 0 0 0 0 0 1", "1 0 0 0 0 0 0 0"],
    ], ids=["count-after-nan", "nan-before-count", "parse-before-inf",
            "inf-before-parse", "first-field-of-line", "nine-fields",
            "no-samples", "decreasing", "zero-quaternion"])
    def test_read_tum_faults_match_line_loop(self, tmp_path, lines):
        path = tmp_path / "traj.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(RasterFormatError) as want:
            reference_read_tum(path)
        with pytest.raises(RasterFormatError) as got:
            trajectory.read_tum(path)
        assert str(got.value) == str(want.value)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(tum_soups())
    @example("0.25 1_0 2 3 0 0 0 1\n1.25 1 2 3 0 0 \u0668 1\n")
    @example("0.25 1 2 3 0 0 0\x001\n1.25 1 2 3 0 0 0\r1\n")
    @example("0.25 1 2 3 0 0 0 8#x\n1.25 1 2 3 0 0 0 1\n")
    @example("0.25 1 2 3 0 0 0 1 #\n1.25 1 2 3 0 0 0 1 # note\n")
    def test_read_tum_line_soups(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("soup") / "traj.txt"
        path.write_text(text, encoding="utf-8")
        assert read_outcome(trajectory.read_tum, path) \
            == read_outcome(reference_read_tum, path)

    def test_well_formed_file_skips_line_loop(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(51)
        traj = trajectory.chain([(1.3e9 + 0.01 * k, rng.normal(0.0, 0.02, 6))
                                 for k in range(3000)])
        path = tmp_path / "traj.txt"
        trajectory.write_tum(traj, path)
        want = read_outcome(reference_read_tum, path)

        def line_loop(path, lines):
            raise AssertionError("a well-formed file reached the line loop")
        monkeypatch.setattr(trajectory, "_tum_lines", line_loop)
        assert read_outcome(trajectory.read_tum, path) == want
