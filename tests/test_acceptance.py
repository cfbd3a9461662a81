"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see per-criterion
lines.
"""

import time

import numpy as np
import pytest

from flowpose import (camera, cli, infomat, losses, se3, solver, synthetic,
                      trajectory)
from flowpose.camera import Intrinsics
from flowpose.solver import FlowField, SolverConfig
from flowpose.trajectory import Trajectory


def report(name):
    print(f"ACCEPTANCE {name}: PASS")


K64 = Intrinsics(fx=100.0, fy=100.0, cx=32.0, cy=24.0, width=64, height=48)


def exact_flow_field(depth, xi, K):
    flow, mask = camera.flow_from_pose(depth, se3.exp(xi), K)
    flow[~mask] = np.nan
    return FlowField(flow=camera.flow_normalised_to_pixels(flow, K),
                     info=np.zeros(depth.shape + (3,)))


def test_01_jacobian_matches_finite_differences():
    start = time.perf_counter()
    rng = np.random.default_rng(100)
    h = 1e-6
    n = 1000
    u = rng.uniform(-1, 1, n)
    v = rng.uniform(-1, 1, n)
    q = rng.uniform(0.1, 10, n)
    pts = np.stack([u, v, np.ones(n), q], axis=-1)
    for j in range(6):
        e = np.zeros(6)
        e[j] = h
        Tp = se3.exp(e)[:3]
        Tm = se3.exp(-e)[:3]
        yp = pts @ Tp.T
        ym = pts @ Tm.T
        fp = yp[:, :2] / yp[:, 2:3] - pts[:, :2]
        fm = ym[:, :2] / ym[:, 2:3] - pts[:, :2]
        fd = (fp - fm) / (2 * h)
        analytic = np.stack([solver.jacobian_row(u[i], v[i], q[i])[:, j]
                             for i in range(n)])
        denom = np.maximum(np.abs(fd), 1e-3)
        assert np.max(np.abs(analytic - fd) / denom) < 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report("1 jacobian-vs-finite-differences")


def test_02_information_matrix_positive_definite():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    p = rng.uniform(-20, 20, (1_000_000, 3))
    c_x, c_y, c_xy = infomat.build(p[:, 0], p[:, 1], p[:, 2])
    assert int((c_x <= 0).sum()) == 0
    assert int((c_y <= 0).sum()) == 0
    # 2x2 symmetric with positive trace: both eigenvalues positive iff
    # det > 0, checked via the stable log-determinant path
    log_dets = infomat.log_det(p[:, 0], p[:, 1], p[:, 2])
    assert int((np.exp(log_dets) <= 0).sum()) == 0
    wide = rng.uniform(-80, 80, (10_000, 3))
    assert np.all(np.isfinite(infomat.log_det(wide[:, 0], wide[:, 1],
                                              wide[:, 2])))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report("2 information-matrix-positive-definite")


def test_03_flow_nll_gradients_match_finite_differences():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    n = 10_000
    rx, ry = rng.uniform(-2, 2, (2, n))
    a, b, g = rng.uniform(-2, 2, (3, n))
    analytic = np.stack(infomat.nll_gradients(rx, ry, a, b, g))
    h = 1e-6
    args = [rx, ry, a, b, g]
    fd = []
    for k in range(5):
        plus = list(args)
        minus = list(args)
        plus[k] = args[k] + h
        minus[k] = args[k] - h
        fd.append((infomat.flow_nll(*plus) - infomat.flow_nll(*minus)) / (2 * h))
    fd = np.stack(fd)
    denom = np.maximum(np.abs(fd), 1e-3)
    assert np.max(np.abs(analytic - fd) / denom) < 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report("3 flow-nll-gradient-check")


def _solver_grid_specs():
    rng = np.random.default_rng(103)
    depth_models = [
        synthetic.ConstantDepth(2.0),
        synthetic.PlaneDepth(normal=(0.1, -0.05, 1.0), offset=2.0),
        synthetic.SmoothRandomDepth(seed=11, amplitude=0.4),
    ]
    specs = []
    for i in range(50):
        xi = rng.uniform(-1, 1, 6)
        xi = xi / np.linalg.norm(xi) * rng.uniform(0.02, 0.1)
        specs.append(synthetic.SceneSpec(
            width=64, height=48, motion=xi,
            depth_model=depth_models[i % 3], seed=200 + i))
    return specs


def test_04_solver_exact_recovery_grid():
    start = time.perf_counter()
    for spec in _solver_grid_specs():
        scene = synthetic.render(spec)
        res = solver.solve(scene.depth, scene.flow_field, spec.intrinsics)
        assert res.converged
        assert res.iterations <= 10
        assert np.linalg.norm(res.xi - spec.motion) < 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report("4 solver-exact-recovery-50-spec-grid")


def test_05_confidence_ablation():
    start = time.perf_counter()
    rng = np.random.default_rng(104)
    errs_conf, errs_noconf = [], []
    for i in range(20):
        xi = rng.uniform(-1, 1, 6)
        xi = xi / np.linalg.norm(xi) * rng.uniform(0.02, 0.08)
        spec = synthetic.SceneSpec(
            width=64, height=48, motion=xi,
            outlier_fraction=0.2, outlier_magnitude=50.0, seed=300 + i)
        scene = synthetic.render(spec)
        with_conf = solver.solve(scene.depth, scene.flow_field, spec.intrinsics)
        without = solver.solve(scene.depth, scene.flow_field, spec.intrinsics,
                               SolverConfig(use_confidence=False))
        errs_conf.append(np.linalg.norm(with_conf.xi - xi))
        errs_noconf.append(np.linalg.norm(without.xi - xi))
    assert np.median(errs_noconf) >= 10 * np.median(errs_conf)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report("5 confidence-ablation-10x")


def test_06_iteration_ablation_rotation_dominant():
    rng = np.random.default_rng(105)
    wins = 0
    for i in range(20):
        rot = rng.uniform(-1, 1, 3)
        rot = rot / np.linalg.norm(rot) * rng.uniform(0.05, 0.09)
        xi = np.concatenate([rng.uniform(-0.005, 0.005, 3), rot])
        spec = synthetic.SceneSpec(width=64, height=48, motion=xi,
                                   seed=400 + i)
        scene = synthetic.render(spec)
        full = solver.solve(scene.depth, scene.flow_field, spec.intrinsics)
        single = solver.solve(scene.depth, scene.flow_field, spec.intrinsics,
                              SolverConfig(max_iterations=1))
        if (np.linalg.norm(full.xi - xi) < np.linalg.norm(single.xi - xi)):
            wins += 1
    assert wins >= 18
    report("6 iteration-ablation-convergence-beats-single")


def test_07_trajectory_metrics_oracle():
    rng = np.random.default_rng(106)
    n = 100
    ts = np.arange(n) * 0.1
    poses = []
    current = np.eye(4)
    for _ in range(n):
        current = current @ se3.exp(rng.uniform(-0.05, 0.05, 6))
        poses.append(current)
    gt = Trajectory(ts, np.array(poses))
    perturb = [se3.exp(rng.uniform(-0.01, 0.01, 6)) for _ in range(n)]
    est = Trajectory(ts, np.array([p @ d for p, d in zip(gt.poses, perturb)]))

    pairs = trajectory.associate(est, gt)
    aligned, alignment = trajectory.align_and_scale(est, gt, pairs)
    got_ate = trajectory.ate(aligned, gt, pairs)
    got_rpe_t, got_rpe_r = trajectory.rpe(est, gt, pairs, delta=1)

    # brute-force direct definitions
    pe = aligned.positions()
    pg = gt.positions()
    expect_ate = np.sqrt(np.mean([np.sum((pe[i] - pg[i]) ** 2)
                                  for i in range(n)]))
    terrs, rerrs = [], []
    for i in range(n - 1):
        rel_gt = np.linalg.inv(gt.poses[i]) @ gt.poses[i + 1]
        rel_est = np.linalg.inv(est.poses[i]) @ est.poses[i + 1]
        E = np.linalg.inv(rel_gt) @ rel_est
        terrs.append(np.sum(E[:3, 3] ** 2))
        angle = np.degrees(np.arccos(
            np.clip((np.trace(E[:3, :3]) - 1) / 2, -1, 1)))
        rerrs.append(angle ** 2)
    assert abs(got_ate - expect_ate) < 1e-9
    assert abs(got_rpe_t - np.sqrt(np.mean(terrs))) < 1e-9
    assert abs(got_rpe_r - np.sqrt(np.mean(rerrs))) < 1e-9

    # identity trajectory scores exactly zero
    self_report = trajectory.evaluate(gt, gt)
    assert self_report.ate_rmse < 1e-12
    assert self_report.rpe_trans == 0.0
    assert self_report.rpe_rot_deg == 0.0

    # uniform half-scale estimate
    half_poses = gt.poses.copy()
    half_poses[:, :3, 3] *= 0.5
    half = Trajectory(ts, half_poses)
    pairs_h = trajectory.associate(half, gt)
    aligned_h, alignment_h = trajectory.align_and_scale(half, gt, pairs_h)
    assert trajectory.ate(aligned_h, gt, pairs_h) < 1e-9
    assert abs(np.median(alignment_h.per_pose_scales) - 2.0) < 1e-9
    report("7 trajectory-metrics-oracle")


def test_08_loss_unit_anchors():
    # berHu branch continuity at |d| = c, exact for a power-of-two cutoff
    c = 0.5
    assert (c * c + c * c) / (2 * c) == c
    # berHu on {0.5, 2, 5} with c = 1
    gt = np.ones((1, 3))
    pred = gt + np.array([[0.5, 2.0, 5.0]])
    assert losses.berhu(pred, gt) == pytest.approx(16.0 / 3.0, abs=1e-9)
    # smoothness of a unit-slope plane
    plane = np.tile(np.arange(10, dtype=float), (8, 1))
    assert losses.smoothness(plane) == pytest.approx(1.0, abs=1e-12)
    # photometric losses vanish on perfect-fit configurations
    spec = synthetic.SceneSpec(
        width=64, height=48, motion=[0.02, -0.01, 0.01, 0.003, -0.004, 0.006],
        depth_model=synthetic.PlaneDepth(normal=(0.05, 0.02, 1.0), offset=2.0),
        texture_model=synthetic.SmoothRandomTexture(seed=77), seed=77)
    scene = synthetic.render(spec)
    assert losses.pose_photometric(scene.image_1, scene.image_2, scene.depth,
                                   spec.motion, spec.intrinsics) < 1e-6
    baseline = 0.1
    stereo = synthetic.SceneSpec(
        width=64, height=48, motion=[-baseline, 0, 0, 0, 0, 0],
        depth_model=synthetic.ConstantDepth(2.0),
        texture_model=synthetic.SmoothRandomTexture(seed=78), seed=78)
    st_scene = synthetic.render(stereo)
    assert losses.photometric_lr(st_scene.image_1, st_scene.image_2,
                                 st_scene.depth, st_scene.depth,
                                 baseline, stereo.intrinsics) < 1e-6
    report("8 loss-unit-anchors")


def test_09_lie_group_suite():
    def series_exp(M, terms=30):
        out = np.eye(4)
        term = np.eye(4)
        for k in range(1, terms):
            term = term @ M / k
            out = out + term
        return out

    G = se3.generators()
    rng = np.random.default_rng(107)
    xis = rng.uniform(-1, 1, (10_000, 6))
    norms = np.linalg.norm(xis[:, 3:], axis=1)
    too_big = norms > np.pi - 0.1
    xis[too_big, 3:] *= ((np.pi - 0.1) / norms[too_big])[:, None]
    for xi in xis:
        T = se3.exp(xi)
        assert np.linalg.norm(se3.log(T) - xi) < 1e-9
    for xi in xis[:1000]:
        M = np.einsum('j,jkl->kl', xi, G)
        assert np.max(np.abs(se3.exp(xi) - series_exp(M))) < 1e-12
    eps = 1e-6
    for j in range(6):
        e = np.zeros(6)
        e[j] = eps
        fd = (se3.exp(e) - se3.exp(-e)) / (2 * eps)
        assert np.max(np.abs(fd - G[j])) < 1e-8
    report("9 lie-group-suite")


def test_10_reproducibility(tmp_path, capsys):
    argv = ["synth", "--width", "48", "--height", "36",
            "--depth", "plane:0.1,-0.05,1.0,2.0",
            "--motion", "0.02,-0.01,0.01,0.004,-0.003,0.006",
            "--noise-sigma", "0.3", "--outlier-fraction", "0.1",
            "--outlier-magnitude", "20", "--seed", "9"]
    assert cli.main(argv + ["--out", str(tmp_path / "a")]) == 0
    assert cli.main(argv + ["--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    m_a = (tmp_path / "a" / "manifest.txt").read_text()
    m_b = (tmp_path / "b" / "manifest.txt").read_text()
    assert m_a == m_b

    solve_argv = ["solve", "--depth", str(tmp_path / "a" / "depth.engr"),
                  "--flow", str(tmp_path / "a" / "flow.engr"),
                  "--intrinsics", str(tmp_path / "a" / "intrinsics.txt")]
    assert cli.main(list(solve_argv)) == 0
    out1 = capsys.readouterr().out
    assert cli.main(list(solve_argv)) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2
    report("10 reproducibility")
