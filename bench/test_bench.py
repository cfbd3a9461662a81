"""Tests for the benchmark's own arithmetic: the tail percentile, self time
from nested spans, and the trajectory oracle against flowpose itself."""

import contextlib
import io

import numpy as np
import pytest

import oracle
import tracing
from flowpose import cli, se3, trajectory
from flowpose.trajectory import Trajectory


@pytest.mark.parametrize('n, pct, rank', [(11, 9, 1), (20, 50, 10),
                                          (46, 78, 36), (100, 90, 90),
                                          (1000, 99, 990)])
def test_tail_rank_examples(n, pct, rank):
    assert tracing.tail_rank(n) == (pct, rank)


def test_tail_rank_is_highest_percentile_with_ten_beyond():
    assert tracing.tail_rank(10) == (None, None)
    for n in range(11, 600):
        pct, rank = tracing.tail_rank(n)
        assert n - rank >= 10
        # one percentile higher leaves fewer than ten samples beyond it
        assert n - -(-(pct + 1) * n // 100) < 10


def test_tail_value_picks_nearest_rank():
    samples = list(range(46, 0, -1))
    assert tracing.tail_value(samples) == (78, 36)


def _span(name, start, end, parent, op=0, counts=None):
    return [name, start, end, parent, op, counts]


def test_self_times_subtract_direct_children_only():
    spans = [_span('root', 0.0, 10.0, -1),
             _span('a', 1.0, 4.0, 0),
             _span('a.inner', 2.0, 3.0, 1),
             _span('b', 5.0, 9.0, 0)]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert sum(tracing.self_times(spans)) == 10.0


def test_layer_totals_filters_ops_and_sums_counts():
    spans = [_span('root', 0.0, 5.0, -1, op=0),
             _span('leaf', 1.0, 2.0, 0, op=0, counts={'pairs': 3}),
             _span('leaf', 2.0, 4.0, 0, op=0, counts={'pairs': 4}),
             _span('root', 6.0, 7.0, -1, op='ate')]
    totals = tracing.layer_totals(spans, {0})
    assert totals['root'] == {'self_s': 2.0, 'total_s': 5.0, 'calls': 1}
    assert totals['leaf'] == {'self_s': 3.0, 'total_s': 3.0, 'calls': 2,
                              'pairs': 7}


def _pair(seed, n=60):
    """A small ground truth and a jittered, scaled, noisy estimate with
    dropped samples, a ground-truth gap and tied timestamp distances."""
    rng = np.random.default_rng(seed)
    ts = np.arange(n) * 0.01
    gt = trajectory.chain([(t, rng.normal(0.0, 0.02, 6)) for t in ts])
    keep = np.ones(n, dtype=bool)
    keep[20:26] = False
    gt = Trajectory(gt.timestamps[keep], gt.poses[keep])
    idx = np.arange(1, n - 1, 3)
    t_est = ts[idx] + rng.uniform(-0.004, 0.004, len(idx))
    t_est[0] = 0.015                     # equidistant from two gt samples
    poses = [T @ se3.exp(rng.normal(0.0, 0.005, 6)) for T in
             trajectory.chain([(t, rng.normal(0.0, 0.02, 6)) for t in ts]).poses[idx]]
    poses = np.array(poses)
    poses[:, :3, 3] *= 0.7
    return Trajectory(t_est, poses), gt


@pytest.mark.parametrize('seed', [0, 1, 2])
def test_oracle_associate_matches_program(seed):
    est, gt = _pair(seed)
    for max_dt in (0.004, 0.006, 0.02):
        want = trajectory.associate(est, gt, max_dt)
        got = oracle.associate(est.timestamps, gt.timestamps, max_dt)
        assert [tuple(p) for p in got.tolist()] == want


@pytest.mark.parametrize('seed', [0, 1, 2])
def test_oracle_matches_evaluate_and_cli(tmp_path, seed):
    est, gt = _pair(seed)
    est_path, gt_path = str(tmp_path / 'est.txt'), str(tmp_path / 'gt.txt')
    trajectory.write_tum(est, est_path)
    trajectory.write_tum(gt, gt_path)
    want = oracle.evaluate(est_path, gt_path)

    report = trajectory.evaluate(trajectory.read_tum(est_path),
                                 trajectory.read_tum(gt_path))
    q = [float(np.min(report.per_pose_scales)),
         *np.percentile(report.per_pose_scales, [25, 50, 75]),
         float(np.max(report.per_pose_scales))]
    assert want['matched'] == report.matched_count
    assert np.allclose([want['ate'], want['rpe_trans'], want['rpe_rot_deg']],
                       [report.ate_rmse, report.rpe_trans, report.rpe_rot_deg],
                       rtol=1e-12, atol=0.0)
    assert np.allclose(want['scales'], q, rtol=1e-12, atol=0.0)

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(['eval-traj', '--est', est_path, '--gt', gt_path]) == 0
    assert oracle.agrees(oracle.parse_eval_output(out.getvalue()), want)


def test_tracer_restores_functions_and_self_times_sum_to_root():
    import flowpose
    est, gt = _pair(3)
    originals = {(m, f): getattr(getattr(flowpose, m), f)
                 for m, f in tracing.WRAPPED if m != 'cli'}
    tracer = tracing.Tracer(flowpose)
    with tracer.active(0):
        flowpose.trajectory.evaluate(est, gt)
    for (m, f), fn in originals.items():
        assert getattr(getattr(flowpose, m), f) is fn
    names = [s[0] for s in tracer.spans]
    assert names[0] == 'trajectory.evaluate'
    assert {'trajectory.associate', 'trajectory.rpe', 'se3.inverse'} <= set(names)
    root = tracer.spans[0]
    assert sum(tracing.self_times(tracer.spans)) == pytest.approx(
        root[2] - root[1], rel=1e-9)
    assert tracer.spans[names.index('trajectory.associate')][5] == {
        'pairs': len(trajectory.associate(est, gt))}
