import inspect
import sys
import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from flowpose import camera, infomat, se3, solver, synthetic
from flowpose.camera import Intrinsics
from flowpose.errors import (DegenerateGeometryError, InsufficientDataError,
                             RasterFormatError)
from flowpose.solver import FlowField


@pytest.fixture
def K():
    return Intrinsics(fx=100.0, fy=100.0, cx=32.0, cy=24.0, width=64, height=48)


def exact_flow_field(depth, xi, K):
    flow, mask = camera.flow_from_pose(depth, se3.exp(xi), K)
    flow[~mask] = np.nan
    return FlowField(flow=flow, info=np.zeros(depth.shape + (3,)))


class TestFlowField:
    def test_valid_mask_matches_channel_reduction(self):
        rng = np.random.default_rng(34)
        flow = rng.normal(size=(12, 16, 2))
        info = rng.normal(size=(12, 16, 3))
        for raster in (flow, info):
            for c in range(raster.shape[-1]):
                for bad in (np.nan, np.inf, -np.inf):
                    raster[rng.integers(12), rng.integers(16), c] = bad
        ff = FlowField(flow=flow, info=info)
        want = np.all(np.isfinite(flow), axis=-1) \
            & np.all(np.isfinite(info), axis=-1)
        assert ff.valid.dtype == bool
        assert np.array_equal(ff.valid, want)
        assert 0 < want.sum() < want.size - 9

    @pytest.mark.parametrize("flow_shape, info_shape", [
        ((12, 16), (12, 16, 3)),
        ((12, 16, 1), (12, 16, 3)),
        ((12, 16, 3), (12, 16, 3)),
        ((12, 16, 2), (12, 16, 2)),
        ((12, 16, 2), (12, 16, 5)),
    ], ids=["flow-2d", "flow-1ch", "flow-3ch", "info-2ch", "info-5ch"])
    def test_rejects_other_shapes(self, flow_shape, info_shape):
        with pytest.raises(ValueError) as exc:
            FlowField(flow=np.zeros(flow_shape), info=np.zeros(info_shape))
        message = str(exc.value)
        assert "\n" not in message
        for shape in (flow_shape, info_shape):
            assert f"{shape}" in message

    def test_validity_is_not_an_argument(self):
        # a pixel without a measurement holds NaN flow; there is no mask
        with pytest.raises(TypeError):
            FlowField(flow=np.zeros((12, 16, 2)), info=np.zeros((12, 16, 3)),
                      valid=np.ones((12, 16), bool))

    def test_three_channel_flow_cannot_reach_solve(self, K):
        # the solver used to read the third channel's column as flow and
        # return converged=True with a twist near 0.0012, -0.0004, ...
        motion = [0.02, -0.01, 0.01, 0.004, -0.003, 0.006]
        scene = synthetic.render(synthetic.SceneSpec(
            width=K.width, height=K.height, intrinsics=K, motion=motion,
            depth_model=synthetic.PlaneDepth(normal=(0.1, -0.05, 1.0),
                                             offset=2.0)))
        ff = scene.flow_field
        assert np.allclose(solver.solve(scene.depth, ff, K).xi, motion,
                           atol=1e-9)
        flow3 = np.concatenate([ff.flow, ff.info[..., :1]], axis=-1)
        with pytest.raises(ValueError, match=r"\(48, 64, 3\)"):
            solver.solve(scene.depth, FlowField(flow=flow3, info=ff.info), K)

    def test_valid_follows_values_set_after_construction(self):
        # a measurement removed after construction is skipped: a mask kept
        # from construction counted the NaN pixel, and its NaN flow made
        # the normal equations non-finite
        K = Intrinsics(fx=120.0, fy=120.0, cx=48.0, cy=36.0, width=96,
                       height=72)
        scene = synthetic.render(synthetic.SceneSpec(
            width=96, height=72, intrinsics=K, seed=5, noise_sigma=0.3,
            motion=[0.02, -0.01, 0.01, 0.004, -0.003, 0.006]))
        ff = scene.flow_field
        assert ff.valid.all()
        ff.flow[10, 10, 0] = np.nan
        ff.info[20, 30, 1] = np.inf
        assert np.count_nonzero(~ff.valid) == 2
        assert not ff.valid[10, 10] and not ff.valid[20, 30]
        got = solver.solve(scene.depth, ff, K)
        fresh = FlowField(flow=ff.flow.copy(), info=ff.info.copy())
        want = solver.solve(scene.depth, fresh, K)
        assert got.converged and want.converged
        assert got.xi.tobytes() == want.xi.tobytes()
        assert np.array_equal(got.problem.index, want.problem.index)
        assert len(got.problem.index) == ff.valid.size - 2

    def test_raster_round_trip(self):
        rng = np.random.default_rng(36)
        flow = rng.normal(size=(12, 16, 2))
        flow[3, 4] = np.nan
        info = rng.normal(size=(12, 16, 3))
        info[5, 6, 1] = np.inf
        ff = FlowField(flow=flow, info=info)
        back = FlowField.from_raster(
            np.concatenate([ff.flow, ff.info], axis=-1))
        for got, want in [(back.flow, ff.flow), (back.info, ff.info),
                          (back.valid, ff.valid)]:
            assert got.tobytes() == want.tobytes()
        two = FlowField.from_raster(flow)
        assert two.flow.tobytes() == flow.tobytes()
        assert two.info.shape == (12, 16, 3) and not two.info.any()
        assert np.array_equal(two.valid, np.isfinite(flow).all(axis=-1))

    def test_float32_is_kept_and_other_types_made_float64(self):
        # float32 is what read_raster returns: no copy is made of it
        raster = np.random.default_rng(37).normal(size=(12, 16, 5))
        data = raster.astype(np.float32)
        ff = FlowField.from_raster(data)
        assert ff.flow.dtype == ff.info.dtype == np.float32
        assert ff.flow.base is data and ff.info.base is data
        two = FlowField.from_raster(data[..., :2])
        assert two.info.dtype == np.float32 and not two.info.any()
        for other in (raster.astype(np.float16), np.rint(raster).astype(int),
                      raster.tolist()):
            ff = FlowField.from_raster(np.asarray(other))
            assert ff.flow.dtype == ff.info.dtype == np.float64
            assert np.array_equal(
                np.concatenate([ff.flow, ff.info], axis=-1),
                np.asarray(other).astype(float))


class TestDepthShape:
    @pytest.mark.parametrize("channels", [1, 2])
    @pytest.mark.parametrize("call", ["prepare", "solve"])
    def test_multichannel_depth_is_format_error(self, K, call, channels):
        depth = np.full((K.height, K.width, channels), 2.0)
        ff = FlowField(flow=np.zeros((K.height, K.width, 2)),
                       info=np.zeros((K.height, K.width, 3)))
        run = {"prepare": lambda: solver.prepare(depth, ff, K),
               "solve": lambda: solver.solve(depth, ff, K)}[call]
        with pytest.raises(RasterFormatError,
                           match="^depth raster must have a single channel$"):
            run()


class TestComputeResiduals:
    def test_zero_everything(self, K):
        depth = np.full((K.height, K.width), 2.0)
        ff = FlowField(flow=np.zeros((K.height, K.width, 2)),
                       info=np.zeros((K.height, K.width, 3)))
        problem = solver.prepare(depth, ff, K)
        residuals = solver.compute_residuals(problem, np.zeros(6))
        assert residuals.shape == (K.height, K.width, 2)
        assert np.count_nonzero(residuals) == 0
        _, report, _ = solver.gauss_newton_step(problem, np.zeros(6))
        assert report.m == 0.0

    def test_zero_at_ground_truth(self, K):
        xi = np.array([0.03, -0.02, 0.01, 0.004, 0.006, -0.008])
        depth = np.full((K.height, K.width), 2.0)
        ff = exact_flow_field(depth, xi, K)
        residuals = solver.compute_residuals(
            solver.prepare(depth, ff, K), xi)
        assert np.max(np.abs(residuals)) < 1e-12

    def test_at_zero_equals_negative_flow(self, K):
        xi = np.array([0.02, 0.01, -0.01, 0.003, -0.002, 0.005])
        depth = np.full((K.height, K.width), 2.0)
        ff = exact_flow_field(depth, xi, K)
        residuals = solver.compute_residuals(
            solver.prepare(depth, ff, K), np.zeros(6))
        expected, mask = camera.flow_from_pose(depth, se3.exp(xi), K)
        expected /= [K.fx, K.fy]        # residuals are normalised
        assert np.max(np.abs(residuals[mask] + expected[mask])) < 1e-12

    def test_insufficient_pixels(self, K):
        depth = np.full((K.height, K.width), np.nan)
        depth[0, :8] = 2.0
        ff = FlowField(flow=np.zeros((K.height, K.width, 2)),
                       info=np.zeros((K.height, K.width, 3)))
        problem = solver.prepare(depth, ff, K)
        with pytest.raises(InsufficientDataError) as info:
            solver.compute_residuals(problem, np.zeros(6))
        # the error carries the numbers that tripped it
        assert (info.value.valid_count, info.value.required) == (8, 64)
        assert str(info.value) == "8 valid pixels < required 64"


class TestJacobian:
    def test_origin_point(self):
        J = solver.jacobian_row(0.0, 0.0, 1.0)
        assert np.array_equal(J, [[1, 0, 0, 0, 1, 0],
                                  [0, 1, 0, -1, 0, 0]])

    def test_offset_point(self):
        J = solver.jacobian_row(0.5, 0.0, 2.0)
        assert np.array_equal(J[0], [2, 0, -1, 0, 1.25, 0])
        assert np.array_equal(J[1], [0, 2, 0, -1, 0, 0.5])

    def test_matches_finite_differences(self):
        # estimated flow for a single point, differentiated over xi at 0
        def est_flow(u, v, q, xi):
            y = se3.exp(xi) @ np.array([u, v, 1.0, q])
            return np.array([y[0] / y[2] - u, y[1] / y[2] - v])

        rng = np.random.default_rng(21)
        h = 1e-6
        for _ in range(100):
            u, v = rng.uniform(-1, 1, 2)
            q = rng.uniform(0.1, 10)
            J = solver.jacobian_row(u, v, q)
            for j in range(6):
                e = np.zeros(6)
                e[j] = h
                fd = (est_flow(u, v, q, e) - est_flow(u, v, q, -e)) / (2 * h)
                denom = np.maximum(np.abs(fd), 1e-3)
                assert np.max(np.abs(J[:, j] - fd) / denom) < 1e-6

    def test_buffer_matches_allocating_form(self):
        # one buffer takes a whole block, then a shorter last block
        rng = np.random.default_rng(22)
        buffer = solver._jacobian_buffer()
        for n in (solver._BLOCK, 517):
            u, v = rng.uniform(-1, 1, (2, n))
            u[:4] = v[2:6] = [0.0, -0.0, 0.0, -0.0]    # signed zeros
            q = rng.uniform(0.1, 10, n)
            J = solver._jacobians(u, v, q, out=buffer)
            assert J.shape == (2, 6, n) and np.shares_memory(J, buffer)
            assert J.tobytes() == solver._jacobians(u, v, q).tobytes()


class TestBuildWeight:
    def test_zero_residual(self):
        wx, wy = solver.build_weight(0.7, 1.3, 0.0, 0.0, 0.5)
        assert wx == 0.7 and wy == 1.3

    def test_residual_equal_to_m(self):
        wx, _ = solver.build_weight(1.0, 1.0, 0.2, 0.0, 0.2)
        assert wx == pytest.approx(0.5, abs=1e-15)

    def test_m_zero_collapses_to_confidence(self):
        wx, wy = solver.build_weight(0.4, 0.9, 0.0, 0.0, 0.0)
        assert wx == 0.4 and wy == 0.9

    def test_matches_scalar_formula(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            cx, cy = rng.uniform(0.01, 5, 2)
            rx, ry = rng.uniform(-2, 2, 2)
            m = rng.uniform(0.01, 2)
            wx, wy = solver.build_weight(cx, cy, rx, ry, m)
            assert abs(wx - cx * m * m / (m * m + rx * rx)) < 1e-15
            assert abs(wy - cy * m * m / (m * m + ry * ry)) < 1e-15


class TestGaussNewtonStep:
    def test_single_step_pure_translation(self, K):
        xi_star = np.array([0.05, 0, 0, 0, 0, 0])
        depth = np.full((K.height, K.width), 2.0)
        ff = exact_flow_field(depth, xi_star, K)
        beta, _, _ = solver.gauss_newton_step(
            solver.prepare(depth, ff, K), np.zeros(6))
        assert np.linalg.norm(beta - xi_star) < 1e-10

    def test_zero_flow_zero_update(self, K):
        depth = np.full((K.height, K.width), 2.0)
        ff = FlowField(flow=np.zeros((K.height, K.width, 2)),
                       info=np.zeros((K.height, K.width, 3)))
        beta, _, _ = solver.gauss_newton_step(
            solver.prepare(depth, ff, K), np.zeros(6))
        assert np.linalg.norm(beta) == 0.0

    def test_z_rotation_converges_quickly(self, K):
        xi_star = np.array([0, 0, 0, 0, 0, 0.01])
        depth = np.full((K.height, K.width), 2.0)
        ff = exact_flow_field(depth, xi_star, K)
        xi = np.zeros(6)
        problem = solver.prepare(depth, ff, K)
        for _ in range(3):
            beta, _, _ = solver.gauss_newton_step(problem, xi)
            xi = xi + beta
        assert np.linalg.norm(xi - xi_star) < 1e-8

    def test_degenerate_geometry_raises(self):
        # near-zero field of view makes translation-x and rotation-y columns
        # almost parallel
        K = Intrinsics(fx=5e5, fy=5e5, cx=8.0, cy=8.0, width=16, height=16)
        depth = np.full((16, 16), 2.0)
        ff = FlowField(flow=np.full((16, 16, 2), 0.1),
                       info=np.zeros((16, 16, 3)))
        with pytest.raises(DegenerateGeometryError) as info:
            solver.gauss_newton_step(solver.prepare(depth, ff, K),
                                     np.zeros(6))
        err = info.value
        assert str(err) == "normal equations singular or ill-conditioned"
        assert err.limit == solver.CONDITION_LIMIT
        # the solver's own raise condition: the sign of an eigenvalue this
        # near zero depends on the BLAS kernel's rounding
        assert err.eig_min <= 0 or err.eig_max / err.eig_min > err.limit

    def test_no_full_width_temporary(self):
        # a 320x240 problem: the Jacobians of all its pixels would take
        # 12 * 8 bytes a pixel, 7.4 MB, and building them, or one weighted
        # copy of their x or y half, would break the bound at the identity
        K = Intrinsics(fx=262.5, fy=262.5, cx=159.5, cy=119.5,
                       width=320, height=240)
        rng = np.random.default_rng(33)
        depth = rng.uniform(1.5, 5.0, (K.height, K.width))
        ff = FlowField(flow=rng.normal(0.0, 2.0, (K.height, K.width, 2)),
                       info=rng.uniform(-1.0, 1.0, (K.height, K.width, 3)))
        problem = solver.prepare(depth, ff, K)
        # at the identity every pixel is kept; 2 m backwards the pixels
        # nearer than 2 m fail the cheirality test, and the Jacobians of the
        # kept pixels would break the bound
        for tz, share in ((0.0, 0.5), (-2.0, 1.0)):
            tracemalloc.start()
            try:
                _, report, _ = solver.gauss_newton_step(
                    problem, np.array([0.0, 0.0, tz, 0.0, 0.0, 0.0]))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert (report.valid_count < len(problem.index)) == (tz < 0)
            assert peak < 12 * 8 * len(problem.index) * share, tz

    def test_held_memory_is_residuals_and_columns(self):
        # what a step leaves held for the Newton matrix, 2 m backwards where
        # the pixels nearer than 2 m are dropped: the kept residuals and
        # their columns. The confidences are gathered block by block, so no
        # (2, M) copy of them (1 MB here) outlives the step
        K = Intrinsics(fx=262.5, fy=262.5, cx=159.5, cy=119.5,
                       width=320, height=240)
        rng = np.random.default_rng(33)
        depth = rng.uniform(1.5, 5.0, (K.height, K.width))
        ff = FlowField(flow=rng.normal(0.0, 2.0, (K.height, K.width, 2)),
                       info=rng.uniform(-1.0, 1.0, (K.height, K.width, 3)))
        problem = solver.prepare(depth, ff, K)
        tracemalloc.start()
        try:
            step = solver.gauss_newton_step(
                problem, np.array([0.0, 0.0, -2.0, 0.0, 0.0, 0.0]))
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        _, report, terms = step
        assert 0 < len(problem.index) - report.valid_count < len(
            problem.index) / 4
        assert held <= terms.r.nbytes + terms.cols.nbytes + 64 * 1024


def reference_step(depth, flow_field, xi, K, use_confidence=True):
    """Reference Gauss-Newton step: rebuilds the mask, points, Jacobians and
    confidences on the raster and assembles the normal equations by einsum.
    Returns (beta, extended-precision beta, weighted cost, valid count)."""
    depth = np.asarray(depth, dtype=float)
    h, w = depth.shape
    mask = camera.depth_valid_mask(depth) & flow_field.valid
    q = np.zeros_like(depth)
    np.divide(1.0, depth, out=q, where=mask)
    mask &= (q >= solver.Q_MIN) & (q <= solver.Q_MAX)
    xs, ys = np.meshgrid(np.arange(w, dtype=float), np.arange(h, dtype=float))
    u = (xs - K.cx) / K.fx
    v = (ys - K.cy) / K.fy
    pts = np.stack([u, v, np.ones_like(u), q], axis=-1)
    y = pts @ se3.exp(xi)[:3].T
    z = y[..., 2]
    cheir = z > 1e-12
    mask = mask & cheir
    zsafe = np.where(cheir, z, 1.0)
    est_flow = np.stack([y[..., 0] / zsafe - u, y[..., 1] / zsafe - v], axis=-1)
    r = (est_flow - flow_field.flow / np.array([K.fx, K.fy]))[mask]
    m = float(np.linalg.norm(r, axis=-1).mean())

    uu, vv, qq = u[mask], v[mask], q[mask]
    zero, one = np.zeros_like(uu), np.ones_like(uu)
    J = np.stack([
        np.stack([qq, zero, -uu * qq, -uu * vv, uu * uu + one, -vv], axis=-1),
        np.stack([zero, qq, -vv * qq, -vv * vv - one, uu * vv, uu], axis=-1),
    ], axis=1)
    if use_confidence:
        c_x, c_y = (c[mask] for c in infomat.confidences(
            np.moveaxis(flow_field.info, -1, 0)[::2]))
    else:
        c_x = c_y = np.ones(len(r))
    m2 = m * m
    wgt = np.stack([c_x * m2 / (m2 + r[:, 0] ** 2),
                    c_y * m2 / (m2 + r[:, 1] ** 2)], axis=-1)
    Jw = J * wgt[:, :, None]
    A = np.einsum('nij,nik->jk', Jw, J)
    b = np.einsum('nij,ni->j', Jw, r)
    return (np.linalg.solve(A, -b), extended_beta(J, wgt, r),
            float(np.sum(wgt * r * r)), int(mask.sum()))


def extended_beta(J, wgt, r):
    """The same normal equations accumulated in extended precision and
    solved with two steps of iterative refinement: an oracle for the
    rounding error of a double-precision assembly."""
    Jl, wl, rl = (x.astype(np.longdouble) for x in (J, wgt, r))
    Jwl = Jl * wl[:, :, None]
    A = np.einsum('nij,nik->jk', Jwl, Jl)
    b = np.einsum('nij,ni->j', Jwl, rl)
    A64 = A.astype(float)
    beta = np.linalg.solve(A64, -b.astype(float))
    for _ in range(2):
        residual = -b - A @ beta.astype(np.longdouble)
        beta = beta + np.linalg.solve(A64, residual.astype(float))
    return beta


def assert_agrees_with_reference(beta, ref, exact):
    """beta is within 1e-12 relative of the extended-precision solution, or
    no further from it than the reference step; so it agrees with the
    reference to 1e-12 relative give or take the reference's own rounding
    error.

    With outliers, that error alone reaches 1e-11 relative: large residuals
    cancel in J^T W r, and the einsum accumulates them less accurately than
    the BLAS product.
    """
    err_ref = np.linalg.norm(ref - exact)
    assert np.linalg.norm(beta - exact) \
        <= max(1e-12 * np.linalg.norm(exact), err_ref)
    assert np.linalg.norm(beta - ref) \
        <= 1e-12 * np.linalg.norm(ref) + 2 * err_ref


needs_extended_precision = pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps,
    reason="needs a long double wider than double")


@needs_extended_precision
class TestPreparedStep:
    @pytest.fixture
    def outlier_scene(self, K):
        spec = synthetic.SceneSpec(
            width=K.width, height=K.height, intrinsics=K,
            motion=[0.03, 0.01, -0.02, 0.004, 0.006, -0.01],
            noise_sigma=0.3, outlier_fraction=0.2, outlier_magnitude=50.0,
            seed=28)
        return synthetic.render(spec)

    @pytest.mark.parametrize("use_confidence", [True, False],
                             ids=["confidence", "no-confidence"])
    def test_matches_reference_step_on_outliers(self, K, outlier_scene,
                                                use_confidence):
        scene = outlier_scene
        problem = solver.prepare(scene.depth, scene.flow_field, K,
                                 use_confidence=use_confidence)
        for xi in (np.zeros(6), np.array([0.02, 0.0, -0.01, 0.003, 0.004, -0.008])):
            beta, report, _ = solver.gauss_newton_step(problem, xi)
            ref, exact, cost, count = reference_step(
                scene.depth, scene.flow_field, xi, K, use_confidence)
            assert_agrees_with_reference(beta, ref, exact)
            assert report.weighted_cost == pytest.approx(cost, rel=1e-12)
            assert report.valid_count == count

    @pytest.mark.parametrize("use_confidence", [True, False])
    def test_matches_reference_step_when_cheirality_drops_pixels(
            self, K, use_confidence):
        rng = np.random.default_rng(29)
        depth = rng.uniform(0.5, 5.0, (K.height, K.width))
        info = rng.uniform(-1.0, 1.0, (K.height, K.width, 3))
        ff = FlowField(flow=rng.normal(0.0, 2.0, (K.height, K.width, 2)),
                       info=info)
        # a backward step of 1 m puts every point nearer than 1 m behind
        # the camera
        xi = np.array([0.01, -0.02, -1.0, 0.01, 0.02, -0.01])
        beta, report, _ = solver.gauss_newton_step(
            solver.prepare(depth, ff, K, use_confidence=use_confidence), xi)
        ref, exact, cost, count = reference_step(depth, ff, xi, K,
                                                 use_confidence)
        assert 0 < count < K.width * K.height
        assert report.valid_count == count
        assert_agrees_with_reference(beta, ref, exact)
        assert report.weighted_cost == pytest.approx(cost, rel=1e-12)

    def test_cheirality_drops_pixels_from_residual_raster(self, K):
        depth = np.full((K.height, K.width), 2.0)
        depth[:, :10] = 0.5
        ff = FlowField(flow=np.zeros((K.height, K.width, 2)),
                       info=np.zeros((K.height, K.width, 3)))
        xi = np.array([0.0, 0.0, -1.0, 0.0, 0.0, 0.0])
        problem = solver.prepare(depth, ff, K)
        residuals = solver.compute_residuals(problem, xi)
        assert np.count_nonzero(residuals[:, :10]) == 0
        _, report, _ = solver.gauss_newton_step(problem, xi)
        assert report.valid_count == K.height * (K.width - 10)

    def test_confidences_computed_once_per_solve(self, K, monkeypatch,
                                                 outlier_scene):
        calls = []
        original = infomat.confidences

        def counting(exponents, out=None):
            calls.append(exponents.shape)
            return original(exponents, out=out)

        monkeypatch.setattr(infomat, "confidences", counting)
        res = solver.solve(outlier_scene.depth, outlier_scene.flow_field, K)
        assert res.iterations > 1
        assert len(calls) == 1


def block_scene(valid, seed):
    """Random depth, flow and information on a raster 96 pixels wide whose
    first `valid` pixels in raster order are usable; the rest of the last
    row has no depth."""
    width = 96
    height = -(-valid // width)
    K = Intrinsics(fx=100.0, fy=100.0, cx=47.5, cy=(height - 1) / 2,
                   width=width, height=height)
    rng = np.random.default_rng(seed)
    depth = rng.uniform(1.5, 5.0, (height, width))
    depth.ravel()[valid:] = np.nan
    ff = FlowField(flow=rng.normal(0.0, 2.0, (height, width, 2)),
                   info=rng.uniform(-1.0, 1.0, (height, width, 3)))
    return depth, ff, K


@needs_extended_precision
class TestBlockBoundaries:
    """The normal equations are summed over blocks of solver._BLOCK pixels;
    valid counts on and around the block edges, and a ragged tail after
    several whole blocks, give the reference step's result."""
    BLOCK = solver._BLOCK

    @pytest.mark.parametrize("valid", [BLOCK - 1, BLOCK, BLOCK + 1,
                                       3 * BLOCK + 517])
    @pytest.mark.parametrize("use_confidence", [True, False],
                             ids=["confidence", "no-confidence"])
    def test_matches_reference_step(self, valid, use_confidence):
        depth, ff, K = block_scene(valid, seed=valid)
        problem = solver.prepare(depth, ff, K, use_confidence=use_confidence)
        assert len(problem.index) == valid
        for xi in (np.zeros(6), np.array([0.02, 0.0, -0.01, 0.003, 0.004, -0.008])):
            beta, report, _ = solver.gauss_newton_step(problem, xi)
            ref, exact, cost, count = reference_step(depth, ff, xi, K,
                                                     use_confidence)
            assert report.valid_count == count == valid
            assert_agrees_with_reference(beta, ref, exact)
            assert report.weighted_cost == pytest.approx(cost, rel=1e-12)

    @pytest.mark.parametrize("use_confidence", [True, False])
    def test_cheirality_drop_across_block_edges(self, use_confidence):
        B = self.BLOCK
        depth, ff, K = block_scene(2 * B + 300, seed=30)
        # a backward step of 1 m puts points nearer than 1 m behind the
        # camera: runs of them straddle the block edges of the N prepared
        # pixels, and a tenth of the rest drop at random, so the M kept
        # pixels fill one block and a ragged tail
        near = np.zeros(depth.size, dtype=bool)
        near[B - 40:B + 60] = near[2 * B - 7:2 * B + 5] = True
        near |= np.random.default_rng(31).random(depth.size) < 0.1
        depth.ravel()[near & np.isfinite(depth.ravel())] = 0.5
        xi = np.array([0.01, -0.02, -1.0, 0.01, 0.02, -0.01])
        problem = solver.prepare(depth, ff, K, use_confidence=use_confidence)
        _, keep = solver._residuals(problem, xi)
        assert np.array_equal(keep, ~near[problem.index])
        assert B < keep.sum() < 2 * B
        beta, report, _ = solver.gauss_newton_step(problem, xi)
        ref, exact, cost, count = reference_step(depth, ff, xi, K,
                                                 use_confidence)
        assert report.valid_count == count
        assert_agrees_with_reference(beta, ref, exact)
        assert report.weighted_cost == pytest.approx(cost, rel=1e-12)


class TestDroppedPixels:
    def test_step_matches_a_problem_without_them(self):
        # the kept pixels' blocks take the same Jacobian products as those
        # of a problem prepared without the dropped ones, and the kept
        # residuals are row-major as theirs are, so both passes agree bit
        # for bit, the weighted cost's dot product included
        B = solver._BLOCK
        depth, ff, K = block_scene(2 * B + 300, seed=30)
        near = np.random.default_rng(31).random(depth.shape) < 0.1
        depth[near] = 0.5
        xi = np.array([0.01, -0.02, -1.0, 0.01, 0.02, -0.01])
        problem = solver.prepare(depth, ff, K)
        r, _ = solver._residuals(problem, xi)
        assert r.flags.c_contiguous
        beta, report, terms = solver.gauss_newton_step(problem, xi)
        assert B < report.valid_count < len(problem.index)
        flow = ff.flow.copy()
        flow[near] = np.nan
        kept = FlowField(flow=flow, info=ff.info)
        ref_beta, ref_report, ref_terms = solver.gauss_newton_step(
            solver.prepare(depth, kept, K), xi)
        assert report == ref_report
        for got, want in ((beta, ref_beta), (terms.b, ref_terms.b),
                          (terms.matrix(), ref_terms.matrix())):
            assert got.tobytes() == want.tobytes()


# The parent's residual kernel, kept verbatim as the reference for the
# shared divide kernel.
def reference_residuals(problem, xi):
    T = se3.exp(xi)
    y = T[:3] @ problem.points
    keep = y[2] > 1e-12
    uv, meas = problem.points[:2], problem.flow
    if keep.all():
        keep = None
    else:
        y, uv, meas = y[:, keep], uv[:, keep], meas[:, keep]
    return y[:2] / y[2] - uv - meas, keep


class TestResidualsMatchParent:
    @pytest.mark.parametrize("depth_name", ["constant", "plane", "random",
                                            "invalid"])
    # the last motion steps 1 m back: points nearer than that drop out
    @pytest.mark.parametrize("xi", [
        [0.0] * 6,
        [0.03, -0.02, 0.01, 0.01, -0.02, 0.015],
        [0.01, -0.02, -1.0, 0.01, 0.02, -0.01],
    ], ids=["zero", "small", "behind"])
    def test_bit_identical(self, K, depth_name, xi):
        rng = np.random.default_rng(32)
        ox, oy = camera.pixel_offsets(K, (K.height, K.width))
        a, b = ox / K.fx, oy / K.fy
        random = rng.uniform(0.5, 5.0, a.shape)
        holes = random.copy()
        holes.ravel()[rng.choice(holes.size, 300, replace=False)] = np.nan
        holes[0, :3] = (0.0, -1.0, np.inf)
        depth = {"constant": np.full(a.shape, 2.0),
                 "plane": 2.0 / (0.1 * a - 0.05 * b + 1.0),
                 "random": random, "invalid": holes}[depth_name]
        ff = FlowField(flow=rng.normal(0.0, 2.0, a.shape + (2,)),
                       info=np.zeros(a.shape + (3,)))
        problem = solver.prepare(depth, ff, K)
        ys, xs = np.divmod(problem.index, K.width)
        assert np.array_equal(problem.points[0], (xs - K.cx) / K.fx)
        assert np.array_equal(problem.points[1], (ys - K.cy) / K.fy)
        r, keep = solver._residuals(problem, np.array(xi))
        ref_r, ref_keep = reference_residuals(problem, np.array(xi))
        assert np.array_equal(r, ref_r)
        assert (keep is None) == (ref_keep is None)
        if keep is not None:
            assert np.array_equal(keep, ref_keep)
        if depth_name in ("random", "invalid") and xi[2] < -0.5:
            assert keep is not None and keep.any()


class TestBlockResiduals:
    """_residuals forms T[:3] @ points and its divide block by block; its
    residuals, kept mask and residual raster have the bytes of the
    raster-wide product: on whole blocks and a ragged tail (76,800 pixels
    are 18 blocks and one of 3,072), on a tail of one column, which numpy
    would multiply by gemv, and with pixels dropped behind the camera."""
    BLOCK = solver._BLOCK

    @pytest.mark.parametrize("valid", [76800, 2 * BLOCK + 1, BLOCK - 1])
    # the last motion steps 2 m back: points nearer than that drop out
    @pytest.mark.parametrize("xi", [
        [0.0] * 6,
        [0.03, -0.02, 0.01, 0.01, -0.02, 0.015],
        [0.01, -0.02, -2.0, 0.01, 0.02, -0.01],
    ], ids=["zero", "small", "behind"])
    def test_matches_raster_wide_product(self, valid, xi):
        depth, ff, K = block_scene(valid, seed=valid)
        problem = solver.prepare(depth, ff, K)
        assert len(problem.index) == valid
        xi = np.array(xi)
        r, keep = solver._residuals(problem, xi)
        ref_r, ref_keep = reference_residuals(problem, xi)
        assert r.flags.c_contiguous
        assert r.tobytes() == ref_r.tobytes()
        assert (keep is None) == (ref_keep is None) == (xi[2] > -1.0)
        kept = problem.index
        if keep is not None:
            assert keep.tobytes() == ref_keep.tobytes()
            kept = kept[ref_keep]
        want = np.zeros((depth.size, 2))
        want[kept] = ref_r.T
        assert (solver.compute_residuals(problem, xi).tobytes()
                == want.tobytes())


# The parent's prepare, verbatim but for its return value and the inlined
# exp of infomat.confidences: the reference for the per-channel gathers.
def reference_prepare(depth, flow_field, K, use_confidence=True):
    depth = np.asarray(depth, dtype=float)
    h, w = depth.shape
    ox, oy = camera.pixel_offsets(K, (h, w))
    mask = camera.depth_valid_mask(depth) & flow_field.valid
    q = np.zeros_like(depth)
    np.divide(1.0, depth, out=q, where=mask)
    mask &= (q >= solver.Q_MIN) & (q <= solver.Q_MAX)
    index = np.flatnonzero(mask)
    points = np.empty((4, len(index)))
    points[0] = ox.ravel()[index] / K.fx
    points[1] = oy.ravel()[index] / K.fy
    points[2] = 1.0
    points[3] = q.ravel()[index]
    meas = flow_field.flow.reshape(-1, 2)[index] / np.array([K.fx, K.fy])
    flow = meas.T.copy()
    if use_confidence:
        info = flow_field.info.reshape(-1, 3)[index]
        conf = np.stack((np.exp(info[..., 0]), np.exp(info[..., 2])))
    else:
        conf = np.ones((2, len(index)))
    u, v, _, q = points
    J = np.zeros((2, 6, len(u)))
    J[0, 0] = q
    J[0, 2] = -u * q
    J[0, 3] = -u * v
    J[0, 4] = u * u + 1.0
    J[0, 5] = -v
    J[1, 1] = q
    J[1, 2] = -v * q
    J[1, 3] = -v * v - 1.0
    J[1, 4] = u * v
    J[1, 5] = u
    return index, points, flow, conf, J


class TestPrepareMatchesParent:
    @pytest.mark.parametrize("layout", ["raster", "separate"])
    @pytest.mark.parametrize("use_confidence", [True, False])
    def test_bit_identical(self, K, layout, use_confidence):
        spec = synthetic.SceneSpec(
            width=K.width, height=K.height, intrinsics=K,
            motion=[0.03, 0.01, -0.02, 0.004, 0.006, -0.01],
            depth_model=synthetic.SmoothRandomDepth(seed=3, amplitude=0.5),
            noise_sigma=0.3, outlier_fraction=0.2, outlier_magnitude=50.0,
            seed=28)
        scene = synthetic.render(spec)
        rng = np.random.default_rng(33)
        depth = scene.depth.copy()
        depth.ravel()[rng.choice(depth.size, 200, replace=False)] = np.nan
        # depths at and around the ends of the band and outside (0, inf);
        # 9.999999999999998e-05 and 10000.000000000002 are the depths
        # nearest the band's ends whose inverse lies outside [Q_MIN, Q_MAX]
        edges = [0.0, -0.0, -2.0, np.inf, -np.inf, 5e-324, 1e-4, 1e4,
                 9.999999999999998e-05, 10000.000000000002]
        depth[24, 20:30] = edges
        # the CLI's flow and info are views of one 5-channel raster
        data = np.concatenate([scene.flow_field.flow,
                               rng.uniform(-5.0, 5.0, depth.shape + (3,))],
                              axis=-1)
        data[rng.random(depth.shape) < 0.1, :2] = np.nan
        if layout == "separate":
            ff = FlowField(flow=data[..., :2].copy(), info=data[..., 2:].copy())
        else:
            ff = FlowField(flow=data[..., :2], info=data[..., 2:])
        problem = solver.prepare(depth, ff, K, use_confidence=use_confidence)
        with np.errstate(over='ignore'):    # as in the parent's prepare
            index, points, flow, conf, J = reference_prepare(depth, ff, K,
                                                             use_confidence)
        assert 0 < len(index) < depth.size
        edge_index = 24 * K.width + np.arange(20, 30)
        assert ff.valid[24, 20:30].all()
        assert np.isin(edge_index, index).tolist() == [False] * 6 + [
            True, True, False, False]
        jacobians = solver._jacobians(*problem.points[[0, 1, 3]])
        for got, want in [(problem.index, index), (problem.points, points),
                          (problem.flow, flow), (problem.conf, conf),
                          (jacobians, J)]:
            assert np.array_equal(got, want)
            assert got.flags.c_contiguous
            assert got.tobytes() == want.tobytes()  # signed zeros too


class TestSolve:
    def test_exact_recovery_general_motion(self, K):
        rng = np.random.default_rng(23)
        for _ in range(5):
            xi_star = rng.uniform(-0.04, 0.04, 6)
            depth = 2.0 + 0.4 * rng.uniform(-1, 1, (K.height, K.width))
            ff = exact_flow_field(depth, xi_star, K)
            res = solver.solve(depth, ff, K)
            assert res.converged
            assert np.linalg.norm(res.xi - xi_star) < 1e-8

    def test_zero_flow(self, K):
        depth = np.full((K.height, K.width), 2.0)
        ff = FlowField(flow=np.zeros((K.height, K.width, 2)),
                       info=np.zeros((K.height, K.width, 3)))
        res = solver.solve(depth, ff, K)
        assert res.converged and res.iterations == 1
        assert np.count_nonzero(res.xi) == 0

    def test_confidence_ablation(self, K):
        spec = synthetic.SceneSpec(
            width=K.width, height=K.height, intrinsics=K,
            motion=[0.03, 0.01, -0.02, 0.004, 0.006, -0.01],
            outlier_fraction=0.2, outlier_magnitude=50.0, seed=24)
        scene = synthetic.render(spec)
        with_conf = solver.solve(scene.depth, scene.flow_field, K)
        without = solver.solve(scene.depth, scene.flow_field, K,
                               use_confidence=False)
        err_with = np.linalg.norm(with_conf.xi - spec.motion)
        err_without = np.linalg.norm(without.xi - spec.motion)
        assert err_with < 1e-4
        assert err_without >= 10 * err_with

    def test_confidence_scale_invariance(self, K):
        spec = synthetic.SceneSpec(
            width=K.width, height=K.height, intrinsics=K,
            motion=[0.02, -0.01, 0.01, 0.003, 0.002, -0.004],
            noise_sigma=0.5, seed=25)
        scene = synthetic.render(spec)
        base, _, _ = solver.gauss_newton_step(
            solver.prepare(scene.depth, scene.flow_field, K),
            np.zeros(6))
        scaled_info = scene.flow_field.info.copy()
        scaled_info[..., 0] += np.log(7.0)
        scaled_info[..., 2] += np.log(7.0)
        ff2 = FlowField(flow=scene.flow_field.flow, info=scaled_info)
        scaled, _, _ = solver.gauss_newton_step(
            solver.prepare(scene.depth, ff2, K), np.zeros(6))
        assert np.max(np.abs(base - scaled)) < 1e-12

    def test_weighted_cost_not_worse_than_seed(self, K):
        rng = np.random.default_rng(26)
        xi_star = rng.uniform(-0.05, 0.05, 6)
        depth = np.full((K.height, K.width), 2.0)
        ff = exact_flow_field(depth, xi_star, K)
        res = solver.solve(depth, ff, K)
        problem = solver.prepare(depth, ff, K)
        _, rep_final, _ = solver.gauss_newton_step(problem, res.xi)
        _, rep_zero, _ = solver.gauss_newton_step(problem, np.zeros(6))
        assert rep_final.weighted_cost <= rep_zero.weighted_cost

    def test_seed_independence(self, K):
        xi_star = np.array([0.03, -0.01, 0.02, 0.005, -0.004, 0.008])
        depth = np.full((K.height, K.width), 2.0)
        ff = exact_flow_field(depth, xi_star, K)
        rng = np.random.default_rng(27)
        for _ in range(5):
            seed = xi_star + rng.uniform(-0.05, 0.05, 6) * 0.5
            res = solver.solve(depth, ff, K, seed_xi=seed)
            assert np.linalg.norm(res.xi - xi_star) < 1e-8

    def test_single_iteration_worse_on_rotation(self, K):
        xi_star = np.array([0.005, 0.0, 0.0, 0.04, -0.05, 0.06])
        depth = np.full((K.height, K.width), 2.0)
        ff = exact_flow_field(depth, xi_star, K)
        full = solver.solve(depth, ff, K)
        single = solver.solve(depth, ff, K, max_iterations=1)
        assert single.iterations == 1
        err_full = np.linalg.norm(full.xi - xi_star)
        err_single = np.linalg.norm(single.xi - xi_star)
        assert err_single > err_full


def plain_reference_solve(depth, flow_field, K, max_iterations=20,
                          use_confidence=True):
    """The plain IRLS loop, xi <- xi + beta, from the zero seed with no
    Newton step and no warm-up; verbatim but for how it builds its result."""
    problem = solver.prepare(depth, flow_field, K,
                             use_confidence=use_confidence)
    xi = np.zeros(6)
    reports = []
    converged = False
    for _ in range(max_iterations):
        beta, report, _ = solver.gauss_newton_step(problem, xi)
        xi = xi + beta
        reports.append(report)
        if np.linalg.norm(beta) < solver.CONVERGENCE_TOL:
            converged = True
            break
    return solver.SolveResult(xi=xi, converged=converged, reports=reports)


def updates(result):
    """The update kind of each step of a SolveResult."""
    return [report.update for report in result.reports]


def small_scene(seed, outliers):
    """A seeded 64x48 scene with 0.5 px noise and, with outliers set, 20% of
    its flow replaced by 50 px outliers."""
    rng = np.random.default_rng(seed)
    motion = rng.normal(size=6)
    motion *= rng.uniform(0.02, 0.08) / np.linalg.norm(motion)
    spec = synthetic.SceneSpec(
        width=64, height=48, motion=motion, noise_sigma=0.5,
        outlier_fraction=0.2 if outliers else 0.0, outlier_magnitude=50.0,
        seed=seed)
    return synthetic.render(spec), spec


class TestMixedSteps:
    """`solve` mixes plain steps with Newton steps on the plain loop's fixed
    point; the plain loop above is its reference."""

    @pytest.mark.parametrize("outliers", [False, True],
                             ids=["noisy", "outliers"])
    @pytest.mark.parametrize("use_confidence", [True, False])
    def test_same_limit_in_no_more_steps(self, monkeypatch, outliers,
                                         use_confidence):
        # at 0.5 px and fx 100 the plain loop contracts by about 0.5 per
        # step and takes up to 24 steps, so both loops get a budget of 100
        settings = dict(use_confidence=use_confidence, max_iterations=100)
        for seed in range(40, 48):
            scene, spec = small_scene(seed, outliers)
            args = (scene.depth, scene.flow_field, spec.intrinsics)
            with monkeypatch.context() as tight:
                tight.setattr(solver, 'CONVERGENCE_TOL', 1e-12)
                limit = plain_reference_solve(*args, **settings).xi
                assert np.max(np.abs(solver.solve(*args, **settings).xi
                                     - limit)) < 1e-11
            ref = plain_reference_solve(*args, **settings)
            res = solver.solve(*args, **settings)
            assert ref.converged and res.converged
            # each stops within CONVERGENCE_TOL of the limit, so the two
            # answers may differ by up to twice that
            assert np.max(np.abs(ref.xi - limit)) < 1e-9
            assert np.max(np.abs(res.xi - limit)) < 1e-9
            assert np.max(np.abs(res.xi - ref.xi)) < 2e-9
            assert res.iterations <= ref.iterations + 1
            # both first steps are plain steps from the seed
            assert res.reports[0] == ref.reports[0]
            assert updates(res)[0] == 'plain'
            assert set(updates(res)) <= {'plain', 'newton'}

    def test_noisy_qvga_frame_takes_fewer_steps(self):
        # 320x240 frame as in the odometry benchmark: TUM-like intrinsics,
        # depth 2 +- 0.5 m, a 0.02 twist and 0.5 px noise
        K = camera.Intrinsics(fx=262.5, fy=262.5, cx=159.5, cy=119.5,
                              width=320, height=240)
        direction = np.random.default_rng(2).normal(size=6)
        spec = synthetic.SceneSpec(
            width=320, height=240, intrinsics=K,
            motion=direction / np.linalg.norm(direction) * 0.02,
            depth_model=synthetic.SmoothRandomDepth(seed=2, amplitude=0.5),
            noise_sigma=0.5, seed=2)
        scene = synthetic.render(spec)
        ref = plain_reference_solve(scene.depth, scene.flow_field, K)
        res = solver.solve(scene.depth, scene.flow_field, K)
        assert ref.converged and ref.iterations >= 16
        assert res.converged and res.iterations <= 13
        assert np.max(np.abs(res.xi - ref.xi)) < 1e-9

    @pytest.mark.parametrize("outlier_fraction", [0.0, 0.1],
                             ids=["noisy", "outliers"])
    def test_qvga_frame_in_three_full_steps(self, monkeypatch,
                                            outlier_fraction):
        # the odometry benchmark's noisy frame kinds: the warm-up hands on
        # its xi, then one full-resolution Newton matrix serves every step
        spec = qvga_spec(4, noise_sigma=0.5,
                         outlier_fraction=outlier_fraction)
        scene = synthetic.render(spec)
        built = []
        matrix = solver.NewtonTerms.matrix

        def counting(terms):
            built.append(len(terms.r[0]))
            return matrix(terms)
        monkeypatch.setattr(solver.NewtonTerms, 'matrix', counting)
        res = solver.solve(scene.depth, scene.flow_field, QVGA)
        n = len(res.problem.index)
        assert res.converged and res.iterations <= 3
        assert built.count(n) <= 1 and 0 < len(built)
        full = updates(res)[-res.iterations:]
        assert full[0] == 'newton' and full[-1] == 'plain'
        monkeypatch.undo()
        ref = plain_reference_solve(scene.depth, scene.flow_field, QVGA)
        assert ref.converged and ref.iterations > 3
        assert np.max(np.abs(res.xi - ref.xi)) < 1e-9

    @pytest.mark.parametrize("outliers", [False, True],
                             ids=["noisy", "outliers"])
    def test_single_iteration_is_the_plain_first_step(self, outliers):
        scene, spec = small_scene(49, outliers)
        args = (scene.depth, scene.flow_field, spec.intrinsics)
        ref = plain_reference_solve(*args, max_iterations=1)
        res = solver.solve(*args, max_iterations=1)
        assert res.xi.tobytes() == ref.xi.tobytes()
        assert res.reports == ref.reports
        assert res.iterations == 1 and updates(res) == ['plain']


class TestStepRecords:
    def test_step_norm_and_conditioning(self):
        scene, spec = small_scene(41, outliers=True)
        res = solver.solve(scene.depth, scene.flow_field, spec.intrinsics)
        assert res.converged and res.iterations > 2
        assert res.reports[-1].step_norm < solver.CONVERGENCE_TOL
        assert all(r.step_norm >= solver.CONVERGENCE_TOL
                   for r in res.reports[:-1])
        for r in res.reports:
            assert 0 < r.eig_min <= r.eig_max
            assert r.eig_max / r.eig_min <= solver.CONDITION_LIMIT
        # the first step, from the seed, is the plain step and its record
        beta, first, _ = solver.gauss_newton_step(res.problem, np.zeros(6))
        assert first == res.reports[0]
        assert first.step_norm == np.linalg.norm(beta)


class StubStep:
    """Stands in for gauss_newton_step on known maps xi -> beta: records
    the points and problems it is called with and returns beta_of(call
    index, xi). Its
    normal matrix is the identity, so b = -beta, and the Newton matrix of
    each step is matrix_of(call index, xi)."""

    def __init__(self, beta_of, matrix_of):
        self.beta_of = beta_of
        self.matrix_of = matrix_of
        self.points = []
        self.problems = []
        self.built = []         # the call indices whose Newton matrix was
                                # built

    def __call__(self, problem, xi):
        k = len(self.points)
        self.points.append(np.array(xi))
        self.problems.append(problem)
        beta = np.asarray(self.beta_of(k, xi), dtype=float)

        def matrix():
            self.built.append(k)
            return np.asarray(self.matrix_of(k, xi), dtype=float)
        return beta, solver.ResidualReport(
            m=1.0, weighted_cost=float(k + 1), valid_count=64,
            step_norm=float(np.linalg.norm(beta))), \
            SimpleNamespace(b=-beta, matrix=matrix)


E0, E1 = np.eye(6)[:2]


def constant(H):
    return lambda k, xi: H


class TestMixedStepsOnStub:
    """The loop of `solve`, with its plain and Newton steps, on known maps
    xi -> beta, with prepare and gauss_newton_step stubbed out."""

    @pytest.fixture
    def run(self, monkeypatch):
        # a stand-in with fewer valid pixels than the warm-up's gate
        monkeypatch.setattr(solver, 'prepare', lambda *args, **kwargs:
                            SimpleNamespace(index=np.arange(64)))

        def run(beta_of, matrix_of=constant(np.eye(6)), **settings):
            stub = StubStep(beta_of, matrix_of)
            monkeypatch.setattr(solver, 'gauss_newton_step', stub)
            return solver.solve(None, None, None, **settings), stub
        return run

    def test_first_step_from_the_seed_is_plain(self, run):
        seed = np.array([0.1, 0.0, 0.0, 0.0, 0.0, -0.1])
        step = 0.5 * E1
        res, stub = run(lambda k, xi: step if k == 0 else 0 * step,
                        seed_xi=seed)
        assert updates(res) == ['plain', 'plain']
        assert 0 not in stub.built
        np.testing.assert_array_equal(stub.points[1], seed + step)

    def test_newton_update(self, run):
        # a matrix that is not the map's derivative: the point after the
        # Newton step is xi - H^-1 b all the same
        target = np.array([0.3, -0.2, 0.1, 0.05, -0.04, 0.02])
        rates = np.array([0.9, 0.7, 0.5, 0.4, 0.3, 0.2])
        H = np.diag(rates) + 0.01 * np.ones((6, 6))
        res, stub = run(lambda k, xi: rates * (target - xi), constant(H),
                        max_iterations=3)
        x1 = stub.points[1]
        b1 = -rates * (target - x1)
        np.testing.assert_allclose(stub.points[2],
                                   x1 - np.linalg.solve(H, b1),
                                   rtol=0, atol=1e-15)
        assert updates(res) == ['plain', 'newton', 'plain']
        assert len(stub.points) == res.iterations == 3

    def test_one_dimensional_linear_map_converges_in_three_calls(self, run):
        # the Newton step lands on the fixed point of xi -> xi + beta(xi),
        # which the plain loop approaches by halves
        res, stub = run(lambda k, xi: 0.5 * (2.0 * E0 - xi),
                        constant(0.5 * np.eye(6)))
        np.testing.assert_allclose(stub.points[2], 2.0 * E0, rtol=0,
                                   atol=1e-15)
        assert res.converged and res.iterations == 3
        assert updates(res) == ['plain', 'newton', 'plain']
        # the stub's cost counts its calls: the reports are its own, in order
        assert [r.weighted_cost for r in res.reports] == [1.0, 2.0, 3.0]

    def test_matrix_is_built_only_far_from_the_root(self, run, monkeypatch):
        # ||beta|| halves at each step: the matrix is rebuilt while it is
        # at least 1e-6, and reused below that (chord steps)
        norms = [0.5 ** j for j in range(0, 40, 2)]
        monkeypatch.setattr(solver, 'CONVERGENCE_TOL', 1e-12)
        res, stub = run(lambda k, xi: norms[k] * E0, max_iterations=12)
        assert updates(res) == ['plain'] + ['newton'] * 10 + ['plain']
        assert stub.built == [k for k in range(1, 11) if norms[k] >= 1e-6]
        assert stub.built[-1] < 10

    def test_plain_without_a_matrix_below_the_rebuild_norm(self, run):
        # after a plain first step the loop has no Newton matrix, and a
        # step whose ||beta|| is below 1e-6 builds none
        res, stub = run(lambda k, xi: (1.0 if k == 0 else 1e-7) * E0,
                        max_iterations=4)
        assert updates(res) == ['plain'] * 4
        assert stub.built == []

    @pytest.mark.parametrize("H", [np.zeros((6, 6)),
                                   np.full((6, 6), np.nan),
                                   np.full((6, 6), np.inf),
                                   np.diag([1.0, 1.0, 1.0, 1.0, 1.0, 0.0])],
                             ids=["zero", "nan", "inf", "rank-5"])
    def test_singular_newton_matrix_takes_plain_steps(self, run, H):
        # no LinAlgError escapes: every step is the plain one, and the
        # matrix is built again at the next step
        step = np.array([0.1, 0.0, -0.2, 0.0, 0.05, 0.0])
        res, stub = run(lambda k, xi: step, constant(H), max_iterations=7)
        assert updates(res) == ['plain'] * 7
        assert stub.built == [1, 2, 3, 4, 5]
        assert not res.converged and len(stub.points) == res.iterations == 7
        for k, point in enumerate(stub.points + [res.xi]):
            np.testing.assert_allclose(point, k * step, rtol=0, atol=1e-15)

    SCRIPT = [                  # (point called at, beta returned there)
        (0.0 * E0, E0),         # first step: plain
        (1.0 * E0, 0.5 * E0),   # Newton with H = I / 2: lands on 2 E0
        (2.0 * E0, 0.6 * E1),   # ||beta|| grew: fall back to 1.5 E0
        (1.5 * E0, 0.25 * E0),  # plain from now on
        (1.75 * E0, 0.125 * E0),
        (1.875 * E0, 0.0 * E0),  # converged
    ]

    def scripted(self, k, xi):
        point, beta = self.SCRIPT[k]
        np.testing.assert_allclose(xi, point, rtol=0, atol=1e-15)
        return beta

    def test_falls_back_when_beta_grows(self, run):
        res, stub = run(self.scripted, constant(0.5 * np.eye(6)))
        assert len(stub.points) == res.iterations == 6 and res.converged
        assert updates(res) == ['plain', 'newton', 'plain',
                                'plain', 'plain', 'plain']
        assert stub.built == [1]
        np.testing.assert_allclose(res.xi, 1.875 * E0, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("calls, xi", [(1, 1.0 * E0), (2, 1.5 * E0),
                                           (3, 1.5 * E0), (5, 1.875 * E0)])
    def test_max_iterations_counts_every_call(self, run, calls, xi):
        # the fall-back's call counts, and the last step is always plain
        res, stub = run(self.scripted, constant(0.5 * np.eye(6)),
                        max_iterations=calls)
        assert len(stub.points) == res.iterations == calls
        assert not res.converged
        assert updates(res)[-1] == 'plain'
        np.testing.assert_allclose(res.xi, xi, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("calls", [2, 3, 6])
    def test_last_step_of_the_budget_is_plain(self, run, calls):
        res, stub = run(lambda k, xi: 0.5 * (2.0 * E0 - xi),
                        constant(np.eye(6)), max_iterations=calls)
        assert updates(res) == ['plain'] + ['newton'] * (calls - 2) \
            + ['plain']
        assert stub.built == list(range(1, calls - 1))

    @pytest.fixture
    def warm(self, monkeypatch, run):
        # a stand-in at the warm-up's gate, whose subsample's fixed point
        # lies 1e-3 from the full problem's
        full = SimpleNamespace(index=np.arange(32768),
                               target=2.0 * E0 + 1e-3 * E1)
        coarse = SimpleNamespace(index=np.arange(4096), target=2.0 * E0)
        monkeypatch.setattr(solver, 'prepare', lambda *args, **kwargs: full)
        monkeypatch.setattr(solver, '_subsample', lambda problem, s: coarse)

        def warm(**settings):
            stub = StubStep(
                lambda k, xi: 0.5 * (stub.problems[-1].target - xi),
                constant(0.5 * np.eye(6)))
            monkeypatch.setattr(solver, 'gauss_newton_step', stub)
            return solver.solve(None, None, None, **settings), stub
        return warm

    def test_first_full_step_after_a_converged_warm_up_is_newton(self, warm):
        res, stub = warm()
        assert updates(res) == ['coarse'] * 3 + ['newton', 'plain']
        assert res.converged and res.iterations == 2
        np.testing.assert_allclose(res.xi, 2.0 * E0 + 1e-3 * E1, rtol=0,
                                   atol=1e-15)

    def test_first_full_step_after_a_dropped_warm_up_is_plain(self, warm):
        # two steps do not converge the warm-up: the full loop starts from
        # the seed with a plain step
        res, stub = warm(max_iterations=2)
        assert updates(res) == ['coarse', 'coarse', 'plain', 'plain']
        np.testing.assert_array_equal(stub.points[2], np.zeros(6))


class TestNewtonMatrix:
    """NewtonTerms.matrix is the derivative of b(xi), the J^T W r that
    gauss_newton_step sums, at the step's own xi."""

    @pytest.mark.parametrize("outliers", [False, True],
                             ids=["noisy", "outliers"])
    @pytest.mark.parametrize("use_confidence", [True, False])
    def test_matches_central_differences(self, outliers, use_confidence):
        scene, spec = small_scene(43, outliers)
        ff = scene.flow_field
        # confidences that differ per pixel and per component
        info = ff.info + np.random.default_rng(43).uniform(
            -1.0, 1.0, ff.info.shape)
        ff = FlowField(flow=ff.flow, info=info)
        problem = solver.prepare(scene.depth, ff, spec.intrinsics,
                                 use_confidence=use_confidence)
        xi = spec.motion + np.random.default_rng(44).normal(size=6) * 2e-3

        def b(at):
            return solver.gauss_newton_step(problem, at)[2].b
        H = solver.gauss_newton_step(problem, xi)[2].matrix()
        h = 1e-6
        D = np.column_stack([(b(xi + h * e) - b(xi - h * e)) / (2 * h)
                             for e in np.eye(6)])
        assert np.max(np.abs(H - D)) < 1e-7 * np.max(np.abs(H))

    def test_matches_central_differences_when_pixels_are_dropped(self, K):
        # 2 m backwards the pixels nearer than 2 m fail the cheirality test;
        # the matrix is summed over the kept ones
        rng = np.random.default_rng(33)
        depth = rng.uniform(1.5, 5.0, (K.height, K.width))
        ff = FlowField(flow=rng.normal(0.0, 2.0, (K.height, K.width, 2)),
                       info=rng.uniform(-1.0, 1.0, (K.height, K.width, 3)))
        problem = solver.prepare(depth, ff, K)
        xi = np.array([0.01, -0.02, -2.0, 0.01, 0.02, -0.01])
        _, report, terms = solver.gauss_newton_step(problem, xi)
        assert report.valid_count < len(problem.index)
        h = 1e-7
        D = np.column_stack([
            (solver.gauss_newton_step(problem, xi + h * e)[2].b
             - solver.gauss_newton_step(problem, xi - h * e)[2].b)
            / (2 * h) for e in np.eye(6)])
        H = terms.matrix()
        assert np.max(np.abs(H - D)) < 1e-6 * np.max(np.abs(H))

    def test_no_full_width_temporary(self):
        # the second block pass builds J0 and the warped Jacobians block by
        # block
        K = Intrinsics(fx=262.5, fy=262.5, cx=159.5, cy=119.5,
                       width=320, height=240)
        rng = np.random.default_rng(33)
        depth = rng.uniform(1.5, 5.0, (K.height, K.width))
        ff = FlowField(flow=rng.normal(0.0, 2.0, (K.height, K.width, 2)),
                       info=rng.uniform(-1.0, 1.0, (K.height, K.width, 3)))
        problem = solver.prepare(depth, ff, K)
        _, _, terms = solver.gauss_newton_step(problem, np.full(6, 0.01))
        tracemalloc.start()
        try:
            terms.matrix()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12 * 8 * len(problem.index) / 4

    @pytest.mark.parametrize("H", [np.zeros((6, 6)),
                                   np.full((6, 6), np.nan)],
                             ids=["singular", "nan"])
    @pytest.mark.parametrize("outliers", [False, True],
                             ids=["noisy", "outliers"])
    def test_unusable_matrix_gives_the_plain_loop(self, monkeypatch,
                                                  outliers, H):
        # every step falls back to the plain one, bit for bit
        scene, spec = small_scene(45, outliers)
        args = (scene.depth, scene.flow_field, spec.intrinsics)
        ref = plain_reference_solve(*args)
        monkeypatch.setattr(solver.NewtonTerms, 'matrix', lambda terms: H)
        res = solver.solve(*args)
        assert set(updates(res)) == {'plain'}
        assert res.xi.tobytes() == ref.xi.tobytes()
        assert res.converged == ref.converged and res.reports == ref.reports


def newton_reference_solve(depth, flow_field, K, max_iterations=20):
    """The loop that `solve` runs from the zero seed when it takes no
    warm-up; verbatim but for how it builds its result and its Newton
    update."""
    problem = solver.prepare(depth, flow_field, K)
    xi = np.zeros(6)
    tol = solver.CONVERGENCE_TOL
    reports = []
    converged = False
    max_iter = max_iterations
    first = 1
    H = None
    plain = None
    for k in range(max_iter):
        beta, report, terms = solver.gauss_newton_step(problem, xi)
        reports.append(report)
        norm = report.step_norm
        if norm < tol:
            converged = True
            xi = xi + beta
            break
        if plain is not None and norm > plain[1]:
            xi, plain, first = plain[0], None, max_iter
            continue
        step, plain = beta, None
        if first <= k < max_iter - 1 and report.m > 0:
            if norm >= 1e-6:
                H = terms.matrix()
            newton_step = None
            if H is not None and np.all(np.isfinite(H)):
                try:
                    newton_step = np.linalg.solve(H, -terms.b)
                except np.linalg.LinAlgError:
                    pass
            if newton_step is None or not np.all(np.isfinite(newton_step)):
                H = None
            else:
                step, plain = newton_step, (xi + beta, norm)
                report.update = 'newton'
        del terms
        xi = xi + step
    return solver.SolveResult(xi=xi, converged=converged, reports=reports)


QVGA = camera.Intrinsics(fx=262.5, fy=262.5, cx=159.5, cy=119.5,
                         width=320, height=240)


def qvga_spec(seed, noise_sigma, outlier_fraction=0.0):
    """A 320x240 frame as in the odometry benchmark: depth 2 +- 0.5 m, a
    0.02 twist and, with outlier_fraction set, 20 px outliers."""
    direction = np.random.default_rng(seed).normal(size=6)
    return synthetic.SceneSpec(
        width=320, height=240, intrinsics=QVGA,
        motion=direction / np.linalg.norm(direction) * 0.02,
        depth_model=synthetic.SmoothRandomDepth(seed=seed, amplitude=0.5),
        noise_sigma=noise_sigma, outlier_fraction=outlier_fraction,
        outlier_magnitude=20.0, seed=seed)


def qvga_scene(seed, noise_sigma):
    """A rendered qvga_spec frame with no outliers, and its spec."""
    spec = qvga_spec(seed, noise_sigma)
    return synthetic.render(spec), spec


def first_valid(scene, n):
    """The scene's flow field cut to its first n valid pixels, in raster
    order."""
    ff = scene.flow_field
    flow = ff.flow.copy()
    flow.reshape(-1, 2)[np.flatnonzero(ff.valid)[n:]] = np.nan
    return FlowField(flow=flow, info=ff.info)


def assert_same_solve(res, ref):
    assert res.xi.tobytes() == ref.xi.tobytes()
    assert res.converged == ref.converged
    assert res.reports == ref.reports


class TestWarmStart:
    """Problems of at least solver._WARM_GATE valid pixels first solve on
    every solver._WARM_STRIDE-th one; `newton_reference_solve` is the loop
    without that warm-up."""

    GATE = 32768

    @pytest.fixture(scope='class')
    def noisy(self):
        return qvga_scene(2, noise_sigma=0.5)[0]

    def test_below_the_gate_takes_no_warm_up(self, noisy):
        ff = first_valid(noisy, self.GATE - 1)
        res = solver.solve(noisy.depth, ff, QVGA)
        assert len(res.problem.index) == self.GATE - 1
        assert_same_solve(res, newton_reference_solve(noisy.depth, ff, QVGA))
        assert 'coarse' not in updates(res)

    def test_at_the_gate_warms_up(self, noisy):
        ff = first_valid(noisy, self.GATE)
        res = solver.solve(noisy.depth, ff, QVGA)
        ref = newton_reference_solve(noisy.depth, ff, QVGA)
        coarse = updates(res).count('coarse')
        assert coarse > 0
        assert updates(res)[:coarse] == ['coarse'] * coarse
        assert all(r.valid_count == self.GATE // 8
                   for r in res.reports[:coarse])
        assert all(r.valid_count == self.GATE for r in res.reports[coarse:])
        assert res.iterations == len(res.reports) - coarse
        assert res.converged and res.iterations < ref.iterations
        assert np.max(np.abs(res.xi - ref.xi)) < 2e-9

    def test_too_few_subsampled_pixels_fall_back(self, noisy, monkeypatch):
        # the warm-up's first step raises InsufficientDataError; the solve
        # is the one without a warm-up, byte for byte
        n = len(solver.prepare(noisy.depth, noisy.flow_field, QVGA).index)
        monkeypatch.setattr(solver, 'MIN_VALID_PIXELS', -(-n // 8) + 1)
        res = solver.solve(noisy.depth, noisy.flow_field, QVGA)
        assert_same_solve(res, newton_reference_solve(
            noisy.depth, noisy.flow_field, QVGA))
        assert res.converged

    def test_unconverged_warm_up_is_dropped(self, noisy):
        # two steps do not reach the warm-up's tolerance on a noisy frame:
        # its steps are reported, and the full loop starts from the seed
        res = solver.solve(noisy.depth, noisy.flow_field, QVGA,
                           max_iterations=2)
        ref = newton_reference_solve(noisy.depth, noisy.flow_field, QVGA,
                                    max_iterations=2)
        assert updates(res)[:2] == ['coarse', 'coarse']
        assert res.xi.tobytes() == ref.xi.tobytes()
        assert res.reports[2:] == ref.reports and res.iterations == 2

    def test_degenerate_warm_up_is_dropped(self, noisy, monkeypatch):
        ref = newton_reference_solve(noisy.depth, noisy.flow_field, QVGA)
        step = solver.gauss_newton_step

        def coarse_fails(problem, xi):
            if len(problem.index) < ref.reports[0].valid_count:
                raise DegenerateGeometryError("coarse normal equations")
            return step(problem, xi)
        monkeypatch.setattr(solver, 'gauss_newton_step', coarse_fails)
        res = solver.solve(noisy.depth, noisy.flow_field, QVGA)
        assert_same_solve(res, ref)

    def test_single_iteration_is_unchanged(self, noisy):
        # the one-step warm-up does not converge, so the full step starts
        # from the seed
        res = solver.solve(noisy.depth, noisy.flow_field, QVGA,
                           max_iterations=1)
        ref = newton_reference_solve(noisy.depth, noisy.flow_field, QVGA,
                                     max_iterations=1)
        assert res.xi.tobytes() == ref.xi.tobytes()
        assert res.converged == ref.converged
        assert res.reports[1:] == ref.reports
        assert updates(res) == ['coarse', 'plain']

    def test_noiseless_frame_in_three_full_steps(self):
        scene, spec = qvga_scene(3, noise_sigma=0.0)
        res = solver.solve(scene.depth, scene.flow_field, QVGA)
        assert res.converged and res.iterations <= 3
        assert 'coarse' in updates(res)
        assert np.linalg.norm(res.xi - spec.motion) < 1e-8


def float32_rasters(scene):
    """The scene's depth and 5-channel flow raster as the float32 values a
    scene file holds, as read_raster returns them."""
    return (scene.depth.astype(np.float32),
            np.concatenate([scene.flow_field.flow, scene.flow_field.info],
                           axis=-1).astype(np.float32))


class TestFloat32Rasters:
    """solve on float32 rasters is solve on their float64 widening, byte for
    byte: prepare widens each value it gathers before any arithmetic."""

    @pytest.mark.parametrize("size", ["64x48", "320x240"])
    @pytest.mark.parametrize("noise_sigma, outlier_fraction", [
        (0.0, 0.0), (0.5, 0.0), (0.5, 0.1)],
        ids=["noiseless", "noisy", "outliers"])
    def test_solve_equals_solve_on_the_widening(self, K, size, noise_sigma,
                                                outlier_fraction):
        spec = qvga_spec(5, noise_sigma, outlier_fraction)
        if size == "64x48":
            spec.width, spec.height, spec.intrinsics = K.width, K.height, K
        depth, data = float32_rasters(synthetic.render(spec))
        res = solver.solve(depth, FlowField.from_raster(data),
                           spec.intrinsics)
        ref = solver.solve(depth.astype(float),
                           FlowField.from_raster(data.astype(float)),
                           spec.intrinsics)
        assert_same_solve(res, ref)
        # the 320x240 frames take the warm-up
        assert ('coarse' in updates(res)) == (size == "320x240")
        for name in ("index", "points", "flow", "conf"):
            got, want = getattr(res.problem, name), getattr(ref.problem, name)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("use_confidence", [True, False])
    def test_step_that_drops_pixels_equals_the_widening(self, K,
                                                        use_confidence):
        rng = np.random.default_rng(29)
        depth = rng.uniform(0.5, 5.0, (K.height, K.width)).astype(np.float32)
        data = np.concatenate([rng.normal(0.0, 2.0, (K.height, K.width, 2)),
                               rng.uniform(-1.0, 1.0, (K.height, K.width, 3))],
                              axis=-1).astype(np.float32)
        # a backward step of 1 m puts every point nearer than 1 m behind
        # the camera
        xi = np.array([0.01, -0.02, -1.0, 0.01, 0.02, -0.01])
        steps = [solver.gauss_newton_step(solver.prepare(
            d, FlowField.from_raster(f), K, use_confidence=use_confidence), xi)
            for d, f in ((depth, data),
                         (depth.astype(float), data.astype(float)))]
        (beta, report, terms), (ref_beta, ref_report, ref_terms) = steps
        assert 0 < report.valid_count < K.width * K.height
        assert beta.tobytes() == ref_beta.tobytes() and report == ref_report
        assert terms.matrix().tobytes() == ref_terms.matrix().tobytes()


class TestSolveMemory:
    @pytest.mark.skipif(sys.version_info < (3, 11), reason=(
        "before 3.11 a caller holds its arguments until the call returns"))
    def test_rasters_are_freed_before_the_loop(self, K, monkeypatch):
        # the loop reads only the Problem, so rasters that the caller does
        # not hold are freed once prepare has gathered the valid pixels
        spec = qvga_spec(5, noise_sigma=0.5)
        spec.width, spec.height, spec.intrinsics = K.width, K.height, K
        held = list(float32_rasters(synthetic.render(spec)))
        freed = [weakref.ref(raster) for raster in held]
        alive = []
        iterate = solver._iterate

        def first_step(*args, **kwargs):
            alive.append([ref() is not None for ref in freed])
            return iterate(*args, **kwargs)
        monkeypatch.setattr(solver, "_iterate", first_step)
        res = solver.solve(held.pop(0), FlowField.from_raster(held.pop(0)), K)
        assert res.converged and alive == [[False, False]]

    def test_prepare_holds_only_the_problem_and_a_gather(self):
        # q is freed once gathered and the offsets are taken from the
        # index, so prepare peaks at its Problem and one float32 gather of
        # the valid pixels. With q and the two offset grids held to the end
        # it peaked 2.15 MB above its Problem
        depth, data = float32_rasters(qvga_scene(2, noise_sigma=0.5)[0])
        ff = FlowField.from_raster(data)
        tracemalloc.start()
        try:
            problem = solver.prepare(depth, ff, QVGA)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        n = len(problem.index)
        assert n > 0.9 * depth.size
        nbytes = sum(getattr(problem, name).nbytes
                     for name in ("index", "points", "flow", "conf"))
        assert peak <= nbytes + 4 * n + 64 * 1024, (peak, nbytes)

    def test_full_resolution_step_peaks_at_residuals_and_norms(self):
        # the residuals are formed block by block into their (2, M) array,
        # and m's squared norms are summed into one (M,) array in place:
        # with the (3, N) product and a second (2, N) quotient a step
        # peaked at 3.15 MB here
        depth, data = float32_rasters(qvga_scene(2, noise_sigma=0.5)[0])
        problem = solver.prepare(depth, FlowField.from_raster(data), QVGA)
        tracemalloc.start()
        try:
            _, report, _ = solver.gauss_newton_step(problem, np.zeros(6))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        m = report.valid_count
        assert m == len(problem.index)
        assert peak <= 24 * m + 0.5e6, peak

    def test_noisy_qvga_peak(self):
        # each block builds its own Jacobians: stored for all 76800 pixels
        # they took 7.4 MB, and the peak was 16.1 MB
        scene, _ = qvga_scene(2, noise_sigma=0.5)
        tracemalloc.start()
        try:
            solver.solve(scene.depth, scene.flow_field, QVGA)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 11e6


class TestConfig:
    """The three settings are keyword-only arguments of `solve`, with the
    defaults the CLI leaves to it; `prepare` takes only use_confidence."""

    def test_keyword_only_defaults(self):
        params = inspect.signature(solver.solve).parameters
        assert list(params)[3:] == ['max_iterations', 'use_confidence',
                                    'seed_xi']
        assert all(params[name].kind is inspect.Parameter.KEYWORD_ONLY
                   for name in list(params)[3:])
        assert params['max_iterations'].default == 20
        assert params['use_confidence'].default is True
        assert np.array_equal(params['seed_xi'].default, np.zeros(6))
        params = inspect.signature(solver.prepare).parameters
        assert list(params)[3:] == ['use_confidence']
        assert params['use_confidence'].kind is inspect.Parameter.KEYWORD_ONLY

    # a fourth positional argument, such as a settings object of an older
    # call, fails loudly rather than being read as a setting
    @pytest.mark.parametrize("call", ["prepare", "solve"])
    @pytest.mark.parametrize("fourth", [1, True, SimpleNamespace()])
    def test_fourth_positional_argument_is_rejected(self, K, call, fourth):
        depth = np.full((K.height, K.width), 2.0)
        ff = FlowField(flow=np.zeros((K.height, K.width, 2)),
                       info=np.zeros((K.height, K.width, 3)))
        with pytest.raises(TypeError, match="positional argument"):
            getattr(solver, call)(depth, ff, K, fourth)

    def test_settings_class_is_gone(self):
        with pytest.raises(ImportError):
            from flowpose.solver import SolverConfig  # noqa: F401

    def test_rejects_bad_iterations(self, K):
        # checked before the rasters are read
        with pytest.raises(ValueError,
                           match=r"^max_iterations must be >= 1, got 0$"):
            solver.solve(None, None, K, max_iterations=0)

    def test_seed_is_copied_to_a_float_array(self, K):
        xi_star = np.array([0.03, -0.01, 0.02, 0.005, -0.004, 0.008])
        depth = np.full((K.height, K.width), 2.0)
        ff = exact_flow_field(depth, xi_star, K)
        seed = [0, 0, 0, 0, 0, 0]
        res = solver.solve(depth, ff, K, seed_xi=seed, max_iterations=1)
        assert seed == [0] * 6
        assert res.reports[0] == solver.gauss_newton_step(
            res.problem, np.zeros(6))[1]

    # the pixel floor and the tolerance are constants, not settings: a floor
    # below one let all-zero normal equations through, a loose tolerance
    # took an early step as converged, and no value reaches the solver now
    @pytest.mark.parametrize("floor", [0, -5, np.nan])
    def test_rejects_min_valid_pixels_below_one(self, K, floor):
        with pytest.raises(TypeError, match="'min_valid_pixels'"):
            solver.solve(None, None, K, min_valid_pixels=floor)

    # one step is max_iterations=1, with no second setting to override it
    def test_rejects_single_iteration(self, K):
        with pytest.raises(TypeError, match="'single_iteration'"):
            solver.solve(None, None, K, single_iteration=True)

    def test_rejects_bad_tolerance(self, K):
        with pytest.raises(TypeError, match="'convergence_tol'"):
            solver.solve(None, None, K, convergence_tol=0.0)

    @pytest.mark.parametrize("tol", [-1e-9, np.nan, np.inf])
    def test_rejects_tolerance_not_positive_and_finite(self, K, tol):
        with pytest.raises(TypeError, match="'convergence_tol'"):
            solver.solve(None, None, K, convergence_tol=tol)
