import tracemalloc

import numpy as np
import pytest

from flowpose import camera, infomat, se3, solver, synthetic
from flowpose.camera import Intrinsics
from flowpose.errors import DegenerateGeometryError, InsufficientDataError
from flowpose.solver import FlowField, SolverConfig


@pytest.fixture
def K():
    return Intrinsics(fx=100.0, fy=100.0, cx=32.0, cy=24.0, width=64, height=48)


def exact_flow_field(depth, xi, K):
    flow, mask = camera.flow_from_pose(depth, se3.exp(xi), K)
    pix = camera.flow_normalised_to_pixels(flow, K)
    return FlowField(flow=pix, info=np.zeros(depth.shape + (3,)), valid=mask)


class TestFlowField:
    @pytest.mark.parametrize("explicit_valid", [False, True])
    def test_valid_mask_matches_channel_reduction(self, explicit_valid):
        rng = np.random.default_rng(34)
        flow = rng.normal(size=(12, 16, 2))
        info = rng.normal(size=(12, 16, 3))
        for raster in (flow, info):
            for c in range(raster.shape[-1]):
                for bad in (np.nan, np.inf, -np.inf):
                    raster[rng.integers(12), rng.integers(16), c] = bad
        valid = rng.random((12, 16)) < 0.8 if explicit_valid else None
        ff = FlowField(flow=flow, info=info, valid=valid)
        want = np.all(np.isfinite(flow), axis=-1) \
            & np.all(np.isfinite(info), axis=-1)
        if explicit_valid:
            want &= valid
        assert ff.valid.dtype == bool
        assert np.array_equal(ff.valid, want)
        assert 0 < want.sum() < want.size - 9


class TestComputeResiduals:
    def test_zero_everything(self, K):
        depth = np.full((K.height, K.width), 2.0)
        ff = FlowField(flow=np.zeros((K.height, K.width, 2)),
                       info=np.zeros((K.height, K.width, 3)))
        residuals = solver.compute_residuals(depth, ff, np.zeros(6), K)
        assert residuals.shape == (K.height, K.width, 2)
        assert np.count_nonzero(residuals) == 0
        config = SolverConfig()
        _, report = solver.gauss_newton_step(
            solver.prepare(depth, ff, K, config), np.zeros(6), config)
        assert report.m == 0.0

    def test_zero_at_ground_truth(self, K):
        xi = np.array([0.03, -0.02, 0.01, 0.004, 0.006, -0.008])
        depth = np.full((K.height, K.width), 2.0)
        ff = exact_flow_field(depth, xi, K)
        residuals = solver.compute_residuals(depth, ff, xi, K)
        assert np.max(np.abs(residuals)) < 1e-12

    def test_at_zero_equals_negative_flow(self, K):
        xi = np.array([0.02, 0.01, -0.01, 0.003, -0.002, 0.005])
        depth = np.full((K.height, K.width), 2.0)
        ff = exact_flow_field(depth, xi, K)
        residuals = solver.compute_residuals(depth, ff, np.zeros(6), K)
        expected, mask = camera.flow_from_pose(depth, se3.exp(xi), K)
        assert np.max(np.abs(residuals[mask] + expected[mask])) < 1e-12

    def test_insufficient_pixels(self, K):
        depth = np.full((K.height, K.width), np.nan)
        depth[0, :8] = 2.0
        ff = FlowField(flow=np.zeros((K.height, K.width, 2)),
                       info=np.zeros((K.height, K.width, 3)))
        with pytest.raises(InsufficientDataError):
            solver.compute_residuals(depth, ff, np.zeros(6), K)


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
        config = SolverConfig()
        beta, _ = solver.gauss_newton_step(solver.prepare(depth, ff, K, config),
                                           np.zeros(6), config)
        assert np.linalg.norm(beta - xi_star) < 1e-10

    def test_zero_flow_zero_update(self, K):
        depth = np.full((K.height, K.width), 2.0)
        ff = FlowField(flow=np.zeros((K.height, K.width, 2)),
                       info=np.zeros((K.height, K.width, 3)))
        config = SolverConfig()
        beta, _ = solver.gauss_newton_step(solver.prepare(depth, ff, K, config),
                                           np.zeros(6), config)
        assert np.linalg.norm(beta) == 0.0

    def test_z_rotation_converges_quickly(self, K):
        xi_star = np.array([0, 0, 0, 0, 0, 0.01])
        depth = np.full((K.height, K.width), 2.0)
        ff = exact_flow_field(depth, xi_star, K)
        xi = np.zeros(6)
        config = SolverConfig()
        problem = solver.prepare(depth, ff, K, config)
        for _ in range(3):
            beta, _ = solver.gauss_newton_step(problem, xi, config)
            xi = xi + beta
        assert np.linalg.norm(xi - xi_star) < 1e-8

    def test_degenerate_geometry_raises(self):
        # near-zero field of view makes translation-x and rotation-y columns
        # almost parallel
        K = Intrinsics(fx=5e5, fy=5e5, cx=8.0, cy=8.0, width=16, height=16)
        depth = np.full((16, 16), 2.0)
        ff = FlowField(flow=np.full((16, 16, 2), 0.1),
                       info=np.zeros((16, 16, 3)))
        config = SolverConfig()
        with pytest.raises(DegenerateGeometryError):
            solver.gauss_newton_step(solver.prepare(depth, ff, K, config),
                                     np.zeros(6), config)

    def test_no_full_width_temporary(self):
        # a 320x240 problem: JT takes 7.4 MB, and one weighted copy of it,
        # or of its x or y half, would break the bound at the identity
        K = Intrinsics(fx=262.5, fy=262.5, cx=159.5, cy=119.5,
                       width=320, height=240)
        rng = np.random.default_rng(33)
        depth = rng.uniform(1.5, 5.0, (K.height, K.width))
        ff = FlowField(flow=rng.normal(0.0, 2.0, (K.height, K.width, 2)),
                       info=rng.uniform(-1.0, 1.0, (K.height, K.width, 3)))
        config = SolverConfig()
        problem = solver.prepare(depth, ff, K, config)
        # at the identity every pixel is kept; 2 m backwards the pixels
        # nearer than 2 m fail the cheirality test, and a copy of JT's kept
        # columns would break the bound
        for tz, share in ((0.0, 0.5), (-2.0, 1.0)):
            tracemalloc.start()
            try:
                _, report = solver.gauss_newton_step(
                    problem, np.array([0.0, 0.0, tz, 0.0, 0.0, 0.0]), config)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert (report.valid_count < len(problem.index)) == (tz < 0)
            assert peak < problem.JT.nbytes * share, tz


def reference_step(depth, flow_field, xi, K, config):
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
    if config.use_confidence:
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
    if config.damping > 0:
        A = A + config.damping * np.eye(6)
    return (np.linalg.solve(A, -b), extended_beta(J, wgt, r, config),
            float(np.sum(wgt * r * r)), int(mask.sum()))


def extended_beta(J, wgt, r, config):
    """The same normal equations accumulated in extended precision and
    solved with two steps of iterative refinement: an oracle for the
    rounding error of a double-precision assembly."""
    Jl, wl, rl = (x.astype(np.longdouble) for x in (J, wgt, r))
    Jwl = Jl * wl[:, :, None]
    A = np.einsum('nij,nik->jk', Jwl, Jl)
    b = np.einsum('nij,ni->j', Jwl, rl)
    if config.damping > 0:
        A = A + config.damping * np.eye(6, dtype=np.longdouble)
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

    @pytest.mark.parametrize("config", [
        SolverConfig(),
        SolverConfig(use_confidence=False),
        SolverConfig(damping=0.5),
        SolverConfig(use_confidence=False, damping=2.0),
    ], ids=["confidence", "no-confidence", "damping", "no-confidence-damping"])
    def test_matches_reference_step_on_outliers(self, K, outlier_scene, config):
        scene = outlier_scene
        problem = solver.prepare(scene.depth, scene.flow_field, K, config)
        for xi in (np.zeros(6), np.array([0.02, 0.0, -0.01, 0.003, 0.004, -0.008])):
            beta, report = solver.gauss_newton_step(problem, xi, config)
            ref, exact, cost, count = reference_step(
                scene.depth, scene.flow_field, xi, K, config)
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
        config = SolverConfig(use_confidence=use_confidence)
        beta, report = solver.gauss_newton_step(
            solver.prepare(depth, ff, K, config), xi, config)
        ref, exact, cost, count = reference_step(depth, ff, xi, K, config)
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
        residuals = solver.compute_residuals(depth, ff, xi, K)
        assert np.count_nonzero(residuals[:, :10]) == 0
        config = SolverConfig()
        _, report = solver.gauss_newton_step(
            solver.prepare(depth, ff, K, config), xi, config)
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
    @pytest.mark.parametrize("config", [
        SolverConfig(),
        SolverConfig(use_confidence=False),
        SolverConfig(damping=0.5),
    ], ids=["confidence", "no-confidence", "damping"])
    def test_matches_reference_step(self, valid, config):
        depth, ff, K = block_scene(valid, seed=valid)
        problem = solver.prepare(depth, ff, K, config)
        assert len(problem.index) == valid
        for xi in (np.zeros(6), np.array([0.02, 0.0, -0.01, 0.003, 0.004, -0.008])):
            beta, report = solver.gauss_newton_step(problem, xi, config)
            ref, exact, cost, count = reference_step(depth, ff, xi, K, config)
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
        config = SolverConfig(use_confidence=use_confidence)
        problem = solver.prepare(depth, ff, K, config)
        _, keep = solver._residuals(problem, xi)
        assert np.array_equal(keep, ~near[problem.index])
        assert B < keep.sum() < 2 * B
        beta, report = solver.gauss_newton_step(problem, xi, config)
        ref, exact, cost, count = reference_step(depth, ff, xi, K, config)
        assert report.valid_count == count
        assert_agrees_with_reference(beta, ref, exact)
        assert report.weighted_cost == pytest.approx(cost, rel=1e-12)


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
        problem = solver.prepare(depth, ff, K, SolverConfig())
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


# The parent's prepare, verbatim but for its return value and the inlined
# exp of infomat.confidences: the reference for the per-channel gathers.
def reference_prepare(depth, flow_field, K, config):
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
    if config.use_confidence:
        info = flow_field.info.reshape(-1, 3)[index]
        conf = np.stack((np.exp(info[..., 0]), np.exp(info[..., 2])))
    else:
        conf = np.ones((2, len(index)))
    u, v, _, q = points
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
        # the CLI's flow and info are views of one 5-channel raster
        data = np.concatenate([scene.flow_field.flow,
                               rng.uniform(-5.0, 5.0, depth.shape + (3,))],
                              axis=-1)
        if layout == "separate":
            ff = FlowField(flow=data[..., :2].copy(), info=data[..., 2:].copy())
        else:
            ff = FlowField(flow=data[..., :2], info=data[..., 2:])
        ff.valid[rng.random(depth.shape) < 0.1] = False
        config = SolverConfig(use_confidence=use_confidence)
        problem = solver.prepare(depth, ff, K, config)
        index, points, flow, conf, J = reference_prepare(depth, ff, K, config)
        assert 0 < len(index) < depth.size
        for got, want in [(problem.index, index), (problem.points, points),
                          (problem.flow, flow), (problem.conf, conf),
                          (problem.JT, J)]:
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
                               SolverConfig(use_confidence=False))
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
        config = SolverConfig()
        base, _ = solver.gauss_newton_step(
            solver.prepare(scene.depth, scene.flow_field, K, config),
            np.zeros(6), config)
        scaled_info = scene.flow_field.info.copy()
        scaled_info[..., 0] += np.log(7.0)
        scaled_info[..., 2] += np.log(7.0)
        ff2 = FlowField(flow=scene.flow_field.flow, info=scaled_info,
                        valid=scene.flow_field.valid)
        scaled, _ = solver.gauss_newton_step(
            solver.prepare(scene.depth, ff2, K, config), np.zeros(6), config)
        assert np.max(np.abs(base - scaled)) < 1e-12

    def test_weighted_cost_not_worse_than_seed(self, K):
        rng = np.random.default_rng(26)
        xi_star = rng.uniform(-0.05, 0.05, 6)
        depth = np.full((K.height, K.width), 2.0)
        ff = exact_flow_field(depth, xi_star, K)
        res = solver.solve(depth, ff, K)
        config = SolverConfig()
        problem = solver.prepare(depth, ff, K, config)
        _, rep_final = solver.gauss_newton_step(problem, res.xi, config)
        _, rep_zero = solver.gauss_newton_step(problem, np.zeros(6), config)
        assert rep_final.weighted_cost <= rep_zero.weighted_cost

    def test_seed_independence(self, K):
        xi_star = np.array([0.03, -0.01, 0.02, 0.005, -0.004, 0.008])
        depth = np.full((K.height, K.width), 2.0)
        ff = exact_flow_field(depth, xi_star, K)
        rng = np.random.default_rng(27)
        for _ in range(5):
            seed = xi_star + rng.uniform(-0.05, 0.05, 6) * 0.5
            res = solver.solve(depth, ff, K, SolverConfig(seed_xi=seed))
            assert np.linalg.norm(res.xi - xi_star) < 1e-8

    def test_single_iteration_worse_on_rotation(self, K):
        xi_star = np.array([0.005, 0.0, 0.0, 0.04, -0.05, 0.06])
        depth = np.full((K.height, K.width), 2.0)
        ff = exact_flow_field(depth, xi_star, K)
        full = solver.solve(depth, ff, K)
        single = solver.solve(depth, ff, K, SolverConfig(single_iteration=True))
        assert single.iterations == 1
        err_full = np.linalg.norm(full.xi - xi_star)
        err_single = np.linalg.norm(single.xi - xi_star)
        assert err_single > err_full


def plain_reference_solve(depth, flow_field, K, config=None):
    """The plain IRLS loop, xi <- xi + beta, that `solve` ran before it mixed
    its steps; verbatim but for how it builds its result."""
    if config is None:
        config = SolverConfig()
    problem = solver.prepare(depth, flow_field, K, config)
    xi = np.array(config.seed_xi, dtype=float)
    reports = []
    converged = False
    max_iter = 1 if config.single_iteration else config.max_iterations
    for _ in range(max_iter):
        beta, report = solver.gauss_newton_step(problem, xi, config)
        xi = xi + beta
        reports.append(report)
        if np.linalg.norm(beta) < config.convergence_tol:
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
    """`solve` mixes the last two Gauss-Newton updates (depth-1 Anderson
    acceleration); the plain loop above is its reference."""

    @pytest.mark.parametrize("outliers", [False, True],
                             ids=["noisy", "outliers"])
    @pytest.mark.parametrize("use_confidence", [True, False])
    def test_same_limit_in_no_more_steps(self, outliers, use_confidence):
        # at 0.5 px and fx 100 the plain loop contracts by about 0.5 per
        # step and takes up to 24 steps, so both loops get a budget of 100
        config = SolverConfig(use_confidence=use_confidence,
                              max_iterations=100)
        tight = SolverConfig(use_confidence=use_confidence,
                             max_iterations=100, convergence_tol=1e-12)
        for seed in range(40, 48):
            scene, spec = small_scene(seed, outliers)
            args = (scene.depth, scene.flow_field, spec.intrinsics)
            limit = plain_reference_solve(*args, tight).xi
            assert np.max(np.abs(solver.solve(*args, tight).xi - limit)) \
                < 1e-11
            ref = plain_reference_solve(*args, config)
            res = solver.solve(*args, config)
            assert ref.converged and res.converged
            # each stops within convergence_tol of the limit, so the two
            # answers may differ by up to twice that
            assert np.max(np.abs(ref.xi - limit)) < 1e-9
            assert np.max(np.abs(res.xi - limit)) < 1e-9
            assert np.max(np.abs(res.xi - ref.xi)) < 2e-9
            assert res.iterations <= ref.iterations + 1
            # both first steps are plain steps from the seed
            assert res.reports[0] == ref.reports[0]
            assert updates(res)[0] == 'plain'
            assert set(updates(res)) <= {'plain', 'mixed'}

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

    @pytest.mark.parametrize("outliers", [False, True],
                             ids=["noisy", "outliers"])
    def test_single_iteration_is_the_plain_first_step(self, outliers):
        scene, spec = small_scene(49, outliers)
        args = (scene.depth, scene.flow_field, spec.intrinsics)
        ref = plain_reference_solve(*args, SolverConfig(max_iterations=1))
        res = solver.solve(*args, SolverConfig(single_iteration=True))
        assert res.xi.tobytes() == ref.xi.tobytes()
        assert res.reports == ref.reports
        assert res.iterations == 1 and updates(res) == ['plain']


class StubStep:
    """Stands in for gauss_newton_step: records the points it is called at
    and returns beta_of(call index, xi)."""

    def __init__(self, beta_of):
        self.beta_of = beta_of
        self.points = []

    def __call__(self, problem, xi, config):
        self.points.append(np.array(xi))
        beta = np.asarray(self.beta_of(len(self.points) - 1, xi), dtype=float)
        return beta, solver.ResidualReport(
            m=0.0, weighted_cost=float(len(self.points)), valid_count=64)


E0, E1 = np.eye(6)[:2]


class TestMixedStepsOnStub:
    """The loop of `solve` on known maps xi -> beta, with prepare and
    gauss_newton_step stubbed out."""

    @pytest.fixture
    def run(self, monkeypatch):
        monkeypatch.setattr(solver, 'prepare', lambda *args: None)

        def run(beta_of, **settings):
            stub = StubStep(beta_of)
            monkeypatch.setattr(solver, 'gauss_newton_step', stub)
            return solver.solve(None, None, None, SolverConfig(**settings)), \
                stub.points
        return run

    def test_theta_formula(self, run):
        # a linear contraction with a different rate per component
        target = np.array([0.3, -0.2, 0.1, 0.05, -0.04, 0.02])
        rates = np.array([0.9, 0.7, 0.5, 0.4, 0.3, 0.2])
        res, points = run(lambda k, xi: rates * (target - xi),
                          max_iterations=3)
        x0, x1 = points[:2]
        f0, f1 = rates * (target - x0), rates * (target - x1)
        theta = f1 @ (f1 - f0) / ((f1 - f0) @ (f1 - f0))
        np.testing.assert_allclose(
            points[2], x1 + f1 - theta * ((x1 - x0) + (f1 - f0)),
            rtol=0, atol=1e-16)
        assert updates(res) == ['plain', 'mixed', 'plain']
        assert len(points) == res.iterations == 3

    def test_one_dimensional_linear_map_converges_in_three_calls(self, run):
        # the secant step lands on the fixed point of xi -> xi + beta(xi),
        # which the plain loop approaches by halves
        res, points = run(lambda k, xi: 0.5 * (2.0 * E0 - xi))
        np.testing.assert_allclose(points[2], 2.0 * E0, rtol=0, atol=1e-15)
        assert res.converged and res.iterations == 3
        assert updates(res) == ['plain', 'mixed', 'plain']
        # the stub's cost counts its calls: the reports are its own, in order
        assert [r.weighted_cost for r in res.reports] == [1.0, 2.0, 3.0]

    def test_zero_denominator_takes_plain_steps(self, run):
        # beta never changes, so ||beta_k - beta_{k-1}||^2 = 0 at every step
        step = np.array([0.1, 0.0, -0.2, 0.0, 0.05, 0.0])
        res, points = run(lambda k, xi: step, max_iterations=7)
        assert updates(res) == ['plain'] * 7
        assert not res.converged and len(points) == res.iterations == 7
        for k, point in enumerate(points + [res.xi]):
            np.testing.assert_allclose(point, k * step, rtol=0, atol=1e-15)

    SCRIPT = [                  # (point called at, beta returned there)
        (0.0 * E0, E0),         # first step: plain
        (1.0 * E0, 0.5 * E0),   # mixed: theta = -1 lands on 2 E0
        (2.0 * E0, 0.6 * E1),   # ||beta|| grew: fall back to 1.5 E0
        (1.5 * E0, 0.25 * E0),  # history dropped: plain
        (1.75 * E0, 0.125 * E0),  # mixed again, to 2 E0
        (2.0 * E0, 0.0 * E0),   # converged
    ]

    def scripted(self, k, xi):
        point, beta = self.SCRIPT[k]
        np.testing.assert_allclose(xi, point, rtol=0, atol=1e-15)
        return beta

    def test_falls_back_when_beta_grows(self, run):
        res, points = run(self.scripted)
        assert len(points) == res.iterations == 6 and res.converged
        assert updates(res) == ['plain', 'mixed', 'plain',
                                'plain', 'mixed', 'plain']
        np.testing.assert_allclose(res.xi, 2.0 * E0, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("calls, xi", [(1, 1.0 * E0), (2, 1.5 * E0),
                                           (3, 1.5 * E0), (5, 1.875 * E0)])
    def test_max_iterations_counts_every_call(self, run, calls, xi):
        # the fall-back's call counts, and the last step is always plain
        res, points = run(self.scripted, max_iterations=calls)
        assert len(points) == res.iterations == calls
        assert not res.converged
        assert updates(res)[-1] == 'plain'
        np.testing.assert_allclose(res.xi, xi, rtol=0, atol=1e-15)


class TestConfig:
    def test_rejects_bad_iterations(self):
        with pytest.raises(ValueError):
            SolverConfig(max_iterations=0)

    @pytest.mark.parametrize("floor", [0, -5, np.nan])
    def test_rejects_min_valid_pixels_below_one(self, floor):
        with pytest.raises(ValueError, match="min_valid_pixels"):
            SolverConfig(min_valid_pixels=floor)

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            SolverConfig(convergence_tol=0.0)

    @pytest.mark.parametrize("tol", [-1e-9, np.nan, np.inf])
    def test_rejects_tolerance_not_positive_and_finite(self, tol):
        # an infinite tolerance took any first update as converged
        with pytest.raises(ValueError, match="convergence_tol must be "
                                             "positive and finite"):
            SolverConfig(convergence_tol=tol)
