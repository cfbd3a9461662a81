import numpy as np
import pytest

from flowpose import camera, se3
from flowpose.camera import Intrinsics
from flowpose.errors import CheiralityError, RasterFormatError


def ref_project(x):
    """The perspective divide of one camera point as it was written before
    the divide kernel. divide must match it byte for byte, and call a point
    behind exactly where this raises, except on a NaN depth."""
    x = np.asarray(x, dtype=float)
    if x[2] <= camera.CHEIRALITY_EPS:
        raise CheiralityError("point not in front of the camera")
    return x[:2] / x[2]


@pytest.fixture
def K():
    return Intrinsics(fx=100.0, fy=120.0, cx=32.0, cy=24.0, width=64, height=48)


class TestIntrinsics:
    def test_rejects_bad_focal(self):
        with pytest.raises(ValueError) as exc:
            Intrinsics(fx=-1, fy=1, cx=1, cy=1, width=4, height=4)
        assert str(exc.value) == (
            "focal lengths must be positive and finite, got fx -1, fy 1")

    def test_rejects_principal_point_outside(self):
        with pytest.raises(ValueError) as exc:
            Intrinsics(fx=1, fy=1, cx=10, cy=1, width=4, height=4)
        assert str(exc.value) == ("principal point must lie inside the 4x4 "
                                  "raster, got cx 10, cy 1")


class TestProjectBackproject:
    """Projection is camera.divide; backprojection is depth times the
    pixel_offsets over the focal lengths, at depths depth_valid_mask
    accepts."""

    def test_project_unit(self):
        uv, front = camera.divide(np.array([0.0, 0.0, 1.0]))
        assert front and np.array_equal(uv, [0, 0])

    def test_project_division(self):
        uv, front = camera.divide(np.array([[2.0, 0.3], [4.0, -0.6],
                                            [2.0, 3.0]]))
        assert front.all()
        assert np.array_equal(uv[:, 0], [1, 2])
        assert np.allclose(uv[:, 1], [0.1, -0.2], rtol=0, atol=1e-15)

    def test_project_cheirality(self):
        _, front = camera.divide(np.array([1.0, 1.0, 0.0]))
        assert not front

    def test_project_matches_reference_bytes(self):
        rng = np.random.default_rng(45)
        X = rng.normal(0, 1, (2000, 3))
        X[::7, 2] = np.abs(X[::7, 2])
        X[::11, :2] = -0.0
        X[::31, 2] = -0.0
        # on the cheirality bound exactly and just above it
        X[::37, 2] = camera.CHEIRALITY_EPS
        X[::41, 2] = np.nextafter(camera.CHEIRALITY_EPS, 1)
        # one point at a time and all of them in one call
        uv, front = camera.divide(X.T)
        for x, uv_x, front_x in zip(X, uv.T, front):
            one_uv, one_front = camera.divide(x)
            try:
                want = ref_project(x).tobytes()
            except CheiralityError:
                assert not one_front and not front_x, x
            else:
                assert one_front and front_x, x
                assert one_uv.tobytes() == uv_x.tobytes() == want, x

    def test_project_nan_depth_is_behind(self):
        # the reference returned [nan, nan] here; divide calls it behind
        _, front = camera.divide(np.array([1.0, 1.0, np.nan]))
        assert not front

    def test_backproject_principal_ray(self, K):
        ox, oy = camera.pixel_offsets(K, (K.height, K.width))
        x, y = int(K.cx), int(K.cy)
        assert ox[y, x] == 0 and oy[y, x] == 0

    def test_backproject_unit_offset(self):
        # a principal point between pixels: offsets are exact half-integers
        K = Intrinsics(fx=100, fy=100, cx=0.5, cy=0.5, width=200, height=200)
        ox, oy = camera.pixel_offsets(K, (200, 200))
        assert np.array_equal(ox[0], np.arange(200) - 0.5)
        assert np.array_equal(oy[:, 0], np.arange(200) - 0.5)

    def test_backproject_invalid_depth(self):
        depth = np.array([0.0, -0.0, -1.0, np.nan, np.inf, -np.inf, 2.0])
        assert list(camera.depth_valid_mask(depth)) == [False] * 6 + [True]

    def test_roundtrip(self, K):
        # lift every pixel at a random depth, divide, scale back to pixels
        rng = np.random.default_rng(0)
        ox, oy = camera.pixel_offsets(K, (K.height, K.width))
        d = rng.uniform(0.3, 5.0, ox.shape)
        uv, front = camera.divide(np.stack([d * ox / K.fx, d * oy / K.fy, d]))
        back = np.stack([uv[0] * K.fx, uv[1] * K.fy], axis=-1)
        assert front.all()
        assert np.max(np.abs(back - np.stack([ox, oy], axis=-1))) < 1e-9


class TestBilinear:
    def test_exact_at_integer_coords(self):
        rng = np.random.default_rng(2)
        img = rng.uniform(0, 1, (8, 10))
        vals, ok = camera.bilinear_sample(img, [3], [5])
        assert ok.all()
        assert vals[0] == img[5, 3]

    def test_midpoint(self):
        img = np.array([[0.0, 1.0]])
        vals, ok = camera.bilinear_sample(img, [0.5], [0.0])
        assert ok.all() and vals[0] == 0.5

    def test_constant_image(self):
        img = np.full((6, 6), 0.7)
        vals, ok = camera.bilinear_sample(img, [1.3, 4.9], [0.1, 2.7])
        assert ok.all()
        assert np.allclose(vals, 0.7, atol=1e-15)

    def test_out_of_bounds_flagged(self):
        img = np.zeros((4, 4))
        # 3.5 needs the nonexistent column 4, so it is out of bounds too
        _, ok = camera.bilinear_sample(img, [-0.1, 3.5, 2.5], [0, 0, 0])
        assert list(ok) == [False, False, True]


class TestWarp:
    def test_identity_transform(self, K):
        rng = np.random.default_rng(3)
        img = rng.uniform(0, 1, (K.height, K.width))
        depth = np.full((K.height, K.width), 2.0)
        warped, mask = camera.warp_image(img, depth, np.eye(4), K)
        assert mask.all()
        assert np.max(np.abs(warped - img)) < 1e-12

    def test_constant_image_any_transform(self, K):
        img = np.full((K.height, K.width), 0.4)
        depth = np.full((K.height, K.width), 2.0)
        T = se3.exp([0.05, -0.02, 0.01, 0.01, 0.005, -0.01])
        warped, mask = camera.warp_image(img, depth, T, K)
        assert mask.any()
        assert np.max(np.abs(warped[mask] - 0.4)) < 1e-12

    def test_textured_plane_against_analytic_second_view(self, K):
        # analytic rendering of the second view is the oracle
        from flowpose import synthetic
        spec = synthetic.SceneSpec(
            width=K.width, height=K.height, intrinsics=K,
            motion=[0.02, -0.01, 0.01, 0.004, -0.006, 0.008],
            depth_model=synthetic.PlaneDepth(normal=(0.1, -0.05, 1.0), offset=2.0),
            texture_model=synthetic.SmoothRandomTexture(seed=5))
        scene = synthetic.render(spec)
        warped, mask = camera.warp_image(scene.image_2, scene.depth,
                                         scene.transform, K)
        err = np.abs(warped[mask] - scene.image_1[mask])
        assert err.mean() < 1e-6


class TestFlowFromPose:
    def test_identity_is_zero(self, K):
        depth = np.full((K.height, K.width), 2.0)
        flow, mask = camera.flow_from_pose(depth, np.eye(4), K)
        assert mask.all()
        assert np.count_nonzero(flow) == 0

    def test_pure_translation_constant_depth(self, K):
        d, tx = 2.0, 0.1
        depth = np.full((K.height, K.width), d)
        T = se3.exp([tx, 0, 0, 0, 0, 0])
        flow, mask = camera.flow_from_pose(depth, T, K)
        assert mask.all()
        flow /= [K.fx, K.fy]        # pixels to normalised coordinates
        assert np.max(np.abs(flow[..., 0] - tx / d)) < 1e-12
        assert np.max(np.abs(flow[..., 1])) < 1e-15

    def test_compositional_oracle(self, K):
        rng = np.random.default_rng(4)
        depth = 2.0 + 0.3 * rng.uniform(-1, 1, (K.height, K.width))
        T = se3.exp(rng.uniform(-0.05, 0.05, 6))
        flow, mask = camera.flow_from_pose(depth, T, K)
        flow /= [K.fx, K.fy]        # pixels to normalised coordinates
        for _ in range(50):
            y = rng.integers(0, K.height)
            x = rng.integers(0, K.width)
            if not mask[y, x]:
                continue
            n = np.array([(x - K.cx) / K.fx, (y - K.cy) / K.fy])
            moved = T[:3, :3] @ (depth[y, x] * np.append(n, 1.0)) + T[:3, 3]
            expected = moved[:2] / moved[2] - n
            assert np.max(np.abs(flow[y, x] - expected)) < 1e-10

    def test_consistency_with_warp(self, K):
        from flowpose import synthetic
        spec = synthetic.SceneSpec(
            width=K.width, height=K.height, intrinsics=K,
            motion=[0.01, 0.005, -0.01, 0.002, 0.003, -0.004],
            depth_model=synthetic.ConstantDepth(2.0))
        scene = synthetic.render(spec)
        flow, fmask = camera.flow_from_pose(scene.depth, scene.transform, K)
        warped, wmask = camera.warp_image(scene.image_2, scene.depth,
                                          scene.transform, K)
        xs, ys = np.meshgrid(np.arange(K.width, dtype=float),
                             np.arange(K.height, dtype=float))
        sampled, ok = camera.bilinear_sample(
            scene.image_2, xs + flow[..., 0], ys + flow[..., 1])
        joint = fmask & wmask & ok
        assert joint.any()
        assert np.max(np.abs(sampled[joint] - warped[joint])) < 1e-9


class TestKernels:
    def test_pixel_offsets(self, K):
        ox, oy = camera.pixel_offsets(K, (K.height, K.width))
        assert ox.shape == oy.shape == (K.height, K.width)
        assert ox[5, 7] == 7 - K.cx and oy[5, 7] == 5 - K.cy

    @pytest.mark.parametrize("shape", [(48, 60), (40, 64), (64, 48)])
    def test_pixel_offsets_rejects_other_raster_size(self, K, shape):
        with pytest.raises(RasterFormatError, match="64x48"):
            camera.pixel_offsets(K, shape)

    @pytest.mark.parametrize("cx, cy", [(32.0, 24.0), (0.1, 47.9),
                                        (31.3, 1e-300)])
    @pytest.mark.parametrize("width, height", [(64, 48), (1, 7), (640, 480)])
    def test_pixel_offsets_of_flat_indices_are_the_grids(self, width, height,
                                                         cx, cy):
        # the offsets of a raster's flat indices, taken without the grids,
        # are the grids' values at those indices, bit for bit, in the first
        # and last column and row too
        K = Intrinsics(fx=100.0, fy=120.0, cx=cx * width / 64,
                       cy=cy * height / 48, width=width, height=height)
        size = width * height
        rng = np.random.default_rng(width)
        index = np.unique(np.concatenate([
            [0, width - 1, size - width, size - 1],
            rng.integers(0, size, min(size, 500))]))
        ox, oy = camera.pixel_offsets(K, (height, width))
        offsets = camera.pixel_offsets(K, (height, width), index)
        assert offsets.shape == (2, len(index)) and offsets.dtype == float
        assert_same_bytes(offsets, np.stack([ox.ravel()[index],
                                             oy.ravel()[index]]))
        empty = camera.pixel_offsets(K, (height, width),
                                     np.empty(0, dtype=np.int64))
        assert empty.shape == (2, 0)

    @pytest.mark.parametrize("shape", [(48, 60), (40, 64), (64, 48)])
    def test_pixel_offsets_of_flat_indices_reject_other_raster_size(
            self, K, shape):
        with pytest.raises(RasterFormatError, match="64x48"):
            camera.pixel_offsets(K, shape, np.arange(10))

    def test_divide(self):
        Y = np.array([[2.0, 1.0, 3.0, 5.0],
                      [4.0, 1.0, 3.0, 7.0],
                      [2.0, 0.0, -1.0, 1e-12]])
        uv, front = camera.divide(Y)
        assert list(front) == [True, False, False, False]
        assert np.array_equal(uv[:, 0], [1.0, 2.0])
        assert np.all(np.isfinite(uv))

    def test_divide_in_place(self):
        # the renderer divides into the points' own first two rows
        rng = np.random.default_rng(32)
        Y = rng.normal(0.0, 2.0, (3, 7, 9))
        Y[2, 0, :5] = (0.0, -1.0, np.nan, 1e-12, np.inf)
        want, want_front = camera.divide(Y.copy())
        got, front = camera.divide(Y, out=Y[:2])
        assert np.shares_memory(got, Y)
        assert_same_bytes(front, want_front)
        assert_same_bytes(got, want)


# The project-transform-divide as written before the shared kernels and the
# in-place grid and flow, kept as the reference they must reproduce byte for
# byte (the synth manifests hash these rasters). The reference flow is the
# normalised one scaled by (fx, fy) a component at a time, the order
# flow_from_pose keeps.
def reference_transform_grid(depth, T, K):
    depth = np.asarray(depth, dtype=float)
    h, w = depth.shape
    xs, ys = np.meshgrid(np.arange(w, dtype=float), np.arange(h, dtype=float))
    valid = camera.depth_valid_mask(depth)
    d = np.where(valid, depth, 1.0)
    X = np.stack([d * (xs - K.cx) / K.fx,
                  d * (ys - K.cy) / K.fy,
                  d], axis=-1)
    R = T[:3, :3]
    t = T[:3, 3]
    Y = X @ R.T + t
    return Y, valid


def reference_warp_image(src, depth, T, K):
    Y, valid = reference_transform_grid(depth, T, K)
    z = Y[..., 2]
    cheir = z > 1e-12
    zsafe = np.where(cheir, z, 1.0)
    px = Y[..., 0] / zsafe * K.fx + K.cx
    py = Y[..., 1] / zsafe * K.fy + K.cy
    values, in_bounds = camera.bilinear_sample(src, px, py)
    mask = valid & cheir & in_bounds
    if values.ndim == 3:
        values = np.where(mask[..., None], values, 0.0)
    else:
        values = np.where(mask, values, 0.0)
    return values, mask


def reference_flow_from_pose(depth, T, K):
    depth = np.asarray(depth, dtype=float)
    h, w = depth.shape
    xs, ys = np.meshgrid(np.arange(w, dtype=float), np.arange(h, dtype=float))
    Y, valid = reference_transform_grid(depth, T, K)
    z = Y[..., 2]
    cheir = z > 1e-12
    zsafe = np.where(cheir, z, 1.0)
    u0 = (xs - K.cx) / K.fx
    v0 = (ys - K.cy) / K.fy
    # the normalised flow, then each component in pixels
    flow = np.stack([(Y[..., 0] / zsafe - u0) * K.fx,
                     (Y[..., 1] / zsafe - v0) * K.fy], axis=-1)
    mask = valid & cheir
    flow = np.where(mask[..., None], flow, 0.0)
    return flow, mask


def identity_depths(K):
    """Constant, plane and smooth-random depth, and the smooth one with
    invalid pixels."""
    ox, oy = np.meshgrid(np.arange(K.width) - K.cx, np.arange(K.height) - K.cy)
    a, b = ox / K.fx, oy / K.fy
    rng = np.random.default_rng(30)
    smooth = 2.0 + 0.6 * np.sin(3.0 * a) * np.cos(2.0 * b) \
        + 0.05 * rng.uniform(-1, 1, a.shape)
    holes = smooth.copy()
    holes.ravel()[rng.choice(holes.size, 200, replace=False)] = np.nan
    holes[0, :4] = (0.0, -1.0, np.inf, -np.inf)
    return {"constant": np.full(a.shape, 2.0),
            "plane": 2.0 / (0.1 * a - 0.05 * b + 1.0),
            "smooth": smooth, "invalid": holes}


# the second motion steps 2 m back, so the nearer points land behind the
# camera
IDENTITY_MOTIONS = {"small": [0.03, -0.02, 0.01, 0.01, -0.02, 0.015],
                    "behind": [0.1, 0.05, -2.0, 0.05, -0.1, 0.2]}


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestMatchesParentKernel:
    @pytest.mark.parametrize("depth_name", ["constant", "plane", "smooth",
                                            "invalid"])
    @pytest.mark.parametrize("motion", list(IDENTITY_MOTIONS))
    def test_flow_and_warp_bit_identical(self, K, depth_name, motion):
        depth = identity_depths(K)[depth_name]
        T = se3.exp(IDENTITY_MOTIONS[motion])
        flow, mask = camera.flow_from_pose(depth, T, K)
        ref_flow, ref_mask = reference_flow_from_pose(depth, T, K)
        assert_same_bytes(mask, ref_mask)
        assert_same_bytes(flow, ref_flow)
        if motion == "behind":
            assert mask.any()
            assert not mask[camera.depth_valid_mask(depth)].all()
        rng = np.random.default_rng(31)
        for src in (rng.uniform(0, 1, depth.shape),
                    rng.uniform(0, 1, depth.shape + (2,))):
            warped, wmask = camera.warp_image(src, depth, T, K)
            ref_warped, ref_wmask = reference_warp_image(src, depth, T, K)
            assert_same_bytes(wmask, ref_wmask)
            assert_same_bytes(warped, ref_warped)
