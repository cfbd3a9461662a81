import hashlib
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from flowpose import camera, rasters, se3, synthetic
from flowpose.camera import Intrinsics
from flowpose.synthetic import (ConstantDepth, PlaneDepth, SceneSpec,
                                SmoothRandomDepth, SmoothRandomTexture)


def basic_spec(**kwargs):
    defaults = dict(width=64, height=48,
                    motion=[0.02, -0.01, 0.01, 0.004, -0.003, 0.006], seed=50)
    defaults.update(kwargs)
    return SceneSpec(**defaults)


class TestRender:
    def test_zero_motion(self):
        scene = synthetic.render(basic_spec(motion=np.zeros(6)))
        assert np.count_nonzero(scene.flow_field.flow) == 0
        assert np.array_equal(scene.image_1, scene.image_2)

    def test_constant_depth_translation_closed_form(self):
        d, tx = 2.5, 0.1
        spec = basic_spec(motion=[tx, 0, 0, 0, 0, 0],
                          depth_model=ConstantDepth(d))
        scene = synthetic.render(spec)
        K = spec.intrinsics
        expected = K.fx * tx / d
        assert np.max(np.abs(scene.flow_field.flow[..., 0] - expected)) < 1e-10
        assert np.max(np.abs(scene.flow_field.flow[..., 1])) < 1e-12

    @pytest.mark.parametrize("depth_model", [
        ConstantDepth(2.0),
        PlaneDepth(normal=(0.1, -0.05, 1.0), offset=2.0),
        SmoothRandomDepth(seed=3, amplitude=0.4),
    ])
    def test_flow_matches_compositional_identity(self, depth_model):
        spec = basic_spec(depth_model=depth_model)
        scene = synthetic.render(spec)
        K = spec.intrinsics
        flow, mask = camera.flow_from_pose(scene.depth, scene.transform, K)
        pix = camera.flow_normalised_to_pixels(flow, K)
        assert np.max(np.abs(scene.flow_field.flow[mask] - pix[mask])) < 1e-10

    @pytest.mark.parametrize("noise_sigma", [0.0, 0.5])
    def test_flow_is_nan_exactly_where_unmeasured(self, noise_sigma):
        # the camera turns by 86 degrees, so part of the surface lands
        # behind it; a scene file keeps the NaN, where zero flow read back
        # as a measurement
        spec = basic_spec(motion=[0.1, 0.0, 0.1, 0.05, 1.5, 0.0],
                          noise_sigma=noise_sigma, outlier_fraction=0.1,
                          outlier_magnitude=10.0)
        scene = synthetic.render(spec)
        _, mask = camera.flow_from_pose(scene.depth, scene.transform,
                                        spec.intrinsics)
        assert mask.any() and not mask.all()
        nan = np.isnan(scene.flow_field.flow)
        assert np.array_equal(nan, np.stack([~mask, ~mask], axis=-1))
        assert np.array_equal(scene.flow_field.valid, mask)

    def test_nonpositive_depth_rejected(self):
        spec = basic_spec(depth_model=ConstantDepth(-1.0))
        with pytest.raises(ValueError):
            synthetic.render(spec)

    @pytest.mark.parametrize("bad", [0.0, -0.0, np.nan, np.inf, -np.inf,
                                     -1e308])
    def test_one_invalid_depth_pixel_rejected(self, bad):
        worst = {"0.0": "0", "-0.0": "-0"}.get(repr(bad), repr(bad))

        def depth_model(a, b):
            depth = np.full(a.shape, 2.0)
            depth[3, 5] = bad
            return depth

        with pytest.raises(ValueError) as exc:
            synthetic.render(basic_spec(depth_model=depth_model))
        assert str(exc.value) == (
            "depth model produced a depth that is not finite or not above "
            f"1e-12 at 1 of 3072 pixels, worst {worst}")

    def test_worst_invalid_depth_is_nan_then_largest(self):
        def depth_model(a, b):
            depth = np.full(a.shape, 2.0)
            depth[0, :4] = [-1.0, -np.inf, np.nan, 0.0]
            return depth

        with pytest.raises(ValueError) as exc:
            synthetic.render(basic_spec(depth_model=depth_model))
        assert str(exc.value) == (
            "depth model produced a depth that is not finite or not above "
            "1e-12 at 4 of 3072 pixels, worst nan")

    @pytest.mark.parametrize("sigma", [-0.5, np.nan, np.inf])
    def test_bad_noise_sigma_rejected(self, sigma):
        with pytest.raises(ValueError) as exc:
            basic_spec(noise_sigma=sigma)
        assert str(exc.value) == (
            f"noise_sigma must be finite and >= 0, got {sigma:g}")

    @pytest.mark.parametrize("magnitude", [np.nan, np.inf, -np.inf])
    def test_non_finite_outlier_magnitude_rejected(self, magnitude):
        with pytest.raises(ValueError) as exc:
            basic_spec(outlier_fraction=0.1, outlier_magnitude=magnitude)
        assert str(exc.value) == (
            f"outlier_magnitude must be finite, got {magnitude:g}")

    @pytest.mark.parametrize("fraction", [-0.1, 1.0, 1.5, np.nan])
    def test_outlier_fraction_outside_unit_interval_rejected(self, fraction):
        with pytest.raises(ValueError) as exc:
            basic_spec(outlier_fraction=fraction)
        assert str(exc.value) == (
            f"outlier_fraction must be in [0, 1), got {fraction:g}")

    def test_determinism(self):
        a = synthetic.render(basic_spec(noise_sigma=0.5, outlier_fraction=0.1,
                                        outlier_magnitude=20.0))
        b = synthetic.render(basic_spec(noise_sigma=0.5, outlier_fraction=0.1,
                                        outlier_magnitude=20.0))
        assert np.array_equal(a.flow_field.flow, b.flow_field.flow)
        assert np.array_equal(a.flow_field.info, b.flow_field.info)
        assert np.array_equal(a.image_1, b.image_1)
        assert np.array_equal(a.image_2, b.image_2)
        assert np.array_equal(a.outlier_mask, b.outlier_mask)

    def test_outlier_bookkeeping(self):
        spec = basic_spec(outlier_fraction=0.2, outlier_magnitude=50.0)
        scene = synthetic.render(spec)
        valid_count = int(scene.flow_field.valid.sum())
        expected = int(round(0.2 * valid_count))
        assert int(scene.outlier_mask.sum()) == expected
        # outliers carry the low-confidence tag
        assert np.all(scene.flow_field.info[scene.outlier_mask][:, 0] == -6.0)
        assert np.all(scene.flow_field.info[scene.outlier_mask][:, 2] == -6.0)

    def test_noise_confidence_matches_sigma(self):
        sigma = 0.7
        scene = synthetic.render(basic_spec(noise_sigma=sigma))
        expected = -2.0 * np.log(sigma)
        assert np.allclose(scene.flow_field.info[..., 0], expected, atol=0)
        assert np.allclose(scene.flow_field.info[..., 2], expected, atol=0)

    def test_smooth_texture_in_range(self):
        spec = basic_spec(texture_model=SmoothRandomTexture(seed=9))
        scene = synthetic.render(spec)
        assert scene.image_1.min() >= 0.0 and scene.image_1.max() <= 1.0


# The parent's second-view solver, kept verbatim as the reference for the
# shared divide kernel.
def reference_second_view_scene_coords(spec, T):
    K = spec.intrinsics
    xs, ys = np.meshgrid(np.arange(spec.width, dtype=float),
                         np.arange(spec.height, dtype=float))
    r2 = np.stack([(xs - K.cx) / K.fx, (ys - K.cy) / K.fy,
                   np.ones_like(xs)], axis=-1)
    R = T[:3, :3]
    t = T[:3, 3]
    ray1 = r2 @ R
    t1 = R.T @ t

    model = spec.depth_model
    if isinstance(model, ConstantDepth):
        lam = (model.value + t1[2]) / ray1[..., 2]
    elif isinstance(model, PlaneDepth):
        n = np.asarray(model.normal, dtype=float)
        lam = (model.offset + n @ t1) / (ray1 @ n)
    else:
        a0 = (xs - K.cx) / K.fx
        b0 = (ys - K.cy) / K.fy
        lam = np.asarray(model(a0, b0), dtype=float)
        for _ in range(50):
            X1 = lam[..., None] * ray1 - t1
            z = np.where(X1[..., 2] > 1e-12, X1[..., 2], 1.0)
            a = X1[..., 0] / z
            b = X1[..., 1] / z
            lam = (np.asarray(model(a, b), dtype=float) + t1[2]) / ray1[..., 2]
    X1 = lam[..., None] * ray1 - t1
    z = X1[..., 2]
    valid = (lam > 0) & (z > 1e-12)
    zsafe = np.where(valid, z, 1.0)
    return X1[..., 0] / zsafe, X1[..., 1] / zsafe, valid


class TestSecondViewMatchesParent:
    # a normal with n_z != 1, which a reordered plane product would round
    # differently
    @pytest.mark.parametrize("depth_model", [
        ConstantDepth(2.0),
        PlaneDepth(normal=(0.13, -0.07, 0.9), offset=1.8),
        SmoothRandomDepth(seed=3, amplitude=0.4),
    ], ids=["constant", "plane", "smooth"])
    # the second motion turns the camera by 86 degrees, so part of its view
    # looks away from the surface; the third, of twist norm 0.3, keeps some
    # pixels of the smooth surface in the fixed-point loop for all 50 steps
    @pytest.mark.parametrize("motion", [
        [0.02, -0.01, 0.01, 0.004, -0.003, 0.006],
        [0.1, 0.0, 0.1, 0.05, 1.5, 0.0],
        [0.15, -0.1, 0.2, 0.05, -0.1, 0.08],
    ], ids=["small", "behind", "large"])
    def test_bit_identical_on_valid_pixels(self, depth_model, motion):
        spec = basic_spec(depth_model=depth_model, motion=motion)
        K = spec.intrinsics
        T = se3.exp(spec.motion)
        ox, oy = camera.pixel_offsets(K, (spec.height, spec.width))
        a, b = ox / K.fx, oy / K.fy
        a1, b1, valid = synthetic._second_view_scene_coords(
            spec, T, a, b, spec.depth_model(a, b))
        ref_a, ref_b, ref_valid = reference_second_view_scene_coords(spec, T)
        assert np.array_equal(valid, ref_valid)
        # render zeroes the invalid pixels, whose coordinates may differ
        assert np.array_equal(a1[valid], ref_a[valid])
        assert np.array_equal(b1[valid], ref_b[valid])
        if motion[4] > 1:
            assert valid.any() and not valid.all()


def lambda_history(spec, T):
    """lambda_0 .. lambda_50 of the reference's fixed-point iteration, as a
    (51, H, W) array of their int64 bit patterns."""
    K = spec.intrinsics
    ox, oy = camera.pixel_offsets(K, (spec.height, spec.width))
    a0, b0 = ox / K.fx, oy / K.fy
    R = T[:3, :3]
    t1 = R.T @ T[:3, 3]
    ray1 = np.stack([a0, b0, np.ones_like(a0)], axis=-1) @ R
    lam = np.asarray(spec.depth_model(a0, b0), dtype=float)
    history = [lam]
    with np.errstate(all='ignore'):
        for _ in range(50):
            X1 = lam[..., None] * ray1 - t1
            z = np.where(X1[..., 2] > 1e-12, X1[..., 2], 1.0)
            lam = (np.asarray(spec.depth_model(X1[..., 0] / z, X1[..., 1] / z),
                              dtype=float) + t1[2]) / ray1[..., 2]
            history.append(lam)
    return np.array(history).view(np.int64)


class TestSecondViewStopsBothWays:
    # the loop stops a pixel at its first repeat, lambda_k = lambda_{k-1},
    # or at a 2-cycle, lambda_k = lambda_{k-2} at an even k; the smooth
    # cases above compare both kinds with all 50 steps of the reference
    @pytest.mark.parametrize("motion", [
        [0.1, 0.0, 0.1, 0.05, 1.5, 0.0],
        [0.15, -0.1, 0.2, 0.05, -0.1, 0.08],
    ], ids=["behind", "large"])
    def test_smooth_cases_hold_both_kinds(self, motion):
        spec = basic_spec(depth_model=SmoothRandomDepth(seed=3, amplitude=0.4),
                          motion=motion)
        h = lambda_history(spec, se3.exp(spec.motion))
        never = 99
        repeat = h[1:] == h[:-1]            # row k-1: lambda_k = lambda_{k-1}
        fixed_at = np.where(repeat.any(0), repeat.argmax(0) + 1, never)
        cycle = (h[2:] == h[:-2])[::2]      # row j: k = 2j + 2
        cycle_at = np.where(cycle.any(0), 2 * cycle.argmax(0) + 2, never)
        # stopped at an odd step, before any 2-cycle test could stop them
        assert np.any((fixed_at % 2 == 1) & (fixed_at < cycle_at))
        # stopped by the even rule alone: no step repeats its predecessor
        assert np.any((cycle_at < never) & (fixed_at == never))


def constant_depth_closed_form(spec, T, a, b):
    """The closed form _second_view_scene_coords once took for a constant
    depth, kept as the reference for the fixed-point loop that replaced it."""
    R = T[:3, :3]
    t = T[:3, 3]
    rows = np.stack([a, b, np.ones_like(a)], axis=-1) @ R
    ray1 = np.ascontiguousarray(np.moveaxis(rows, -1, 0))
    t1 = R.T @ t
    lam = (spec.depth_model.value + t1[2]) / ray1[2]
    (a1, b1), front = camera.divide(lam * ray1 - t1[:, None, None])
    return a1, b1, (lam > 0) & front


class TestConstantDepthLoopMatchesClosedForm:
    # the loop's lambda is the closed form from its first step on, so it
    # stops at step 2 with the closed form's bits, at every pixel: those
    # behind either camera too, which the last three motions make
    @pytest.mark.parametrize("size", [(320, 240), (64, 48), (33, 17)],
                             ids=["320x240", "64x48", "33x17"])
    @pytest.mark.parametrize("depth, motion", [
        (2.0, [0.02, -0.01, 0.01, 0.004, -0.003, 0.006]),
        (0.7, [0.3, -0.2, 0.5, 0.2, -0.1, 0.4]),
        (2.0, [0.1, 0.0, 0.1, 0.05, 1.5, 0.0]),
        (2.0, [0.1, 0.05, -2.5, 0.05, -0.1, 0.2]),
        (3.3, [-1.2, 0.8, 1.1, 1.6, -0.9, 1.3]),
    ], ids=["small", "large", "turned", "behind", "norm3"])
    def test_bit_identical(self, size, depth, motion):
        width, height = size
        spec = basic_spec(width=width, height=height, motion=motion,
                          depth_model=ConstantDepth(depth))
        K = spec.intrinsics
        T = se3.exp(spec.motion)
        ox, oy = camera.pixel_offsets(K, (height, width))
        a, b = ox / K.fx, oy / K.fy
        got = synthetic._second_view_scene_coords(spec, T, a, b,
                                                  spec.depth_model(a, b))
        want = constant_depth_closed_form(spec, T, a, b)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


def reference_outlier_pixels(seed, valid, count):
    """The outlier choice as render once made it, by a full stable sort of
    the ranks, kept as the reference for the selection that replaced it."""
    flat_valid = np.flatnonzero(valid.ravel())
    ranks = synthetic._mix64(
        synthetic._stream_base(seed, 31)
        + (flat_valid.astype(np.uint64) + np.uint64(1)) * synthetic._GOLDEN)
    return flat_valid[np.argsort(ranks, kind='stable')[:count]]


class TestOutlierPixelsMatchFullSort:
    @pytest.mark.parametrize("size", [(320, 240), (64, 48), (33, 17), (5, 3)],
                             ids=["320x240", "64x48", "33x17", "5x3"])
    @pytest.mark.parametrize("holes", [False, True], ids=["full", "holes"])
    @pytest.mark.parametrize("fraction", [0.1, 0.37, "one", "all"])
    def test_same_indices(self, size, holes, fraction):
        width, height = size
        rng = np.random.default_rng(width * height)
        valid = (rng.uniform(size=(height, width)) < 0.7 if holes
                 else np.ones((height, width), dtype=bool))
        n_valid = int(valid.sum())
        # fractions that round to a single pixel and to every valid pixel
        fraction = {"one": 0.6 / n_valid,
                    "all": (n_valid - 0.4) / n_valid}.get(fraction, fraction)
        count = int(round(fraction * n_valid))
        assert count >= 1 and fraction < 1.0
        for seed in (0, 11, 2 ** 40 + 3):
            got = synthetic._outlier_pixels(seed, valid, count)
            want = reference_outlier_pixels(seed, valid, count)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def reference_render(spec):
    """render as it was written before it selected its outliers and reused
    its buffers, kept as the byte-for-byte reference: the stacked flow
    expressions, the stacked noise, the full sort of the outlier ranks and
    the 50-step second view. Returns depth, flow, info, both images and the
    outlier mask."""
    K = spec.intrinsics
    h, w = spec.height, spec.width
    ox, oy = camera.pixel_offsets(K, (h, w))
    a, b = ox / K.fx, oy / K.fy
    depth = np.asarray(spec.depth_model(a, b), dtype=float)
    T = se3.exp(spec.motion)
    X = np.stack([depth * ox / K.fx, depth * oy / K.fy, depth], axis=-1)
    Y = X @ T[:3, :3].T + T[:3, 3]
    valid = Y[..., 2] > camera.CHEIRALITY_EPS
    z = np.where(valid, Y[..., 2], 1.0)
    flow = np.stack([Y[..., 0] / z - ox / K.fx, Y[..., 1] / z - oy / K.fy],
                    axis=-1)
    flow = np.where(valid[..., None], flow, 0.0)
    flow_px = flow * np.array([K.fx, K.fy])
    flow_px[~valid] = np.nan

    image_1 = np.asarray(spec.texture_model.intensity(a, b), dtype=float)
    a2, b2, valid2 = reference_second_view_scene_coords(spec, T)
    with np.errstate(all='ignore'):     # pixels that the mask zeroes
        image_2 = np.asarray(spec.texture_model.intensity(a2, b2),
                             dtype=float)
    image_2 = np.where(valid2, image_2, 0.0)

    info = np.zeros((h, w, 3))
    if spec.noise_sigma > 0:
        n = h * w
        noise = np.stack([
            synthetic.stream_normal(spec.seed, 21, n).reshape(h, w),
            synthetic.stream_normal(spec.seed, 22, n).reshape(h, w),
        ], axis=-1) * spec.noise_sigma
        flow_px = flow_px + noise
        conf = -2.0 * np.log(spec.noise_sigma)
        info[..., 0] = conf
        info[..., 2] = conf

    outlier_mask = np.zeros((h, w), dtype=bool)
    n_outliers = int(round(spec.outlier_fraction * int(valid.sum())))
    if n_outliers > 0:
        chosen = reference_outlier_pixels(spec.seed, valid, n_outliers)
        outlier_mask.ravel()[chosen] = True
        signs = np.where(
            synthetic.stream_uniform(spec.seed, 33, 2 * n_outliers) < 0.5,
            -1.0, 1.0).reshape(n_outliers, 2)
        flow_flat = flow_px.reshape(-1, 2)
        flow_flat[chosen] = flow_flat[chosen] + signs * spec.outlier_magnitude
        info.reshape(-1, 3)[chosen] = (-6.0, 0.0, -6.0)
    return depth, flow_px, info, image_1, image_2, outlier_mask


QVGA = Intrinsics(fx=262.5, fy=262.5, cx=159.5, cy=119.5, width=320,
                  height=240)


class TestRenderMatchesReference:
    # the second motion turns the camera by 86 degrees, so points of the
    # first view land behind the second camera and pixels of the second
    # view see the surface behind the first; the third steps 1.9 m back,
    # so the nearer points land behind the second camera
    @pytest.mark.parametrize("motion", [
        [0.02, -0.01, 0.01, 0.004, -0.003, 0.006],
        [0.1, 0.0, 0.1, 0.05, 1.5, 0.0],
        [0.1, 0.05, -1.9, 0.3, -0.1, 0.2],
    ], ids=["small", "turned", "back"])
    @pytest.mark.parametrize("depth_model", [
        ConstantDepth(2.0),
        PlaneDepth(normal=(0.13, -0.07, 0.9), offset=1.8),
        SmoothRandomDepth(seed=3, amplitude=0.4),
    ], ids=["constant", "plane", "smooth"])
    @pytest.mark.parametrize("noise_sigma, outlier_fraction", [
        (0.0, 0.0), (0.5, 0.1), (0.0, 0.3)], ids=["clean", "noise+outliers",
                                                   "outliers"])
    def test_bytes(self, motion, depth_model, noise_sigma, outlier_fraction):
        spec = basic_spec(motion=motion, depth_model=depth_model,
                          noise_sigma=noise_sigma,
                          outlier_fraction=outlier_fraction,
                          outlier_magnitude=20.0)
        valid = self.check(spec).flow_field.valid
        assert valid.all() == (motion[2] > 0 and motion[4] < 1)
        if motion[4] > 1:
            _, _, valid2 = reference_second_view_scene_coords(
                spec, se3.exp(motion))
            assert valid2.any() and not valid2.all()

    def test_bytes_qvga(self):
        spec = SceneSpec(width=320, height=240, intrinsics=QVGA,
                         motion=[0.01, -0.008, 0.012, 0.004, -0.006, 0.005],
                         depth_model=SmoothRandomDepth(seed=5, amplitude=0.5),
                         noise_sigma=0.5, outlier_fraction=0.1,
                         outlier_magnitude=20.0, seed=9)
        self.check(spec)

    @staticmethod
    def check(spec):
        scene = synthetic.render(spec)
        got = (scene.depth, scene.flow_field.flow, scene.flow_field.info,
               scene.image_1, scene.image_2, scene.outlier_mask)
        for name, g, w in zip(["depth", "flow", "info", "image_1", "image_2",
                               "outlier_mask"], got, reference_render(spec)):
            assert g.dtype == w.dtype and g.shape == w.shape, name
            assert g.tobytes() == w.tobytes(), name
        return scene


class TestRenderMemory:
    def test_traced_peak(self):
        # a 320x240 render with noise and 10% outliers peaked at 16.2e6
        # bytes while its flow, grids, fixed-point points and noise were
        # built from raster-sized temporaries, and at 11.4e6 while the
        # second view ran beside the flow and divided into new arrays
        spec = SceneSpec(width=320, height=240, intrinsics=QVGA,
                         motion=[0.01, -0.008, 0.012, 0.004, -0.006, 0.005],
                         depth_model=SmoothRandomDepth(seed=5, amplitude=0.5),
                         noise_sigma=0.5, outlier_fraction=0.1,
                         outlier_magnitude=20.0, seed=9)
        tracemalloc.start()
        try:
            synthetic.render(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10.0e6


class CountingDepth:
    """An elementwise depth model that records the size of each input."""

    def __init__(self, model):
        self.model = model
        self.sizes = []

    def __call__(self, a, b):
        self.sizes.append(np.size(a))
        return self.model(a, b)


class TestDepthModelCalls:
    # the fixed-point loop starts from render's depth and stops each pixel
    # at its first repeat: 10 full-raster calls became 7, and 6 became 3
    # for a constant depth, which repeats at step 2
    @pytest.mark.parametrize("model, most", [
        (SmoothRandomDepth(seed=5, amplitude=0.5), 7),
        (ConstantDepth(2.0), 3),
    ], ids=["smooth", "constant"])
    def test_full_raster_calls(self, model, most):
        counting = CountingDepth(model)
        spec = SceneSpec(width=320, height=240, intrinsics=QVGA,
                         motion=[0.01, -0.008, 0.012, 0.004, -0.006, 0.005],
                         depth_model=counting, noise_sigma=0.5,
                         outlier_fraction=0.1, outlier_magnitude=20.0, seed=9)
        synthetic.render(spec)
        full = counting.sizes.count(320 * 240)
        assert full <= most
        if isinstance(model, ConstantDepth):
            assert counting.sizes == [320 * 240] * 3


class TestWriteScene:
    def test_manifest_identical_across_runs(self, tmp_path):
        spec = basic_spec(noise_sigma=0.3, outlier_fraction=0.05,
                          outlier_magnitude=10.0)
        m1 = synthetic.write_scene(spec, tmp_path / "a")
        m2 = synthetic.write_scene(spec, tmp_path / "b")
        assert Path(m1).read_text() == Path(m2).read_text()

    def test_manifest_lists_five_artifacts(self, tmp_path):
        manifest = synthetic.write_scene(basic_spec(), tmp_path / "scene")
        lines = [l for l in Path(manifest).read_text().splitlines() if l]
        assert len(lines) == 5
        names = [l.split()[0] for l in lines]
        assert names == ["depth.engr", "flow.engr", "images.engr",
                         "intrinsics.txt", "pose_gt.txt"]

    def test_manifest_hashes_the_files_written(self, tmp_path):
        # write_scene hashes the bytes it encoded, not the files read back
        spec = basic_spec(noise_sigma=0.3, outlier_fraction=0.05,
                          outlier_magnitude=10.0)
        manifest = Path(synthetic.write_scene(spec, tmp_path / "scene"))
        for line in manifest.read_text().splitlines():
            name, digest = line.split()
            data = (tmp_path / "scene" / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest

    def test_reread_rasters_bitwise_equal(self, tmp_path):
        spec = basic_spec()
        scene = synthetic.render(spec)
        synthetic.write_scene(spec, tmp_path / "scene")
        depth = rasters.read_raster(tmp_path / "scene" / "depth.engr")
        flow5 = rasters.read_raster(tmp_path / "scene" / "flow.engr")
        assert np.array_equal(depth, scene.depth.astype(np.float32).astype(float))
        expected = np.concatenate([scene.flow_field.flow,
                                   scene.flow_field.info], axis=-1)
        assert np.array_equal(flow5, expected.astype(np.float32).astype(float))

    def test_files_match_the_stacked_rasters(self, tmp_path):
        # each raster's channels are cast part by part: the bytes are those
        # of the float64 raster that joins the parts. The camera turns by
        # 86 degrees, so NaN flow is written too
        spec = basic_spec(motion=[0.1, 0.0, 0.1, 0.05, 1.5, 0.0],
                          noise_sigma=0.3, outlier_fraction=0.05,
                          outlier_magnitude=10.0)
        scene = synthetic.render(spec)
        assert not scene.flow_field.valid.all()
        synthetic.write_scene(spec, tmp_path / "scene")
        pair = np.stack([scene.image_1, scene.image_2], axis=-1)
        for name, data in (("depth.engr", scene.depth),
                           ("flow.engr", scene.flow_field.raster()),
                           ("images.engr", pair)):
            path = tmp_path / "scene" / name
            assert path.read_bytes() == rasters.encode_raster(path, data)

    def test_traced_peak(self, tmp_path):
        # with a float64 flow raster and a stacked image pair, and each
        # raster's float32 copy joined to its header, the peak was 12.75e6
        # bytes
        spec = SceneSpec(width=320, height=240, intrinsics=QVGA,
                         motion=[0.01, -0.008, 0.012, 0.004, -0.006, 0.005],
                         depth_model=SmoothRandomDepth(seed=5, amplitude=0.5),
                         noise_sigma=0.5, outlier_fraction=0.1,
                         outlier_magnitude=20.0, seed=9)
        tracemalloc.start()
        try:
            synthetic.write_scene(spec, tmp_path / "scene")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 11.0e6

    def test_ground_truth_file_roundtrip(self, tmp_path):
        spec = basic_spec()
        synthetic.write_scene(spec, tmp_path / "scene")
        xi = np.array([float(x) for x in
                       (tmp_path / "scene" / "pose_gt.txt").read_text().split()])
        assert np.array_equal(xi, spec.motion)


class TestStreams:
    def test_uniform_range_and_determinism(self):
        a = synthetic.stream_uniform(123, 4, 1000)
        b = synthetic.stream_uniform(123, 4, 1000)
        assert np.array_equal(a, b)
        assert a.min() >= 0.0 and a.max() < 1.0
        assert not np.array_equal(a, synthetic.stream_uniform(123, 5, 1000))

    def test_normal_moments(self):
        x = synthetic.stream_normal(7, 1, 200000)
        assert abs(x.mean()) < 0.01
        assert abs(x.std() - 1.0) < 0.01


# The streams and polynomials as written before they worked in place, kept
# verbatim as the byte-for-byte reference.
def reference_mix64(x):
    z = np.asarray(x, dtype=np.uint64) + synthetic._GOLDEN
    z = (z ^ (z >> np.uint64(30))) * synthetic._MIX1
    z = (z ^ (z >> np.uint64(27))) * synthetic._MIX2
    return z ^ (z >> np.uint64(31))


def reference_stream_uniform(seed, tag, count):
    idx = np.arange(1, count + 1, dtype=np.uint64)
    z = reference_mix64(synthetic._stream_base(seed, tag)
                        + idx * synthetic._GOLDEN)
    return (z >> np.uint64(11)).astype(float) * (2.0 ** -53)


def reference_stream_normal(seed, tag, count):
    u1 = reference_stream_uniform(seed, tag * 2 + 101, count)
    u2 = reference_stream_uniform(seed, tag * 2 + 102, count)
    r = np.sqrt(-2.0 * np.log(1.0 - u1))
    return r * np.cos(2.0 * np.pi * u2)


def reference_depth(model, a, b):
    c = reference_stream_uniform(model.seed, 7, 5) * 2.0 - 1.0
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    bump = (c[0] * a + c[1] * b + c[2] * a * b
            + c[3] * a * a + c[4] * b * b)
    return 2.0 + model.amplitude * bump


def reference_intensity(texture, a, b):
    c = reference_stream_uniform(texture.seed, 11, 5) * 2.0 - 1.0
    val = (0.5 + 0.25 * (c[0] * a + c[1] * b)
           + 0.02 * (c[2] * a * b + c[3] * a * a + c[4] * b * b))
    return np.clip(val, 0.0, 1.0)


def same_bytes(got, want):
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


def polynomial_inputs():
    """QVGA normalised grids, and grids that hold NaN, +-inf and +-1e160,
    whose squares overflow."""
    ox, oy = camera.pixel_offsets(QVGA, (QVGA.height, QVGA.width))
    a, b = ox / QVGA.fx, oy / QVGA.fy
    extremes = np.array([np.nan, np.inf, -np.inf, 1e160, -1e160, 0.0, -0.0,
                         0.3, 5e-324])
    ea, eb = np.meshgrid(extremes, extremes)
    return [(a, b), (ea, eb), (eb, ea)]


class TestStreamsAndPolynomialsMatchParent:
    @pytest.mark.parametrize("seed", [0, 9, 2 ** 40 + 3, 2 ** 64 - 1])
    @pytest.mark.parametrize("tag", [0, 7, 21, 143])
    @pytest.mark.parametrize("count", [0, 1, 5, 1001, 76800])
    def test_streams(self, seed, tag, count):
        assert same_bytes(synthetic.stream_uniform(seed, tag, count),
                          reference_stream_uniform(seed, tag, count))
        assert same_bytes(synthetic.stream_normal(seed, tag, count),
                          reference_stream_normal(seed, tag, count))

    @pytest.mark.parametrize("seed", [1, 3, 5, 2 ** 31 - 1])
    def test_polynomials(self, seed):
        depth = SmoothRandomDepth(seed=seed, amplitude=0.37)
        texture = SmoothRandomTexture(seed=seed)
        with np.errstate(all='ignore'):
            for a, b in polynomial_inputs():
                assert same_bytes(depth(a, b), reference_depth(depth, a, b))
                assert same_bytes(texture.intensity(a, b),
                                  reference_intensity(texture, a, b))

    def test_depth_returns_a_new_array(self):
        # the fixed-point loop updates the model's result in place
        a, b = polynomial_inputs()[0]
        depth = SmoothRandomDepth(seed=5, amplitude=0.5)
        first = depth(a, b)
        first += 1.0
        assert same_bytes(depth(a, b), reference_depth(depth, a, b))


class TestDivergingSecondView:
    """A QVGA scene whose second view's fixed-point loop diverges at 2194
    pixels: the depth polynomial overflows there, under the suite's
    warnings-as-errors setting, without a warning."""

    MOTION = [-0.26137526010960194, -0.23343239050512446, 0.10589530327566,
              0.037255329601612326, -0.2796207122691113, -0.19079511234894667]

    @pytest.fixture(scope='class')
    def spec(self):
        return SceneSpec(width=320, height=240, intrinsics=QVGA,
                         motion=self.MOTION,
                         depth_model=SmoothRandomDepth(seed=1259538835,
                                                       amplitude=0.5),
                         seed=2060095667)

    def test_diverging_pixels_end_invalid(self, spec):
        a, b = camera.pixel_offsets(QVGA, (QVGA.height, QVGA.width))
        a, b = a / QVGA.fx, b / QVGA.fy
        a2, b2, valid2 = synthetic._second_view_scene_coords(
            spec, se3.exp(spec.motion), a, b, spec.depth_model(a, b))
        diverged = ~(np.isfinite(a2) & np.isfinite(b2))
        assert np.count_nonzero(diverged) == 2194
        assert not np.any(valid2 & diverged)

    def test_renders_without_a_warning(self, spec):
        scene = synthetic.render(spec)
        # the diverging pixels are zeroed in the second image; the flow is
        # the first view's, finite at every pixel in front of both cameras
        assert np.all(np.isfinite(scene.image_2))
        flow, mask = camera.flow_from_pose(scene.depth, scene.transform, QVGA)
        pix = camera.flow_normalised_to_pixels(flow, QVGA)
        assert same_bytes(scene.flow_field.flow[mask], pix[mask])
        assert np.all(np.isnan(scene.flow_field.flow[~mask]))
