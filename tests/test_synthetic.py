import hashlib
from pathlib import Path

import numpy as np
import pytest

from flowpose import camera, rasters, se3, synthetic
from flowpose.synthetic import (CheckerTexture, ConstantDepth, PlaneDepth,
                                SceneSpec, SmoothRandomDepth,
                                SmoothRandomTexture)


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

    @pytest.mark.parametrize("sigma", [-0.5, np.nan, np.inf])
    def test_bad_noise_sigma_rejected(self, sigma):
        with pytest.raises(ValueError, match="noise_sigma"):
            basic_spec(noise_sigma=sigma)

    @pytest.mark.parametrize("magnitude", [np.nan, np.inf, -np.inf])
    def test_non_finite_outlier_magnitude_rejected(self, magnitude):
        with pytest.raises(ValueError, match="outlier_magnitude"):
            basic_spec(outlier_fraction=0.1, outlier_magnitude=magnitude)

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

    def test_checker_texture_binary_levels(self):
        spec = basic_spec(texture_model=CheckerTexture(period=8.0))
        scene = synthetic.render(spec)
        assert set(np.unique(scene.image_1)) <= {0.25, 0.75}

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
        a1, b1, valid = synthetic._second_view_scene_coords(
            spec, T, ox / K.fx, oy / K.fy)
        ref_a, ref_b, ref_valid = reference_second_view_scene_coords(spec, T)
        assert np.array_equal(valid, ref_valid)
        # render zeroes the invalid pixels, whose coordinates may differ
        assert np.array_equal(a1[valid], ref_a[valid])
        assert np.array_equal(b1[valid], ref_b[valid])
        if motion[4] > 1:
            assert valid.any() and not valid.all()


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
    # stops at step 4 with the closed form's bits, at every pixel: those
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
        got = synthetic._second_view_scene_coords(spec, T, ox / K.fx,
                                                  oy / K.fy)
        want = constant_depth_closed_form(spec, T, ox / K.fx, oy / K.fy)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


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
