import re

import numpy as np
import pytest

from flowpose import losses, se3, synthetic
from flowpose.camera import Intrinsics
from flowpose.errors import InsufficientDataError, RasterFormatError
from flowpose.losses import LossWeights


@pytest.fixture
def K():
    return Intrinsics(fx=100.0, fy=100.0, cx=32.0, cy=24.0, width=64, height=48)


class TestBerhu:
    def test_perfect_fit(self):
        d = np.full((4, 4), 2.0)
        assert losses.berhu(d, d) == 0.0

    def test_two_branch_hand_values(self):
        # |d| in {0.5, 2, 5}: c = 1, losses {0.5, 2.5, 13.0}, mean 16/3
        gt = np.zeros((1, 3)) + 1.0
        pred = gt + np.array([[0.5, 2.0, 5.0]])
        assert losses.berhu(pred, gt) == pytest.approx(16.0 / 3.0, abs=1e-12)

    def test_branch_continuity_at_cutoff(self):
        # d = c exactly: (c^2 + c^2) / 2c == c; a power-of-two cutoff keeps
        # the float arithmetic exact
        c = 0.5
        assert (c * c + c * c) / (2 * c) == c

    def test_monotone_in_abs_difference(self):
        gt = np.ones((1, 4))
        pred = gt + np.array([[0.1, 0.5, 2.0, 5.0]])
        d = np.abs(pred - gt).ravel()
        c = d.max() / 5.0
        per_pixel = np.where(d <= c, d, (d * d + c * c) / (2 * c))
        assert (np.diff(per_pixel) > 0).all()

    def test_empty_mask_rejected(self):
        bad = np.full((2, 3), np.nan)
        with pytest.raises(InsufficientDataError, match=(
                r"^empty validity mask over the 3x2 raster$")):
            losses.berhu(bad, bad)

    def test_shape_mismatch(self):
        with pytest.raises(RasterFormatError):
            losses.berhu(np.zeros((2, 2)), np.zeros((3, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_prediction_skipped(self, bad):
        rng = np.random.default_rng(15)
        gt = rng.uniform(1, 3, (5, 6))
        pred = gt + rng.normal(0, 0.1, gt.shape)
        keep = np.ones(gt.shape, dtype=bool)
        keep[2, 3] = False
        expected = losses.berhu(pred, gt, keep)
        pred[2, 3] = bad
        assert losses.berhu(pred, gt) == expected
        # an explicit mask does not bring the pixel back
        assert losses.berhu(pred, gt, np.ones(gt.shape, dtype=bool)) == expected

    def test_all_predictions_non_finite_rejected(self):
        with pytest.raises(InsufficientDataError):
            losses.berhu(np.full((3, 3), np.nan), np.ones((3, 3)))


def finite_smoothness_loop(d):
    """Mean of |d[y, x+1] - d[y, x]| + |d[y+1, x] - d[y, x]| over the
    interior positions whose three depths are finite."""
    h, w = d.shape
    terms = []
    for y in range(h - 1):
        for x in range(w - 1):
            if np.isfinite([d[y, x], d[y, x + 1], d[y + 1, x]]).all():
                terms.append(abs(d[y, x + 1] - d[y, x])
                             + abs(d[y + 1, x] - d[y, x]))
    return sum(terms) / len(terms)


class TestSmoothness:
    def test_constant(self):
        assert losses.smoothness(np.full((5, 7), 3.0)) == 0.0

    def test_unit_slope(self):
        xs = np.tile(np.arange(8, dtype=float), (6, 1))
        assert losses.smoothness(xs) == pytest.approx(1.0, abs=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(10)
        d = rng.uniform(0, 5, (7, 9))
        h, w = d.shape
        total = 0.0
        for y in range(h - 1):
            for x in range(w - 1):
                total += abs(d[y, x + 1] - d[y, x]) + abs(d[y + 1, x] - d[y, x])
        expected = total / ((h - 1) * (w - 1))
        assert losses.smoothness(d) == pytest.approx(expected, abs=1e-12)

    # a gradient touching a non-finite depth is skipped; the bottom-right
    # pixel starts no gradient and ends none of the mean's terms
    @pytest.mark.parametrize("y, x, bad", [(2, 3, np.nan), (0, 0, np.inf),
                                           (6, 8, np.nan), (6, 0, -np.inf)])
    def test_non_finite_pixel_matches_loop_oracle(self, y, x, bad):
        rng = np.random.default_rng(10)
        d = rng.uniform(0, 5, (7, 9))
        d[y, x] = bad
        assert losses.smoothness(d) == pytest.approx(
            finite_smoothness_loop(d), abs=1e-12)

    def test_all_gradients_non_finite_rejected(self):
        d = np.full((3, 4), np.nan)
        d[:, 0] = 2.0       # no pixel has finite right and lower neighbours
        with pytest.raises(InsufficientDataError, match=(
                r"^no valid pixels: every smoothness gradient of the 4x3 "
                r"raster touches a non-finite depth$")):
            losses.smoothness(d)


class TestPhotometricLR:
    def test_identical_images_zero_baseline(self, K):
        rng = np.random.default_rng(11)
        img = rng.uniform(0, 1, (K.height, K.width))
        depth = np.full((K.height, K.width), 2.0)
        assert losses.photometric_lr(img, img, depth, depth, 0.0, K) \
            == pytest.approx(0.0, abs=1e-12)

    def test_uniform_images(self, K):
        img = np.full((K.height, K.width), 0.3)
        depth = np.full((K.height, K.width), 2.0)
        assert losses.photometric_lr(img, img, depth, depth, 0.1, K) \
            == pytest.approx(0.0, abs=1e-12)

    def test_exact_stereo_geometry(self, K):
        # fronto-parallel constant-depth scene: right view rendered by the
        # synthetic generator with a pure -x translation of the baseline
        baseline = 0.1
        spec = synthetic.SceneSpec(
            width=K.width, height=K.height, intrinsics=K,
            motion=[-baseline, 0, 0, 0, 0, 0],
            depth_model=synthetic.ConstantDepth(2.0),
            texture_model=synthetic.SmoothRandomTexture(seed=12))
        scene = synthetic.render(spec)
        depth = scene.depth
        value = losses.photometric_lr(scene.image_1, scene.image_2,
                                      depth, depth, baseline, K)
        assert value < 1e-6


    @pytest.mark.parametrize("baseline", [0.0, 5e-324, 0.1, 0.37])
    def test_matches_pure_x_translations(self, K, baseline):
        # the transforms the loss took before it built them with se3.exp
        spec = synthetic.SceneSpec(width=K.width, height=K.height,
                                   intrinsics=K, motion=[-0.1, 0, 0, 0, 0, 0],
                                   seed=14)
        scene = synthetic.render(spec)
        t_rl, t_lr = np.eye(4), np.eye(4)
        t_rl[0, 3], t_lr[0, 3] = -baseline, baseline
        want = (losses._warped_difference(scene.image_1, scene.image_2,
                                          scene.depth, t_rl, K)
                + losses._warped_difference(scene.image_2, scene.image_1,
                                            1.01 * scene.depth, t_lr, K))
        assert losses.photometric_lr(scene.image_1, scene.image_2,
                                     scene.depth, 1.01 * scene.depth,
                                     baseline, K) == want

    @pytest.mark.parametrize("baseline", [-0.1, -np.inf, np.nan, np.inf])
    def test_rejects_bad_baseline(self, K, baseline):
        img = np.full((K.height, K.width), 0.3)
        depth = np.full((K.height, K.width), 2.0)
        with pytest.raises(ValueError, match=(
                "^baseline must be finite and nonnegative, "
                f"got {re.escape(f'{baseline:g}')}$")):
            losses.photometric_lr(img, img, depth, depth, baseline, K)


class TestCombined:
    @pytest.mark.parametrize("weights, got", [
        ((-1.0, 1.0, 0.5), "lambda1 -1, lambda2 1, lambda3 0.5"),
        ((2.0, np.nan, 0.5), "lambda1 2, lambda2 nan, lambda3 0.5"),
        ((2.0, 1.0, -np.inf), "lambda1 2, lambda2 1, lambda3 -inf")],
        ids=["negative", "nan", "minus-inf"])
    def test_rejects_negative_or_nan_weight(self, weights, got):
        message = f"loss weights must be nonnegative, got {got}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            LossWeights(*weights)

    def test_weight_selection_reduces_to_smoothness(self, K):
        rng = np.random.default_rng(13)
        d = rng.uniform(1, 3, (K.height, K.width))
        img = rng.uniform(0, 1, (K.height, K.width))
        w = LossWeights(lambda1=0, lambda2=0, lambda3=1)
        expected = 2 * losses.smoothness(d)
        assert losses.combined_semisupervised(d, d, d, d, img, img, 0.0, K, w) \
            == pytest.approx(expected, abs=1e-12)

    def test_zero_on_perfect_fit(self, K):
        d = np.full((K.height, K.width), 2.0)
        img = np.full((K.height, K.width), 0.5)
        assert losses.combined_semisupervised(d, d, d, d, img, img, 0.0, K) \
            == pytest.approx(0.0, abs=1e-12)

    def test_equals_hand_composed_sum(self, K):
        rng = np.random.default_rng(14)
        gt = 2.0 + 0.2 * rng.uniform(-1, 1, (K.height, K.width))
        pred = gt + 0.05 * rng.uniform(-1, 1, (K.height, K.width))
        img = rng.uniform(0, 1, (K.height, K.width))
        w = LossWeights()
        expected = (w.lambda1 * (losses.berhu(pred, gt) + losses.berhu(pred, gt))
                    + w.lambda2 * losses.photometric_lr(img, img, pred, pred, 0.05, K)
                    + w.lambda3 * (losses.smoothness(pred) + losses.smoothness(pred)))
        got = losses.combined_semisupervised(pred, pred, gt, gt, img, img,
                                             0.05, K, w)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_linear_in_weights(self, K):
        rng = np.random.default_rng(15)
        gt = 2.0 + 0.2 * rng.uniform(-1, 1, (K.height, K.width))
        pred = gt + 0.05 * rng.uniform(-1, 1, (K.height, K.width))
        img = rng.uniform(0, 1, (K.height, K.width))
        args = (pred, pred, gt, gt, img, img, 0.05, K)
        a = losses.combined_semisupervised(*args, LossWeights(1, 0, 0))
        b = losses.combined_semisupervised(*args, LossWeights(0, 1, 0))
        c = losses.combined_semisupervised(*args, LossWeights(0, 0, 1))
        combo = losses.combined_semisupervised(*args, LossWeights(2, 3, 4))
        assert combo == pytest.approx(2 * a + 3 * b + 4 * c, rel=1e-12)


class TestPosePhotometric:
    def test_zero_motion_identical_images(self, K):
        rng = np.random.default_rng(16)
        img = rng.uniform(0, 1, (K.height, K.width))
        depth = np.full((K.height, K.width), 2.0)
        assert losses.pose_photometric(img, img, depth, np.zeros(6), K) \
            == pytest.approx(0.0, abs=1e-12)

    def test_rendered_pair_at_ground_truth(self, K):
        spec = synthetic.SceneSpec(
            width=K.width, height=K.height, intrinsics=K,
            motion=[0.02, -0.01, 0.01, 0.003, -0.004, 0.006],
            depth_model=synthetic.PlaneDepth(normal=(0.05, 0.02, 1.0), offset=2.0),
            texture_model=synthetic.SmoothRandomTexture(seed=17))
        scene = synthetic.render(spec)
        assert losses.pose_photometric(scene.image_1, scene.image_2,
                                       scene.depth, spec.motion, K) < 1e-6

    def test_ground_truth_is_local_minimum(self, K):
        spec = synthetic.SceneSpec(
            width=K.width, height=K.height, intrinsics=K,
            motion=[0.02, -0.01, 0.01, 0.003, -0.004, 0.006],
            depth_model=synthetic.ConstantDepth(2.0),
            texture_model=synthetic.SmoothRandomTexture(seed=18))
        scene = synthetic.render(spec)
        at_gt = losses.pose_photometric(scene.image_1, scene.image_2,
                                        scene.depth, spec.motion, K)
        rng = np.random.default_rng(19)
        wins = 0
        for _ in range(20):
            delta = rng.uniform(-0.01, 0.01, 6)
            perturbed = losses.pose_photometric(scene.image_1, scene.image_2,
                                                scene.depth,
                                                spec.motion + delta, K)
            if perturbed > at_gt:
                wins += 1
        assert wins >= 19


class TestPoseLoss:
    def test_zero_at_ground_truth(self):
        xi = np.array([0.01, 0.02, -0.01, 0.005, 0.002, -0.003])
        assert losses.pose_loss(xi, se3.exp(xi)) < 1e-12

    def test_single_component_offset(self):
        xi = np.zeros(6)
        T = se3.exp(np.zeros(6))
        eps = 0.037
        assert losses.pose_loss(xi + [eps, 0, 0, 0, 0, 0], T) \
            == pytest.approx(eps, abs=1e-15)

    def test_matches_direct_norm(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            xi = rng.uniform(-0.5, 0.5, 6)
            gt = rng.uniform(-0.5, 0.5, 6)
            expected = np.sqrt(np.sum((xi - gt) ** 2))
            assert losses.pose_loss(xi, se3.exp(gt)) \
                == pytest.approx(expected, abs=1e-9)
