import warnings

import numpy as np
import pytest

from flowpose import cli, rasters, se3, synthetic, trajectory
from flowpose.camera import Intrinsics
from flowpose.trajectory import Trajectory


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_strict(capsys, *argv):
    """run() with every warning turned into an escaping exception."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return run(capsys, *argv)


SYNTH_ARGS = ["synth", "--width", "64", "--height", "48",
              "--depth", "constant:2.0",
              "--motion", "0.05,0,0,0,0,0"]


class TestSynth:
    def test_creates_scene_directory(self, capsys, tmp_path):
        out = tmp_path / "scene1"
        code, stdout, _ = run(capsys, *SYNTH_ARGS, "--out", str(out))
        assert code == 0
        assert stdout.strip().endswith("manifest.txt")
        assert (out / "depth.engr").exists()

    def test_missing_out_is_usage_error(self, capsys):
        code, _, _ = run(capsys, *SYNTH_ARGS)
        assert code == 2

    def test_bad_depth_model_is_usage_error(self, capsys, tmp_path):
        code, _, _ = run(capsys, "synth", "--width", "8", "--height", "8",
                         "--depth", "wavy:1", "--motion", "0,0,0,0,0,0",
                         "--out", str(tmp_path / "s"))
        assert code == 2

    def test_deterministic_manifests(self, capsys, tmp_path):
        run(capsys, *SYNTH_ARGS, "--out", str(tmp_path / "a"))
        run(capsys, *SYNTH_ARGS, "--out", str(tmp_path / "b"))
        assert (tmp_path / "a" / "manifest.txt").read_text() \
            == (tmp_path / "b" / "manifest.txt").read_text()


@pytest.fixture
def scene_dir(tmp_path):
    spec = synthetic.SceneSpec(
        width=64, height=48,
        motion=[0.03, -0.01, 0.02, 0.005, -0.004, 0.008], seed=60)
    synthetic.write_scene(spec, tmp_path / "scene")
    return tmp_path / "scene", spec


@pytest.fixture
def outlier_scene_dir(tmp_path):
    spec = synthetic.SceneSpec(
        width=64, height=48,
        motion=[0.03, 0.01, -0.02, 0.004, 0.006, -0.01],
        outlier_fraction=0.2, outlier_magnitude=50.0, seed=61)
    synthetic.write_scene(spec, tmp_path / "oscene")
    return tmp_path / "oscene", spec


def solve_args(directory, *extra):
    return ["solve",
            "--depth", str(directory / "depth.engr"),
            "--flow", str(directory / "flow.engr"),
            "--intrinsics", str(directory / "intrinsics.txt"), *extra]


class TestSolve:
    def test_recovers_ground_truth(self, capsys, scene_dir):
        directory, spec = scene_dir
        code, stdout, _ = run(capsys, *solve_args(directory))
        assert code == 0
        fields = stdout.split()
        xi = np.array([float(x) for x in fields[:6]])
        assert np.linalg.norm(xi - spec.motion) < 1e-8
        assert fields[7] == "1"  # converged

    def test_no_confidence_is_worse_on_outliers(self, capsys, outlier_scene_dir):
        directory, spec = outlier_scene_dir
        _, out_full, _ = run(capsys, *solve_args(directory))
        _, out_nc, _ = run(capsys, *solve_args(directory, "--no-confidence"))
        xi_full = np.array([float(x) for x in out_full.split()[:6]])
        xi_nc = np.array([float(x) for x in out_nc.split()[:6]])
        err_full = np.linalg.norm(xi_full - spec.motion)
        err_nc = np.linalg.norm(xi_nc - spec.motion)
        assert err_nc > err_full

    def test_output_reproducible(self, capsys, scene_dir):
        directory, _ = scene_dir
        _, out1, _ = run(capsys, *solve_args(directory))
        _, out2, _ = run(capsys, *solve_args(directory))
        assert out1 == out2

    def test_corrupt_magic_is_format_error(self, capsys, scene_dir, tmp_path):
        directory, _ = scene_dir
        bad = tmp_path / "bad.engr"
        raw = bytearray((directory / "depth.engr").read_bytes())
        raw[:4] = b"XXXX"
        bad.write_bytes(bytes(raw))
        code, _, err = run(capsys, "solve", "--depth", str(bad),
                           "--flow", str(directory / "flow.engr"),
                           "--intrinsics", str(directory / "intrinsics.txt"))
        assert code == 3
        assert "format" in err

    def test_residual_raster_written(self, capsys, scene_dir, tmp_path):
        directory, _ = scene_dir
        out = tmp_path / "resid.engr"
        code, _, _ = run(capsys, *solve_args(directory, "--residuals", str(out)))
        assert code == 0
        resid = rasters.read_raster(out)
        assert resid.shape == (48, 64, 2)

    def test_config_file_merging(self, capsys, scene_dir, tmp_path):
        directory, _ = scene_dir
        cfg = tmp_path / "solver.cfg"
        cfg.write_text("max_iterations = 1\nsingle_iteration = true\n")
        _, out_cfg, _ = run(capsys, *solve_args(directory, "--config", str(cfg)))
        _, out_single, _ = run(capsys, *solve_args(directory,
                                                   "--single-iteration"))
        assert out_cfg == out_single

    def test_config_flag_override(self, capsys, scene_dir, tmp_path):
        directory, _ = scene_dir
        cfg = tmp_path / "solver.cfg"
        cfg.write_text("max_iterations = 1\n")
        _, out, _ = run(capsys, *solve_args(directory, "--config", str(cfg),
                                            "--max-iterations", "20"))
        assert out.split()[7] == "1"  # converged despite config's 1 iteration

    def test_unknown_config_key_rejected(self, capsys, scene_dir, tmp_path):
        directory, _ = scene_dir
        cfg = tmp_path / "solver.cfg"
        cfg.write_text("speed = 11\n")
        code, _, _ = run(capsys, *solve_args(directory, "--config", str(cfg)))
        assert code == 2

    def test_insufficient_pixels_exit_code(self, capsys, scene_dir, tmp_path):
        directory, _ = scene_dir
        depth = rasters.read_raster(directory / "depth.engr")
        depth[:] = np.nan
        depth[0, :8] = 2.0
        bad = tmp_path / "sparse.engr"
        rasters.write_raster(bad, depth)
        code, _, _ = run(capsys, "solve", "--depth", str(bad),
                         "--flow", str(directory / "flow.engr"),
                         "--intrinsics", str(directory / "intrinsics.txt"))
        assert code == 5

    def test_intrinsics_size_mismatch_is_format_error(self, capsys, scene_dir,
                                                      tmp_path):
        directory, _ = scene_dir
        intrinsics = tmp_path / "wide.txt"
        rasters.write_intrinsics(intrinsics, Intrinsics(
            fx=100.0, fy=100.0, cx=80.0, cy=60.0, width=160, height=120))
        code, out, err = run_strict(
            capsys, "solve", "--depth", str(directory / "depth.engr"),
            "--flow", str(directory / "flow.engr"),
            "--intrinsics", str(intrinsics))
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "160x120" in err and "64x48" in err

    def test_depth_flow_size_mismatch_is_format_error(self, capsys, scene_dir,
                                                      tmp_path):
        directory, _ = scene_dir
        depth = rasters.read_raster(directory / "depth.engr")[:46]
        short = tmp_path / "short.engr"
        rasters.write_raster(short, depth)
        code, out, err = run_strict(
            capsys, "solve", "--depth", str(short),
            "--flow", str(directory / "flow.engr"),
            "--intrinsics", str(directory / "intrinsics.txt"))
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "64x46" in err and "64x48" in err

    # 800 overflows exp itself; 705 overflows the normal equations
    @pytest.mark.parametrize("log_conf, words", [
        (800.0, ("800", "709.78")), (705.0, ("not finite",))])
    def test_huge_confidences_are_degenerate(self, capsys, scene_dir,
                                             tmp_path, log_conf, words):
        directory, _ = scene_dir
        flow = rasters.read_raster(directory / "flow.engr")
        flow[..., 2] = log_conf     # a_hat
        flow[..., 4] = log_conf     # g_hat
        huge = tmp_path / "huge.engr"
        rasters.write_raster(huge, flow)
        code, out, err = run_strict(
            capsys, "solve", "--depth", str(directory / "depth.engr"),
            "--flow", str(huge),
            "--intrinsics", str(directory / "intrinsics.txt"))
        assert code == 4
        assert out == ""
        assert len(err.splitlines()) == 1
        assert all(word in err for word in words)


@pytest.fixture
def loss_rasters(tmp_path):
    """A 96x72 scene's depth and images as loss inputs, its intrinsics, and
    intrinsics for a 160x120 raster."""
    spec = synthetic.SceneSpec(
        width=96, height=72,
        motion=[0.02, -0.01, 0.015, 0.003, -0.005, 0.008], seed=63)
    scene = synthetic.render(spec)
    paths = {name: tmp_path / f"{name}.engr"
             for name in ("depth", "image-1", "image-2")}
    rasters.write_raster(paths["depth"], scene.depth)
    rasters.write_raster(paths["image-1"], scene.image_1)
    rasters.write_raster(paths["image-2"], scene.image_2)
    paths["intrinsics"] = tmp_path / "intrinsics.txt"
    rasters.write_intrinsics(paths["intrinsics"], spec.intrinsics)
    paths["wide"] = tmp_path / "wide.txt"
    rasters.write_intrinsics(paths["wide"], Intrinsics(
        fx=100.0, fy=100.0, cx=80.0, cy=60.0, width=160, height=120))
    paths["motion"] = ",".join(repr(float(x)) for x in spec.motion)
    return paths


def loss_args(name, paths, **override):
    """`flowpose loss` argv for the photometric losses."""
    paths = {**paths, **override}
    argv = ["loss", name, "--depth", str(paths["depth"]),
            "--image-1", str(paths["image-1"]),
            "--image-2", str(paths["image-2"]),
            "--intrinsics", str(paths["intrinsics"])]
    if name == "pose-photometric":
        return argv + ["--motion=" + paths["motion"]]
    return argv + ["--gt", str(paths["depth"])]


class TestRasterSizes:
    @pytest.mark.parametrize("name", ["pose-photometric", "photometric-lr"])
    def test_loss_accepts_matching_sizes(self, capsys, loss_rasters, name):
        code, out, err = run_strict(capsys, *loss_args(name, loss_rasters))
        assert code == 0 and err == ""
        # the images are an exact pair for the scene's motion, not a stereo
        # pair
        assert float(out) < (1e-5 if name == "pose-photometric" else 1.0)

    @pytest.mark.parametrize("name", ["pose-photometric", "photometric-lr"])
    def test_loss_intrinsics_size_mismatch_is_format_error(
            self, capsys, loss_rasters, name):
        code, out, err = run_strict(capsys, *loss_args(
            name, loss_rasters, intrinsics=loss_rasters["wide"]))
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "160x120" in err and "96x72" in err

    @pytest.mark.parametrize("image", ["image-1", "image-2"])
    def test_loss_image_size_mismatch_is_format_error(
            self, capsys, loss_rasters, tmp_path, image):
        short = tmp_path / "short.engr"
        rasters.write_raster(short, rasters.read_raster(loss_rasters[image])[:70])
        code, out, err = run_strict(capsys, *loss_args(
            "pose-photometric", loss_rasters, **{image: short}))
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "96x70" in err and "96x72" in err

    def test_loss_multichannel_depth_is_format_error(
            self, capsys, loss_rasters, tmp_path):
        depth2 = tmp_path / "depth2.engr"
        depth = rasters.read_raster(loss_rasters["depth"])
        rasters.write_raster(depth2, np.stack([depth, depth], axis=-1))
        code, out, err = run_strict(capsys, *loss_args(
            "pose-photometric", loss_rasters, depth=depth2))
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1 and "single channel" in err

    def test_synth_intrinsics_size_mismatch_is_format_error(
            self, capsys, loss_rasters, tmp_path):
        out_dir = tmp_path / "scene"
        code, out, err = run_strict(
            capsys, "synth", "--width", "96", "--height", "72",
            "--depth", "constant:2.0", "--motion", "0.05,0,0,0,0,0",
            "--intrinsics", str(loss_rasters["wide"]), "--out", str(out_dir))
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "160x120" in err and "96x72" in err
        assert not out_dir.exists()


class TestEvalTraj:
    def make_files(self, tmp_path, scale=1.0):
        rng = np.random.default_rng(62)
        ts = np.arange(30) * 0.1
        poses = []
        current = np.eye(4)
        for _ in range(30):
            current = current @ se3.exp(rng.uniform(-0.05, 0.05, 6))
            poses.append(current)
        gt = Trajectory(ts, np.array(poses))
        est_poses = gt.poses.copy()
        est_poses[:, :3, 3] *= scale
        est = Trajectory(ts, est_poses)
        gt_path = tmp_path / "gt.txt"
        est_path = tmp_path / "est.txt"
        trajectory.write_tum(gt, gt_path)
        trajectory.write_tum(est, est_path)
        return est_path, gt_path

    def test_identical_files_score_zero(self, capsys, tmp_path):
        est, gt = self.make_files(tmp_path)
        code, out, _ = run(capsys, "eval-traj", "--est", str(gt),
                           "--gt", str(gt))
        assert code == 0
        fields = out.splitlines()[0].split()
        assert float(fields[0]) < 1e-9
        assert float(fields[1]) < 1e-9
        assert float(fields[2]) < 1e-6

    def test_half_scale_estimate(self, capsys, tmp_path):
        est, gt = self.make_files(tmp_path, scale=0.5)
        code, out, _ = run(capsys, "eval-traj", "--est", str(est),
                           "--gt", str(gt))
        assert code == 0
        lines = out.splitlines()
        assert float(lines[0].split()[0]) < 1e-6   # ATE after scale alignment
        median = float(lines[1].split()[3])
        assert abs(median - 2.0) < 1e-5

    def test_disjoint_timestamps_exit_code(self, capsys, tmp_path):
        est, gt = self.make_files(tmp_path)
        shifted = trajectory.read_tum(est)
        shifted = Trajectory(shifted.timestamps + 1000.0, shifted.poses)
        moved = tmp_path / "moved.txt"
        trajectory.write_tum(shifted, moved)
        code, _, _ = run(capsys, "eval-traj", "--est", str(moved),
                         "--gt", str(gt))
        assert code == 5


class TestLoss:
    def test_berhu_self_is_zero(self, capsys, tmp_path):
        d = np.full((8, 8), 2.0)
        path = tmp_path / "d.engr"
        rasters.write_raster(path, d)
        code, out, _ = run(capsys, "loss", "berhu", "--pred", str(path),
                           "--gt", str(path))
        assert code == 0
        assert float(out) == 0.0

    def test_smoothness_constant_is_zero(self, capsys, tmp_path):
        path = tmp_path / "d.engr"
        rasters.write_raster(path, np.full((8, 8), 1.5))
        code, out, _ = run(capsys, "loss", "smoothness", "--depth", str(path))
        assert code == 0
        assert float(out) == 0.0

    def test_flownll_matches_library(self, capsys, tmp_path, scene_dir):
        from flowpose import infomat
        directory, _ = scene_dir
        flow5 = rasters.read_raster(directory / "flow.engr")
        gt_flow = flow5[..., :2] + 0.25
        gt_path = tmp_path / "gtflow.engr"
        rasters.write_raster(gt_path, gt_flow)
        gt_flow32 = rasters.read_raster(gt_path)
        expected = infomat.flow_nll_map(flow5[..., :2] - gt_flow32,
                                        flow5[..., 2:],
                                        np.ones(flow5.shape[:2], dtype=bool))
        code, out, _ = run(capsys, "loss", "flownll",
                           "--flow", str(directory / "flow.engr"),
                           "--gt-flow", str(gt_path))
        assert code == 0
        assert float(out) == pytest.approx(expected, rel=1e-10)

    def test_flownll_huge_confidences_are_degenerate(self, capsys, tmp_path,
                                                     scene_dir):
        directory, _ = scene_dir
        flow = rasters.read_raster(directory / "flow.engr")
        flow[..., 2] = 800.0    # a_hat
        flow[..., 4] = 800.0    # g_hat
        huge = tmp_path / "huge.engr"
        rasters.write_raster(huge, flow)
        code, out, err = run_strict(capsys, "loss", "flownll",
                                    "--flow", str(huge),
                                    "--gt-flow", str(directory / "flow.engr"))
        assert code == 4
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "800" in err and "709.78" in err

    def test_unknown_loss_rejected(self, capsys):
        code, _, _ = run(capsys, "loss", "nope")
        assert code == 2

    def test_missing_required_raster_rejected(self, capsys):
        code, _, _ = run(capsys, "loss", "berhu")
        assert code == 2
