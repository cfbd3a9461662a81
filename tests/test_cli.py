import struct
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flowpose import cli, infomat, rasters, se3, synthetic, trajectory
from flowpose.camera import Intrinsics
from flowpose.errors import CheiralityError
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

    def test_flownll_skips_pixels_invalid_in_either_raster(
            self, capsys, tmp_path, scene_dir):
        directory, _ = scene_dir
        flow5 = rasters.read_raster(directory / "flow.engr")
        gt_flow = flow5[..., :2] + 0.25
        gt_flow[3, 4, 0] = np.nan       # invalid in the gt raster
        flow5[5, 6, 0] = np.nan         # invalid in the estimate, which
        flow5[5, 6, 3] = np.nan         # also has a NaN b_hat there
        paths = {"flow": tmp_path / "flow.engr", "gt": tmp_path / "gt.engr"}
        rasters.write_raster(paths["flow"], flow5)
        rasters.write_raster(paths["gt"], gt_flow)
        valid = np.ones(flow5.shape[:2], dtype=bool)
        valid[3, 4] = valid[5, 6] = False
        expected = infomat.flow_nll_map(
            flow5[valid][:, :2] - rasters.read_raster(paths["gt"])[valid],
            flow5[valid][:, 2:])
        code, out, err = run_strict(capsys, "loss", "flownll",
                                    "--flow", str(paths["flow"]),
                                    "--gt-flow", str(paths["gt"]))
        assert code == 0 and err == ""
        assert float(out) == pytest.approx(expected, rel=1e-10)


@pytest.fixture
def fault_files(scene_dir, tmp_path):
    """The 64x48 scene's files plus one malformed or inconsistent file per
    fault, keyed by name."""
    directory, _ = scene_dir
    paths = {name: str(directory / f"{name}.engr")
             for name in ("depth", "flow")}
    paths["intrinsics"] = str(directory / "intrinsics.txt")
    paths["out"] = str(tmp_path / "out")
    depth = rasters.read_raster(paths["depth"])
    flow = rasters.read_raster(paths["flow"])
    pose = "0 0 0 0 0 0 1\n"
    files = {
        "fx_zero.txt": "0 100 32 24 64 48\n",
        "fx_nan.txt": "nan 100 32 24 64 48\n",
        "fx_tiny.txt": "1e-300 1e-300 32 24 64 48\n",
        "pp_outside.txt": "100 100 70 24 64 48\n",
        "intrinsics_latin1.txt": b"100 100 32 24 64 48 \xe9\n",
        "tum_latin1.txt": b"0.0 0 0 0 0 0 0 1\n# caf\xe9\n",
        "tum_decreasing.txt": f"1.0 {pose}0.5 {pose}2.0 {pose}",
        "tum_duplicate.txt": f"1.0 {pose}1.0 {pose}2.0 {pose}",
        "tum_good.txt": f"0.0 {pose}1.0 {pose}2.0 {pose}",
        "tum_huge.txt": "".join(f"{t}.0 1e308 1e308 1e308 0 0 0 1\n"
                                for t in range(3)),
    }
    for name, content in files.items():
        path = tmp_path / name
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
        paths[name.split(".")[0]] = str(path)
    nan_gt = np.full(flow.shape[:2] + (2,), np.nan)
    flow_huge = flow.copy()
    flow_huge[3, 4] = [3e38, 3e38, 600.0, 0.0, 600.0]   # flow px, a, b, g
    for name, raster in [("depth_short", depth[:46]), ("flow_short", flow[:46]),
                         ("nan_gt", nan_gt), ("tiny", np.ones((1, 5))),
                         ("flow_huge", flow_huge)]:
        paths[name] = str(tmp_path / f"{name}.engr")
        rasters.write_raster(paths[name], raster)
    return paths


SOLVE = ["solve", "--depth", "{depth}", "--flow", "{flow}"]
SYNTH = ["synth", "--width", "64", "--height", "48", "--depth", "constant:2.0",
         "--motion", "0.05,0,0,0,0,0", "--out", "{out}"]
EVAL = ["eval-traj", "--gt", "{tum_good}", "--est"]

# (argv with {file} placeholders, exit code, words the one stderr line holds)
FAULTS = {
    "intrinsics-fx-zero": (SOLVE + ["--intrinsics", "{fx_zero}"], 3,
                           ["format error", "fx_zero.txt", "focal"]),
    "intrinsics-fx-nan": (SOLVE + ["--intrinsics", "{fx_nan}"], 3,
                          ["format error", "fx_nan.txt", "finite"]),
    # u = (x - cx) / fx overflows the Jacobian and the residuals
    "intrinsics-tiny-focal": (SOLVE + ["--intrinsics", "{fx_tiny}"], 4,
                              ["degenerate geometry", "not finite"]),
    # a finite confidence times a huge residual overflows the weight
    "flow-huge-residual-and-confidence": (
        ["solve", "--depth", "{depth}", "--flow", "{flow_huge}",
         "--intrinsics", "{intrinsics}"], 4,
        ["degenerate geometry", "not finite"]),
    "intrinsics-pp-outside-solve": (
        SOLVE + ["--intrinsics", "{pp_outside}"], 3,
        ["format error", "pp_outside.txt", "principal point"]),
    "intrinsics-pp-outside-synth": (
        SYNTH + ["--intrinsics", "{pp_outside}"], 3,
        ["format error", "pp_outside.txt", "principal point"]),
    "intrinsics-not-utf8": (SOLVE + ["--intrinsics", "{intrinsics_latin1}"],
                            3, ["format error", "utf-8"]),
    "tum-not-utf8": (EVAL + ["{tum_latin1}"], 3, ["format error", "utf-8"]),
    "tum-decreasing": (EVAL + ["{tum_decreasing}"], 3,
                       ["format error", "tum_decreasing.txt", "increasing"]),
    "tum-duplicate": (EVAL + ["{tum_duplicate}"], 3,
                      ["format error", "tum_duplicate.txt", "increasing"]),
    # the centroid of the positions overflows; the SVD used to raise
    # LinAlgError, reported as a usage error
    "tum-positions-overflow": (EVAL + ["{tum_huge}"], 4,
                               ["degenerate geometry", "overflow"]),
    "berhu-size": (["loss", "berhu", "--pred", "{depth_short}",
                    "--gt", "{depth}"], 3, ["format error", "64x46", "64x48"]),
    "berhu-channels": (["loss", "berhu", "--pred", "{depth}",
                        "--gt", "{flow}"], 3, ["format error", "shape"]),
    "flownll-size": (["loss", "flownll", "--flow", "{flow}",
                      "--gt-flow", "{flow_short}"], 3,
                     ["format error", "64x46", "64x48"]),
    "flownll-one-channel-gt": (["loss", "flownll", "--flow", "{flow}",
                                "--gt-flow", "{depth}"], 3,
                               ["format error", "2 or 5 channels"]),
    "flownll-no-valid-pixels": (["loss", "flownll", "--flow", "{flow}",
                                 "--gt-flow", "{nan_gt}"], 5,
                                ["insufficient data", "no valid pixels"]),
    "smoothness-channels": (["loss", "smoothness", "--depth", "{flow}"], 3,
                            ["format error", "single channel"]),
    "smoothness-under-2x2": (["loss", "smoothness", "--depth", "{tiny}"], 5,
                             ["insufficient data", "5x1", "2x2"]),
}


class TestExitCodes:
    """Each fault exits with its documented code and one stderr line."""

    @pytest.mark.parametrize("fault", list(FAULTS))
    def test_fault_exit_code(self, capsys, fault_files, fault):
        argv, expected, words = FAULTS[fault]
        code, out, err = run_strict(
            capsys, *(arg.format(**fault_files) for arg in argv))
        assert code == expected
        assert out == ""
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert all(word in err for word in words), err

    def test_cheirality_error_is_degenerate(self, capsys, monkeypatch,
                                            fault_files):
        def behind(args):
            raise CheiralityError("point not in front of the camera")
        monkeypatch.setattr(cli, "cmd_solve", behind)
        code, out, err = run_strict(capsys, *(
            arg.format(**fault_files)
            for arg in SOLVE + ["--intrinsics", "{intrinsics}"]))
        assert code == 4
        assert out == ""
        assert err == "degenerate geometry: point not in front of the camera\n"


# Property: any byte string as an input file gets a documented exit code and
# at most one stderr line, never a traceback. The rasters and intrinsics are
# fed to `solve` on a 16x12 scene, the TUM file to `eval-traj` as the
# estimate. Strategies: arbitrary bytes, plus inputs close to valid ones (a
# valid header with an arbitrary payload, a valid raster with a few values
# replaced, a valid file with one token or a tail replaced).

@pytest.fixture(scope="module")
def fuzz_scene(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fuzz")
    spec = synthetic.SceneSpec(
        width=16, height=12,
        motion=[0.02, -0.01, 0.015, 0.003, -0.005, 0.008], seed=64)
    synthetic.write_scene(spec, directory / "scene")
    gt = directory / "gt.txt"
    trajectory.write_tum(Trajectory(np.arange(4) * 0.1, np.array(
        [se3.exp([0.1 * k, 0, 0, 0, 0.05 * k, 0]) for k in range(4)])), gt)
    return directory


def _raster_bytes(raster):
    """Strategy: byte strings that an ENGR reader might meet in place of the
    given raster."""
    h, w = raster.shape[:2]
    c = raster.shape[2] if raster.ndim == 3 else 1
    body = raster.astype("<f4").tobytes()
    header = struct.pack("<4sIIII", b"ENGR", 1, w, h, c)

    def replace(edits):
        values = np.frombuffer(body, dtype="<f4").copy()
        for index, value in edits:
            values[index % values.size] = value
        return header + values.tobytes()

    return st.one_of(
        st.binary(max_size=64),
        st.binary(min_size=len(body), max_size=len(body)).map(
            lambda payload: header + payload),
        st.lists(st.tuples(st.integers(0, 10 ** 6), st.floats(width=32)),
                 min_size=1, max_size=8).map(replace))


def _text_bytes(text):
    """Strategy: byte strings in place of a valid text file: arbitrary bytes,
    the file with one token replaced, or its head followed by any bytes."""
    tokens = text.split(" ")
    return st.one_of(
        st.binary(max_size=200),
        st.tuples(st.integers(0, len(tokens) - 1), st.text(max_size=12)).map(
            lambda edit: " ".join(tokens[:edit[0]] + [edit[1]]
                                  + tokens[edit[0] + 1:]).encode("utf-8")),
        st.tuples(st.integers(0, len(text)), st.binary(max_size=40)).map(
            lambda cut: text.encode("utf-8")[:cut[0]] + cut[1]))


def _fuzz_inputs(kind, scene):
    if kind in ("depth", "flow"):
        return _raster_bytes(rasters.read_raster(scene / "scene" / f"{kind}.engr"))
    if kind == "intrinsics":
        return _text_bytes((scene / "scene" / "intrinsics.txt").read_text())
    return _text_bytes((scene / "gt.txt").read_text())


def _fuzz_argv(kind, scene, path):
    if kind == "tum":
        return ["eval-traj", "--est", str(path), "--gt", str(scene / "gt.txt")]
    files = {name: scene / "scene" / f"{name}.engr" for name in ("depth", "flow")}
    files["intrinsics"] = scene / "scene" / "intrinsics.txt"
    files[kind] = path
    return ["solve", "--depth", str(files["depth"]), "--flow", str(files["flow"]),
            "--intrinsics", str(files["intrinsics"])]


class TestAnyInputFile:
    @pytest.mark.parametrize("kind", ["depth", "flow", "intrinsics", "tum"])
    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_documented_exit_code(self, capsys, fuzz_scene, kind, data):
        path = fuzz_scene / f"input.{kind}"
        path.write_bytes(data.draw(_fuzz_inputs(kind, fuzz_scene)))
        code, out, err = run_strict(capsys, *_fuzz_argv(kind, fuzz_scene, path))
        assert code in (0, 3, 4, 5)
        if code:
            assert out == "" and len(err.splitlines()) == 1, err
        else:
            assert err == ""

    # Every solver flag is given on the command line, where it wins over the
    # config file: a well-formed config then changes nothing, so only the
    # config reader's own faults (exit 2) can make the solve fail.
    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.one_of(st.binary(max_size=200), _text_bytes(
        "max_iterations = 20\nconvergence_tol = 1e-9\nmin_valid_pixels = 64\n"
        "damping = 0\nuse_confidence = true\nsingle_iteration = false\n"
        "seed_xi = 0,0,0,0,0,0\n")))
    def test_config_file_exit_code(self, capsys, fuzz_scene, content):
        path = fuzz_scene / "input.cfg"
        path.write_bytes(content)
        code, out, err = run_strict(capsys, *_fuzz_argv(
            "depth", fuzz_scene, fuzz_scene / "scene" / "depth.engr"),
            "--config", str(path), "--max-iterations", "20",
            "--convergence-tol", "1e-9", "--min-valid-pixels", "64",
            "--damping", "0", "--single-iteration", "--seed-xi",
            "0,0,0,0,0,0")
        assert code in (0, 2)
        if code:
            assert out == "" and len(err.splitlines()) == 1, err
        else:
            assert err == ""
