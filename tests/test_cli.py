import ctypes
import hashlib
import os
import re
import shutil
import struct
import subprocess
import sys
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import flowpose
from flowpose import (cli, infomat, losses, rasters, se3, solver, synthetic,
                      trajectory)
from flowpose.camera import Intrinsics
from flowpose.errors import CheiralityError, DegenerateGeometryError
from flowpose.trajectory import Trajectory

# the directory holding the flowpose package the tests import
SRC = os.path.dirname(os.path.dirname(os.path.abspath(flowpose.__file__)))


def child_env():
    """os.environ for a child interpreter that imports this flowpose."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


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
        # the planes divide by zero, the first two at some pixel of an
        # even-width raster, or overflow: they printed a RuntimeWarning
        # before the message. The huge depth and noise sigma overflow the
        # flow's products, which printed RuntimeWarnings too, on a 16x12
        # scene; the float32 write then rejects the scene
        out = tmp_path / "s"
        bad = ("error: depth model produced a depth that is not finite or "
               "not above 1e-12")
        for argv, message in [
                (["--depth", "wavy:1"], "error: unknown depth model 'wavy'"),
                (["--depth", "plane:0,0,0,2"],
                 f"{bad} at 64 of 64 pixels, worst inf"),
                (["--depth", "plane:1,0,0,2"],
                 f"{bad} at 40 of 64 pixels, worst inf"),
                (["--depth", "plane:0,0,1e-320,2"],
                 f"{bad} at 64 of 64 pixels, worst inf"),
                (["--depth", "constant:inf"],
                 f"{bad} at 64 of 64 pixels, worst inf"),
                (["--depth", "constant:nan"],
                 f"{bad} at 64 of 64 pixels, worst nan"),
                (["--depth", "plane:0,0,1,-2"],
                 f"{bad} at 64 of 64 pixels, worst -2"),
                # positive, but closer than the cheirality bound: it exited
                # 0 with a depth raster of zeros and an all-NaN flow
                (["--width", "16", "--height", "12",
                  "--depth", "constant:1e-300"],
                 f"{bad} at 192 of 192 pixels, worst 1e-300"),
                (["--width", "16", "--height", "12",
                  "--depth", "constant:1e308"],
                 f"error: {out / 'depth.engr'}: a finite value overflows "
                 "float32"),
                (["--width", "16", "--height", "12", "--depth", "constant:2",
                  "--noise-sigma", "1e308"],
                 f"error: {out / 'flow.engr'}: a finite value overflows "
                 "float32")]:
            assert run_strict(
                capsys, "synth", "--width", "8", "--height", "8", *argv,
                "--motion", "0,0,0,0,0,0", "--out", str(out)
            ) == (2, "", f"{message}\n"), argv
            assert not out.exists()

    @pytest.mark.parametrize("sigma", ["-0.5", "nan", "inf"])
    def test_bad_noise_sigma_is_usage_error(self, capsys, tmp_path, sigma):
        # these rendered a noiseless scene, or a non-finite one, with exit 0
        out = tmp_path / "scene"
        code, stdout, err = run(capsys, *SYNTH_ARGS, "--noise-sigma", sigma,
                                "--out", str(out))
        assert (code, stdout) == (2, "")
        assert err == f"error: noise_sigma must be finite and >= 0, got {sigma}\n"
        assert not out.exists()

    @pytest.mark.parametrize("magnitude", ["nan", "inf", "-inf"])
    def test_non_finite_outlier_magnitude_is_usage_error(self, capsys,
                                                         tmp_path, magnitude):
        # these wrote a flow raster with non-finite outlier pixels, exit 0
        out = tmp_path / "scene"
        code, stdout, err = run(capsys, *SYNTH_ARGS, "--outlier-fraction",
                                "0.1", f"--outlier-magnitude={magnitude}",
                                "--out", str(out))
        assert (code, stdout) == (2, "")
        assert err == f"error: outlier_magnitude must be finite, got {magnitude}\n"
        assert not out.exists()

    # the checker texture is gone: these periods wrote uniform images with
    # exit 0 until it checked them, and now no period is a texture
    @pytest.mark.parametrize("period", ["0", "-8", "nan", "inf"])
    def test_bad_checker_period_is_usage_error(self, capsys, tmp_path,
                                               period):
        out = tmp_path / "scene"
        code, stdout, err = run_strict(capsys, *SYNTH_ARGS, "--texture",
                                       f"checker:{period}", "--out", str(out))
        assert (code, stdout) == (2, "")
        assert err == "error: unknown texture model 'checker'\n"
        assert not out.exists()

    def test_checker_period_too_small_for_raster_is_usage_error(
            self, capsys, tmp_path):
        out = tmp_path / "scene"
        code, stdout, err = run_strict(capsys, *SYNTH_ARGS, "--texture",
                                       "checker:1e-300", "--out", str(out))
        assert (code, stdout) == (2, "")
        assert err == "error: unknown texture model 'checker'\n"
        assert not out.exists()

    def test_float32_overflow_is_usage_error(self, capsys, tmp_path):
        # this wrote non-finite outlier flow after an overflow warning, exit 0
        out = tmp_path / "scene"
        code, stdout, err = run_strict(
            capsys, *SYNTH_ARGS, "--outlier-fraction", "0.1",
            "--outlier-magnitude", "1e39", "--out", str(out))
        assert (code, stdout) == (2, "")
        flow = out / "flow.engr"
        assert err == f"error: {flow}: a finite value overflows float32\n"
        # every artifact is encoded first: not even depth.engr is left
        assert not out.exists()

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
        depth = rasters.read_raster(directory / "depth.engr")
        depth[:, :5] = np.nan
        holes = tmp_path / "holes.engr"
        rasters.write_raster(holes, depth)
        out = tmp_path / "resid.engr"
        code, stdout, _ = run(capsys, "solve", "--depth", str(holes),
                              "--flow", str(directory / "flow.engr"),
                              "--intrinsics", str(directory / "intrinsics.txt"),
                              "--residuals", str(out))
        assert code == 0
        resid = rasters.read_raster(out)
        assert resid.shape == (48, 64, 2)
        # the raster is compute_residuals at the printed pose, as float32
        xi = np.array([float(x) for x in stdout.split()[:6]])
        flow = solver.FlowField.from_raster(
            rasters.read_raster(directory / "flow.engr"))
        K = rasters.read_intrinsics(directory / "intrinsics.txt")
        want = solver.compute_residuals(solver.prepare(depth, flow, K), xi)
        assert np.array_equal(resid, want.astype(np.float32))
        assert np.count_nonzero(resid[:, :5]) == 0
        assert np.all(resid[:, 5:].any(axis=-1))

    def test_residual_beyond_float32_is_one_usage_line(
            self, capsys, monkeypatch, scene_dir, tmp_path):
        # no solve converges with such a residual, so the solve's problem
        # gets one measured flow of -1e39 once it has returned
        original = solver.compute_residuals

        def overflowing(problem, *args):
            problem.flow[0, 0] = -1e39
            return original(problem, *args)
        monkeypatch.setattr(solver, "compute_residuals", overflowing)
        directory, _ = scene_dir
        out = tmp_path / "resid.engr"
        assert run_strict(capsys, *solve_args(
            directory, "--residuals", str(out))) == (
            2, "", f"error: {out}: a finite value overflows float32\n")
        assert not out.exists()

    def test_damping_flag_rejected(self, capsys, scene_dir, tmp_path):
        # and the other deleted settings, each at its old default, and the
        # deleted second output format and settings file of solve and
        # eval-traj
        directory, _ = scene_dir
        tum = tmp_path / "gt.txt"
        trajectory.write_tum(Trajectory(np.arange(3) * 0.1, np.array(
            [se3.exp([0.1 * k, 0, 0, 0, 0, 0]) for k in range(3)])), tum)
        eval_args = ["eval-traj", "--est", str(tum), "--gt", str(tum)]
        for argv, flags in [
                (solve_args(directory), ["--damping", "0"]),
                (solve_args(directory), ["--convergence-tol", "1e-9"]),
                (solve_args(directory), ["--min-valid-pixels", "64"]),
                (solve_args(directory), ["--pretty"]),
                (solve_args(directory), ["--single-iteration"]),
                (eval_args, ["--pretty"]),
                (solve_args(directory), ["--config", "x.cfg"]),
                (eval_args, ["--config", "x.cfg"])]:
            code, out, err = run(capsys, *argv, *flags)
            assert (code, out) == (2, "")
            assert err == f"error: unrecognized arguments: {' '.join(flags)}\n"

    def test_defaults_are_the_library_defaults(self, capsys, outlier_scene_dir):
        directory, _ = outlier_scene_dir
        flow = rasters.read_raster(directory / "flow.engr")
        result = solver.solve(
            rasters.read_raster(directory / "depth.engr"),
            solver.FlowField(flow=flow[..., :2], info=flow[..., 2:]),
            rasters.read_intrinsics(directory / "intrinsics.txt"))
        want = (" ".join("%.17g" % x for x in result.xi)
                + " %d %d %.17g\n" % (result.iterations, result.converged,
                                      result.reports[-1].weighted_cost))
        assert run(capsys, *solve_args(directory)) == (0, want, "")

    def test_help_names_the_function_of_the_defaults(self, capsys):
        code, out, _ = run(capsys, "solve", "--help")
        assert code == 0 and "settings (defaults: solver.solve):" in out

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

    def test_scene_without_measurements_is_insufficient_data(self, capsys,
                                                             tmp_path):
        # every point lands behind the second camera; its scene file held
        # zero flow there, which solved to the identity with exit 0
        out = tmp_path / "scene"
        code, _, _ = run(capsys, "synth", "--width", "64", "--height", "48",
                         "--depth", "constant:2",
                         "--motion=0.1,0.05,-2.5,0.05,-0.1,0.2",
                         "--out", str(out))
        assert code == 0
        assert run(capsys, *solve_args(out)) == (
            5, "", "insufficient data: 0 valid pixels < required 64\n")

    @pytest.mark.parametrize("floor", ["0", "-5"])
    def test_min_valid_pixels_below_one_is_usage_error(self, capsys, scene_dir,
                                                       tmp_path, floor):
        # with no valid pixel, a floor below 1 let the all-zero normal
        # equations through, and the solve exited 4; the floor is no
        # setting any more
        directory, _ = scene_dir
        depth = rasters.read_raster(directory / "depth.engr")
        depth[:] = np.nan
        bad = tmp_path / "empty.engr"
        rasters.write_raster(bad, depth)
        code, out, err = run(capsys, "solve", "--depth", str(bad),
                             "--flow", str(directory / "flow.engr"),
                             "--intrinsics", str(directory / "intrinsics.txt"),
                             "--min-valid-pixels", floor)
        assert (code, out) == (2, "")
        assert err == ("error: unrecognized arguments: "
                       f"--min-valid-pixels {floor}\n")

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
        # the error the command reports carries the numbers in its message
        with pytest.raises(DegenerateGeometryError) as info:
            solver.solve(rasters.read_raster(directory / "depth.engr"),
                         solver.FlowField.from_raster(flow),
                         rasters.read_intrinsics(directory / "intrinsics.txt"))
        assert err == f"degenerate geometry: {info.value}\n"
        if log_conf > infomat.LOG_FLOAT_MAX:
            assert (info.value.worst, info.value.limit) == (
                log_conf, infomat.LOG_FLOAT_MAX)


# `solve` stdout and the --residuals raster recorded, as literals, when
# se3's coefficients took their accurate forms. They were recorded on
# x86-64 with numpy 2.4.6 and OpenBLAS's SkylakeX (AVX-512) kernel, and
# hold bit for bit only there: the normal-equation sums, se3.exp's
# products and the point transform go through BLAS, whose summation order
# depends on the kernel, so another kernel moves last digits: under
# Haswell all four recorded cases fail, the noiseless one included.
PINNED_SYNTH = ["synth", "--width", "96", "--height", "72",
                "--depth", "smooth:3,0.3",
                "--motion", "0.01,-0.02,0.015,0.01,0.005,-0.01", "--seed", "4"]
PINNED_KINDS = {
    "noiseless": [],
    "noisy": ["--noise-sigma", "0.5"],
    "outliers": ["--noise-sigma", "0.5", "--outlier-fraction", "0.1",
                 "--outlier-magnitude", "20"],
}
PINNED_STDOUT = {
    "noiseless": "0.0099999998943251511 -0.020000000544777657 "
                 "0.014999999824405622 0.0099999997054243516 "
                 "0.0050000000046790862 -0.0099999998357217078 "
                 "6 1 1.3651831277348966e-15\n",
    "noisy": "0.0095642045008655207 -0.017654776374954835 "
             "0.015009984914324807 0.011073118707101426 "
             "0.0052421658201632299 -0.009980717992066547 "
             "5 1 0.59513310340558567\n",
    "outliers": "0.0087848757308958744 -0.018790126837845828 "
                "0.015273794384872251 0.010500421160566487 "
                "0.005628291730938202 -0.0099649771474798251 "
                "4 1 1.1720871385792877\n",
}
PINNED_RESIDUALS_SHA256 = (  # outliers scene
    "edbc07f3e03020dec01d4879034a2d6ea9d443d09ebdf2d34e544319a9f92bf1")


@pytest.fixture(scope="module")
def pinned_scenes(tmp_path_factory):
    root = tmp_path_factory.mktemp("pinned")
    for kind, extra in PINNED_KINDS.items():
        assert cli.main([*PINNED_SYNTH, *extra, "--out", str(root / kind)]) == 0
    return root


class TestSolveOutputPinned:
    @pytest.mark.parametrize("kind", list(PINNED_KINDS))
    def test_stdout_matches_recorded_bytes(self, capsys, pinned_scenes, kind):
        capsys.readouterr()
        assert run(capsys, *solve_args(pinned_scenes / kind)) == (
            0, PINNED_STDOUT[kind], "")

    def test_residual_raster_matches_recorded_bytes(self, capsys,
                                                    pinned_scenes, tmp_path):
        capsys.readouterr()
        out = tmp_path / "resid.engr"
        assert run(capsys, *solve_args(pinned_scenes / "outliers",
                                       "--residuals", str(out))) == (
            0, PINNED_STDOUT["outliers"], "")
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            PINNED_RESIDUALS_SHA256)

    def test_residuals_build_the_geometry_once(self, capsys, monkeypatch,
                                               pinned_scenes, tmp_path):
        calls = []
        original = solver.prepare

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(solver, "prepare", counting)
        code, _, _ = run(capsys, *solve_args(pinned_scenes / "outliers",
                                             "--residuals",
                                             str(tmp_path / "r.engr")))
        assert code == 0
        assert len(calls) == 1

    def test_residuals_go_through_compute_residuals(self, capsys, monkeypatch,
                                                    pinned_scenes, tmp_path):
        # looked up on the module, so the benchmark's tracer sees the call
        calls = []
        original = solver.compute_residuals

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(solver, "compute_residuals", counting)
        code, _, _ = run(capsys, *solve_args(pinned_scenes / "outliers",
                                             "--residuals",
                                             str(tmp_path / "r.engr")))
        assert code == 0
        assert len(calls) == 1

    def test_config_does_not_leak_into_the_next_call(self, capsys,
                                                     pinned_scenes):
        # the parser is built once per process; a setting flag must not
        # change it. The same argv before and after is compared, not a
        # recorded literal, so this holds under any BLAS kernel
        capsys.readouterr()
        argv = solve_args(pinned_scenes / "noisy")
        before = run(capsys, *argv)
        assert (before[0], before[1].split()[6:8], before[2]) == (
            0, ["5", "1"], "")
        code, out, _ = run(capsys, *argv, "--max-iterations", "1")
        assert (code, out.split()[6:8]) == (0, ["1", "0"])
        assert run(capsys, *argv) == before


class TestSolveMemory:
    @pytest.mark.skipif(sys.version_info < (3, 11), reason=(
        "before 3.11 a caller holds its arguments until the call returns"))
    def test_rasters_are_freed_before_the_loop(self, capsys, monkeypatch,
                                               scene_dir):
        read, iterate = rasters.read_raster, solver._iterate
        freed, alive = [], []

        def reading(path):
            raster = read(path)
            freed.append(weakref.ref(raster))
            return raster

        def first_step(*args, **kwargs):
            alive.append([ref() is not None for ref in freed])
            return iterate(*args, **kwargs)
        monkeypatch.setattr(rasters, "read_raster", reading)
        monkeypatch.setattr(solver, "_iterate", first_step)
        directory, _ = scene_dir
        assert run(capsys, *solve_args(directory))[0] == 0
        assert alive == [[False, False]]

    def test_noisy_qvga_peak(self, capsys, tmp_path):
        # the rasters stay float32, and solve frees them once prepare has
        # gathered the valid pixels. Read as float64 and held for the whole
        # loop they set a peak of 12.3-12.5 MB; float32 but held, 10.6-10.9
        # MB, as where a caller keeps its arguments until the call returns
        K = Intrinsics(fx=262.5, fy=262.5, cx=159.5, cy=119.5,
                       width=320, height=240)
        spec = synthetic.SceneSpec(
            width=320, height=240, intrinsics=K,
            motion=[0.01, -0.005, 0.008, 0.004, -0.003, 0.006],
            depth_model=synthetic.SmoothRandomDepth(seed=3, amplitude=0.5),
            noise_sigma=0.5, seed=5)
        synthetic.write_scene(spec, tmp_path / "scene")
        argv = solve_args(tmp_path / "scene")
        want = run(capsys, *argv)
        tracemalloc.start()
        try:
            code = cli.main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, capsys.readouterr().out) == want[:2]
        assert peak < 11.5e6, peak

    def test_residuals_add_nothing_to_the_vga_peak(self, capsys, tmp_path):
        # the residuals are scattered straight into the float32 raster that
        # is written, beside the Problem and the (2, M) residuals: below the
        # solve's own peak. Through a float64 raster and its float32 copy
        # the noisy VGA frame peaked 1.23 MB higher with --residuals. The
        # slack covers the flag's path string in the parsed arguments
        K = Intrinsics(fx=525.0, fy=525.0, cx=319.5, cy=239.5,
                       width=640, height=480)
        spec = synthetic.SceneSpec(
            width=640, height=480, intrinsics=K,
            motion=[0.012, -0.008, 0.01, -0.005, 0.007, 0.004],
            depth_model=synthetic.SmoothRandomDepth(seed=7, amplitude=0.5),
            noise_sigma=0.5, seed=7)
        synthetic.write_scene(spec, tmp_path / "scene")
        argv = solve_args(tmp_path / "scene")
        want = run(capsys, *argv)       # the parser and caches built first
        peaks = []
        for extra in ([], ["--residuals", str(tmp_path / "r.engr")]):
            tracemalloc.start()
            try:
                code = cli.main(argv + extra)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert (code, capsys.readouterr().out) == want[:2]
        assert rasters.read_raster(tmp_path / "r.engr").shape == (480, 640, 2)
        assert peaks[1] <= peaks[0] + 16 * 1024, peaks


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
    paths["flow"] = tmp_path / "flow.engr"
    rasters.write_raster(paths["flow"], np.concatenate(
        [scene.flow_field.flow, scene.flow_field.info], axis=-1))
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

    @pytest.mark.parametrize("baseline", ["-0.1", "nan", "inf"])
    def test_loss_bad_baseline_is_usage_error(self, capsys, loss_rasters,
                                              baseline):
        code, out, err = run_strict(capsys, *loss_args(
            "photometric-lr", loss_rasters), "--baseline=" + baseline)
        assert (code, out) == (2, "")
        assert err == ("error: baseline must be finite and nonnegative, "
                       f"got {float(baseline):g}\n")

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
    def make_files(self, tmp_path, scale=1.0, count=30):
        rng = np.random.default_rng(62)
        ts = np.arange(count) * 0.1
        poses = []
        current = np.eye(4)
        for _ in range(count):
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

    # the quaternion's length overflowed or vanished when squared: NaN
    # scores, or a zero-quaternion error
    @pytest.mark.parametrize("factor", [1e200, 1e-200, 1e300])
    def test_scaled_quaternions_score_as_unit_ones(self, capsys, tmp_path,
                                                   factor):
        est, gt = self.make_files(tmp_path, scale=0.5)
        rows = [line.split() for line in est.read_text().splitlines()[1:]]
        for row in rows:
            row[4:] = [repr(float(q) * factor) for q in row[4:]]
        scaled = tmp_path / "scaled.txt"
        scaled.write_text("".join(" ".join(row) + "\n" for row in rows))
        _, want, _ = run_strict(capsys, "eval-traj", "--est", str(est),
                                "--gt", str(gt))
        code, out, err = run_strict(capsys, "eval-traj", "--est", str(scaled),
                                    "--gt", str(gt))
        assert code == 0 and err == ""
        got = [float(w) for w in out.split() if w not in ("matched", "scales")]
        expected = [float(w) for w in want.split()
                    if w not in ("matched", "scales")]
        assert got == pytest.approx(expected, rel=1e-9, abs=1e-12)

    # a byte-order mark once joined the header's '#' or the first
    # timestamp, and the file exited 3 with a line that did not name it
    @pytest.mark.parametrize("header", [True, False], ids=["header",
                                                           "no-header"])
    def test_byte_order_mark_accepted(self, capsys, tmp_path, header):
        est, gt = self.make_files(tmp_path, scale=0.5)
        _, want, _ = run_strict(capsys, "eval-traj", "--est", str(est),
                                "--gt", str(gt))
        for path in (est, gt):
            lines = path.read_text().splitlines(keepends=True)
            path.write_text("\ufeff" + "".join(lines[0 if header else 1:]),
                            encoding="utf-8")
            assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        assert run_strict(capsys, "eval-traj", "--est", str(est),
                          "--gt", str(gt)) == (0, want, "")

    def test_config_flag_override(self, capsys, tmp_path):
        # each setting flag overrides trajectory.evaluate's default
        est, gt = self.make_files(tmp_path)
        late = trajectory.read_tum(est)
        late = Trajectory(late.timestamps + 0.005, late.poses)
        trajectory.write_tum(late, est)
        argv = ["eval-traj", "--est", str(est), "--gt", str(gt)]
        want = run(capsys, *argv)
        assert want[0] == 0
        assert run(capsys, *argv, "--max-dt", "0.001") == (    # none in 1 ms
            5, "", "insufficient data: fewer than 2 associated samples: 0 "
            "within max_dt 0.001 s\n")
        assert run(capsys, *argv, "--max-dt=0.02") == want
        # rpe_delta: the RPE step in matched pairs
        est, gt = self.make_files(tmp_path, scale=0.5, count=60)
        est_t, gt_t = trajectory.read_tum(est), trajectory.read_tum(gt)
        rpe = "%.12g %.12g" % trajectory.rpe(
            est_t, gt_t, trajectory.associate(est_t, gt_t).indices, 3)
        code, out, err = run(capsys, *argv, "--rpe-delta", "3")
        assert (code, err) == (0, "")
        assert " ".join(out.split()[1:3]) == rpe
        assert run(capsys, *argv)[1] != out       # the default delta is 1
        assert run(capsys, *argv, "--rpe-delta", "100") == (
            5, "", "insufficient data: not enough pairs for delta 100: 60 "
            "pairs, need at least 101\n")

    def test_defaults_are_the_library_defaults(self, capsys, tmp_path):
        est, gt = self.make_files(tmp_path, scale=0.5)
        report = trajectory.evaluate(trajectory.read_tum(est),
                                     trajectory.read_tum(gt))
        q = np.percentile(report.per_pose_scales, [0, 25, 50, 75, 100])
        want = ("%.12g %.12g %.12g matched %d\n" % (
                    report.ate_rmse, report.rpe_trans, report.rpe_rot_deg,
                    report.matched_count)
                + "scales " + " ".join("%.12g" % v for v in q) + "\n")
        assert run(capsys, "eval-traj", "--est", str(est),
                   "--gt", str(gt)) == (0, want, "")

    def test_disjoint_timestamps_exit_code(self, capsys, tmp_path):
        est, gt = self.make_files(tmp_path)
        shifted = trajectory.read_tum(est)
        shifted = Trajectory(shifted.timestamps + 1000.0, shifted.poses)
        moved = tmp_path / "moved.txt"
        trajectory.write_tum(shifted, moved)
        code, _, _ = run(capsys, "eval-traj", "--est", str(moved),
                         "--gt", str(gt))
        assert code == 5

    # np.loadtxt warns "input contained no data" on a file without samples.
    # Warnings are errors only under pytest, so the command runs in its own
    # process with the default warning filters.
    @pytest.mark.parametrize("content", ["# header only\n", "\n  \n\n",
                                         "# a\n\n #b\n"],
                             ids=["comment", "blank", "both"])
    def test_sampleless_file_one_stderr_line(self, tmp_path, content):
        path = tmp_path / "empty.txt"
        path.write_text(content)
        env = child_env()
        env.pop("PYTHONWARNINGS", None)
        proc = subprocess.run(
            [sys.executable, "-m", "flowpose.cli", "eval-traj",
             "--est", str(path), "--gt", str(path)],
            capture_output=True, text=True, env=env, timeout=120)
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == f"format error: {path}: no trajectory samples\n"


# `eval-traj` stdout recorded, as literals, before `align_and_scale` lost
# its identical-input branch, `quaternion_from_rotation` its per-axis blocks
# and `_tum_lines` its deferred non-finite search. The alignment goes
# through LAPACK and BLAS, so another platform may differ in the last digits.
PINNED_EVAL_STDOUT = {
    "bench": "0.006625819799 0.0108403142584 0.29474279257 "
             "matched 177\n"
             "scales 0.637824888743 1.09611319308 1.22473345089 "
             "1.37434321075 2.38167861787\n",
    "same": "0 0 0 matched 588\nscales 1 1 1 1 1\n",
}


@pytest.fixture(scope="module")
def pinned_sequence(tmp_path_factory):
    """Like a bench traj-eval-long pair, 600 ground-truth poses long: ground
    truth at 100 Hz with a 0.12 s gap; the estimate at 30 Hz with +-4 ms
    jitter, a dropped frame, a 0.8 scale error and pose noise."""
    rng = np.random.default_rng(64)
    t0 = 1305031100.0
    steps = np.concatenate([rng.normal(0.0, 0.002, (600, 3)) + [0, 0, 0.01],
                            rng.normal(0.0, 0.003, (600, 3))], axis=1)
    gt = trajectory.chain([(t0 + k * 0.01, xi) for k, xi in enumerate(steps)])
    keep = np.ones(600, dtype=bool)
    keep[300:312] = False
    t_est = np.delete(t0 + 0.005 + np.arange(180) / 30.0
                      + rng.uniform(-0.004, 0.004, 180), 90)
    nearest = np.clip(np.rint((t_est - t0) / 0.01).astype(int), 0, 599)
    poses = gt.poses[nearest].copy()
    poses[:, :3, 3] *= 0.8
    noise = np.concatenate([rng.normal(0.0, 0.003, (len(t_est), 3)),
                            rng.normal(0.0, 0.002, (len(t_est), 3))], axis=1)
    root = tmp_path_factory.mktemp("pinned_traj")
    trajectory.write_tum(Trajectory(gt.timestamps[keep], gt.poses[keep]),
                         root / "gt.txt")
    trajectory.write_tum(Trajectory(t_est, poses @ se3.exp(noise)),
                         root / "est.txt")
    return root


class TestEvalTrajOutputPinned:
    # "plain" names the command's one output format
    @pytest.mark.parametrize("pair", ["bench", "same"],
                             ids=["bench-plain", "same-plain"])
    def test_stdout_matches_recorded_bytes(self, capsys, pinned_sequence,
                                           pair):
        gt = pinned_sequence / "gt.txt"
        est = pinned_sequence / "est.txt" if pair == "bench" else gt
        argv = ["eval-traj", "--est", str(est), "--gt", str(gt)]
        capsys.readouterr()
        assert run_strict(capsys, *argv) == (0, PINNED_EVAL_STDOUT[pair], "")


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
        flow5 = rasters.read_raster(directory / "flow.engr").astype(float)
        gt_flow = flow5[..., :2] + 0.25
        gt_path = tmp_path / "gtflow.engr"
        rasters.write_raster(gt_path, gt_flow)
        gt_flow32 = rasters.read_raster(gt_path).astype(float)
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

    def test_flownll_overflowing_nll_is_degenerate(self, capsys, tmp_path):
        # a finite float32 flow times a confidence below the exponent bound
        # overflows the NLL: it printed inf with exit 0, after a
        # RuntimeWarning
        flow = np.zeros((12, 16, 5))
        flow[..., 0] = 3e38
        flow[..., 2] = flow[..., 4] = 700.0     # a_hat, g_hat
        paths = {"flow": tmp_path / "flow.engr", "gt": tmp_path / "gt.engr"}
        rasters.write_raster(paths["flow"], flow)
        rasters.write_raster(paths["gt"], np.zeros((12, 16, 2)))
        assert run_strict(capsys, "loss", "flownll",
                          "--flow", str(paths["flow"]),
                          "--gt-flow", str(paths["gt"])) == (
            4, "", "degenerate geometry: flow NLL of 192 pixels overflows: "
                   "term inf at residual (3e+38, 0) with a_hat 700, b_hat 0, "
                   "g_hat 700\n")

    def test_non_finite_pixel_is_skipped(self, capsys, tmp_path):
        rng = np.random.default_rng(65)
        gt = rng.uniform(1, 3, (12, 16)).astype(np.float32).astype(float)
        pred = (gt + rng.normal(0, 0.1, gt.shape)).astype(np.float32)
        pred = pred.astype(float)
        valid = np.ones(gt.shape, dtype=bool)
        valid[4, 5] = False
        want = {"berhu": losses.berhu(np.where(valid, pred, np.nan), gt),
                "smoothness": losses.smoothness(np.where(valid, pred, np.nan))}
        pred[4, 5] = np.nan
        paths = {"pred": tmp_path / "pred.engr", "gt": tmp_path / "gt.engr"}
        rasters.write_raster(paths["pred"], pred)
        rasters.write_raster(paths["gt"], gt)
        for name, argv in [
                ("berhu", ["--pred", str(paths["pred"]), "--gt", str(paths["gt"])]),
                ("smoothness", ["--depth", str(paths["pred"])])]:
            code, out, err = run_strict(capsys, "loss", name, *argv)
            assert code == 0 and err == ""
            assert out == "%.12g\n" % want[name]

    def test_unknown_loss_rejected(self, capsys):
        code, out, err = run(capsys, "loss", "nope")
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("error: argument name: invalid choice: 'nope'")

    def test_missing_required_raster_rejected(self, capsys):
        assert run(capsys, "loss", "berhu") == (
            2, "", "error: the following arguments are required: --pred, "
                   "--gt\n")

    def test_flownll_skips_pixels_invalid_in_either_raster(
            self, capsys, tmp_path, scene_dir):
        directory, _ = scene_dir
        flow5 = rasters.read_raster(directory / "flow.engr").astype(float)
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
            flow5[valid][:, :2]
            - rasters.read_raster(paths["gt"])[valid].astype(float),
            flow5[valid][:, 2:])
        code, out, err = run_strict(capsys, "loss", "flownll",
                                    "--flow", str(paths["flow"]),
                                    "--gt-flow", str(paths["gt"]))
        assert code == 0 and err == ""
        assert float(out) == pytest.approx(expected, rel=1e-10)


@pytest.fixture(scope="module")
def two_scenes(tmp_path_factory):
    """Two written 96x72 scenes, A noisy with outliers and B noisy, each
    with its two images in single-channel rasters of their own."""
    directory = tmp_path_factory.mktemp("two_scenes")
    scenes = {}
    for name, motion, fraction, seed in [
            ("a", [0.02, -0.01, 0.015, 0.003, -0.005, 0.008], 0.1, 64),
            ("b", [-0.01, 0.02, 0.01, -0.004, 0.002, 0.006], 0.0, 65)]:
        spec = synthetic.SceneSpec(
            width=96, height=72, motion=motion,
            depth_model=synthetic.SmoothRandomDepth(seed=seed, amplitude=0.5),
            noise_sigma=0.5, outlier_fraction=fraction,
            outlier_magnitude=20.0, seed=seed)
        synthetic.write_scene(spec, directory / name)
        images = rasters.read_raster(directory / name / "images.engr")
        for c in range(2):
            rasters.write_raster(directory / name / f"image-{c + 1}.engr",
                                 images[..., c])
        scenes[name] = directory / name, spec
    return scenes


def _widened(path):
    """A raster file's values widened to float64."""
    return rasters.read_raster(path).astype(float)


def _loss_cases(scenes):
    """{loss: (argv, value)}: each `flowpose loss` on the written scenes, and
    its value computed by the library on the float64 widening of the
    rasters it reads."""
    (a, spec), (b, _) = scenes["a"], scenes["b"]
    K = spec.intrinsics
    motion = ",".join(repr(float(x)) for x in spec.motion)
    pred = solver.FlowField.from_raster(_widened(a / "flow.engr"))
    gt = solver.FlowField.from_raster(_widened(b / "flow.engr"))
    valid = pred.valid & gt.valid
    images = [str(a / "image-1.engr"), str(a / "image-2.engr")]
    return {
        "berhu": (["--pred", str(a / "depth.engr"),
                   "--gt", str(b / "depth.engr")],
                  losses.berhu(_widened(a / "depth.engr"),
                               _widened(b / "depth.engr"))),
        "smoothness": (["--depth", str(a / "depth.engr")],
                       losses.smoothness(_widened(a / "depth.engr"))),
        "flownll": (["--flow", str(a / "flow.engr"),
                     "--gt-flow", str(b / "flow.engr")],
                    infomat.flow_nll_map((pred.flow - gt.flow)[valid],
                                         pred.info[valid])),
        "photometric-lr": (
            ["--image-1", images[0], "--image-2", images[1],
             "--depth", str(a / "depth.engr"), "--gt", str(b / "depth.engr"),
             "--intrinsics", str(a / "intrinsics.txt")],
            losses.photometric_lr(
                *(_widened(p) for p in images), _widened(a / "depth.engr"),
                _widened(b / "depth.engr"), 0.1, K)),
        "pose-photometric": (
            ["--image-1", images[0], "--image-2", images[1],
             "--depth", str(a / "depth.engr"),
             "--intrinsics", str(a / "intrinsics.txt"), "--motion=" + motion],
            losses.pose_photometric(*(_widened(p) for p in images),
                                    _widened(a / "depth.engr"), spec.motion,
                                    K)),
    }


def _signalling_nan_copy(path, out, pixel):
    """Copy a raster file to `out` with a signalling NaN in channel 0 of
    the (y, x) pixel; returns out."""
    raw = bytearray(path.read_bytes())
    _, _, w, _, c = struct.unpack("<4sIIII", raw[:20])
    offset = 20 + 4 * c * (pixel[0] * w + pixel[1])
    raw[offset:offset + 4] = struct.pack("<I", 0x7f810000)
    out.write_bytes(bytes(raw))
    return out


class TestLossFloat64:
    """Each loss prints its value on the float64 widening of its float32
    rasters, and a signalling NaN in a raster is a NaN like any other."""

    @pytest.mark.parametrize("name", ["berhu", "smoothness", "flownll",
                                      "photometric-lr", "pose-photometric"])
    def test_stdout_is_the_float64_computation(self, capsys, two_scenes,
                                               name):
        argv, value = _loss_cases(two_scenes)[name]
        assert run_strict(capsys, "loss", name, *argv) == (
            0, "%.12g\n" % value, "")

    def test_flownll_in_float32_would_print_other_bytes(self, two_scenes):
        # so the test above fails on a float32 subtraction
        (a, _), (b, _) = two_scenes["a"], two_scenes["b"]
        pred = solver.FlowField.from_raster(rasters.read_raster(a / "flow.engr"))
        gt = solver.FlowField.from_raster(rasters.read_raster(b / "flow.engr"))
        valid = pred.valid & gt.valid
        assert pred.flow.dtype == np.float32
        _, value = _loss_cases(two_scenes)["flownll"]
        narrow = infomat.flow_nll_map((pred.flow - gt.flow)[valid],
                                      pred.info[valid])
        assert "%.12g" % narrow != "%.12g" % value

    @pytest.mark.parametrize("command, flag", [
        ("solve", "--depth"), ("solve", "--flow"),
        ("berhu", "--pred"), ("berhu", "--gt"), ("smoothness", "--depth"),
        ("flownll", "--flow"), ("flownll", "--gt-flow"),
        ("photometric-lr", "--depth"), ("photometric-lr", "--gt"),
        ("pose-photometric", "--depth")])
    def test_signalling_nan_is_read_as_a_quiet_one(self, capsys, two_scenes,
                                                   tmp_path, command, flag):
        directory, _ = two_scenes["a"]
        if command == "solve":
            argv = solve_args(directory)
        else:
            argv = ["loss", command, *_loss_cases(two_scenes)[command][0]]
        i = argv.index(flag) + 1
        pixel = (30, 40)
        quiet = tmp_path / "quiet.engr"
        raster = rasters.read_raster(argv[i])
        raster.reshape(raster.shape[:2] + (-1,))[pixel + (0,)] = np.nan
        rasters.write_raster(quiet, raster)
        argv[i] = str(quiet)
        want = run_strict(capsys, *argv)
        argv[i] = str(_signalling_nan_copy(
            quiet, tmp_path / "signalling.engr", pixel))
        assert run_strict(capsys, *argv) == want
        assert want[0] == 0 and want[2] == ""


# the flags that each loss reads; all are required but photometric-lr's
# --baseline
LOSS_FLAGS = {
    "berhu": ["pred", "gt"],
    "smoothness": ["depth"],
    "flownll": ["flow", "gt-flow"],
    "photometric-lr": ["image-1", "image-2", "depth", "gt", "intrinsics",
                       "baseline"],
    "pose-photometric": ["image-1", "image-2", "depth", "intrinsics",
                         "motion"],
}
ALL_LOSS_FLAGS = sorted(set().union(*LOSS_FLAGS.values()))


def loss_flag_args(paths, flags):
    """`--flag=value` arguments on loss_rasters' files, or on the files that
    paths names for a flag: the depth raster stands for every other depth
    and the scene's flow for both flows."""
    values = {"pred": paths["depth"], "gt": paths["depth"],
              "gt-flow": paths["flow"], "baseline": 0.1, **paths}
    return [f"--{flag}={values[flag]}" for flag in flags]


class TestLossFlags:
    """Each loss takes the flags that it reads, and no other."""

    @pytest.mark.parametrize("name,flag", [
        (name, flag) for name, flags in LOSS_FLAGS.items()
        for flag in ALL_LOSS_FLAGS if flag not in flags])
    def test_unread_flag_rejected(self, capsys, loss_rasters, name, flag):
        # an abbreviation is no flag either: flownll would take --gt for
        # --gt-flow
        code, out, err = run_strict(capsys, "loss", name, *loss_flag_args(
            loss_rasters, LOSS_FLAGS[name] + [flag]))
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: unrecognized arguments: --{flag}=")

    @pytest.mark.parametrize("name,flag", [
        (name, flag) for name, flags in LOSS_FLAGS.items()
        for flag in flags if flag != "baseline"])
    def test_missing_flag_rejected(self, capsys, loss_rasters, name, flag):
        argv = loss_flag_args(loss_rasters, [
            other for other in LOSS_FLAGS[name] if other != flag])
        assert run_strict(capsys, "loss", name, *argv) == (
            2, "", f"error: the following arguments are required: --{flag}\n")

    @pytest.mark.parametrize("name", ["photometric-lr", "pose-photometric"])
    def test_first_fault_in_read_order_is_reported(self, capsys, loss_rasters,
                                                   tmp_path, name):
        # the intrinsics first, then the rasters, then --motion
        order = ["intrinsics", "image-1", "image-2", "depth",
                 "gt" if name == "photometric-lr" else "motion"]
        bad = {flag: tmp_path / f"missing-{flag}" for flag in order}
        bad["motion"] = "1,2"
        for first, flag in enumerate(order):
            paths = {**loss_rasters, **{f: bad[f] for f in order[first:]}}
            code, out, err = run_strict(capsys, "loss", name, *loss_flag_args(
                paths, LOSS_FLAGS[name]))
            assert out == "" and len(err.splitlines()) == 1, err
            if flag == "motion":
                assert (code, err) == (2, "error: motion vector expects 6 "
                                          "comma-separated numbers, got 2\n")
            else:
                assert code == 3 and f"missing-{flag}" in err, err

    @pytest.mark.parametrize("name", list(LOSS_FLAGS))
    def test_help_lists_its_flags(self, capsys, name):
        code, out, err = run(capsys, "loss", name, "--help")
        assert (code, err) == (0, "")
        assert out.startswith(f"usage: flowpose loss {name} ")
        assert set(re.findall(r"--[\w-]+", out)) == {
            "--help", *("--" + flag for flag in LOSS_FLAGS[name])}


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
        # one far position: the alignment's sum of squares overflows
        "tum_far.txt": f"0.0 1e200 0 0 0 0 0 1\n1.0 {pose}2.0 1 0 0 0 0 0 1\n",
        # the estimate never moves, so no step gives a per-pose scale
        "tum_still.txt": f"0.0 {pose}1.0 {pose}2.0 {pose}",
    }
    for name, content in files.items():
        path = tmp_path / name
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
        paths[name.split(".")[0]] = str(path)
    nan_gt = np.full(flow.shape[:2] + (2,), np.nan)
    nan_depth = np.full(depth.shape, np.nan)
    flow_huge = flow.copy()
    flow_huge[3, 4] = [3e38, 3e38, 600.0, 0.0, 600.0]   # flow px, a, b, g
    for name, raster in [("depth_short", depth[:46]), ("flow_short", flow[:46]),
                         ("nan_gt", nan_gt), ("tiny", np.ones((1, 5))),
                         ("nan_depth", nan_depth),
                         ("flow_huge", flow_huge)]:
        paths[name] = str(tmp_path / f"{name}.engr")
        rasters.write_raster(paths[name], raster)
    return paths


SOLVE = ["solve", "--depth", "{depth}", "--flow", "{flow}"]
SYNTH = ["synth", "--width", "64", "--height", "48", "--depth", "constant:2.0",
         "--motion", "0.05,0,0,0,0,0", "--out", "{out}"]
EVAL = ["eval-traj", "--gt", "{tum_good}", "--est"]


def synth_with(flag, value):
    """SYNTH with the value of one of its flags replaced."""
    argv = list(SYNTH)
    argv[argv.index(flag) + 1] = value
    return argv

# (argv with {file} placeholders, exit code, words the one stderr line holds)
FAULTS = {
    "intrinsics-fx-zero": (SOLVE + ["--intrinsics", "{fx_zero}"], 3,
                           ["format error", "fx_zero.txt", "focal",
                            "got fx 0, fy 100"]),
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
        ["format error", "pp_outside.txt", "principal point",
         "64x48 raster, got cx 70, cy 24"]),
    "intrinsics-pp-outside-synth": (
        SYNTH + ["--intrinsics", "{pp_outside}"], 3,
        ["format error", "pp_outside.txt", "principal point",
         "64x48 raster, got cx 70, cy 24"]),
    "intrinsics-not-utf8": (SOLVE + ["--intrinsics", "{intrinsics_latin1}"],
                            3, ["format error", "utf-8"]),
    "tum-not-utf8": (EVAL + ["{tum_latin1}"], 3, ["format error", "utf-8"]),
    "tum-decreasing": (EVAL + ["{tum_decreasing}"], 3,
                       ["format error", "tum_decreasing.txt", "increasing",
                        "sample 1 at 0.5 does not follow sample 0 at 1.0"]),
    "tum-duplicate": (EVAL + ["{tum_duplicate}"], 3,
                      ["format error", "tum_duplicate.txt", "increasing",
                       "sample 1 at 1.0 does not follow sample 0 at 1.0"]),
    # the centroid of the positions overflows; the SVD used to raise
    # LinAlgError, reported as a usage error
    "tum-positions-overflow": (EVAL + ["{tum_huge}"], 4,
                               ["degenerate geometry", "overflow"]),
    "tum-position-overflows-scale": (
        EVAL + ["{tum_far}"], 4,
        ["degenerate geometry", "alignment scale", "not finite"]),
    "tum-estimate-never-moves": (
        EVAL + ["{tum_still}"], 4,
        ["degenerate geometry", "per-pose scale", "1e-9 m"]),
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
                                ["insufficient data",
                                 "no valid pixels in the 64x48 mask"]),
    "berhu-prediction-all-nan": (["loss", "berhu", "--pred", "{nan_depth}",
                                  "--gt", "{depth}"], 5,
                                 ["insufficient data", "empty validity mask "
                                  "over the 64x48 raster"]),
    "smoothness-all-nan": (["loss", "smoothness", "--depth", "{nan_depth}"],
                           5, ["insufficient data", "no valid pixels",
                               "gradient of the 64x48 raster"]),
    "smoothness-channels": (["loss", "smoothness", "--depth", "{flow}"], 3,
                            ["format error", "single channel"]),
    "smoothness-under-2x2": (["loss", "smoothness", "--depth", "{tiny}"], 5,
                             ["insufficient data", "5x1", "2x2"]),
    # an overflowing pixel coordinate printed a RuntimeWarning first
    "photometric-lr-huge-baseline": (
        ["loss", "photometric-lr", "--image-1", "{depth}", "--image-2",
         "{depth}", "--depth", "{depth}", "--gt", "{depth}", "--intrinsics",
         "{intrinsics}", "--baseline", "1e308"], 5,
        ["insufficient data", "no valid pixels after warping the 64x48 "
                              "raster"]),
    "pose-photometric-huge-translation": (
        ["loss", "pose-photometric", "--image-1", "{depth}", "--image-2",
         "{depth}", "--depth", "{depth}", "--intrinsics", "{intrinsics}",
         "--motion=1e308,0,0,0,0,0"], 5,
        ["insufficient data", "no valid pixels after warping the 64x48 "
                              "raster"]),
    # a point moved to depth 0.5 and y 1e308 overflows the perspective
    # divide: it printed a RuntimeWarning
    "pose-photometric-projection-overflows": (
        ["loss", "pose-photometric", "--image-1", "{depth}", "--image-2",
         "{depth}", "--depth", "{depth}", "--intrinsics", "{intrinsics}",
         "--motion=0,1e308,-1.5,0,0,0"], 5,
        ["insufficient data", "no valid pixels after warping the 64x48 "
                              "raster"]),
    # exp's translation overflows in a matmul: it printed a RuntimeWarning
    "pose-photometric-translation-overflows-exp": (
        ["loss", "pose-photometric", "--image-1", "{depth}", "--image-2",
         "{depth}", "--depth", "{depth}", "--intrinsics", "{intrinsics}",
         "--motion=0,1.7976931348623157e308,1.7976931348623157e308,-0.64,"
         "0.53,0.25"], 5,
        ["insufficient data", "no valid pixels after warping the 64x48 "
                              "raster"]),
    # NaN fails every comparison, so each check is written to reject it
    "max-dt-nan": (EVAL + ["{tum_good}", "--max-dt", "nan"], 2,
                   ["error", "max_dt must be positive", "got nan"]),
    "max-dt-negative": (EVAL + ["{tum_good}", "--max-dt", "-1"], 2,
                        ["error", "max_dt must be positive, got -1"]),
    "rpe-delta-zero": (EVAL + ["{tum_good}", "--rpe-delta", "0"], 2,
                       ["error", "delta must be >= 1, got 0"]),
    "max-iterations-zero": (SOLVE + ["--intrinsics", "{intrinsics}",
                                     "--max-iterations", "0"], 2,
                            ["error", "max_iterations must be >= 1, got 0"]),
    "outlier-fraction-above-one": (
        SYNTH + ["--outlier-fraction", "1.5"], 2,
        ["error", "outlier_fraction must be in [0, 1), got 1.5"]),
    "motion-nan": (synth_with("--motion", "nan,0,0,0,0,0"), 2,
                   ["error", "motion vector must be finite, "
                             "got (nan, 0, 0, 0, 0, 0)"]),
    # a depth or texture model whose numbers do not parse
    "depth-constant-not-a-number": (
        synth_with("--depth", "constant:abc"), 2,
        ["error", "bad depth model 'constant:abc'"]),
    "depth-plane-two-numbers": (
        synth_with("--depth", "plane:1,2"), 2,
        ["error", "bad depth model 'plane:1,2'"]),
    "depth-smooth-seed-not-int": (
        synth_with("--depth", "smooth:x,1"), 2,
        ["error", "bad depth model 'smooth:x,1'"]),
    "texture-seed-not-int": (SYNTH + ["--texture", "smooth:x"], 2,
                             ["error", "bad texture model 'smooth:x'"]),
    # the tolerance and the pixel floor are no settings any more: an infinite
    # tolerance reported convergence after one step, and a floor of 2 let 3
    # pixels give a pose 0.35 off, both with exit 0
    "convergence-tol-nan": (SOLVE + ["--intrinsics", "{intrinsics}",
                                     "--convergence-tol", "nan"], 2,
                            ["error",
                             "unrecognized arguments: --convergence-tol nan"]),
    "convergence-tol-inf": (SOLVE + ["--intrinsics", "{intrinsics}",
                                     "--convergence-tol", "inf"], 2,
                            ["error",
                             "unrecognized arguments: --convergence-tol inf"]),
    "min-valid-pixels-zero": (SOLVE + ["--intrinsics", "{intrinsics}",
                                       "--min-valid-pixels", "0"], 2,
                              ["error", "unrecognized arguments: "
                                        "--min-valid-pixels 0"]),
    # the checker texture is gone
    "texture-checker": (SYNTH + ["--texture", "checker:8"], 2,
                        ["error", "unknown texture model 'checker'"]),
    # argparse's rejections used to print a usage block of up to 7 lines
    "max-iterations-not-int": (SOLVE + ["--intrinsics", "{intrinsics}",
                                        "--max-iterations", "abc"], 2,
                               ["error: argument --max-iterations",
                                "invalid int value: 'abc'"]),
    "solve-missing-intrinsics": (SOLVE, 2,
                                 ["error", "required", "--intrinsics"]),
    "unknown-command": (["solv"], 2, ["error", "invalid choice: 'solv'"]),
    "no-command": ([], 2, ["error", "required", "command"]),
    "loss-no-name": (["loss"], 2, ["error", "required", "name"]),
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
        assert not os.path.exists(fault_files["out"])   # synth wrote nothing
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert all(word in err for word in words), err

    @pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]])
    def test_help_prints_usage(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.startswith("usage: flowpose")

    def test_parser_raises_value_error(self):
        # main prints it as it prints every other usage fault
        with pytest.raises(ValueError) as exc:
            cli.build_parser().parse_args(
                ["solve", "--depth", "d", "--flow", "f", "--intrinsics", "k",
                 "--max-iterations", "abc"])
        assert str(exc.value) == (
            "argument --max-iterations: invalid int value: 'abc'")

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


class TestOversizedRotation:
    """A rotation angle above se3.MAX_ANGLE exits 2 with one stderr line.
    Before, its cube or its square overflowed: synth wrote a wrong or NaN
    scene with exit 0 and the seeded solve found 0 valid pixels (exit 5)."""

    MESSAGE = "error: motion vector's rotation angle exceeds 1e+100\n"

    @pytest.mark.parametrize("angle", ["1e103", "1e155", "1e300"])
    def test_synth_motion(self, capsys, tmp_path, angle):
        out = tmp_path / "scene"
        assert run_strict(capsys, "synth", "--width", "64", "--height", "48",
                          "--depth", "constant:2",
                          "--motion", f"0,0,0,0,0,{angle}",
                          "--out", str(out)) == (2, "", self.MESSAGE)
        assert not out.exists()

    def test_solve_seed(self, capsys, scene_dir):
        directory, _ = scene_dir
        assert run_strict(capsys, *solve_args(
            directory, "--seed-xi", "0,0,0,0,0,1e300")) == (2, "", self.MESSAGE)

    def test_pose_photometric_motion(self, capsys, loss_rasters):
        assert run_strict(capsys, *loss_args(
            "pose-photometric", loss_rasters, motion="0,0,0,0,0,1e150")) == (
            2, "", self.MESSAGE)


class TestNegativeFirstComponent:
    """A value of `-` and a digit, or of `-.` and a digit, is the flag's
    value: the space form gives what the `=` form gives. It used to exit 2
    with "expected one argument"."""

    @pytest.mark.parametrize("motion", ["-0.05,0,0,0,0,0", "-.05,0,0,0,0,0",
                                        "-5e-2,0.01,0,0,0,-0.01"])
    def test_synth_motion(self, capsys, tmp_path, motion):
        manifests = []
        for out, flag in [("space", ["--motion", motion]),
                          ("equals", ["--motion=" + motion])]:
            assert run_strict(
                capsys, "synth", "--width", "64", "--height", "48",
                "--depth", "constant:2", *flag, "--out", str(tmp_path / out)
            ) == (0, f"{tmp_path / out / 'manifest.txt'}\n", "")
            manifests.append((tmp_path / out / "manifest.txt").read_bytes())
        assert manifests[0] == manifests[1]

    def test_solve_seed(self, capsys, scene_dir):
        directory, _ = scene_dir
        seed = "-0.01,0,0,0,0,0"
        code, out, err = run_strict(capsys, *solve_args(
            directory, "--seed-xi", seed))
        assert (code, err, len(out.split())) == (0, "", 9)
        assert run_strict(capsys, *solve_args(
            directory, "--seed-xi=" + seed)) == (0, out, "")

    def test_pose_photometric_motion(self, capsys, loss_rasters):
        motion = "-0.02,0.01,-0.015,-0.003,0.005,-0.008"
        argv = loss_args("pose-photometric", loss_rasters, motion=motion)
        code, out, err = run_strict(capsys, *argv)
        assert (code, err) == (0, "")
        assert run_strict(capsys, *argv[:-1], "--motion", motion) == (
            0, out, "")

    @pytest.mark.parametrize("seed", ["-x", "-inf,0,0,0,0,0"])
    def test_other_dash_value_is_a_flag(self, capsys, scene_dir, seed):
        directory, _ = scene_dir
        assert run_strict(capsys, *solve_args(
            directory, "--seed-xi", seed)) == (
            2, "", "error: argument --seed-xi: expected one argument\n")


class TestHugeTranslation:
    """A translation so large that the smooth texture's polynomial overflows
    at the pixels the second camera cannot see. Those pixels are zeroed, so
    no RuntimeWarning may reach stderr (it used to print 2-4 lines)."""

    def synth(self, tmp_path, motion):
        env = child_env()
        env.pop("PYTHONWARNINGS", None)
        out = tmp_path / "scene"
        proc = subprocess.run(
            [sys.executable, "-m", "flowpose.cli", "synth", "--width", "64",
             "--height", "48", "--depth", "constant:2", f"--motion={motion}",
             "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=120)
        return proc, out

    def test_along_the_axis_renders_silently(self, tmp_path):
        proc, out = self.synth(tmp_path, "0,0,1e160,0,0,0")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert (out / "manifest.txt").exists()

    def test_sideways_fails_with_one_line(self, tmp_path):
        proc, out = self.synth(tmp_path, "1e160,0,0,0,0,0")
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.endswith(": a finite value overflows float32\n")
        assert len(proc.stderr.splitlines()) == 1
        assert not out.exists()

    def test_overflowing_transform_fails_with_one_line(self, tmp_path):
        # exp's product of the rotation and this translation overflows: it
        # printed three RuntimeWarnings and wrote a scene, exit 0
        proc, out = self.synth(tmp_path, "0,1.7976931348623157e308,"
                               "1.7976931348623157e308,-0.64,0.53,0.25")
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            2, "", "error: motion vector's translation overflows: exp gives "
            "9.22387e+306, inf, 1.09663e+308\n")
        assert not out.exists()


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


# Property: extreme but finite numbers in well-formed TUM lines. The byte
# strings above rarely parse as such lines; these always do, so they reach
# the association, alignment and scoring arithmetic. Any field of the
# estimate's lines may be replaced, timestamps included.
EXTREME_FLOATS = st.one_of(
    st.floats(min_value=1e100, max_value=1.7976931348623157e308),
    st.floats(min_value=-1.7976931348623157e308, max_value=-1e100),
    st.floats(min_value=-1e-290, max_value=1e-290),
    st.sampled_from([1.7976931348623157e308, -1.7976931348623157e308,
                     5e-324, -5e-324, 2.2250738585072014e-308, 0.0, -0.0,
                     1e200, -1e200, 1e-200]))


def _extreme_tum(text):
    """Strategy: the TUM file `text` with some fields replaced by extreme
    finite floats; a replacement may repeat in every line."""
    rows = [line.split() for line in text.splitlines()
            if line and not line.startswith("#")]

    def build(edits):
        new = [list(row) for row in rows]
        for line, field, value, everywhere in edits:
            for k in (range(len(new)) if everywhere else [line % len(new)]):
                new[k][field] = repr(value)
        return "".join(" ".join(row) + "\n" for row in new).encode()

    return st.lists(st.tuples(st.integers(0, 100), st.integers(0, 7),
                              EXTREME_FLOATS, st.booleans()),
                    min_size=1, max_size=6).map(build)


class TestExtremeTumNumbers:
    @settings(max_examples=100, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_documented_exit_code_and_finite_output(self, capsys, fuzz_scene,
                                                    data):
        path = fuzz_scene / "extreme.txt"
        path.write_bytes(data.draw(_extreme_tum(
            (fuzz_scene / "gt.txt").read_text())))
        code, out, err = run_strict(capsys, *_fuzz_argv("tum", fuzz_scene,
                                                        path))
        assert code in (0, 3, 4, 5)
        if code:
            assert out == "" and len(err.splitlines()) == 1, err
        else:
            assert err == ""
            numbers = [float(word) for word in out.split()
                       if word not in ("matched", "scales")]
            assert np.all(np.isfinite(numbers)), out


# Property: extreme float32 values in the depth raster and in the flow
# raster's a_hat, b_hat and g_hat channels, on one pixel or on every pixel.
# Well-formed rasters reach the confidences, the normal equations and their
# checks. An exit 0 here may still carry a wrong pose: a_hat = g_hat = -709
# everywhere gives a finite twist of about 1e16 (see CHANGES.md).
EXTREME_FLOAT32 = st.sampled_from([
    3.4028235e38, -3.4028235e38, 1e-45, -1e-45, 1.1754944e-38, 0.0, -0.0,
    709.0, -709.0, 710.0, -710.0, 1e30, -1e30])


def _extreme_solve_rasters(scene):
    """Strategy: (depth, flow) rasters of `scene` with some values of the
    depth (channel 0) or of a_hat, b_hat, g_hat (channels 1-3) replaced;
    a replacement may cover every pixel."""
    depth = rasters.read_raster(scene / "depth.engr")
    flow = rasters.read_raster(scene / "flow.engr")
    h, w = depth.shape

    def build(edits):
        d, f = depth.copy(), flow.copy()
        for channel, pixel, value, everywhere in edits:
            target = d if channel == 0 else f[..., 1 + channel]
            if everywhere:
                target[...] = value
            else:
                target[divmod(pixel % (h * w), w)] = value
        return d, f

    return st.lists(st.tuples(st.integers(0, 3), st.integers(0, 10 ** 4),
                              EXTREME_FLOAT32, st.booleans()),
                    min_size=1, max_size=4).map(build)


class TestExtremeSolveNumbers:
    @settings(max_examples=100, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_documented_exit_code_and_finite_output(self, capsys, fuzz_scene,
                                                    data):
        depth, flow = data.draw(_extreme_solve_rasters(fuzz_scene / "scene"))
        rasters.write_raster(fuzz_scene / "extreme-depth.engr", depth)
        rasters.write_raster(fuzz_scene / "extreme-flow.engr", flow)
        code, out, err = run_strict(
            capsys, "solve", "--depth", str(fuzz_scene / "extreme-depth.engr"),
            "--flow", str(fuzz_scene / "extreme-flow.engr"),
            "--intrinsics", str(fuzz_scene / "scene" / "intrinsics.txt"))
        assert code in (0, 3, 4, 5)
        if code:
            assert out == "" and len(err.splitlines()) == 1, err
        else:
            assert err == ""
            assert np.all(np.isfinite([float(x) for x in out.split()])), out


# Property: synth command lines with extreme numbers. Up to three of the
# numbers of the depth model, the motion, the noise sigma and the outliers
# are EXTREME_FLOATS values, the others from each slot's ordinary range, so
# that a draw reaches the render as often as the checks before it. Each seed
# is an int of any size, and each optional flag may be left out. Rasters are
# at most 64x64, so no draw allocates much.
@st.composite
def _synth_argv(draw, out):
    # slots 0-3 are the depth model's numbers, 4-9 the motion and 10-12 the
    # noise sigma, outlier fraction and outlier magnitude
    extreme = draw(st.sets(st.integers(0, 12), max_size=3))

    def number(slot, low, high):
        return repr(draw(EXTREME_FLOATS if slot in extreme
                         else st.floats(low, high)))

    def seed():
        return str(draw(st.integers(-2 ** 70, 2 ** 70)))

    kind = draw(st.sampled_from(["constant", "plane", "smooth"]))
    if kind == "constant":
        depth = number(0, 0.1, 10)
    elif kind == "plane":
        depth = ",".join([number(k, -1, 1) for k in range(3)]
                         + [number(3, 0.1, 10)])
    else:
        depth = seed() + "," + number(0, -1, 1)
    argv = ["synth", f"--width={draw(st.integers(2, 64))}",
            f"--height={draw(st.integers(2, 64))}", f"--depth={kind}:{depth}",
            f"--texture=smooth:{seed()}", f"--seed={seed()}",
            "--motion=" + ",".join(number(4 + k, -1, 1) for k in range(6))]
    for slot, (flag, high) in enumerate([("noise-sigma", 2),
                                         ("outlier-fraction", 0.99),
                                         ("outlier-magnitude", 50)], 10):
        value = number(slot, 0, high)
        if draw(st.booleans()):
            argv.append(f"--{flag}={value}")
    return argv + [f"--out={out}"]


# An --intrinsics file for synth's raster of width x height. Up to two of
# fx, fy, cx and cy are EXTREME_FLOATS values, the others from each slot's
# ordinary range; the size is the raster's or another. One edit in three
# leaves the line malformed: a field dropped or repeated, a word that is no
# number or a non-finite one, a size that is no int, a second line, or bytes
# that are not UTF-8.
@st.composite
def _synth_intrinsics(draw, width, height):
    extreme = draw(st.sets(st.integers(0, 3), max_size=2))
    ordinary = [st.floats(1, 4 * width), st.floats(1, 4 * height)] + [
        st.floats(0, size, exclude_min=True, exclude_max=True)
        for size in (width, height)]
    fields = [repr(draw(EXTREME_FLOATS if slot in extreme else numbers))
              for slot, numbers in enumerate(ordinary)]
    fields += draw(st.sampled_from([
        [str(width), str(height)], [str(width), str(height)],
        [str(height), str(width)], [str(width + 1), str(height)]]))
    slot = draw(st.integers(0, 5))
    edit = draw(st.sampled_from(["none"] * 10 + [
        "drop", "repeat", "word", "size", "lines", "bytes"]))
    if edit == "drop":
        del fields[slot]
    elif edit == "repeat":
        fields.insert(slot, fields[slot])
    elif edit == "word":
        fields[slot] = draw(st.sampled_from(
            ["nan", "-inf", "inf", "x", "0x10", "1,5", "--1", "1e400"]))
    elif edit == "size":
        fields[4 + slot % 2] = draw(st.sampled_from(
            ["0", "-3", "64.0", "1e3", str(10 ** 30)]))
    text = " ".join(fields) + "\n"
    if edit == "lines":
        text = " ".join(fields[:3]) + "\n" + " ".join(fields[3:]) + "\n"
    return text.encode() if edit != "bytes" else b"\xff" + text.encode()


class TestExtremeSynthNumbers:
    @settings(max_examples=100, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_intrinsics_file_documented_exit_code(self, capsys, tmp_path,
                                                  data):
        # the same contract with an --intrinsics file, and every scene that
        # synth writes is one that solve reads
        out, path = tmp_path / "scene", tmp_path / "intrinsics.txt"
        argv = data.draw(_synth_argv(out))
        width, height = (int(flag.partition("=")[2]) for flag in argv[1:3])
        path.write_bytes(data.draw(_synth_intrinsics(width, height)))
        code, stdout, err = run_strict(capsys, *argv, f"--intrinsics={path}")
        assert code in (0, 2, 3, 4, 5)
        if code:
            assert stdout == "" and len(err.splitlines()) == 1, err
            assert not out.exists()
            return
        assert err == ""
        code, stdout, err = run_strict(capsys, *solve_args(out))
        shutil.rmtree(out)
        assert code in (0, 2, 3, 4, 5)
        if code:
            assert stdout == "" and len(err.splitlines()) == 1, err
        else:
            assert err == ""
            fields = [float(x) for x in stdout.split()]
            assert len(fields) == 9 and np.all(np.isfinite(fields)), stdout

    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_documented_exit_code(self, capsys, tmp_path, data):
        out = tmp_path / "scene"
        code, stdout, err = run_strict(capsys, *data.draw(_synth_argv(out)))
        assert code in (0, 2, 3, 4, 5)
        if code:
            assert stdout == "" and len(err.splitlines()) == 1, err
            assert not out.exists()
            return
        assert err == ""
        # and every scene that synth writes is one that solve reads
        code, stdout, err = run_strict(capsys, *solve_args(out))
        shutil.rmtree(out)
        assert code in (0, 2, 3, 4, 5)
        if code:
            assert stdout == "" and len(err.splitlines()) == 1, err
        else:
            assert err == ""
            fields = [float(x) for x in stdout.split()]
            assert len(fields) == 9 and np.all(np.isfinite(fields)), stdout


# Property: loss command lines with extreme numbers. Each raster that the
# loss reads is the 16x12 scene's, with EXTREME_FLOAT32 values on one pixel
# or on every pixel of any of its channels, flow and information alike;
# photometric-lr's --baseline and each --motion component is an
# EXTREME_FLOATS value or one from its ordinary range.
@st.composite
def _loss_argv(draw, scene, directory):
    """(argv, {path: raster}) of one `flowpose loss` call on `scene`'s
    rasters, which it writes to `directory`."""
    images = rasters.read_raster(scene / "images.engr")
    depth = rasters.read_raster(scene / "depth.engr")
    flow = rasters.read_raster(scene / "flow.engr")
    bases = {"pred": depth, "gt": depth, "depth": depth, "flow": flow,
             "gt-flow": flow, "image-1": images[..., 0],
             "image-2": images[..., 1]}
    name = draw(st.sampled_from(sorted(LOSS_FLAGS)))
    argv, files = ["loss", name], {}
    for flag in LOSS_FLAGS[name]:
        if flag in bases:
            raster = bases[flag].copy()
            channels = raster.reshape(raster.shape[:2] + (-1,))
            h, w, c = channels.shape
            for channel, pixel, value, everywhere in draw(st.lists(
                    st.tuples(st.integers(0, 4), st.integers(0, 10 ** 4),
                              EXTREME_FLOAT32, st.booleans()), max_size=4)):
                target = channels[..., channel % c]
                if everywhere:
                    target[...] = value
                else:
                    target[divmod(pixel % (h * w), w)] = value
            value = directory / f"loss-{flag}.engr"
            files[value] = raster
        elif flag == "intrinsics":
            value = scene / "intrinsics.txt"
        else:
            low = 0 if flag == "baseline" else -1
            value = ",".join(
                repr(draw(st.one_of(EXTREME_FLOATS, st.floats(low, 1))))
                for _ in range(6 if flag == "motion" else 1))
        argv.append(f"--{flag}={value}")
    return argv, files


class TestExtremeLossNumbers:
    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_documented_exit_code_and_finite_output(self, capsys, fuzz_scene,
                                                    data):
        argv, files = data.draw(_loss_argv(fuzz_scene / "scene", fuzz_scene))
        for path, raster in files.items():
            rasters.write_raster(path, raster)
        code, out, err = run_strict(capsys, *argv)
        assert code in (0, 2, 3, 4, 5)
        if code:
            assert out == "" and len(err.splitlines()) == 1, err
        else:
            assert err == ""
            assert np.isfinite(float(out)), out


def _libc_has_mallopt():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


def run_python(source, *argv):
    return subprocess.run([sys.executable, "-c", source, *argv],
                          capture_output=True, text=True, env=child_env(),
                          timeout=120)


# Each call's minor page faults, as one stdout line.
_FAULTS_PER_CALL = """
import contextlib, io, resource, sys
from flowpose import cli
faults = []
for _ in range(4):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(sys.argv[1:]) == 0
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(*faults)
"""

# mallopt calls made by importing flowpose.cli and by two main() calls,
# with a stub libc whose mallopt returns sys.argv[1].
_MALLOPT_CALLS = """
import ctypes, sys
calls = []
def mallopt(param, value):
    calls.append((param, value))
    return int(sys.argv[1])
class CDLL:
    def __init__(self, name):
        self.mallopt = mallopt
ctypes.CDLL = CDLL
from flowpose import cli
on_import = list(calls)
cli.main([])
cli.main([])
print(on_import, calls)
"""


class TestProcessHeap:
    """`main` keeps freed memory in the process heap, so raster-sized
    temporaries are not page-faulted in afresh on every call."""

    @pytest.mark.skipif(not _libc_has_mallopt(), reason="libc has no mallopt")
    def test_repeated_solve_takes_no_page_faults(self, tmp_path):
        K = Intrinsics(fx=262.5, fy=262.5, cx=160.0, cy=120.0,
                       width=320, height=240)
        spec = synthetic.SceneSpec(
            width=320, height=240, intrinsics=K,
            motion=[0.01, -0.005, 0.008, 0.004, -0.003, 0.006],
            depth_model=synthetic.SmoothRandomDepth(seed=3, amplitude=0.5),
            noise_sigma=0.5, seed=5)
        synthetic.write_scene(spec, tmp_path / "scene")
        proc = run_python(_FAULTS_PER_CALL, *solve_args(tmp_path / "scene"))
        assert proc.returncode == 0, proc.stderr
        faults = [int(n) for n in proc.stdout.split()]
        # glibc's default returned each freed temporary to the kernel: calls
        # 3 and 4 took 1,744-4,054 faults each; the first two grow the heap
        assert max(faults[2:]) < 100, faults

    @pytest.mark.parametrize("returns, expected", [
        (1, "[] [(-3, 33554432), (-1, 1073741824)]"),
        # a libc that rejects the mmap threshold gets no trim threshold,
        # which alone would map every buffer over 128 KB
        (0, "[] [(-3, 33554432)]"),
    ], ids=["glibc", "rejected"])
    def test_main_sets_both_thresholds_once(self, returns, expected):
        proc = run_python(_MALLOPT_CALLS, str(returns))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == expected + "\n"
