"""Command-line surface: synthesize scenes, solve poses, evaluate
trajectories and evaluate losses.

`solve` and `eval-traj` settings are flags with no default of their own:
each takes the default of the argument of its name of `solver.solve` or
`trajectory.evaluate`. The parser is built once per process, and no command
line changes it. Each `loss` subcommand takes only the flags that
its loss reads. A value may start with `-` and a digit without `=`:
`--motion -0.05,...`.

`main` makes glibc keep freed memory in the process heap, so the solver's
raster-sized temporaries stop page-faulting in afresh; it is not done at
import, so a program that imports the library keeps its own allocator.

Exit codes: 0 success, 2 usage, 3 I/O or format error, 4 numerical
degeneracy, 5 insufficient data. Each failure prints one `<label>:
<message>` stderr line; a command line that argparse rejects is a
ValueError like every other usage fault: `error: <message>`, no usage block.
"""

import argparse
import ctypes
import functools
import inspect
import re
import sys

import numpy as np

from . import infomat, losses, rasters, solver, synthetic, trajectory
from .camera import check_same_size
from .errors import FlowPoseError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3

# glibc mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


@functools.cache
def _keep_freed_memory():
    """Make glibc keep freed memory in this process's heap, once per process.

    By default glibc maps each buffer above its dynamic mmap threshold,
    unmaps it when it is freed and trims the heap top, so the next
    raster-sized numpy temporary (0.6-1.8 MB at 320x240) page-faults in
    afresh: a repeated QVGA `solve` took 2,300-4,000 minor faults, and 0-12
    with both settings below. Does nothing where libc has no `mallopt` or
    rejects the setting (not glibc)."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # 32 MiB, glibc's largest on 64-bit: every buffer of a VGA solve comes
    # from the heap, the largest the (4, N) points of its Problem (at most
    # 640*480*4*8 B = 9.8 MB). Alone it still left 2,594 faults per QVGA
    # solve, as freed memory at the heap top went back to the kernel.
    if mallopt(_M_MMAP_THRESHOLD, 32 << 20):
        # 1 GiB: the heap top is kept. Alone this setting turns off the
        # dynamic mmap threshold, so every buffer over 128 KB is mapped and
        # faulted (14,637 faults per solve); so it is set only where the
        # mmap threshold was accepted.
        mallopt(_M_TRIM_THRESHOLD, 1 << 30)


def _parse_motion(text):
    parts = text.split(',')
    if len(parts) != 6:
        raise ValueError("motion vector expects 6 comma-separated numbers, "
                         f"got {len(parts)}")
    return np.array([float(p) for p in parts])


def _parse_depth_model(text):
    kind, _, rest = text.partition(':')
    try:
        if kind == 'constant':
            return synthetic.ConstantDepth(float(rest))
        if kind == 'plane':
            nx, ny, nz, offset = (float(p) for p in rest.split(','))
            return synthetic.PlaneDepth(normal=(nx, ny, nz), offset=offset)
        if kind == 'smooth':
            seed, amplitude = rest.split(',')
            return synthetic.SmoothRandomDepth(seed=int(seed),
                                               amplitude=float(amplitude))
    except (ValueError, TypeError) as exc:
        raise ValueError(f"bad depth model '{text}': {exc}") from exc
    raise ValueError(f"unknown depth model '{kind}'")


def _parse_texture_model(text):
    kind, _, rest = text.partition(':')
    if kind != 'smooth':
        raise ValueError(f"unknown texture model '{kind}'")
    try:
        return synthetic.SmoothRandomTexture(seed=int(rest) if rest else 1)
    except ValueError as exc:
        raise ValueError(f"bad texture model '{text}': {exc}") from exc


def _settings(parser, flags, function):
    """Declare flags as the settings of the parser's command: each takes
    the default of the library function's argument of its name."""
    parameters = inspect.signature(function).parameters
    parser.set_defaults(settings=[a.dest for a in flags],
                        **{a.dest: parameters[a.dest].default for a in flags})


def cmd_synth(args):
    spec = synthetic.SceneSpec(
        width=args.width, height=args.height,
        motion=_parse_motion(args.motion),
        depth_model=_parse_depth_model(args.depth),
        texture_model=_parse_texture_model(args.texture),
        outlier_fraction=args.outlier_fraction,
        outlier_magnitude=args.outlier_magnitude,
        noise_sigma=args.noise_sigma,
        seed=args.seed)
    if args.intrinsics:
        spec.intrinsics = rasters.read_intrinsics(args.intrinsics)
    manifest = synthetic.write_scene(spec, args.out)
    print(manifest)
    return EXIT_OK


def cmd_solve(args):
    # the rasters are bound to no name here, so `solve` frees them once it
    # has gathered the valid pixels. The settings are named: a call with
    # `**` would hold the rasters in its argument tuple until it returns
    result = solver.solve(
        rasters.read_raster(args.depth),
        solver.FlowField.from_raster(rasters.read_raster(args.flow)),
        rasters.read_intrinsics(args.intrinsics),
        max_iterations=args.max_iterations,
        use_confidence=args.use_confidence, seed_xi=args.seed_xi)
    if args.residuals:
        # the problem the solve built, not a second one, scattered straight
        # into the float32 raster that is written
        with rasters.float32_cast(args.residuals):
            residuals = solver.compute_residuals(result.problem, result.xi,
                                                 np.float32)
        rasters.write_raster(args.residuals, residuals)
    print(" ".join("%.17g" % x for x in result.xi)
          + " %d %d %.17g" % (result.iterations, int(result.converged),
                              result.reports[-1].weighted_cost))
    return EXIT_OK


def _quantiles(values):
    return [float(np.min(values)),
            float(np.percentile(values, 25)),
            float(np.median(values)),
            float(np.percentile(values, 75)),
            float(np.max(values))]


def cmd_eval_traj(args):
    est = trajectory.read_tum(args.est)
    gt = trajectory.read_tum(args.gt)
    report = trajectory.evaluate(est, gt, max_dt=args.max_dt,
                                 rpe_delta=args.rpe_delta)
    q = _quantiles(report.per_pose_scales)
    print("%.12g %.12g %.12g matched %d"
          % (report.ate_rmse, report.rpe_trans, report.rpe_rot_deg,
             report.matched_count))
    print("scales " + " ".join("%.12g" % v for v in q))
    return EXIT_OK


def cmd_loss(args):
    name = args.name
    if name == 'berhu':
        value = losses.berhu(rasters.read_raster(args.pred),
                             rasters.read_raster(args.gt))
    elif name == 'smoothness':
        value = losses.smoothness(rasters.read_raster(args.depth))
    elif name == 'flownll':
        pred = solver.FlowField.from_raster(rasters.read_raster(args.flow))
        gt = solver.FlowField.from_raster(rasters.read_raster(args.gt_flow))
        check_same_size(pred.flow, gt.flow, ("flow", "gt-flow"))
        valid = pred.valid & gt.valid
        # in float64, as the losses compute: the rasters are float32
        residual = np.subtract(pred.flow, gt.flow, where=valid[..., None],
                               out=np.zeros(pred.flow.shape), dtype=float)
        value = infomat.flow_nll_map(residual, pred.info, valid)
    elif name == 'photometric-lr':
        K = rasters.read_intrinsics(args.intrinsics)
        value = losses.photometric_lr(
            rasters.read_raster(args.image_1), rasters.read_raster(args.image_2),
            rasters.read_raster(args.depth), rasters.read_raster(args.gt),
            args.baseline, K)
    elif name == 'pose-photometric':
        K = rasters.read_intrinsics(args.intrinsics)
        value = losses.pose_photometric(
            rasters.read_raster(args.image_1), rasters.read_raster(args.image_2),
            rasters.read_raster(args.depth), _parse_motion(args.motion), K)
    print("%.12g" % value)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Raises a rejected command line as a ValueError, the type of every
    other usage fault; its subparsers are of its class. --help still prints
    the usage."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # `-` or `-.` and a digit is a value, not a flag, so a motion such as
        # `-0.05,0,0,0,0,0` needs no `=`: no flag here looks like a number
        self._negative_number_matcher = re.compile(r'^-\.?\d')

    def error(self, message):
        raise ValueError(message)


def build_parser():
    parser = _Parser(
        prog='flowpose',
        description='Synthetic scenes, IRLS pose solving, trajectory '
                    'evaluation and loss evaluation.')
    sub = parser.add_subparsers(dest='command', required=True)

    p = sub.add_parser('synth', help='render a synthetic scene directory')
    p.add_argument('--width', type=int, required=True)
    p.add_argument('--height', type=int, required=True)
    p.add_argument('--depth', required=True,
                   help='constant:D | plane:nx,ny,nz,offset | smooth:seed,amp')
    p.add_argument('--texture', default='smooth:1',
                   help='smooth:seed')
    p.add_argument('--motion', required=True,
                   help='6 comma-separated motion components')
    p.add_argument('--intrinsics', help='optional intrinsics file')
    p.add_argument('--outlier-fraction', type=float, default=0.0)
    p.add_argument('--outlier-magnitude', type=float, default=0.0)
    p.add_argument('--noise-sigma', type=float, default=0.0)
    p.add_argument('--seed', type=int, default=0)
    p.add_argument('--out', required=True, help='output directory')

    p = sub.add_parser('solve', help='estimate a pose from depth + flow')
    p.add_argument('--depth', required=True)
    p.add_argument('--flow', required=True)
    p.add_argument('--intrinsics', required=True)
    p.add_argument('--residuals', help='optional residual raster output')
    g = p.add_argument_group('settings (defaults: solver.solve)')
    _settings(p, [g.add_argument('--max-iterations', type=int),
                  g.add_argument('--no-confidence', dest='use_confidence',
                                 action='store_false'),
                  g.add_argument('--seed-xi', type=_parse_motion)],
              solver.solve)

    p = sub.add_parser('eval-traj', help='score ATE/RPE of TUM trajectories')
    p.add_argument('--est', required=True)
    p.add_argument('--gt', required=True)
    g = p.add_argument_group('settings (defaults: trajectory.evaluate)')
    _settings(p, [g.add_argument('--rpe-delta', type=int),
                  g.add_argument('--max-dt', type=float)],
              trajectory.evaluate)

    p = sub.add_parser('loss', help='evaluate a loss from raster files')
    # one parser per loss, with only its flags, each in full: an abbreviation
    # would let flownll read --gt as --gt-flow
    by_loss = p.add_subparsers(dest='name', required=True)
    for name, flags, text in [
            ('berhu', ['pred', 'gt'], 'berHu depth loss'),
            ('smoothness', ['depth'], 'edge smoothness of a depth raster'),
            ('flownll', ['flow', 'gt-flow'], 'flow negative log-likelihood'),
            ('photometric-lr', ['image-1', 'image-2', 'depth', 'gt',
                                'intrinsics'],
             "stereo photometric loss; --gt is the right view's depth"),
            ('pose-photometric', ['image-1', 'image-2', 'depth',
                                  'intrinsics', 'motion'],
             'photometric loss of two frames under --motion')]:
        q = by_loss.add_parser(name, help=text, description=text,
                               allow_abbrev=False)
        for flag in flags:
            q.add_argument('--' + flag, required=True)
    by_loss.choices['photometric-lr'].add_argument(
        '--baseline', type=float, default=0.1)

    return parser


# build_parser once per process: no call changes the parser's state
_parser = functools.cache(build_parser)


def main(argv=None):
    _keep_freed_memory()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parser().parse_args(argv)
        # looked up at call time, so a replaced cmd_* function is the one run
        return globals()['cmd_' + args.command.replace('-', '_')](args)
    except FlowPoseError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:   # a command line or argument check
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit:          # --help printed the usage
        return EXIT_OK


if __name__ == '__main__':
    sys.exit(main())
