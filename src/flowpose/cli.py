"""Command-line surface: synthesize scenes, solve poses, evaluate
trajectories and evaluate losses.

Exit codes: 0 success, 2 usage, 3 I/O or format error, 4 numerical
degeneracy, 5 insufficient data.
"""

import argparse
import sys

import numpy as np

from . import infomat, losses, rasters, se3, solver, synthetic, trajectory
from .camera import check_same_size
from .errors import FlowPoseError, RasterFormatError, UsageError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3


def _parse_motion(text):
    parts = text.split(',')
    if len(parts) != 6:
        raise UsageError("--motion expects 6 comma-separated numbers")
    try:
        return np.array([float(p) for p in parts])
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


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
        raise UsageError(f"bad depth model '{text}': {exc}") from exc
    raise UsageError(f"unknown depth model '{kind}'")


def _parse_texture_model(text):
    kind, _, rest = text.partition(':')
    try:
        if kind == 'checker':
            return synthetic.CheckerTexture(period=float(rest) if rest else 8.0)
        if kind == 'smooth':
            return synthetic.SmoothRandomTexture(seed=int(rest) if rest else 1)
    except (ValueError, TypeError) as exc:
        raise UsageError(f"bad texture model '{text}': {exc}") from exc
    raise UsageError(f"unknown texture model '{kind}'")


def _read_config(path):
    """Line-oriented `key = value` configuration file."""
    values = {}
    with open(path, 'r') as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith('#'):
                continue
            if '=' not in line:
                raise UsageError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition('=')
            values[key.strip()] = value.strip()
    return values


# Config-file keys accepted per command, with conversions.
_CONFIG_KEYS = {
    'solve': {
        'max_iterations': int,
        'convergence_tol': float,
        'min_valid_pixels': int,
        'damping': float,
        'use_confidence': lambda s: s.lower() in ('1', 'true', 'yes', 'on'),
        'single_iteration': lambda s: s.lower() in ('1', 'true', 'yes', 'on'),
        'seed_xi': _parse_motion,
    },
    'eval-traj': {
        'rpe_delta': int,
        'max_dt': float,
    },
}


def _apply_config(args, command, argv_flags):
    if not args.config:
        return
    allowed = _CONFIG_KEYS.get(command, {})
    values = _read_config(args.config)
    for key, raw in values.items():
        if key not in allowed:
            raise UsageError(f"unknown config key {key!r}")
        # flags given on the command line win over config-file values
        flag = '--' + key.replace('_', '-')
        if flag in argv_flags:
            continue
        setattr(args, key, allowed[key](raw))


def _flow_field_from_raster(data):
    data = np.atleast_3d(data)
    if data.shape[2] == 5:
        return solver.FlowField(flow=data[..., :2], info=data[..., 2:])
    if data.shape[2] == 2:
        info = np.zeros(data.shape[:2] + (3,))
        return solver.FlowField(flow=data, info=info)
    raise RasterFormatError(
        f"flow raster must have 2 or 5 channels, got {data.shape[2]}")


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
    depth = rasters.read_raster(args.depth)
    if depth.ndim != 2:
        raise RasterFormatError("depth raster must have a single channel")
    flow = _flow_field_from_raster(rasters.read_raster(args.flow))
    K = rasters.read_intrinsics(args.intrinsics)
    config = solver.SolverConfig(
        max_iterations=args.max_iterations,
        convergence_tol=args.convergence_tol,
        min_valid_pixels=args.min_valid_pixels,
        use_confidence=args.use_confidence,
        single_iteration=args.single_iteration,
        damping=args.damping,
        seed_xi=args.seed_xi if args.seed_xi is not None else np.zeros(6))
    result = solver.solve(depth, flow, K, config)
    if args.residuals:
        report = solver.compute_residuals(depth, flow, result.xi, K,
                                          config.min_valid_pixels)
        rasters.write_raster(args.residuals, report.residuals)
    if args.pretty:
        print("xi:         " + " ".join("%.12g" % x for x in result.xi))
        print("iterations: %d" % result.iterations)
        print("converged:  %s" % result.converged)
        print("final_cost: %.12g" % result.final_cost)
    else:
        print(" ".join("%.17g" % x for x in result.xi)
              + " %d %d %.17g" % (result.iterations, int(result.converged),
                                  result.final_cost))
    return EXIT_OK


def _quantiles(values):
    if len(values) == 0:
        return [float('nan')] * 5
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
    if args.pretty:
        print("ATE (m):    %.12g" % report.ate_rmse)
        print("RPE (m):    %.12g" % report.rpe_trans)
        print("RPE (deg):  %.12g" % report.rpe_rot_deg)
        print("matched:    %d" % report.matched_count)
        print("scales (min q1 median q3 max): "
              + " ".join("%.12g" % v for v in q))
    else:
        print("%.12g %.12g %.12g matched %d"
              % (report.ate_rmse, report.rpe_trans, report.rpe_rot_deg,
                 report.matched_count))
        print("scales " + " ".join("%.12g" % v for v in q))
    return EXIT_OK


def _require(args, names):
    for name in names:
        if getattr(args, name.replace('-', '_')) is None:
            raise UsageError(f"loss '{args.name}' requires --{name}")


def cmd_loss(args):
    name = args.name
    if name == 'berhu':
        _require(args, ['pred', 'gt'])
        value = losses.berhu(rasters.read_raster(args.pred),
                             rasters.read_raster(args.gt))
    elif name == 'smoothness':
        _require(args, ['depth'])
        value = losses.smoothness(rasters.read_raster(args.depth))
    elif name == 'flownll':
        _require(args, ['flow', 'gt-flow'])
        pred = _flow_field_from_raster(rasters.read_raster(args.flow))
        gt = _flow_field_from_raster(rasters.read_raster(args.gt_flow))
        check_same_size(pred.flow, gt.flow, ("flow", "gt-flow"))
        valid = pred.valid & gt.valid
        residual = np.subtract(pred.flow, gt.flow, where=valid[..., None],
                               out=np.zeros_like(pred.flow))
        value = infomat.flow_nll_map(residual, pred.info, valid)
    elif name == 'photometric-lr':
        _require(args, ['image-1', 'image-2', 'depth', 'gt', 'intrinsics'])
        K = rasters.read_intrinsics(args.intrinsics)
        value = losses.photometric_lr(
            rasters.read_raster(args.image_1), rasters.read_raster(args.image_2),
            rasters.read_raster(args.depth), rasters.read_raster(args.gt),
            args.baseline, K)
    elif name == 'pose-photometric':
        _require(args, ['image-1', 'image-2', 'depth', 'intrinsics', 'motion'])
        K = rasters.read_intrinsics(args.intrinsics)
        value = losses.pose_photometric(
            rasters.read_raster(args.image_1), rasters.read_raster(args.image_2),
            rasters.read_raster(args.depth), _parse_motion(args.motion), K)
    else:
        raise UsageError(f"unknown loss '{name}'")
    print("%.12g" % value)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
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
                   help='checker:period | smooth:seed')
    p.add_argument('--motion', required=True,
                   help='6 comma-separated motion components')
    p.add_argument('--intrinsics', help='optional intrinsics file')
    p.add_argument('--outlier-fraction', type=float, default=0.0)
    p.add_argument('--outlier-magnitude', type=float, default=0.0)
    p.add_argument('--noise-sigma', type=float, default=0.0)
    p.add_argument('--seed', type=int, default=0)
    p.add_argument('--out', required=True, help='output directory')
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser('solve', help='estimate a pose from depth + flow')
    p.add_argument('--depth', required=True)
    p.add_argument('--flow', required=True)
    p.add_argument('--intrinsics', required=True)
    p.add_argument('--config', help='key = value configuration file')
    p.add_argument('--max-iterations', type=int, default=20)
    p.add_argument('--convergence-tol', type=float, default=1e-9)
    p.add_argument('--min-valid-pixels', type=int, default=64)
    p.add_argument('--no-confidence', dest='use_confidence',
                   action='store_false')
    p.add_argument('--single-iteration', action='store_true')
    p.add_argument('--damping', type=float, default=0.0)
    p.add_argument('--seed-xi', type=_parse_motion, default=None)
    p.add_argument('--residuals', help='optional residual raster output')
    p.add_argument('--pretty', action='store_true')
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser('eval-traj', help='score ATE/RPE of TUM trajectories')
    p.add_argument('--est', required=True)
    p.add_argument('--gt', required=True)
    p.add_argument('--config', help='key = value configuration file')
    p.add_argument('--rpe-delta', type=int, default=1)
    p.add_argument('--max-dt', type=float, default=0.02)
    p.add_argument('--pretty', action='store_true')
    p.set_defaults(func=cmd_eval_traj)

    p = sub.add_parser('loss', help='evaluate a loss from raster files')
    p.add_argument('name', help='berhu | smoothness | flownll | '
                                'photometric-lr | pose-photometric')
    p.add_argument('--pred')
    p.add_argument('--gt')
    p.add_argument('--depth')
    p.add_argument('--flow')
    p.add_argument('--gt-flow')
    p.add_argument('--image-1')
    p.add_argument('--image-2')
    p.add_argument('--intrinsics')
    p.add_argument('--baseline', type=float, default=0.1)
    p.add_argument('--motion')
    p.set_defaults(func=cmd_loss)

    return parser


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if getattr(args, 'config', None):
            flags = {a for a in argv if a.startswith('--')}
            _apply_config(args, args.command, flags)
        return args.func(args)
    except FlowPoseError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:   # a library argument check
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == '__main__':
    sys.exit(main())
