"""flowpose benchmark: one workload per process, closed loop, one operation
at a time.

    python3 bench/run.py --workload odometry-qvga --seed 1 --seconds 20 --trace 0

An operation is one in-process `flowpose` invocation, `cli.main(argv)`, on
inputs the benchmark generated from the seed. Every operation's output is
checked. With --trace 0 the last stdout line holds the end-to-end metrics;
with --trace 1 it holds the per-layer metrics of a run in which traced and
untraced operations alternate. Results and spans are also written under
.bench_work/results/ in the checkout. BENCHMARK.json describes the metrics.
"""

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

import numpy

import oracle
from tracing import OUT_OF_REACH, WRAPPED, Tracer, layer_totals, tail_value

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, 'src')

SETUP_REPEATS = 3   # setup_s is the median of this many set-ups
MIN_OPS = 20        # so the tail percentile has ten samples beyond it


def _blas_threads():
    """(library, thread count) of the OpenBLAS numpy loaded, if any."""
    with open('/proc/self/maps') as fh:
        libs = sorted({line.split()[-1] for line in fh if 'openblas' in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ('scipy_openblas_get_num_threads64_',
                       'scipy_openblas_get_num_threads',
                       'openblas_get_num_threads64_',
                       'openblas_get_num_threads'):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return os.path.basename(path), fn()
    return (os.path.basename(libs[0]) if libs else 'unknown'), None


def _commit():
    """HEAD of the checkout, or None outside a git working tree."""
    try:
        with open(os.path.join(ROOT, '.git', 'HEAD')) as fh:
            head = fh.read().strip()
        if not head.startswith('ref: '):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, '.git', ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, '.git', 'packed-refs')) as fh:
            for line in fh:
                if line.rstrip().endswith(' ' + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, 'flowpose')
    for name in sorted(os.listdir(pkg)):
        if name.endswith('.py'):
            with open(os.path.join(pkg, name), 'rb') as fh:
                h.update(name.encode() + b'\0' + fh.read())
    return h.hexdigest()


def environment(seed):
    cpu = 'unknown'
    try:
        with open('/proc/cpuinfo') as fh:
            for line in fh:
                if line.startswith('model name'):
                    cpu = line.split(':', 1)[1].strip()
                    break
    except OSError:
        pass
    blas, threads = _blas_threads()
    return {'commit': _commit(), 'source_sha256': _source_digest(),
            'nproc': len(os.sched_getaffinity(0)), 'cpu': cpu,
            'python': platform.python_version(), 'numpy': numpy.__version__,
            'blas': blas, 'blas_threads': threads, 'seed': seed}


def run_op(cli, argv):
    """One operation: (seconds from the call into cli.main to its return,
    exit code or None on an exception, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:    # an escaped traceback counts as a failure
            code = None
            print(f"{type(exc).__name__}: {exc}", file=err)
        elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue(), err.getvalue()


class Runner:
    def __init__(self, package, workload, tracer=None):
        self.cli = package.cli
        self.workload = workload
        self.tracer = tracer
        self.samples = {'untraced': [], 'traced': []}
        self.attempted = 0
        self.failed = 0

    def op(self, item, traced=False, op_id=None):
        argv = self.workload.argv(item)
        with self.tracer.active(op_id) if traced else contextlib.nullcontext():
            elapsed, code, out, err = run_op(self.cli, argv)
        ok = code == 0 and self.workload.check(item, out)
        if not ok:
            print(f"failed: flowpose {' '.join(argv)} -> {code}: "
                  f"{err.strip() or out.strip()[:200]}", file=sys.stderr)
        return elapsed, ok

    def setup(self, work):
        """SETUP_REPEATS timed set-ups, each generating the inputs into a
        fresh directory and running one warm-up operation; the last one's
        inputs are used."""
        times = []
        for r in range(SETUP_REPEATS):
            directory = os.path.join(work, f'setup{r}')
            if r:
                shutil.rmtree(os.path.join(work, f'setup{r - 1}'))
            os.makedirs(directory)
            start = time.perf_counter()
            items = self.workload.setup(directory)
            _, ok = self.op(items[0])
            times.append(time.perf_counter() - start)
            self.attempted += 1
            self.failed += not ok
        return items, times

    def window(self, items, seconds, trace):
        """Closed loop over the items for at least `seconds` and MIN_OPS
        operations, ending after a whole pass so every item weighs the same.
        Traced runs execute each item twice, traced and untraced,
        alternating which goes first."""
        start = time.perf_counter()
        k = 0
        while (k % len(items) or k < MIN_OPS
               or time.perf_counter() - start < seconds):
            item = items[k % len(items)]
            order = ((False, True) if k % 2 else (True, False)) if trace else (False,)
            for traced in order:
                elapsed, ok = self.op(item, traced, k)
                self.samples['traced' if traced else 'untraced'].append(elapsed)
                self.attempted += 1
                self.failed += not ok
            k += 1
        return time.perf_counter() - start


def end_to_end(runner, window_s, setup_times):
    samples = runner.samples['untraced']
    pct, tail = tail_value(samples)
    metrics = {
        'op_p50_ms': (statistics.median(samples) * 1e3, 'ms'),
        'op_tail_ms': (tail * 1e3, 'ms'),
        'ops_per_s': (len(samples) / window_s, '1/s'),
        'ok_share': ((runner.attempted - runner.failed) / runner.attempted, 'share'),
        'setup_s': (statistics.median(setup_times), 's'),
        'peak_rss_mb': (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 'MB'),
    }
    return metrics, {'tail_percentile': pct, 'samples': len(samples)}


def per_layer(runner, tracer, quality):
    traced = runner.samples['traced']
    n = len(traced)
    ops = layer_totals(tracer.spans, set(range(n)))
    ate_step = layer_totals(tracer.spans, {'ate'})

    def get(totals, name, key):
        return totals.get(name, {}).get(key, 0)

    metrics = {}
    for module, fn in WRAPPED:
        name = f'{module}.{fn}'
        if name in ('trajectory.chain', 'trajectory.write_tum'):
            # run once per run, in the odometry ATE step, not in operations
            metrics[name + '.self_ms'] = (get(ate_step, name, 'self_s') * 1e3, 'ms')
        else:
            metrics[name + '.self_ms'] = (get(ops, name, 'self_s') * 1e3 / n, 'ms')
    for name in ('solver.gauss_newton_step', 'infomat.confidences',
                 'se3.exp', 'se3.inverse'):
        metrics[name + '.calls'] = (get(ops, name, 'calls') / n, 'count')
    steps = get(ops, 'solver.gauss_newton_step', 'calls')
    solves = get(ops, 'solver.solve', 'calls')
    metrics.update({
        'solver.solve.ms': (get(ops, 'solver.solve', 'total_s') * 1e3 / n, 'ms'),
        'solver.valid_pixels': (get(ops, 'solver.gauss_newton_step', 'valid_pixels')
                                / steps if steps else 0, 'count'),
        'solver.converged_share': (get(ops, 'solver.solve', 'converged') / solves
                                   if solves else 0, 'share'),
        'rasters.read_raster.mb': (get(ops, 'rasters.read_raster', 'bytes') / 1e6 / n, 'MB'),
        'rasters.write_raster.mb': (get(ops, 'rasters.write_raster', 'bytes') / 1e6 / n, 'MB'),
        'trajectory.associate.pairs': (get(ops, 'trajectory.associate', 'pairs') / n, 'count'),
    })
    op_ms = statistics.fmean(traced) * 1e3
    self_sum_ms = sum(t['self_s'] for t in ops.values()) * 1e3 / n
    untraced_p50 = statistics.median(runner.samples['untraced'])
    metrics.update({
        'trace.op_ms': (op_ms, 'ms'),
        'trace.self_sum_ms': (self_sum_ms, 'ms'),
        'trace_overhead_share': ((statistics.median(traced) - untraced_p50)
                                 / untraced_p50, 'share'),
        'fail_share': (runner.failed / runner.attempted, 'share'),
        'pose_err_p50': (quality.get('pose_err_p50', 0.0), 'norm'),
        'ate_m': (quality.get('ate_m', 0.0), 'm'),
    })
    # the root span is cli.main, so self times must add up to the op time
    consistent = abs(self_sum_ms - op_ms) <= 0.02 * op_ms
    return metrics, consistent


def odometry_quality(runner, tracer, work):
    """pose_err_p50 over the frames, and the ATE of the chained solved
    motions from a traced `eval-traj` outside the timed operations. The
    `eval-traj` counts as an attempted operation."""
    workload = runner.workload
    with tracer.active('ate'):
        _, code, out, err = run_op(runner.cli, workload.ate_inputs(work))
    runner.attempted += 1
    if code != 0:
        runner.failed += 1
        print(f"failed: eval-traj of the solved trajectory: {err}", file=sys.stderr)
        return {}
    return {'pose_err_p50': statistics.median(workload.pose_errors()),
            'ate_m': oracle.parse_eval_output(out)['ate']}


def _declared(trace):
    """{name: unit} of the metrics BENCHMARK.json lists for this mode."""
    with open(os.path.join(ROOT, 'BENCHMARK.json')) as fh:
        spec = json.load(fh)
    return {m['name']: m['unit']
            for m in spec['per_layer' if trace else 'end_to_end']}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split('\n\n')[0])
    parser.add_argument('--workload', required=True)
    parser.add_argument('--seed', type=int, required=True)
    parser.add_argument('--seconds', type=float, required=True)
    parser.add_argument('--trace', type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, 'flowpose', 'cli.py')):
        print(f"error: no flowpose sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import flowpose
    import flowpose.cli
    if os.path.dirname(os.path.dirname(flowpose.__file__)) != SRC:
        print(f"error: imported flowpose from {flowpose.__file__}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")

    env = environment(args.seed)
    workload = WORKLOADS[args.workload](args.seed)
    tracer = Tracer(flowpose) if args.trace else None
    runner = Runner(flowpose, workload, tracer)
    results = os.path.join(ROOT, '.bench_work', 'results')
    work = os.path.join(ROOT, '.bench_work', f'{args.workload}-{os.getpid()}')
    os.makedirs(results, exist_ok=True)
    try:
        items, setup_times = runner.setup(work)
        window_s = runner.window(items, args.seconds, args.trace)
        quality = {}
        if args.trace and args.workload == 'odometry-qvga':
            quality = odometry_quality(runner, tracer, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = runner.failed == 0
    if args.trace:
        metrics, consistent = per_layer(runner, tracer, quality)
        correct = correct and consistent
        if not consistent:
            print("error: traced self times do not add up to the op time",
                  file=sys.stderr)
        info = {'traced_ops': len(runner.samples['traced']),
                'wrapped': [f'{m}.{f}' for m, f in WRAPPED],
                'out_of_reach': list(OUT_OF_REACH)}
    else:
        metrics, info = end_to_end(runner, window_s, setup_times)
    if {k: u for k, (_, u) in metrics.items()} != _declared(args.trace):
        print("error: metrics differ from BENCHMARK.json", file=sys.stderr)
        return 1
    info.update({'workload': args.workload, 'seconds': args.seconds,
                 'window_s': window_s, 'setup_s': setup_times, 'env': env})
    result = {'correct': correct, 'attempted': runner.attempted,
              'failed': runner.failed,
              'metrics': {k: {'value': v, 'unit': u}
                          for k, (v, u) in metrics.items()}}
    stem = os.path.join(results, f'{args.workload}-seed{args.seed}-trace{args.trace}')
    with open(stem + '.json', 'w') as fh:
        json.dump({'info': info, 'result': result,
                   'op_seconds': runner.samples}, fh, indent=1)
    if tracer is not None:
        tracer.write(stem + '.spans.jsonl')
    print(json.dumps({'info': info}))
    print(json.dumps(result))
    return 0


if __name__ == '__main__':
    sys.exit(main())
