"""Spans around flowpose's public module functions, and the arithmetic the
benchmark does on spans and samples.

The program has no timing hooks of its own, so the tracer replaces module
attributes (``solver.gauss_newton_step`` and the like) with wrappers while an
operation runs, and puts the originals back afterwards. Callers that look a
function up on its module at call time see the wrapper; callers that bound
it with ``from x import y`` do not, and its time stays in the caller's self
time (see ``OUT_OF_REACH``).
"""

import contextlib
import functools
import json
import os
import time

# (module, function) pairs wrapped in the traced run. Every caller inside
# flowpose reaches these through a module attribute or a module global.
WRAPPED = (
    ('cli', 'main'),
    ('solver', 'solve'),
    ('solver', 'gauss_newton_step'),
    ('solver', 'compute_residuals'),
    ('solver', 'build_weight'),
    ('infomat', 'confidences'),
    ('se3', 'exp'),
    ('se3', 'inverse'),
    ('camera', 'flow_from_pose'),
    ('synthetic', 'render'),
    ('synthetic', 'write_scene'),
    ('rasters', 'read_raster'),
    ('rasters', 'write_raster'),
    ('rasters', 'read_intrinsics'),
    ('rasters', 'write_intrinsics'),
    ('trajectory', 'read_tum'),
    ('trajectory', 'write_tum'),
    ('trajectory', 'chain'),
    ('trajectory', 'evaluate'),
    ('trajectory', 'associate'),
    ('trajectory', 'align_and_scale'),
    ('trajectory', 'rpe'),
    ('trajectory', 'ate'),
)

# Calls a wrapper cannot see, because the caller bound the name with
# `from x import y` at import time.
OUT_OF_REACH = (
    'camera.depth_valid_mask (solver._valid_geometry)',
    'camera.Intrinsics (rasters.read_intrinsics)',
    'solver.FlowField (synthetic.render)',
)


def _file_bytes(args, kwargs, result):
    return {'bytes': os.path.getsize(args[0])}


# Counts read from a wrapped call's arguments or return value.
PROBES = {
    'solver.solve': lambda a, k, r: {'converged': int(r.converged)},
    'solver.gauss_newton_step': lambda a, k, r: {'valid_pixels': r[1].valid_count},
    'trajectory.associate': lambda a, k, r: {'pairs': len(r)},
    'rasters.read_raster': _file_bytes,
    'rasters.write_raster': _file_bytes,
}


class Tracer:
    """Records spans as [name, start, end, parent index, op id, counts].

    Spans stay in memory; ``write`` stores them as JSON lines at the end of
    the run.
    """

    def __init__(self, package):
        self.package = package
        self.spans = []
        self.op = None
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if probe is not None:
                span[5] = probe(args, kwargs, result)
            return result
        return traced

    def _install(self):
        for module_name, attr in WRAPPED:
            module = getattr(self.package, module_name)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(f'{module_name}.{attr}', fn))

    def _uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    @contextlib.contextmanager
    def active(self, op):
        """Wrap the functions while the block runs, tagging spans with `op`."""
        self.op = op
        self._install()
        try:
            yield
        finally:
            self._uninstall()

    def write(self, path):
        with open(path, 'w') as fh:
            for name, start, end, parent, op, counts in self.spans:
                fh.write(json.dumps({'name': name, 'start': start, 'end': end,
                                     'parent': parent, 'op': op,
                                     'counts': counts}) + '\n')


def self_times(spans):
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest, so the children of a span never overlap and
    their durations can be subtracted one by one.
    """
    out = [end - start for _, start, end, *_ in spans]
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_totals(spans, ops):
    """Sum self time, duration, calls and probe counts per span name over the
    spans whose op id is in ``ops``."""
    selfs = self_times(spans)
    totals = {}
    for span, own in zip(spans, selfs):
        name, start, end, _, op, counts = span
        if op not in ops:
            continue
        t = totals.setdefault(name, {'self_s': 0.0, 'total_s': 0.0,
                                     'calls': 0})
        t['self_s'] += own
        t['total_s'] += end - start
        t['calls'] += 1
        for key, value in (counts or {}).items():
            t[key] = t.get(key, 0) + value
    return totals


def tail_rank(n, beyond=10):
    """The highest whole percentile of n samples that has at least `beyond`
    samples above it, and the 1-based nearest rank of its value.

    Returns (None, None) when n <= beyond.
    """
    if n <= beyond:
        return None, None
    pct = (100 * (n - beyond)) // n
    return pct, max(1, -(-pct * n // 100))


def tail_value(samples, beyond=10):
    """(percentile, value) of the tail percentile of `samples`."""
    pct, rank = tail_rank(len(samples), beyond)
    if pct is None:
        return None, None
    return pct, sorted(samples)[rank - 1]
