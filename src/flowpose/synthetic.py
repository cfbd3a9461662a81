"""Deterministic synthetic-scene generation: ground-truth depth, exact
pose-induced flow, analytic image pairs, and optional noise/outliers.

All randomness comes from a counter-based SplitMix64-style stream, so a
given SceneSpec renders to the same bytes on every run with the same numpy
build and CPU. The noise may differ in the last bit across them: numpy's
SIMD float64 log, which stream_normal calls, can round differently from
libm's.
"""

import hashlib
import os
from dataclasses import dataclass

import numpy as np

from . import camera, rasters, se3
from .camera import Intrinsics
from .solver import FlowField

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


_MASK64 = (1 << 64) - 1


def _mix64(z):
    """SplitMix64 finaliser, in place over the uint64 array z, which it
    returns. uint64 arithmetic wraps exactly modulo 2^64, so the in-place
    steps give the bits of the textbook expression."""
    z = np.asarray(z, dtype=np.uint64)
    shifted = np.empty_like(z)
    z += _GOLDEN
    z ^= np.right_shift(z, np.uint64(30), out=shifted)
    z *= _MIX1
    z ^= np.right_shift(z, np.uint64(27), out=shifted)
    z *= _MIX2
    z ^= np.right_shift(z, np.uint64(31), out=shifted)
    return z


def _stream_base(seed, tag):
    """Substream seed as a uint64 scalar, computed in exact Python ints."""
    return np.uint64((seed + 0x9E3779B97F4A7C15 * tag) & _MASK64)


def stream_uniform(seed, tag, count):
    """count floats in [0, 1) from substream `tag` of `seed`."""
    z = np.arange(1, count + 1, dtype=np.uint64)
    z *= _GOLDEN
    z += _stream_base(seed, tag)
    z = _mix64(z)
    z >>= np.uint64(11)
    u = z.astype(float)
    u *= 2.0 ** -53
    return u


def stream_normal(seed, tag, count):
    """count standard-normal samples via Box-Muller:
    sqrt(-2 log(1 - u1)) cos(2 pi u2), computed in place."""
    r = stream_uniform(seed, tag * 2 + 101, count)
    c = stream_uniform(seed, tag * 2 + 102, count)
    np.subtract(1.0, r, out=r)
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    np.multiply(2.0 * np.pi, c, out=c)
    np.cos(c, out=c)
    r *= c
    return r


# --- depth and texture models ---------------------------------------------

@dataclass(frozen=True)
class ConstantDepth:
    value: float

    def __call__(self, a, b):
        return np.full_like(np.asarray(a, dtype=float), self.value)


@dataclass(frozen=True)
class PlaneDepth:
    """Plane n . X = offset in the first camera frame; depth along the ray
    through normalised coordinates (a, b) is offset / (n . (a, b, 1))."""
    normal: tuple
    offset: float

    # a ray parallel to the plane divides by zero, and one nearly parallel
    # overflows; render rejects the depth of either
    @np.errstate(divide='ignore', over='ignore', invalid='ignore')
    def __call__(self, a, b):
        n = np.asarray(self.normal, dtype=float)
        denom = n[0] * a + n[1] * b + n[2]
        return self.offset / denom


@dataclass(frozen=True)
class SmoothRandomDepth:
    seed: int
    amplitude: float

    # the second view's fixed-point loop diverges at pixels that see no
    # surface, and the polynomial overflows there; render marks them invalid
    @np.errstate(over='ignore', invalid='ignore')
    def __call__(self, a, b):
        """2 + amplitude * (c0 a + c1 b + c2 a b + c3 a a + c4 b b), the
        sum taken left to right; returns a new array."""
        c = stream_uniform(self.seed, 7, 5) * 2.0 - 1.0
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        bump = c[0] * a
        term = np.empty_like(bump)
        bump += np.multiply(c[1], b, out=term)
        for ck, x, y in ((c[2], a, b), (c[3], a, a), (c[4], b, b)):
            bump += np.multiply(np.multiply(ck, x, out=term), y, out=term)
        bump *= self.amplitude
        bump += 2.0
        return bump


@dataclass(frozen=True)
class SmoothRandomTexture:
    """Low-order polynomial in normalised scene coordinates; curvature kept
    small so bilinear resampling stays accurate."""
    seed: int

    # huge motions overflow at pixels the second camera cannot see: zeroed
    @np.errstate(over='ignore', invalid='ignore')
    def intensity(self, a, b):
        """0.5 + 0.25 (c0 a + c1 b) + 0.02 (c2 a b + c3 a a + c4 b b),
        clipped to [0, 1]; each sum is taken left to right."""
        c = stream_uniform(self.seed, 11, 5) * 2.0 - 1.0
        val = c[0] * a
        term = np.empty_like(val)
        val += np.multiply(c[1], b, out=term)
        val *= 0.25
        val += 0.5
        # the quadratic part is a second running sum, in a buffer of its own
        quad = c[2] * a
        quad *= b
        for ck, x, y in ((c[3], a, a), (c[4], b, b)):
            quad += np.multiply(np.multiply(ck, x, out=term), y, out=term)
        quad *= 0.02
        val += quad
        return np.clip(val, 0.0, 1.0, out=val)


def default_intrinsics(width, height):
    return Intrinsics(fx=100.0, fy=100.0, cx=width / 2.0, cy=height / 2.0,
                      width=width, height=height)


@dataclass
class SceneSpec:
    width: int
    height: int
    motion: np.ndarray
    intrinsics: Intrinsics = None
    depth_model: object = ConstantDepth(2.0)
    texture_model: object = SmoothRandomTexture(seed=1)
    outlier_fraction: float = 0.0
    outlier_magnitude: float = 0.0
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        self.motion = np.asarray(self.motion, dtype=float)
        if self.intrinsics is None:
            self.intrinsics = default_intrinsics(self.width, self.height)
        if not (0.0 <= self.outlier_fraction < 1.0):
            raise ValueError("outlier_fraction must be in [0, 1), got "
                             f"{self.outlier_fraction:g}")
        if not np.isfinite(self.outlier_magnitude):
            raise ValueError("outlier_magnitude must be finite, got "
                             f"{self.outlier_magnitude:g}")
        if not (0.0 <= self.noise_sigma < np.inf):
            raise ValueError("noise_sigma must be finite and >= 0, got "
                             f"{self.noise_sigma:g}")


@dataclass
class SceneRender:
    depth: np.ndarray
    flow_field: FlowField
    image_1: np.ndarray
    image_2: np.ndarray
    transform: np.ndarray
    outlier_mask: np.ndarray


def _second_view_scene_coords(spec, T, a, b, depth):
    """Camera-1 normalised coordinates of the surface point seen by every
    pixel of the second camera, whose normalised coordinates are (a, b);
    depth is the depth model at (a, b).

    Solves lambda * ray2 = T X1 with X1 on the depth surface; closed form
    for plane depths, fixed-point iteration from lambda_0 = depth otherwise.
    Returns (a1, b1, valid).

    The iteration runs at most 50 steps. A pixel's next lambda depends on
    its own lambda alone, which holds for every depth model here because
    each is elementwise in (a, b). So a pixel may stop, with the bits that
    all 50 steps would give it, once
    - lambda_k equals lambda_{k-1} bit for bit (a NaN included), at any
      step k: the pixel sits at a fixed point; or
    - lambda_k equals lambda_{k-2} bit for bit at an even step k: the
      pixel cycles with period 2, and its value at step 50 is lambda_k.
    A depth model that mixed pixels would break this rule. Each step
    updates the model's result in place, so a model must return a new
    array.
    """
    R = T[:3, :3]
    t = T[:3, 3]
    rows = np.empty((a.size, 3))
    rows[:, 0] = a.ravel()
    rows[:, 1] = b.ravel()
    rows[:, 2] = 1.0
    rows = rows @ R                                     # R^T ray2, (N, 3)
    ray1 = np.ascontiguousarray(rows.T).reshape((3,) + a.shape)
    t1 = R.T @ t

    model = spec.depth_model
    if isinstance(model, PlaneDepth):
        n = np.asarray(model.normal, dtype=float)
        lam = (model.offset + n @ t1) / (rows @ n).reshape(a.shape)
    else:
        del rows
        # X1 = lam * ray1 - t1; iterate lam so X1_z matches the depth model
        # evaluated at the projected coordinates.
        lam = np.array(depth, dtype=float)
        # flat holds each pixel's lambda at the last even step, which is
        # final once the pixel stops: a pixel stopped at an odd step k has
        # lambda_k = lambda_{k-1}, which flat already holds. idx selects
        # the pixels still in cur, whose flat entries are all from the same
        # even step, so the 2-cycle test compares lambda_k with lambda_{k-2}
        flat = lam.reshape(-1)
        idx = slice(None)
        rays = ray1.reshape(3, -1)
        cur = flat
        # X1 of the pixels still in cur; it shrinks with them
        points = np.empty_like(rays)
        for k in range(1, 51):
            np.multiply(cur, rays, out=points)
            points -= t1[:, None]
            (a1, b1), _ = camera.divide(points, out=points[:2])
            nxt = np.asarray(model(a1, b1), dtype=float)
            nxt += t1[2]
            nxt /= rays[2]
            bits = nxt.view(np.int64)
            stop = bits == cur.view(np.int64)
            if k % 2 == 0:
                stop |= bits == flat[idx].view(np.int64)
                flat[idx] = nxt
            cur = nxt
            # Stopped pixels leave the arrays, by index (a boolean-mask
            # gather took ten times as long), once they are the majority;
            # until then they iterate on, which changes none of their bits.
            if 2 * np.count_nonzero(stop) >= stop.size:
                kept = np.flatnonzero(~stop)
                idx = np.arange(flat.size)[idx].take(kept)
                cur, rays = cur.take(kept), rays.take(kept, axis=1)
                points = points[:, :idx.size]
                if not idx.size:
                    break
    ray1 *= lam
    ray1 -= t1[:, None, None]
    (a1, b1), front = camera.divide(ray1, out=ray1[:2])
    return a1, b1, (lam > 0) & front


def _outlier_pixels(seed, valid, count):
    """Flat raster indices of the `count` valid pixels of smallest rank, in
    rank order; a pixel's rank is the SplitMix64 finaliser of its index in
    substream 31 of `seed`. No two ranks tie: the finaliser is a bijection
    and its inputs are distinct."""
    flat_valid = np.flatnonzero(valid.ravel())
    ranks = _mix64(_stream_base(seed, 31)
                   + (flat_valid.astype(np.uint64) + np.uint64(1)) * _GOLDEN)
    picked = np.argpartition(ranks, count - 1)[:count]
    return flat_valid[picked[np.argsort(ranks[picked])]]


# A huge depth, motion, noise sigma or outlier magnitude overflows some
# product, and a pixel that sees no surface may divide by zero. render checks
# the depth and the transform; a flow value beyond float32 fails the scene's
# write, and an infinite or NaN one is a pixel without a measurement
@np.errstate(divide='ignore', over='ignore', invalid='ignore')
def render(spec):
    """Render a scene: depth, flow field with information parameters,
    an analytic image pair and the ground-truth transform."""
    K = spec.intrinsics
    a, b = camera.pixel_offsets(K, (spec.height, spec.width))
    a /= K.fx
    b /= K.fy

    depth = np.asarray(spec.depth_model(a, b), dtype=float)
    # a point no deeper than the cheirality bound is never in front
    depth_valid = np.isfinite(depth) & (depth > camera.CHEIRALITY_EPS)
    if not depth_valid.all():
        bad = depth[~depth_valid]
        # argmax takes the first NaN, else the largest magnitude
        worst = bad[np.argmax(np.abs(bad))]
        raise ValueError("depth model produced a depth that is not finite or "
                         f"not above {camera.CHEIRALITY_EPS:g} at {bad.size} "
                         f"of {depth.size} pixels, worst {worst:.6g}")

    T = se3.exp(spec.motion)
    if not np.isfinite(T).all():
        raise ValueError("motion vector's translation overflows: exp gives "
                         + ", ".join(f"{x:.6g}" for x in T[:3, 3]))
    # the image pair first, so that the second view's buffers and the grids
    # are freed before the flow is built
    image_1 = np.asarray(spec.texture_model.intensity(a, b), dtype=float)
    a2, b2, valid2 = _second_view_scene_coords(spec, T, a, b, depth)
    del a, b
    image_2 = np.asarray(spec.texture_model.intensity(a2, b2), dtype=float)
    image_2[~valid2] = 0.0
    del a2, b2

    flow_px, valid = camera.flow_from_pose(depth, T, K)
    flow_px = camera.flow_normalised_to_pixels(flow_px, K)
    # a pixel without a measurement holds NaN flow, which a scene file keeps
    flow_px[~valid] = np.nan

    info = np.zeros((spec.height, spec.width, 3))
    if spec.noise_sigma > 0:
        n = spec.height * spec.width
        for c, tag in enumerate((21, 22)):
            noise = stream_normal(spec.seed, tag, n)
            noise *= spec.noise_sigma
            flow_px[..., c] += noise.reshape(spec.height, spec.width)
        conf = -2.0 * np.log(spec.noise_sigma)
        info[..., 0] = conf
        info[..., 2] = conf

    outlier_mask = np.zeros((spec.height, spec.width), dtype=bool)
    n_outliers = int(round(spec.outlier_fraction * int(valid.sum())))
    if n_outliers > 0:
        chosen = _outlier_pixels(spec.seed, valid, n_outliers)
        outlier_mask.ravel()[chosen] = True
        signs = np.where(
            stream_uniform(spec.seed, 33, 2 * n_outliers) < 0.5, -1.0, 1.0
        ).reshape(n_outliers, 2)
        flow_flat = flow_px.reshape(-1, 2)
        flow_flat[chosen] = flow_flat[chosen] + signs * spec.outlier_magnitude
        info.reshape(-1, 3)[chosen] = (-6.0, 0.0, -6.0)

    flow_field = FlowField(flow=flow_px, info=info)
    return SceneRender(depth=depth, flow_field=flow_field,
                       image_1=image_1, image_2=image_2,
                       transform=T, outlier_mask=outlier_mask)


# --- scene directories ----------------------------------------------------

def write_scene(spec, directory):
    """Write a rendered scene to `directory` and return the manifest path.

    Artifacts: depth raster, 5-channel flow+info raster, 2-channel image
    pair raster, intrinsics file, ground-truth motion file, plus a
    manifest of `filename sha256` lines. Byte-identical across runs for
    the same spec. Every artifact is encoded before the directory is made,
    so a scene that cannot be encoded leaves nothing behind.
    """
    scene = render(spec)
    K = spec.intrinsics
    artifacts = {}
    # each raster's channels are cast straight into its float32 bytes
    for name, parts in (("depth.engr", (scene.depth,)),
                        ("flow.engr", (scene.flow_field.flow,
                                       scene.flow_field.info)),
                        ("images.engr", (scene.image_1, scene.image_2))):
        path = os.path.join(directory, name)
        artifacts[name] = rasters.encode_raster(path, *parts)
    artifacts["intrinsics.txt"] = rasters.intrinsics_line(K).encode()
    motion = " ".join("%.17g" % x for x in spec.motion) + "\n"
    artifacts["pose_gt.txt"] = motion.encode()

    os.makedirs(directory, exist_ok=True)
    manifest = []
    for name, data in artifacts.items():
        with open(os.path.join(directory, name), 'wb') as fh:
            fh.write(data)
        manifest.append("%s %s\n" % (name, hashlib.sha256(data).hexdigest()))
    manifest_path = os.path.join(directory, "manifest.txt")
    with open(manifest_path, 'w') as fh:
        fh.write("".join(manifest))
    return manifest_path
