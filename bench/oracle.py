"""Vectorised numpy oracle for `flowpose eval-traj`.

It reads the same TUM files the program reads and follows the same
definitions (greedy nearest-timestamp association in (dt, i, j) order,
scaled Procrustes alignment, ATE, RPE at a fixed index step and per-pose
scales), but with array operations instead of per-pose loops. The benchmark
computes it at set-up and compares the program's printed numbers with it.
"""

import numpy as np


def read_tum(path):
    """(timestamps (N,), rotations (N, 3, 3), translations (N, 3))."""
    data = np.loadtxt(path, comments='#', ndmin=2)
    ts, t, q = data[:, 0], data[:, 1:4], data[:, 4:8]
    qx, qy, qz, qw = q.T
    s = 2.0 / np.sum(q * q, axis=1)
    R = np.empty((len(ts), 3, 3))
    R[:, 0, 0] = 1 - s * (qy * qy + qz * qz)
    R[:, 0, 1] = s * (qx * qy - qz * qw)
    R[:, 0, 2] = s * (qx * qz + qy * qw)
    R[:, 1, 0] = s * (qx * qy + qz * qw)
    R[:, 1, 1] = 1 - s * (qx * qx + qz * qz)
    R[:, 1, 2] = s * (qy * qz - qx * qw)
    R[:, 2, 0] = s * (qx * qz - qy * qw)
    R[:, 2, 1] = s * (qy * qz + qx * qw)
    R[:, 2, 2] = 1 - s * (qx * qx + qy * qy)
    return ts, R, t


def associate(te, tg, max_dt):
    """Greedy matching in (dt, i, j) order; pairs sorted by estimate index.

    Candidates come from a searchsorted window slightly wider than max_dt,
    then the program's own test `abs(te - tg) <= max_dt` decides.
    """
    slack = max_dt * 1e-9
    lo = np.searchsorted(tg, te - max_dt - slack, side='left')
    hi = np.searchsorted(tg, te + max_dt + slack, side='right')
    counts = hi - lo
    i = np.repeat(np.arange(len(te)), counts)
    j = lo[i] + np.arange(len(i)) - np.repeat(np.cumsum(counts) - counts, counts)
    dt = np.abs(te[i] - tg[j])
    keep = dt <= max_dt
    i, j, dt = i[keep], j[keep], dt[keep]
    order = np.lexsort((j, i, dt))
    used_e = np.zeros(len(te), dtype=bool)
    used_g = np.zeros(len(tg), dtype=bool)
    pairs = []
    for a, b in zip(i[order].tolist(), j[order].tolist()):
        if used_e[a] or used_g[b]:
            continue
        used_e[a] = used_g[b] = True
        pairs.append((a, b))
    pairs.sort()
    return np.array(pairs, dtype=int).reshape(-1, 2)


def _relative(R, t, k0, k1):
    """inverse(T[k0]) @ T[k1] for index arrays, as (R, t)."""
    R0t = np.transpose(R[k0], (0, 2, 1))
    return R0t @ R[k1], np.einsum('nij,nj->ni', R0t, t[k1] - t[k0])


def evaluate(est_path, gt_path, max_dt=0.02, rpe_delta=1):
    """Dict with ate, rpe_trans, rpe_rot_deg, matched and the five scale
    quantiles (min, q1, median, q3, max), as `eval-traj` prints them."""
    te, Re, pe_all = read_tum(est_path)
    tg, Rg, pg_all = read_tum(gt_path)
    pairs = associate(te, tg, max_dt)
    ie, ig = pairs[:, 0], pairs[:, 1]
    pe, pg = pe_all[ie], pg_all[ig]

    mu_e, mu_g = pe.mean(axis=0), pg.mean(axis=0)
    ce, cg = pe - mu_e, pg - mu_g
    U, _, Vt = np.linalg.svd(ce.T @ cg)
    D = np.eye(3)
    if np.linalg.det(Vt.T @ U.T) < 0:
        D[2, 2] = -1.0
    R = Vt.T @ D @ U.T
    scale = np.sum(cg * (ce @ R.T)) / np.sum(ce * ce)
    aligned = scale * pe @ R.T + (mu_g - scale * R @ mu_e)
    ate = np.sqrt(np.mean(np.sum((aligned - pg) ** 2, axis=1)))

    de = np.linalg.norm(np.diff(pe, axis=0), axis=1)
    dg = np.linalg.norm(np.diff(pg, axis=0), axis=1)
    moving = de >= 1e-9
    scales = dg[moving] / de[moving]

    Rg_rel, tg_rel = _relative(Rg, pg_all, ig[:-rpe_delta], ig[rpe_delta:])
    Re_rel, te_rel = _relative(Re, pe_all, ie[:-rpe_delta], ie[rpe_delta:])
    # E = inverse(rel_gt) @ rel_est
    Rgt = np.transpose(Rg_rel, (0, 2, 1))
    E_R = Rgt @ Re_rel
    E_t = np.einsum('nij,nj->ni', Rgt, te_rel - tg_rel)
    cos = np.clip((np.trace(E_R, axis1=1, axis2=2) - 1.0) / 2.0, -1.0, 1.0)
    terr = np.linalg.norm(E_t, axis=1)
    rerr = np.degrees(np.arccos(cos))
    same = (np.all(Rg_rel == Re_rel, axis=(1, 2))
            & np.all(tg_rel == te_rel, axis=1))
    terr[same] = 0.0
    rerr[same] = 0.0
    return {
        'ate': float(ate),
        'rpe_trans': float(np.sqrt(np.mean(terr ** 2))),
        'rpe_rot_deg': float(np.sqrt(np.mean(rerr ** 2))),
        'matched': len(pairs),
        'scales': [float(v) for v in np.percentile(scales, [0, 25, 50, 75, 100])],
    }


def parse_eval_output(text):
    """Parse the default two-line `eval-traj` output into the oracle's keys."""
    first, second = text.strip().splitlines()
    ate, rpe_t, rpe_r, word, matched = first.split()
    if word != 'matched':
        raise ValueError(f"unexpected eval-traj output: {first!r}")
    label, *scales = second.split()
    if label != 'scales' or len(scales) != 5:
        raise ValueError(f"unexpected eval-traj output: {second!r}")
    return {'ate': float(ate), 'rpe_trans': float(rpe_t),
            'rpe_rot_deg': float(rpe_r), 'matched': int(matched),
            'scales': [float(s) for s in scales]}


def agrees(got, want, rel=1e-9):
    """True when matched counts are equal and every number agrees to `rel`
    (the program prints 12 significant digits)."""
    if got['matched'] != want['matched']:
        return False
    a = [got['ate'], got['rpe_trans'], got['rpe_rot_deg']] + got['scales']
    b = [want['ate'], want['rpe_trans'], want['rpe_rot_deg']] + want['scales']
    return bool(np.allclose(a, b, rtol=rel, atol=0.0))
