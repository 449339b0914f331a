"""Optimization primitives shared by the seminorm and extension engines.

Everything here is deterministic: random multistarts draw from fixed seeds,
pattern-search direction sets are fixed arrays, and linear programs go
through HiGHS.  Batched routines treat the leading "node" axis as a family
of independent problems solved in lockstep.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_array

_MULTISTART_SEED = 718281828


class SolverError(RuntimeError):
    """A solver failed or reported an infeasible/unbounded program."""


def lp_solve(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, bounds=None,
             context="linear program"):
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                  bounds=bounds, method="highs")
    if not res.success:
        raise SolverError(f"{context}: {res.message}")
    return res


# ---------------------------------------------------------------------------
# linear algebra helpers

def orthonormal_rows(a, tol=1e-12):
    """Orthonormal basis (rows) of the row space of ``a``."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.size == 0 or a.shape[0] == 0:
        return np.zeros((0, a.shape[1] if a.ndim == 2 else 0))
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    rank = int(np.sum(s > tol * max(1.0, s[0] if s.size else 1.0)))
    return vt[:rank]


def nullspace_rows(a, tol=1e-12):
    """Orthonormal basis (rows) of the null space of ``a`` (acting on rows)."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    n = a.shape[1]
    if a.shape[0] == 0:
        return np.eye(n)
    u, s, vt = np.linalg.svd(a)
    rank = int(np.sum(s > tol * max(1.0, s[0] if s.size else 1.0)))
    return vt[rank:]


def intersect_rowspaces(a, b, tol=1e-12):
    """Rows spanning the intersection of two row spaces in R^n."""
    a = orthonormal_rows(a, tol)
    b = orthonormal_rows(b, tol)
    if a.shape[0] == 0 or b.shape[0] == 0:
        return np.zeros((0, max(a.shape[1], b.shape[1])))
    # z in both spaces iff z = a^T x = b^T y; solve [a^T | -b^T] w = 0.
    stacked = np.hstack([a.T, -b.T])
    null = nullspace_rows(stacked, tol)   # rows w = (x, y)
    if null.shape[0] == 0:
        return np.zeros((0, a.shape[1]))
    zs = null[:, :a.shape[0]] @ a
    return orthonormal_rows(zs, tol)


# ---------------------------------------------------------------------------
# batched convex minimization (projected subgradient + pattern polish)

def _directions(dim):
    if dim == 0:
        return np.zeros((0, 0))
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    if dim == 2:
        # evenly spaced angles; dense enough to escape polyhedral valleys
        angles = np.arange(32) * (np.pi / 16)
        return np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    if dim == 3:
        grids = np.meshgrid(*([np.array([-1.0, 0.0, 1.0])] * 3),
                            indexing="ij")
        d = np.stack([g.ravel() for g in grids], axis=-1)
        d = d[np.any(d != 0, axis=1)]
        rng = np.random.default_rng(_MULTISTART_SEED)
        d = np.vstack([d, rng.standard_normal((24, 3))])
    else:
        eye = np.eye(dim)
        rng = np.random.default_rng(_MULTISTART_SEED)
        extra = rng.standard_normal((4 * dim, dim))
        d = np.vstack([eye, -eye, extra])
    return d / np.linalg.norm(d, axis=1, keepdims=True)


def _multistarts(dim, radius, hint, n_starts):
    """Start points; ``radius`` broadcasts against (n_nodes, dim)."""
    starts = [np.zeros(dim)]
    if hint is not None:
        starts.append(np.asarray(hint, dtype=float))
        starts.append(-np.asarray(hint, dtype=float))
    k = 0
    while len(starts) < n_starts and k < dim:
        e = np.zeros(dim)
        e[k] = 1.0
        starts += [radius * e, radius * -e]
        k += 1
    rng = np.random.default_rng(_MULTISTART_SEED)
    while len(starts) < n_starts:
        starts.append(radius * rng.standard_normal(dim) / np.sqrt(max(dim, 1)))
    return starts[:max(n_starts, 1)]


def minimize_batched(fun, sub, dim, n_nodes, radius, ball_norm=None,
                     hint=None, n_starts=8, n_iter=500, polish_rounds=300,
                     min_radius=1e-9, y0=None):
    """Minimize a convex objective per node over a ball of given radius.

    Parameters
    ----------
    fun : callable
        Maps ``(..., n_nodes, dim)`` points to ``(..., n_nodes)`` values.
    sub : callable or None
        Subgradient with the same batch semantics; ``None`` disables the
        subgradient phase (pattern search only).
    dim, n_nodes : int
        Problem dimensions.
    radius : float or array of shape (n_nodes,)
        Ball radius in ``ball_norm`` (Euclidean when None), shared or one
        per node; points are kept feasible by radial rescaling.
    hint : array or None
        Extra start shared by all nodes.
    y0 : array or None
        Per-node warm start, shape (n_nodes, dim).

    The "nodes" are independent problems: the pattern polish keeps one step
    per node, halves it only when that node fails to improve and freezes the
    node once the step is at most ``min_radius``, so a node's result does
    not depend on the other problems of the batch.

    Returns ``(y, v)``: per-node argmin estimates and values.
    """
    radius = np.asarray(radius, dtype=float)
    if dim == 0 or np.all(radius == 0.0):
        y = np.zeros((n_nodes, dim))
        return y, fun(y)
    rad = radius[..., None]          # broadcasts against (..., n_nodes, dim)

    nrm = (lambda z: np.linalg.norm(z, axis=-1)) if ball_norm is None \
        else ball_norm

    def project(y):
        r = nrm(y)
        scale = np.where(r > radius, radius / np.maximum(r, 1e-300), 1.0)
        return y * scale[..., None]

    best_y = np.zeros((n_nodes, dim))
    best_v = fun(best_y)
    nodes = np.arange(n_nodes)

    def absorb(ys, vs):
        idx = np.argmin(vs, axis=0)
        v = vs[idx, nodes]
        improve = v < best_v
        best_y[improve] = ys[idx[improve], improve]
        best_v[improve] = v[improve]

    if y0 is not None:
        y0 = project(np.array(y0, dtype=float))
        absorb(y0[None], fun(y0)[None])

    if sub is not None:
        # all starts advance as one batched stack
        starts = _multistarts(dim, rad, hint, n_starts)
        ys = project(np.stack([np.broadcast_to(s, (n_nodes, dim))
                               for s in starts]).astype(float))
        absorb(ys, fun(ys))
        for k in range(1, n_iter + 1):
            g = sub(ys)
            gn = np.linalg.norm(g, axis=-1, keepdims=True)
            ys = project(ys - (rad / k) * g / np.maximum(gn, 1e-300))
            absorb(ys, fun(ys))

    # pattern polish: fixed direction set, one shrinking step per node
    dirs = _directions(dim)
    step = np.broadcast_to(np.maximum(radius / 4.0, min_radius * 2),
                           (n_nodes,)).copy()
    active = step > min_radius
    rounds = 0
    while np.any(active) and rounds < polish_rounds:
        rounds += 1
        cand = project(best_y[None, :, :] + step[:, None] * dirs[:, None, :])
        vals = fun(cand)
        idx = np.argmin(vals, axis=0)
        v = vals[idx, nodes]
        improve = active & (v < best_v - 1e-15)
        best_y[improve] = cand[idx[improve], improve]
        best_v[improve] = v[improve]
        step[active & ~improve] *= 0.5
        active &= step > min_radius
    return best_y, best_v


# ---------------------------------------------------------------------------
# total-variation-minimal selection in a tube

def _sweep(lo, hi, m, a, b, out=None):
    """Forward sweep of the flat-bottom value functions along a path.

    Starts from the accumulated variation m and flat argmin interval [a, b]
    before the first of the Python-list bounds ``lo``, ``hi``; appends each
    node's triple (m, a, b) to ``out`` when given and returns the last one.
    """
    for lo_i, hi_i in zip(lo, hi):
        if hi_i < a:
            m += a - hi_i
            a = b = hi_i
        elif lo_i > b:
            m += lo_i - b
            a = b = lo_i
        else:
            a = max(a, lo_i)
            b = min(b, hi_i)
        if out is not None:
            out.append((m, a, b))
    return m, a, b


def _sweep_path(lo, hi, start=None):
    """Per-node triples (m, a, b) of the forward sweep, as Python lists:
    minimal accumulated variation m and the flat argmin interval [a, b]
    within the node's tube."""
    m, a, b = (0.0, lo[0], hi[0]) if start is None else (0.0, start, start)
    out = [(m, a, b)]
    _sweep(lo[1:], hi[1:], m, a, b, out)
    return out


def _backtrack_path(lo, hi, mid, sweep, f_last):
    n = len(lo)
    f = [0.0] * n
    f[-1] = nxt = f_last
    for i in range(n - 2, -1, -1):
        _, a, b = sweep[i]
        if nxt >= b:
            p, q = b, min(hi[i], nxt)
        elif nxt <= a:
            p, q = max(lo[i], nxt), a
        else:
            p = q = nxt
        f[i] = nxt = min(max(mid[i], p), q)
    return np.array(f)


def taut_string_path(lo, hi):
    """TV-minimal selection in a tube along a path, ties toward the midpoint.

    ``lo <= f <= hi`` holds exactly; among all selections of minimal total
    variation the backward pass picks, step by step, the admissible value
    closest to the midpoint field.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if np.any(lo > hi):
        raise SolverError("taut_string_path: empty tube (lo > hi somewhere)")
    lo, hi, mid = lo.tolist(), hi.tolist(), (0.5 * (lo + hi)).tolist()
    sweep = _sweep_path(lo, hi)
    _, a, b = sweep[-1]
    f_last = min(max(mid[-1], a), b)
    return _backtrack_path(lo, hi, mid, sweep, f_last)


def _first(pred, i, j):
    """Least k in [i, j] with ``pred(k)``; pred is monotone and pred(j) holds."""
    while i < j:
        k = (i + j) // 2
        if pred(k):
            j = k
        else:
            i = k + 1
    return i


def taut_string_cycle(lo, hi):
    """TV-minimal selection in a tube around a cycle (nodes in cyclic order).

    The cost of pinning node 0 at v is convex and piecewise linear in v,
    with its kinks among the tube bounds clipped to node 0's interval.
    Bisection over those sorted breakpoints finds the minimum and then the
    first and last breakpoint within ``1e-12 (1 + min)`` of it; node 0 takes
    its midpoint clipped into that flat bottom, the other nodes follow by the
    path backtrack.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if np.any(lo > hi):
        raise SolverError("taut_string_cycle: empty tube")
    cand = np.unique(np.clip(np.concatenate([lo, hi]), lo[0], hi[0]))
    cand, last = cand.tolist(), len(cand) - 1
    lo, hi, mid = lo.tolist(), hi.tolist(), (0.5 * (lo + hi)).tolist()
    lo_rest, hi_rest = lo[1:], hi[1:]

    @functools.cache
    def g(i):
        v = cand[i]
        m, a, b = _sweep(lo_rest, hi_rest, 0.0, v, v)
        return m + max(0.0, a - v, v - b)

    k = _first(lambda i: i == last or g(i + 1) >= g(i), 0, last)
    best = g(k)
    eps = 1e-12 * (1.0 + abs(best))
    flat_lo = cand[_first(lambda i: g(i) <= best + eps, 0, k)]
    flat_hi = cand[_first(lambda i: i == last or g(i + 1) > best + eps,
                          k, last)]
    v0 = min(max(mid[0], flat_lo), flat_hi)

    sweep = _sweep_path(lo, hi, start=v0)
    _, a, b = sweep[-1]
    # last node: argmin of accumulated cost plus the closing edge toward v0
    if v0 >= b:
        p, q = b, min(hi[-1], v0)
    elif v0 <= a:
        p, q = max(lo[-1], v0), a
    else:
        p = q = v0
    f_last = min(max(mid[-1], p), q)
    f = _backtrack_path(lo, hi, mid, sweep, f_last)
    f[0] = v0
    return f


def tube_tv_graph(lo, hi, edges):
    """Two-stage LP: minimal total variation in the tube, then minimal l1
    distance to the midpoint among near-optimal selections."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    n = lo.shape[0]
    edges = np.asarray(edges, dtype=int).reshape(-1, 2)
    m = edges.shape[0]
    if np.any(lo > hi):
        raise SolverError("tube_tv_graph: empty tube")
    mid = 0.5 * (lo + hi)

    # variables: f (n), t (m) with t_e >= |f_i - f_j|; rows 2e and 2e + 1
    # hold +-(f_i - f_j) - t_e <= 0
    e = np.arange(m)
    rows = np.repeat(np.arange(2 * m), 3)
    cols = np.repeat(np.column_stack([edges, n + e]), 2, axis=0).ravel()
    vals = np.tile([1.0, -1.0, -1.0, -1.0, 1.0, -1.0], m)
    c = np.concatenate([np.zeros(n), np.ones(m)])
    A = coo_array((vals, (rows, cols)), shape=(2 * m, n + m))
    bounds = np.vstack([np.column_stack([lo, hi]),
                        np.tile([0.0, np.inf], (m, 1))])
    res = lp_solve(c, A_ub=A, b_ub=np.zeros(2 * m), bounds=bounds,
                   context="tube TV LP")
    tv_opt = float(res.fun)

    # stage 2: among TV-near-optimal selections, closest (l1) to the
    # midpoint; rows 2m + 2i and 2m + 2i + 1 hold +-f_i - d_i <= +-mid_i,
    # the last row caps the total variation
    nodes = np.arange(n)
    rows2 = np.concatenate([rows, 2 * m + np.repeat(np.arange(2 * n), 2),
                            np.full(m, 2 * m + 2 * n)])
    cols2 = np.concatenate([cols, np.repeat(np.column_stack(
        [nodes, n + m + nodes]), 2, axis=0).ravel(), n + e])
    vals2 = np.concatenate([vals, np.tile([1.0, -1.0, -1.0, -1.0], n),
                            np.ones(m)])
    A2 = coo_array((vals2, (rows2, cols2)),
                   shape=(2 * m + 2 * n + 1, n + m + n))
    b2 = np.concatenate([np.zeros(2 * m), np.column_stack([mid, -mid]).ravel(),
                         [tv_opt + 1e-9 * (1.0 + abs(tv_opt))]])
    c2 = np.concatenate([np.zeros(n + m), np.ones(n)])
    bounds2 = np.vstack([bounds, np.tile([0.0, np.inf], (n, 1))])
    res2 = lp_solve(c2, A_ub=A2, b_ub=b2, bounds=bounds2,
                    context="tube TV tie-break LP")
    return np.clip(res2.x[:n], lo, hi), tv_opt


def total_variation(f, edges):
    f = np.asarray(f, dtype=float)
    edges = np.asarray(edges, dtype=int).reshape(-1, 2)
    if edges.size == 0:
        return 0.0
    return float(np.sum(np.abs(f[edges[:, 0]] - f[edges[:, 1]])))
