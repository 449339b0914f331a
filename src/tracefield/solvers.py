"""Optimization primitives shared by the seminorm and extension engines.

Everything here is deterministic: pattern-search direction sets are fixed
arrays, the sum-of-norms solver follows a fixed barrier schedule, and linear
programs go through HiGHS.  Batched routines treat the leading "node" axis
as a family of independent problems solved in lockstep.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_array

_DIRECTION_SEED = 718281828
_MU_FACTOR = 100.0   # barrier weight divisor per stage of the path
_RIDGE = 1e-15       # added to the unit diagonal of the scaled Newton matrix
_GAP_TOL = 1e-12     # relative duality gap at which a node stops
# Newton steps per batch: nodes stop within 50 on the extend workload, and
# near 100 on a max-abs term of 200 rows
_MAX_STEPS = 200


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
# batched pattern search (objectives known only through their values)

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
        rng = np.random.default_rng(_DIRECTION_SEED)
        d = np.vstack([d, rng.standard_normal((24, 3))])
    else:
        eye = np.eye(dim)
        rng = np.random.default_rng(_DIRECTION_SEED)
        extra = rng.standard_normal((4 * dim, dim))
        d = np.vstack([eye, -eye, extra])
    return d / np.linalg.norm(d, axis=1, keepdims=True)


def minimize_batched(fun, dim, n_nodes, radius, ball_norm=None,
                     polish_rounds=300, min_radius=1e-9, y0=None):
    """Minimize a convex objective per node over a ball by pattern search.

    Parameters
    ----------
    fun : callable
        Maps ``(..., n_nodes, dim)`` points to ``(..., n_nodes)`` values;
        the search reads the objective through its values only.
    dim, n_nodes : int
        Problem dimensions.
    radius : float or array of shape (n_nodes,)
        Ball radius in ``ball_norm`` (Euclidean when None), shared or one
        per node; points are kept feasible by radial rescaling.
    y0 : array or None
        Per-node warm start, shape (n_nodes, dim).

    The search starts at the origin (and ``y0``) and polishes with a fixed
    direction set.  The "nodes" are independent problems: the polish keeps
    one step per node, halves it only when that node fails to improve and
    freezes the node once the step is at most ``min_radius``, so a node's
    result does not depend on the other problems of the batch.  Values are
    those of evaluated points, hence upper bounds of the minima.

    Returns ``(y, v)``: per-node argmin estimates and values.
    """
    radius = np.asarray(radius, dtype=float)
    if dim == 0 or np.all(radius == 0.0):
        y = np.zeros((n_nodes, dim))
        return y, fun(y)

    nrm = (lambda z: np.linalg.norm(z, axis=-1)) if ball_norm is None \
        else ball_norm

    def project(y):
        r = nrm(y)
        scale = np.where(r > radius, radius / np.maximum(r, 1e-300), 1.0)
        return y * scale[..., None]

    best_y = np.zeros((n_nodes, dim))
    best_v = fun(best_y)
    nodes = np.arange(n_nodes)
    if y0 is not None:
        y0 = project(np.array(y0, dtype=float))
        v0 = fun(y0)
        improve = v0 < best_v
        best_y[improve] = y0[improve]
        best_v[improve] = v0[improve]

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
# batched sums of norms: barrier Newton with a dual lower bound

class NormTerm(NamedTuple):
    """``weight(t) * N(A(t) v + b(t))`` at node t of a batch.

    ``weight`` has shape (n,), ``A`` (1 | n, groups, size, k) and ``b``
    (1 | n, groups, size).  N sums the Euclidean norms of the groups or,
    with ``maxabs``, takes the largest absolute entry.
    """

    weight: np.ndarray
    A: np.ndarray
    b: np.ndarray
    maxabs: bool = False


def _rows(a, idx):
    """Rows ``idx`` of a per-node array; a shared one (leading 1) passes."""
    return a if a.shape[0] == 1 else a[idx]


class _NormSum:
    """The data of :func:`minimize_norm_sum` on some nodes of the batch.

    The Euclidean groups of one size are stacked into one block
    ``(w, A, b, AᵀA)`` with a weight per group; each max-abs term
    ``(w, A, b)`` keeps its rows flat and owns one epigraph variable, stored
    after the k variables.
    """

    def __init__(self, g, ball, radius, blocks, maxabs):
        self.g, self.ball, self.radius = g, ball, radius
        self.blocks, self.maxabs = blocks, maxabs
        self.gram = np.einsum("nmk,nml->nkl", ball, ball)
        self.gram_inv = np.linalg.inv(self.gram)
        # barrier parameter: the gap at the centre is below nu mu
        self.nu = 2.0 + sum(blk[0].shape[1] for blk in blocks) \
            + sum(2.0 * blk[1].shape[1] for blk in maxabs)

    @classmethod
    def build(cls, terms, g, ball, radius):
        n = g.shape[0]
        by_size, maxabs = {}, []
        for term in terms:
            w = np.broadcast_to(np.asarray(term.weight, dtype=float), (n,))
            A = np.asarray(term.A, dtype=float)
            b = np.broadcast_to(np.asarray(term.b, dtype=float), A.shape[:-1])
            if term.maxabs:
                maxabs.append((w, A.reshape(A.shape[0], -1, A.shape[-1]),
                               b.reshape(b.shape[0], -1)))
            else:
                by_size.setdefault(A.shape[2], []).append((w, A, b))
        blocks = []
        for group in by_size.values():
            lead = max(A.shape[0] for _, A, _ in group)
            A = np.concatenate([np.broadcast_to(A, (lead,) + A.shape[1:])
                                for _, A, _ in group], axis=1)
            b = np.concatenate([np.broadcast_to(b, (lead,) + b.shape[1:])
                                for _, _, b in group], axis=1)
            w = np.concatenate([np.repeat(w[:, None], a.shape[1], axis=1)
                                for w, a, _ in group], axis=1)
            blocks.append((w, A, b, np.einsum("ngsk,ngsl->ngkl", A, A)))
        ball = np.asarray(ball, dtype=float)
        return cls(g, ball[None] if ball.ndim == 2 else ball,
                   np.broadcast_to(np.asarray(radius, dtype=float), (n,)),
                   blocks, maxabs)

    def subset(self, idx):
        return _NormSum(self.g[idx], _rows(self.ball, idx), self.radius[idx],
                        [tuple(_rows(a, idx) for a in blk)
                         for blk in self.blocks],
                        [tuple(_rows(a, idx) for a in blk)
                         for blk in self.maxabs])

    def value(self, c):
        """The objective at c; the epigraph variables play no part."""
        val = np.einsum("nk,nk->n", self.g, c)
        for w, A, b, _ in self.blocks:
            u = _apply(A, c) + b
            val = val + np.sum(w * np.sqrt(np.sum(u * u, axis=-1)), axis=-1)
        for w, A, b in self.maxabs:
            val = val + w * np.max(np.abs(_apply(A, c) + b), axis=-1)
        return val

    def dual_norm(self, r):
        """max of r . v over the unit ball ||M v|| <= 1."""
        return np.sqrt(_quad(self.gram_inv, r))

    def start(self, mu):
        """The origin, with each epigraph variable above its rows."""
        n, k = self.g.shape
        x = np.zeros((n, k + len(self.maxabs)))
        for j, (w, _, b) in enumerate(self.maxabs):
            x[:, k + j] = np.max(np.abs(b), axis=-1) \
                + 2.0 * b.shape[-1] * mu / np.where(w > 0, w, 1.0)
        return x

    def merit(self, x, mu):
        """objective + mu * barrier up to terms constant in x (inf outside
        the cones); a smoothed norm is q - mu log(mu + q)."""
        k = self.g.shape[1]
        c = x[:, :k]
        m = mu[:, None]
        val = np.einsum("nk,nk->n", self.g, c)
        with np.errstate(invalid="ignore", divide="ignore"):
            for w, A, b, _ in self.blocks:
                u = _apply(A, c) + b
                q = np.sqrt(m * m + w * w * np.sum(u * u, axis=-1))
                val = val + np.sum(q - m * np.log(m + q), axis=-1)
            for j, (w, A, b) in enumerate(self.maxabs):
                tau = x[:, k + j, None]
                u = np.abs(np.where((w > 0)[:, None], _apply(A, c) + b, 0.0))
                slack = tau - u
                d = np.where(slack > 0, slack * (tau + u), 0.0)
                val = val + np.where(w > 0, w, 1.0) * tau[:, 0] \
                    - mu * np.sum(np.where(d > 0, np.log(d), -np.inf), -1)
            e = self.radius ** 2 - _quad(self.gram, c)
            val = val - mu * np.where(e > 0, np.log(e), -np.inf)
        return val

    def newton(self, x, mu):
        """Newton step at x for  objective + mu * barrier.

        Returns ``(step, dec, value, lower)``: the step, the squared
        Newton decrement of the self-concordant ``barrier + objective / mu``,
        the objective after the full step, and the dual bound of the
        multipliers linearised along the step and clipped into their balls.
        """
        n, k = self.g.shape
        c = x[:, :k]
        m = mu[:, None]
        grad = np.zeros(x.shape)
        hess = np.zeros(x.shape + x.shape[-1:])
        grad[:, :k] = self.g
        cache = []
        for w, A, b, ata in self.blocks:
            # the smoothed norm min over tau of  w tau - mu log(tau² - |u|²)
            # has gradient a u in u and Hessian a (I - r u uᵀ)
            u = _apply(A, c) + b
            q = np.sqrt(m * m + w * w * np.sum(u * u, axis=-1))
            a = w * w / (m + q)
            r = w * w / (q * (m + q))
            au = np.einsum("ngsk,ngs->ngk", A, u)
            grad[:, :k] += np.einsum("ng,ngk->nk", a, au)
            hess[:, :k, :k] += np.einsum("ng,ngkl->nkl", a, ata) \
                - np.einsum("ng,ngk,ngl->nkl", a * r, au, au)
            cache.append((u, a, r))
        for j, (w, A, b) in enumerate(self.maxabs):
            # barrier -mu log(tau² - u²) per row; a zero weight drops the
            # rows and leaves tau a unit-cost variable
            live = (w > 0)[:, None]
            tau = x[:, k + j, None]
            u = np.where(live, _apply(A, c) + b, 0.0)
            d = (tau - np.abs(u)) * (tau + np.abs(u))
            p = 2.0 * m / d
            huu = np.where(live, p * (1.0 + 2.0 * u * u / d), 0.0)
            hut = np.where(live, -2.0 * p * u * tau / d, 0.0)
            grad[:, :k] += np.einsum("nr,nrk->nk", p * u, A)
            grad[:, k + j] = np.where(w > 0, w, 1.0) - np.sum(p * tau, -1)
            hess[:, :k, :k] += np.einsum("nr,nrk,nrl->nkl", huu, A, A)
            hess[:, :k, k + j] = hess[:, k + j, :k] = \
                np.einsum("nr,nrk->nk", hut, A)
            hess[:, k + j, k + j] = np.sum(p * (2.0 * tau * tau / d - 1.0), -1)
            cache.append((u, p * u, huu, hut))
        gc = np.einsum("nkl,nl->nk", self.gram, c)
        e = (self.radius ** 2 - np.einsum("nk,nk->n", c, gc))[:, None]
        grad[:, :k] += 2.0 * m * gc / e
        hess[:, :k, :k] += (2.0 * m / e)[..., None] * self.gram \
            + (4.0 * m / (e * e))[..., None] * gc[:, :, None] * gc[:, None, :]

        # symmetric diagonal scaling, since a term that pins a direction
        # brings curvature of order 1 / mu there; the ridge keeps rounding
        # from making the scaled matrix singular
        s = 1.0 / np.sqrt(np.diagonal(hess, axis1=1, axis2=2))
        scaled = hess * s[:, :, None] * s[:, None, :] \
            + _RIDGE * np.eye(x.shape[1])
        step = -s * np.linalg.solve(scaled, (grad * s)[..., None])[..., 0]
        dec = -np.einsum("nk,nk->n", grad, step) / mu

        dc = step[:, :k]
        dual = np.zeros(n)
        resid = self.g.copy()
        for (w, A, b, _), (u, a, r) in zip(self.blocks, cache):
            du = _apply(A, dc)
            ud = np.sum(u * du, axis=-1)
            z = a[..., None] * (u + du - (r * ud)[..., None] * u)
            nz = np.sqrt(np.sum(z * z, axis=-1))
            z *= np.minimum(1.0, w / np.maximum(nz, 1e-300))[..., None]
            dual += np.sum(z * b, axis=(-1, -2))
            resid += np.sum(np.einsum("ngs,ngsk->ngk", z, A), axis=1)
        for j, ((w, A, b), (u, pu, huu, hut)) in enumerate(
                zip(self.maxabs, cache[len(self.blocks):])):
            zeta = pu + huu * _apply(A, dc) + hut * step[:, k + j, None]
            l1 = np.sum(np.abs(zeta), axis=-1)
            zeta *= np.minimum(1.0, w / np.maximum(l1, 1e-300))[:, None]
            dual += np.sum(zeta * b, axis=-1)
            resid += np.einsum("nr,nrk->nk", zeta, A)
        cn = c + dc
        inside = _quad(self.gram, cn) <= self.radius ** 2
        lower = dual - self.radius * self.dual_norm(resid)
        return step, dec, np.where(inside, self.value(cn), np.inf), lower


# Every product below reduces over one axis at a time: the order of a sum
# over two axes may change with the batch size, and a node's result must not.

def _apply(A, c):
    """A (1 | n, ..., k) applied to per-node vectors c (n, k)."""
    return np.einsum("n...k,nk->n...", A, c)


def _quad(G, c):
    """The quadratic forms c_t . G_t c_t; G has shape (1 | n, k, k)."""
    return np.einsum("nk,nk->n", np.einsum("nkl,nl->nk", G, c), c)


def minimize_norm_sum(terms, g, ball, radius):
    """Minimize ``g_t . v + sum_i terms_i(v)`` over ``||M v|| <= radius_t``
    for every node t of a batch, with a certified lower bound.

    ``terms`` are :class:`NormTerm` objects over v in R^k, ``g`` has shape
    (n, k), ``ball`` is M of full column rank, shape (m, k) or (n, m, k),
    and ``radius`` is a scalar or has shape (n,).

    The method is a barrier Newton path following over second-order cones
    (Lobo, Vandenberghe, Boyd & Lebret 1998; Andersen, Christiansen, Conn &
    Overton 2000): a Euclidean term enters through its smoothed norm, the
    minimum over its epigraph variable of the cone barrier; a max-abs term
    keeps one epigraph variable tau with the 1-D cones |u_r| <= tau; the ball
    is one more cone and keeps the Newton matrix nonsingular where every
    term vanishes along a direction.  A step of squared decrement below 0.1
    (the quadratic zone of the self-concordant barrier) is taken in full and
    ends a stage: the barrier weight drops by up to ``_MU_FACTOR``, down to
    a floor where the central gap is a quarter of the tolerance.  Outside
    that zone the step backtracks on the barrier merit.  Every step gives a
    lower bound: the term multipliers, linearised along the step and
    clipped into their dual balls (Euclidean, or l1 for max-abs terms),
    bound the objective below by ``sum z . b - radius ||r||_*``, where r is
    the stationarity residual and ``||.||_*`` the dual norm of the ball.  A
    node stops once ``value - lower <= 1e-12 (1 + |value|)``, or after a few
    full steps at the floor weight, where rounding rules.

    Nodes are independent problems: each keeps its own barrier weight and
    leaves the batch when it stops, so its result does not depend on the
    others.  Returns ``(v, value, lower)``: the best point of each node, its
    objective value and the best lower bound found.
    """
    g = np.asarray(g, dtype=float)
    n, k = g.shape
    prob = _NormSum.build(terms, g, ball, radius)
    best = np.zeros((n, k))
    value = prob.value(best)
    lower = np.full(n, -np.inf)
    # the barrier weight starts where the central gap nu mu matches the
    # objective at the origin, else its spread over the ball; a node with
    # neither has the optimum 0 at the origin, and any weight does
    spread = prob.radius * prob.dual_norm(g)
    mu = np.where(value != 0.0, np.abs(value),
                  np.where(spread > 0.0, spread, prob.nu)) / prob.nu
    x = prob.start(mu)
    nodes = np.arange(n)
    polish = np.zeros(n, dtype=int)
    for _ in range(_MAX_STEPS):
        if nodes.size == 0:
            break
        step, dec, val, low = prob.newton(x, mu)
        better = val < value[nodes]
        value[nodes[better]] = val[better]
        best[nodes[better]] = x[better, :k] + step[better, :k]
        lower[nodes] = np.fmax(lower[nodes], low)
        # a node stops at its tolerance, or after a few full steps at the
        # floor weight, where rounding rules the steps
        scale = _GAP_TOL * (1.0 + np.abs(value[nodes]))
        done = (value[nodes] - lower[nodes] <= scale) | (polish > 4)

        # full steps in the quadratic zone; elsewhere backtrack from the
        # full step on the merit.  A node that finds no such step takes the
        # damped step 1 / (1 + sqrt(dec)), and stays put if rounding puts
        # even that outside a cone
        zone = dec < 0.1
        alpha = np.ones(nodes.size)
        now = prob.merit(x, mu)
        todo = np.ones(nodes.size, dtype=bool)
        for _ in range(8):
            trial = prob.merit(x + alpha[:, None] * step, mu)
            todo &= ~np.where(zone, trial < np.inf,
                              trial <= now - 0.25 * alpha * mu * dec)
            if not todo.any():
                break
            alpha[todo] *= 0.5
        if todo.any():
            alpha[todo] = np.where(zone[todo], 0.0,
                                   1.0 / (1.0 + np.sqrt(dec[todo])))
            trial = prob.merit(x + alpha[:, None] * step, mu)
            alpha[~(trial < np.inf)] = 0.0
        x = x + alpha[:, None] * step
        # a full step ends a barrier stage: the weight drops, down to the
        # floor where the central gap nu mu is a quarter of the tolerance
        zone &= ~todo
        floor = scale / (4.0 * prob.nu)
        polish += zone & (mu <= floor)
        factor = np.where(zone, np.maximum(mu / floor, 1.0), 1.0)
        factor = np.minimum(factor, _MU_FACTOR)
        mu = mu / factor
        if done.any():
            keep = np.flatnonzero(~done)
            nodes, x, mu, polish = nodes[keep], x[keep], mu[keep], polish[keep]
            prob = prob.subset(keep)
    return best, value, lower


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
