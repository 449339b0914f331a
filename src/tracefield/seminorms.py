"""Grid-valued seminorms (gauges) on a finite-dimensional real space.

A gauge assigns to every grid node a sublinear, absolutely homogeneous
function on R^n with nonnegative values.  Closed-form kinds (scaled p-norms,
maxima of absolute linear functionals, quotient-distance augmentations) are
evaluated exactly; quotient and inf-convolution kinds carry an inner
minimization that is solved by convex descent over deterministic candidate
sets.  One evaluation solves every (vector, node) problem it holds as one
batch.

The reported value of an inner minimization is always an upper bound of the
true infimum (it is the minimum over evaluated feasible points), and paired
constructions share their candidate sets so that order relations between
them hold exactly for the reported values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .solvers import (NormTerm, minimize_batched, minimize_norm_sum,
                      orthonormal_rows)


# (point, problem) pairs per gauge or solver call of a blocked loop
_BLOCK = 1 << 14


class SeminormError(ValueError):
    """Invalid gauge or model data."""


# ---------------------------------------------------------------------------
# base norms and subspace distances

@dataclass(frozen=True, eq=False)
class BaseNorm:
    """p-norm with optional positive weights: ||w . z||_p, p in {1, 2, inf}."""

    p: float = 2.0
    weights: np.ndarray | None = None

    def __post_init__(self):
        if self.p not in (1.0, 2.0, float("inf")):
            raise SeminormError(f"unsupported p-norm: {self.p}")
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=float)
            if np.any(w <= 0):
                raise SeminormError("norm weights must be positive")
            object.__setattr__(self, "weights", w)

    def _scaled(self, z):
        z = np.asarray(z, dtype=float)
        return z if self.weights is None else z * self.weights

    def value(self, z):
        z = self._scaled(z)
        if self.p == 2.0:
            return np.sqrt(np.einsum("...i,...i->...", z, z))
        if self.p == 1.0:
            return np.sum(np.abs(z), axis=-1)
        return np.max(np.abs(z), axis=-1) if z.shape[-1] else np.zeros(z.shape[:-1])

    def term(self, weight, dim, Y=None):
        """``weight(t) * ||w . (z + Y y)||`` as a :class:`GaugeTerm` on R^dim:
        one Euclidean group for p = 2, a sum of 1-D groups for p = 1 and a
        max-abs term for p = inf; free coordinates ``Y`` only for the last
        two."""
        P = np.diag(np.ones(dim) if self.weights is None else self.weights)
        if self.p == 2.0:
            return GaugeTerm(weight, P[None, None])
        return GaugeTerm(weight, P[None, :, None, :], self.p != 1.0,
                         None if Y is None else (P @ Y)[:, None, :])


class SubspaceDistance:
    """Distance from a point to the span of basis rows, in a base norm.

    The Euclidean case uses an orthogonal projector; p = 1 and p = inf
    minimize the distance term over its free coordinates with
    :func:`~tracefield.solvers.minimize_norm_sum`, one batch per block of
    ``_BLOCK`` points.
    """

    def __init__(self, basis_rows, norm: BaseNorm):
        self.norm = norm
        basis_rows = np.atleast_2d(np.asarray(basis_rows, dtype=float))
        if basis_rows.size == 0:
            basis_rows = basis_rows.reshape(0, basis_rows.shape[-1])
        self.basis = basis_rows
        q = orthonormal_rows(norm._scaled(basis_rows))   # weighted, p = 2
        self._residual_op = np.eye(basis_rows.shape[1]) - q.T @ q

    def value(self, z):
        z = np.asarray(z, dtype=float)
        if self.norm.p == 2.0:
            resid = self.norm._scaled(z) @ self._residual_op
            return np.sqrt(np.einsum("...i,...i->...", resid, resid))
        term = self.term(1.0)
        if term.Y is None:
            return self.norm.value(z)
        # the distance of 0 is 0; every other point is one problem over a
        # ball of free coordinates that holds a minimizer
        flat = z.reshape(-1, z.shape[-1])
        out = np.zeros(flat.shape[0])
        live = np.flatnonzero(np.any(flat != 0.0, axis=1))
        r = term.Y.shape[-1]
        for i in range(0, live.size, _BLOCK):
            idx = live[i:i + _BLOCK]
            A = np.broadcast_to(term.Y, (idx.size,) + term.Y.shape)
            b = np.einsum("gsd,nd->ngs", term.P[0], flat[idx])
            _, out[idx], _ = minimize_norm_sum(
                [NormTerm(term.weight, A, b, term.maxabs)],
                np.zeros((idx.size, r)), np.eye(r),
                term.y_bound(np.linalg.norm(flat[idx], axis=1)))
        return out.reshape(z.shape[:-1])

    def term(self, weight):
        """``weight(t)`` times the distance as a :class:`GaugeTerm`: the
        residual map for p = 2, else the norm of z - Wᵀy over free
        coordinates y of an orthonormal basis W of the span."""
        dim = self.basis.shape[1]
        if self.norm.p == 2.0:
            w = self.norm.weights
            P = self._residual_op.T * (1.0 if w is None else w)
            return GaugeTerm(weight, P[None, None])
        q = orthonormal_rows(self.basis)
        return self.norm.term(weight, dim, -q.T if q.shape[0] else None)


# ---------------------------------------------------------------------------
# gauges

class GaugeTerm(NamedTuple):
    """``weight(t) * N(P(t) z + Y y)`` with N as in
    :class:`~tracefield.solvers.NormTerm`: ``weight`` has shape (n_nodes,),
    ``P`` (1 | n_nodes, groups, size, dim), and ``Y`` (groups, size, r) maps
    free coordinates y in R^r that the term minimizes over (None when the
    term has none)."""

    weight: np.ndarray
    P: np.ndarray
    maxabs: bool = False
    Y: np.ndarray | None = None

    def y_bound(self, z_norm):
        """Radius of a Euclidean ball of free coordinates that holds a
        minimizing y for every z with |z| <= ``z_norm``: a minimizing y has
        N(Pz + Yy) <= N(Pz), so |Pz + Yy| is at most sqrt(rows) |Pz| and
        |y| <= |Y⁺| (sqrt(rows) + 1) |P| |z|."""
        flat = self.Y.reshape(-1, self.Y.shape[-1])
        return (np.sqrt(flat.shape[0]) + 1.0) * z_norm \
            * np.linalg.norm(self.P.reshape(-1, self.P.shape[-1]), 2) \
            / np.linalg.svd(flat, compute_uv=False)[-1]


def _joined(parts):
    """Concatenated term lists; None if any part has no closed form."""
    if any(p is None for p in parts):
        return None
    return [t for p in parts for t in p]


def _scaled_terms(terms, factor):
    if terms is None:
        return None
    return [t._replace(weight=t.weight * factor) for t in terms]


class Gauge:
    """Common interface: nodewise sublinear nonnegative functions on R^dim."""

    dim: int
    n_nodes: int

    def values(self, Z) -> np.ndarray:
        """Z broadcasts against (n_nodes, dim): it has shape (..., n_nodes,
        dim), or (..., 1, dim) or (dim,) for a point shared by all nodes,
        which is evaluated once.  Returns (..., n_nodes)."""
        raise NotImplementedError

    def norm_terms(self):
        """The gauge as a sum of :class:`GaugeTerm` objects, or None for the
        inf-type kinds, which have no such closed form."""
        return None

    def _check_shape(self, Z):
        Z = np.asarray(Z, dtype=float)
        if Z.shape[-1:] != (self.dim,) or \
                Z.ndim > 1 and Z.shape[-2] not in (1, self.n_nodes):
            raise SeminormError(
                f"gauge expects (..., {self.n_nodes}, {self.dim}), "
                f"(..., 1, {self.dim}) or ({self.dim},), got {Z.shape}")
        return Z

    def _full(self, Z):
        """Z checked and broadcast to (..., n_nodes, dim), as a view."""
        Z = self._check_shape(Z)
        return np.broadcast_to(Z, Z.shape[:-2] + (self.n_nodes, self.dim))


def _as_field(c, n_nodes):
    c = np.asarray(c, dtype=float)
    if c.ndim == 0:
        c = np.full(n_nodes, float(c))
    if c.shape != (n_nodes,):
        raise SeminormError(f"node field has shape {c.shape}, "
                            f"expected ({n_nodes},)")
    if not np.all(np.isfinite(c) & (c >= 0)):
        raise SeminormError("gauge scale fields must be finite and "
                            "nonnegative")
    return c


class ScaledNorm(Gauge):
    """c(t) * ||z||  for a base p-norm."""

    def __init__(self, c, n_nodes, dim, norm: BaseNorm = None):
        self.norm = norm or BaseNorm()
        self.n_nodes = int(n_nodes)
        self.dim = int(dim)
        self.c = _as_field(c, self.n_nodes)

    def values(self, Z):
        Z = self._check_shape(Z)
        return self.c * self.norm.value(Z)

    def norm_terms(self):
        return [self.norm.term(self.c, self.dim)]


class MaxAbsLinear(Gauge):
    """scale(t) * max_k |a_k . z| over a fixed family of functionals."""

    def __init__(self, functionals, n_nodes, scale=1.0):
        a = np.atleast_2d(np.asarray(functionals, dtype=float))
        if a.shape[0] == 0:
            raise SeminormError("max_abs_linear needs at least one functional")
        self.functionals = a
        self.dim = a.shape[1]
        self.n_nodes = int(n_nodes)
        self.scale = _as_field(scale, self.n_nodes)

    def values(self, Z):
        # the product runs on the full node axis: BLAS rounds a shared
        # (..., 1, dim) point differently
        Z = self._full(Z)
        return self.scale * np.max(np.abs(Z @ self.functionals.T), axis=-1)

    def norm_terms(self):
        return [GaugeTerm(self.scale, self.functionals[None, :, None, :],
                          True)]


class SumGauge(Gauge):
    def __init__(self, parts):
        parts = list(parts)
        if not parts:
            raise SeminormError("empty sum gauge")
        self.parts = parts
        self.dim = parts[0].dim
        self.n_nodes = parts[0].n_nodes
        if any(p.dim != self.dim or p.n_nodes != self.n_nodes for p in parts):
            raise SeminormError("sum gauge parts disagree in shape")

    def values(self, Z):
        return sum(p.values(Z) for p in self.parts)

    def norm_terms(self):
        return _joined([p.norm_terms() for p in self.parts])


class ScaledByField(Gauge):
    """lambda(t) * m(z)(t): nodewise rescaling, e.g. by a partition bump."""

    def __init__(self, inner: Gauge, factor):
        self.inner = inner
        self.dim = inner.dim
        self.n_nodes = inner.n_nodes
        self.factor = _as_field(factor, self.n_nodes)

    def values(self, Z):
        return self.factor * self.inner.values(Z)

    def norm_terms(self):
        return _scaled_terms(self.inner.norm_terms(), self.factor)


class AugmentedGauge(Gauge):
    """m(z)(t) + sum_k delta_k * dist(z, W_k(t)) in the model's base norm.

    ``terms`` is a list of (delta, dist) pairs where ``dist`` is either one
    shared :class:`SubspaceDistance`, evaluated once per shared point, or a
    per-node list of them.
    """

    def __init__(self, base: Gauge, terms):
        self.base = base
        self.dim = base.dim
        self.n_nodes = base.n_nodes
        self.terms = list(terms)

    def values(self, Z):
        Z = self._check_shape(Z)
        vals = self.base.values(Z)
        for delta, dist in self.terms:
            if isinstance(dist, SubspaceDistance):
                vals = vals + delta * dist.value(Z)
            else:
                Zt = self._full(Z)
                vals = vals + delta * np.stack(
                    [d.value(Zt[..., t, :]) for t, d in enumerate(dist)], -1)
        return vals

    def norm_terms(self):
        """Base terms plus one term per distance; a per-node list of
        distances stacks its residual maps and needs p = 2."""
        parts = [self.base.norm_terms()]
        weight = np.ones(self.n_nodes)
        for delta, dist in self.terms:
            if isinstance(dist, SubspaceDistance):
                parts.append([dist.term(delta * weight)])
            elif all(d.norm.p == 2.0 for d in dist):
                P = np.concatenate([d.term(weight).P for d in dist])
                parts.append([GaugeTerm(delta * weight, P)])
            else:
                return None
        return _joined(parts)


class PiecewiseNodes(Gauge):
    """One gauge on a designated node set, another elsewhere."""

    def __init__(self, mask, inside: Gauge, outside: Gauge):
        self.inside = inside
        self.outside = outside
        self.dim = inside.dim
        self.n_nodes = inside.n_nodes
        if outside.dim != self.dim or outside.n_nodes != self.n_nodes:
            raise SeminormError("piecewise gauge parts disagree in shape")
        mask = np.asarray(mask, dtype=bool).reshape(-1)
        if mask.shape != (self.n_nodes,):
            raise SeminormError("piecewise mask length mismatch")
        self.mask = mask

    def values(self, Z):
        return np.where(self.mask, self.inside.values(Z),
                        self.outside.values(Z))

    def norm_terms(self):
        inside = _scaled_terms(self.inside.norm_terms(), self.mask)
        outside = _scaled_terms(self.outside.norm_terms(), ~self.mask)
        return _joined([inside, outside])


def _lattice(radius, pts, k, rows=slice(None)):
    """Rows ``rows`` of the ``pts**k`` coordinate lattice on [-r, r]^k.

    ``radius`` is a scalar or an array of per-problem radii of shape S; the
    result has shape (rows,) + S + (k,).  Axis value i is -r + i (2r / (pts
    - 1)) and the last one is r, as ``np.linspace(-r, r, pts)`` computes
    them; rows run in ``meshgrid(..., indexing="ij")`` order.  Only the
    requested rows are computed.
    """
    idx = np.indices((pts,) * k).reshape(k, -1).T[rows]
    r = np.asarray(radius, dtype=float)[..., None, None]
    vals = np.where(idx == pts - 1, r, idx * (2.0 * r / (pts - 1)) - r)
    return np.moveaxis(vals, -2, 0)


def _scan(fun, radius, pts, k):
    """Per-problem lattice point of least value, ties to the earliest row.

    ``fun`` maps (B, N, k) coordinates to (B, N) values of the N problems
    whose radii are ``radius`` (N,).  The lattice is evaluated in blocks of
    B rows, B N <= ``_BLOCK``, so memory stays bounded in the batch.
    """
    n = radius.shape[0]
    best_v = np.full(n, np.inf)
    best_c = np.zeros((n, k))
    block = max(1, _BLOCK // max(n, 1))
    for start in range(0, pts ** k, block):
        C = _lattice(radius, pts, k, slice(start, start + block))
        vals = fun(C)
        idx = np.argmin(vals, axis=0)
        v = vals[idx, np.arange(n)]
        better = v < best_v
        best_v[better] = v[better]
        best_c[better] = C[idx[better], better]
    return best_c


def _pick(vals, cands):
    """Least value over the leading candidate axis, and its candidate."""
    i = np.argmin(vals, axis=0)[None]
    return (np.take_along_axis(vals, i, 0)[0],
            np.take_along_axis(cands, i[..., None], 0)[0])


def _with_extra(cands, extra, shape):
    for w in extra or ():
        cands.append(np.broadcast_to(np.asarray(w, dtype=float), shape))
    return np.stack(cands)


class _BatchSolved(Gauge):
    """Inf-type gauge: ``_solve(Z, extra)`` takes a batch Z (P, n, dim), in
    which problem (p, t) is the vector ``Z[p, t]`` at node t, and returns
    values (P, n) and inner minimizers (P, n, dim).  Every problem is its
    own inner solve, so a shared point is broadcast to the nodes."""

    def values(self, Z):
        Z = self._full(Z)
        vals, _ = self._solve(Z.reshape(-1, self.n_nodes, self.dim))
        return vals.reshape(Z.shape[:-1])

    def value_nodes(self, z, extra=None):
        """One ambient vector z at every node: ``(values, witnesses)``, the
        witnesses being the inner minimizers.  ``extra`` lists ambient
        candidate vectors injected into the inner solves."""
        vals, wit = self._solve(self._full(z)[None], extra)
        return vals[0], wit[0]


class _QuotientCore:
    """Shared inner minimization of the two quotient constructions.

    A batch ``Z`` of shape (P, n_nodes, dim) holds one problem per (p, t):
    the vector ``Z[p, t]`` at node t.  Over w in span(W) both integrands,

        bar:    m(z + w)(t) + delta ||z + w||
        tilde:  m(w)(t) + delta ||z + w||      (m(z)(t) is added after),

    are minimized by a lattice scan of the subspace coordinates and one
    pattern-search polish over all 2 P n problems; each is then minimized
    over one shared candidate set, so the reported bar values never exceed
    the reported tilde values.
    """

    def __init__(self, m: Gauge, w_rows, delta: float, norm: BaseNorm):
        if not delta > 0:
            raise SeminormError("quotient construction needs delta > 0")
        self.m = m
        self.delta = float(delta)
        self.norm = norm
        self.w = np.atleast_2d(np.asarray(w_rows, dtype=float)) \
            if np.size(w_rows) else np.zeros((0, m.dim))
        self.wq = orthonormal_rows(self.w)

    def _objective(self, Z, W, tilde):
        """Bar (or tilde) integrand at candidates W of shape (..., P, n, dim)."""
        ZW = Z + W
        return self.m.values(W if tilde else ZW) \
            + self.delta * self.norm.value(ZW)

    def _radius(self, Z):
        """Search radius of every problem, flattened to (P n,).  It reads
        m(z) at every node, for a block of shared points z at a time."""
        n, dim = Z.shape[1:]
        flat = Z.reshape(-1, dim)
        norm_z = self.norm.value(flat)
        m_max = np.empty(flat.shape[0])
        block = max(1, _BLOCK // max(n, 1))
        for i in range(0, flat.shape[0], block):
            m_max[i:i + block] = self.m.values(
                flat[i:i + block, None, :]).max(axis=-1)
        return norm_z + (m_max + self.delta * norm_z) / self.delta + 1.0

    def pair_values(self, Z, extra=None):
        """``(v_bar, v_tilde, w_bar, w_tilde)`` of a batch Z (P, n, dim).

        Values have shape (P, n) and witnesses (P, n, dim); ``extra`` lists
        candidates broadcast to Z's shape that join the shared set.
        """
        P, n, dim = Z.shape
        k = self.wq.shape[0]
        cands = [np.zeros(Z.shape)]
        if k:
            cands.append(-((Z @ self.wq.T) @ self.wq))
            radius = np.tile(self._radius(Z), 2)

            def fun(C):
                W = C.reshape(C.shape[:-2] + (2, P, n, k)) @ self.wq
                return np.stack([self._objective(Z, W[..., 0, :, :, :], False),
                                 self._objective(Z, W[..., 1, :, :, :], True)],
                                axis=-3).reshape(C.shape[:-1])

            pts = {1: 81, 2: 25}.get(k)
            start = _scan(fun, radius, pts, k) if pts else None
            y, _ = minimize_batched(fun, k, n_nodes=2 * P * n, radius=radius,
                                    polish_rounds=120, y0=start)
            cands.extend(y.reshape(2, P, n, k) @ self.wq)
        W = _with_extra(cands, extra, Z.shape)
        v_bar, w_bar = _pick(self._objective(Z, W, False), W)
        v_tilde, w_tilde = _pick(self._objective(Z, W, True), W)
        return v_bar, self.m.values(Z) + v_tilde, w_bar, w_tilde


class Quotient(_BatchSolved):
    """The bar construction on the nodes of ``mask``, tilde elsewhere:

        bar:    inf over w in span(W) of  m(z + w)(t) + delta ||z + w||
        tilde:  m(z)(t) + inf over w in span(W) of  m(w)(t) + delta ||z + w||

    Gauges built on one core share its candidate sets.
    """

    def __init__(self, core: _QuotientCore, mask):
        self.core = core
        self.dim = core.m.dim
        self.n_nodes = core.m.n_nodes
        self.mask = np.broadcast_to(np.asarray(mask, dtype=bool),
                                    (self.n_nodes,))

    def _solve(self, Z, extra=None):
        v_bar, v_tilde, w_bar, w_tilde = self.core.pair_values(Z, extra)
        return (np.where(self.mask, v_bar, v_tilde),
                np.where(self.mask[:, None], w_bar, w_tilde))


def QuotientBar(m, w_rows, delta, norm) -> Quotient:
    """inf over w in span(W) of  m(z + w)(t) + delta ||z + w||."""
    return Quotient(_QuotientCore(m, w_rows, delta, norm), True)


def QuotientTilde(m, w_rows, delta, norm) -> Quotient:
    """m(z)(t) + inf over w in span(W) of  m(w)(t) + delta ||z + w||."""
    return Quotient(_QuotientCore(m, w_rows, delta, norm), False)


class InfConv(_BatchSolved):
    """Nodewise inf-convolution over a subspace F:

        (m1 [] m2)(z)(t) = inf over y in F of  m1(y)(t) + m2(z - y)(t).

    The infimum is taken over a deterministic candidate set (origin, the
    projection of z onto F and its half, and one pattern-search polish
    batched over every (vector, node) problem), so the reported value is an
    upper bound of the true infimum that is exact on the candidates.
    """

    def __init__(self, m1: Gauge, m2: Gauge, f_rows):
        if m1.dim != m2.dim or m1.n_nodes != m2.n_nodes:
            raise SeminormError("inf-convolution parts disagree in shape")
        self.m1, self.m2 = m1, m2
        self.dim, self.n_nodes = m1.dim, m1.n_nodes
        self.f = np.atleast_2d(np.asarray(f_rows, dtype=float)) \
            if np.size(f_rows) else np.zeros((0, self.dim))
        self.fq = orthonormal_rows(self.f)

    def _solve(self, Z, extra=None):
        P, n, dim = Z.shape
        k = self.fq.shape[0]
        cands = [np.zeros(Z.shape)]
        if k:
            proj = (Z @ self.fq.T) @ self.fq
            cands += [proj, 0.5 * proj]
            radius = 4.0 * (1.0 + np.linalg.norm(Z, axis=-1).reshape(-1))

            def fun(C):
                Y = C.reshape(C.shape[:-2] + (P, n, k)) @ self.fq
                return (self.m1.values(Y) + self.m2.values(Z - Y)) \
                    .reshape(C.shape[:-1])

            y, _ = minimize_batched(fun, k, n_nodes=P * n, radius=radius,
                                    polish_rounds=220)
            cands.append(y.reshape(P, n, k) @ self.fq)
        Y = _with_extra(cands, extra, Z.shape)
        return _pick(self.m1.values(Y) + self.m2.values(Z - Y), Y)


# ---------------------------------------------------------------------------
# vector space model and the module-level operations

@dataclass
class VectorSpaceModel:
    """Ambient space with a distinguished subspace and complement.

    ``subspace`` and ``complement`` are basis rows; together they must span
    R^dim.  ``nilspace`` optionally lists extra per-node zero directions of
    the seminorm (one shared row block, or one per node).  Per-node
    nilspaces cannot be serialised, and only the tests'
    ``TestPartitionGlobalization`` builds one.
    """

    dim: int
    norm: BaseNorm = field(default_factory=BaseNorm)
    subspace: np.ndarray = None
    complement: np.ndarray = None
    nilspace: object = None   # None | ndarray rows | list of ndarray per node

    def __post_init__(self):
        self.subspace = self._rows(self.subspace)
        self.complement = self._rows(self.complement)
        stacked = np.vstack([self.subspace, self.complement])
        if orthonormal_rows(stacked).shape[0] != self.dim:
            raise SeminormError(
                "subspace and complement bases do not jointly span the space")
        if self.subspace.shape[0] + self.complement.shape[0] != self.dim:
            raise SeminormError("bases are not jointly independent")

    def _rows(self, a):
        if a is None:
            return np.zeros((0, self.dim))
        a = np.atleast_2d(np.asarray(a, dtype=float))
        if a.size == 0:
            return np.zeros((0, self.dim))
        if a.shape[1] != self.dim:
            raise SeminormError(f"basis rows have length {a.shape[1]}, "
                                f"expected {self.dim}")
        if orthonormal_rows(a).shape[0] != a.shape[0]:
            raise SeminormError("basis rows are linearly dependent")
        return a

    def nilspace_at(self, t: int) -> np.ndarray:
        if self.nilspace is None:
            return np.zeros((0, self.dim))
        if isinstance(self.nilspace, np.ndarray):
            return self.nilspace
        return self.nilspace[t]

    def quotient_rows(self, t: int) -> np.ndarray:
        """Rows spanning complement + nilspace at node t."""
        return np.vstack([self.complement, self.nilspace_at(t)])

    def per_node_nilspace(self) -> bool:
        return isinstance(self.nilspace, list)


def quotient_seminorms(m: Gauge, model: VectorSpaceModel, delta: float):
    """The two quotient constructions over W = complement + nilspace.

    Returns ``(bar, tilde)``; the reported values satisfy bar <= tilde at
    every node because both sides minimize over one shared candidate set.
    """
    if model.per_node_nilspace():
        raise SeminormError("quotient constructions need a shared nilspace")
    core = _QuotientCore(m, model.quotient_rows(0), delta, model.norm)
    return Quotient(core, True), Quotient(core, False)


def inf_convolve(m1: Gauge, m2: Gauge, f_rows) -> InfConv:
    """Nodewise inf-convolution over the subspace spanned by ``f_rows``."""
    return InfConv(m1, m2, f_rows)


# ---------------------------------------------------------------------------
# the inductive balanced chain

@dataclass(frozen=True)
class BalancedChainResult:
    stage_gauges: list          # piecewise bar/tilde gauge per stage
    stage_values: np.ndarray    # (n_stages, n_points, n_nodes)
    tilde_values: np.ndarray    # (n_points, n_nodes)
    points: np.ndarray          # (n_points, dim) evaluated vectors


def balanced_chain(m: Gauge, model: VectorSpaceModel, delta: float,
                   u_masks, f_bases, points) -> BalancedChainResult:
    """Inductive seminorm chain built from the two quotient constructions.

    Stage n uses the piecewise gauge that equals the bar construction on the
    node set ``u_masks[n]`` and the tilde construction elsewhere; stage n+1
    inf-convolves the previous stage with the next piecewise gauge over the
    subspace ``f_bases[n]``.  Inner infima run over a fixed coordinate
    lattice (9 points per axis on [-2, 2]) that always contains the origin,
    plus the shared quotient candidates, so every reported value is an
    upper bound of the true infimum, reported values never exceed the tilde
    construction, and domination of any linear map dominated by the bar
    construction is preserved exactly.

    ``points`` are the vectors at which all stages are evaluated.  Every
    vector any stage needs is known in advance, so all of them go through
    one batched solve of the shared quotient core.
    """
    if len(u_masks) != len(f_bases):
        raise SeminormError("need one node set per chain stage")
    if model.per_node_nilspace():
        raise SeminormError("balanced chain needs a shared nilspace")
    core = _QuotientCore(m, model.quotient_rows(0), delta, model.norm)
    stages = [Quotient(core, mask) for mask in u_masks]
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n_pts, n_stages = points.shape[0], len(f_bases)

    def lattice(rows):
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        if rows.size == 0 or rows.shape[0] == 0:
            return np.zeros((1, m.dim))
        q = orthonormal_rows(rows)
        pts = _lattice(2.0, 9, q.shape[0]) @ q
        if not np.any(np.all(pts == 0.0, axis=1)):
            pts = np.vstack([np.zeros(m.dim), pts])
        return pts

    # stage s is wanted at the points and, to tabulate it for stage s + 1,
    # at lattice s; stage s > 0 evaluates its piecewise gauge at every shift
    # of those vectors by a point of lattice s - 1
    lattices = [lattice(f) for f in f_bases[:-1]]
    queries = [np.vstack([points, lat]) for lat in lattices] + [points]
    args = [queries[0]] + [(queries[s][:, None, :] - lattices[s - 1])
                           .reshape(-1, m.dim) for s in range(1, n_stages)]
    X = np.concatenate(args)
    v_bar, v_tilde, _, _ = core.pair_values(
        np.broadcast_to(X[:, None, :], (X.shape[0], m.n_nodes, m.dim)))
    splits = np.cumsum([a.shape[0] for a in args])[:-1]
    vals = [np.where(g.mask, b, t) for g, b, t in
            zip(stages, np.split(v_bar, splits), np.split(v_tilde, splits))]

    tab = vals[0]
    stage_values = [tab[:n_pts]]
    for s in range(1, n_stages):
        shifted = vals[s].reshape(queries[s].shape[0], -1, m.n_nodes)
        tab = np.min(tab[n_pts:] + shifted, axis=1)
        stage_values.append(tab[:n_pts])
    return BalancedChainResult(stages, np.stack(stage_values),
                               v_tilde[:n_pts], points)
