"""Dominated extension of linear map fields, one direction at a time.

Given a map defined on a subspace Y and dominated nodewise by a gauge, the
engine certifies coercivity, computes the admissible value tube for a new
direction by convex optimization per node, picks a continuous representative
by total-variation-minimal selection, and iterates over a complement basis
with geometrically shrinking quotient-distance budgets.  The final map is
dominated by the original gauge plus twice the budget times the base norm,
and every run carries machine-checkable certificates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import block_diag

from .config import Tolerances, DEFAULT_TOLS
from .errors import CoercivityError, EnvelopeError, InputError
from .grids import Grid
from .seminorms import (AugmentedGauge, Gauge, SubspaceDistance,
                        VectorSpaceModel)
from .solvers import (NormTerm, minimize_batched, minimize_norm_sum,
                      orthonormal_rows, taut_string_cycle, taut_string_path,
                      tube_tv_graph)

_SPHERE_SEED = 577215664
_CERT_SEED = 141421356


@dataclass
class ExtensionProblem:
    """A dominated map on a subspace, ready for extension.

    ``phi`` holds the map's values on the subspace basis: ``phi[t, j]`` is
    the value at node t of the j-th basis row of ``model.subspace``.
    Domination by the gauge is validated on the basis and on random cone
    samples at construction.
    """

    grid: Grid
    model: VectorSpaceModel
    gauge: Gauge
    phi: np.ndarray
    delta: float
    tols: Tolerances = field(default=DEFAULT_TOLS, repr=False)
    validate: bool = True

    def __post_init__(self):
        self.phi = np.asarray(self.phi, dtype=float)
        k_y = self.model.subspace.shape[0]
        if self.phi.shape != (self.grid.n, k_y):
            raise InputError(f"phi has shape {self.phi.shape}, expected "
                             f"{(self.grid.n, k_y)}")
        if self.gauge.n_nodes != self.grid.n or self.gauge.dim != self.model.dim:
            raise InputError("gauge shape disagrees with grid/model")
        if not self.delta >= 0:
            raise InputError("delta must be nonnegative")
        if self.validate and k_y:
            self._check_domination()

    def _check_domination(self):
        rng = np.random.default_rng(_CERT_SEED)
        k_y = self.model.subspace.shape[0]
        coeffs = np.vstack([np.eye(k_y), -np.eye(k_y),
                            rng.standard_normal((64, k_y))])
        worst = _sampled_excess(self.gauge, coeffs @ self.model.subspace,
                                coeffs @ self.phi.T)
        if worst > 1e-9:
            raise InputError(
                f"input map is not dominated by the gauge (excess {worst:.3e})")

    def phi_values(self, coeffs):
        """phi at subspace coordinate stacks: (..., n_nodes, kY) -> (..., n_nodes)."""
        return np.einsum("...tj,tj->...t", coeffs, self.phi)


@dataclass(frozen=True)
class RadiusCertificate:
    radius: float
    margin: float
    witness_direction: np.ndarray | None
    witness_node: int | None
    degenerate_nodes: tuple
    sphere_samples: int


def sphere_table(model: VectorSpaceModel, gauge: Gauge, phi,
                 count: int = 5000):
    """Gauge and map values on normalized samples of the unit sphere of Y.

    Returns ``(g, p, dirs)``: ``g[s, t]`` is the gauge and ``p[s, t]`` the
    map at sample s and node t, and ``dirs[s]`` holds the sample's
    coordinates in the subspace basis.  The samples are fixed by
    ``_SPHERE_SEED``; the first 2 kY are the signed basis vectors.
    """
    k = model.subspace.shape[0]
    dirs = np.random.default_rng(_SPHERE_SEED).standard_normal((count, k))
    dirs[:2 * k] = np.vstack([np.eye(k), -np.eye(k)])[:min(2 * k, count)]
    y_amb = dirs @ model.subspace
    norms = model.norm.value(y_amb)
    y_amb = y_amb / norms[:, None]
    dirs = dirs / norms[:, None]
    g = gauge.values(np.broadcast_to(
        y_amb[:, None, :], (count, gauge.n_nodes, model.dim)))
    return g, dirs @ np.asarray(phi).T, dirs


def radius_bound(problem: ExtensionProblem, x, gauge: Gauge = None,
                 samples: int = 1000) -> RadiusCertificate:
    """Coercivity margin on the unit sphere of Y and a safe search radius.

    The margin is the least gauge-minus-map value over the
    ``5 * samples`` normalized subspace samples of :func:`sphere_table`
    and the nodes.  Nodes where the gauge vanishes on the whole subspace
    are exempt (the extension there is forced to zero) provided the map
    vanishes too.  Raises :class:`CoercivityError` when the margin is not
    positive, naming the violating direction.
    """
    x = np.asarray(x, dtype=float)
    model, grid = problem.model, problem.grid
    gauge = gauge or problem.gauge
    k_y = model.subspace.shape[0]
    x_gauge = gauge.values(np.broadcast_to(x, (grid.n, model.dim)))
    if k_y == 0:
        return RadiusCertificate(0.0, np.inf, None, None, (), 0)

    total = samples + 4 * samples
    g1, p1, d1 = sphere_table(model, gauge, problem.phi, total)
    m1 = g1 - p1

    # nodes where the gauge kills the whole subspace: extension forced there
    dead = np.max(g1, axis=0) <= 1e-13
    degenerate = tuple(int(t) for t in np.flatnonzero(dead))
    if degenerate:
        phi_dead = np.max(np.abs(p1[:, list(degenerate)]))
        if phi_dead > 1e-10:
            raise CoercivityError(
                "gauge vanishes on the subspace at nodes "
                f"{degenerate[:6]} but the map does not (|phi| up to "
                f"{phi_dead:.3e})")
    live = ~dead
    if not np.any(live):
        # everything is forced; any radius works
        return RadiusCertificate(0.0, np.inf, None, None, degenerate, total)

    m_live = m1[:, live]
    flat = int(np.argmin(m_live))
    s_idx, t_live = np.unravel_index(flat, m_live.shape)
    margin = float(m_live[s_idx, t_live])
    node = int(np.flatnonzero(live)[t_live])
    if margin <= 0.0:
        raise CoercivityError(
            f"coercivity failure: margin {margin:.3e} along direction "
            f"{np.round(d1[s_idx], 6).tolist()} at node {node}")
    phi_scale = float(np.max(np.abs(p1)))
    radius = (2.0 * float(np.max(x_gauge)) + phi_scale) / margin
    return RadiusCertificate(radius, margin, d1[s_idx], node, degenerate,
                             total)


@dataclass(frozen=True)
class EnvelopePair:
    lower: np.ndarray   # u: greatest admissible lower bound per node
    upper: np.ndarray   # l: least admissible upper bound per node
    radius: float
    gap: np.ndarray     # certified duality gap per node (inf: none)

    @property
    def gap_min(self) -> float:
        return float(np.min(self.upper - self.lower))


def envelopes(problem: ExtensionProblem, x, gauge: Gauge = None,
              radius: float = None) -> EnvelopePair:
    """Admissible value tube for the extension at a new direction.

    Per node, the lower envelope is the supremum of ``phi(y) - m(y - x)``
    and the upper envelope the infimum of ``-phi(y) + m(y + x)`` over the
    radius ball of the subspace.  For gauges with closed-form norm terms
    both signs of every node go to one call of
    :func:`~tracefield.solvers.minimize_norm_sum`, which returns each value
    with a dual lower bound: the true envelope lies between the reported
    one and the reported one moved by ``gap`` into the tube.  The
    inf-type gauges (quotient, inf-convolution) have no such terms and go
    through the pattern search of
    :func:`~tracefield.solvers.minimize_batched`; their values are
    uncertified (``gap`` is inf).  Raises :class:`EnvelopeError` when the
    tube comes out crossed.
    """
    x = np.asarray(x, dtype=float)
    model, grid = problem.model, problem.grid
    gauge = gauge or problem.gauge
    if radius is None:
        radius = radius_bound(problem, x, gauge).radius
    k_y = model.subspace.shape[0]
    n = grid.n

    if k_y == 0 or radius == 0.0:
        vals = gauge.values(np.broadcast_to(x, (n, model.dim)))
        pair = EnvelopePair(-vals, vals, 0.0, np.zeros(n))
    else:
        terms = gauge.norm_terms()
        if terms is None:
            pair = _pattern_envelopes(problem, x, gauge, radius)
        else:
            pair = _conic_envelopes(problem, x, terms, radius)

    if pair.gap_min < -problem.tols.solver:
        raise EnvelopeError(
            f"inconsistent instance: envelope tube crossed by {-pair.gap_min:.3e}")
    return pair


def _conic_envelopes(problem, x, terms, radius):
    """Both envelope signs of every node as one sum-of-norms batch.

    The variables are the subspace coordinates c followed by each term's
    free coordinates y.  The search ball becomes one Euclidean ball over all
    of them that contains the model-norm ball of c times, per term, a ball
    that holds a minimizing y for every such c; it contains the minimizer,
    so the minimum is unchanged.
    """
    model, n = problem.model, problem.grid.n
    b, dim = model.subspace, model.dim
    k_y = b.shape[0]
    w = np.ones(dim) if model.norm.weights is None else model.norm.weights
    kappa = np.sqrt(dim) if model.norm.p == float("inf") else 1.0
    balls = [(w[:, None] * b.T) / (kappa * radius)]
    z_max = np.linalg.norm(x) + kappa * radius / np.min(w)

    k = k_y + sum(t.Y.shape[-1] for t in terms if t.Y is not None)
    nterms = []
    for t in terms:
        P = np.asarray(t.P, dtype=float)
        A = np.zeros(P.shape[:-1] + (k,))
        A[..., :k_y] = P @ b.T
        if t.Y is not None:
            # a minimizing y has N(Pz + Yy) <= N(Pz), so |Pz + Yy| is at
            # most sqrt(rows) |Pz| and |y| <= |Y⁺| (sqrt(rows) + 1) |P| |z|
            col = sum(m.shape[1] for m in balls)
            r = t.Y.shape[-1]
            A[..., col:col + r] = t.Y
            flat = t.Y.reshape(-1, r)
            y_max = (np.sqrt(flat.shape[0]) + 1.0) * z_max \
                * np.linalg.norm(P.reshape(-1, dim), 2) \
                / np.linalg.svd(flat, compute_uv=False)[-1]
            balls.append(np.eye(r) / y_max)
        b_x = P @ x
        if P.shape[0] > 1:
            A, b_x = np.concatenate([A, A]), np.concatenate([b_x, b_x])
        nterms.append(NormTerm(np.concatenate([t.weight, t.weight]), A, b_x,
                               t.maxabs))
    g = np.zeros((2 * n, k))
    g[:n, :k_y] = -problem.phi
    g[n:, :k_y] = problem.phi
    _, value, lower = minimize_norm_sum(nterms, g, block_diag(*balls),
                                        np.sqrt(len(balls)))
    gap = value - lower
    return EnvelopePair(-value[n:], value[:n], radius,
                        np.maximum(gap[:n], gap[n:]))


def _pattern_envelopes(problem, x, gauge, radius):
    """Envelopes of an inf-type gauge by pattern search (uncertified)."""
    model, n = problem.model, problem.grid.n
    b = model.subspace

    def solve(sign):
        def fun(coeffs):
            return (gauge.values(coeffs @ b + x)
                    + sign * problem.phi_values(coeffs))

        _, vals = minimize_batched(
            fun, b.shape[0], n_nodes=n, radius=radius,
            ball_norm=lambda c: model.norm.value(c @ b))
        return vals

    return EnvelopePair(-solve(+1.0), solve(-1.0), radius,
                        np.full(n, np.inf))


def select_continuous(lower, upper, grid: Grid):
    """Total-variation-minimal selection inside a tube, ties to the midpoint.

    Path and circle grids use the exact flat-bottom sweep; general graphs use
    a two-stage linear program.  The result satisfies lower <= f <= upper
    exactly.
    """
    lower = grid.check_field(lower)
    upper = grid.check_field(upper)
    if np.any(lower > upper):
        raise EnvelopeError("selection tube is empty")
    if grid.kind == "path":
        order = _path_order(grid)
        f = np.zeros(grid.n)
        f[order] = taut_string_path(lower[order], upper[order])
        return f
    if grid.kind == "circle":
        order = _cycle_order(grid)
        f = np.zeros(grid.n)
        f[order] = taut_string_cycle(lower[order], upper[order])
        return f
    f, _ = tube_tv_graph(lower, upper, grid.edges)
    return np.clip(f, lower, upper)


def _path_order(grid: Grid):
    degree = np.zeros(grid.n, dtype=int)
    for i, j in grid.edges:
        degree[i] += 1
        degree[j] += 1
    ends = np.flatnonzero(degree == 1)
    if len(ends) != 2:
        raise InputError("grid marked as path is not a path")
    order, prev, cur = [int(ends[0])], -1, int(ends[0])
    while len(order) < grid.n:
        nxt = [j for j, _ in grid.neighbors(cur) if j != prev]
        if not nxt:
            raise InputError("grid marked as path is not a path")
        prev, cur = cur, nxt[0]
        order.append(cur)
    return np.array(order)


def _cycle_order(grid: Grid):
    order, prev, cur = [0], -1, 0
    while True:
        nxt = [j for j, _ in grid.neighbors(cur) if j != prev]
        if not nxt:
            raise InputError("grid marked as circle is not a cycle")
        prev, cur = cur, nxt[0]
        if cur == 0:
            break
        order.append(cur)
    if len(order) != grid.n:
        raise InputError("grid marked as circle is not a single cycle")
    return np.array(order)


@dataclass(frozen=True)
class StepCertificate:
    direction_index: int
    budget: float
    radius: float
    margin: float
    gap_min: float
    gap_max: float
    selection: np.ndarray
    domination_excess: float


@dataclass
class ExtensionResult:
    """Extended map, its basis bookkeeping, and per-step certificates."""

    grid: Grid
    model: VectorSpaceModel
    matrix: np.ndarray            # (n_nodes, dim): node row pairs with z
    basis: np.ndarray             # rows: subspace basis then added directions
    values: np.ndarray            # (n_nodes, len(basis)) values on the basis
    steps: list
    final_excess: float

    def evaluate(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        return self.matrix @ z

    def evaluate_many(self, zs) -> np.ndarray:
        return np.asarray(zs, dtype=float) @ self.matrix.T


def _step_gauge(problem, terms):
    if not terms:
        return problem.gauge
    return AugmentedGauge(problem.gauge, list(terms))


def _quotient_term(problem, remaining_rows, budget):
    if budget == 0.0:
        return None
    model = problem.model
    if model.per_node_nilspace():
        dists = [SubspaceDistance(
            np.vstack([remaining_rows, model.nilspace_at(t)]), model.norm)
            for t in range(problem.grid.n)]
        return (budget, dists)
    rows = np.vstack([remaining_rows, model.nilspace_at(0)])
    return (budget, SubspaceDistance(rows, model.norm))


def extend_one(problem: ExtensionProblem, x, gauge: Gauge = None,
               direction_index: int = 0, budget: float = None) -> tuple:
    """Extend the map over one new direction.

    Returns ``(new_problem, certificate)`` where the new problem's subspace
    is Y + span(x) and ``certificate.selection`` is the chosen value field
    for x.  The selection is taken from the tube shrunk at each end by the
    certified envelope gap, at least ``tols.select_guard`` and at most a
    quarter of the width, so that solver error cannot push it outside the
    true admissible interval.
    """
    x = np.asarray(x, dtype=float)
    model = problem.model
    if model.subspace.shape[0]:
        q = orthonormal_rows(model.subspace)
        resid = x - (x @ q.T) @ q
    else:
        resid = x
    if np.linalg.norm(resid) <= 1e-8 * max(np.linalg.norm(x), 1e-30):
        raise InputError("new direction lies in the current subspace")
    gauge = gauge or problem.gauge
    cert_r = radius_bound(problem, x, gauge)
    pair = envelopes(problem, x, gauge, cert_r.radius)
    width = pair.upper - pair.lower
    guard = np.minimum(np.maximum(pair.gap, problem.tols.select_guard),
                       np.maximum(width, 0) / 4)
    lo = pair.lower + guard
    hi = np.maximum(pair.upper - guard, lo)   # solver noise can cross the tube
    f = select_continuous(lo, hi, problem.grid)

    new_sub = np.vstack([model.subspace, x[None, :]])
    new_comp = _reduce_complement(model, new_sub)
    new_model = VectorSpaceModel(model.dim, model.norm, new_sub, new_comp,
                                 model.nilspace)
    new_phi = np.hstack([problem.phi, f[:, None]])
    new_problem = ExtensionProblem(problem.grid, new_model, problem.gauge,
                                   new_phi, problem.delta, problem.tols,
                                   validate=False)
    coeffs = np.random.default_rng(_CERT_SEED + direction_index) \
        .standard_normal((256, new_sub.shape[0]))
    excess = _sampled_excess(gauge, coeffs @ new_sub, coeffs @ new_phi.T)
    cert = StepCertificate(direction_index,
                           problem.delta if budget is None else budget,
                           cert_r.radius, cert_r.margin, pair.gap_min,
                           float(np.max(pair.gap)), f, excess)
    return new_problem, cert


def _reduce_complement(model, new_sub):
    keep = []
    stacked = new_sub
    for row in model.complement:
        trial = np.vstack([stacked, row[None, :]])
        if orthonormal_rows(trial).shape[0] == trial.shape[0]:
            keep.append(row)
            stacked = trial
    return np.vstack(keep) if keep else np.zeros((0, model.dim))


def extend_full(problem: ExtensionProblem, order=None) -> ExtensionResult:
    """Extend over the whole complement basis with geometric budgets.

    Step k (0-based) augments the gauge by ``delta / 2^k`` times the
    distance to the span of the not-yet-extended complement directions plus
    the nilspace, so the accumulated augmentation stays below
    ``2 delta ||.||``.  The result is deterministic given the order.
    """
    model = problem.model
    k_c = model.complement.shape[0]
    if order is None:
        order = list(range(k_c))
    order = [int(i) for i in order]
    if sorted(order) != list(range(k_c)):
        raise InputError("order must enumerate every complement direction")

    cur = problem
    terms = []
    steps = []
    for step, idx in enumerate(order):
        x = model.complement[idx]
        # quotient subspace of this step: every direction not yet extended,
        # including the current one, so that the added distance term ignores
        # movement along x itself
        remaining = model.complement[[j for j in order[step:]]]
        budget = problem.delta / (2.0 ** step)
        term = _quotient_term(problem, remaining, budget)
        if term is not None:
            terms.append(term)
        gauge_k = _step_gauge(problem, terms)
        try:
            cur, cert = extend_one(cur, x, gauge_k, direction_index=idx,
                                   budget=budget)
        except (CoercivityError, EnvelopeError) as exc:
            raise type(exc)(f"extension step {step} (direction {idx}): {exc}")
        steps.append(cert)

    basis = cur.model.subspace
    if basis.shape[0] != model.dim:
        raise InputError("extension did not reach the full space")
    # node row q_t solves  basis @ q_t = values[t]
    matrix = np.linalg.solve(basis, cur.phi.T).T
    final_excess = _final_excess(problem, matrix)
    return ExtensionResult(problem.grid, model, matrix, basis, cur.phi,
                           steps, final_excess)


def _final_excess(problem: ExtensionProblem, matrix, count=1000):
    """max over random z of |phi_tilde(z)| - m(z) - 2 delta ||z||."""
    zs = np.random.default_rng(_CERT_SEED).standard_normal(
        (count, problem.model.dim))
    slack = 2.0 * problem.delta * problem.model.norm.value(zs)[:, None]
    return _sampled_excess(problem.gauge, zs, zs @ matrix.T, slack)


def _sampled_excess(gauge: Gauge, zs, vals, slack=0.0) -> float:
    """Sampled domination excess ``max |vals| - (m(z) + slack)`` of a map
    with values ``vals[s, t]`` at the points ``zs[s]``, over samples and
    nodes."""
    g = gauge.values(np.broadcast_to(
        zs[:, None, :], (zs.shape[0], gauge.n_nodes, zs.shape[1])))
    return float(np.max(np.abs(vals) - (g + slack)))


def restriction_residual(result: ExtensionResult, problem: ExtensionProblem):
    """max |phi_tilde(y_j)(t) - phi(y_j)(t)| over the original basis."""
    vals = problem.model.subspace @ result.matrix.T
    return float(np.max(np.abs(vals.T - problem.phi)))
