"""Sampled state spaces, function representation, and LP envelopes.

The state space of a block-matrix algebra is replaced by a deterministic
finite sample of states; selfadjoint elements become vectors of pairings
against the sample.  Functionals on the sampled function space are signed
weight vectors whose norm is the weight 1-norm, which makes the extension
envelopes of a map finite linear programs.  The sampling error is always
quantified (isometry defect) and reported alongside results.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import ConvexHull

from .algebra import (AlgebraDescriptor, AlgebraError, Element, FunctionalRep,
                      op_norm)
from .config import Tolerances, DEFAULT_TOLS
from .errors import InputError
from .fields import MapField, evaluate, pointwise_norm
from .solvers import SolverError, lp_solve, orthonormal_rows


@dataclass(frozen=True)
class StateSample:
    """Deterministic finite sample of states of a block algebra.

    Every state is positive with total trace one.  For size-one blocks the
    sample contains all vertex states (the extreme points); matrix blocks
    contribute the spectral states of a fixed operator basis plus a seeded
    rotation-invariant sample of pure states.
    """

    algebra: AlgebraDescriptor
    stacks: list = field(repr=False)   # per block: (S, d, d) complex
    seed: int = 0

    @property
    def count(self) -> int:
        return self.stacks[0].shape[0]

    def state_at(self, s: int) -> FunctionalRep:
        return FunctionalRep(self.algebra, [st[s] for st in self.stacks])

    def pair_element(self, x: Element) -> np.ndarray:
        """Vector of pairings of every sampled state with x."""
        vals = np.zeros(self.count, dtype=complex)
        for st, m in zip(self.stacks, x.blocks):
            vals += np.einsum("sij,ji->s", st, m)
        return vals.real


def _basis_pure_states(d):
    """Rank-one projections of a fixed spanning operator basis of M_d."""
    vecs = [np.eye(d, dtype=complex)[:, i] for i in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            v = np.zeros(d, dtype=complex)
            v[i] = v[j] = 1 / np.sqrt(2)
            vecs.append(v.copy())
            v[j] = 1j / np.sqrt(2)
            vecs.append(v.copy())
    return [np.outer(v, v.conj()) for v in vecs]


def sample_state_space(algebra: AlgebraDescriptor, count: int,
                       seed: int = 0) -> StateSample:
    """Deterministic state sample of at least ``count`` states.

    Includes every vertex state of the size-one blocks and the spanning
    spectral states of each matrix block, topped up with seeded random pure
    states distributed uniformly over each block's unit vectors.
    """
    if count < algebra.dim:
        raise InputError(
            f"state sample needs at least dim(A) = {algebra.dim} states")
    rng = np.random.default_rng(seed)
    blocks = algebra.blocks
    states = []   # list of per-block matrix lists

    def embed(block_index, mat):
        return [mat if b == block_index else np.zeros((d, d), dtype=complex)
                for b, d in enumerate(blocks)]

    for b, d in enumerate(blocks):
        if d == 1:
            states.append(embed(b, np.ones((1, 1), dtype=complex)))
        else:
            for p in _basis_pure_states(d):
                states.append(embed(b, p))

    weights = np.array([blocks[b] ** 2 for b in range(len(blocks))],
                       dtype=float)
    weights /= weights.sum()
    while len(states) < count:
        b = int(rng.choice(len(blocks), p=weights))
        d = blocks[b]
        if d == 1:
            states.append(embed(b, np.ones((1, 1), dtype=complex)))
            continue
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        v /= np.linalg.norm(v)
        states.append(embed(b, np.outer(v, v.conj())))

    stacks = [np.stack([st[b] for st in states]) for b in range(len(blocks))]
    return StateSample(algebra, stacks, seed)


def kadison_represent(x: Element, sample: StateSample) -> np.ndarray:
    """Function representation of a selfadjoint element on the sample."""
    if not x.selfadjoint:
        raise AlgebraError("function representation expects selfadjoint input")
    return sample.pair_element(x)


@dataclass(frozen=True)
class FunctionSpaceRep:
    """Function representation of an element family, with its isometry defect."""

    sample: StateSample
    elements: list
    values: np.ndarray          # (n_elements, S)
    defects: np.ndarray         # op_norm(x) - max_s |x_hat(s)| >= 0

    @property
    def max_defect(self) -> float:
        return float(np.max(self.defects)) if self.defects.size else 0.0


def represent_family(elements, sample: StateSample) -> FunctionSpaceRep:
    values = np.stack([kadison_represent(x, sample) for x in elements]) \
        if elements else np.zeros((0, sample.count))
    defects = np.array([op_norm(x) - np.max(np.abs(v))
                        for x, v in zip(elements, values)])
    if defects.size and float(np.min(defects)) < -1e-9:
        raise AlgebraError("sampled sup exceeds the operator norm")
    return FunctionSpaceRep(sample, list(elements), values, defects)


@dataclass(frozen=True)
class LPEnvelopeValue:
    value: float
    weights: np.ndarray
    weight_norm: float
    bound: float
    saturated: bool      # whether the optimum uses the full norm budget


def lp_envelope(constraint_values: np.ndarray, targets: np.ndarray,
                objective_values: np.ndarray, bound: float,
                direction: str = "max") -> LPEnvelopeValue:
    """Optimize a signed weight vector on the state sample.

    maximize / minimize   sum_s w_s * objective(s)
    subject to            sum_s w_s * constraint_j(s) = target_j   (all j)
                          sum_s |w_s| <= bound

    The norm cap uses an inequality; the result records whether the optimum
    saturates it.  Infeasibility raises :class:`SolverError` with a
    diagnosis of the violated constraint.
    """
    if direction not in ("max", "min"):
        raise InputError("direction must be 'max' or 'min'")
    a = np.atleast_2d(np.asarray(constraint_values, dtype=float))
    targets = np.asarray(targets, dtype=float).reshape(-1)
    obj = np.asarray(objective_values, dtype=float).reshape(-1)
    n_c, n_s = a.shape
    if targets.shape != (n_c,) or obj.shape != (n_s,):
        raise InputError("LP envelope shapes disagree")
    if bound < 0:
        raise InputError("norm bound must be nonnegative")

    # split w = p - q with p, q >= 0
    c = np.concatenate([obj, -obj])
    sign = -1.0 if direction == "max" else 1.0
    a_eq = np.hstack([a, -a])
    a_ub = np.ones((1, 2 * n_s))
    try:
        res = lp_solve(sign * c, A_ub=a_ub, b_ub=[bound], A_eq=a_eq,
                       b_eq=targets, bounds=[(0, None)] * (2 * n_s),
                       context="envelope LP")
    except SolverError:
        reason = _diagnose_infeasible(a, targets, bound)
        if reason is None:
            raise
        raise SolverError(f"envelope LP infeasible: {reason}")
    w = res.x[:n_s] - res.x[n_s:]
    norm = float(np.sum(np.abs(res.x)))
    value = float(obj @ w)
    return LPEnvelopeValue(value, w, norm, float(bound),
                           bool(norm >= bound - 1e-9 * (1 + bound)))


def _diagnose_infeasible(a, targets, bound):
    """What makes the constraint system empty, or None if it is not."""
    n_c, n_s = a.shape
    # minimal weight norm achieving the equalities, ignoring the cap
    c = np.ones(2 * n_s)
    a_eq = np.hstack([a, -a])
    try:
        res = lp_solve(c, A_eq=a_eq, b_eq=targets,
                       bounds=[(0, None)] * (2 * n_s),
                       context="envelope feasibility LP")
    except SolverError:
        resid = np.linalg.lstsq(a.T, targets, rcond=None)[1]
        return ("the equality constraints are inconsistent on this sample "
                f"(lstsq residual {resid})")
    need = float(res.fun)
    if need > bound:
        return (f"constraints need weight norm >= {need:.6g} but the cap "
                f"is {bound:.6g}")
    return None


def min_norm_measure(constraint_values, targets):
    """Smallest-1-norm signed weights matching the given pairings."""
    a = np.atleast_2d(np.asarray(constraint_values, dtype=float))
    targets = np.asarray(targets, dtype=float).reshape(-1)
    n_s = a.shape[1]
    res = lp_solve(np.ones(2 * n_s), A_eq=np.hstack([a, -a]), b_eq=targets,
                   bounds=[(0, None)] * (2 * n_s),
                   context="minimal measure LP")
    return res.x[:n_s] - res.x[n_s:]


@dataclass(frozen=True)
class EnvelopeField:
    upper: np.ndarray
    lower: np.ndarray
    bounds: np.ndarray
    saturated_upper: np.ndarray
    saturated_lower: np.ndarray
    max_defect: float


# Above this span rank the hull grows too fast to pay for itself: Quickhull
# on 2S Gaussian points (S = 150, 250) took 8-10 ms at rank 5, 52-60 ms at
# rank 6 and 0.27-0.74 s at rank 7 with up to 54k facets (one core of a
# Xeon KVM guest), against about 5 ms per node LP.
_HULL_MAX_RANK = 5
_RANK_TOL = 1e-10   # singular values below this times the largest are zero
_TOL = 1e-9         # relative slack of the membership and saturation tests


def envelope_field(phi: MapField, f_elements, x: Element, delta_n: float,
                   sample: StateSample) -> EnvelopeField:
    """Nodewise LP envelopes of the extensions of phi restricted to a family.

    Per node t the admissible extensions match phi on the family and have
    weight norm at most ``B(t) = pointwise_norm(phi)(t) + delta_n``; the
    fields of maximal and minimal attainable values at x are returned
    together with the norm-cap saturation flags and the sample's isometry
    defect.

    Every node's LP has the same constraint matrix and objective, and the
    image of the weight ball ``{(Aw, x_hat w) : |w|_1 <= B}`` is ``B K`` with
    ``K = conv{±(a_s, x_hat_s)}``.  The envelopes at t are B(t) times the
    top and bottom of K above ``targets[t] / B(t)``, read off one convex hull
    of K for all nodes.  Above ``_HULL_MAX_RANK`` each node solves its LP.
    An infeasible node raises :class:`SolverError` naming the node.
    """
    rep = represent_family(list(f_elements), sample)
    x_hat = kadison_represent(x, sample)
    bounds = pointwise_norm(phi) + float(delta_n)
    targets = np.stack([evaluate(phi, y) for y in f_elements], axis=1) \
        if f_elements else np.zeros((phi.grid.n, 0))
    if not np.all(bounds >= 0):
        raise InputError("norm bound must be nonnegative")
    hull = _hull_envelopes(np.vstack([rep.values, x_hat]).T, targets, bounds)
    if hull is None:
        upper, lower, sat_u, sat_l = _lp_envelopes(rep.values, targets, x_hat,
                                                   bounds)
    else:
        upper, lower, sat_u, sat_l, feasible = hull
        if not np.all(feasible):
            t = int(np.argmin(feasible))
            reason = _diagnose_infeasible(rep.values, targets[t],
                                          bounds[t]) or \
                f"no weight vector within the cap {bounds[t]:.6g} matches phi"
            raise SolverError(f"node {t}: envelope LP infeasible: {reason}")
    return EnvelopeField(upper, lower, bounds, sat_u, sat_l, rep.max_defect)


def _hull_envelopes(points, targets, bounds):
    """Envelopes of all nodes from the facets of K = conv(±points).

    ``points`` holds the rows (a_s, x_hat_s).  Returns (upper, lower,
    saturated upper, saturated lower, feasible), or None when the points
    span no dimension or more than ``_HULL_MAX_RANK``.
    """
    _, sv, vt = np.linalg.svd(points, full_matrices=False)
    r = int(np.sum(sv > _RANK_TOL * sv[0]))
    if not 1 <= r <= _HULL_MAX_RANK:
        return None
    u = vt[:r]                                   # orthonormal span rows
    coords = points @ u.T
    if r == 1:
        h = np.max(np.abs(coords))
        normals, offsets = np.array([[1.0], [-1.0]]), np.array([h, h])
    else:
        eq = ConvexHull(np.vstack([coords, -coords])).equations
        normals, offsets = eq[:, :-1], -eq[:, -1]   # K = {N c <= b}, b > 0

    k = points.shape[1] - 1
    m, u_y = u[:, :k], u[:, k]           # z = (q, y) has c = m q + u_y y
    # distances in the span are judged relative to the radius of K
    tol = _TOL * float(np.max(np.linalg.norm(points, axis=1)))
    n = bounds.shape[0]
    pos = bounds > 0
    q = targets[pos] / bounds[pos, None]
    if 1.0 - u_y @ u_y <= _TOL:
        # |u_y| = 1, so e_y lies in the span: y runs along the line through
        # c0 = m q
        c0 = q @ m.T
        resid = np.linalg.norm(q - c0 @ m, axis=1)
        slack = offsets - c0 @ normals.T
        slope = normals @ u_y
        up, down = slope > _TOL, slope < -_TOL
        y_hi = np.min(slack[:, up] / slope[up], axis=1)
        y_lo = np.max(slack[:, down] / slope[down], axis=1)
        c_hi = c0 + y_hi[:, None] * u_y
        c_lo = c0 + y_lo[:, None] * u_y
    else:
        # y is pinned: the span meets the line in one point
        c_hi = c_lo = np.linalg.lstsq(m.T, q.T, rcond=None)[0].T
        resid = np.linalg.norm(q - c_hi @ m, axis=1)
        y_hi = y_lo = c_hi @ u_y
    # largest signed distance past a facet plane: < 0 inside K, 0 on its
    # boundary, where every weight vector reaching c has norm B
    out_hi = np.max(c_hi @ normals.T - offsets, axis=1)
    out_lo = np.max(c_lo @ normals.T - offsets, axis=1)

    upper, lower = np.zeros(n), np.zeros(n)
    sat_u, sat_l = np.ones(n, dtype=bool), np.ones(n, dtype=bool)
    # a zero cap admits only w = 0
    feasible = np.all(targets == 0, axis=1)
    upper[pos], lower[pos] = bounds[pos] * y_hi, bounds[pos] * y_lo
    sat_u[pos], sat_l[pos] = out_hi >= -tol, out_lo >= -tol
    feasible[pos] = (resid <= tol) & (np.maximum(out_hi, out_lo) <= tol)
    return upper, lower, sat_u, sat_l, feasible


def _lp_envelopes(a, targets, x_hat, bounds):
    """The same envelopes from two LPs per node."""
    n = bounds.shape[0]
    upper, lower = np.zeros(n), np.zeros(n)
    sat_u, sat_l = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
    for t in range(n):
        try:
            hi = lp_envelope(a, targets[t], x_hat, bounds[t], "max")
            lo = lp_envelope(a, targets[t], x_hat, bounds[t], "min")
        except SolverError as exc:
            raise SolverError(f"node {t}: {exc}") from exc
        upper[t], lower[t] = hi.value, lo.value
        sat_u[t], sat_l[t] = hi.saturated, lo.saturated
    return upper, lower, sat_u, sat_l


# ---------------------------------------------------------------------------
# decomposable approximation study

@dataclass(frozen=True)
class ApproximationStage:
    family_size: int
    delta_n: float
    distances: np.ndarray        # per test element: max_t |approx - phi|
    measure_norms: np.ndarray    # per node: ||w_t||_1 of the realized measure
    measure_residual: float      # representation residual of the measures
    extension_excess: float


@dataclass(frozen=True)
class ApproximationStudy:
    stages: list
    test_names: list
    distances: np.ndarray        # (n_stages, n_tests)
    max_defect: float


def decomposable_approximation_study(phi: MapField, chain, delta_seq,
                                     sample: StateSample, test_elements,
                                     extension_delta: float = 1e-6,
                                     tols: Tolerances = DEFAULT_TOLS
                                     ) -> ApproximationStudy:
    """Approximate a map field by maps that split into positive parts.

    For every stage n the restriction of phi to the n-th element family is
    extended from its function representation to the span of all test
    directions, dominated nodewise by ``(pointwise_norm(phi)(t) + delta_n)``
    times the sampled sup norm, then realized as a signed measure on the
    state sample whose positive and negative parts give the stage's
    decomposable approximant.  Reported per stage: elementwise distances to
    phi on the test elements, the measure norms, and certificates.

    ``chain`` is a list of growing element families (each containing the
    unit); ``test_elements`` is a list of (name, Element) pairs.
    """
    from .extension import ExtensionProblem, extend_full
    from .seminorms import BaseNorm, MaxAbsLinear, VectorSpaceModel

    if len(chain) != len(delta_seq):
        raise InputError("need one slack per chain stage")
    names = [n for n, _ in test_elements]
    tests = [x for _, x in test_elements]
    norms = pointwise_norm(phi)
    phi_on_tests = np.stack([evaluate(phi, x) for x in tests], axis=1)

    test_rep = np.stack([kadison_represent(x, sample) for x in tests]) \
        if tests else np.zeros((0, sample.count))

    stages = []
    all_dists = []
    max_defect = 0.0
    for fam, delta_n in zip(chain, delta_seq):
        fam = list(fam)
        rep = represent_family(fam, sample)
        max_defect = max(max_defect, rep.max_defect)
        k_fam = len(fam)
        if orthonormal_rows(rep.values).shape[0] != k_fam:
            raise InputError("stage family is linearly dependent on the "
                             "sample; choose independent elements")

        # ambient: the family plus the test directions not already spanned
        values = rep.values
        for row in test_rep:
            trial = np.vstack([values, row])
            if orthonormal_rows(trial).shape[0] == trial.shape[0]:
                values = trial
        k_all = values.shape[0]
        coords = np.linalg.lstsq(values.T, test_rep.T, rcond=None)[0]
        span_err = float(np.max(np.abs(values.T @ coords - test_rep.T))) \
            if test_rep.size else 0.0
        if span_err > 1e-9:
            raise InputError("test elements do not lie in the ambient span "
                             f"(residual {span_err:.3e})")

        # coordinates z in R^k_all represent the function sum_j z_j v_j;
        # the sampled sup norm is a max of absolute linear functionals
        gauge = MaxAbsLinear(values.T, phi.grid.n,
                             scale=norms + float(delta_n))
        model = VectorSpaceModel(
            k_all, BaseNorm(2.0),
            subspace=np.eye(k_all)[:k_fam],
            complement=np.eye(k_all)[k_fam:])
        phi_vals = np.stack([evaluate(phi, y) for y in fam], axis=1)
        problem = ExtensionProblem(phi.grid, model, gauge, phi_vals,
                                   float(extension_delta), tols)
        result = extend_full(problem) if k_all > k_fam else None
        matrix = result.matrix if result is not None else phi_vals

        # values of the extension on the test directions
        approx = matrix @ coords                   # (n_nodes, n_tests)
        dists = np.max(np.abs(approx - phi_on_tests), axis=0)

        # realize each node's extension as a signed measure on the sample
        w_norms = np.zeros(phi.grid.n)
        measure_resid = 0.0
        for t in range(phi.grid.n):
            w = min_norm_measure(values, matrix[t])
            w_norms[t] = float(np.sum(np.abs(w)))
            measure_resid = max(measure_resid,
                                float(np.max(np.abs(values @ w - matrix[t]))))
        stages.append(ApproximationStage(
            k_fam, float(delta_n), dists, w_norms, measure_resid,
            result.final_excess if result is not None else 0.0))
        all_dists.append(dists)
    return ApproximationStudy(stages, names, np.stack(all_dists), max_defect)
