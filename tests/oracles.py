"""Independent brute-force oracles used to cross-check the package.

Everything here is written against the raw mathematical definitions
(characteristic polynomials, corner/dense enumeration, direct linear
programs), sharing no optimization code with the package paths it checks.
The grid measurements at the end (one-sided jump defects, partitions of
unity) are what tests use to check refinement trends and patchwise
extensions.
"""

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import block_diag, csr_matrix
from scipy.sparse.csgraph import dijkstra

from tracefield.grids import Grid, GridError


def eigvals_2x2(mat):
    """Eigenvalues of a 2x2 Hermitian matrix from its characteristic polynomial."""
    a = complex(mat[0, 0]).real
    d = complex(mat[1, 1]).real
    b = complex(mat[0, 1])
    tr, det = a + d, a * d - (b * b.conjugate()).real
    disc = np.sqrt(max(tr * tr - 4 * det, 0.0))
    return np.array([(tr - disc) / 2, (tr + disc) / 2])


def commutative_functional_norm(weights):
    """sup of |sum w_i x_i| over the corner points x in {-1, 1}^k."""
    weights = np.asarray(weights, dtype=float)
    k = len(weights)
    best = 0.0
    for bits in range(2 ** k):
        x = np.array([1.0 if (bits >> i) & 1 else -1.0 for i in range(k)])
        best = max(best, abs(float(weights @ x)))
    return best


def scan_min_1d(fun, radius, points=4001, refine_iters=90):
    """Global minimum of a convex scalar function on [-radius, radius]."""
    xs = np.linspace(-radius, radius, points)
    vals = np.array([fun(x) for x in xs])
    k = int(np.argmin(vals))
    lo, hi = xs[max(k - 1, 0)], xs[min(k + 1, points - 1)]
    for _ in range(refine_iters):
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        if fun(m1) <= fun(m2):
            hi = m2
        else:
            lo = m1
    x = 0.5 * (lo + hi)
    return fun(x), x


def scan_min_2d(fun, radius, points=161, shrink_rounds=60):
    """Global minimum of a convex function on the radius box in R^2."""
    xs = np.linspace(-radius, radius, points)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel()], axis=-1)
    vals = np.array([fun(p) for p in pts])
    best = pts[int(np.argmin(vals))]
    best_val = float(np.min(vals))
    r = 2 * radius / (points - 1)
    offs = np.array([[i, j] for i in (-1, 0, 1) for j in (-1, 0, 1)
                     if (i, j) != (0, 0)], dtype=float)
    for _ in range(shrink_rounds):
        cand = best + r * offs
        cvals = np.array([fun(p) for p in cand])
        k = int(np.argmin(cvals))
        if cvals[k] < best_val:
            best, best_val = cand[k], float(cvals[k])
        else:
            r *= 0.5
    return best_val, best


def tube_tv_lp(lo, hi, edges):
    """Minimal total variation in a tube, as a direct linear program."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    edges = np.asarray(edges, dtype=int).reshape(-1, 2)
    n, m = lo.shape[0], edges.shape[0]
    c = np.concatenate([np.zeros(n), np.ones(m)])
    rows, cols, data, b = [], [], [], []
    for e, (i, j) in enumerate(edges):
        rows += [2 * e] * 3 + [2 * e + 1] * 3
        cols += [i, j, n + e, i, j, n + e]
        data += [1, -1, -1, -1, 1, -1]
        b += [0.0, 0.0]
    a_ub = np.zeros((2 * m, n + m))
    a_ub[rows, cols] = data
    bounds = [(lo[i], hi[i]) for i in range(n)] + [(0, None)] * m
    res = linprog(c, A_ub=a_ub, b_ub=b, bounds=bounds, method="highs")
    assert res.success, res.message
    return float(res.fun)


def signed_measure_lp_dual(constraint_values, targets, objective_values,
                           bound):
    """Dual bound of the max-direction signed-measure program.

    maximize sum_s w_s x_s  s.t.  Y w = b, ||w||_1 <= r
    has the dual  minimize b . mu + r * lam  s.t.  lam >= |x_s - mu . y_s|.
    Strong duality makes the two values equal for feasible programs.
    """
    y = np.atleast_2d(np.asarray(constraint_values, dtype=float))
    b = np.asarray(targets, dtype=float).reshape(-1)
    x = np.asarray(objective_values, dtype=float).reshape(-1)
    m, s = y.shape
    # variables (mu, lam)
    c = np.concatenate([b, [bound]])
    a_ub = np.zeros((2 * s, m + 1))
    a_ub[:s, :m] = -y.T
    a_ub[:s, m] = -1.0
    a_ub[s:, :m] = y.T
    a_ub[s:, m] = -1.0
    b_ub = np.concatenate([-x, x])
    res = linprog(c, A_ub=a_ub, b_ub=b_ub,
                  bounds=[(None, None)] * m + [(0, None)], method="highs")
    assert res.success, res.message
    return float(res.fun)


def quotient_bar_scan(m_at_node, norm_value, w_dir, z, delta, radius=30.0):
    """Dense 1-D scan oracle for the bar quotient over a single direction."""
    def fun(s):
        v = z + s * w_dir
        return m_at_node(v) + delta * norm_value(v)

    val, _ = scan_min_1d(fun, radius)
    return val


def cycle_flat_bottom(lo, hi):
    """Full scan of the pinned-value cost of a tube around a cycle.

    With node 0 pinned at v, the least total variation around the cycle is
    convex and piecewise linear in v, with its kinks among the tube bounds.
    The scan evaluates it at every bound clipped to node 0's interval and
    returns ``(best, v_lo, v_hi)``: the minimum and the first and last
    breakpoint within ``1e-12 (1 + best)`` of it.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)

    def cost(v):
        # (m, [a, b]): least variation so far and the values attaining it
        m, a, b = 0.0, v, v
        for lo_i, hi_i in zip(lo[1:], hi[1:]):
            if hi_i < a:
                m, a, b = m + (a - hi_i), hi_i, hi_i
            elif lo_i > b:
                m, a, b = m + (lo_i - b), lo_i, lo_i
            else:
                a, b = max(a, lo_i), min(b, hi_i)
        return m + max(0.0, a - v, v - b)

    cand = np.unique(np.clip(np.concatenate([lo, hi]), lo[0], hi[0]))
    vals = np.array([cost(v) for v in cand])
    best = float(np.min(vals))
    near = cand[vals <= best + 1e-12 * (1.0 + abs(best))]
    return best, near[0], near[-1]


def max_abs_envelope_lp(subspace, phi, x, functionals, scale, sign):
    """Per-node minimum of  scale_t max_k |a_k . (c B + x)| + sign phi_t . c.

    The epigraph form is a linear program in (c, s): minimize
    sign phi_t . c + scale_t s  subject to  |a_k . (c B + x)| <= s.  The
    nodes' programs share no variable, so they are solved as the blocks of
    one block-diagonal program.
    """
    ab = functionals @ subspace.T                 # (K, kY)
    ax = functionals @ x                          # (K,)
    n_c, k_y = ab.shape
    n = phi.shape[0]
    a_ub = np.block([[ab, -np.ones((n_c, 1))], [-ab, -np.ones((n_c, 1))]])
    b_ub = np.concatenate([-ax, ax])
    c_obj = np.concatenate([sign * phi, np.asarray(scale, float)[:, None]],
                           axis=1)                # (n, kY + 1)
    res = linprog(c_obj.ravel(), A_ub=block_diag([a_ub] * n, format="csr"),
                  b_ub=np.tile(b_ub, n),
                  bounds=([(None, None)] * k_y + [(0, None)]) * n,
                  method="highs")
    assert res.success, res.message
    return np.sum(c_obj * res.x.reshape(n, k_y + 1), axis=1)


def scaled_norm_envelopes(subspace, phi, x, c):
    """Closed-form envelopes of the Euclidean gauge c_t ||z|| over the span Y
    of the rows B of ``subspace``: with G = B Bᵀ, x_Y = Bᵀ G⁻¹ B x and
    a = ||x - x_Y||, the extremes of phi_t . c over c_t ||c B ± x|| are

        p_t . G⁻¹ B x  ±  a sqrt(c_t² - p_tᵀ G⁻¹ p_t).

    Returns ``(lower, upper)``; needs c_t² > p_tᵀ G⁻¹ p_t (coercivity)."""
    gram = subspace @ subspace.T
    coeff = np.linalg.solve(gram, subspace @ x)
    a = np.linalg.norm(x - coeff @ subspace)
    dual = np.einsum("tk,tk->t", phi, np.linalg.solve(gram, phi.T).T)
    assert np.all(c * c > dual)
    root = a * np.sqrt(c * c - dual)
    return phi @ coeff - root, phi @ coeff + root


def augmented_max_abs_lp(subspace, phi, x, functionals, scale, dists, sign):
    """Per-node minimum of  scale_t max_k |a_k . z| + sum_j d_j dist_j(z)
    + sign phi_t . c  at z = c B + x, for polyhedral distances.

    ``dists`` lists (d_j, W_j, w_j, p_j) with p_j in {1, inf}: dist_j(z) is
    the least ||w_j . (z - W_jᵀ y)||_p over y.  Every term enters one linear
    program per node through its epigraph variables: s for the maximum, and
    per distance the coordinates y plus one bound (p = inf) or one bound per
    coordinate (p = 1).
    """
    k_y, dim = subspace.shape
    blocks = []                     # (first column, len(y), bounds) per j
    n_var = k_y + 1
    for _, w_rows, _, p in dists:
        r = w_rows.shape[0]
        blocks.append((n_var, r, 1 if p == np.inf else dim))
        n_var += r + blocks[-1][2]
    rows, rhs = [], []

    def bound(lin, const, epi):
        # |lin . vars + const| <= vars[epi], as two rows
        for sgn in (1.0, -1.0):
            row = sgn * lin
            row[epi] -= 1.0
            rows.append(row)
            rhs.append(-sgn * const)

    for a in functionals:
        lin = np.zeros(n_var)
        lin[:k_y] = subspace @ a
        bound(lin, a @ x, k_y)
    for (_, w_rows, w, _), (col, r, n_e) in zip(dists, blocks):
        for i in range(dim):
            lin = np.zeros(n_var)
            lin[:k_y] = w[i] * subspace[:, i]
            lin[col:col + r] = -w[i] * w_rows[:, i]
            bound(lin, w[i] * x[i], col + r + (0 if n_e == 1 else i))
    a_ub, b_ub = np.array(rows), np.array(rhs)
    out = np.zeros(phi.shape[0])
    for t in range(phi.shape[0]):
        c_obj = np.zeros(n_var)
        c_obj[:k_y] = sign * phi[t]
        c_obj[k_y] = scale[t]
        for (d, _, _, _), (col, r, n_e) in zip(dists, blocks):
            c_obj[col + r:col + r + n_e] = d
        res = linprog(c_obj, A_ub=a_ub, b_ub=b_ub,
                      bounds=[(None, None)] * n_var, method="highs")
        assert res.success, res.message
        out[t] = float(res.fun)
    return out


def epsilon_semicontinuity_report(g, grid: Grid, direction: str):
    """Per-node one-sided jump defects.

    For ``direction="upper"`` the defect at node t is the largest upward jump
    ``max(g(s) - g(t), 0)`` to a neighbor s; for "lower" it is the largest
    downward jump.  A function with small upper defects is, on this grid, the
    measurable surrogate of an upper semicontinuous function.
    """
    if direction not in ("upper", "lower"):
        raise GridError("direction must be 'upper' or 'lower'")
    g = grid.check_field(g)
    sign = 1.0 if direction == "upper" else -1.0
    defect = np.zeros(grid.n)
    for t in range(grid.n):
        for s, _ in grid.neighbors(t):
            defect[t] = max(defect[t], sign * (g[s] - g[t]))
    defect = np.maximum(defect, 0.0)
    return defect, float(np.max(defect)) if grid.n else 0.0


def graph_distances(grid: Grid, sources) -> np.ndarray:
    """Graph distance from the nearest of the source nodes (Dijkstra on the
    grid's edges and lengths)."""
    i, j = grid.edges[:, 0], grid.edges[:, 1]
    adj = csr_matrix((np.concatenate([grid.lengths, grid.lengths]),
                      (np.concatenate([i, j]), np.concatenate([j, i]))),
                     shape=(grid.n, grid.n))
    return dijkstra(adj, directed=False, indices=list(sources), min_only=True)


def partition_of_unity(grid: Grid, cover) -> list:
    """Bump-function partition subordinate to a cover by node sets.

    Each field is the graph distance to the complement of its cover set
    (zero outside the set), normalized so the family sums to one at every
    node.  Raises when the cover does not cover every node.
    """
    cover = [sorted(set(int(i) for i in part)) for part in cover]
    covered = set()
    for part in cover:
        covered.update(part)
    if covered != set(range(grid.n)):
        missing = sorted(set(range(grid.n)) - covered)
        raise GridError(f"cover misses nodes {missing[:8]}")
    bumps = []
    for part in cover:
        inside = np.zeros(grid.n, dtype=bool)
        inside[part] = True
        complement = [i for i in range(grid.n) if not inside[i]]
        if complement:
            d = graph_distances(grid, complement)
            bump = np.where(inside, d, 0.0)
        else:
            bump = np.ones(grid.n)
        bumps.append(bump)
    total = np.sum(bumps, axis=0)
    if np.any(total <= 0):
        raise GridError("cover has a node with zero total bump weight")
    return [b / total for b in bumps]
