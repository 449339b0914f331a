"""Independent brute-force oracles used to cross-check the package.

Everything here is written against the raw mathematical definitions
(characteristic polynomials, corner/dense enumeration, direct linear
programs), sharing no optimization code with the package paths it checks.
"""

import numpy as np
from scipy.optimize import linprog


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
