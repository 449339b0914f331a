import numpy as np
import pytest
from scipy.optimize import linprog

from tracefield.extension import envelopes
from tracefield.generate import extension_instance
from tracefield.grids import Grid
from tracefield.seminorms import (AugmentedGauge, BaseNorm, SubspaceDistance,
                                  VectorSpaceModel)
from tracefield.solvers import (NormTerm, SolverError, intersect_rowspaces,
                                minimize_batched, minimize_norm_sum,
                                nullspace_rows, orthonormal_rows,
                                taut_string_cycle, taut_string_path,
                                total_variation, tube_tv_graph)

from oracles import (augmented_max_abs_lp, cycle_flat_bottom,
                     max_abs_envelope_lp, tube_tv_lp)


def random_tube(seed, n, drift=0.3):
    rng = np.random.default_rng(seed)
    lo = np.cumsum(rng.standard_normal(n)) * drift
    return lo, lo + rng.uniform(0.05, 2.0, n)


class TestTautStringPath:
    def test_degenerate_tube_returns_bounds(self, rng):
        f = rng.standard_normal(15)
        out = taut_string_path(f, f)
        assert np.array_equal(out, f)

    def test_constant_tube_midpoint(self):
        out = taut_string_path(-np.ones(9), np.ones(9))
        assert np.all(out == 0.0)

    def test_empty_tube_rejected(self):
        with pytest.raises(SolverError):
            taut_string_path(np.array([0.0, 1.0]), np.array([1.0, 0.5]))

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_lp_oracle(self, seed):
        lo, hi = random_tube(seed, 35)
        f = taut_string_path(lo, hi)
        assert np.all(f >= lo) and np.all(f <= hi)
        edges = [(i, i + 1) for i in range(34)]
        assert total_variation(f, edges) == pytest.approx(
            tube_tv_lp(lo, hi, edges), abs=1e-8)

    def test_midpoint_tiebreak_inside_wide_tube(self):
        lo = np.array([-3.0, -1.0, -3.0])
        hi = np.array([3.0, 1.0, 3.0])
        f = taut_string_path(lo, hi)
        # minimal variation is zero; ties resolve to the midpoints
        assert np.all(f == 0.0)


class TestTautStringCycle:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_lp_oracle(self, seed):
        lo, hi = random_tube(100 + seed, 24, drift=0.2)
        f = taut_string_cycle(lo, hi)
        assert np.all(f >= lo) and np.all(f <= hi)
        edges = [(i, (i + 1) % 24) for i in range(24)]
        assert total_variation(f, edges) == pytest.approx(
            tube_tv_lp(lo, hi, edges), abs=1e-8)


    @pytest.mark.parametrize("seed, n, drift", [(0, 16, 0.3), (3, 16, 0.3),
                                                 (17, 16, 0.3), (5, 40, 1.0),
                                                 (9, 200, 0.3)])
    def test_flat_bottom_exact(self, seed, n, drift):
        # on (0, 16, 0.3) a flat-bottom edge placed eps/slope outside the
        # flat bottom costs 3.7e-12 of total variation
        lo, hi = random_tube(seed, n, drift)
        f = taut_string_cycle(lo, hi)
        assert np.all(f >= lo) and np.all(f <= hi)
        edges = [(i, (i + 1) % n) for i in range(n)]
        best, v_lo, v_hi = cycle_flat_bottom(lo, hi)
        assert f[0] == min(max(0.5 * (lo[0] + hi[0]), v_lo), v_hi)
        tv = total_variation(f, edges)
        assert abs(tv - best) <= 1e-13
        assert abs(tv - tube_tv_lp(lo, hi, edges)) <= 1e-13

    def test_pinned_first_node(self):
        lo, hi = random_tube(4, 20)
        lo[0] = hi[0] = 0.5 * (lo[0] + hi[0])
        f = taut_string_cycle(lo, hi)
        edges = [(i, (i + 1) % 20) for i in range(20)]
        assert f[0] == lo[0]
        assert abs(total_variation(f, edges) - tube_tv_lp(lo, hi, edges)) \
            <= 1e-13


class TestTubeGraphLP:
    def test_tree_tube(self):
        # star graph: center node 0, leaves 1..3
        edges = [(0, 1), (0, 2), (0, 3)]
        lo = np.array([-1.0, 0.5, 0.5, 0.5])
        hi = np.array([1.0, 2.0, 2.0, 2.0])
        f, tv = tube_tv_graph(lo, hi, edges)
        assert tv == pytest.approx(0.0, abs=1e-9)
        assert np.all(f >= lo) and np.all(f <= hi)

    def test_matches_oracle_and_tiebreaks(self):
        lo, hi = random_tube(7, 12)
        edges = [(i, i + 1) for i in range(11)] + [(0, 6)]
        f, tv = tube_tv_graph(lo, hi, edges)
        assert tv == pytest.approx(tube_tv_lp(lo, hi, edges), abs=1e-8)
        assert total_variation(f, edges) <= tv + 1e-8 + 1e-9 * abs(tv)


# ---------------------------------------------------------------------------
# references: the selections with numpy-indexed sweeps and a dense LP build

def _ref_sweep(lo, hi, start=None):
    m, a, b = (0.0, lo[0], hi[0]) if start is None else (0.0, start, start)
    out = [(m, a, b)]
    for i in range(1, lo.shape[0]):
        if hi[i] < a:
            m, a, b = m + (a - hi[i]), hi[i], hi[i]
        elif lo[i] > b:
            m, a, b = m + (lo[i] - b), lo[i], lo[i]
        else:
            a, b = max(a, lo[i]), min(b, hi[i])
        out.append((m, a, b))
    return np.array(out)


def _ref_backtrack(lo, hi, mid, sweep, f_last):
    f = np.zeros(lo.shape[0])
    f[-1] = f_last
    for i in range(lo.shape[0] - 2, -1, -1):
        _, a, b = sweep[i]
        nxt = f[i + 1]
        if nxt >= b:
            p, q = b, min(hi[i], nxt)
        elif nxt <= a:
            p, q = max(lo[i], nxt), a
        else:
            p = q = nxt
        f[i] = min(max(mid[i], p), q)
    return f


def reference_path(lo, hi):
    mid = 0.5 * (lo + hi)
    sweep = _ref_sweep(lo, hi)
    _, a, b = sweep[-1]
    return _ref_backtrack(lo, hi, mid, sweep, min(max(mid[-1], a), b))


def reference_cycle(lo, hi):
    """Scan of every clipped tube bound (see ``cycle_flat_bottom``), then the
    same midpoint clip and closing-edge backtrack as the solver."""
    mid = 0.5 * (lo + hi)
    _, flat_lo, flat_hi = cycle_flat_bottom(lo, hi)
    v0 = min(max(mid[0], flat_lo), flat_hi)
    sweep = _ref_sweep(lo, hi, start=v0)
    _, a, b = sweep[-1]
    if v0 >= b:
        p, q = b, min(hi[-1], v0)
    elif v0 <= a:
        p, q = max(lo[-1], v0), a
    else:
        p = q = v0
    f = _ref_backtrack(lo, hi, mid, sweep, min(max(mid[-1], p), q))
    f[0] = v0
    return f


def reference_tube_tv_graph(lo, hi, edges):
    """Both LP stages with dense constraint matrices filled in loops."""
    n = lo.shape[0]
    edges = np.asarray(edges, dtype=int).reshape(-1, 2)
    m = edges.shape[0]
    mid = 0.5 * (lo + hi)
    c = np.concatenate([np.zeros(n), np.ones(m)])
    A = np.zeros((2 * m, n + m))
    for e, (i, j) in enumerate(edges):
        A[2 * e, i], A[2 * e, j], A[2 * e, n + e] = 1.0, -1.0, -1.0
        A[2 * e + 1, i], A[2 * e + 1, j], A[2 * e + 1, n + e] = -1.0, 1.0, -1.0
    bounds = [(lo[i], hi[i]) for i in range(n)] + [(0, None)] * m
    res = linprog(c, A_ub=A, b_ub=np.zeros(2 * m), bounds=bounds,
                  method="highs")
    tv_opt = float(res.fun)
    c2 = np.concatenate([np.zeros(n + m), np.ones(n)])
    A2 = np.zeros((2 * m + 2 * n + 1, n + m + n))
    A2[:2 * m, :n + m] = A
    b2 = np.zeros(2 * m + 2 * n + 1)
    for i in range(n):
        A2[2 * m + 2 * i, i], A2[2 * m + 2 * i, n + m + i] = 1.0, -1.0
        b2[2 * m + 2 * i] = mid[i]
        A2[2 * m + 2 * i + 1, i], A2[2 * m + 2 * i + 1, n + m + i] = -1.0, -1.0
        b2[2 * m + 2 * i + 1] = -mid[i]
    A2[-1, n:n + m] = 1.0
    b2[-1] = tv_opt + 1e-9 * (1.0 + abs(tv_opt))
    res2 = linprog(c2, A_ub=A2, b_ub=b2, bounds=bounds + [(0, None)] * n,
                   method="highs")
    return np.clip(res2.x[:n], lo, hi), tv_opt


def _tubes():
    for seed in range(40):
        n = [1, 2, 3, 17, 60, 250][seed % 6]
        lo, hi = random_tube(seed, n, drift=[0.05, 0.3, 1.0][seed % 3])
        if seed % 4 == 1:
            hi[::3] = lo[::3]                 # pinned nodes
        if seed % 5 == 2:
            lo, hi = np.round(lo, 1), np.round(hi, 1) + 0.1   # ties
        yield lo, hi


class TestSelectionReferences:
    def test_path_bitwise_equal_to_reference(self):
        for lo, hi in _tubes():
            assert taut_string_path(lo, hi).tobytes() \
                == reference_path(lo, hi).tobytes()

    def test_cycle_bitwise_equal_to_reference(self):
        for lo, hi in _tubes():
            assert taut_string_cycle(lo, hi).tobytes() \
                == reference_cycle(lo, hi).tobytes()

    def test_graph_lp_bitwise_equal_to_dense_build(self):
        # a 6 x 5 grid graph with unit edges
        side_x, side_y = 6, 5
        idx = np.arange(side_x * side_y).reshape(side_y, side_x)
        edges = np.concatenate([
            np.column_stack([idx[:, :-1].ravel(), idx[:, 1:].ravel()]),
            np.column_stack([idx[:-1].ravel(), idx[1:].ravel()])])
        grid = Grid("graph", idx.size, edges, np.ones(len(edges)))
        for seed in range(4):
            rng = np.random.default_rng(seed)
            lo = rng.standard_normal(grid.n)
            hi = lo + rng.uniform(0.0, 1.5, grid.n)
            f, tv = tube_tv_graph(lo, hi, grid.edges)
            f_ref, tv_ref = reference_tube_tv_graph(lo, hi, grid.edges)
            assert f.tobytes() == f_ref.tobytes() and tv == tv_ref


class TestMinimizeBatched:
    def test_recovers_projected_quadratic_like_minimum(self):
        # f(y) = ||y - target|| per node; minimum value is zero inside the ball
        targets = np.array([[0.3, -0.2], [0.0, 0.5], [-0.4, -0.4]])

        def fun(y):
            return np.linalg.norm(y - targets, axis=-1)

        y, v = minimize_batched(fun, 2, 3, radius=2.0)
        assert np.max(v) <= 1e-8
        assert np.max(np.abs(y - targets)) <= 1e-7

    def test_nonsmooth_objective(self):
        target = np.array([[0.25, -0.75]])

        def fun(y):
            return np.sum(np.abs(y - target), axis=-1)

        y, v = minimize_batched(fun, 2, 1, radius=2.0)
        assert v[0] <= 1e-8

    @pytest.mark.parametrize("rounds", [300, 12])
    def test_batch_equals_problems_solved_alone(self, rounds):
        # independent problems, one per node, each with its own radius
        rng = np.random.default_rng(3)
        targets = rng.uniform(-3, 3, (5, 2))
        weights = rng.uniform(0.5, 2.0, (5, 2))
        radius = np.array([0.5, 1.0, 2.0, 4.0, 8.0])
        y0 = rng.uniform(-0.3, 0.3, (5, 2))

        def problem(rows):
            def fun(y):
                return np.sum(weights[rows] * np.abs(y - targets[rows]),
                              axis=-1) + 0.1 * np.linalg.norm(y, axis=-1)
            return fun

        y, v = minimize_batched(problem(slice(None)), 2, 5, radius, y0=y0,
                                polish_rounds=rounds)
        for i in range(5):
            y_i, v_i = minimize_batched(problem(slice(i, i + 1)), 2, 1,
                                        radius[i], y0=y0[i:i + 1],
                                        polish_rounds=rounds)
            assert np.array_equal(y[i:i + 1], y_i)
            assert np.array_equal(v[i:i + 1], v_i)
        assert np.all(np.linalg.norm(y, axis=-1) <= radius * (1 + 1e-12))


def assert_certified(value, lower):
    """The certified gap closes to 1e-12 relative at every node."""
    assert np.all(np.isfinite(lower))
    assert np.all(value - lower <= 1e-12 * (1.0 + np.abs(value)))


def kink_problem(c, phi, delta):
    """c ||(v, 1)|| + delta ||v|| + phi . v over v in R^2 (and the ball
    ||v|| <= 50): the delta term vanishes at v = 0.  The minimum is c for
    ||phi|| <= delta and sqrt(c² - (||phi|| - delta)²) otherwise."""
    n = len(c)
    lift = np.zeros((1, 1, 3, 2))
    lift[0, 0, :2] = np.eye(2)
    terms = [NormTerm(np.asarray(c, dtype=float), lift,
                      np.array([[[0.0, 0.0, 1.0]]])),
             NormTerm(np.full(n, delta), np.eye(2)[None, None],
                      np.zeros((1, 1, 2)))]
    excess = np.maximum(np.linalg.norm(phi, axis=1) - delta, 0.0)
    return terms, np.sqrt(np.asarray(c) ** 2 - excess ** 2)


class TestMinimizeNormSum:
    def test_batch_equals_problems_solved_alone(self):
        rng = np.random.default_rng(5)
        n = 7
        A = rng.standard_normal((n, 2, 3, 2))
        terms = [NormTerm(rng.uniform(0.5, 2.0, n), A,
                          rng.standard_normal((n, 2, 3))),
                 NormTerm(rng.uniform(0.5, 2.0, n),
                          rng.standard_normal((1, 4, 1, 2)),
                          rng.standard_normal((1, 4, 1)), maxabs=True)]
        g = rng.standard_normal((n, 2))
        v, value, lower = minimize_norm_sum(terms, g, np.eye(2), 30.0)
        assert_certified(value, lower)
        for i in range(n):
            alone = [NormTerm(t.weight[i:i + 1],
                              t.A if t.A.shape[0] == 1 else t.A[i:i + 1],
                              t.b if t.b.shape[0] == 1 else t.b[i:i + 1],
                              t.maxabs) for t in terms]
            out = minimize_norm_sum(alone, g[i:i + 1], np.eye(2), 30.0)
            for got, want in zip(out, (v, value, lower)):
                assert np.array_equal(got, want[i:i + 1])

    def test_kink_at_the_origin(self):
        # the optimum sits at the kink v = 0 of the delta term exactly when
        # ||phi|| <= delta, including the boundary case
        delta = 0.1
        phi = np.array([[0.0, 0.0], [0.05, -0.02], [0.06, 0.08],
                        [0.06 * (1 - 1e-9), 0.08], [0.3, -0.4], [0.0, 0.11]])
        c = np.linspace(1.0, 2.0, len(phi))
        terms, expected = kink_problem(c, phi, delta)
        v, value, lower = minimize_norm_sum(terms, phi, np.eye(2), 50.0)
        assert_certified(value, lower)
        assert np.max(np.abs(value - expected)) <= 1e-12
        assert np.max(np.abs(v[:4])) <= 1e-9

    def test_term_vanishing_on_a_line(self):
        # 2 |v1 - v2| + ||v - p||: the optimum is the projection of p onto
        # the line v1 = v2, where the first term has its kink
        p = np.array([0.3, -0.5])
        terms = [NormTerm(np.array([2.0]), np.array([[[[1.0, -1.0]]]]),
                          np.zeros((1, 1, 1))),
                 NormTerm(np.array([1.0]), np.eye(2)[None, None],
                          -p[None, None])]
        v, value, lower = minimize_norm_sum(terms, np.zeros((1, 2)),
                                            np.eye(2), 10.0)
        assert_certified(value, lower)
        assert value[0] == pytest.approx(0.8 / np.sqrt(2.0), abs=1e-12)
        assert np.max(np.abs(v[0] + 0.1)) <= 1e-9

    def test_zero_weights_drop_their_terms(self):
        rng = np.random.default_rng(8)
        n = 4
        base = NormTerm(np.full(n, 1.5), rng.standard_normal((1, 1, 3, 2)),
                        rng.standard_normal((1, 1, 3)))
        g = 0.3 * rng.standard_normal((n, 2))
        _, want, _ = minimize_norm_sum([base], g, np.eye(2), 40.0)
        zero = np.zeros(n)
        extra = [NormTerm(zero, rng.standard_normal((1, 1, 2, 2)),
                          rng.standard_normal((1, 1, 2))),
                 NormTerm(zero, rng.standard_normal((1, 3, 1, 2)),
                          rng.standard_normal((1, 3, 1)), maxabs=True)]
        _, value, lower = minimize_norm_sum([base] + extra, g, np.eye(2),
                                            40.0)
        assert_certified(value, lower)
        assert np.max(np.abs(value - want)) <= 1e-12

    def test_gauge_vanishing_on_the_subspace(self):
        # no term is alive: the minimum of g . v over the ball of radius 2
        g = np.array([[0.3, 0.4], [0.0, 0.0]])
        terms = [NormTerm(np.zeros(2), np.eye(2)[None, None],
                          np.ones((1, 1, 2)))]
        _, value, lower = minimize_norm_sum(terms, g, np.eye(2), 2.0)
        assert_certified(value, lower)
        assert value == pytest.approx([-1.0, 0.0], abs=1e-12)

    def test_max_abs_envelopes_match_lp(self):
        problem = extension_instance(21, n_nodes=12, dim=4, dim_y=2,
                                     delta=0.1, margin=0.3,
                                     gauge_kind="max_abs_linear")
        x = problem.model.complement[0]
        pair = envelopes(problem, x)
        gauge = problem.gauge
        args = (problem.model.subspace, problem.phi, x, gauge.functionals,
                gauge.scale)
        upper = max_abs_envelope_lp(*args, -1.0)
        lower = -max_abs_envelope_lp(*args, +1.0)
        assert np.max(np.abs(pair.upper - upper)) <= 1e-8
        assert np.max(np.abs(pair.lower - lower)) <= 1e-8
        scale = 1.0 + np.maximum(np.abs(pair.upper), np.abs(pair.lower))
        assert np.all(pair.gap <= 1e-12 * scale)

    def augmented(self, norm):
        problem = extension_instance(22, n_nodes=6, dim=3, dim_y=1,
                                     delta=0.1, margin=0.3,
                                     gauge_kind="max_abs_linear")
        rows = problem.model.complement
        dists = [(0.1, rows), (0.05, rows[1:])]
        gauge = AugmentedGauge(problem.gauge, [
            (d, SubspaceDistance(w, norm)) for d, w in dists])
        x = rows[0]
        return problem, gauge, x, envelopes(problem, x, gauge, 4.0), dists

    def test_augmented_max_abs_matches_scan(self):
        # k_Y = 1: a dense scan, then a ternary refinement per node
        problem, gauge, x, pair, _ = self.augmented(BaseNorm(2.0))
        b, phi = problem.model.subspace[0], problem.phi[:, 0]
        n = problem.grid.n

        def objective(s, sign):          # s: (..., n) -> (..., n)
            return gauge.values(s[..., None] * b + x) + sign * s * phi

        grid = np.broadcast_to(np.linspace(-4.0, 4.0, 8001)[:, None],
                               (8001, n))
        for sign, got in ((-1.0, pair.upper), (1.0, -pair.lower)):
            i = np.argmin(objective(grid, sign), axis=0)
            lo = grid[np.maximum(i - 1, 0), 0]
            hi = grid[np.minimum(i + 1, 8000), 0]
            for _ in range(100):
                m1, m2 = lo + (hi - lo) / 3, hi - (hi - lo) / 3
                left = objective(m1, sign) <= objective(m2, sign)
                lo, hi = np.where(left, lo, m1), np.where(left, m2, hi)
            want = objective(0.5 * (lo + hi), sign)
            assert np.max(np.abs(got - want)) <= 1e-8
        scale = 1.0 + np.maximum(np.abs(pair.upper), np.abs(pair.lower))
        assert np.all(pair.gap <= 1e-12 * scale)

    @pytest.mark.parametrize("p", [1.0, float("inf")])
    def test_polyhedral_distances_match_lp(self, p):
        # l1 / l-inf distance terms bring their own subspace coordinates
        w = np.array([1.0, 0.5, 2.0])
        problem, gauge, x, pair, dists = self.augmented(BaseNorm(p, w))
        base = problem.gauge
        args = (problem.model.subspace, problem.phi, x, base.functionals,
                base.scale, [(d, rows, w, p) for d, rows in dists])
        assert np.max(np.abs(pair.upper - augmented_max_abs_lp(*args, -1.0))) \
            <= 1e-8
        assert np.max(np.abs(pair.lower + augmented_max_abs_lp(*args, 1.0))) \
            <= 1e-8
        scale = 1.0 + np.maximum(np.abs(pair.upper), np.abs(pair.lower))
        assert np.all(pair.gap <= 1e-12 * scale)


class TestRowspaceHelpers:
    def test_nullspace(self):
        null = nullspace_rows(np.array([[1.0, 0.0, 0.0]]))
        assert null.shape == (2, 3)
        assert np.max(np.abs(null @ np.array([1.0, 0, 0]))) <= 1e-12

    def test_intersection(self):
        a = np.array([[1.0, 0, 0], [0, 1.0, 0]])
        b = np.array([[0, 1.0, 0], [0, 0, 1.0]])
        inter = intersect_rowspaces(a, b)
        assert inter.shape == (1, 3)
        assert np.abs(inter[0, 1]) == pytest.approx(1.0)

    def test_disjoint_intersection_empty(self):
        inter = intersect_rowspaces(np.eye(3)[:1], np.eye(3)[2:])
        assert inter.shape[0] == 0

    def test_orthonormal_rank_detection(self):
        rows = np.array([[1.0, 1.0], [2.0, 2.0]])
        assert orthonormal_rows(rows).shape == (1, 2)
