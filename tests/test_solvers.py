import numpy as np
import pytest

from tracefield.solvers import (SolverError, intersect_rowspaces,
                                minimize_batched, nullspace_rows,
                                orthonormal_rows, taut_string_cycle,
                                taut_string_path, total_variation,
                                tube_tv_graph)

from oracles import cycle_flat_bottom, tube_tv_lp


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


class TestMinimizeBatched:
    def test_recovers_projected_quadratic_like_minimum(self):
        # f(y) = ||y - target|| per node; minimum value is zero inside the ball
        targets = np.array([[0.3, -0.2], [0.0, 0.5], [-0.4, -0.4]])

        def fun(y):
            return np.linalg.norm(y - targets, axis=-1)

        def sub(y):
            d = y - targets
            n = np.linalg.norm(d, axis=-1, keepdims=True)
            return d / np.maximum(n, 1e-300)

        y, v = minimize_batched(fun, sub, 2, 3, radius=2.0)
        assert np.max(v) <= 1e-8
        assert np.max(np.abs(y - targets)) <= 1e-7

    def test_nonsmooth_objective(self):
        target = np.array([[0.25, -0.75]])

        def fun(y):
            return np.sum(np.abs(y - target), axis=-1)

        y, v = minimize_batched(fun, None, 2, 1, radius=2.0)
        assert v[0] <= 1e-8


    @pytest.mark.parametrize("with_sub, rounds",
                             [(False, 300), (True, 300), (False, 12)])
    def test_batch_equals_problems_solved_alone(self, with_sub, rounds):
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

            def sub(y):
                n = np.linalg.norm(y, axis=-1, keepdims=True)
                return (weights[rows] * np.sign(y - targets[rows])
                        + 0.1 * y / np.maximum(n, 1e-300))
            return fun, sub if with_sub else None

        fun, sub = problem(slice(None))
        y, v = minimize_batched(fun, sub, 2, 5, radius, n_iter=40, y0=y0,
                                polish_rounds=rounds)
        for i in range(5):
            fun_i, sub_i = problem(slice(i, i + 1))
            y_i, v_i = minimize_batched(fun_i, sub_i, 2, 1, radius[i],
                                        n_iter=40, y0=y0[i:i + 1],
                                        polish_rounds=rounds)
            assert np.array_equal(y[i:i + 1], y_i)
            assert np.array_equal(v[i:i + 1], v_i)
        assert np.all(np.linalg.norm(y, axis=-1) <= radius * (1 + 1e-12))


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
