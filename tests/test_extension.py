import numpy as np
import pytest

import tracefield.extension as ext
from tracefield.errors import CoercivityError, InputError
from tracefield.extension import (ExtensionProblem, envelopes, extend_full,
                                  extend_one, radius_bound,
                                  restriction_residual, select_continuous)
from tracefield.generate import extension_instance
from tracefield.grids import circle_grid, path_grid, refine
from tracefield.seminorms import (BaseNorm, MaxAbsLinear, ScaledByField,
                                  ScaledNorm, VectorSpaceModel, inf_convolve)

from oracles import (epsilon_semicontinuity_report, partition_of_unity,
                     scan_min_1d, scan_min_2d, tube_tv_lp)

E2 = np.eye(2)
SQRT3 = np.sqrt(3.0)


def sqrt3_problem(n=11, delta=1e-9, scale=2.0):
    g = path_grid(n)
    model = VectorSpaceModel(2, BaseNorm(2.0), E2[:1], E2[1:])
    gauge = ScaledNorm(scale, g.n, 2)
    phi = np.ones((g.n, 1))
    return ExtensionProblem(g, model, gauge, phi, delta)


class TestRadiusBound:
    def test_empty_subspace_zero_radius(self):
        g = path_grid(5)
        model = VectorSpaceModel(2, BaseNorm(2.0), np.zeros((0, 2)), E2)
        problem = ExtensionProblem(g, model, ScaledNorm(1.0, g.n, 2),
                                   np.zeros((g.n, 0)), 0.1)
        cert = radius_bound(problem, E2[1])
        assert cert.radius == 0.0

    def test_margin_one_instance(self):
        cert = radius_bound(sqrt3_problem(), E2[1])
        # margin of 2|a| - a on the unit sphere is 1
        assert cert.margin == pytest.approx(1.0, abs=1e-6)
        assert np.isfinite(cert.radius) and cert.radius > 0

    def test_coercivity_failure_names_direction(self):
        problem = sqrt3_problem(delta=0.0, scale=1.0)
        with pytest.raises(CoercivityError) as err:
            radius_bound(problem, E2[1])
        assert "coercivity failure" in str(err.value)
        assert "1.0" in str(err.value)   # the violating +e1 direction

    def test_degenerate_nodes_require_vanishing_map(self):
        g = path_grid(4)
        model = VectorSpaceModel(2, BaseNorm(2.0), E2[:1], E2[1:])
        gauge = ScaledNorm(0.0, g.n, 2)
        problem = ExtensionProblem(g, model, gauge, np.ones((g.n, 1)), 0.0,
                                   validate=False)
        with pytest.raises(CoercivityError):
            radius_bound(problem, E2[1])


class TestEnvelopes:
    def test_empty_subspace_forced_tube(self):
        g = path_grid(4)
        model = VectorSpaceModel(2, BaseNorm(2.0), np.zeros((0, 2)), E2)
        problem = ExtensionProblem(g, model, ScaledNorm(1.5, g.n, 2),
                                   np.zeros((g.n, 0)), 1e-9)
        pair = envelopes(problem, E2[0])
        assert np.allclose(pair.upper, 1.5, atol=1e-12)
        assert np.allclose(pair.lower, -1.5, atol=1e-12)

    def test_sqrt3_values(self):
        pair = envelopes(sqrt3_problem(), E2[1])
        assert np.max(np.abs(pair.upper - SQRT3)) <= 1e-6
        assert np.max(np.abs(pair.lower + SQRT3)) <= 1e-6

    def test_single_sided_wrappers(self):
        pair = envelopes(sqrt3_problem(), E2[1])
        assert np.allclose(pair.upper, SQRT3, atol=1e-6)
        assert np.allclose(pair.lower, -SQRT3, atol=1e-6)

    def test_direction_inside_subspace_forces_value(self):
        problem = sqrt3_problem()
        pair = envelopes(problem, np.array([1.0, 0.0]))
        # extension on Y is already pinned: both envelopes equal phi(e1) = 1
        assert np.max(np.abs(pair.upper - 1.0)) <= 1e-6
        assert np.max(np.abs(pair.lower - 1.0)) <= 1e-6

    def test_tube_never_crossed_on_seeded_instances(self):
        for seed in range(4):
            problem = extension_instance(seed, n_nodes=20, dim=4, dim_y=2,
                                         delta=0.1, margin=0.4)
            x = problem.model.complement[0]
            pair = envelopes(problem, x)
            assert pair.gap_min >= -1e-9

    def test_monotone_in_delta(self):
        x = E2[1]
        prev = None
        for delta in (1e-6, 0.05, 0.2):
            pair = envelopes(sqrt3_problem(delta=delta), x)
            if prev is not None:
                assert np.all(pair.upper >= prev.upper - 1e-9)
                assert np.all(pair.lower <= prev.lower + 1e-9)
            prev = pair

    def test_matches_dense_scan_dim1(self):
        problem = extension_instance(11, n_nodes=8, dim=3, dim_y=1,
                                     delta=0.1, margin=0.5)
        x = problem.model.complement[0]
        cert = radius_bound(problem, x)
        pair = envelopes(problem, x)
        b = problem.model.subspace
        gauge = problem.gauge
        for t in range(8):
            def upper_obj(s, _t=t):
                z = (s * b[0] + x)[None, :]
                vals = gauge.values(np.broadcast_to(z, (8, 3)))
                return float(vals[_t]) - s * problem.phi[_t, 0]

            expected, _ = scan_min_1d(upper_obj, cert.radius)
            assert pair.upper[t] == pytest.approx(expected, abs=1e-6)

    def test_matches_dense_scan_dim2(self):
        problem = extension_instance(12, n_nodes=5, dim=4, dim_y=2,
                                     delta=0.1, margin=0.5)
        x = problem.model.complement[0]
        cert = radius_bound(problem, x)
        pair = envelopes(problem, x)
        b = problem.model.subspace
        gauge = problem.gauge
        for t in range(5):
            def upper_obj(c, _t=t):
                z = (c @ b + x)[None, :]
                vals = gauge.values(np.broadcast_to(z, (5, 4)))
                return float(vals[_t]) - float(c @ problem.phi[_t])

            expected, _ = scan_min_2d(upper_obj, cert.radius)
            assert pair.upper[t] == pytest.approx(expected, abs=1e-6)

    @pytest.mark.parametrize("kind, seed", [("scaled_norm", 30),
                                            ("scaled_norm", 31),
                                            ("max_abs_linear", 32)])
    def test_every_step_gap_certified(self, kind, seed, monkeypatch):
        # each envelope of each step carries a gap below 1e-12 (1 + |value|)
        # and below the solver tolerance
        pairs = []

        def recording(*args, **kwargs):
            pairs.append(envelopes(*args, **kwargs))
            return pairs[-1]

        monkeypatch.setattr(ext, "envelopes", recording)
        problem = extension_instance(seed, n_nodes=30, dim=5, dim_y=2,
                                     delta=0.1, margin=0.3, gauge_kind=kind)
        result = extend_full(problem)
        assert len(pairs) == 3
        for pair, step in zip(pairs, result.steps):
            scale = 1.0 + np.maximum(np.abs(pair.upper), np.abs(pair.lower))
            assert np.all(pair.gap <= 1e-12 * scale)
            assert step.gap_max == np.max(pair.gap) <= problem.tols.solver

    def test_inf_convolution_gauge_uses_pattern_search(self):
        # inf-type gauges have no norm terms: their envelopes still come out,
        # uncertified
        problem = sqrt3_problem(n=5)
        g = problem.grid
        gauge = inf_convolve(ScaledNorm(2.0, g.n, 2), ScaledNorm(3.0, g.n, 2),
                             E2[:1])
        pair = envelopes(problem, E2[1], gauge)
        assert np.all(np.isinf(pair.gap))
        assert np.all(np.isfinite(pair.upper)) and pair.gap_min >= 0.0


class TestSelection:
    def test_pinned_tube(self, rng):
        g = path_grid(13)
        f = rng.standard_normal(13)
        assert np.array_equal(select_continuous(f, f, g), f)

    def test_constant_tube_zero(self):
        g = path_grid(9)
        f = select_continuous(-np.ones(9), np.ones(9), g)
        assert np.all(f == 0.0)

    def test_crossing_tube_matches_lp(self, rng):
        g = path_grid(30)
        lower = np.sin(4 * g.positions) + 0.1 * rng.standard_normal(30)
        upper = lower + rng.uniform(0.05, 0.8, 30)
        f = select_continuous(lower, upper, g)
        assert np.all(f >= lower) and np.all(f <= upper)
        tv = float(np.sum(np.abs(np.diff(f))))
        assert tv == pytest.approx(
            tube_tv_lp(lower, upper, [(i, i + 1) for i in range(29)]),
            abs=1e-8)

    def test_circle_grid(self, rng):
        g = circle_grid(16)
        lower = rng.standard_normal(16)
        upper = lower + rng.uniform(0.1, 1.0, 16)
        f = select_continuous(lower, upper, g)
        assert np.all(f >= lower) and np.all(f <= upper)
        tv = float(np.sum(np.abs(f[g.edges[:, 0]] - f[g.edges[:, 1]])))
        assert tv == pytest.approx(tube_tv_lp(lower, upper, g.edges),
                                   abs=1e-8)

    def test_refined_path_grid_node_order(self, rng):
        g, _ = refine(path_grid(6))     # node ids no longer follow positions
        lower = rng.standard_normal(g.n)
        upper = lower + rng.uniform(0.1, 1.0, g.n)
        f = select_continuous(lower, upper, g)
        tv = float(np.sum(np.abs(f[g.edges[:, 0]] - f[g.edges[:, 1]])))
        assert tv == pytest.approx(tube_tv_lp(lower, upper, g.edges),
                                   abs=1e-8)


class TestExtendOne:
    def test_rejects_direction_inside_subspace(self):
        problem = sqrt3_problem()
        with pytest.raises(InputError):
            extend_one(problem, np.array([2.0, 0.0]))

    def test_sqrt3_selection_is_zero(self):
        problem = sqrt3_problem()
        new_problem, cert = extend_one(problem, E2[1])
        assert np.max(np.abs(cert.selection)) <= 1e-9
        assert new_problem.model.subspace.shape[0] == 2
        assert cert.domination_excess <= 1e-8

    def test_vanishing_gauge_direction_forces_zero(self):
        # the gauge ignores the new direction entirely: the tube degenerates
        # to zero and the selection is forced
        g = path_grid(7)
        model = VectorSpaceModel(3, BaseNorm(2.0), np.eye(3)[:2],
                                 np.eye(3)[2:])
        gauge = MaxAbsLinear(np.eye(3)[:2], g.n,
                             scale=1.0 + 0.1 * np.arange(7))
        phi = 0.2 * np.ones((g.n, 2))
        problem = ExtensionProblem(g, model, gauge, phi, 0.05)
        result = extend_full(problem)
        assert np.max(np.abs(result.steps[0].selection)) <= 1e-9
        assert restriction_residual(result, problem) <= 1e-9


class TestExtendFull:
    def test_nothing_to_extend(self):
        g = path_grid(5)
        model = VectorSpaceModel(2, BaseNorm(2.0), E2, None)
        phi = np.column_stack([g.positions, -g.positions])
        gauge = ScaledNorm(2.0, g.n, 2)
        problem = ExtensionProblem(g, model, gauge, phi, 0.1)
        result = extend_full(problem)
        assert restriction_residual(result, problem) <= 1e-12
        assert result.steps == []

    def test_single_direction_matches_extend_one(self):
        problem = sqrt3_problem(delta=0.05)
        full = extend_full(problem)
        _, cert = extend_one(problem, E2[1],
                             gauge=None and problem.gauge)
        # with one direction the full run uses the same budget
        assert full.steps[0].budget == pytest.approx(0.05)
        assert np.allclose(full.steps[0].selection, cert.selection,
                           atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_seeded_instances_domination(self, seed):
        problem = extension_instance(seed, n_nodes=40, dim=5, dim_y=2,
                                     delta=0.1, margin=0.5)
        result = extend_full(problem)
        assert restriction_residual(result, problem) <= 1e-9
        assert result.final_excess <= 1e-8
        # linearity of the extension
        rng = np.random.default_rng(3)
        z1, z2 = rng.standard_normal((2, 5))
        lhs = result.evaluate(1.3 * z1 - 0.7 * z2)
        rhs = 1.3 * result.evaluate(z1) - 0.7 * result.evaluate(z2)
        assert np.max(np.abs(lhs - rhs)) <= 1e-9

    def test_order_must_cover_complement(self):
        problem = extension_instance(2, n_nodes=10, dim=4, dim_y=2,
                                     delta=0.1, margin=0.5)
        with pytest.raises(InputError):
            extend_full(problem, order=[0])

    def test_deterministic_given_order(self):
        problem = extension_instance(5, n_nodes=15, dim=4, dim_y=1,
                                     delta=0.01, margin=0.4)
        a = extend_full(problem, order=[1, 0, 2])
        b = extend_full(problem, order=[1, 0, 2])
        assert np.array_equal(a.matrix, b.matrix)

    def test_max_abs_linear_instance(self):
        problem = extension_instance(8, n_nodes=15, dim=4, dim_y=2,
                                     delta=0.1, margin=0.3,
                                     gauge_kind="max_abs_linear")
        result = extend_full(problem)
        assert result.final_excess <= 1e-8


class TestPartitionGlobalization:
    def test_patchwise_extensions_sum_to_global(self):
        n = 20
        g = path_grid(n)
        model = VectorSpaceModel(2, BaseNorm(2.0), E2[:1], E2[1:])
        c = 1.5 + 0.3 * np.sin(2 * np.pi * g.positions)
        gauge = ScaledNorm(c, g.n, 2)
        phi = (0.8 * c * np.cos(np.pi * g.positions))[:, None]
        delta = 0.05

        cover = [range(0, 13), range(8, 20)]
        bumps = partition_of_unity(g, cover)
        matrices = []
        for lam in bumps:
            nil = [np.eye(2) if lam[t] <= 1e-13 else np.zeros((0, 2))
                   for t in range(n)]
            patch_model = VectorSpaceModel(2, BaseNorm(2.0), E2[:1], E2[1:],
                                           nilspace=nil)
            patch = ExtensionProblem(
                g, patch_model, ScaledByField(gauge, lam),
                lam[:, None] * phi, delta / 2)
            result = extend_full(patch)
            # support containment: the patch extension vanishes off-patch
            dead = lam <= 1e-13
            assert np.max(np.abs(result.matrix[dead])) <= 1e-12
            matrices.append(result.matrix)

        total = sum(matrices)
        # restriction to the subspace reproduces the map
        assert np.max(np.abs(total @ E2[0] - phi[:, 0])) <= 1e-9
        # global domination by the gauge plus twice the total budget
        rng = np.random.default_rng(0)
        zs = rng.standard_normal((400, 2))
        vals = zs @ total.T
        bound = gauge.values(np.broadcast_to(zs[:, None, :], (400, n, 2))) \
            + 2 * delta * np.linalg.norm(zs, axis=1)[:, None]
        assert np.max(np.abs(vals) - bound) <= 1e-8


class TestRefinementTrend:
    def test_envelope_defect_shrinks_under_refinement(self):
        problem = extension_instance(3, n_nodes=12, dim=3, dim_y=1,
                                     delta=0.1, margin=0.5)
        x = problem.model.complement[0]
        pair = envelopes(problem, x)
        fine_grid, prolong = refine(problem.grid)
        fine = ExtensionProblem(
            fine_grid, problem.model,
            ScaledNorm(prolong @ problem.gauge.c, fine_grid.n, 3),
            prolong @ problem.phi, problem.delta)
        pair_fine = envelopes(fine, x)
        _, coarse_defect = epsilon_semicontinuity_report(
            pair.upper, problem.grid, "upper")
        _, fine_defect = epsilon_semicontinuity_report(
            pair_fine.upper, fine_grid, "upper")
        assert fine_defect <= 0.75 * coarse_defect + 1e-9
