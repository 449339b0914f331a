import numpy as np
import pytest

from tracefield.algebra import (AlgebraDescriptor, Element, op_norm,
                                random_selfadjoint)
from tracefield.errors import InputError
from tracefield import statespace
from tracefield.fields import (MapField, constant_map_field, evaluate,
                               pointwise_norm)
from tracefield.generate import smooth_map_field
from tracefield.grids import path_grid
from tracefield.solvers import SolverError
from tracefield.statespace import (decomposable_approximation_study,
                                   envelope_field, kadison_represent,
                                   lp_envelope, min_norm_measure,
                                   represent_family, sample_state_space)

from oracles import signed_measure_lp_dual

M2 = AlgebraDescriptor((2,))
C2 = AlgebraDescriptor((1, 1))

SZ = Element(M2, [np.diag([1.0, -1.0]).astype(complex)], selfadjoint=True)
SX = Element(M2, [np.array([[0, 1], [1, 0]], dtype=complex)], selfadjoint=True)
SY = Element(M2, [np.array([[0, -1j], [1j, 0]])], selfadjoint=True)


class TestSampling:
    def test_vertex_states_included(self):
        sample = sample_state_space(C2, 8, seed=0)
        weights = np.stack([sample.stacks[0][:, 0, 0].real,
                            sample.stacks[1][:, 0, 0].real], axis=1)
        assert any(np.allclose(w, [1, 0]) for w in weights)
        assert any(np.allclose(w, [0, 1]) for w in weights)

    def test_spectral_states_for_matrix_block(self):
        sample = sample_state_space(M2, 8, seed=0)
        mats = sample.stacks[0]
        for target in (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]),
                       0.5 * np.ones((2, 2))):
            assert any(np.allclose(m, target, atol=1e-12) for m in mats)

    def test_states_are_normalized_positive(self):
        sample = sample_state_space(AlgebraDescriptor((2, 1)), 40, seed=3)
        for s in range(sample.count):
            rho = sample.state_at(s)
            total = sum(np.trace(b).real for b in rho.blocks)
            assert total == pytest.approx(1.0, abs=1e-12)
            for b in rho.blocks:
                if b.size:
                    assert np.min(np.linalg.eigvalsh(b)) >= -1e-12

    def test_count_below_dimension_rejected(self):
        with pytest.raises(InputError):
            sample_state_space(M2, 2, seed=0)

    def test_isometry_defect_m2(self):
        sample = sample_state_space(M2, 500, seed=1)
        worst = 0.0
        for seed in range(100):
            x = random_selfadjoint(M2, seed)
            vals = sample.pair_element(x)
            worst = max(worst, op_norm(x) - float(np.max(np.abs(vals))))
        assert 0.0 <= worst <= 0.05

    def test_deterministic(self):
        a = sample_state_space(M2, 60, seed=9)
        b = sample_state_space(M2, 60, seed=9)
        assert np.array_equal(a.stacks[0], b.stacks[0])


class TestRepresentation:
    def test_unit_maps_to_ones(self):
        sample = sample_state_space(M2, 30, seed=0)
        vals = kadison_represent(M2.unit(), sample)
        assert np.allclose(vals, 1.0, atol=1e-12)

    def test_vertex_values_of_diagonal(self):
        sample = sample_state_space(C2, 6, seed=0)
        x = Element(C2, [[[1.0]], [[-1.0]]], selfadjoint=True)
        vals = kadison_represent(x, sample)
        assert np.max(vals) == pytest.approx(1.0, abs=1e-12)
        assert np.min(vals) == pytest.approx(-1.0, abs=1e-12)

    def test_contractive(self):
        sample = sample_state_space(M2, 100, seed=2)
        for seed in range(20):
            x = random_selfadjoint(M2, seed)
            rep = represent_family([x], sample)
            assert rep.max_defect >= -1e-12
            assert np.max(np.abs(rep.values)) <= op_norm(x) + 1e-10


class TestLPEnvelope:
    def setup_method(self):
        self.sample = sample_state_space(C2, 6, seed=0)
        self.unit = C2.unit()
        self.x = Element(C2, [[[1.0]], [[-1.0]]], selfadjoint=True)
        self.unit_hat = kadison_represent(self.unit, self.sample)
        self.x_hat = kadison_represent(self.x, self.sample)

    def test_member_value_forced(self):
        # constraining on x itself pins the objective to the target
        out = lp_envelope(np.stack([self.unit_hat, self.x_hat]),
                          [0.3, 0.1], self.x_hat, bound=2.0)
        assert out.value == pytest.approx(0.1, abs=1e-9)

    def test_zero_map_on_unit_pair_formula(self):
        # weights must sum to zero; the best is half the spread of x_hat
        c = 0.8
        out = lp_envelope(self.unit_hat[None, :], [0.0], self.x_hat, bound=c)
        spread = np.max(self.x_hat) - np.min(self.x_hat)
        assert out.value == pytest.approx(c * spread / 2, abs=1e-9)
        # for this symmetric element the pair formula equals c * max |x_hat|
        assert out.value == pytest.approx(c * np.max(np.abs(self.x_hat)),
                                          abs=1e-9)
        assert out.saturated

    def test_min_is_negated_max_of_negation(self):
        hi = lp_envelope(self.unit_hat[None, :], [0.2], self.x_hat, 1.0,
                         "max")
        lo = lp_envelope(self.unit_hat[None, :], [0.2], -self.x_hat, 1.0,
                         "min")
        assert hi.value == pytest.approx(-lo.value, abs=1e-10)

    def test_dual_oracle_agreement(self, rng):
        constraints = np.stack([self.unit_hat, self.x_hat])
        for _ in range(5):
            targets = rng.uniform(-0.3, 0.3, 2)
            obj = rng.standard_normal(self.sample.count)
            primal = lp_envelope(constraints, targets, obj, bound=1.5)
            dual = signed_measure_lp_dual(constraints, targets, obj, 1.5)
            assert primal.value == pytest.approx(dual, abs=1e-8)

    def test_infeasible_bound_diagnosed(self):
        with pytest.raises(SolverError) as err:
            lp_envelope(self.unit_hat[None, :], [5.0], self.x_hat, bound=1.0)
        assert "weight norm" in str(err.value)


class TestEnvelopeField:
    def setup_method(self):
        self.grid = path_grid(7)
        self.phi = smooth_map_field([1, 1], self.grid, seed=4, scale=0.7)
        self.sample = sample_state_space(C2, 6, seed=0)
        self.x = Element(C2, [[[1.0]], [[-1.0]]], selfadjoint=True)
        self.unit = C2.unit()

    def test_nested_families_shrink_upper(self):
        env1 = envelope_field(self.phi, [self.unit], self.x, 0.3, self.sample)
        env2 = envelope_field(self.phi, [self.unit, self.x], self.x, 0.2,
                              self.sample)
        assert np.all(env2.upper <= env1.upper + 1e-9)
        assert np.all(env2.lower >= env1.lower - 1e-9)

    def test_member_equals_map_value(self):
        env = envelope_field(self.phi, [self.unit, self.x], self.x, 0.1,
                             self.sample)
        vals = evaluate(self.phi, self.x)
        assert np.max(np.abs(env.upper - vals)) <= 1e-9
        assert np.max(np.abs(env.lower - vals)) <= 1e-9

    def test_zero_slack_full_family_commutative(self):
        other = Element(C2, [[[0.4]], [[1.1]]], selfadjoint=True)
        env = envelope_field(self.phi, [self.unit, self.x], other, 0.0,
                             self.sample)
        vals = evaluate(self.phi, other)
        assert np.max(np.abs(env.upper - vals)) <= 1e-8
        assert np.max(np.abs(env.lower - vals)) <= 1e-8

    def test_bracketing(self):
        env = envelope_field(self.phi, [self.unit], self.x, 0.25, self.sample)
        vals = evaluate(self.phi, self.x)
        assert np.all(env.lower <= vals + 1e-9)
        assert np.all(vals <= env.upper + 1e-9)

    def test_slack_monotonicity(self):
        env_small = envelope_field(self.phi, [self.unit], self.x, 0.1,
                                   self.sample)
        env_big = envelope_field(self.phi, [self.unit], self.x, 0.4,
                                 self.sample)
        assert np.all(env_big.upper >= env_small.upper - 1e-9)

    def test_upper_defect_shrinks_under_refinement(self):
        from tracefield.fields import refine_map_field
        from tracefield.grids import refine
        from oracles import epsilon_semicontinuity_report

        env = envelope_field(self.phi, [self.unit], self.x, 0.2, self.sample)
        fine_grid, prolong = refine(self.grid)
        phi_fine = refine_map_field(self.phi, fine_grid, prolong)
        env_fine = envelope_field(phi_fine, [self.unit], self.x, 0.2,
                                  self.sample)
        _, coarse = epsilon_semicontinuity_report(env.upper, self.grid,
                                                  "upper")
        _, fine = epsilon_semicontinuity_report(env_fine.upper, fine_grid,
                                                "upper")
        assert fine <= 0.75 * coarse + 1e-9


def _family(alg, size, seed):
    return [alg.unit()] + [random_selfadjoint(alg, 1000 * seed + j)
                           for j in range(size - 1)]


def _lp_reference(phi, fam, x, sample, bounds):
    """Per-node LP envelopes: (upper, lower, saturated upper, lower)."""
    rep = represent_family(fam, sample)
    x_hat = kadison_represent(x, sample)
    targets = np.stack([evaluate(phi, y) for y in fam], axis=1)
    out = []
    for t in range(phi.grid.n):
        hi = lp_envelope(rep.values, targets[t], x_hat, bounds[t], "max")
        lo = lp_envelope(rep.values, targets[t], x_hat, bounds[t], "min")
        out.append((hi.value, lo.value, hi.saturated, lo.saturated))
    return [np.array(col) for col in zip(*out)]


class TestHullEnvelopes:
    """The one-hull-per-stage envelopes against a per-node LP loop."""

    def check(self, phi, fam, x, delta, sample, monkeypatch):
        calls = []
        lp = statespace.lp_envelope
        monkeypatch.setattr(statespace, "lp_envelope",
                            lambda *a: calls.append(1) or lp(*a))
        env = envelope_field(phi, fam, x, delta, sample)
        monkeypatch.undo()
        upper, lower, sat_u, sat_l = _lp_reference(phi, fam, x, sample,
                                                   env.bounds)
        assert np.max(np.abs(env.upper - upper)) <= 1e-11
        assert np.max(np.abs(env.lower - lower)) <= 1e-11
        # where the objective is pinned every feasible weight is optimal, so
        # the LP's norm (and its saturation flag) is the solver's choice
        free = upper - lower > 1e-9
        assert np.array_equal(env.saturated_upper[free], sat_u[free])
        assert np.array_equal(env.saturated_lower[free], sat_l[free])
        return env, len(calls)

    @pytest.mark.parametrize("blocks, size, states, delta", [
        ((1, 2), 1, 6, 0.3), ((1, 2), 2, 60, 0.2), ((1, 2), 3, 250, 0.1),
        ((2,), 1, 250, 0.3), ((2,), 2, 150, 0.2), ((2,), 3, 30, 0.3),
        ((1, 1, 1), 1, 9, 0.3), ((1, 1, 1), 2, 9, 0.2),
        ((1, 1, 1), 3, 20, 0.1)])
    def test_matches_lp(self, blocks, size, states, delta, monkeypatch):
        alg = AlgebraDescriptor(blocks)
        phi = smooth_map_field(list(blocks), path_grid(9), seed=size,
                               scale=0.5)
        sample = sample_state_space(alg, states, seed=states)
        x = random_selfadjoint(alg, 77)
        _, calls = self.check(phi, _family(alg, size, 5), x, delta, sample,
                              monkeypatch)
        assert calls == 0

    def test_pinned_member(self, monkeypatch):
        phi = smooth_map_field([2], path_grid(9), seed=3, scale=0.5)
        sample = sample_state_space(M2, 100, seed=1)
        fam = _family(M2, 3, 2)
        env, _ = self.check(phi, fam, fam[2], 0.3, sample, monkeypatch)
        assert np.max(np.abs(env.upper - evaluate(phi, fam[2]))) <= 1e-12

    def test_zero_slack_commutative_and_zero_cap(self, monkeypatch):
        # duplicate vertex states; the family spans C2, so every node's
        # least weight norm equals its cap, and nodes 2 and 5 have cap 0
        phi = smooth_map_field([1, 1], path_grid(7), seed=4, scale=0.7)
        stacks = [s.copy() for s in phi.stacks]
        for s in stacks:
            s[[2, 5]] = 0.0
        phi = MapField(phi.grid, C2, stacks)
        x = Element(C2, [[[1.0]], [[-1.0]]], selfadjoint=True)
        other = Element(C2, [[[0.4]], [[1.1]]], selfadjoint=True)
        env, _ = self.check(phi, [C2.unit(), x], other, 0.0,
                            sample_state_space(C2, 6, seed=0), monkeypatch)
        assert env.bounds[2] == env.bounds[5] == 0.0
        assert env.upper[2] == env.lower[5] == 0.0

    @pytest.mark.parametrize("eps", [1e-9, 1e-8, 1e-6])
    def test_thin_hull(self, eps):
        # x = y + eps n with y in the family: K is a slab of width ~eps, and
        # the envelope is phi(y) + eps times the envelope of n, which the LP
        # gives to ~1e-15 (the LP on x itself is off by up to 5e-8 here)
        phi = smooth_map_field([2], path_grid(10), seed=3, scale=0.5)
        sample = sample_state_space(M2, 80, seed=0)
        fam = _family(M2, 2, 1)
        noise = random_selfadjoint(M2, 5)
        x = Element(M2, [fam[1].blocks[0] + eps * noise.blocks[0]],
                    selfadjoint=True)
        env = envelope_field(phi, fam, x, 0.5, sample)
        upper, lower, _, _ = _lp_reference(phi, fam, noise, sample,
                                           env.bounds)
        y = evaluate(phi, fam[1])
        assert np.max(np.abs(env.upper - (y + eps * upper))) <= 1e-14
        assert np.max(np.abs(env.lower - (y + eps * lower))) <= 1e-14

    def test_zero_cap_needs_zero_targets(self):
        # ||phi(t)|| = 0.75 exactly, so delta = -0.75 leaves cap 0 while
        # phi(unit) = 0.25: no weight vector, as for the LP
        from tracefield.algebra import FunctionalRep
        phi = constant_map_field(path_grid(3), FunctionalRep(
            C2, [np.array([[0.5]]), np.array([[-0.25]])]))
        sample = sample_state_space(C2, 6, seed=0)
        x = Element(C2, [[[1.0]], [[-1.0]]], selfadjoint=True)
        with pytest.raises(SolverError) as err:
            envelope_field(phi, [C2.unit()], x, -0.75, sample)
        assert str(err.value).startswith("node 0: envelope LP infeasible")
        with pytest.raises(SolverError):
            lp_envelope(represent_family([C2.unit()], sample).values,
                        [0.25], kadison_represent(x, sample), 0.0)

    def test_rank_six_takes_lp_path(self, monkeypatch):
        alg = AlgebraDescriptor((2, 2))
        phi = smooth_map_field([2, 2], path_grid(4), seed=2, scale=0.5)
        _, calls = self.check(phi, _family(alg, 5, 3),
                              random_selfadjoint(alg, 9), 0.5,
                              sample_state_space(alg, 40, seed=2),
                              monkeypatch)
        assert calls == 2 * 4

    @pytest.mark.parametrize("blocks", [(2,), (2, 2)])
    def test_infeasible_node_named(self, blocks):
        # hull and LP paths: the first node whose least weight norm on the
        # sample exceeds its cap
        alg = AlgebraDescriptor(blocks)
        phi = smooth_map_field(list(blocks), path_grid(5), seed=1, scale=0.5)
        fam = _family(alg, 3 if blocks == (2,) else 5, 4)
        sample = sample_state_space(alg, 6 if blocks == (2,) else 40, seed=0)
        rep = represent_family(fam, sample)
        targets = np.stack([evaluate(phi, y) for y in fam], axis=1)
        need = np.array([np.sum(np.abs(min_norm_measure(rep.values, row)))
                         for row in targets])
        excess = need - pointwise_norm(phi)
        delta = 0.5 * (np.min(excess) + np.max(excess))
        t = int(np.argmax(excess > delta))
        with pytest.raises(SolverError) as err:
            envelope_field(phi, fam, random_selfadjoint(alg, 8), delta,
                           sample)
        assert str(err.value).startswith(f"node {t}: envelope LP infeasible")
        assert f"need weight norm >= {need[t]:.6g}" in str(err.value)


class TestMinNormMeasure:
    def test_reproduces_targets(self, rng):
        sample = sample_state_space(M2, 30, seed=5)
        basis = [M2.unit(), SZ, SX, SY]
        values = np.stack([kadison_represent(b, sample) for b in basis])
        targets = rng.standard_normal(4)
        w = min_norm_measure(values, targets)
        assert np.allclose(values @ w, targets, atol=1e-9)


class TestApproximationStudy:
    def test_m2_chain(self):
        grid = path_grid(15)
        phi = smooth_map_field([2], grid, seed=11, scale=0.5)
        sample = sample_state_space(M2, 200, seed=2)
        chain = [[M2.unit(), SZ], [M2.unit(), SZ, SX],
                 [M2.unit(), SZ, SX, SY]]
        study = decomposable_approximation_study(
            phi, chain, [0.5, 0.2, 0.1], sample,
            [("sx", SX), ("sy", SY)])
        # member of the first family stays exact at every stage
        study_member = decomposable_approximation_study(
            phi, chain, [0.5, 0.2, 0.1], sample, [("sz", SZ)])
        assert np.max(study_member.distances) <= 1e-8
        # distances never increase along the chain and the last stage is
        # within the final slack
        assert np.all(np.diff(study.distances, axis=0) <= 1e-6)
        assert np.max(study.distances[-1]) <= 0.1 * 1.0 + 1e-6
        # realized measures represent the stage maps
        for stage in study.stages:
            assert stage.measure_residual <= 1e-8
