import numpy as np
import pytest

from tracefield.algebra import AlgebraDescriptor, FunctionalRep
from tracefield.fields import (MapField, constant_map_field,
                               diagonal_map_field, evaluate,
                               refine_map_field)
from tracefield.generate import (crossing_map_field, random_map_field,
                                 smooth_map_field)
from tracefield.grids import path_grid, refine
from tracefield.jordan import (continuity_report, decompose_map,
                               default_test_elements, verify_norm_additivity)

M2 = AlgebraDescriptor((2,))


def scalar_field(grid, values):
    stack = np.asarray(values, dtype=complex).reshape(grid.n, 1, 1)
    return MapField(grid, AlgebraDescriptor((1,)), [stack])


def weights(phi):
    """(block, node) table of a field over a commutative algebra."""
    return np.stack([s[:, 0, 0].real for s in phi.stacks])


class TestDecompose:
    def test_positive_field_has_no_negative_part(self):
        g = path_grid(6)
        phi = constant_map_field(g, FunctionalRep(M2, [np.eye(2)]))
        res = decompose_map(phi)
        assert np.max(np.abs(res.minus.stacks[0])) <= 1e-14
        assert verify_norm_additivity(res) <= 1e-12

    def test_scalar_ramp_sign_split(self):
        g = path_grid(21)
        phi = scalar_field(g, g.positions - 0.5)
        res = decompose_map(phi)
        plus = res.plus.stacks[0][:, 0, 0].real
        minus = res.minus.stacks[0][:, 0, 0].real
        assert np.allclose(plus, np.maximum(g.positions - 0.5, 0), atol=1e-14)
        assert np.allclose(minus, np.maximum(0.5 - g.positions, 0), atol=1e-14)

    def test_constant_offdiagonal_rank_one_parts(self):
        g = path_grid(4)
        phi = constant_map_field(
            g, FunctionalRep(M2, [np.array([[0, 1], [1, 0]], dtype=complex)]))
        res = decompose_map(phi)
        assert np.allclose(res.plus.stacks[0][2],
                           0.5 * np.array([[1, 1], [1, 1]]), atol=1e-12)
        assert np.allclose(res.minus.stacks[0][2],
                           0.5 * np.array([[1, -1], [-1, 1]]), atol=1e-12)

    @pytest.mark.parametrize("blocks", [(1,), (2,), (1, 1), (3, 2)])
    def test_random_field_contracts(self, blocks):
        g = path_grid(30)
        phi = random_map_field(blocks, g, seed=hash(blocks) % 2**31)
        res = decompose_map(phi)
        assert res.reconstruction_residual <= 1e-10
        assert res.min_eigenvalue >= -1e-10
        assert verify_norm_additivity(res) <= 1e-10

    def test_sign_equivariance(self):
        g = path_grid(9)
        phi = random_map_field([2, 1], g, seed=77)
        res = decompose_map(phi)
        res_neg = decompose_map(phi.scaled(-1.0))
        for a, b in zip(res_neg.plus.stacks, res.minus.stacks):
            assert np.array_equal(a, b)
        for a, b in zip(res_neg.minus.stacks, res.plus.stacks):
            assert np.array_equal(a, b)

    def test_minimality_under_fuzz(self, rng):
        g = path_grid(8)
        phi = random_map_field([2], g, seed=5)
        res = decompose_map(phi)
        for _ in range(40):
            w = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            shift = (w @ w.conj().T) * rng.uniform(0, 0.3)
            for t in range(g.n):
                alt_plus = res.plus.stacks[0][t] + shift
                alt_minus = res.minus.stacks[0][t] + shift
                total = np.trace(alt_plus).real + np.trace(alt_minus).real
                assert total >= res.norms[t] - 1e-9


class TestNormAdditivityResidual:
    def test_decomposition_output_is_tight(self):
        g = path_grid(12)
        res = decompose_map(random_map_field([2, 2], g, seed=3))
        assert verify_norm_additivity(res) <= 1e-10

    def test_padded_split_shows_residual(self):
        g = path_grid(5)
        phi = scalar_field(g, np.linspace(-1, 1, 5))
        res = decompose_map(phi)
        tau = 0.25
        padded_plus = MapField(g, phi.algebra,
                               [res.plus.stacks[0] + tau])
        padded_minus = MapField(g, phi.algebra,
                                [res.minus.stacks[0] + tau])
        from dataclasses import replace
        from tracefield.fields import pointwise_norm
        padded = replace(res, norms_plus=pointwise_norm(padded_plus),
                         norms_minus=pointwise_norm(padded_minus))
        assert verify_norm_additivity(padded) == pytest.approx(2 * tau,
                                                               abs=1e-12)

    def test_zero_map(self):
        g = path_grid(4)
        res = decompose_map(constant_map_field(g, M2.zero_functional()))
        assert verify_norm_additivity(res) == 0.0


class TestContinuityReport:
    def test_constant_field_all_zero(self):
        g = path_grid(10)
        phi = constant_map_field(g, FunctionalRep(M2, [np.diag([1.0, -1.0])]))
        report = continuity_report(decompose_map(phi), refinements=2)
        assert np.max(report.jumps) == 0.0
        assert report.passes

    def test_scalar_ramp_jump_halves(self):
        g = path_grid(41)
        phi = scalar_field(g, g.positions - 0.5)
        report = continuity_report(decompose_map(phi), refinements=3)
        unit_jumps = report.jumps[0, 0]    # plus part on the unit element
        step = 1.0 / 40
        assert unit_jumps[0] == pytest.approx(step, abs=1e-12)
        assert report.min_ratio >= 1.5
        assert np.allclose(unit_jumps[:-1] / unit_jumps[1:], 2.0, atol=1e-6)

    def test_eigenvalue_crossing_family(self):
        g = path_grid(41)
        report = continuity_report(decompose_map(crossing_map_field(g)),
                                   refinements=3)
        assert report.passes
        assert report.min_ratio >= 1.5

    def test_jumps_match_full_decomposition_per_level(self):
        g = path_grid(30)
        phi = smooth_map_field([1, 2, 3], g, 5)
        report = continuity_report(decompose_map(phi), refinements=3)
        ref = np.zeros_like(report.jumps)
        grid, field = g, phi
        for level in range(4):
            if level:
                grid, prolong = refine(grid)
                field = refine_map_field(field, grid, prolong)
            dec = decompose_map(field)
            for e, (_, x) in enumerate(default_test_elements(phi.algebra)):
                for k, part in enumerate((dec.plus, dec.minus)):
                    vals = evaluate(part, x)
                    ref[e, k, level] = np.max(np.abs(
                        vals[grid.edges[:, 0]] - vals[grid.edges[:, 1]]))
        assert np.array_equal(report.jumps, ref)


class TestLocality:
    # on the functions on a finite set the split acts weight by weight: a
    # multiplication field by c splits into multiplications by max(c, 0)
    # and max(-c, 0)
    def test_ramp_weights(self):
        g = path_grid(15)
        c = g.positions - 0.5
        res = decompose_map(diagonal_map_field(g, c))
        assert np.allclose(weights(res.plus), np.diag(np.maximum(c, 0)),
                           atol=1e-12)

    def test_positive_weights_no_negative_part(self):
        g = path_grid(8)
        c = np.abs(np.sin(1 + g.positions))
        res = decompose_map(diagonal_map_field(g, c))
        assert np.allclose(weights(res.plus), np.diag(c), atol=1e-12)
        assert np.max(weights(res.minus)) == 0.0

    def test_random_weights_match_scalar_split(self, rng):
        g = path_grid(12)
        c = rng.standard_normal(12)
        res = decompose_map(diagonal_map_field(g, c))
        assert np.allclose(weights(res.plus), np.diag(np.maximum(c, 0)),
                           atol=1e-12)
        assert np.allclose(weights(res.minus), np.diag(np.maximum(-c, 0)),
                           atol=1e-12)

    def test_non_diagonal_input_splits_weightwise(self):
        g = path_grid(4)
        phi = random_map_field([1] * 4, g, seed=2)
        c = weights(phi)
        assert np.min(np.abs(c)) > 0        # every node sees every block
        res = decompose_map(phi)
        assert np.allclose(weights(res.plus), np.maximum(c, 0), atol=1e-12)
        assert np.allclose(weights(res.minus), np.maximum(-c, 0), atol=1e-12)
