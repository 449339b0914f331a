import numpy as np
import pytest

from tracefield.algebra import (AlgebraDescriptor, Element, FunctionalRep,
                                op_norm, random_functional,
                                random_selfadjoint)
from tracefield.fields import (MapField, constant_map_field,
                               diagonal_map_field, evaluate,
                               is_absolutely_continuous,
                               map_field_from_nodes, pointwise_norm,
                               refine_map_field)
from tracefield.grids import circle_grid, path_grid, refine

from oracles import commutative_functional_norm

M2 = AlgebraDescriptor((2,))
C2 = AlgebraDescriptor((1, 1))


def scalar_field(grid, values):
    algebra = AlgebraDescriptor((1,))
    stack = np.asarray(values, dtype=complex).reshape(grid.n, 1, 1)
    return MapField(grid, algebra, [stack])


class TestEvaluate:
    def test_zero_element(self):
        g = path_grid(6)
        phi = constant_map_field(g, FunctionalRep(M2, [np.eye(2)]))
        zero = Element(M2, [np.zeros((2, 2))], selfadjoint=True)
        assert np.all(evaluate(phi, zero) == 0.0)

    def test_constant_functional(self):
        g = path_grid(5)
        rho = FunctionalRep(M2, [np.array([[1, 0], [0, -1]], dtype=complex)])
        phi = constant_map_field(g, rho)
        x = random_selfadjoint(M2, 3)
        assert np.allclose(evaluate(phi, x), rho.pair(x), atol=1e-12)

    def test_scalar_identity_field(self):
        g = path_grid(11)
        phi = scalar_field(g, g.positions)
        one = AlgebraDescriptor((1,)).unit()
        assert np.allclose(evaluate(phi, one), g.positions, atol=1e-14)

    def test_linearity(self, rng):
        g = path_grid(7)
        phi = map_field_from_nodes(
            g, [FunctionalRep(M2, [_herm(rng)]) for _ in range(7)])
        x = random_selfadjoint(M2, 1)
        y = random_selfadjoint(M2, 2)
        a, b = 1.7, -0.4
        combo = Element(M2, [a * x.blocks[0] + b * y.blocks[0]],
                        selfadjoint=True)
        lhs = evaluate(phi, combo)
        rhs = a * evaluate(phi, x) + b * evaluate(phi, y)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10

    def test_bounded_by_norm_product(self, rng):
        g = path_grid(9)
        phi = map_field_from_nodes(
            g, [FunctionalRep(M2, [_herm(rng)]) for _ in range(9)])
        for seed in range(5):
            x = random_selfadjoint(M2, seed)
            vals = np.abs(evaluate(phi, x))
            assert np.all(vals <= pointwise_norm(phi) * op_norm(x) + 1e-10)


def _herm(rng):
    m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    return 0.5 * (m + m.conj().T)


class TestPointwiseNorm:
    def test_constant_mixed_signs(self):
        g = path_grid(4)
        rho = FunctionalRep(C2, [np.array([[1.0]]), np.array([[-2.0]])])
        phi = constant_map_field(g, rho)
        expected = commutative_functional_norm([1, -2])
        assert np.allclose(pointwise_norm(phi), expected, atol=1e-12)

    def test_zero_map(self):
        g = path_grid(3)
        phi = constant_map_field(g, M2.zero_functional())
        assert np.all(pointwise_norm(phi) == 0.0)

    def test_positive_rank_one_ramp(self):
        g = path_grid(11)
        proj = np.array([[1, 0], [0, 0]], dtype=complex)
        stacks = [g.positions[:, None, None] * proj]
        phi = MapField(g, M2, stacks)
        assert np.allclose(pointwise_norm(phi), g.positions, atol=1e-14)


class TestAbsoluteContinuity:
    def test_constant_passes(self):
        g = path_grid(8)
        phi = constant_map_field(g, FunctionalRep(M2, [np.eye(2)]))
        assert is_absolutely_continuous(phi, 1e-12).passes

    def test_projection_flip_passes_norm_test_only(self):
        # adjacent functionals jump between diag(1,0) and diag(0,1): the norm
        # field is constant although the map itself is discontinuous
        g = path_grid(6)
        stacks = np.zeros((6, 2, 2), dtype=complex)
        for t in range(6):
            stacks[t, t % 2, t % 2] = 1.0
        phi = MapField(g, M2, [stacks])
        report = is_absolutely_continuous(phi, 1e-9)
        assert report.passes and report.max_jump <= 1e-15
        x = Element(M2, [np.diag([1.0, 0.0]).astype(complex)],
                    selfadjoint=True)
        elementwise = evaluate(phi, x)
        assert np.max(np.abs(np.diff(elementwise))) == pytest.approx(1.0)

    def test_norm_spike_fails(self):
        g = path_grid(7)
        vals = np.ones(7)
        vals[3] += 2e-3
        phi = scalar_field(g, vals)
        assert not is_absolutely_continuous(phi, 1e-3).passes

    def test_infinity_defect(self):
        g = path_grid(5, infinity=(0, 4))
        vals = np.array([0.1, 0.10001, 0.10002, 0.10001, 0.2])
        phi = scalar_field(g, vals)
        report = is_absolutely_continuous(phi, 1.0, cutoff=1e-3)
        assert not report.passes and report.infinity_defect > 1e-3


class TestRefineTransfer:
    def test_linear_interpolation_of_stacks(self, rng):
        g = path_grid(5)
        phi = map_field_from_nodes(
            g, [FunctionalRep(M2, [_herm(rng)]) for _ in range(5)])
        fine, prolong = refine(g)
        out = refine_map_field(phi, fine, prolong)
        # midpoint of edge 0 is node 5: average of nodes 0 and 1
        assert np.allclose(out.stacks[0][5],
                           0.5 * (phi.stacks[0][0] + phi.stacks[0][1]),
                           atol=1e-14)

    @pytest.mark.parametrize("grid", [path_grid(9), circle_grid(8)],
                             ids=["path", "circle"])
    def test_sparse_transfer_equals_dense_einsum(self, grid):
        algebra = AlgebraDescriptor((1, 2, 3))
        phi = map_field_from_nodes(
            grid, [random_functional(algebra, 100 + t) for t in range(grid.n)])
        fine, prolong = refine(grid)
        out = refine_map_field(phi, fine, prolong)
        dense = prolong.toarray()
        ref = MapField(fine, phi.algebra, [np.einsum("mn,nij->mij", dense, s)
                                           for s in phi.stacks])
        for o, r in zip(out.stacks, ref.stacks):
            assert np.array_equal(o, r)


class TestDiagonalField:
    def test_multiplication_semantics(self, rng):
        g = path_grid(5)
        c = rng.standard_normal(5)
        phi = diagonal_map_field(g, c)
        x = random_selfadjoint(phi.algebra, 3)
        xv = np.array([x.blocks[t][0, 0].real for t in range(5)])
        assert np.allclose(evaluate(phi, x), c * xv, atol=1e-12)
