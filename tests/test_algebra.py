import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tracefield.algebra import (AlgebraDescriptor, AlgebraError, Element,
                                FunctionalRep, op_norm, random_functional,
                                random_selfadjoint, random_state)
from tracefield.fields import constant_map_field, pointwise_norm
from tracefield.grids import Grid
from tracefield.jordan import split_map

from oracles import commutative_functional_norm, eigvals_2x2

M2 = AlgebraDescriptor((2,))
C2 = AlgebraDescriptor((1, 1))


def elem(descriptor, *mats):
    return Element(descriptor, [np.asarray(m, dtype=complex) for m in mats],
                   selfadjoint=True)


def func(descriptor, *mats):
    return FunctionalRep(descriptor, [np.asarray(m, dtype=complex)
                                      for m in mats])


POINT = Grid("graph", 1, [], [])


def one_node_norm(rho):
    """Norm of one functional, read off a one-node map field."""
    return float(pointwise_norm(constant_map_field(POINT, rho))[0])


def one_node_split(rho):
    """Positive and negative parts of one functional, read off the split of
    a one-node map field."""
    return tuple(FunctionalRep(rho.algebra, [s[0] for s in part.stacks])
                 for part in split_map(constant_map_field(POINT, rho)))


class TestDescriptors:
    def test_empty_rejected(self):
        with pytest.raises(AlgebraError):
            AlgebraDescriptor(())

    def test_zero_block_rejected(self):
        with pytest.raises(AlgebraError):
            AlgebraDescriptor((2, 0))

    def test_commutative_flag(self):
        assert C2.commutative and not M2.commutative

    def test_shape_mismatch_rejected(self):
        with pytest.raises(AlgebraError):
            elem(M2, np.eye(3))

    def test_nonhermitian_selfadjoint_rejected(self):
        with pytest.raises(AlgebraError):
            elem(M2, [[0, 1], [0, 0]])


class TestOpNorm:
    def test_unit_m3(self):
        assert op_norm(AlgebraDescriptor((3,)).unit()) == pytest.approx(1.0)

    def test_two_scalars(self):
        assert op_norm(elem(C2, [[2]], [[-5]])) == pytest.approx(5.0)

    def test_offdiagonal_char_poly_oracle(self):
        x = [[0, 1], [1, 0]]
        expected = float(np.max(np.abs(eigvals_2x2(np.array(x)))))
        assert expected == pytest.approx(1.0)
        assert op_norm(elem(M2, x)) == pytest.approx(expected, abs=1e-12)

    def test_rejects_non_selfadjoint(self):
        x = Element(M2, [np.array([[0, 1j], [1j, 0]])], selfadjoint=False)
        with pytest.raises(AlgebraError):
            op_norm(x)

    @settings(deadline=None, derandomize=True, max_examples=40)
    @given(st.floats(-8, 8, allow_nan=False), st.integers(0, 500))
    def test_real_homogeneity(self, a, seed):
        x = random_selfadjoint(AlgebraDescriptor((2, 3)), seed)
        assert op_norm(x.scaled(a)) == pytest.approx(abs(a) * op_norm(x),
                                                     abs=1e-10, rel=1e-10)


class TestFunctionalNorm:
    def test_commutative_corner_oracle(self):
        rho = func(C2, [[1]], [[-2]])
        assert commutative_functional_norm([1, -2]) == pytest.approx(3.0)
        assert one_node_norm(rho) == pytest.approx(3.0, abs=1e-12)

    def test_zero(self):
        assert one_node_norm(M2.zero_functional()) == 0.0

    def test_positive_attains_at_unit(self):
        for seed in range(5):
            rho = random_state(AlgebraDescriptor((2, 1)), seed)
            assert one_node_norm(rho) == pytest.approx(
                rho.pair(AlgebraDescriptor((2, 1)).unit()), abs=1e-12)


class TestJordanSplit:
    def test_diagonal_sign_split(self):
        p, m = one_node_split(func(C2, [[1]], [[-2]]))
        assert p.blocks[0][0, 0] == pytest.approx(1) and p.blocks[1][0, 0] == 0
        assert m.blocks[0][0, 0] == 0 and m.blocks[1][0, 0] == pytest.approx(2)

    def test_offdiagonal_eigen_oracle(self):
        # eigenvectors (1, 1)/sqrt(2) and (1, -1)/sqrt(2)
        p, m = one_node_split(func(M2, [[0, 1], [1, 0]]))
        assert np.allclose(p.blocks[0], 0.5 * np.array([[1, 1], [1, 1]]),
                           atol=1e-12)
        assert np.allclose(m.blocks[0], 0.5 * np.array([[1, -1], [-1, 1]]),
                           atol=1e-12)

    def test_positive_input_untouched(self):
        rho = random_state(M2, 7)
        p, m = one_node_split(rho)
        assert np.allclose(p.blocks[0], rho.blocks[0], atol=1e-12)
        assert np.max(np.abs(m.blocks[0])) <= 1e-12

    @pytest.mark.parametrize("blocks", [(1,), (2,), (1, 1), (3, 2)])
    def test_invariants_fuzz(self, blocks):
        descriptor = AlgebraDescriptor(blocks)
        for seed in range(25):
            rho = random_functional(descriptor, seed)
            p, m = one_node_split(rho)
            norm = one_node_norm(rho)
            traces = sum(np.trace(b).real for b in p.blocks) \
                + sum(np.trace(b).real for b in m.blocks)
            assert abs(traces - norm) <= 1e-10
            for pb, mb, rb in zip(p.blocks, m.blocks, rho.blocks):
                assert np.max(np.abs(rb - (pb - mb))) <= 1e-10
                assert np.max(np.abs(pb @ mb)) <= 1e-10      # orthogonal supports
                assert np.min(np.linalg.eigvalsh(pb)) >= -1e-12
                assert np.min(np.linalg.eigvalsh(mb)) >= -1e-12

    def test_negation_swaps_parts(self):
        rho = random_functional(AlgebraDescriptor((2, 2)), 3)
        p, m = one_node_split(rho)
        p2, m2 = one_node_split(rho.scaled(-1.0))
        for a, b in zip(p2.blocks, m.blocks):
            assert np.allclose(a, b, atol=1e-14)
        for a, b in zip(m2.blocks, p.blocks):
            assert np.allclose(a, b, atol=1e-14)

    def test_minimality_against_fuzzed_splits(self, rng):
        # any other positive split must carry at least the minimal total trace
        for seed in range(20):
            rho = random_functional(M2, 100 + seed)
            norm = one_node_norm(rho)
            p, m = one_node_split(rho)
            for _ in range(50):
                g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                shift = g @ g.conj().T * rng.uniform(0, 0.5)
                sp = p.blocks[0] + shift
                sm = m.blocks[0] + shift
                total = np.trace(sp).real + np.trace(sm).real
                assert total >= norm - 1e-9


class TestRandomState:
    def test_single_scalar_block(self):
        rho = random_state(AlgebraDescriptor((1,)), seed=9)
        assert rho.blocks[0][0, 0] == pytest.approx(1.0)

    def test_m2_contract(self):
        rho = random_state(M2, seed=1)
        assert np.min(np.linalg.eigvalsh(rho.blocks[0])) >= -1e-14
        assert np.trace(rho.blocks[0]).real == pytest.approx(1.0, abs=1e-12)

    def test_two_point_simplex(self):
        rho = random_state(C2, seed=4)
        p = np.array([rho.blocks[0][0, 0].real, rho.blocks[1][0, 0].real])
        assert np.all(p >= 0) and p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_deterministic(self):
        a = random_state(M2, seed=11)
        b = random_state(M2, seed=11)
        assert np.array_equal(a.blocks[0], b.blocks[0])
