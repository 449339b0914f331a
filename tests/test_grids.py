import numpy as np
import pytest
import scipy.sparse as sp

from tracefield.grids import (Grid, GridError, circle_grid,
                              modulus_of_continuity, path_grid, refine)

from oracles import epsilon_semicontinuity_report, partition_of_unity


class TestGridConstruction:
    def test_disconnected_rejected(self):
        with pytest.raises(GridError):
            Grid("graph", 4, [(0, 1), (2, 3)], [1.0, 1.0])

    def test_nonpositive_length_rejected(self):
        with pytest.raises(GridError):
            Grid("path", 2, [(0, 1)], [0.0])

    def test_non_finite_length_rejected(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(GridError):
                Grid("path", 3, [(0, 1), (1, 2)], [1.0, bad])

    def test_self_loop_rejected(self):
        with pytest.raises(GridError, match="self-loop"):
            Grid("graph", 2, [(0, 1), (1, 1)], [1.0, 1.0])

    @pytest.mark.parametrize("twin", [(0, 1), (1, 0)])
    def test_parallel_edges_rejected(self, twin):
        # summed into one edge, the two would give node 1 distance 3.0
        with pytest.raises(GridError, match="edges 0 and 1 both join"):
            Grid("graph", 2, [(0, 1), twin], [1.0, 2.0])

    @pytest.mark.parametrize("positions", [[0.0, 0.5, np.nan],
                                           [0.0, np.inf, 1.0],
                                           [0.0, 1.0]])
    def test_bad_positions_rejected(self, positions):
        with pytest.raises(GridError, match="positions"):
            Grid("path", 3, [(0, 1), (1, 2)], [1.0, 1.0],
                 positions=positions)

    def test_infinity_nodes_kept_sorted(self):
        g = path_grid(5, infinity=(4, 0))
        assert g.infinity == (0, 4)

    def test_field_shape_checked(self):
        with pytest.raises(GridError):
            path_grid(4).check_field([1.0, 2.0])


class TestModulus:
    def test_constant_field(self):
        g = path_grid(9)
        mod = modulus_of_continuity(np.ones(9), g)
        assert mod.lipschitz == 0.0 and mod.max_jump == 0.0

    def test_linear_field_raw_jump(self):
        g = path_grid(11)   # step 0.1 on [0, 1]
        mod = modulus_of_continuity(g.positions, g)
        assert mod.max_jump == pytest.approx(0.1)
        assert mod.lipschitz == pytest.approx(1.0)

    def test_random_field_matches_edge_scan(self, rng):
        g = circle_grid(17)
        f = rng.standard_normal(17)
        mod = modulus_of_continuity(f, g)
        best_j, best_l = 0.0, 0.0
        for (i, j), w in zip(g.edges, g.lengths):
            best_j = max(best_j, abs(f[i] - f[j]))
            best_l = max(best_l, abs(f[i] - f[j]) / w)
        assert mod.max_jump == pytest.approx(best_j)
        assert mod.lipschitz == pytest.approx(best_l)


class TestSemicontinuityDefects:
    def test_constant_zero_defects(self):
        g = path_grid(6)
        defects, worst = epsilon_semicontinuity_report(np.ones(6), g, "upper")
        assert worst == 0.0 and np.all(defects == 0)

    def test_decreasing_step_defect_sits_on_the_high_edge(self):
        g = path_grid(6)
        f = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
        defects, _ = epsilon_semicontinuity_report(f, g, "lower")
        # only the node sitting above its neighbor is flagged; the landing
        # node of the step (the lsc-correct value) has zero defect
        assert defects[3] == 0.0
        assert defects[2] == pytest.approx(1.0)
        assert np.all(defects[[0, 1, 4, 5]] == 0.0)

    def test_spike_upper_defect_at_neighbors(self):
        g = path_grid(7)
        f = np.zeros(7)
        f[3] = 2.5
        defects, worst = epsilon_semicontinuity_report(f, g, "upper")
        assert defects[2] == pytest.approx(2.5)
        assert defects[4] == pytest.approx(2.5)
        assert worst == pytest.approx(2.5)

    def test_direction_validated(self):
        with pytest.raises(GridError):
            epsilon_semicontinuity_report(np.zeros(3), path_grid(3), "up")


class TestPartitionOfUnity:
    def test_single_full_cover(self):
        g = path_grid(5)
        lams = partition_of_unity(g, [range(5)])
        assert np.allclose(lams[0], 1.0)

    def test_two_overlapping_intervals_sum_to_one(self):
        g = path_grid(10)
        lams = partition_of_unity(g, [range(0, 7), range(4, 10)])
        total = lams[0] + lams[1]
        assert np.max(np.abs(total - 1.0)) <= 1e-12
        assert np.all(lams[0][7:] == 0.0)
        assert np.all(lams[1][:4] == 0.0)
        assert np.all(lams[0] >= 0) and np.all(lams[1] >= 0)
        # hat shape: nonincreasing after the plateau
        assert np.all(np.diff(lams[0][3:7]) <= 1e-12)

    def test_disjoint_bipartition_gives_indicators(self):
        g = path_grid(6)
        lams = partition_of_unity(g, [range(0, 3), range(3, 6)])
        assert np.array_equal(lams[0], [1, 1, 1, 0, 0, 0])
        assert np.array_equal(lams[1], [0, 0, 0, 1, 1, 1])

    def test_non_cover_rejected(self):
        with pytest.raises(GridError):
            partition_of_unity(path_grid(4), [[0, 1]])


class TestRefine:
    def test_path_two_to_three(self):
        g = path_grid(2)
        fine, _ = refine(g)
        assert fine.n == 3 and fine.kind == "path"
        degrees = np.zeros(3, int)
        for i, j in fine.edges:
            degrees[i] += 1
            degrees[j] += 1
        assert sorted(degrees) == [1, 1, 2]

    def test_circle_doubles(self):
        g = circle_grid(8)
        fine, _ = refine(g)
        assert fine.n == 16
        assert fine.edges.shape[0] == 16

    def test_lengths_halve(self):
        g = path_grid(5)
        fine, _ = refine(g)
        assert np.allclose(fine.lengths, g.lengths[0] / 2)

    def test_interpolated_jump_halves_exactly(self, rng):
        g = path_grid(12)
        f = rng.standard_normal(12)
        fine, prolong = refine(g)
        coarse = modulus_of_continuity(f, g).max_jump
        refined = modulus_of_continuity(prolong @ f, fine).max_jump
        assert refined == pytest.approx(coarse / 2, abs=1e-14)


def _refine_loop(grid):
    """Per-edge loop construction of the refined grid and a dense
    prolongation: the reference for the vectorised ``refine``."""
    n, m = grid.n, grid.edges.shape[0]
    edges, lengths = [], []
    prolong = np.zeros((n + m, n))
    prolong[:n] = np.eye(n)
    positions = np.concatenate([grid.positions, np.zeros(m)])
    for e, ((i, j), w) in enumerate(zip(grid.edges, grid.lengths)):
        mid = n + e
        edges += [(i, mid), (mid, j)]
        lengths += [w / 2, w / 2]
        prolong[mid, i] = prolong[mid, j] = 0.5
        positions[mid] = grid.positions[i] + w / 2
    return np.array(edges), np.array(lengths), positions, prolong


REFINE_GRIDS = {
    "path": lambda: path_grid(7),
    "circle": lambda: circle_grid(6),
    "graph": lambda: Grid("graph", 5, [(3, 0), (0, 1), (1, 2), (2, 3), (4, 1)],
                          [0.5, 1.0, 0.25, 2.0, 1.5],
                          positions=[0.0, 1.0, 1.25, 3.25, 2.5]),
}


class TestSparseRefine:
    @pytest.mark.parametrize("kind", sorted(REFINE_GRIDS))
    def test_matches_loop_reference(self, kind):
        g = REFINE_GRIDS[kind]()
        fine, prolong = refine(g)
        edges, lengths, positions, dense = _refine_loop(g)
        assert fine.kind == g.kind and fine.n == g.n + g.edges.shape[0]
        assert np.array_equal(fine.edges, edges)
        assert np.array_equal(fine.lengths, lengths)
        assert np.array_equal(fine.positions, positions)
        assert np.array_equal(prolong.toarray(), dense)

    @pytest.mark.parametrize("kind", sorted(REFINE_GRIDS))
    def test_prolongation_is_csr_with_two_halves_per_midpoint(self, kind):
        g = REFINE_GRIDS[kind]()
        n, m = g.n, g.edges.shape[0]
        _, prolong = refine(g)
        assert sp.issparse(prolong) and prolong.format == "csr"
        assert prolong.shape == (n + m, n) and prolong.nnz == n + 2 * m
        assert np.array_equal(prolong[:n].toarray(), np.eye(n))
        for e, (i, j) in enumerate(g.edges):
            row = prolong.getrow(n + e)
            assert sorted(row.indices) == sorted([i, j])
            assert np.array_equal(row.data, [0.5, 0.5])
        # constant fields stay constant
        assert np.array_equal(prolong @ np.ones(n), np.ones(n + m))
