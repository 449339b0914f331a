import numpy as np
import pytest

from tracefield.extension import radius_bound
from tracefield.generate import (crossing_map_field, extension_instance,
                                 random_map_field, smooth_map_field)
from tracefield.grids import circle_grid, path_grid


class TestMapFamilies:
    def test_crossing_is_the_stated_family(self):
        g = path_grid(21)
        phi = crossing_map_field(g)
        u = g.positions
        assert np.allclose(phi.stacks[0][:, 0, 0].real, u - 0.5, atol=1e-14)
        assert np.allclose(phi.stacks[0][:, 1, 1].real, 0.5 - u, atol=1e-14)
        assert np.max(np.abs(phi.stacks[0][:, 0, 1])) == 0.0

    def test_smooth_deterministic(self):
        g = circle_grid(12)
        a = smooth_map_field([2, 1], g, seed=5)
        b = smooth_map_field([2, 1], g, seed=5)
        for s1, s2 in zip(a.stacks, b.stacks):
            assert np.array_equal(s1, s2)

    def test_random_field_deterministic(self):
        g = path_grid(7)
        a = random_map_field([3], g, seed=2)
        b = random_map_field([3], g, seed=2)
        assert np.array_equal(a.stacks[0], b.stacks[0])


class TestExtensionInstances:
    @pytest.mark.parametrize("gauge_kind", ["scaled_norm", "max_abs_linear"])
    def test_margin_within_factor_two(self, gauge_kind):
        requested = 0.4
        problem = extension_instance(9, n_nodes=25, dim=4, dim_y=2,
                                     delta=0.1, margin=requested,
                                     gauge_kind=gauge_kind)
        cert = radius_bound(problem, problem.model.complement[0])
        assert requested / 2 <= cert.margin <= 2 * requested

    def test_scaled_norm_margin_calibration(self):
        # the sphere sample overestimates the true margin by its angular
        # resolution; one-dimensional subspaces are exact
        requested = 0.35
        problem = extension_instance(4, n_nodes=30, dim=5, dim_y=3,
                                     delta=0.1, margin=requested)
        cert = radius_bound(problem, problem.model.complement[0])
        assert requested - 1e-12 <= cert.margin <= requested + 5e-3
        problem1 = extension_instance(4, n_nodes=30, dim=3, dim_y=1,
                                      delta=0.1, margin=requested)
        cert1 = radius_bound(problem1, problem1.model.complement[0])
        assert cert1.margin == pytest.approx(requested, abs=1e-9)

    @pytest.mark.parametrize("seed, requested, lifted",
                             [(0, 0.4, False), (4, 0.4, False),
                              (0, 0.8, True), (3, 1.2, True)])
    def test_max_abs_linear_margin_is_exact(self, seed, requested, lifted):
        # the certified margin is read off the same sphere sample the
        # calibration solves on, so it equals the request to rounding
        problem = extension_instance(seed, n_nodes=25, dim=4, dim_y=2,
                                     delta=0.1, margin=requested,
                                     gauge_kind="max_abs_linear")
        u = problem.grid.positions / problem.grid.positions[-1]
        floor_scale = 1.0 + 0.25 * np.sin(2 * np.pi * u)
        assert lifted == (not np.allclose(problem.gauge.scale, floor_scale))
        cert = radius_bound(problem, problem.model.complement[0])
        assert abs(cert.margin - requested) <= 1e-12

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            extension_instance(0, dim=3, dim_y=3)
