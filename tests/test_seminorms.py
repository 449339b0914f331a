import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tracefield.seminorms import (AugmentedGauge, BaseNorm, MaxAbsLinear,
                                  Quotient, ScaledNorm, SubspaceDistance,
                                  SumGauge, VectorSpaceModel, balanced_chain,
                                  inf_convolve, quotient_seminorms)
from tracefield.solvers import orthonormal_rows

from oracles import quotient_bar_scan, scan_min_1d

N_NODES = 6


def scaled2(c=1.0, dim=3):
    return ScaledNorm(c, N_NODES, dim)


def m_delta(m, model, delta):
    """m plus delta times the distance to complement + shared nilspace."""
    return AugmentedGauge(m, [(delta, SubspaceDistance(model.quotient_rows(0),
                                                        model.norm))])


class TestEvalExamples:
    def test_zero_vector(self):
        assert scaled2().value_nodes(np.zeros(3))[0][2] == 0.0

    def test_scaled_two_norm(self):
        m = ScaledNorm(2.0, N_NODES, 2)
        assert m.value_nodes([1.0, 0.0])[0][0] == pytest.approx(2.0)

    def test_max_abs_linear(self):
        m = MaxAbsLinear([[1, 0], [1, 1]], N_NODES)
        assert m.value_nodes([1.0, -1.0])[0][3] == pytest.approx(1.0)


class TestGaugeAxioms:
    @settings(deadline=None, derandomize=True, max_examples=30)
    @given(st.integers(0, 10**6), st.floats(-5, 5, allow_nan=False))
    def test_closed_kinds_sublinear_homogeneous(self, seed, a):
        rng = np.random.default_rng(seed)
        gauges = [
            ScaledNorm(rng.uniform(0.5, 2, N_NODES), N_NODES, 3,
                       BaseNorm(1.0)),
            ScaledNorm(rng.uniform(0.5, 2, N_NODES), N_NODES, 3,
                       BaseNorm(float("inf"))),
            MaxAbsLinear(rng.standard_normal((4, 3)), N_NODES,
                         rng.uniform(0.1, 1, N_NODES)),
        ]
        m = SumGauge(gauges)
        x = rng.standard_normal(3)
        y = rng.standard_normal(3)
        vx, _ = m.value_nodes(x)
        vy, _ = m.value_nodes(y)
        vxy, _ = m.value_nodes(x + y)
        assert np.all(vxy <= vx + vy + 1e-9)
        vax, _ = m.value_nodes(a * x)
        assert np.max(np.abs(vax - abs(a) * vx)) <= 1e-9 * (1 + abs(a))

    def test_quotient_kinds_sublinear_via_witness_exchange(self, rng):
        m = ScaledNorm(rng.uniform(1, 2, N_NODES), N_NODES, 3)
        model = VectorSpaceModel(3, BaseNorm(2.0),
                                 np.eye(3)[:2], np.eye(3)[2:])
        bar, tilde = quotient_seminorms(m, model, 0.4)
        for gauge in (bar, tilde):
            for seed in range(5):
                r = np.random.default_rng(seed)
                x, y = r.standard_normal(3), r.standard_normal(3)
                vx, wx = gauge.value_nodes(x)
                vy, wy = gauge.value_nodes(y)
                vxy, _ = gauge.value_nodes(x + y, extra=[wx + wy])
                assert np.all(vxy <= vx + vy + 1e-9)
                a = 1.0 + seed / 2
                vax, wax = gauge.value_nodes(a * x, extra=[a * wx])
                assert np.all(vax <= a * vx + 1e-9)
                vx2, _ = gauge.value_nodes(x, extra=[wax / a])
                assert np.all(a * vx2 <= vax + 1e-9)


class TestMDelta:
    def model2(self):
        return VectorSpaceModel(2, BaseNorm(2.0), np.eye(2)[:1], np.eye(2)[1:])

    def test_complement_vector_untouched(self):
        m = scaled2(dim=2)
        md = m_delta(m, self.model2(), 0.3)
        z = np.array([0.0, 1.5])
        assert md.value_nodes(z)[0][1] == pytest.approx(
            m.value_nodes(z)[0][1])

    def test_full_nilspace_collapses(self):
        model = VectorSpaceModel(2, BaseNorm(2.0), np.eye(2)[:1],
                                 np.eye(2)[1:], nilspace=np.eye(2))
        zero = ScaledNorm(0.0, N_NODES, 2)
        for v in model.nilspace:
            assert np.all(zero.value_nodes(v)[0] == 0.0)
        md = m_delta(zero, model, 0.7)
        z = np.array([1.3, -0.4])
        assert md.value_nodes(z)[0][0] == pytest.approx(0.0, abs=1e-14)

    def test_unit_distance_to_complement(self):
        m = scaled2(dim=2)
        md = m_delta(m, self.model2(), 0.25)
        assert md.value_nodes([1.0, 0.0])[0][0] == pytest.approx(1.0 + 0.25)

    def test_sandwich(self, rng):
        m = ScaledNorm(rng.uniform(0.5, 2, N_NODES), N_NODES, 3)
        model = VectorSpaceModel(3, BaseNorm(2.0), np.eye(3)[:2], np.eye(3)[2:])
        md = m_delta(m, model, 0.5)
        for _ in range(20):
            z = rng.standard_normal(3)
            base, _ = m.value_nodes(z)
            aug, _ = md.value_nodes(z)
            assert np.all(base - 1e-12 <= aug)
            assert np.all(aug <= base + 0.5 * np.linalg.norm(z) + 1e-12)


class TestSubspaceDistances:
    @pytest.mark.parametrize("p", [1.0, 2.0, float("inf")])
    def test_against_dense_scan(self, p, rng):
        basis = rng.standard_normal((1, 3))
        dist = SubspaceDistance(basis, BaseNorm(p))
        z = rng.standard_normal(3)

        def fun(s):
            return BaseNorm(p).value(z - s * basis[0])

        expected, _ = scan_min_1d(fun, 20.0)
        assert dist.value(z) == pytest.approx(expected, abs=1e-7)

    def test_empty_basis_is_norm(self, rng):
        dist = SubspaceDistance(np.zeros((0, 4)), BaseNorm(1.0))
        z = rng.standard_normal(4)
        assert dist.value(z) == pytest.approx(np.sum(np.abs(z)))


class TestQuotientPair:
    def model(self, dim=3, k_c=1):
        return VectorSpaceModel(dim, BaseNorm(2.0), np.eye(dim)[:dim - k_c],
                                np.eye(dim)[dim - k_c:])

    def test_trivial_space_single_point(self):
        model = VectorSpaceModel(2, BaseNorm(2.0), np.eye(2), None)
        m = scaled2(dim=2)
        bar, tilde = quotient_seminorms(m, model, 0.5)
        z = np.array([0.6, -0.8])
        vb, _ = bar.value_nodes(z)
        expected = m.value_nodes(z)[0][0] + 0.5 * 1.0
        assert vb[0] == pytest.approx(expected, abs=1e-12)

    def test_complement_vector_collapses_to_zero(self):
        m = scaled2(dim=3)
        bar, _ = quotient_seminorms(m, self.model(), 0.5)
        vb, _ = bar.value_nodes(np.array([0.0, 0.0, 2.0]))
        assert np.max(np.abs(vb)) <= 1e-12

    def test_bar_matches_dense_scan(self, rng):
        c = rng.uniform(1, 2, N_NODES)
        m = ScaledNorm(c, N_NODES, 3)
        bar, _ = quotient_seminorms(m, self.model(), 0.35)
        z = rng.standard_normal(3)
        vb, _ = bar.value_nodes(z)
        for t in (0, N_NODES - 1):
            expected = quotient_bar_scan(
                lambda v: c[t] * np.linalg.norm(v),
                lambda v: np.linalg.norm(v),
                np.eye(3)[2], z, 0.35)
            assert vb[t] == pytest.approx(expected, abs=1e-6)

    def test_bar_below_tilde_everywhere(self, rng):
        m = MaxAbsLinear(rng.standard_normal((5, 3)), N_NODES,
                         rng.uniform(0.2, 1.5, N_NODES))
        bar, tilde = quotient_seminorms(m, self.model(), 0.2)
        for seed in range(10):
            z = np.random.default_rng(seed).standard_normal(3)
            vb, _ = bar.value_nodes(z)
            vt, _ = tilde.value_nodes(z)
            assert np.all(vb <= vt + 1e-12)


class TestBatchedValues:
    """``values(Z)`` solves every (vector, node) problem in one batch; it
    must agree with one ``value_nodes`` solve per problem."""

    def instance(self, seed=11):
        rng = np.random.default_rng(seed)
        m = ScaledNorm(rng.uniform(1, 2, N_NODES), N_NODES, 3)
        model = VectorSpaceModel(3, BaseNorm(2.0), np.eye(3)[:2],
                                 np.eye(3)[2:])
        return m, model, rng.standard_normal((3, N_NODES, 3))

    @staticmethod
    def loop(gauge, Z):
        return np.array([[gauge.value_nodes(Z[p, t])[0][t]
                          for t in range(Z.shape[1])]
                         for p in range(Z.shape[0])])

    def test_quotients_match_per_point_loop(self):
        m, model, Z = self.instance()
        bar, tilde = quotient_seminorms(m, model, 0.3)
        mixed = Quotient(bar.core, np.arange(N_NODES) % 2 == 0)
        for gauge in (bar, tilde, mixed):
            assert np.max(np.abs(gauge.values(Z) - self.loop(gauge, Z))) \
                <= 1e-12
        assert np.all(bar.values(Z) <= tilde.values(Z))

    def test_inf_convolution_matches_per_point_loop(self):
        m, _, Z = self.instance(12)
        ic = inf_convolve(m, ScaledNorm(1.5, N_NODES, 3), np.eye(3)[:2])
        assert np.max(np.abs(ic.values(Z) - self.loop(ic, Z))) <= 1e-12

    def test_leading_axes_preserved(self):
        m, model, Z = self.instance(13)
        bar, _ = quotient_seminorms(m, model, 0.3)
        Z4 = np.stack([Z, -Z])
        assert bar.values(Z4).shape == (2, 3, N_NODES)
        assert np.max(np.abs(bar.values(Z4)[1] - bar.values(-Z))) <= 1e-12


class TestPatternReference:
    """Quotient, inf-convolution and chain values come from the pattern
    search alone; they must stay bitwise equal to digests recorded before
    the subgradient phase and the multistarts were deleted from
    ``minimize_batched``."""

    @staticmethod
    def digest(*arrays):
        h = hashlib.sha256()
        for a in arrays:
            h.update(np.ascontiguousarray(a, dtype=float).tobytes())
        return h.hexdigest()[:16]

    def test_values_match_recorded_digests(self):
        rng = np.random.default_rng(31)
        m = ScaledNorm(rng.uniform(1, 2, N_NODES), N_NODES, 3)
        poly = MaxAbsLinear(rng.standard_normal((4, 3)), N_NODES,
                            rng.uniform(0.5, 1.5, N_NODES))
        model = VectorSpaceModel(3, BaseNorm(2.0), np.eye(3)[:2],
                                 np.eye(3)[2:])
        Z = rng.standard_normal((2, N_NODES, 3))
        bar, tilde = quotient_seminorms(m, model, 0.3)
        pbar, ptilde = quotient_seminorms(poly, model, 0.2)
        assert self.digest(bar.values(Z), tilde.values(Z), pbar.values(Z),
                           ptilde.values(Z)) == "0a22b037c1ffa4f8"
        ic = inf_convolve(m, ScaledNorm(1.5, N_NODES, 3), np.eye(3)[:2])
        ic2 = inf_convolve(poly, m, np.eye(3)[1:])
        assert self.digest(ic.values(Z), ic2.values(Z)) == "9cf996d03210c051"
        masks = [np.arange(N_NODES) < 4, np.arange(N_NODES) < 2]
        chain = balanced_chain(m, model, 0.3, masks,
                               [np.eye(3)[:1], np.eye(3)[:2]],
                               rng.standard_normal((2, 3)))
        assert self.digest(chain.stage_values, chain.tilde_values) \
            == "417f0265f0cebf10"


class TestInfConvolve:
    def test_trivial_subspace_returns_second(self, rng):
        m1 = scaled2(dim=3)
        m2 = ScaledNorm(1.5, N_NODES, 3)
        ic = inf_convolve(m1, m2, np.zeros((0, 3)))
        z = rng.standard_normal(3)
        v, _ = ic.value_nodes(z)
        base, _ = m2.value_nodes(z)
        assert np.allclose(v, base, atol=1e-12)

    def test_norm_selfconvolution(self):
        m = scaled2(dim=2)
        ic = inf_convolve(m, scaled2(dim=2), np.eye(2))
        z = np.array([3.0, 4.0])
        v, _ = ic.value_nodes(z)
        # attained at the halfway point; dense scan confirms the value 5
        def fun(s):
            y = np.array([s * 0.6, s * 0.8])
            return np.linalg.norm(y) + np.linalg.norm(z - y)
        expected, _ = scan_min_1d(fun, 20.0)
        assert v[0] == pytest.approx(expected, abs=1e-9)
        assert v[0] == pytest.approx(5.0, abs=1e-9)

    def test_member_bounded_by_first(self, rng):
        m1 = ScaledNorm(rng.uniform(1, 2, N_NODES), N_NODES, 3)
        m2 = scaled2(dim=3)
        f = np.eye(3)[:2]
        ic = inf_convolve(m1, m2, f)
        x = np.array([0.7, -0.2, 0.0])   # inside span(f)
        v, _ = ic.value_nodes(x)
        v1, _ = m1.value_nodes(x)
        assert np.all(v <= v1 + 1e-12)


class TestBalancedChain:
    def build_instance(self, seed):
        rng = np.random.default_rng(seed)
        n_nodes = N_NODES
        c = rng.uniform(1.0, 2.0, n_nodes)
        m = ScaledNorm(c, n_nodes, 3)
        model = VectorSpaceModel(3, BaseNorm(2.0), np.eye(3)[:2],
                                 np.eye(3)[2:])
        # map rows orthogonal to the complement and dominated by the gauge
        q = rng.standard_normal((n_nodes, 2))
        q = q / np.linalg.norm(q, axis=1, keepdims=True) \
            * (c * rng.uniform(0.3, 0.9, n_nodes))[:, None]
        phi_rows = np.hstack([q, np.zeros((n_nodes, 1))])
        masks = [np.arange(n_nodes) < 4, np.arange(n_nodes) < 2]
        f_bases = [np.eye(3)[:1], np.eye(3)[:2]]
        return m, model, phi_rows, masks, f_bases

    def test_domination_sandwich(self):
        m, model, phi_rows, masks, f_bases = self.build_instance(5)
        points = np.vstack([np.eye(3)[:2],
                            np.random.default_rng(1).standard_normal((3, 3))])
        chain = balanced_chain(m, model, 0.3, masks, f_bases, points)
        phi_vals = points @ phi_rows.T        # (n_points, n_nodes)
        for stage_vals in chain.stage_values:
            assert np.all(phi_vals <= stage_vals + 1e-12)
            assert np.all(stage_vals <= chain.tilde_values + 1e-8)

    def test_stage_zero_at_origin(self):
        m, model, phi_rows, masks, f_bases = self.build_instance(7)
        chain = balanced_chain(m, model, 0.3, masks, f_bases,
                               np.zeros((1, 3)))
        assert np.max(np.abs(chain.stage_values)) <= 1e-12

    def test_matches_per_point_reference(self):
        m, model, _, masks, f_bases = self.build_instance(9)
        masks = masks + [np.arange(N_NODES) >= 3]
        f_bases = f_bases + [np.eye(3)[1:2]]
        points = np.random.default_rng(2).standard_normal((3, 3))
        chain = balanced_chain(m, model, 0.3, masks, f_bases, points)

        # one value_nodes solve per vector, stage by stage
        def lattice(rows):
            q = orthonormal_rows(rows)
            axes = [np.linspace(-2.0, 2.0, 9)] * q.shape[0]
            mesh = np.meshgrid(*axes, indexing="ij")
            pts = np.stack([g.ravel() for g in mesh], axis=-1) @ q
            if not np.any(np.all(pts == 0.0, axis=1)):
                pts = np.vstack([np.zeros(3), pts])
            return pts

        def at(gauge, xs):
            return np.stack([gauge.value_nodes(x)[0] for x in xs])

        stages = chain.stage_gauges
        lat = lattice(f_bases[0])
        tab = at(stages[0], lat)
        expected = [at(stages[0], points)]
        for n in range(1, len(f_bases)):
            def conv(x):
                return np.min(tab + at(stages[n], x - lat), axis=0)
            expected.append(np.stack([conv(p) for p in points]))
            if n + 1 < len(f_bases):
                new_lat = lattice(f_bases[n])
                tab = np.stack([conv(p) for p in new_lat])
                lat = new_lat
        _, tilde = quotient_seminorms(m, model, 0.3)
        assert np.max(np.abs(chain.stage_values - np.stack(expected))) \
            <= 1e-12
        assert np.max(np.abs(chain.tilde_values - at(tilde, points))) \
            <= 1e-12
