"""Acceptance suite: one test per criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances and sizes are pinned here and nowhere else.
"""

import json
import time

import numpy as np
import pytest

from tracefield.algebra import AlgebraDescriptor, Element
from tracefield.cli import main as cli_main
from tracefield.extension import (ExtensionProblem, envelopes, extend_full,
                                  restriction_residual, select_continuous)
from tracefield.fields import evaluate, pointwise_norm
from tracefield.generate import (crossing_map_field, extension_instance,
                                 random_map_field, smooth_map_field)
from tracefield.grids import path_grid
from tracefield.jordan import (continuity_report, decompose_map,
                               verify_norm_additivity)
from tracefield.schemas import encode_instance, encode_map_field
from tracefield.seminorms import (BaseNorm, ScaledNorm, VectorSpaceModel,
                                  balanced_chain, quotient_seminorms)
from tracefield.solvers import total_variation
from tracefield.statespace import (decomposable_approximation_study,
                                   envelope_field, sample_state_space)

from oracles import (max_abs_envelope_lp, scaled_norm_envelopes,
                     signed_measure_lp_dual, tube_tv_lp)

M2 = AlgebraDescriptor((2,))
BLOCK_SHAPES = [(1,), (2,), (1, 1), (3, 2)]


def report(line):
    print(f"\n{line}")


# ---------------------------------------------------------------------------
# criterion 1: nodewise split exactness at scale

def test_criterion_1_jordan_exactness():
    start = time.time()
    grid = path_grid(200)
    worst_recon = worst_eig = worst_add = 0.0
    for i in range(50):
        phi = random_map_field(BLOCK_SHAPES[i % 4], grid, seed=1000 + i)
        res = decompose_map(phi)
        worst_recon = max(worst_recon, res.reconstruction_residual)
        worst_eig = min(worst_eig, res.min_eigenvalue)
        worst_add = max(worst_add, verify_norm_additivity(res))
    elapsed = time.time() - start
    assert worst_recon <= 1e-10
    assert worst_eig >= -1e-10
    assert worst_add <= 1e-10
    assert elapsed <= 5.0
    report(f"ACCEPTANCE 1 PASS split exactness: recon {worst_recon:.2e}, "
           f"min eig {worst_eig:.2e}, additivity {worst_add:.2e}, "
           f"{elapsed:.2f}s for 50 fields")


# ---------------------------------------------------------------------------
# criterion 2: split parts become continuous under refinement

def test_criterion_2_continuity_under_refinement():
    grid = path_grid(40)
    families = [crossing_map_field(grid)]
    families += [smooth_map_field([2], grid, seed=s) for s in (40, 41, 43)]
    families += [smooth_map_field([1, 1], grid, seed=s) for s in (60, 63)]
    worst_ratio = np.inf
    for phi in families:
        rep = continuity_report(decompose_map(phi), refinements=3,
                                min_factor=1.5)
        assert rep.passes, f"shrink ratio {rep.min_ratio} below 1.5"
        worst_ratio = min(worst_ratio, rep.min_ratio)
    report(f"ACCEPTANCE 2 PASS continuity: jump shrink factor >= "
           f"{worst_ratio:.3f} per refinement on {len(families)} families")


# ---------------------------------------------------------------------------
# criterion 3: no fuzzed positive split beats the construction

def test_criterion_3_minimality():
    grid = path_grid(50)
    rng = np.random.default_rng(33)
    checked = 0
    worst_gap = np.inf
    for i in range(20):
        blocks = BLOCK_SHAPES[i % 4]
        phi = random_map_field(blocks, grid, seed=2000 + i)
        res = decompose_map(phi)
        for _ in range(50):
            totals = np.zeros(grid.n)
            for b, d in enumerate(phi.algebra.blocks):
                g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                shift = (g @ g.conj().T) * rng.uniform(0, 0.4)
                plus = res.plus.stacks[b] + shift
                minus = res.minus.stacks[b] + shift
                totals += np.trace(plus, axis1=1, axis2=2).real \
                    + np.trace(minus, axis1=1, axis2=2).real
            gap = np.min(totals - res.norms)
            worst_gap = min(worst_gap, gap)
            assert gap >= -1e-9
            checked += 1
    assert checked == 1000
    report(f"ACCEPTANCE 3 PASS minimality: 1000 fuzzed splits, "
           f"smallest excess {worst_gap:.3e} >= -1e-9")


# ---------------------------------------------------------------------------
# criteria 4 and 5 share one seeded instance suite

def _suite_config():
    cfg = []
    for i in range(20):
        dim_y = [1, 2, 2, 3][i % 4]
        dim_c = [2, 2, 3, 3][i % 4]
        cfg.append(dict(
            seed=3000 + i,
            n_nodes=100,
            dim=dim_y + dim_c,
            dim_y=dim_y,
            delta=(0.1 if i % 2 == 0 else 0.01),
            margin=0.3 + 0.05 * (i % 5),
            gauge_kind=("max_abs_linear" if i % 7 == 3 else "scaled_norm"),
        ))
    return cfg


@pytest.fixture(scope="module")
def extension_suite():
    runs = []
    start = time.time()
    for cfg in _suite_config():
        problem = extension_instance(**cfg)
        result = extend_full(problem)
        runs.append((cfg, problem, result))
    return runs, time.time() - start


def test_criterion_4_extension(extension_suite):
    runs, elapsed = extension_suite
    rng = np.random.default_rng(8)
    worst_restrict = worst_excess = -np.inf
    for cfg, problem, result in runs:
        worst_restrict = max(worst_restrict,
                             restriction_residual(result, problem))
        dim = problem.model.dim
        zs = rng.standard_normal((1000, dim))
        vals = result.evaluate_many(zs)
        gauge_vals = problem.gauge.values(
            np.broadcast_to(zs[:, None, :], (1000, problem.grid.n, dim)))
        bound = gauge_vals + 2 * problem.delta \
            * problem.model.norm.value(zs)[:, None] + 1e-8
        worst_excess = max(worst_excess,
                           float(np.max(np.abs(vals) - bound)))
        z1, z2 = rng.standard_normal((2, dim))
        lin = result.evaluate(0.3 * z1 + 1.7 * z2) \
            - 0.3 * result.evaluate(z1) - 1.7 * result.evaluate(z2)
        assert np.max(np.abs(lin)) <= 1e-9
    assert worst_restrict <= 1e-9
    assert worst_excess <= 0.0
    assert elapsed <= 60.0
    report(f"ACCEPTANCE 4 PASS extension: 20 instances in {elapsed:.1f}s, "
           f"restriction {worst_restrict:.2e}, domination slack "
           f"{-worst_excess:.2e} inside the 1e-8 budget")


def _oracle_envelopes_dim1(problem, x, radius):
    """Dense scan plus per-node ternary refinement over the 1-D subspace."""
    b = problem.model.subspace
    n = problem.grid.n

    def obj_vec(sign, s_per_node):
        pts = s_per_node[:, None] * b[0] + x            # (n, dim)
        g = problem.gauge.values(pts[None, :, :])[0]
        return g + sign * s_per_node * problem.phi[:, 0]

    s_grid = np.linspace(-radius, radius, 8001)

    def minimize(sign):
        pts = s_grid[:, None] * b[0] + x                # (S, dim)
        g = problem.gauge.values(np.broadcast_to(
            pts[:, None, :], (len(s_grid), n, b.shape[1])))
        table = g + sign * s_grid[:, None] * problem.phi[:, 0][None, :]
        idx = np.argmin(table, axis=0)
        lo = s_grid[np.maximum(idx - 1, 0)]
        hi = s_grid[np.minimum(idx + 1, len(s_grid) - 1)]
        for _ in range(100):
            m1 = lo + (hi - lo) / 3
            m2 = hi - (hi - lo) / 3
            take = obj_vec(sign, m1) <= obj_vec(sign, m2)
            hi = np.where(take, m2, hi)
            lo = np.where(take, lo, m1)
        return obj_vec(sign, 0.5 * (lo + hi))

    upper = minimize(-1.0)
    lower = -minimize(+1.0)
    return lower, upper


def _exact_envelopes(problem, x):
    """Closed form for the Euclidean scaled norm, one LP per node and sign
    for max_abs_linear."""
    b, gauge = problem.model.subspace, problem.gauge
    if isinstance(gauge, ScaledNorm):
        assert gauge.norm.p == 2.0 and gauge.norm.weights is None
        return scaled_norm_envelopes(b, problem.phi, x, gauge.c)
    args = (b, problem.phi, x, gauge.functionals, gauge.scale)
    return -max_abs_envelope_lp(*args, 1.0), max_abs_envelope_lp(*args, -1.0)


# suite instances that are also checked against a model-free dense scan, one
# per gauge kind: 0 is scaled_norm with dim_y 1, 17 is max_abs_linear
_SCANNED = (0, 17)


def test_criterion_5_envelopes_match_oracle(extension_suite):
    runs, _ = extension_suite
    worst = 0.0
    checked = scanned = 0
    for i, (cfg, problem, _) in enumerate(runs):
        if cfg["dim_y"] > 2:
            continue
        x = problem.model.complement[0]
        pair = envelopes(problem, x)
        assert pair.gap_min >= -1e-12
        oracles = [_exact_envelopes(problem, x)]
        if i in _SCANNED:
            scan = _oracle_envelopes_dim1 if cfg["dim_y"] == 1 \
                else _oracle_envelopes_dim2
            oracles.append(scan(problem, x, pair.radius))
            scanned += 1
        for lower, upper in oracles:
            worst = max(worst, float(np.max(np.abs(pair.upper - upper))),
                        float(np.max(np.abs(pair.lower - lower))))
        checked += 1

    # the worked two-norm instance: envelope value sqrt(3) in the flat gauge
    g = path_grid(11)
    model = VectorSpaceModel(2, BaseNorm(2.0), np.eye(2)[:1], np.eye(2)[1:])
    worked = ExtensionProblem(g, model, ScaledNorm(2.0, g.n, 2),
                              np.ones((g.n, 1)), 1e-9)
    pair = envelopes(worked, np.eye(2)[1])
    sqrt3_err = max(float(np.max(np.abs(pair.upper - np.sqrt(3)))),
                    float(np.max(np.abs(pair.lower + np.sqrt(3)))))
    assert sqrt3_err <= 1e-6
    assert checked == 15 and scanned == len(_SCANNED)
    assert worst <= 1e-9
    report(f"ACCEPTANCE 5 PASS envelopes: {checked} low-dimensional "
           f"instances vs closed form / LP ({scanned} also vs dense scan), "
           f"max deviation {worst:.2e}; worked instance reproduces sqrt(3) "
           f"within {sqrt3_err:.2e}")


def _oracle_envelopes_dim2(problem, x, radius):
    """Coarse 2-D scan, then repeated exact line searches over many angles.

    The objective restricted to any line is convex, so each line minimum is
    found by golden-section search; sweeping a dense fan of directions from the
    running best point escapes the edge valleys of polyhedral gauges.
    """
    b = problem.model.subspace
    n = problem.grid.n
    nodes = np.arange(n)
    axis = np.linspace(-radius, radius, 81)
    g1, g2 = np.meshgrid(axis, axis, indexing="ij")
    coeffs = np.stack([g1.ravel(), g2.ravel()], axis=-1)    # (P, 2)
    pts = coeffs @ b + x                                    # (P, dim)
    g_vals = problem.gauge.values(np.broadcast_to(
        pts[:, None, :], (pts.shape[0], n, b.shape[1])))
    phi_vals = coeffs @ problem.phi.T                       # (P, n)
    gold = (np.sqrt(5.0) - 1.0) / 2.0

    def objective(cand, sign):
        # cand: (..., n, 2) -> (..., n)
        y = cand @ b + x
        return problem.gauge.values(y) \
            + sign * np.einsum("...nk,nk->...n", cand, problem.phi)

    def descend(sign):
        table = g_vals + sign * phi_vals
        idx = np.argmin(table, axis=0)
        best = coeffs[idx].copy()                           # (n, 2)
        best_v = table[idx, nodes]
        span = 2.0 * radius
        n_dirs = 64
        for sweep in range(12):
            # parallel exact line searches from the current best points;
            # the fan rotates between sweeps for finer angular coverage
            angles = (np.arange(n_dirs) + sweep / 3.0) * (np.pi / n_dirs)
            dirs = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
            base = best[None, :, :]

            def along(s):
                return objective(base + s[..., None] * dirs[:, None, :], sign)

            # golden-section search: each step keeps one interior point and
            # evaluates one new one; 72 steps shrink the bracket by 1e-15
            lo = np.full((n_dirs, n), -span)
            hi = np.full((n_dirs, n), span)
            m1, m2 = hi - gold * (hi - lo), lo + gold * (hi - lo)
            v1, v2 = along(m1), along(m2)
            for _ in range(72):
                take = v1 <= v2            # a minimum lies in [lo, m2]
                hi = np.where(take, m2, hi)
                lo = np.where(take, lo, m1)
                new = np.where(take, hi - gold * (hi - lo),
                               lo + gold * (hi - lo))
                v_new = along(new)
                m1, m2 = np.where(take, new, m2), np.where(take, m1, new)
                v1, v2 = np.where(take, v_new, v2), np.where(take, v1, v_new)
            s = 0.5 * (lo + hi)
            cand = base + s[..., None] * dirs[:, None, :]
            vals = objective(cand, sign)
            k = np.argmin(vals, axis=0)
            v_new = vals[k, nodes]
            improve = v_new < best_v - 1e-14
            if not np.any(improve):
                break
            best[improve] = cand[k[improve], improve]
            best_v[improve] = np.minimum(best_v, v_new)[improve]
        return best_v

    upper = descend(-1.0)
    lower = -descend(+1.0)
    return lower, upper


# ---------------------------------------------------------------------------
# criterion 6: TV-minimal selection against the LP oracle

def test_criterion_6_selection():
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(500 + seed)
        n = 60
        g = path_grid(n)
        lower = np.cumsum(rng.standard_normal(n)) * 0.25
        upper = lower + rng.uniform(0.02, 1.5, n)
        f = select_continuous(lower, upper, g)
        assert np.all(f >= lower) and np.all(f <= upper)
        tv = total_variation(f, g.edges)
        tv_lp = tube_tv_lp(lower, upper, g.edges)
        worst = max(worst, abs(tv - tv_lp))
        assert abs(tv - tv_lp) <= 1e-8
    report(f"ACCEPTANCE 6 PASS selection: 10 tubes, TV gap to LP oracle "
           f"{worst:.2e} <= 1e-8, tube membership exact")


# ---------------------------------------------------------------------------
# criterion 7: quotient constructions and the inductive chain

def test_criterion_7_seminorm_chain():
    worst_pair = -np.inf
    worst_dom = np.inf
    worst_tilde = -np.inf
    for seed in range(10):
        rng = np.random.default_rng(700 + seed)
        n_nodes, dim = 16, 3
        c = rng.uniform(1.0, 2.0, n_nodes)
        m = ScaledNorm(c, n_nodes, dim)
        model = VectorSpaceModel(dim, BaseNorm(2.0), np.eye(dim)[:2],
                                 np.eye(dim)[2:])
        # map rows orthogonal to the complement, dominated by the gauge
        q = rng.standard_normal((n_nodes, 2))
        q = q / np.linalg.norm(q, axis=1, keepdims=True) \
            * (c * rng.uniform(0.2, 0.8, n_nodes))[:, None]
        phi_rows = np.hstack([q, np.zeros((n_nodes, 1))])

        bar, tilde = quotient_seminorms(m, model, 0.25)
        points = np.vstack([np.eye(dim)[:2],
                            rng.standard_normal((3, dim))])
        for p in points:
            vb, _ = bar.value_nodes(p)
            vt, _ = tilde.value_nodes(p)
            worst_pair = max(worst_pair, float(np.max(vb - vt)))
            assert np.all(vb <= vt + 1e-12)

        masks = [np.arange(n_nodes) < 6, np.arange(n_nodes) < 3]
        chain = balanced_chain(m, model, 0.25, masks,
                               [np.eye(dim)[:1], np.eye(dim)[:2]],
                               np.eye(dim)[:2])
        phi_vals = np.eye(dim)[:2] @ phi_rows.T
        final = chain.stage_values[-1]
        worst_dom = min(worst_dom, float(np.min(final - phi_vals)))
        worst_tilde = max(worst_tilde,
                          float(np.max(final - chain.tilde_values)))
        assert np.all(phi_vals <= final + 1e-12)
        assert np.all(final <= chain.tilde_values + 1e-8)
    report(f"ACCEPTANCE 7 PASS seminorm chain: 10 instances, bar-tilde gap "
           f"<= {max(worst_pair, 0):.2e}, domination margin "
           f"{worst_dom:.3f}, chain below tilde by {-worst_tilde:.2e}")


# ---------------------------------------------------------------------------
# criterion 8: LP envelopes over growing families

def test_criterion_8_lp_envelopes():
    C3 = AlgebraDescriptor((1, 1, 1))
    grid = path_grid(15)
    phi = smooth_map_field([1, 1, 1], grid, seed=21, scale=0.6)
    sample = sample_state_space(C3, 9, seed=0)
    unit = C3.unit()
    d1 = Element(C3, [[[1.0]], [[-1.0]], [[0.0]]], selfadjoint=True)
    d2 = Element(C3, [[[0.5]], [[0.5]], [[-1.0]]], selfadjoint=True)
    x = Element(C3, [[[1.0]], [[0.3]], [[-0.7]]], selfadjoint=True)
    chain = [[unit], [unit, d1], [unit, d1, d2]]
    deltas = [0.3, 0.2, 0.1]

    prev = None
    for fam, d_n in zip(chain, deltas):
        env = envelope_field(phi, fam, x, d_n, sample)
        assert np.all(env.lower <= env.upper + 1e-12)
        if prev is not None:
            assert np.all(env.upper <= prev.upper + 1e-9)
            assert np.all(env.lower >= prev.lower - 1e-9)
        prev = env

    # a member of the family is pinned exactly
    env_member = envelope_field(phi, [unit, d1], d1, 0.2, sample)
    member_err = float(np.max(np.abs(env_member.upper - evaluate(phi, d1))))
    assert member_err <= 1e-9

    # independent dual-program oracle on the commutative instance
    from tracefield.statespace import kadison_represent, represent_family
    rep = represent_family([unit, d1], sample)
    x_hat = kadison_represent(x, sample)
    bounds = pointwise_norm(phi) + 0.2
    worst_dual = 0.0
    env = envelope_field(phi, [unit, d1], x, 0.2, sample)
    for t in range(grid.n):
        targets = [evaluate(phi, unit)[t], evaluate(phi, d1)[t]]
        dual = signed_measure_lp_dual(rep.values, targets, x_hat, bounds[t])
        worst_dual = max(worst_dual, abs(env.upper[t] - dual))
        assert abs(env.upper[t] - dual) <= 1e-7
    report(f"ACCEPTANCE 8 PASS LP envelopes: chain monotone, member pinned "
           f"to {member_err:.2e}, dual oracle gap {worst_dual:.2e} <= 1e-7")


# ---------------------------------------------------------------------------
# criterion 9: decomposable approximation study

def test_criterion_9_approximation_study():
    grid = path_grid(15)
    phi = smooth_map_field([2], grid, seed=11, scale=0.5)
    sample = sample_state_space(M2, 200, seed=2)
    sz = Element(M2, [np.diag([1.0, -1.0]).astype(complex)], selfadjoint=True)
    sx = Element(M2, [np.array([[0, 1], [1, 0]], dtype=complex)],
                 selfadjoint=True)
    sy = Element(M2, [np.array([[0, -1j], [1j, 0]])], selfadjoint=True)
    chain = [[M2.unit(), sz], [M2.unit(), sz, sx], [M2.unit(), sz, sx, sy]]
    deltas = [0.5, 0.2, 0.1]
    study = decomposable_approximation_study(
        phi, chain, deltas, sample, [("sx", sx), ("sy", sy)])
    diffs = np.diff(study.distances, axis=0)
    assert np.all(diffs <= 1e-6)
    final = float(np.max(study.distances[-1]))
    assert final <= deltas[-1] * 1.0 + 1e-6   # test elements have norm one
    report(f"ACCEPTANCE 9 PASS approximation study: distances "
           f"{[f'{d:.3f}' for d in study.distances.max(axis=1)]} "
           f"non-increasing, final {final:.2e} <= 0.1 + 1e-6")


# ---------------------------------------------------------------------------
# criterion 10: byte-identical reruns

def test_criterion_10_determinism(tmp_path):
    # command line pipeline
    grid = path_grid(30)
    inst = encode_instance("decompose",
                           {"map": encode_map_field(crossing_map_field(grid))})
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(inst))
    blobs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert cli_main(["decompose", str(inst_path), "--out",
                         str(out)]) == 0
        blobs.append(tuple((out / n).read_bytes()
                           for n in ("report.json", "norms.csv",
                                     "jumps.csv")))
    assert blobs[0] == blobs[1]

    # extension pipeline
    mats = []
    for _ in range(2):
        problem = extension_instance(3101, n_nodes=40, dim=4, dim_y=2,
                                     delta=0.1, margin=0.4)
        mats.append(extend_full(problem).matrix.tobytes())
    assert mats[0] == mats[1]

    # state-space pipeline
    fields = []
    C3 = AlgebraDescriptor((1, 1, 1))
    for _ in range(2):
        g = path_grid(9)
        phi = smooth_map_field([1, 1, 1], g, seed=5)
        sample = sample_state_space(C3, 9, seed=4)
        x = Element(C3, [[[1.0]], [[-0.5]], [[0.2]]], selfadjoint=True)
        env = envelope_field(phi, [C3.unit()], x, 0.2, sample)
        fields.append(env.upper.tobytes() + env.lower.tobytes())
    assert fields[0] == fields[1]
    report("ACCEPTANCE 10 PASS determinism: CLI, extension, and envelope "
           "pipelines rerun byte-identically")
