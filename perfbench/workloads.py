"""The four benchmark workloads.

Each workload is a fixed cycle of operation shapes ("positions").  The seed
given to the benchmark only changes the numbers inside the generated inputs,
never the shapes, so every seed measures the same mix.  An operation runs
through tracefield's public entry points: ``cli.main`` for the CLI workloads
and the ``seminorms`` functions for the library workload.  Module attributes
are looked up at call time so that the traced run's wrappers are seen.

Every workload provides:

* ``setup(inputs_dir)``: generate the input of every position;
* ``warm_up(op_dir)``: one small operation through the same code path;
* ``op(pos, op_dir)``: the timed operation, returning a handle;
* ``verify(pos, op_dir, handle)``: the untimed correctness check,
  returning ``(ok, digest)`` where the digest is the sha256 of the outputs;
* ``host_kernels``: the kinds of code its operations spend their time in,
  which the host probe of ``run.py`` times to scale operation times.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os

import numpy as np


def derive_seed(*parts):
    """A 32-bit seed from the benchmark seed and an operation's coordinates."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def digest_dir(path):
    """sha256 over the names and bytes of every file in ``path``."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(path, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def digest_arrays(arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=float)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array(rows[1:], dtype=float)


class Workload:
    name = ""
    positions = ()
    host_kernels = ("python_loop", "numpy_small", "highs_lp")

    def __init__(self, seed):
        self.seed = int(seed)
        self.inputs = []

    def setup(self, inputs_dir):
        os.makedirs(inputs_dir, exist_ok=True)
        self.inputs = [
            self.make_input(spec, derive_seed(self.seed, pos),
                            os.path.join(inputs_dir, f"p{pos}.json"))
            for pos, spec in enumerate(self.positions)]

    def sizes(self):
        return [dict(p) for p in self.positions]


# ---------------------------------------------------------------------------
# decompose: the continuity study from the README

class Decompose(Workload):
    name = "decompose"
    positions = (
        {"family": "smooth", "blocks": [2, 3, 4], "nodes": 240},
        {"family": "smooth", "blocks": [1, 1, 2], "nodes": 400},
        {"family": "smooth", "blocks": [4], "nodes": 320},
        {"family": "crossing", "blocks": [2], "nodes": 800},
    )
    refine = 3
    # the dense prolongation and the field stacks it multiplies are far
    # larger than the cache
    host_kernels = ("array_pass",)

    def make_input(self, spec, seed, path):
        from tracefield import generate, grids, reports, schemas
        grid = grids.path_grid(spec["nodes"])
        if spec["family"] == "crossing":
            angle = float(np.random.default_rng(seed).uniform(0.0, np.pi))
            phi = generate.crossing_map_field(grid, angle=angle)
        else:
            phi = generate.smooth_map_field(spec["blocks"], grid, seed)
        reports.write_json(path, schemas.encode_instance(
            "decompose", {"map": schemas.encode_map_field(phi)}))
        return path

    def warm_up(self, op_dir):
        path = self.make_input({"family": "smooth", "blocks": [2],
                                "nodes": 20}, 0,
                               os.path.join(op_dir, "warm.json"))
        return self._run(path, os.path.join(op_dir, "warm"), 1)

    def _run(self, path, op_dir, refine):
        from tracefield import cli
        return cli.main(["decompose", path, "--out", op_dir,
                         "--refine", str(refine)])

    def op(self, pos, op_dir):
        return self._run(self.inputs[pos], op_dir, self.refine)

    def verify(self, pos, op_dir, code):
        digest = digest_dir(op_dir)
        if code != 0:
            return False, digest
        with open(os.path.join(op_dir, "report.json")) as fh:
            res = json.load(fh)["results"]
        ok = (res["reconstruction_residual"] <= 1e-10
              and res["norm_additivity_residual"] <= 1e-10
              and res["min_eigenvalue"] >= -1e-10)
        return ok, digest


# ---------------------------------------------------------------------------
# extend: generate an instance, write it, run the extend command

class Extend(Workload):
    name = "extend"
    positions = (
        {"grid": "path", "nodes": 50, "dim_y": 1, "complement": 2,
         "gauge": "scaled_norm", "delta": 0.1, "margin": 0.4},
        {"grid": "circle", "nodes": 80, "dim_y": 2, "complement": 2,
         "gauge": "scaled_norm", "delta": 0.01, "margin": 0.35},
        {"grid": "path", "nodes": 60, "dim_y": 2, "complement": 2,
         "gauge": "scaled_norm", "delta": 0.1, "margin": 0.5},
        {"grid": "path", "nodes": 24, "dim_y": 1, "complement": 2,
         "gauge": "max_abs_linear", "delta": 0.1, "margin": 0.3},
        {"grid": "circle", "nodes": 60, "dim_y": 1, "complement": 2,
         "gauge": "scaled_norm", "delta": 0.01, "margin": 0.45},
        {"grid": "path", "nodes": 40, "dim_y": 3, "complement": 2,
         "gauge": "scaled_norm", "delta": 0.1, "margin": 0.4},
        {"grid": "circle", "nodes": 80, "dim_y": 1, "complement": 3,
         "gauge": "scaled_norm", "delta": 0.01, "margin": 0.3},
    )

    def setup(self, inputs_dir):
        # the instance is generated inside the operation
        os.makedirs(inputs_dir, exist_ok=True)

    def _run(self, spec, seed, op_dir):
        from tracefield import cli, generate, grids, reports, schemas
        make_grid = grids.path_grid if spec["grid"] == "path" \
            else grids.circle_grid
        problem = generate.extension_instance(
            seed, n_nodes=spec["nodes"],
            dim=spec["dim_y"] + spec["complement"], dim_y=spec["dim_y"],
            delta=spec["delta"], margin=spec["margin"],
            gauge_kind=spec["gauge"], grid=make_grid(spec["nodes"]))
        path = os.path.join(op_dir, "instance.json")
        reports.write_json(path, schemas.encode_instance(
            "extend", schemas.encode_extension_problem(problem)))
        return cli.main(["extend", path, "--out", op_dir]), problem

    def warm_up(self, op_dir):
        spec = dict(self.positions[0], nodes=12)
        return self._run(spec, 0, op_dir)

    def op(self, pos, op_dir):
        return self._run(self.positions[pos], derive_seed(self.seed, pos),
                         op_dir)

    def verify(self, pos, op_dir, handle):
        code, problem = handle
        digest = digest_dir(op_dir)
        if code != 0:
            return False, digest
        # rebuild the final map from selections.csv: the basis is the
        # subspace followed by the complement rows in extension order
        _, rows = _read_csv(os.path.join(op_dir, "selections.csv"))
        model, n = problem.model, problem.grid.n
        steps = model.complement.shape[0]
        sel = np.zeros((steps, n))
        sel[rows[:, 0].astype(int), rows[:, 1].astype(int)] = rows[:, 2]
        basis = np.vstack([model.subspace, model.complement])
        values = np.hstack([problem.phi, sel.T])
        matrix = np.linalg.solve(basis, values.T).T
        rng = np.random.default_rng(derive_seed(self.seed, pos, 1))
        zs = rng.standard_normal((1000, model.dim))
        gauge = problem.gauge.values(
            np.broadcast_to(zs[:, None, :], (1000, n, model.dim)))
        bound = gauge + 2.0 * problem.delta \
            * model.norm.value(zs)[:, None] + 1e-8
        excess = float(np.max(np.abs(zs @ matrix.T) - bound))
        return excess <= 0.0, digest


# ---------------------------------------------------------------------------
# envelope: signed-measure LP envelopes over a three-stage chain

class Envelope(Workload):
    name = "envelope"
    positions = (
        {"algebra": [1, 2], "nodes": 16, "states": 150},
        {"algebra": [2], "nodes": 20, "states": 200},
        {"algebra": [1, 2], "nodes": 24, "states": 250},
        {"algebra": [2], "nodes": 12, "states": 150},
    )
    delta_seq = (0.3, 0.2, 0.1)

    def make_input(self, spec, seed, path):
        from tracefield import algebra, generate, grids, reports, schemas
        alg = algebra.AlgebraDescriptor(tuple(spec["algebra"]))
        phi = generate.smooth_map_field(spec["algebra"],
                                        grids.path_grid(spec["nodes"]),
                                        seed, scale=0.5)
        unit = alg.unit()
        y1 = algebra.random_selfadjoint(alg, derive_seed(seed, 1))
        y2 = algebra.random_selfadjoint(alg, derive_seed(seed, 2))
        x = algebra.random_selfadjoint(alg, derive_seed(seed, 3))
        states = {"count": spec["states"], "seed": seed % 100000}
        excess = self.sample_excess(phi, [unit, y1, y2], states)
        enc = schemas.encode_element
        payload = {
            "map": schemas.encode_map_field(phi),
            "chain": [[enc(unit)], [enc(unit), enc(y1)],
                      [enc(unit), enc(y1), enc(y2)]],
            "delta_seq": [d + excess for d in self.delta_seq],
            "x": enc(x),
            "states": states,
        }
        reports.write_json(path, schemas.encode_instance("envelope", payload))
        return path

    @staticmethod
    def sample_excess(phi, family, states):
        """How far the least weight norm matching phi on ``family`` exceeds
        ||phi(t)||, at worst over the nodes.

        On a finite state sample that least norm can exceed ||phi(t)||, and
        a stage whose slack is below the excess has no admissible measure:
        the command then rightly exits with "envelope LP infeasible".  The
        slacks are set on top of this excess, so every stage is feasible
        (the families grow, so the last one needs the most) and the slacks
        still shrink from stage to stage.
        """
        from tracefield import fields, statespace
        sample = statespace.sample_state_space(phi.algebra, states["count"],
                                               states["seed"])
        rep = statespace.represent_family(family, sample)
        targets = np.stack([fields.evaluate(phi, y) for y in family], axis=1)
        need = np.array([np.sum(np.abs(statespace.min_norm_measure(
            rep.values, targets[t]))) for t in range(phi.grid.n)])
        return max(0.0, float(np.max(need - fields.pointwise_norm(phi))))

    def _run(self, path, op_dir):
        from tracefield import cli
        return cli.main(["envelope", path, "--out", op_dir])

    def warm_up(self, op_dir):
        path = self.make_input({"algebra": [2], "nodes": 6, "states": 100}, 0,
                               os.path.join(op_dir, "warm.json"))
        return self._run(path, os.path.join(op_dir, "warm"))

    def op(self, pos, op_dir):
        return self._run(self.inputs[pos], op_dir)

    def verify(self, pos, op_dir, code):
        digest = digest_dir(op_dir)
        if code != 0:
            return False, digest
        header, rows = _read_csv(os.path.join(op_dir, "envelopes.csv"))
        col = {h: i for i, h in enumerate(header)}
        stage = rows[:, col["stage"]].astype(int)
        upper = rows[:, col["upper"]]
        lower = rows[:, col["lower"]]
        ok = bool(np.all(lower <= upper + 1e-12))
        n = self.positions[pos]["nodes"]
        for i in range(1, len(self.delta_seq)):
            prev, cur = stage == i - 1, stage == i
            ok &= bool(np.sum(cur) == n
                       and np.all(upper[cur] <= upper[prev] + 1e-9)
                       and np.all(lower[cur] >= lower[prev] - 1e-9))
        return ok, digest


# ---------------------------------------------------------------------------
# quotient: library calls into the quotient and inf-convolution gauges

class Quotient(Workload):
    name = "quotient"
    positions = (
        {"nodes": 20, "dim": 3, "points": 1},
        {"nodes": 30, "dim": 3, "points": 1},
        {"nodes": 40, "dim": 3, "points": 1},
        {"nodes": 25, "dim": 3, "points": 1},
    )
    delta = 0.25

    def make_input(self, spec, seed, path):
        rng = np.random.default_rng(seed)
        n, dim = spec["nodes"], spec["dim"]
        basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        basis = basis.T
        c = rng.uniform(1.0, 2.0, n)
        # map rows in the subspace, dominated by c(t) ||.||
        q = rng.standard_normal((n, 2))
        q *= (c * rng.uniform(0.2, 0.8, n)
              / np.linalg.norm(q, axis=1))[:, None]
        sub_pts = rng.standard_normal((2, 2)) @ basis[:2]
        return {
            "basis": basis, "c": c, "c2": rng.uniform(0.5, 1.5, n),
            "phi_rows": q @ basis[:2],
            # one vector per (point, node): the per-core cache never hits
            "Z": rng.standard_normal((spec["points"], n, dim)),
            # shared vectors: the chain's lattice reuses cached solves
            "chain_points": np.vstack([basis[:2], sub_pts]),
        }

    def _run(self, inp):
        from tracefield import seminorms as sm
        n, dim = inp["Z"].shape[1:]
        basis = inp["basis"]
        m = sm.ScaledNorm(inp["c"], n, dim)
        model = sm.VectorSpaceModel(dim, sm.BaseNorm(2.0), basis[:2],
                                    basis[2:])
        bar, tilde = sm.quotient_seminorms(m, model, self.delta)
        v_bar = bar.values(inp["Z"])
        v_tilde = tilde.values(inp["Z"])
        masks = [np.arange(n) < n // 3, np.arange(n) < n // 6]
        chain = sm.balanced_chain(m, model, self.delta, masks,
                                  [basis[:1], basis[:2]], inp["chain_points"])
        m2 = sm.ScaledNorm(inp["c2"], n, dim)
        v_conv = sm.inf_convolve(m, m2, basis[1:]).values(inp["Z"])
        return v_bar, v_tilde, chain, v_conv, m2

    def warm_up(self, op_dir):
        return self._run(self.make_input({"nodes": 4, "dim": 3, "points": 1},
                                         0, None))

    def op(self, pos, op_dir):
        return self._run(self.inputs[pos])

    def verify(self, pos, op_dir, handle):
        v_bar, v_tilde, chain, v_conv, m2 = handle
        inp = self.inputs[pos]
        final = chain.stage_values[-1]
        phi_vals = inp["chain_points"] @ inp["phi_rows"].T
        ok = (bool(np.all(v_bar <= v_tilde + 1e-12))
              and bool(np.all(final <= chain.tilde_values + 1e-8))
              and bool(np.all(phi_vals <= final + 1e-12))
              # y = 0 is a candidate of the inf-convolution
              and bool(np.all(v_conv <= m2.values(inp["Z"]) + 1e-12)))
        digest = digest_arrays([v_bar, v_tilde, chain.stage_values,
                                chain.tilde_values, v_conv])
        return ok, digest


WORKLOADS = {w.name: w for w in (Decompose, Extend, Envelope, Quotient)}
