import json
import os

import numpy as np
import pytest

from tracefield.algebra import AlgebraDescriptor, FunctionalRep
from tracefield.cli import main
from tracefield.errors import InputError
from tracefield.extension import ExtensionProblem
from tracefield.fields import constant_map_field
from tracefield.generate import (crossing_map_field, extension_instance,
                                 smooth_map_field)
from tracefield.grids import circle_grid, path_grid
from tracefield.schemas import (decode_extension_problem, decode_gauge,
                                decode_grid, decode_instance,
                                decode_map_field, encode_extension_problem,
                                encode_gauge, encode_grid, encode_instance,
                                encode_map_field)
from tracefield.seminorms import (BaseNorm, InfConv, MaxAbsLinear,
                                  QuotientBar, ScaledNorm, SumGauge,
                                  VectorSpaceModel, build_m_delta)

M2 = AlgebraDescriptor((2,))


class TestRoundTrips:
    def test_grid(self):
        g = circle_grid(7, infinity=(2,))
        out = decode_grid(encode_grid(g))
        assert out.kind == "circle" and out.n == 7
        assert out.infinity == (2,)
        assert np.array_equal(out.edges, g.edges)
        assert np.allclose(out.positions, g.positions)

    def test_map_field(self):
        g = path_grid(5)
        phi = crossing_map_field(g)
        out = decode_map_field(encode_map_field(phi))
        assert np.allclose(out.stacks[0], phi.stacks[0])

    def test_gauges(self):
        n = 4
        gauges = [
            ScaledNorm(np.linspace(1, 2, n), n, 3, BaseNorm(1.0)),
            MaxAbsLinear([[1.0, 0, 0], [0, 1, 1]], n, 0.5),
            SumGauge([ScaledNorm(1.0, n, 3), ScaledNorm(2.0, n, 3)]),
            build_m_delta(ScaledNorm(1.0, n, 3),
                          VectorSpaceModel(3, BaseNorm(2.0), np.eye(3)[:2],
                                           np.eye(3)[2:]), 0.3),
            QuotientBar(ScaledNorm(1.0, n, 3), np.eye(3)[2:], 0.2,
                        BaseNorm(2.0)),
            InfConv(ScaledNorm(1.0, n, 3), ScaledNorm(1.5, n, 3),
                    np.eye(3)[:1]),
        ]
        z = np.array([0.3, -1.2, 0.7])
        for g in gauges:
            out = decode_gauge(encode_gauge(g), n)
            v1, _ = g.value_nodes(z)
            v2, _ = out.value_nodes(z)
            assert np.allclose(v1, v2, atol=1e-12)

    def test_extension_problem(self):
        problem = extension_instance(1, n_nodes=8, dim=3, dim_y=1,
                                     delta=0.1, margin=0.5)
        payload = encode_extension_problem(problem, order=[1, 0])
        again, order = decode_extension_problem(payload)
        assert order == [1, 0]
        assert np.allclose(again.phi, problem.phi)
        assert np.allclose(again.model.subspace, problem.model.subspace)

    def test_oracle_reaches_nested_quotient(self):
        n = 4
        inner = QuotientBar(ScaledNorm(1.0, n, 3), np.eye(3)[2:], 0.2,
                            BaseNorm(2.0))
        conv = InfConv(ScaledNorm(1.0, n, 3), inner, np.eye(3)[:1])
        obj = encode_gauge(SumGauge([ScaledNorm(1.0, n, 3), inner, conv]))
        for oracle in (False, True):
            g = decode_gauge(obj, n, oracle=oracle)
            assert g.parts[1].core.oracle is oracle
            assert g.parts[2].oracle is oracle
            assert g.parts[2].m2.core.oracle is oracle
        problem = extension_instance(1, n_nodes=8, dim=3, dim_y=1,
                                     delta=0.1, margin=0.5)
        payload = encode_extension_problem(problem)
        tols = problem.tols.override(solver=1e-5)
        again, _ = decode_extension_problem(payload, tols=tols)
        assert again.tols == tols

    def test_instance_wrapper(self):
        inst = encode_instance("decompose", {"map": {}})
        kind, payload = decode_instance(inst)
        assert kind == "decompose"
        assert payload == {"map": {}}


    @pytest.mark.parametrize("mask, where", [
        ([0, float("nan"), 1], r"seminorm\.mask\[1\]"),
        ([0, 2, 1], r"seminorm\.mask"),
    ])
    def test_piecewise_mask_must_be_0_or_1(self, mask, where):
        part = {"kind": "scaled_norm", "dim": 2, "c": 1.0}
        with pytest.raises(InputError, match=where):
            decode_gauge({"kind": "piecewise_nodes", "mask": mask,
                          "inside": part, "outside": part}, 3)

class TestStrictValidation:
    def test_unknown_key_rejected(self):
        g = encode_grid(path_grid(3))
        g["surprise"] = 1
        with pytest.raises(InputError):
            decode_grid(g)

    def test_missing_key_rejected(self):
        g = encode_grid(path_grid(3))
        del g["edges"]
        with pytest.raises(InputError):
            decode_grid(g)

    def test_unknown_gauge_kind(self):
        with pytest.raises(InputError):
            decode_gauge({"kind": "mystery"}, 3)

    def test_non_finite_vector_names_path(self):
        problem = extension_instance(0, n_nodes=6, dim=3, dim_y=1,
                                     delta=0.1, margin=0.5)
        payload = encode_extension_problem(problem)
        payload["phi"][2][0] = float("inf")
        with pytest.raises(InputError, match=r"extend\.phi\[2\]\[0\]"):
            decode_extension_problem(payload)

    def test_non_finite_position_names_path(self):
        g = encode_grid(path_grid(3))
        g["positions"] = [0.0, 0.5, float("nan")]
        with pytest.raises(InputError, match=r"grid\.positions\[2\]"):
            decode_grid(g)

    def test_version_checked(self):
        with pytest.raises(InputError):
            decode_instance({"version": 99, "kind": "decompose",
                             "decompose": {}})

    def test_payload_key_must_match_kind(self):
        with pytest.raises(InputError):
            decode_instance({"version": 1, "kind": "decompose",
                             "extend": {}})


def envelope_payload():
    """A valid three-stage envelope instance on a 6-node (2,) field."""
    from tracefield.algebra import random_selfadjoint
    from tracefield.schemas import encode_element
    phi = smooth_map_field([2], path_grid(6), seed=3, scale=0.5)
    fam = [M2.unit(), random_selfadjoint(M2, 1), random_selfadjoint(M2, 2)]
    return {
        "map": encode_map_field(phi),
        "chain": [[encode_element(e) for e in fam[:i + 1]] for i in range(3)],
        "delta_seq": [3.0, 2.5, 2.1],
        "x": encode_element(random_selfadjoint(M2, 3)),
        "states": {"count": 12, "seed": 0},
    }


def write_instance(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def decompose_instance(tmp_path, n=15):
    g = path_grid(n)
    phi = crossing_map_field(g)
    inst = encode_instance("decompose", {"map": encode_map_field(phi)})
    return write_instance(tmp_path, "decompose.json", inst)


class TestCLI:
    def test_decompose_success(self, tmp_path):
        path = decompose_instance(tmp_path)
        out = str(tmp_path / "out")
        assert main(["decompose", path, "--out", out]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["results"]["norm_additivity_residual"] <= 1e-10
        assert (tmp_path / "out" / "norms.csv").exists()
        assert (tmp_path / "out" / "jumps.csv").exists()

    def test_decompose_tolerance_override_echoed(self, tmp_path):
        path = decompose_instance(tmp_path)
        out = str(tmp_path / "out")
        assert main(["decompose", path, "--out", out,
                     "--tol", "residual=1e-6"]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["tolerances"]["residual"] == 1e-6

    def test_decompose_tolerance_reaches_refined_levels(self, tmp_path):
        # every eigenvalue of this field lies far below eig_zero = 50, so
        # both parts vanish on the grid and on every refined level
        phi = smooth_map_field([2], path_grid(12), seed=3)
        path = write_instance(tmp_path, "smooth.json", encode_instance(
            "decompose", {"map": encode_map_field(phi)}))
        out = tmp_path / "out"
        main(["decompose", path, "--out", str(out), "--refine", "2",
              "--tol", "eig_zero=50"])
        lines = (out / "jumps.csv").read_text().splitlines()[1:]
        levels = {int(line.split(",")[1]) for line in lines}
        assert levels == {0, 1, 2}
        assert all(float(v) == 0.0
                   for line in lines for v in line.split(",")[2:])

    def test_extend_success(self, tmp_path):
        problem = extension_instance(0, n_nodes=12, dim=3, dim_y=1,
                                     delta=0.1, margin=0.5)
        inst = encode_instance("extend", encode_extension_problem(problem))
        path = write_instance(tmp_path, "extend.json", inst)
        out = str(tmp_path / "out")
        assert main(["extend", path, "--out", out]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["results"]["final_domination_excess"] <= 1e-8

    def test_extend_coercivity_failure_exits_2(self, tmp_path, capsys):
        g = path_grid(6)
        model = VectorSpaceModel(2, BaseNorm(2.0), np.eye(2)[:1],
                                 np.eye(2)[1:])
        problem = ExtensionProblem(g, model, ScaledNorm(1.0, g.n, 2),
                                   np.ones((g.n, 1)), 0.0)
        inst = encode_instance("extend", encode_extension_problem(problem))
        path = write_instance(tmp_path, "bad.json", inst)
        assert main(["extend", path, "--out", str(tmp_path / "o")]) == 2
        assert "coercivity failure" in capsys.readouterr().err

    def test_malformed_json_exits_1(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["decompose", str(path), "--out",
                     str(tmp_path / "o")]) == 1
        assert "input error" in capsys.readouterr().err

    def test_non_finite_entry_rejected_at_decode(self, tmp_path, capsys):
        phi = crossing_map_field(path_grid(6))
        inst = encode_instance("decompose", {"map": encode_map_field(phi)})
        inst["decompose"]["map"]["rho"][3][0][1][0][0] = float("nan")
        path = write_instance(tmp_path, "nan.json", inst)
        out = tmp_path / "o"
        assert main(["decompose", path, "--out", str(out)]) == 1
        assert "map.rho[3][0]" in capsys.readouterr().err
        assert not (out / "norms.csv").exists()

    @pytest.mark.parametrize("field, where", [
        ("delta", "extend.delta"),
        ("quotient_bar", "extend.seminorm.delta"),
        ("quotient_aug", "extend.seminorm.terms[0].delta"),
        ("max_abs_linear", "extend.seminorm.scale"),
    ])
    def test_non_finite_scalar_exits_1(self, tmp_path, capsys, field, where):
        problem = extension_instance(0, n_nodes=6, dim=3, dim_y=1,
                                     delta=0.1, margin=0.5)
        payload = encode_extension_problem(problem)
        nan = float("nan")
        m = payload["seminorm"]
        norm = {"p": 2.0, "weights": None}
        payload["delta"] = nan if field == "delta" else 0.1
        if field == "quotient_bar":
            payload["seminorm"] = {"kind": "quotient_bar", "m": m,
                                   "subspace": [[0.0, 0.0, 1.0]],
                                   "delta": nan, "norm": norm}
        elif field == "quotient_aug":
            payload["seminorm"] = {"kind": "quotient_aug", "base": m,
                                   "terms": [{"delta": nan, "norm": norm,
                                              "subspace": [[0.0, 0.0, 1.0]]}]}
        elif field == "max_abs_linear":
            payload["seminorm"] = {"kind": "max_abs_linear",
                                   "functionals": np.eye(3).tolist(),
                                   "scale": nan}
        path = write_instance(tmp_path, "nan.json",
                              encode_instance("extend", payload))
        assert main(["extend", path, "--out", str(tmp_path / "o")]) == 1
        assert where in capsys.readouterr().err

    @pytest.mark.parametrize("ndim", [3, 2])
    def test_eigensolver_failure_exits_2(self, tmp_path, capsys, monkeypatch,
                                         ndim):
        # 3: the stacked split of every node; 2: a single matrix, as in the
        # random contractions of the continuity study
        eigh = np.linalg.eigh

        def failing(a, *args, **kwargs):
            if np.ndim(a) == ndim:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigh(a, *args, **kwargs)

        path = decompose_instance(tmp_path)
        monkeypatch.setattr(np.linalg, "eigh", failing)
        assert main(["decompose", path, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:")
        assert "Traceback" not in err

    def test_unknown_payload_field_exits_1(self, tmp_path):
        g = path_grid(4)
        phi = crossing_map_field(g)
        inst = encode_instance("decompose", {"map": encode_map_field(phi),
                                             "bogus": 1})
        path = write_instance(tmp_path, "bogus.json", inst)
        assert main(["decompose", path, "--out", str(tmp_path / "o")]) == 1

    def test_verify_absolute_continuity(self, tmp_path):
        g = path_grid(8)
        phi = constant_map_field(g, FunctionalRep(M2, [np.eye(2)]))
        inst = encode_instance("verify", {
            "target": "absolute_continuity",
            "map": encode_map_field(phi),
            "epsilon": 1e-9,
        })
        path = write_instance(tmp_path, "verify.json", inst)
        assert main(["verify", path, "--out", str(tmp_path / "o")]) == 0

    def test_generate_then_run(self, tmp_path):
        out = str(tmp_path / "gen")
        assert main(["generate", "--family", "crossing", "--seed", "3",
                     "--nodes", "21", "--out", out]) == 0
        inst = os.path.join(out, "crossing_seed3.json")
        assert main(["decompose", inst, "--out",
                     str(tmp_path / "dec")]) == 0

    def test_reruns_byte_identical(self, tmp_path):
        path = decompose_instance(tmp_path)
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["decompose", path, "--out", out1]) == 0
        assert main(["decompose", path, "--out", out2]) == 0
        for name in ("report.json", "norms.csv", "jumps.csv"):
            b1 = (tmp_path / "a" / name).read_bytes()
            b2 = (tmp_path / "b" / name).read_bytes()
            assert b1 == b2

    def test_generate_deterministic(self, tmp_path):
        out1, out2 = str(tmp_path / "g1"), str(tmp_path / "g2")
        for out in (out1, out2):
            assert main(["generate", "--family", "extension", "--seed", "7",
                         "--nodes", "12", "--out", out]) == 0
        name = "extension_seed7.json"
        assert (tmp_path / "g1" / name).read_bytes() \
            == (tmp_path / "g2" / name).read_bytes()

    def test_envelope_command(self, tmp_path):
        from tracefield.generate import smooth_map_field
        from tracefield.schemas import encode_element
        C3 = AlgebraDescriptor((1, 1, 1))
        g = path_grid(6)
        phi = smooth_map_field([1, 1, 1], g, seed=6, scale=0.5)
        unit = C3.unit()
        from tracefield.algebra import Element
        d1 = Element(C3, [[[1.0]], [[-1.0]], [[0.0]]], selfadjoint=True)
        x = Element(C3, [[[0.4]], [[0.2]], [[-0.9]]], selfadjoint=True)
        payload = {
            "map": encode_map_field(phi),
            "chain": [[encode_element(unit)],
                      [encode_element(unit), encode_element(d1)]],
            "delta_seq": [0.3, 0.15],
            "x": encode_element(x),
            "states": {"count": 9, "seed": 0},
        }
        path = write_instance(tmp_path, "env.json",
                              encode_instance("envelope", payload))
        out = tmp_path / "env_out"
        assert main(["envelope", path, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["results"]["upper_monotone"]
        csv_lines = (out / "envelopes.csv").read_text().splitlines()
        assert csv_lines[0] == "stage,node,upper,lower,gap,defect"
        assert len(csv_lines) == 1 + 2 * g.n

    def test_envelope_infeasible_stage_names_node(self, tmp_path, capsys):
        # on 12 sampled states of M2 the last family needs a weight norm
        # 2.26 above ||phi(4)|| at node 4, and at most 2.05 above elsewhere
        from tracefield.algebra import random_selfadjoint
        from tracefield.schemas import encode_element
        phi = smooth_map_field([2], path_grid(8), seed=3, scale=0.5)
        unit, y1, y2 = (M2.unit(), random_selfadjoint(M2, 1),
                        random_selfadjoint(M2, 2))
        enc = encode_element
        payload = {
            "map": encode_map_field(phi),
            "chain": [[enc(unit)], [enc(unit), enc(y1)],
                      [enc(unit), enc(y1), enc(y2)]],
            "delta_seq": [3.0, 2.5, 2.1],
            "x": enc(random_selfadjoint(M2, 3)),
            "states": {"count": 12, "seed": 0},
        }
        path = write_instance(tmp_path, "env.json",
                              encode_instance("envelope", payload))
        assert main(["envelope", path, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "stage 2 node 4: envelope LP infeasible: constraints need " \
            "weight norm >= " in err
        assert "but the cap is" in err and "Traceback" not in err

    @pytest.mark.parametrize("field, value, where", [
        ("delta_seq", [3.0, float("nan"), 2.1], "envelope.delta_seq[1]"),
        ("delta_seq", [3.0, -1.0, 2.1], "envelope.delta_seq[1]"),
        ("count", -4, "envelope.states.count"),
        ("count", 12.5, "envelope.states.count"),
        ("seed", float("inf"), "envelope.states.seed"),
    ])
    def test_envelope_bad_numbers_name_their_path(self, tmp_path, capsys,
                                                  field, value, where):
        payload = envelope_payload()
        if field == "delta_seq":
            payload["delta_seq"] = value
        else:
            payload["states"][field] = value
        path = write_instance(tmp_path, "env.json",
                              encode_instance("envelope", payload))
        assert main(["envelope", path, "--out", str(tmp_path / "o")]) == 1
        assert where in capsys.readouterr().err

    def test_verify_extend_target(self, tmp_path):
        problem = extension_instance(6, n_nodes=10, dim=3, dim_y=1,
                                     delta=0.1, margin=0.5)
        payload = {"target": "extend"}
        payload.update(encode_extension_problem(problem))
        path = write_instance(tmp_path, "verify_ext.json",
                              encode_instance("verify", payload))
        assert main(["verify", path, "--out", str(tmp_path / "vo")]) == 0

    def test_oracle_flag_smoke(self, tmp_path):
        problem = extension_instance(6, n_nodes=8, dim=3, dim_y=1,
                                     delta=0.1, margin=0.5)
        inst = encode_instance("extend", encode_extension_problem(problem))
        path = write_instance(tmp_path, "ext.json", inst)
        assert main(["extend", path, "--out", str(tmp_path / "o1"),
                     "--oracle"]) == 0
        assert main(["extend", path, "--out", str(tmp_path / "o2")]) == 0
        a = (tmp_path / "o1" / "selections.csv").read_bytes()
        b = (tmp_path / "o2" / "selections.csv").read_bytes()
        assert a == b
