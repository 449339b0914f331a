"""Batch command line: decompose, extend, envelope, verify, generate.

Commands consume JSON instance files, write a JSON report plus CSV tables
into the output directory, and exit with 0 on success, 2 on verification
or numerical failure, and 1 on input errors, a bad command line included.
Reruns with identical inputs produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .algebra import EigensolverError
from .config import DEFAULT_TOLS
from .errors import InputError, VerificationError
from .extension import extend_full, restriction_residual
from .fields import is_absolutely_continuous
from .generate import (crossing_map_field, extension_instance,
                       smooth_map_field)
from .grids import path_grid
from .jordan import (continuity_report, decompose_map, verify_norm_additivity)
from .reports import write_csv, write_json
from .schemas import (decode_element, decode_extension_problem,
                      decode_instance, decode_map_field,
                      encode_extension_problem, encode_instance,
                      encode_map_field, _expect, _floats, _integer, _scalar)
from .solvers import SolverError
from .statespace import envelope_field, sample_state_space

_EXIT_OK, _EXIT_INPUT, _EXIT_VERIFY = 0, 1, 2


def _parse_tols(pairs):
    tols = DEFAULT_TOLS
    overrides = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise InputError(f"--tol expects KEY=VAL, got {pair!r}")
        key, val = pair.split("=", 1)
        try:
            overrides[key.strip()] = float(val)
        except ValueError:
            raise InputError(f"--tol {key}: not a number: {val!r}")
    if overrides:
        try:
            tols = tols.override(**overrides)
        except KeyError as exc:
            raise InputError(str(exc))
    return tols


def _load_instance(path, expected_kind):
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise InputError(f"instance file not found: {path}")
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {path}: {exc}")
    kind, payload = decode_instance(raw)
    if expected_kind is not None and kind != expected_kind:
        raise InputError(f"instance kind is {kind!r}, command expects "
                         f"{expected_kind!r}")
    return kind, payload


def _base_report(command, instance_path, tols, seed):
    return {
        "command": command,
        "instance": os.path.basename(instance_path) if instance_path else None,
        "package_version": __version__,
        "tolerances": tols.as_dict(),
        "seed": seed,
    }


def _cmd_decompose(args, tols):
    _, payload = _load_instance(args.instance, "decompose")
    _expect(payload, ("map",), ("refinements", "epsilon"), "decompose")
    phi = decode_map_field(payload["map"])
    refinements = args.refine if args.refine is not None \
        else int(payload.get("refinements", 2))

    result = decompose_map(phi, tols)
    additivity = verify_norm_additivity(result)
    report = _base_report("decompose", args.instance, tols, args.seed)
    report["results"] = {
        "nodes": phi.grid.n,
        "reconstruction_residual": result.reconstruction_residual,
        "norm_additivity_residual": additivity,
        "min_eigenvalue": result.min_eigenvalue,
    }
    rows = [(t, result.norms[t], result.norms_plus[t], result.norms_minus[t])
            for t in range(phi.grid.n)]
    write_csv(os.path.join(args.out, "norms.csv"),
              ("node", "norm", "norm_plus", "norm_minus"), rows)

    if refinements > 0:
        cont = continuity_report(result, refinements=refinements,
                                 tols=tols)
        report["results"]["continuity"] = {
            "min_shrink_ratio": cont.min_ratio,
            "passes": cont.passes,
        }
        jump_rows = []
        for e, name in enumerate(cont.element_names):
            for level in range(cont.jumps.shape[2]):
                jump_rows.append((name, level, cont.jumps[e, 0, level],
                                  cont.jumps[e, 1, level]))
        write_csv(os.path.join(args.out, "jumps.csv"),
                  ("element", "level", "jump_plus", "jump_minus"), jump_rows)

    write_json(os.path.join(args.out, "report.json"), report)
    bad = (result.reconstruction_residual > tols.residual
           or additivity > tols.residual
           or result.min_eigenvalue < -tols.residual)
    return _EXIT_VERIFY if bad else _EXIT_OK


def _cmd_extend(args, tols):
    _, payload = _load_instance(args.instance, "extend")
    problem, order = decode_extension_problem(payload, tols=tols)
    result = extend_full(problem, order)
    restriction = restriction_residual(result, problem)
    report = _base_report("extend", args.instance, tols, args.seed)
    report["results"] = {
        "restriction_residual": restriction,
        "final_domination_excess": result.final_excess,
        "steps": [{
            "direction": s.direction_index,
            "budget": s.budget,
            "radius": s.radius,
            "margin": s.margin,
            "envelope_gap_min": s.gap_min,
            "envelope_dual_gap_max": (s.gap_max if np.isfinite(s.gap_max)
                                      else None),
            "domination_excess": s.domination_excess,
        } for s in result.steps],
    }
    rows = []
    for k, s in enumerate(result.steps):
        for t in range(problem.grid.n):
            rows.append((k, t, s.selection[t]))
    write_csv(os.path.join(args.out, "selections.csv"),
              ("step", "node", "value"), rows)
    write_json(os.path.join(args.out, "report.json"), report)
    bad = (restriction > 1e-9 or result.final_excess > tols.solver)
    return _EXIT_VERIFY if bad else _EXIT_OK


def _cmd_envelope(args, tols):
    _, payload = _load_instance(args.instance, "envelope")
    _expect(payload, ("map", "chain", "delta_seq", "x", "states"), (),
            "envelope")
    phi = decode_map_field(payload["map"])
    x = decode_element(payload["x"], "envelope.x")
    chain = [[decode_element(e, f"envelope.chain[{i}][{j}]")
              for j, e in enumerate(fam)]
             for i, fam in enumerate(payload["chain"])]
    delta_seq = _floats(payload["delta_seq"], "envelope.delta_seq")
    if delta_seq.ndim != 1 or len(delta_seq) != len(chain):
        raise InputError("envelope.delta_seq: need one number per chain "
                         "family")
    if np.any(delta_seq < 0):
        i = int(np.argmax(delta_seq < 0))
        raise InputError(f"envelope.delta_seq[{i}]: negative slack "
                         f"{delta_seq[i]}")
    states_spec = _expect(payload["states"], ("count", "seed"), (),
                          "envelope.states")
    count = _integer(states_spec["count"], "envelope.states.count", 1)
    seed = args.seed if args.seed is not None \
        else _integer(states_spec["seed"], "envelope.states.seed", 0)
    sample = sample_state_space(phi.algebra, count, seed)

    report = _base_report("envelope", args.instance, tols, seed)
    rows = []
    stages = []
    prev_upper = None
    monotone = True
    for i, (fam, d_n) in enumerate(zip(chain, delta_seq.tolist())):
        try:
            env = envelope_field(phi, fam, x, d_n, sample)
        except SolverError as exc:
            raise SolverError(f"stage {i} {exc}") from exc
        if prev_upper is not None and np.any(env.upper > prev_upper + 1e-9):
            monotone = False
        prev_upper = env.upper
        stages.append({
            "stage": i,
            "family_size": len(fam),
            "delta_n": d_n,
            "sample_defect": env.max_defect,
            "saturated_upper_nodes": int(np.sum(env.saturated_upper)),
            "saturated_lower_nodes": int(np.sum(env.saturated_lower)),
        })
        for t in range(phi.grid.n):
            rows.append((i, t, env.upper[t], env.lower[t],
                         env.upper[t] - env.lower[t], env.max_defect))
    report["results"] = {"stages": stages, "upper_monotone": monotone}
    write_csv(os.path.join(args.out, "envelopes.csv"),
              ("stage", "node", "upper", "lower", "gap", "defect"), rows)
    write_json(os.path.join(args.out, "report.json"), report)
    return _EXIT_OK if monotone else _EXIT_VERIFY


def _cmd_verify(args, tols):
    _, payload = _load_instance(args.instance, "verify")
    _expect(payload, ("target",),
            ("map", "epsilon", "cutoff", "grid", "space", "phi", "seminorm",
             "delta", "order"), "verify")
    target = payload["target"]
    report = _base_report("verify", args.instance, tols, args.seed)
    if target == "decompose":
        phi = decode_map_field(payload["map"])
        result = decompose_map(phi, tols)
        additivity = verify_norm_additivity(result)
        ok = (result.reconstruction_residual <= tols.residual
              and additivity <= tols.residual
              and result.min_eigenvalue >= -tols.residual)
        report["results"] = {
            "target": target, "passes": ok,
            "reconstruction_residual": result.reconstruction_residual,
            "norm_additivity_residual": additivity,
            "min_eigenvalue": result.min_eigenvalue,
        }
    elif target == "extend":
        sub = {k: payload[k] for k in
               ("grid", "space", "phi", "seminorm", "delta", "order")
               if k in payload}
        problem, order = decode_extension_problem(sub, tols=tols)
        result = extend_full(problem, order)
        restriction = restriction_residual(result, problem)
        ok = (restriction <= 1e-9 and result.final_excess <= tols.solver)
        report["results"] = {
            "target": target, "passes": ok,
            "restriction_residual": restriction,
            "final_domination_excess": result.final_excess,
        }
    elif target == "absolute_continuity":
        phi = decode_map_field(payload["map"])
        if "epsilon" not in payload:
            raise InputError("verify.absolute_continuity needs 'epsilon'")
        cutoff = payload.get("cutoff")
        if cutoff is not None:
            cutoff = _scalar(cutoff, "verify.cutoff")
        rep = is_absolutely_continuous(
            phi, _scalar(payload["epsilon"], "verify.epsilon"), cutoff)
        ok = rep.passes
        report["results"] = {
            "target": target, "passes": ok,
            "max_jump": rep.max_jump, "epsilon": rep.epsilon,
            "infinity_defect": rep.infinity_defect, "cutoff": rep.cutoff,
        }
    else:
        raise InputError(f"verify: unknown target {target!r}")
    write_json(os.path.join(args.out, "report.json"), report)
    return _EXIT_OK if ok else _EXIT_VERIFY


def _cmd_generate(args, tols):
    if args.instance:
        _, payload = _load_instance(args.instance, "generate")
        _expect(payload, ("family", "seed"), ("params",), "generate")
        family = payload["family"]
        seed = int(payload["seed"]) if args.seed is None else args.seed
        params = payload.get("params", {})
    else:
        if args.family is None:
            raise InputError("generate needs an instance file or --family")
        family, seed, params = args.family, (args.seed or 0), {}
    nodes = int(params.get("nodes", args.nodes))
    grid = path_grid(nodes)

    if family == "smooth":
        blocks = [int(b) for b in params.get("blocks", [2])]
        phi = smooth_map_field(blocks, grid, seed)
        instance = encode_instance("decompose",
                                   {"map": encode_map_field(phi)})
        name = f"smooth_seed{seed}.json"
    elif family == "crossing":
        phi = crossing_map_field(grid, angle=float(params.get("angle", 0.0)))
        instance = encode_instance("decompose",
                                   {"map": encode_map_field(phi)})
        name = f"crossing_seed{seed}.json"
    elif family == "extension":
        problem = extension_instance(
            seed, n_nodes=nodes, dim=int(params.get("dim", 4)),
            dim_y=int(params.get("dim_y", 2)),
            delta=float(params.get("delta", 0.1)),
            margin=float(params.get("margin", 0.5)),
            gauge_kind=params.get("gauge_kind", "scaled_norm"))
        instance = encode_instance("extend",
                                   encode_extension_problem(problem))
        name = f"extension_seed{seed}.json"
    else:
        raise InputError(f"generate: unknown family {family!r}")

    out_path = os.path.join(args.out, name)
    write_json(out_path, instance)
    report = _base_report("generate", args.instance or "", tols, seed)
    report["results"] = {"family": family, "written": name, "nodes": nodes}
    write_json(os.path.join(args.out, "report.json"), report)
    return _EXIT_OK


_COMMANDS = {
    "decompose": _cmd_decompose,
    "extend": _cmd_extend,
    "envelope": _cmd_envelope,
    "verify": _cmd_verify,
    "generate": _cmd_generate,
}


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as an input error (exit 1), not through
    argparse's own exit 2, which the CLI keeps for verification failures."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def build_parser():
    parser = _Parser(
        prog="tracefield",
        description="decomposition and extension toolkit for functional "
                    "fields on finite grids")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("instance", nargs="?" if name == "generate" else None,
                       help="instance JSON file")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--refine", type=int, default=None,
                       help="refinement levels for continuity studies")
        p.add_argument("--tol", action="append", metavar="KEY=VAL",
                       help="tolerance override (repeatable)")
        if name == "generate":
            p.add_argument("--family",
                           choices=("smooth", "crossing", "extension"))
            p.add_argument("--nodes", type=int, default=100)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        tols = _parse_tols(args.tol)
        return _COMMANDS[args.command](args, tols)
    except (EigensolverError, np.linalg.LinAlgError) as exc:
        # before ValueError: LinAlgError is one
        print(f"numerical failure: {exc}", file=sys.stderr)
        return _EXIT_VERIFY
    except (InputError, ValueError, KeyError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return _EXIT_INPUT
    except (VerificationError, SolverError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return _EXIT_VERIFY


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
