"""Strict JSON encoding/decoding of instance files.

Every decoder validates its object shape (unknown keys rejected, required
keys named in errors) before any computation; complex matrices are stored
entrywise as [re, im] pairs.  Encoders emit plain Python types so that
``json.dumps(..., sort_keys=True)`` round-trips byte-identically.
"""

from __future__ import annotations

import numpy as np

from .algebra import AlgebraDescriptor, Element
from .config import DEFAULT_TOLS
from .errors import InputError
from .extension import ExtensionProblem
from .fields import MapField
from .grids import Grid
from .seminorms import (AugmentedGauge, BaseNorm, Gauge, InfConv,
                        MaxAbsLinear, PiecewiseNodes, Quotient, QuotientBar,
                        QuotientTilde, ScaledByField, ScaledNorm,
                        SubspaceDistance, SumGauge, VectorSpaceModel)

FORMAT_VERSION = 1
INSTANCE_KINDS = ("decompose", "extend", "envelope", "verify", "generate")


def _expect(obj, required, optional=(), path="instance"):
    if not isinstance(obj, dict):
        raise InputError(f"{path}: expected an object, got {type(obj).__name__}")
    missing = [k for k in required if k not in obj]
    if missing:
        raise InputError(f"{path}: missing keys {missing}")
    unknown = [k for k in obj if k not in required and k not in optional]
    if unknown:
        raise InputError(f"{path}: unknown keys {unknown}")
    return obj


def _floats(x, path):
    """``x`` as a float array; raises naming the path of a non-finite entry."""
    try:
        arr = np.asarray(x, dtype=float)
    except (TypeError, ValueError):
        raise InputError(f"{path}: expected numeric data")
    finite = np.isfinite(arr)
    if not finite.all():
        bad = tuple(np.argwhere(~finite)[0])
        index = "".join(f"[{k}]" for k in bad)
        raise InputError(f"{path}{index}: non-finite value {arr[bad]}")
    return arr


# ---------------------------------------------------------------------------
# grids

def encode_grid(grid: Grid) -> dict:
    out = {
        "kind": grid.kind,
        "nodes": int(grid.n),
        "edges": [[int(i), int(j), float(w)]
                  for (i, j), w in zip(grid.edges, grid.lengths)],
        "infinity": [int(i) for i in grid.infinity],
    }
    if grid.positions is not None:
        out["positions"] = [float(p) for p in grid.positions]
    return out


def decode_grid(obj, path="grid") -> Grid:
    _expect(obj, ("kind", "nodes", "edges", "infinity"), ("positions",),
            path)
    edges = obj["edges"]
    if not isinstance(edges, list) \
            or any(not isinstance(e, list) or len(e) != 3 for e in edges):
        raise InputError(f"{path}.edges: expected [i, j, length] triples")
    edges = _floats(edges, f"{path}.edges").reshape(-1, 3)
    pairs = _indices(edges[:, :2], f"{path}.edges")
    positions = obj.get("positions")
    if positions is not None:
        positions = _floats(positions, f"{path}.positions")
    try:
        return Grid(obj["kind"], _integer(obj["nodes"], f"{path}.nodes"),
                    pairs, edges[:, 2],
                    _indices(obj["infinity"], f"{path}.infinity"), positions)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}")


# ---------------------------------------------------------------------------
# complex matrices, elements, map fields

def encode_complex_matrix(m) -> list:
    m = np.asarray(m, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def decode_complex_matrix(obj, path="matrix") -> np.ndarray:
    arr = _floats(obj, path)
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise InputError(f"{path}: expected entries as [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def encode_element(x: Element) -> dict:
    return {"algebra": list(x.algebra.blocks),
            "blocks": [encode_complex_matrix(b) for b in x.blocks],
            "selfadjoint": bool(x.selfadjoint)}


def decode_element(obj, path="element") -> Element:
    _expect(obj, ("algebra", "blocks"), ("selfadjoint",), path)
    algebra = _algebra(obj["algebra"], f"{path}.algebra")
    blocks = [decode_complex_matrix(b, f"{path}.blocks[{i}]")
              for i, b in enumerate(obj["blocks"])]
    try:
        return Element(algebra, blocks, bool(obj.get("selfadjoint", True)))
    except ValueError as exc:
        raise InputError(f"{path}: {exc}")


def encode_map_field(phi: MapField) -> dict:
    rho = []
    for t in range(phi.grid.n):
        rho.append([encode_complex_matrix(s[t]) for s in phi.stacks])
    return {"grid": encode_grid(phi.grid),
            "algebra": list(phi.algebra.blocks),
            "rho": rho}


def decode_map_field(obj, path="map") -> MapField:
    _expect(obj, ("grid", "algebra", "rho"), (), path)
    grid = decode_grid(obj["grid"], f"{path}.grid")
    algebra = _algebra(obj["algebra"], f"{path}.algebra")
    rho = obj["rho"]
    if not isinstance(rho, list) or len(rho) != grid.n:
        raise InputError(f"{path}.rho: need one entry per node")
    for t, mats in enumerate(rho):
        if not isinstance(mats, list) or len(mats) != len(algebra.blocks):
            raise InputError(f"{path}.rho[{t}]: need one matrix per block")
    stacks = []
    for b, d in enumerate(algebra.blocks):
        mats = [decode_complex_matrix(rho[t][b], f"{path}.rho[{t}][{b}]")
                for t in range(grid.n)]
        stacks.append(np.stack(mats))
    try:
        return MapField(grid, algebra, stacks)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}")


# ---------------------------------------------------------------------------
# norms, gauges, models

def encode_norm(norm: BaseNorm) -> dict:
    return {"p": ("inf" if norm.p == float("inf") else norm.p),
            "weights": None if norm.weights is None
            else [float(w) for w in norm.weights]}


def decode_norm(obj, path="norm") -> BaseNorm:
    _expect(obj, ("p",), ("weights",), path)
    p = float("inf") if obj["p"] == "inf" else float(obj["p"])
    try:
        return BaseNorm(p, obj.get("weights"))
    except ValueError as exc:
        raise InputError(f"{path}: {exc}")


def _scalar(x, path):
    """``x`` as a finite float; raises naming the path otherwise."""
    arr = _floats(x, path)
    if arr.ndim != 0:
        raise InputError(f"{path}: expected a number")
    return float(arr)


def _integer(x, path, minimum=None):
    """``x`` as an int; raises naming the path unless it is a whole number,
    at least ``minimum`` when that is given."""
    if isinstance(x, bool) or not isinstance(x, (int, float)) \
            or not np.isfinite(x) or x != int(x):
        raise InputError(f"{path}: expected an integer, got {x!r}")
    if minimum is not None and x < minimum:
        raise InputError(f"{path}: expected at least {minimum}, got {x!r}")
    return int(x)


def _indices(x, path):
    """``x`` as an int array; raises naming the first entry that is not a
    whole number."""
    arr = _floats(x, path)
    whole = arr == np.round(arr)
    if not whole.all():
        bad = tuple(np.argwhere(~whole)[0])
        index = "".join(f"[{k}]" for k in bad)
        raise InputError(f"{path}{index}: expected an integer, got {arr[bad]}")
    return arr.astype(int)


def _algebra(x, path):
    if not isinstance(x, list):
        raise InputError(f"{path}: expected a list of block sizes")
    try:
        return AlgebraDescriptor(tuple(_integer(b, f"{path}[{i}]", 1)
                                       for i, b in enumerate(x)))
    except ValueError as exc:
        raise InputError(f"{path}: {exc}")


def _field_or_scalar(x, path):
    if isinstance(x, (int, float)):
        return float(_floats(x, path))
    return _floats(x, path)


def encode_gauge(g: Gauge) -> dict:
    if isinstance(g, ScaledNorm):
        return {"kind": "scaled_norm", "dim": g.dim,
                "c": [float(v) for v in g.c], "norm": encode_norm(g.norm)}
    if isinstance(g, MaxAbsLinear):
        return {"kind": "max_abs_linear",
                "functionals": g.functionals.tolist(),
                "scale": [float(v) for v in g.scale]}
    if isinstance(g, SumGauge):
        return {"kind": "sum", "parts": [encode_gauge(p) for p in g.parts]}
    if isinstance(g, ScaledByField):
        return {"kind": "node_scaled", "factor": [float(v) for v in g.factor],
                "inner": encode_gauge(g.inner)}
    if isinstance(g, AugmentedGauge):
        terms = []
        for delta, dist in g.terms:
            if not isinstance(dist, SubspaceDistance):
                raise InputError(
                    "per-node quotient terms are not serializable")
            terms.append({"delta": float(delta),
                          "subspace": dist.basis.tolist(),
                          "norm": encode_norm(dist.norm)})
        return {"kind": "quotient_aug", "base": encode_gauge(g.base),
                "terms": terms}
    if isinstance(g, Quotient) and (g.mask.all() or not g.mask.any()):
        return {"kind": "quotient_bar" if g.mask.all() else "quotient_tilde",
                "m": encode_gauge(g.core.m),
                "subspace": g.core.w.tolist(), "delta": g.core.delta,
                "norm": encode_norm(g.core.norm)}
    if isinstance(g, InfConv):
        return {"kind": "inf_conv", "m1": encode_gauge(g.m1),
                "m2": encode_gauge(g.m2), "subspace": g.f.tolist()}
    if isinstance(g, PiecewiseNodes):
        return {"kind": "piecewise_nodes", "mask": g.mask.astype(int).tolist(),
                "inside": encode_gauge(g.inside),
                "outside": encode_gauge(g.outside)}
    raise InputError(f"gauge kind {type(g).__name__} is not serializable")


def decode_gauge(obj, n_nodes: int, path="seminorm",
                 oracle: bool = False) -> Gauge:
    """Gauge from its JSON object; ``oracle`` switches on the dense-scan
    cross-checks of every quotient and inf-convolution inner solve."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise InputError(f"{path}: expected an object with a 'kind' tag")
    kind = obj["kind"]

    def sub(key):
        return decode_gauge(obj[key], n_nodes, f"{path}.{key}", oracle)

    try:
        if kind == "scaled_norm":
            _expect(obj, ("kind", "dim", "c"), ("norm",), path)
            norm = decode_norm(obj["norm"], f"{path}.norm") \
                if "norm" in obj else BaseNorm()
            return ScaledNorm(_field_or_scalar(obj["c"], path), n_nodes,
                              _integer(obj["dim"], f"{path}.dim", 1), norm)
        if kind == "max_abs_linear":
            _expect(obj, ("kind", "functionals"), ("scale",), path)
            return MaxAbsLinear(_floats(obj["functionals"], path), n_nodes,
                                _field_or_scalar(obj.get("scale", 1.0),
                                                 f"{path}.scale"))
        if kind == "sum":
            _expect(obj, ("kind", "parts"), (), path)
            return SumGauge([decode_gauge(p, n_nodes, f"{path}.parts[{i}]",
                                          oracle)
                             for i, p in enumerate(obj["parts"])])
        if kind == "node_scaled":
            _expect(obj, ("kind", "factor", "inner"), (), path)
            return ScaledByField(sub("inner"), _floats(obj["factor"], path))
        if kind == "quotient_aug":
            _expect(obj, ("kind", "base", "terms"), (), path)
            base = sub("base")
            terms = []
            for i, term in enumerate(obj["terms"]):
                _expect(term, ("delta", "subspace", "norm"), (),
                        f"{path}.terms[{i}]")
                delta = _scalar(term["delta"], f"{path}.terms[{i}].delta")
                terms.append((delta, SubspaceDistance(
                    _floats(term["subspace"], path),
                    decode_norm(term["norm"], f"{path}.terms[{i}].norm"))))
            return AugmentedGauge(base, terms)
        if kind in ("quotient_bar", "quotient_tilde"):
            _expect(obj, ("kind", "m", "subspace", "delta", "norm"), (), path)
            cls = QuotientBar if kind == "quotient_bar" else QuotientTilde
            return cls(sub("m"),
                       _floats(obj["subspace"], path),
                       _scalar(obj["delta"], f"{path}.delta"),
                       decode_norm(obj["norm"], f"{path}.norm"), oracle)
        if kind == "inf_conv":
            _expect(obj, ("kind", "m1", "m2", "subspace"), (), path)
            return InfConv(sub("m1"), sub("m2"),
                           _floats(obj["subspace"], path), oracle)
        if kind == "piecewise_nodes":
            _expect(obj, ("kind", "mask", "inside", "outside"), (), path)
            mask = _indices(obj["mask"], f"{path}.mask")
            if np.any((mask != 0) & (mask != 1)):
                raise InputError(f"{path}.mask: expected 0/1 entries")
            return PiecewiseNodes(mask.astype(bool), sub("inside"),
                                  sub("outside"))
    except ValueError as exc:
        raise InputError(f"{path}: {exc}")
    raise InputError(f"{path}: unknown gauge kind {kind!r}")


def encode_model(model: VectorSpaceModel) -> dict:
    out = {"dim": int(model.dim), "norm": encode_norm(model.norm),
           "subspace": model.subspace.tolist(),
           "complement": model.complement.tolist()}
    if model.nilspace is not None:
        if isinstance(model.nilspace, np.ndarray):
            out["nilspace"] = model.nilspace.tolist()
        else:
            raise InputError("per-node nilspaces are not serializable")
    return out


def decode_model(obj, path="space") -> VectorSpaceModel:
    _expect(obj, ("dim", "norm", "subspace", "complement"), ("nilspace",),
            path)
    nil = obj.get("nilspace")
    try:
        return VectorSpaceModel(
            _integer(obj["dim"], f"{path}.dim", 1),
            decode_norm(obj["norm"], f"{path}.norm"),
            _floats(obj["subspace"], path), _floats(obj["complement"], path),
            None if nil is None else _floats(nil, path))
    except ValueError as exc:
        raise InputError(f"{path}: {exc}")


# ---------------------------------------------------------------------------
# extension problems and instance files

def encode_extension_problem(problem: ExtensionProblem, order=None) -> dict:
    out = {"grid": encode_grid(problem.grid),
           "space": encode_model(problem.model),
           "phi": problem.phi.tolist(),
           "seminorm": encode_gauge(problem.gauge),
           "delta": float(problem.delta)}
    if order is not None:
        out["order"] = [int(i) for i in order]
    return out


def decode_extension_problem(obj, path="extend", tols=DEFAULT_TOLS,
                             oracle=False):
    """Extension problem with the given tolerances; ``oracle`` as in
    :func:`decode_gauge`."""
    _expect(obj, ("grid", "space", "phi", "seminorm", "delta"), ("order",),
            path)
    grid = decode_grid(obj["grid"], f"{path}.grid")
    model = decode_model(obj["space"], f"{path}.space")
    gauge = decode_gauge(obj["seminorm"], grid.n, f"{path}.seminorm", oracle)
    try:
        problem = ExtensionProblem(grid, model, gauge,
                                   _floats(obj["phi"], f"{path}.phi"),
                                   _scalar(obj["delta"], f"{path}.delta"),
                                   tols)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}")
    order = obj.get("order")
    if order is not None:
        order = _indices(order, f"{path}.order")
        if order.ndim != 1:
            raise InputError(f"{path}.order: expected a list of indices")
        order = order.tolist()
    return problem, order


def encode_instance(kind: str, payload: dict) -> dict:
    if kind not in INSTANCE_KINDS:
        raise InputError(f"unknown instance kind {kind!r}")
    return {"version": FORMAT_VERSION, "kind": kind, kind: payload}


def decode_instance(obj) -> tuple:
    _expect(obj, ("version", "kind"), INSTANCE_KINDS, "instance")
    if obj["version"] != FORMAT_VERSION:
        raise InputError(f"unsupported instance version {obj['version']!r}")
    kind = obj["kind"]
    if kind not in INSTANCE_KINDS:
        raise InputError(f"unknown instance kind {kind!r}")
    extra = [k for k in obj if k not in ("version", "kind", kind)]
    if extra:
        raise InputError(f"instance: unknown keys {extra}")
    if kind not in obj:
        raise InputError(f"instance: missing payload key {kind!r}")
    return kind, obj[kind]
