"""Span tracing around tracefield's public functions, from outside the package.

The traced run installs wrappers on the functions listed in ``LAYERS``, on
the ``values`` and ``value_nodes`` methods of every gauge class, and on the
quotient inner solvers.  Every call records one span (name, start, end,
parent) in memory; the per-layer metrics are computed from the spans when
the run ends.  The wrappers only observe arguments and results, so traced
and untraced runs produce byte-identical outputs (the determinism test
checks this).

Because tracefield modules bind each other's functions with ``from .x import
f``, a wrapper replaces every module-level binding of the original object in
the package, not only the defining one, and ``uninstall`` restores them all.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import os
import time

import numpy as np

_MODULES = ("algebra", "cli", "extension", "fields", "generate", "grids",
            "jordan", "reports", "schemas", "seminorms", "solvers",
            "statespace")


class Tracer:
    """In-memory span store.  ``amount`` carries a per-span size (bytes,
    points, or 1/0 for an inner solve that ran or hit the cache)."""

    def __init__(self):
        self.names = []           # span name table
        self._ids = {}
        self.name_id = []
        self.start = []
        self.end = []
        self.parent = []
        self.amount = []
        self.outermost = []       # no enclosing span of the same name
        self._stack = [-1]
        self._active = {}
        self.counters = {}

    def open(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        depth = self._active.get(nid, 0)
        self._active[nid] = depth + 1
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.outermost.append(depth == 0)
        self.amount.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._active[self.name_id[idx]] -= 1

    def count(self, key, inc=1):
        self.counters[key] = self.counters.get(key, 0) + inc

    def write(self, path):
        """Write every span as columns plus the name table (gzip JSON)."""
        with gzip.open(path, "wt") as fh:
            json.dump({"names": self.names, "name": self.name_id,
                       "start": self.start, "end": self.end,
                       "parent": self.parent, "amount": self.amount}, fh)

    # -- aggregation ---------------------------------------------------------

    def summary(self):
        """Per span name: inclusive seconds, calls and summed amounts of the
        outermost spans; self seconds, calls and amounts over all spans."""
        if not self.start:
            return {}
        start = np.asarray(self.start)
        dur = np.asarray(self.end) - start
        parent = np.asarray(self.parent)
        nid = np.asarray(self.name_id)
        outer = np.asarray(self.outermost)
        amount = np.asarray(self.amount)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_s = dur - child
        out = {}
        for i, name in enumerate(self.names):
            mine = nid == i
            top = mine & outer
            out[name] = {"s": float(dur[top].sum()),
                         "calls": int(top.sum()),
                         "amount": float(amount[top].sum()),
                         "self_s": float(self_s[mine].sum()),
                         "all_calls": int(mine.sum()),
                         "all_amount": float(amount[mine].sum())}
        return out

    def under(self, name, ancestor):
        """Number of spans called ``name`` with an ancestor ``ancestor``."""
        if name not in self._ids or ancestor not in self._ids:
            return 0
        nid, aid = self._ids[name], self._ids[ancestor]
        total = 0
        for i in np.flatnonzero(np.asarray(self.name_id) == nid):
            p = self.parent[i]
            while p >= 0 and self.name_id[p] != aid:
                p = self.parent[p]
            total += p >= 0
        return total


# ---------------------------------------------------------------------------
# measures: per-span amounts read from arguments or results

def _sparse_or_dense_bytes(m):
    """Bytes held by a dense array or by a scipy.sparse matrix's arrays."""
    if isinstance(m, np.ndarray):
        return m.nbytes
    return sum(getattr(m, a).nbytes for a in
               ("data", "indices", "indptr", "row", "col", "offsets")
               if isinstance(getattr(m, a, None), np.ndarray))


def _prolong_bytes(args, kwargs, out):
    return _sparse_or_dense_bytes(out[1])


def _file_bytes(args, kwargs, out):
    path = args[0] if args else kwargs["path"]
    return os.path.getsize(path)


def _values_points(args, kwargs, out):
    z = args[1] if len(args) > 1 else kwargs["Z"]
    shape = np.shape(z)
    return int(np.prod(shape[:-1]))


def _node_points(args, kwargs, out):
    return args[0].n_nodes


# ---------------------------------------------------------------------------
# wrappers

def _plain(tracer, fn, name, measure=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if measure is not None:
            tracer.amount[idx] = measure(args, kwargs, out)
        return out
    return traced


def _pair_values(tracer, fn):
    """Inner quotient solve; amount 1 when it ran, 0 on a cache hit."""
    @functools.wraps(fn)
    def traced(core, z, extra=None):
        cache = getattr(core, "_cache", {})
        solved = extra is not None or \
            np.asarray(z, dtype=float).tobytes() not in cache
        idx = tracer.open("seminorms.quotient")
        try:
            return fn(core, z, extra)
        finally:
            tracer.close(idx)
            tracer.amount[idx] = 1.0 if solved else 0.0
    return traced


def _inner_solve(tracer, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open("seminorms.quotient")
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx)
            tracer.amount[idx] = 1.0
    return traced


def _minimize(tracer, fn):
    """Counts objective evaluations, and those that lowered the running best
    value of at least one node, by wrapping the ``fun`` argument."""
    @functools.wraps(fn)
    def traced(fun, *args, **kwargs):
        n_nodes = args[2] if len(args) > 2 else kwargs["n_nodes"]
        best = np.full(n_nodes, np.inf)

        def counted(y):
            v = fun(y)
            low = np.min(np.reshape(v, (-1, n_nodes)), axis=0)
            tracer.count("fun_evals")
            if np.any(low < best):
                tracer.count("improving_evals")
                np.minimum(best, low, out=best)
            return v

        idx = tracer.open("solvers.minimize_batched")
        try:
            return fn(counted, *args, **kwargs)
        finally:
            tracer.close(idx)
    return traced


# (module, attribute, span name, wrapper factory or measure)
LAYERS = (
    ("grids", "refine", "grids.refine", _prolong_bytes),
    ("fields", "refine_map_field", "fields.refine_map_field", None),
    ("fields", "evaluate", "fields.evaluate", None),
    ("jordan", "decompose_map", "jordan.decompose_map", None),
    ("jordan", "continuity_report", "jordan.continuity_report", None),
    ("schemas", "decode_instance", "schemas.decode", None),
    ("schemas", "decode_map_field", "schemas.decode", None),
    ("schemas", "decode_element", "schemas.decode", None),
    ("schemas", "decode_grid", "schemas.decode", None),
    ("schemas", "decode_gauge", "schemas.decode", None),
    ("schemas", "decode_model", "schemas.decode", None),
    ("schemas", "decode_extension_problem", "schemas.decode", None),
    ("reports", "write_json", "reports.write", _file_bytes),
    ("reports", "write_csv", "reports.write", _file_bytes),
    ("cli", "main", "cli", None),
    ("generate", "extension_instance", "generate.extension_instance", None),
    ("extension", "radius_bound", "extension.radius_bound", None),
    ("extension", "envelopes", "extension.envelopes", None),
    ("extension", "select_continuous", "extension.select_continuous", None),
    ("extension", "extend_one", "extension.extend_one", None),
    ("extension", "extend_full", "extension.extend_full", None),
    ("solvers", "minimize_batched", None, _minimize),
    ("solvers", "lp_solve", "solvers.lp_solve", None),
    ("solvers", "taut_string_path", "solvers.taut_string_path", None),
    ("solvers", "taut_string_cycle", "solvers.taut_string_cycle", None),
    ("statespace", "envelope_field", "statespace.envelope_field", None),
    ("statespace", "lp_envelope", "statespace.lp_envelope", None),
    ("statespace", "represent_family", "statespace.represent_family", None),
    ("statespace", "sample_state_space", "statespace.sample_state_space",
     None),
)


class Instrumentation:
    """Installs the wrappers into the imported ``tracefield`` package."""

    def __init__(self, tracer):
        self.tracer = tracer
        self._undo = []

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        t = self.tracer
        mods = {m: importlib.import_module(f"tracefield.{m}")
                for m in _MODULES}
        for mod, attr, name, how in LAYERS:
            orig = getattr(mods[mod], attr)
            if name is None:
                wrapped = how(t, orig)
            else:
                wrapped = _plain(t, orig, name, how)
            for m in mods.values():
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._set(m, key, wrapped)
        sem = mods["seminorms"]
        gauges = [c for c in vars(sem).values()
                  if isinstance(c, type) and issubclass(c, sem.Gauge)]
        for cls in gauges:
            if "values" in cls.__dict__ and cls is not sem.Gauge:
                self._set(cls, "values", _plain(t, cls.__dict__["values"],
                                                "seminorms.values",
                                                _values_points))
            if "value_nodes" in cls.__dict__:
                self._set(cls, "value_nodes",
                          _plain(t, cls.__dict__["value_nodes"],
                                 "seminorms.values", _node_points))
        # private inner solvers: absent after a refactor, the quotient
        # metrics read 0 instead of the run failing
        core = getattr(sem, "_QuotientCore", None)
        if core is not None and "pair_values" in core.__dict__:
            self._set(core, "pair_values", _pair_values(t, core.pair_values))
        conv = getattr(sem, "InfConv", None)
        if conv is not None and "_solve" in conv.__dict__:
            self._set(conv, "_solve", _inner_solve(t, conv._solve))

    def uninstall(self):
        while self._undo:
            owner, attr, val = self._undo.pop()
            setattr(owner, attr, val)


def layer_metrics(tracer):
    """The per-layer metrics (names as in BENCHMARK.json) from the spans."""
    agg = tracer.summary()
    empty = {"s": 0.0, "calls": 0, "amount": 0.0, "self_s": 0.0,
             "all_calls": 0, "all_amount": 0.0}

    def get(name):
        return agg.get(name, empty)

    m = {}

    def put(key, value, unit):
        m[key] = {"value": value, "unit": unit}

    put("grids.refine.s", get("grids.refine")["s"], "s")
    put("grids.refine.prolong_bytes", get("grids.refine")["amount"], "bytes")
    put("fields.refine_map_field.s", get("fields.refine_map_field")["s"], "s")
    put("fields.evaluate.s", get("fields.evaluate")["s"], "s")
    put("jordan.decompose_map.s", get("jordan.decompose_map")["s"], "s")
    put("jordan.decompose_map.calls", get("jordan.decompose_map")["calls"],
        "count")
    put("jordan.continuity_report.self_s",
        get("jordan.continuity_report")["self_s"], "s")
    put("schemas.decode.s", get("schemas.decode")["s"], "s")
    put("reports.write.s", get("reports.write")["s"], "s")
    put("reports.write.bytes", get("reports.write")["amount"], "bytes")
    put("cli.self_s", get("cli")["self_s"], "s")
    put("generate.extension_instance.s",
        get("generate.extension_instance")["s"], "s")
    put("generate.radius_bound_calls",
        tracer.under("extension.radius_bound", "generate.extension_instance"),
        "count")
    put("extension.radius_bound.s", get("extension.radius_bound")["s"], "s")
    put("extension.radius_bound.calls",
        get("extension.radius_bound")["calls"], "count")
    put("extension.envelopes.s", get("extension.envelopes")["s"], "s")
    put("extension.select_continuous.s",
        get("extension.select_continuous")["s"], "s")
    put("extension.extend_one.self_s",
        get("extension.extend_one")["self_s"], "s")
    put("extension.extend_full.self_s",
        get("extension.extend_full")["self_s"], "s")
    values = get("seminorms.values")
    put("seminorms.values.s", values["s"], "s")
    put("seminorms.values.calls", values["calls"], "count")
    put("seminorms.values.points", values["amount"], "count")
    quotient = get("seminorms.quotient")
    solves = quotient["all_amount"]
    hits = quotient["all_calls"] - int(solves)
    put("seminorms.quotient.s", quotient["s"], "s")
    put("seminorms.quotient.inner_solves", solves, "count")
    put("seminorms.quotient.cache_hits", hits, "count")
    put("seminorms.quotient.inner_solves_per_point",
        solves / values["amount"] if values["amount"] else 0.0, "ratio")
    mini = get("solvers.minimize_batched")
    evals = tracer.counters.get("fun_evals", 0)
    put("solvers.minimize_batched.s", mini["s"], "s")
    put("solvers.minimize_batched.calls", mini["calls"], "count")
    put("solvers.minimize_batched.fun_evals", evals, "count")
    put("solvers.minimize_batched.improving_eval_frac",
        tracer.counters.get("improving_evals", 0) / evals if evals else 0.0,
        "ratio")
    put("solvers.lp_solve.s", get("solvers.lp_solve")["s"], "s")
    put("solvers.lp_solve.calls", get("solvers.lp_solve")["calls"], "count")
    put("solvers.taut_string_path.s", get("solvers.taut_string_path")["s"],
        "s")
    put("solvers.taut_string_cycle.s", get("solvers.taut_string_cycle")["s"],
        "s")
    put("statespace.envelope_field.self_s",
        get("statespace.envelope_field")["self_s"], "s")
    put("statespace.lp_envelope.calls", get("statespace.lp_envelope")["calls"],
        "count")
    put("statespace.represent_family.s",
        get("statespace.represent_family")["s"], "s")
    put("statespace.sample_state_space.s",
        get("statespace.sample_state_space")["s"], "s")
    return m
