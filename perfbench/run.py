"""tracefield benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory.  With ``--trace 0`` the run repeats the workload's cycle of
operations until ``S`` seconds of operation time have passed (at least one
whole cycle) and reports the end-to-end metrics.  With ``--trace 1`` it runs
one cycle untraced and the same cycle traced, and reports the per-layer
metrics and the tracing overhead.  Operation times are scaled to the
speed of a reference host (see ``HostProbe``).  The last line of standard
output is the result object; a fuller record (environment, input sizes,
every operation's time and output digest, the unscaled figures) goes to
``perfbench/out/<workload>-s<seed>-t<trace>.json`` and the spans of a traced
run next to it.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

# One process, one compute thread: BLAS and OpenMP pools are capped before
# numpy loads, which keeps the load within nproc and the timings steady.
THREAD_CAP = "1"
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                "NUMEXPR_NUM_THREADS")
for _var in _THREAD_VARS:
    os.environ[_var] = THREAD_CAP

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5


def _import_program():
    """Import tracefield from this checkout's src directory only."""
    sys.path.insert(0, SRC)
    import numpy  # noqa: F401
    import scipy.optimize  # noqa: F401
    import tracefield
    from tracefield import cli, generate, seminorms, statespace  # noqa: F401
    where = os.path.dirname(os.path.abspath(tracefield.__file__))
    if where != os.path.join(SRC, "tracefield"):
        raise ImportError(f"tracefield imported from {where}, not from {SRC}")


def _threads_now():
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def _environment():
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "thread_cap": {v: os.environ[v] for v in _THREAD_VARS},
        "threads_seen": _threads_now(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def _fresh(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


class Runner:
    """Runs operations, times them, and checks and digests their outputs."""

    def __init__(self, workload, work_dir):
        self.wl = workload
        self.op_dir = os.path.join(work_dir, "op")
        self.records = []

    def run_op(self, pos, cycle, tracing=None):
        _fresh(self.op_dir)
        handle, err = None, None
        if tracing is not None:
            tracing.install()
        t0 = time.perf_counter()
        try:
            handle = self.wl.op(pos, self.op_dir)
        except Exception:          # a failed operation is counted, not fatal
            err = traceback.format_exc()
        dt = time.perf_counter() - t0
        if tracing is not None:
            tracing.uninstall()
        ok, digest = False, None
        if err is None:
            try:
                ok, digest = self.wl.verify(pos, self.op_dir, handle)
            except Exception:
                err = traceback.format_exc()
        if err is not None:
            print(f"operation {self.wl.name}[{pos}] cycle {cycle} failed:\n"
                  f"{err}", file=sys.stderr)
        rec = {"pos": pos, "cycle": cycle, "seconds": dt, "ok": bool(ok),
               "digest": digest, "traced": tracing is not None}
        self.records.append(rec)
        return rec


_IMPORT_PROBE = (
    "import sys, time; t0 = time.perf_counter(); sys.path.insert(0, {src!r}); "
    "import tracefield.cli, tracefield.seminorms, tracefield.statespace; "
    "print(time.perf_counter() - t0)")


def _import_seconds():
    """Import time of the package in a fresh interpreter (child is waited)."""
    probe = _IMPORT_PROBE.format(src=SRC)
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=120, check=True)
    return float(proc.stdout.strip())


class HostProbe:
    """How slow the host is right now, from kernels that use no tracefield.

    The machine the benchmark runs on is shared: other tenants' load slows
    interpreter-bound code by 10 to 80 %, for seconds or for minutes, so two
    runs of one program can differ by that much.  Right after each
    operation the probe times fixed kernels of the kinds of code the
    workload spends its time in (``Workload.host_kernels``): a Python loop,
    small numpy calls, one HiGHS LP through scipy, or passes over arrays
    larger than the cache.  Each kernel's best of ``REPEATS`` runs over its
    time on the reference host (``NOMINAL_S``) is its slowdown, and
    ``factor`` returns the geometric mean of the slowdowns.  A change to
    tracefield cannot move it.
    """

    # best times of the kernels on a 2-vCPU KVM guest (Intel Xeon, family 6
    # model 143), Python 3.11.7, numpy 2.4.6, scipy 1.17.1
    NOMINAL_S = {"python_loop": 1.3e-3, "numpy_small": 1.9e-3,
                 "highs_lp": 3.2e-3, "array_pass": 11e-3}
    REPEATS = 3
    ARRAY_LEN = 4_000_000

    def __init__(self, kernels):
        import numpy as np
        from scipy.optimize import linprog
        self._np, self._linprog = np, linprog
        self.kernels = tuple(kernels)
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 150))
        self._lp = (rng.standard_normal(300), np.concatenate([a, -a], axis=1),
                    a @ rng.uniform(0.0, 1.0, 150))
        self._small = rng.standard_normal((6, 3))
        self._arrays = None

    def _python_loop(self):
        acc = 0
        for i in range(20000):
            acc += i * i % 7

    def _numpy_small(self):
        np, m = self._np, self._small
        for _ in range(300):
            float(np.max(np.abs(m @ m[0] + m.sum(axis=0)[0])))

    def _highs_lp(self):
        c, a_eq, b_eq = self._lp
        self._linprog(c, A_ub=self._np.ones((1, 300)), b_ub=[1e3], A_eq=a_eq,
                      b_eq=b_eq, bounds=[(0, None)] * 300, method="highs")

    def _array_pass(self):
        a, b = self._arrays
        self._np.multiply(a, 1.0, out=b)
        self._np.multiply(b, 1.0, out=a)

    def factor(self):
        if "array_pass" in self.kernels:
            # allocated per call, after the operation has freed its memory,
            # so that the probe does not raise the run's peak RSS
            self._arrays = [self._np.ones(self.ARRAY_LEN) for _ in range(2)]
        best = dict.fromkeys(self.kernels, float("inf"))
        for _ in range(self.REPEATS):
            for name in self.kernels:
                t0 = time.perf_counter()
                getattr(self, "_" + name)()
                best[name] = min(best[name], time.perf_counter() - t0)
        self._arrays = None
        logs = [math.log(best[k] / self.NOMINAL_S[k]) for k in self.kernels]
        return math.exp(sum(logs) / len(logs))


def _setup(wl, work_dir, warm_dir):
    t0 = time.perf_counter()
    wl.setup(os.path.join(work_dir, "inputs"))
    _fresh(warm_dir)
    wl.warm_up(warm_dir)
    return time.perf_counter() - t0


def measure(wl, runner, seconds, work_dir):
    """End-to-end run: set-up repeated, then whole cycles for ``seconds``.

    Every operation is followed by a host probe, and its time is divided
    by the probe's factor: the result is the time it would have taken on
    the reference host at rest.  Medians over the repeats then drop what
    the probe does not track.  Set-up is not scaled: its import runs in a
    child process, which the kernel may place on another vCPU than the one
    the probe measured, and its unscaled median is the steadier one.
    """
    probe = HostProbe(wl.host_kernels)
    setups = [_import_seconds()
              + _setup(wl, work_dir, os.path.join(work_dir, "warm"))
              for _ in range(SETUP_REPEATS)]
    n_pos = len(wl.positions)
    busy, i = 0.0, 0
    while busy < seconds or i < n_pos:
        rec = runner.run_op(i % n_pos, i // n_pos)
        rec["host_factor"] = probe.factor()
        busy += rec["seconds"]
        i += 1
    by_pos = [[r["seconds"] / r["host_factor"] for r in runner.records
               if r["pos"] == p] for p in range(n_pos)]
    # each position repeats one fixed input, so the mix is the same
    # whichever operation the window ends on
    med = [statistics.median(t) for t in by_pos]
    raw_med = [statistics.median(r["seconds"] for r in runner.records
                                 if r["pos"] == p) for p in range(n_pos)]
    times = [r["seconds"] for r in runner.records]
    metrics = {
        "ops_per_s": {"value": n_pos / sum(med), "unit": "1/s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
    }
    extra = {"raw_ops_per_s": n_pos / sum(raw_med),
             "setup_repeats_s": setups,
             "busy_s": busy, "op_samples": len(times),
             "op_p50_s": statistics.median(times),
             "samples_per_position": [len(t) for t in by_pos],
             "scaled_median_s_per_position": med,
             "median_s_per_position": raw_med,
             "best_s_per_position": [min(r["seconds"] for r in runner.records
                                         if r["pos"] == p)
                                     for p in range(n_pos)]}
    return metrics, extra


def traced(wl, runner, work_dir, spans_path):
    """One untraced and one traced pass over cycle 0, same inputs."""
    from tracing import Instrumentation, Tracer, layer_metrics
    _setup(wl, work_dir, os.path.join(work_dir, "warm"))
    n_pos = len(wl.positions)
    plain = [runner.run_op(p, 0) for p in range(n_pos)]
    tracer = Tracer()
    tracing = Instrumentation(tracer)
    spanned = [runner.run_op(p, 0, tracing) for p in range(n_pos)]
    tracer.write(spans_path)
    metrics = layer_metrics(tracer)
    plain_rate = n_pos / sum(r["seconds"] for r in plain)
    traced_rate = n_pos / sum(r["seconds"] for r in spanned)
    metrics["trace.untraced_ops_per_s"] = {"value": plain_rate, "unit": "1/s"}
    metrics["trace.traced_ops_per_s"] = {"value": traced_rate, "unit": "1/s"}
    metrics["trace.ops_per_s_ratio"] = {"value": traced_rate / plain_rate,
                                        "unit": "ratio"}
    same = all(a["digest"] == b["digest"] for a, b in zip(plain, spanned))
    extra = {"spans": len(tracer.start), "span_file": spans_path,
             "digests_match_untraced": same}
    return metrics, extra, same


def main(argv=None):
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload](args.seed)
    out_dir = os.path.join(HERE, "out")
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    work_dir = os.path.join(out_dir, tag)
    _fresh(work_dir)
    runner = Runner(wl, work_dir)
    if args.trace:
        spans = os.path.join(out_dir, tag + "-spans.json.gz")
        metrics, extra, consistent = traced(wl, runner, work_dir, spans)
    else:
        metrics, extra = measure(wl, runner, args.seconds, work_dir)
        consistent = True
    shutil.rmtree(work_dir, ignore_errors=True)

    attempted = len(runner.records)
    failed = sum(not r["ok"] for r in runner.records)
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": _environment(),
        "input_sizes": wl.sizes(), "ops_per_cycle": len(wl.positions),
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted, "metrics": metrics,
        "operations": runner.records, **extra,
    }
    with open(os.path.join(out_dir, tag + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": failed == 0 and consistent,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    _import_program()
    sys.exit(main())
