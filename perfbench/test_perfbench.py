"""Self-test of the benchmark.

    python3 -m pytest perfbench/test_perfbench.py -q

Per workload: two traced runs and one untraced run with the same seed must
give the same output digests for every operation of the first cycle, the
traced pass of each traced run must match its untraced pass (the wrappers
change no output byte), every count metric must repeat exactly, and the
metric names must be those declared in BENCHMARK.json.  A directory that
holds only the benchmark must make it fail without a result.  An envelope
instance whose sample needs more weight norm than the base slacks allow
must get larger slacks and pass.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 5
WORKLOADS = ("decompose", "extend", "envelope", "quotient")


def _run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(SEED), "--seconds", "0",
           "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def _record(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] and line["failed"] == 0, proc.stderr
    path = os.path.join(HERE, "out", f"{workload}-s{SEED}-t{trace}.json")
    with open(path) as fh:
        return line, json.load(fh)


def _declared(key):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [m["name"] for m in json.load(fh)[key]]


def _digests(record, traced):
    return [(r["pos"], r["digest"]) for r in record["operations"]
            if r["cycle"] == 0 and r["traced"] == traced]


def _counts(line):
    return {k: v["value"] for k, v in line["metrics"].items()
            if v["unit"] in ("count", "bytes")
            or (v["unit"] == "ratio" and not k.startswith("trace."))}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_outputs(workload):
    line_a, traced_a = _record(workload, 1)
    line_b, traced_b = _record(workload, 1)
    line_c, plain = _record(workload, 0)
    assert sorted(line_a["metrics"]) == sorted(_declared("per_layer"))
    assert sorted(line_c["metrics"]) == sorted(_declared("end_to_end"))
    reference = _digests(plain, False)
    assert len(reference) == plain["ops_per_cycle"]
    assert all(d is not None for _, d in reference)
    for rec in (traced_a, traced_b):
        assert _digests(rec, False) == reference
        assert _digests(rec, True) == reference
    assert _counts(line_a) == _counts(line_b)
    assert any(_counts(line_a).values())


def test_fails_without_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("quotient", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_envelope_stages_feasible(tmp_path):
    # On this seed the last stage of the (2,) position needs a weight norm
    # above ||phi(t)|| + 0.1 on its state sample; the slacks must cover it.
    sys.path.insert(0, HERE)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import Envelope
    wl = Envelope(1562860791)
    wl.setup(str(tmp_path / "inputs"))
    pos = 3
    with open(wl.inputs[pos]) as fh:
        delta_seq = json.load(fh)["envelope"]["delta_seq"]
    assert delta_seq[-1] > Envelope.delta_seq[-1]
    assert delta_seq == sorted(delta_seq, reverse=True)
    op_dir = str(tmp_path / "op")
    os.makedirs(op_dir)
    code = wl.op(pos, op_dir)
    assert wl.verify(pos, op_dir, code)[0]
