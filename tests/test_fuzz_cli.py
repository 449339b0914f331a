"""Fuzzing of the command line with malformed instances.

Each example takes a valid ``extend`` or ``envelope`` instance and breaks it
in one place: a number becomes NaN or infinite, a required key goes
missing, a list of numbers loses or gains an entry, or a count turns
negative.  ``cli.main`` must exit with the input-error code 1 and name the
top-level key of the broken place; it must neither raise nor succeed.
"""

import json

from hypothesis import HealthCheck, given, settings, strategies as st

from tracefield.algebra import AlgebraDescriptor, random_selfadjoint
from tracefield.cli import main
from tracefield.generate import extension_instance, smooth_map_field
from tracefield.grids import path_grid
from tracefield.schemas import (encode_element, encode_extension_problem,
                                encode_instance, encode_map_field)

M2 = AlgebraDescriptor((2,))
# keys an instance may omit; deleting them leaves it valid
OPTIONAL = {"positions", "order", "norm", "weights", "scale", "selfadjoint",
            "nilspace"}
# integer fields that count something; a negative value is malformed
COUNTS = {"nodes", "dim", "count", "algebra"}


def extend_payload():
    problem = extension_instance(4, n_nodes=5, dim=3, dim_y=1, delta=0.1,
                                 margin=0.5)
    return encode_extension_problem(problem, order=[0, 1])


def envelope_payload():
    phi = smooth_map_field([2], path_grid(4), seed=3, scale=0.5)
    fam = [M2.unit(), random_selfadjoint(M2, 1)]
    return {
        "map": encode_map_field(phi),
        "chain": [[encode_element(fam[0])],
                  [encode_element(e) for e in fam]],
        "delta_seq": [3.0, 2.5],
        "x": encode_element(random_selfadjoint(M2, 3)),
        "states": {"count": 8, "seed": 0},
    }


PAYLOADS = {"extend": json.dumps(extend_payload()),
            "envelope": json.dumps(envelope_payload())}


def walk(obj, path=()):
    """Every (path, value) below ``obj``; paths are key / index tuples."""
    yield path, obj
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from walk(v, path + (k,))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from walk(v, path + (i,))


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def sites(payload, kind):
    """The places a mutation of ``kind`` can hit."""
    items = list(walk(payload))
    if kind == "nonfinite":
        return [p for p, v in items if p and is_number(v)]
    if kind == "missing":
        return [p + (k,) for p, v in items if isinstance(v, dict)
                for k in v if k not in OPTIONAL]
    if kind in ("shorter", "longer"):
        # innermost lists of numbers have a fixed length
        return [p for p, v in items if p and isinstance(v, list) and v
                and all(is_number(e) for e in v)]
    return [p for p, v in items if p and is_number(v)
            and any(k in COUNTS for k in p if isinstance(k, str))]


def mutate(payload, kind, path, value):
    *head, last = path
    parent = payload
    for k in head:
        parent = parent[k]
    if kind == "nonfinite":
        # an infinite p is the max norm, a valid value
        parent[last] = float("nan") if last == "p" else value
    elif kind == "missing":
        del parent[last]
    elif kind == "shorter":
        parent[last].pop()
    elif kind == "longer":
        parent[last].append(parent[last][-1])
    else:
        parent[last] = -1 - abs(int(parent[last]))


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(sorted(PAYLOADS)),
       kind=st.sampled_from(["nonfinite", "missing", "shorter", "longer",
                             "negative"]),
       pick=st.integers(0, 10 ** 6),
       value=st.sampled_from([float("nan"), float("inf"), float("-inf")]))
def test_malformed_instance_exits_1_naming_its_path(tmp_path, capsys,
                                                    command, kind, pick,
                                                    value):
    payload = json.loads(PAYLOADS[command])
    places = sites(payload, kind)
    path = places[pick % len(places)]
    mutate(payload, kind, path, value)
    inst = tmp_path / "inst.json"
    # a new file each time: ext4 flushes a file that is truncated and
    # rewritten (auto_da_alloc), which costs tens of milliseconds
    inst.unlink(missing_ok=True)
    inst.write_text(json.dumps(encode_instance(command, payload)))
    code = main([command, str(inst), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1, (kind, path, err)
    assert err.startswith("input error:") and path[0] in err, (kind, path,
                                                               err)
