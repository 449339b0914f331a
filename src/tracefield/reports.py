"""Deterministic report writing: JSON plus per-node CSV tables.

No timestamps or environment data ever enter a report, so reruns with the
same inputs are byte-identical.  Floats go through ``%.17g`` (CSV) or the
canonical shortest ``repr`` (JSON).
"""

from __future__ import annotations

import json
import os

import numpy as np


def fmt(v) -> str:
    return format(float(v), ".17g")


def jsonable(obj):
    """Recursively convert numpy scalars/arrays to plain Python types."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):   # before int: bool is an int
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def write_json(path, obj):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        json.dump(jsonable(obj), fh, sort_keys=True, indent=1)
        fh.write("\n")


def write_csv(path, header, rows):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = [c if isinstance(c, str) else fmt(c) for c in row]
            fh.write(",".join(cells) + "\n")
