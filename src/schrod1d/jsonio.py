"""Deterministic JSON and CSV artifact writing.

All writes are atomic (temp file + rename) and byte-deterministic: keys are
sorted, floats use the shortest round-trip repr, exact scalars are encoded
as strings.
"""

import csv
import io
import json
import os
import tempfile
from dataclasses import fields, is_dataclass
from fractions import Fraction

import numpy as np


def to_jsonable(obj):
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if hasattr(obj, "to_json"):
        return to_jsonable(obj.to_json())
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = sorted(obj) if isinstance(obj, (set, frozenset)) else obj
        return [to_jsonable(v) for v in items]
    if is_dataclass(obj):
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in fields(obj)}
    raise TypeError("cannot serialize %r" % type(obj).__name__)


def dumps(obj):
    return json.dumps(to_jsonable(obj), sort_keys=True, indent=2,
                      ensure_ascii=True) + "\n"


def atomic_write_text(path, text):
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="ascii") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path, obj):
    atomic_write_text(path, dumps(obj))
    return path


def write_csv(path, header, rows):
    buf = io.StringIO(newline="")
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow(["" if v is None else v for v in row])
    atomic_write_text(path, buf.getvalue())
    return path
