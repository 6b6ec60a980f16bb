"""File formats and deterministic JSON output.

JSON is emitted by a small canonical writer: keys keep insertion order and
every float is rendered with 17 significant digits ('%.17g'), which
round-trips float64 exactly and makes repeated runs byte-identical.  A
float64 array is checked finite once and written one last-axis row per
'%' with a cached row template, the same bytes as formatting each float.

Result dataclasses write themselves: an instance is the object of its
fields in declaration order, so a report's field list is its document.
File formats keep a writer beside their parser (matrix_json, tuple_json,
pair_json, sff_json, and canonical_form_json for reduce's output).

Matrix files come in two flavors, sniffed by the first character:
JSON {"n": int, "entries": [[...], ...]} or plain text (first line n,
then n rows of n space-separated decimals).
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import sys
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from .curvature import SecondFundamentalForm
from .ddvv import CanonicalForm, SymmetricTuple
from .errors import InputRejected
from .linalg import DIM_CAP, as_array


def _format_float(v: float) -> str:
    if not math.isfinite(v):
        raise InputRejected("cannot serialize non-finite number")
    return format(v, ".17g")


@functools.lru_cache(maxsize=64)
def _row_template(length: int) -> str:
    return "[" + ",".join(["%.17g"] * length) + "]"


def _format_array(a: np.ndarray) -> str:
    """A non-empty float64 array of ndim >= 1 as nested JSON lists."""
    if not np.isfinite(a).all():
        raise InputRejected("cannot serialize non-finite number")
    row = _row_template(a.shape[-1])
    parts = [row % tuple(r) for r in a.reshape(-1, a.shape[-1]).tolist()]
    for size in reversed(a.shape[:-1]):
        parts = ["[" + ",".join(parts[k:k + size]) + "]" for k in range(0, len(parts), size)]
    return parts[0]


def dumps(obj) -> str:
    """Canonical JSON: insertion-ordered keys, '%.17g' floats, no spaces."""
    out: list = []
    _write(obj, out)
    return "".join(out)


_fields = functools.lru_cache(maxsize=64)(dataclasses.fields)  # once per dataclass


def field_dict(obj) -> dict:
    """A dataclass instance's fields by name, in declaration order: the
    values themselves (dataclasses.asdict would deep-copy the arrays)."""
    return {f.name: getattr(obj, f.name) for f in _fields(type(obj))}


def _write(obj, out: list) -> None:
    # an exact float, a dict and a str, a document's commonest values, come first
    if type(obj) is float:
        out.append(_format_float(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for k, (key, value) in enumerate(obj.items()):
            if k:
                out.append(",")
            out.append(_quote(str(key)))
            out.append(":")
            _write(value, out)
        out.append("}")
    elif isinstance(obj, str):
        out.append(_quote(obj))
    elif obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_format_float(float(obj)))
    elif isinstance(obj, np.ndarray):
        if obj.dtype == np.float64 and obj.ndim and obj.size:
            out.append(_format_array(obj))
        else:
            _write(obj.tolist(), out)
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for k, item in enumerate(obj):
            if k:
                out.append(",")
            _write(item, out)
        out.append("]")
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        _write(field_dict(obj), out)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


# ---------------------------------------------------------------------------
# shared parsing helpers

def _decode(text: str):
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: too deeply nested
        raise InputRejected(f"invalid JSON: {exc}") from exc


def _read_json(path: str, parse):
    with open(path, "r", encoding="utf-8") as fh:
        return parse(_decode(fh.read()))


def _require(obj, what: str, keys: tuple) -> None:
    """Check that `obj` is a JSON object with every key, that the counts
    'n' and 'm' among them are positive integers, and that 'm' is at most
    DIM_CAP, before any member is parsed."""
    if not isinstance(obj, dict):
        raise InputRejected(f"{what} JSON must be an object")
    for key in keys:
        if key not in obj:
            raise InputRejected(f"{what} JSON missing field '{key}'")
        value = obj[key]
        # bool is an int subclass, so `true` would otherwise read as 1
        if key in ("n", "m") and (isinstance(value, bool) or not isinstance(value, int)
                                  or value < 1):
            raise InputRejected(f"field '{key}' must be a positive integer, got {value!r}")
        if key == "m" and value > DIM_CAP:
            raise InputRejected(f"field 'm' = {value} is over the cap m <= {DIM_CAP}")


# ---------------------------------------------------------------------------
# matrices

def matrix_json(a: np.ndarray) -> dict:
    return {"n": int(a.shape[0]), "entries": a}


def parse_matrix_json(obj) -> np.ndarray:
    _require(obj, "matrix", ("n", "entries"))
    n = obj["n"]
    entries = as_array(obj["entries"], "field 'entries'")
    if entries.shape != (n, n):
        raise InputRejected(f"field 'entries' has shape {entries.shape}, expected ({n}, {n})")
    return entries


def parse_matrix_text(text: str) -> np.ndarray:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise InputRejected("empty matrix file")
    try:
        n = int(lines[0].strip())
    except ValueError as exc:
        raise InputRejected(f"line 1: expected the dimension n, got {lines[0]!r}") from exc
    if n < 1:
        raise InputRejected("line 1: n must be positive")
    if len(lines) != n + 1:
        raise InputRejected(f"expected {n} rows after the header, found {len(lines) - 1}")
    rows = []
    for k, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if len(parts) != n:
            raise InputRejected(f"line {k}: expected {n} values, found {len(parts)}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise InputRejected(f"line {k}: {exc}") from exc
    return np.array(rows)


def loads_matrix(text: str) -> np.ndarray:
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return parse_matrix_json(_decode(text))
    return parse_matrix_text(text)


def read_matrix_file(path: str) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_matrix(fh.read())


# ---------------------------------------------------------------------------
# tuples

def tuple_json(t: SymmetricTuple) -> dict:
    return {"n": t.n, "m": t.m, "matrices": [matrix_json(a) for a in t.matrices]}


def parse_tuple_json(obj) -> SymmetricTuple:
    _require(obj, "tuple", ("n", "m", "matrices"))
    mats = obj["matrices"]
    if not isinstance(mats, list) or len(mats) != obj["m"]:
        raise InputRejected("field 'matrices' must be a list of length m")
    t = SymmetricTuple.from_matrices([parse_matrix_json(mj) for mj in mats])
    if t.n != obj["n"]:
        raise InputRejected(f"field 'n' = {obj['n']} does not match matrices ({t.n})")
    return t


def read_tuple_file(path: str) -> SymmetricTuple:
    return _read_json(path, parse_tuple_json)


# ---------------------------------------------------------------------------
# pairs

def pair_json(x: np.ndarray, y: np.ndarray) -> dict:
    return {"n": int(x.shape[0]), "x": matrix_json(x), "y": matrix_json(y)}


def parse_pair_json(obj):
    _require(obj, "pair", ("n", "x", "y"))
    x = parse_matrix_json(obj["x"])
    y = parse_matrix_json(obj["y"])
    if x.shape[0] != obj["n"] or y.shape[0] != obj["n"]:
        raise InputRejected("fields 'x' and 'y' must match the declared n")
    return x, y


def read_pair_file(path: str):
    return _read_json(path, parse_pair_json)


# ---------------------------------------------------------------------------
# second fundamental forms

def sff_json(form: SecondFundamentalForm) -> dict:
    return {"n": form.n, "m": form.m, "c": form.c, "h": form.h}


def parse_sff_json(obj) -> SecondFundamentalForm:
    _require(obj, "h", ("n", "m", "c", "h"))
    c = obj["c"]
    if isinstance(c, bool) or not isinstance(c, (int, float)):
        raise InputRejected(f"field 'c' must be a number, got {c!r}")
    if not abs(c) <= sys.float_info.max:  # NaN, inf, or an int past the float range
        raise InputRejected("field 'c' must be finite and within the float range")
    arr = as_array(obj["h"], "field 'h'")
    if arr.ndim != 3:
        raise InputRejected(f"field 'h' must have axes (alpha, i, j), got shape {arr.shape}")
    form = SecondFundamentalForm.from_array(arr, c=float(c))
    if form.n != obj["n"] or form.m != obj["m"]:
        raise InputRejected("fields 'n'/'m' do not match the shape of 'h'")
    return form


def read_sff_file(path: str) -> SecondFundamentalForm:
    return _read_json(path, parse_sff_json)


# ---------------------------------------------------------------------------
# reduce's output

def canonical_form_json(cf: CanonicalForm, before, after) -> dict:
    """The reduced tuple, its frame and the DDVV reports before and after."""
    return {
        "tuple": tuple_json(cf.reduced),
        "p": matrix_json(cf.p),
        "q": matrix_json(cf.q),
        "degenerate": cf.degenerate,
        "slack_before": before,
        "slack_after": after,
    }
