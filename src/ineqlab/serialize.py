"""File formats and deterministic JSON output.

JSON is emitted by a small canonical writer: keys keep insertion order and
every float is rendered with 17 significant digits ('%.17g'), which
round-trips float64 exactly and makes repeated runs byte-identical.  A
float64 array is checked finite once and written one last-axis row per
'%' with a cached row template, the same bytes as formatting each float.

Matrix files come in two flavors, sniffed by the first character:
JSON {"n": int, "entries": [[...], ...]} or plain text (first line n,
then n rows of n space-separated decimals).
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np

from .curvature import CurvatureReport, FundamentalReport, SecondFundamentalForm
from .ddvv import CanonicalForm, SymmetricTuple
from .copositive import CopositivityVerdict
from .errors import InputRejected
from .report import SlackReport


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


def _write(obj, out: list) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_format_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
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
    elif isinstance(obj, dict):
        out.append("{")
        for k, (key, value) in enumerate(obj.items()):
            if k:
                out.append(",")
            out.append(json.dumps(str(key)))
            out.append(":")
            _write(value, out)
        out.append("}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


# ---------------------------------------------------------------------------
# shared parsing helpers

def _decode(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputRejected(f"invalid JSON: {exc}") from exc


def _read_json(path: str, parse):
    with open(path, "r", encoding="utf-8") as fh:
        return parse(_decode(fh.read()))


def _require(obj, what: str, keys: tuple) -> None:
    """Check that `obj` is a JSON object with every key, and that the
    counts 'n' and 'm' among them are positive integers."""
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


# ---------------------------------------------------------------------------
# matrices

def matrix_json(a: np.ndarray) -> dict:
    return {"n": int(a.shape[0]), "entries": a}


def parse_matrix_json(obj) -> np.ndarray:
    _require(obj, "matrix", ("n", "entries"))
    n = obj["n"]
    try:
        entries = np.asarray(obj["entries"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputRejected(f"field 'entries' is not a numeric array: {exc}") from exc
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
    try:
        arr = np.asarray(obj["h"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputRejected(f"field 'h' is not a numeric array: {exc}") from exc
    if arr.ndim != 3:
        raise InputRejected(f"field 'h' must have axes (alpha, i, j), got shape {arr.shape}")
    form = SecondFundamentalForm.from_array(arr, c=c)
    if form.n != obj["n"] or form.m != obj["m"]:
        raise InputRejected("fields 'n'/'m' do not match the shape of 'h'")
    return form


def read_sff_file(path: str) -> SecondFundamentalForm:
    return _read_json(path, parse_sff_json)


# ---------------------------------------------------------------------------
# reports and verdicts

def report_json(rep: SlackReport) -> dict:
    return {
        "inequality": rep.inequality,
        "lhs": rep.lhs,
        "rhs": rep.rhs,
        "slack": rep.slack,
        "tol": rep.tol,
        "holds": rep.holds,
    }


def verdict_json(v: CopositivityVerdict) -> dict:
    return {
        "copositive": v.copositive,
        "certificate": v.certificate,
        "failing_submatrix": None if v.failing_submatrix is None else list(v.failing_submatrix),
    }


def canonical_form_json(cf: CanonicalForm, before: SlackReport, after: SlackReport) -> dict:
    return {
        "tuple": tuple_json(cf.reduced),
        "p": matrix_json(cf.p),
        "q": matrix_json(cf.q),
        "degenerate": cf.degenerate,
        "slack_before": report_json(before),
        "slack_after": report_json(after),
    }


def curvature_json(rep: CurvatureReport) -> dict:
    return {
        "rho": rep.rho,
        "rho_perp": rep.rho_perp,
        "mean_curv_sq": rep.mean_curv_sq,
        "geometric_slack": rep.geometric_slack,
        "shape_slack": rep.shape_slack,
    }


def fundamental_json(rep: FundamentalReport, boundary_n: int) -> dict:
    return {
        "s": rep.s,
        "eigenvalues": rep.eigenvalues,
        "sigma_sq": rep.sigma_sq,
        "pinch": rep.pinch,
        "pinch_boundary": int(boundary_n),
        "within_boundary": bool(rep.pinch <= boundary_n + 1e-9 * (1 + abs(rep.pinch))),
    }
