import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_array_equal

from ineqlab.curvature import veronese_tuple
from ineqlab.ddvv import ddvv_slack, extremal_case_a
from ineqlab.errors import InputRejected
from ineqlab.seeded import RandomStream
from ineqlab.serialize import (
    dumps,
    loads_matrix,
    matrix_json,
    pair_json,
    parse_matrix_json,
    parse_pair_json,
    parse_sff_json,
    parse_tuple_json,
    report_json,
    sff_json,
    tuple_json,
)

# A failing @given test makes hypothesis import libcst to suggest a patch, and
# that import warns; under filterwarnings = error the warning would abort the
# whole pytest run instead of reporting the failure.
pytestmark = pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")


class TestDumps:
    def test_canonical_layout(self):
        doc = {"b": 1, "a": [1.5, True, None, "x"]}
        assert dumps(doc) == '{"b":1,"a":[1.5,true,null,"x"]}'

    def test_float_roundtrip_17g(self):
        rng = RandomStream(601)
        values = list(rng.normals(200)) + [1e-300, 1e300, 1.0 / 3.0, -0.0]
        for v in values:
            back = json.loads(dumps({"v": float(v)}))["v"]
            assert float(back) == float(v)

    def test_rejects_nan(self):
        with pytest.raises(InputRejected):
            dumps({"v": float("nan")})


class TestMatrixFormats:
    def test_json_roundtrip(self):
        a = RandomStream(602).gaussian_matrix(4)
        back = parse_matrix_json(json.loads(dumps(matrix_json(a))))
        assert_array_equal(back, a)

    def test_text_format(self):
        text = "2\n1.5 0\n0 -2.25\n"
        assert_array_equal(loads_matrix(text), np.array([[1.5, 0.0], [0.0, -2.25]]))

    def test_sniffs_json(self):
        a = np.eye(2)
        assert_array_equal(loads_matrix(dumps(matrix_json(a))), a)

    def test_text_diagnostics(self):
        with pytest.raises(InputRejected, match="line 1"):
            loads_matrix("abc\n")
        with pytest.raises(InputRejected, match="line 3"):
            loads_matrix("2\n1 2\n3\n")
        with pytest.raises(InputRejected, match="expected 2 rows"):
            loads_matrix("2\n1 2\n")

    def test_json_diagnostics(self):
        with pytest.raises(InputRejected, match="'n'"):
            parse_matrix_json({"entries": [[1.0]]})
        with pytest.raises(InputRejected, match="shape"):
            parse_matrix_json({"n": 2, "entries": [[1.0]]})


class TestTupleAndPair:
    def test_tuple_roundtrip(self):
        t = extremal_case_a(3, 1.0)
        back = parse_tuple_json(json.loads(dumps(tuple_json(t))))
        assert back.n == t.n and back.m == t.m
        for a, b in zip(back.matrices, t.matrices):
            assert_array_equal(a, b)

    def test_tuple_field_checks(self):
        with pytest.raises(InputRejected, match="'matrices'"):
            parse_tuple_json({"n": 2, "m": 1})
        doc = json.loads(dumps(tuple_json(extremal_case_a(2, 1.0))))
        doc["n"] = 5
        with pytest.raises(InputRejected, match="'n'"):
            parse_tuple_json(doc)

    def test_pair_roundtrip(self):
        rng = RandomStream(603)
        x, y = rng.gaussian_matrix(3), rng.gaussian_matrix(3)
        px, py = parse_pair_json(json.loads(dumps(pair_json(x, y))))
        assert_array_equal(px, x)
        assert_array_equal(py, y)


class TestSffFormat:
    def test_roundtrip(self):
        form = veronese_tuple()
        back = parse_sff_json(json.loads(dumps(sff_json(form))))
        assert back.n == 2 and back.m == 2 and back.c == 1.0
        assert_array_equal(back.h, form.h)

    def test_shape_check(self):
        with pytest.raises(InputRejected, match="axes"):
            parse_sff_json({"n": 2, "m": 1, "c": 0.0, "h": [[1.0, 0.0], [0.0, 1.0]]})

    @pytest.mark.parametrize("c", ["x", None, True, [1.0]])
    def test_rejects_non_numeric_c(self, c):
        with pytest.raises(InputRejected, match="'c'"):
            parse_sff_json({"n": 1, "m": 1, "c": c, "h": [[[1.0]]]})


class TestCountFields:
    """bool is an int in Python; `true` must not read as n = 1 or m = 1."""

    @pytest.mark.parametrize("parse,doc,key", [
        (parse_matrix_json, {"n": True, "entries": [[1.0]]}, "n"),
        (parse_tuple_json, {"n": True, "m": 1, "matrices": [{"n": 1, "entries": [[1.0]]}]}, "n"),
        (parse_tuple_json, {"n": 1, "m": True, "matrices": [{"n": 1, "entries": [[1.0]]}]}, "m"),
        (parse_pair_json, {"n": True, "x": {"n": 1, "entries": [[1.0]]},
                           "y": {"n": 1, "entries": [[1.0]]}}, "n"),
        (parse_sff_json, {"n": True, "m": 1, "c": 0.0, "h": [[[1.0]]]}, "n"),
        (parse_sff_json, {"n": 1, "m": True, "c": 0.0, "h": [[[1.0]]]}, "m"),
    ], ids=["matrix-n", "tuple-n", "tuple-m", "pair-n", "h-n", "h-m"])
    def test_rejects_bool(self, parse, doc, key):
        with pytest.raises(InputRejected, match=f"'{key}' must be a positive integer"):
            parse(doc)


class TestReportJson:
    def test_fields(self):
        rep = ddvv_slack(extremal_case_a(2, 1.0))
        doc = report_json(rep)
        assert set(doc) == {"inequality", "lhs", "rhs", "slack", "tol", "holds"}
        assert doc["holds"] is True
        assert doc["inequality"] == "ddvv"


# ---------------------------------------------------------------------------
# writer equivalence: the array-native writer against the recursive one it
# replaced, which formats every scalar through the isinstance chain below


def _reference_format_float(v: float) -> str:
    if not np.isfinite(v):
        raise InputRejected("cannot serialize non-finite number")
    return format(float(v), ".17g")


def _reference_write(obj, out: list) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_reference_format_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, np.ndarray):
        _reference_write(obj.tolist(), out)
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for k, item in enumerate(obj):
            if k:
                out.append(",")
            _reference_write(item, out)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        for k, (key, value) in enumerate(obj.items()):
            if k:
                out.append(",")
            out.append(json.dumps(str(key)))
            out.append(":")
            _reference_write(value, out)
        out.append("}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def reference_dumps(obj) -> str:
    out: list = []
    _reference_write(obj, out)
    return "".join(out)


def finite_floats(bits: np.ndarray) -> np.ndarray:
    """float64 values with the given bit patterns, where a NaN or inf pattern
    (exponent all ones) has its top exponent bit cleared to make it finite."""
    values = bits.astype(np.uint64).view(np.float64)
    bad = ~np.isfinite(values)
    values[bad] = (bits[bad] ^ np.uint64(1 << 62)).view(np.float64)
    return values


BITS = st.integers(0, 2 ** 64 - 1)
EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e300, 1.7976931348623157e308,
         2.0 ** 53, 1e16, 0.1, 1.0 / 3.0]
SHAPES = st.one_of(
    st.just((0,)), st.just((1,)),
    st.tuples(st.integers(2, 20)),
    st.integers(1, 12).map(lambda n: (n, n)),
    st.tuples(st.integers(1, 5), st.integers(1, 12)).map(lambda mn: (mn[0], mn[1], mn[1])),
)


@st.composite
def float_arrays(draw):
    shape = draw(SHAPES)
    size = math.prod(shape)
    bits = np.array(draw(st.lists(BITS, min_size=size, max_size=size)), dtype=np.uint64)
    a = finite_floats(bits).reshape(shape)
    for k in draw(st.lists(st.integers(0, max(size - 1, 0)), max_size=3 if size else 0)):
        a.flat[k] = draw(st.sampled_from(EDGES))
    return a


class TestWriterEquivalence:
    """dumps writes the same bytes as the recursive reference writer."""

    @settings(max_examples=100, deadline=None)
    @given(float_arrays())
    def test_float64_arrays(self, a):
        want = reference_dumps(a)
        assert dumps(a) == want
        assert dumps({"a": a, "rows": list(a)}) == reference_dumps({"a": a, "rows": list(a)})
        a.setflags(write=False)
        assert dumps(a) == want

    @settings(max_examples=60, deadline=None)
    @given(float_arrays())
    def test_non_contiguous(self, a):
        assert dumps(a.T) == reference_dumps(a.T)
        assert dumps(a[..., ::2]) == reference_dumps(a[..., ::2])

    @settings(max_examples=60, deadline=None)
    @given(float_arrays(), st.sampled_from([np.int64, np.int32, np.bool_, np.float32]))
    def test_other_dtypes_keep_the_old_path(self, a, dtype):
        with np.errstate(invalid="ignore", over="ignore"):
            b = np.nan_to_num(a.astype(dtype), posinf=1.0, neginf=-1.0)
        assert dumps(b) == reference_dumps(b)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(BITS, min_size=1, max_size=8), st.integers(0, 7))
    def test_scalars_and_mixed_lists(self, bits, pick):
        values = finite_floats(np.array(bits, dtype=np.uint64))
        doc = [float(values[0]), values[pick % values.size], values, 3, np.int64(-4), True,
               None, "s", {"k": values[::-1], "t": (values[0], np.float64(values[-1]))},
               np.array(values[0]), np.zeros((2, 0)), np.zeros((0, 3))]
        assert dumps(doc) == reference_dumps(doc)
        for v in values:
            assert dumps(np.float64(v)) == reference_dumps(np.float64(v)) == format(float(v), ".17g")

    @settings(max_examples=100, deadline=None)
    @given(float_arrays(), st.integers(0, 10 ** 6), st.sampled_from([math.nan, math.inf, -math.inf]))
    def test_non_finite_anywhere_is_rejected(self, a, where, bad):
        if a.size == 0:
            a = np.zeros(1)
        a.flat[where % a.size] = bad
        for doc in (a, a.T, {"x": [1.0, a]}, float(a.flat[where % a.size]), np.float64(bad)):
            with pytest.raises(InputRejected, match="cannot serialize non-finite number"):
                reference_dumps(doc)
            with pytest.raises(InputRejected, match="cannot serialize non-finite number"):
                dumps(doc)
