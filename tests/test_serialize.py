import json

import numpy as np
import pytest
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
