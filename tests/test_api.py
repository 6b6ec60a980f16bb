"""The public API: what `ineqlab` exports, why each name no module reads stays, the
README's library sketch, and how records that hold arrays compare."""

import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
from test_one_home import MODULES, _module, _reads

import ineqlab
from ineqlab import bw, copositive, curvature, ddvv, errors, linalg, report, seeded

README = Path(__file__).parents[1] / "README.md"


def test_all_lists_exactly_the_public_names():
    public = {name for name, value in vars(ineqlab).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(ineqlab.__all__) == len(set(ineqlab.__all__))
    assert set(ineqlab.__all__) == public | {"__version__"}
    for name in ineqlab.__all__:
        getattr(ineqlab, name)


EXPORTING = (bw, copositive, curvature, ddvv, errors, linalg, report, seeded)

PUBLIC_NAMES = {
    "CanonicalForm", "CopositivityVerdict", "CurvatureReport", "FundamentalReport",
    "InputRejected", "NumericalFailure", "RandomStream", "RatioSearchResult",
    "SecondFundamentalForm", "SlackReport", "SymmetricTuple", "TOperator",
    "bw_case_matrix_bound", "bw_slack", "bw_spectral_slack", "canonical_reduce",
    "clifford_model", "commutator", "copositive_oracle", "copositive_property_k",
    "curvature_report", "ddvv_slack", "extremal_case_a", "extremal_case_b",
    "fundamental_report", "group_act", "key_lemma_slack", "lemma1_slack", "lili_slack",
    "maximize_ratio", "p_matrix_bound", "partner_eigenvector", "sharp_pair_bound",
    "sigma_matrix", "small_s1_check", "sub_seed", "svd_reduction", "sym_eigen", "t_operator",
    "t_spectrum", "traceless", "vectorize_sym", "veronese_immersion", "veronese_tuple",
    "__version__",
}

# The public names that no module of the package reads, each with the reason it stays.
CALLERLESS = {
    **dict.fromkeys(["lemma1_slack", "p_matrix_bound", "key_lemma_slack", "sharp_pair_bound"],
                    "a link of the DDVV proof, for its planned checked chain"),
    **dict.fromkeys(["small_s1_check", "bw_case_matrix_bound", "partner_eigenvector"],
                    "a link of the Bottcher-Wenzel proof, for its planned checked chain"),
    "extremal_case_b": "the second DDVV equality witness",
    **dict.fromkeys(["sigma_matrix", "lili_slack"], "the Li-Li inequality"),
    "veronese_immersion": "the Veronese model the README documents",
    "sub_seed": "the seed-to-trial rule a trial is replayed with",
    **dict.fromkeys(["sym_eigen", "maximize_ratio"],
                    "patched by the bench tracer's SPAN_TARGETS until spans replace them"),
    "vectorize_sym": "the basis of the planned DDVV boundary search",
}


def test_each_public_name_declared_once_where_defined():
    declared = [name for module in EXPORTING for name in module.__all__]
    for module in EXPORTING:
        for name in module.__all__:
            assert getattr(module, name).__module__ == module.__name__, name
    assert len(declared) == len(set(declared))  # no name in two modules' lists
    assert ineqlab.__all__ == declared + ["__version__"]
    assert set(ineqlab.__all__) == PUBLIC_NAMES


def test_callerless_public_names_are_the_reasoned_ones():
    trees = [_module(name) for name in MODULES]
    unread = {name for name in ineqlab.__all__ if not any(_reads(t, name) for t in trees)}
    assert unread == set(CALLERLESS)


def test_readme_library_sketch_runs():
    (sketch,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    src = str(Path(ineqlab.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-W", "error", "-c", sketch],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[-1] == "[2. 2. 0. 0.]"


def test_records_that_hold_arrays_compare_by_identity():
    # two distinct records equal in value: comparing their arrays field by
    # field would raise, not answer, so each equals itself only, and hashes
    pair = [np.diag([1.0, -1.0]), np.eye(2)]
    makers = [lambda: ddvv.SymmetricTuple.from_matrices(pair),
              lambda: curvature.SecondFundamentalForm.from_array(pair, c=1.0),
              lambda: ddvv.canonical_reduce(ddvv.SymmetricTuple.from_matrices(pair)),
              lambda: bw.t_operator(np.diag([1.0, 2.0])),
              lambda: curvature.fundamental_report(
                  curvature.SecondFundamentalForm.from_array(pair, c=1.0)),
              lambda: bw.maximize_ratio(2, 7, 5),
              lambda: copositive.copositive_property_k([[1, -3], [-3, 1]])]
    for make in makers:
        a, b = make(), make()
        assert a == a and a != b and not (a == b)
        assert hash(a) == hash(a) and len({a, b}) == 2
