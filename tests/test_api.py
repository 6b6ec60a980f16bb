"""The public API: what `ineqlab` exports, and the README's library sketch."""

import os
import re
import subprocess
import sys
import types
from pathlib import Path

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
    "frobenius_inner", "fundamental_report", "group_act", "key_lemma_slack",
    "lemma1_slack", "lili_slack", "maximize_ratio", "mean_curvature_sq",
    "p_matrix_bound", "partner_eigenvector", "sharp_pair_bound", "sigma_matrix",
    "small_s1_check", "sub_seed", "svd", "svd_reduction", "sym_eigen", "t_operator",
    "t_spectrum", "traceless", "vectorize_sym", "veronese_immersion", "veronese_tuple",
    "__version__",
}


def test_each_public_name_declared_once_where_defined():
    declared = [name for module in EXPORTING for name in module.__all__]
    for module in EXPORTING:
        for name in module.__all__:
            assert getattr(module, name).__module__ == module.__name__, name
    assert len(declared) == len(set(declared))  # no name in two modules' lists
    assert ineqlab.__all__ == declared + ["__version__"]
    assert set(ineqlab.__all__) == PUBLIC_NAMES


def test_readme_library_sketch_runs():
    (sketch,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    src = str(Path(ineqlab.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-W", "error", "-c", sketch],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[-1] == "[2. 2. 0. 0.]"
