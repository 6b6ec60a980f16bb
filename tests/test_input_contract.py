"""The library's input contract: every public function that takes an array
refuses a malformed one (ragged, non-numeric) with InputRejected, and the
refusals the other tests do not reach say what they refuse."""

import numpy as np
import pytest

import ineqlab
from ineqlab import (
    SecondFundamentalForm,
    SymmetricTuple,
    bw_case_matrix_bound,
    bw_slack,
    bw_spectral_slack,
    copositive_oracle,
    copositive_property_k,
    frobenius_inner,
    group_act,
    lemma1_slack,
    lili_slack,
    p_matrix_bound,
    partner_eigenvector,
    sharp_pair_bound,
    small_s1_check,
    svd,
    svd_reduction,
    sym_eigen,
    t_operator,
    t_spectrum,
    vectorize_sym,
    veronese_immersion,
)
from ineqlab.errors import InputRejected

RAGGED = [[1.0, 2.0], [3.0]]
NON_NUMERIC = [["a", "b"], ["c", "d"]]
MALFORMED = {"ragged": RAGGED, "non-numeric": NON_NUMERIC}

I2 = np.eye(2)
TUPLE = SymmetricTuple.from_matrices([I2, np.diag([1.0, -1.0])])
ETA = [2.0 ** -0.5, -(2.0 ** -0.5)]

# Each public name that takes an outside array, called with `bad` as its
# first array argument and valid values elsewhere.
ARRAY_TAKING = {
    "bw_case_matrix_bound": lambda bad: bw_case_matrix_bound(bad, I2),
    "bw_slack": lambda bad: bw_slack(bad, I2),
    "bw_spectral_slack": bw_spectral_slack,
    "copositive_oracle": lambda bad: copositive_oracle(bad, 4),
    "copositive_property_k": copositive_property_k,
    "frobenius_inner": lambda bad: frobenius_inner(bad, I2),
    "group_act": lambda bad: group_act(TUPLE, bad, I2),
    "lemma1_slack": lambda bad: lemma1_slack(bad, I2),
    "lili_slack": lambda bad: lili_slack(bad, [1.0, 1.0]),
    "p_matrix_bound": p_matrix_bound,
    "partner_eigenvector": lambda bad: partner_eigenvector(bad, I2),
    "sharp_pair_bound": lambda bad: sharp_pair_bound(bad, I2),
    "small_s1_check": lambda bad: small_s1_check(bad, I2),
    "svd": svd,
    "svd_reduction": lambda bad: svd_reduction(bad, I2),
    "sym_eigen": sym_eigen,
    "t_operator": t_operator,
    "t_spectrum": t_spectrum,
    "vectorize_sym": vectorize_sym,
    "veronese_immersion": veronese_immersion,
    "SymmetricTuple": SymmetricTuple.from_matrices,
    "SecondFundamentalForm": lambda bad: SecondFundamentalForm.from_array(bad, c=0.0),
}

# The public names that take no outside array.
NO_OUTSIDE_ARRAY = {
    # result records, exceptions and the seeded stream
    "CanonicalForm", "CopositivityVerdict", "CurvatureReport", "FundamentalReport",
    "InputRejected", "NumericalFailure", "RandomStream", "RatioSearchResult", "SlackReport",
    "TOperator",
    # a validated SymmetricTuple
    "canonical_reduce", "ddvv_slack", "key_lemma_slack", "sigma_matrix",
    # a validated SecondFundamentalForm
    "curvature_report", "fundamental_report", "mean_curvature_sq", "traceless",
    # numbers only
    "clifford_model", "extremal_case_a", "extremal_case_b", "maximize_ratio", "sub_seed",
    "veronese_tuple",
    # the unchecked kernel, for arrays already validated
    "commutator",
    "__version__",
}

# The stacking constructors name the bad member.
STACKING = {"SymmetricTuple", "SecondFundamentalForm"}


def test_every_public_name_is_classified():
    assert not set(ARRAY_TAKING) & NO_OUTSIDE_ARRAY
    assert set(ARRAY_TAKING) | NO_OUTSIDE_ARRAY == set(ineqlab.__all__)


@pytest.mark.parametrize("kind", sorted(MALFORMED))
@pytest.mark.parametrize("name", sorted(ARRAY_TAKING))
def test_malformed_array_is_refused(name, kind):
    with pytest.raises(InputRejected) as info:
        ARRAY_TAKING[name](MALFORMED[kind])
    if name not in STACKING:
        assert "is not a numeric array: " in str(info.value)


@pytest.mark.parametrize("kind", sorted(MALFORMED))
@pytest.mark.parametrize("name", sorted(STACKING))
def test_malformed_member_is_named(name, kind):
    with pytest.raises(InputRejected, match="^member 2 is not a numeric array: "):
        ARRAY_TAKING[name]([I2, MALFORMED[kind]])


@pytest.mark.parametrize("name", sorted(STACKING))
def test_stacking_constructor_refuses_a_number(name):
    with pytest.raises(InputRejected, match="^expected a sequence of matrices, got int$"):
        ARRAY_TAKING[name](5)


def test_conversion_names_the_argument():
    with pytest.raises(InputRejected, match="^y is not a numeric array: could not convert"):
        bw_slack(I2, NON_NUMERIC)
    with pytest.raises(InputRejected, match="^s is not a numeric array: setting an array"):
        p_matrix_bound(RAGGED)


@pytest.mark.parametrize("call, message", [
    (lambda: SymmetricTuple.from_matrices([]), "tuple must contain at least one matrix"),
    (lambda: SymmetricTuple.from_matrices([NON_NUMERIC]),
     "member 1 is not a numeric array: could not convert string to float: 'a'"),
    (lambda: SymmetricTuple.from_matrices(np.array(5.0)),
     "expected a sequence of matrices, got ndarray"),
    (lambda: SymmetricTuple.from_matrices(a for a in (I2, I2)),
     "expected a sequence of matrices, got generator"),
    (lambda: group_act(TUPLE, np.eye(3), I2), "p must be 2x2"),
    (lambda: lemma1_slack(ETA, np.eye(3)), "weights must be 2x2 to match eta"),
    (lambda: svd([1.0, 2.0]), "x: expected a square 2-D array, got shape (2,)"),
    (lambda: svd(np.zeros((0, 0))), "x: empty matrix"),
    (lambda: bw_case_matrix_bound([[0.0]], [[1.0]]), "n must be >= 2"),
], ids=["empty-tuple", "non-numeric-members", "0-d-array", "generator", "group-act-p-size",
        "lemma1-weights-size", "svd-1-d", "svd-0x0", "case-matrix-n-1"])
def test_refusal_message(call, message):
    with pytest.raises(InputRejected) as info:
        call()
    assert str(info.value) == message
