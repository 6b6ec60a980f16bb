"""Numerical laboratory for matrix commutator inequalities.

Implements and cross-validates the DDVV (normal scalar curvature)
inequality for tuples of symmetric matrices, the Bottcher-Wenzel
commutator bound, copositivity decision procedures, and the pointwise
geometric invariants (scalar curvature, normal scalar curvature,
fundamental matrix, pinching quantity) together with their exact
equality configurations.
"""

__version__ = "0.1.0"

from .bw import (
    RatioSearchResult,
    TOperator,
    bw_case_matrix_bound,
    bw_slack,
    bw_spectral_slack,
    maximize_ratio,
    partner_eigenvector,
    small_s1_check,
    svd_reduction,
    t_operator,
    t_spectrum,
)
from .copositive import CopositivityVerdict, copositive_oracle, copositive_property_k
from .curvature import (
    CurvatureReport,
    FundamentalReport,
    SecondFundamentalForm,
    clifford_model,
    curvature_report,
    fundamental_report,
    mean_curvature_sq,
    traceless,
    veronese_immersion,
    veronese_tuple,
)
from .ddvv import (
    CanonicalForm,
    SymmetricTuple,
    canonical_reduce,
    ddvv_slack,
    extremal_case_a,
    extremal_case_b,
    group_act,
    key_lemma_slack,
    lemma1_slack,
    lili_slack,
    p_matrix_bound,
    sharp_pair_bound,
    sigma_matrix,
)
from .errors import InputRejected, NumericalFailure
from .linalg import (
    commutator,
    frobenius_inner,
    svd,
    sym_eigen,
    vectorize_sym,
)
from .report import SlackReport
from .seeded import RandomStream, sub_seed

__all__ = [
    "CanonicalForm",
    "CopositivityVerdict",
    "CurvatureReport",
    "FundamentalReport",
    "InputRejected",
    "NumericalFailure",
    "RandomStream",
    "RatioSearchResult",
    "SecondFundamentalForm",
    "SlackReport",
    "SymmetricTuple",
    "TOperator",
    "bw_case_matrix_bound",
    "bw_slack",
    "bw_spectral_slack",
    "canonical_reduce",
    "clifford_model",
    "commutator",
    "copositive_oracle",
    "copositive_property_k",
    "curvature_report",
    "ddvv_slack",
    "extremal_case_a",
    "extremal_case_b",
    "frobenius_inner",
    "fundamental_report",
    "group_act",
    "key_lemma_slack",
    "lemma1_slack",
    "lili_slack",
    "maximize_ratio",
    "mean_curvature_sq",
    "p_matrix_bound",
    "partner_eigenvector",
    "sharp_pair_bound",
    "sigma_matrix",
    "small_s1_check",
    "sub_seed",
    "svd",
    "svd_reduction",
    "sym_eigen",
    "t_operator",
    "t_spectrum",
    "traceless",
    "vectorize_sym",
    "veronese_immersion",
    "veronese_tuple",
    "__version__",
]
