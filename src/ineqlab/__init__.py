"""Numerical laboratory for matrix commutator inequalities.

Implements and cross-validates the DDVV (normal scalar curvature)
inequality for tuples of symmetric matrices, the Bottcher-Wenzel
commutator bound, copositivity decision procedures, and the pointwise
geometric invariants (scalar curvature, normal scalar curvature,
fundamental matrix, pinching quantity) together with their exact
equality configurations.
"""

__version__ = "0.1.0"

from . import bw, copositive, curvature, ddvv, errors, linalg, report, seeded
from .bw import *
from .copositive import *
from .curvature import *
from .ddvv import *
from .errors import *
from .linalg import *
from .report import *
from .seeded import *

__all__ = [name for module in (bw, copositive, curvature, ddvv, errors, linalg, report, seeded)
           for name in module.__all__] + ["__version__"]
