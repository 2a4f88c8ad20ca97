"""Finite-strain Maxwell viscoelasticity with Mooney-Rivlin elasticity.

A constitutive-integration kernel built around an iteration-free implicit
update of the inelastic right Cauchy-Green tensor, with Newton-based
baseline integrators, consistent tangents (exact for the closed-form
update, numerically differentiated otherwise), a generalized Maxwell
composite, and the verification studies exercising all of them.
"""

from . import composite, constitutive, errors, harness, tangent, tensor3
from .errors import *
from .constitutive import *
from .tangent import *
from .composite import *

__version__ = "0.1.0"

# the public names are those of the modules' own __all__
__all__ = ["tensor3", "harness"] + [
    name
    for module in (errors, constitutive, tangent, composite)
    for name in module.__all__
]
