"""Consistent tangent operators: exact for the closed-form steppers,
central differences for any other.

The tangent is the derivative of the discrete stress update with respect
to the discrete strain input, taken with the internal state entering the
step held fixed.  For ``ifebm_step_lagrangian`` and ``twoiter_step`` it
is the exact (algorithmic) derivative of the update; every other stepper,
and any call with an explicit finite-difference step, is differentiated
numerically.  Stress and strain tensors are flattened to 6-vectors:

* stress vector  (T11, T22, T33, T12, T13, T23)
* strain vector  (C11, C22, C33, 2 C12, 2 C13, 2 C23)

so the resulting 6x6 matrix is directly comparable with the symmetry
diagnostics of :func:`symmetry_deviation`.  Perturbing strain-vector slot
j by h therefore means adding h to a diagonal entry of C, or h/2 to both
off-diagonal slots of a shear pair.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import DomainError
from . import tensor3 as t3
from .constitutive import _CORRECTIONS, _lagrangian_tangent

__all__ = [
    "stress_to_voigt",
    "voigt_to_stress",
    "strain_to_voigt",
    "voigt_to_strain",
    "consistent_tangent",
    "symmetry_deviation",
]

# strain-vector weights: the shear slots hold twice the tensor component
_STRAIN_WEIGHT = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 2.0])


def stress_to_voigt(T: np.ndarray) -> np.ndarray:
    """(T11, T22, T33, T12, T13, T23) (of each member of a stack)."""
    return t3.pack_sym(T)


def voigt_to_stress(v: np.ndarray) -> np.ndarray:
    return t3.unpack_sym(np.asarray(v))


def strain_to_voigt(C: np.ndarray) -> np.ndarray:
    """(C11, C22, C33, 2 C12, 2 C13, 2 C23) (of each member of a stack);
    exact round trip with :func:`voigt_to_strain` (doubling and halving
    are exact in binary)."""
    return t3.pack_sym(C) * _STRAIN_WEIGHT


def voigt_to_strain(v: np.ndarray) -> np.ndarray:
    return t3.unpack_sym(np.asarray(v) / _STRAIN_WEIGHT)


# the strain-vector slots as directions of C: slot j moved by one
_SLOT_DIRECTIONS = voigt_to_strain(np.eye(6))


def _perturbed_strains(C, h):
    # rows j and 6 + j: C with strain-vector slot j moved by +h and -h
    x = np.repeat(strain_to_voigt(C)[None], 12, axis=0)
    j = np.arange(6)
    x[j, j] += h
    x[j + 6, j] -= h
    return voigt_to_strain(x)


def consistent_tangent(
    stepper: Callable,
    C_next: np.ndarray,
    state,
    dt: float,
    p,
    h: float | None = None,
) -> np.ndarray:
    """6x6 derivative of the stress update with respect to the strain.

    ``stepper`` is any Lagrangian step function ``(C, state, dt, params)
    -> StepResult``; the state entering the step is held fixed.  With
    ``h = None`` and a closed-form stepper (``ifebm_step_lagrangian``,
    ``twoiter_step``) the result is the exact derivative of the discrete
    update: one step, with the derivatives along the six strain slots
    carried through it.  Otherwise it is taken by central differences with
    step ``h``, calling the stepper once per perturbed strain; the default
    ``h = 1e-6 * max(||C||_F, 1)`` sits near the double-precision optimum.
    If a perturbed strain loses positive definiteness the step is shrunk
    once by a factor 10, after which DomainError is raised.
    """
    corrections = _CORRECTIONS.get(stepper)
    if h is None and corrections is not None:
        dT = stress_to_voigt(
            _lagrangian_tangent(
                C_next, state.Ci, dt, p, corrections, _SLOT_DIRECTIONS
            )
        )
    else:
        dT = _central_differences(stepper, C_next, state, dt, p, h)
    # row-major, as callers' norms sum in memory order
    return np.ascontiguousarray(dT.T)


def _central_differences(stepper, C_next, state, dt, p, h):
    # row j: the stress vector's central difference along strain slot j
    if h is None:
        h = 1e-6 * max(float(np.linalg.norm(C_next)), 1.0)
    if not h > 0.0:
        raise DomainError("finite-difference step h must be positive")

    for attempt in (h, h / 10.0):
        Cs = _perturbed_strains(C_next, attempt)
        if all(map(t3.is_spd, Cs)):
            h = attempt
            break
    else:
        raise DomainError(
            "perturbed strain is not SPD even after shrinking h"
        )

    T = stress_to_voigt(np.array([stepper(C, state, dt, p).stress for C in Cs]))
    return (T[:6] - T[6:]) / (2.0 * h)


def symmetry_deviation(tangent_history: Sequence[np.ndarray]) -> float:
    """Normalized asymmetry ``max_t ||M - M^T|| / max_t ||M||`` over a
    history of 6x6 tangents (Frobenius norms).  Scale invariant."""
    if len(tangent_history) == 0:
        raise DomainError("tangent history must not be empty")
    num = max(float(np.linalg.norm(M - M.T)) for M in tangent_history)
    den = max(float(np.linalg.norm(M)) for M in tangent_history)
    if den == 0.0:
        return 0.0
    return num / den
