"""Consistent tangent operators by central-difference differentiation.

The tangent is the derivative of the discrete stress update with respect
to the discrete strain input, taken with the internal state entering the
step held fixed.  Stress and strain tensors are flattened to 6-vectors:

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
from .constitutive import _CORRECTIONS, _lagrangian_lanes

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
    """6x6 derivative of the stress update by central differences.

    ``stepper`` is any Lagrangian step function ``(C, state, dt, params)
    -> StepResult``; the state entering the step is held fixed while the
    strain input is perturbed (ifebm and 2iebm step the twelve perturbed
    strains as one stack).  The default step ``h = 1e-6 * max(||C||_F,
    1)`` sits near the double-precision optimum for central differences.
    If a perturbed strain loses positive definiteness the step is shrunk
    once by a factor 10, after which DomainError is raised.
    """
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

    corrections = _CORRECTIONS.get(stepper)
    if corrections is None:
        results = [stepper(C, state, dt, p) for C in Cs]
    else:
        results = _lagrangian_lanes(Cs, state.Ci, dt, [p], corrections)
    T = stress_to_voigt(np.array([r.stress for r in results]))
    # row-major, as callers' norms sum in memory order
    return np.ascontiguousarray(((T[:6] - T[6:]) / (2.0 * h)).T)


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
