"""Generalized Maxwell model: equilibrium branch plus parallel Maxwell
branches.

The equilibrium branch is a Mooney-Rivlin spring with a polyconvex
volumetric term; it carries no internal state and is evaluated, never
integrated.  Each Maxwell branch is the single-branch material from
:mod:`mrmaxwell.constitutive` with its own parameters and internal
variable, advanced independently within a step.  Total stress is the sum
of the branch stresses.

Incompressibility is handled exactly rather than by a large bulk
modulus: with ``k = "incompressible"`` the volumetric term is dropped
and the stress becomes determinate only up to a pressure, which
:func:`uniaxial_axial_stress` eliminates through the lateral
traction-free condition of the uniaxial protocol.

Model parameters can be read from a JSON document::

    {"equilibrium": {"c10": .., "c01": .., "k": <number or "incompressible">},
     "branches": [{"c10": .., "c01": .., "eta": ..}, ...]}

A bundled file (:func:`table_model_path`) carries the parameter set of a
cartilaginous temporomandibular joint: four Maxwell branches with moduli
0.25, 0.25, 0.36, 1.25 MPa (c10 = c01), viscosities 25.0, 5.0, 0.144,
0.005 MPa s, and an equilibrium branch with 0.2/0.2 MPa.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError
from . import tensor3 as t3
from .tensor3 import det, sym
from .constitutive import (
    LagrangianState,
    MaterialParams,
    StepDiagnostics,
    ifebm_step_lagrangian,
)
from .constitutive import _CORRECTIONS, _branch_steps, _strain, _stress_from_parts

__all__ = [
    "EquilibriumParams",
    "CompositeModel",
    "CompositeStepResult",
    "equilibrium_stress",
    "composite_step",
    "uniaxial_axial_stress",
    "load_model",
    "table_model_path",
]


@dataclass(frozen=True)
class EquilibriumParams:
    """Equilibrium spring: Mooney-Rivlin moduli plus bulk modulus.

    ``k = math.inf`` marks the incompressible limit (no volumetric
    stress; an indeterminate pressure takes its place).
    """

    c10: float
    c01: float
    k: float

    def __post_init__(self):
        if not (0.0 <= self.c10 < math.inf and 0.0 <= self.c01 < math.inf):
            raise DomainError(
                "equilibrium moduli c10, c01 must be finite and non-negative, "
                f"got c10 = {self.c10}, c01 = {self.c01}"
            )
        if not self.k > 0.0:
            raise DomainError("bulk modulus must be positive (or inf)")

    @property
    def incompressible(self) -> bool:
        return math.isinf(self.k)


@dataclass(frozen=True)
class CompositeModel:
    equilibrium: EquilibriumParams
    branches: tuple[MaterialParams, ...]
    states: tuple[LagrangianState, ...]

    def __post_init__(self):
        if len(self.branches) != len(self.states):
            raise DomainError("one state per Maxwell branch required")

    @classmethod
    def relaxed(
        cls, equilibrium: EquilibriumParams, branches: Sequence[MaterialParams]
    ) -> "CompositeModel":
        """Model with all branch states at the identity."""
        branches = tuple(branches)
        return cls(
            equilibrium,
            branches,
            tuple(LagrangianState.identity() for _ in branches),
        )


def equilibrium_stress(C: np.ndarray, p: EquilibriumParams) -> np.ndarray:
    """2nd Piola-Kirchhoff stress of the equilibrium branch.

    Isochoric part ``C^-1 (c10 unimodular(C) - c01 unimodular(C)^-1)^D``
    plus, for finite bulk modulus, the volumetric part
    ``k/10 ((det C)^(5/2) - (det C)^(-5/2)) C^-1``.  In the
    incompressible limit the volumetric part is omitted; the pressure it
    stands in for must be supplied by the boundary conditions of the
    driving protocol.  A volume ratio ``det C`` that overflows, or whose
    volumetric factor does, raises :class:`DomainError`.
    """
    return _equilibrium_stress(C, _strain(C, "C"), p)


# the upper triangle (11, 22, 33, 12, 13, 23) of Ci = I
_RELAXED = (1.0, 1.0, 1.0, 0.0, 0.0, 0.0)


def _equilibrium_stress(C, strain, p):
    # equilibrium_stress of C, given _strain(C); the isochoric part is the
    # Maxwell branches' stress law at Ci = I, the volumetric C^-1 is Cbar^-1/r
    d = det(C)
    try:
        vol = 0.0 if p.incompressible else p.k / 10.0 * (d**2.5 - d**-2.5)
    except OverflowError:
        vol = math.inf
    if not vol < math.inf:
        raise DomainError(f"volume ratio det C = {d:.3e} is out of float range")
    iso = _stress_from_parts(strain, _RELAXED, p)
    if p.incompressible:
        return iso
    _, b, r = strain
    return iso + vol * (np.array(b).reshape(3, 3) / r)


@dataclass(frozen=True)
class CompositeStepResult:
    model: CompositeModel
    total_stress: np.ndarray
    equilibrium_part: np.ndarray
    branch_stresses: tuple[np.ndarray, ...]
    branch_diagnostics: tuple[StepDiagnostics, ...]


def composite_step(
    C_next: np.ndarray,
    model: CompositeModel,
    dt: float,
    stepper: Callable = ifebm_step_lagrangian,
) -> CompositeStepResult:
    """Advance every Maxwell branch independently and sum the stresses.

    The strain is checked and its parts formed once, as Python floats, for
    the equilibrium branch and every Maxwell branch.  The branches of
    ``ifebm_step_lagrangian`` and ``twoiter_step`` take the reference
    march's float update on those parts, and every stress, the
    equilibrium's included, comes from the one float stress law; they
    agree with one stepper call per branch to round-off and raise its
    errors in branch order.  Any other stepper is called once per branch.
    For the incompressible model the returned stress excludes the
    indeterminate pressure term ``-p C^-1``.  A ``dt`` that is not finite
    and non-negative is refused, with or without branches.
    """
    if not 0.0 <= dt < math.inf:
        raise DomainError(f"dt must be finite and non-negative, got {dt!r}")
    strain = _strain(C_next, "C_next")
    eq = _equilibrium_stress(C_next, strain, model.equilibrium)
    corrections = _CORRECTIONS.get(stepper)
    if corrections is None or not model.branches:
        results = [
            stepper(C_next, state, dt, params)
            for params, state in zip(model.branches, model.states)
        ]
    else:
        results = _branch_steps(strain, model.states, dt, model.branches, corrections)
    total = eq.copy()
    for r in results:
        total += r.stress
    new_model = CompositeModel(
        model.equilibrium,
        model.branches,
        tuple(r.state for r in results),
    )
    return CompositeStepResult(
        new_model,
        total,
        eq,
        tuple(r.stress for r in results),
        tuple(r.diagnostics for r in results),
    )


def _check_uniaxial_isochoric(F):
    lam = F[0, 0]
    off = abs(F[0, 1]) + abs(F[0, 2]) + abs(F[1, 0]) + abs(F[1, 2]) + abs(
        F[2, 0]
    ) + abs(F[2, 1])
    if not lam > 0.0 or off > 1e-12 * max(lam, 1.0):
        raise DomainError("F is not of the uniaxial diagonal form")
    if abs(F[1, 1] - F[2, 2]) > 1e-12 * lam or abs(
        lam * F[1, 1] * F[2, 2] - 1.0
    ) > 1e-8:
        raise DomainError("F is not volume preserving uniaxial")
    return lam


def uniaxial_axial_stress(
    model: CompositeModel, F_history: Sequence[np.ndarray], dt: float,
    stepper: Callable = ifebm_step_lagrangian,
) -> tuple[np.ndarray, CompositeModel]:
    """Axial engineering stress along a volume-preserving uniaxial history.

    ``F_history[k]`` must be ``diag(1 + e, (1 + e)^(-1/2), (1 + e)^(-1/2))``.
    The first entry is taken as the initial placement (no step); each
    following entry advances the model by ``dt``.  For the incompressible
    model the pressure is eliminated by requiring zero lateral Cauchy
    stress, and the axial 1st Piola-Kirchhoff stress (force per unit
    reference area) is returned.
    """
    if not model.equilibrium.incompressible:
        raise DomainError(
            "traction-free uniaxial evaluation requires the incompressible model"
        )
    if not 0.0 < dt < math.inf:
        raise DomainError(f"dt must be finite and positive, got {dt!r}")

    stresses = np.empty(len(F_history))
    current = model
    for k, F in enumerate(F_history):
        lam = _check_uniaxial_isochoric(F)
        C = sym(F.T @ F, check=False)
        if k == 0:
            strain = _strain(C, "C")
            T_iso = _equilibrium_stress(C, strain, model.equilibrium)
            for params, state in zip(model.branches, model.states):
                a = t3.pack_sym(state.Ci).tolist()
                T_iso = T_iso + _stress_from_parts(strain, a, params)
        else:
            res = composite_step(C, current, dt, stepper)
            current = res.model
            T_iso = res.total_stress
        sigma = F @ T_iso @ F.T  # Kirchhoff = Cauchy here (det F = 1)
        pressure = (sigma[1, 1] + sigma[2, 2]) / 2.0
        stresses[k] = (sigma[0, 0] - pressure) / lam
    return stresses, current


def load_model(source) -> CompositeModel:
    """Build a relaxed CompositeModel from a JSON file path or dict.

    A file that cannot be read or is not JSON, and a document that is not a
    model, raise :class:`DomainError` naming the file and the cause.
    """
    where = "model document" if isinstance(source, dict) else f"model file {source}"
    try:
        if isinstance(source, dict):
            doc = source
        else:
            with open(source, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        eq = doc["equilibrium"]
        k = eq["k"]
        if k == "incompressible":
            k = math.inf
        equilibrium = EquilibriumParams(float(eq["c10"]), float(eq["c01"]), float(k))
        branches = [
            MaterialParams(float(b["c10"]), float(b["c01"]), float(b["eta"]))
            for b in doc["branches"]
        ]
    except DomainError:
        raise
    except OSError as exc:
        raise DomainError(f"cannot read {where}: {exc.strerror or exc}") from exc
    except (ValueError, KeyError, TypeError) as exc:
        raise DomainError(f"malformed {where}: {exc}") from exc
    return CompositeModel.relaxed(equilibrium, branches)


def table_model_path() -> str:
    """Path of the bundled temporomandibular-joint parameter file."""
    return str(resources.files("mrmaxwell").joinpath("data/tmj_cartilage.json"))
