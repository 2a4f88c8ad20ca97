"""Generalized Maxwell model: equilibrium branch plus parallel Maxwell
branches.

The equilibrium branch is a Mooney-Rivlin spring with a polyconvex
volumetric term; it carries no internal state and is evaluated, never
integrated.  Each Maxwell branch is the single-branch material from
:mod:`mrmaxwell.constitutive` with its own parameters and internal
variable, advanced independently within a step.  Total stress is the sum
of the branch stresses.  One branch loop, on each branch's ``Ci`` as its
upper triangle, serves :func:`composite_step` and the march of
:func:`uniaxial_axial_stress`, which builds its states once, at the end.

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
from dataclasses import dataclass, replace
from decimal import Decimal
from importlib import resources
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, _is_number, _refuse_bools
from . import tensor3 as t3
from .tensor3 import sym
from .constitutive import (
    LagrangianState,
    MaterialParams,
    StepDiagnostics,
    ifebm_step_lagrangian,
)
from .constitutive import _CORRECTIONS, _check_manifold, _coefficients, _diagnostics
from .constitutive import _march_substep, _strain, _stress_from_parts

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
        _refuse_bools(self, "c10", "c01", "k")
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
    volumetric stress does, raises :class:`DomainError`.
    """
    return _equilibrium_stress(_strain(C, "C"), p)


# the upper triangle (11, 22, 33, 12, 13, 23) of Ci = I
_RELAXED = (1.0, 1.0, 1.0, 0.0, 0.0, 0.0)


def _equilibrium_stress(strain, p):
    # equilibrium_stress from _strain(C): the Maxwell stress law at Ci = I plus,
    # with det C = r^3, the volumetric part k/10 (r^7.5 - r^-7.5) Cbar^-1/r
    if p.incompressible:
        return _stress_from_parts(strain, _RELAXED, p)
    _, b, r = strain
    try:
        k = p.k / 10.0 * (r**7.5 - r**-7.5)
    except OverflowError:
        k = math.inf
    vol = [k * (u / r) for u in b]
    if not all(map(math.isfinite, vol)):
        # r^3 in decimal: a float r**3 overflows where det C nears the float limit
        raise DomainError(f"volume ratio det C = {Decimal(r) ** 3:.3e} is out of float range")
    return _stress_from_parts(strain, _RELAXED, p) + np.array(vol).reshape(3, 3)


def _branch_loop(C, strain, model, tris, dt, stepper):
    # one turn of the composite at C, strain = _strain(C), each branch's Ci as
    # its upper triangle in tris (11, 22, 33, 12, 13, 23): the equilibrium
    # part, the total stress (the branch stresses summed after it, in branch
    # order), the triangles after a step of dt (none if dt is None), the
    # branch stresses, and each branch's root (x, phi) or its stepper's
    # diagnostics.  A closed-form branch steps on _march_substep, any other
    # stepper gets the state; each new Ci is checked as LagrangianState does
    eq = _equilibrium_stress(strain, model.equilibrium)
    corrections = _CORRECTIONS.get(stepper)
    out, stresses, roots = [], [], []
    for a, p in zip(tris, model.branches):
        if dt is None:
            stress = _stress_from_parts(strain, a, p)
        elif corrections is None:
            res = stepper(C, LagrangianState._of_upper(a), dt, p)
            c = res.state.Ci.ravel().tolist()
            _check_manifold(c, "Ci")
            a, stress = [c[0], c[4], c[8], c[1], c[2], c[5]], res.stress
            roots.append(res.diagnostics)
        else:
            a, *root = _march_substep(strain, a, *_coefficients(dt, p), corrections)
            _check_manifold((a[0], a[3], a[4], a[3], a[1], a[5], a[4], a[5], a[2]), "Ci")
            stress = _stress_from_parts(strain, a, p)
            roots.append(root)
        out.append(a)
        stresses.append(stress)
    return eq, sum(stresses, eq.copy()), out, stresses, roots


def _with_states(model, tris):
    # model with each branch's state built from its upper triangle in tris
    states = tuple(LagrangianState._of_upper(a) for a in tris)
    return replace(model, states=states)


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
    the equilibrium branch and every Maxwell branch.  The one branch loop,
    which :func:`uniaxial_axial_stress` marches with (building its states
    once, at the end), steps each branch's ``Ci`` as its upper triangle.
    The branches of ``ifebm_step_lagrangian`` and ``twoiter_step`` take the
    reference march's float update, and every stress comes from the one
    float stress law; they agree with one stepper call per branch to
    round-off and raise its errors in branch order.  Any other stepper is
    called once per branch.  Each new ``Ci`` is checked as
    :class:`LagrangianState` checks it.  For the incompressible model the
    returned stress excludes the indeterminate pressure term ``-p C^-1``.
    A ``dt`` that is not finite and non-negative is refused.
    """
    if not (_is_number(dt) and 0.0 <= dt < math.inf):
        raise DomainError(f"dt must be finite and non-negative, got {dt!r}")
    tris = [t3.pack_sym(s.Ci).tolist() for s in model.states]
    eq, total, tris, stresses, roots = _branch_loop(
        C_next, _strain(C_next, "C_next"), model, tris, dt, stepper
    )
    if stepper in _CORRECTIONS:
        roots = [_diagnostics(x, phi, _CORRECTIONS[stepper]) for x, phi in roots]
    return CompositeStepResult(
        _with_states(model, tris), total, eq, tuple(stresses), tuple(roots)
    )


def _check_uniaxial_isochoric(F):
    # the stretch F11 of a finite diag(lam, lam^-1/2, lam^-1/2), F read once
    f = t3._entries(F, "F")
    if not all(map(math.isfinite, f)):
        raise DomainError("F has non-finite entries")
    f00, f01, f02, f10, f11, f12, f20, f21, f22 = f
    off = abs(f01) + abs(f02) + abs(f10) + abs(f12) + abs(f20) + abs(f21)
    if not f00 > 0.0 or off > 1e-12 * max(f00, 1.0):
        raise DomainError("F is not of the uniaxial diagonal form")
    if abs(f11 - f22) > 1e-12 * f00 or abs(f00 * f11 * f22 - 1.0) > 1e-8:
        raise DomainError("F is not volume preserving uniaxial")
    return f00


def uniaxial_axial_stress(
    model: CompositeModel, F_history: Sequence[np.ndarray], dt: float,
    stepper: Callable = ifebm_step_lagrangian,
) -> tuple[np.ndarray, CompositeModel]:
    """Axial engineering stress along a volume-preserving uniaxial history.

    ``F_history[k]`` must be ``diag(1 + e, (1 + e)^(-1/2), (1 + e)^(-1/2))``,
    finite; any other is refused by name.
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
    if not (_is_number(dt) and 0.0 < dt < math.inf):
        raise DomainError(f"dt must be finite and positive, got {dt!r}")

    stresses = np.empty(len(F_history))
    tris = [t3.pack_sym(s.Ci).tolist() for s in model.states]
    for k, F in enumerate(F_history):
        lam = _check_uniaxial_isochoric(F)
        C = sym(F.T @ F, check=False)
        step = dt if k else None
        _, T_iso, tris, _, _ = _branch_loop(C, _strain(C, "C"), model, tris, step, stepper)
        sigma = F @ T_iso @ F.T  # Kirchhoff = Cauchy here (det F = 1)
        pressure = (sigma[1, 1] + sigma[2, 2]) / 2.0
        stresses[k] = (sigma[0, 0] - pressure) / lam
    return stresses, _with_states(model, tris)


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
