"""Single-branch finite-strain Maxwell material with Mooney-Rivlin elasticity.

The material combines an isochoric Mooney-Rivlin spring (shear moduli
``c10``, ``c01``) in series with a Newtonian dashpot (viscosity ``eta``).
The internal variable is the inelastic right Cauchy-Green tensor ``Ci``,
which lives on the manifold of symmetric positive definite tensors with
unit determinant.

Five implicit time steppers are provided:

``ifebm_step_lagrangian``
    Closed-form backward-Euler update (no iterations).  The discretized
    evolution equation reduces, after a congruence with the inverse
    square root of the unimodular strain, to a tensor quadratic
    ``phi * X = A - eps * X**2`` whose positive definite root is written
    down directly; the scalar ``phi`` enforcing ``det(X) = 1`` is
    obtained from a first-order perturbation estimate.
``ifebm_step_eulerian``
    The same update driven by deformation gradients on the current
    configuration, evolving the unimodular inverse elastic left
    Cauchy-Green tensor.  Step for step it predicts the same stress as
    the Lagrangian form.
``twoiter_step``
    The closed-form update followed by exactly two scalar Newton
    corrections of ``phi`` on the residual ``det(X(phi)) - 1``; this
    sharpens the symmetry of the consistent tangent operator.
``mebm_step``
    Backward Euler with exact determinant projection, solved by Newton
    iteration on the six symmetric components (baseline).
``em_step``
    Exponential-map integrator, also solved by Newton iteration
    (baseline), its exponential interpolated on the flow's eigenvalues.

The stress and both baselines' flow are one product, ``dev(D G)``, ``D =
Ci - Cbar``, ``G = c10 Ci^-1 + c01 Cbar^-1``.  The baselines iterate from
the previous state on the six packed components as Python floats, and
bisect the step recursively where Newton fails.  The closed-form steppers
never iterate and never substep.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import ConvergenceError, DomainError, _is_number, _refuse_bools
from . import tensor3 as t3
from .tensor3 import det, inverse, sym, trace, unimodular

__all__ = [
    "MaterialParams",
    "LagrangianState",
    "EulerianState",
    "StepDiagnostics",
    "StepResult",
    "stress_2pk",
    "kirchhoff_eulerian",
    "solve_phi",
    "quad_root_X",
    "quad_root_X_subtractive",
    "residual_R",
    "ifebm_step_lagrangian",
    "ifebm_step_eulerian",
    "twoiter_step",
    "mebm_step",
    "em_step",
    "reference_solve",
    "ReferenceSolution",
    "eulerian_state_from_lagrangian",
    "LAGRANGIAN_STEPPERS",
]

_DET_ONE_TOL = 1e-12


@dataclass(frozen=True)
class MaterialParams:
    """One Maxwell branch: shear moduli (stress units) and viscosity
    (stress * time)."""

    c10: float
    c01: float
    eta: float

    def __post_init__(self):
        _refuse_bools(self, "c10", "c01", "eta")
        if not (math.isfinite(self.c10) and math.isfinite(self.c01)):
            raise DomainError("shear moduli c10, c01 must be finite")
        if self.c10 < 0.0 or self.c01 < 0.0 or self.c10 + self.c01 <= 0.0:
            raise DomainError("shear moduli must be >= 0 with c10 + c01 > 0")
        if not self.eta > 0.0:
            raise DomainError("viscosity eta must be positive")


def _frozen_array(obj, name, value):
    arr = np.array(value, dtype=float)
    if arr.shape != (3, 3):
        raise DomainError(f"{name} must be a 3x3 array")
    arr.setflags(write=False)
    object.__setattr__(obj, name, arr)
    return arr


def _check_manifold(a, name):
    # the nine entries a of the state name: finite, symmetric, SPD, unimodular
    if not all(map(math.isfinite, a)):
        raise DomainError(f"{name} has non-finite entries")
    if a[1] != a[3] or a[2] != a[6] or a[5] != a[7]:
        raise DomainError(f"{name} must be exactly symmetric (use tensor3.sym)")
    if not t3._is_spd9(*a):
        raise DomainError(f"{name} is not positive definite")
    _check_det_one(a, name)


def _check_det_one(a, name):
    # the nine entries a of a state or a stress law's argument have det 1,
    # within the round-off of the determinant itself
    d = t3._det9(*a)
    if abs(d - 1.0) > _DET_ONE_TOL:
        # the cofactor expansion rounds by a few eps times the sum kappa of
        # its six products' magnitudes, which a strongly conditioned state
        # makes far larger than 1
        a00, a01, a02, a10, a11, a12, a20, a21, a22 = a
        kappa = abs(a00 * a11 * a22) + abs(a00 * a12 * a21) + abs(a01 * a10 * a22)
        kappa += abs(a01 * a12 * a20) + abs(a02 * a10 * a21) + abs(a02 * a11 * a20)
        if abs(d - 1.0) > 16.0 * sys.float_info.epsilon * kappa:
            raise DomainError(f"{name} must be unimodular, det = {d!r}")


def _frozen_upper(a, name):
    # the read-only symmetric array with the upper triangle a (11, 22, 33, 12,
    # 13, 23) of the state name, its nine floats checked by _check_manifold
    a00, a11, a22, a01, a02, a12 = a
    c = [a00, a01, a02, a01, a11, a12, a02, a12, a22]
    _check_manifold(c, name)
    arr = np.array(c)
    arr.setflags(write=False)
    return arr.reshape(3, 3)


@dataclass(frozen=True)
class LagrangianState:
    """Inelastic right Cauchy-Green tensor; symmetric, positive definite,
    determinant one."""

    Ci: np.ndarray

    def __post_init__(self):
        _check_manifold(_frozen_array(self, "Ci", self.Ci).ravel().tolist(), "Ci")

    @classmethod
    def identity(cls) -> "LagrangianState":
        return cls(np.eye(3))

    @classmethod
    def _of_upper(cls, a) -> "LagrangianState":
        # the state with the upper triangle a of Ci, checked as __post_init__
        # checks it, built once from those floats (the constructor copies its
        # argument)
        state = object.__new__(cls)
        object.__setattr__(state, "Ci", _frozen_upper(a, "Ci"))
        return state


@dataclass(frozen=True)
class EulerianState:
    """Unimodular inverse elastic left Cauchy-Green tensor plus the
    deformation gradient of the last accepted step."""

    Be_inv_bar: np.ndarray
    F_prev: np.ndarray

    def __post_init__(self):
        B = _frozen_array(self, "Be_inv_bar", self.Be_inv_bar)
        _check_manifold(B.ravel().tolist(), "Be_inv_bar")
        F = _frozen_array(self, "F_prev", self.F_prev)
        if not np.isfinite(F).all() or not det(F) > 0.0:
            raise DomainError("F_prev must be finite with positive determinant")

    @classmethod
    def identity(cls) -> "EulerianState":
        return cls(np.eye(3), np.eye(3))

    @classmethod
    def _of_upper(cls, e, f) -> "EulerianState":
        # the state with the upper triangle e of Be_inv_bar, checked as
        # __post_init__ checks it, and F_prev from the nine numbers f of a
        # gradient the caller has checked
        state = object.__new__(cls)
        object.__setattr__(state, "Be_inv_bar", _frozen_upper(e, "Be_inv_bar"))
        F = np.array(f, dtype=float)
        F.setflags(write=False)
        object.__setattr__(state, "F_prev", F.reshape(3, 3))
        return state


def eulerian_state_from_lagrangian(F: np.ndarray, Ci: np.ndarray) -> EulerianState:
    """Spatial state equivalent to (F, Ci):  unimodular(F^-T Ci F^-1)."""
    Finv = inverse(F)
    return EulerianState(unimodular(sym(Finv.T @ Ci @ Finv, check=False)), F)


@dataclass(frozen=True)
class StepDiagnostics:
    """Solver telemetry for one accepted step.

    ``iterations`` counts Newton iterations (0 for the closed-form
    steppers, 2 by construction for the two-correction stepper).
    ``substeps`` counts bisection events of the Newton baselines and
    ``divergences`` their abandoned Newton attempts; both stay 0 on the
    iteration-free paths.  ``phi`` is only set by the steppers that solve
    the tensor quadratic; at a dt so large that it overflows it is infinite.
    ``det_residual`` is ``|det X(phi) - 1|`` of their root before the
    unimodular projection removes it (``None`` for the Newton baselines).
    """

    phi: Optional[float] = None
    iterations: int = 0
    substeps: int = 0
    divergences: int = 0
    det_residual: Optional[float] = None


@dataclass(frozen=True)
class StepResult:
    """New state plus the stress at the end of the step.

    ``stress`` is the 2nd Piola-Kirchhoff tensor for Lagrangian steppers
    and the Kirchhoff tensor for the Eulerian stepper.
    """

    state: object
    stress: np.ndarray
    diagnostics: StepDiagnostics


# --------------------------------------------------------------------------
# stress laws


def stress_2pk(C: np.ndarray, Ci: np.ndarray, p: MaterialParams) -> np.ndarray:
    """2nd Piola-Kirchhoff stress of one Maxwell branch.

    ``C^-1 (c10 unimodular(C) Ci^-1 - c01 Ci unimodular(C)^-1)^D``, formed
    on Python floats in the form ``-C^-1 (D (c10 Ci^-1 + c01
    unimodular(C)^-1))^D``, ``D = Ci - unimodular(C)``, which keeps the
    round-off at the size of ``D`` near a relaxed state.  The product is
    symmetric in exact arithmetic and symmetrized after evaluation; a skew
    part beyond round-off raises :class:`DomainError` naming the condition
    numbers of the strain and of ``Ci``.
    """
    strain = _strain(C, "C")
    a = t3.require_spd(Ci, "Ci").ravel().tolist()
    _check_det_one(a, "Ci")
    return _stress_from_parts(strain, (a[0], a[4], a[8], a[1], a[2], a[5]), p)


def kirchhoff_eulerian(Be_inv_bar: np.ndarray, p: MaterialParams) -> np.ndarray:
    """Kirchhoff stress from the unimodular inverse elastic left
    Cauchy-Green tensor (purely deviatoric)."""
    e = t3.require_spd(Be_inv_bar, "Be_inv_bar").ravel().tolist()
    _check_det_one(e, "Be_inv_bar")
    return _kirchhoff((e[0], e[4], e[8], e[1], e[2], e[5]), p)


def _kirchhoff(a, p):
    # kirchhoff_eulerian's law c10 dev(B^-1) - c01 dev(B) for the upper
    # triangle a (11, 22, 33, 12, 13, 23) of B = Be^-1, on Python floats
    e00, e11, e22, e01, e02, e12 = a
    i00, i01, i02, _, i11, i12, _, _, i22 = t3._inverse9(
        e00, e01, e02, e01, e11, e12, e02, e12, e22
    )
    c10, c01 = p.c10, p.c01
    mi, me = (i00 + i11 + i22) / 3.0, (e00 + e11 + e22) / 3.0
    s00 = c10 * (i00 - mi) - c01 * (e00 - me)
    s11 = c10 * (i11 - mi) - c01 * (e11 - me)
    s22 = c10 * (i22 - mi) - c01 * (e22 - me)
    s01, s02, s12 = c10 * i01 - c01 * e01, c10 * i02 - c01 * e02, c10 * i12 - c01 * e12
    return np.array([s00, s01, s02, s01, s11, s12, s02, s12, s22]).reshape(3, 3)


# --------------------------------------------------------------------------
# the tensor quadratic phi X = A - eps X^2


def _require_finite(value, name):
    # the quadratic's scalar name, refused unless a finite number (no bool)
    if not (_is_number(value) and math.isfinite(value)):
        raise DomainError(f"{name} must be a finite number, got {value!r}")


def solve_phi(A: np.ndarray, eps: float) -> tuple[float, float]:
    """Volume-correction scalar for the tensor quadratic.

    Returns ``(phi0, phi)`` with ``phi0 = det(A)**(1/3)`` and the
    first-order estimate ``phi = phi0 - tr(A)/(3 phi0) * eps``.  The
    estimate is exact for isotropic A and for ``eps = 0``.
    """
    _require_finite(eps, "eps")
    if eps < 0.0:
        raise DomainError("eps must be non-negative")
    d = det(A)
    if not d > 0.0:
        raise DomainError(f"solve_phi requires det(A) > 0, got {d}")
    phi0 = float(np.cbrt(d))
    phi = phi0 - trace(A) / (3.0 * phi0) * eps if eps != 0.0 else phi0
    return phi0, phi


def _roots(w0, w1, w2, phi, eps):
    # the positive roots x_i of eps x^2 + phi x - w_i = 0 and s_i = sqrt(phi^2 +
    # 4 eps w_i) for three eigenvalues w_i; each x_i in whichever of its two
    # equivalent forms avoids subtractive cancellation for the sign of phi
    pp, e4 = phi * phi, 4.0 * eps
    s = s0, s1, s2 = math.sqrt(pp + e4 * w0), math.sqrt(pp + e4 * w1), math.sqrt(pp + e4 * w2)
    if phi >= 0.0:
        return [2.0 * w0 / (s0 + phi), 2.0 * w1 / (s1 + phi), 2.0 * w2 / (s2 + phi)], s
    return [(s0 - phi) / (2.0 * eps), (s1 - phi) / (2.0 * eps), (s2 - phi) / (2.0 * eps)], s


def quad_root_X(A: np.ndarray, phi: float, eps: float) -> np.ndarray:
    """Positive definite root of ``phi X = A - eps X**2``.

    Evaluated in the eigenbasis of A, which makes the closed form
    ``2 A [(phi^2 I + 4 eps A)^(1/2) + phi I]^-1`` stable down to
    eps -> 0 (where it degenerates to ``A / phi``).
    """
    _require_finite(phi, "phi")
    _require_finite(eps, "eps")
    if eps < 0.0:
        raise DomainError("eps must be non-negative")
    if eps == 0.0:
        if not phi > 0.0:
            raise DomainError("phi must be positive when eps = 0")
        return A / phi
    w, V = t3.eigh(A)
    if not w[0] > 0.0:
        raise DomainError(
            "quad_root_X requires SPD A", min_eigenvalue=float(w[0])
        )
    return sym((V * _roots(*w.tolist(), phi, eps)[0]) @ V.T, check=False)


def quad_root_X_subtractive(A: np.ndarray, phi: float, eps: float) -> np.ndarray:
    """Subtractive evaluation ``[(phi^2 I + 4 eps A)^(1/2) - phi I] / (2 eps)``.

    Kept only for the robustness study: for small eps the square root is
    computed to machine precision but the cancellation error is then
    amplified by 1/eps.  Never use this on a production path.
    """
    _require_finite(phi, "phi")
    _require_finite(eps, "eps")
    if not eps > 0.0:
        raise DomainError("subtractive form requires eps > 0")
    w, V = t3.eigh(A)
    if not w[0] > 0.0:
        raise DomainError(
            "quad_root_X_subtractive requires SPD A", min_eigenvalue=float(w[0])
        )
    x = (np.sqrt(phi * phi + 4.0 * eps * w) - phi) / (2.0 * eps)
    return sym((V * x) @ V.T, check=False)


def residual_R(phi: float, A: np.ndarray, eps: float) -> float:
    """Unit-determinant residual ``det(X(phi)) - 1`` of the root."""
    return det(quad_root_X(A, phi, eps)) - 1.0


# --------------------------------------------------------------------------
# closed-form steppers


def _strain(C, name):
    # the one reader of a strain, the argument name, for every stress law,
    # step, tangent, Newton baseline, march substep and composite step: C
    # checked by require_spd and prepared on Python floats as (q, b, r), r =
    # cbrt(det C) and the nine entries q of Cbar = C/r and b of Cbar^-1
    c = t3.require_spd(C, name).ravel().tolist()
    r = t3._cbrt_det9(c, "strain input")
    q0, q1, q2, q3, q4, q5 = c[0] / r, c[4] / r, c[8] / r, c[1] / r, c[2] / r, c[5] / r
    q = (q0, q3, q4, q3, q1, q5, q4, q5, q2)
    if not t3._is_spd9(*q):
        raise _indefinite_strain(q, name)
    return q, t3._inverse9(*q), r


def _indefinite_strain(q, name):
    # the refusal of the strain passed as name whose unimodular part, the nine
    # entries q, is not positive definite, with its condition number ||q||
    # ||q^-1|| (inf where q is singular)
    try:
        cond = math.hypot(*q) * math.hypot(*t3._inverse9(*q))
    except DomainError:
        cond = math.inf
    return DomainError(
        f"strain input is not positive definite: {name} has condition number {cond:.1e}"
    )


def _flow(strain, a, p):
    # the nine entries of D G, D = Ci - Cbar and G = c10 Ci^-1 + c01 Cbar^-1,
    # from the floats q, b of _strain and the upper triangle a (11, 22, 33, 12,
    # 13, 23) of Ci; the stress law and the Newton baselines' flow are its
    # deviator.  D G is c01 Ci Cbar^-1 - c10 Cbar Ci^-1 plus a multiple of I,
    # which cancels badly near relaxed states; D G keeps the round-off at |D|
    q, b, _ = strain
    c10, c01 = p.c10, p.c01
    a00, a11, a22, a01, a02, a12 = a
    i00, i01, i02, _, i11, i12, _, _, i22 = t3._inverse9(
        a00, a01, a02, a01, a11, a12, a02, a12, a22
    )
    b00, b01, b02, _, b11, b12, _, _, b22 = b
    g00, g11, g22 = c10 * i00 + c01 * b00, c10 * i11 + c01 * b11, c10 * i22 + c01 * b22
    g01, g02, g12 = c10 * i01 + c01 * b01, c10 * i02 + c01 * b02, c10 * i12 + c01 * b12
    d00, d11, d22 = a00 - q[0], a11 - q[4], a22 - q[8]
    d01, d02, d12 = a01 - q[1], a02 - q[2], a12 - q[5]
    return (
        d00 * g00 + d01 * g01 + d02 * g02,
        d00 * g01 + d01 * g11 + d02 * g12,
        d00 * g02 + d01 * g12 + d02 * g22,
        d01 * g00 + d11 * g01 + d12 * g02,
        d01 * g01 + d11 * g11 + d12 * g12,
        d01 * g02 + d11 * g12 + d12 * g22,
        d02 * g00 + d12 * g01 + d22 * g02,
        d02 * g01 + d12 * g11 + d22 * g12,
        d02 * g02 + d12 * g12 + d22 * g22,
    )


def _stress_from_parts(strain, a, p):
    # the stress law -C^-1 dev(D G) of _flow, for the strain with the floats
    # of _strain and the upper triangle a of Ci.  The product M = C^-1
    # dev(D G), C^-1 = Cbar^-1/r, is symmetric in exact arithmetic, formed
    # from operands of size scale; a skew part beyond sym's round-off bound
    # comes from a strain or a Ci too ill-conditioned for it
    q, b, r = strain
    t00, t01, t02, t10, t11, t12, t20, t21, t22 = _flow(strain, a, p)
    m = (t00 + t11 + t22) / 3.0
    e00, e11, e22 = t00 - m, t11 - m, t22 - m
    b00, b01, b02, _, b11, b12, _, _, b22 = b
    k00, k11, k22, k01, k02, k12 = b00 / r, b11 / r, b22 / r, b01 / r, b02 / r, b12 / r
    m00 = k00 * e00 + k01 * t10 + k02 * t20
    m01 = k00 * t01 + k01 * e11 + k02 * t21
    m02 = k00 * t02 + k01 * t12 + k02 * e22
    m10 = k01 * e00 + k11 * t10 + k12 * t20
    m11 = k01 * t01 + k11 * e11 + k12 * t21
    m12 = k01 * t02 + k11 * t12 + k12 * e22
    m20 = k02 * e00 + k12 * t10 + k22 * t20
    m21 = k02 * t01 + k12 * e11 + k22 * t21
    m22 = k02 * t02 + k12 * t12 + k22 * e22
    s01, s02, s12 = (m01 + m10) / 2.0, (m02 + m20) / 2.0, (m12 + m21) / 2.0
    scale = math.hypot(k00, k11, k22, k01, k01, k02, k02, k12, k12) * (
        math.hypot(t00, t01, t02, t10, t11, t12, t20, t21, t22) + (p.c10 + p.c01) * 1e-12
    )
    size = math.hypot(m00, m11, m22, s01, s01, s02, s02, s12, s12)
    skew = math.sqrt(2.0) * math.hypot(m01 - m10, m02 - m20, m12 - m21)
    if not skew <= 1e-10 * max(size, scale, 1e-300):
        raise DomainError(
            "stress asymmetry exceeds round-off: the unimodular strain has condition "
            f"number {math.hypot(*q) * math.hypot(*b):.3e} and Ci "
            f"{np.linalg.cond(t3.unpack_sym(np.array(a)), 'fro'):.3e}"
        )
    return np.array([-m00, -s01, -s02, -s01, -m11, -s12, -s02, -s12, -m22]).reshape(3, 3)


# below this size of the quadratic's largest coefficient, the cube of its
# spectrum, phi^2 and eps w stay far from overflow; above it _root scales by
# 2**-e for the coefficient m 2**e (0.5 <= m < 1), which is exact
_SAFE = 1e100


def _coefficients(dt, p):
    # beta = dt c10 / eta and eps = dt c01 / eta of one step's quadratic;
    # every stepper checks its dt here
    if not (_is_number(dt) and 0.0 <= dt < math.inf):
        raise DomainError(f"dt must be finite and non-negative, got {dt!r}")
    beta, eps = dt * p.c10 / p.eta, dt * p.c01 / p.eta
    if not (beta < math.inf and eps < math.inf):
        raise DomainError(
            f"dt = {dt!r} overflows dt*c10/eta = {beta!r} or dt*c01/eta = {eps!r}"
        )
    return beta, eps


def _correction_slope(x, s, phi, eps, r, slope, g):
    # the gradient in w of one Newton correction phi - r/slope from that of phi
    # (g), with _roots' x and s at phi: r = det X - 1, slope = -det X sum 1/s_i;
    # x_i moves by (dw_i - x_i dphi)/s_i and 1/s_i by -(phi dphi + 2 eps dw_i)/s_i^3
    x0, x1, x2 = x
    s0, s1, s2 = s
    g0, g1, g2 = g
    det_x, inv = r + 1.0, 1.0 / s0 + 1.0 / s1 + 1.0 / s2
    c0, c1, c2 = 1.0 / (s0 * s0 * s0), 1.0 / (s1 * s1 * s1), 1.0 / (s2 * s2 * s2)
    pc, e2, q = phi * (c0 + c1 + c2), 2.0 * eps, r / slope
    dr0 = det_x / (x0 * s0) + slope * g0
    dr1 = det_x / (x1 * s1) + slope * g1
    dr2 = det_x / (x2 * s2) + slope * g2
    ds0 = det_x * (pc * g0 + e2 * c0) - dr0 * inv
    ds1 = det_x * (pc * g1 + e2 * c1) - dr1 * inv
    ds2 = det_x * (pc * g2 + e2 * c2) - dr2 * inv
    return [
        g0 - (dr0 - q * ds0) / slope,
        g1 - (dr1 - q * ds1) / slope,
        g2 - (dr2 - q * ds2) / slope,
    ]


def _root(w, beta, eps, corrections, name, slopes=False):
    # the eigenvalues of X and phi (estimate, then `corrections` Newton
    # steps on det X(phi) = 1) from the spectrum w of W, the state's
    # congruence; that of the state plus beta times the strain is exactly
    # W + beta I, so beta shifts w without entering the assembly.  With
    # slopes, also s_i = sqrt(phi^2 + 4 eps (w_i + beta)) and the gradient of
    # phi with respect to w, which the scaling below leaves unchanged
    w0, w1, w2 = w
    if not w0 > 0.0:
        raise DomainError(f"{name} lost positive definiteness", min_eigenvalue=w0)
    w0, w1, w2 = w0 + beta, w1 + beta, w2 + beta
    if not w2 < math.inf:
        raise DomainError(f"{name} overflows when shifted by beta = {beta!r}")
    # where phi^2 or eps w could overflow, the quadratic is multiplied by a
    # power of two near the inverse of its largest coefficient: exact, since
    # phi, eps and w all scale by it and X does not (phi may overflow when
    # scaled back)
    scale = 1.0 if max(w2, eps) < _SAFE else 2.0 ** -math.frexp(max(w2, eps))[1]
    eps *= scale
    # the first-order estimate phi0 - tr/(3 phi0) eps, phi0 = cbrt(det), of
    # the scaled quadratic; where the cube of w could overflow, det and tr
    # are formed in units of a power of two near the largest w
    unit = 1.0 if w2 < _SAFE else 2.0 ** -math.frexp(w2)[1]
    u0, u1, u2 = w0 * unit, w1 * unit, w2 * unit
    d = u0 * u1 * u2
    if not d > 0.0:
        raise DomainError(
            f"quadratic input spectrum spans {w0:.3e} to {w2:.3e}: its det underflows"
        )
    q0 = float(np.cbrt(d))
    phi = phi0 = q0 / unit * scale
    if eps != 0.0:
        phi = phi0 - ((u0 + u1) + u2) / (3.0 * q0) * eps
    w = w0, w1, w2 = w0 * scale, w1 * scale, w2 * scale
    if slopes:
        # the estimate phi0 - a, a = tr eps/(3 phi0), has the slope (phi0 +
        # a)/(3 w_i) - eps/(3 phi0)
        g = [(2.0 * phi0 - phi) / (3.0 * v) - eps / (3.0 * phi0) for v in w]
    # each correction: R(phi) = det X - 1 and its exact slope -det X sum_i 1/s_i < 0
    x, s = _roots(w0, w1, w2, phi, eps)
    for _ in range(corrections):
        det_x = x[0] * x[1] * x[2]
        r, slope = det_x - 1.0, -det_x * (1.0 / s[0] + 1.0 / s[1] + 1.0 / s[2])
        if slopes:
            g = _correction_slope(x, s, phi, eps, r, slope, g)
        phi -= r / slope
        x, s = _roots(w0, w1, w2, phi, eps)
    if slopes:
        return x, phi / scale, [s[0] / scale, s[1] / scale, s[2] / scale], g
    return x, phi / scale


def _sym_upper(M):
    # the upper triangle (11, 22, 33, 12, 13, 23) of sym(M) on Python floats,
    # bit for bit numpy's elementwise (M + M^T)/2
    m00, m01, m02, m10, m11, m12, m20, m21, m22 = M.ravel().tolist()
    return (
        (m00 + m00) / 2.0, (m11 + m11) / 2.0, (m22 + m22) / 2.0,
        (m01 + m10) / 2.0, (m02 + m20) / 2.0, (m12 + m21) / 2.0,
    )


def _closed_form_root(M, coeffs, corrections, name):
    # the root X of phi X = (W + beta I) - eps X^2, W = sym(M), coeffs = (beta,
    # eps), its eigenvalues x and phi; M is isq Ci isq, or G^T Be^-1 G.  A W
    # that overflowed is refused by name: eigh would return nan
    w = w00, w11, w22, w01, w02, w12 = _sym_upper(M)
    if not all(map(math.isfinite, w)):
        raise DomainError(f"{name} overflows: it has non-finite entries")
    w, V = t3.eigh(np.array([w00, w01, w02, w01, w11, w12, w02, w12, w22]).reshape(3, 3))
    x, phi = _root(w.tolist(), *coeffs, corrections, name)
    return (V * x).dot(V.T), x, phi


def _diagnostics(x, phi, corrections):
    # the StepDiagnostics of a closed-form root: phi and |x1 x2 x3 - 1|
    return StepDiagnostics(phi, corrections, det_residual=abs(x[0] * x[1] * x[2] - 1.0))


def _unimodular_sym(Y):
    # the upper triangle of unimodular(sym(Y)) on Python floats, bit for bit
    # numpy's elementwise arithmetic
    a = a00, a11, a22, a01, a02, a12 = _sym_upper(Y)
    r = t3._cbrt_det9((a00, a01, a02, a01, a11, a12, a02, a12, a22))
    return [v / r for v in a]


# below this bound on the partial sums of two 3x3 products, they cannot
# overflow, and _product runs them without an errstate, which costs more
_PRODUCT_SAFE = 1e300


def _product(A, B, C, bound):
    # A.dot(B).dot(C), whose partial sums are at most bound in magnitude; where
    # that allows an overflow, under an errstate, so that a product that
    # overflows reaches _closed_form_root's refusal by name, not a warning
    if bound < _PRODUCT_SAFE:
        return A.dot(B).dot(C)
    with np.errstate(over="ignore", invalid="ignore"):
        return A.dot(B).dot(C)


def _ci_update(Ci, Cbar, coeffs, corrections):
    # the closed-form update of Ci towards a strain with the unimodular part
    # Cbar, as an upper triangle, its root's eigenvalues and phi: the root X
    # on isq Ci isq, mapped back as unimodular(sq X sq), sq = Cbar^1/2 and isq
    # = sq^-1 from one eigh.  The products go through ndarray.dot, bit for bit
    # @ without its ufunc dispatch; on floats they would round differently,
    # as BLAS fuses multiply-adds
    w, V = t3.eigh(Cbar)
    lo = float(w[0])
    if not lo > 0.0:
        raise DomainError("strain input is not positive definite", min_eigenvalue=lo)
    r = np.sqrt(w)
    sq, isq = (V * r).dot(V.T), (V / r).dot(V.T)
    # |isq| = w1^-1/2, and w1 <= 1 for a unimodular Cbar, so the partial sums
    # of isq Ci isq are at most |Ci|_F / w1
    M = _product(isq, Ci, isq, math.hypot(*Ci.ravel().tolist()) / lo)
    X, x, phi = _closed_form_root(M, coeffs, corrections, "quadratic input")
    return _unimodular_sym(sq.dot(X).dot(sq)), x, phi


def _closed_form_step(strain, Ci, dt, p, corrections):
    # the StepResult of the closed-form step from Ci towards the strain with
    # the parts of _strain, on the eigen path
    coeffs = _coefficients(dt, p)
    a, x, phi = _ci_update(Ci, np.array(strain[0]).reshape(3, 3), coeffs, corrections)
    state = LagrangianState._of_upper(a)
    stress = _stress_from_parts(strain, a, p)
    return StepResult(state, stress, _diagnostics(x, phi, corrections))


def _cholesky(a, name):
    # the Cholesky factor L of the nine entries a = L L^T and its inverse, on
    # floats, each as its lower triangle (00, 10, 11, 20, 21, 22); a pivot <= 0
    # is a strain, the argument name, that is not positive definite
    l00 = math.sqrt(a[0])
    l10, l20 = a[3] / l00, a[6] / l00
    pivot = a[4] - l10 * l10
    # a first pivot <= 0 makes the second nan
    l11 = math.sqrt(pivot) if pivot > 0.0 else math.nan
    l21 = (a[7] - l20 * l10) / l11
    pivot = a[8] - l20 * l20 - l21 * l21
    if not pivot > 0.0:
        raise _indefinite_strain(a, name)
    l22 = math.sqrt(pivot)
    m00, m11, m22 = 1.0 / l00, 1.0 / l11, 1.0 / l22
    m10 = -l10 * m00 * m11
    m20, m21 = -(l20 * m00 + l21 * m10) * m22, -l21 * m11 * m22
    return (l00, l10, l11, l20, l21, l22), (m00, m10, m11, m20, m21, m22)


def _principal_block(w, x, s, g, p):
    # the 6x6 derivative of the strain vector (11, 22, 33, 2 12, 2 13, 2 23)
    # of dS = N^T dT N, N the basis of _lagrangian_tangent, in the packed
    # components (11, 22, 33, 12, 13, 23) of Eh = N^T dC N, from the spectra w
    # of W and x of X, s_i = sqrt(phi^2 + 4 eps (w_i + beta)) and the gradient
    # g of phi in w.  The stress has the components sigma = P a, a_i = c10/x~_i
    # - c01 x~_i, x~ = x/cbrt(x1 x2 x3), P the deviatoric projector.  The
    # diagonal E = P Eh moves w by dw = -w E, phi by g . dw and log x by (dw/x
    # - dphi)/s, so log x~ by -Z Eh, Z = P (diag(w/(x s)) - (1/s) (g w)^T) P,
    # and a by m Z Eh, m_i = c10/x~_i + c01 x~_i; dS moves by P da less
    # sigma_a Eh_aa as the basis moves with Eh.  A shear pair ab moves W by
    # -Eh_ab (w_a + w_b)/2 and X by 2/(s_a + s_b) times that, so dS_ab = G_ab
    # Eh_ab, whose doubled slot 2 G_ab (exact) the block holds
    c10, c01 = p.c10, p.c01
    w0, w1, w2 = w
    x0, x1, x2 = x
    s0, s1, s2 = s
    c = float(np.cbrt(x0 * x1 * x2))
    t0, t1, t2 = x0 / c, x1 / c, x2 / c
    a0, a1, a2 = c10 / t0 - c01 * t0, c10 / t1 - c01 * t1, c10 / t2 - c01 * t2
    mean = (a0 + a1 + a2) / 3.0
    a0, a1, a2 = a0 - mean, a1 - mean, a2 - mean
    m0, m1, m2 = c10 / t0 + c01 * t0, c10 / t1 + c01 * t1, c10 / t2 + c01 * t2
    y0, y1, y2 = w0 / (x0 * s0), w1 / (x1 * s1), w2 / (x2 * s2)
    r0, r1, r2 = 1.0 / s0, 1.0 / s1, 1.0 / s2
    mean = (r0 + r1 + r2) / 3.0
    r0, r1, r2 = r0 - mean, r1 - mean, r2 - mean
    h0, h1, h2 = g[0] * w0, g[1] * w1, g[2] * w2
    mean = (h0 + h1 + h2) / 3.0
    h0, h1, h2 = h0 - mean, h1 - mean, h2 - mean
    # Z = P diag(y) P - r h^T, P diag(y) P = diag(y) - (y_a + y_b)/3 + sum(y)/9
    y9 = (y0 + y1 + y2) / 9.0
    p01, p02, p12 = (y0 + y1) / 3.0, (y0 + y2) / 3.0, (y1 + y2) / 3.0
    z00 = y9 - (y0 + y0) / 3.0 - r0 * h0 + y0
    z01, z02 = y9 - p01 - r0 * h1, y9 - p02 - r0 * h2
    z10, z12 = y9 - p01 - r1 * h0, y9 - p12 - r1 * h2
    z11 = y9 - (y1 + y1) / 3.0 - r1 * h1 + y1
    z20, z21 = y9 - p02 - r2 * h0, y9 - p12 - r2 * h1
    z22 = y9 - (y2 + y2) / 3.0 - r2 * h2 + y2
    # the block m_i Z_ij less its column means, and sigma on the diagonal
    n0 = (m0 * z00 + m1 * z10 + m2 * z20) / 3.0
    n1 = (m0 * z01 + m1 * z11 + m2 * z21) / 3.0
    n2 = (m0 * z02 + m1 * z12 + m2 * z22) / 3.0
    G01 = (c10 / (t0 * t1) + c01) * (w0 + w1) / (c * (s0 + s1)) - (a0 + a1) / 2.0
    G02 = (c10 / (t0 * t2) + c01) * (w0 + w2) / (c * (s0 + s2)) - (a0 + a2) / 2.0
    G12 = (c10 / (t1 * t2) + c01) * (w1 + w2) / (c * (s1 + s2)) - (a1 + a2) / 2.0
    return np.array([
        -a0 + (m0 * z00 - n0), m0 * z01 - n1, m0 * z02 - n2, 0.0, 0.0, 0.0,
        m1 * z10 - n0, -a1 + (m1 * z11 - n1), m1 * z12 - n2, 0.0, 0.0, 0.0,
        m2 * z20 - n0, m2 * z21 - n1, -a2 + (m2 * z22 - n2), 0.0, 0.0, 0.0,
        0.0, 0.0, 0.0, 2.0 * G01, 0.0, 0.0,
        0.0, 0.0, 0.0, 0.0, 2.0 * G02, 0.0,
        0.0, 0.0, 0.0, 0.0, 0.0, 2.0 * G12,
    ]).reshape(6, 6)


def _lagrangian_tangent(C_next, Ci, dt, p, corrections):
    # the exact derivative of the closed-form step's stress, Ci held fixed, in
    # the stress and strain vectors of consistent_tangent: Q D Q^T, D the
    # block of _principal_block in the principal basis N.  With Cbar = C_next/r
    # = L L^T, r = cbrt(det C_next), and W = L^-1 Ci L^-T = U diag(w) U^T, w
    # is the spectrum of the step's congruence, and N = L^-T U / sqrt(r) has
    # N^T C_next N = I and N^T Ci N = diag(w)/r: there the step is diagonal.
    # All but eigh, the arrays it returns and the two products are floats
    beta, eps = _coefficients(dt, p)
    q, _, r = _strain(C_next, "C_next")
    (l00, l10, l11, l20, l21, l22), (m00, m10, m11, m20, m21, m22) = _cholesky(q, "C_next")
    c00, c01, c02, _, c11, c12, _, _, c22 = Ci.ravel().tolist()
    # the lower triangle of W from the rows t of L^-1 Ci, the triangle eigh reads
    t10, t11 = m10 * c00 + m11 * c01, m10 * c01 + m11 * c11
    t20 = m20 * c00 + m21 * c01 + m22 * c02
    t21 = m20 * c01 + m21 * c11 + m22 * c12
    t22 = m20 * c02 + m21 * c12 + m22 * c22
    w00, w10, w11 = m00 * c00 * m00, t10 * m00, t10 * m10 + t11 * m11
    w20, w21, w22 = t20 * m00, t20 * m10 + t21 * m11, t20 * m20 + t21 * m21 + t22 * m22
    w, U = t3.eigh(np.array([w00, w10, w20, w10, w11, w21, w20, w21, w22]).reshape(3, 3))
    w = w.tolist()
    # a W that overflowed gives nan eigenvalues; refused as the step refuses it
    if not w[0] > 0.0 and not all(map(math.isfinite, (w00, w10, w11, w20, w21, w22))):
        raise DomainError("quadratic input overflows: it has non-finite entries")
    x, _, s, g = _root(w, beta, eps, corrections, "quadratic input", slopes=True)
    u00, u01, u02, u10, u11, u12, u20, u21, u22 = U.ravel().tolist()
    # the state as the step builds and checks it: sq X sq = B diag(x) B^T, B
    # = L U, made unimodular and checked as LagrangianState checks it
    x0, x1, x2 = x
    b00, b01, b02 = l00 * u00, l00 * u01, l00 * u02
    b10, b11, b12 = l10 * u00 + l11 * u10, l10 * u01 + l11 * u11, l10 * u02 + l11 * u12
    b20 = l20 * u00 + l21 * u10 + l22 * u20
    b21 = l20 * u01 + l21 * u11 + l22 * u21
    b22 = l20 * u02 + l21 * u12 + l22 * u22
    y00 = b00 * x0 * b00 + b01 * x1 * b01 + b02 * x2 * b02
    y11 = b10 * x0 * b10 + b11 * x1 * b11 + b12 * x2 * b12
    y22 = b20 * x0 * b20 + b21 * x1 * b21 + b22 * x2 * b22
    y01 = b00 * x0 * b10 + b01 * x1 * b11 + b02 * x2 * b12
    y02 = b00 * x0 * b20 + b01 * x1 * b21 + b02 * x2 * b22
    y12 = b10 * x0 * b20 + b11 * x1 * b21 + b12 * x2 * b22
    y = y00, y01, y02, y01, y11, y12, y02, y12, y22
    d = t3._cbrt_det9(y)
    _check_manifold([v / d for v in y], "Ci")
    # N = L^-T U / sqrt(r), L^-T upper triangular
    k = math.sqrt(r)
    n00 = (m00 * u00 + m10 * u10 + m20 * u20) / k
    n01 = (m00 * u01 + m10 * u11 + m20 * u21) / k
    n02 = (m00 * u02 + m10 * u12 + m20 * u22) / k
    n10, n11 = (m11 * u10 + m21 * u20) / k, (m11 * u11 + m21 * u21) / k
    n12 = (m11 * u12 + m21 * u22) / k
    n20, n21, n22 = m22 * u20 / k, m22 * u21 / k, m22 * u22 / k
    # Q[ij, ab] = (N_ia N_jb + N_ib N_ja)/2 over the packed pairs (11, 22, 33,
    # 12, 13, 23): the packed components of N A N^T are Q times the strain
    # vector of a symmetric A, and those of N^T dC N are Q^T times that of
    # dC.  Where i = j or a = b its two products are one float, and their
    # mean is that float
    Q = np.array([
        n00 * n00, n01 * n01, n02 * n02, n00 * n01, n00 * n02, n01 * n02,
        n10 * n10, n11 * n11, n12 * n12, n10 * n11, n10 * n12, n11 * n12,
        n20 * n20, n21 * n21, n22 * n22, n20 * n21, n20 * n22, n21 * n22,
        n00 * n10, n01 * n11, n02 * n12, (n00 * n11 + n01 * n10) / 2.0,
        (n00 * n12 + n02 * n10) / 2.0, (n01 * n12 + n02 * n11) / 2.0,
        n00 * n20, n01 * n21, n02 * n22, (n00 * n21 + n01 * n20) / 2.0,
        (n00 * n22 + n02 * n20) / 2.0, (n01 * n22 + n02 * n21) / 2.0,
        n10 * n20, n11 * n21, n12 * n22, (n10 * n21 + n11 * n20) / 2.0,
        (n10 * n22 + n12 * n20) / 2.0, (n11 * n22 + n12 * n21) / 2.0,
    ]).reshape(6, 6)
    return Q.dot(_principal_block(w, x, s, g, p)).dot(Q.T)


def ifebm_step_lagrangian(
    C_next: np.ndarray, state: LagrangianState, dt: float, p: MaterialParams
) -> StepResult:
    """Iteration-free backward-Euler update on the reference configuration.

    Closed form; preserves symmetry, positive definiteness and the unit
    determinant of the internal variable for any dt >= 0.
    """
    return _closed_form_step(_strain(C_next, "C_next"), state.Ci, dt, p, 0)


def twoiter_step(
    C_next: np.ndarray, state: LagrangianState, dt: float, p: MaterialParams
) -> StepResult:
    """Closed-form update plus exactly two scalar Newton corrections of
    the volume-correction scalar.

    The corrections drive ``det(X(phi)) - 1`` to zero with its exact
    derivative ``-det(X) * sum_i 1/sqrt(phi^2 + 4 eps w_i)`` over the
    eigenvalues ``w_i`` of the quadratic's input; the derivative is
    always negative, so every correction is defined.
    """
    return _closed_form_step(_strain(C_next, "C_next"), state.Ci, dt, p, 2)


def ifebm_step_eulerian(
    F_next: np.ndarray, state: EulerianState, dt: float, p: MaterialParams
) -> StepResult:
    """Iteration-free update on the current configuration.

    Driven by the relative deformation gradient between the last
    accepted and the new placement; returns the Kirchhoff stress.
    """
    beta, eps = _coefficients(dt, p)
    # F_next is read and checked once, as the new state's F_prev; an array of
    # another shape is refused as tensor3.det refuses it
    f = F_next.ravel().tolist()
    finite = all(map(math.isfinite, f))
    if finite and F_next.shape != (3, 3):
        raise DomainError(f"det takes one 3x3 tensor, got shape {F_next.shape}")
    if not (finite and t3._det9(*f) > 0.0):
        raise DomainError("F_next must be finite with positive determinant")
    # G = inverse(unimodular(F_next F_prev^-1)) on floats around the product
    Finv = np.array(t3._inverse9(*state.F_prev.ravel().tolist())).reshape(3, 3)
    m = F_next.dot(Finv).ravel().tolist()
    r = t3._cbrt_det9(m)
    g = t3._inverse9(*[v / r for v in m])
    G = np.array(g).reshape(3, 3)
    # det G = 1 makes |G|_F >= 3^1/2, so the partial sums of G^T Be^-1 G are
    # at most |G|_F^2 |Be^-1|_F; a trial state that overflows is refused by
    # name, with no warning
    B, n = state.Be_inv_bar, math.hypot(*g)
    bound = n * n * math.hypot(*B.ravel().tolist())
    X, x, phi = _closed_form_root(_product(G.T, B, G, bound), (beta, eps), 0, "trial state")
    # the state's _check_manifold is stricter than kirchhoff_eulerian's checks
    e = _unimodular_sym(X)
    state = EulerianState._of_upper(e, f)
    return StepResult(state, _kirchhoff(e, p), _diagnostics(x, phi, 0))


# --------------------------------------------------------------------------
# Newton-based baselines


# the gufunc that numpy.linalg.solve calls for one right-hand side; it fills
# the solution of a singular system with NaN, and flags it invalid
_solve1 = _umath_linalg.solve1


def _newton_solve(value, Ci_n, h):
    """Solve Ci = rhs(Ci, Ci_n, h) by Newton from Ci_n, the iterate x held
    as the six packed components (11, 22, 33, 12, 13, 23) in floats.

    ``value(x, n, h)`` gives the six floats ``x - pack(rhs(Ci))`` for the
    nine entries n of Ci_n, and raises where x leaves the domain.  The
    Jacobian is by forward differences, its six points evaluated only
    where the iterate has not converged.  Returns the root, None when the
    budget is spent or the admissible set left, and the iteration count.
    Overflow, invalid values and float exceptions count as divergence.
    """
    n = Ci_n.ravel().tolist()
    norm_n = math.hypot(*n)
    tol = 1e-12 * norm_n
    big = 1e8 * max(1.0, norm_n)
    x = [n[0], n[4], n[8], n[1], n[2], n[5]]
    iterations = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(50):
            try:
                g = value(x, n, h)
            except (DomainError, ArithmeticError):
                return None, iterations
            rnorm = math.hypot(*g, g[3], g[4], g[5])
            if not rnorm <= big:
                return None, iterations
            if rnorm < tol:
                # indefinite roots satisfy the equations but are off the
                # manifold; treat them as divergence and bisect
                Ci = t3.unpack_sym(np.array(x))
                return (Ci if t3.is_spd(Ci) else None), iterations
            iterations += 1
            delta = 1e-7 * max(math.hypot(*x, x[3], x[4], x[5]), 1.0)
            try:
                points = []
                for j in range(6):
                    xj = list(x)
                    xj[j] += delta
                    points.append(value(xj, n, h))
                step = _solve1(((np.array(points) - g) / delta).T, g)
            except (DomainError, ArithmeticError):
                return None, iterations
            # a singular Jacobian gives a NaN step
            if not np.isfinite(step).all():
                return None, iterations
            x = [u - v for u, v in zip(x, step.tolist())]
    return None, iterations


def _substepping_solve(value, Ci_n, dt, label, depth=0):
    """Newton solve with recursive step bisection as the recovery path."""
    Ci_new, iters = _newton_solve(value, Ci_n, dt)
    if Ci_new is not None:
        return Ci_new, StepDiagnostics(iterations=iters)
    if depth >= 20:
        raise ConvergenceError(
            f"{label}: no convergence after bisecting to depth {depth}"
        )
    half = dt / 2.0
    Ci_mid, d1 = _substepping_solve(value, Ci_n, half, label, depth + 1)
    Ci_new, d2 = _substepping_solve(value, Ci_mid, half, label, depth + 1)
    return Ci_new, StepDiagnostics(
        iterations=iters + d1.iterations + d2.iterations,
        substeps=1 + d1.substeps + d2.substeps,
        divergences=1 + d1.divergences + d2.divergences,
    )


def _newton_baseline(family, label, C_next, state, dt, p):
    # the step of both Newton baselines; family(strain, p) gives the value
    # function that _newton_solve takes, from the parts of _strain
    _coefficients(dt, p)
    strain = _strain(C_next, "C_next")
    Ci_new, diag = _substepping_solve(family(strain, p), state.Ci, dt, label)
    state = LagrangianState(unimodular(Ci_new))
    stress = _stress_from_parts(strain, t3.pack_sym(state.Ci).tolist(), p)
    return StepResult(state, stress, diag)


def _mebm_residual(strain, p):
    # value(x, n, h) of Ci - unimodular(Ci_n + h f(Ci) Ci), f(Ci) Ci = -dev(D
    # G) Ci / eta with D G of _flow, for the strain with the parts of _strain
    def value(x, n, h):
        a00, a11, a22, a01, a02, a12 = x
        t00, t01, t02, t10, t11, t12, t20, t21, t22 = _flow(strain, x, p)
        t = (t00 + t11 + t22) / 3.0
        t00, t11, t22 = t00 - t, t11 - t, t22 - t
        # M = Ci_n - hs dev(D G) Ci by its upper triangle, unimodular(M)
        hs = h / p.eta
        m0 = n[0] - hs * (t00 * a00 + t01 * a01 + t02 * a02)
        m1 = n[4] - hs * (t10 * a01 + t11 * a11 + t12 * a12)
        m2 = n[8] - hs * (t20 * a02 + t21 * a12 + t22 * a22)
        m3 = n[1] - hs * (t00 * a01 + t01 * a11 + t02 * a12)
        m4 = n[2] - hs * (t00 * a02 + t01 * a12 + t02 * a22)
        m5 = n[5] - hs * (t10 * a02 + t11 * a12 + t12 * a22)
        d = t3._det9(m0, m3, m4, m3, m1, m5, m4, m5, m2)
        if not d > 0.0:
            raise DomainError(f"unimodular part requires det > 0, got det = {d}")
        r = d ** (1.0 / 3.0)
        return [
            a00 - m0 / r, a11 - m1 / r, a22 - m2 / r,
            a01 - m3 / r, a02 - m4 / r, a12 - m5 / r,
        ]

    return value


# a third of a turn
_THIRD = 2.0 * math.pi / 3.0


def _spectrum(p00, p01, p02, p10, p11, p12, p20, p21, p22):
    # the eigenvalues w1 <= w2 <= w3 of a 3x3 P with a real spectrum (em's h f,
    # the march's Ci Cbar^-1), by the trigonometric formula on its deviator D:
    # m = tr P/3, k2 = tr(D^2)/6, det(D)/2; all three are m where k2 <= 0
    m = (p00 + p11 + p22) / 3.0
    d0, d1, d2 = p00 - m, p11 - m, p22 - m
    k2 = (d0 * d0 + d1 * d1 + d2 * d2 + 2.0 * (p01 * p10 + p02 * p20 + p12 * p21)) / 6.0
    if not k2 > 0.0:
        return m, m, m
    r = math.sqrt(k2)
    k3 = t3._det9(d0, p01, p02, p10, d1, p12, p20, p21, d2) / (2.0 * k2 * r)
    angle, rad = math.acos(min(max(k3, -1.0), 1.0)) / 3.0, 2.0 * r
    return (
        m + rad * math.cos(angle + _THIRD),
        m + rad * math.cos(angle + 2.0 * _THIRD),
        m + rad * math.cos(angle),
    )


# the largest exponent difference that _exp_slope hands to expm1 (near 709)
_EXP_NORM_MAX = 700.0


def _exp_slope(e1, e2, w1, w2):
    # the divided difference exp[w1, w2] from e1 = exp(w1), e2 = exp(w2): e1
    # expm1(d)/d, d = w2 - w1, which never cancels (limit e1 at d = 0), or
    # where expm1 would overflow (e2 - e1)/d, which then does not cancel either
    d = w2 - w1
    if d == 0.0:
        return e1
    if abs(d) > _EXP_NORM_MAX:
        return (e2 - e1) / d
    return e1 * math.expm1(d) / d


def _em_residual(strain, p):
    # value(x, n, h) of Ci - sym(exp(h f) Ci_n), h f = -(h/eta) dev(D G) of
    # _flow, for the strain with the parts of _strain: exp(h f) = e1 I +
    # e[w1,w2] A + e[w1,w2,w3] A B, Newton's interpolation of e = exp on the
    # spectrum w1 <= w2 <= w3 of h f, A = h f - w1 I, B = h f - w2 I.  h f is a
    # function of Cbar Ci^-1, similar to Cbar^1/2 Ci^-1 Cbar^1/2, so its
    # spectrum is real (the exponential map in principal axes of Simo & Miehe,
    # CMAME 98, 1992).  A and A B stay the size of the spread, where monomials
    # of h f cancel.  An exponent past 709 overflows math.exp: a divergence
    def value(x, n, h):
        f00, f01, f02, f10, f11, f12, f20, f21, f22 = _flow(strain, x, p)
        hs = -h / p.eta
        t = (f00 + f11 + f22) / 3.0
        f00, f11, f22 = hs * (f00 - t), hs * (f11 - t), hs * (f22 - t)
        f01, f02, f12 = hs * f01, hs * f02, hs * f12
        f10, f20, f21 = hs * f10, hs * f20, hs * f21
        w1, w2, w3 = _spectrum(f00, f01, f02, f10, f11, f12, f20, f21, f22)
        # e1 = e(w1), e[w1,w2], e[w2,w3] and e[w1,w2,w3]
        e1, e2, e3 = math.exp(w1), math.exp(w2), math.exp(w3)
        s12, s23 = _exp_slope(e1, e2, w1, w2), _exp_slope(e2, e3, w2, w3)
        s123 = (s23 - s12) / (w3 - w1) if w3 != w1 else 0.0
        # A N and A (B N) for N = Ci_n, B N = A N - (w2 - w1) N
        n00, n01, n02, _, n11, n12, _, _, n22 = n
        d0, d1, d2, dw = f00 - w1, f11 - w1, f22 - w1, w2 - w1
        u00 = d0 * n00 + f01 * n01 + f02 * n02
        u01 = d0 * n01 + f01 * n11 + f02 * n12
        u02 = d0 * n02 + f01 * n12 + f02 * n22
        u10 = f10 * n00 + d1 * n01 + f12 * n02
        u11 = f10 * n01 + d1 * n11 + f12 * n12
        u12 = f10 * n02 + d1 * n12 + f12 * n22
        u20 = f20 * n00 + f21 * n01 + d2 * n02
        u21 = f20 * n01 + f21 * n11 + d2 * n12
        u22 = f20 * n02 + f21 * n12 + d2 * n22
        v00, v01, v02 = u00 - dw * n00, u01 - dw * n01, u02 - dw * n02
        v10, v11, v12 = u10 - dw * n01, u11 - dw * n11, u12 - dw * n12
        v20, v21, v22 = u20 - dw * n02, u21 - dw * n12, u22 - dw * n22
        # sym(E N) = e1 N + s12 sym(A N) + s123 sym(A B N), upper triangle
        k1, k2 = s12 / 2.0, s123 / 2.0
        return [
            x[0] - (e1 * n00 + s12 * u00 + s123 * (d0 * v00 + f01 * v10 + f02 * v20)),
            x[1] - (e1 * n11 + s12 * u11 + s123 * (f10 * v01 + d1 * v11 + f12 * v21)),
            x[2] - (e1 * n22 + s12 * u22 + s123 * (f20 * v02 + f21 * v12 + d2 * v22)),
            x[3] - (e1 * n01 + k1 * (u01 + u10) + k2 * (
                (d0 * v01 + f01 * v11 + f02 * v21) + (f10 * v00 + d1 * v10 + f12 * v20)
            )),
            x[4] - (e1 * n02 + k1 * (u02 + u20) + k2 * (
                (d0 * v02 + f01 * v12 + f02 * v22) + (f20 * v00 + f21 * v10 + d2 * v20)
            )),
            x[5] - (e1 * n12 + k1 * (u12 + u21) + k2 * (
                (f10 * v02 + d1 * v12 + f12 * v22) + (f20 * v01 + f21 * v11 + d2 * v21)
            )),
        ]

    return value


def mebm_step(
    C_next: np.ndarray, state: LagrangianState, dt: float, p: MaterialParams
) -> StepResult:
    """Backward Euler with exact determinant projection (Newton baseline).

    Solves ``Ci = unimodular(Ci_n + dt * f(Ci) Ci)`` on the six symmetric
    components, with the stress law's product: ``f(Ci) Ci = -dev(D G) Ci /
    eta``, ``D = Ci - Cbar``, ``G = c10 Ci^-1 + c01 Cbar^-1``.  The projection
    makes det(Ci) = 1 by construction.  Divergent Newton runs bisect the step
    (depth <= 20).
    """
    return _newton_baseline(_mebm_residual, "mebm", C_next, state, dt, p)


def em_step(
    C_next: np.ndarray, state: LagrangianState, dt: float, p: MaterialParams
) -> StepResult:
    """Exponential-map integrator (Newton baseline).

    Solves ``Ci = exp(dt * f(Ci)) Ci_n`` with mebm's flow, ``dt f = -(dt/eta)
    dev(D G)``.  The exponential is Newton's interpolation of ``exp`` on the
    three eigenvalues of ``dt f`` itself, with no eigenvectors and no matrix
    series (:func:`~mrmaxwell.tensor3.mat_exp` is only the tests' oracle for
    it).  An exponential that overflows raises an ``ArithmeticError``, which
    the Newton solve counts as a divergence.  The flow is traceless; the
    result is projected with :func:`~mrmaxwell.tensor3.unimodular` to make
    the volume exact.  Same Newton and substepping policy as :func:`mebm_step`.
    """
    return _newton_baseline(_em_residual, "em", C_next, state, dt, p)


# phi corrections of the closed-form steppers: the tangent differentiates
# them exactly, the composite steps their branches on floats
_CORRECTIONS = {ifebm_step_lagrangian: 0, twoiter_step: 2}

LAGRANGIAN_STEPPERS: dict[str, Callable] = {
    "ifebm": ifebm_step_lagrangian,
    "2iebm": twoiter_step,
    "mebm": mebm_step,
    "em": em_step,
}


# --------------------------------------------------------------------------
# fine-substep reference


@dataclass
class ReferenceSolution:
    """Output of :func:`reference_solve`.

    ``richardson_gap`` is the largest Frobenius change of any output
    stress when the substep count is doubled; values above the caller's
    accuracy target mean the reference is not converged.
    """

    t: np.ndarray
    states: list
    stresses: list
    richardson_gap: float


# a march substep whose W has a spread w3/w1 above this takes the eigen path:
# the polynomial form drifts from it by up to 1e-13 below, 1.1e-11 to 1000
_SPREAD_MAX = 100.0


def _float_update(strain, a, beta, eps, corrections):
    # the closed-form update of Ci towards the strain with the parts q, b of
    # _strain, on Python floats, Ci and the result as upper triangles
    # (11, 22, 33, 12, 13, 23), and the root's eigenvalues and phi (which
    # the march does without); None where W spreads
    # beyond _SPREAD_MAX.  X = f(W), f(w) = x(w + beta), is Newton's
    # interpolation on the spectrum w1 <= w2 <= w3 of W, that of P = Ci
    # Cbar^-1; as sq W sq = Ci and sq W^2 sq = P Ci, Y = sq X sq = f(w1) Cbar
    # + f[w1,w2] (Ci - w1 Cbar) + f[w1,w2,w3] (P - w1) (Ci - w2 Cbar)
    q, b, _ = strain
    q0, q1, q2, q3, q4, q5 = q[0], q[4], q[8], q[1], q[2], q[5]
    b00, b01, b02, _, b11, b12, _, _, b22 = b
    a00, a11, a22, a01, a02, a12 = a
    p00 = a00 * b00 + a01 * b01 + a02 * b02
    p01 = a00 * b01 + a01 * b11 + a02 * b12
    p02 = a00 * b02 + a01 * b12 + a02 * b22
    p10 = a01 * b00 + a11 * b01 + a12 * b02
    p11 = a01 * b01 + a11 * b11 + a12 * b12
    p12 = a01 * b02 + a11 * b12 + a12 * b22
    p20 = a02 * b00 + a12 * b01 + a22 * b02
    p21 = a02 * b01 + a12 * b11 + a22 * b12
    p22 = a02 * b02 + a12 * b12 + a22 * b22
    w1, w2, w3 = _spectrum(p00, p01, p02, p10, p11, p12, p20, p21, p22)
    if not w3 <= _SPREAD_MAX * w1:
        return None
    # the divided differences of x, with no 0/0 at repeated w: f[w1,w2] =
    # 2/(s1 + s2), f[w1,w2,w3] = -8 eps/((s1 + s2)(s2 + s3)(s1 + s3)), where
    # s_i = sqrt(phi^2 + 4 eps (w_i + beta)) = phi + 2 eps x_i; Y is summed as
    # k0 Cbar + k1 Ci + f123 P Ci
    (x1, x2, x3), phi = _root([w1, w2, w3], beta, eps, corrections, "quadratic input")
    s12, s23, s13 = phi + eps * (x1 + x2), phi + eps * (x2 + x3), phi + eps * (x1 + x3)
    f12, f123 = 1.0 / s12, -eps / (s12 * s23 * s13)
    k0, k1 = x1 - f12 * w1 + f123 * w1 * w2, f12 - f123 * (w1 + w2)
    y = [
        k0 * q0 + k1 * a00 + f123 * (p00 * a00 + p01 * a01 + p02 * a02),
        k0 * q1 + k1 * a11 + f123 * (p10 * a01 + p11 * a11 + p12 * a12),
        k0 * q2 + k1 * a22 + f123 * (p20 * a02 + p21 * a12 + p22 * a22),
        k0 * q3 + k1 * a01 + f123 * (p00 * a01 + p01 * a11 + p02 * a12),
        k0 * q4 + k1 * a02 + f123 * (p00 * a02 + p01 * a12 + p02 * a22),
        k0 * q5 + k1 * a12 + f123 * (p10 * a02 + p11 * a12 + p12 * a22),
    ]
    r = t3._cbrt_det9((y[0], y[3], y[4], y[3], y[1], y[5], y[4], y[5], y[2]))
    return [u / r for u in y], (x1, x2, x3), phi


def _march_substep(strain, a, beta, eps, corrections):
    # one closed-form step, with `corrections` of phi, of the upper triangle a
    # of Ci towards the strain with the parts of _strain: the new triangle,
    # the root's eigenvalues and phi, from the float update or, where W is
    # wide, the eigen path
    step = _float_update(strain, a, beta, eps, corrections)
    if step is not None:
        return step
    Ci, Cbar = t3.unpack_sym(np.array(a)), np.array(strain[0]).reshape(3, 3)
    return _ci_update(Ci, Cbar, (beta, eps), corrections)


def reference_solve(
    C_of_t: Callable[[float], np.ndarray],
    Ci0: np.ndarray,
    t_grid,
    p: MaterialParams,
    n_substeps: int,
    check_richardson: bool = True,
) -> ReferenceSolution:
    """Fine-substep solution used as the accuracy yardstick.

    Integrates with the closed-form (ifebm) update using ``n_substeps``
    uniform substeps per interval of the finite, strictly increasing
    ``t_grid``, the last at the interval's output time, whose strain also
    gives the stress there.  Every substep's strain is checked as
    :func:`stress_2pk` checks it, and refused with its message.  A
    substep writes the root as a polynomial in ``Ci Cbar^-1`` on Python
    floats, with no eigenvectors (the update the composite's closed-form
    branches take), and agrees with the steppers' eigen path to round-off;
    a substep spread beyond 100 takes that path.  When ``check_richardson``
    is set a second solution with doubled substeps runs alongside, and the
    largest stress change at any output time is reported, so callers can
    judge whether the reference is converged to their target.

    ``C_of_t`` is called once at the first time and once per substep
    time: ``1 + n_substeps * intervals`` times, or ``1 + 2 * n_substeps *
    intervals`` with the Richardson check, whose doubled solution reads
    every time and the solution itself every second one.
    """
    if isinstance(n_substeps, bool) or not (
        isinstance(n_substeps, (int, np.integer)) and n_substeps >= 1
    ):
        raise DomainError(f"n_substeps must be an integer >= 1, got {n_substeps!r}")
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or not t_grid.size:
        raise DomainError(f"t_grid must be a non-empty list of times, got {t_grid!r}")
    if not (np.isfinite(t_grid).all() and (np.diff(t_grid) > 0.0).all()):
        raise DomainError(f"t_grid must be finite and strictly increasing, got {t_grid!r}")
    # one pass over the m n substep times of each interval, m = 2 with the
    # Richardson check: the upper triangle a of Ci steps on every m-th strain,
    # that of the doubled solution (fine) on each.  Fine time t0 + 2j (h/2) is
    # coarse time t0 + j h bit for bit, as (t1 - t0)/(2n) is h/2 exactly
    # unless it is subnormal.  The output states are checked by
    # LagrangianState, so the stresses take them as they are
    m = 2 if check_richardson else 1
    steps = m * n_substeps
    state = LagrangianState(np.array(Ci0))
    a = fine = t3.pack_sym(state.Ci).tolist()
    states = [state.Ci]
    stresses = [_stress_from_parts(_strain(C_of_t(float(t_grid[0])), "C"), a, p)]
    gap = 0.0 if check_richardson else math.nan
    for t0, t1 in zip(t_grid[:-1].tolist(), t_grid[1:].tolist()):
        coarse = _coefficients((t1 - t0) / n_substeps, p)
        h = (t1 - t0) / steps
        halved = _coefficients(h, p) if check_richardson else None
        for s in range(1, steps + 1):
            strain = _strain(C_of_t(t0 + s * h if s < steps else t1), "C")
            if s % m == 0:
                a = _march_substep(strain, a, *coarse, 0)[0]
            if check_richardson:
                fine = _march_substep(strain, fine, *halved, 0)[0]
        states.append(LagrangianState._of_upper(a).Ci)
        stresses.append(_stress_from_parts(strain, a, p))
        if check_richardson:
            LagrangianState._of_upper(fine)
            finer = _stress_from_parts(strain, fine, p)
            gap = max(gap, float(np.linalg.norm(stresses[-1] - finer)))
    return ReferenceSolution(t_grid, states, stresses, gap)
