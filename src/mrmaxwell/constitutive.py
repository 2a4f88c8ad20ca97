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
    (baseline).

The Newton-based baselines start from the previous state and may fail to
converge for large steps; they then bisect the step recursively.  The
closed-form steppers never iterate and never substep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConvergenceError, DomainError
from . import tensor3 as t3
from .tensor3 import det, deviator, inverse, sym, trace, unimodular

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


def _check_manifold(A, name):
    a = A.ravel().tolist()
    if not all(map(math.isfinite, a)):
        raise DomainError(f"{name} has non-finite entries")
    if a[1] != a[3] or a[2] != a[6] or a[5] != a[7]:
        raise DomainError(f"{name} must be exactly symmetric (use tensor3.sym)")
    if not t3._is_spd9(*a):
        raise DomainError(f"{name} is not positive definite")
    d = t3._det9(*a)
    if abs(d - 1.0) > _DET_ONE_TOL:
        raise DomainError(f"{name} must be unimodular, det = {d!r}")


@dataclass(frozen=True)
class LagrangianState:
    """Inelastic right Cauchy-Green tensor; symmetric, positive definite,
    determinant one."""

    Ci: np.ndarray

    def __post_init__(self):
        Ci = _frozen_array(self, "Ci", self.Ci)
        _check_manifold(Ci, "Ci")

    @classmethod
    def identity(cls) -> "LagrangianState":
        return cls(np.eye(3))


@dataclass(frozen=True)
class EulerianState:
    """Unimodular inverse elastic left Cauchy-Green tensor plus the
    deformation gradient of the last accepted step."""

    Be_inv_bar: np.ndarray
    F_prev: np.ndarray

    def __post_init__(self):
        B = _frozen_array(self, "Be_inv_bar", self.Be_inv_bar)
        _check_manifold(B, "Be_inv_bar")
        F = _frozen_array(self, "F_prev", self.F_prev)
        if not np.isfinite(F).all() or not det(F) > 0.0:
            raise DomainError("F_prev must be finite with positive determinant")

    @classmethod
    def identity(cls) -> "EulerianState":
        return cls(np.eye(3), np.eye(3))


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
    """

    phi: Optional[float] = None
    iterations: int = 0
    substeps: int = 0
    divergences: int = 0


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

    ``C^-1 (c10 unimodular(C) Ci^-1 - c01 Ci unimodular(C)^-1)^D``.
    The product is symmetric in exact arithmetic and symmetrized after
    evaluation.
    """
    t3.require_spd(C, "C")
    t3.require_spd(Ci, "Ci")
    if abs(det(Ci) - 1.0) > 1e-10:
        raise DomainError("Ci must be unimodular within 1e-10")
    Cbar = unimodular(C)
    return _stress_from_parts(inverse(C), Cbar, inverse(Cbar), Ci, [p])


def kirchhoff_eulerian(Be_inv_bar: np.ndarray, p: MaterialParams) -> np.ndarray:
    """Kirchhoff stress from the unimodular inverse elastic left
    Cauchy-Green tensor (purely deviatoric)."""
    t3.require_spd(Be_inv_bar, "Be_inv_bar")
    if abs(det(Be_inv_bar) - 1.0) > 1e-10:
        raise DomainError("Be_inv_bar must be unimodular within 1e-10")
    Be_bar = inverse(Be_inv_bar)
    return p.c10 * deviator(Be_bar) - p.c01 * deviator(Be_inv_bar)


# --------------------------------------------------------------------------
# the tensor quadratic phi X = A - eps X^2


def solve_phi(A: np.ndarray, eps: float) -> tuple[float, float]:
    """Volume-correction scalar for the tensor quadratic.

    Returns ``(phi0, phi)`` with ``phi0 = det(A)**(1/3)`` and the
    first-order estimate ``phi = phi0 - tr(A)/(3 phi0) * eps``.  The
    estimate is exact for isotropic A and for ``eps = 0``.
    """
    if eps < 0.0:
        raise DomainError("eps must be non-negative")
    d = det(A)
    if not d > 0.0:
        raise DomainError(f"solve_phi requires det(A) > 0, got {d}")
    phi0 = float(np.cbrt(d))
    phi = phi0 - trace(A) / (3.0 * phi0) * eps if eps != 0.0 else phi0
    return phi0, phi


def _root_eigvals(w, phi: float, eps: float, sqrt=np.sqrt):
    # Positive root of eps x^2 + phi x - w = 0 per eigenvalue, evaluated
    # in whichever of the two algebraically equivalent forms avoids
    # subtractive cancellation for the sign of phi at hand.  Also takes
    # one eigenvalue as a float, with sqrt=math.sqrt (both sqrt are
    # correctly rounded, so the two forms agree bit for bit).
    disc = sqrt(phi * phi + 4.0 * eps * w)
    if phi >= 0.0:
        return 2.0 * w / (disc + phi)
    return (disc - phi) / (2.0 * eps)


def quad_root_X(A: np.ndarray, phi: float, eps: float) -> np.ndarray:
    """Positive definite root of ``phi X = A - eps X**2``.

    Evaluated in the eigenbasis of A, which makes the closed form
    ``2 A [(phi^2 I + 4 eps A)^(1/2) + phi I]^-1`` stable down to
    eps -> 0 (where it degenerates to ``A / phi``).
    """
    if eps < 0.0:
        raise DomainError("eps must be non-negative")
    if eps == 0.0:
        if not phi > 0.0:
            raise DomainError("phi must be positive when eps = 0")
        return A / phi
    w, V = np.linalg.eigh(A)
    if not w[0] > 0.0:
        raise DomainError(
            "quad_root_X requires SPD A", min_eigenvalue=float(w[0])
        )
    return sym((V * _root_eigvals(w, phi, eps)) @ V.T, check=False)


def quad_root_X_subtractive(A: np.ndarray, phi: float, eps: float) -> np.ndarray:
    """Subtractive evaluation ``[(phi^2 I + 4 eps A)^(1/2) - phi I] / (2 eps)``.

    Kept only for the robustness study: for small eps the square root is
    computed to machine precision but the cancellation error is then
    amplified by 1/eps.  Never use this on a production path.
    """
    if not eps > 0.0:
        raise DomainError("subtractive form requires eps > 0")
    w, V = np.linalg.eigh(A)
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


def _tr_dot(A, B):
    # trace(A @ B) for symmetric A, B (of each member of a stack); each
    # member's nine products are summed from contiguous memory, in the
    # order of a one-tensor sum, whatever the layout of the inputs
    AB = np.ascontiguousarray(A * B)
    return AB.reshape(AB.shape[:-2] + (9,)).sum(axis=-1)


def _strain_parts(C_next, dC=None):
    # unimodular strain, its square-root factors and the inverses, from one
    # determinant and one decomposition; of one strain or of each member of
    # a stack (..., 3, 3).  With dC, a stack (n, 3, 3) of directions of one
    # strain, also the derivatives along each of the parts but isq
    stack = C_next.ndim > 2
    d = det(C_next)
    for d_k in d.ravel().tolist() if stack else (d,):
        if not d_k > 0.0:
            raise DomainError(f"strain input must have det > 0, got {d_k}")
    scale = np.cbrt(d)[..., None, None] if stack else np.cbrt(d)
    Cbar = C_next / scale
    w, V = np.linalg.eigh(Cbar)
    for w_k in w[..., 0].ravel().tolist() if stack else (w[0],):
        if not w_k > 0.0:
            raise DomainError(
                "strain input is not positive definite",
                min_eigenvalue=float(w_k),
            )
    if stack:
        w = w[..., None, :]
        Vt = V.swapaxes(-1, -2)
    else:
        Vt = V.T
    r = np.sqrt(w)
    sq = (V * r) @ Vt
    isq = (V / r) @ Vt
    Cbar_inv = sym((V / w) @ Vt, check=False)
    parts = Cbar, sq, isq, Cbar_inv, Cbar_inv / scale
    if dC is None:
        return parts
    C_inv = parts[4]
    dCbar = dC / scale - (_tr_dot(C_inv, dC) / 3.0)[:, None, None] * Cbar
    # sq dsq + dsq sq = dCbar, solved in Cbar's eigenbasis
    dsq = V @ ((Vt @ dCbar @ V) / (r[:, None] + r)) @ Vt
    # the derivative of an inverse A^-1 is -A^-1 dA A^-1
    return parts, (dCbar, dsq, -Cbar_inv @ dCbar @ Cbar_inv, -C_inv @ dC @ C_inv)


def _stress_from_parts(C_inv, Cbar, Cbar_inv, Ci, params, d=None):
    # of one lane or each of a stack: the raw product c10 Cbar Ci^-1 - c01
    # Ci Cbar^-1 cancels badly near relaxed states (Ci ~ Cbar); rewriting it
    # through D = Ci - Cbar is algebraically identical and keeps the
    # round-off at the size of D.  With d, the stacks (n, 3, 3) of the
    # derivatives of C_inv, Cbar, Cbar_inv and Ci along n directions (one
    # lane), the stress's derivatives along them instead
    if len(params) == 1:
        c10, c01 = params[0].c10, params[0].c01
        floor = (c10 + c01) * 1e-12
    else:
        c10, c01 = np.array([(p.c10, p.c01) for p in params]).T[..., None, None]
        floor = ((c10 + c01) * 1e-12)[:, 0, 0]
    D = Ci - Cbar
    Ci_inv = inverse(Ci)
    term = c10 * (D @ Ci_inv) + c01 * (D @ Cbar_inv)
    if d is not None:
        dC_inv, dCbar, dCbar_inv, dCi = d
        dD = dCi - dCbar
        dterm = c10 * ((dD - D @ Ci_inv @ dCi) @ Ci_inv) + c01 * (
            dD @ Cbar_inv + D @ dCbar_inv
        )
        return -sym(dC_inv @ deviator(term) + C_inv @ deviator(dterm), check=False)
    scale = t3.norm(C_inv) * (t3.norm(term) + floor)
    return -sym(C_inv @ deviator(term), scale=scale)


# below this size of the quadratic's largest coefficient, the cube of its
# spectrum, phi^2 and eps w stay far from overflow
_SAFE = 1e100


def _scale_for(x):
    # 1 below _SAFE, else 2**-e for x = m 2**e (0.5 <= m < 1): a power of
    # two, so multiplying by it is exact
    return 1.0 if x < _SAFE else 2.0 ** -math.frexp(x)[1]


def _coefficients(dt, p):
    # beta = dt c10 / eta and eps = dt c01 / eta of one step's quadratic;
    # every stepper checks its dt here
    if not 0.0 <= dt < math.inf:
        raise DomainError(f"dt must be finite and non-negative, got {dt!r}")
    beta, eps = dt * p.c10 / p.eta, dt * p.c01 / p.eta
    if not (beta < math.inf and eps < math.inf):
        raise DomainError(
            f"dt = {dt!r} overflows dt*c10/eta = {beta!r} or dt*c01/eta = {eps!r}"
        )
    return beta, eps


def _phi_estimate(w, eps, scale):
    # the first-order estimate phi0 - tr/(3 phi0) eps, phi0 = cbrt(det), of
    # the quadratic times `scale`, a power of two (eps is scaled already,
    # the spectrum w is not), and phi0; where the cube of w could overflow,
    # det and tr are formed in units of a power of two near the largest w
    unit = _scale_for(w[2])
    u0, u1, u2 = w[0] * unit, w[1] * unit, w[2] * unit
    q0 = float(np.cbrt(u0 * u1 * u2))
    phi0 = q0 / unit * scale
    if eps == 0.0:
        return phi0, phi0
    return phi0 - ((u0 + u1) + u2) / (3.0 * q0) * eps, phi0


def _det_residual(w, phi, eps):
    # R(phi) = det X(phi) - 1 over the spectrum w of the quadratic's input,
    # and its exact slope R' = -det X * sum_i 1/sqrt(phi^2 + 4 eps w_i),
    # which is always negative
    det_x = math.prod(_root_eigvals(v, phi, eps, math.sqrt) for v in w)
    slope = -det_x * sum(1.0 / math.sqrt(phi * phi + 4.0 * eps * v) for v in w)
    return det_x - 1.0, slope


def _correction_slope(w, phi, eps, r, slope, dw, dphi):
    # the derivatives of one Newton correction phi - r/slope along n
    # directions, from those of phi (dphi, (n,)) and of the spectrum w (dw,
    # (n, 3)): r = det X - 1, slope = -det X sum_i 1/s_i, and each x_i moves
    # by (dw_i - x_i dphi)/s_i, where s_i = sqrt(phi^2 + 4 eps w_i)
    s = [math.sqrt(phi * phi + 4.0 * eps * v) for v in w]
    x = [_root_eigvals(v, phi, eps, math.sqrt) for v in w]
    det_x = r + 1.0
    dr = det_x * (dw @ [1.0 / (a * b) for a, b in zip(x, s)]) + slope * dphi
    # each 1/s_i moves by -(phi dphi + 2 eps dw_i)/s_i^3
    cubes = [1.0 / (b * b * b) for b in s]
    dslope = det_x * (phi * sum(cubes) * dphi + 2.0 * eps * (dw @ cubes)) - dr * sum(
        1.0 / b for b in s
    )
    return dphi - (dr - r / slope * dslope) / slope


def _root_slope(w, x, phi, eps, dW, dphi):
    # the derivatives of X along the directions dW (n, 3, 3), all in W's
    # eigenbasis: the divided differences (x_i - x_j)/(w_i - w_j) of the
    # root are 2/(s_i + s_j), with no 0/0 at repeated w, and x_i moves by
    # -x_i/s_i per unit of phi
    s = [math.sqrt(phi * phi + 4.0 * eps * v) for v in w]
    dX = dW * [[2.0 / (a + b) for b in s] for a in s]
    return dX - dphi[:, None, None] * np.diag([a / b for a, b in zip(x, s)])


def _root(w, beta, eps, corrections, name, dW=None):
    # one lane's eigenvalues of X and phi (estimate, then `corrections`
    # Newton steps on det X(phi) = 1) from the spectrum w of W, the state's
    # congruence; that of the state plus beta times the strain is exactly
    # W + beta I, so beta shifts w without entering the assembly.  With dW,
    # a stack (n, 3, 3) of directions of W in its eigenbasis, also the
    # derivatives of X along them in that basis
    if not w[0] > 0.0:
        raise DomainError(f"{name} lost positive definiteness", min_eigenvalue=w[0])
    w = [w[0] + beta, w[1] + beta, w[2] + beta]
    if not w[2] < math.inf:
        raise DomainError(f"{name} overflows when shifted by beta = {beta!r}")
    # where phi^2 or eps w could overflow, the quadratic is multiplied by a
    # power of two near the inverse of its largest coefficient: exact, since
    # phi, eps and w all scale by it and X does not (phi may overflow when
    # scaled back)
    scale = _scale_for(max(w[2], eps))
    eps *= scale
    phi, phi0 = _phi_estimate(w, eps, scale)
    w = [w[0] * scale, w[1] * scale, w[2] * scale]
    if dW is not None:
        # derivatives in the scaled units too; the estimate phi0 - a, a =
        # tr eps/(3 phi0), has the slope (phi0 + a)/(3 w_i) - eps/(3 phi0)
        dW = dW * scale
        dw = dW.diagonal(axis1=1, axis2=2)
        dphi = dw @ [(2.0 * phi0 - phi) / (3.0 * v) - eps / (3.0 * phi0) for v in w]
    for _ in range(corrections):
        r, slope = _det_residual(w, phi, eps)
        if dW is not None:
            dphi = _correction_slope(w, phi, eps, r, slope, dw, dphi)
        phi -= r / slope
    x = [_root_eigvals(v, phi, eps, math.sqrt) for v in w]
    if dW is None:
        return x, phi / scale
    return x, phi / scale, _root_slope(w, x, phi, eps, dW, dphi)


def _closed_form_root(W, coeffs, corrections, name):
    # the root X of phi X = (W + beta I) - eps X^2 of one W or of each of a
    # stack (n, 3, 3), and the list of phi; coeffs holds one (beta, eps)
    # per lane; W is isq Ci isq, or G^T Be^-1 G
    w, V = np.linalg.eigh(W)
    if W.ndim == 2:
        x, phi = _root(w.tolist(), *coeffs[0], corrections, name)
        return (V * x) @ V.T, [phi]
    lanes = zip(w.tolist(), coeffs, strict=True)
    x, phi = zip(*[_root(w_k, *c, corrections, name) for w_k, c in lanes])
    return (V * np.array(x)[:, None, :]) @ V.swapaxes(1, 2), list(phi)


def _ci_update(Ci, sq, isq, coeffs, corrections):
    # the closed-form update of Ci (of one lane or each of a stack) towards
    # a strain whose unimodular part has the square root sq (inverse isq):
    # the root X on isq Ci isq, mapped back as unimodular(sq X sq); and phi
    W = sym(isq @ Ci @ isq, check=False)
    X, phi = _closed_form_root(W, coeffs, corrections, "quadratic input")
    return unimodular(sym(sq @ X @ sq, check=False)), phi


def _lagrangian_lanes(C_next, Ci, dt, params, corrections):
    # the closed-form step's StepResult for C_next and Ci (3, 3), or the
    # list of those of the lanes of a stack (n, 3, 3); C_next and Ci are one
    # per lane or one shared, a stack takes one params per lane.  Each stage
    # runs over all lanes first
    coeffs = [_coefficients(dt, p) for p in params]
    t3.require_spd(C_next, "C_next")
    Cbar, sq, isq, Cbar_inv, C_inv = _strain_parts(C_next)
    Ci_new, phis = _ci_update(Ci, sq, isq, coeffs, corrections)
    if Ci_new.ndim == 2:
        state = LagrangianState(Ci_new)
        stress = _stress_from_parts(C_inv, Cbar, Cbar_inv, Ci_new, params)
        diagnostics = StepDiagnostics(phi=phis[0], iterations=corrections)
        return StepResult(state, stress, diagnostics)
    states = [LagrangianState(A) for A in Ci_new]
    stresses = _stress_from_parts(C_inv, Cbar, Cbar_inv, Ci_new, params)
    return [
        StepResult(state, T, StepDiagnostics(phi=phi, iterations=corrections))
        for state, T, phi in zip(states, stresses, phis)
    ]


def _lagrangian_tangent(C_next, Ci, dt, p, corrections, dC):
    # the exact derivatives of the closed-form step's stress along the
    # directions dC (n, 3, 3) of C_next, Ci held fixed: the step's stages
    # run once on C_next, each also carrying the derivatives as one stack
    beta, eps = _coefficients(dt, p)
    t3.require_spd(C_next, "C_next")
    (Cbar, sq, isq, Cbar_inv, C_inv), (dCbar, dsq, dCbar_inv, dC_inv) = (
        _strain_parts(C_next, dC)
    )
    # the congruence W = isq Ci isq (isq moves by -isq dsq isq) and its
    # root X, the root's derivatives in W's eigenbasis V
    W = sym(isq @ Ci @ isq, check=False)
    G = -(isq @ dsq) @ W
    w, V = np.linalg.eigh(W)
    dW = V.T @ (G + G.swapaxes(1, 2)) @ V
    x, _, dX = _root(w.tolist(), beta, eps, corrections, "quadratic input", dW)
    X = (V * x) @ V.T
    # the map back Ci_new = unimodular(Y), Y = sq X sq
    Y = sym(sq @ X @ sq, check=False)
    Ci_new = LagrangianState(unimodular(Y)).Ci
    H = dsq @ (X @ sq)
    sqV = sq @ V
    dY = (H + H.swapaxes(1, 2) + sqV @ dX @ sqV.T) / np.cbrt(det(Y))
    dCi = dY - (_tr_dot(inverse(Ci_new), dY) / 3.0)[:, None, None] * Ci_new
    return _stress_from_parts(
        C_inv, Cbar, Cbar_inv, Ci_new, [p], (dC_inv, dCbar, dCbar_inv, dCi)
    )


def ifebm_step_lagrangian(
    C_next: np.ndarray, state: LagrangianState, dt: float, p: MaterialParams
) -> StepResult:
    """Iteration-free backward-Euler update on the reference configuration.

    Closed form; preserves symmetry, positive definiteness and the unit
    determinant of the internal variable for any dt >= 0.
    """
    return _lagrangian_lanes(C_next, state.Ci, dt, [p], 0)


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
    return _lagrangian_lanes(C_next, state.Ci, dt, [p], 2)


def ifebm_step_eulerian(
    F_next: np.ndarray, state: EulerianState, dt: float, p: MaterialParams
) -> StepResult:
    """Iteration-free update on the current configuration.

    Driven by the relative deformation gradient between the last
    accepted and the new placement; returns the Kirchhoff stress.
    """
    beta, eps = _coefficients(dt, p)
    if not np.isfinite(F_next).all() or not det(F_next) > 0.0:
        raise DomainError("F_next must be finite with positive determinant")
    G = inverse(unimodular(F_next @ inverse(state.F_prev)))
    X, (phi,) = _closed_form_root(
        sym(G.T @ state.Be_inv_bar @ G, check=False), [(beta, eps)], 0, "trial state"
    )
    Be_inv_new = unimodular(sym(X, check=False))
    return StepResult(
        EulerianState(Be_inv_new, F_next),
        kirchhoff_eulerian(Be_inv_new, p),
        StepDiagnostics(phi=phi),
    )


# --------------------------------------------------------------------------
# Newton-based baselines


def _fd_points(x, delta):
    # row 0: the packed point x; row j + 1: x with component j moved by
    # delta (the forward-difference points of the Jacobian's column j)
    xs = np.repeat(x[None], 7, axis=0)
    xs.flat[6::7] += delta
    return t3.unpack_sym(xs)


def _fd_jacobian(Cs, out, g, delta):
    # forward-difference Jacobian of pack(Ci - rhs(Ci)) from out =
    # rhs(Cs) at the points Cs of _fd_points and the value g at the point
    return ((t3.pack_sym(Cs[1:] - out[1:]) - g) / delta).T


def _newton_solve(rhs, Ci_n, h):
    """Solve Ci = rhs(Ci, Ci_n, h) on the six symmetric components.

    Plain Newton from Ci_n with forward-difference Jacobian.  Each
    iterate and its six forward-difference points go through ``rhs`` as
    one ``(7, 3, 3)`` stack, so ``rhs`` must take ``(..., 3, 3)`` stacks
    and give each member its one-tensor value.  Returns the root and the
    iteration count, the root being None when the iteration exhausts its
    budget or leaves the admissible set.  Overflow and invalid values are
    not reported: every non-finite outcome below counts as divergence.
    """
    norm_n = np.linalg.norm(Ci_n)
    tol = 1e-12 * norm_n
    big = 1e8 * max(1.0, norm_n)
    x = t3.pack_sym(Ci_n)
    iterations = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(50):
            Ci = t3.unpack_sym(x)
            delta = 1e-7 * max(np.linalg.norm(Ci), 1.0)
            Cs = _fd_points(x, delta)
            try:
                out = rhs(Cs, Ci_n, h)
                R = Ci - out[0]
            except DomainError:
                # a point left the domain: the iterate's own value decides
                # whether the solve failed or converged before the Jacobian
                out = None
                try:
                    R = Ci - rhs(Ci, Ci_n, h)
                except DomainError:
                    return None, iterations
            rnorm = np.linalg.norm(R)
            if not math.isfinite(rnorm) or rnorm > big:
                return None, iterations
            if rnorm < tol:
                # indefinite roots satisfy the equations but are off the
                # manifold; treat them as divergence and bisect
                return (Ci if t3.is_spd(Ci) else None), iterations
            iterations += 1
            if out is None:
                return None, iterations
            g = t3.pack_sym(R)
            try:
                step = np.linalg.solve(_fd_jacobian(Cs, out, g, delta), g)
            except np.linalg.LinAlgError:
                return None, iterations
            if not np.isfinite(step).all():
                return None, iterations
            x = x - step
    return None, iterations


def _substepping_solve(rhs, Ci_n, dt, label, depth=0):
    """Newton solve with recursive step bisection as the recovery path."""
    Ci_new, iters = _newton_solve(rhs, Ci_n, dt)
    if Ci_new is not None:
        return Ci_new, StepDiagnostics(iterations=iters)
    if depth >= 20:
        raise ConvergenceError(
            f"{label}: no convergence after bisecting to depth {depth}"
        )
    half = dt / 2.0
    Ci_mid, d1 = _substepping_solve(rhs, Ci_n, half, label, depth + 1)
    Ci_new, d2 = _substepping_solve(rhs, Ci_mid, half, label, depth + 1)
    return Ci_new, StepDiagnostics(
        iterations=iters + d1.iterations + d2.iterations,
        substeps=1 + d1.substeps + d2.substeps,
        divergences=1 + d1.divergences + d2.divergences,
    )


def _newton_baseline(rhs_family, label, C_next, state, dt, p):
    # the step shared by the Newton baselines: rhs_family(Cbar, p) gives
    # rhs(Ci, Ci_n, h), the right-hand side of one (sub)step's fixed point
    _coefficients(dt, p)
    t3.require_spd(C_next, "C_next")
    rhs = rhs_family(unimodular(C_next), p)
    Ci_new, diag = _substepping_solve(rhs, state.Ci, dt, label)
    Ci_new = unimodular(sym(Ci_new, check=False))
    return StepResult(
        LagrangianState(Ci_new), stress_2pk(C_next, Ci_new, p), diag
    )


def _mebm_rhs(Cbar, p):
    # (Ci, Ci_n, h) -> unimodular(Ci_n + h f(Ci) Ci), for one Ci or a stack
    # of them, with f(Ci) Ci written in the manifestly symmetric form
    Cbar_inv = inverse(Cbar)

    def rhs(Ci, Ci_n, h):
        tr_part = (
            p.c10 * _tr_dot(Cbar, inverse(Ci)) - p.c01 * _tr_dot(Ci, Cbar_inv)
        ) / 3.0
        flow_times_ci = (
            p.c10 * Cbar
            - p.c01 * sym(Ci @ Cbar_inv @ Ci, check=False)
            - tr_part[..., None, None] * Ci
        ) / p.eta
        return unimodular(Ci_n + h * flow_times_ci)

    return rhs


def _em_rhs(Cbar, p):
    # (Ci, Ci_n, h) -> exp(h f(Ci)) Ci_n, for one Ci or a stack of them;
    # exp would overflow double precision beyond a 1-norm of 700, so
    # mat_exp refuses such arguments, reported as divergence
    Cbar_inv = inverse(Cbar)

    def rhs(Ci, Ci_n, h):
        flow = deviator(
            (p.c10 * (Cbar @ inverse(Ci)) - p.c01 * (Ci @ Cbar_inv)) / p.eta
        )
        return sym(t3.mat_exp(h * flow, max_norm=700.0) @ Ci_n, check=False)

    return rhs


def mebm_step(
    C_next: np.ndarray, state: LagrangianState, dt: float, p: MaterialParams
) -> StepResult:
    """Backward Euler with exact determinant projection (Newton baseline).

    Solves ``Ci = unimodular(Ci_n + dt * f(Ci) Ci)`` on the six
    symmetric components; the projection makes det(Ci) = 1 by
    construction.  Divergent Newton runs bisect the step (depth <= 20).
    """
    return _newton_baseline(_mebm_rhs, "mebm", C_next, state, dt, p)


def em_step(
    C_next: np.ndarray, state: LagrangianState, dt: float, p: MaterialParams
) -> StepResult:
    """Exponential-map integrator (Newton baseline).

    Solves ``Ci = exp(dt * f(Ci)) Ci_n``.  The flow ``f`` is traceless,
    so the exponential is volume preserving up to round-off; the result
    is projected with :func:`~mrmaxwell.tensor3.unimodular` for
    exactness.  Same Newton and substepping policy as :func:`mebm_step`.
    """
    return _newton_baseline(_em_rhs, "em", C_next, state, dt, p)


# phi corrections of the closed-form steppers: the tangent differentiates
# them exactly, the composite runs their branches as lanes
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


# substeps whose strains the reference march prepares together
_MARCH_BLOCK = 256


def _march(C_of_t, Ci0, t_grid, p, n_substeps):
    state = LagrangianState(np.array(Ci0))
    states = [state.Ci]
    stresses = [stress_2pk(C_of_t(float(t_grid[0])), state.Ci, p)]
    for k in range(len(t_grid) - 1):
        t0, t1 = float(t_grid[k]), float(t_grid[k + 1])
        h = (t1 - t0) / n_substeps
        coeffs = [_coefficients(h, p)]
        Ci = state.Ci
        for first in range(1, n_substeps + 1, _MARCH_BLOCK):
            # the strain parts do not depend on Ci: those of a block of
            # substeps come from one stacked eigendecomposition
            C_block = np.array(
                [
                    C_of_t(t0 + s * h)
                    for s in range(first, min(first + _MARCH_BLOCK, n_substeps + 1))
                ]
            )
            _, sq, isq, _, _ = _strain_parts(C_block)
            for sq_s, isq_s in zip(sq, isq):
                Ci, _ = _ci_update(Ci, sq_s, isq_s, coeffs, 0)
        state = LagrangianState(Ci)
        states.append(state.Ci)
        stresses.append(stress_2pk(C_of_t(t1), state.Ci, p))
    return states, stresses


def reference_solve(
    C_of_t: Callable[[float], np.ndarray],
    Ci0: np.ndarray,
    t_grid,
    p: MaterialParams,
    n_substeps: int,
    check_richardson: bool = True,
) -> ReferenceSolution:
    """Fine-substep solution used as the accuracy yardstick.

    Integrates with the closed-form stepper using ``n_substeps`` uniform
    substeps per output interval.  When ``check_richardson`` is set the
    run is repeated with doubled substeps and the largest stress change
    at any output time is reported, so callers can judge whether the
    reference is converged to their target.
    """
    if n_substeps < 1:
        raise DomainError("n_substeps must be >= 1")
    t_grid = np.asarray(t_grid, dtype=float)
    states, stresses = _march(C_of_t, Ci0, t_grid, p, n_substeps)
    gap = math.nan
    if check_richardson:
        _, finer = _march(C_of_t, Ci0, t_grid, p, 2 * n_substeps)
        gap = max(
            float(np.linalg.norm(a - b)) for a, b in zip(stresses, finer)
        )
    return ReferenceSolution(t_grid, states, stresses, gap)
