"""Shared random-tensor generators for the test suite.

All randomness is seeded per test through numpy Generators, so the suite
is reproducible run to run.
"""

import math
import os

import numpy as np
import pytest

import mrmaxwell
from mrmaxwell import EulerianState, LagrangianState, StepResult, kirchhoff_eulerian
from mrmaxwell import constitutive as cn
from mrmaxwell import tangent as tg
from mrmaxwell import tensor3 as t3
from mrmaxwell.errors import DomainError


def package_env():
    """Environment for a child Python that imports this mrmaxwell."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(mrmaxwell.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def rand_rotation(rng):
    """Haar-ish random proper rotation from a QR factorization."""
    Q, R = np.linalg.qr(rng.standard_normal((3, 3)))
    Q = Q * np.sign(np.diag(R))
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    return Q


def rand_spd(rng, lo=0.25, hi=4.0):
    """Random SPD tensor with eigenvalues log-uniform in [lo, hi]."""
    Q = rand_rotation(rng)
    d = np.exp(rng.uniform(math.log(lo), math.log(hi), 3))
    return t3.sym((Q * d) @ Q.T, check=False)


def rand_unimodular_spd(rng, lo=0.25, hi=4.0):
    return t3.sym(t3.unimodular(rand_spd(rng, lo, hi)), check=False)


def spd_sqrt(A):
    """Principal square root of an SPD tensor, from its ``eigh``."""
    w, V = np.linalg.eigh(A)
    return t3.sym((V * np.sqrt(w)) @ V.T, check=False)


def spd_inv_sqrt(A):
    """Inverse principal square root of an SPD tensor, from its ``eigh``."""
    w, V = np.linalg.eigh(A)
    return t3.sym((V / np.sqrt(w)) @ V.T, check=False)


def rand_unimodular(rng, lo=0.5, hi=2.0):
    """Random volume-preserving tensor (rotation times SPD stretch)."""
    return rand_rotation(rng) @ rand_unimodular_spd(rng, lo, hi)


def rotated_strain(lam):
    """``Q diag(lam) Q^T``, exactly symmetric, for the fixed rotation
    ``Q = Rz(0.3) Ry(0.7) Rx(1.1)``."""
    (cz, sz), (cy, sy), (cx, sx) = ((math.cos(a), math.sin(a)) for a in (0.3, 0.7, 1.1))
    Rz = np.array([[cz, -sz, 0.0], [sz, cz, 0.0], [0.0, 0.0, 1.0]])
    Ry = np.array([[cy, 0.0, sy], [0.0, 1.0, 0.0], [-sy, 0.0, cy]])
    Rx = np.array([[1.0, 0.0, 0.0], [0.0, cx, -sx], [0.0, sx, cx]])
    Q = Rz @ Ry @ Rx
    C = (Q * np.array(lam)) @ Q.T
    return (C + C.T) / 2.0


def skewed_strain():
    """A strain ``(Q * lam) @ Q.T`` whose product leaves a skew part of
    3.5e-18, and its relaxed state ``sym(unimodular(sym(C)))``."""
    rng = np.random.default_rng(7)
    Q, R = np.linalg.qr(rng.standard_normal((3, 3)))
    Q = Q * np.sign(np.diag(R))
    lam = np.exp(rng.uniform(np.log(0.5), np.log(4.0), 3))
    C = (Q * lam) @ Q.T
    Ci = t3.sym(t3.unimodular(t3.sym(C, check=False)), check=False)
    return C, Ci


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def per_call(stepper):
    """An opaque wrapper of ``stepper``: the tangent and the composite do
    not know it as a closed-form stepper, so they call it once per branch
    or perturbed strain."""
    return lambda *args: stepper(*args)


def fd_oracle(stepper, C, state, dt, p):
    """The per-call central-difference tangent of ``stepper`` and an
    estimate of its relative error: its gap to the Richardson extrapolation
    ``(16 T(4h) - T(16h)) / 15`` of the tangents at 4h and 16h.  The step h
    is the default ``1e-6 * max(||C||_F, 1)``, divided by ten until the
    strains perturbed by 16h stay positive definite."""
    from mrmaxwell import consistent_tangent
    from mrmaxwell.tangent import _perturbed_strains

    h = 1e-6 * max(float(np.linalg.norm(C)), 1.0)
    while not all(map(t3.is_spd, _perturbed_strains(C, 16.0 * h))):
        h /= 10.0
    T, T4, T16 = (
        consistent_tangent(per_call(stepper), C, state, dt, p, h=s * h)
        for s in (1.0, 4.0, 16.0)
    )
    R = (16.0 * T4 - T16) / 15.0
    return T, float(np.linalg.norm(T - R) / np.linalg.norm(R))


def history_gap(got, want):
    """Relative Frobenius distance of two histories, each taken as one
    array, as the benchmark's golden gate measures it: a stress near a
    relaxed state carries the round-off of the larger state it cancels
    from."""
    got, want = np.array(got), np.array(want)
    return np.linalg.norm(got - want) / np.linalg.norm(want)


def invalid_state(Ci):
    """A LagrangianState holding ``Ci`` without the state's validation."""
    state = object.__new__(LagrangianState)
    object.__setattr__(state, "Ci", np.array(Ci, dtype=float))
    return state


@pytest.fixture
def count_eigh(monkeypatch):
    """Calls of ``tensor3.eigh``, the package's one eigendecomposition,
    counted by replacing the module attribute."""
    calls = []
    eigh = t3.eigh

    def counting(A):
        calls.append(1)
        return eigh(A)

    monkeypatch.setattr(t3, "eigh", counting)
    return calls


# The closed-form step and exact tangent in their numpy forms: every 3x3
# product through `@`, the step's tail as unimodular(sym(.)) on arrays and
# the tangent's congruences, state and principal block assembled in numpy.
# The package forms them through ndarray.dot and on Python floats; these are
# their oracles.


def ci_update_oracle(Ci, Cbar, coeffs, corrections):
    """The closed-form update of ``Ci`` towards the unimodular strain
    ``Cbar``, as an array, with the root's eigenvalues and ``phi``."""
    w, V = t3.eigh(Cbar)
    if not w[0] > 0.0:
        raise DomainError("strain input is not positive definite", min_eigenvalue=float(w[0]))
    r = np.sqrt(w)
    sq, isq = (V * r) @ V.T, (V / r) @ V.T
    w, V = t3.eigh(t3.sym(isq @ Ci @ isq, check=False))
    x, phi = cn._root(w.tolist(), *coeffs, corrections, "quadratic input")
    X = (V * x) @ V.T
    return t3.unimodular(t3.sym(sq @ X @ sq, check=False)), x, phi


def closed_form_step_oracle(C, state, dt, p, corrections):
    """ifebm (0 corrections) or 2iebm (2) on :func:`ci_update_oracle`."""
    strain = cn._strain(C, "C_next")
    Cbar = np.array(strain[0]).reshape(3, 3)
    Ci, x, phi = ci_update_oracle(state.Ci, Cbar, cn._coefficients(dt, p), corrections)
    stress = cn._stress_from_parts(strain, t3.pack_sym(Ci).tolist(), p)
    return StepResult(LagrangianState(Ci), stress, cn._diagnostics(x, phi, corrections))


def eulerian_step_oracle(F_next, state, dt, p):
    """``ifebm_step_eulerian`` with the trial state and root in numpy."""
    beta, eps = cn._coefficients(dt, p)
    if not np.isfinite(F_next).all() or not t3.det(F_next) > 0.0:
        raise DomainError("F_next must be finite with positive determinant")
    G = t3.inverse(t3.unimodular(F_next @ t3.inverse(state.F_prev)))
    w, V = t3.eigh(t3.sym(G.T @ state.Be_inv_bar @ G, check=False))
    x, phi = cn._root(w.tolist(), beta, eps, 0, "trial state")
    new = EulerianState(t3.unimodular(t3.sym((V * x) @ V.T, check=False)), F_next)
    return StepResult(new, kirchhoff_eulerian(new.Be_inv_bar, p), cn._diagnostics(x, phi, 0))


def inverse_cholesky_oracle(a, name):
    """``L^-1`` of the Cholesky factor ``L L^T`` of the nine entries ``a``,
    as an array; a pivot <= 0 is refused as the strain ``name``."""
    l00 = math.sqrt(a[0])
    l10, l20 = a[3] / l00, a[6] / l00
    pivot = a[4] - l10 * l10
    l11 = math.sqrt(pivot) if pivot > 0.0 else math.nan
    l21 = (a[7] - l20 * l10) / l11
    pivot = a[8] - l20 * l20 - l21 * l21
    if not pivot > 0.0:
        raise cn._indefinite_strain(a, name)
    m00, m11, m22 = 1.0 / l00, 1.0 / l11, 1.0 / math.sqrt(pivot)
    m10 = -l10 * m00 * m11
    m20, m21 = -(l20 * m00 + l21 * m10) * m22, -l21 * m11 * m22
    return np.array([m00, 0.0, 0.0, m10, m11, 0.0, m20, m21, m22]).reshape(3, 3)


def _centered(v):
    m = (v[0] + v[1] + v[2]) / 3.0
    return [v[0] - m, v[1] - m, v[2] - m]


def principal_block_oracle(w, x, s, g, p):
    """``constitutive._principal_block`` as lists, into a 6x6 array."""
    c10, c01 = p.c10, p.c01
    c = float(np.cbrt(x[0] * x[1] * x[2]))
    xt = [v / c for v in x]
    sigma = _centered([c10 / v - c01 * v for v in xt])
    m = [c10 / v + c01 * v for v in xt]
    y = [a / (v * b) for a, v, b in zip(w, x, s)]
    r = _centered([1.0 / b for b in s])
    gw = _centered([a * b for a, b in zip(g, w)])
    y9 = (y[0] + y[1] + y[2]) / 9.0
    Z = [[y9 - (y[i] + y[j]) / 3.0 - r[i] * gw[j] for j in range(3)] for i in range(3)]
    for i in range(3):
        Z[i][i] += y[i]
    means = [(m[0] * Z[0][j] + m[1] * Z[1][j] + m[2] * Z[2][j]) / 3.0 for j in range(3)]
    G = [
        (c10 / (xt[i] * xt[j]) + c01) * (w[i] + w[j]) / (c * (s[i] + s[j]))
        - (sigma[i] + sigma[j]) / 2.0
        for i, j in ((0, 1), (0, 2), (1, 2))
    ]
    D = np.diag([-sigma[0], -sigma[1], -sigma[2], *G])
    D[:3, :3] += [[m[i] * Z[i][j] - means[j] for j in range(3)] for i in range(3)]
    return D


def exact_tangent_oracle(C, state, dt, p, corrections):
    """The exact tangent of ifebm (0 corrections) or 2iebm (2): the
    congruence ``L^-1 Ci L^-T``, the step's state ``unimodular(sym(B
    diag(x) B^T))``, ``B = Cbar L^-T U``, the basis and the 6x6 congruence in
    numpy."""
    beta, eps = cn._coefficients(dt, p)
    q, _, r = cn._strain(C, "C_next")
    Linv = inverse_cholesky_oracle(q, "C_next")
    w, U = t3.eigh(Linv @ state.Ci @ Linv.T)
    w = w.tolist()
    x, _, s, g = cn._root(w, beta, eps, corrections, "quadratic input", slopes=True)
    LU = Linv.T @ U
    B = np.array(q).reshape(3, 3) @ LU
    LagrangianState(t3.unimodular(t3.sym((B * x) @ B.T, check=False)))
    N = LU / math.sqrt(r)
    ia, jb, ib, ja = N.take(tg._Q_INDEX)
    Q = (ia * jb + ib * ja) / 2.0
    return (Q * tg._STRAIN_WEIGHT) @ principal_block_oracle(w, x, s, g, p) @ Q.T
