"""Shared random-tensor generators for the test suite.

All randomness is seeded per test through numpy Generators, so the suite
is reproducible run to run.
"""

import math
import os

import numpy as np
import pytest

import mrmaxwell
from mrmaxwell import LagrangianState
from mrmaxwell import tensor3 as t3


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
