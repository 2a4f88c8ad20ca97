"""The three benchmark workloads: seeded inputs, one round of ops, checks.

Every workload is a fixed list of ops built from a seed.  ``run_round``
executes the list once, in order, as a closed loop with one caller, and
times each op with ``time.perf_counter``.  The library is reached only
through ``lib`` (see :func:`plain_lib`), so the traced run and the fault
injection can hand in wrapped callables without touching ``src/``.

* ``gauss-points``: independent closed-form stress updates plus their
  finite-difference consistent tangents (13 closed-form steps per op).
* ``histories``: serial time marching - per seeded loading a
  Richardson-checked reference solve, a composite uniaxial run and paired
  Lagrangian/Eulerian histories, each step depending on the previous one.
* ``newton-baselines``: single ``mebm``/``em`` steps whose Newton solves,
  forward-difference Jacobians and bisections carry the cost.
"""

from __future__ import annotations

import math
import time
from types import SimpleNamespace

import numpy as np

import mrmaxwell as mm
from mrmaxwell import tensor3 as t3
from mrmaxwell.harness import LoadingProgram

P = mm.MaterialParams(1.0, 1.0, 1.0)
LIB_ERRORS = (mm.DomainError, mm.ConvergenceError)
DET_TOL = 1e-12
DUAL_TOL = 1e-10


def plain_lib():
    """The library entry points the ops call, unwrapped."""
    return SimpleNamespace(
        steppers=dict(mm.LAGRANGIAN_STEPPERS),
        eulerian=mm.ifebm_step_eulerian,
        tangent=mm.consistent_tangent,
        uniaxial=mm.uniaxial_axial_stress,
        reference=mm.reference_solve,
        program_C=lambda program: program.C,
        start_op=lambda i: None,
    )


# --------------------------------------------------------------------------
# seeded inputs (same distributions as the acceptance gate's generators)


def rotation(rng):
    Q, R = np.linalg.qr(rng.standard_normal((3, 3)))
    Q = Q * np.sign(np.diag(R))
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    return Q


def spd(rng, lo, hi):
    """SPD tensor with eigenvalues log-uniform in [lo, hi]."""
    Q = rotation(rng)
    d = np.exp(rng.uniform(math.log(lo), math.log(hi), 3))
    return t3.sym((Q * d) @ Q.T, check=False)


def unimodular_spd(rng, lo, hi):
    return t3.sym(t3.unimodular(spd(rng, lo, hi)), check=False)


def log_uniform(rng, lo, hi):
    return float(np.exp(rng.uniform(math.log(lo), math.log(hi))))


# --------------------------------------------------------------------------
# checks shared by every workload


def state_error(A, name):
    """None if ``A`` is finite, exactly symmetric, SPD and unimodular."""
    if not np.isfinite(A).all():
        return f"{name} has non-finite entries"
    if not (A == A.T).all():
        return f"{name} is not exactly symmetric"
    d = t3.det(A)
    if not abs(d - 1.0) <= DET_TOL:
        return f"{name} has |det - 1| = {abs(d - 1.0):.3e}"
    if not np.linalg.eigvalsh(A)[0] > 0.0:
        return f"{name} is not positive definite"
    return None


def finite_error(A, name):
    return None if np.isfinite(A).all() else f"{name} has non-finite entries"


# --------------------------------------------------------------------------
# independent material points


class Points:
    """Independent points ``(method, C, Ci, dt)``, one op each.

    With ``with_tangent`` an op is one stress update plus one
    ``consistent_tangent`` with the same stepper (gauss-points);
    without, an op is one step (newton-baselines).
    """

    def __init__(self, points, with_tangent):
        self.points = points
        self.with_tangent = with_tangent
        self.items = [
            (m, C, mm.LagrangianState(Ci), dt) for m, C, Ci, dt in points
        ]
        self.n_ops = len(points)

    @classmethod
    def gauss(cls, seed, n):
        rng = np.random.default_rng([seed, 1])
        pts = []
        for k in range(n):
            C = spd(rng, 0.25, 4.0)
            Ci = unimodular_spd(rng, 0.25, 4.0)
            pts.append((("ifebm", "2iebm")[k % 2], C, Ci, log_uniform(rng, 1e-3, 1e3)))
        return cls(pts, with_tangent=True)

    @classmethod
    def newton(cls, seed, n):
        # the criterion-2 plans: eigenvalues in [0.5, 2], dt capped at the
        # step sizes the Newton baselines are usable at
        rng = np.random.default_rng([seed, 3])
        pts = []
        for k in range(n):
            method, dt_hi = (("mebm", 1.0), ("em", 0.5))[k % 2]
            C = spd(rng, 0.5, 2.0)
            Ci = unimodular_spd(rng, 0.5, 2.0)
            pts.append((method, C, Ci, log_uniform(rng, 1e-3, dt_hi)))
        return cls(pts, with_tangent=False)

    def run_round(self, lib):
        clock = time.perf_counter
        times = np.empty(self.n_ops)
        outs = []
        tangent = lib.tangent if self.with_tangent else None
        for i, (method, C, state, dt) in enumerate(self.items):
            step = lib.steppers[method]
            lib.start_op(i)
            t0 = clock()
            try:
                res = step(C, state, dt, P)
                out = (res, tangent(step, C, state, dt, P)) if tangent else (res, None)
            except LIB_ERRORS:
                out = None
            times[i] = clock() - t0
            outs.append(out)
        return times, outs

    def check(self, outs):
        errors = []
        for i, out in enumerate(outs):
            if out is None:
                continue
            res, T = out
            for err in (
                state_error(res.state.Ci, f"op {i} Ci"),
                finite_error(res.stress, f"op {i} stress"),
                None if T is None else finite_error(T, f"op {i} tangent"),
            ):
                if err:
                    errors.append(err)
        return errors

    def outputs(self, outs):
        """Golden-comparable arrays of one round's results."""
        return [
            None
            if out is None
            else {
                "stress": out[0].stress,
                "Ci": out[0].state.Ci,
                **({"tangent": out[1]} if out[1] is not None else {}),
            }
            for out in outs
        ]

    def replay_inputs(self):
        return [C for _, C, _, _ in self.points], [Ci for _, _, Ci, _ in self.points]


# --------------------------------------------------------------------------
# serial histories


HISTORY_SIZES = {
    # histories per round; reference intervals x substeps (doubled again by
    # the Richardson check); uniaxial steps per cycle; paired-history steps.
    # Many short histories rather than one long one: each long op is timed
    # over many rounds, and a short op is more likely to run uncontended.
    "full": dict(count=3, intervals=10, substeps=25, uniaxial_steps=50, march_steps=150),
    "mini": dict(count=1, intervals=6, substeps=10, uniaxial_steps=20, march_steps=30),
}


def history_params(seed, j=0):
    """Seeded loading: a custom-keyframes program from the identity
    through three SPD stretches with random principal axes (so the
    loading is non-proportional), and a uniaxial cell."""
    rng = np.random.default_rng([seed, 2, j])
    keyframes = [np.eye(3)] + [unimodular_spd(rng, 0.5, 2.0) for _ in range(3)]
    return {
        "keyframes": keyframes,
        "amplitude": float(rng.uniform(0.1, 0.4)),
        "frequency": log_uniform(rng, 0.1, 10.0),
    }


class History:
    """One reference solve, one composite uniaxial run and a paired
    Lagrangian/Eulerian ifebm history on one seeded loading.

    Ops: 0 = ``reference_solve``, 1 = ``uniaxial_axial_stress``, then one
    op per Lagrangian step and one per Eulerian step.
    """

    CYCLES = 2
    T_END = 3.0

    def __init__(self, params, size):
        sz = HISTORY_SIZES[size]
        self.program = LoadingProgram(
            kind="custom-keyframes",
            keyframes=tuple(
                (float(t), np.asarray(F)) for t, F in enumerate(params["keyframes"])
            ),
        )
        self.t_grid = np.linspace(0.0, self.T_END, sz["intervals"] + 1)
        self.substeps = sz["substeps"]
        self.model = mm.load_model(mm.table_model_path())
        uni = LoadingProgram(
            kind="uniaxial",
            amplitude=params["amplitude"],
            frequency=params["frequency"],
            cycles=self.CYCLES,
        )
        n_uni = sz["uniaxial_steps"] * self.CYCLES
        self.F_uni = [uni.F(float(t)) for t in np.linspace(0.0, uni.t_end, n_uni + 1)]
        self.dt_uni = uni.t_end / n_uni
        n = sz["march_steps"]
        self.dt_march = self.T_END / n
        self.F_march = [
            self.program.F(float(t)) for t in np.linspace(0.0, self.T_END, n + 1)[1:]
        ]
        self.C_march = [t3.sym(F.T @ F, check=False) for F in self.F_march]
        self.n_ops = 2 + 2 * n

    def run(self, lib, timed):
        """Run the ops in order through ``timed(i, fn, *args)``."""
        ifebm = lib.steppers["ifebm"]
        timed(
            0, lib.reference, lib.program_C(self.program), np.eye(3), self.t_grid,
            P, self.substeps, True,
        )
        timed(1, lib.uniaxial, self.model, self.F_uni, self.dt_uni, ifebm)
        n = len(self.C_march)
        for base, stepper, strains, state in (
            (2, ifebm, self.C_march, mm.LagrangianState.identity()),
            (2 + n, lib.eulerian, self.F_march, mm.EulerianState.identity()),
        ):
            for k, strain in enumerate(strains):
                res = timed(base + k, stepper, strain, state, self.dt_march, P)
                if res is None:
                    break  # the rest of this history is not attempted
                state = res.state

    def _split(self, outs):
        n = len(self.C_march)
        return outs[0], outs[1], outs[2 : 2 + n], outs[2 + n :]

    def check(self, outs):
        ref, uni, lag, eul = self._split(outs)
        errors = []
        if ref is not None:
            errors += [state_error(Ci, f"reference state {k}") for k, Ci in enumerate(ref.states)]
            errors += [finite_error(S, f"reference stress {k}") for k, S in enumerate(ref.stresses)]
            if not math.isfinite(ref.richardson_gap):
                errors.append("reference Richardson gap is not finite")
        if uni is not None:
            errors.append(finite_error(uni[0], "uniaxial stresses"))
            errors += [
                state_error(s.Ci, f"uniaxial branch {b} state")
                for b, s in enumerate(uni[1].states)
            ]
        errors += [
            state_error(r.state.Ci, f"lagrangian step {k} Ci")
            for k, r in enumerate(lag) if r is not None
        ]
        errors += [
            state_error(r.state.Be_inv_bar, f"eulerian step {k} Be_inv_bar")
            for k, r in enumerate(eul) if r is not None
        ]
        if all(r is not None for r in lag + eul):
            # Lagrangian 2nd Piola-Kirchhoff pushed forward vs the Eulerian
            # Kirchhoff stress, relative to the history's peak stress
            tau = [F @ r.stress @ F.T for F, r in zip(self.F_march, lag)]
            scale = max(float(np.linalg.norm(T)) for T in tau)
            gap = max(
                float(np.linalg.norm(a - r.stress)) for a, r in zip(tau, eul)
            ) / max(scale, 1e-300)
            if not gap <= DUAL_TOL:
                errors.append(f"Lagrangian/Eulerian stresses differ by {gap:.3e} relative")
        return [e for e in errors if e]

    def outputs(self, outs):
        ref, uni, lag, eul = self._split(outs)
        if any(r is None for r in [ref, uni, *lag, *eul]):
            return None
        return {
            "reference_stresses": np.array(ref.stresses),
            "reference_states": np.array(ref.states),
            "richardson_gap": np.array(ref.richardson_gap),
            "uniaxial_stresses": uni[0],
            "uniaxial_states": np.array([s.Ci for s in uni[1].states]),
            "lagrangian_stresses": np.array([r.stress for r in lag]),
            "lagrangian_states": np.array([r.state.Ci for r in lag]),
            "eulerian_stresses": np.array([r.stress for r in eul]),
            "eulerian_states": np.array([r.state.Be_inv_bar for r in eul]),
        }


class Histories:
    """Independent serial histories, run one after the other."""

    def __init__(self, histories):
        self.histories = histories
        self.n_ops = sum(h.n_ops for h in histories)

    @classmethod
    def make(cls, seed, size):
        count = HISTORY_SIZES[size]["count"]
        return cls([History(history_params(seed, j), size) for j in range(count)])

    def _slices(self):
        start = 0
        for h in self.histories:
            yield h, slice(start, start + h.n_ops)
            start += h.n_ops

    def run_round(self, lib):
        clock = time.perf_counter
        times = np.full(self.n_ops, np.nan)
        outs = [None] * self.n_ops
        for h, sl in self._slices():

            def timed(i, fn, *args, base=sl.start):
                lib.start_op(base + i)
                t0 = clock()
                try:
                    outs[base + i] = fn(*args)
                except LIB_ERRORS:
                    outs[base + i] = None
                times[base + i] = clock() - t0
                return outs[base + i]

            h.run(lib, timed)
        return times, outs

    def check(self, outs):
        return [
            f"history {j}: {e}"
            for j, (h, sl) in enumerate(self._slices())
            for e in h.check(outs[sl])
        ]

    def outputs(self, outs):
        return [h.outputs(outs[sl]) for h, sl in self._slices()]

    def replay_inputs(self):
        Cs = [C for h in self.histories for C in h.C_march]
        return Cs, [t3.unimodular(C) for C in Cs]


# Sizes keep a round under about half a second, so a run times each op in
# some 50 to 90 rounds and its minimum settles (see README.md).
WORKLOADS = {
    "gauss-points": lambda seed: Points.gauss(seed, 200),
    "histories": lambda seed: Histories.make(seed, "full"),
    "newton-baselines": lambda seed: Points.newton(seed, 400),
}

# short slices of each workload, traced to time the layers that another
# workload's ops never reach
PROBES = {
    "gauss-points": lambda seed: Points.gauss(seed, 4),
    "histories": lambda seed: Histories.make(seed, "mini"),
    "newton-baselines": lambda seed: Points.newton(seed, 8),
}
