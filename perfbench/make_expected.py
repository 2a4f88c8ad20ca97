"""Regenerate ``expected.json``, the golden pool of :mod:`gate`.

Run from the repository root with ``python3 perfbench/make_expected.py``.
The pool records the library's outputs at the time it is made; remake
it only when an output change is intended, and say so with the change.
"""

import bootstrap  # noqa: F401  (pins BLAS threads, imports mrmaxwell from src/)

import json

import numpy as np

import mrmaxwell as mm
from gate import EXPECTED
from workloads import P, Histories, History, Points, history_params, plain_lib

POOL_SEED = 20170828
POOL = {"gauss-points": 24, "newton-baselines": 24, "histories": 4}


def tolist(a):
    return np.asarray(a).tolist()


def fd_error(method, C, Ci, dt):
    """Relative error of the default-step FD tangent, against a
    Richardson extrapolation of the tangents at 4h and 16h."""
    step = mm.LAGRANGIAN_STEPPERS[method]
    state = mm.LagrangianState(Ci)
    h = 1e-6 * max(float(np.linalg.norm(C)), 1.0)
    T = mm.consistent_tangent(step, C, state, dt, P)
    T4, T16 = (mm.consistent_tangent(step, C, state, dt, P, h=s * h) for s in (4, 16))
    R = (16.0 * T4 - T16) / 15.0
    return float(np.linalg.norm(T - R) / np.linalg.norm(R))


def point_cases(w):
    _, outs = w.run_round(plain_lib())
    cases = []
    for (method, C, Ci, dt), got in zip(w.points, w.outputs(outs)):
        case = {"method": method, "C": tolist(C), "Ci": tolist(Ci), "dt": dt,
                "outputs": {k: tolist(v) for k, v in got.items()}}
        if "tangent" in got:
            case["tangent_fd_error"] = fd_error(method, C, Ci, dt)
        cases.append(case)
    return cases


def history_cases():
    params = [history_params(POOL_SEED, j) for j in range(POOL["histories"])]
    w = Histories([History(p, "mini") for p in params])
    return [
        {
            "keyframes": [tolist(F) for F in p["keyframes"]],
            "amplitude": p["amplitude"],
            "frequency": p["frequency"],
            "outputs": {k: tolist(v) for k, v in got.items()},
        }
        for p, got in zip(params, w.outputs(w.run_round(plain_lib())[1]))
    ]


def main():
    pool = {
        "gauss-points": point_cases(Points.gauss(POOL_SEED, POOL["gauss-points"])),
        "newton-baselines": point_cases(Points.newton(POOL_SEED, POOL["newton-baselines"])),
        "histories": history_cases(),
    }
    worst = max(c["tangent_fd_error"] for c in pool["gauss-points"])
    print(f"largest FD tangent error estimate in the pool: {worst:.2e}")
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(pool, fh)
        fh.write("\n")


if __name__ == "__main__":
    main()
