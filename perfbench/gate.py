"""Golden-output gate: a seeded subset of stored cases, replayed each run.

``expected.json`` holds, per workload, a pool of cases with their inputs
and the outputs the library produced when the pool was made
(``make_expected.py``).  Every run replays a subset of the pool, chosen
by the run's seed, through the same ``lib`` as the measured ops and
compares:

* stresses and states of the closed-form paths to 1e-13 relative, the
  kernel tolerance of the roadmap;
* stresses and states of the Newton baselines to 1e-10 relative: their
  Newton solve stops at a residual of 1e-12 |Ci|, so a different but
  equally converged iterate (another Jacobian, say) moves the result by
  that much times the conditioning of the fixed-point map;
* finite-difference tangents to ten times the stored estimate of their
  own differencing error (at least 1e-8 relative), so an exact tangent
  passes as well.
"""

from __future__ import annotations

import json
import os

import numpy as np

from workloads import Histories, History, Points

EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")
KERNEL_TOL = 1e-13
NEWTON_TOL = 1e-10
TANGENT_FLOOR = 1e-8
SUBSET = {"gauss-points": 6, "newton-baselines": 8, "histories": 2}


def rel_gap(got, exp, scale=None):
    got, exp = np.asarray(got, dtype=float), np.asarray(exp, dtype=float)
    if got.shape != exp.shape:
        return np.inf
    ref = float(np.linalg.norm(exp)) if scale is None else scale
    return float(np.linalg.norm(got - exp)) / max(ref, 1e-300)


def tolerance(case, key):
    if key == "tangent":
        return max(10.0 * case["tangent_fd_error"], TANGENT_FLOOR)
    return NEWTON_TOL if case.get("method") in ("mebm", "em") else KERNEL_TOL


def compare(case, got):
    """Error messages for one case (empty when it matches)."""
    if got is None:
        return ["raised an error"]
    exp = case["outputs"]
    errors = []
    for key, value in exp.items():
        # the Richardson gap is a difference of two marches: compare it on
        # the scale of the stresses it was taken from
        scale = float(np.linalg.norm(exp["reference_stresses"])) if key == "richardson_gap" else None
        gap, tol = rel_gap(got[key], value, scale), tolerance(case, key)
        if not gap <= tol:
            errors.append(f"{key} differs by {gap:.3e} relative (tolerance {tol:.0e})")
    return errors


def case_params(case):
    return {
        "keyframes": [np.array(F) for F in case["keyframes"]],
        "amplitude": case["amplitude"],
        "frequency": case["frequency"],
    }


def golden_errors(name, seed, lib):
    with open(EXPECTED, encoding="utf-8") as fh:
        pool = json.load(fh)[name]
    rng = np.random.default_rng([seed, 9])
    idx = sorted(rng.choice(len(pool), SUBSET[name], replace=False).tolist())
    cases = [pool[i] for i in idx]
    if name == "histories":
        w = Histories([History(case_params(case), "mini") for case in cases])
        got = w.outputs(w.run_round(lib)[1])
    else:
        w = Points(
            [(c["method"], np.array(c["C"]), np.array(c["Ci"]), c["dt"]) for c in cases],
            with_tangent=name == "gauss-points",
        )
        got = w.outputs(w.run_round(lib)[1])
    return [
        f"golden case {i}: {e}"
        for i, case, g in zip(idx, cases, got)
        for e in compare(case, g)
    ]
