"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report including timings.  Input distributions for the randomized gates
are documented inline; dt ranges for the Newton-based baselines are
capped at the step sizes those solvers are usable at (their cost grows
without bound under bisection recovery), while the closed-form steppers
are exercised across the full [0, 1e3] range.
"""

import math
import time

import numpy as np

import mrmaxwell as mm
import mrmaxwell.harness as hn
from mrmaxwell import LagrangianState, MaterialParams
from mrmaxwell import tensor3 as t3

from conftest import rand_spd, rand_unimodular, rand_unimodular_spd

P111 = MaterialParams(1.0, 1.0, 1.0)


def _report(n, label, ok, elapsed=None, detail=""):
    status = "PASS" if ok else "FAIL"
    timing = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    tail = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {n}: {label}{timing}{tail}")
    return ok


def test_criterion_01_neo_hookean_reduction():
    rng = np.random.default_rng(101)
    p = MaterialParams(1.0, 0.0, 1.0)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        C = rand_spd(rng)
        Ci = rand_unimodular_spd(rng)
        dt = float(np.exp(rng.uniform(math.log(1e-3), math.log(1e3))))
        res = mm.ifebm_step_lagrangian(C, LagrangianState(Ci), dt, p)
        closed = t3.unimodular(Ci + dt * t3.unimodular(C))
        worst = max(worst, float(np.linalg.norm(res.state.Ci - closed)))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-13 and elapsed < 1.0
    assert _report(
        1, "closed-form reduction at c01 = 0", ok, elapsed, f"worst gap {worst:.2e}"
    )


def test_criterion_02_manifold_preservation():
    # closed-form steppers: full dt range [0, 1e3]; Newton baselines:
    # capped at the step sizes they are usable at (1.0 / 0.5)
    plans = {
        "ifebm": (1e3, 0.1, 10.0),
        "2iebm": (1e3, 0.1, 10.0),
        "mebm": (1.0, 0.5, 2.0),
        "em": (0.5, 0.5, 2.0),
    }
    t0 = time.perf_counter()
    ok = True
    details = []
    for method, (dt_hi, lo, hi) in plans.items():
        rng = np.random.default_rng(102)
        step = mm.LAGRANGIAN_STEPPERS[method]
        worst_det = 0.0
        min_eig = math.inf
        t_method = time.perf_counter()
        for k in range(10_000):
            C = rand_spd(rng, lo, hi)
            Ci = rand_unimodular_spd(rng, lo, hi)
            if k == 0:
                dt = 0.0
            elif k == 1:
                dt = dt_hi
            else:
                dt = float(
                    np.exp(rng.uniform(math.log(1e-3), math.log(dt_hi)))
                )
            res = step(C, LagrangianState(Ci), dt, P111)
            worst_det = max(worst_det, abs(t3.det(res.state.Ci) - 1.0))
            min_eig = min(min_eig, float(np.linalg.eigvalsh(res.state.Ci)[0]))
        ok &= worst_det < 1e-12 and min_eig > 0.0
        details.append(
            f"{method}: |det-1| {worst_det:.1e}, min eig {min_eig:.2f}, "
            f"{time.perf_counter() - t_method:.1f}s"
        )
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    assert _report(
        2, "manifold preservation, 1e4 steps per method", ok, elapsed,
        "; ".join(details),
    )


def test_criterion_03_w_invariance():
    t0 = time.perf_counter()
    worst = 0.0
    for method in ("ifebm", "2iebm"):
        rng = np.random.default_rng(103)
        step = mm.LAGRANGIAN_STEPPERS[method]
        for _ in range(1000):
            C = rand_spd(rng, 0.6, 1.6)
            Ci = rand_unimodular_spd(rng, 0.6, 1.6)
            F0 = rand_unimodular(rng, 0.7, 1.4)
            dt = float(rng.uniform(0.0, 2.0))
            F0i = t3.inverse(F0)
            Ci_new = step(C, LagrangianState(Ci), dt, P111).state.Ci
            C_t = t3.sym(F0i.T @ C @ F0i, check=False)
            Ci_t = t3.sym(
                t3.unimodular(t3.sym(F0i.T @ Ci @ F0i, check=False)), check=False
            )
            got = step(C_t, LagrangianState(Ci_t), dt, P111).state.Ci
            expected = F0i.T @ Ci_new @ F0i
            worst = max(
                worst,
                float(np.linalg.norm(got - expected) / np.linalg.norm(expected)),
            )
    elapsed = time.perf_counter() - t0
    ok = worst < 5e-14 and elapsed < 5.0
    assert _report(
        3, "reference-change invariance of the closed-form steppers", ok,
        elapsed, f"worst relative gap {worst:.2e}",
    )


def test_criterion_04_first_order_accuracy():
    t0 = time.perf_counter()
    res = hn.run_convergence(hn.RunConfig(dt=0.1, reference_substeps=30_000))
    elapsed = time.perf_counter() - t0
    ok = elapsed < 10.0
    details = []
    for m in hn.METHOD_NAMES:
        orders = res.values["orders"][m]
        ratio = res.values["max_error"][m][0] / res.values["max_error"][m][1]
        ok &= all(0.85 <= o <= 1.15 for o in orders)
        ok &= 1.7 <= ratio <= 2.3
        details.append(f"{m}: orders {[round(o, 2) for o in orders]}, ratio {ratio:.2f}")
    assert _report(
        4, "first-order convergence and error halving", ok, elapsed,
        "; ".join(details),
    )


def test_criterion_05_method_ordering():
    t0 = time.perf_counter()
    ok = True
    details = []
    for dt in (0.1, 0.05):
        S = {
            m: hn.nonprop_stress_history(m, dt, P111)[1]
            for m in ("ifebm", "2iebm", "mebm", "em")
        }

        def gap(a, b):
            return float(
                np.mean([np.linalg.norm(x - y) for x, y in zip(S[a], S[b])])
            )

        g_if_me = gap("ifebm", "mebm")
        g_me_em = gap("mebm", "em")
        g_2i_me = gap("2iebm", "mebm")
        ok &= g_if_me < g_me_em
        ok &= g_2i_me < 0.1 * g_if_me
        details.append(
            f"dt={dt}: |if-me| {g_if_me:.1e} < |me-em| {g_me_em:.1e}, "
            f"|2i-me| {g_2i_me:.1e}"
        )
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    assert _report(5, "method accuracy ordering", ok, elapsed, "; ".join(details))


def test_criterion_06_tangent_symmetry():
    t0 = time.perf_counter()
    res = hn.run_tangent_sweep(hn.RunConfig())
    elapsed = time.perf_counter() - t0
    dev = res.values["deviation"]
    subchecks = {
        "ifebm (0.1, 1) in [6e-5, 5.4e-4]": 6e-5
        <= dev["ifebm,dt=0.1,eta=1.0"]
        <= 5.4e-4,
        "ifebm (0.05, 1) in [1e-5, 9e-5]": 1e-5
        <= dev["ifebm,dt=0.05,eta=1.0"]
        <= 9e-5,
        "ifebm eta=100 cells < 1e-8": all(
            dev[f"ifebm,dt={dt},eta=100.0"] < 1e-8 for dt in (0.1, 0.05)
        ),
        "ifebm eta=0.001 cells < 1e-8": all(
            dev[f"ifebm,dt={dt},eta=0.001"] < 1e-8 for dt in (0.1, 0.05)
        ),
        "2iebm all cells < 1e-8": all(
            dev[f"2iebm,dt={dt},eta={eta}"] < 1e-8
            for dt in (0.1, 0.05)
            for eta in (100.0, 10.0, 1.0, 0.1, 0.01, 0.001)
        ),
        "runtime < 60 s": elapsed < 60.0,
    }
    for label, passed in subchecks.items():
        print(f"    {'ok' if passed else 'FAIL'}: {label}")
    ok = all(subchecks.values())
    _report(
        6, "tangent symmetry deviation grid", ok, elapsed,
        f"(0.1,1)={dev['ifebm,dt=0.1,eta=1.0']:.2e}, "
        f"(0.05,1)={dev['ifebm,dt=0.05,eta=1.0']:.2e}, "
        f"ifebm eta=0.001: "
        f"{max(dev[f'ifebm,dt={d},eta=0.001'] for d in (0.1, 0.05)):.2e}",
    )
    # The eta = 0.001 clause fails by construction of the estimate-based
    # stepper: the first-order volume-correction estimate carries an
    # anisotropy-driven error O(1/eps) whose tangent asymmetry floors
    # near 5e-8 on this loading (Richardson-verified, h-independent,
    # tail ~ 1/eps^2).  The two-correction stepper is the sub-1e-8
    # option.  All other clauses must and do pass.
    assert ok, (
        "estimate-based stepper's fast-flow tangent asymmetry floors "
        "near 5e-8 on this loading, above the 1e-8 clause"
    )


def test_criterion_07_lagrangian_eulerian_equivalence():
    t0 = time.perf_counter()
    _, S_lag, _, _ = hn.nonprop_stress_history("ifebm", 0.1, P111)
    _, S_eul, _, _ = hn.nonprop_stress_history(
        "ifebm", 0.1, P111, formulation="eulerian"
    )
    scale = max(np.linalg.norm(S) for S in S_lag)
    gap = max(
        np.linalg.norm(a - b) for a, b in zip(S_lag, S_eul)
    ) / scale
    elapsed = time.perf_counter() - t0
    ok = gap < 1e-10 and elapsed < 1.0
    assert _report(
        7, "Lagrangian and Eulerian forms agree", ok, elapsed,
        f"relative gap {gap:.2e}",
    )


def test_criterion_08_robustness():
    t0 = time.perf_counter()
    res = hn.run_robustness(hn.RunConfig())
    elapsed = time.perf_counter() - t0
    eff = res.values["effort"]
    closed_ok = all(
        eff[f"{m},dt={dt:g}"]["substep_events"] == 0
        and eff[f"{m},dt={dt:g}"]["divergences"] == 0
        for m in ("ifebm", "2iebm")
        for dt in (0.5, 1.0)
    ) and all(
        eff[f"ifebm,dt={dt:g}"]["total_iterations"] == 0 for dt in (0.5, 1.0)
    )
    stressed_ok = all(
        eff[f"{m},dt=1"]["substep_events"] >= 1
        or eff[f"{m},dt=1"]["divergences"] >= 1
        or eff[f"{m},dt=1"]["max_iterations"]
        > eff[f"{m},dt=0.05"]["max_iterations"]
        for m in ("mebm", "em")
    )
    blowup_ok = res.values["subtractive_deviation"] > 1e-4
    limit_ok = res.values["eps0_limit_gap"] < 1e-10
    ok = closed_ok and stressed_ok and blowup_ok and limit_ok and elapsed < 5.0
    assert _report(
        8, "closed form needs no iterations; baselines do; root form demo",
        ok, elapsed,
        f"mebm bisections at dt=1: {eff['mebm,dt=1']['substep_events']}, "
        f"subtractive drift {res.values['subtractive_deviation']:.1e}, "
        f"limit gap {res.values['eps0_limit_gap']:.1e}",
    )


def test_criterion_09_uniaxial_self_convergence():
    t0 = time.perf_counter()
    res = hn.run_uniaxial(hn.RunConfig())
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    worst_gap = 0.0
    for key, cell in res.values["cells"].items():
        worst_gap = max(worst_gap, cell["gap_fraction_of_peak"])
        ok &= cell["gap_fraction_of_peak"] < 0.03
        ok &= all(
            a >= -1e-9 * cell["peak_stress"] for a in cell["cycle_areas"]
        )
    assert _report(
        9, "composite uniaxial coarse/fine agreement and dissipation",
        ok, elapsed, f"worst gap {100 * worst_gap:.2f}% of peak",
    )


def test_criterion_10_note():
    # the boundary-value benchmark (global equilibrium iteration counts
    # inside a commercial FEM code) has no desk-scale reproduction; no
    # numeric gate attaches to it
    _report(10, "FEM boundary-value benchmark out of scope", True)
