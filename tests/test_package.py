"""Package surface: the public names, and the demos and the benchmark that
use them."""

import json
import os
import subprocess
import sys

import pytest

import mrmaxwell as mm

from conftest import package_env

PUBLIC_NAMES = {
    "CompositeModel", "CompositeStepResult", "ConvergenceError", "DomainError",
    "EquilibriumParams", "EulerianState", "LAGRANGIAN_STEPPERS",
    "LagrangianState", "MaterialParams", "ReferenceSolution", "StepDiagnostics",
    "StepResult", "composite_step", "consistent_tangent", "em_step",
    "equilibrium_stress", "eulerian_state_from_lagrangian", "harness",
    "ifebm_step_eulerian", "ifebm_step_lagrangian", "kirchhoff_eulerian",
    "load_model", "mebm_step", "quad_root_X", "quad_root_X_subtractive",
    "reference_solve", "residual_R", "solve_phi", "strain_to_voigt",
    "stress_2pk", "stress_to_voigt", "symmetry_deviation", "table_model_path",
    "tensor3", "twoiter_step", "uniaxial_axial_stress", "voigt_to_strain",
    "voigt_to_stress",
}

DEMO_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "demos")
DEMOS = sorted(f for f in os.listdir(DEMO_DIR) if f.endswith(".py"))
PERFBENCH_RUN = os.path.join(DEMO_DIR, "..", "perfbench", "run.py")


def test_public_names():
    assert len(mm.__all__) == len(set(mm.__all__))
    assert set(mm.__all__) == PUBLIC_NAMES
    for name in mm.__all__:
        assert getattr(mm, name) is not None


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(DEMO_DIR, demo)],
        cwd=tmp_path,
        env=package_env(),
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr


def _perfbench(workload, seed, fault, tmp_path):
    # a one-second benchmark run in tmp_path: its exit code and JSON result
    args = ["--workload", workload, "--seed", str(seed), "--seconds", "1"]
    args += ["--trace", "0"] + (["--fault", fault] if fault else [])
    proc = subprocess.run(
        [sys.executable, PERFBENCH_RUN, *args],
        cwd=tmp_path,
        env=package_env(),
        capture_output=True,
        text=True,
        timeout=600,
    )
    return proc.returncode, proc.stdout[-2000:] + proc.stderr, proc.stdout


@pytest.mark.parametrize(
    "seed, fault, code",
    [(1, None, 0), (22, None, 0), (33, None, 0), (48, None, 0), (1, "stress", 1)],
)
def test_newton_golden_gate(seed, fault, code, tmp_path):
    # one second of the newton-baselines workload: its gate holds the mebm/em
    # steps to the golden states and stresses (1e-10 relative).  Each seed
    # replays eight of the pool's 24 cases (the odd ones are em), and seeds
    # 1, 22, 33 and 48 together the whole pool; a corrupted stress must fail it
    returncode, log, out = _perfbench("newton-baselines", seed, fault, tmp_path)
    assert returncode == code, log
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"] is (fault is None)


@pytest.mark.parametrize("seed, fault, code", [(1, None, 0), (3, None, 0), (1, "state", 1)])
def test_histories_golden_gate(seed, fault, code, tmp_path):
    # one second of the histories workload: its gate holds the reference
    # march and the closed-form histories to the golden states and stresses
    # (1e-13 relative).  Seeds 1 and 3 replay the pool's cases {0, 2} and
    # {1, 3}, so together the whole pool; a corrupted state must fail it
    returncode, log, out = _perfbench("histories", seed, fault, tmp_path)
    assert returncode == code, log
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"] is (fault is None)


@pytest.mark.parametrize(
    "seed, fault, code",
    [(1, None, 0), (4, None, 0), (15, None, 0), (16, None, 0), (20, None, 0),
     (1, "stress", 1)],
)
def test_gauss_points_golden_gate(seed, fault, code, tmp_path):
    # one second of the gauss-points workload: its gate holds the closed-form
    # steps and their tangents to the golden pool.  Each seed replays six of
    # the pool's 24 cases, and seeds 1, 4, 15, 16 and 20 together the whole
    # pool; a corrupted stress must fail it
    returncode, log, out = _perfbench("gauss-points", seed, fault, tmp_path)
    assert returncode == code, log
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"] is (fault is None)
