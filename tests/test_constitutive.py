"""Single-branch material: stress laws, the five steppers, reference solver."""

import math
import re
import warnings

import numpy as np
import pytest

import mrmaxwell as mm
from mrmaxwell import (
    ConvergenceError,
    DomainError,
    EulerianState,
    LagrangianState,
    MaterialParams,
    composite_step,
    consistent_tangent,
    em_step,
    eulerian_state_from_lagrangian,
    ifebm_step_eulerian,
    ifebm_step_lagrangian,
    kirchhoff_eulerian,
    load_model,
    mebm_step,
    quad_root_X,
    quad_root_X_subtractive,
    reference_solve,
    residual_R,
    solve_phi,
    stress_2pk,
    table_model_path,
    twoiter_step,
)
from mrmaxwell import constitutive as cn
from mrmaxwell import tensor3 as t3
from mrmaxwell.constitutive import (
    _ci_update,
    _closed_form_root,
    _coefficients,
    _em_residual,
    _EXP_NORM_MAX,
    _march_substep,
    _mebm_residual,
    _newton_solve,
    _kirchhoff,
    _strain,
    _stress_from_parts,
    _SPREAD_MAX,
)

from mrmaxwell.harness import LoadingProgram

from conftest import (
    history_gap,
    per_call,
    rand_rotation,
    rand_spd,
    rand_unimodular,
    rand_unimodular_spd,
    rotated_strain,
    skewed_strain,
    spd_inv_sqrt,
    spd_sqrt,
)

P111 = MaterialParams(1.0, 1.0, 1.0)

# what the tensor quadratic's scalars phi and eps refuse by name
NOT_FINITE_NUMBERS = [math.nan, math.inf, -math.inf, True, np.True_, "1"]


def _cbar(C):
    # Cbar = C/cbrt(det C) and Cbar^-1 as arrays, from the floats of _strain
    q, b, _ = _strain(C, "C")
    return np.array(q).reshape(3, 3), np.array(b).reshape(3, 3)


def sym(M):
    return t3.sym(M, check=False)


class TestMaterialParams:
    def test_validation(self):
        with pytest.raises(DomainError):
            MaterialParams(0.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            MaterialParams(1.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            MaterialParams(-1.0, 2.0, 1.0)
        nan, inf = math.nan, math.inf
        for c10, c01 in ((nan, 1.0), (1.0, nan), (inf, 1.0), (1.0, inf)):
            with pytest.raises(DomainError, match="finite"):
                MaterialParams(c10, c01, 1.0)
        # eta = inf is a frozen branch
        assert MaterialParams(1.0, 1.0, math.inf).eta == math.inf

    @pytest.mark.parametrize("field", ["c10", "c01", "eta"])
    def test_bool_refused_by_name(self, field):
        # True passed every check as the number 1
        values = {"c10": 1.0, "c01": 1.0, "eta": 1.0, field: True}
        with pytest.raises(DomainError, match=f"^{field} must be a number, got True$"):
            MaterialParams(**values)
        with pytest.raises(DomainError, match="^c10 must be a number, got True$"):
            MaterialParams(True, 1.0, True)

    @pytest.mark.parametrize("value", [np.True_, None, "1"])
    @pytest.mark.parametrize("field", ["c10", "c01", "eta"])
    def test_non_number_refused_by_name(self, field, value):
        # NumPy's bool passed every check as the number 1, and None or a
        # string leaked a TypeError from the first comparison
        values = {"c10": 1.0, "c01": 1.0, "eta": 1.0, field: value}
        message = f"^{field} must be a number, got {re.escape(repr(value))}$"
        with pytest.raises(DomainError, match=message):
            MaterialParams(**values)


class TestStates:
    def test_lagrangian_validation(self):
        with pytest.raises(DomainError):
            LagrangianState(np.diag([2.0, 1.0, 1.0]))  # det != 1
        with pytest.raises(DomainError):
            LagrangianState(np.array([[1.0, 0.1, 0], [0, 1, 0], [0, 0, 1]]))
        st = LagrangianState.identity()
        assert not st.Ci.flags.writeable

    def test_eulerian_validation(self):
        with pytest.raises(DomainError):
            EulerianState(np.eye(3), np.diag([1.0, 1.0, -1.0]))


class TestStress2pk:
    def test_undeformed(self):
        assert np.array_equal(stress_2pk(np.eye(3), np.eye(3), P111), np.zeros((3, 3)))

    def test_fully_relaxed_is_zero(self, rng):
        for _ in range(20):
            C = rand_spd(rng)
            Cbar = sym(t3.unimodular(C))
            T = stress_2pk(C, Cbar, P111)
            assert np.linalg.norm(T) < 1e-14

    def test_hand_value(self):
        C = sym(np.array([[1.0, 1, 0], [1, 2, 0], [0, 0, 1]]))
        T = stress_2pk(C, np.eye(3), P111)
        expected = np.array([[-4.0, 3, 0], [3, -1, 0], [0, 0, 0]])
        assert np.allclose(T, expected, atol=1e-13)

    def test_power_conjugacy_trace(self, rng):
        # tr(C T) = 0: the stress is purely isochoric
        for _ in range(100):
            C = rand_spd(rng)
            Ci = rand_unimodular_spd(rng)
            T = stress_2pk(C, Ci, P111)
            bound = 1e-12 * np.linalg.norm(C) * max(np.linalg.norm(T), 1e-6)
            assert abs((C * T).sum()) <= bound

    def test_non_spd_raises(self):
        with pytest.raises(DomainError):
            stress_2pk(np.diag([1.0, -1.0, 1.0]), np.eye(3), P111)
        with pytest.raises(DomainError):
            stress_2pk(np.eye(3), np.diag([2.0, 1.0, 1.0]), P111)


class TestKirchhoffEulerian:
    def test_identity(self):
        assert np.allclose(kirchhoff_eulerian(np.eye(3), P111), 0.0, atol=0)

    def test_hand_value(self):
        B_inv = np.diag([2.0, 0.5, 1.0])
        p = MaterialParams(1.0, 0.0, 1.0)
        S = kirchhoff_eulerian(B_inv, p)
        assert np.allclose(
            S, np.diag([-2.0 / 3.0, 5.0 / 6.0, -1.0 / 6.0]), atol=1e-14
        )

    def test_traceless(self, rng):
        for _ in range(50):
            B_inv = rand_unimodular_spd(rng)
            S = kirchhoff_eulerian(B_inv, P111)
            assert abs(t3.trace(S)) <= 1e-12 * max(np.linalg.norm(S), 1e-9)

    def test_push_forward_matches_lagrangian(self, rng):
        # S = F T F^T for volume-preserving F
        for _ in range(50):
            F = rand_unimodular(rng)
            Ci = rand_unimodular_spd(rng)
            C = sym(F.T @ F)
            T = stress_2pk(C, Ci, P111)
            Be_inv = sym(t3.unimodular(sym(t3.inverse(F).T @ Ci @ t3.inverse(F))))
            S = kirchhoff_eulerian(Be_inv, P111)
            S_pushed = F @ T @ F.T
            assert np.linalg.norm(S - S_pushed) < 1e-11 * max(
                np.linalg.norm(S), 1.0
            )

    def test_float_law_matches_numpy(self):
        # the float law is c10 dev(inverse(B)) - c01 dev(B) in numpy, bit for
        # bit, through the public function and as the Eulerian step takes it
        rng = np.random.default_rng(19)
        for k in range(1000):
            B = rand_unimodular_spd(rng, *((0.25, 4.0), (1e-3, 1e3))[k % 2])
            p = MaterialParams(*rng.uniform(0.0, 2.0, 2), 1.0)
            want = p.c10 * t3.deviator(t3.inverse(B)) - p.c01 * t3.deviator(B)
            assert np.array_equal(_kirchhoff(B.ravel().tolist(), p), want)
            assert np.array_equal(kirchhoff_eulerian(B, p), want)


def _d_form(C, Ci, p):
    # the stress law in numpy as the float law replaced it: the D-form on the
    # arrays of _strain, kept as its oracle
    q, b, r = _strain(C, "C")
    Cbar, Cbar_inv = np.array(q).reshape(3, 3), np.array(b).reshape(3, 3)
    D = Ci - Cbar
    term = p.c10 * (D @ t3.inverse(Ci)) + p.c01 * (D @ Cbar_inv)
    return -t3.sym((Cbar_inv / r) @ t3.deviator(term), check=False)


def _raw_product(C, Ci, p):
    # stress_2pk's docstring formula, literally
    Cbar = t3.unimodular(C)
    M = p.c10 * Cbar @ t3.inverse(Ci) - p.c01 * Ci @ t3.inverse(Cbar)
    return t3.sym(t3.inverse(C) @ t3.deviator(M), check=False)


class TestFloatStressLaw:
    # the one stress law, on the floats of _strain, against the numpy D-form
    # and the raw product, on random, near-relaxed and relaxed (Ci = I)
    # states.  Measured over 3 x 3000 such inputs: within 1.8e-16 of the
    # D-form's round-off scale ||C^-1|| ||D|| (c10 ||Ci^-1|| + c01
    # ||Cbar^-1||), and 4.8e-16 of the raw product's ||C^-1|| (c10 ||Cbar||
    # ||Ci^-1|| + c01 ||Ci|| ||Cbar^-1||)
    @pytest.mark.parametrize("kind", ["random", "near-relaxed", "relaxed"])
    def test_matches_numpy_forms(self, kind, rng):
        for _ in range(500):
            C = rand_spd(rng)
            p = MaterialParams(*rng.uniform(0.0, 2.0, 2), 1.0)
            if kind == "random":
                Ci = rand_unimodular_spd(rng)
            elif kind == "near-relaxed":
                X = rng.standard_normal((3, 3))
                Ci = sym(t3.unimodular(C + 1e-6 * (X + X.T)))
            else:
                Ci = np.eye(3)
            got = _stress_from_parts(_strain(C, "C"), t3.pack_sym(Ci).tolist(), p)
            assert np.array_equal(got, got.T)
            Cbar = t3.unimodular(C)
            C_inv, Ci_inv, Cbar_inv = (np.linalg.norm(t3.inverse(A)) for A in (C, Ci, Cbar))
            d_scale = C_inv * np.linalg.norm(Ci - Cbar) * (p.c10 * Ci_inv + p.c01 * Cbar_inv)
            raw_scale = C_inv * (
                p.c10 * np.linalg.norm(Cbar) * Ci_inv + p.c01 * np.linalg.norm(Ci) * Cbar_inv
            )
            assert np.linalg.norm(got - _d_form(C, Ci, p)) <= 2e-15 * d_scale
            assert np.linalg.norm(got - _raw_product(C, Ci, p)) <= 5e-15 * raw_scale

    def test_skew_refusal_names_condition_number(self):
        # at Ci = I, some strains of spectrum (10^e, 1, 10^-e), e in [6, 9],
        # leave a skew part beyond round-off; the refusal gives ||Cbar||
        # ||Cbar^-1||, and ||Ci|| ||Ci^-1|| = 3
        rng = np.random.default_rng(15)
        refused = 0
        for _ in range(200):
            e = rng.uniform(6.0, 9.0)
            C = rotated_strain([10.0**e, 1.0, 10.0**-e])
            try:
                strain = _strain(C, "C")
            except DomainError:
                continue
            try:
                _stress_from_parts(strain, (1.0, 1.0, 1.0, 0.0, 0.0, 0.0), P111)
            except DomainError as err:
                cond = math.hypot(*strain[0]) * math.hypot(*strain[1])
                assert str(err) == (
                    "stress asymmetry exceeds round-off: the unimodular strain "
                    f"has condition number {cond:.3e} and Ci 3.000e+00"
                )
                refused += 1
        assert refused > 0

    @staticmethod
    def _wide_states():
        # Ci of condition number above 1e5: draw 189 of
        # TestKirchhoffEulerian.test_float_law_matches_numpy's generator, and
        # a rotated spectrum (1e4, 1, 1e-4) with the same moduli
        rng = np.random.default_rng(19)
        for k in range(190):
            B = rand_unimodular_spd(rng, *((0.25, 4.0), (1e-3, 1e3))[k % 2])
            p = MaterialParams(*rng.uniform(0.0, 2.0, 2), 1.0)
        yield B, p
        yield sym(t3.unimodular(rotated_strain([1e4, 1.0, 1e-4]))), p

    def test_skew_refusal_names_ci_condition_number(self):
        # at C = I the strain is perfectly conditioned (||I|| ||I^-1|| = 3):
        # the skew part comes from the round-off of Ci^-1, so the refusal
        # also gives ||Ci|| ||Ci^-1||, by the law and by a step to C = I
        prefix = (
            "stress asymmetry exceeds round-off: the unimodular strain has "
            "condition number 3.000e+00 and Ci "
        )
        for Ci, p in self._wide_states():
            with pytest.raises(DomainError) as law:
                stress_2pk(np.eye(3), Ci, p)
            assert str(law.value) == prefix + f"{np.linalg.cond(Ci, 'fro'):.3e}"
            with pytest.raises(DomainError) as step:
                ifebm_step_lagrangian(np.eye(3), LagrangianState(Ci), 1e-3, p)
            message = str(step.value)
            assert message.startswith(prefix) and float(message[len(prefix):]) > 1e5


class TestSolvePhi:
    def test_isotropic_exact(self):
        for a, eps in ((1.0, 0.3), (2.5, 1.7), (0.2, 0.0)):
            phi0, phi = solve_phi(a * np.eye(3), eps)
            assert phi == pytest.approx(a - eps, rel=1e-14)

    def test_eps_zero(self, rng):
        A = rand_spd(rng)
        phi0, phi = solve_phi(A, 0.0)
        assert phi == phi0 == pytest.approx(t3.det(A) ** (1 / 3), rel=1e-14)

    def test_hand_value(self):
        phi0, phi = solve_phi(np.diag([1.0, 2.0, 4.0]), 0.1)
        assert phi0 == pytest.approx(2.0, rel=1e-15)
        assert phi == pytest.approx(2.0 - 7.0 / 60.0, rel=1e-14)

    def test_bad_det_raises(self):
        with pytest.raises(DomainError):
            solve_phi(np.diag([1.0, -1.0, 1.0]), 0.1)

    @pytest.mark.parametrize("eps", NOT_FINITE_NUMBERS)
    def test_eps_refused_by_name(self, eps):
        # nan gave (1, nan), inf (1, -inf) and True a step with eps = 1
        with pytest.raises(DomainError, match="^eps must be a finite number, got "):
            solve_phi(np.eye(3), eps)


class TestQuadRoot:
    @pytest.mark.parametrize("f", [quad_root_X, quad_root_X_subtractive])
    @pytest.mark.parametrize("value", NOT_FINITE_NUMBERS)
    def test_phi_and_eps_refused_by_name(self, f, value, count_eigh):
        # quad_root_X(A, inf, 0.1) gave the zero tensor, and an eps of True
        # a root with eps = 1; each is refused before any eigh
        A = np.diag([1.0, 2.0, 4.0])
        with pytest.raises(DomainError, match="^phi must be a finite number, got "):
            f(A, value, 0.1)
        with pytest.raises(DomainError, match="^eps must be a finite number, got "):
            f(A, 1.0, value)
        with pytest.raises(DomainError, match="^phi must be a finite number, got "):
            residual_R(value, A, 0.1)
        assert len(count_eigh) == 0

    def test_eps_zero_degenerates(self, rng):
        A = rand_spd(rng)
        assert np.array_equal(quad_root_X(A, 2.0, 0.0), A / 2.0)

    def test_isotropic_unit_root(self):
        for a, eps in ((1.5, 0.25), (3.0, 2.0)):
            X = quad_root_X(a * np.eye(3), a - eps, eps)
            assert np.allclose(X, np.eye(3), atol=1e-14)

    def test_satisfies_quadratic(self, rng):
        for _ in range(200):
            A = rand_spd(rng, 1e-2, 1e2)
            eps = float(rng.uniform(0.0, 10.0))
            _, phi = solve_phi(A, eps)
            X = quad_root_X(A, phi, eps)
            resid = phi * X - A + eps * (X @ X)
            assert np.linalg.norm(resid) <= 1e-11 * np.linalg.norm(A)
            assert t3.is_spd(X)

    def test_negative_phi_branch(self, rng):
        # large eps drives the estimate negative; the root stays SPD
        A = rand_spd(rng)
        phi = -3.0
        X = quad_root_X(A, phi, 2.0)
        assert t3.is_spd(X)
        resid = phi * X - A + 2.0 * (X @ X)
        assert np.linalg.norm(resid) <= 1e-11 * np.linalg.norm(A)

    def test_tiny_eps_matches_limit(self, rng):
        for _ in range(100):
            A = rand_spd(rng, 0.5, 2.0)
            phi0, phi = solve_phi(A, 1e-12)
            X_tiny = quad_root_X(A, phi, 1e-12)
            X_zero = quad_root_X(A, phi0, 0.0)
            assert np.linalg.norm(X_tiny - X_zero) < 1e-10

    def test_subtractive_form_drifts(self, rng):
        # the demonstration target: the subtractive evaluation loses
        # accuracy at tiny eps on wide-spectrum inputs
        worst = 0.0
        for _ in range(32):
            A = rand_spd(rng, 1e-3, 1e3)
            _, phi = solve_phi(A, 1e-12)
            stable = quad_root_X(A, phi, 1e-12)
            drifty = quad_root_X_subtractive(A, phi, 1e-12)
            worst = max(worst, float(np.linalg.norm(stable - drifty)))
        assert worst > 1e-4


class TestResidual:
    def test_isotropic_zero(self):
        a, eps = 2.0, 0.5
        assert residual_R(a - eps, a * np.eye(3), eps) == pytest.approx(0.0, abs=1e-13)

    def test_eps_zero(self, rng):
        A = rand_spd(rng)
        assert abs(residual_R(t3.det(A) ** (1 / 3), A, 0.0)) < 1e-13

    def test_estimate_residual_bounded(self):
        A = np.diag([1.0, 2.0, 4.0])
        _, phi = solve_phi(A, 0.1)
        r = residual_R(phi, A, 0.1)
        assert 0.0 < abs(r) < 5e-3


class TestIfebmLagrangian:
    def test_dt_zero_keeps_state(self, rng):
        C = rand_spd(rng)
        Ci = rand_unimodular_spd(rng)
        res = ifebm_step_lagrangian(C, LagrangianState(Ci), 0.0, P111)
        assert np.linalg.norm(res.state.Ci - Ci) < 5e-15 * np.linalg.norm(Ci)
        assert np.allclose(res.stress, stress_2pk(C, Ci, P111), atol=1e-13)
        assert res.diagnostics.iterations == 0

    def test_complete_relaxation(self, rng):
        for _ in range(10):
            C = rand_spd(rng)
            Ci = rand_unimodular_spd(rng)
            res = ifebm_step_lagrangian(C, LagrangianState(Ci), 1e12, P111)
            assert np.linalg.norm(res.state.Ci - t3.unimodular(C)) < 1e-6

    def test_neo_hookean_closed_form(self, rng):
        p = MaterialParams(1.3, 0.0, 0.7)
        for _ in range(200):
            C = rand_spd(rng)
            Ci = rand_unimodular_spd(rng)
            dt = float(np.exp(rng.uniform(math.log(1e-3), math.log(1e3))))
            res = ifebm_step_lagrangian(C, LagrangianState(Ci), dt, p)
            closed = t3.unimodular(Ci + (dt * p.c10 / p.eta) * t3.unimodular(C))
            assert np.linalg.norm(res.state.Ci - closed) < 1e-13

    def test_stationary_relaxed_state(self, rng):
        C = rand_spd(rng)
        Cbar = sym(t3.unimodular(C))
        res = ifebm_step_lagrangian(C, LagrangianState(Cbar), 7.3, P111)
        assert np.linalg.norm(res.state.Ci - Cbar) < 1e-13

    def test_negative_dt_raises(self):
        with pytest.raises(DomainError):
            ifebm_step_lagrangian(np.eye(3), LagrangianState.identity(), -0.1, P111)

    def test_matches_literal_contract_composition(self, rng):
        # the step equals the literal composition of the public pieces:
        # transform, estimate, root, sandwich, projection
        for _ in range(25):
            C = rand_spd(rng)
            Ci = rand_unimodular_spd(rng)
            dt = float(rng.uniform(0.0, 3.0))
            res = ifebm_step_lagrangian(C, LagrangianState(Ci), dt, P111)
            Cbar = sym(t3.unimodular(C))
            sq = spd_sqrt(Cbar)
            isq = spd_inv_sqrt(Cbar)
            beta = dt * P111.c10 / P111.eta
            eps = dt * P111.c01 / P111.eta
            A = sym(isq @ (Ci + beta * Cbar) @ isq)
            _, phi = solve_phi(A, eps)
            X = quad_root_X(A, phi, eps)
            Ci_lit = t3.unimodular(sym(sq @ X @ sq))
            assert np.linalg.norm(Ci_lit - res.state.Ci) < 1e-12
            T_lit = stress_2pk(C, Ci_lit, P111)
            assert np.linalg.norm(T_lit - res.stress) < 1e-11 * max(
                np.linalg.norm(T_lit), 1.0
            )


class TestIfebmEulerian:
    def test_no_motion_no_change(self):
        res = ifebm_step_eulerian(np.eye(3), EulerianState.identity(), 0.0, P111)
        assert np.allclose(res.state.Be_inv_bar, np.eye(3), atol=1e-15)
        assert np.allclose(res.stress, 0.0, atol=1e-15)

    def test_matches_lagrangian_history(self, rng):
        # the two formulations predict the same Kirchhoff stress
        Fs = [np.eye(3)] + [rand_unimodular(rng, 0.6, 1.7) for _ in range(12)]
        lag = LagrangianState.identity()
        eul = EulerianState.identity()
        for F in Fs[1:]:
            C = sym(F.T @ F)
            rl = ifebm_step_lagrangian(C, lag, 0.1, P111)
            re = ifebm_step_eulerian(F, eul, 0.1, P111)
            lag, eul = rl.state, re.state
            S_l = F @ rl.stress @ F.T
            scale = max(np.linalg.norm(S_l), 1.0)
            assert np.linalg.norm(S_l - re.stress) < 1e-10 * scale
            # states related by the push-forward map
            Ci_from_eul = t3.unimodular(sym(F.T @ eul.Be_inv_bar @ F))
            assert np.linalg.norm(Ci_from_eul - lag.Ci) < 1e-11
            # and roots of the same determinant
            assert re.diagnostics.det_residual == pytest.approx(
                rl.diagnostics.det_residual, rel=1e-6, abs=1e-13
            )

    def test_state_from_lagrangian_pair(self, rng):
        F = rand_unimodular(rng)
        Ci = rand_unimodular_spd(rng)
        st = eulerian_state_from_lagrangian(F, Ci)
        Finv = t3.inverse(F)
        expected = t3.unimodular(Finv.T @ Ci @ Finv)
        assert np.linalg.norm(st.Be_inv_bar - expected) < 1e-13
        assert np.array_equal(st.F_prev, F)

    def test_rigid_rotation_objectivity(self, rng):
        state = EulerianState.identity()
        F = rand_unimodular(rng)
        res = ifebm_step_eulerian(F, state, 0.2, P111)
        Q = rand_rotation(rng)
        res_rot = ifebm_step_eulerian(Q @ F, res.state, 0.3, P111)
        res_ref = ifebm_step_eulerian(F, res.state, 0.3, P111)
        # a superposed rigid rotation rotates the stress, nothing else
        S_expected = Q @ res_ref.stress @ Q.T
        assert np.linalg.norm(res_rot.stress - S_expected) < 1e-12
        assert abs(t3.det(res_rot.state.Be_inv_bar) - 1.0) < 1e-12

    def test_singular_gradient_raises(self):
        with pytest.raises(DomainError):
            ifebm_step_eulerian(
                np.diag([1.0, 1.0, 0.0]), EulerianState.identity(), 0.1, P111
            )


class TestTwoiter:
    def test_eps_zero_matches_ifebm(self, rng):
        p = MaterialParams(1.0, 0.0, 1.0)
        C = rand_spd(rng)
        Ci = rand_unimodular_spd(rng)
        r1 = ifebm_step_lagrangian(C, LagrangianState(Ci), 0.4, p)
        r2 = twoiter_step(C, LagrangianState(Ci), 0.4, p)
        assert np.linalg.norm(r1.state.Ci - r2.state.Ci) < 1e-13
        assert r2.diagnostics.iterations == 2

    def test_isotropic_matches_ifebm(self):
        C = 1.69 * np.eye(3)
        r1 = ifebm_step_lagrangian(C, LagrangianState.identity(), 0.7, P111)
        r2 = twoiter_step(C, LagrangianState.identity(), 0.7, P111)
        assert np.linalg.norm(r1.state.Ci - r2.state.Ci) < 1e-13

    def test_drives_determinant_residual_down(self, rng):
        for _ in range(50):
            C = rand_spd(rng)
            Ci = rand_unimodular_spd(rng)
            dt = float(rng.uniform(0.1, 2.0))
            r1 = ifebm_step_lagrangian(C, LagrangianState(Ci), dt, P111)
            r2 = twoiter_step(C, LagrangianState(Ci), dt, P111)
            Cbar = _cbar(C)[0]
            isq = spd_inv_sqrt(Cbar)
            A = sym(isq @ (Ci + dt * Cbar) @ isq)
            eps = dt * P111.c01 / P111.eta
            res_est = abs(residual_R(r1.diagnostics.phi, A, eps))
            res_newton = abs(residual_R(r2.diagnostics.phi, A, eps))
            assert res_newton < 1e-2 and res_newton < 1e-10 + 0.05 * res_est

    @pytest.mark.parametrize("eps,phi", [(0.0, 1.3), (0.8, -0.6)])
    def test_exact_slope_matches_central_difference(self, eps, phi):
        # the corrections' slope -det X sum_i 1/s_i of det X(phi) - 1, from
        # the roots of _roots, at eps = 0 and on the negative-phi branch
        w = [0.4, 1.1, 2.7]
        x, s = cn._roots(*w, phi, eps)
        slope = -(x[0] * x[1] * x[2]) * (1.0 / s[0] + 1.0 / s[1] + 1.0 / s[2])

        def residual(phi):
            x, _ = cn._roots(*w, phi, eps)
            return x[0] * x[1] * x[2] - 1.0

        h = 1e-6 * abs(phi)
        central = (residual(phi + h) - residual(phi - h)) / (2.0 * h)
        assert slope < 0.0
        assert abs(slope - central) <= 1e-6 * abs(slope)


class TestDetResidual:
    # |det X(phi) - 1| of the closed-form root, which the unimodular
    # projection removes from the state

    def test_matches_the_root_at_phi(self, rng):
        # criterion-2 inputs (eigenvalues in [0.5, 2]) with dt in [0.1, 1):
        # two corrections still leave more than 1e-8 on some
        worst = {ifebm_step_lagrangian: 0.0, twoiter_step: 0.0}
        for _ in range(40):
            C = rand_spd(rng, 0.5, 2.0)
            Ci = rand_unimodular_spd(rng, 0.5, 2.0)
            dt = float(rng.uniform(0.1, 1.0))
            Cbar = _cbar(C)[0]
            isq = spd_inv_sqrt(Cbar)
            A = sym(isq @ (Ci + dt * Cbar) @ isq)
            for step in worst:
                d = step(C, LagrangianState(Ci), dt, P111).diagnostics
                assert d.det_residual == pytest.approx(
                    abs(residual_R(d.phi, A, dt)), rel=1e-6, abs=1e-14
                )
                worst[step] = max(worst[step], d.det_residual)
        assert worst[twoiter_step] > 1e-8
        assert worst[ifebm_step_lagrangian] > 1e3 * worst[twoiter_step]

    @pytest.mark.parametrize("method", ["mebm", "em"])
    def test_newton_baselines_report_none(self, method, rng):
        step = mm.LAGRANGIAN_STEPPERS[method]
        d = step(rand_spd(rng), LagrangianState.identity(), 0.1, P111).diagnostics
        assert d.det_residual is None


class TestNewtonBaselines:
    def test_dt_zero(self, rng):
        Ci = rand_unimodular_spd(rng)
        C = rand_spd(rng)
        for step in (mebm_step, em_step):
            res = step(C, LagrangianState(Ci), 0.0, P111)
            assert np.linalg.norm(res.state.Ci - Ci) < 1e-13

    def test_mebm_matches_neo_hookean_closed_form(self, rng):
        # both satisfy the same single-step fixed-point equation; a
        # bisected Newton solve answers a different (two-step)
        # discretization, so only unbisected draws are comparable
        p = MaterialParams(2.0, 0.0, 1.0)
        clean = 0
        for _ in range(30):
            C = rand_spd(rng, 0.5, 2.0)
            Ci = rand_unimodular_spd(rng, 0.5, 2.0)
            dt = float(rng.uniform(0.01, 1.0))
            rm = mebm_step(C, LagrangianState(Ci), dt, p)
            if rm.diagnostics.substeps:
                continue
            clean += 1
            ri = ifebm_step_lagrangian(C, LagrangianState(Ci), dt, p)
            assert np.linalg.norm(rm.state.Ci - ri.state.Ci) < 1e-10
        assert clean >= 20

    def test_stationary_state(self, rng):
        C = rand_spd(rng)
        Cbar = sym(t3.unimodular(C))
        for step in (mebm_step, em_step):
            res = step(C, LagrangianState(Cbar), 2.5, P111)
            assert np.linalg.norm(res.state.Ci - Cbar) < 1e-11

    def test_twoiter_tracks_mebm_on_loading(self):
        from mrmaxwell.harness import LoadingProgram

        program = LoadingProgram()
        s2 = LagrangianState.identity()
        sm = LagrangianState.identity()
        for k in range(1, 31):
            C = program.C(0.1 * k)
            r2 = twoiter_step(C, s2, 0.1, P111)
            rm = mebm_step(C, sm, 0.1, P111)
            s2, sm = r2.state, rm.state
            assert np.linalg.norm(r2.stress - rm.stress) < 1e-3

    def test_em_determinant_preserved(self, rng):
        for _ in range(20):
            C = rand_spd(rng)
            Ci = rand_unimodular_spd(rng)
            res = em_step(C, LagrangianState(Ci), 0.5, P111)
            assert abs(t3.det(res.state.Ci) - 1.0) < 1e-12


def _parts(Cbar):
    # the parts of _strain that the Newton residuals take, for the unimodular
    # Cbar as it is: the floats q of Cbar, b of Cbar^-1 and r = 1
    q = Cbar.ravel().tolist()
    return q, t3._inverse9(*q), 1.0


def _mebm_rhs(Cbar, p):
    # the numpy expression of mebm's right-hand side, the oracle of
    # _mebm_residual: unimodular(Ci_n + h f(Ci) Ci), with f(Ci) Ci in the
    # manifestly symmetric form
    Cbar_inv = t3.inverse(Cbar)

    def rhs(Ci, Ci_n, h):
        tr_part = (
            p.c10 * np.trace(Cbar @ t3.inverse(Ci)) - p.c01 * np.trace(Ci @ Cbar_inv)
        ) / 3.0
        flow_times_ci = (
            p.c10 * Cbar - p.c01 * sym(Ci @ Cbar_inv @ Ci) - tr_part * Ci
        ) / p.eta
        return t3.unimodular(Ci_n + h * flow_times_ci)

    return rhs


def _em_flow(Cbar, p, Ci):
    # em's flow f(Ci) = dev(c10 Cbar Ci^-1 - c01 Ci Cbar^-1) / eta
    return t3.deviator(
        (p.c10 * (Cbar @ t3.inverse(Ci)) - p.c01 * (Ci @ t3.inverse(Cbar))) / p.eta
    )


def _em_error(Cbar, p, x, Ci_n, h, g):
    # em's float residual g at x against its oracle sym(exp(h f(Ci)) Ci_n)
    # through tensor3.mat_exp, relative to the largest entry of the
    # right-hand side, and the 1-norm of h f: the exponential's round-off
    # grows with it, on either path.  None where mat_exp could overflow, a
    # 1-norm (the largest absolute column sum) beyond _EXP_NORM_MAX
    Ci = t3.unpack_sym(np.array(x))
    A = h * _em_flow(Cbar, p, Ci)
    norm1 = float(np.abs(A).sum(axis=0).max())
    if not norm1 <= _EXP_NORM_MAX:
        return None
    value = sym(t3.mat_exp(A) @ Ci_n)
    error = np.abs(np.array(g) - t3.pack_sym(Ci - value)).max()
    return error / np.abs(value).max(), norm1


def _check_em(errors, at_least):
    # 1e-14 relative, times the 1-norm of h f beyond 1
    checked = [e for e in errors if e is not None]
    assert len(checked) >= at_least
    for error, norm1 in checked:
        assert error <= 1e-14 * max(1.0, norm1)


def _columnwise_jacobian(value, x, g, n, h):
    # the forward-difference Jacobian at x, one value per perturbed
    # component, with _newton_solve's step delta
    delta = 1e-7 * max(math.hypot(*x, x[3], x[4], x[5]), 1.0)
    J = np.empty((6, 6))
    for j in range(6):
        xp = list(x)
        xp[j] += delta
        J[:, j] = (np.array(value(xp, n, h)) - g) / delta
    return J


def _value_of(rhs):
    # the value function of Ci = rhs(Ci, Ci_n, h), for a toy rhs on numpy
    # arrays: x - pack(rhs(Ci)) as floats
    def value(x, n, h):
        Ci = t3.unpack_sym(np.array(x))
        return t3.pack_sym(Ci - rhs(Ci, np.array(n).reshape(3, 3), h)).tolist()

    return value


def _baseline_points():
    # the first five points of a fixed stream; at dt = 1 points 1, 3 and
    # 4 bisect under mebm, and point 4 also at dt = 0.5
    rng = np.random.default_rng(2024)
    return [
        (rand_spd(rng, 0.5, 2.0), rand_unimodular_spd(rng, 0.5, 2.0))
        for _ in range(5)
    ]


class TestStackedJacobian:
    # (iterations, substeps, divergences) of (mebm, em) at dt = 0.05, 0.5
    # and 1 on _baseline_points(), as given by the column-by-column
    # Jacobian
    EFFORT = [
        [((3, 0, 0), (3, 0, 0)), ((4, 0, 0), (4, 0, 0)), ((5, 0, 0), (5, 0, 0))],
        [((3, 0, 0), (3, 0, 0)), ((4, 0, 0), (4, 0, 0)), ((8, 1, 1), (5, 0, 0))],
        [((3, 0, 0), (3, 0, 0)), ((4, 0, 0), (4, 0, 0)), ((5, 0, 0), (5, 0, 0))],
        [((3, 0, 0), (3, 0, 0)), ((4, 0, 0), (4, 0, 0)), ((8, 1, 1), (5, 0, 0))],
        [((3, 0, 0), (3, 0, 0)), ((8, 1, 1), (5, 0, 0)), ((12, 2, 2), (6, 0, 0))],
    ]

    def test_matches_columnwise_jacobian(self, monkeypatch):
        # the Jacobian that _newton_solve solves with is bit-equal to one
        # value per perturbed column, and em's value is within round-off of
        # its mat_exp oracle, at every iterate of one Newton solve, including
        # the divergent ones of the bisecting points
        solve, checked, em_errors = cn._solve1, 0, []
        for C, Ci_n in _baseline_points():
            Cbar = sym(t3.unimodular(C))
            n = Ci_n.ravel().tolist()
            for family in (_mebm_residual, _em_residual):
                value = family(_parts(Cbar), P111)
                for dt in (0.5, 1.0):
                    xs, solves = [], []

                    def recording(x, n, h):
                        xs.append(x)
                        return value(x, n, h)

                    def spy(J, g):
                        # the iterate came before its six points
                        solves.append((xs[-7], J, g))
                        return solve(J, g)

                    monkeypatch.setattr(cn, "_solve1", spy)
                    _newton_solve(recording, Ci_n, dt)
                    monkeypatch.undo()
                    for x, J, g in solves:
                        assert g == value(x, n, dt)
                        want = _columnwise_jacobian(value, x, g, n, dt)
                        assert np.array_equal(J, want)
                        if family is _em_residual:
                            em_errors.append(_em_error(Cbar, P111, x, Ci_n, dt, g))
                        checked += 1
        assert checked >= 60
        _check_em(em_errors, 25)

    def test_effort_unchanged(self):
        for (C, Ci), row in zip(_baseline_points(), self.EFFORT):
            for dt, expected in zip((0.05, 0.5, 1.0), row):
                for step, want in zip((mebm_step, em_step), expected):
                    d = step(C, LagrangianState(Ci), dt, P111).diagnostics
                    assert (d.iterations, d.substeps, d.divergences) == want

    def test_steps_never_call_mat_exp(self, monkeypatch):
        # tensor3.mat_exp is the oracle of the tests above, off the path
        # they check: with it raising, both baselines give the same bits
        def steps():
            return [
                step(C, LagrangianState(Ci), dt, P111)
                for C, Ci in _baseline_points()
                for dt in (0.05, 0.5, 1.0)
                for step in (mebm_step, em_step)
            ]

        def refused(A):
            raise AssertionError("mat_exp called")

        want = steps()
        monkeypatch.setattr(t3, "mat_exp", refused)
        for g, w in zip(steps(), want, strict=True):
            assert np.array_equal(g.state.Ci, w.state.Ci)
            assert np.array_equal(g.stress, w.stress)
            assert g.diagnostics == w.diagnostics


class TestMebmFloatResidual:
    @staticmethod
    def _error(C, Ci, Ci_n, dt, p):
        # the float residual against the numpy oracle, relative to the size
        # of the right-hand side, and the round-off amplification of M =
        # Ci_n + dt f(Ci) Ci: the size of its terms times |M^-1| (both
        # forms lose digits alike where the terms cancel); None where both
        # leave the domain
        Cbar = sym(t3.unimodular(C))
        x, n = t3.pack_sym(Ci).tolist(), Ci_n.ravel().tolist()
        try:
            value = _mebm_rhs(Cbar, p)(Ci, Ci_n, dt)
        except DomainError:
            with pytest.raises(DomainError, match="det > 0"):
                _mebm_residual(_parts(Cbar), p)(x, n, dt)
            return None
        g = _mebm_residual(_parts(Cbar), p)(x, n, dt)
        error = np.abs(np.array(g) - t3.pack_sym(Ci - value)).max()
        Cbar_inv, Ci_inv = t3.inverse(Cbar), t3.inverse(Ci)
        t = (p.c10 * np.trace(Cbar @ Ci_inv) - p.c01 * np.trace(Ci @ Cbar_inv)) / 3.0
        flow = p.c10 * Cbar - p.c01 * Ci @ Cbar_inv @ Ci - t * Ci
        norm = np.linalg.norm
        terms = norm(Ci_n) + dt / p.eta * (
            p.c10 * norm(Cbar) + p.c01 * norm(Ci) ** 2 * norm(Cbar_inv) + abs(t) * norm(Ci)
        )
        M_inv = np.linalg.inv(Ci_n + dt / p.eta * flow)
        return error / np.abs(value).max(), terms * norm(M_inv)

    def _check(self, errors, at_least):
        # 1e-14 relative, or 1e-15 times the amplification beyond 10
        checked = [e for e in errors if e is not None]
        assert len(checked) >= at_least
        for error, amplification in checked:
            assert error <= 1e-14 * max(1.0, amplification / 10.0)

    def test_baseline_points(self):
        # at each point's state, at its strain and between the two
        self._check(
            [
                self._error(C, Ci, Ci_n, dt, P111)
                for C, Ci_n in _baseline_points()
                for Ci in (Ci_n, C, (Ci_n + C) / 2.0)
                for dt in (0.05, 0.5, 1.0)
            ],
            30,
        )

    def test_seeded_points(self, rng):
        errors = []
        for _ in range(300):
            C = rand_spd(rng, 0.2, 5.0)
            Ci_n = rand_unimodular_spd(rng, 0.2, 5.0)
            Ci = Ci_n + 0.1 * sym(rng.standard_normal((3, 3)))
            dt = float(rng.uniform(0.0, 2.0))
            c10, c01, eta = rng.uniform(0.0, 2.0, 3) + [0.1, 0.0, 0.05]
            p = MaterialParams(float(c10), float(c01), float(eta))
            errors.append(self._error(C, Ci, Ci_n, dt, p))
        self._check(errors, 100)

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= np.finfo(float).eps,
        reason="long double is plain double here: no extended-precision oracle",
    )
    def test_near_relaxed_wide_strain(self):
        # Cbar of spread 1e4 and Ci within 1e-6 of it, against the D-form in
        # long double from the same floats.  Measured worst of 60 cases:
        # 1.2e-12 relative to the right-hand side; the raw product c10 Cbar -
        # c01 Ci Cbar^-1 Ci - t Ci, which cancels there, reached 2.3e-8
        rng = np.random.default_rng(3)
        Cbar = sym(t3.unimodular(rotated_strain([100.0, 1.0, 0.01])))
        L = np.linalg.cholesky(Cbar)
        worst = 0.0
        for _ in range(20):
            X = rng.standard_normal((3, 3))
            Ci = sym(t3.unimodular(sym(L @ (np.eye(3) + 1e-6 * (X + X.T)) @ L.T)))
            p = MaterialParams(*rng.uniform(0.1, 2.0, 2), 1.0)
            value = _mebm_residual(_parts(Cbar), p)
            for h in (0.01, 1.0, 100.0):
                g = value(t3.pack_sym(Ci).tolist(), Ci.ravel().tolist(), h)
                rhs = _long_double_rhs(Cbar, Ci, Ci, h, p)
                want = t3.pack_sym(Ci.astype(np.longdouble) - rhs)
                worst = max(worst, float(np.abs(g - want).max() / np.abs(rhs).max()))
        assert worst <= 1e-11


def _det_inverse(A):
    # det A and the cofactor inverse, in A's own precision
    adj = np.array([
        [A[(i + 1) % 3, (j + 1) % 3] * A[(i + 2) % 3, (j + 2) % 3]
         - A[(i + 1) % 3, (j + 2) % 3] * A[(i + 2) % 3, (j + 1) % 3] for i in range(3)]
        for j in range(3)
    ])
    d = A[0] @ adj[:, 0]
    return d, adj / d


def _long_double_rhs(Cbar, Ci, Ci_n, h, p):
    # mebm's right-hand side unimodular(Ci_n - h/eta dev(D G) Ci), D = Ci -
    # Cbar, G = c10 Ci^-1 + c01 Cbar^-1, in long double
    ld = np.longdouble
    Cbar, Ci, N = (A.astype(ld) for A in (Cbar, Ci, Ci_n))
    G = ld(p.c10) * _det_inverse(Ci)[1] + ld(p.c01) * _det_inverse(Cbar)[1]
    T = (Ci - Cbar) @ G
    M = N - ld(h) / ld(p.eta) * (T - np.trace(T) / 3 * np.eye(3, dtype=ld)) @ Ci
    return M / np.cbrt(_det_inverse(M)[0])


class TestEmFloatResidual:
    @staticmethod
    def _errors(Cbar, p, points, h):
        # em's float residual at each (Ci, Ci_n) of points, against the oracle
        value = _em_residual(_parts(Cbar), p)
        errors = []
        for Ci, Ci_n in points:
            x = t3.pack_sym(Ci).tolist()
            g = value(x, Ci_n.ravel().tolist(), h)
            assert all(map(math.isfinite, g))
            errors.append(_em_error(Cbar, p, x, Ci_n, h, g))
        return errors

    def test_seeded_points(self, rng):
        errors = []
        for _ in range(300):
            C = rand_spd(rng, 0.2, 5.0)
            Ci_n = rand_unimodular_spd(rng, 0.2, 5.0)
            Ci = Ci_n + 0.1 * sym(rng.standard_normal((3, 3)))
            dt = float(rng.uniform(0.0, 2.0))
            c10, c01, eta = rng.uniform(0.0, 2.0, 3) + [0.1, 0.0, 0.05]
            p = MaterialParams(float(c10), float(c01), float(eta))
            Cbar = sym(t3.unimodular(C))
            x = t3.pack_sym(Ci).tolist()
            try:
                g = _em_residual(_parts(Cbar), p)(x, Ci_n.ravel().tolist(), dt)
            except DomainError:
                # refused exactly where the oracle refuses
                assert _em_error(Cbar, p, x, Ci_n, dt, [0.0] * 6) is None
                continue
            errors.append(_em_error(Cbar, p, x, Ci_n, dt, g))
        _check_em(errors, 250)

    @pytest.mark.parametrize("rotated", [False, True])
    def test_near_relaxed_state(self, rotated):
        # the hard step diag(8, 1, 1/8) at eta = 1e-3 solves h = 0.0625 (h/eta
        # = 62.5) near its relaxed state, where P = Cbar Ci^-1 spreads by
        # 2e-7: e[w1,w2,w3] is then about 2e3 and the monomials of P cancel
        # to 1e-11, while A and A B stay the size of the spread
        lam = np.array([8.0, 1.0, 0.125])
        strain = rotated_strain if rotated else np.diag
        Cbar = sym(t3.unimodular(strain(lam)))
        Ci = sym(t3.unimodular(strain(lam * [1.0 + 1e-7, 1.0, 1.0 - 1e-7])))
        w = np.linalg.eigvals(Cbar @ np.linalg.inv(Ci)).real
        assert 1.5e-7 < w.max() - w.min() < 2.5e-7
        p = MaterialParams(1.0, 1.0, 1e-3)
        (error, _), = self._errors(Cbar, p, [(Ci, np.eye(3))], 0.0625)
        assert error <= 1e-12

    @pytest.mark.parametrize("a", [0.5, 2.0])
    def test_repeated_eigenvalues(self, a, rng):
        # P = I exactly (Ci = Cbar = I), P = I up to round-off (Ci = Cbar),
        # and a double eigenvalue (Cbar = diag(a, a, a^-2), Ci = I)
        Cbar = rand_unimodular_spd(rng)
        Ci_n = rand_unimodular_spd(rng)
        cases = [
            (np.eye(3), np.eye(3)),
            (Cbar, Cbar),
            (np.diag([a, a, a**-2]), np.eye(3)),
            (rotated_strain([a, a, a**-2]), np.eye(3)),
        ]
        errors = []
        for Cb, Ci in cases:
            for h in (0.0, 0.3, 3.0):
                errors += self._errors(Cb, P111, [(Ci, Ci_n), (Ci, np.eye(3))], h)
        _check_em(errors, 24)

    @pytest.mark.parametrize("c01", [0.0, 0.3])
    @pytest.mark.parametrize("q", [(1.0, 1.0, 1.0), (2.0, 1.0, 0.5)])
    def test_exponents_beyond_expm1_range(self, c01, q):
        # P = diag(0.6, 0.75, 1/0.45) and h such that the 1-norm of h f is
        # 699: the exponents span about 1100, and those of e[w2,w3] more than
        # 709 (expm1 would overflow), yet every value is finite.  At an
        # exponent near 700 one unit in the last place of it moves exp by
        # 1.1e-13 relative, so the oracle is met to 1e-15 times the 1-norm
        lam = np.array([0.6, 0.75, 1.0 / 0.45])
        p = MaterialParams(1.0, c01, 1.0)
        Cbar = np.diag(q)
        Ci = sym(t3.unimodular(np.diag(q / lam)))
        g = lam - c01 / lam
        g -= g.mean()
        h = float(699.0 / np.abs(g).max())
        assert h * np.diff(g).max() > 900.0 and h * np.ptp(g) > 1000.0
        Ci_n = sym(t3.unimodular(rotated_strain([2.0, 1.0, 0.5])))
        for error, norm1 in self._errors(Cbar, p, [(Ci, np.eye(3)), (Ci, Ci_n)], h):
            assert 698.0 < norm1 <= 700.0
            assert error <= 1e-15 * norm1

    def test_criterion_2_plans_keep_their_effort(self):
        # the histogram of (iterations, substeps, divergences) over the first
        # 500 em inputs of criterion 2 (rand_spd and rand_unimodular_spd in
        # [0.5, 2], dt log-uniform up to 0.5), as the mat_exp residual gave it
        rng = np.random.default_rng(102)
        counts = {}
        for k in range(500):
            C = rand_spd(rng, 0.5, 2.0)
            Ci = rand_unimodular_spd(rng, 0.5, 2.0)
            if k < 2:
                dt = (0.0, 0.5)[k]
            else:
                dt = float(np.exp(rng.uniform(math.log(1e-3), math.log(0.5))))
            d = em_step(C, LagrangianState(Ci), dt, P111).diagnostics
            key = (d.iterations, d.substeps, d.divergences)
            counts[key] = counts.get(key, 0) + 1
        assert counts == {
            (0, 0, 0): 1, (2, 0, 0): 247, (3, 0, 0): 181, (4, 0, 0): 65, (5, 0, 0): 6
        }


class TestNewtonDomainFailures:
    I = np.eye(3)

    # the contraction Ci -> (Ci + I) / 2, refused wherever C11 > limit
    @staticmethod
    def _rhs(limit):
        def rhs(Ci, Ci_n, h):
            if Ci[0, 0] > limit:
                raise DomainError("outside the toy domain")
            return (Ci + np.eye(3)) / 2.0

        return _value_of(rhs)

    def test_failing_iterate_is_a_divergence_before_counting(self):
        assert _newton_solve(self._rhs(1.5), 2.0 * np.eye(3), 1.0) == (None, 0)

    def test_failing_jacobian_point_counts_the_iteration(self):
        # the iterate (C11 = 2) is inside, its C11 + delta point is not
        got = _newton_solve(self._rhs(2.0 + 1e-7), 2.0 * np.eye(3), 1.0)
        assert got == (None, 1)

    def test_converged_iterate_needs_no_jacobian(self):
        Ci, iterations = _newton_solve(self._rhs(1.0), np.eye(3), 1.0)
        assert iterations == 0 and np.array_equal(Ci, np.eye(3))

    # toy right-hand sides that end the solve at each of its other exits
    def test_indefinite_root_is_a_divergence(self):
        D = np.diag([1.0, 1.0, -1.0])
        value = _value_of(lambda Ci, Ci_n, h: (Ci + D) / 2.0)
        assert _newton_solve(value, self.I, 1.0) == (None, 2)

    def test_singular_jacobian(self):
        # Ci - rhs(Ci) is constant, so the FD Jacobian is exactly zero; or
        # it does not depend on C23, so one column is.  The solve gives a NaN
        # step, a divergence, with no warning
        constant = _value_of(lambda Ci, Ci_n, h: Ci + 0.5 * self.I)

        def blind(x, n, h):
            return [x[0] - 2.0, x[1] - 2.0, x[2] - 2.0, x[3], x[4], 1.0]

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _newton_solve(constant, self.I, 1.0) == (None, 1)
            assert _newton_solve(blind, self.I, 1.0) == (None, 1)

    def test_solve_entry_matches_numpy(self, rng):
        # the gufunc the Newton solve calls is numpy.linalg.solve's, bit for
        # bit, on transposed Jacobians as the solve forms them and on badly
        # conditioned ones; a singular system is NaN where numpy raises
        for k in range(300):
            J = rng.standard_normal((6, 6)) * np.exp(rng.uniform(-5.0, 5.0, 6))
            if k % 3 == 1:
                J[:, 4] = J[:, 1] + 1e-9 * J[:, 4]
            g = rng.standard_normal(6).tolist()
            got = cn._solve1(J.T, g)
            assert np.array_equal(got, np.linalg.solve(J.T, g))
        J[:, 4] = J[:, 1]
        with np.errstate(invalid="ignore"):
            assert np.isnan(cn._solve1(J.T, g)).all()
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(J.T, g)

    @pytest.mark.parametrize("factor, want", [(1.0 - 1e-9, 1), (1.0 + 1e-9, 0)])
    def test_residual_bound(self, factor, want):
        # from Ci_n = 2 I, a constant residual c (1, 1, 1, 0, 0, 0) of norm
        # just inside 1e8 |Ci_n| goes on to its (zero) Jacobian; just beyond,
        # the iterate is a divergence
        c = factor * 2e8
        value = _value_of(lambda Ci, Ci_n, h: Ci - c * self.I)
        assert _newton_solve(value, 2.0 * self.I, 1.0) == (None, want)

    def test_non_finite_step(self):
        # sqrt(2 - C11) is NaN at the C11 + delta point of the iterate
        # C11 = 2; that point's NaN, and its warning, stay inside the solve,
        # and the NaN step it gives never becomes an iterate
        def rhs(Ci, Ci_n, h):
            if not np.isfinite(Ci[1:, 1:]).all():
                raise ValueError("non-finite iterate")
            return (Ci + self.I) / 2.0 + np.sqrt(2.0 - Ci[0, 0]) * self.I

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _newton_solve(_value_of(rhs), 2.0 * self.I, 1.0) == (None, 1)

    def test_budget_spent(self):
        # Newton on x^3 - 2x + 2 cycles 0, 1, 0, ... (here x = Ci, from 0)
        def rhs(Ci, Ci_n, h):
            return Ci - (Ci @ Ci @ Ci - 2.0 * Ci + 2.0 * self.I)

        assert _newton_solve(_value_of(rhs), 0.0 * self.I, 1.0) == (None, 50)

    @pytest.mark.parametrize("error", [ZeroDivisionError, OverflowError])
    def test_float_exceptions_are_divergences(self, error):
        # a float value that raises, at the iterate or at a Jacobian point,
        # ends the solve as a divergence
        contraction = self._rhs(math.inf)
        start = [2.0, 2.0, 2.0, 0.0, 0.0, 0.0]

        def failing(x, n, h):
            raise error

        def failing_points(x, n, h):
            if x != start:
                raise error
            return contraction(x, n, h)

        assert _newton_solve(failing, 2.0 * self.I, 1.0) == (None, 0)
        assert _newton_solve(failing_points, 2.0 * self.I, 1.0) == (None, 1)

    # em's exponential overflows where an exponent h g(w) on the spectrum of
    # P passes about 709: math.exp raises OverflowError, which the Newton
    # solve counts as divergence
    def test_em_iterate_beyond_the_norm_bound(self):
        # h f(I) = h dev(diag(4, 1, 1/4) - diag(1/4, 1, 4)) has the
        # exponents 0 and +-3.75 h
        value = _em_residual(_parts(np.diag([4.0, 1.0, 0.25])), P111)
        with pytest.raises(OverflowError):
            value([1.0, 1.0, 1.0, 0.0, 0.0, 0.0], self.I.ravel().tolist(), 200.0)
        assert _newton_solve(value, self.I, 200.0) == (None, 0)

    def test_em_jacobian_point_beyond_the_norm_bound(self):
        # the iterate's C12 + delta point is nearly singular (det about
        # 1/1000 of the iterate's), so its exponents are about 1000 times
        # the iterate's: the iterate has a value, the point overflows
        x = [1.0, 1.0, 1.0, 1.0, 0.0, 0.0]
        delta = 1e-7 * math.hypot(*x, x[3], x[4], x[5])
        x[1] += (2.0 * delta + delta * delta) * 1000.0 / 999.0
        Ci_n = t3.unpack_sym(np.array(x))
        n = Ci_n.ravel().tolist()
        value = _em_residual(_parts(self.I), P111)
        assert 1e-3 < math.hypot(*value(x, n, 1e-6)) < 1e3
        point = list(x)
        point[3] += 1e-7 * math.hypot(*x, x[3], x[4], x[5])
        with pytest.raises(OverflowError):
            value(point, n, 1e-6)
        assert _newton_solve(value, Ci_n, 1e-6) == (None, 1)

    def test_em_converged_iterate_needs_no_jacobian(self):
        # at Ci = Cbar = I the flow is exactly zero, so the iterate solves
        # the step at once; its points, at h = 1e12, all overflow
        value = _em_residual(_parts(self.I), P111)
        x, n = [1.0, 1.0, 1.0, 0.0, 0.0, 0.0], self.I.ravel().tolist()
        assert value(x, n, 1e12) == [0.0] * 6
        for j in range(6):
            point = list(x)
            point[j] += 1e-7 * math.sqrt(3.0)
            with pytest.raises(OverflowError):
                value(point, n, 1e12)
        Ci, iterations = _newton_solve(value, self.I, 1e12)
        assert iterations == 0 and np.array_equal(Ci, self.I)

    def test_em_large_exponent_within_range(self):
        # a 1-norm of h f of 745 whose exponents stay below 709: the value
        # is finite, and the Newton solve stops at its 1e8 residual bound
        Cbar = t3.unimodular(rotated_strain([100.0, 1.0, 0.01]))
        Ci = sym(t3.unimodular(np.diag([1.0, 100.0, 0.01])))
        h = 0.07
        norm1 = float(np.abs(h * _em_flow(Cbar, P111, Ci)).sum(axis=0).max())
        assert 740.0 < norm1 < 750.0
        value = _em_residual(_parts(Cbar), P111)
        g = value(t3.pack_sym(Ci).tolist(), Ci.ravel().tolist(), h)
        assert all(map(math.isfinite, g)) and math.hypot(*g) > 1e140
        assert _newton_solve(value, Ci, h) == (None, 0)

    def test_bisection_depth_exhausted(self):
        C = np.diag([8.0, 1.0, 1.0 / 8.0])
        for name, step in (("mebm", mebm_step), ("em", em_step)):
            with pytest.raises(ConvergenceError) as fail:
                step(C, LagrangianState.identity(), 1.0, MaterialParams(1, 1, 1e-6))
            assert str(fail.value) == (
                f"{name}: no convergence after bisecting to depth 20"
            )

    def test_diverging_iterate_warns_nothing(self):
        # the em iterates overflow before the step bisects four times
        C = np.diag([8.0, 1.0, 1.0 / 8.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = em_step(C, LagrangianState.identity(), 5.0, P111).diagnostics
        assert (d.iterations, d.substeps, d.divergences) == (30, 4, 4)

    # (iterations, substeps, divergences), or the ConvergenceError, of
    # diag(8, 1, 1/8) from the identity: the effort of the numpy Newton
    # layer that the float one replaced
    @pytest.mark.parametrize(
        "method, eta, dt, want",
        [
            ("mebm", 1.0, 5.0, (34, 6, 6)),
            ("em", 1.0, 5.0, (30, 4, 4)),
            ("mebm", 1e-3, 1.0, (86, 15, 15)),
            ("em", 1e-3, 1.0, (49, 11, 11)),
            ("mebm", 1e-6, 5.0, None),
            ("em", 1e-6, 5.0, None),
        ],
    )
    def test_hard_steps_keep_their_effort(self, method, eta, dt, want):
        C = np.diag([8.0, 1.0, 1.0 / 8.0])
        step = mm.LAGRANGIAN_STEPPERS[method]
        p = MaterialParams(1.0, 1.0, eta)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if want is None:
                with pytest.raises(ConvergenceError, match="depth 20"):
                    step(C, LagrangianState.identity(), dt, p)
                return
            d = step(C, LagrangianState.identity(), dt, p).diagnostics
        assert (d.iterations, d.substeps, d.divergences) == want


class TestAsymmetricStrain:
    # a strain's round-off skew part is removed where it enters; a larger
    # one is refused by name, by every Lagrangian stepper and stress_2pk
    @pytest.mark.parametrize("method", ["ifebm", "2iebm", "mebm", "em"])
    def test_round_off_skew_removed(self, method):
        C, Ci = skewed_strain()
        assert 0.0 < np.abs(C - C.T).max() < 1e-17
        step = mm.LAGRANGIAN_STEPPERS[method]
        for dt in (0.0, 0.5):
            got = step(C, LagrangianState(Ci), dt, P111)
            want = step(sym(C), LagrangianState(Ci), dt, P111)
            assert np.array_equal(got.state.Ci, want.state.Ci)
            assert np.array_equal(got.stress, want.stress)

    def test_stress_2pk_round_off_skew_removed(self):
        C, Ci = skewed_strain()
        assert np.array_equal(stress_2pk(C, Ci, P111), stress_2pk(sym(C), Ci, P111))

    @pytest.mark.parametrize("method", ["ifebm", "2iebm", "mebm", "em"])
    def test_large_skew_rejected_by_name(self, method):
        C, Ci = skewed_strain()
        C[0, 1] += 0.3
        step = mm.LAGRANGIAN_STEPPERS[method]
        for dt in (0.0, 0.5):
            with pytest.raises(DomainError, match="C_next is not symmetric"):
                step(C, LagrangianState(Ci), dt, P111)

    def test_stress_2pk_large_skew_rejected_by_name(self):
        C, Ci = skewed_strain()
        C[0, 1] += 0.3
        with pytest.raises(DomainError, match="C is not symmetric"):
            stress_2pk(C, Ci, P111)

    def test_symmetric_strain_kept_as_is(self, rng):
        C = rand_spd(rng)
        assert t3.require_spd(C, "C") is C


class TestManifoldPreservation:
    @pytest.mark.parametrize("method", ["ifebm", "2iebm", "mebm", "em"])
    def test_full_dt_range(self, method, rng):
        # dt spans [0, 1e3]; 0 and the endpoint included explicitly
        step = mm.LAGRANGIAN_STEPPERS[method]
        n = 60 if method in ("mebm", "em") else 300
        dts = [0.0, 1e3] + list(
            np.exp(rng.uniform(math.log(1e-3), math.log(1e3), n))
        )
        for dt in dts:
            C = rand_spd(rng, 0.5, 2.0)
            Ci = rand_unimodular_spd(rng, 0.5, 2.0)
            res = step(C, LagrangianState(Ci), float(dt), P111)
            assert abs(t3.det(res.state.Ci) - 1.0) < 1e-12
            assert np.linalg.eigvalsh(res.state.Ci)[0] > 0.0

    def test_strongly_conditioned_strain(self):
        # C with spectrum (1000, 1, 0.001): the projected state's computed det
        # misses 1 by 1.0e-11, which the round-off of its cofactor expansion
        # explains at a condition number near 1e6
        C = rotated_strain([1000.0, 1.0, 0.001])
        p = MaterialParams(0.7, 0.3, 0.1)
        res = ifebm_step_lagrangian(C, LagrangianState.identity(), 0.2, p)
        assert abs(t3.det(res.state.Ci) - 1.0) > 1e-12
        assert np.linalg.eigvalsh(res.state.Ci)[0] > 0.0

    def test_unimodular_tolerance_scales_with_conditioning(self):
        # det within 16 eps times the magnitude of the cofactor expansion
        # (2.4e-7 at this conditioning), or 1e-12 where that is larger
        wide = rotated_strain([1000.0, 1.0, 0.001])
        assert abs(t3.det(wide) - 1.0) > 1e-12
        LagrangianState(wide)
        EulerianState(wide, np.eye(3))
        off = rotated_strain([2.0, 1.0, 0.5 + 5e-12])
        assert 0.9e-11 < t3.det(off) - 1.0 < 1.1e-11
        with pytest.raises(DomainError, match="Ci must be unimodular"):
            LagrangianState(off)
        with pytest.raises(DomainError, match="Be_inv_bar must be unimodular"):
            EulerianState(off, np.eye(3))
        with pytest.raises(DomainError, match="Ci must be unimodular"):
            LagrangianState(1.00001 * wide)


class TestStressLawDomain:
    # the stress laws accept exactly the states the state types accept, and
    # a strain too ill-conditioned for a symmetric stress is a DomainError
    WIDE = rotated_strain([1000.0, 1.0, 0.001])

    def test_wide_state_accepted(self):
        wide = self.WIDE
        LagrangianState(wide)
        assert np.isfinite(stress_2pk(np.eye(3), wide, P111)).all()
        assert np.isfinite(kirchhoff_eulerian(wide, P111)).all()
        ref = reference_solve(LoadingProgram().C, wide, [0.0, 0.1], P111, 2)
        assert len(ref.stresses) == 2 and np.isfinite(ref.stresses).all()

    @pytest.mark.parametrize(
        "spectrum, scale, accepted",
        [
            ((1000.0, 1.0, 0.001), 1.0, True),
            ((1000.0, 1.0, 0.001), 1.0 + 1e-11, True),
            ((1000.0, 1.0, 0.001), 1.00001, False),
            ((2.0, 1.0, 0.5), 1.0 + 1e-13, True),
            ((2.0, 1.0, 0.5), 1.0 + 1e-11, False),
        ],
    )
    def test_same_determinant_test_as_the_states(self, spectrum, scale, accepted):
        # each stress law accepts, or refuses with the same message, as its
        # state type does
        A = scale * rotated_strain(spectrum)
        for make, law in (
            (LagrangianState, lambda: stress_2pk(np.eye(3), A, P111)),
            (lambda A: EulerianState(A, np.eye(3)), lambda: kirchhoff_eulerian(A, P111)),
        ):
            outcomes = []
            for call in (lambda: make(A), law):
                try:
                    call()
                    outcomes.append(None)
                except DomainError as err:
                    outcomes.append(str(err))
            assert outcomes[0] == outcomes[1]
            assert (outcomes[0] is None) == accepted

    def test_off_state_rejected_by_name(self):
        off = 1.00001 * self.WIDE
        with pytest.raises(DomainError, match="Ci must be unimodular, det = "):
            stress_2pk(np.eye(3), off, P111)
        with pytest.raises(DomainError, match="Be_inv_bar must be unimodular, det = "):
            kirchhoff_eulerian(off, P111)
        with pytest.raises(DomainError, match="Ci must be unimodular, det = "):
            reference_solve(LoadingProgram().C, off, [0.0, 0.1], P111, 2)

    def test_ill_conditioned_strain_sweep(self):
        # C = Q diag(10^e, 1, 10^-e) Q^T, e in [2, 16], from the identity at
        # dt = e^U(-10, 10): every step and equilibrium stress returns or
        # raises DomainError.  The stress's symmetry check refuses some of
        # each (48 ifebm, 50 2iebm and 82 equilibrium stresses of these 300)
        rng = np.random.default_rng(15)
        eq, identity = mm.EquilibriumParams(0.2, 0.2, math.inf), LagrangianState.identity()
        asymmetric = {"ifebm": 0, "2iebm": 0, "equilibrium": 0}
        for _ in range(300):
            e = rng.uniform(2.0, 16.0)
            C = rotated_strain([10.0**e, 1.0, 10.0**-e])
            dt = math.exp(rng.uniform(-10.0, 10.0))
            for name, call in (
                ("ifebm", lambda: ifebm_step_lagrangian(C, identity, dt, P111)),
                ("2iebm", lambda: twoiter_step(C, identity, dt, P111)),
                ("equilibrium", lambda: mm.equilibrium_stress(C, eq)),
            ):
                try:
                    call()
                except DomainError as err:
                    if str(err).startswith("stress asymmetry exceeds round-off"):
                        assert "condition number" in str(err)
                        asymmetric[name] += 1
        assert min(asymmetric.values()) > 0

    def test_wide_spectrum_refused(self):
        # a spectrum spanning 1e250 or more underflows the closed-form root's
        # det: every entry raises a DomainError that names the spectrum, not a
        # ZeroDivisionError
        model, state = load_model(table_model_path()), LagrangianState.identity()
        calls = [
            lambda C: ifebm_step_lagrangian(C, state, 0.1, P111),
            lambda C: twoiter_step(C, state, 0.1, P111),
            lambda C: consistent_tangent(ifebm_step_lagrangian, C, state, 0.1, P111),
            lambda C: consistent_tangent(twoiter_step, C, state, 0.1, P111),
            lambda C: composite_step(C, model, 0.1),
            lambda C: reference_solve(lambda t: C, np.eye(3), [0.0, 1.0], P111, 1, False),
        ]
        for e in range(200, 308):
            for call in calls:
                with pytest.raises(DomainError) as err:
                    call(np.diag([10.0**-e, 1.0, 1.0]))
                if e >= 250:
                    assert "quadratic input spectrum spans" in str(err.value)


_FIVE_STEPPERS = {
    "ifebm": (ifebm_step_lagrangian, LagrangianState.identity),
    "2iebm": (twoiter_step, LagrangianState.identity),
    "mebm": (mebm_step, LagrangianState.identity),
    "em": (em_step, LagrangianState.identity),
    "eulerian": (ifebm_step_eulerian, EulerianState.identity),
}


class TestStepSizeValidation:
    @pytest.mark.parametrize(
        "dt", [math.nan, math.inf, -math.inf, -0.1, True, np.True_, "0.1"]
    )
    @pytest.mark.parametrize("method", sorted(_FIVE_STEPPERS))
    def test_bad_dt_rejected_by_name(self, method, dt):
        # a bool stepped as dt = 1, and a string leaked a TypeError
        step, identity = _FIVE_STEPPERS[method]
        # diag(1.2, 1, 0.9) is a valid strain and a valid deformation gradient
        with pytest.raises(DomainError, match="dt must be finite and non-negative"):
            step(np.diag([1.2, 1.0, 0.9]), identity(), dt, P111)


class TestHugeSteps:
    # the dt -> inf limit Ci -> unimodular(C) (on the current
    # configuration: its image unimodular(F^-T C F^-1) = I) is reached at
    # every finite dt, also where phi^2 or the product of the quadratic's
    # spectrum would overflow
    @pytest.mark.parametrize("moduli", [(1.0, 1.0), (1.0, 0.0), (0.0, 1.0)])
    @pytest.mark.parametrize("dt", [1e103, 1e155, 1e200, 1e300])
    def test_relaxes_to_unimodular_strain(self, dt, moduli, rng):
        p = MaterialParams(*moduli, 1.0)
        C = rand_spd(rng)
        Ci = rand_unimodular_spd(rng)
        limit = t3.unimodular(C)
        for step in (ifebm_step_lagrangian, twoiter_step):
            res = step(C, LagrangianState(Ci), dt, p)
            assert np.abs(res.state.Ci - limit).max() < 1e-12
            assert np.isfinite(res.stress).all()
        F = np.linalg.cholesky(C).T
        res = ifebm_step_eulerian(F, EulerianState(Ci, np.eye(3)), dt, p)
        spatial_limit = eulerian_state_from_lagrangian(F, limit).Be_inv_bar
        assert np.abs(res.state.Be_inv_bar - spatial_limit).max() < 1e-12
        assert np.isfinite(res.stress).all()

    @pytest.mark.parametrize("method", sorted(_FIVE_STEPPERS))
    def test_overflowing_coefficients_rejected_by_name(self, method):
        step, identity = _FIVE_STEPPERS[method]
        p = MaterialParams(1.0, 1.0, 1e-10)
        with pytest.raises(DomainError, match=r"dt = 1e\+300 overflows"):
            step(np.diag([1.2, 1.0, 0.9]), identity(), 1e300, p)

    @pytest.mark.parametrize(
        "log_beta,log_eps",
        # moderate steps, and steps beyond the scaling threshold that the
        # unscaled arithmetic still survives: huge eps (c10 = 0), huge beta
        [((-5, 5), (-5, 5)), (None, (230, 345)), ((230, 235), (-5, 5))],
    )
    def test_scaling_keeps_the_bits(self, log_beta, log_eps, rng):
        # multiplying the quadratic by a power of two is exact, so phi and X
        # equal those of the literal unscaled estimate and corrections
        for k in range(200):
            W = rand_unimodular_spd(rng)
            beta = 0.0 if log_beta is None else math.exp(rng.uniform(*log_beta))
            eps = math.exp(rng.uniform(*log_eps))
            corrections = 2 * (k % 2)
            X, got_x, phi = _closed_form_root(W, (beta, eps), corrections, "W")
            w, V = np.linalg.eigh(W)
            w = (w + beta).tolist()
            phi0 = float(np.cbrt(w[0] * w[1] * w[2]))
            expect = phi0 - ((w[0] + w[1]) + w[2]) / (3.0 * phi0) * eps
            for _ in range(corrections):
                r, slope = _det_residual(w, expect, eps)
                expect -= r / slope
            x = [_root_eigvals(v, expect, eps) for v in w]
            assert phi == expect
            assert got_x == x
            assert np.array_equal(X, (V * x) @ V.T)


# the loop form of _root's arithmetic, each eigenvalue's root and each
# correction evaluating its own roots: the oracle of _root's one evaluation
def _root_eigvals(w: float, phi: float, eps: float) -> float:
    # Positive root of eps x^2 + phi x - w = 0 for one eigenvalue w,
    # evaluated in whichever of the two algebraically equivalent forms
    # avoids subtractive cancellation for the sign of phi at hand.
    disc = math.sqrt(phi * phi + 4.0 * eps * w)
    if phi >= 0.0:
        return 2.0 * w / (disc + phi)
    return (disc - phi) / (2.0 * eps)


def _det_residual(w, phi, eps):
    # R(phi) = det X(phi) - 1 over the spectrum w of the quadratic's input,
    # and its exact slope R' = -det X * sum_i 1/sqrt(phi^2 + 4 eps w_i),
    # which is always negative
    det_x = math.prod(_root_eigvals(v, phi, eps) for v in w)
    s0, s1, s2 = (math.sqrt(phi * phi + 4.0 * eps * v) for v in w)
    return det_x - 1.0, -det_x * (1.0 / s0 + 1.0 / s1 + 1.0 / s2)


def _correction_slope(w, phi, eps, r, slope, g):
    # the gradient with respect to w of one Newton correction phi - r/slope,
    # from that of phi (g): r = det X - 1, slope = -det X sum_i 1/s_i, and
    # each x_i moves by (dw_i - x_i dphi)/s_i, where s_i = sqrt(phi^2 + 4 eps
    # w_i); each 1/s_i moves by -(phi dphi + 2 eps dw_i)/s_i^3
    s = [math.sqrt(phi * phi + 4.0 * eps * v) for v in w]
    x = [_root_eigvals(v, phi, eps) for v in w]
    det_x, inv = r + 1.0, 1.0 / s[0] + 1.0 / s[1] + 1.0 / s[2]
    c0, c1, c2 = cubes = [1.0 / (b * b * b) for b in s]
    out = []
    for gi, xi, si, ci in zip(g, x, s, cubes):
        dr = det_x / (xi * si) + slope * gi
        dslope = det_x * (phi * (c0 + c1 + c2) * gi + 2.0 * eps * ci) - dr * inv
        out.append(gi - (dr - r / slope * dslope) / slope)
    return out


def _scale_oracle(x):
    return 1.0 if x < 1e100 else 2.0 ** -math.frexp(x)[1]


def _root_oracle(w, beta, eps, corrections, name, slopes=False):
    # _root as a loop over lists, with the scaling, the estimate of phi, the
    # residual of a correction and the root of one eigenvalue as separate
    # steps, each evaluating its own roots: the oracle of its written-out form
    if not w[0] > 0.0:
        raise DomainError(f"{name} lost positive definiteness", min_eigenvalue=w[0])
    w = [w[0] + beta, w[1] + beta, w[2] + beta]
    if not w[2] < math.inf:
        raise DomainError(f"{name} overflows when shifted by beta = {beta!r}")
    scale = _scale_oracle(max(w[2], eps))
    eps *= scale
    unit = _scale_oracle(w[2])
    u0, u1, u2 = w[0] * unit, w[1] * unit, w[2] * unit
    d = u0 * u1 * u2
    if not d > 0.0:
        raise DomainError(
            f"quadratic input spectrum spans {w[0]:.3e} to {w[2]:.3e}: "
            "its det underflows"
        )
    q0 = float(np.cbrt(d))
    phi0 = q0 / unit * scale
    phi = phi0 if eps == 0.0 else phi0 - ((u0 + u1) + u2) / (3.0 * q0) * eps
    w = [w[0] * scale, w[1] * scale, w[2] * scale]
    if slopes:
        g = [(2.0 * phi0 - phi) / (3.0 * v) - eps / (3.0 * phi0) for v in w]
    for _ in range(corrections):
        r, slope = _det_residual(w, phi, eps)
        if slopes:
            g = _correction_slope(w, phi, eps, r, slope, g)
        phi -= r / slope
    x = [_root_eigvals(v, phi, eps) for v in w]
    if not slopes:
        return x, phi / scale
    s = [math.sqrt(phi * phi + 4.0 * eps * v) / scale for v in w]
    return x, phi / scale, s, g


class TestRootArithmetic:
    # _root's straight-line form keeps the bits of the loop form
    def test_matches_loop_form(self, rng):
        seen = set()
        for k in range(4000):
            w = sorted(np.exp(rng.uniform(-8.0, 8.0, 3)).tolist())
            beta = 0.0 if k % 3 == 0 else math.exp(rng.uniform(-10.0, 10.0))
            eps = 0.0 if k % 97 == 0 else math.exp(rng.uniform(-10.0, 10.0))
            if k % 5 == 1:
                eps *= 1e250
            elif k % 5 == 2:
                w = [v * 1e250 for v in w]
            elif k % 5 == 3:
                beta *= 1e250
            corrections, slopes = k % 4 // 2 * 2, k % 2 == 1
            want = _root_oracle(w, beta, eps, corrections, "W", slopes)
            assert cn._root(w, beta, eps, corrections, "W", slopes) == want
            seen.add((
                want[1] < 0.0,
                max(w[2] + beta, eps) >= 1e100,
                corrections,
                slopes,
            ))
        # every sign of phi, scaled or not, with 0 and 2 corrections, with
        # and without slopes
        assert len(seen) == 16

    @pytest.mark.parametrize("slopes", [False, True])
    @pytest.mark.parametrize("corrections", [0, 2])
    @pytest.mark.parametrize(
        "w, beta, eps, negative",
        [([0.4, 1.1, 2.7], 0.3, 0.8, False), ([0.01, 1.0, 100.0], 0.0, 1e6, True)],
        ids=["phi-positive", "phi-negative"],
    )
    def test_one_root_evaluation_per_phi(
        self, monkeypatch, w, beta, eps, negative, corrections, slopes
    ):
        # the roots x_i and s_i are evaluated once at each phi that _root
        # visits, the estimate and each correction: 3 square roots each
        calls = []

        class CountingMath:
            def __getattr__(self, name):
                return getattr(math, name)

            def sqrt(self, v):
                calls.append(v)
                return math.sqrt(v)

        want = _root_oracle(w, beta, eps, corrections, "W", slopes)
        assert (want[1] < 0.0) == negative
        monkeypatch.setattr(cn, "math", CountingMath())
        assert cn._root(w, beta, eps, corrections, "W", slopes) == want
        assert len(calls) == 3 * (corrections + 1)

    def test_bits_do_not_depend_on_sum(self, monkeypatch):
        # from Python 3.12 the builtin sum() of floats is compensated: the
        # corrections write their three-term sums out left to right, so a
        # compensated sum, patched in, changes no bit
        def roots():
            rng = np.random.default_rng(23)
            out = []
            for _ in range(2000):
                w = sorted(np.exp(rng.uniform(-8.0, 8.0, 3)).tolist())
                beta, eps = np.exp(rng.uniform(-10.0, 10.0, 2)).tolist()
                out += [cn._root(w, beta, eps, 2, "W", slopes) for slopes in (False, True)]
            return out

        want = roots()
        monkeypatch.setattr(cn, "sum", math.fsum, raising=False)
        assert roots() == want

    @pytest.mark.parametrize(
        "w, beta, eps",
        [([0.0, 1.0, 2.0], 0.1, 0.1), ([-1.0, 1.0, 2.0], 0.1, 0.1),
         ([math.nan, 1.0, 2.0], 0.1, 0.1), ([1.0, 1.0, 1e308], 1e308, 0.1),
         ([1e-200, 1e-200, 1e-200], 0.0, 0.1)],
        ids=["zero", "negative", "nan", "shift-overflow", "det-underflow"],
    )
    def test_refusals_match_loop_form(self, w, beta, eps):
        with pytest.raises(DomainError) as want:
            _root_oracle(w, beta, eps, 0, "W")
        with pytest.raises(DomainError) as got:
            cn._root(w, beta, eps, 0, "W")
        assert str(got.value) == str(want.value)
        assert repr(got.value.min_eigenvalue) == repr(want.value.min_eigenvalue)


class TestSmoothness:
    def test_no_jumps_in_dt(self, rng):
        # the closed form is a smooth function of the step size
        C = rand_spd(rng)
        Ci = rand_unimodular_spd(rng)
        state = LagrangianState(Ci)
        dts = np.exp(np.linspace(math.log(1e-3), math.log(1e3), 40))
        slopes = []
        for dt in dts:
            delta = 1e-5 * dt
            a = ifebm_step_lagrangian(C, state, dt, P111).state.Ci
            b = ifebm_step_lagrangian(C, state, dt + delta, P111).state.Ci
            slopes.append(np.linalg.norm(b - a) / delta)
        K = max(slopes)
        # slope stays finite and bounded by a modest global constant
        assert K < 10.0 / min(dts) and all(np.isfinite(slopes))


class TestWInvariance:
    @pytest.mark.parametrize("method", ["ifebm", "2iebm"])
    def test_reference_change_commutes(self, method, rng):
        step = mm.LAGRANGIAN_STEPPERS[method]
        for _ in range(100):
            C = rand_spd(rng, 0.5, 2.0)
            Ci = rand_unimodular_spd(rng, 0.5, 2.0)
            F0 = rand_unimodular(rng, 0.7, 1.4)
            dt = float(rng.uniform(0.0, 2.0))
            F0_inv = t3.inverse(F0)
            Ci_new = step(C, LagrangianState(Ci), dt, P111).state.Ci
            C_t = sym(F0_inv.T @ C @ F0_inv)
            Ci_t = sym(t3.unimodular(sym(F0_inv.T @ Ci @ F0_inv)))
            got = step(C_t, LagrangianState(Ci_t), dt, P111).state.Ci
            expected = F0_inv.T @ Ci_new @ F0_inv
            assert np.linalg.norm(got - expected) < 5e-14 * np.linalg.norm(expected)


class TestImplicitConsistency:
    def test_pre_projection_state_solves_discrete_equation(self, rng):
        # the update is the exact root of the transformed quadratic; the
        # final determinant projection is the only deviation from it
        for _ in range(50):
            C = rand_spd(rng)
            Ci_n = rand_unimodular_spd(rng)
            dt = float(rng.uniform(0.05, 2.0))
            beta = dt * P111.c10 / P111.eta
            eps = dt * P111.c01 / P111.eta
            Cbar, Cbar_inv = _cbar(C)
            sq, isq = spd_sqrt(Cbar), spd_inv_sqrt(Cbar)
            X, _, phi = _closed_form_root(sym(isq @ Ci_n @ isq), (beta, eps), 0, "W")
            Ci_star = sym(sq @ X @ sq)  # before projection
            # phi Ci* = Ci_n + beta Cbar - eps Ci* Cbar^-1 Ci*
            resid = (
                phi * Ci_star
                - Ci_n
                - beta * Cbar
                + eps * (Ci_star @ Cbar_inv @ Ci_star)
            )
            assert np.linalg.norm(resid) < 1e-10 * max(np.linalg.norm(Ci_n), beta)
            # the step output is the unimodular rescaling of Ci*
            out = ifebm_step_lagrangian(C, LagrangianState(Ci_n), dt, P111).state.Ci
            assert np.linalg.norm(
                out / np.linalg.norm(out) - Ci_star / np.linalg.norm(Ci_star)
            ) < 1e-12


class TestReferenceSolve:
    def test_constant_identity(self):
        ref = reference_solve(
            lambda t: np.eye(3), np.eye(3), [0.0, 1.0, 2.0], P111, 16
        )
        for Ci, T in zip(ref.states, ref.stresses):
            assert np.allclose(Ci, np.eye(3), atol=1e-14)
            assert np.allclose(T, 0.0, atol=1e-14)
        assert ref.richardson_gap < 1e-14

    def test_richardson_gap_halves(self):
        from mrmaxwell.harness import LoadingProgram

        program = LoadingProgram()
        ts = np.linspace(0.0, 3.0, 7)
        g1 = reference_solve(program.C, np.eye(3), ts, P111, 64).richardson_gap
        g2 = reference_solve(program.C, np.eye(3), ts, P111, 128).richardson_gap
        assert 1.7 < g1 / g2 < 2.3

    def test_substep_validation(self):
        with pytest.raises(DomainError):
            reference_solve(lambda t: np.eye(3), np.eye(3), [0.0, 1.0], P111, 0)

    @pytest.mark.parametrize("n", [2.5, 4.0, "4", None, True])
    def test_non_integer_substeps_rejected(self, n):
        # a bool is an int, and True once ran as one substep
        with pytest.raises(DomainError, match="n_substeps must be an integer >= 1"):
            reference_solve(lambda t: np.eye(3), np.eye(3), [0.0, 1.0], P111, n)

    @pytest.mark.parametrize("t_grid", [[], np.zeros(0), np.zeros((2, 2))])
    def test_empty_grid_rejected(self, t_grid):
        with pytest.raises(DomainError, match="t_grid must be a non-empty list"):
            reference_solve(lambda t: np.eye(3), np.eye(3), t_grid, P111, 4)

    def test_decreasing_grid_rejected(self):
        # a non-finite, decreasing or repeated time is refused by name; a
        # single time is a valid grid
        for t_grid in ([0.0, math.nan], [0.0, math.inf], [1.0, 0.5], [0.0, 0.5, 0.5]):
            with pytest.raises(DomainError, match="t_grid must be finite and strictly"):
                reference_solve(lambda t: np.eye(3), np.eye(3), t_grid, P111, 4)
            ref = reference_solve(lambda t: np.eye(3), np.eye(3), t_grid[:1], P111, 4)
            assert len(ref.states) == 1


def _keyframe_history(rng):
    # a custom-keyframes program from the identity through three unimodular
    # stretches with random principal axes, on ten intervals over [0, 3]:
    # with the generator seeded [seed, 2, j], the benchmark's j-th history
    frames = [np.eye(3)] + [rand_unimodular_spd(rng, 0.5, 2.0) for _ in range(3)]
    program = LoadingProgram(
        kind="custom-keyframes", keyframes=tuple((float(k), F) for k, F in enumerate(frames))
    )
    return program.C, np.eye(3), np.linspace(0.0, 3.0, 11), P111


def _wide_history(p):
    # a stretch from a state far from it: the early substeps' W spread
    # beyond _SPREAD_MAX and take the eigen path
    def C_of_t(t):
        return np.diag([1.0 + 30.0 * t, 1.0, 1.0 / (1.0 + 30.0 * t)])

    return C_of_t, np.diag([20.0, 1.0, 1.0 / 20.0]), [0.0, 0.01, 0.5, 1.0], p


class TestOnePassRichardson:
    # the Richardson check steps the doubled solution in the same pass,
    # on the same strains; the oracle is the two separate solutions
    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("j", range(3))
    @pytest.mark.parametrize("n", [1, 25])
    def test_matches_two_solutions(self, seed, j, n):
        self._check(_keyframe_history(np.random.default_rng([seed, 2, j])), n)

    @pytest.mark.parametrize("eta", [1.0, 1e-3])
    def test_matches_two_solutions_on_eigen_path(self, eta, monkeypatch):
        calls = []
        update = cn._ci_update

        def counting(*args):
            calls.append(1)
            return update(*args)

        monkeypatch.setattr(cn, "_ci_update", counting)
        self._check(_wide_history(MaterialParams(1.0, 0.5, eta)), 5)
        assert calls

    def _check(self, history, n):
        ref = reference_solve(*history, n)
        coarse = reference_solve(*history, n, False)
        fine = reference_solve(*history, 2 * n, False)
        assert math.isnan(coarse.richardson_gap)
        for got, want in ((ref.states, coarse.states), (ref.stresses, coarse.stresses)):
            assert len(got) == len(want)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
        gap = max(float(np.linalg.norm(a - b)) for a, b in zip(coarse.stresses, fine.stresses))
        assert ref.richardson_gap == gap

    @pytest.mark.parametrize("check_richardson", [True, False])
    def test_reads_each_time_once(self, check_richardson, monkeypatch):
        # 1 + m n intervals calls, m = 2 with the check, in time order: the
        # doubled solution's substep times, the interval ends read exactly
        prepared, times = [], []
        strain = cn._strain

        def counting_strain(A, name):
            prepared.append(A)
            return strain(A, name)

        def C_of_t(t):
            times.append(t)
            return np.diag([1.0 + t, 1.0, 1.0 / (1.0 + t)])

        monkeypatch.setattr(cn, "_strain", counting_strain)
        t_grid, n = [0.0, 0.3, 1.0], 4
        cn.reference_solve(C_of_t, np.eye(3), t_grid, P111, n, check_richardson)
        m = 2 if check_richardson else 1
        assert len(times) == len(prepared) == 1 + m * n * 2
        want = [0.0]
        for t0, t1 in zip(t_grid[:-1], t_grid[1:]):
            h = (t1 - t0) / (m * n)
            want += [t0 + s * h for s in range(1, m * n)] + [t1]
        assert times == want

    @pytest.mark.parametrize("kind", ["indefinite", "nan", "skew", "1e-165"])
    @pytest.mark.parametrize("at", [0.375, 0.5])
    def test_bad_strain_refused_as_stress_2pk(self, kind, at):
        # four substeps on [0, 1]: 0.375 is read by the doubled solution
        # only, 0.5 by both; either is refused with stress_2pk's message
        C = skewed_strain()[0]
        if kind == "skew":
            C[0, 1] += 0.3
        elif kind == "nan":
            C[1, 2] = C[2, 1] = math.nan
        else:
            C = {"indefinite": np.diag([1.0, 1.0, -1.0]),
                 "1e-165": np.diag([1e-165, 1e-165, 1e250])}[kind]
        with pytest.raises(DomainError) as want:
            stress_2pk(C, np.eye(3), P111)

        def C_of_t(t):
            return C if t == at else np.eye(3)

        with pytest.raises(DomainError) as got:
            reference_solve(C_of_t, np.eye(3), [0.0, 1.0], P111, 4)
        assert str(got.value) == str(want.value)
        if at == 0.375:
            reference_solve(C_of_t, np.eye(3), [0.0, 1.0], P111, 4, False)
        else:
            with pytest.raises(DomainError, match=f"^{re.escape(str(want.value))}$"):
                reference_solve(C_of_t, np.eye(3), [0.0, 1.0], P111, 4, False)


def _eigen_march(C_of_t, t_grid, p, n_substeps):
    # the reference march with every substep on the eigen path
    Ci = np.eye(3)
    states, stresses = [Ci], [stress_2pk(C_of_t(float(t_grid[0])), Ci, p)]
    for t0, t1 in zip(t_grid[:-1], t_grid[1:]):
        h = (t1 - t0) / n_substeps
        for s in range(1, n_substeps + 1):
            Cbar = _cbar(C_of_t(t0 + s * h))[0]
            Ci = _ci_update(Ci, Cbar, _coefficients(h, p), 0)[0]
        states.append(Ci)
        stresses.append(stress_2pk(C_of_t(t1), Ci, p))
    return states, stresses


def _check_states(states):
    for Ci in states:
        assert np.isfinite(Ci).all()
        assert np.array_equal(Ci, Ci.T)
        assert abs(t3.det(Ci) - 1.0) <= 1e-12


class TestReferenceMarch:
    # the march's substeps take the polynomial form of the root on Python
    # floats; the eigen path (_ci_update) is the oracle
    @pytest.mark.parametrize("kind", ["nonproportional", "custom-keyframes", "uniaxial"])
    def test_matches_eigen_path(self, kind, rng):
        frames = [np.eye(3)] + [rand_unimodular_spd(rng, 0.5, 2.0) for _ in range(3)]
        keyframes = tuple((float(k), F) for k, F in enumerate(frames))
        program = LoadingProgram(kind=kind, keyframes=keyframes, amplitude=0.4)
        ts = np.linspace(0.0, program.t_end, 7)
        ref = reference_solve(program.C, np.eye(3), ts, P111, 150, False)
        states, stresses = _eigen_march(program.C, ts, P111, 150)
        assert history_gap(ref.states, states) <= 1e-13
        assert history_gap(ref.stresses, stresses) <= 1e-13
        # the uniaxial program's states keep a repeated eigenvalue pair
        _check_states(ref.states)

    def test_repeated_pair_takes_polynomial_form(self):
        # diagonal strains and state with a repeated pair: P's deviator has
        # a double eigenvalue, where the trigonometric formula sits at an
        # end of its range
        C, Ci = np.diag([1.44, 1.0 / 1.2, 1.0 / 1.2]), np.diag([0.81, 1 / 0.9, 1 / 0.9])
        for dt in (1e-3, 0.1, 10.0):
            beta, eps = _coefficients(dt, P111)
            a = t3.pack_sym(Ci).tolist()
            got = np.array(_march_substep(_strain(C, "C"), a, beta, eps, 0)[0])
            Cbar = _cbar(C)[0]
            want = t3.pack_sym(_ci_update(Ci, Cbar, (beta, eps), 0)[0])
            assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)
            _check_states([t3.unpack_sym(got)])

    @pytest.mark.parametrize("spread", [1.01, 0.99])
    def test_wide_spread_takes_eigen_path(self, spread, rng):
        # W = isq Ci isq with eigenvalues (r, 1, 1/r), r^2 = spread * _SPREAD_MAX
        r = math.sqrt(spread * _SPREAD_MAX)
        C = rand_spd(rng)
        Cbar = _cbar(C)[0]
        sq = spd_sqrt(Cbar)
        Q = rand_rotation(rng)
        Ci = sym(sq @ ((Q * [1.0 / r, 1.0, r]) @ Q.T) @ sq)
        Ci = sym(t3.unimodular(Ci))
        beta, eps = _coefficients(0.3, P111)
        a = t3.pack_sym(Ci).tolist()
        got = np.array(_march_substep(_strain(C, "C"), a, beta, eps, 0)[0])
        want = t3.pack_sym(_ci_update(Ci, Cbar, (beta, eps), 0)[0])
        if spread > 1.0:
            assert np.array_equal(got, want)
        else:
            assert not np.array_equal(got, want)
            assert np.linalg.norm(got - want) <= 2e-13 * np.linalg.norm(want)

    @pytest.mark.parametrize("moduli", [(1.0, 1.0), (1.0, 0.0), (0.0, 1.0)])
    @pytest.mark.parametrize("h", [1e103, 1e300])
    def test_huge_substeps_stay_finite(self, h, moduli, rng):
        # the dt -> inf limit, the unimodular strain, through the scaled
        # quadratic
        C, p = rand_spd(rng), MaterialParams(*moduli, 1.0)
        ref = reference_solve(lambda t: C, rand_unimodular_spd(rng), [0.0, h, 2 * h], p, 1)
        _check_states(ref.states)
        assert np.abs(ref.states[-1] - t3.unimodular(C)).max() < 1e-12
        assert all(np.isfinite(T).all() for T in ref.stresses)
        assert math.isfinite(ref.richardson_gap)

    @pytest.mark.parametrize(
        "bad, message",
        [(np.diag([1.0, -1.0, -1.0]), "C is not symmetric positive definite"),
         (np.diag([np.inf, 1.0, 1.0]), "C has non-finite entries"),
         (np.diag([1.0, 1.0, -1.0]), "C is not symmetric positive definite")],
        ids=["indefinite", "inf", "negative-det"],
    )
    def test_non_spd_strain_named(self, bad, message):
        # the strain at t = 0 is the identity, the substeps' strains are not
        with pytest.raises(DomainError, match=f"^{message}$"):
            reference_solve(lambda t: bad if t > 0.0 else np.eye(3), np.eye(3),
                            [0.0, 1.0], P111, 4)

    @pytest.mark.parametrize(
        "kind", ["skew", "nan", "inf", "2x2", "indefinite", "overflow", "1e-165"]
    )
    def test_bad_strain_inside_interval_refused_as_stress_2pk(self, kind):
        # a strain that is bad only between output times: each substep's
        # strain is checked, and refused as stress_2pk refuses it
        C = skewed_strain()[0]
        if kind == "skew":
            C[0, 1] += 0.3
        elif kind in ("nan", "inf"):
            C[1, 2] = C[2, 1] = float(kind)
        else:
            C = {"2x2": np.eye(2), "indefinite": np.diag([1.0, 1.0, -1.0]),
                 "overflow": 1e120 * np.eye(3),
                 "1e-165": np.diag([1e-165, 1e-165, 1e250])}[kind]
        with pytest.raises(DomainError) as want:
            stress_2pk(C, np.eye(3), P111)

        def C_of_t(t):
            return C if 0.0 < t < 1.0 else np.eye(3)

        with pytest.raises(DomainError) as got:
            reference_solve(C_of_t, np.eye(3), [0.0, 1.0], P111, 4)
        assert str(got.value) == str(want.value)


def _require_spd_oracle(C):
    # what _strain returns or the message it raises: require_spd's checks
    # made one by one (shape, finite entries, the minors of the sym(C) it
    # returns, then the skew part) in place of its one-pass accept, and the
    # minors of Cbar = C/cbrt(det C)
    if C.shape != (3, 3):
        return f"C must be a 3x3 array, got shape {C.shape}"
    c = C.ravel().tolist()
    if not all(map(math.isfinite, c)):
        return "C has non-finite entries"
    S = t3.sym(C, check=False)
    s = S.ravel().tolist()
    if not t3._is_spd9(*s):
        e = math.frexp(max(map(abs, s)))[1]
        if t3._is_spd9(*(math.ldexp(v, -e) for v in s)):
            return "det C = "
        return "C is not symmetric positive definite"
    if not t3._skew_norm_ok(C, S):
        return "C is not symmetric: skew part beyond round-off"
    r = float(np.cbrt(t3._det9(*s)))
    q = tuple(v / r for v in s)
    if not t3._is_spd9(*q):
        return "strain input is not positive definite: C has condition number"
    return q, t3._inverse9(*q), r


def _refusal_table():
    # every kind of strain require_spd refuses, with those it accepts
    C0 = rotated_strain([2.0, 1.0, 0.5])
    table = []
    for k in range(9):
        for v in (math.nan, math.inf, -math.inf):
            C = C0.copy()
            C.flat[k] = v
            table.append(C)
    skew = skewed_strain()[0]
    skew[0, 1] += 0.3
    table += [
        np.eye(2), np.ones((3, 4)), np.stack([C0, C0]), np.zeros((3, 3)),
        np.diag([1.0, -1.0, 1.0]), np.diag([1.0, 1.0, 0.0]), -C0,
        1e-110 * np.eye(3), 1e120 * np.eye(3), 1e200 * C0, 1e-200 * C0,
        np.diag([1e-165, 1e-165, 1e250]), skew, skewed_strain()[0], C0,
        C0 + 1e-12 * rotated_strain([1.0, -1.0, 0.0]), np.eye(3, dtype=int),
        # a round-off skew part whose minors pass where those of sym(C) fail
        np.array([[1.0, 0.0, 0.0], [0.0, 1.0, -4e-11], [0.0, 4e-11, -1e-22]]),
    ]
    # skew parts around the round-off bound
    for size in (1e-17, 1e-12, 1e-10, 1e-9, 1e-6):
        C = C0.copy()
        C[1, 2] += size
        table.append(C)
    return table


class TestStrainReader:
    # _strain reads every strain through require_spd, whose one-pass accept
    # takes what its checks made one by one take; with the minors of Cbar,
    # they accept the same strains and name the same causes
    @pytest.mark.parametrize("name", ["C", "C_next"])
    def test_matches_require_spd(self, name, rng):
        sweep = [rotated_strain([10.0**e, 1.0, 10.0**-e]) for e in np.linspace(2.0, 16.0, 281)]
        spd = [rand_spd(rng, 1e-3, 1e3) for _ in range(50)]
        refused = 0
        for C in _refusal_table() + sweep + spd:
            want = _require_spd_oracle(C)
            if isinstance(want, str):
                refused += 1
                with pytest.raises(DomainError) as got:
                    _strain(C, name)
                assert str(got.value).startswith(want.replace("C", name, 1))
            else:
                assert _strain(C, name) == want
        assert refused > 100


class TestNoNumpyLinalgOnPaths:
    def test_paths_call_lapack_directly(self, monkeypatch, count_eigh):
        # with numpy.linalg's eigh and solve raising, every step, tangent,
        # march and Newton path still runs: they decompose through
        # tensor3.eigh (counted) and solve through the Newton solve's gufunc
        def refused(*args, **kwargs):
            raise AssertionError("numpy.linalg called")

        monkeypatch.setattr(np.linalg, "eigh", refused)
        monkeypatch.setattr(np.linalg, "solve", refused)
        C = rotated_strain([1.5, 1.0, 0.8])
        state = LagrangianState(rotated_strain([1.2, 1.0, 1.0 / 1.2]))

        def eighs(run):
            count_eigh.clear()
            run()
            return len(count_eigh)

        assert eighs(lambda: ifebm_step_lagrangian(C, state, 0.1, P111)) == 2
        assert eighs(lambda: twoiter_step(C, state, 0.1, P111)) == 2
        assert eighs(lambda: consistent_tangent(twoiter_step, C, state, 0.1, P111)) == 1
        F = np.diag([1.2, 1.0, 1.0 / 1.2])
        eul = eulerian_state_from_lagrangian(np.eye(3), state.Ci)
        assert eighs(lambda: ifebm_step_eulerian(F, eul, 0.1, P111)) == 1
        # a state spread by 225, beyond _SPREAD_MAX, takes the eigen path
        wide = rotated_strain([15.0, 1.0, 1.0 / 15.0])
        march = lambda: reference_solve(lambda t: np.eye(3), wide, [0.0, 0.01], P111, 2)
        assert eighs(march) == 2 * (2 + 4)
        model = load_model(table_model_path())
        assert eighs(lambda: composite_step(C, model, 0.1)) == 0
        per_branch = per_call(ifebm_step_lagrangian)
        assert eighs(lambda: composite_step(C, model, 0.1, per_branch)) == 2 * 4
        for step in (mebm_step, em_step):
            d = step(C, state, 0.5, P111).diagnostics
            assert d.iterations > 0
