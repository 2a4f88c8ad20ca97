"""Single-branch material: stress laws, the five steppers, reference solver."""

import math
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
    em_step,
    eulerian_state_from_lagrangian,
    ifebm_step_eulerian,
    ifebm_step_lagrangian,
    kirchhoff_eulerian,
    mebm_step,
    quad_root_X,
    quad_root_X_subtractive,
    reference_solve,
    residual_R,
    solve_phi,
    stress_2pk,
    twoiter_step,
)
from mrmaxwell import tensor3 as t3
from mrmaxwell.constitutive import (
    _closed_form_root,
    _det_residual,
    _em_rhs,
    _fd_jacobian,
    _fd_points,
    _mebm_rhs,
    _newton_solve,
    _root_eigvals,
    _strain_parts,
)

from conftest import rand_rotation, rand_spd, rand_unimodular, rand_unimodular_spd

P111 = MaterialParams(1.0, 1.0, 1.0)


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


class TestQuadRoot:
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
            sq = t3.spd_sqrt(Cbar)
            isq = t3.spd_inv_sqrt(Cbar)
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
            Cbar, _, isq, _, _ = _strain_parts(C)
            A = sym(isq @ (Ci + dt * Cbar) @ isq)
            eps = dt * P111.c01 / P111.eta
            res_est = abs(residual_R(r1.diagnostics.phi, A, eps))
            res_newton = abs(residual_R(r2.diagnostics.phi, A, eps))
            assert res_newton < 1e-2 and res_newton < 1e-10 + 0.05 * res_est

    @pytest.mark.parametrize("eps,phi", [(0.0, 1.3), (0.8, -0.6)])
    def test_exact_slope_matches_central_difference(self, eps, phi):
        # the corrections' slope of det X(phi) - 1, at eps = 0 and on the
        # negative-phi branch of the root
        w = [0.4, 1.1, 2.7]
        _, slope = _det_residual(w, phi, eps)
        h = 1e-6 * abs(phi)
        central = (
            _det_residual(w, phi + h, eps)[0] - _det_residual(w, phi - h, eps)[0]
        ) / (2.0 * h)
        assert slope < 0.0
        assert abs(slope - central) <= 1e-6 * abs(slope)


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


def _columnwise_jacobian(rhs, x, g, delta, Ci_n, h):
    # one right-hand side per perturbed component, the loop that the
    # stacked evaluation stands in for
    J = np.empty((6, 6))
    for j in range(6):
        xp = x.copy()
        xp[j] += delta
        Cp = t3.unpack_sym(xp)
        J[:, j] = (t3.pack_sym(Cp - rhs(Cp, Ci_n, h)) - g) / delta
    return J


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

    def test_matches_columnwise_jacobian(self):
        # bit equality of the residual and the Jacobian along Newton
        # iterates, including the divergent ones of the bisecting points
        checked = 0
        for C, Ci_n in _baseline_points():
            Cbar = sym(t3.unimodular(C))
            for family in (_mebm_rhs, _em_rhs):
                for dt in (0.5, 1.0):
                    rhs = family(Cbar, P111)
                    x = t3.pack_sym(Ci_n)
                    for _ in range(4):
                        Ci = t3.unpack_sym(x)
                        delta = 1e-7 * max(np.linalg.norm(Ci), 1.0)
                        Cs = _fd_points(x, delta)
                        try:
                            value = rhs(Ci, Ci_n, dt)
                            g = t3.pack_sym(Ci - value)
                            want = _columnwise_jacobian(
                                rhs, x, g, delta, Ci_n, dt
                            )
                        except DomainError:
                            with pytest.raises(DomainError):
                                rhs(Cs, Ci_n, dt)
                            break
                        out = rhs(Cs, Ci_n, dt)
                        assert np.array_equal(out[0], value)
                        got = _fd_jacobian(Cs, out, g, delta)
                        assert np.array_equal(got, want)
                        checked += 1
                        x = x - np.linalg.solve(got, g)
        assert checked >= 60

    def test_effort_unchanged(self):
        for (C, Ci), row in zip(_baseline_points(), self.EFFORT):
            for dt, expected in zip((0.05, 0.5, 1.0), row):
                for step, want in zip((mebm_step, em_step), expected):
                    d = step(C, LagrangianState(Ci), dt, P111).diagnostics
                    assert (d.iterations, d.substeps, d.divergences) == want


class TestNewtonDomainFailures:
    I = np.eye(3)

    # the contraction Ci -> (Ci + I) / 2, refused wherever C11 > limit
    @staticmethod
    def _rhs(limit):
        def rhs(Ci, Ci_n, h):
            if (Ci[..., 0, 0] > limit).any():
                raise DomainError("outside the toy domain")
            return (Ci + np.eye(3)) / 2.0

        return rhs

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
        got = _newton_solve(lambda Ci, Ci_n, h: (Ci + D) / 2.0, self.I, 1.0)
        assert got == (None, 2)

    def test_singular_jacobian(self):
        # Ci - rhs(Ci) is constant, so the FD Jacobian is exactly zero
        got = _newton_solve(lambda Ci, Ci_n, h: Ci + 0.5 * self.I, self.I, 1.0)
        assert got == (None, 1)

    def test_non_finite_step(self):
        # sqrt(2 - C11) is NaN at the C11 + delta point of the iterate
        # C11 = 2; that point's NaN, and its warning, stay inside the solve,
        # and the NaN step it gives never becomes an iterate
        def rhs(Ci, Ci_n, h):
            if not np.isfinite(Ci[..., 1:, 1:]).all():
                raise ValueError("non-finite iterate")
            root = np.sqrt(2.0 - Ci[..., 0, 0])[..., None, None]
            return (Ci + self.I) / 2.0 + root * self.I

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _newton_solve(rhs, 2.0 * self.I, 1.0) == (None, 1)

    def test_budget_spent(self):
        # Newton on x^3 - 2x + 2 cycles 0, 1, 0, ... (here x = Ci, from 0)
        def rhs(Ci, Ci_n, h):
            return Ci - (Ci @ Ci @ Ci - 2.0 * Ci + 2.0 * self.I)

        assert _newton_solve(rhs, 0.0 * self.I, 1.0) == (None, 50)

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


class TestStackedStrainParts:
    def test_stack_equals_members(self, rng):
        C = np.array([rand_spd(rng) for _ in range(6)]).reshape(2, 3, 3, 3)
        got = _strain_parts(C)
        for i, Cm in enumerate(C.reshape(-1, 3, 3)):
            for part, want in zip(got, _strain_parts(Cm)):
                assert np.array_equal(part.reshape(-1, 3, 3)[i], want)

    def test_bad_member_raises_like_one_strain(self):
        indefinite = np.diag([1.0, -1.0, -1.0])
        for bad in (np.diag([1.0, 1.0, -1.0]), indefinite):
            with pytest.raises(DomainError) as one:
                _strain_parts(bad)
            with pytest.raises(DomainError) as stack:
                _strain_parts(np.array([np.eye(3), bad, 2.0 * bad]))
            assert str(stack.value) == str(one.value)
            assert stack.value.min_eigenvalue == one.value.min_eigenvalue


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


_FIVE_STEPPERS = {
    "ifebm": (ifebm_step_lagrangian, LagrangianState.identity),
    "2iebm": (twoiter_step, LagrangianState.identity),
    "mebm": (mebm_step, LagrangianState.identity),
    "em": (em_step, LagrangianState.identity),
    "eulerian": (ifebm_step_eulerian, EulerianState.identity),
}


class TestStepSizeValidation:
    @pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf, -0.1])
    @pytest.mark.parametrize("method", sorted(_FIVE_STEPPERS))
    def test_bad_dt_rejected_by_name(self, method, dt):
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
            X, (phi,) = _closed_form_root(W, [(beta, eps)], corrections, "W")
            w, V = np.linalg.eigh(W)
            w = (w + beta).tolist()
            phi0 = float(np.cbrt(w[0] * w[1] * w[2]))
            expect = phi0 - ((w[0] + w[1]) + w[2]) / (3.0 * phi0) * eps
            for _ in range(corrections):
                r, slope = _det_residual(w, expect, eps)
                expect -= r / slope
            x = [_root_eigvals(v, expect, eps, math.sqrt) for v in w]
            assert phi == expect
            assert np.array_equal(X, (V * x) @ V.T)


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
            Cbar, sq, isq, Cbar_inv, _ = _strain_parts(C)
            X, (phi,) = _closed_form_root(sym(isq @ Ci_n @ isq), [(beta, eps)], 0, "W")
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

    def test_decreasing_grid_rejected(self):
        with pytest.raises(DomainError, match="dt must be finite and non-negative"):
            reference_solve(lambda t: np.eye(3), np.eye(3), [1.0, 0.0], P111, 4)
