"""Consistent tangent: vector conventions, differentiation, symmetry metric."""

import numpy as np
import pytest

from mrmaxwell import (
    DomainError,
    LagrangianState,
    MaterialParams,
    consistent_tangent,
    ifebm_step_lagrangian,
    mebm_step,
    strain_to_voigt,
    stress_to_voigt,
    symmetry_deviation,
    twoiter_step,
    voigt_to_strain,
    voigt_to_stress,
)
from mrmaxwell import tensor3 as t3
from mrmaxwell.tangent import _perturbed_strains

from conftest import (
    fd_oracle,
    invalid_state,
    per_call,
    rand_spd,
    rand_unimodular_spd,
)

CLOSED_FORM = [ifebm_step_lagrangian, twoiter_step]


def exact_matches_oracle(stepper, C, state, dt, p):
    """The exact tangent, after checking it against the finite-difference
    oracle: within ten times the oracle's error estimate, or 1e-8,
    relative."""
    M = consistent_tangent(stepper, C, state, dt, p)
    T, est = fd_oracle(stepper, C, state, dt, p)
    gap = np.linalg.norm(M - T) / np.linalg.norm(T)
    assert gap <= max(10.0 * est, 1e-8), (gap, est)
    return M


def elastic_identity_tangent(c10):
    """Analytic tangent of the relaxed neo-Hookean stress at C = Ci = I.

    Linearizing T(C) = c10 (det C)^(-1/3) (I - tr(C)/3 C^-1) around the
    identity gives dT = c10 dE^D, i.e. the deviatoric projector in the
    stress/strain vector convention used here.
    """
    M = np.zeros((6, 6))
    M[:3, :3] = c10 * (np.eye(3) - np.ones((3, 3)) / 3.0)
    M[3:, 3:] = c10 / 2.0 * np.eye(3)
    return M


class TestVoigt:
    def test_round_trip_exact(self, rng):
        for _ in range(50):
            C = rand_spd(rng)
            assert np.array_equal(voigt_to_strain(strain_to_voigt(C)), C)
            T = t3.deviator(rand_spd(rng))
            assert np.array_equal(voigt_to_stress(stress_to_voigt(T)), T)

    def test_slot_order(self):
        T = np.array([[11.0, 12, 13], [12, 22, 23], [13, 23, 33]])
        assert np.array_equal(stress_to_voigt(T), [11, 22, 33, 12, 13, 23])
        assert np.array_equal(
            strain_to_voigt(T), [11, 22, 33, 24, 26, 46]
        )


    def test_stacks(self, rng):
        Cs = np.array([rand_spd(rng) for _ in range(6)]).reshape(2, 3, 3, 3)
        for to_voigt, from_voigt in (
            (stress_to_voigt, voigt_to_stress),
            (strain_to_voigt, voigt_to_strain),
        ):
            v = to_voigt(Cs)
            assert v.shape == (2, 3, 6)
            for idx in np.ndindex(2, 3):
                assert np.array_equal(v[idx], to_voigt(Cs[idx]))
            assert np.array_equal(from_voigt(v), Cs)


class TestPerturbedStrains:
    def test_entrywise_perturbation(self, rng):
        # strain-vector slot j moved by -+h is h added to a diagonal entry,
        # or h/2 to both entries of a shear pair, bit for bit
        slots = [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)]
        for _ in range(20):
            C = rand_spd(rng)
            h = float(rng.uniform(1e-7, 1e-3))
            Cs = _perturbed_strains(C, h)
            for j, (k, l) in enumerate(slots):
                d = h if k == l else h / 2.0
                for row, sign in ((j, 1.0), (j + 6, -1.0)):
                    E = C.copy()
                    E[k, l] += sign * d
                    if k != l:
                        E[l, k] += sign * d
                    assert np.array_equal(Cs[row], E)


class TestConsistentTangent:
    def test_elastic_limit_matches_analytic(self):
        p = MaterialParams(1.7, 0.0, 1.0)
        M = consistent_tangent(
            ifebm_step_lagrangian, np.eye(3), LagrangianState.identity(), 0.0, p
        )
        assert np.allclose(M, elastic_identity_tangent(1.7), atol=1e-9)

    @pytest.mark.parametrize(
        "stepper,tol",
        [
            (ifebm_step_lagrangian, 1e-12),
            (twoiter_step, 1e-12),
            # Newton stops anywhere below its tolerance, and the FD
            # quotient amplifies that truncation noise by 1/(2h)
            (mebm_step, 1e-6),
        ],
    )
    def test_symmetric_at_natural_state(self, stepper, tol):
        p = MaterialParams(1.0, 1.0, 1.0)
        M = consistent_tangent(
            stepper, np.eye(3), LagrangianState.identity(), 0.3, p
        )
        assert np.linalg.norm(M - M.T) < tol * max(np.linalg.norm(M), 1.0)

    def test_methods_agree_to_first_order(self):
        # both steppers are consistent discretizations of the same flow
        from mrmaxwell.harness import LoadingProgram

        program = LoadingProgram()
        p = MaterialParams(1.0, 1.0, 1.0)
        state = LagrangianState.identity()
        for k in range(1, 6):
            C = program.C(0.1 * k)
            state = ifebm_step_lagrangian(C, state, 0.1, p).state
        C = program.C(0.7)
        M_if = consistent_tangent(ifebm_step_lagrangian, C, state, 0.1, p)
        M_me = consistent_tangent(mebm_step, C, state, 0.1, p)
        assert np.linalg.norm(M_if - M_me) < 1e-2 * np.linalg.norm(M_me)

    def test_self_convergence_in_h(self):
        from mrmaxwell.harness import LoadingProgram

        program = LoadingProgram()
        p = MaterialParams(1.0, 1.0, 1.0)
        state = LagrangianState.identity()
        C = program.C(0.1)
        h = 1e-6 * max(np.linalg.norm(C), 1.0)
        M1 = consistent_tangent(ifebm_step_lagrangian, C, state, 0.1, p, h=h)
        M2 = consistent_tangent(ifebm_step_lagrangian, C, state, 0.1, p, h=h / 2)
        assert np.linalg.norm(M1 - M2) < 1e-8 * np.linalg.norm(M1)

    def test_shrinks_h_once_near_boundary(self):
        p = MaterialParams(1.0, 0.0, 1.0)
        C = t3.sym(np.diag([1.0, 1.0, 5e-7]), check=False)
        M = consistent_tangent(
            per_call(ifebm_step_lagrangian), C, LagrangianState.identity(), 0.0, p
        )
        assert np.isfinite(M).all()

    def test_raises_when_not_spd_after_shrink(self):
        # central differences only: the exact tangent perturbs no strain
        p = MaterialParams(1.0, 0.0, 1.0)
        C = t3.sym(np.diag([1.0, 1.0, 5e-9]), check=False)
        with pytest.raises(DomainError):
            consistent_tangent(
                per_call(ifebm_step_lagrangian), C, LagrangianState.identity(), 0.0, p
            )

    def test_bad_h_raises(self):
        with pytest.raises(DomainError):
            consistent_tangent(
                ifebm_step_lagrangian,
                np.eye(3),
                LagrangianState.identity(),
                0.1,
                MaterialParams(1.0, 1.0, 1.0),
                h=0.0,
            )


class TestLanePath:
    # ifebm and 2iebm carry the six strain slots through one step as a
    # (6, 3, 3) stack of directions; the result must match the per-call
    # finite-difference oracle

    @pytest.mark.parametrize("stepper", CLOSED_FORM)
    def test_random_points(self, stepper, rng):
        moduli = [(1.0, 1.0), (1.0, 0.0), (0.0, 1.0), (0.7, 0.3)]
        for k in range(40):
            p = MaterialParams(*moduli[k % 4], float(np.exp(rng.uniform(-3, 3))))
            dt = float(np.exp(rng.uniform(np.log(1e-3), np.log(1e3))))
            state = LagrangianState(rand_unimodular_spd(rng))
            exact_matches_oracle(stepper, rand_spd(rng), state, dt, p)

    @pytest.mark.parametrize("stepper", CLOSED_FORM)
    def test_shrink_path(self, stepper):
        # the finite differences need the h/10 shrink here, the exact
        # tangent does not
        C = t3.sym(np.diag([1.0, 1.0, 5e-7]), check=False)
        for p in (MaterialParams(1.0, 0.0, 1.0), MaterialParams(1.0, 1.0, 1.0)):
            M = exact_matches_oracle(stepper, C, LagrangianState.identity(), 0.1, p)
            assert np.isfinite(M).all()

    @pytest.mark.parametrize("stepper", CLOSED_FORM)
    @pytest.mark.parametrize("dt", [1e103, 1e300])
    def test_huge_steps(self, stepper, dt, rng):
        # beyond the threshold where the root scales its quadratic
        for moduli in ((1.0, 1.0), (1.0, 0.0), (0.0, 1.0)):
            p = MaterialParams(*moduli, 1.0)
            state = LagrangianState(rand_unimodular_spd(rng))
            exact_matches_oracle(stepper, rand_spd(rng), state, dt, p)

    @pytest.mark.parametrize("stepper", CLOSED_FORM)
    def test_tmj_branches(self, stepper):
        from mrmaxwell import load_model, table_model_path
        from mrmaxwell.harness import LoadingProgram

        program = LoadingProgram()
        for p in load_model(table_model_path()).branches:
            state = LagrangianState.identity()
            for t in np.linspace(0.0, 3.0, 11)[1:]:
                C = program.C(float(t))
                exact_matches_oracle(stepper, C, state, 0.3, p)
                state = stepper(C, state, 0.3, p).state

    @pytest.mark.parametrize("stepper", CLOSED_FORM)
    def test_bad_lane_raises(self, stepper):
        C = np.diag([1.2, 1.0, 0.9])
        bad = invalid_state(np.diag([2.0, -1.0, -0.5]))
        for wrapped in (stepper, per_call(stepper)):
            with pytest.raises(DomainError, match="lost positive definiteness"):
                consistent_tangent(wrapped, C, bad, 0.1, MaterialParams(1, 1, 1))
            with pytest.raises(DomainError, match=r"dt = 1e\+300 overflows"):
                consistent_tangent(
                    wrapped, C, LagrangianState.identity(), 1e300,
                    MaterialParams(1.0, 1.0, 1e-10),
                )

    def test_two_eigh_calls(self, count_eigh):
        # one stacked decomposition of the twelve strains, one of their
        # congruences; the per-call loop makes two per strain
        args = (np.diag([1.2, 1.0, 0.9]), LagrangianState.identity(), 0.1,
                MaterialParams(1.0, 1.0, 1.0))
        consistent_tangent(ifebm_step_lagrangian, *args)
        assert len(count_eigh) == 2
        consistent_tangent(per_call(ifebm_step_lagrangian), *args)
        assert len(count_eigh) == 2 + 24


class TestExactTangent:
    # the edges of the exact tangent: no step, the natural state and
    # repeated eigenvalues, where the divided differences would be 0/0

    MODULI = [(1.0, 1.0), (1.0, 0.0), (0.0, 1.0), (0.7, 0.3)]

    @pytest.mark.parametrize("stepper", CLOSED_FORM)
    def test_natural_state_is_analytic(self, stepper):
        # at C = Ci = I and dt = 0 both springs linearize to the deviatoric
        # projector: dT = (c10 + c01) dE^D
        for c10, c01 in self.MODULI:
            p = MaterialParams(c10, c01, 1.0)
            M = consistent_tangent(
                stepper, np.eye(3), LagrangianState.identity(), 0.0, p
            )
            want = elastic_identity_tangent(c10 + c01)
            assert np.linalg.norm(M - want) < 1e-14 * np.linalg.norm(want)

    @pytest.mark.parametrize("stepper", CLOSED_FORM)
    def test_zero_step(self, stepper, rng):
        for c10, c01 in self.MODULI:
            state = LagrangianState(rand_unimodular_spd(rng))
            exact_matches_oracle(
                stepper, rand_spd(rng), state, 0.0, MaterialParams(c10, c01, 1.0)
            )

    @pytest.mark.parametrize("stepper", CLOSED_FORM)
    def test_repeated_eigenvalues(self, stepper, rng):
        # C = Ci = I flowing, and C = diag(a, a, b) from I and from a
        # random state
        for c10, c01 in self.MODULI:
            p = MaterialParams(c10, c01, 0.5)
            exact_matches_oracle(
                stepper, np.eye(3), LagrangianState.identity(), 0.3, p
            )
            C = np.diag([1.3, 1.3, 0.6])
            for state in (
                LagrangianState.identity(),
                LagrangianState(rand_unimodular_spd(rng)),
            ):
                exact_matches_oracle(stepper, C, state, 0.3, p)

    def test_explicit_h_differences(self):
        # an explicit step asks for central differences, also of a
        # closed-form stepper
        args = (np.diag([1.2, 1.0, 0.9]), LagrangianState.identity(), 0.1,
                MaterialParams(1.0, 1.0, 1.0))
        for stepper in CLOSED_FORM:
            assert np.array_equal(
                consistent_tangent(stepper, *args, h=1e-5),
                consistent_tangent(per_call(stepper), *args, h=1e-5),
            )


class TestSymmetryDeviation:
    def test_symmetric_history_is_zero(self, rng):
        hist = []
        for _ in range(5):
            M = rng.standard_normal((6, 6))
            hist.append((M + M.T) / 2)
        assert symmetry_deviation(hist) == 0.0

    def test_scale_invariance(self, rng):
        hist = [rng.standard_normal((6, 6)) for _ in range(7)]
        d1 = symmetry_deviation(hist)
        d2 = symmetry_deviation([1234.5 * M for M in hist])
        assert d1 == pytest.approx(d2, rel=1e-12)

    def test_empty_raises(self):
        with pytest.raises(DomainError):
            symmetry_deviation([])
