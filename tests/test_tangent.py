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

from conftest import rand_spd


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
            ifebm_step_lagrangian, C, LagrangianState.identity(), 0.0, p
        )
        assert np.isfinite(M).all()

    def test_raises_when_not_spd_after_shrink(self):
        p = MaterialParams(1.0, 0.0, 1.0)
        C = t3.sym(np.diag([1.0, 1.0, 5e-9]), check=False)
        with pytest.raises(DomainError):
            consistent_tangent(
                ifebm_step_lagrangian, C, LagrangianState.identity(), 0.0, p
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
