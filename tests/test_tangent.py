"""Consistent tangent: vector conventions, differentiation, symmetry metric."""

import math
import re

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
from mrmaxwell import constitutive
from mrmaxwell.constitutive import _inverse_cholesky
from mrmaxwell.tangent import _perturbed_strains

from conftest import (
    fd_oracle,
    invalid_state,
    per_call,
    rand_spd,
    rand_unimodular_spd,
    rotated_strain,
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

    @pytest.mark.parametrize("h", [math.inf, math.nan])
    def test_non_finite_h_rejected_by_name(self, h):
        # before any strain is perturbed: an infinite h made every strain
        # look indefinite
        with pytest.raises(
            DomainError, match="finite-difference step h must be finite and positive"
        ):
            consistent_tangent(
                ifebm_step_lagrangian, np.eye(3), LagrangianState.identity(), 0.1,
                MaterialParams(1.0, 1.0, 1.0), h=h,
            )

    @pytest.mark.parametrize(
        "stepper,value",
        [(per_call(ifebm_step_lagrangian), math.nan), (mebm_step, math.inf)],
        ids=["nan", "inf"],
    )
    def test_non_finite_strain_rejected_by_name(self, stepper, value):
        # before any strain is perturbed: no numpy warning, no message about h
        C = np.diag([1.2, 1.0, 0.9])
        C[1, 1] = value
        with pytest.raises(DomainError, match="C_next has non-finite entries"):
            consistent_tangent(
                stepper, C, LagrangianState.identity(), 0.1, MaterialParams(1, 1, 1)
            )


class TestLanePath:
    # ifebm and 2iebm take the exact tangent in the principal basis of the
    # step; the result must match the per-call finite-difference oracle

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

    @staticmethod
    def same_outcome(stepper, *args):
        # the tangent builds and checks the step's state, so it raises the
        # step's error where the step rejects its result, and succeeds where
        # it succeeds; True on success
        try:
            stepper(*args)
        except DomainError as err:
            with pytest.raises(DomainError, match=re.escape(str(err))):
                consistent_tangent(stepper, *args)
            return False
        assert np.isfinite(consistent_tangent(stepper, *args)).all()
        return True

    @pytest.mark.parametrize("stepper", CLOSED_FORM)
    def test_raises_where_the_step_raises(self, stepper):
        # a strongly conditioned strain, whose state both accept
        args = (rotated_strain([1000.0, 1.0, 0.001]), LagrangianState.identity(),
                0.2, MaterialParams(0.7, 0.3, 0.1))
        assert self.same_outcome(stepper, *args)
        bad = invalid_state(np.diag([2.0, -1.0, -0.5]))
        assert not self.same_outcome(stepper, args[0], bad, *args[2:])
        assert not self.same_outcome(stepper, np.diag([1.0, -1.0, 1.0]), *args[1:])

    def test_cholesky_pivots(self, rng):
        # L^-1 of Cbar = L L^T from floats; a first or a last pivot <= 0 is
        # refused with the step's message
        for _ in range(20):
            A = rand_spd(rng)
            Linv = _inverse_cholesky(A.ravel().tolist(), "C")
            assert np.array_equal(Linv, np.tril(Linv))
            assert np.abs(Linv @ A @ Linv.T - np.eye(3)).max() < 1e-14
        for A in ([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                  [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 1.0]]):
            with pytest.raises(
                DomainError, match="^strain input is not positive definite: C has condition"
            ):
                _inverse_cholesky(np.ravel(A).tolist(), "C")

    @pytest.mark.parametrize("stepper", CLOSED_FORM)
    def test_state_is_checked(self, stepper, monkeypatch):
        # a root with two negative eigenvalues keeps det > 0, so only the
        # state's own check refuses it, in the step and in the tangent
        root = constitutive._root

        def indefinite(*args, **kwargs):
            x, *rest = root(*args, **kwargs)
            return ([-x[0], -x[1], x[2]], *rest)

        monkeypatch.setattr(constitutive, "_root", indefinite)
        args = (np.diag([1.2, 1.0, 0.9]), LagrangianState.identity(), 0.1,
                MaterialParams(1.0, 1.0, 1.0))
        with pytest.raises(DomainError, match="Ci is not positive definite"):
            stepper(*args)
        assert not self.same_outcome(stepper, *args)

    @pytest.mark.parametrize("stepper", CLOSED_FORM)
    def test_strongly_conditioned_sweep(self, stepper, rng):
        # strains with eigenvalues in [1e-3, 1e3] and states in [1e-2, 1e2]:
        # the step and the tangent agree on every input, and accept all
        for _ in range(100):
            C = rand_spd(rng, 1e-3, 1e3)
            state = LagrangianState(rand_unimodular_spd(rng, 1e-2, 1e2))
            c10, c01 = rng.uniform(0.0, 1.0, 2)
            p = MaterialParams(float(c10), float(c01), float(np.exp(rng.uniform(-5, 5))))
            dt = float(np.exp(rng.uniform(np.log(1e-4), np.log(1e4))))
            assert self.same_outcome(stepper, C, state, dt, p)

    def test_one_eigh_call(self, count_eigh):
        # one decomposition of the state in the strain's Cholesky basis; the
        # central differences make two per perturbed strain
        args = (np.diag([1.2, 1.0, 0.9]), LagrangianState.identity(), 0.1,
                MaterialParams(1.0, 1.0, 1.0))
        for stepper in CLOSED_FORM:
            count_eigh.clear()
            consistent_tangent(stepper, *args)
            assert len(count_eigh) == 1
            consistent_tangent(per_call(stepper), *args)
            assert len(count_eigh) == 1 + 24


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


class TestAccuracy:
    # fast flow on a strain with a spectrum spread of 1000: the tangent of a
    # step with c10 = 0, eta = 1e-3 and dt = 1e5 (eps = 1e8) against one of
    # the same algorithm (phi estimate, corrections) in 50-digit mpmath,
    # central differences with h = 1e-20 along the six strain slots.  The
    # finite-difference oracle cannot judge this: its own error estimate
    # here is 0.3 (ifebm) and 0.04 (2iebm)
    REFERENCE = {
        ifebm_step_lagrangian: [
            [1.416913509692e-08, 2.738921640442e-08, 5.756228072330e-09,
             -1.963128656821e-08, 8.974862151071e-09, -1.245121832546e-08],
            [2.738921640442e-08, 5.532023971413e-08, 1.122578418860e-08,
             -3.878587598138e-08, 1.742261752119e-08, -2.471043358686e-08],
            [5.756228072330e-09, 1.122578418860e-08, 2.516813078057e-09,
             -8.010157997129e-09, 3.785722333359e-09, -5.277959684767e-09],
            [-1.963128656821e-08, -3.878587598138e-08, -8.010157997130e-09,
             2.749362796934e-08, -1.246034188141e-08, 1.747656903774e-08],
            [8.974862151070e-09, 1.742261752119e-08, 3.785722333358e-09,
             -1.246034188141e-08, 5.793451958672e-09, -8.056924423625e-09],
            [-1.245121832546e-08, -2.471043358686e-08, -5.277959684767e-09,
             1.747656903774e-08, -8.056924423625e-09, 1.132615355400e-08],
        ],
        twoiter_step: [
            [7.181001021709e-08, 1.388156182885e-07, 2.917299669733e-08,
             -9.949517923587e-08, 4.548578391712e-08, -6.310594071791e-08],
            [1.388156182885e-07, 2.803716171613e-07, 5.689467271245e-08,
             -1.965763125923e-07, 8.830311126871e-08, -1.252392416464e-07],
            [2.917299669733e-08, 5.689467271244e-08, 1.275423066986e-08,
             -4.059693183026e-08, 1.918564777239e-08, -2.674860285637e-08],
            [-9.949517923587e-08, -1.965763125923e-07, -4.059693183026e-08,
             1.393447938245e-07, -6.315218490546e-08, 8.857654044095e-08],
            [4.548578391711e-08, 8.830311126870e-08, 1.918564777239e-08,
             -6.315218490545e-08, 2.936165603801e-08, -4.083395253234e-08],
            [-6.310594071792e-08, -1.252392416464e-07, -2.674860285638e-08,
             8.857654044096e-08, -4.083395253235e-08, 5.740335838836e-08],
        ],
    }

    @pytest.mark.parametrize("stepper", CLOSED_FORM)
    def test_fast_flow_matches_extended_precision(self, stepper):
        C = rotated_strain([40.0, 20.0, 0.04])
        M = consistent_tangent(
            stepper, C, LagrangianState.identity(), 1e5, MaterialParams(0.0, 1.0, 1e-3)
        )
        want = np.array(self.REFERENCE[stepper])
        assert np.linalg.norm(M - want) <= 1e-5 * np.linalg.norm(want)


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
