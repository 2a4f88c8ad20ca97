"""Generalized Maxwell model: equilibrium branch, branch assembly, uniaxial."""

import math

import numpy as np
import pytest

from mrmaxwell import (
    CompositeModel,
    DomainError,
    EquilibriumParams,
    LagrangianState,
    MaterialParams,
    composite_step,
    equilibrium_stress,
    ifebm_step_lagrangian,
    load_model,
    table_model_path,
    twoiter_step,
    uniaxial_axial_stress,
)
from mrmaxwell import tensor3 as t3
from mrmaxwell.constitutive import _closed_form_root
from mrmaxwell.harness import LoadingProgram

from conftest import (
    invalid_state,
    per_call,
    rand_spd,
    rand_unimodular_spd,
    rotated_strain,
    skewed_strain,
)

CLOSED_FORM = [ifebm_step_lagrangian, twoiter_step]


def energy(C, p):
    """Stored energy of the equilibrium branch (per unit reference
    volume); independent oracle for the stress formula."""
    Cbar = t3.unimodular(C)
    iso = 0.5 * p.c10 * (t3.trace(Cbar) - 3.0) + 0.5 * p.c01 * (
        t3.trace(t3.inverse(Cbar)) - 3.0
    )
    if p.incompressible:
        return iso
    d = t3.det(C)
    return iso + p.k / 50.0 * (d**2.5 + d**-2.5 - 2.0)


def stress_oracle(C, p, h=1e-6):
    """2 d(energy)/dC by central differences along symmetric directions."""
    T = np.zeros((3, 3))
    for i in range(3):
        for j in range(i, 3):
            E = np.zeros((3, 3))
            E[i, j] = E[j, i] = 0.5 if i != j else 1.0
            val = (energy(C + h * E, p) - energy(C - h * E, p)) / (2 * h)
            T[i, j] = T[j, i] = val
    return 2.0 * T


def uniaxial_F(strain):
    lam = 1.0 + strain
    return np.diag([lam, lam**-0.5, lam**-0.5])


EQ_INC = EquilibriumParams(0.2, 0.2, math.inf)


class TestEquilibriumStress:
    def test_identity_is_zero(self):
        assert np.allclose(equilibrium_stress(np.eye(3), EQ_INC), 0.0, atol=0)

    def test_volumetric_vanishes_on_isochoric(self, rng):
        p = EquilibriumParams(0.2, 0.2, 20.0)
        for _ in range(20):
            C = rand_unimodular_spd(rng)
            full = equilibrium_stress(C, p)
            iso = equilibrium_stress(C, EQ_INC)
            assert np.linalg.norm(full - iso) < 1e-12

    def test_volumetric_hand_value(self):
        p = EquilibriumParams(0.0, 0.0, 20.0)
        T = equilibrium_stress(1.1 * np.eye(3), p)
        d = 1.1**3
        expected = 2.0 * (d**2.5 - d**-2.5) / 1.1
        assert np.allclose(T, expected * np.eye(3), rtol=1e-12)

    def test_matches_energy_derivative(self, rng):
        for k in (20.0, math.inf):
            p = EquilibriumParams(0.3, 0.15, k)
            for _ in range(10):
                C = rand_spd(rng, 0.5, 2.0)
                if p.incompressible:
                    C = t3.sym(t3.unimodular(C), check=False)
                got = equilibrium_stress(C, p)
                ref = stress_oracle(C, p)
                assert np.linalg.norm(got - ref) < 1e-7 * max(
                    np.linalg.norm(ref), 1.0
                )

    def test_non_spd_raises(self):
        with pytest.raises(DomainError):
            equilibrium_stress(np.diag([1.0, -2.0, 1.0]), EQ_INC)

    @pytest.mark.parametrize("k", [20.0, math.inf])
    def test_asymmetric_strain(self, k):
        # a round-off skew part is removed, a larger one refused by name
        p = EquilibriumParams(0.3, 0.15, k)
        C, _ = skewed_strain()
        want = equilibrium_stress(t3.sym(C, check=False), p)
        assert np.array_equal(equilibrium_stress(C, p), want)
        C[0, 1] += 0.3
        with pytest.raises(DomainError, match="C is not symmetric"):
            equilibrium_stress(C, p)

    @pytest.mark.parametrize("s", [1e-70, 1e-50, 1e80, 1e100, 1e200])
    def test_volume_ratio_out_of_range(self, s):
        # (det C)^(+-5/2) overflows, and at 1e200 det C itself: refused by
        # the volume ratio; the incompressible stress has no such power
        # and stays finite wherever det C does
        C = s * np.eye(3)
        with pytest.raises(DomainError, match="volume ratio det C"):
            equilibrium_stress(C, EquilibriumParams(1.0, 1.0, 1.0))
        if s < 1e200:
            assert np.isfinite(equilibrium_stress(C, EQ_INC)).all()
        else:
            with pytest.raises(DomainError, match="volume ratio det C = inf"):
                equilibrium_stress(C, EQ_INC)


class TestEquilibriumParams:
    # zero moduli stay allowed: the tests above use a zero equilibrium branch
    @pytest.mark.parametrize(
        "c10, c01", [(math.nan, 1.0), (math.inf, 1.0), (1.0, -math.inf), (-0.1, 0.2)]
    )
    def test_bad_moduli_rejected_by_name(self, c10, c01):
        with pytest.raises(DomainError, match="c10 = .*, c01 = "):
            EquilibriumParams(c10, c01, math.inf)


class TestCompositeStep:
    def test_all_relaxed_zero_stress(self):
        model = load_model(table_model_path())
        res = composite_step(np.eye(3), model, 0.01)
        assert np.allclose(res.total_stress, 0.0, atol=1e-15)

    def test_single_branch_reduces_to_constitutive(self, rng):
        p = MaterialParams(0.4, 0.3, 2.0)
        model = CompositeModel.relaxed(EquilibriumParams(0.0, 0.0, math.inf), [p])
        C = rand_spd(rng)
        res = composite_step(C, model, 0.25)
        direct = ifebm_step_lagrangian(C, LagrangianState.identity(), 0.25, p)
        assert np.array_equal(res.total_stress, direct.stress)
        assert np.array_equal(res.model.states[0].Ci, direct.state.Ci)

    def test_branch_order_irrelevant(self, rng):
        branches = [
            MaterialParams(0.25, 0.25, 25.0),
            MaterialParams(0.36, 0.36, 0.144),
            MaterialParams(1.25, 1.25, 0.005),
        ]
        C = rand_spd(rng)
        res_a = composite_step(C, CompositeModel.relaxed(EQ_INC, branches), 0.01)
        res_b = composite_step(
            C, CompositeModel.relaxed(EQ_INC, branches[::-1]), 0.01
        )
        # identical branch stresses, independent of ordering
        sorted_a = sorted(res_a.branch_stresses, key=lambda T: T[0, 0])
        sorted_b = sorted(res_b.branch_stresses, key=lambda T: T[0, 0])
        for Ta, Tb in zip(sorted_a, sorted_b):
            assert np.array_equal(Ta, Tb)

    def test_alternate_branch_stepper(self, rng):
        from mrmaxwell import twoiter_step

        p = MaterialParams(0.4, 0.3, 2.0)
        model = CompositeModel.relaxed(EquilibriumParams(0.0, 0.0, math.inf), [p])
        C = rand_spd(rng)
        res = composite_step(C, model, 0.25, stepper=twoiter_step)
        direct = twoiter_step(C, LagrangianState.identity(), 0.25, p)
        assert np.array_equal(res.total_stress, direct.stress)

    def test_infinite_viscosity_freezes_states(self, rng):
        branches = [MaterialParams(0.5, 0.5, 1e300)]
        model = CompositeModel.relaxed(EQ_INC, branches)
        for _ in range(5):
            C = rand_spd(rng)
            res = composite_step(C, model, 10.0)
            assert np.linalg.norm(res.model.states[0].Ci - np.eye(3)) < 1e-12
            model = res.model


class TestLanePath:
    # ifebm and 2iebm step the branches as one stack; every output must
    # equal that of the per-call loop bit for bit

    @staticmethod
    def both(C, model, dt, stepper):
        lanes = composite_step(C, model, dt, stepper)
        loop = composite_step(C, model, dt, per_call(stepper))
        for a, b in (
            (lanes.total_stress, loop.total_stress),
            (lanes.equilibrium_part, loop.equilibrium_part),
            *zip(lanes.branch_stresses, loop.branch_stresses),
            *((x.Ci, y.Ci) for x, y in zip(lanes.model.states, loop.model.states)),
        ):
            assert np.array_equal(a, b)
        assert lanes.branch_diagnostics == loop.branch_diagnostics
        assert all(d.det_residual >= 0.0 for d in lanes.branch_diagnostics)
        assert len(lanes.branch_stresses) == len(model.branches)
        return lanes

    @pytest.mark.parametrize("stepper", CLOSED_FORM)
    def test_tmj_march(self, stepper):
        program = LoadingProgram()
        model = load_model(table_model_path())
        for t in np.linspace(0.0, 3.0, 31)[1:]:
            model = self.both(program.C(float(t)), model, 0.1, stepper).model

    @pytest.mark.parametrize("stepper", CLOSED_FORM)
    def test_random_branches(self, stepper, rng):
        # each branch with its own moduli, viscosity and state
        moduli = [(1.0, 1.0), (1.0, 0.0), (0.0, 1.0), (0.7, 0.3), (0.2, 0.9)]
        for k in range(20):
            branches = [
                MaterialParams(c10, c01, float(np.exp(rng.uniform(-3, 3))))
                for c10, c01 in moduli[: 1 + k % 5]
            ]
            states = [LagrangianState(rand_unimodular_spd(rng)) for _ in branches]
            model = CompositeModel(
                EquilibriumParams(0.2, 0.1, 20.0), tuple(branches), tuple(states)
            )
            dt = float(np.exp(rng.uniform(np.log(1e-3), np.log(1e3))))
            self.both(rand_spd(rng), model, dt, stepper)

    @pytest.mark.parametrize("stepper", CLOSED_FORM)
    @pytest.mark.parametrize("dt", [1e103, 1e300])
    def test_huge_steps(self, stepper, dt, rng):
        branches = (
            MaterialParams(1.0, 1.0, 1.0),
            MaterialParams(1.0, 0.0, 2.0),
            MaterialParams(0.0, 1.0, 0.5),
        )
        states = tuple(LagrangianState(rand_unimodular_spd(rng)) for _ in branches)
        self.both(rand_spd(rng), CompositeModel(EQ_INC, branches, states), dt, stepper)

    @pytest.mark.parametrize("stepper", CLOSED_FORM)
    def test_zero_branches(self, stepper, rng):
        model = CompositeModel.relaxed(EquilibriumParams(0.2, 0.1, 20.0), [])
        res = self.both(rand_spd(rng), model, 0.1, stepper)
        assert res.branch_diagnostics == ()

    @pytest.mark.parametrize("stepper", CLOSED_FORM)
    def test_bad_lane_raises(self, stepper):
        C = np.diag([1.2, 1.0, 0.9])
        ok = MaterialParams(1.0, 1.0, 1.0)
        # the second branch's state is indefinite, or its dt c10/eta overflows
        indefinite = invalid_state(np.diag([2.0, -1.0, -0.5]))
        bad_state = CompositeModel(
            EQ_INC, (ok, ok), (LagrangianState.identity(), indefinite)
        )
        bad_params = CompositeModel.relaxed(EQ_INC, [ok, MaterialParams(1, 1, 1e-10)])
        for wrapped in (stepper, per_call(stepper)):
            with pytest.raises(DomainError, match="lost positive definiteness"):
                composite_step(C, bad_state, 0.1, wrapped)
            with pytest.raises(DomainError, match=r"dt = 1e\+300 overflows"):
                composite_step(C, bad_params, 1e300, wrapped)

    def test_lanes_need_one_coefficient_pair_each(self):
        # a stack of two lanes with one (beta, eps) is refused, not shared
        W = np.array([np.eye(3), 2.0 * np.eye(3)])
        with pytest.raises(ValueError):
            _closed_form_root(W, [(0.1, 0.1)], 0, "W")
        X, diagnostics = _closed_form_root(W, [(0.1, 0.1)] * 2, 0, "W")
        assert len(diagnostics) == 2 and X.shape == (2, 3, 3)

    def test_strain_prepared_once(self, count_eigh):
        # one decomposition of the shared strain and one of the four
        # branches' congruences; the per-call loop makes two per branch
        model = load_model(table_model_path())
        C = np.diag([1.2, 1.0, 1.0 / 1.2])
        composite_step(C, model, 0.1)
        assert len(count_eigh) == 2
        composite_step(C, model, 0.1, per_call(ifebm_step_lagrangian))
        assert len(count_eigh) == 2 + 8


class TestUniaxial:
    def test_zero_strain_zero_stress(self):
        model = load_model(table_model_path())
        Fs = [np.eye(3)] * 10
        stress, _ = uniaxial_axial_stress(model, Fs, 0.01)
        assert np.allclose(stress, 0.0, atol=1e-14)

    def test_small_strain_modulus(self):
        # incompressible elastic modulus E = 3 (c10 + c01)
        model = CompositeModel.relaxed(EQ_INC, [])
        e = 1e-6
        up, _ = uniaxial_axial_stress(model, [np.eye(3), uniaxial_F(e)], 1.0)
        dn, _ = uniaxial_axial_stress(model, [np.eye(3), uniaxial_F(-e)], 1.0)
        slope = (up[1] - dn[1]) / (2 * e)
        assert slope == pytest.approx(3 * (0.2 + 0.2), rel=1e-5)

    def test_relaxation_hold(self):
        p = MaterialParams(0.3, 0.3, 1.5)
        model = CompositeModel.relaxed(EquilibriumParams(0.0, 0.0, math.inf), [p])
        tau = p.eta / (p.c10 + p.c01)
        n = 1000
        dt = 5 * tau / n
        Fs = [uniaxial_F(0.2)] * (n + 1)
        stress, _ = uniaxial_axial_stress(model, Fs, dt)
        mags = np.abs(stress)
        assert all(np.diff(mags) <= 1e-12)  # monotone decay
        assert mags[-1] < 0.05 * mags[0]

    def test_branch_in_a_wide_state(self):
        # the first sample's stress law accepts every state LagrangianState
        # accepts, here one whose det misses 1 by more than 1e-12
        wide = rotated_strain([1000.0, 1.0, 0.001])
        assert abs(t3.det(wide) - 1.0) > 1e-12
        branch = MaterialParams(0.3, 0.3, 1.5)
        model = CompositeModel(EQ_INC, (branch,), (LagrangianState(wide),))
        stress, _ = uniaxial_axial_stress(model, [np.eye(3)], 0.1)
        assert np.isfinite(stress).all()

    def test_rejects_non_uniaxial(self):
        model = load_model(table_model_path())
        F_bad = np.array([[1.2, 0.1, 0], [0, 1.0, 0], [0, 0, 0.9]])
        with pytest.raises(DomainError):
            uniaxial_axial_stress(model, [F_bad], 0.1)

    def test_rejects_compressible_model(self):
        model = CompositeModel.relaxed(EquilibriumParams(0.2, 0.2, 20.0), [])
        with pytest.raises(DomainError):
            uniaxial_axial_stress(model, [np.eye(3)], 0.1)


class TestModelFile:
    def test_bundled_parameters(self):
        model = load_model(table_model_path())
        assert model.equilibrium.c10 == 0.2 and model.equilibrium.c01 == 0.2
        assert model.equilibrium.incompressible
        assert [b.c10 for b in model.branches] == [0.25, 0.25, 0.36, 1.25]
        assert [b.c01 for b in model.branches] == [0.25, 0.25, 0.36, 1.25]
        assert [b.eta for b in model.branches] == [25.0, 5.0, 0.144, 0.005]
        for st in model.states:
            assert np.array_equal(st.Ci, np.eye(3))

    def test_numeric_bulk_modulus(self):
        model = load_model(
            {
                "equilibrium": {"c10": 0.2, "c01": 0.2, "k": 20.0},
                "branches": [{"c10": 1.0, "c01": 0.5, "eta": 2.0}],
            }
        )
        assert model.equilibrium.k == 20.0
        assert not model.equilibrium.incompressible

    def test_malformed_raises(self):
        with pytest.raises(DomainError):
            load_model({"equilibrium": {"c10": 0.2}, "branches": []})

    @pytest.mark.parametrize("c10", ["NaN", "Infinity"])
    def test_non_finite_moduli_rejected(self, c10, tmp_path):
        # Python's json reads NaN and Infinity as floats
        path = tmp_path / "model.json"
        path.write_text(
            f'{{"equilibrium": {{"c10": {c10}, "c01": 1.0, "k": "incompressible"}},'
            ' "branches": [{"c10": 1.0, "c01": 1.0, "eta": 1.0}]}'
        )
        with pytest.raises(DomainError, match="c10 = (nan|inf)"):
            load_model(str(path))
