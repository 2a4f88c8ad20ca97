"""Generalized Maxwell model: equilibrium branch, branch assembly, uniaxial."""

import math
import re

import numpy as np
import pytest

from mrmaxwell import (
    CompositeModel,
    DomainError,
    EquilibriumParams,
    LagrangianState,
    MaterialParams,
    composite_step,
    consistent_tangent,
    em_step,
    equilibrium_stress,
    ifebm_step_lagrangian,
    load_model,
    mebm_step,
    table_model_path,
    twoiter_step,
    uniaxial_axial_stress,
)
from mrmaxwell import composite
from mrmaxwell import constitutive as cn
from mrmaxwell.cli import main as cli_main
from mrmaxwell import tensor3 as t3
from mrmaxwell.constitutive import _SPREAD_MAX, stress_2pk
from mrmaxwell.harness import LoadingProgram

from conftest import (
    history_gap,
    invalid_state,
    per_call,
    rand_rotation,
    rand_spd,
    rand_unimodular_spd,
    rotated_strain,
    skewed_strain,
    spd_sqrt,
)

CLOSED_FORM = [ifebm_step_lagrangian, twoiter_step]

# The composite steps the branches of the closed-form steppers on floats
# (the reference march's update), the per-call loop on the eigen path.  Over
# 16,300 random composites of TestLanePath's distributions the largest gaps
# were: states 8.5e-15 relative; branch stresses 7.6e-14 of (c10 + c01)
# ||C^-1||; totals 7.3e-14 of the sum of those; phi 2.6e-13 of max(|phi|, 1);
# det residuals 7.4e-14 of 1 + r.  The bounds keep a margin of at least 11.
STATE_GAP, STRESS_GAP, PHI_GAP, DET_GAP = 1e-13, 1e-12, 5e-12, 1e-12


def assert_matches_per_call(res, ref, model, C):
    """``res`` within the bounds above of ``ref``, the per-call loop's
    result; the same equilibrium part and the same counts."""
    assert np.array_equal(res.equilibrium_part, ref.equilibrium_part)
    assert len(res.branch_stresses) == len(model.branches)
    scale, total = t3.norm(t3.inverse(C)), 0.0
    for p, x, y, Tx, Ty, dx, dy in zip(
        model.branches, res.model.states, ref.model.states,
        res.branch_stresses, ref.branch_stresses,
        res.branch_diagnostics, ref.branch_diagnostics,
    ):
        s = (p.c10 + p.c01) * scale
        total += s
        assert t3.norm(x.Ci - y.Ci) <= STATE_GAP * t3.norm(y.Ci)
        assert t3.norm(Tx - Ty) <= STRESS_GAP * s
        counts = ("iterations", "substeps", "divergences")
        assert [getattr(dx, k) for k in counts] == [getattr(dy, k) for k in counts]
        assert dx.phi == dy.phi or abs(dx.phi - dy.phi) <= PHI_GAP * max(abs(dy.phi), 1.0)
        assert abs(dx.det_residual - dy.det_residual) <= DET_GAP * (1.0 + dy.det_residual)
        assert dx.det_residual >= 0.0
    assert t3.norm(res.total_stress - ref.total_stress) <= STRESS_GAP * total


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

    def test_skew_twin_gives_the_same_bits(self):
        # a strain with a one-ulp skew part reads as its symmetrized twin, the
        # volume ratio too: det C of the strain as passed differed from it
        rng = np.random.default_rng(11)
        p = EquilibriumParams(0.7, 0.3, 2.0)
        for _ in range(3000):
            C = rand_spd(rng)
            C[0, 1] = np.nextafter(C[0, 1], math.inf)
            want = equilibrium_stress(t3.sym(C, check=False), p)
            assert np.array_equal(equilibrium_stress(C, p), want)

    @pytest.mark.parametrize("s", [1e-70, 1e-50, 1e80, 1e100, 1e200])
    def test_volume_ratio_out_of_range(self, s):
        # (det C)^(+-5/2) overflows: refused by the volume ratio; the
        # incompressible stress has no such power and stays finite wherever
        # det C does.  At 1e200 det C itself overflows, refused for both
        C = s * np.eye(3)
        if s < 1e200:
            with pytest.raises(DomainError, match="volume ratio det C"):
                equilibrium_stress(C, EquilibriumParams(1.0, 1.0, 1.0))
            assert np.isfinite(equilibrium_stress(C, EQ_INC)).all()
            return
        for p in (EquilibriumParams(1.0, 1.0, 1.0), EQ_INC):
            with pytest.raises(DomainError, match=r"det C = 1\.000e\+600 is out of"):
                equilibrium_stress(C, p)

    def test_largest_volume_ratio_refused_by_name(self):
        # det C is the largest float, whose volume ratio r^3 = det C, from
        # r = cbrt(det C), overflows as a float power
        C = np.diag([1.0, 1.0, np.finfo(float).max])
        with pytest.raises(DomainError, match=r"^volume ratio det C = 1\.798e\+308 is out of"):
            equilibrium_stress(C, EquilibriumParams(1.0, 1.0, 1.0))

    def test_volumetric_product_overflow_refused(self):
        # (det C)^(-5/2) = 1e300 is finite, its product with C^-1 ~ 1e40 is
        # not: refused by the volume ratio, where it was returned as an inf
        # stress (and added to the composite's total)
        C = 1e-40 * rotated_strain([2.0, 1.0, 0.5])
        p = EquilibriumParams(1.0, 0.5, 2.0)
        with pytest.raises(DomainError, match=r"^volume ratio det C = 1\.000e-120 is out of"):
            equilibrium_stress(C, p)
        model = CompositeModel.relaxed(p, load_model(table_model_path()).branches)
        with pytest.raises(DomainError, match="^volume ratio det C"):
            composite_step(C, model, 0.1)


_P = MaterialParams(0.4, 0.3, 2.0)
_CALLS = {
    "equilibrium_stress": lambda C: equilibrium_stress(C, EquilibriumParams(1, 1, 1.0)),
    "stress_2pk": lambda C: stress_2pk(C, np.eye(3), _P),
    "ifebm_step_lagrangian": lambda C: ifebm_step_lagrangian(
        C, LagrangianState.identity(), 0.1, _P
    ),
    "composite_step": lambda C: composite_step(C, load_model(table_model_path()), 0.1),
}


@pytest.mark.parametrize("call", sorted(_CALLS))
@pytest.mark.parametrize(
    "C, det",
    [
        (1e-110 * np.eye(3), "1.000e-330"),
        (1e-200 * np.eye(3), "1.000e-600"),
        (1e120 * np.eye(3), "1.000e+360"),
        (1e200 * (np.eye(3) + 1e-3), "1.003e+600"),
        (np.diag([1.0, -1.0, 1.0]), None),
        (1e200 * np.diag([1.0, -1.0, 1.0]), None),
    ],
)
def test_determinant_out_of_float_range(call, C, det):
    # a definite strain whose determinant (or a leading minor) under- or
    # overflows is refused by its determinant; an indefinite one (det None),
    # at any scale, as not definite
    if det is None:
        message = "C(_next)? is not symmetric positive definite"
    else:
        message = rf"det C(_next)? = {re.escape(det)} is out of float range"
    with pytest.raises(DomainError, match=message):
        _CALLS[call](C)


def test_rejected_strain_named():
    # beyond a condition number near 1e12 the strain's determinant is rounding
    # noise: require_spd (on C) or the minors of Cbar = C/cbrt(det C) refuse
    # it by chance, and either names the argument; the second also gives the
    # condition number.  Spectra (10^e, 1, 10^-e), e in [6, 8]
    state, p = LagrangianState.identity(), MaterialParams(0.4, 0.3, 2.0)
    model = load_model(table_model_path())
    calls = {
        "stress_2pk": ("C", lambda C: stress_2pk(C, np.eye(3), p)),
        "ifebm_step_lagrangian": ("C_next", lambda C: ifebm_step_lagrangian(C, state, 0.1, p)),
        "consistent_tangent": (
            "C_next", lambda C: consistent_tangent(ifebm_step_lagrangian, C, state, 0.1, p)
        ),
        "composite_step": ("C_next", lambda C: composite_step(C, model, 0.1)),
    }
    for function, (name, call) in calls.items():
        with pytest.raises(DomainError, match=rf"^{name} is not symmetric positive definite$"):
            call(rotated_strain([1e8, 1.0, 1e-8]))
        message = (
            rf"{name} is not symmetric positive definite|strain input is not "
            rf"positive definite: {name} has condition number \d\.\de\+\d\d"
        )
        by_minors = 0
        for e in np.linspace(6.0, 8.0, 41):
            try:
                call(rotated_strain([10.0**e, 1.0, 10.0**-e]))
            except DomainError as err:
                # a refusal of the strain (not of the stress or the state)
                if str(err).startswith("strain input") or str(err).split()[0] in ("C", "C_next"):
                    assert re.fullmatch(message, str(err)), function
                    by_minors += str(err).startswith("strain input")
        assert by_minors > 0, function


class TestEquilibriumParams:
    # zero moduli stay allowed: the tests above use a zero equilibrium branch
    @pytest.mark.parametrize(
        "c10, c01", [(math.nan, 1.0), (math.inf, 1.0), (1.0, -math.inf), (-0.1, 0.2)]
    )
    def test_bad_moduli_rejected_by_name(self, c10, c01):
        with pytest.raises(DomainError, match="c10 = .*, c01 = "):
            EquilibriumParams(c10, c01, math.inf)

    @pytest.mark.parametrize("field", ["c10", "c01", "k"])
    def test_bool_refused_by_name(self, field):
        # True and False passed the checks as the numbers 1 and 0
        values = {"c10": 1.0, "c01": 1.0, "k": math.inf, field: True}
        with pytest.raises(DomainError, match=f"^{field} must be a number, got True$"):
            EquilibriumParams(**values)
        with pytest.raises(DomainError, match="^c10 must be a number, got True$"):
            EquilibriumParams(True, False, True)

    @pytest.mark.parametrize("value", [np.True_, None])
    @pytest.mark.parametrize("field", ["c10", "c01", "k"])
    def test_non_number_refused_by_name(self, field, value):
        # NumPy's bool passed the checks as the number 1; None leaked a TypeError
        values = {"c10": 1.0, "c01": 1.0, "k": math.inf, field: value}
        message = f"^{field} must be a number, got {re.escape(repr(value))}$"
        with pytest.raises(DomainError, match=message):
            EquilibriumParams(**values)


class TestCompositeStep:
    def test_all_relaxed_zero_stress(self):
        model = load_model(table_model_path())
        res = composite_step(np.eye(3), model, 0.01)
        assert np.allclose(res.total_stress, 0.0, atol=1e-15)

    @pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf, -0.1, True, np.True_])
    @pytest.mark.parametrize("branches", [0, 4])
    def test_bad_dt_refused(self, dt, branches):
        # with no branch to step, a bad dt used to pass unseen; a bool
        # stepped every branch as dt = 1
        model = load_model(table_model_path())
        model = CompositeModel.relaxed(model.equilibrium, model.branches[:branches])
        message = f"dt must be finite and non-negative, got {dt!r}"
        with pytest.raises(DomainError, match=re.escape(message)):
            composite_step(np.eye(3), model, dt)

    def test_single_branch_reduces_to_constitutive(self, rng):
        p = MaterialParams(0.4, 0.3, 2.0)
        model = CompositeModel.relaxed(EquilibriumParams(0.0, 0.0, math.inf), [p])
        C = rand_spd(rng)
        ref = composite_step(C, model, 0.25, per_call(ifebm_step_lagrangian))
        direct = ifebm_step_lagrangian(C, LagrangianState.identity(), 0.25, p)
        assert np.array_equal(ref.total_stress, direct.stress)
        assert np.array_equal(ref.model.states[0].Ci, direct.state.Ci)
        assert_matches_per_call(composite_step(C, model, 0.25), ref, model, C)

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
        assert res.branch_diagnostics[0].iterations == 2
        scale = (p.c10 + p.c01) * t3.norm(t3.inverse(C))
        assert t3.norm(res.total_stress - direct.stress) <= STRESS_GAP * scale

    def test_infinite_viscosity_freezes_states(self, rng):
        branches = [MaterialParams(0.5, 0.5, 1e300)]
        model = CompositeModel.relaxed(EQ_INC, branches)
        for _ in range(5):
            C = rand_spd(rng)
            res = composite_step(C, model, 10.0)
            assert np.linalg.norm(res.model.states[0].Ci - np.eye(3)) < 1e-12
            model = res.model


class TestLanePath:
    # ifebm and 2iebm step each branch through the march's float root;
    # every output must stay within the bounds of assert_matches_per_call

    @staticmethod
    def both(C, model, dt, stepper):
        res = composite_step(C, model, dt, stepper)
        ref = composite_step(C, model, dt, per_call(stepper))
        assert_matches_per_call(res, ref, model, C)
        return res

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
        # the second branch's state is indefinite, or its dt c10/eta overflows.
        # The float path's root refuses the state; a per-call stepper gets the
        # state rebuilt from its upper triangle, which the state's own check
        # refuses first
        indefinite = invalid_state(np.diag([2.0, -1.0, -0.5]))
        bad_state = CompositeModel(
            EQ_INC, (ok, ok), (LagrangianState.identity(), indefinite)
        )
        bad_params = CompositeModel.relaxed(EQ_INC, [ok, MaterialParams(1, 1, 1e-10)])
        for wrapped, message in (
            (stepper, "quadratic input lost positive definiteness"),
            (per_call(stepper), "Ci is not positive definite"),
        ):
            with pytest.raises(DomainError, match=message):
                composite_step(C, bad_state, 0.1, wrapped)
            with pytest.raises(DomainError, match=r"dt = 1e\+300 overflows"):
                composite_step(C, bad_params, 1e300, wrapped)

    def test_strain_prepared_once(self, count_eigh, monkeypatch):
        # the branch loop's float steps decompose nothing; a per-call stepper
        # makes two eigh calls per branch
        model = load_model(table_model_path())
        C = np.diag([1.2, 1.0, 1.0 / 1.2])
        composite_step(C, model, 0.1)
        assert len(count_eigh) == 0
        composite_step(C, model, 0.1, per_call(ifebm_step_lagrangian))
        assert len(count_eigh) == 8
        # every path reads the strain once (_strain), the exact tangent and
        # each march substep included, and checks it once (require_spd), the
        # same whether it is exactly symmetric or has a round-off skew part
        # that require_spd removes.  The stress law
        # inverts no tensor, so neither does a composite step or the
        # equilibrium (which once inverted Ci = I)
        prepared, checked, inverted = [], [], []
        strain, require_spd, inverse = cn._strain, t3.require_spd, t3.inverse

        def counting_strain(A, name):
            prepared.append(A)
            return strain(A, name)

        def counting_check(A, name="tensor"):
            checked.append(A is C)
            return require_spd(A, name)

        def counting_inverse(A):
            inverted.append(A)
            return inverse(A)

        for module in (cn, composite):
            monkeypatch.setattr(module, "_strain", counting_strain)
        monkeypatch.setattr(t3, "require_spd", counting_check)
        monkeypatch.setattr(t3, "inverse", counting_inverse)
        monkeypatch.setattr(cn, "inverse", counting_inverse)
        state, p = LagrangianState.identity(), model.branches[3]
        calls = {
            "composite_step": lambda: composite_step(C, model, 0.1),
            "ifebm": lambda: ifebm_step_lagrangian(C, state, 0.1, p),
            "2iebm": lambda: twoiter_step(C, state, 0.1, p),
            "tangent": lambda: consistent_tangent(twoiter_step, C, state, 0.1, p),
            "ifebm tangent": lambda: consistent_tangent(ifebm_step_lagrangian, C, state, 0.1, p),
            "mebm": lambda: mebm_step(C, state, 0.1, p),
            "em": lambda: em_step(C, state, 0.1, p),
            "stress_2pk": lambda: stress_2pk(C, np.eye(3), p),
            "equilibrium_stress": lambda: equilibrium_stress(C, model.equilibrium),
        }
        for C in (np.diag([1.2, 1.0, 1.0 / 1.2]), skewed_strain()[0]):
            for name, call in calls.items():
                prepared.clear()
                checked.clear()
                inverted.clear()
                call()
                assert len(prepared) == 1 and prepared[0] is C, name
                assert checked.count(True) == 1, name
                if name in ("composite_step", "equilibrium_stress"):
                    assert not inverted, name
        # a uniaxial history reads each sample's strain once, for the
        # equilibrium and all four branches: the first sample's stresses and
        # each step of the branch loop it shares with composite_step
        prepared.clear()
        uniaxial_axial_stress(model, [uniaxial_F(0.2)], 0.1)
        assert len(prepared) == 1
        prepared.clear()
        uniaxial_axial_stress(model, [uniaxial_F(0.2), uniaxial_F(0.3), uniaxial_F(0.1)], 0.1)
        assert len(prepared) == 3
        # a march reads C_of_t once per substep, the last of an interval at its
        # output time, and once at the first time
        times = []

        def C_of_t(t):
            times.append(t)
            return np.diag([1.0 + t, 1.0, 1.0 / (1.0 + t)])

        prepared.clear()
        cn.reference_solve(C_of_t, np.eye(3), [0.0, 0.3, 1.0], p, 4, False)
        assert len(times) == len(prepared) == 2 * 4 + 1
        assert times[0] == 0.0 and times[4] == 0.3 and times[8] == 1.0

    @pytest.mark.parametrize("stepper", CLOSED_FORM)
    def test_wide_branch_takes_the_eigen_step(self, stepper, count_eigh, rng):
        # a branch whose W = isq Ci isq spreads beyond _SPREAD_MAX takes the
        # per-call step itself, bit for bit, with its two eigh calls
        C = rand_spd(rng)
        sq = spd_sqrt(t3.unimodular(C))
        r = math.sqrt(1.01 * _SPREAD_MAX)
        Q = rand_rotation(rng)
        wide = t3.sym(sq @ ((Q * [1.0 / r, 1.0, r]) @ Q.T) @ sq, check=False)
        wide = LagrangianState(t3.sym(t3.unimodular(wide), check=False))
        p = MaterialParams(0.7, 0.3, 0.5)
        model = CompositeModel(EQ_INC, (p, p), (LagrangianState.identity(), wide))
        count_eigh.clear()
        res = composite_step(C, model, 0.3, stepper)
        assert len(count_eigh) == 2
        want = stepper(C, wide, 0.3, p)
        assert np.array_equal(res.model.states[1].Ci, want.state.Ci)
        assert np.array_equal(res.branch_stresses[1], want.stress)
        assert res.branch_diagnostics[1] == want.diagnostics


def wide_tmj_model():
    """The bundled model with its slowest branch first in a state whose
    congruence spreads beyond _SPREAD_MAX (225 at C = I), so the branch loop
    steps it on the eigen path through a cycle."""
    model = load_model(table_model_path())
    states = (LagrangianState(rotated_strain([15.0, 1.0, 1.0 / 15.0])),) + model.states[1:]
    return CompositeModel(model.equilibrium, model.branches, states)


def uniaxial_cycle(n):
    program = LoadingProgram(kind="uniaxial", cycles=1)
    return [program.F(float(t)) for t in np.linspace(0.0, program.t_end, n + 1)], program.t_end / n


class TestUniaxial:
    @pytest.mark.parametrize(
        "stepper",
        [ifebm_step_lagrangian, twoiter_step, mebm_step, per_call(ifebm_step_lagrangian)],
        ids=["ifebm", "2iebm", "mebm", "per_call-ifebm"],
    )
    def test_matches_a_composite_step_loop(self, stepper, count_eigh):
        # the march and composite_step share the branch loop: the stresses
        # and the returned states equal a hand loop of composite_step bit for
        # bit, the first sample's stress that of the public stress laws
        Fs, dt = uniaxial_cycle(40)
        model = wide_tmj_model()
        count_eigh.clear()
        got, got_model = uniaxial_axial_stress(model, Fs, dt, stepper)
        if stepper in CLOSED_FORM:
            # the wide branch took the eigen path (two eigh a step) throughout
            assert len(count_eigh) == 2 * 40
        want = []
        for k, F in enumerate(Fs):
            C = t3.sym(F.T @ F, check=False)
            if k:
                res = composite_step(C, model, dt, stepper)
                model, T = res.model, res.total_stress
            else:
                T = equilibrium_stress(C, model.equilibrium)
                for p, state in zip(model.branches, model.states):
                    T = T + stress_2pk(C, state.Ci, p)
            sigma = F @ T @ F.T
            want.append((sigma[0, 0] - (sigma[1, 1] + sigma[2, 2]) / 2.0) / F[0, 0])
        assert np.array_equal(got, want)
        for x, y in zip(got_model.states, model.states):
            assert np.array_equal(x.Ci, y.Ci)

    @pytest.mark.parametrize("stepper", CLOSED_FORM)
    def test_state_is_checked(self, stepper, monkeypatch):
        # a root with two negative eigenvalues keeps det > 0 on the eigen
        # path (the wide first branch), so only the check of each new Ci
        # refuses it: in a composite step, and in a march from its sixth step
        # on (two branches, two roots a step)
        root, calls = cn._root, []

        def indefinite(*args, **kwargs):
            x, *rest = root(*args, **kwargs)
            calls.append(1)
            return (x if len(calls) <= normal else [-x[0], -x[1], x[2]], *rest)

        monkeypatch.setattr(cn, "_root", indefinite)
        model = wide_tmj_model()
        model = CompositeModel(model.equilibrium, model.branches[:2], model.states[:2])
        normal = 0
        with pytest.raises(DomainError, match="^Ci is not positive definite$"):
            composite_step(np.diag([1.2, 1.0, 1.0 / 1.2]), model, 0.1, stepper)
        calls.clear()
        normal = 10
        with pytest.raises(DomainError, match="^Ci is not positive definite$"):
            uniaxial_axial_stress(model, *uniaxial_cycle(40), stepper)
        assert len(calls) == 11

    @pytest.mark.parametrize("stepper", CLOSED_FORM)
    def test_unimodularity_is_checked(self, stepper, monkeypatch):
        # a step whose Ci misses det 1 is refused by the same check, also in
        # the march, which builds no state between its first and last sample
        monkeypatch.setattr(
            composite, "_march_substep", lambda *args: ([2.0, 2.0, 2.0, 0.0, 0.0, 0.0], 0, 0)
        )
        for call in (
            lambda: composite_step(np.eye(3), load_model(table_model_path()), 0.1, stepper),
            lambda: uniaxial_axial_stress(
                load_model(table_model_path()), *uniaxial_cycle(4), stepper
            ),
        ):
            with pytest.raises(DomainError, match=r"^Ci must be unimodular, det = 8\.0$"):
                call()

    def test_per_call_state_is_checked(self):
        # a per-call stepper's state is checked before it is packed to its
        # upper triangle: one off exact symmetry by an ulp, built without the
        # state's validation, is refused by name, not symmetrized
        def skewed(*args):
            res = ifebm_step_lagrangian(*args)
            Ci = np.array(res.state.Ci)
            Ci[0, 1] = np.nextafter(Ci[0, 1], np.inf)
            return cn.StepResult(invalid_state(Ci), res.stress, res.diagnostics)

        model = load_model(table_model_path())
        message = r"^Ci must be exactly symmetric \(use tensor3.sym\)$"
        with pytest.raises(DomainError, match=message):
            composite_step(np.diag([1.2, 1.0, 1.0 / 1.2]), model, 0.1, skewed)
        with pytest.raises(DomainError, match=message):
            uniaxial_axial_stress(model, *uniaxial_cycle(4), skewed)

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

    def test_float_composite_holds_the_benchmark_margin(self):
        # one TMJ cycle through the float composite against the per-call
        # loop, within the 1e-13 of the benchmark's golden gate, measured as
        # that gate measures it (3.3e-15 and 7.7e-16 when written)
        program = LoadingProgram(kind="uniaxial", cycles=1)
        Fs = [program.F(float(t)) for t in np.linspace(0.0, program.t_end, 101)]
        model = load_model(table_model_path())
        got, got_model = uniaxial_axial_stress(model, Fs, program.t_end / 100)
        want, want_model = uniaxial_axial_stress(
            model, Fs, program.t_end / 100, per_call(ifebm_step_lagrangian)
        )
        assert history_gap(got, want) <= 1e-13
        states = [[s.Ci for s in m.states] for m in (got_model, want_model)]
        assert history_gap(*states) <= 1e-13

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

    @pytest.mark.parametrize("dt", [0.0, -0.1, math.nan, math.inf, True, np.True_])
    @pytest.mark.parametrize("samples", [1, 3])
    def test_bad_dt_refused(self, dt, samples):
        # one message for every bad dt, also where no step would run; a bool
        # marched the history at dt = 1
        model = load_model(table_model_path())
        message = f"dt must be finite and positive, got {dt!r}"
        with pytest.raises(DomainError, match=re.escape(message)):
            uniaxial_axial_stress(model, [np.eye(3)] * samples, dt)

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

    @pytest.mark.parametrize(
        "text, cause",
        [
            ('{"equilibrium": {"c10": 0.2, "c01": 0.2, "k": "foo"}, "branches": []}',
             "could not convert string to float: 'foo'"),
            ('{"equilibrium": ', "Expecting value: line 1 column 17"),
            (None, "No such file or directory"),
        ],
        ids=["k-not-a-number", "not-json", "missing"],
    )
    def test_unloadable_file_refused(self, text, cause, tmp_path, capsys):
        # named with its cause by load_model, and a usage error (exit
        # status 2) to the command line, not a traceback
        path = tmp_path / "model.json"
        if text is not None:
            path.write_text(text)
        with pytest.raises(DomainError) as error:
            load_model(str(path))
        message = str(error.value)
        assert str(path) in message and cause in message
        with pytest.raises(SystemExit) as stop:
            cli_main(["uniaxial", "--model", str(path)])
        assert stop.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: {message}\n")

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
