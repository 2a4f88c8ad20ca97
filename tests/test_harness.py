"""Loading programs, study drivers, CSV output, CLI."""

import dataclasses
import json
import math
import re
import subprocess
import sys

import numpy as np
import pytest

import mrmaxwell.harness as hn
from mrmaxwell import (
    LAGRANGIAN_STEPPERS,
    DomainError,
    LagrangianState,
    MaterialParams,
    consistent_tangent,
    symmetry_deviation,
)
from mrmaxwell import tensor3 as t3
from mrmaxwell import cli
from mrmaxwell.cli import main as cli_main

from conftest import package_env

SQ2 = 1.0 / math.sqrt(2.0)


class TestNonproportionalProgram:
    def setup_method(self):
        self.program = hn.LoadingProgram()

    def test_starts_at_identity(self):
        assert np.allclose(self.program.F(0.0), np.eye(3), atol=1e-15)

    def test_first_keyframe(self):
        F = self.program.F(1.0)
        assert np.allclose(F, np.diag([2.0, SQ2, SQ2]), atol=1e-14)

    def test_midpoint_interpolation(self):
        F2 = np.diag([2.0, SQ2, SQ2])
        F3 = np.array([[1.0, 1.0, 0], [0, 1, 0], [0, 0, 1]])
        raw = 0.5 * F2 + 0.5 * F3
        expected = raw / np.cbrt(np.linalg.det(raw))
        assert np.allclose(self.program.F(1.5), expected, atol=1e-14)

    def test_default_table_is_custom_keyframes(self):
        # bit for bit a custom-keyframes program of the same four keyframes,
        # and the segment-wise formula with segment index int(t)
        K = [
            np.eye(3),
            np.diag([2.0, SQ2, SQ2]),
            np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
            np.diag([SQ2, 2.0, SQ2]),
        ]
        custom = hn.LoadingProgram(
            kind="custom-keyframes", keyframes=tuple(zip((0.0, 1.0, 2.0, 3.0), K))
        )
        assert custom.t_end == self.program.t_end == 3.0
        ts = list(np.linspace(0.0, 3.0, 1201))
        for k in (0.0, 1.0, 2.0, 3.0):
            ts += [k, np.nextafter(k, -1.0), np.nextafter(k, 4.0)]
        for t in map(float, ts):
            F = self.program.F(t)
            assert np.array_equal(F, custom.F(t))
            u = min(max(t, 0.0), 3.0)
            k = min(int(u), 2)
            s = u - k
            assert np.array_equal(F, t3.unimodular((1.0 - s) * K[k] + s * K[k + 1]))

    def test_volume_preserving_everywhere(self):
        for t in np.linspace(0.0, 3.0, 301):
            assert abs(t3.det(self.program.F(float(t))) - 1.0) < 1e-14

    def test_domain_bounds(self):
        with pytest.raises(DomainError):
            self.program.F(-0.5)
        with pytest.raises(DomainError):
            self.program.F(3.5)


class TestUniaxialProgram:
    def test_triangle_profile(self):
        prg = hn.LoadingProgram(kind="uniaxial", amplitude=0.3, frequency=2.0)
        T = 0.5
        assert prg.strain(0.0) == 0.0
        assert prg.strain(T / 4) == pytest.approx(0.3, rel=1e-12)
        assert prg.strain(T / 2) == pytest.approx(0.0, abs=1e-12)
        assert prg.strain(3 * T / 4) == pytest.approx(-0.3, rel=1e-12)
        assert prg.strain(T) == pytest.approx(0.0, abs=1e-12)

    def test_constant_rate(self):
        prg = hn.LoadingProgram(kind="uniaxial", amplitude=0.2, frequency=1.0)
        for lo, hi in ((0.01, 0.24), (0.26, 0.74), (0.76, 0.99)):
            ts = np.linspace(lo, hi, 100)
            rates = np.diff([prg.strain(t) for t in ts]) / np.diff(ts)
            assert np.allclose(np.abs(rates), 4 * 0.2 * 1.0, rtol=1e-6)

    def test_F_is_isochoric_uniaxial(self):
        prg = hn.LoadingProgram(kind="uniaxial", amplitude=0.4, frequency=0.1)
        F = prg.F(1.7)
        assert abs(t3.det(F) - 1.0) < 1e-14
        assert F[1, 1] == F[2, 2]

    @pytest.mark.parametrize("field", ["frequency", "amplitude"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_rejected_by_name(self, field, value):
        with pytest.raises(DomainError, match=f"{field} = {value}"):
            hn.LoadingProgram(kind="uniaxial", **{field: value})

    @pytest.mark.parametrize("field", ["frequency", "cycles", "amplitude"])
    def test_bool_refused_by_name(self, field):
        # frequency = cycles = True ran as one cycle at frequency 1
        with pytest.raises(DomainError, match=f"^{field} must be a number, got True$"):
            hn.LoadingProgram(kind="uniaxial", **{field: True})
        with pytest.raises(DomainError, match="^frequency must be a number, got True$"):
            hn.LoadingProgram(kind="uniaxial", frequency=True, cycles=True)

    @pytest.mark.parametrize("field", ["frequency", "cycles", "amplitude"])
    def test_numpy_bool_refused_by_name(self, field):
        # NumPy's bool is no bool: cycles = np.True_ ran one cycle
        with pytest.raises(DomainError, match=f"^{field} must be a number, got np.True_$"):
            hn.LoadingProgram(kind="uniaxial", **{field: np.True_})

    @pytest.mark.parametrize("cycles", [math.nan, math.inf])
    def test_non_finite_cycles_refused(self, cycles):
        # cycles = nan gave the domain [0, nan], and F(0.5) was refused as
        # outside it; cycles = inf gave an endless program
        message = "needs a finite frequency > 0 and cycles >= 1"
        with pytest.raises(DomainError, match=f"{message}, got .* cycles = {cycles}$"):
            hn.LoadingProgram(kind="uniaxial", cycles=cycles)

    @pytest.mark.parametrize("amplitude", [1.0, 1.5, -1.0])
    def test_amplitude_must_keep_stretch_positive(self, amplitude):
        # the compression half of the cycle reaches 1 - |amplitude|
        with pytest.raises(DomainError, match=r"\|amplitude\| < 1"):
            hn.LoadingProgram(kind="uniaxial", amplitude=amplitude)
        prg = hn.LoadingProgram(kind="uniaxial", amplitude=math.copysign(0.99, amplitude))
        assert min(prg.F(t)[0, 0] for t in np.linspace(0.0, 2.0, 9)) > 0.0

    def test_strain_is_exactly_symmetric_F_transpose_F(self):
        # C is summed on floats, so it may differ from numpy's F.T @ F (which
        # fuses multiply and add) by round-off in the entries' last bits
        prg = hn.LoadingProgram(kind="uniaxial", amplitude=0.3, frequency=2.0)
        for t in np.linspace(0.0, prg.t_end, 11):
            F, C = prg.F(float(t)), prg.C(float(t))
            assert np.array_equal(C, C.T)
            assert np.abs(C - F.T @ F).max() <= np.spacing(np.linalg.norm(C))


class TestCustomProgram:
    def test_interpolates_keyframes(self):
        kf = ((0.0, np.eye(3)), (2.0, np.diag([1.5, 1.0, 1.0])))
        prg = hn.LoadingProgram(kind="custom-keyframes", keyframes=kf)
        F = prg.F(1.0)
        raw = np.diag([1.25, 1.0, 1.0])
        assert np.allclose(F, raw / np.cbrt(np.linalg.det(raw)), atol=1e-14)
        assert prg.t_end == 2.0

    def test_needs_two_keyframes(self):
        with pytest.raises(DomainError):
            hn.LoadingProgram(kind="custom-keyframes", keyframes=((0.0, np.eye(3)),))

    def test_times_must_increase(self):
        kf = ((0.0, np.eye(3)), (0.0, np.eye(3)))
        with pytest.raises(DomainError, match="strictly increasing"):
            hn.LoadingProgram(kind="custom-keyframes", keyframes=kf)

    def test_strain_is_exactly_symmetric_F_transpose_F(self):
        rng = np.random.default_rng(5)
        kf = tuple((float(k), np.eye(3) + 0.2 * rng.standard_normal((3, 3))) for k in range(3))
        prg = hn.LoadingProgram(kind="custom-keyframes", keyframes=kf)
        for t in np.linspace(0.0, prg.t_end, 31):
            F, C = prg.F(float(t)), prg.C(float(t))
            assert np.array_equal(C, C.T)
            assert np.abs(C - F.T @ F).max() <= np.spacing(np.linalg.norm(C))

    @pytest.mark.parametrize(
        "bad, match",
        [
            ((1.0, np.eye(2)), r"keyframe 1 needs a finite time and a finite 3x3 F"),
            ((1.0, np.full((3, 3), np.nan)), r"keyframe 1 needs a finite time"),
            ((math.inf, np.eye(3)), r"keyframe 1 needs a finite time"),
            ((1.0, -np.eye(3)), r"keyframe 1 needs det F > 0, got -1\.0"),
        ],
        ids=["shape", "nan", "time", "det"],
    )
    def test_keyframes_checked_at_construction(self, bad, match):
        # each keyframe is checked when the program is built, and the error
        # names it, not the interpolation at some later time
        kf = ((0.0, np.eye(3)), bad, (2.0, np.eye(3)))
        with pytest.raises(DomainError, match=match):
            hn.LoadingProgram(kind="custom-keyframes", keyframes=kf)

    def test_domain_is_span_of_keyframe_times(self):
        # no backward extrapolation of the first segment below t0 = 1
        first = np.diag([2.0, 0.5, 1.0])
        kf = ((1.0, first), (2.0, np.eye(3)))
        prg = hn.LoadingProgram(kind="custom-keyframes", keyframes=kf)
        for t in (0.0, 0.5, 1.0 - 1e-9, 2.5):
            with pytest.raises(DomainError, match=r"\[1\.0, 2\.0\]"):
                prg.F(t)
        assert np.array_equal(prg.F(1.0), first)
        assert np.array_equal(prg.F(1.0 - 1e-13), first)


class TestRandomGenerators:
    def test_spd_and_unimodular(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            A = hn.random_spd(rng)
            assert t3.is_spd(A) and (A == A.T).all()
            U = hn.random_unimodular_spd(rng, 1e-2, 1e2)
            assert abs(t3.det(U) - 1.0) < 1e-9


class TestRunConfig:
    def test_method_string_expansion(self):
        cfg = hn.RunConfig(methods="all")
        assert cfg.methods == hn.METHOD_NAMES
        cfg = hn.RunConfig(methods="mebm")
        assert cfg.methods == ("mebm",)

    def test_validation(self):
        with pytest.raises(DomainError):
            hn.RunConfig(dt=0.0)
        with pytest.raises(DomainError):
            hn.RunConfig(methods="simplectic")
        with pytest.raises(DomainError):
            hn.RunConfig(formulation="spatial")

    @pytest.mark.parametrize(
        "study", ["run_error_study", "run_convergence", "run_tangent_sweep",
                  "run_uniaxial", "run_robustness"],
    )
    @pytest.mark.parametrize("methods", [(), []])
    def test_empty_method_selection_rejected(self, study, methods):
        # the error study would fail in min() over no errors, and the
        # convergence study would pass having checked nothing
        with pytest.raises(DomainError, match="methods must name at least one"):
            getattr(hn, study)(hn.RunConfig(methods=methods))

    @pytest.mark.parametrize("dt", [math.inf, -math.inf, math.nan])
    def test_non_finite_dt_rejected_by_name(self, dt):
        # 3/inf rounds to 0 steps, and the error study failed at ts[1]
        with pytest.raises(DomainError, match=f"dt must be finite, got {dt}"):
            hn.RunConfig(dt=dt)
        with pytest.raises(DomainError, match="dt must be finite and positive"):
            hn.nonprop_stress_history("ifebm", dt, MaterialParams(1.0, 1.0, 1.0))

    @pytest.mark.parametrize("dt", [True, np.True_])
    def test_bool_history_dt_refused(self, dt):
        # a bool ran the history at dt = 1
        message = re.escape(f"dt must be finite and positive, got {dt!r}")
        with pytest.raises(DomainError, match=message):
            hn.nonprop_stress_history("ifebm", dt, MaterialParams(1.0, 1.0, 1.0))

    @pytest.mark.parametrize(
        "field, good",
        [("frequencies", 1.0), ("amplitudes", 0.2), ("tangent_dts", 0.1),
         ("tangent_etas", 1.0)],
    )
    @pytest.mark.parametrize(
        "bad", [None, math.inf, math.nan, -0.5, True, np.True_, np.False_, "0.1"]
    )
    def test_study_grids_rejected_by_name(self, field, good, bad):
        # an empty grid let its study pass having checked nothing; a bad
        # entry failed deep inside the study, or with another cause; NumPy's
        # bool passed as the number 0 or 1, and a string leaked a TypeError
        values = () if bad is None else (good, bad)
        if field == "amplitudes" and bad == -0.5:
            values = (good, 1.0)  # a negative amplitude is a valid program
        with pytest.raises(DomainError, match=f"{field} needs values in"):
            hn.RunConfig(**{field: values})
        hn.RunConfig(**{field: (good,)})

    @pytest.mark.parametrize(
        "grid", [np.array([1.0, 2.0]), np.array([]), 1.0, {1.0: 2}],
        ids=["array", "empty-array", "float", "dict"],
    )
    def test_grid_not_a_tuple_or_list_refused_by_name(self, grid):
        # an array leaked numpy's ValueError from its truth value, a float
        # a TypeError, and a dict passed on its keys
        message = r"^frequencies needs values in \(0, inf\), got "
        with pytest.raises(DomainError, match=message):
            hn.RunConfig(frequencies=grid)
        assert hn.RunConfig(frequencies=[1.0, 2.0]).frequencies == [1.0, 2.0]

    @pytest.mark.parametrize("field", ["dt", "eta", "c10", "c01"])
    def test_bool_refused_by_name(self, field):
        # dt = eta = True ran the studies at dt = 1 with MaterialParams(1.0,
        # 1.0, True)
        with pytest.raises(DomainError, match=f"^{field} must be a number, got True$"):
            hn.RunConfig(**{field: True})
        with pytest.raises(DomainError, match="^dt must be a number, got True$"):
            hn.RunConfig(dt=True, eta=True)

    @pytest.mark.parametrize("value", [np.True_, None, "0.1"])
    @pytest.mark.parametrize("field", ["dt", "eta", "c10", "c01"])
    def test_non_number_refused_by_name(self, field, value):
        # NumPy's bool ran as the number 1, and None or a string leaked a
        # TypeError from the first check
        message = f"^{field} must be a number, got {re.escape(repr(value))}$"
        with pytest.raises(DomainError, match=message):
            hn.RunConfig(**{field: value})

    def test_eulerian_needs_ifebm(self):
        # the error study reports the Eulerian history of ifebm only
        for methods in ("mebm", ("2iebm", "em")):
            with pytest.raises(DomainError, match="'eulerian' needs ifebm in methods"):
                hn.RunConfig(formulation="eulerian", methods=methods)
        hn.RunConfig(formulation="eulerian", methods=("em", "ifebm"))

    @pytest.mark.parametrize(
        "field", ["cycles", "reference_substeps", "coarse_steps_per_cycle",
                  "fine_steps_per_cycle"],
    )
    @pytest.mark.parametrize("value", [0, -3])
    def test_counts_must_be_positive(self, field, value):
        with pytest.raises(DomainError, match=f"{field} must be >= 1, got {value}"):
            hn.RunConfig(**{field: value})

    @pytest.mark.parametrize(
        "field", ["cycles", "reference_substeps", "coarse_steps_per_cycle",
                  "fine_steps_per_cycle"],
    )
    @pytest.mark.parametrize(
        "value", [math.inf, math.nan, 1.5, 3000.5, 50.0, True, "50", None]
    )
    def test_counts_must_be_integers(self, field, value):
        # an inf reference_substeps leaked OverflowError from round() in
        # the error study, 1.5 cycles TypeError from np.linspace in
        # run_uniaxial; 3000.5 and True ran as they were
        with pytest.raises(DomainError, match=f"^{field} must be an integer, got "):
            hn.RunConfig(**{field: value})
        hn.RunConfig(**{field: np.int64(50)})

    @pytest.mark.parametrize("seed", [-1, 2.5, "3", None, True])
    def test_seed_rejected_by_name(self, seed):
        # numpy's generator raised its own ValueError from inside the study
        with pytest.raises(DomainError, match="seed must be a non-negative integer"):
            hn.RunConfig(seed=seed)
        hn.RunConfig(seed=np.int64(3))

    def test_fine_grid_must_refine_coarse_grid(self):
        # run_uniaxial would compare fine t = 0.3k with coarse t = k/3
        with pytest.raises(DomainError, match="10 is not a multiple of .* = 3"):
            hn.RunConfig(coarse_steps_per_cycle=3, fine_steps_per_cycle=10)
        cfg = hn.RunConfig(coarse_steps_per_cycle=3, fine_steps_per_cycle=12)
        assert cfg.fine_steps_per_cycle // cfg.coarse_steps_per_cycle == 4


@pytest.fixture(scope="module")
def error_study_result():
    return hn.run_error_study(hn.RunConfig(reference_substeps=4000))


@pytest.fixture(scope="module")
def robustness_result():
    return hn.run_robustness(hn.RunConfig())


class TestErrorStudy:
    def test_self_checks_pass(self, error_study_result):
        result = error_study_result
        assert result.passed, result.summary()

    def test_method_ordering(self, error_study_result):
        result = error_study_result
        assert result.values["gap_ifebm_mebm"] < result.values["gap_mebm_em"]
        assert (
            result.values["gap_2iebm_mebm"]
            < 0.1 * result.values["gap_ifebm_mebm"]
        )

    def test_dual_formulation_gap(self, error_study_result):
        result = error_study_result
        assert result.values["dual_formulation_gap"] < 1e-10

    def test_csv_shape_and_roundtrip(self, error_study_result):
        result = error_study_result
        text = result.tables["nonprop_errors.csv"]
        lines = text.strip().split("\n")
        assert lines[0] == "t,error_ifebm,error_2iebm,error_mebm,error_em"
        assert len(lines) == 32
        ts = np.linspace(0.0, 3.0, 31)
        for k, line in enumerate(lines[1:]):
            # 17 significant digits round-trip exactly
            assert float(line.split(",")[0]) == ts[k]

    def test_error_metric_self_consistency(self):
        # a method fed the reference trajectory as its own output has
        # identically zero error
        program = hn.LoadingProgram()
        ts = np.linspace(0.0, 3.0, 7)
        ref = __import__("mrmaxwell").reference_solve(
            program.C, np.eye(3), ts, MaterialParams(1, 1, 1), 32, False
        )
        errs = [
            np.linalg.norm(a - b) for a, b in zip(ref.stresses, ref.stresses)
        ]
        assert all(e == 0.0 for e in errs)

    @pytest.mark.filterwarnings("ignore:reference not converged")
    def test_eulerian_formulation(self):
        # the spatial-form history stands in for ifebm's material one
        runs = {
            f: hn.run_error_study(
                hn.RunConfig(
                    formulation=f, methods=("ifebm",), reference_substeps=3000
                )
            )
            for f in ("lagrangian", "eulerian")
        }
        assert runs["eulerian"].passed, runs["eulerian"].summary()
        want, got = (runs[f].values["max_error"]["ifebm"] for f in runs)
        assert got == pytest.approx(want, rel=1e-10)

    def test_unconverged_reference_warns(self):
        with pytest.warns(UserWarning, match="Richardson gap"):
            hn.run_error_study(hn.RunConfig(reference_substeps=4000))

    @pytest.mark.parametrize(
        "study", [hn.run_error_study, hn.run_convergence], ids=["nonprop", "convergence"]
    )
    def test_reference_floor_validated(self, study):
        # 30 coarse steps need 3000 substeps; 2999 are refused before any run
        with pytest.raises(DomainError, match="100x the coarse resolution"):
            study(hn.RunConfig(reference_substeps=2999))

    def test_deterministic(self, error_study_result):
        result = error_study_result
        again = hn.run_error_study(hn.RunConfig(reference_substeps=4000))
        assert again.tables["nonprop_errors.csv"] == result.tables[
            "nonprop_errors.csv"
        ]


class TestConvergenceStudy:
    def test_indeterminate_flag_for_frozen_material(self):
        cfg = hn.RunConfig(
            dt=0.1, eta=1e12, methods=("ifebm",), reference_substeps=4000
        )
        res = hn.run_convergence(cfg)
        assert res.values["indeterminate"]["ifebm"]
        assert res.checks["order_indeterminate_flagged_ifebm"]


class TestRobustnessStudy:
    def test_self_checks_pass(self, robustness_result):
        assert robustness_result.passed, robustness_result.summary()

    def test_closed_form_methods_never_iterate(self, robustness_result):
        result = robustness_result
        for dt in (0.5, 1.0):
            eff = result.values["effort"][f"ifebm,dt={dt:g}"]
            assert eff["total_iterations"] == 0
            assert eff["substep_events"] == 0

    def test_newton_baselines_stressed_at_large_dt(self, robustness_result):
        result = robustness_result
        for m in ("mebm", "em"):
            eff = result.values["effort"][f"{m},dt=1"]
            assert (
                eff["substep_events"] >= 1
                or eff["divergences"] >= 1
                or eff["max_iterations"] > 3
            )

    def test_seeded_determinism(self):
        a = hn.run_robustness(hn.RunConfig(seed=7))
        b = hn.run_robustness(hn.RunConfig(seed=7))
        assert a.values["subtractive_deviation"] == b.values["subtractive_deviation"]


class TestUniaxialStudy:
    def test_single_cell_fast(self, tmp_path):
        cfg = hn.RunConfig(
            frequencies=(1.0,),
            amplitudes=(0.2,),
            fine_steps_per_cycle=500,
            coarse_steps_per_cycle=50,
        )
        res = hn.run_uniaxial(cfg)
        assert res.passed, res.summary()
        cell = res.values["cells"]["f1_a0.2"]
        assert cell["gap_fraction_of_peak"] < 0.03
        assert all(a >= 0.0 for a in cell["cycle_areas"])
        paths = res.write(tmp_path)
        assert len(paths) == 1
        text = (tmp_path / "uniaxial_f1_a0.2.csv").read_text()
        assert text.startswith("grid,t,strain,stress\n")

    def test_custom_model_file(self, tmp_path):
        doc = (
            '{"equilibrium": {"c10": 0.1, "c01": 0.1, "k": "incompressible"},'
            ' "branches": [{"c10": 0.5, "c01": 0.5, "eta": 1.0}]}'
        )
        path = tmp_path / "model.json"
        path.write_text(doc)
        cfg = hn.RunConfig(
            frequencies=(1.0,),
            amplitudes=(0.2,),
            fine_steps_per_cycle=500,
            model_file=str(path),
        )
        res = hn.run_uniaxial(cfg)
        assert res.passed, res.summary()

    def test_one_method(self):
        tiny = dict(frequencies=(1.0,), amplitudes=(0.2,), cycles=1,
                    coarse_steps_per_cycle=2, fine_steps_per_cycle=4)
        for methods in (("ifebm", "mebm"), ("2iebm", "mebm", "em")):
            with pytest.raises(DomainError, match="needs one method in methods"):
                hn.run_uniaxial(hn.RunConfig(methods=methods, **tiny))
        # the default selection, all methods, runs ifebm
        tables = {m: hn.run_uniaxial(hn.RunConfig(methods=m, **tiny)).tables
                  for m in ("all", "ifebm", "em")}
        assert tables["all"] == tables["ifebm"] != tables["em"]

    def test_zero_amplitude_is_zero_stress(self):
        cfg = hn.RunConfig(
            frequencies=(1.0,),
            amplitudes=(0.0,),
            fine_steps_per_cycle=200,
        )
        res = hn.run_uniaxial(cfg)
        # flat curve: peak is zero, checks degrade gracefully
        cell = res.values["cells"]["f1_a0"]
        assert cell["peak_stress"] == 0.0 or cell["peak_stress"] < 1e-14


class TestTangentSweepStudy:
    def test_small_grid(self):
        cfg = hn.RunConfig(
            tangent_dts=(0.1,), tangent_etas=(10.0,), methods=("ifebm", "2iebm")
        )
        res = hn.run_tangent_sweep(cfg)
        v = res.values["deviation"]["ifebm,dt=0.1,eta=10.0"]
        # magnitude characteristic of this cell
        assert 2e-7 < v < 3e-6
        assert "tangent_sweep.csv" in res.tables
        # bit for bit the tangents at an explicit march's incoming states
        program, p = hn.LoadingProgram(), MaterialParams(1.0, 1.0, 10.0)
        for m in ("ifebm", "2iebm"):
            stepper = LAGRANGIAN_STEPPERS[m]
            state, tangents = LagrangianState.identity(), []
            for t in np.linspace(0.0, 3.0, 31)[1:]:
                C = program.C(float(t))
                tangents.append(consistent_tangent(stepper, C, state, 0.1, p))
                state = stepper(C, state, 0.1, p).state
            want = symmetry_deviation(tangents)
            assert res.values["deviation"][f"{m},dt=0.1,eta=10.0"] == want

    def test_needs_a_closed_form_stepper(self):
        for methods in ("mebm", ("mebm", "em")):
            with pytest.raises(DomainError, match="needs ifebm or 2iebm in methods"):
                hn.run_tangent_sweep(hn.RunConfig(methods=methods))


# each CLI-settable RunConfig field: its flag, a value as typed, and the
# value RunConfig holds for it
CLI_VALUES = {
    "dt": ("--dt", "0.2", 0.2),
    "eta": ("--eta", "3", 3.0),
    "c10": ("--c10", "0.5", 0.5),
    "c01": ("--c01", "0.25", 0.25),
    "methods": ("--method", "ifebm", ("ifebm",)),
    "formulation": ("--formulation", "eulerian", "eulerian"),
    "reference_substeps": ("--reference-substeps", "777", 777),
    "seed": ("--seed", "4", 4),
    "model_file": ("--model", "m.json", "m.json"),
    "cycles": ("--cycles", "3", 3),
    "coarse_steps_per_cycle": ("--coarse-steps", "7", 7),
    "fine_steps_per_cycle": ("--fine-steps", "70", 70),
}

# a configuration at which each study runs in a fraction of a second
SMALL = {
    "nonprop": dict(dt=1.0, reference_substeps=300),
    "convergence": dict(dt=1.0, reference_substeps=300),
    "tangent-sweep": dict(tangent_dts=(1.0,), tangent_etas=(1.0,)),
    "uniaxial": dict(frequencies=(1.0,), amplitudes=(0.2,), cycles=1,
                     coarse_steps_per_cycle=2, fine_steps_per_cycle=4),
    "robustness": dict(methods="ifebm"),
}


def fields_read(study, cfg):
    """The RunConfig fields ``study`` reads from ``cfg``."""
    reads = set()

    class Recording(hn.RunConfig):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    # swapped in after construction, so __post_init__'s reads are not counted
    cfg.__class__ = Recording
    study(cfg)
    return reads & {f.name for f in dataclasses.fields(hn.RunConfig)}


class TestCli:
    def test_robustness_exit_zero(self, tmp_path, capsys):
        code = cli_main(
            ["robustness", "--out", str(tmp_path), "--summary", "json", "--seed", "3"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["study"] == "robustness"
        assert payload["passed"] is True
        assert (tmp_path / "robustness.csv").exists()

    def test_nonprop_with_flags(self, tmp_path, capsys):
        code = cli_main(
            [
                "nonprop",
                "--dt",
                "0.1",
                "--reference-substeps",
                "4000",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "overall: PASS" in out
        assert (tmp_path / "nonprop_errors.csv").exists()

    @pytest.mark.filterwarnings("ignore:reference not converged")
    @pytest.mark.parametrize(
        "study, cheap",
        [("nonprop", "--dt 0.5 --reference-substeps 600"),
         ("convergence", "--dt 0.5 --reference-substeps 600"),
         ("tangent-sweep", ""),  # its grid of steps and viscosities is fixed
         ("robustness", ""),
         ("uniaxial", "--cycles 1 --coarse-steps 2 --fine-steps 4"),
         # without ifebm there is no dual formulation gap: null, not NaN
         ("nonprop", "--method mebm --dt 0.5 --reference-substeps 600")],
        ids=["nonprop", "convergence", "tangent-sweep", "robustness", "uniaxial",
             "nonprop-mebm"],
    )
    def test_json_summary_round_trip(self, study, cheap, capsys):
        # strict JSON (RFC 8259), which has no NaN or Infinity
        def refuse(constant):
            raise AssertionError(f"{study} summary has {constant}")

        code = cli_main([study, "--summary", "json"] + cheap.split())
        payload = json.loads(capsys.readouterr().out, parse_constant=refuse)
        assert payload["study"] == study
        assert payload["passed"] is (code == 0)
        assert payload["checks"]
        assert all(type(v) is bool for v in payload["checks"].values())
        if "mebm" in cheap:
            assert payload["values"]["dual_formulation_gap"] is None

    @pytest.fixture
    def recorded(self, monkeypatch):
        # every study replaced by one that records its RunConfig
        seen = []

        def study(cfg):
            seen.append(cfg)
            return hn.StudyResult("stub")

        for name, (_, fields) in list(cli._STUDIES.items()):
            monkeypatch.setitem(cli._STUDIES, name, (study, fields))
        return seen

    def test_bare_study_uses_run_config_defaults(self, recorded, capsys):
        for name in cli._STUDIES:
            assert cli_main([name]) == 0
        assert recorded == [hn.RunConfig()] * len(cli._STUDIES)

    @pytest.mark.filterwarnings("ignore:reference not converged")
    @pytest.mark.parametrize("study", list(cli._STUDIES))
    def test_flags_are_the_fields_read(self, study):
        assert set(cli._FLAGS) == set(CLI_VALUES)
        run, fields = cli._STUDIES[study]
        read = fields_read(run, hn.RunConfig(**SMALL[study]))
        assert read & set(CLI_VALUES) == set(fields)

    @pytest.mark.parametrize("study", list(cli._STUDIES))
    def test_flags_set_their_fields(self, study, recorded, capsys):
        fields = cli._STUDIES[study][1]
        argv = [study]
        for field in fields:
            argv += CLI_VALUES[field][:2]
        assert cli_main(argv) == 0
        assert recorded == [hn.RunConfig(**{f: CLI_VALUES[f][2] for f in fields})]

    @pytest.mark.parametrize("study", list(cli._STUDIES))
    def test_other_flags_rejected(self, study, recorded, capsys):
        for field in set(CLI_VALUES) - set(cli._STUDIES[study][1]):
            flag, typed, _ = CLI_VALUES[field]
            with pytest.raises(SystemExit) as stop:
                cli_main([study, flag, typed])
            assert stop.value.code == 2
            err = capsys.readouterr().err
            assert f"unrecognized arguments: {flag} {typed}" in err
        assert recorded == []

    @pytest.mark.parametrize(
        "argv, message",
        [
            ("uniaxial --coarse-steps 3 --fine-steps 10",
             "fine_steps_per_cycle = 10 is not a multiple of "
             "coarse_steps_per_cycle = 3"),
            ("nonprop --dt 0", "dt must be positive"),
            ("nonprop --dt inf", "dt must be finite, got inf"),
            ("nonprop --dt 0.7", "dt = 0.7 does not divide the domain [0, 3.0]"),
            ("tangent-sweep --method mebm",
             "the tangent sweep needs ifebm or 2iebm in methods, got ('mebm',)"),
            ("robustness --seed -1", "seed must be a non-negative integer, got -1"),
        ],
        ids=["fine-steps", "dt-zero", "dt-inf", "dt-not-dividing", "tangent-mebm",
             "seed-negative"],
    )
    def test_domain_error_is_usage_error(self, argv, message, capsys):
        with pytest.raises(SystemExit) as stop:
            cli_main(argv.split())
        assert stop.value.code == 2
        study = argv.split()[0]
        assert capsys.readouterr().err.endswith(
            f"mrmaxwell {study}: error: {message}\n"
        )

    def test_unknown_method_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["nonprop", "--method", "rk4"])

    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "mrmaxwell",
                "uniaxial",
                "--fine-steps",
                "200",
                "--coarse-steps",
                "50",
                "--summary",
                "json",
            ],
            env=package_env(),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["study"] == "uniaxial"
