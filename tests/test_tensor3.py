"""Tensor algebra: closed-form ops, spectral routines, matrix exponential."""

import math
import subprocess
import sys

import numpy as np
import pytest

from mrmaxwell import DomainError
from mrmaxwell import tensor3 as t3

from conftest import package_env, rand_spd, skewed_strain


def series_exp_oracle(A, substeps=128, terms=40):
    """Brute-force exponential: high-order Taylor of A/substeps, then
    repeated squaring.  Independent of the production path."""
    B = A / substeps
    E = np.zeros((3, 3))
    term = np.eye(3)
    for k in range(terms):
        E = E + term
        term = term @ B / (k + 1)
    for _ in range(int(math.log2(substeps))):
        E = E @ E
    return E


class TestBasics:
    def test_det_diag(self):
        assert t3.det(np.diag([2.0, 3.0, 4.0])) == pytest.approx(24.0, abs=0)

    def test_trace(self):
        assert t3.trace(np.diag([1.0, 5.0, -2.0])) == 4.0

    def test_inverse_identity(self):
        assert np.array_equal(t3.inverse(np.eye(3)), np.eye(3))

    def test_inverse_hand_value(self):
        A = np.array([[1.0, 1, 0], [1, 2, 0], [0, 0, 1]])
        expected = np.array([[2.0, -1, 0], [-1, 1, 0], [0, 0, 1]])
        assert np.allclose(t3.inverse(A), expected, atol=1e-15)

    def test_inverse_singular_raises(self):
        A = np.array([[1.0, 1, 0], [1, 1, 0], [0, 0, 1]])
        with pytest.raises(DomainError):
            t3.inverse(A)

    def test_inverse_contract_random(self, rng):
        for _ in range(200):
            A = rand_spd(rng, 1e-2, 1e2)
            cond = np.linalg.cond(A)
            err = np.linalg.norm(A @ t3.inverse(A) - np.eye(3))
            assert err < 1e-13 * max(cond, 1.0)

    def test_inverse_wide_spectrum_sanity(self, rng):
        # cofactor determinants cancel for extreme spectra; the contract
        # degrades gracefully rather than holding 1e-13 there
        for _ in range(200):
            A = rand_spd(rng, 1e-3, 1e3)
            err = np.linalg.norm(A @ t3.inverse(A) - np.eye(3))
            assert err < 1e-11 * max(np.linalg.cond(A), 1.0)

    def test_deviator(self):
        assert np.allclose(t3.deviator(np.eye(3)), 0.0, atol=0)
        D = t3.deviator(np.diag([3.0, 0.0, 0.0]))
        assert np.allclose(D, np.diag([2.0, -1.0, -1.0]), atol=1e-15)
        off = np.array([[0.0, 1, 2], [1, 0, 3], [2, 3, 0]])
        assert np.array_equal(t3.deviator(off), off)

    def test_deviator_trace_small(self, rng):
        for _ in range(100):
            A = rand_spd(rng, 1e-2, 1e2)
            assert abs(t3.trace(t3.deviator(A))) <= 1e-14 * np.linalg.norm(A)

    def test_sym_is_bitwise_symmetric(self, rng):
        M = rng.standard_normal((3, 3)) * 1e-11 + np.eye(3)
        S = t3.sym(M, check=False)
        assert (S == S.T).all()

    def test_sym_check_holds_under_optimize(self):
        # the round-off check is not an assert statement, so python -O
        # keeps it
        code = (
            "import numpy as np\n"
            "from mrmaxwell import tensor3 as t3\n"
            "try:\n"
            "    t3.sym(np.eye(3) + np.triu(np.ones((3, 3)), 1))\n"
            "except AssertionError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code],
            env=package_env(),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr


class TestUnimodular:
    def test_scaling_cancels(self):
        assert np.allclose(t3.unimodular(2.0 * np.eye(3)), np.eye(3), atol=1e-16)

    def test_identity(self):
        assert np.array_equal(t3.unimodular(np.eye(3)), np.eye(3))

    def test_hand_value(self):
        got = t3.unimodular(np.diag([4.0, 1.0, 1.0]))
        s = 4.0 ** (-1.0 / 3.0)
        assert np.allclose(got, np.diag([4 * s, s, s]), atol=1e-15)

    def test_det_one_random(self, rng):
        for _ in range(500):
            A = rand_spd(rng)
            assert abs(t3.det(t3.unimodular(A)) - 1.0) < 1e-14

    def test_det_one_wide_spectrum(self, rng):
        for _ in range(500):
            A = rand_spd(rng, 1e-3, 1e3)
            assert abs(t3.det(t3.unimodular(A)) - 1.0) < 1e-6

    def test_nonpositive_det_raises(self):
        with pytest.raises(DomainError):
            t3.unimodular(np.diag([1.0, -1.0, 1.0]))
        with pytest.raises(DomainError):
            t3.unimodular(np.diag([1.0, 0.0, 1.0]))


class TestSqrt:
    def test_identity(self):
        assert np.allclose(t3.spd_sqrt(np.eye(3)), np.eye(3), atol=0)

    def test_diagonal(self):
        got = t3.spd_sqrt(np.diag([4.0, 9.0, 16.0]))
        assert np.allclose(got, np.diag([2.0, 3.0, 4.0]), atol=1e-14)

    def test_hand_value(self):
        A = np.array([[5.0, 4, 0], [4, 5, 0], [0, 0, 1]])
        expected = np.array([[2.0, 1, 0], [1, 2, 0], [0, 0, 1]])
        got = t3.spd_sqrt(A)
        assert np.allclose(got, expected, atol=1e-14)
        assert np.allclose(got @ got, A, atol=1e-13)

    def test_square_recovers_input(self, rng):
        # condition numbers up to 1e6
        for _ in range(2000):
            A = rand_spd(rng, 1e-3, 1e3)
            R = t3.spd_sqrt(A)
            assert np.linalg.norm(R @ R - A) <= 1e-12 * np.linalg.norm(A)

    def test_inv_sqrt(self, rng):
        for _ in range(200):
            A = rand_spd(rng, 1e-2, 1e2)
            S = t3.spd_inv_sqrt(A)
            assert np.linalg.norm(S @ A @ S - np.eye(3)) < 1e-12 * np.linalg.cond(A)

    def test_non_spd_raises_with_eigenvalue(self):
        A = np.diag([1.0, 1.0, -2.0])
        with pytest.raises(DomainError) as exc:
            t3.spd_sqrt(A)
        assert exc.value.min_eigenvalue == pytest.approx(-2.0)


class TestMatExp:
    def test_zero(self):
        assert np.array_equal(t3.mat_exp(np.zeros((3, 3))), np.eye(3))

    def test_diagonal(self):
        got = t3.mat_exp(np.diag([1.0, 0.0, -1.0]))
        assert np.allclose(
            got, np.diag([math.e, 1.0, 1.0 / math.e]), rtol=1e-14
        )

    def test_against_series_oracle(self, rng):
        for _ in range(100):
            A = rng.standard_normal((3, 3))
            A *= 2.0 / np.linalg.norm(A)
            got = t3.mat_exp(A)
            ref = series_exp_oracle(A)
            assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)

    def test_det_exp_is_exp_trace(self, rng):
        for _ in range(300):
            A = rng.standard_normal((3, 3))
            A *= rng.uniform(0.1, 5.0) / np.linalg.norm(A)
            d = t3.det(t3.mat_exp(A))
            expected = math.exp(t3.trace(A))
            assert abs(d - expected) <= 1e-11 * abs(expected)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(DomainError, match="non-finite"):
            t3.mat_exp(np.diag([1.0, bad, 1.0]))

    @pytest.mark.parametrize("s", [0.01, 0.5, 0.51, 1.0, 40.0])
    def test_squarings(self, s):
        # 1-norms s that need no squaring, one and seven: each diagonal
        # entry within 1e-13 of its exponential (the polynomial alone errs
        # by 4e-12 at s = 1)
        got = t3.mat_exp(np.diag([s, 0.3 * s, -s]))
        want = np.exp([s, 0.3 * s, -s])
        assert np.array_equal(got, np.diag(np.diag(got)))
        assert (np.abs(np.diag(got) - want) <= 1e-13 * want).all()

    def test_traceless_is_unimodular(self, rng):
        # volume preservation for traceless arguments
        for _ in range(100):
            A = t3.deviator(rng.standard_normal((3, 3)))
            A *= 3.0 / np.linalg.norm(A)
            assert abs(t3.det(t3.mat_exp(A)) - 1.0) < 1e-11


class TestStacks:
    """``pack_sym`` and ``unpack_sym`` map stacks (..., 3, 3) member by
    member, bit for bit; every other primitive takes one tensor and refuses
    a stack rather than misread it."""

    def test_members_bit_identical(self, rng):
        G = rng.standard_normal((2, 4, 3, 3))
        S = G + G.swapaxes(-1, -2)
        packed = t3.pack_sym(S)
        assert packed.shape == (2, 4, 6)
        for A, v in zip(S.reshape(-1, 3, 3), packed.reshape(-1, 6)):
            assert np.array_equal(v, t3.pack_sym(A))
            assert np.array_equal(t3.unpack_sym(v), A)
        assert np.array_equal(t3.unpack_sym(packed), S)

    def test_empty_stack(self):
        empty = t3.pack_sym(np.zeros((0, 3, 3)))
        assert empty.shape == (0, 6)
        assert t3.unpack_sym(empty).shape == (0, 3, 3)

    @pytest.mark.parametrize(
        "f",
        [pytest.param(f, id=f.__name__) for f in (
            t3.det, t3.trace, t3.inverse, t3.deviator, t3.unimodular, t3.norm,
            t3.is_spd, t3.require_spd, t3.spd_sqrt, t3.spd_inv_sqrt, t3.mat_exp,
        )] + [pytest.param(lambda A: t3.sym(A, check=False), id="sym")],
    )
    def test_one_tensor_primitives_refuse_a_stack(self, f):
        # one, two and three members: a stack of three would broadcast
        # against its own transpose, and one of one has nine entries; sym
        # unchecked, as its check would refuse the stack in norm.  Each is
        # refused by its shape, not by whatever numpy makes of it
        for n in (1, 2, 3):
            with pytest.raises(DomainError, match=rf"got shape \({n}, 3, 3\)$"):
                f(np.array([2.0 * np.eye(3)] * n))


class TestNorm:
    def test_matches_frobenius(self, rng):
        for _ in range(100):
            A = rng.standard_normal((3, 3)) * np.exp(rng.uniform(-20, 20))
            assert t3.norm(A) == pytest.approx(np.linalg.norm(A), rel=1e-15)
            assert isinstance(t3.norm(A), float)


class TestRequireSpd:
    def test_symmetric_input_returned_as_is(self, rng):
        A = rand_spd(rng)
        assert t3.require_spd(A) is A

    @pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_not_accepted_in_one_pass(self, v, monkeypatch):
        # an exactly symmetric tensor whose minors pass is returned without
        # sym; a non-finite entry in any slot fails the minors (det is never
        # finite) and is named
        A = np.array([[2.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 0.5]])

        def no_sym(*args, **kwargs):
            raise AssertionError("sym called")

        monkeypatch.setattr(t3, "sym", no_sym)
        assert t3.require_spd(A) is A
        monkeypatch.undo()
        for i in range(3):
            for j in range(3):
                symmetric, one = A.copy(), A.copy()
                symmetric[i, j] = symmetric[j, i] = one[i, j] = v
                for B in (symmetric, one):
                    with pytest.raises(DomainError, match="^B has non-finite entries$"):
                        t3.require_spd(B, "B")

    def test_round_off_skew_removed(self):
        C, _ = skewed_strain()
        assert np.array_equal(t3.require_spd(C), t3.sym(C, check=False))

    def test_large_skew_rejected_by_name(self):
        C, _ = skewed_strain()
        C[1, 2] -= 1e-6
        with pytest.raises(DomainError, match="B is not symmetric"):
            t3.require_spd(C, "B")

    @pytest.mark.parametrize(
        "bad, message",
        [
            (np.diag([1.0, np.nan, 1.0]), "B has non-finite entries"),
            (np.diag([1.0, np.inf, 1.0]), "B has non-finite entries"),
            (np.diag([1.0, -1.0, 1.0]), "B is not symmetric positive definite"),
            (np.eye(2), r"B must be a 3x3 array, got shape \(2, 2\)"),
            (np.array([np.eye(3)] * 2), "B must be a 3x3 array"),
        ],
    )
    def test_bad_tensor_rejected_by_name(self, bad, message):
        with pytest.raises(DomainError, match=message):
            t3.require_spd(bad, "B")
