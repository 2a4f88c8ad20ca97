"""Exact 3x3 tensor algebra for finite-strain constitutive updates.

All routines operate on one plain numpy array of shape (3, 3), except
``pack_sym`` and ``unpack_sym``, which also map stacks (..., 3, 3) to and
from their six components (the Voigt maps use them that way).  A stack
passed to any other routine raises.  ``mat_exp`` is the tests' oracle for
the exponential map, which the package evaluates on the spectrum instead.
``eigh`` is the package's one symmetric eigendecomposition: the LAPACK
gufunc behind ``numpy.linalg.eigh``, bit for bit, without its Python
wrapper.

* ``Tensor3``     is any such array (deformation gradients, rotations, ...).
* ``SymTensor3``  is one that is symmetric bit-for-bit.  Symmetry is a
  construction invariant, not a numerical coincidence: every operation in
  this package that returns a symmetric tensor builds it through
  :func:`sym`, whose output satisfies ``A[i, j] == A[j, i]`` exactly.

Determinants, inverses and traces use closed-form 3x3 expressions.  The
one test of positive definiteness is by leading minors (:func:`is_spd`).
"""

from __future__ import annotations

import math

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import DomainError

__all__ = [
    "IDENTITY",
    "det",
    "trace",
    "inverse",
    "deviator",
    "unimodular",
    "sym",
    "is_spd",
    "require_spd",
    "norm",
    "eigh",
    "pack_sym",
    "unpack_sym",
    "mat_exp",
]

IDENTITY = np.eye(3)
IDENTITY.setflags(write=False)

_F = [float(math.factorial(k)) for k in range(14)]

# Exact symmetrization: (m_ij + m_ji) is the same floating-point sum for
# both index orders, so the result is symmetric bit-for-bit.


def sym(A: np.ndarray, check: bool = True) -> np.ndarray:
    """Symmetric part (A + A^T)/2.

    With ``check`` enabled a skew part beyond 1e-10 * ||result|| raises
    ``AssertionError`` (under ``python -O`` too): a product symmetric in
    exact arithmetic has only a round-off skew part.
    """
    if A.shape != (3, 3):
        raise DomainError(f"sym takes one 3x3 tensor, got shape {A.shape}")
    S = (A + A.T) / 2.0
    if check and not _skew_norm_ok(A, S):
        raise AssertionError("asymmetry exceeds round-off bound")
    return S


def _skew_norm_ok(A, S):
    # skew part of A <= 1e-10 ||S||
    a = A.ravel().tolist()
    skew = math.sqrt(2.0) * math.hypot(a[1] - a[3], a[2] - a[6], a[5] - a[7])
    return skew <= 1e-10 * max(norm(S), 1e-300)


def norm(A: np.ndarray) -> float:
    """Frobenius norm."""
    return math.hypot(*_entries(A, "norm"))


# the six symmetric components (11, 22, 33, 12, 13, 23) within the nine
# row-major entries, and the nine entries from the six components
_PACK = np.array([0, 4, 8, 1, 2, 5])
_UNPACK = np.array([0, 3, 4, 3, 1, 5, 4, 5, 2])


def pack_sym(A: np.ndarray) -> np.ndarray:
    """The six components (A11, A22, A33, A12, A13, A23) (of each member
    of a stack), in a new array of shape (..., 6)."""
    return A.reshape(A.shape[:-2] + (9,)).take(_PACK, axis=-1)


def unpack_sym(x: np.ndarray) -> np.ndarray:
    """The symmetric tensor with the six components of :func:`pack_sym`
    (of each row of a stack (..., 6)), in a new row-major array."""
    # take, unlike x[..., _UNPACK], returns a row-major stack
    return x.take(_UNPACK, axis=-1).reshape(x.shape[:-1] + (3, 3))


def _entries(A, name):
    # the nine entries of one tensor, which the 3x3 closed forms run on as
    # Python floats; a stack, which they would misread, is refused
    if A.shape != (3, 3):
        raise DomainError(f"{name} takes one 3x3 tensor, got shape {A.shape}")
    return A.ravel().tolist()


# the gufunc that numpy.linalg.eigh calls on the lower triangle
_eigh_lo = _umath_linalg.eigh_lo


def eigh(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues, ascending, and orthonormal eigenvectors (the columns) of
    a symmetric tensor from its lower triangle, as ``numpy.linalg.eigh(A)``
    gives them bit for bit, in under half its time.

    A non-finite entry in the lower triangle gives NaN eigenvalues, with no
    warning and no error, where ``numpy.linalg.eigh`` raises for a NaN.
    """
    # finite entries raise no floating-point flag in LAPACK; they sum to a
    # finite float unless the sum overflows
    if math.isfinite(sum(_entries(A, "eigh"))):
        return _eigh_lo(A)
    with np.errstate(all="ignore"):
        return _eigh_lo(A)


def _det9(a00, a01, a02, a10, a11, a12, a20, a21, a22):
    return (
        a00 * (a11 * a22 - a12 * a21)
        - a01 * (a10 * a22 - a12 * a20)
        + a02 * (a10 * a21 - a11 * a20)
    )


def det(A: np.ndarray) -> float:
    """Determinant by cofactor expansion."""
    return float(_det9(*_entries(A, "det")))


def trace(A: np.ndarray) -> float:
    """Trace."""
    a = _entries(A, "trace")
    return float(a[0] + a[4] + a[8])


def _inverse9(a00, a01, a02, a10, a11, a12, a20, a21, a22):
    # the nine entries of the inverse, row by row
    d = _det9(a00, a01, a02, a10, a11, a12, a20, a21, a22)
    if d == 0.0 or not math.isfinite(d):
        raise DomainError(f"singular tensor, det = {float(d)}")
    return [
        (a11 * a22 - a12 * a21) / d,
        (a02 * a21 - a01 * a22) / d,
        (a01 * a12 - a02 * a11) / d,
        (a12 * a20 - a10 * a22) / d,
        (a00 * a22 - a02 * a20) / d,
        (a02 * a10 - a00 * a12) / d,
        (a10 * a21 - a11 * a20) / d,
        (a01 * a20 - a00 * a21) / d,
        (a00 * a11 - a01 * a10) / d,
    ]


def inverse(A: np.ndarray) -> np.ndarray:
    """Closed-form cofactor inverse.

    Raises
    ------
    DomainError
        If the determinant is zero or not finite.  Near-singular inputs
        are not rejected; accuracy then degrades with the condition number
        (``A @ inverse(A) = I`` holds to ~1e-13 * cond(A)).
    """
    return np.array(_inverse9(*_entries(A, "inverse"))).reshape(3, 3)


def deviator(A: np.ndarray) -> np.ndarray:
    """Traceless part A - tr(A)/3 * I."""
    return A - trace(A) / 3.0 * IDENTITY


def _cbrt_det9(a, name="unimodular part"):
    # the cube root of the determinant of the nine entries a, as a float;
    # dividing the entries by it makes them unimodular
    d = _det9(*a)
    if not d > 0.0:
        raise DomainError(f"{name} requires det > 0, got det = {d}")
    return float(np.cbrt(d))


def unimodular(A: np.ndarray) -> np.ndarray:
    """Determinant-one rescaling (det A)^(-1/3) * A; ``DomainError`` if
    det(A) <= 0."""
    return A / _cbrt_det9(_entries(A, "unimodular"))


def _is_spd9(a00, a01, a02, a10, a11, a12, a20, a21, a22):
    return (
        a00 > 0.0
        and a00 * a11 - a01 * a10 > 0.0
        and 0.0 < _det9(a00, a01, a02, a10, a11, a12, a20, a21, a22) < math.inf
    )


def is_spd(A: np.ndarray) -> bool:
    """Positive definiteness of a symmetric tensor via leading minors, each
    within the float range."""
    return _is_spd9(*_entries(A, "is_spd"))


def require_spd(A: np.ndarray, name: str = "tensor") -> np.ndarray:
    """A checked finite, symmetric and positive definite, with a finite
    non-zero determinant: A itself if exactly symmetric, ``sym(A)`` if its
    skew part is round-off (as :func:`sym` bounds it); else ``DomainError``
    names it, and names a determinant that under- or overflows."""
    if A.shape != (3, 3):
        raise DomainError(f"{name} must be a 3x3 array, got shape {A.shape}")
    a = A.ravel().tolist()
    symmetric = a[1] == a[3] and a[2] == a[6] and a[5] == a[7]
    # accepted in one pass: 0 < det A < inf, which no inf or nan entry passes
    if symmetric and _is_spd9(*a):
        return A
    if not all(map(math.isfinite, a)):
        raise DomainError(f"{name} has non-finite entries")
    # the minors tested are those of the tensor returned
    S = A if symmetric else sym(A, check=False)
    s = S.ravel().tolist()
    if not _is_spd9(*s):
        # scaled by a power of two near its largest entry (exact), a tensor
        # whose minors only left the float range is definite again
        e = math.frexp(max(map(abs, s)))[1]
        s = [math.ldexp(v, -e) for v in s]
        if _is_spd9(*s):
            log10 = round(math.log10(_det9(*s)) + 3 * e * math.log10(2.0), 6)
            k = math.floor(log10)
            raise DomainError(
                f"det {name} = {10.0 ** (log10 - k):.3f}e{k:+d} is out of float range"
            )
        raise DomainError(f"{name} is not symmetric positive definite")
    if not _skew_norm_ok(A, S):
        raise DomainError(f"{name} is not symmetric: skew part beyond round-off")
    return S


def mat_exp(A: np.ndarray) -> np.ndarray:
    """Matrix exponential of a general 3x3 tensor.

    The test oracle of the exponential map, one tensor at a time.
    Scaling and squaring: A is halved until its 1-norm (the largest
    absolute column sum) is at most 0.5, the exponential of the scaled
    tensor is summed as a degree-13 Taylor polynomial (remainder below
    1e-16 at that norm), and the result is squared back up.

    Raises
    ------
    DomainError
        If an entry is not finite.
    """
    # the column sums of |A|, each summed top to bottom
    a = [abs(v) for v in _entries(A, "mat_exp")]
    cols = [(a[j] + a[j + 3]) + a[j + 6] for j in range(3)]
    if not all(map(math.isfinite, cols)):
        raise DomainError("mat_exp argument has non-finite entries")
    norm1 = max(cols)
    squarings = math.ceil(math.log2(norm1 / 0.5)) if norm1 > 0.5 else 0
    # the polynomial grouped in powers of B^4: H_k = I/(4k)! + B/(4k+1)! +
    # B^2/(4k+2)! + B^3/(4k+3)!, summed term by term in that order; the last
    # group stops at B/13!
    B = A / 2.0**squarings
    B2 = B @ B
    B3 = B @ B2
    B4 = B2 @ B2
    H0, H1, H2 = (
        ((IDENTITY / _F[k] + B / _F[k + 1]) + B2 / _F[k + 2]) + B3 / _F[k + 3]
        for k in (0, 4, 8)
    )
    E = H0 + B4 @ (H1 + B4 @ (H2 + B4 @ (IDENTITY / _F[12] + B / _F[13])))
    for _ in range(squarings):
        E = E @ E
    return E
