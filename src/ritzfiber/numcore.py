"""Complex linear-algebra and polynomial kernel; spectra come from LAPACK.

Conventions used across the package:

* matrices are square ``numpy`` arrays of dtype complex128 ("x"),
* the canonical eigenvalue order is lexicographic on (real, imag),
* polynomial coefficient arrays are stored low degree first,
* ``||.||`` means the Frobenius norm unless stated otherwise.
"""

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import NumericalError


# relative eigenpair residual bound: ||x g - g Lam|| <= EIG_REL ||x|| ||g||
EIG_REL = 1e-10
# two eigenvalues within COINCIDE_REL times their magnitude scale count as equal
COINCIDE_REL = 1e-8
# singular values below RANK_REL times the largest one count as zero
RANK_REL = 1e-10


def as_complex_matrix(x, square=True):
    """Validate and convert input to a finite complex128 2-D array (a copy)."""
    a = np.array(x, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {a.shape}")
    if square and a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return a


def as_complex_vector(v):
    """Validate and convert input to a finite complex128 1-D array (a copy)."""
    a = np.array(v, dtype=np.complex128)
    if a.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("vector entries must be finite (no NaN/Inf)")
    return a


def _canonical_order(eigs):
    """Indices that sort eigenvalues lexicographically by (real, imag)."""
    return np.lexsort((eigs.imag, eigs.real))


def canonical_sort(eigs):
    """Sort eigenvalues lexicographically by (real, imag)."""
    eigs = np.asarray(eigs, dtype=np.complex128)
    return eigs[_canonical_order(eigs)]


def eigenvalues(x):
    """All eigenvalues of x with multiplicity, in canonical order.

    One LAPACK ``zgeev`` call; a failure or non-finite result raises
    NumericalError.
    """
    return canonical_sort(_kernels.eigvals(as_complex_matrix(x)))


def magnitude_scale(*groups):
    """Max |entry| over the non-empty groups, or 1 when that is 0: the scale
    of every COINCIDE_REL threshold on eigenvalues and coordinate entries."""
    top = max((float(np.abs(g).max()) for g in groups if len(g)), default=0.0)
    return top if top > 0.0 else 1.0


@dataclass
class MonicPoly:
    """Monic polynomial c_0 + c_1 l + ... + c_{d-1} l^{d-1} + l^d.

    ``coeffs`` stores only the d low-order coefficients; the leading
    coefficient is implicitly 1, so the degree equals ``len(coeffs)``.
    """

    coeffs: np.ndarray = field(default_factory=lambda: np.zeros(0, np.complex128))

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=np.complex128)).ravel()
        if not np.all(np.isfinite(c)):
            raise ValueError("polynomial coefficients must be finite")
        self.coeffs = c

    @property
    def degree(self):
        return len(self.coeffs)

    def full(self):
        """All coefficients, low degree first, including the leading 1."""
        return np.append(self.coeffs, 1.0 + 0.0j)


def charpoly_from_eigs(eigs):
    """Monic polynomial with the given roots, by stable product expansion."""
    eigs = np.atleast_1d(np.asarray(eigs, dtype=np.complex128)).ravel()
    full = np.ones(1, dtype=np.complex128)
    with np.errstate(all="ignore"):
        for mu in eigs:
            nxt = np.zeros(len(full) + 1, dtype=np.complex128)
            nxt[1:] += full
            nxt[:-1] -= mu * full
            full = nxt
    if not np.isfinite(full).all():
        raise NumericalError("characteristic polynomial coefficients overflow")
    return MonicPoly(full[:-1])


def poly_quotient_in_basis(target, basis):
    """Coefficients a_k with target = sum_k a_k * basis[k].

    ``basis`` must be monic polynomials of strictly increasing degree
    0, 1, ..., m-1, so the expansion is unique; the target degree must be
    at most m-1.
    """
    basis = list(basis)
    m = len(basis)
    for k, p in enumerate(basis):
        if not isinstance(p, MonicPoly) or p.degree != k:
            raise ValueError(f"basis element {k} must be a MonicPoly of degree {k}")
    if isinstance(target, MonicPoly):
        work = target.full()
    else:
        work = np.atleast_1d(np.asarray(target, dtype=np.complex128)).ravel()
    while len(work) > 1 and work[-1] == 0.0:
        work = work[:-1]
    if len(work) > m:
        raise ValueError(
            f"target degree {len(work) - 1} too high for a basis of {m} polynomials"
        )
    work = np.concatenate([work, np.zeros(m - len(work), dtype=np.complex128)])
    out = np.zeros(m, dtype=np.complex128)
    for k in range(m - 1, -1, -1):
        out[k] = work[k]
        work[: k + 1] -= out[k] * basis[k].full()
    return out


def numeric_rank(a):
    """Rank of a matrix, singular values below RANK_REL * s_max count as zero."""
    a = np.asarray(a, dtype=np.complex128)
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.sum(s > RANK_REL * s[0]))
