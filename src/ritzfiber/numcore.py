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


@dataclass
class Tolerances:
    """Numerical thresholds used by every operation in the package.

    eig_rel      relative eigenpair residual bound: ||x g - g Lam|| <= eig_rel ||x|| ||g||
    coincide_rel relative threshold below which two eigenvalues count as equal
    rank_rel     relative singular-value cutoff for rank decisions
    """

    eig_rel: float = 1e-10
    coincide_rel: float = 1e-8
    rank_rel: float = 1e-10

    def __post_init__(self):
        for name in ("eig_rel", "coincide_rel", "rank_rel"):
            v = getattr(self, name)
            if not (0.0 < v < 1.0):
                raise ValueError(f"tolerance {name} must lie in (0, 1), got {v}")


DEFAULT_TOL = Tolerances()


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


def leading_submatrix(x, m):
    """Leading principal submatrix x(1:m, 1:m), returned as a copy."""
    x = as_complex_matrix(x)
    n = x.shape[0]
    if not 1 <= m <= n:
        raise ValueError(f"submatrix order m={m} out of range 1..{n}")
    return x[:m, :m].copy()


def canonical_sort(eigs):
    """Sort eigenvalues lexicographically by (real, imag)."""
    eigs = np.asarray(eigs, dtype=np.complex128)
    return eigs[np.lexsort((eigs.imag, eigs.real))]


def eigenvalues(x, tol=DEFAULT_TOL):
    """All eigenvalues of x with multiplicity, in canonical order.

    One LAPACK ``zgeev`` call; a failure or non-finite result raises
    NumericalError.  ``tol`` is accepted for a uniform signature.
    """
    return canonical_sort(_kernels.eigvals(as_complex_matrix(x)))


def min_gap(a, b=None):
    """Smallest |a_i - b_j|, or |a_i - a_k| over i != k when b is omitted;
    inf when there is no pair.  Every disjointness check uses it."""
    if b is None:
        diff = np.abs(a[:, None] - a[None, :])
        np.fill_diagonal(diff, np.inf)
    else:
        diff = np.abs(a[:, None] - b[None, :])
    return float(np.min(diff)) if diff.size else np.inf


def derivative_at_roots(v):
    """P'(v_i) = prod_{k != i}(v_i - v_k) for the monic P with roots v."""
    diff = v[:, None] - v[None, :]
    np.fill_diagonal(diff, 1.0)
    return np.prod(diff, axis=1)


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
    for mu in eigs:
        nxt = np.zeros(len(full) + 1, dtype=np.complex128)
        nxt[1:] += full
        nxt[:-1] -= mu * full
        full = nxt
    return MonicPoly(full[:-1])


def _full_coeffs(p):
    if isinstance(p, MonicPoly):
        return p.full()
    c = np.atleast_1d(np.asarray(p, dtype=np.complex128)).ravel()
    return c


def poly_eval(p, z):
    """Evaluate a polynomial (MonicPoly or low-first coefficient array) at z."""
    c = _full_coeffs(p)
    acc = 0.0 + 0.0j
    for coeff in c[::-1]:
        acc = acc * z + coeff
    return acc


def poly_derivative(p):
    """Coefficient array (low degree first) of the derivative; non-monic."""
    c = _full_coeffs(p)
    if len(c) <= 1:
        return np.zeros(1, dtype=np.complex128)
    return c[1:] * np.arange(1, len(c), dtype=np.float64)


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
    work = _full_coeffs(target)
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


def numeric_rank(a, tol=DEFAULT_TOL):
    """Rank of a matrix, singular values below rank_rel * s_max count as zero."""
    a = np.asarray(a, dtype=np.complex128)
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.sum(s > tol.rank_rel * s[0]))
