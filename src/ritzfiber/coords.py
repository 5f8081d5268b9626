"""Complementary fibre coordinates: extraction of the bordering rows b from a
generic matrix, reconstruction of the matrix from (Ritz values, b), the flat
s-coordinate vector, and the elementary-conjugation transforms.

For each level m the matrix x_m is diagonalized by the unique eigenvector
matrix g_m whose last row is all ones (one LAPACK eig call per level, columns
rescaled to last entry 1); conjugating x_{m+1} by g_m (+) 1 puts
it in arrow form, whose bordering row b_m and column c_m are the coordinates.
Given the Ritz values, b determines c (their entrywise product is the
fibre-intrinsic Sigma_m), and the recurrence

    g_1 = (1),   g_{m+1} = [g_m P_{m+1}(Lam_m) P_m'(Lam_m)^{-1} diag(b_m)^{-1}
                                 Cauchy(Lam_m, Lam_{m+1}); ones]

rebuilds the full eigenvector matrix, hence x = g_n Lam_n g_n^{-1}.
"""

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import _kernels
from .arrow import _pi, _sigma, sigma_matrix
from .errors import GenericityError, NumericalError
from .fiber import RitzData, require_generic, ritz_values
from .numcore import DEFAULT_TOL, as_complex_matrix, as_complex_vector


@dataclass
class FiberCoords:
    """Complete coordinates of a generic matrix: Ritz values plus the
    bordering rows b_m (length m, every entry nonzero), 1 <= m <= n-1.

    The orderings stored in ``ritz`` are authoritative: slot i of b_m is tied
    to the i-th stored eigenvalue of level m.
    """

    ritz: RitzData
    b: list = field(default_factory=list)

    def __post_init__(self):
        n = self.ritz.n
        if len(self.b) != n - 1:
            raise ValueError(f"need {n - 1} coordinate vectors, got {len(self.b)}")
        self.b = [as_complex_vector(v) for v in self.b]
        for m, v in enumerate(self.b, start=1):
            if len(v) != m:
                raise ValueError(f"b_{m} must have {m} entries, got {len(v)}")


class ArrowCoordsPair(NamedTuple):
    """Bordering row and column of one level, as extracted from a matrix."""

    b: np.ndarray
    c: np.ndarray


class CoordsExtraction(NamedTuple):
    """Result of extract_coords: the coordinates plus the derived columns c_m.

    The c_m are diagnostics only; they are always recomputable from
    (ritz, b) via complement_c_from_b.
    """

    coords: FiberCoords
    c: list

    def pairs(self):
        """Per-level bordering row/column pairs."""
        return [ArrowCoordsPair(b, c) for b, c in zip(self.coords.b, self.c)]


def diagonalizer(xm, mus, tol=DEFAULT_TOL):
    """Eigenvector matrix of xm with columns ordered by mus and last row ones.

    Column i belongs to the LAPACK eigenvalue nearest mus[i]; the match must
    be one to one.  A last entry below coincide_rel relative to its column
    means the leading submatrix of order m-1 shares that eigenvalue
    (GenericityError).  The residual ||xm g - g diag(mus)|| is guaranteed at
    most eig_rel * ||xm|| * ||g||, else NumericalError.
    """
    xm = as_complex_matrix(xm)
    mus = as_complex_vector(mus)
    m = xm.shape[0]
    if len(mus) != m:
        raise ValueError(f"need {m} eigenvalues, got {len(mus)}")
    lam, vecs = _kernels.eig(xm)
    match = np.argmin(np.abs(mus[:, None] - lam[None, :]), axis=1)
    if len(np.unique(match)) != m:
        raise NumericalError("eigenvalues do not match the given order one to one")
    vecs = vecs[:, match]
    last = vecs[-1]
    small = np.abs(last) < tol.coincide_rel * np.linalg.norm(vecs, axis=0)
    if np.any(small):
        raise GenericityError(
            "eigenvector has (numerically) vanishing last entry: the leading "
            f"submatrix of order {m - 1} shares the eigenvalue {mus[small][0]}"
        )
    g = vecs / last
    g[-1] = 1.0
    residual = np.linalg.norm(xm @ g - g * mus)
    if residual > tol.eig_rel * np.linalg.norm(xm) * np.linalg.norm(g):
        raise NumericalError(
            f"eigenpair residual {residual:.3e} exceeds {tol.eig_rel:.1e} * ||x|| * ||g||"
        )
    return g


def _validate_b_nonzero(fc, tol):
    thr = tol.coincide_rel * fc.ritz.scale()
    for m, v in enumerate(fc.b, start=1):
        if np.any(np.abs(v) <= thr):
            raise ValueError(f"b_{m} has a (numerically) zero entry")


def extract_coords(x, tol=DEFAULT_TOL):
    """Coordinates (Ritz values, b) of a generic matrix, plus the c columns.

    Levels are ordered canonically; the stored ordering is what ties the b
    entries to eigenvalue slots.  Raises GenericityError (naming the first
    failing disjointness condition) on non-generic input.
    """
    x = as_complex_matrix(x)
    n = x.shape[0]
    r = ritz_values(x, tol)
    require_generic(r, tol)
    b_list = []
    c_list = []
    for m in range(1, n):
        g = diagonalizer(x[:m, :m], r.level(m), tol)
        t = np.zeros((m + 1, m + 1), dtype=np.complex128)
        t[:m, :m] = g
        t[m, m] = 1.0
        conj = np.linalg.solve(t, x[: m + 1, : m + 1] @ t)
        b_list.append(conj[m, :m].copy())
        c_list.append(conj[:m, m].copy())
    return CoordsExtraction(FiberCoords(r, b_list), c_list)


def complement_c_from_b(r, m, b, tol=DEFAULT_TOL):
    """The bordering column forced by the bordering row: c_i = Sigma_m[i] / b_i."""
    b = as_complex_vector(b)
    if len(b) != m:
        raise ValueError(f"b must have {m} entries, got {len(b)}")
    if np.any(np.abs(b) <= tol.coincide_rel * r.scale()):
        raise ValueError("b has a (numerically) zero entry")
    return sigma_matrix(r, m, tol) / b


def reconstruct(fc, tol=DEFAULT_TOL):
    """Rebuild the unique generic matrix with the given coordinates.

    Runs the eigenvector recurrence level by level and returns
    x = g_n Lam_n g_n^{-1}.  One genericity gate up front covers every level
    (its global threshold is at least each level's local one), so the Sigma
    and Cauchy factors need no further checks.
    """
    require_generic(fc.ritz, tol)
    _validate_b_nonzero(fc, tol)
    r = fc.ritz
    g = np.ones((1, 1), dtype=np.complex128)
    for m in range(1, r.n):
        mus, nxt = r.level(m), r.level(m + 1)
        # P_{m+1}(Lam_m) P_m'(Lam_m)^{-1} diag(b_m)^{-1} = -Sigma_m / b_m
        w = -_sigma(mus, nxt) / fc.b[m - 1]
        top = g @ (w[:, None] / (mus[:, None] - nxt[None, :]))
        g = np.vstack([top, np.ones((1, m + 1), dtype=np.complex128)])
    lam = r.level(r.n)
    return np.linalg.solve(g.T, (g * lam[None, :]).T).T


def s_coordinates(x, tol=DEFAULT_TOL):
    """Flat coordinate vector (b_1, ..., b_{n-1}) of length n(n-1)/2.

    Slot j = m(m-1)/2 + l holds entry l of b_m.  The vector is all ones
    exactly when x is the unit upper Hessenberg representative of its fibre.
    """
    res = extract_coords(x, tol)
    return np.concatenate(res.coords.b) if res.coords.b else np.zeros(0, complex)


def transpose_coords(fc, tol=DEFAULT_TOL):
    """Coordinates of the transposed matrix: b~_m = Pi_m * Sigma_m / b_m.

    Pi_m is the row/column eigenvector pairing of level m over level m-1
    (all ones for m = 1); both factors depend only on the Ritz values, so the
    transform is an involution on each fibre.  One genericity gate covers all.
    """
    require_generic(fc.ritz, tol)
    _validate_b_nonzero(fc, tol)
    levels = [np.zeros(0, dtype=np.complex128)] + fc.ritz.levels  # levels[m] = Lam_m
    new_b = [
        _pi(levels[m - 1], levels[m]) * _sigma(levels[m], levels[m + 1]) / fc.b[m - 1]
        for m in range(1, fc.ritz.n)
    ]
    return FiberCoords(RitzData([lev.copy() for lev in fc.ritz.levels]), new_b)


def diagonal_similarity_coords(fc, d, tol=DEFAULT_TOL):
    """Coordinates of d x d^{-1} for diagonal d: b_m scales by d_{m+1} / d_m."""
    d = as_complex_vector(d)
    if len(d) != fc.ritz.n:
        raise ValueError(f"d must have {fc.ritz.n} entries, got {len(d)}")
    if np.any(np.abs(d) == 0.0):
        raise ValueError("d must have nonzero entries")
    new_b = [fc.b[m - 1] * (d[m] / d[m - 1]) for m in range(1, fc.ritz.n)]
    return FiberCoords(RitzData([lev.copy() for lev in fc.ritz.levels]), new_b)
