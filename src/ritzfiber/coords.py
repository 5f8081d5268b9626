"""Complementary fibre coordinates: extraction of the bordering rows b from a
generic matrix, reconstruction of the matrix from (Ritz values, b), the flat
s-coordinate vector, and the elementary-conjugation transforms.

For each level m < n one LAPACK eig call gives the spectrum Lam_m of x_m in
canonical order and the unique eigenvector matrix g_m whose last row is all
ones; conjugating x_{m+1} by g_m (+) 1 puts it in arrow form, whose bordering
row b_m and column c_m are the coordinates.
Given the Ritz values, b determines c (their entrywise product is the
fibre-intrinsic Sigma_m), and the recurrence

    g_1 = (1),   g_{m+1} = [g_m P_{m+1}(Lam_m) P_m'(Lam_m)^{-1} diag(b_m)^{-1}
                                 Cauchy(Lam_m, Lam_{m+1}); ones]

rebuilds the full eigenvector matrix, hence x = g_n Lam_n g_n^{-1}.  The
genericity gate ``fiber.require_generic`` returns the per-pair records of
adjacent levels (D_m = Lam_m - Lam_{m+1} and Sigma_m) it was taken from;
``reconstruct`` runs the recurrence on them (``fiber._eigvec_chain``) and
``transpose_coords`` takes Sigma_m and Pi_m from them.  Both raise
NumericalError when a Ritz product leaves the normal float range.
"""

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import _kernels
from .arrow import sigma_matrix
from .errors import GenericityError, NumericalError
from .fiber import RitzData, _eigvec_chain, require_generic
from .numcore import COINCIDE_REL, EIG_REL, as_complex_matrix, as_complex_vector
from .numcore import _canonical_order


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

    @classmethod
    def _trusted(cls, ritz, b):
        """Coordinates the library has just computed: b_m a finite complex128
        vector of length m, stored as given without re-validation."""
        fc = object.__new__(cls)
        fc.ritz, fc.b = ritz, b
        return fc


class CoordsExtraction(NamedTuple):
    """Result of extract_coords: the coordinates plus the derived columns c_m.

    The c_m are diagnostics only; they are always recomputable from
    (ritz, b) via complement_c_from_b.
    """

    coords: FiberCoords
    c: list


def _eig_sorted(xm):
    """Spectrum of xm in canonical order and the unit eigenvectors alike."""
    lam, vecs = _kernels.eig(xm)
    order = _canonical_order(lam)
    return lam[order], vecs[:, order]


def _scale_down(a):
    """``(a 2^-e, e)``, e from frexp of the largest real or imaginary part of
    the complex array a (0 when a is zero): every part of a 2^-e lies below 1
    in modulus, and a power of two makes the product exact barring underflow."""
    parts = np.ascontiguousarray(a).view(np.float64)
    e = int(np.frexp(np.max(np.abs(parts), initial=0.0))[1])
    return np.ldexp(parts, -e).view(np.complex128), e


def _last_row_ones(xs, e, lam, vecs):
    """Rescale the unit eigenvector columns of x_m to last entry 1 and check
    them.  The residual gate runs on xs = x_m 2^-e and Lam 2^-e, whose parts
    lie below 1, so that its norms neither overflow nor underflow; an exact
    power of two leaves its decision unchanged."""
    last = vecs[-1]
    small = np.abs(last) < COINCIDE_REL
    if small.any():
        raise GenericityError(
            "eigenvector has (numerically) vanishing last entry: the leading "
            f"submatrix of order {len(lam) - 1} shares the eigenvalue {lam[small][0]}"
        )
    g = vecs / last
    g[-1] = 1.0
    lam_s = np.ldexp(lam.view(np.float64), -e).view(np.complex128)
    residual = np.linalg.norm(xs @ g - g * lam_s)
    if not residual <= EIG_REL * np.linalg.norm(xs) * np.linalg.norm(g):
        with np.errstate(over="ignore"):
            residual = np.ldexp(residual, e)
        raise NumericalError(
            f"eigenpair residual {residual:.3e} exceeds {EIG_REL:.1e} * ||x|| * ||g||"
        )
    return g


def diagonalizer(xm):
    """``(lam, g)``: the spectrum of xm in canonical order and its eigenvector
    matrix with columns in the same order and last row ones.

    Both come from one LAPACK eig call, whose eigenvector columns have unit
    2-norm.  A last entry below COINCIDE_REL means the leading submatrix of
    order m-1 shares that eigenvalue (GenericityError).  The residual
    ||xm g - g diag(lam)|| is guaranteed at most EIG_REL * ||xm|| * ||g||,
    else NumericalError; the gate is evaluated on xm scaled by a power of two,
    so it holds its meaning at any representable scale.
    """
    xm = as_complex_matrix(xm)
    if xm.shape[0] == 0:
        raise ValueError("diagonalizer needs a non-empty matrix")
    lam, vecs = _eig_sorted(xm)
    return lam, _last_row_ones(*_scale_down(xm), lam, vecs)


def _all_finite(vectors):
    """Whether every entry of the 1-D arrays is finite."""
    return not vectors or bool(np.isfinite(np.concatenate(vectors)).all())


def _validate_b_nonzero(fc, scale):
    thr = COINCIDE_REL * scale
    for m, v in enumerate(fc.b, start=1):
        if np.any(np.abs(v) <= thr):
            raise ValueError(f"b_{m} has a (numerically) zero entry")


def extract_coords(x):
    """Coordinates (Ritz values, b) of a generic matrix, plus the c columns.

    Levels are ordered canonically; the stored ordering is what ties the b
    entries to eigenvalue slots.  Non-generic input raises GenericityError,
    naming the first failing disjointness condition, before any rescaling.

    x is validated once, here; the levels come from n-1 LAPACK eig calls and
    one eigvals call, which reject non-finite output, so the returned
    RitzData and FiberCoords are built without re-validation.  A b_m or c_m
    that overflows, or a singular g_m, raises NumericalError.
    """
    x = as_complex_matrix(x)
    n = x.shape[0]
    if n == 0:
        raise ValueError("level 1 must have 1 entries, got 0")
    eigs = [_eig_sorted(x[:m, :m]) for m in range(1, n)]
    top = _kernels.eigvals(x)
    r = RitzData._trusted([lam for lam, _ in eigs] + [top[_canonical_order(top)]])
    require_generic(r)
    xs, e = _scale_down(x)
    b_list = []
    c_list = []
    try:
        with np.errstate(all="ignore"):
            for m, (lam, vecs) in enumerate(eigs, start=1):
                # (g_m (+) 1)^{-1} x_{m+1} (g_m (+) 1) has last row
                # (x[m, :m] g_m, x[m, m]) and last column (g_m^{-1} x[:m, m], x[m, m])
                g = _last_row_ones(xs[:m, :m], e, lam, vecs)
                b_list.append(x[m, :m] @ g)
                c_list.append(np.linalg.solve(g, x[:m, m]))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvector matrix of level {m} is singular: {exc}") from None
    if not _all_finite(b_list + c_list):
        raise NumericalError("bordering rows b or columns c overflow")
    return CoordsExtraction(FiberCoords._trusted(r, b_list), c_list)


def complement_c_from_b(r, m, b):
    """The bordering column forced by the bordering row: c_i = Sigma_m[i] / b_i."""
    b = as_complex_vector(b)
    if len(b) != m:
        raise ValueError(f"b must have {m} entries, got {len(b)}")
    if np.any(np.abs(b) <= COINCIDE_REL * r.scale()):
        raise ValueError("b has a (numerically) zero entry")
    return sigma_matrix(r, m) / b


def reconstruct(fc):
    """Rebuild the unique generic matrix with the given coordinates.

    Runs the eigenvector chain level by level and returns
    x = g_n Lam_n g_n^{-1}.  One genericity gate up front covers every level
    (its global threshold is at least each level's local one), and the Sigma
    and Cauchy factors reuse the per-pair records the gate built.
    """
    p = require_generic(fc.ritz)
    _validate_b_nonzero(fc, p.scale)
    p.require_in_range()
    lam = fc.ritz.level(fc.ritz.n)
    with np.errstate(all="ignore"):
        *_, (_, g, _) = _eigvec_chain(p, fc.b)  # the chain ends with g_n
        try:
            x = np.linalg.solve(g.T, (g * lam[None, :]).T).T
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"eigenvector chain is singular ({exc}): a Ritz product under- or overflows"
            ) from None
    # a Sigma_m that over- or underflowed to inf or nan makes x non-finite
    if not np.isfinite(x).all():
        raise NumericalError(
            "reconstructed matrix is not finite: a Ritz product under- or overflows"
        )
    return x


def s_coordinates(x):
    """Flat coordinate vector (b_1, ..., b_{n-1}) of length n(n-1)/2.

    Slot j = m(m-1)/2 + l holds entry l of b_m.  The vector is all ones
    exactly when x is the unit upper Hessenberg representative of its fibre.
    """
    res = extract_coords(x)
    return np.concatenate(res.coords.b) if res.coords.b else np.zeros(0, complex)


def transpose_coords(fc):
    """Coordinates of the transposed matrix: b~_m = Pi_m * Sigma_m / b_m.

    Pi_m is the row/column eigenvector pairing of level m over level m-1,
    Pi_m = 1 + Sigma_{m-1} (1 / D_{m-1})^2 with D_{m-1} = Lam_{m-1}[:, None]
    - Lam_m[None, :] (all ones for m = 1); both factors depend only on the
    Ritz values, so the transform is an involution on each fibre.  One
    genericity gate covers all levels, and its per-pair records give every
    factor.
    """
    p = require_generic(fc.ritz)
    _validate_b_nonzero(fc, p.scale)
    p.require_in_range()
    pi = 1.0
    new_b = []
    with np.errstate(all="ignore"):
        for b, pair in zip(fc.b, p.pairs):
            new_b.append(pi * pair.sigma / b)
            pi = pair.pi()
    if not _all_finite(new_b):
        raise NumericalError(
            "transposed coordinates are not finite: a Ritz product under- or overflows"
        )
    return FiberCoords(RitzData._trusted([lev.copy() for lev in fc.ritz.levels]), new_b)


def diagonal_similarity_coords(fc, d):
    """Coordinates of d x d^{-1} for diagonal d: b_m scales by d_{m+1} / d_m."""
    d = as_complex_vector(d)
    if len(d) != fc.ritz.n:
        raise ValueError(f"d must have {fc.ritz.n} entries, got {len(d)}")
    if np.any(np.abs(d) == 0.0):
        raise ValueError("d must have nonzero entries")
    new_b = [fc.b[m - 1] * (d[m] / d[m - 1]) for m in range(1, fc.ritz.n)]
    return FiberCoords(RitzData._trusted([lev.copy() for lev in fc.ritz.levels]), new_b)
