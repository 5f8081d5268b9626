"""Ritz values, genericity classification, fibre descriptors, and the unit
upper Hessenberg fibre representative.

The Ritz values of x are the eigenvalue lists of all leading principal
submatrices x_1, ..., x_n.  They determine the diagonal of x and cut the space
of matrices into fibres; each fibre contains exactly one unit upper Hessenberg
matrix, which this module constructs directly from the Ritz values.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import GenericityError
from .numcore import (
    DEFAULT_TOL,
    MonicPoly,
    as_complex_matrix,
    charpoly_from_eigs,
    eigenvalues,
    min_gap,
    numeric_rank,
    poly_quotient_in_basis,
)

# relative width of the near-genericity grey zone (see GenericityReport)
GREY_ZONE_FACTOR = 1e3


@dataclass
class RitzData:
    """Ordered eigenvalue lists of the leading principal submatrices.

    ``levels[m-1]`` holds the m eigenvalues of x_m.  The per-level ordering is
    significant data: coordinates on a fibre are only defined relative to it,
    and user-supplied orderings are preserved verbatim.
    """

    levels: list = field(default_factory=list)

    def __post_init__(self):
        if len(self.levels) == 0:
            raise ValueError("RitzData needs at least one level")
        clean = []
        for m, lev in enumerate(self.levels, start=1):
            arr = np.atleast_1d(np.asarray(lev, dtype=np.complex128)).ravel()
            if len(arr) != m:
                raise ValueError(f"level {m} must have {m} entries, got {len(arr)}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"level {m} has non-finite entries")
            clean.append(arr)
        self.levels = clean

    @property
    def n(self):
        return len(self.levels)

    def level(self, m):
        """Eigenvalues of x_m in the stored order (1-based m)."""
        return self.levels[m - 1]

    def scale(self):
        """Global magnitude scale: max |Ritz value| over all levels, or 1."""
        s = max(float(np.max(np.abs(lev))) for lev in self.levels)
        return s if s > 0.0 else 1.0


@dataclass
class GenericityReport:
    """Outcome of the eigenvalue-disjointness tests.

    ``g1[m-1]``: the entries of level m are pairwise distinct.
    ``g2[m-1]``: levels m and m+1 share no eigenvalue.
    ``generic``: all of the above hold.
    ``ill_conditioned``: generic, but some gap is within a factor of
    GREY_ZONE_FACTOR of the coincidence threshold, so fibre coordinates exist
    but are numerically delicate.
    """

    g1: list
    g2: list
    generic: bool
    ill_conditioned: bool = False

    def first_failure(self):
        """Name of the first failing condition scanning level by level,
        e.g. ``"(G2_1)"``, or None when generic."""
        for m in range(1, len(self.g1) + 1):
            if not self.g1[m - 1]:
                return f"(G1_{m})"
            if m <= len(self.g2) and not self.g2[m - 1]:
                return f"(G2_{m})"
        return None


@dataclass
class FiberDescriptor:
    """Ritz values together with the diagonal entries they force."""

    ritz: RitzData
    diag: np.ndarray

    @classmethod
    def from_ritz(cls, r):
        return cls(r, diagonal_from_ritz(r))


def ritz_values(x, tol=DEFAULT_TOL):
    """Ritz values of x; every level is sorted in the canonical order.

    The whole of x is validated once; each level then costs one eigenvalues
    call on its m x m leading block.
    """
    x = as_complex_matrix(x)
    n = x.shape[0]
    return RitzData([eigenvalues(x[:m, :m], tol) for m in range(1, n + 1)])


def genericity_report(r, tol=DEFAULT_TOL):
    """Evaluate the disjointness conditions on a set of Ritz values.

    Two eigenvalues count as equal when they are within coincide_rel times the
    global Ritz scale; the scale is global because the cross-level conditions
    compare values from different levels.
    """
    thr = tol.coincide_rel * r.scale()
    within = [min_gap(lev) for lev in r.levels]
    between = [min_gap(lo, hi) for lo, hi in zip(r.levels, r.levels[1:])]
    g1 = [gap > thr for gap in within]
    g2 = [gap > thr for gap in between]
    generic = all(g1) and all(g2)
    in_grey_zone = min(within + between) <= GREY_ZONE_FACTOR * thr
    return GenericityReport(g1, g2, generic, generic and in_grey_zone)


def require_generic(r, tol=DEFAULT_TOL):
    """Raise GenericityError naming the first failing condition, if any."""
    rep = genericity_report(r, tol)
    if not rep.generic:
        raise GenericityError(f"{rep.first_failure()} fails: fibre is not generic")
    return rep


def diagonal_from_ritz(r):
    """Diagonal entries forced by the Ritz values: running trace differences."""
    sums = np.array([np.sum(lev) for lev in r.levels], dtype=np.complex128)
    diag = sums.copy()
    diag[1:] -= sums[:-1]
    return diag


def level_charpolys(r):
    """Characteristic polynomials P_1, ..., P_n of the levels of r."""
    return [charpoly_from_eigs(lev) for lev in r.levels]


def hessenberg_representative(r):
    """The unique unit upper Hessenberg matrix with the given Ritz values.

    Column m+1 above the diagonal is read off from the Hessenberg
    characteristic-polynomial recurrence
        P_{m+1}(l) = (l - d_{m+1}) P_m(l) - sum_k y[k, m+1] P_{k-1}(l),
    so the entries are the coefficients of (l - d_{m+1}) P_m - P_{m+1} in the
    basis (P_0, ..., P_{m-1}).  The construction is unconditional: it works
    for arbitrary Ritz values, generic or not.
    """
    n = r.n
    diag = diagonal_from_ritz(r)
    polys = [MonicPoly(np.zeros(0))] + level_charpolys(r)  # P_0, P_1, ..., P_n
    y = np.zeros((n, n), dtype=np.complex128)
    y[0, 0] = diag[0]
    for m in range(1, n):
        y[m, m - 1] = 1.0
        y[m, m] = diag[m]
        pm = polys[m].full()
        pm1 = polys[m + 1].full()
        target = np.zeros(m + 2, dtype=np.complex128)
        target[1:] += pm
        target[:-1] -= diag[m] * pm
        target -= pm1
        # degrees m and m+1 cancel identically; keep the genuine remainder
        y[:m, m] = poly_quotient_in_basis(target[:m], polys[:m])
    return y


def strong_regularity_check(x, tol=DEFAULT_TOL):
    """Whether the n(n+1)/2 trace functions tr((x_m)^k) have independent
    gradients at x.

    The gradient of tr((x_m)^k) is k * transpose(x_m^(k-1)) embedded in the
    top-left m x m block; the check stacks all of them as flat vectors and
    tests for full rank.
    """
    x = as_complex_matrix(x)
    n = x.shape[0]
    rows = []
    for m in range(1, n + 1):
        xm = x[:m, :m]
        power = np.eye(m, dtype=np.complex128)
        for k in range(1, m + 1):
            grad = np.zeros((n, n), dtype=np.complex128)
            grad[:m, :m] = k * power.T
            rows.append(grad.ravel())
            power = power @ xm
    stacked = np.array(rows)
    return numeric_rank(stacked, tol) == n * (n + 1) // 2
