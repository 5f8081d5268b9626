"""Ritz values, genericity classification, and the unit upper Hessenberg
fibre representative.

The Ritz values of x are the eigenvalue lists of all leading principal
submatrices x_1, ..., x_n.  They determine the diagonal of x and cut the space
of matrices into fibres; each fibre contains exactly one unit upper Hessenberg
matrix, which this module constructs directly from the Ritz values.

The genericity gaps, Sigma_m = b_m * c_m and the Cauchy factor of the
eigenvector chain all come from one record per pair of adjacent levels
(``arrow._Pair``), which ``require_generic`` builds once per call and returns.
"""

from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .arrow import _Pair
from .errors import GenericityError, NumericalError
from .numcore import (
    COINCIDE_REL,
    MonicPoly,
    as_complex_matrix,
    charpoly_from_eigs,
    eigenvalues,
    magnitude_scale,
    numeric_rank,
    poly_quotient_in_basis,
)

# relative width of the near-genericity grey zone (see GenericityReport)
GREY_ZONE_FACTOR = 1e3
_FLOAT = np.finfo(np.float64)


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

    @classmethod
    def _trusted(cls, levels):
        """RitzData of levels the library has just computed: finite
        complex128 vectors of lengths 1, ..., n, stored as given without
        re-validation."""
        r = object.__new__(cls)
        r.levels = levels
        return r

    @property
    def n(self):
        return len(self.levels)

    def level(self, m):
        """Eigenvalues of x_m in the stored order (1-based m)."""
        return self.levels[m - 1]

    def scale(self):
        """Global magnitude scale: max |Ritz value| over all levels, or 1."""
        return magnitude_scale(*self.levels)


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


def ritz_values(x):
    """Ritz values of x; every level is sorted in the canonical order.

    The whole of x is validated once; each level then costs one eigenvalues
    call on its m x m leading block.
    """
    x = as_complex_matrix(x)
    n = x.shape[0]
    return RitzData([eigenvalues(x[:m, :m]) for m in range(1, n + 1)])


def _genericity(scale, within, between):
    """GenericityReport on the within-level and adjacent-level gaps."""
    thr = COINCIDE_REL * scale
    g1 = [gap > thr for gap in within]
    g2 = [gap > thr for gap in between]
    generic = all(g1) and all(g2)
    in_grey_zone = min(within + between) <= GREY_ZONE_FACTOR * thr
    return GenericityReport(g1, g2, generic, generic and in_grey_zone)


class _LevelPass:
    """The _Pair of every two adjacent levels (Lam_m, Lam_{m+1}), built under one
    np.errstate, and the genericity report of their gaps and level n's."""

    def __init__(self, r):
        levels = r.levels
        with np.errstate(all="ignore"):
            self.pairs = list(map(_Pair, levels[:-1], levels[1:]))
            top = _Pair(levels[-1]).within
        self.scale = r.scale()
        within = [pr.within for pr in self.pairs] + [top]
        self.report = _genericity(self.scale, within, [pr.between for pr in self.pairs])

    def require_in_range(self):
        """Raise NumericalError unless every row product of the pairs lies in
        the normal float range; outside it Sigma_m loses digits or is 0 or inf."""
        if not self.pairs:
            return
        with np.errstate(all="ignore"):
            mags = np.abs(np.concatenate([v for pr in self.pairs for v in pr.products]))
        if not _FLOAT.tiny <= mags.min() <= mags.max() <= _FLOAT.max:
            raise NumericalError("a Ritz product leaves the normal float range")


def _eigvec_chain(p, b=None):
    """Yield ``(m, g_m, Sigma_m)`` for m = 1, ..., n-1, then ``(n, g_n, None)``.

    g_m is the eigenvector matrix of x_m with last row ones at the fibre point
    with bordering rows b (b = 1 when None), from the Cauchy recurrence
        g_{m+1} = [g_m diag(-Sigma_m / b_m) Cauchy(Lam_m, Lam_{m+1}); ones].
    ``p`` is the _LevelPass of generic Ritz values.
    """
    g = np.ones((1, 1), dtype=np.complex128)
    for m, pair in enumerate(p.pairs, start=1):
        yield m, g, pair.sigma
        w = -pair.sigma if b is None else -pair.sigma / b[m - 1]
        nxt = np.empty((m + 1, m + 1), dtype=np.complex128)
        np.matmul(g, w[:, None] / pair.diff, out=nxt[:m])
        nxt[m] = 1.0
        g = nxt
    yield len(p.pairs) + 1, g, None


def genericity_report(r):
    """Evaluate the disjointness conditions on a set of Ritz values.

    Two eigenvalues count as equal when they are within COINCIDE_REL times the
    global Ritz scale; the scale is global because the cross-level conditions
    compare values from different levels.  The gaps are those of the level
    pass that ``require_generic`` gates on.
    """
    return _LevelPass(r).report


def require_generic(r):
    """Raise GenericityError naming the first failing condition, if any;
    otherwise return the level pass the gate was taken from, whose per-pair
    records the fibre arithmetic reuses.  It reads gaps only, not products."""
    p = _LevelPass(r)
    if not p.report.generic:
        raise GenericityError(f"{p.report.first_failure()} fails: fibre is not generic")
    return p


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

    On generic Ritz values it is the fibre point with b = 1: there c_m =
    Sigma_m and the bordering row is e_m^T, so column m+1 above the diagonal
    is y[:m, m] = g_m Sigma_m, with g_m from the eigenvector chain that
    ``reconstruct`` runs.  The representative exists on every fibre, so
    non-generic Ritz values take the characteristic-polynomial recurrence.
    A Ritz product out of the normal float range on the closed-form route,
    or a non-finite result on either route, raises NumericalError.
    """
    p = _LevelPass(r)
    with np.errstate(all="ignore"):
        y = _hessenberg_closed_form(r, p) if p.report.generic else _hessenberg_recurrence(r)
    if not np.all(np.isfinite(y)):
        raise NumericalError("Hessenberg representative overflows")
    return y


def _hessenberg_closed_form(r, p):
    p.require_in_range()
    n = r.n
    y = np.zeros((n, n), dtype=np.complex128)
    np.fill_diagonal(y, diagonal_from_ritz(r))
    y[np.arange(1, n), np.arange(n - 1)] = 1.0
    # stop the chain before it builds g_n, which y does not need
    for m, g, sigma in islice(_eigvec_chain(p), n - 1):
        y[:m, m] = g @ sigma
    return y


def _hessenberg_recurrence(r):
    """The representative from the Hessenberg characteristic-polynomial
    recurrence
        P_{m+1}(l) = (l - d_{m+1}) P_m(l) - sum_k y[k, m+1] P_{k-1}(l),
    so column m+1 above the diagonal holds the coefficients of
    (l - d_{m+1}) P_m - P_{m+1} in the basis (P_0, ..., P_{m-1}).  It works
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


def strong_regularity_check(x):
    """Whether the n(n+1)/2 trace functions tr((x_m)^k) have independent
    gradients at x.

    The gradient of tr((x_m)^k) is k * transpose(x_m^(k-1)) embedded in the
    top-left m x m block; the check stacks all of them as flat vectors and
    tests for full rank.
    """
    x = as_complex_matrix(x)
    n = x.shape[0]
    rows = []
    with np.errstate(all="ignore"):
        for m in range(1, n + 1):
            xm = x[:m, :m]
            power = np.eye(m, dtype=np.complex128)
            for k in range(1, m + 1):
                grad = np.zeros((n, n), dtype=np.complex128)
                grad[:m, :m] = k * power.T
                rows.append(grad.ravel())
                power = power @ xm
    stacked = np.array(rows)
    if not np.all(np.isfinite(stacked)):
        raise NumericalError("powers of a leading block overflow")
    return numeric_rank(stacked) == n * (n + 1) // 2
