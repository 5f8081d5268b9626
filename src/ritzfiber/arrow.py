"""Arrow-matrix machinery: Cauchy matrices, the fibre-intrinsic diagonal
matrices Sigma_m and Pi_m, and the closed-form spectral factorization of a
bordered-diagonal ("arrow") matrix.

An arrow matrix [[diag(d), p], [q^T, delta]] with spectrum lam (all d_i and
lam_j pairwise distinct) diagonalizes explicitly through Cauchy matrices; the
row/column eigenvector pairing Pi and the entrywise product Sigma of the
bordering coordinates depend only on (d, lam), never on p and q.  All of it
is read off one record of the pair, ``_Pair``, which ``fiber`` builds per level.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, SpectralCollisionError
from .numcore import COINCIDE_REL, as_complex_vector, magnitude_scale

# relative bound on the factorization reconstruction residual
FACTOR_RESIDUAL_REL = 1e-8
_COLLIDE = "Cauchy matrix parameters collide: some |d_i - lam_j| is below {:.3e}"


@dataclass
class ArrowMatrix:
    """Bordered diagonal matrix [[diag(d), p], [q^T, delta]] of order m+1."""

    d: np.ndarray
    p: np.ndarray
    q: np.ndarray
    delta: complex

    def __post_init__(self):
        self.d = as_complex_vector(self.d)
        self.p = as_complex_vector(self.p)
        self.q = as_complex_vector(self.q)
        self.delta = complex(self.delta)
        if not len(self.d) == len(self.p) == len(self.q):
            raise ValueError("d, p, q must have equal length")

    @property
    def order(self):
        return len(self.d) + 1

    def to_dense(self):
        m = len(self.d)
        a = np.zeros((m + 1, m + 1), dtype=np.complex128)
        a[:m, :m] = np.diag(self.d)
        a[:m, m] = self.p
        a[m, :m] = self.q
        a[m, m] = self.delta
        return a


@dataclass
class ArrowFactorization:
    """Spectral factorization A = Z^{-1} diag(lam) Z of an arrow matrix.

    The columns of z_inv are the column eigenvectors with last entry 1;
    pi holds the diagonal pairing of row and column eigenvectors.
    """

    lam: np.ndarray
    z_inv: np.ndarray
    pi: np.ndarray

    def z(self):
        """The row-eigenvector factor, solved on demand from z_inv."""
        k = self.z_inv.shape[0]
        return np.linalg.solve(self.z_inv, np.eye(k, dtype=np.complex128))


def _require_apart(gap, thr, message):
    if gap <= thr:
        raise SpectralCollisionError(message)


class _Pair:
    """One pair of adjacent levels (d, lam) in one pass: the gaps ``within``
    = min |d_i - d_k| (i != k) and ``between`` = min |d_i - lam_j| (inf when
    there is no pair), D = d - lam as ``diff``, the row products
    prod_j(d_i - lam_j) and P'(d_i) = prod_{k != i}(d_i - d_k) as
    ``products`` and Sigma_i = -prod_j(d_i - lam_j) / P'(d_i).  Both matrices
    are built transposed, so that row products and the Cauchy factor run over
    contiguous columns (five times faster at n = 64).  Nothing is checked: the
    caller holds np.errstate and reads the gaps first."""

    def __init__(self, d, lam=None):
        e = (d[None, :] - d[:, None]).T
        gaps = np.abs(e)
        gaps.flat[:: len(d) + 1] = np.inf  # the diagonal
        self.within = float(gaps.min(initial=np.inf))
        if lam is None:
            return
        self.diff = (d[None, :] - lam[:, None]).T
        self.between = float(np.abs(self.diff).min(initial=np.inf))
        e.flat[:: len(d) + 1] = 1.0
        top, dprime = self.diff.prod(axis=1), e.prod(axis=1)
        self.products = (top, dprime)
        self.sigma = -top / dprime

    def pi(self):
        """Pi_j = 1 + sum_i Sigma_i / (d_i - lam_j)^2, all ones for an empty d."""
        return 1.0 + self.sigma @ (1.0 / self.diff) ** 2


def _quiet_pair(d, lam=None):
    """_Pair of (d, lam) with numpy's floating-point warnings held back."""
    with np.errstate(all="ignore"):
        return _Pair(d, lam)


def cauchy_matrix(d, lam):
    """Matrix with entries 1 / (d_i - lam_j).

    Raises SpectralCollisionError when some pair d_i, lam_j coincides within
    COINCIDE_REL of the parameter scale.
    """
    d = as_complex_vector(d)
    lam = as_complex_vector(lam)
    thr = COINCIDE_REL * magnitude_scale(d, lam)
    pair = _quiet_pair(d, lam)
    _require_apart(pair.between, thr, _COLLIDE.format(thr))
    return 1.0 / pair.diff


def sigma_matrix(r, m):
    """Diagonal of Sigma_m = -P_{m+1}(Lam_m) / P_m'(Lam_m).

    Sigma_m depends only on the Ritz values; on any matrix of the fibre it
    equals the entrywise product of the bordering coordinates b_m and c_m.
    """
    if not 1 <= m <= r.n - 1:
        raise ValueError(f"level m={m} out of range 1..{r.n - 1}")
    thr = COINCIDE_REL * r.scale()
    pair = _quiet_pair(r.level(m), r.level(m + 1))
    _require_apart(pair.within, thr, f"(G1_{m}) fails: level {m} has a repeated eigenvalue")
    _require_apart(
        pair.between, thr, f"(G2_{m}) fails: levels {m} and {m + 1} share an eigenvalue"
    )
    return pair.sigma


def pi_matrix(d, lam):
    """Diagonal pairing of row and column eigenvectors of an arrow matrix.

    Closed form, independent of the bordering vectors p and q:
        Pi_j = 1 - sum_i prod_k(d_i - lam_k) /
                        ((lam_j - d_i)^2 * prod_{k != i}(d_i - d_k)).
    An empty d (no previous level) returns all ones by the empty-sum
    convention.
    """
    d = as_complex_vector(d)
    lam = as_complex_vector(lam)
    thr = COINCIDE_REL * magnitude_scale(d, lam)
    pair = _quiet_pair(d, lam)
    _require_apart(pair.within, thr, "pi_matrix requires pairwise distinct d")
    _require_apart(pair.between, thr, "pi_matrix requires d and lam disjoint")
    return pair.pi()


def arrow_factorize(a, lam):
    """Spectral factorization of an arrow matrix with spectrum lam.

    Builds Z^{-1} = [-diag(p) Cauchy(d, lam); ones] and the pairing diagonal
    Pi, then verifies the reconstruction residual ||A - Z^{-1} diag(lam) Z||
    against FACTOR_RESIDUAL_REL * ||A||.
    """
    if not isinstance(a, ArrowMatrix):
        raise ValueError("arrow_factorize expects an ArrowMatrix")
    lam = as_complex_vector(lam)
    m = len(a.d)
    if len(lam) != m + 1:
        raise ValueError(f"spectrum must have {m + 1} values, got {len(lam)}")
    thr = COINCIDE_REL * magnitude_scale(a.d, lam)
    spectrum = _quiet_pair(lam)
    _require_apart(
        spectrum.within, thr, "arrow spectrum has a repeated eigenvalue; factorization rejected"
    )
    pair = _quiet_pair(a.d, lam)
    _require_apart(pair.between, thr, _COLLIDE.format(thr))
    _require_apart(pair.within, thr, "arrow diagonal d has a repeated entry")
    z_inv = np.vstack([-a.p[:, None] * (1.0 / pair.diff), np.ones((1, m + 1))])
    fact = ArrowFactorization(lam.copy(), z_inv, pair.pi())
    dense = a.to_dense()
    recon = (z_inv * lam[None, :]) @ fact.z()
    residual = np.linalg.norm(recon - dense)
    bound = FACTOR_RESIDUAL_REL * max(np.linalg.norm(dense), 1e-300)
    if residual > bound:
        raise NumericalError(
            f"arrow factorization residual {residual:.3e} exceeds {bound:.3e}; "
            "is lam really the spectrum?"
        )
    return fact
