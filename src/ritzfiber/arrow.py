"""Arrow-matrix machinery: Cauchy matrices, the fibre-intrinsic diagonal
matrices Sigma_m and Pi_m, and the closed-form spectral factorization of a
bordered-diagonal ("arrow") matrix.

An arrow matrix [[diag(d), p], [q^T, delta]] with spectrum lam (all d_i and
lam_j pairwise distinct) diagonalizes explicitly through Cauchy matrices; the
row/column eigenvector pairing Pi and the entrywise product Sigma of the
bordering coordinates depend only on (d, lam), never on p and q.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, SpectralCollisionError
from .numcore import DEFAULT_TOL, as_complex_vector, derivative_at_roots, min_gap

# relative bound on the factorization reconstruction residual
FACTOR_RESIDUAL_REL = 1e-8


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


def _collision_scale(*groups):
    top = 0.0
    for g in groups:
        if len(g):
            top = max(top, float(np.max(np.abs(g))))
    return top if top > 0.0 else 1.0


def _require_apart(gap, thr, message):
    if gap <= thr:
        raise SpectralCollisionError(message)


def _sigma(mus, nxt):
    """Check-free Sigma_m = -P_{m+1}(Lam_m) / P_m'(Lam_m) on validated levels."""
    return -np.prod(mus[:, None] - nxt[None, :], axis=1) / derivative_at_roots(mus)


def _pi(d, lam):
    """Check-free Pi_j = 1 + sum_i Sigma(d, lam)_i / (d_i - lam_j)^2 on
    validated, mutually disjoint d and lam (all ones for an empty d)."""
    return 1.0 + _sigma(d, lam) @ (1.0 / (d[:, None] - lam[None, :])) ** 2


def cauchy_matrix(d, lam, tol=DEFAULT_TOL):
    """Matrix with entries 1 / (d_i - lam_j).

    Raises SpectralCollisionError when some pair d_i, lam_j coincides within
    coincide_rel of the parameter scale.
    """
    d = as_complex_vector(d)
    lam = as_complex_vector(lam)
    thr = tol.coincide_rel * _collision_scale(d, lam)
    msg = f"Cauchy matrix parameters collide: some |d_i - lam_j| is below {thr:.3e}"
    _require_apart(min_gap(d, lam), thr, msg)
    return 1.0 / (d[:, None] - lam[None, :])


def sigma_matrix(r, m, tol=DEFAULT_TOL):
    """Diagonal of Sigma_m = -P_{m+1}(Lam_m) / P_m'(Lam_m).

    Sigma_m depends only on the Ritz values; on any matrix of the fibre it
    equals the entrywise product of the bordering coordinates b_m and c_m.
    """
    if not 1 <= m <= r.n - 1:
        raise ValueError(f"level m={m} out of range 1..{r.n - 1}")
    thr = tol.coincide_rel * r.scale()
    mus = r.level(m)
    nxt = r.level(m + 1)
    _require_apart(min_gap(mus), thr, f"(G1_{m}) fails: level {m} has a repeated eigenvalue")
    _require_apart(
        min_gap(mus, nxt), thr, f"(G2_{m}) fails: levels {m} and {m + 1} share an eigenvalue"
    )
    return _sigma(mus, nxt)


def bc_product(r, m, tol=DEFAULT_TOL):
    """Entrywise product b_m * c_m shared by every matrix on the fibre.

    Identical to sigma_matrix; named separately to document the identity
    diag(b_m) diag(c_m) = -P_{m+1}(Lam_m) P_m'(Lam_m)^{-1}.
    """
    return sigma_matrix(r, m, tol)


def pi_matrix(d, lam, tol=DEFAULT_TOL):
    """Diagonal pairing of row and column eigenvectors of an arrow matrix.

    Closed form, independent of the bordering vectors p and q:
        Pi_j = 1 - sum_i prod_k(d_i - lam_k) /
                        ((lam_j - d_i)^2 * prod_{k != i}(d_i - d_k)).
    An empty d (no previous level) returns all ones by the empty-sum
    convention.
    """
    d = as_complex_vector(d)
    lam = as_complex_vector(lam)
    thr = tol.coincide_rel * _collision_scale(d, lam)
    _require_apart(min_gap(d), thr, "pi_matrix requires pairwise distinct d")
    _require_apart(min_gap(d, lam), thr, "pi_matrix requires d and lam disjoint")
    return _pi(d, lam)


def arrow_factorize(a, lam, tol=DEFAULT_TOL):
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
    thr = tol.coincide_rel * _collision_scale(a.d, lam)
    _require_apart(
        min_gap(lam), thr, "arrow spectrum has a repeated eigenvalue; factorization rejected"
    )
    cau = cauchy_matrix(a.d, lam, tol)  # enforces d vs lam disjointness
    _require_apart(min_gap(a.d), thr, "arrow diagonal d has a repeated entry")
    z_inv = np.vstack([-a.p[:, None] * cau, np.ones((1, m + 1))])
    fact = ArrowFactorization(lam.copy(), z_inv, _pi(a.d, lam))
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
