"""Observability, controllability, and regularity diagnostics for single-input
single-output bordered systems, plus the unique bordering-completion solver.

A bordered extension [[B, c], [b^T, delta]] has a prescribed characteristic
polynomial exactly when the Markov parameters b^T B^{k-1} c match the series
coefficients of l - delta - target(l) / P_B(l); with delta fixed by the trace
difference, solving the first m of those equations yields the unique c
precisely when (B, b) is observable.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import CompletionError, NumericalError
from .numcore import (
    COINCIDE_REL,
    MonicPoly,
    _commutant_dim,
    as_complex_matrix,
    as_complex_vector,
    charpoly_from_eigs,
    eigenvalues,
    magnitude_scale,
    numeric_rank,
)

# relative coefficientwise bound on the completed characteristic polynomial
COMPLETION_RESIDUAL = 1e-7


@dataclass
class SISOSystem:
    """Continuous time-invariant SISO system x' = B x + c u, y = b^T x + d u."""

    b_matrix: np.ndarray
    row: np.ndarray
    col: np.ndarray
    delta: complex

    def __post_init__(self):
        self.b_matrix = as_complex_matrix(self.b_matrix)
        self.row = as_complex_vector(self.row)
        self.col = as_complex_vector(self.col)
        self.delta = complex(self.delta)
        m = self.b_matrix.shape[0]
        if len(self.row) != m or len(self.col) != m:
            raise ValueError("row and col must match the state dimension")

    def bordered(self):
        """The (m+1) x (m+1) matrix [[B, c], [b^T, delta]]."""
        m = self.b_matrix.shape[0]
        out = np.zeros((m + 1, m + 1), dtype=np.complex128)
        out[:m, :m] = self.b_matrix
        out[:m, m] = self.col
        out[m, :m] = self.row
        out[m, m] = self.delta
        return out


@dataclass
class JordanSpec:
    """Direct sum of lower Jordan blocks with pairwise distinct eigenvalues."""

    blocks: list = field(default_factory=list)

    def __post_init__(self):
        clean = []
        for d, size in self.blocks:
            size = int(size)
            if size < 1:
                raise ValueError("block sizes must be positive")
            clean.append((complex(d), size))
        values = [d for d, _ in clean]
        for i in range(len(values)):
            for j in range(i + 1, len(values)):
                if values[i] == values[j]:
                    raise ValueError("block eigenvalues must be pairwise distinct")
        self.blocks = clean

    @property
    def order(self):
        return sum(size for _, size in self.blocks)

    def to_matrix(self):
        """Assemble the block-diagonal matrix, ones on each block subdiagonal."""
        m = self.order
        out = np.zeros((m, m), dtype=np.complex128)
        pos = 0
        for d, size in self.blocks:
            for i in range(size):
                out[pos + i, pos + i] = d
                if i > 0:
                    out[pos + i, pos + i - 1] = 1.0
            pos += size
        return out

    def segment_ends(self):
        """0-based index of the last row of each block."""
        ends = []
        pos = 0
        for _, size in self.blocks:
            pos += size
            ends.append(pos - 1)
        return ends


def _krylov_rows(b_matrix, vec, count=None):
    """Rows vec^T B^k, k = 0..count-1 (count defaults to the order m),
    stacked as a count x m matrix; overflow raises NumericalError."""
    count = b_matrix.shape[0] if count is None else count
    rows = np.zeros((count, len(vec)), dtype=np.complex128)
    with np.errstate(all="ignore"):
        for k in range(count):
            rows[k] = vec if k == 0 else b_matrix.T @ rows[k - 1]
    if not np.all(np.isfinite(rows)):
        raise NumericalError("Krylov matrix overflowed: its entries are not finite")
    return rows


def _validated(b_matrix, vec, kind):
    b_matrix = as_complex_matrix(b_matrix)
    vec = as_complex_vector(vec)
    if len(vec) != b_matrix.shape[0]:
        raise ValueError(f"{kind} vector length must match the matrix order")
    return b_matrix, vec


def observable(b_matrix, b):
    """Kalman test: rank(b, B^T b, ..., (B^T)^{m-1} b) = m."""
    b_matrix, b = _validated(b_matrix, b, "row")
    return numeric_rank(_krylov_rows(b_matrix, b)) == len(b)


def controllable(b_matrix, c):
    """Kalman test: rank(c, B c, ..., B^{m-1} c) = m."""
    b_matrix, c = _validated(b_matrix, c, "column")
    return numeric_rank(_krylov_rows(b_matrix.T, c)) == len(c)


def is_regular(b_matrix):
    """Whether B is non-derogatory: its commutant {Y : BY = YB} is the span of
    I, B, ..., B^{m-1}.  Sylvester singular values count as zero at or below
    RANK_REL * ||B||_2, on B scaled by a power of two; centralizer_basis agrees."""
    b_matrix = as_complex_matrix(b_matrix)
    return _commutant_dim(b_matrix) == b_matrix.shape[0]


def markov_hankel(sys, n_rows):
    """N x N Hankel matrix of the Markov parameters b^T B^{i+j-2} c."""
    if not isinstance(sys, SISOSystem):
        raise ValueError("markov_hankel expects a SISOSystem")
    if n_rows < 1:
        raise ValueError("N must be >= 1")
    with np.errstate(all="ignore"):
        params = _krylov_rows(sys.b_matrix, sys.row, 2 * n_rows - 1) @ sys.col
    if not np.all(np.isfinite(params)):
        raise NumericalError("Markov parameters overflowed: they are not finite")
    idx = np.arange(n_rows)
    return params[idx[:, None] + idx[None, :]]


def charpoly(b_matrix):
    """Characteristic polynomial det(lI - B) via the computed spectrum."""
    return charpoly_from_eigs(eigenvalues(b_matrix))


def markov_parameters_from_target(p_b, target, delta, count):
    """Series coefficients g_k of l - delta - target(l) / P_B(l), k = 1..count.

    Obtained from the long-division remainder: with target = (l - delta) P_B
    + R the series equals -R / P_B, whose coefficients follow the linear
    recurrence g_k = -r_{m-k} - sum_{i<k} g_i p_{m-k+i}.
    """
    p = p_b.full()
    t = target.full()
    m = p_b.degree
    if target.degree != m + 1:
        raise ValueError(f"target degree must be {m + 1}, got {target.degree}")
    # remainder R = target - (l - delta) * P_B, degree <= m-1
    prod = np.zeros(m + 2, dtype=np.complex128)
    prod[1:] += p
    prod[:-1] -= delta * p
    rem = (t - prod)[:m]
    g = np.zeros(count, dtype=np.complex128)
    for k in range(1, count + 1):
        acc = -rem[m - k] if k <= m else 0.0 + 0.0j
        for i in range(1, k):
            idx = m - k + i
            if 0 <= idx <= m:
                acc -= g[i - 1] * p[idx]
        g[k - 1] = acc
    return g


def solve_unique_completion(b_matrix, b, target):
    """The unique column c giving [[B, c], [b^T, delta]] the target
    characteristic polynomial; delta is fixed by the trace difference.

    Requires (B, b) observable; the result is verified by recomputing the
    characteristic polynomial of the completed matrix coefficientwise.
    """
    b_matrix, b = _validated(b_matrix, b, "row")
    m = len(b)
    if not isinstance(target, MonicPoly):
        target = MonicPoly(target)
    if target.degree != m + 1:
        raise ValueError(f"target degree must be {m + 1}, got {target.degree}")
    rows = _krylov_rows(b_matrix, b)
    if numeric_rank(rows) != m:
        raise CompletionError("no unique completion: the system is not observable")
    with np.errstate(all="ignore"):
        # trace of the bordered matrix is minus the coefficient of l^m
        delta = -target.coeffs[m] - np.trace(b_matrix)
        g = markov_parameters_from_target(charpoly(b_matrix), target, delta, m)
        try:
            c = np.linalg.solve(rows, g)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"observability matrix solve failed: {exc}") from None
        if not (np.isfinite(delta) and np.all(np.isfinite(c))):
            raise NumericalError("completion overflowed: delta or c is not finite")
        achieved = charpoly(SISOSystem(b_matrix, b, c, delta).bordered())
        scale = max(1.0, float(np.max(np.abs(target.full()))))
        err = float(np.max(np.abs(achieved.full() - target.full())))
    if not err <= COMPLETION_RESIDUAL * scale:
        raise NumericalError(
            f"completion residual {err:.3e} exceeds {COMPLETION_RESIDUAL:.1e} "
            "(coefficientwise)"
        )
    return c


def jordan_observable_row(spec, row):
    """Observability of a row against a lower-Jordan block-diagonal matrix.

    True exactly when the row entry at the end of each Jordan segment is
    (numerically) nonzero.
    """
    if not isinstance(spec, JordanSpec):
        raise ValueError("jordan_observable_row expects a JordanSpec")
    row = as_complex_vector(row)
    if len(row) != spec.order:
        raise ValueError(f"row must have {spec.order} entries, got {len(row)}")
    thr = COINCIDE_REL * magnitude_scale(row)
    return all(abs(row[e]) > thr for e in spec.segment_ends())
