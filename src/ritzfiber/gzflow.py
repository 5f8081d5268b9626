"""Gelfand-Zeitlin group flows and the symbolic Poisson engine.

The commuting Hamiltonians tr((x_m)^k), 1 <= k <= m <= n-1, generate closed
form flows: each acts by a structured similarity built from a function of the
leading submatrix x_m, so every flow preserves all Ritz levels.  Per
eigenvalue of a level there is a finer flow that rescales exactly one slot of
the s-coordinate vector by e^{-q} and leaves the rest untouched.

The module also carries an exact sparse polynomial algebra in the matrix
entry functionals a_ij with the bracket {a_ij, a_kl} = d_jk a_il - d_il a_kj,
used to certify the commutativity of the trace generators symbolically.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .coords import diagonalizer
from .errors import NotRegularError, NumericalError
from .fiber import require_generic, ritz_values
from .numcore import DEFAULT_TOL, as_complex_matrix, numeric_rank

# ---------------------------------------------------------------------------
# matrix exponential: scaling and squaring with a degree-13 Pade core
# ---------------------------------------------------------------------------

_PADE13 = (
    64764752532480000.0,
    32382376266240000.0,
    7771770303897600.0,
    1187353796428800.0,
    129060195264000.0,
    10559470521600.0,
    670442572800.0,
    33522128640.0,
    1323241920.0,
    40840800.0,
    960960.0,
    16380.0,
    182.0,
    1.0,
)
_THETA13 = 5.371920351148152


def expm(a):
    """Matrix exponential by scaling and squaring with a Pade-13 core; an
    overflowing 1-norm raises NumericalError."""
    a = as_complex_matrix(a)
    n = a.shape[0]
    norm = float(np.linalg.norm(a, 1))
    if not np.isfinite(norm):
        raise NumericalError("matrix exponential overflows: the 1-norm is not finite")
    squarings = 0
    if norm > _THETA13:
        squarings = int(np.ceil(np.log2(norm / _THETA13)))
        a = a / (2.0 ** squarings)
    b = _PADE13
    ident = np.eye(n, dtype=np.complex128)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(squarings):
        r = r @ r
    return r


# ---------------------------------------------------------------------------
# flows
# ---------------------------------------------------------------------------


@dataclass
class FlowParam:
    """Level m, power k, and complex time q of a trace-function flow."""

    m: int
    k: int
    q: complex

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"level m must be >= 1, got {self.m}")
        if not 1 <= self.k <= self.m:
            raise ValueError(f"power k must be in 1..{self.m}, got {self.k}")
        self.q = complex(self.q)


def _embed(top, n):
    m = top.shape[0]
    full = np.eye(n, dtype=np.complex128)
    full[:m, :m] = top
    return full


def _finite(a):
    """a itself; NumericalError when a flow overflowed to inf or nan."""
    if not np.all(np.isfinite(a)):
        raise NumericalError("flow overflowed: the result is not finite")
    return a


def gz_flow(x, p):
    """Time-q flow of tr((x_m)^k): conjugation by exp(-q k x_m^{k-1}) (+) I.

    Preserves every Ritz level as a multiset; overflow raises NumericalError.
    """
    x = as_complex_matrix(x)
    n = x.shape[0]
    if not isinstance(p, FlowParam):
        raise ValueError("gz_flow expects a FlowParam")
    if p.m > n - 1:
        raise ValueError(f"level m={p.m} out of range 1..{n - 1}")
    with np.errstate(all="ignore"):
        gen = _finite(p.q * p.k * np.linalg.matrix_power(x[: p.m, : p.m], p.k - 1))
        fwd = _embed(expm(-gen), n)
        bwd = _embed(expm(gen), n)
        return _finite(fwd @ x @ bwd)


def gz_vector_field(x, m, k):
    """Infinitesimal generator of gz_flow at q = 0: [x, k (x_m^{k-1} (+) 0)]."""
    x = as_complex_matrix(x)
    n = x.shape[0]
    if not 1 <= m <= n - 1:
        raise ValueError(f"level m={m} out of range 1..{n - 1}")
    if not 1 <= k <= m:
        raise ValueError(f"power k={k} out of range 1..{m}")
    e = np.zeros((n, n), dtype=np.complex128)
    e[:m, :m] = k * np.linalg.matrix_power(x[:m, :m], k - 1)
    return x @ e - e @ x


def decode_slot(j):
    """Split a flat coordinate index j = m(m-1)/2 + l into (m, l)."""
    if j < 1:
        raise ValueError(f"slot index must be >= 1, got {j}")
    m = 1
    while m * (m + 1) // 2 < j:
        m += 1
    return m, j - m * (m - 1) // 2


def eigen_flow(x, j, q, tol=DEFAULT_TOL):
    """Per-eigenvalue flow on a generic fibre.

    For j = m(m-1)/2 + l the matrix is conjugated by the structured similarity
    g_m diag(1, ..., e^q at slot l, ..., 1) g_m^{-1} (+) I, where g_m is the
    last-row-ones diagonalizer of x_m in canonical eigenvalue order.  The
    effect on the s-coordinates is s_j -> e^{-q} s_j with every other slot
    unchanged; q in 2 pi i Z acts as the identity.
    """
    x = as_complex_matrix(x)
    n = x.shape[0]
    q = complex(q)
    m, l = decode_slot(j)
    if m > n - 1:
        raise ValueError(f"slot j={j} addresses level {m}, out of range 1..{n - 1}")
    qs = np.zeros(m, dtype=np.complex128)
    qs[l - 1] = q
    return level_flow(x, m, qs, tol)


def level_flow(x, m, qs, tol=DEFAULT_TOL):
    """All m per-eigenvalue flows of level m applied at once.

    One conjugation by g_m diag(e^{q_1}, ..., e^{q_m}) g_m^{-1} (+) I; equal
    to composing the individual eigen_flows of the level in any order;
    overflow raises NumericalError.
    """
    x = as_complex_matrix(x)
    n = x.shape[0]
    qs = np.atleast_1d(np.asarray(qs, dtype=np.complex128)).ravel()
    if not 1 <= m <= n - 1:
        raise ValueError(f"level m={m} out of range 1..{n - 1}")
    if len(qs) != m:
        raise ValueError(f"need {m} flow times, got {len(qs)}")
    r = ritz_values(x, tol)
    require_generic(r, tol)
    g = diagonalizer(x[:m, :m], r.level(m), tol)
    ginv = np.linalg.solve(g, np.eye(m, dtype=np.complex128))
    with np.errstate(all="ignore"):
        dvec = np.exp(qs)
        fwd = _embed(g @ (dvec[:, None] * ginv), n)
        bwd = _embed(g @ ((1.0 / dvec)[:, None] * ginv), n)
        return _finite(fwd @ x @ bwd)


def centralizer_basis(x, m, tol=DEFAULT_TOL):
    """Basis (I, x_m, ..., x_m^{m-1}) of the commutative similarity group of
    level m, each embedded as g (+) I_{n-m}.

    Requires x_m regular (non-derogatory), verified by the nullity of the
    commutant equations I (x) x_m - x_m^T (x) I being exactly m.
    """
    x = as_complex_matrix(x)
    n = x.shape[0]
    if not 1 <= m <= n:
        raise ValueError(f"level m={m} out of range 1..{n}")
    xm = x[:m, :m]
    ident = np.eye(m, dtype=np.complex128)
    syl = np.kron(ident, xm) - np.kron(xm.T, ident)
    nullity = m * m - numeric_rank(syl, tol)
    if nullity > m:
        raise NotRegularError(
            f"leading submatrix of order {m} is not regular: its commutant has "
            f"dimension {nullity} > {m}"
        )
    if nullity < m:
        raise NumericalError(
            f"commutant nullity {nullity} < {m}; rank tolerance too tight"
        )
    out = []
    power = np.eye(m, dtype=np.complex128)
    for _ in range(m):
        out.append(_embed(power, n))
        power = power @ xm
    return out


# ---------------------------------------------------------------------------
# exact sparse polynomials in the entry functionals a_ij
# ---------------------------------------------------------------------------


def _frac_complex(value):
    """Exact rational-complex coefficient as a (Fraction, Fraction) pair."""
    if isinstance(value, tuple):
        return value
    if isinstance(value, complex):
        return (Fraction(value.real), Fraction(value.imag))
    return (Fraction(value), Fraction(0))


def _fc_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _fc_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _fc_is_zero(a):
    return a[0] == 0 and a[1] == 0


class SparsePoly:
    """Polynomial in the entry functionals a_ij of an n x n matrix.

    Terms map a sorted tuple of ((i, j), power) pairs to an exact
    rational-complex coefficient; zero coefficients are never stored, so
    equality with zero is exact.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        self.n = int(n)
        self.terms = {}
        if terms:
            for key, coeff in terms.items():
                coeff = _frac_complex(coeff)
                if not _fc_is_zero(coeff):
                    self.terms[key] = coeff

    @classmethod
    def zero(cls, n):
        return cls(n)

    @classmethod
    def constant(cls, n, value):
        return cls(n, {(): value})

    @classmethod
    def variable(cls, n, i, j):
        """The linear functional a_ij, 1-based indices."""
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"indices ({i}, {j}) out of range 1..{n}")
        return cls(n, {(((i, j), 1),): 1})

    def is_zero(self):
        return not self.terms

    def _check_same_n(self, other):
        if self.n != other.n:
            raise ValueError(f"mixed matrix sizes {self.n} and {other.n}")

    def __add__(self, other):
        if not isinstance(other, SparsePoly):
            other = SparsePoly.constant(self.n, other)
        self._check_same_n(other)
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            acc = _fc_add(terms.get(key, (Fraction(0), Fraction(0))), coeff)
            if _fc_is_zero(acc):
                terms.pop(key, None)
            else:
                terms[key] = acc
        out = SparsePoly(self.n)
        out.terms = terms
        return out

    def __neg__(self):
        out = SparsePoly(self.n)
        out.terms = {k: (-c[0], -c[1]) for k, c in self.terms.items()}
        return out

    def __sub__(self, other):
        if not isinstance(other, SparsePoly):
            other = SparsePoly.constant(self.n, other)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, SparsePoly):
            other = SparsePoly.constant(self.n, other)
        self._check_same_n(other)
        terms = {}
        for k1, c1 in self.terms.items():
            e1 = dict(k1)
            for k2, c2 in other.terms.items():
                merged = dict(e1)
                for var, p in k2:
                    merged[var] = merged.get(var, 0) + p
                key = tuple(sorted(merged.items()))
                coeff = _fc_mul(c1, c2)
                acc = _fc_add(terms.get(key, (Fraction(0), Fraction(0))), coeff)
                if _fc_is_zero(acc):
                    terms.pop(key, None)
                else:
                    terms[key] = acc
        out = SparsePoly(self.n)
        out.terms = terms
        return out

    __rmul__ = __mul__
    __radd__ = __add__

    def __eq__(self, other):
        if isinstance(other, SparsePoly):
            return self.n == other.n and self.terms == other.terms
        if other == 0:
            return self.is_zero()
        return NotImplemented

    def __hash__(self):
        return hash((self.n, tuple(sorted(self.terms))))

    def variables(self):
        """Set of (i, j) index pairs that actually occur."""
        seen = set()
        for key in self.terms:
            for var, _ in key:
                seen.add(var)
        return seen

    def partial(self, i, j):
        """Partial derivative with respect to a_ij."""
        var = (i, j)
        terms = {}
        for key, coeff in self.terms.items():
            exps = dict(key)
            p = exps.get(var, 0)
            if p == 0:
                continue
            new_exps = dict(exps)
            if p == 1:
                del new_exps[var]
            else:
                new_exps[var] = p - 1
            new_key = tuple(sorted(new_exps.items()))
            scaled = _fc_mul(coeff, (Fraction(p), Fraction(0)))
            acc = _fc_add(terms.get(new_key, (Fraction(0), Fraction(0))), scaled)
            if _fc_is_zero(acc):
                terms.pop(new_key, None)
            else:
                terms[new_key] = acc
        out = SparsePoly(self.n)
        out.terms = terms
        return out

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for key, coeff in sorted(self.terms.items()):
            factors = "".join(
                f"a{i}{j}" + (f"^{p}" if p > 1 else "") for (i, j), p in key
            )
            re, im = coeff
            if im == 0:
                cs = str(re)
            else:
                cs = f"({re}{'+' if im >= 0 else ''}{im}j)"
            parts.append(f"{cs}*{factors}" if factors else cs)
        return " + ".join(parts)


def poisson_bracket(f, g):
    """Exact symbolic Poisson bracket of two entry polynomials.

    Expands {f, g} = sum over variable pairs of
    (d_jk a_il - d_il a_kj) * df/da_ij * dg/da_kl; only pairs with j = k or
    i = l contribute.
    """
    if not isinstance(f, SparsePoly) or not isinstance(g, SparsePoly):
        raise ValueError("poisson_bracket expects SparsePoly operands")
    f._check_same_n(g)
    n = f.n
    df = {v: f.partial(*v) for v in f.variables()}
    dg = {v: g.partial(*v) for v in g.variables()}
    out = SparsePoly.zero(n)
    for (i, j), fij in df.items():
        for (k, l), gkl in dg.items():
            if j != k and i != l:
                continue
            bracket = SparsePoly.zero(n)
            if j == k:
                bracket = bracket + SparsePoly.variable(n, i, l)
            if i == l:
                bracket = bracket - SparsePoly.variable(n, k, j)
            if bracket.is_zero():
                continue
            out = out + bracket * fij * gkl
    return out


def gz_generator(n, m, k):
    """The trace function tr((x_m)^k) expanded in the entry functionals.

    Sums a_{i1 i2} a_{i2 i3} ... a_{ik i1} over all index words with entries
    at most m.
    """
    if not 1 <= m <= n:
        raise ValueError(f"level m={m} out of range 1..{n}")
    if not 1 <= k <= m:
        raise ValueError(f"power k={k} out of range 1..{m}")
    out = SparsePoly.zero(n)
    one = (Fraction(1), Fraction(0))
    terms = {}
    for word in itertools.product(range(1, m + 1), repeat=k):
        exps = {}
        for t in range(k):
            var = (word[t], word[(t + 1) % k])
            exps[var] = exps.get(var, 0) + 1
        key = tuple(sorted(exps.items()))
        acc = _fc_add(terms.get(key, (Fraction(0), Fraction(0))), one)
        terms[key] = acc
    out.terms = {key: c for key, c in terms.items() if not _fc_is_zero(c)}
    return out


def gz_generator_indices(n):
    """All (m, k) with 1 <= k <= m <= n, in the standard enumeration order."""
    return [(m, k) for m in range(1, n + 1) for k in range(1, m + 1)]
