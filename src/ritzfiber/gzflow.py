"""Gelfand-Zeitlin group flows and the symbolic Poisson engine.

The commuting Hamiltonians tr((x_m)^k), 1 <= k <= m <= n-1, generate closed
form flows: each acts by a structured similarity built from a function of the
leading submatrix x_m, so every flow preserves all Ritz levels.  Per
eigenvalue of a level there is a finer flow that rescales exactly one slot of
the s-coordinate vector by e^{-q} and leaves the rest untouched.

The module also carries an exact sparse polynomial algebra in the matrix
entry functionals a_ij with the bracket {a_ij, a_kl} = d_jk a_il - d_il a_kj,
used to certify the commutativity of the trace generators symbolically.  A
monomial is keyed by the sorted tuple of its (i, j) variables, one entry per
power; a coefficient is an exact Gaussian rational (re, im) held as Python
ints, promoted to Fraction only by a non-integral input, so the integer
certificate never builds a Fraction.
"""

import itertools
from collections import Counter, defaultdict
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


def _exact(part, coeff):
    """One real part of coeff as an int when integral, else a Fraction."""
    if isinstance(part, int):
        return int(part)
    try:
        q = Fraction(part)
    except (OverflowError, TypeError, ValueError):
        raise ValueError(
            f"coefficient {coeff!r} is not a finite rational-complex number"
        ) from None
    return int(q.numerator) if q.denominator == 1 else q


def _frac_complex(value):
    """Exact rational-complex coefficient as an (re, im) pair; a non-finite
    or non-numeric value raises ValueError."""
    if isinstance(value, tuple) and len(value) == 2:
        re, im = value
    elif isinstance(value, complex):
        re, im = value.real, value.imag
    else:
        re, im = value, 0
    return (_exact(re, value), _exact(im, value))


def _from_terms(n, terms):
    """SparsePoly over a dict of valid keys and nonzero coefficients."""
    out = SparsePoly(n)
    out.terms = terms
    return out


def _add_into(terms, items):
    """Accumulate (key, nonzero coefficient) items into terms in place,
    dropping every key whose coefficient cancels."""
    for key, (re, im) in items:
        old = terms.get(key)
        if old is not None:
            re += old[0]
            im += old[1]
            if not (re or im):
                del terms[key]
                continue
        terms[key] = (re, im)


def _product_items(t1, t2):
    """(key, coefficient) items of the product of two term dicts; products
    of nonzero coefficients are nonzero."""
    for k1, (a, b) in t1.items():
        for k2, (c, d) in t2.items():
            yield tuple(sorted(k1 + k2)), (a * c - b * d, a * d + b * c)


def _powers(key):
    """Exponent form ((var, power), ...) of a monomial key."""
    return tuple((var, len(list(run))) for var, run in itertools.groupby(key))


class SparsePoly:
    """Polynomial in the entry functionals a_ij of an n x n matrix.

    Terms map a monomial key to its coefficient.  A key is the sorted tuple
    of the (i, j) variables of the monomial, each repeated as often as its
    power: a11^2 a12 is ((1, 1), (1, 1), (1, 2)) and a constant is ().  A
    coefficient is an exact (re, im) pair; each part is an int, and becomes
    a Fraction only once a non-integral value enters its arithmetic.  Zero
    coefficients are never stored, so equality with zero is exact.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        self.n = int(n)
        self.terms = {}
        if terms:
            for key, coeff in terms.items():
                self._check_key(key)
                coeff = _frac_complex(coeff)
                if coeff != (0, 0):
                    self.terms[key] = coeff

    def _check_key(self, key):
        n = self.n
        if not (
            isinstance(key, tuple)
            and all(
                isinstance(var, tuple) and len(var) == 2
                and all(isinstance(t, int) and 1 <= t <= n for t in var)
                for var in key
            )
            and all(key[t] <= key[t + 1] for t in range(len(key) - 1))
        ):
            raise ValueError(
                f"monomial key {key!r} is not a sorted tuple of (i, j) with "
                f"1 <= i, j <= {n}"
            )

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
        return cls(n, {((i, j),): 1})

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
        _add_into(terms, other.terms.items())
        return _from_terms(self.n, terms)

    def __neg__(self):
        return _from_terms(self.n, {k: (-c[0], -c[1]) for k, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, SparsePoly):
            other = SparsePoly.constant(self.n, other)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, SparsePoly):
            other = SparsePoly.constant(self.n, other)
        self._check_same_n(other)
        terms = {}
        _add_into(terms, _product_items(self.terms, other.terms))
        return _from_terms(self.n, terms)

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
        return set().union(*self.terms)

    def partial(self, i, j):
        """Partial derivative with respect to a_ij."""
        var = (i, j)
        terms = {}
        for key, (re, im) in self.terms.items():
            p = key.count(var)
            if p:
                # removing one a_ij maps distinct monomials to distinct keys
                t = key.index(var)
                terms[key[:t] + key[t + 1:]] = (p * re, p * im)
        return _from_terms(self.n, terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for powers, (re, im) in sorted((_powers(k), c) for k, c in self.terms.items()):
            factors = "".join(
                f"a{i}{j}" + (f"^{p}" if p > 1 else "") for (i, j), p in powers
            )
            if im == 0:
                cs = str(re)
            else:
                cs = f"({re}{'+' if im >= 0 else ''}{im}j)"
            parts.append(f"{cs}*{factors}" if factors else cs)
        return " + ".join(parts)


def poisson_bracket(f, g):
    """Exact symbolic Poisson bracket of two entry polynomials.

    Expands {f, g} = sum over variable pairs of
    (d_jk a_il - d_il a_kj) * df/da_ij * dg/da_kl, grouped by (i, j) as
    sum_ij df/da_ij * X_ij with the Hamiltonian field of g
    X_ij = sum_l a_il dg/da_jl - sum_k a_kj dg/da_ki.  The partials of g are
    indexed by row and by column, so only pairs with j = k or i = l are
    visited; each X_ij cancels before it is multiplied, and every product is
    accumulated in place.
    """
    if not isinstance(f, SparsePoly) or not isinstance(g, SparsePoly):
        raise ValueError("poisson_bracket expects SparsePoly operands")
    f._check_same_n(g)
    by_row = defaultdict(list)  # k -> [(l, terms of dg/da_kl)]
    by_col = defaultdict(list)  # l -> [(k, terms of dg/da_kl)]
    for k, l in g.variables():
        dg = g.partial(k, l).terms
        by_row[k].append((l, dg))
        by_col[l].append((k, dg))
    out = {}
    for i, j in f.variables():
        field = {}
        for l, dg in by_row[j]:
            _add_into(field, _product_items({((i, l),): (1, 0)}, dg))
        for k, dg in by_col[i]:
            _add_into(field, _product_items({((k, j),): (-1, 0)}, dg))
        _add_into(out, _product_items(f.partial(i, j).terms, field))
    return _from_terms(f.n, out)


def gz_generator(n, m, k):
    """The trace function tr((x_m)^k) expanded in the entry functionals.

    Sums a_{i1 i2} a_{i2 i3} ... a_{ik i1} over all index words with entries
    at most m.
    """
    if not 1 <= m <= n:
        raise ValueError(f"level m={m} out of range 1..{n}")
    if not 1 <= k <= m:
        raise ValueError(f"power k={k} out of range 1..{m}")
    counts = Counter(
        tuple(sorted((word[t], word[(t + 1) % k]) for t in range(k)))
        for word in itertools.product(range(1, m + 1), repeat=k)
    )
    return _from_terms(n, {key: (c, 0) for key, c in counts.items()})


def gz_generator_indices(n):
    """All (m, k) with 1 <= k <= m <= n, in the standard enumeration order."""
    return [(m, k) for m in range(1, n + 1) for k in range(1, m + 1)]
