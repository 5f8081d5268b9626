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
certificate never builds a Fraction.  Only inside poisson_bracket and
commutativity_certificate is a monomial packed into one int with a bit field
per variable, so that a product of monomials is an integer add; the bracket
it returns has sorted-tuple keys.

gz_generator expands tr((x_m)^k) over closed index walks up to rotation: it
enumerates only the words that start at their smallest index, and a word
holding that index c times stands for k / c words.  The weights are summed
as integer multiples of 1 / lcm(1..k), so every coefficient stays an exact
integer.  commutativity_certificate brackets every pair of generators of one
size, building each generator's partials and Hamiltonian fields once.
"""

import functools
import itertools
import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .coords import diagonalizer
from .errors import NotRegularError, NumericalError
from .fiber import require_generic, ritz_values
from .numcore import as_complex_matrix, numeric_rank

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
    """Infinitesimal generator of gz_flow at q = 0: [x, k (x_m^{k-1} (+) 0)];
    overflow raises NumericalError."""
    x = as_complex_matrix(x)
    n = x.shape[0]
    if not 1 <= m <= n - 1:
        raise ValueError(f"level m={m} out of range 1..{n - 1}")
    if not 1 <= k <= m:
        raise ValueError(f"power k={k} out of range 1..{m}")
    e = np.zeros((n, n), dtype=np.complex128)
    with np.errstate(all="ignore"):
        e[:m, :m] = k * np.linalg.matrix_power(x[:m, :m], k - 1)
        return _finite(x @ e - e @ x)


def decode_slot(j):
    """Split a flat coordinate index j = m(m-1)/2 + l into (m, l)."""
    if j < 1:
        raise ValueError(f"slot index must be >= 1, got {j}")
    m = 1
    while m * (m + 1) // 2 < j:
        m += 1
    return m, j - m * (m - 1) // 2


def eigen_flow(x, j, q):
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
    return level_flow(x, m, qs)


def level_flow(x, m, qs):
    """All m per-eigenvalue flows of level m applied at once.

    Conjugation by S (+) I with S = g_m diag(e^{q_1}, ..., e^{q_m}) g_m^{-1};
    equal to composing the individual eigen_flows of the level in any order.
    S commutes with x_m, so x_m and x[m:, m:] are copied through unchanged and
    only the borders move: x[:m, m:] to S x[:m, m:] and x[m:, :m] to
    x[m:, :m] S^{-1}, each applied through g_m and a solve with it (g_m^{-1}
    is never formed).  Overflow raises NumericalError.
    """
    x = as_complex_matrix(x)
    n = x.shape[0]
    qs = np.atleast_1d(np.asarray(qs, dtype=np.complex128)).ravel()
    if not 1 <= m <= n - 1:
        raise ValueError(f"level m={m} out of range 1..{n - 1}")
    if len(qs) != m:
        raise ValueError(f"need {m} flow times, got {len(qs)}")
    require_generic(ritz_values(x))
    _, g = diagonalizer(x[:m, :m])
    with np.errstate(all="ignore"):
        dvec = np.exp(qs)
        x[:m, m:] = g @ (dvec[:, None] * np.linalg.solve(g, x[:m, m:]))
        x[m:, :m] = np.linalg.solve(g.T, ((x[m:, :m] @ g) / dvec).T).T
    return _finite(x)


def centralizer_basis(x, m):
    """Basis (I, x_m, ..., x_m^{m-1}) of the commutative similarity group of
    level m, each embedded as g (+) I_{n-m}.

    Requires x_m regular (non-derogatory), verified by the nullity of the
    commutant equations I (x) x_m - x_m^T (x) I being exactly m; a power
    that overflows raises NumericalError.
    """
    x = as_complex_matrix(x)
    n = x.shape[0]
    if not 1 <= m <= n:
        raise ValueError(f"level m={m} out of range 1..{n}")
    xm = x[:m, :m]
    ident = np.eye(m, dtype=np.complex128)
    syl = np.kron(ident, xm) - np.kron(xm.T, ident)
    nullity = m * m - numeric_rank(syl)
    if nullity > m:
        raise NotRegularError(
            f"leading submatrix of order {m} is not regular: its commutant has "
            f"dimension {nullity} > {m}"
        )
    if nullity < m:
        raise NumericalError(
            f"commutant nullity {nullity} < {m}; rank tolerance too tight"
        )
    powers = [np.eye(m, dtype=np.complex128)]
    with np.errstate(all="ignore"):
        for _ in range(m - 1):
            powers.append(_finite(powers[-1] @ xm))
    return [_embed(power, n) for power in powers]


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


def _packed_partials(terms, bit):
    """Every nonzero partial derivative of a term dict, from one scan.

    Returns {(i, j): {packed key: coefficient}} with keys packed by ``bit``:
    a term c * a_ij^p * rest contributes p * c at the key of
    a_ij^(p-1) * rest, its own packed key minus bit[i, j].  Removing one
    a_ij maps distinct monomials to distinct keys, so nothing accumulates.
    """
    partials = defaultdict(dict)
    for key, coeff in terms.items():
        base = sum(map(bit.__getitem__, key))
        prev = None
        for var in key:
            if var != prev:  # first of a run of a_ij in the sorted key
                prev = var
                p = key.count(var)
                partials[var][base - bit[var]] = (
                    coeff if p == 1 else (p * coeff[0], p * coeff[1]))
    return partials


def _add_times(terms, mono, a, b, other):
    """terms += (a + bi) * mono * other in place, on packed keys, for a
    nonzero coefficient and a monomial mono; drops every cancelled key."""
    for key, (c, d) in other.items():
        key += mono
        re = a * c - b * d
        im = a * d + b * c
        old = terms.get(key)
        if old is not None:
            re += old[0]
            im += old[1]
            if not (re or im):
                del terms[key]
                continue
        terms[key] = (re, im)


def _add_shifted(terms, mono, other):
    """terms += mono * other in place, on packed keys; a coefficient of
    other is stored as it is on a new key; drops every cancelled key."""
    for key, coeff in other.items():
        key += mono
        old = terms.get(key)
        if old is None:
            terms[key] = coeff
        else:
            re = old[0] + coeff[0]
            im = old[1] + coeff[1]
            if re or im:
                terms[key] = (re, im)
            else:
                del terms[key]


def _sub_shifted(terms, mono, other):
    """terms -= mono * other in place, on packed keys; drops every
    cancelled key."""
    for key, (c, d) in other.items():
        key += mono
        old = terms.get(key)
        if old is None:
            terms[key] = (-c, -d)
        else:
            re = old[0] - c
            im = old[1] - d
            if re or im:
                terms[key] = (re, im)
            else:
                del terms[key]


@functools.cache
def _bit_table(n, width):
    """{(i, j): 1 << width * ((i-1) n + (j-1))} for 1 <= i, j <= n, in slot
    order; shared, so never modified."""
    return {var: 1 << width * slot for slot, var in
            enumerate(itertools.product(range(1, n + 1), repeat=2))}


def _hamiltonian_fields(partials, bit):
    """X_ij = sum_l a_il dg/da_jl - sum_k a_kj dg/da_ki of g, from g's
    packed partials, as a function of (i, j) that builds each field once.

    The partials are indexed by row and by column, so only pairs with j = k
    or i = l are visited, and a field is built by signed shifted adds alone.
    """
    by_row = defaultdict(list)  # k -> [(l, packed dg/da_kl)]
    by_col = defaultdict(list)  # l -> [(k, packed dg/da_kl)]
    for (k, l), dg in partials.items():
        by_row[k].append((l, dg))
        by_col[l].append((k, dg))

    @functools.cache
    def field(i, j):
        out = {}
        for l, dg in by_row[j]:
            _add_shifted(out, bit[i, l], dg)
        for k, dg in by_col[i]:
            _sub_shifted(out, bit[k, j], dg)
        return out

    return field


def _bracket_terms(f_partials, field):
    """Packed terms of sum_ij df/da_ij * X_ij; a vanishing X_ij is skipped,
    and every product is accumulated in place."""
    out = {}
    for (i, j), df in f_partials.items():
        x_ij = field(i, j)
        if x_ij:
            for key, (re, im) in df.items():
                _add_times(out, key, re, im, x_ij)
    return out


def _unpack(key, bit, width):
    """Sorted-tuple key of a monomial packed by ``bit``, whose fields of
    ``width`` bits are in slot order."""
    mask = (1 << width) - 1
    out = []
    for var in bit:
        if not key:
            break
        out += [var] * (key & mask)
        key >>= width
    return tuple(out)


def poisson_bracket(f, g):
    """Exact symbolic Poisson bracket of two entry polynomials.

    Expands {f, g} = sum over variable pairs of
    (d_jk a_il - d_il a_kj) * df/da_ij * dg/da_kl, grouped by (i, j) as
    sum_ij df/da_ij * X_ij with the Hamiltonian field of g
    X_ij = sum_l a_il dg/da_jl - sum_k a_kj dg/da_ki.  The partials of g are
    indexed by row and by column, so only pairs with j = k or i = l are
    visited; each X_ij is built by signed shifted adds and cancels before it
    is multiplied, and every product is accumulated in place.  The partials
    of f are taken only when some X_ij of a variable of f survives.

    Operands and result use the public sorted-tuple keys.  Inside the
    bracket only, a monomial is one int holding the power of a_ij in a field
    of (deg f + deg g).bit_length() bits at slot (i-1) n + (j-1).  No power
    in the bracket exceeds deg f + deg g - 1 and keys are only added, so a
    product of monomials is one integer add that never carries across
    fields, and one scan per operand yields all its partials.  The bit table
    is built once per (n, width).  The result is unpacked once at the end.
    """
    if not isinstance(f, SparsePoly) or not isinstance(g, SparsePoly):
        raise ValueError("poisson_bracket expects SparsePoly operands")
    f._check_same_n(g)
    n = f.n
    width = (max(map(len, f.terms), default=0)
             + max(map(len, g.terms), default=0)).bit_length()
    bit = _bit_table(n, width)
    field = _hamiltonian_fields(_packed_partials(g.terms, bit), bit)
    out = {}
    if any(field(i, j) for i, j in f.variables()):
        out = _bracket_terms(_packed_partials(f.terms, bit), field)
    return _from_terms(n, {_unpack(key, bit, width): c for key, c in out.items()})


def commutativity_certificate(n):
    """Exact Poisson brackets of every pair of trace generators of size n.

    Returns (pairs, all_commute).  pairs lists (left, right, terms) for each
    pair of indices (m, k) in gz_generator_indices(n), left before right in
    that order; terms is the number of terms of the bracket of the two
    generators tr((x_m)^k), as poisson_bracket would return it.  all_commute
    says whether every bracket is zero.  Each generator's
    packed partials are built once, with one bit table wide enough for any
    pair (degrees are at most n), and each right-hand generator's fields
    X_ij are built once and reused across every left-hand generator.
    """
    gens = gz_generator_indices(n)
    bit = _bit_table(n, (2 * n).bit_length())
    partials = [_packed_partials(gz_generator(n, *mk).terms, bit) for mk in gens]
    fields = [_hamiltonian_fields(p, bit) for p in partials]
    pairs = [(gens[a], gens[b], len(_bracket_terms(partials[a], fields[b])))
             for a, b in itertools.combinations(range(len(gens)), 2)]
    return pairs, all(t == 0 for _, _, t in pairs)


def gz_generator(n, m, k):
    """The trace function tr((x_m)^k) expanded in the entry functionals.

    tr((x_m)^k) sums a_{i1 i2} a_{i2 i3} ... a_{ik i1} over all index words
    with entries at most m.  Rotating a word keeps its monomial, so only the
    words that start at their smallest index s are enumerated: s, then
    k - 1 entries in s..m.  A rotation class of period d holds d words, and
    c d / k of them start at s when the word holds s c times, so each
    enumerated word stands for k / c words.  The weights lcm(1..k) / c are
    summed as ints and scaled by k / lcm(1..k) once per monomial, so every
    coefficient is an exact integer.  A variable (i, j) is coded as the int
    i (m + 1) + j, so sorting codes sorts in (i, j) order, and the sorted
    codes of a word are decoded through one table of shared (i, j) tuples.
    """
    if not 1 <= m <= n:
        raise ValueError(f"level m={m} out of range 1..{n}")
    if not 1 <= k <= m:
        raise ValueError(f"power k={k} out of range 1..{m}")
    lcm = math.lcm(*range(1, k + 1))
    weight = [0] + [lcm // c for c in range(1, k + 1)]
    w = m + 1
    decode = [None] * (w * w)
    for i, j in itertools.product(range(1, w), repeat=2):
        decode[i * w + j] = (i, j)
    sums = defaultdict(int)
    for s in range(1, m + 1):
        for tail in itertools.product(range(s, m + 1), repeat=k - 1):
            word = (s,) + tail
            codes = sorted([i * w + j for i, j in zip(word, tail + (s,))])
            sums[tuple([decode[c] for c in codes])] += weight[word.count(s)]
    return _from_terms(n, {key: (k * c // lcm, 0) for key, c in sums.items()})


def gz_generator_indices(n):
    """All (m, k) with 1 <= k <= m <= n, in the standard enumeration order."""
    return [(m, k) for m in range(1, n + 1) for k in range(1, m + 1)]
