"""Property-based checks of the closed forms, the genericity gate and the
exact Poisson bracket.

Each numeric property draws a seed and a size and builds its input from the
same seeded samplers the fixed-sample tests use; the polynomial properties
draw sparse polynomials directly.  Runs are derandomized so the suite is
reproducible.
"""

from fractions import Fraction

import numpy as np
from helpers import random_fiber_coords, random_generic_matrix
from hypothesis import given, settings
from hypothesis import strategies as st
from test_arrow import product_route_pi, random_arrow

from ritzfiber import (
    DEFAULT_TOL,
    RitzData,
    SparsePoly,
    eigenvalues,
    extract_coords,
    genericity_report,
    pi_matrix,
    poisson_bracket,
    sigma_matrix,
    transpose_coords,
)
from ritzfiber.fiber import GREY_ZONE_FACTOR

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
PROPERTY = settings(max_examples=30, deadline=None, derandomize=True, database=None)


@PROPERTY
@given(seed=SEEDS, n=st.integers(min_value=2, max_value=8))
def test_bc_product_is_sigma(seed, n):
    res = extract_coords(random_generic_matrix(np.random.default_rng(seed), n))
    for m in range(1, n):
        sig = sigma_matrix(res.coords.ritz, m)
        prod = res.coords.b[m - 1] * res.c[m - 1]
        assert np.max(np.abs(prod - sig)) < 1e-8 * np.max(np.abs(sig))


@PROPERTY
@given(seed=SEEDS, n=st.integers(min_value=2, max_value=8))
def test_transpose_is_an_involution(seed, n):
    fc = random_fiber_coords(np.random.default_rng(seed), n)
    back = transpose_coords(transpose_coords(fc))
    for b, b2 in zip(fc.b, back.b):
        assert np.max(np.abs(b2 - b)) < 1e-10 * np.max(np.abs(b))


@PROPERTY
@given(seed=SEEDS, m=st.integers(min_value=1, max_value=6))
def test_pi_matches_eigenvector_product(seed, m):
    a = random_arrow(np.random.default_rng(seed), m)
    lam = eigenvalues(a.to_dense())
    closed = pi_matrix(a.d, lam)
    assert np.max(np.abs(closed - product_route_pi(a, lam))) < 1e-8 * np.max(np.abs(closed))


def brute_force_report(levels, tol):
    """(g1, g2, ill_conditioned) by explicit pairwise comparison."""
    scale = max(abs(v) for lev in levels for v in lev) or 1.0
    thr = tol.coincide_rel * scale
    within = [[abs(u - v) for i, u in enumerate(lev) for k, v in enumerate(lev) if i != k]
              for lev in levels]
    between = [[abs(u - v) for u in lo for v in hi] for lo, hi in zip(levels, levels[1:])]
    g1 = [all(gap > thr for gap in gaps) for gaps in within]
    g2 = [all(gap > thr for gap in gaps) for gaps in between]
    smallest = min((gap for gaps in within + between for gap in gaps), default=np.inf)
    return g1, g2, all(g1) and all(g2) and smallest <= GREY_ZONE_FACTOR * thr


# a coarse grid makes exact coincidences common; the offsets land below the
# coincidence threshold 1e-8 * scale (1e-9), on either side of it depending on
# the Ritz scale, 1 to 2.9 here (1.5e-8, 2.5e-8), inside the grey zone (1e-6)
# and clear of it (0.3)
VALUES = st.builds(
    lambda re, im, eps: complex(re + eps, im),
    st.sampled_from([-1.0, 0.0, 1.0, 2.0]),
    st.sampled_from([0.0, 1.0]),
    st.sampled_from([0.0, 1e-9, 1.5e-8, 2.5e-8, 1e-6, 0.3]),
)


@st.composite
def ritz_levels(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    return [draw(st.lists(VALUES, min_size=m, max_size=m)) for m in range(1, n + 1)]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(levels=ritz_levels())
def test_genericity_report_matches_brute_force(levels):
    rep = genericity_report(RitzData(levels), DEFAULT_TOL)
    g1, g2, ill = brute_force_report(levels, DEFAULT_TOL)
    assert rep.g1 == g1 and rep.g2 == g2
    assert rep.generic == (all(g1) and all(g2))
    assert rep.ill_conditioned == ill


# exact coefficients of every kind: int, non-integral Fraction, complex with
# integral parts and Gaussian rationals as (re, im) pairs
FRACTIONS = st.fractions(min_value=-2, max_value=2, max_denominator=6)
COEFFS = st.one_of(
    st.integers(min_value=-3, max_value=3),
    FRACTIONS.filter(lambda q: q.denominator > 1),
    st.builds(complex, *[st.integers(min_value=-2, max_value=2)] * 2),
    st.tuples(FRACTIONS, FRACTIONS),
)


@st.composite
def sparse_polys(draw, n, max_terms=3, max_degree=2):
    var = st.tuples(st.integers(min_value=1, max_value=n), st.integers(min_value=1, max_value=n))
    monomial = st.lists(var, max_size=max_degree).map(lambda vs: tuple(sorted(vs)))
    return SparsePoly(n, draw(st.dictionaries(monomial, COEFFS, max_size=max_terms)))


@st.composite
def poly_triples(draw):
    n = draw(st.integers(min_value=2, max_value=4))
    return tuple(draw(sparse_polys(n)) for _ in range(3))


def bracket_by_definition(f, g):
    """{f, g} as the sum over every pair of variables of f and g of
    (d_jk a_il - d_il a_kj) df/da_ij dg/da_kl, built with SparsePoly + and *."""
    n = f.n
    out = SparsePoly.zero(n)
    for i, j in f.variables():
        for k, l in g.variables():
            term = SparsePoly.zero(n)
            if j == k:
                term = term + SparsePoly.variable(n, i, l)
            if i == l:
                term = term - SparsePoly.variable(n, k, j)
            out = out + term * f.partial(i, j) * g.partial(k, l)
    return out


def evaluate(p, x):
    """Exact value (re, im) of p at the rational matrix x, 1-based entries."""
    re = im = Fraction(0)
    for key, (c_re, c_im) in p.terms.items():
        value = Fraction(1)
        for i, j in key:
            value *= x[i - 1][j - 1]
        re += c_re * value
        im += c_im * value
    return re, im


@PROPERTY
@given(polys=poly_triples(), seed=SEEDS)
def test_arithmetic_is_evaluation_homomorphism(polys, seed):
    f, g, _ = polys
    rng = np.random.default_rng(seed)
    x = [[Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4))) for _ in range(f.n)]
         for _ in range(f.n)]
    (a, b), (c, d) = evaluate(f, x), evaluate(g, x)
    assert evaluate(f + g, x) == (a + c, b + d)
    assert evaluate(f - g, x) == (a - c, b - d)
    assert evaluate(f * g, x) == (a * c - b * d, a * d + b * c)


@PROPERTY
@given(polys=poly_triples())
def test_bracket_matches_definition(polys):
    f, g, _ = polys
    assert poisson_bracket(f, g) == bracket_by_definition(f, g)


@PROPERTY
@given(polys=poly_triples())
def test_bracket_antisymmetry_and_leibniz(polys):
    f, g, h = polys
    assert (poisson_bracket(f, g) + poisson_bracket(g, f)).is_zero()
    leibniz = poisson_bracket(f, g * h) - (poisson_bracket(f, g) * h + g * poisson_bracket(f, h))
    assert leibniz.is_zero()


@PROPERTY
@given(polys=poly_triples())
def test_bracket_jacobi_identity(polys):
    f, g, h = polys
    jacobi = (
        poisson_bracket(f, poisson_bracket(g, h))
        + poisson_bracket(g, poisson_bracket(h, f))
        + poisson_bracket(h, poisson_bracket(f, g))
    )
    assert jacobi.is_zero()
