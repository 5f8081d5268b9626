"""Property-based checks of the closed forms, the level flows, the genericity
gate and the exact Poisson bracket.

Each numeric property draws a seed and a size and builds its input from the
same seeded samplers the fixed-sample tests use; the polynomial properties
draw sparse polynomials directly.  Runs are derandomized so the suite is
reproducible.
"""

import sys
from fractions import Fraction

import numpy as np
import pytest
from helpers import random_fiber_coords, random_generic_matrix, random_generic_ritz
from hypothesis import given, settings
from hypothesis import strategies as st
from test_arrow import product_route_pi, random_arrow

from ritzfiber import (
    FiberCoords,
    FlowParam,
    RitzData,
    SparsePoly,
    diagonal_similarity_coords,
    eigen_flow,
    eigenvalues,
    extract_coords,
    genericity_report,
    gz_flow,
    hessenberg_representative,
    level_flow,
    pi_matrix,
    poisson_bracket,
    reconstruct,
    ritz_values,
    s_coordinates,
    sigma_matrix,
    transpose_coords,
)
from ritzfiber import arrow, fiber
from ritzfiber.fiber import GREY_ZONE_FACTOR
from ritzfiber.numcore import COINCIDE_REL

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


@PROPERTY
@given(seed=SEEDS, n=st.integers(min_value=2, max_value=8))
def test_hessenberg_representative_has_unit_coordinates(seed, n):
    y = hessenberg_representative(random_generic_ritz(np.random.default_rng(seed), n))
    assert np.max(np.abs(s_coordinates(y) - 1.0)) < 1e-12


@PROPERTY
@given(seed=SEEDS, n=st.integers(min_value=2, max_value=8), data=st.data())
def test_eigen_flow_rescales_exactly_its_slot(seed, n, data):
    # eigen_flow's g_m and s_coordinates' b_m share one slot order per level
    rng = np.random.default_rng(seed)
    x = random_generic_matrix(rng, n, normalized=True)
    j = data.draw(st.integers(min_value=1, max_value=n * (n - 1) // 2), label="j")
    q = complex(rng.uniform(-1.0, 1.0), rng.uniform(-np.pi, np.pi))
    s0 = s_coordinates(x)
    want = s0.copy()
    want[j - 1] *= np.exp(-q)
    got = s_coordinates(eigen_flow(x, j, q))
    assert np.max(np.abs(got - want)) < 1e-7 * np.max(np.abs(want))


def rel_err(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def random_flow_times(rng, m):
    return rng.uniform(-1.0, 1.0, m) + 1j * rng.uniform(-np.pi, np.pi, m)


@PROPERTY
@given(seed=SEEDS, n=st.integers(min_value=2, max_value=6), data=st.data())
def test_level_flows_commute(seed, n, data):
    # two different levels whenever the matrix has them; n = 2 has one level
    levels = list(range(1, n))
    m1 = data.draw(st.sampled_from(levels), label="m1")
    m2 = data.draw(st.sampled_from([m for m in levels if m != m1] or levels), label="m2")
    rng = np.random.default_rng(seed)
    x = random_generic_matrix(rng, n, normalized=True)
    q1, q2 = random_flow_times(rng, m1), random_flow_times(rng, m2)
    one_then_two = level_flow(level_flow(x, m1, q1), m2, q2)
    two_then_one = level_flow(level_flow(x, m2, q2), m1, q1)
    assert rel_err(one_then_two, two_then_one) < 1e-10


@PROPERTY
@given(seed=SEEDS, n=st.integers(min_value=2, max_value=6), data=st.data())
def test_level_flow_is_2pi_i_periodic(seed, n, data):
    m = data.draw(st.integers(min_value=1, max_value=n - 1), label="m")
    k = np.array(data.draw(st.lists(st.integers(min_value=-3, max_value=3),
                                    min_size=m, max_size=m), label="k"))
    rng = np.random.default_rng(seed)
    x = random_generic_matrix(rng, n, normalized=True)
    qs = random_flow_times(rng, m)
    want = level_flow(x, m, qs)
    assert rel_err(level_flow(x, m, qs + 2j * np.pi * k), want) < 1e-10


@PROPERTY
@given(seed=SEEDS, n=st.integers(min_value=2, max_value=8), data=st.data())
def test_level_flow_moves_only_the_borders(seed, n, data):
    # S commutes with x_m, so x_m and the trailing block are left as they are
    m = data.draw(st.integers(min_value=1, max_value=n - 1), label="m")
    rng = np.random.default_rng(seed)
    x = random_generic_matrix(rng, n, normalized=True)
    y = level_flow(x, m, random_flow_times(rng, m))
    assert np.array_equal(y[:m, :m], x[:m, :m])
    assert np.array_equal(y[m:, m:], x[m:, m:])


def random_diagonal(rng, n):
    return rng.uniform(0.5, 2.0, n) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, n))


@PROPERTY
@given(seed=SEEDS, n=st.integers(min_value=2, max_value=12))
def test_level_flows_act_transitively_on_the_fibre(seed, n):
    # Kostant-Wallach: one flow per level joins any two points of a generic
    # fibre; level_flow(., m, q) multiplies b_m by exp(-q) entrywise
    rng = np.random.default_rng(seed)
    x = random_generic_matrix(rng, n, normalized=True)
    b = extract_coords(x).coords.b
    target = [random_diagonal(rng, m) for m in range(1, n)]
    y = x
    for m in range(1, n):
        y = level_flow(y, m, np.log(b[m - 1] / target[m - 1]))
    assert rel_err(y, reconstruct(FiberCoords(ritz_values(x), target))) < 1e-8


@PROPERTY
@given(seed=SEEDS, n=st.integers(min_value=2, max_value=6), data=st.data())
def test_trace_flows_lie_in_the_level_torus(seed, n, data):
    # exp(-q k x_m^(k-1)) is g_m diag(exp(-q k lam^(k-1))) g_m^-1 on level m
    m = data.draw(st.integers(min_value=1, max_value=n - 1), label="m")
    k = data.draw(st.integers(min_value=1, max_value=m), label="k")
    rng = np.random.default_rng(seed)
    x = random_generic_matrix(rng, n, normalized=True)
    q = complex(random_flow_times(rng, 1)[0])
    lam = ritz_values(x).level(m)
    want = level_flow(x, m, -q * k * lam ** (k - 1))
    assert rel_err(gz_flow(x, FlowParam(m, k, q)), want) < 1e-10


def reconstruct_by_levels(fc):
    """reconstruct as a per-level loop over sigma_matrix and vstack: the
    oracle for the shared eigenvector chain."""
    r = fc.ritz
    g = np.ones((1, 1), dtype=complex)
    for m in range(1, r.n):
        mus, nxt = r.level(m), r.level(m + 1)
        w = -sigma_matrix(r, m) / fc.b[m - 1]
        top = g @ (w[:, None] / (mus[:, None] - nxt[None, :]))
        g = np.vstack([top, np.ones((1, m + 1))])
    lam = r.level(r.n)
    return np.linalg.solve(g.T, (g * lam[None, :]).T).T


@PROPERTY
@given(seed=SEEDS, n=st.integers(min_value=1, max_value=8))
def test_extract_reconstruct_round_trip(seed, n):
    x = random_generic_matrix(np.random.default_rng(seed), n)
    assert rel_err(reconstruct(extract_coords(x).coords), x) < 1e-10


@PROPERTY
@given(seed=SEEDS, n=st.integers(min_value=2, max_value=8))
def test_diagonal_similarity_is_a_group_action(seed, n):
    rng = np.random.default_rng(seed)
    fc = random_fiber_coords(rng, n)
    d1, d2 = random_diagonal(rng, n), random_diagonal(rng, n)
    twice = diagonal_similarity_coords(diagonal_similarity_coords(fc, d1), d2)
    once = diagonal_similarity_coords(fc, d2 * d1)
    unit = diagonal_similarity_coords(fc, np.ones(n))
    for b, b_twice, b_once, b_unit in zip(fc.b, twice.b, once.b, unit.b):
        assert np.array_equal(b_unit, b)
        assert np.max(np.abs(b_twice - b_once)) < 1e-14 * np.max(np.abs(b_once))
    x = reconstruct(fc)
    assert rel_err(reconstruct(diagonal_similarity_coords(fc, d1)), d1[:, None] * x / d1) < 1e-10


@PROPERTY
@given(seed=SEEDS, n=st.integers(min_value=1, max_value=10))
def test_reconstruct_matches_per_level_loop(seed, n):
    fc = random_fiber_coords(np.random.default_rng(seed), n)
    want = reconstruct_by_levels(fc)
    assert rel_err(reconstruct(fc), want) < 1e-12


def count_calls(monkeypatch, module, name):
    """Count calls of module.name through every ritzfiber module binding it."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for modname, mod in list(sys.modules.items()):
        if modname == "ritzfiber" or modname.startswith("ritzfiber."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


@pytest.mark.parametrize("op", [reconstruct, transpose_coords])
@pytest.mark.parametrize("n", [1, 2, 6])
def test_one_level_pass_per_call(op, n, monkeypatch):
    fc = random_fiber_coords(np.random.default_rng(n), n)
    gates = count_calls(monkeypatch, fiber, "require_generic")
    pairs = count_calls(monkeypatch, arrow, "_Pair")
    op(fc)
    # one record per pair of adjacent levels, plus the within-gap of level n
    assert len(gates) == 1 and len(pairs) == n


def brute_force_report(levels):
    """(g1, g2, ill_conditioned) by explicit pairwise comparison."""
    scale = max(abs(v) for lev in levels for v in lev) or 1.0
    thr = COINCIDE_REL * scale
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
    rep = genericity_report(RitzData(levels))
    g1, g2, ill = brute_force_report(levels)
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


def test_bracket_at_the_field_width_boundary():
    # deg f + deg g = 7, so the bracket packs each power into 3 bits, and
    # the power 6 of a11 fills all 3 of them
    a11, a12, a21, a22 = (SparsePoly.variable(2, i, j) for i in (1, 2) for j in (1, 2))
    a11_4 = a11 * a11 * a11 * a11
    f = a11 * a11 * a11 * a12
    g = a11 * a11 * a21
    want = a11_4 * a11 * a11 - a11_4 * a11 * a22 - 5 * a11_4 * a12 * a21
    assert poisson_bracket(f, g) == want == bracket_by_definition(f, g)


def edge_operands():
    n = 3
    a12, a21, a23 = (SparsePoly.variable(n, i, j) for i, j in ((1, 2), (2, 1), (2, 3)))
    g = a12 * a21 + 2 * a23
    return [
        (SparsePoly.zero(n), g),
        (g, SparsePoly.zero(n)),
        (SparsePoly.constant(n, 5), g),
        (g, SparsePoly.constant(n, (Fraction(1, 3), 2))),
        (Fraction(2, 7) * a12 * a23,
         SparsePoly.constant(n, (Fraction(1, 3), Fraction(-5, 2))) * a21 + a12),
    ]


@pytest.mark.parametrize(
    "f, g", edge_operands(),
    ids=["zero-left", "zero-right", "constant-left", "constant-right", "fraction"],
)
def test_bracket_edge_operands(f, g):
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
