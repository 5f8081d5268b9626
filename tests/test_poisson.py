import itertools
import re
from collections import Counter
from fractions import Fraction

import pytest

from ritzfiber import (
    SparsePoly,
    commutativity_certificate,
    gz_generator,
    gz_generator_indices,
    poisson_bracket,
)


def var(n, i, j):
    return SparsePoly.variable(n, i, j)


class TestSparsePoly:
    def test_zero_storage(self):
        p = var(2, 1, 1) - var(2, 1, 1)
        assert p.is_zero() and p == 0

    def test_cancellation_of_one_part(self):
        p = (1 + 1j) * var(2, 1, 1) - var(2, 1, 1)
        assert not p.is_zero() and p == 1j * var(2, 1, 1)
        assert (p - 1j * var(2, 1, 1)).is_zero()

    def test_exact_coefficients(self):
        p = SparsePoly.constant(2, Fraction(1, 3)) * 3
        assert p == SparsePoly.constant(2, 1)

    def test_partial(self):
        p = var(2, 1, 2) * var(2, 1, 2) * var(2, 2, 1)
        d = p.partial(1, 2)
        assert d == 2 * var(2, 1, 2) * var(2, 2, 1)

    def test_mixed_sizes_rejected(self):
        with pytest.raises(ValueError):
            var(2, 1, 1) + var(3, 1, 1)

    @pytest.mark.parametrize(
        "value", [float("inf"), float("-inf"), float("nan"), complex("nan+1j")]
    )
    def test_non_finite_coefficient_rejected(self, value):
        with pytest.raises(ValueError, match=re.escape(repr(value))):
            SparsePoly.constant(2, value)
        with pytest.raises(ValueError, match=re.escape(repr(value))):
            var(2, 1, 1) * value

    @pytest.mark.parametrize(
        "key",
        [
            ((5, 5),),  # out-of-range variable
            ((1, 0),),
            ((2, 1), (1, 1)),  # unsorted
            (((1, 1), 1),),  # exponent form ((var, power), ...)
            (((5, 5), 1),),
            "a11",
        ],
    )
    def test_invalid_key_rejected(self, key):
        with pytest.raises(ValueError, match="monomial key"):
            SparsePoly(2, {key: 1})

    def test_flat_keys(self):
        p = SparsePoly(2, {((1, 1), (1, 1), (1, 2)): 2, (): 1})
        assert p == 2 * var(2, 1, 1) * var(2, 1, 1) * var(2, 1, 2) + 1
        assert p.variables() == {(1, 1), (1, 2)}

    def test_repr_orders_by_exponent_form(self):
        v11, v12, v21 = var(3, 1, 1), var(3, 1, 2), var(3, 2, 1)
        assert repr(v11 * v11 + v11 * v12 + 3 * v21) == "1*a11a12 + 1*a11^2 + 3*a21"


class TestPoissonBracket:
    def test_basic_structure_constant(self):
        assert poisson_bracket(var(2, 1, 1), var(2, 1, 2)) == var(2, 1, 2)

    def test_antisymmetry_on_diagonal(self):
        assert poisson_bracket(var(2, 1, 1), var(2, 1, 1)).is_zero()

    def test_structure_constants_all_pairs(self):
        # {a_ij, a_kl} = d_jk a_il - d_il a_kj, checked exhaustively for n = 2
        n = 2
        for i in range(1, 3):
            for j in range(1, 3):
                for k in range(1, 3):
                    for l in range(1, 3):
                        want = SparsePoly.zero(n)
                        if j == k:
                            want = want + var(n, i, l)
                        if i == l:
                            want = want - var(n, k, j)
                        assert poisson_bracket(var(n, i, j), var(n, k, l)) == want

    def test_antisymmetry_polynomials(self):
        f = gz_generator(3, 2, 2)
        g = var(3, 1, 3) * var(3, 3, 2) + 2 * var(3, 2, 2)
        lhs = poisson_bracket(f, g)
        rhs = poisson_bracket(g, f)
        assert (lhs + rhs).is_zero()

    def test_leibniz_rule(self):
        n = 3
        f = var(n, 1, 2) + var(n, 2, 2) * var(n, 3, 1)
        g = var(n, 2, 1)
        h = var(n, 1, 3) * var(n, 1, 3)
        lhs = poisson_bracket(f, g * h)
        rhs = poisson_bracket(f, g) * h + g * poisson_bracket(f, h)
        assert (lhs - rhs).is_zero()

    def test_worked_cancellation(self):
        # the classic hand expansion of {tr(x_2), tr(x_3^2)}: the cross terms
        # 2 a12 a21 - 2 a12 a21 cancel pairwise and everything vanishes
        n = 3
        a11, a22 = var(n, 1, 1), var(n, 2, 2)
        a12, a21 = var(n, 1, 2), var(n, 2, 1)
        assert poisson_bracket(a11, a12) == a12
        assert poisson_bracket(a11, a21) == -a21
        assert poisson_bracket(a11, a12 * a21).is_zero()
        assert poisson_bracket(a11 + a22, a11 * a11).is_zero()
        tr2 = gz_generator(n, 2, 1)
        tr3sq = gz_generator(n, 3, 2)
        expansion = (
            var(n, 1, 1) * var(n, 1, 1)
            + var(n, 2, 2) * var(n, 2, 2)
            + var(n, 3, 3) * var(n, 3, 3)
            + 2 * var(n, 1, 2) * var(n, 2, 1)
            + 2 * var(n, 1, 3) * var(n, 3, 1)
            + 2 * var(n, 2, 3) * var(n, 3, 2)
        )
        assert tr3sq == expansion
        assert poisson_bracket(tr2, tr3sq).is_zero()


class TestGzGenerator:
    def test_trace_of_level_two(self):
        assert gz_generator(3, 2, 1) == var(3, 1, 1) + var(3, 2, 2)

    def test_plain_traces(self):
        for n in (2, 4):
            for m in range(1, n + 1):
                want = SparsePoly.zero(n)
                for i in range(1, m + 1):
                    want = want + var(n, i, i)
                assert gz_generator(n, m, 1) == want

    def test_square_trace(self):
        n = 2
        want = (
            var(n, 1, 1) * var(n, 1, 1)
            + var(n, 2, 2) * var(n, 2, 2)
            + 2 * var(n, 1, 2) * var(n, 2, 1)
        )
        assert gz_generator(2, 2, 2) == want

    def test_bounds(self):
        with pytest.raises(ValueError):
            gz_generator(2, 3, 1)
        with pytest.raises(ValueError):
            gz_generator(3, 2, 3)

    def test_repr(self):
        assert repr(gz_generator(3, 2, 2)) == "1*a11^2 + 2*a12a21 + 1*a22^2"

    def test_enumeration(self):
        assert gz_generator_indices(3) == [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_every_index_word(self, n):
        # the oracle walks all m^k index words; at k = 4 and 6 a periodic
        # word's rotation class is smaller than k
        for m, k in gz_generator_indices(n):
            assert gz_generator(n, m, k).terms == words_expansion(m, k)


def words_expansion(m, k):
    """Terms of tr((x_m)^k) from every index word, one count per word."""
    counts = Counter(
        tuple(sorted((word[t], word[(t + 1) % k]) for t in range(k)))
        for word in itertools.product(range(1, m + 1), repeat=k)
    )
    return {key: (c, 0) for key, c in counts.items()}


def assert_certified(n, generators, pairs):
    got, all_commute = commutativity_certificate(n)
    gens = gz_generator_indices(n)
    assert len(gens) == generators and len(got) == pairs
    assert [(left, right) for left, right, _ in got] == list(itertools.combinations(gens, 2))
    assert all(terms == 0 for _, _, terms in got) and all_commute


class TestCommutativity:
    def test_all_pairs_n3(self):
        assert_certified(3, 6, 15)

    def test_all_pairs_n5(self):
        assert_certified(5, 15, 105)

    def test_all_pairs_n6(self):
        assert_certified(6, 21, 210)

    def test_sample_pairs_n4(self):
        for left, right in [((2, 2), (3, 3)), ((3, 2), (4, 4)), ((1, 1), (4, 3))]:
            f = gz_generator(4, *left)
            g = gz_generator(4, *right)
            assert poisson_bracket(f, g).is_zero()

    @pytest.mark.parametrize("n", range(1, 6))
    def test_certificate_counts_match_pairwise_brackets(self, n):
        pairs, _ = commutativity_certificate(n)
        for left, right, terms in pairs:
            bracket = poisson_bracket(gz_generator(n, *left), gz_generator(n, *right))
            assert terms == len(bracket.terms)

    def test_certificate_without_pairs(self):
        assert commutativity_certificate(1) == ([], True)
