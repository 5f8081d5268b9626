import numpy as np
import pytest
from helpers import complex_randn, random_generic_matrix, ritz_gap

from ritzfiber import (
    RitzData,
    diagonal_from_ritz,
    genericity_report,
    hessenberg_representative,
    ritz_values,
    s_coordinates,
    strong_regularity_check,
)
from ritzfiber.fiber import _hessenberg_recurrence

X0 = np.array([[0, 1], [1, 0]], dtype=complex)


class TestRitzData:
    def test_level_lengths_enforced(self):
        with pytest.raises(ValueError):
            RitzData([[1.0, 2.0]])

    def test_scale(self):
        assert RitzData([[0.0], [3.0, -4.0]]).scale() == 4.0
        assert RitzData([[0.0]]).scale() == 1.0


class TestRitzValues:
    def test_swap_matrix(self):
        r = ritz_values(X0)
        np.testing.assert_allclose(r.level(1), [0], atol=1e-14)
        np.testing.assert_allclose(r.level(2), [-1, 1], atol=1e-12)

    def test_identity(self):
        r = ritz_values(np.eye(2))
        np.testing.assert_allclose(r.level(1), [1])
        np.testing.assert_allclose(r.level(2), [1, 1])

    def test_triangular(self):
        x = np.array([[1, 1, 0], [0, 2, 1], [0, 0, 3]], dtype=complex)
        r = ritz_values(x)
        np.testing.assert_allclose(r.level(1), [1], atol=1e-12)
        np.testing.assert_allclose(r.level(2), [1, 2], atol=1e-12)
        np.testing.assert_allclose(r.level(3), [1, 2, 3], atol=1e-12)


class TestGenericityReport:
    def test_swap_matrix_generic(self):
        rep = genericity_report(ritz_values(X0))
        assert rep.generic and rep.first_failure() is None

    def test_identity_fails_g2(self):
        rep = genericity_report(ritz_values(np.eye(2)))
        assert not rep.g2[0]
        assert not rep.generic

    def test_repeated_eigenvalue_fails_g1(self):
        rep = genericity_report(ritz_values(np.diag([1.0, 1.0])))
        assert not rep.g1[1]

    def test_invariant_under_reordering(self):
        rng = np.random.default_rng(5)
        r = ritz_values(random_generic_matrix(rng, 5))
        shuffled = RitzData([rng.permutation(lev) for lev in r.levels])
        a, b = genericity_report(r), genericity_report(shuffled)
        assert (a.g1, a.g2, a.generic) == (b.g1, b.g2, b.generic)

    def test_matches_polynomial_criterion_n2(self):
        # for n = 2: generic iff x12 x21 != 0 and (x11 - x22)^2 + 4 x12 x21 != 0
        rng = np.random.default_rng(6)
        cases = [complex_randn(rng, 2, 2) for _ in range(20)]
        cases.append(np.array([[1, 0], [3, 2]], dtype=complex))  # x12 x21 = 0
        cases.append(np.array([[1, -1], [1, -1]], dtype=complex))  # discriminant 0
        for x in cases:
            crit = (
                abs(x[0, 1] * x[1, 0]) > 1e-8
                and abs((x[0, 0] - x[1, 1]) ** 2 + 4 * x[0, 1] * x[1, 0]) > 1e-8
            )
            assert genericity_report(ritz_values(x)).generic == crit

    def test_grey_zone_flag(self):
        r = RitzData([[0.0], [1e-6, 1.0]])  # gap 1e-6 of scale 1: inside grey zone
        rep = genericity_report(r)
        assert rep.generic and rep.ill_conditioned


class TestDiagonalFromRitz:
    def test_swap_matrix(self):
        np.testing.assert_allclose(diagonal_from_ritz(RitzData([[0], [-1, 1]])), [0, 0])

    def test_scalar(self):
        np.testing.assert_allclose(diagonal_from_ritz(RitzData([[3.5]])), [3.5])

    def test_partial_sums(self):
        r = RitzData([[1], [1, 2], [1, 2, 3]])
        np.testing.assert_allclose(diagonal_from_ritz(r), [1, 2, 3])

    @pytest.mark.parametrize("n", [3, 6])
    def test_matches_matrix_diagonal(self, n):
        rng = np.random.default_rng(n)
        x = complex_randn(rng, n, n)
        diag = diagonal_from_ritz(ritz_values(x))
        assert np.max(np.abs(diag - np.diag(x))) < 1e-8 * np.linalg.norm(x)


class TestHessenbergRepresentative:
    def test_swap_matrix(self):
        y = hessenberg_representative(RitzData([[0], [-1, 1]]))
        np.testing.assert_allclose(y, X0, atol=1e-12)

    def test_all_zero_ritz(self):
        y = hessenberg_representative(RitzData([[0], [0, 0], [0, 0, 0]]))
        want = np.zeros((3, 3), dtype=complex)
        want[1, 0] = want[2, 1] = 1.0
        np.testing.assert_allclose(y, want, atol=1e-14)

    def test_non_generic_chain(self):
        y = hessenberg_representative(RitzData([[1], [1, 2], [1, 2, 3]]))
        want = np.array([[1, 0, 0], [1, 2, 0], [0, 1, 3]], dtype=complex)
        np.testing.assert_allclose(y, want, atol=1e-12)
        assert ritz_gap(ritz_values(y), RitzData([[1], [1, 2], [1, 2, 3]])) < 1e-9

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_round_trip_random_ritz(self, n):
        rng = np.random.default_rng(20 + n)
        for _ in range(5):
            r = RitzData([complex_randn(rng, m) for m in range(1, n + 1)])
            y = hessenberg_representative(r)
            assert y[np.arange(1, n), np.arange(n - 1)].tolist() == [1.0] * (n - 1)
            assert np.all(np.tril(y, -2) == 0)
            assert ritz_gap(ritz_values(y), r) < 1e-7 * r.scale()

    def test_uniqueness_perturbation_moves_ritz(self):
        rng = np.random.default_rng(9)
        r = RitzData([complex_randn(rng, m) for m in range(1, 5)])
        y = hessenberg_representative(r)
        base = ritz_values(y)
        for i in range(4):
            for j in range(i + 1, 4):
                z = y.copy()
                z[i, j] += 1e-3
                assert ritz_gap(ritz_values(z), base) > 1e-6

    def test_basepoint_has_unit_coordinates(self):
        rng = np.random.default_rng(11)
        for n in (2, 4, 6):
            from helpers import random_generic_ritz

            r = random_generic_ritz(rng, n)
            s = s_coordinates(hessenberg_representative(r))
            assert np.max(np.abs(s - 1.0)) < 1e-7

    @pytest.mark.parametrize("n", range(2, 17))
    def test_closed_form_matches_recurrence(self, n):
        # Ritz values of actual matrices: independently drawn levels describe
        # fibres whose points have enormous entries (see random_fiber_coords)
        rng = np.random.default_rng(40 + n)
        for _ in range(3):
            r = ritz_values(random_generic_matrix(rng, n, normalized=True))
            y = hessenberg_representative(r)
            assert np.max(np.abs(y - _hessenberg_recurrence(r))) <= 1e-10 * r.scale()

    @pytest.mark.parametrize("n", [32, 48])
    @pytest.mark.parametrize("seed", [1, 5])
    def test_large_n_ritz_drift(self, n, seed):
        # the characteristic-polynomial recurrence drifts by 1e-8 to 3e-8 of
        # the scale on these n = 48 cases
        rng = np.random.default_rng(seed)
        r = ritz_values(complex_randn(rng, n, n) / np.sqrt(n))
        assert ritz_gap(ritz_values(hessenberg_representative(r)), r) <= 1e-10 * r.scale()


class TestStrongRegularity:
    def test_unit_hessenberg_is_strongly_regular(self):
        rng = np.random.default_rng(12)
        from helpers import random_unit_hessenberg

        for n in (2, 3, 5):
            assert strong_regularity_check(random_unit_hessenberg(rng, n))

    def test_zero_matrix_is_not(self):
        assert not strong_regularity_check(np.zeros((2, 2)))

    def test_generic_random_is(self):
        rng = np.random.default_rng(13)
        assert strong_regularity_check(random_generic_matrix(rng, 3))
