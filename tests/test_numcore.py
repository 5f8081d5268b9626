import numpy as np
import pytest
from helpers import complex_randn

from ritzfiber import (
    MonicPoly,
    NumericalError,
    charpoly_from_eigs,
    eigenvalues,
    numeric_rank,
    poly_quotient_in_basis,
)
from ritzfiber.arrow import _Pair
from ritzfiber.numcore import COINCIDE_REL, EIG_REL, RANK_REL

X0 = np.array([[0, 1], [1, 0]], dtype=complex)


class TestTolerances:
    def test_defaults(self):
        assert (EIG_REL, COINCIDE_REL, RANK_REL) == (1e-10, 1e-8, 1e-10)


class TestEigenvalues:
    def test_swap_matrix(self):
        np.testing.assert_allclose(eigenvalues(X0), [-1, 1], atol=1e-12)

    def test_identity(self):
        np.testing.assert_allclose(eigenvalues(np.eye(3)), [1, 1, 1], atol=1e-12)

    def test_companion_integer_roots(self):
        # companion of l^3 - 6l^2 + 11l - 6 = (l-1)(l-2)(l-3)
        comp = np.array([[0, 0, 6], [1, 0, -11], [0, 1, 6]], dtype=complex)
        np.testing.assert_allclose(eigenvalues(comp), [1, 2, 3], atol=1e-8)

    def test_cyclic_matrix_needs_exceptional_shifts(self):
        n = 4
        cyc = np.zeros((n, n), dtype=complex)
        cyc[1:, :-1] = np.eye(n - 1)
        cyc[0, -1] = 1.0
        roots = np.exp(2j * np.pi * np.arange(n) / n)
        got = np.sort_complex(eigenvalues(cyc))
        assert np.max(np.abs(got - np.sort_complex(roots))) < 1e-10

    def test_canonical_order(self):
        eigs = eigenvalues(np.diag([3.0, 1.0, 2.0]))
        assert np.all(np.diff(eigs.real) >= 0)

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_charpoly_matches_lu_determinant(self, n):
        rng = np.random.default_rng(n)
        x = complex_randn(rng, n, n)
        p = charpoly_from_eigs(eigenvalues(x))
        for z in complex_randn(rng, 5):
            det = np.linalg.det(z * np.eye(n) - x)
            assert abs(np.polyval(p.full()[::-1], z) - det) <= 1e-8 * max(1.0, abs(det))

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_root_multiset_idempotent(self, n):
        rng = np.random.default_rng(10 + n)
        x = complex_randn(rng, n, n)
        eigs = eigenvalues(x)
        p = charpoly_from_eigs(eigs)
        comp = np.zeros((n, n), dtype=complex)
        comp[1:, :-1] = np.eye(n - 1)
        comp[:, -1] = -p.coeffs
        again = eigenvalues(comp)
        assert np.max(np.abs(np.sort_complex(again) - np.sort_complex(eigs))) < 1e-8

    def test_nonconvergence_raises(self, monkeypatch):
        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", fail)
        with pytest.raises(NumericalError):
            eigenvalues(X0)

    def test_overflow_raises(self):
        # the true spectrum {0, 2e308} overflows double precision
        with pytest.raises(NumericalError):
            eigenvalues(np.full((2, 2), 1e308))


class TestPolynomials:
    def test_charpoly_pm_one(self):
        p = charpoly_from_eigs([1.0, -1.0])
        np.testing.assert_allclose(p.full(), [-1, 0, 1], atol=1e-15)

    def test_charpoly_empty(self):
        p = charpoly_from_eigs([])
        assert p.degree == 0
        np.testing.assert_allclose(p.full(), [1])

    def test_charpoly_cubic(self):
        p = charpoly_from_eigs([1.0, 2.0, 3.0])
        np.testing.assert_allclose(p.full(), [-6, 11, -6, 1], atol=1e-12)

    def test_eval(self):
        # full() is low degree first; np.polyval wants high degree first
        assert np.polyval(MonicPoly([-1.0, 0.0]).full()[::-1], 0.0) == -1.0

    def test_derivative(self):
        # P = l^2 - 1 has P'(l) = 2 l at its roots -1, 1; the pair record
        # keeps P'(d) as its second row of products
        pair = _Pair(np.array([-1.0, 1.0 + 0j]), np.zeros(1, dtype=complex))
        np.testing.assert_allclose(pair.products[1], [-2, 2])

    def test_derivative_constant(self):
        # P = l - 3 has P' = 1
        pair = _Pair(np.array([3.0 + 0j]), np.zeros(1, dtype=complex))
        np.testing.assert_allclose(pair.products[1], [1])

    def test_quotient_in_basis(self):
        basis = [MonicPoly([]), MonicPoly([0.0])]  # 1, l
        coeffs = poly_quotient_in_basis([1.0, 3.0], basis)
        np.testing.assert_allclose(coeffs, [1, 3])

    def test_quotient_reconstructs_target(self):
        rng = np.random.default_rng(3)
        basis = [charpoly_from_eigs(complex_randn(rng, k)) for k in range(5)]
        target = complex_randn(rng, 5)
        coeffs = poly_quotient_in_basis(target, basis)
        z = complex_randn(rng, 4)
        for zz in z:
            want = np.polyval(target[::-1], zz)
            got = sum(c * np.polyval(p.full()[::-1], zz) for c, p in zip(coeffs, basis))
            assert abs(got - want) < 1e-10

    def test_quotient_degree_too_high(self):
        with pytest.raises(ValueError):
            poly_quotient_in_basis([1.0, 2.0, 3.0], [MonicPoly([]), MonicPoly([0.0])])


class TestNumericRank:
    def test_identity(self):
        assert numeric_rank(np.eye(3)) == 3

    def test_rank_one(self):
        assert numeric_rank(np.ones((2, 2))) == 1

    def test_krylov_of_diagonal(self):
        b_matrix = np.diag([1.0, 2.0])
        b = np.array([1.0, 0.0])
        krylov = np.column_stack([b, b_matrix.T @ b])
        assert numeric_rank(krylov) == 1

    @pytest.mark.parametrize("trial", range(4))
    def test_product_rank_bound(self, trial):
        rng = np.random.default_rng(trial)
        a = complex_randn(rng, 5, 3)
        b = complex_randn(rng, 3, 5)
        assert numeric_rank(a @ b) <= min(numeric_rank(a), numeric_rank(b))
