import numpy as np
import pytest
from helpers import complex_randn, random_generic_matrix

from ritzfiber import (
    ArrowMatrix,
    NumericalError,
    RitzData,
    SpectralCollisionError,
    arrow_factorize,
    cauchy_matrix,
    eigenvalues,
    extract_coords,
    pi_matrix,
    sigma_matrix,
)


def random_arrow(rng, m):
    """Arrow matrix with well-separated diagonal and nonzero borders."""
    d = complex_randn(rng, m) + 3.0 * np.arange(m)  # spread the diagonal out
    p = complex_randn(rng, m) + 0.5
    q = complex_randn(rng, m) + 0.5
    return ArrowMatrix(d, p, q, complex(complex_randn(rng, 1)[0]))


def product_route_pi(a, lam):
    """Pairing diagonal computed as (row eigenvectors) @ (column eigenvectors).

    Independent oracle for pi_matrix: builds both eigenvector families from
    the closed forms and multiplies them.
    """
    m = len(a.d)
    col = np.vstack([-a.p[:, None] * cauchy_matrix(a.d, lam), np.ones((1, m + 1))])
    row = np.hstack([cauchy_matrix(lam, a.d) * a.q[None, :], np.ones((len(lam), 1))])
    prod = row @ col
    off = prod - np.diag(np.diag(prod))
    assert np.max(np.abs(off)) < 1e-8 * max(1.0, np.max(np.abs(prod)))
    return np.diag(prod)


class TestCauchyMatrix:
    def test_single_row(self):
        np.testing.assert_allclose(cauchy_matrix([0.0], [1.0, -1.0]), [[-1, 1]])

    def test_scalar(self):
        np.testing.assert_allclose(cauchy_matrix([2.0], [1.0]), [[1]])

    def test_column(self):
        np.testing.assert_allclose(cauchy_matrix([0.0, 1.0], [2.0]), [[-0.5], [-1.0]])

    def test_collision_raises(self):
        with pytest.raises(SpectralCollisionError):
            cauchy_matrix([1.0, 2.0], [2.0 + 1e-12])


class TestSigmaMatrix:
    def test_swap_fibre(self):
        np.testing.assert_allclose(sigma_matrix(RitzData([[0], [-1, 1]]), 1), [1.0])

    def test_violating_g2_raises(self):
        with pytest.raises(SpectralCollisionError):
            sigma_matrix(RitzData([[1.0], [1.0 + 1e-12, 5.0]]), 1)

    def test_spread_spectrum(self):
        np.testing.assert_allclose(sigma_matrix(RitzData([[0], [2, -2]]), 1), [4.0])


class TestPiMatrix:
    def test_swap_fibre(self):
        np.testing.assert_allclose(pi_matrix([0.0], [1.0, -1.0]), [2.0, 2.0])

    def test_empty_previous_level(self):
        np.testing.assert_allclose(pi_matrix([], [3.7]), [1.0])

    @pytest.mark.parametrize("m", [1, 2, 4, 6])
    def test_two_route_agreement(self, m):
        rng = np.random.default_rng(m)
        a = random_arrow(rng, m)
        lam = eigenvalues(a.to_dense())
        closed = pi_matrix(a.d, lam)
        via_product = product_route_pi(a, lam)
        assert np.max(np.abs(closed - via_product)) < 1e-8 * np.max(np.abs(closed))

    def test_independent_of_borders(self):
        # rescaling p and q by reciprocal factors keeps (d, lam) and must keep pi
        rng = np.random.default_rng(77)
        a = random_arrow(rng, 3)
        lam = eigenvalues(a.to_dense())
        t = rng.uniform(0.5, 2.0, 3) * np.exp(2j * np.pi * rng.uniform(0, 1, 3))
        b = ArrowMatrix(a.d, a.p * t, a.q / t, a.delta)
        assert np.max(np.abs(eigenvalues(b.to_dense()) - lam)) < 1e-9
        pa = product_route_pi(a, lam)
        pb = product_route_pi(b, lam)
        assert np.max(np.abs(pa - pb)) < 1e-10 * np.max(np.abs(pa))


class TestArrowFactorize:
    def test_swap_matrix(self):
        a = ArrowMatrix([0.0], [1.0], [1.0], 0.0)
        f = arrow_factorize(a, [1.0, -1.0])
        np.testing.assert_allclose(f.z_inv, [[1, -1], [1, 1]], atol=1e-14)

    def test_scaled_borders(self):
        a = ArrowMatrix([0.0], [0.5], [2.0], 0.0)
        f = arrow_factorize(a, [1.0, -1.0])
        np.testing.assert_allclose(f.z_inv, [[0.5, -0.5], [1, 1]], atol=1e-14)

    def test_degenerate_spectrum_rejected(self):
        a = ArrowMatrix([5.0], [0.0], [0.0], 3.0)
        with pytest.raises(SpectralCollisionError):
            arrow_factorize(a, [5.0, 3.0])

    def test_wrong_spectrum_fails_residual(self):
        a = ArrowMatrix([0.0], [1.0], [1.0], 0.0)
        with pytest.raises(NumericalError):
            arrow_factorize(a, [1.5, -1.5])

    @pytest.mark.parametrize("m", range(1, 9))
    def test_residual_random(self, m):
        rng = np.random.default_rng(100 + m)
        a = random_arrow(rng, m)
        dense = a.to_dense()
        lam = eigenvalues(dense)
        f = arrow_factorize(a, lam)
        recon = (f.z_inv * f.lam[None, :]) @ f.z()
        assert np.linalg.norm(recon - dense) <= 1e-8 * np.linalg.norm(dense)


class TestFibreIdentities:
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_bc_product_matches_extraction(self, n):
        rng = np.random.default_rng(200 + n)
        x = random_generic_matrix(rng, n)
        res = extract_coords(x)
        for m in range(1, n):
            prod = res.coords.b[m - 1] * res.c[m - 1]
            sig = sigma_matrix(res.coords.ritz, m)
            assert np.max(np.abs(prod - sig)) < 1e-8 * np.max(np.abs(sig))

    @pytest.mark.parametrize("n", [3, 5])
    def test_bordered_charpoly_identity(self, n):
        # P_{m+1}(l) = P_m(l)(l - d_{m+1}) - sum_i b_i c_i P_m^{(i)}(l)
        rng = np.random.default_rng(300 + n)
        x = random_generic_matrix(rng, n)
        res = extract_coords(x)
        r = res.coords.ritz
        for m in range(1, n):
            mus = r.level(m)
            nxt = r.level(m + 1)
            delta = np.sum(nxt) - np.sum(mus)
            bc = res.coords.b[m - 1] * res.c[m - 1]
            for lam in complex_randn(rng, 5):
                lhs = np.prod(lam - nxt)
                pm = np.prod(lam - mus)
                corr = sum(
                    bc[i] * np.prod(lam - np.delete(mus, i)) for i in range(m)
                )
                rhs = pm * (lam - delta) - corr
                assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(lhs))


@pytest.mark.filterwarnings("error")
class TestRitzProductRange:
    """A Ritz product outside the normal float range raises NumericalError,
    without a numpy RuntimeWarning, instead of giving inf or NaN."""

    @pytest.mark.parametrize("s", [1e200, 1e-200])
    def test_sigma_matrix(self, s):
        with pytest.raises(NumericalError, match="normal float range"):
            sigma_matrix(RitzData([[s], [0.0, 3.0 * s]]), 1)

    @pytest.mark.parametrize("s", [1e200, 1e-200])
    def test_pi_matrix(self, s):
        with pytest.raises(NumericalError, match="normal float range"):
            pi_matrix([s], [0.0, 3.0 * s])

    def test_unscaled_pi_matrix(self):
        np.testing.assert_allclose(pi_matrix([1.0], [0.0, 3.0]), [3.0, 1.5])

    @pytest.mark.parametrize("s", [1e200, 1e-200])
    def test_arrow_factorize(self, s):
        with pytest.raises(NumericalError):
            arrow_factorize(ArrowMatrix([s], [s], [s], 0.0), [0.0, 3.0 * s])

    def test_empty_d_has_no_products(self):
        np.testing.assert_array_equal(pi_matrix([], [2.0]), [1.0])
