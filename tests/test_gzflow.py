import numpy as np
import pytest
from helpers import (
    complex_randn,
    random_generic_matrix,
    random_unit_hessenberg,
    ritz_gap,
)

from ritzfiber import (
    FlowParam,
    GenericityError,
    NotRegularError,
    NumericalError,
    centralizer_basis,
    eigen_flow,
    expm,
    gz_flow,
    gz_vector_field,
    level_flow,
    numeric_rank,
    ritz_values,
    s_coordinates,
)

X0 = np.array([[0, 1], [1, 0]], dtype=complex)
Q = 0.7 - 0.3j


class TestExpm:
    def test_zero(self):
        np.testing.assert_allclose(expm(np.zeros((3, 3))), np.eye(3), atol=1e-15)

    @pytest.mark.parametrize("scale", [0.5, 3.0, 40.0])
    def test_against_diagonalization(self, scale):
        rng = np.random.default_rng(int(scale))
        a = scale * complex_randn(rng, 4, 4)
        w, v = np.linalg.eig(a)
        want = v @ np.diag(np.exp(w)) @ np.linalg.inv(v)
        got = expm(a)
        assert np.max(np.abs(got - want)) < 1e-9 * np.max(np.abs(want))


class TestGzFlow:
    def test_swap_matrix(self):
        got = gz_flow(X0, FlowParam(1, 1, Q))
        want = np.array([[0, np.exp(-Q)], [np.exp(Q), 0]])
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_zero_time(self):
        rng = np.random.default_rng(0)
        x = complex_randn(rng, 4, 4)
        np.testing.assert_allclose(gz_flow(x, FlowParam(2, 1, 0.0)), x, atol=1e-14)

    def test_top_level_scales_border(self):
        rng = np.random.default_rng(1)
        x = complex_randn(rng, 4, 4)
        got = gz_flow(x, FlowParam(3, 1, Q))
        want = x.copy()
        want[:3, 3] *= np.exp(-Q)
        want[3, :3] *= np.exp(Q)
        np.testing.assert_allclose(got, want, atol=1e-10)

    @pytest.mark.parametrize("n", [3, 5])
    def test_preserves_ritz(self, n):
        rng = np.random.default_rng(2 + n)
        x = random_generic_matrix(rng, n, normalized=True)
        r = ritz_values(x)
        for m in range(1, n):
            for k in range(1, m + 1):
                q = complex(complex_randn(rng, 1)[0])
                y = gz_flow(x, FlowParam(m, k, q))
                assert ritz_gap(ritz_values(y), r) < 1e-7 * r.scale()

    def test_group_law(self):
        rng = np.random.default_rng(8)
        x = random_generic_matrix(rng, 4)
        s, t = 0.4 + 0.2j, -0.3 + 0.7j
        once = gz_flow(gz_flow(x, FlowParam(2, 2, s)), FlowParam(2, 2, t))
        both = gz_flow(x, FlowParam(2, 2, s + t))
        assert np.max(np.abs(once - both)) < 1e-8 * np.linalg.norm(x)

    @pytest.mark.parametrize("q", [800.0, 1e308, 5e306])
    def test_overflow_raises(self, q):
        # 800: exp overflows; 1e308: the generator overflows; 5e306: the
        # generator is finite but its 1-norm is not
        x = np.ones((4, 4), dtype=complex)
        x[:3, :3] = [[1, 2, 3], [4, 5, 6], [7, 8, 10]]
        with pytest.raises(NumericalError):
            gz_flow(x, FlowParam(3, 2, q))

    def test_bounds(self):
        with pytest.raises(ValueError):
            gz_flow(X0, FlowParam(2, 1, 1.0))
        with pytest.raises(ValueError):
            FlowParam(1, 2, 1.0)


class TestGzVectorField:
    def test_swap_matrix(self):
        got = gz_vector_field(X0, 1, 1)
        np.testing.assert_allclose(got, [[0, -1], [1, 0]], atol=1e-14)

    def test_full_size_level_excluded(self):
        with pytest.raises(ValueError):
            gz_vector_field(X0, 2, 1)

    @pytest.mark.parametrize("n", [3, 5])
    def test_finite_difference(self, n):
        rng = np.random.default_rng(3 + n)
        x = complex_randn(rng, n, n)
        h = 1e-6
        for m, k in [(1, 1), (n - 1, 1), (n - 1, min(2, n - 1))]:
            field = gz_vector_field(x, m, k)
            fd = (gz_flow(x, FlowParam(m, k, h)) - gz_flow(x, FlowParam(m, k, -h))) / (2 * h)
            assert np.max(np.abs(fd - field)) < 1e-5


class TestEigenFlow:
    def test_swap_matrix(self):
        got = eigen_flow(X0, 1, Q)
        want = np.array([[0, np.exp(Q)], [np.exp(-Q), 0]])
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_slot_shift(self):
        rng = np.random.default_rng(14)
        x = random_generic_matrix(rng, 4)
        s0 = s_coordinates(x)
        for j in range(1, 7):
            y = eigen_flow(x, j, Q)
            s1 = s_coordinates(y)
            want = s0.copy()
            want[j - 1] *= np.exp(-Q)
            assert np.max(np.abs(s1 - want)) < 1e-7 * np.max(np.abs(s0))

    def test_basepoint_slot_marked(self):
        # flowing the fibre basepoint marks exactly one coordinate slot
        rng = np.random.default_rng(44)
        from helpers import random_generic_ritz
        from ritzfiber import hessenberg_representative

        y = hessenberg_representative(random_generic_ritz(rng, 4))
        s = s_coordinates(eigen_flow(y, 5, Q))
        want = np.ones(6, dtype=complex)
        want[4] = np.exp(-Q)
        assert np.max(np.abs(s - want)) < 1e-7

    def test_torus_periodicity(self):
        rng = np.random.default_rng(15)
        x = random_generic_matrix(rng, 4)
        y = eigen_flow(x, 3, 2j * np.pi)
        assert np.max(np.abs(y - x)) < 1e-7 * np.linalg.norm(x)

    def test_one_parameter_group(self):
        rng = np.random.default_rng(16)
        x = random_generic_matrix(rng, 3)
        once = eigen_flow(eigen_flow(x, 2, 0.3 + 0.1j), 2, -0.8j)
        both = eigen_flow(x, 2, 0.3 + 0.1j - 0.8j)
        assert np.max(np.abs(once - both)) < 1e-9 * np.linalg.norm(x)

    def test_preserves_ritz(self):
        rng = np.random.default_rng(17)
        x = random_generic_matrix(rng, 5)
        r = ritz_values(x)
        for j in (1, 4, 8, 10):
            y = eigen_flow(x, j, complex(complex_randn(rng, 1)[0]))
            assert ritz_gap(ritz_values(y), r) < 1e-7 * r.scale()

    def test_non_generic_rejected(self):
        with pytest.raises(GenericityError):
            eigen_flow(np.eye(2), 1, 0.5)

    def test_slot_out_of_range(self):
        with pytest.raises(ValueError):
            eigen_flow(X0, 2, 0.5)


class TestLevelFlow:
    def test_zeros_is_identity(self):
        rng = np.random.default_rng(18)
        x = random_generic_matrix(rng, 3)
        np.testing.assert_allclose(level_flow(x, 2, [0, 0]), x, atol=1e-10)

    def test_single_slot_matches_eigen_flow(self):
        rng = np.random.default_rng(19)
        x = random_generic_matrix(rng, 2)
        np.testing.assert_allclose(
            level_flow(x, 1, [Q]), eigen_flow(x, 1, Q), atol=1e-12
        )

    def test_composition_of_eigen_flows(self):
        rng = np.random.default_rng(20)
        x = random_generic_matrix(rng, 4)
        qs = complex_randn(rng, 2)
        composed = eigen_flow(eigen_flow(x, 2, qs[0]), 3, qs[1])
        at_once = level_flow(x, 2, qs)
        assert np.max(np.abs(composed - at_once)) < 1e-7 * np.linalg.norm(x)


class TestCentralizerBasis:
    def test_diagonal(self):
        x = np.diag([1.0, 2.0, 9.0]).astype(complex)
        basis = centralizer_basis(x, 2)
        want0 = np.eye(3, dtype=complex)
        want1 = np.diag([1.0, 2.0, 1.0])
        np.testing.assert_allclose(basis[0], want0)
        np.testing.assert_allclose(basis[1], want1)

    def test_identity_not_regular(self):
        with pytest.raises(NotRegularError):
            centralizer_basis(np.eye(3, dtype=complex), 2)

    def test_jordan_block_regular(self):
        x = np.zeros((3, 3), dtype=complex)
        x[1, 0] = 1.0  # J_2(0) in the leading block
        basis = centralizer_basis(x, 2)
        assert len(basis) == 2
        np.testing.assert_allclose(basis[1][:2, :2], [[0, 0], [1, 0]])

    def test_members_commute_with_submatrix(self):
        rng = np.random.default_rng(21)
        x = complex_randn(rng, 5, 5)
        for g in centralizer_basis(x, 3):
            top = g[:3, :3]
            assert np.max(np.abs(top @ x[:3, :3] - x[:3, :3] @ top)) < 1e-10


class TestStrongRegularityLink:
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_flow_fields_independent_at_hessenberg_points(self, n):
        rng = np.random.default_rng(22 + n)
        y = random_unit_hessenberg(rng, n)
        fields = [
            gz_vector_field(y, m, k).ravel()
            for m in range(1, n)
            for k in range(1, m + 1)
        ]
        assert numeric_rank(np.array(fields)) == n * (n - 1) // 2
