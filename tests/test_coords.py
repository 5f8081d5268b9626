from collections import Counter

import numpy as np
import pytest
from helpers import (
    complex_randn,
    random_fiber_coords,
    random_generic_matrix,
    ritz_gap,
)

from ritzfiber import (
    FiberCoords,
    GenericityError,
    NumericalError,
    RitzData,
    complement_c_from_b,
    diagonal_similarity_coords,
    diagonalizer,
    eigenvalues,
    extract_coords,
    reconstruct,
    ritz_values,
    s_coordinates,
    transpose_coords,
)
from ritzfiber import _kernels

X0 = np.array([[0, 1], [1, 0]], dtype=complex)
XS = np.array([[0, 0.5], [2, 0]], dtype=complex)


class TestDiagonalizer:
    def test_swap_matrix_plus(self):
        lam, g = diagonalizer(X0)
        np.testing.assert_allclose(lam, [-1, 1], atol=1e-12)
        np.testing.assert_allclose(g[:, 1], [1, 1], atol=1e-10)

    def test_swap_matrix_minus(self):
        lam, g = diagonalizer(X0)
        np.testing.assert_allclose(g[:, 0], [-1, 1], atol=1e-10)

    def test_scalar(self):
        lam, g = diagonalizer(np.array([[2.0]]))
        assert np.array_equal(lam, [2.0]) and np.array_equal(g, [[1.0]])

    @pytest.mark.parametrize("n", [2, 4, 7])
    def test_residual_and_exact_last_entry(self, n):
        rng = np.random.default_rng(n)
        x = complex_randn(rng, n, n)
        lam, g = diagonalizer(x)
        assert np.all(g[-1] == 1.0)
        for mu, u in zip(lam, g.T):
            res = np.linalg.norm(x @ u - mu * u)
            assert res <= 1e-10 * np.linalg.norm(x) * np.linalg.norm(u)

    @pytest.mark.parametrize("n", [1, 2, 5, 16])
    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    def test_spectrum_is_eigenvalues(self, n, real):
        # real matrices have conjugate pairs, whose canonical order is decided
        # by the imaginary part alone
        rng = np.random.default_rng(70 + n)
        x = rng.standard_normal((n, n)) if real else complex_randn(rng, n, n)
        lam, _ = diagonalizer(x)
        assert np.array_equal(lam, eigenvalues(x))

    def test_vanishing_last_entry_is_genericity_violation(self):
        # E(x_1) = {1} is shared with E(x_2), so the eigenvector for 1 ends in 0
        x = np.diag([1.0, 2.0]).astype(complex)
        with pytest.raises(GenericityError):
            diagonalizer(x)

    def test_non_eigenvalue_fails_residual_bound(self, monkeypatch):
        eig = _kernels.eig

        def shifted(x):
            lam, vecs = eig(x)
            return lam + 0.5, vecs

        monkeypatch.setattr(_kernels, "eig", shifted)
        with pytest.raises(NumericalError, match="residual"):
            diagonalizer(X0)


def counted_eigensolves(monkeypatch):
    """Count the calls into the package's one eigensolver module."""
    calls = Counter()
    for name in ("eig", "eigvals"):
        solver = getattr(_kernels, name)

        def counted(x, name=name, solver=solver):
            calls[name] += 1
            return solver(x)

        monkeypatch.setattr(_kernels, name, counted)
    return calls


class TestExtractCoords:
    def test_swap_matrix(self):
        res = extract_coords(X0)
        np.testing.assert_allclose(res.coords.ritz.level(1), [0], atol=1e-14)
        np.testing.assert_allclose(res.coords.ritz.level(2), [-1, 1], atol=1e-12)
        np.testing.assert_allclose(res.coords.b[0], [1.0], atol=1e-12)

    def test_scaled_swap(self):
        res = extract_coords(XS)
        np.testing.assert_allclose(res.coords.b[0], [2.0], atol=1e-12)
        np.testing.assert_allclose(res.c[0], [0.5], atol=1e-12)
        np.testing.assert_allclose(res.coords.b[0] * res.c[0], [1.0], atol=1e-12)

    def test_identity_rejected(self):
        with pytest.raises(GenericityError, match=r"\(G2_1\)"):
            extract_coords(np.eye(2))

    def test_gate_runs_before_rescaling(self):
        # the eigenvector e_1 of x_2 = diag(1, 2) has a vanishing last entry;
        # the genericity gate must name the failing condition first
        with pytest.raises(GenericityError, match=r"\(G2_1\)"):
            extract_coords(np.diag([1.0, 2.0, 3.0]))

    @pytest.mark.parametrize("n", [1, 2, 5, 16])
    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    def test_levels_are_ritz_values(self, n, real):
        rng = np.random.default_rng(80 + n)
        x = rng.standard_normal((n, n)) if real else complex_randn(rng, n, n)
        got = extract_coords(x).coords.ritz.levels
        want = ritz_values(x).levels
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    @pytest.mark.parametrize("n", [1, 2, 6])
    def test_one_eigensolve_per_level(self, n, monkeypatch):
        x = random_generic_matrix(np.random.default_rng(90 + n), n)
        calls = counted_eigensolves(monkeypatch)
        extract_coords(x)
        assert calls == Counter(eig=n - 1, eigvals=1)


class TestComplementC:
    def test_unit(self):
        r = RitzData([[0], [-1, 1]])
        np.testing.assert_allclose(complement_c_from_b(r, 1, [1.0]), [1.0])

    def test_scaled(self):
        r = RitzData([[0], [-1, 1]])
        np.testing.assert_allclose(complement_c_from_b(r, 1, [2.0]), [0.5])

    def test_zero_entry_rejected(self):
        r = RitzData([[0], [-1, 1]])
        with pytest.raises(ValueError):
            complement_c_from_b(r, 1, [0.0])


class TestReconstruct:
    def test_swap_matrix(self):
        fc = FiberCoords(RitzData([[0], [-1, 1]]), [[1.0]])
        np.testing.assert_allclose(reconstruct(fc), X0, atol=1e-12)

    def test_scaled_swap(self):
        fc = FiberCoords(RitzData([[0], [-1, 1]]), [[2.0]])
        np.testing.assert_allclose(reconstruct(fc), XS, atol=1e-12)

    def test_non_generic_ritz_rejected(self):
        fc = FiberCoords(RitzData([[1.0], [1.0, 2.0]]), [[1.0]])
        with pytest.raises(GenericityError):
            reconstruct(fc)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_round_trip_from_coords(self, n):
        rng = np.random.default_rng(40 + n)
        for _ in range(5):
            fc = random_fiber_coords(rng, n)
            res = extract_coords(reconstruct(fc))
            assert ritz_gap(res.coords.ritz, fc.ritz) < 1e-7 * fc.ritz.scale()
            for got, want in zip(res.coords.b, fc.b):
                assert np.max(np.abs(got - want)) < 1e-7 * max(1.0, np.max(np.abs(want)))

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_round_trip_from_matrix(self, n):
        rng = np.random.default_rng(50 + n)
        for _ in range(5):
            x = random_generic_matrix(rng, n)
            x2 = reconstruct(extract_coords(x).coords)
            assert np.max(np.abs(x2 - x)) < 1e-7 * np.linalg.norm(x)

    def test_ordering_contract(self):
        # permuting a level together with its b slots gives the same matrix
        rng = np.random.default_rng(60)
        fc = random_fiber_coords(rng, 4)
        x = reconstruct(fc)
        m = 3
        perm = rng.permutation(m)
        levels = [lev.copy() for lev in fc.ritz.levels]
        levels[m - 1] = levels[m - 1][perm]
        b = [v.copy() for v in fc.b]
        b[m - 1] = b[m - 1][perm]
        x2 = reconstruct(FiberCoords(RitzData(levels), b))
        assert np.max(np.abs(x2 - x)) < 1e-9 * np.linalg.norm(x)

    def test_injectivity_probe(self):
        rng = np.random.default_rng(61)
        for _ in range(5):
            fc = random_fiber_coords(rng, 4)
            b2 = [v.copy() for v in fc.b]
            b2[2][1] += 1e-3
            x = reconstruct(fc)
            x2 = reconstruct(FiberCoords(fc.ritz, b2))
            assert np.linalg.norm(x2 - x) > 1e-6


class TestSCoordinates:
    def test_slot_layout(self):
        np.testing.assert_allclose(s_coordinates(XS), [2.0], atol=1e-12)

    def test_length(self):
        rng = np.random.default_rng(62)
        x = random_generic_matrix(rng, 5)
        assert len(s_coordinates(x)) == 10


class TestTransposeCoords:
    def test_symmetric_fixed_point(self):
        fc = extract_coords(X0).coords
        np.testing.assert_allclose(transpose_coords(fc).b[0], [1.0], atol=1e-12)

    def test_scaled_swap(self):
        fc = extract_coords(XS).coords
        np.testing.assert_allclose(transpose_coords(fc).b[0], [0.5], atol=1e-12)
        direct = extract_coords(XS.T).coords
        np.testing.assert_allclose(direct.b[0], [0.5], atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_matches_direct_transpose(self, n):
        rng = np.random.default_rng(70 + n)
        x = random_generic_matrix(rng, n)
        fc = extract_coords(x).coords
        via_transform = transpose_coords(fc)
        direct = extract_coords(x.T).coords
        assert ritz_gap(via_transform.ritz, direct.ritz) < 1e-9 * fc.ritz.scale()
        for got, want in zip(via_transform.b, direct.b):
            assert np.max(np.abs(got - want)) < 1e-7 * max(1.0, np.max(np.abs(want)))

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_involution(self, n):
        rng = np.random.default_rng(80 + n)
        fc = random_fiber_coords(rng, n)
        back = transpose_coords(transpose_coords(fc))
        for got, want in zip(back.b, fc.b):
            assert np.max(np.abs(got - want)) < 1e-10 * max(1.0, np.max(np.abs(want)))


class TestDiagonalSimilarityCoords:
    def test_all_ones_is_identity(self):
        fc = random_fiber_coords(np.random.default_rng(90), 3)
        same = diagonal_similarity_coords(fc, np.ones(3))
        for got, want in zip(same.b, fc.b):
            np.testing.assert_allclose(got, want)

    def test_swap_matrix_example(self):
        fc = extract_coords(X0).coords
        scaled = diagonal_similarity_coords(fc, [1.0, 2.0])
        np.testing.assert_allclose(scaled.b[0], [2.0], atol=1e-12)
        d = np.array([1.0, 2.0])
        conj = (d[:, None] * X0) / d[None, :]
        np.testing.assert_allclose(extract_coords(conj).coords.b[0], [2.0], atol=1e-12)

    @pytest.mark.parametrize("n", [3, 5])
    def test_matches_direct_conjugation(self, n):
        rng = np.random.default_rng(95 + n)
        x = random_generic_matrix(rng, n)
        d = rng.uniform(0.5, 2.0, n) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
        fc = extract_coords(x).coords
        via_transform = diagonal_similarity_coords(fc, d)
        direct = extract_coords((d[:, None] * x) / d[None, :]).coords
        for got, want in zip(via_transform.b, direct.b):
            assert np.max(np.abs(got - want)) < 1e-7 * max(1.0, np.max(np.abs(want)))

    def test_composition(self):
        rng = np.random.default_rng(99)
        fc = random_fiber_coords(rng, 4)
        d1 = complex_randn(rng, 4) + 3.0
        d2 = complex_randn(rng, 4) + 3.0
        once = diagonal_similarity_coords(diagonal_similarity_coords(fc, d1), d2)
        both = diagonal_similarity_coords(fc, d1 * d2)
        for got, want in zip(once.b, both.b):
            np.testing.assert_allclose(got, want)

    def test_zero_entry_rejected(self):
        fc = random_fiber_coords(np.random.default_rng(1), 3)
        with pytest.raises(ValueError):
            diagonal_similarity_coords(fc, [1.0, 0.0, 1.0])
