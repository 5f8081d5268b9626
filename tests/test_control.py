import itertools

import numpy as np
import pytest
from helpers import complex_randn

from ritzfiber import (
    CompletionError,
    JordanSpec,
    MonicPoly,
    NotRegularError,
    NumericalError,
    SISOSystem,
    centralizer_basis,
    charpoly_from_eigs,
    controllable,
    is_regular,
    jordan_observable_row,
    markov_hankel,
    numeric_rank,
    observable,
    solve_unique_completion,
)
from ritzfiber import control
from ritzfiber.control import charpoly, markov_parameters_from_target
from ritzfiber.numcore import RANK_REL


def random_regular_system(rng, m):
    """Random bordered system whose base is regular and observable a.s."""
    b_matrix = complex_randn(rng, m, m)
    row = complex_randn(rng, m)
    col = complex_randn(rng, m)
    return b_matrix, row, col


class TestObservable:
    def test_hessenberg_last_row(self):
        rng = np.random.default_rng(0)
        for m in (2, 4, 6):
            h = np.triu(complex_randn(rng, m, m), -1)
            h[np.arange(1, m), np.arange(m - 1)] = rng.uniform(0.5, 2.0, m - 1)
            e_m = np.zeros(m)
            e_m[-1] = 1.0
            assert observable(h, e_m)

    def test_diagonal_missing_slot(self):
        assert not observable(np.diag([1.0, 2.0]), [1.0, 0.0])

    def test_identity_never(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            assert not observable(np.eye(3), complex_randn(rng, 3))


class TestControllable:
    def test_vandermonde(self):
        assert controllable(np.diag([1.0, 2.0]), [1.0, 1.0])

    def test_derogatory_never(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            assert not controllable(np.diag([1.0, 1.0]), complex_randn(rng, 2))

    def test_zero_vector(self):
        assert not controllable(np.diag([1.0, 2.0]), [0.0, 0.0])

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_duality_with_observable(self, m):
        rng = np.random.default_rng(3 + m)
        for _ in range(10):
            b_matrix = complex_randn(rng, m, m)
            v = complex_randn(rng, m)
            assert observable(b_matrix, v) == controllable(b_matrix.T, v)


class TestIsRegular:
    def test_distinct_diagonal(self):
        assert is_regular(np.diag([1.0, 2.0, 3.0]))

    def test_identity(self):
        assert not is_regular(np.eye(2))

    def test_nilpotent_jordan_block(self):
        j = np.zeros((3, 3), dtype=complex)
        j[1, 0] = j[2, 1] = 1.0
        assert is_regular(j)

    def test_non_regular_never_observable(self):
        rng = np.random.default_rng(7)
        g = complex_randn(rng, 3, 3)
        b_matrix = g @ np.diag([2.0, 2.0, 5.0]) @ np.linalg.inv(g)  # derogatory
        assert not is_regular(b_matrix)
        for _ in range(100):
            assert not observable(b_matrix, complex_randn(rng, 3))


class TestMarkovHankel:
    def test_scalar_integrator(self):
        sys = SISOSystem(np.array([[0.0]]), [1.0], [1.0], 0.0)
        np.testing.assert_allclose(markov_hankel(sys, 2), [[1, 0], [0, 0]])

    def test_zero_row(self):
        sys = SISOSystem(np.diag([1.0, 2.0]), [0.0, 0.0], [1.0, 1.0], 0.0)
        np.testing.assert_allclose(markov_hankel(sys, 3), np.zeros((3, 3)))

    def test_generic_arrow_full_rank(self):
        rng = np.random.default_rng(8)
        m = 2
        d = np.array([0.0, 1.0]) + complex_randn(rng, m) * 0.1
        row = complex_randn(rng, m) + 0.5
        col = complex_randn(rng, m) + 0.5
        sys = SISOSystem(np.diag(d), row, col, 0.0)
        assert numeric_rank(markov_hankel(sys, m)) == m

    def test_entries_are_markov_parameters(self):
        rng = np.random.default_rng(9)
        b_matrix, row, col = random_regular_system(rng, 3)
        sys = SISOSystem(b_matrix, row, col, 0.0)
        h = markov_hankel(sys, 3)
        for i, j in itertools.product(range(3), repeat=2):
            want = row @ np.linalg.matrix_power(b_matrix, i + j) @ col
            assert abs(h[i, j] - want) < 1e-12 * max(1.0, abs(want))


@pytest.mark.filterwarnings("error")
class TestKrylovOverflow:
    """A Krylov matrix or right-hand side that overflows raises NumericalError
    without a numpy RuntimeWarning."""

    BIG = np.full((2, 2), 1e300)
    ROW = np.full(2, 1e300)

    def test_observable(self):
        with pytest.raises(NumericalError, match="Krylov"):
            observable(self.BIG, self.ROW)

    def test_controllable(self):
        with pytest.raises(NumericalError, match="Krylov"):
            controllable(self.BIG, self.ROW)

    def test_completion(self):
        with pytest.raises(NumericalError, match="Krylov"):
            solve_unique_completion(self.BIG, self.ROW, MonicPoly([1.0, 2.0, 3.0]))

    def test_completion_right_hand_side(self):
        # the 1x1 Krylov matrix (1e308) is finite, delta * P_B overflows
        with pytest.raises(NumericalError):
            solve_unique_completion(np.array([[1e308]]), [1e308], MonicPoly([1.0, 2.0]))

    def test_markov_hankel(self):
        with pytest.raises(NumericalError, match="Krylov"):
            markov_hankel(SISOSystem(self.BIG, self.ROW, self.ROW, 0.0), 2)

    def test_markov_parameters(self):
        sys = SISOSystem(np.eye(1), [1e200], [1e200], 0.0)
        with pytest.raises(NumericalError, match="Markov"):
            markov_hankel(sys, 1)

    def test_representable_krylov_matrix_is_decided(self):
        # rows b, ..., (B^T)^{m-1} b fit even though B^m would overflow
        assert observable(np.array([[1e308]]), [1e308])
        assert controllable(np.array([[1e308]]), [1e308])


class TestCompletion:
    def test_scalar_unit(self):
        c = solve_unique_completion(np.array([[0.0]]), [1.0], MonicPoly([-1.0, 0.0]))
        np.testing.assert_allclose(c, [1.0], atol=1e-12)

    def test_scalar_scaled(self):
        c = solve_unique_completion(np.array([[0.0]]), [2.0], MonicPoly([-1.0, 0.0]))
        np.testing.assert_allclose(c, [0.5], atol=1e-12)

    def test_unobservable_rejected(self):
        with pytest.raises(CompletionError):
            solve_unique_completion(
                np.diag([1.0, 2.0]), [1.0, 0.0], MonicPoly([1.0, 2.0, 3.0])
            )

    @pytest.mark.parametrize("m", [1, 2, 4, 8])
    def test_round_trip(self, m):
        rng = np.random.default_rng(10 + m)
        for _ in range(5):
            b_matrix, row, _ = random_regular_system(rng, m)
            target = charpoly_from_eigs(complex_randn(rng, m + 1))
            c = solve_unique_completion(b_matrix, row, target)
            delta = -target.coeffs[m] - np.trace(b_matrix)
            achieved = charpoly(SISOSystem(b_matrix, row, c, delta).bordered())
            scale = max(1.0, float(np.max(np.abs(target.full()))))
            assert np.max(np.abs(achieved.full() - target.full())) < 1e-7 * scale

    def test_schur_complement_identity(self):
        # P_{m+1}(l) = P_m(l) (l - delta - row (lI - B)^{-1} col)
        rng = np.random.default_rng(30)
        m = 4
        b_matrix, row, _ = random_regular_system(rng, m)
        target = charpoly_from_eigs(complex_randn(rng, m + 1))
        col = solve_unique_completion(b_matrix, row, target)
        delta = -target.coeffs[m] - np.trace(b_matrix)
        p_b = charpoly(b_matrix)
        for lam in complex_randn(rng, 5):
            resolvent = np.linalg.solve(lam * np.eye(m) - b_matrix, col)
            rhs = np.polyval(p_b.full()[::-1], lam) * (lam - delta - row @ resolvent)
            lhs = np.polyval(target.full()[::-1], lam)
            assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(lhs))

    def test_krylov_matrix_built_once(self, monkeypatch):
        calls = []
        krylov = control._krylov_rows
        monkeypatch.setattr(control, "_krylov_rows", lambda *a: calls.append(a) or krylov(*a))
        solve_unique_completion(np.diag([1.0, 2.0]), [1.0, 1.0], MonicPoly([1.0, 2.0, 3.0]))
        assert len(calls) == 1

    def test_higher_markov_parameters_consistent(self):
        # the series matches beyond the m equations actually solved
        rng = np.random.default_rng(31)
        m = 4
        b_matrix, row, _ = random_regular_system(rng, m)
        target = charpoly_from_eigs(complex_randn(rng, m + 1))
        col = solve_unique_completion(b_matrix, row, target)
        delta = -target.coeffs[m] - np.trace(b_matrix)
        g = markov_parameters_from_target(charpoly(b_matrix), target, delta, 2 * m)
        v = col.copy()
        for k in range(2 * m):
            assert abs(row @ v - g[k]) < 1e-7 * max(1.0, abs(g[k]))
            v = b_matrix @ v


class TestJordanObservableRow:
    def test_segment_ends_nonzero(self):
        spec = JordanSpec([(0, 2), (5, 1)])
        assert jordan_observable_row(spec, [0.0, 1.0, 1.0])

    def test_segment_end_zero(self):
        spec = JordanSpec([(0, 2), (5, 1)])
        assert not jordan_observable_row(spec, [7.0, 0.0, 1.0])

    def test_all_singleton_blocks(self):
        spec = JordanSpec([(0, 1), (1, 1), (2, 1)])
        assert jordan_observable_row(spec, [1.0, 1.0, 1.0])
        assert not jordan_observable_row(spec, [1.0, 0.0, 1.0])

    def test_repeated_eigenvalues_rejected(self):
        with pytest.raises(ValueError):
            JordanSpec([(1.0, 2), (1.0, 1)])

    def test_matrix_assembly(self):
        spec = JordanSpec([(2.0, 2), (5.0, 1)])
        want = np.array([[2, 0, 0], [1, 2, 0], [0, 0, 5]], dtype=complex)
        np.testing.assert_allclose(spec.to_matrix(), want)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_matches_krylov_rank_exhaustively(self, m):
        # every partition of m into Jordan blocks, every zero/nonzero pattern
        def partitions(k, cap=None):
            cap = cap or k
            if k == 0:
                yield ()
                return
            for first in range(min(k, cap), 0, -1):
                for rest in partitions(k - first, first):
                    yield (first,) + rest

        for sizes in partitions(m):
            spec = JordanSpec([(3.0 * i, s) for i, s in enumerate(sizes)])
            b_matrix = spec.to_matrix()
            for pattern in itertools.product((0.0, 1.0), repeat=m):
                row = np.array(pattern)
                assert jordan_observable_row(spec, row) == observable(b_matrix, row)


def spread_relative_is_regular(b_matrix):
    """Reference oracle: the earlier regularity rule, which counted the
    Sylvester singular values against the Sylvester matrix's own largest one
    (a measure of the spread of the spectrum, not of the size of B)."""
    m = len(b_matrix)
    ident = np.eye(m)
    s = np.linalg.svd(np.kron(ident, b_matrix) - np.kron(b_matrix.T, ident), compute_uv=False)
    rank = int(np.sum(s > RANK_REL * s[0])) if s[0] > 0.0 else 0
    return m * m - rank == m


def restricted_growth_strings(k):
    """Every partition of k blocks into groups, as labels 0, 1, ... in order
    of first appearance."""
    if k == 0:
        yield ()
        return
    for head in restricted_growth_strings(k - 1):
        for label in range(max(head, default=-1) + 2):
            yield head + (label,)


def compositions(m):
    """Every ordered list of positive block sizes summing to m."""
    if m == 0:
        yield ()
        return
    for first in range(1, m + 1):
        for rest in compositions(m - first):
            yield (first,) + rest


# eigenvalue of each group; the first is nonzero, so a scalar matrix is not 0
EIGENVALUE_SETS = ([1.0, -2.0 + 1.0j, 3.0j, 0.0], [1.5 - 0.5j, 0.0, -1.0, 2.0j])


def jordan_structures(max_m):
    """``(B, regular)`` for every Jordan structure of order m <= max_m: every
    ordered list of block sizes, every grouping of the blocks by shared
    eigenvalue, and each eigenvalue set.  B is regular exactly when no two
    blocks share an eigenvalue."""
    for m in range(1, max_m + 1):
        for sizes in compositions(m):
            for labels in restricted_growth_strings(len(sizes)):
                for values in EIGENVALUE_SETS:
                    b_matrix = np.zeros((m, m), dtype=complex)
                    pos = 0
                    for g, s in zip(labels, sizes):
                        b_matrix[pos:pos + s, pos:pos + s] = values[g] * np.eye(s) + np.eye(s, k=-1)
                        pos += s
                    yield b_matrix, len(set(labels)) == len(labels)


class TestCommutantTest:
    """is_regular and centralizer_basis share one commutant test, which counts
    Sylvester singular values against RANK_REL * ||B||_2 on B scaled by a
    power of two."""

    def test_nearly_equal_eigenvalues_are_equal(self):
        assert not is_regular(np.diag([1.0, 1.0 + 1e-15]))
        assert not is_regular(np.array([[2.0, 1e-15], [0.0, 2.0]]))

    def test_huge_distinct_eigenvalues(self):
        # eigenvalues 0 and 2e308: distinct, although their sum overflows
        assert is_regular(1e308 * np.ones((2, 2)))

    def test_centralizer_of_nearly_equal_eigenvalues(self):
        with pytest.raises(NotRegularError):
            centralizer_basis(np.diag([1.0, 1.0 + 1e-15, 5.0]), 2)

    def test_empty_matrix_is_regular(self):
        assert is_regular(np.zeros((0, 0)))

    def test_jordan_structure_truth_table(self):
        rng = np.random.default_rng(29)
        count = 0
        for b_matrix, regular in jordan_structures(4):
            m = len(b_matrix)
            q, _ = np.linalg.qr(complex_randn(rng, m, m))
            for y in (b_matrix, q @ b_matrix @ q.conj().T):
                assert is_regular(y) == regular, (y, regular)
                if regular:
                    assert len(centralizer_basis(y, m)) == m
                else:
                    with pytest.raises(NotRegularError):
                        centralizer_basis(y, m)
                count += 1
        assert count == 204

    def test_agrees_with_spread_rule_on_small_integer_matrices(self):
        cases = [
            np.array(entries, dtype=float).reshape(m, m)
            for m in (1, 2)
            for entries in itertools.product((-1, 0, 1), repeat=m * m)
        ]
        cases += list(np.random.default_rng(30).integers(-1, 2, size=(2000, 3, 3)).astype(float))
        for b_matrix in cases:
            assert is_regular(b_matrix) == spread_relative_is_regular(b_matrix), b_matrix

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("k", [-1000, -500, 500, 1000])
    def test_power_of_two_scale(self, k):
        rng = np.random.default_rng(31)
        g = complex_randn(rng, 3, 3)
        samples = [
            complex_randn(rng, 5, 5),
            np.eye(3, k=-1),
            np.eye(3),
            g @ np.diag([2.0, 2.0, 5.0]) @ np.linalg.inv(g),
            np.diag([1.0, 1.0 + 1e-15]),
            np.diag([1.0, 2.0, 3.0]),
        ]
        for b_matrix in samples:
            assert is_regular(2.0**k * b_matrix) == is_regular(b_matrix)
