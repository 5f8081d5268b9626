import sys
import warnings
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
    hessenberg_representative,
    reconstruct,
    ritz_values,
    s_coordinates,
    transpose_coords,
)
from ritzfiber import _kernels, numcore
from ritzfiber.fiber import require_generic
from ritzfiber.numcore import COINCIDE_REL, EIG_REL, as_complex_matrix

X0 = np.array([[0, 1], [1, 0]], dtype=complex)
XS = np.array([[0, 0.5], [2, 0]], dtype=complex)
A3 = np.array([[1, 2, 0], [3, -1, 1], [0, 2, 4]], dtype=complex)


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

    def test_empty_matrix_is_a_value_error(self):
        with pytest.raises(ValueError, match="non-empty"):
            diagonalizer(np.zeros((0, 0)))

    def test_vanishing_last_entry_is_genericity_violation(self):
        # E(x_1) = {1} is shared with E(x_2), so the eigenvector for 1 ends in 0
        x = np.diag([1.0, 2.0]).astype(complex)
        with pytest.raises(GenericityError):
            diagonalizer(x)

    def test_non_eigenvalue_fails_residual_bound(self, monkeypatch):
        monkeypatch.setattr(_kernels, "eig", shifted_eig(0.5))
        with pytest.raises(NumericalError, match="residual"):
            diagonalizer(X0)

    @pytest.mark.parametrize("k", [-1000, 1000])
    def test_residual_gate_holds_at_extreme_scales(self, k, monkeypatch):
        # the same shift, scaled with x; on x as given, the gate's norms
        # would under- or overflow and read 0 <= 0 or inf <= inf
        monkeypatch.setattr(_kernels, "eig", shifted_eig(np.ldexp(0.5, k)))
        with pytest.raises(NumericalError, match="residual"):
            diagonalizer(np.ldexp(X0.real, k))
        with pytest.raises(NumericalError, match="residual"):
            extract_coords(np.ldexp(XS.real, k))


def shifted_eig(shift):
    """_kernels.eig with every eigenvalue moved by shift."""
    eig = _kernels.eig

    def shifted(x):
        lam, vecs = eig(x)
        return lam + shift, vecs

    return shifted


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


def _last_row_ones_by_norms(xm, lam, vecs):
    """The per-level check before LAPACK's unit column norms were relied on:
    the last-entry cut relative to each column's norm, and the residual gate
    on x_m as given."""
    last = vecs[-1]
    small = np.abs(last) < COINCIDE_REL * np.linalg.norm(vecs, axis=0)
    if np.any(small):
        raise GenericityError(
            "eigenvector has (numerically) vanishing last entry: the leading "
            f"submatrix of order {len(lam) - 1} shares the eigenvalue {lam[small][0]}"
        )
    g = vecs / last
    g[-1] = 1.0
    residual = np.linalg.norm(xm @ g - g * lam)
    if residual > EIG_REL * np.linalg.norm(xm) * np.linalg.norm(g):
        raise NumericalError(
            f"eigenpair residual {residual:.3e} exceeds {EIG_REL:.1e} * ||x|| * ||g||"
        )
    return g


def extract_by_levels(x):
    """extract_coords as a plain per-level loop that re-validates every
    intermediate through the public constructors: the reference for the
    validate-once extraction."""
    x = as_complex_matrix(x)
    n = x.shape[0]
    eigs = []
    for m in range(1, n):
        lam, vecs = _kernels.eig(x[:m, :m])
        order = np.lexsort((lam.imag, lam.real))
        eigs.append((lam[order], vecs[:, order]))
    r = RitzData([lam for lam, _ in eigs] + [eigenvalues(x)])
    require_generic(r)
    b_list = []
    c_list = []
    for m, (lam, vecs) in enumerate(eigs, start=1):
        g = _last_row_ones_by_norms(x[:m, :m], lam, vecs)
        b_list.append(x[m, :m] @ g)
        c_list.append(np.linalg.solve(g, x[:m, m]))
    return FiberCoords(r, b_list), c_list


def outcome(f, x):
    """``("ok", value)`` or ``(exception type, message)`` of f(x)."""
    try:
        return "ok", f(x)
    except Exception as exc:
        return type(exc), str(exc)


def lapack_failure(x):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def vanishing_last_entry(x, eig=np.linalg.eig):
    # from level 2 on, the first eigenvector ends in an exact 0
    lam, vecs = eig(x)
    if len(lam) > 1:
        vecs[-1, 0] = 0.0
    return lam, vecs


class TestExtractMatchesLevelLoop:
    @pytest.mark.parametrize("n", range(1, 17))
    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    def test_bit_identical(self, n, real):
        rng = np.random.default_rng(300 + n)
        x = rng.standard_normal((n, n)) if real else complex_randn(rng, n, n)
        got = extract_coords(x)
        want, want_c = extract_by_levels(x)
        assert all(np.array_equal(a, b)
                   for a, b in zip(got.coords.ritz.levels, want.ritz.levels, strict=True))
        assert all(np.array_equal(a, b) for a, b in zip(got.coords.b, want.b, strict=True))
        assert all(np.array_equal(a, b) for a, b in zip(got.c, want_c, strict=True))
        arrays = got.coords.ritz.levels + got.coords.b + got.c
        assert not any(np.shares_memory(a, x) for a in arrays)

    @pytest.mark.parametrize("x, owner, solver, patch", [
        (np.eye(2), None, None, None),
        (np.diag([1.0, 2.0, 3.0]), None, None, None),  # the gate runs before rescaling
        (complex_randn(np.random.default_rng(7), 4, 4), np.linalg, "eig", vanishing_last_entry),
        (X0, _kernels, "eig", shifted_eig(0.5)),
        (X0, np.linalg, "eig", lapack_failure),
        (X0, np.linalg, "eigvals", lapack_failure),
        (np.full((2, 2), 1e308), None, None, None),
        (np.zeros((0, 0)), None, None, None),
    ], ids=["identity", "diag123", "last-entry", "residual", "eig-fails",
            "eigvals-fails", "overflow", "empty"])
    def test_same_errors(self, x, owner, solver, patch, monkeypatch):
        if patch is not None:
            monkeypatch.setattr(owner, solver, patch)
        got = outcome(extract_coords, x)
        want = outcome(extract_by_levels, x)
        assert got[0] != "ok" and got == want

    def test_overflowing_b_is_a_numerical_error(self):
        # the gate passes, but g_2 has entries near 1e4 and b_2 = x[2, :2] g_2
        # overflows; the per-level loop raised ValueError from FiberCoords
        x = 1e305 * np.array([[1, 1, 1], [1e-4, 2, 1], [1, 1, 3]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="overflow"):
                extract_coords(x)

    @pytest.mark.parametrize("k", [-1000, -500, 500, 900, 1000])
    def test_scale_equivariant(self, k):
        x = random_generic_matrix(np.random.default_rng(31), 5, normalized=True)
        want = extract_coords(x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = extract_coords(np.ldexp(x.real, k) + 1j * np.ldexp(x.imag, k))
        pairs = [
            *zip(got.coords.ritz.levels, want.coords.ritz.levels),
            *zip(got.coords.b, want.coords.b),
            *zip(got.c, want.c),
        ]
        for a, b in pairs:
            a = np.ldexp(a.real, -k) + 1j * np.ldexp(a.imag, -k)
            assert np.linalg.norm(a - b) <= 1e-13 * np.linalg.norm(b)

    def test_validates_once(self, monkeypatch):
        x = random_generic_matrix(np.random.default_rng(32), 6)
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        original = numcore.as_complex_matrix
        for name, module in list(sys.modules.items()):
            if name.startswith("ritzfiber") and getattr(module, "as_complex_matrix", None) is original:
                monkeypatch.setattr(module, "as_complex_matrix",
                                    counted("as_complex_matrix", original))
        for cls in (RitzData, FiberCoords):
            monkeypatch.setattr(cls, "__post_init__",
                                counted(cls.__name__, cls.__post_init__))
        extract_coords(x)
        assert calls == Counter(as_complex_matrix=1)


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

    @pytest.mark.parametrize("scale", [1e150, 1e-150])
    def test_ritz_products_out_of_range_raise(self, scale):
        # Sigma_2 of these levels overflows at 1e150 and underflows at 1e-150
        fc = extract_coords(scale * A3).coords
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="Ritz product"):
                reconstruct(fc)


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

    def test_overflowing_ritz_products_raise(self):
        fc = extract_coords(1e150 * A3).coords
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="Ritz product"):
                transpose_coords(fc)

    def test_underflowing_ritz_products_raise(self):
        # Sigma_2 underflows to 0, and b~_2 came out as [0, 0] where the
        # answer is 1e-150 * [1, 1]
        fc = extract_coords(1e-150 * A3).coords
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="Ritz product"):
                transpose_coords(fc)

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


@pytest.mark.parametrize("op", [transpose_coords, diagonal_similarity_coords])
def test_new_coords_own_their_levels(op):
    fc = random_fiber_coords(np.random.default_rng(2), 3)
    new = op(fc) if op is transpose_coords else op(fc, np.ones(3))
    for got, want in zip(new.ritz.levels, fc.ritz.levels):
        assert np.array_equal(got, want) and not np.shares_memory(got, want)


def scaled(a, k):
    """a * 2^k entrywise (k may be an array), exact barring under- and overflow."""
    return np.ldexp(a.real, k) + 1j * np.ldexp(a.imag, k)


@pytest.mark.parametrize("op", ["transpose", "hessenberg"])
def test_power_of_two_scale_sweep(op):
    # x -> 2^k x scales the Ritz values, b and the transposed b by 2^k, and
    # entry (i, j) of the Hessenberg representative by 2^(k (1 + j - i)).  At
    # every k the answer is that, or NumericalError.  Outside about |k| <= 204
    # the Ritz products of level 4 leave the float range; at k = -230 both
    # maps returned zeros in place of representable entries
    x = random_generic_matrix(np.random.default_rng(3), 5, normalized=True)
    fc = extract_coords(x).coords
    if op == "transpose":
        def run(f):
            return transpose_coords(f).b
        degrees = [1] * 4
    else:
        def run(f):
            return [hessenberg_representative(f.ritz)]
        i, j = np.indices((5, 5))
        degrees = [1 + j - i]
    want = run(fc)
    answered = []
    for k in range(-300, 301):
        levels = [scaled(lev, k) for lev in fc.ritz.levels]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                got = run(FiberCoords(RitzData(levels), [scaled(b, k) for b in fc.b]))
            except NumericalError:
                continue
        answered.append(k)
        for g, w, degree in zip(got, want, degrees):
            err = np.max(np.abs(scaled(g, -k * degree) - w))
            assert err <= 1e-12 * np.max(np.abs(w)), f"k = {k}: error {err:.2e}"
    # the range check refuses only where the products leave the float range
    assert answered == list(range(answered[0], answered[-1] + 1))
    assert answered[0] <= -200 and answered[-1] >= 200


@pytest.mark.parametrize("op", [reconstruct, transpose_coords])
def test_gate_runs_before_range_check(op):
    # (G2_1) fails, and every Ritz product of levels 1 and 2 underflows
    levels = [[0.0], [0.0, 1e-160], [-1e-160, 2e-160, 3e-160]]
    fc = FiberCoords(RitzData(levels), [[1e-160], [1e-160, 1e-160]])
    with pytest.raises(GenericityError, match="G2_1"):
        op(fc)
