import contextlib
import io
import json
import re
import sys
import warnings

import numpy as np
import pytest
from helpers import random_generic_matrix
from hypothesis import given, settings
from hypothesis import strategies as st

from ritzfiber import extract_coords, ritz_values
from ritzfiber.cli import coords_doc, matrix_doc, parse_coords_doc, parse_matrix_doc, run

X0_DOC = {"n": 2, "entries": [[0, 1], [1, 0]]}
BIG2_DOC = {"n": 2, "entries": [[1e308, 1e308], [1e308, 1e308]]}
BIG3_DOC = {"n": 3, "entries": [[1e300] * 3] * 3}
A3 = np.array([[1, 2, 0], [3, -1, 1], [0, 2, 4]], dtype=complex)
# Ritz values of 2^-230 x for a Gaussian x of spectral radius about 1, n = 5:
# generic, but the Ritz products of level 4 underflow
TINY5 = random_generic_matrix(np.random.default_rng(3), 5, normalized=True)
TINY5_RITZ = [
    [[v.real, v.imag] for v in 2.0**-230 * lev]
    for lev in ritz_values(TINY5).levels
]


def run_without_warnings(capsys, argv):
    """run_json with every warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return run_json(capsys, argv)


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    return code, (json.loads(out.out) if out.out.strip() else None), out.err


class TestRitz:
    def test_swap_matrix(self, tmp_path, capsys):
        path = write_doc(tmp_path, "x.json", X0_DOC)
        code, doc, _ = run_json(capsys, ["ritz", "--input", path])
        assert code == 0
        assert np.allclose(doc["ritz"][0], [[0, 0]])
        assert np.allclose(doc["ritz"][1], [[-1, 0], [1, 0]])

    def test_output_file(self, tmp_path):
        path = write_doc(tmp_path, "x.json", X0_DOC)
        out = tmp_path / "r.json"
        assert run(["ritz", "--input", path, "--output", str(out)]) == 0
        assert "ritz" in json.loads(out.read_text())


class TestCheck:
    def test_report_fields(self, tmp_path, capsys):
        path = write_doc(tmp_path, "x.json", X0_DOC)
        code, doc, _ = run_json(capsys, ["check", "--input", path])
        assert code == 0
        assert doc["generic"] is True
        assert doc["strongly_regular"] is True
        assert doc["g1"] == [True, True] and doc["g2"] == [True]

    def test_identity_not_generic(self, tmp_path, capsys):
        path = write_doc(tmp_path, "i.json", {"n": 2, "entries": [[1, 0], [0, 1]]})
        code, doc, _ = run_json(capsys, ["check", "--input", path])
        assert code == 0 and doc["generic"] is False

    def test_overflowing_powers_map_to_4(self, tmp_path, capsys):
        # x_3^2 has entries of order 1e400
        doc = {"n": 3, "entries": [[1e200, 1, 0], [1, 2e200, 1], [0, 1, -1e200]]}
        path = write_doc(tmp_path, "x.json", doc)
        code, out, err = run_without_warnings(capsys, ["check", "--input", path])
        assert code == 4 and out is None
        assert err.startswith("error:") and "Warning" not in err


class TestHess:
    def test_from_ritz_doc(self, tmp_path, capsys):
        path = write_doc(tmp_path, "r.json", {"ritz": [[0], [-1, 1]]})
        code, doc, _ = run_json(capsys, ["hess", "--input", path])
        assert code == 0
        x = parse_matrix_doc(doc)
        np.testing.assert_allclose(x, [[0, 1], [1, 0]], atol=1e-12)

    def test_overflowing_charpoly_maps_to_4(self, tmp_path, capsys):
        # P_2 has the constant coefficient -1e600
        doc = {"ritz": [[1e300], [1e300, -1e300], [1e300, 2e300, 3e300]]}
        path = write_doc(tmp_path, "r.json", doc)
        code, out, err = run_without_warnings(capsys, ["hess", "--input", path])
        assert code == 4 and out is None
        assert err.startswith("error:") and "Warning" not in err

    @pytest.mark.parametrize("ritz", [
        # not generic, so the recurrence: its characteristic polynomials are
        # finite, but (l - d_4) P_3 is not
        [[1e100], [1e100, -1e100], [1e100, 2e100, 3e100], [1, 2, 3, 1e102]],
        # generic, so the closed form: Sigma_1 = 2e400
        [[1e200], [0, 3e200]],
        # a difference of two Ritz values overflows
        [[1e308], [0, -1e308]],
        # generic, but its Ritz products underflow: column 4 came out as
        # zeros where the exact entries are near 1e-209
        TINY5_RITZ,
    ])
    def test_overflowing_representative_maps_to_4(self, ritz, tmp_path, capsys):
        path = write_doc(tmp_path, "r.json", {"ritz": ritz})
        code, out, err = run_without_warnings(capsys, ["hess", "--input", path])
        assert code == 4 and out is None
        assert err.startswith("error:") and "Warning" not in err


class TestCoordsReconstruct:
    def test_reconstruct_example(self, tmp_path, capsys):
        doc = {"ritz": [[[0, 0]], [[-1, 0], [1, 0]]], "b": [[[1, 0]]]}
        path = write_doc(tmp_path, "c.json", doc)
        code, out, _ = run_json(capsys, ["reconstruct", "--input", path])
        assert code == 0
        np.testing.assert_allclose(parse_matrix_doc(out), [[0, 1], [1, 0]], atol=1e-12)

    def test_identity_exits_3_naming_condition(self, tmp_path, capsys):
        path = write_doc(tmp_path, "i.json", {"n": 2, "entries": [[1, 0], [0, 1]]})
        code, _, err = run_json(capsys, ["coords", "--input", path])
        assert code == 3
        assert "(G2_1)" in err

    @pytest.mark.parametrize("scale", [1e150, 1e-150])
    def test_out_of_range_ritz_products_map_to_4(self, scale, tmp_path, capsys):
        # Sigma_2 of these levels overflows at 1e150 and underflows at 1e-150
        path = write_doc(tmp_path, "c.json", coords_doc(extract_coords(scale * A3).coords))
        code, out, err = run_without_warnings(capsys, ["reconstruct", "--input", path])
        assert code == 4 and out is None
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "Warning" not in err

    def test_huge_matrix_has_coords_without_warning(self, tmp_path, capsys):
        path = write_doc(tmp_path, "x.json", matrix_doc(1e300 * A3))
        code, doc, err = run_without_warnings(capsys, ["coords", "--input", path])
        assert code == 0 and err == ""
        assert len(doc["b"]) == 2

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_pipe_identity(self, n, tmp_path, capsys):
        rng = np.random.default_rng(n)
        x = random_generic_matrix(rng, n)
        path = write_doc(tmp_path, "x.json", matrix_doc(x))
        mid = str(tmp_path / "coords.json")
        assert run(["coords", "--input", path, "--output", mid]) == 0
        code, doc, _ = run_json(capsys, ["reconstruct", "--input", mid])
        assert code == 0
        x2 = parse_matrix_doc(doc)
        assert np.max(np.abs(x2 - x)) < 1e-7 * np.linalg.norm(x)

    def test_seventeen_digit_round_trip(self, tmp_path, capsys):
        x = np.array([[1 / 3, 1.0], [1.0, -1 / 7]], dtype=complex)
        path = write_doc(tmp_path, "x.json", matrix_doc(x))
        code, doc, _ = run_json(capsys, ["ritz", "--input", path])
        assert code == 0
        # the document itself reparses bit-faithfully
        again = parse_matrix_doc(json.loads(json.dumps(matrix_doc(x))))
        assert np.array_equal(again, x)
        # and the emitted Ritz values carry exactly the bits computed
        emitted = [np.array([complex(*v) for v in lev]) for lev in doc["ritz"]]
        assert all(map(np.array_equal, emitted, ritz_values(x).levels))


class TestFlow:
    def test_trace_flow(self, tmp_path, capsys):
        path = write_doc(tmp_path, "x.json", X0_DOC)
        code, doc, _ = run_json(
            capsys, ["flow", "--input", path, "--m", "1", "--k", "1", "--q", "0.5"]
        )
        assert code == 0
        y = parse_matrix_doc(doc)
        np.testing.assert_allclose(
            y, [[0, np.exp(-0.5)], [np.exp(0.5), 0]], atol=1e-12
        )
        assert doc["conservation"]["max_ritz_drift"] < 1e-9

    def test_slot_flow(self, tmp_path, capsys):
        path = write_doc(tmp_path, "x.json", X0_DOC)
        code, doc, _ = run_json(
            capsys, ["flow", "--input", path, "--j", "1", "--q", "1+0.5j"]
        )
        assert code == 0
        y = parse_matrix_doc(doc)
        np.testing.assert_allclose(y[1, 0], np.exp(-(1 + 0.5j)), atol=1e-12)

    @pytest.mark.parametrize(
        "flags", [["--m", "1", "--k", "1", "--q", "800"], ["--j", "2", "--q", "800"]]
    )
    def test_overflow_maps_to_4(self, flags, tmp_path, capsys):
        doc = {"n": 3, "entries": [[1, 2, 3], [4, 5, 6], [7, 8, 10]]}
        path = write_doc(tmp_path, "x.json", doc)
        code, out, err = run_without_warnings(capsys, ["flow", "--input", path, *flags])
        assert code == 4 and out is None
        assert err.startswith("error:") and err.count("error:") == 1

    @pytest.mark.parametrize("q", ["nan", "inf"])
    def test_non_finite_time_is_usage_error(self, q, tmp_path, capsys):
        path = write_doc(tmp_path, "x.json", X0_DOC)
        code, out, err = run_json(capsys, ["flow", "--input", path, "--j", "1", "--q", q])
        assert code == 2 and out is None and "not finite" in err

    def test_conflicting_flags(self, tmp_path, capsys):
        path = write_doc(tmp_path, "x.json", X0_DOC)
        code, _, err = run_json(
            capsys, ["flow", "--input", path, "--m", "1", "--j", "1", "--q", "1"]
        )
        assert code == 2


class TestConj:
    def test_transpose(self, tmp_path, capsys):
        doc = {"ritz": [[[0, 0]], [[-1, 0], [1, 0]]], "b": [[[2, 0]]]}
        path = write_doc(tmp_path, "c.json", doc)
        code, out, _ = run_json(capsys, ["conj", "--input", path, "--transpose"])
        assert code == 0
        fc = parse_coords_doc(out)
        np.testing.assert_allclose(fc.b[0], [0.5], atol=1e-12)
        assert out["verification_residual"] < 1e-9

    def test_diag(self, tmp_path, capsys):
        doc = {"ritz": [[[0, 0]], [[-1, 0], [1, 0]]], "b": [[[1, 0]]]}
        path = write_doc(tmp_path, "c.json", doc)
        code, out, _ = run_json(capsys, ["conj", "--input", path, "--diag", "1,2"])
        assert code == 0
        fc = parse_coords_doc(out)
        np.testing.assert_allclose(fc.b[0], [2.0], atol=1e-12)
        assert out["verification_residual"] < 1e-9


class TestControl:
    def doc(self):
        # bordered system: B = (0), b = (1), c = (1), delta = 0
        return {"n": 2, "entries": [[0, 1], [1, 0]]}

    def test_row(self, tmp_path, capsys):
        path = write_doc(tmp_path, "s.json", self.doc())
        code, out, _ = run_json(capsys, ["control", "--input", path, "--row"])
        assert code == 0 and out["observable"] is True

    def test_col(self, tmp_path, capsys):
        path = write_doc(tmp_path, "s.json", self.doc())
        code, out, _ = run_json(capsys, ["control", "--input", path, "--col"])
        assert code == 0 and out["controllable"] is True

    def test_regular(self, tmp_path, capsys):
        path = write_doc(tmp_path, "s.json", self.doc())
        code, out, _ = run_json(capsys, ["control", "--input", path, "--regular"])
        assert code == 0 and out["regular"] is True

    def test_complete(self, tmp_path, capsys):
        path = write_doc(tmp_path, "s.json", self.doc())
        code, out, _ = run_json(
            capsys, ["control", "--input", path, "--complete=-1,0"]
        )
        assert code == 0
        np.testing.assert_allclose(out["completion"], [[1.0, 0.0]], atol=1e-12)

    def test_unobservable_completion_is_usage_error(self, tmp_path, capsys):
        doc = {
            "n": 3,
            "entries": [[1, 0, 0], [0, 2, 0], [1, 0, 0]],  # b = (1, 0): unobservable
        }
        path = write_doc(tmp_path, "s.json", doc)
        code, _, err = run_json(
            capsys, ["control", "--input", path, "--complete", "1,2,3"]
        )
        assert code == 2 and "observable" in err

    @pytest.mark.parametrize(
        "doc, flag",
        [
            (BIG3_DOC, "--row"),
            (BIG3_DOC, "--col"),
            (BIG3_DOC, "--complete=1,2,3"),
            (BIG2_DOC, "--complete=1,2"),
        ],
        ids=["row", "col", "complete", "complete-m1"],
    )
    def test_overflow_maps_to_4(self, doc, flag, tmp_path, capsys):
        path = write_doc(tmp_path, "s.json", doc)
        code, out, err = run_without_warnings(capsys, ["control", "--input", path, flag])
        assert code == 4 and out is None
        assert err.startswith("error:") and err.count("error:") == 1

    @pytest.mark.parametrize("flag, key", [("--row", "observable"), ("--col", "controllable")])
    def test_representable_krylov_matrix(self, flag, key, tmp_path, capsys):
        # m = 1: the Krylov matrix is (1e308), finite and of full rank
        path = write_doc(tmp_path, "s.json", BIG2_DOC)
        code, out, err = run_without_warnings(capsys, ["control", "--input", path, flag])
        assert code == 0 and out == {key: True} and err == ""


class TestPoisson:
    def test_n3_certificate(self, capsys):
        code, doc, _ = run_json(capsys, ["poisson", "--n", "3"])
        assert code == 0
        assert doc["all_commute"] is True
        assert len(doc["pairs"]) == 15
        assert all(p["zero"] for p in doc["pairs"])


class TestExitCodes:
    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        code, _, err = run_json(capsys, ["ritz", "--input", str(path)])
        assert code == 2 and err

    def test_missing_file(self, capsys):
        code, _, err = run_json(capsys, ["ritz", "--input", "/nonexistent.json"])
        assert code == 2

    def test_non_square(self, tmp_path, capsys):
        path = write_doc(tmp_path, "x.json", {"n": 2, "entries": [[1, 2, 3], [4, 5, 6]]})
        code, _, _ = run_json(capsys, ["ritz", "--input", path])
        assert code == 2

    @pytest.mark.parametrize(
        "doc", [{"n": 2, "entries": [[True, 0], [0, 2]]}, {"n": True, "entries": [[5]]}]
    )
    def test_boolean_is_not_a_number(self, doc, tmp_path, capsys):
        path = write_doc(tmp_path, "x.json", doc)
        code, out, err = run_json(capsys, ["ritz", "--input", path])
        assert code == 2 and out is None and err.startswith("error:")

    def test_deeply_nested_json(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000, encoding="utf-8")
        code, out, err = run_json(capsys, ["ritz", "--input", str(path)])
        assert code == 2 and out is None
        assert err.startswith("error:") and "Traceback" not in err

    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_tolerance_flag_is_rejected(self, tmp_path, capsys):
        path = write_doc(tmp_path, "x.json", X0_DOC)
        code, out, err = run_json(capsys, ["ritz", "--input", path, "--tol-eig", "1e-3"])
        assert code == 2 and out is None and "--tol-eig" in err

    def test_numerical_failure_maps_to_4(self, tmp_path, capsys, monkeypatch):
        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", fail)
        path = write_doc(tmp_path, "x.json", X0_DOC)
        code, _, err = run_json(capsys, ["ritz", "--input", path])
        assert code == 4

    def test_overflowing_spectrum_maps_to_4(self, tmp_path, capsys):
        # the level-2 spectrum {0, 2e308} is not representable
        path = write_doc(tmp_path, "x.json", BIG2_DOC)
        code, out, err = run_without_warnings(capsys, ["ritz", "--input", path])
        assert code == 4 and out is None
        assert err.startswith("error:") and "Traceback" not in err

    def test_outputs_reparse(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        x = random_generic_matrix(rng, 3)
        path = write_doc(tmp_path, "x.json", matrix_doc(x))
        code, doc, _ = run_json(capsys, ["coords", "--input", path])
        assert code == 0
        fc = parse_coords_doc(doc)  # schema round trip
        assert fc.ritz.n == 3


# ---------------------------------------------------------------------------
# fuzzing: every subcommand on malformed, truncated, mis-shaped and
# non-finite input exits with a documented code and never a traceback
# ---------------------------------------------------------------------------

MATRIX_DOCS = [
    {"n": 3, "entries": [[1, 2, 0], [0.5, -1, [1, 2]], [3, 0, 2]]},
    {"n": 2, "entries": [[1, 0], [0, 1]]},
    {"n": 2, "entries": [[1e308, 1e308], [1e308, 1e308]]},
]
RITZ_DOCS = [{"ritz": [[0], [-1, 1]]}]
COORDS_DOCS = [{"ritz": [[[0, 0]], [[-1, 0], [1, 0]]], "b": [[[1, 0]]]}]
SAMPLE_DOCS = {"hess": RITZ_DOCS, "reconstruct": COORDS_DOCS, "conj": COORDS_DOCS}
# JSON tokens Python's parser accepts but no document may carry, and tokens
# of the wrong type
BAD_TOKENS = ["NaN", "Infinity", "-Infinity", "1e999", "true", "null", '"x"', "[]", "{}"]
JSON_TREES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(min_value=-3, max_value=3),
              st.floats(), st.sampled_from(["x", ""])),
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.dictionaries(st.sampled_from(["n", "entries", "ritz", "b"]), kids, max_size=4),
    ),
    max_leaves=12,
)


@st.composite
def documents(draw, command):
    """JSON text: a random tree, or a sample document of the kind command
    reads, as it is, truncated or with one number replaced by a bad token."""
    kind = draw(st.sampled_from(["tree", "sample", "truncated", "token"]))
    if kind == "tree":
        return json.dumps(draw(JSON_TREES))
    text = json.dumps(draw(st.sampled_from(SAMPLE_DOCS.get(command, MATRIX_DOCS))))
    if kind == "sample":
        return text
    if kind == "truncated":
        return text[: draw(st.integers(min_value=0, max_value=len(text)))]
    number = draw(st.sampled_from(list(re.finditer(r"-?[0-9.]+", text))))
    return text[: number.start()] + draw(st.sampled_from(BAD_TOKENS)) + text[number.end():]


SMALL = st.sampled_from(["-1", "0", "1", "2", "3"])
TOKENS = st.one_of(
    st.sampled_from(["0.3", "1e-9", "1+2j", "2"]),
    st.sampled_from(["-1", "0", "nan", "inf", "-inf", "1e999", "abc", ""]),
)
TOKEN_LISTS = st.lists(TOKENS, min_size=1, max_size=4).map(",".join)
SUBCOMMAND_FLAGS = {
    "ritz": st.just([]),
    "check": st.just([]),
    "hess": st.just([]),
    "coords": st.just([]),
    "reconstruct": st.just([]),
    "flow": st.one_of(
        st.builds(lambda m, k, q: ["--m", m, "--k", k, "--q", q], SMALL, SMALL, TOKENS),
        st.builds(lambda j, q: ["--j", j, "--q", q], SMALL, TOKENS),
    ),
    "conj": st.one_of(st.just(["--transpose"]), TOKEN_LISTS.map(lambda d: ["--diag", d])),
    "control": st.one_of(
        st.sampled_from([["--row"], ["--col"], ["--regular"]]),
        TOKEN_LISTS.map(lambda c: ["--complete", c]),
    ),
    "poisson": st.sampled_from(["0", "-1", "1", "2", "3"]).map(lambda n: ["--n", n]),
}


@st.composite
def invocations(draw):
    """(argv, stdin text) of one call."""
    command = draw(st.sampled_from(sorted(SUBCOMMAND_FLAGS)))
    argv = [command] + draw(SUBCOMMAND_FLAGS[command])
    return argv, draw(documents(command))


def run_captured(argv, stdin_text):
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(call=invocations())
def test_fuzz_exit_codes(call):
    code, _, err = run_captured(*call)
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err
