"""Command-line surface of the package.

Documents are UTF-8 JSON.  A matrix document has keys ``n`` and ``entries``
(n rows of n entries, each a real number or an [re, im] pair); a coordinates
document has keys ``ritz`` (levels 1..n of [re, im] pairs, ordering
significant) and ``b`` (vectors of lengths 1..n-1).  Numbers are printed as
Python's shortest round-tripping float repr, so documents re-parse
bit-faithfully.

Exit codes: 0 success, 2 argument/parse error, 3 genericity violation,
4 numerical failure.
"""

import argparse
import json
import sys

import numpy as np

from . import control as control_mod
from .coords import (
    FiberCoords,
    diagonal_similarity_coords,
    extract_coords,
    reconstruct,
    transpose_coords,
)
from .errors import GenericityError, NumericalError, RitzFiberError
from .fiber import (
    RitzData,
    genericity_report,
    hessenberg_representative,
    ritz_values,
    strong_regularity_check,
)
from .gzflow import (
    FlowParam,
    commutativity_certificate,
    eigen_flow,
    gz_flow,
    gz_generator_indices,
)
from .numcore import MonicPoly, as_complex_matrix, canonical_sort

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_GENERICITY = 3
EXIT_NUMERICAL = 4


# ---------------------------------------------------------------------------
# document parsing and emission
# ---------------------------------------------------------------------------


def _is_number(value):
    # bool is a subclass of int, but JSON true/false are not numbers
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _parse_complex(value, where):
    if _is_number(value):
        return complex(value)
    if isinstance(value, list) and len(value) == 2 and all(map(_is_number, value)):
        return complex(value[0], value[1])
    raise ValueError(f"{where}: expected a number or an [re, im] pair, got {value!r}")


def _pair(z):
    return [float(z.real), float(z.imag)]


def parse_matrix_doc(doc):
    if not isinstance(doc, dict) or "entries" not in doc:
        raise ValueError("matrix document must be an object with an 'entries' key")
    entries = doc["entries"]
    n = doc.get("n", len(entries))
    if not isinstance(entries, list) or not _is_number(n) or len(entries) != n:
        raise ValueError(f"matrix document must have n={n} rows")
    rows = []
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != n:
            raise ValueError(f"row {i + 1} must have {n} entries")
        rows.append([_parse_complex(v, f"entry ({i + 1},{j + 1})") for j, v in enumerate(row)])
    return as_complex_matrix(rows)


def matrix_doc(x, extra=None):
    doc = {
        "n": int(x.shape[0]),
        "entries": [[_pair(v) for v in row] for row in x],
    }
    if extra:
        doc.update(extra)
    return doc


def parse_ritz_doc(doc):
    if not isinstance(doc, dict) or "ritz" not in doc:
        raise ValueError("document must carry a 'ritz' key (levels 1..n)")
    levels = doc["ritz"]
    if not isinstance(levels, list) or not levels:
        raise ValueError("'ritz' must be a non-empty array of levels")
    parsed = [
        [_parse_complex(v, f"ritz level {m + 1}") for v in lev]
        for m, lev in enumerate(levels)
    ]
    return RitzData(parsed)


def parse_coords_doc(doc):
    r = parse_ritz_doc(doc)
    if "b" not in doc:
        raise ValueError("coordinates document must carry a 'b' key")
    b = [
        [_parse_complex(v, f"b_{m + 1}") for v in vec]
        for m, vec in enumerate(doc["b"])
    ]
    return FiberCoords(r, b)


def coords_doc(fc, extra=None):
    doc = {
        "ritz": [[_pair(v) for v in lev] for lev in fc.ritz.levels],
        "b": [[_pair(v) for v in vec] for vec in fc.b],
    }
    if extra:
        doc.update(extra)
    return doc


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _common_flags(p):
    p.add_argument("--input", metavar="FILE", help="input document (default: stdin)")
    p.add_argument("--output", metavar="FILE", help="output document (default: stdout)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ritzfiber",
        description="Ritz-value fibre coordinates, flows, and completion diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ritz", help="Ritz values of a matrix document")
    _common_flags(p)

    p = sub.add_parser("check", help="genericity report and strong-regularity flag")
    _common_flags(p)

    p = sub.add_parser("hess", help="unit upper Hessenberg representative of a ritz document")
    _common_flags(p)

    p = sub.add_parser("coords", help="fibre coordinates of a matrix document")
    _common_flags(p)

    p = sub.add_parser("reconstruct", help="matrix from a coordinates document")
    _common_flags(p)

    p = sub.add_parser("flow", help="apply a trace flow (--m --k --q) or slot flow (--j --q)")
    _common_flags(p)
    p.add_argument("--m", type=int, help="level of the trace flow")
    p.add_argument("--k", type=int, help="power of the trace flow")
    p.add_argument("--j", type=int, help="flat slot index of the per-eigenvalue flow")
    p.add_argument("--q", required=True, help="complex flow time, e.g. '0.3' or '1+2j'")

    p = sub.add_parser("conj", help="transform coordinates under an elementary conjugation")
    _common_flags(p)
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--transpose", action="store_true", help="coordinates of the transpose")
    grp.add_argument("--diag", metavar="D1,D2,...", help="coordinates of d x d^-1")

    p = sub.add_parser("control", help="diagnostics of a bordered (m+1) system document")
    _common_flags(p)
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--row", action="store_true", help="observability of (B, b)")
    grp.add_argument("--col", action="store_true", help="controllability of (B, c)")
    grp.add_argument("--regular", action="store_true", help="regularity of B")
    grp.add_argument(
        "--complete",
        metavar="C0,C1,...,CM",
        help="solve for c: low-order coefficients of the monic target polynomial",
    )

    p = sub.add_parser("poisson", help="symbolic commutativity certificate of the trace generators")
    _common_flags(p)
    p.add_argument("--n", type=int, required=True, help="matrix size")
    return parser


def _read_doc(args):
    try:
        if args.input:
            with open(args.input, "r", encoding="utf-8") as fh:
                return json.load(fh)
        return json.load(sys.stdin)
    except RecursionError:
        raise ValueError("document is nested too deeply to parse") from None


def _write_doc(args, doc):
    text = json.dumps(doc, allow_nan=False) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_complex_token(token, what):
    try:
        z = complex(token)
    except ValueError:
        raise ValueError(f"{what}: cannot parse complex number from {token!r}") from None
    if not np.isfinite(z):
        raise ValueError(f"{what}: {token!r} is not finite")
    return z


def _ritz_drift(before, after):
    """Max canonical-sorted per-level difference between two Ritz data."""
    drift = 0.0
    for lev_a, lev_b in zip(before.levels, after.levels):
        drift = max(
            drift,
            float(np.max(np.abs(canonical_sort(lev_a) - canonical_sort(lev_b)))),
        )
    return drift


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_ritz(args):
    x = parse_matrix_doc(_read_doc(args))
    r = ritz_values(x)
    _write_doc(args, {"ritz": [[_pair(v) for v in lev] for lev in r.levels]})
    return EXIT_OK


def _cmd_check(args):
    x = parse_matrix_doc(_read_doc(args))
    rep = genericity_report(ritz_values(x))
    doc = {
        "g1": list(rep.g1),
        "g2": list(rep.g2),
        "generic": rep.generic,
        "ill_conditioned": rep.ill_conditioned,
        "strongly_regular": strong_regularity_check(x),
    }
    if rep.ill_conditioned:
        print("warning: ill-conditioned fibre (near-coincident Ritz values)", file=sys.stderr)
    _write_doc(args, doc)
    return EXIT_OK


def _cmd_hess(args):
    r = parse_ritz_doc(_read_doc(args))
    _write_doc(args, matrix_doc(hessenberg_representative(r)))
    return EXIT_OK


def _cmd_coords(args):
    x = parse_matrix_doc(_read_doc(args))
    res = extract_coords(x)
    _write_doc(args, coords_doc(res.coords))
    return EXIT_OK


def _cmd_reconstruct(args):
    fc = parse_coords_doc(_read_doc(args))
    _write_doc(args, matrix_doc(reconstruct(fc)))
    return EXIT_OK


def _cmd_flow(args):
    x = parse_matrix_doc(_read_doc(args))
    q = _parse_complex_token(args.q, "--q")
    use_trace = args.m is not None or args.k is not None
    use_slot = args.j is not None
    if use_trace == use_slot:
        raise ValueError("flow needs either --m and --k, or --j (not both)")
    if use_trace:
        if args.m is None or args.k is None:
            raise ValueError("trace flow needs both --m and --k")
        y = gz_flow(x, FlowParam(args.m, args.k, q))
    else:
        y = eigen_flow(x, args.j, q)
    before = ritz_values(x)
    after = ritz_values(y)
    drift = _ritz_drift(before, after)
    _write_doc(
        args,
        matrix_doc(y, extra={"conservation": {"max_ritz_drift": drift, "scale": before.scale()}}),
    )
    return EXIT_OK


def _cmd_conj(args):
    fc = parse_coords_doc(_read_doc(args))
    x = reconstruct(fc)
    if args.transpose:
        new_fc = transpose_coords(fc)
        target = x.T
    else:
        d = [_parse_complex_token(t, "--diag") for t in args.diag.split(",")]
        new_fc = diagonal_similarity_coords(fc, d)
        dv = np.asarray(d, dtype=np.complex128)
        target = (dv[:, None] * x) / dv[None, :]
    check = reconstruct(new_fc)
    residual = float(
        np.linalg.norm(check - target) / max(np.linalg.norm(target), 1e-300)
    )
    _write_doc(args, coords_doc(new_fc, extra={"verification_residual": residual}))
    return EXIT_OK


def _cmd_control(args):
    a = parse_matrix_doc(_read_doc(args))
    if a.shape[0] < 2:
        raise ValueError("control document must be a bordered matrix of order >= 2")
    m = a.shape[0] - 1
    sys_ = control_mod.SISOSystem(a[:m, :m], a[m, :m], a[:m, m], a[m, m])
    if args.row:
        doc = {"observable": control_mod.observable(sys_.b_matrix, sys_.row)}
    elif args.col:
        doc = {"controllable": control_mod.controllable(sys_.b_matrix, sys_.col)}
    elif args.regular:
        doc = {"regular": control_mod.is_regular(sys_.b_matrix)}
    else:
        coeffs = [_parse_complex_token(t, "--complete") for t in args.complete.split(",")]
        if len(coeffs) != m + 1:
            raise ValueError(
                f"--complete needs the {m + 1} low-order coefficients of a monic "
                f"degree-{m + 1} polynomial, got {len(coeffs)}"
            )
        target = MonicPoly(coeffs)
        c = control_mod.solve_unique_completion(sys_.b_matrix, sys_.row, target)
        delta = -target.coeffs[m] - np.trace(sys_.b_matrix)
        doc = {
            "completion": [_pair(v) for v in c],
            "delta": _pair(delta),
        }
    _write_doc(args, doc)
    return EXIT_OK


def _cmd_poisson(args):
    n = args.n
    if n < 1:
        raise ValueError("--n must be >= 1")
    pairs, all_commute = commutativity_certificate(n)
    doc = {
        "n": n,
        "generators": [list(mk) for mk in gz_generator_indices(n)],
        "pairs": [
            {"left": list(left), "right": list(right), "zero": terms == 0, "terms": terms}
            for left, right, terms in pairs
        ],
        "all_commute": all_commute,
    }
    _write_doc(args, doc)
    return EXIT_OK


_HANDLERS = {
    "ritz": _cmd_ritz,
    "check": _cmd_check,
    "hess": _cmd_hess,
    "coords": _cmd_coords,
    "reconstruct": _cmd_reconstruct,
    "flow": _cmd_flow,
    "conj": _cmd_conj,
    "control": _cmd_control,
    "poisson": _cmd_poisson,
}


def run(argv):
    """Execute one CLI invocation; returns the exit status."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the diagnostic
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except GenericityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GENERICITY
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (RitzFiberError, ValueError, KeyError, TypeError, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
