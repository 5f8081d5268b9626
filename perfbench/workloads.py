"""Seeded inputs, timed calls and oracles of the four benchmark workloads.

Each workload is an endless stream of ``Op``s drawn from one seeded
``numpy.random.Generator``.  Drawing an op (input generation, rejection
sampling) happens before its call is timed, and its ``check`` runs after, so
neither is measured.  The oracles use numpy alone, except for ``cli``, whose
output is compared with the same library call made in this process.
"""

import functools
import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

import ritzfiber as rf
from ritzfiber import cli as rf_cli
from ritzfiber import control

SIZES = (4, 8, 16)
# generic inputs keep every eigenvalue gap (within a level and between
# adjacent levels) above this share of the largest |Ritz value|; that is 100x
# the library's own ill-conditioning grey zone (1e3 * coincide_rel)
SEPARATION = 1e-3
MATRIX_TOL = 1e-7       # relative max error of a rebuilt matrix
SPECTRUM_TOL = 1e-8     # eigenvalue error over the Ritz scale
CLI_TOL = 1e-10         # subprocess output against the in-process result
POOL_PER_SIZE = 6       # fibre_ops: matrices per size extracted in set-up
# Completion solves an m x m Krylov system whose conditioning grows
# exponentially with m: on complex Gaussian inputs the library's rank test
# (rank_rel = 1e-10) declares 1/60 systems unobservable at m = 12, 42/60 at
# m = 14 and all at m = 15.  Levels stay at or below 10, where none fails.
COMPLETION_MAX_M = 10
CLI_N = 6
# poisson: (n, cap on k1 + k2 or None for every pair); 45 + 73 brackets
POISSON_SETS = ((4, None), (5, 5))
FIBRE_KINDS = (
    "reconstruct", "transpose", "diag_similarity", "hessenberg", "gz_flow", "completion",
)
CLI_KINDS = (
    "ritz", "check", "hess", "coords", "reconstruct", "flow_mk", "flow_j",
    "conj_transpose", "conj_diag", "control_complete", "poisson",
)


@dataclass
class Op:
    """One timed call and the oracle that judges its result.

    ``check(result)`` returns ``(error, ok)``.  ``inproc`` is set by the cli
    workload only: the same invocation through ``ritzfiber.cli.run`` in this
    process.  An op with ``counted=False`` is set-up work that counts toward
    the wall time of its pass but is not an op (poisson generator builds).
    ``opens_cycle`` marks the first op of a cycle, a run of ops that holds
    every size and kind of the workload once (a whole pass for poisson).
    """

    kind: str
    size: int
    call: Callable[[], Any]
    check: Callable[[Any], tuple]
    inproc: Optional[Callable[[], Any]] = None
    counted: bool = True
    opens_cycle: bool = False


# ---------------------------------------------------------------------------
# inputs and numpy oracles
# ---------------------------------------------------------------------------


def numpy_levels(x):
    """Eigenvalues of every leading principal submatrix of x."""
    return [np.linalg.eigvals(x[:m, :m]) for m in range(1, x.shape[0] + 1)]


def separation(x):
    """Smallest within-level or adjacent-level eigenvalue gap over the scale."""
    levels = numpy_levels(x)
    scale = max(float(np.max(np.abs(lev))) for lev in levels)
    gap = np.inf
    for m, lev in enumerate(levels, start=1):
        if m > 1:
            d = np.abs(lev[:, None] - lev[None, :])
            gap = min(gap, float(np.min(d[~np.eye(m, dtype=bool)])))
        if m < len(levels):
            gap = min(gap, float(np.min(np.abs(lev[:, None] - levels[m][None, :]))))
    return gap / scale


def draw_generic(rng, n):
    """Rejection-sampled complex Gaussian matrix with well-separated Ritz values."""
    while True:
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if separation(x) >= SEPARATION:
            return x


def rel_err(got, want):
    """Max entrywise error over the largest entry of ``want``."""
    got = np.asarray(got, dtype=np.complex128)
    want = np.asarray(want, dtype=np.complex128)
    if got.shape != want.shape:
        return np.inf
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def spectrum_err(got, want, scale):
    """Worst nearest-neighbour distance from ``got`` to ``want`` over ``scale``;
    infinite unless the nearest neighbours pair the two lists one to one."""
    got = np.asarray(got, dtype=np.complex128)
    want = np.asarray(want, dtype=np.complex128)
    if got.shape != want.shape:
        return np.inf
    d = np.abs(got[:, None] - want[None, :])
    nearest = np.argmin(d, axis=1)
    if len(set(nearest.tolist())) != len(want):
        return np.inf
    return float(np.max(d[np.arange(len(got)), nearest]) / scale)


def levels_err(got_levels, x):
    """Worst level-by-level spectrum error of ``got_levels`` against x's."""
    want = numpy_levels(x)
    scale = max(float(np.max(np.abs(lev))) for lev in want)
    return max(spectrum_err(g, w, scale) for g, w in zip(got_levels, want))


def _opening(op, first):
    op.opens_cycle = first
    return op


def _matrix_check(want):
    def check(got):
        err = rel_err(got, want)
        return err, err <= MATRIX_TOL
    return check


# ---------------------------------------------------------------------------
# roundtrip: matrix -> (ritz, b) -> matrix
# ---------------------------------------------------------------------------


def roundtrip_ops(rng):
    while True:
        for i, n in enumerate(rng.permutation(SIZES)):
            yield _opening(_roundtrip_op(draw_generic(rng, int(n))), i == 0)


def _roundtrip_op(x):
    def call():
        coords = rf.extract_coords(x).coords
        return coords, rf.reconstruct(coords)

    def check(result):
        coords, rebuilt = result
        matrix = rel_err(rebuilt, x)
        ritz = levels_err(coords.ritz.levels, x)
        return max(matrix, ritz), matrix <= MATRIX_TOL and ritz <= SPECTRUM_TOL

    return Op("roundtrip", x.shape[0], call, check)


# ---------------------------------------------------------------------------
# fibre_ops: (ritz, b) -> matrix and the transforms on coordinates
# ---------------------------------------------------------------------------


def fibre_ops(rng):
    """Extract a pool of coordinates (set-up), then stream the six op kinds."""
    pool = {
        n: [(x, rf.extract_coords(x).coords) for x in (draw_generic(rng, n) for _ in range(POOL_PER_SIZE))]
        for n in SIZES
    }
    combos = [(kind, n) for kind in FIBRE_KINDS for n in SIZES]

    def stream():
        while True:
            for i, c in enumerate(rng.permutation(len(combos))):
                kind, n = combos[c]
                x, fc = pool[n][rng.integers(POOL_PER_SIZE)]
                yield _opening(_FIBRE_MAKERS[kind](rng, x, fc), i == 0)

    return stream()


def _reconstruct_op(rng, x, fc):
    return Op("reconstruct", x.shape[0], lambda: rf.reconstruct(fc), _matrix_check(x))


def _transpose_op(rng, x, fc):
    return Op(
        "transpose", x.shape[0],
        lambda: rf.reconstruct(rf.transpose_coords(fc)),
        _matrix_check(x.T),
    )


def _diag_similarity_op(rng, x, fc):
    n = x.shape[0]
    d = rng.uniform(0.5, 2.0, n) * np.exp(2j * np.pi * rng.uniform(size=n))
    return Op(
        "diag_similarity", n,
        lambda: rf.reconstruct(rf.diagonal_similarity_coords(fc, d)),
        _matrix_check(d[:, None] * x / d[None, :]),
    )


def _hessenberg_op(rng, x, fc):
    def check(h):
        unit = bool(np.all(np.diag(h, -1) == 1.0) and np.all(np.tril(h, -2) == 0.0))
        err = levels_err(numpy_levels(h), x)
        return err, unit and err <= SPECTRUM_TOL

    return Op("hessenberg", x.shape[0], lambda: rf.hessenberg_representative(fc.ritz), check)


def _gz_flow_op(rng, x, fc):
    n = x.shape[0]
    m = int(rng.integers(1, n))
    k = int(rng.integers(1, m + 1))
    # small flow time: the generator q k x_m^(k-1) has norm in [0.1, 0.5]
    u = rng.uniform(0.1, 0.5) * np.exp(2j * np.pi * rng.uniform())
    q = complex(u / (k * np.linalg.norm(np.linalg.matrix_power(x[:m, :m], k - 1))))
    param = rf.FlowParam(m, k, q)

    def check(y):
        err = levels_err(numpy_levels(y), x)
        return err, err <= SPECTRUM_TOL

    return Op("gz_flow", n, lambda: rf.gz_flow(x, param), check)


def _completion_op(rng, x, fc):
    m = int(rng.integers(1, min(x.shape[0] - 1, COMPLETION_MAX_M) + 1))
    want = np.poly(x[: m + 1, : m + 1])
    target = rf.MonicPoly(want[::-1][:-1])

    def check(c):
        completed = x[: m + 1, : m + 1].copy()
        completed[:m, m] = c
        completed[m, m] = -target.coeffs[m] - np.trace(x[:m, :m])
        # the completion is unique, so it must give back x's own column
        err = max(rel_err(np.poly(completed), want), rel_err(c, x[:m, m]))
        return err, err <= MATRIX_TOL

    return Op(
        "completion", x.shape[0],
        lambda: control.solve_unique_completion(x[:m, :m], x[m, :m], target),
        check,
    )


_FIBRE_MAKERS = {
    "reconstruct": _reconstruct_op,
    "transpose": _transpose_op,
    "diag_similarity": _diag_similarity_op,
    "hessenberg": _hessenberg_op,
    "gz_flow": _gz_flow_op,
    "completion": _completion_op,
}


# ---------------------------------------------------------------------------
# poisson: exact brackets of the trace generators
# ---------------------------------------------------------------------------


def poisson_pairs():
    """(n, left, right) generator index pairs of one certificate pass."""
    pairs = []
    for n, cap in POISSON_SETS:
        gens = rf.gz_generator_indices(n)
        for a in range(len(gens)):
            for b in range(a + 1, len(gens)):
                if cap is None or gens[a][1] + gens[b][1] <= cap:
                    pairs.append((n, gens[a], gens[b]))
    return pairs


def poisson_ops(rng):
    pairs = poisson_pairs()
    while True:
        polys = {}

        def build(polys=polys):
            for n, _ in POISSON_SETS:
                for mk in rf.gz_generator_indices(n):
                    polys[n, mk] = rf.gz_generator(n, *mk)
            return polys

        yield Op("build", 0, build, lambda _: (0.0, True), counted=False, opens_cycle=True)
        for i in rng.permutation(len(pairs)):
            yield _bracket_op(polys, *pairs[i])


def _bracket_op(polys, n, left, right):
    def check(bracket):
        terms = len(bracket.terms)
        return float(terms), terms == 0

    return Op("bracket", n, lambda: rf.poisson_bracket(polys[n, left], polys[n, right]), check)


# ---------------------------------------------------------------------------
# cli: one `python -m ritzfiber.cli` subprocess per op
# ---------------------------------------------------------------------------


def _pairs(values):
    return [[float(z.real), float(z.imag)] for z in values]


def _complex(pairs):
    a = np.asarray(pairs, dtype=np.float64)
    return a[..., 0] + 1j * a[..., 1]


def _token(z):
    return f"{z.real:.17g}{z.imag:+.17g}j"


def _matrix_text(x):
    return json.dumps({"n": x.shape[0], "entries": [_pairs(row) for row in x]})


def _coords_text(fc):
    return json.dumps({"ritz": [_pairs(lev) for lev in fc.ritz.levels], "b": [_pairs(v) for v in fc.b]})


def _flat(levels):
    return np.concatenate([np.asarray(v, dtype=np.complex128).ravel() for v in levels])


def _entries(doc):
    return _complex(doc["entries"])


def _coords_vectors(doc):
    return _flat([_complex(v) for v in doc["ritz"] + doc["b"]])


def run_cli_subprocess(argv, text, env):
    proc = subprocess.run(
        [sys.executable, "-m", "ritzfiber.cli", *argv],
        input=text, capture_output=True, text=True, env=env, timeout=120,
    )
    return proc.returncode, proc.stdout


def run_cli_inprocess(argv, text):
    out = io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = rf_cli.run(argv)
    finally:
        sys.stdin = stdin
    return code, out.getvalue()


def cli_ops(rng, env):
    while True:
        for i, c in enumerate(rng.permutation(len(CLI_KINDS))):
            kind = CLI_KINDS[c]
            if kind == "poisson":
                argv, text, expect = ["poisson", "--n", "3"], "", lambda doc: doc == _library_poisson(3)
            else:
                argv, text, expect = _CLI_CASES[kind](rng, draw_generic(rng, CLI_N))
            yield _opening(_cli_op(kind, argv, text, expect, env), i == 0)


def _cli_op(kind, argv, text, expect, env):
    def check(result):
        code, out = result
        if code != 0:
            return np.inf, False
        verdict = expect(json.loads(out))
        err = 0.0 if verdict is True else (np.inf if verdict is False else float(verdict))
        return err, err <= CLI_TOL

    return Op(
        kind, CLI_N,
        lambda: run_cli_subprocess(argv, text, env),
        check,
        inproc=lambda: run_cli_inprocess(argv, text),
    )


@functools.cache
def _library_poisson(n):
    gens = rf.gz_generator_indices(n)
    polys = {mk: rf.gz_generator(n, *mk) for mk in gens}
    pairs = []
    for a in range(len(gens)):
        for b in range(a + 1, len(gens)):
            bracket = rf.poisson_bracket(polys[gens[a]], polys[gens[b]])
            pairs.append({"left": list(gens[a]), "right": list(gens[b]),
                          "zero": bracket.is_zero(), "terms": len(bracket.terms)})
    return {"n": n, "generators": [list(mk) for mk in gens], "pairs": pairs,
            "all_commute": all(p["zero"] for p in pairs)}


def _small_time(rng, scale=0.5):
    return complex(rng.uniform(0.1, scale) * np.exp(2j * np.pi * rng.uniform()))


def _cli_ritz(rng, x):
    return ["ritz"], _matrix_text(x), lambda doc: rel_err(
        _flat([_complex(v) for v in doc["ritz"]]), _flat(rf.ritz_values(x).levels))


def _cli_check(rng, x):
    def expect(doc):
        rep = rf.genericity_report(rf.ritz_values(x))
        return doc == {"g1": rep.g1, "g2": rep.g2, "generic": rep.generic,
                       "ill_conditioned": rep.ill_conditioned,
                       "strongly_regular": bool(rf.strong_regularity_check(x))}
    return ["check"], _matrix_text(x), expect


def _cli_hess(rng, x):
    levels = [np.sort_complex(lev) for lev in numpy_levels(x)]
    text = json.dumps({"ritz": [_pairs(lev) for lev in levels]})
    return ["hess"], text, lambda doc: rel_err(
        _entries(doc), rf.hessenberg_representative(rf.RitzData(levels)))


def _cli_coords(rng, x):
    def expect(doc):
        fc = rf.extract_coords(x).coords
        return rel_err(_coords_vectors(doc), _flat(fc.ritz.levels + fc.b))
    return ["coords"], _matrix_text(x), expect


def _cli_reconstruct(rng, x):
    fc = rf.extract_coords(x).coords
    return ["reconstruct"], _coords_text(fc), lambda doc: rel_err(_entries(doc), rf.reconstruct(fc))


def _cli_flow_mk(rng, x):
    m = int(rng.integers(1, CLI_N))
    k = int(rng.integers(1, m + 1))
    q = _small_time(rng) / (k * np.linalg.norm(np.linalg.matrix_power(x[:m, :m], k - 1)))
    argv = ["flow", "--m", str(m), "--k", str(k), f"--q={_token(q)}"]
    return argv, _matrix_text(x), lambda doc: rel_err(
        _entries(doc), rf.gz_flow(x, rf.FlowParam(m, k, complex(_token(q)))))


def _cli_flow_j(rng, x):
    j = int(rng.integers(1, CLI_N * (CLI_N - 1) // 2 + 1))
    q = _small_time(rng)
    argv = ["flow", "--j", str(j), f"--q={_token(q)}"]
    return argv, _matrix_text(x), lambda doc: rel_err(
        _entries(doc), rf.eigen_flow(x, j, complex(_token(q))))


def _cli_conj_transpose(rng, x):
    fc = rf.extract_coords(x).coords

    def expect(doc):
        new = rf.transpose_coords(fc)
        return rel_err(_coords_vectors(doc), _flat(new.ritz.levels + new.b))
    return ["conj", "--transpose"], _coords_text(fc), expect


def _cli_conj_diag(rng, x):
    fc = rf.extract_coords(x).coords
    d = rng.uniform(0.5, 2.0, CLI_N) * np.exp(2j * np.pi * rng.uniform(size=CLI_N))
    tokens = [_token(v) for v in d]

    def expect(doc):
        new = rf.diagonal_similarity_coords(fc, [complex(t) for t in tokens])
        return rel_err(_coords_vectors(doc), _flat(new.ritz.levels + new.b))
    return ["conj", "--diag=" + ",".join(tokens)], _coords_text(fc), expect


def _cli_control_complete(rng, x):
    m = CLI_N - 1
    tokens = [_token(v) for v in np.poly(x)[::-1][:-1]]
    target = rf.MonicPoly([complex(t) for t in tokens])

    def expect(doc):
        c = control.solve_unique_completion(x[:m, :m], x[m, :m], target)
        return rel_err(_complex(doc["completion"]), c)
    return ["control", "--complete=" + ",".join(tokens)], _matrix_text(x), expect


_CLI_CASES = {
    "ritz": _cli_ritz,
    "check": _cli_check,
    "hess": _cli_hess,
    "coords": _cli_coords,
    "reconstruct": _cli_reconstruct,
    "flow_mk": _cli_flow_mk,
    "flow_j": _cli_flow_j,
    "conj_transpose": _cli_conj_transpose,
    "conj_diag": _cli_conj_diag,
    "control_complete": _cli_control_complete,
}


def ops(workload, seed, env):
    """The op stream of a workload; set-up work happens before it returns."""
    rng = np.random.default_rng(seed)
    if workload == "cli":
        return cli_ops(rng, env)
    return {"roundtrip": roundtrip_ops, "fibre_ops": fibre_ops, "poisson": poisson_ops}[workload](rng)
