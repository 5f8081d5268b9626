"""Spans and counts around the calls into each ritzfiber module.

The package binds names by direct import (``from .numcore import
eigenvalues``), so patching ``numcore.eigenvalues`` alone would miss the calls
made through ``fiber.eigenvalues`` or ``control.eigenvalues``.  The tracer
therefore replaces a function at every module attribute that holds it.  The
patches are in place only inside ``recording()``, so untraced calls run the
package unmodified.

A span is ``(name, start, end, parent span index, op id)``; a layer's self
time is its span's duration minus the durations of its direct child spans.
``SparsePoly`` arithmetic and ``numpy.linalg.solve`` are too fine-grained for
spans and are counted only; their time stays in the calling span.
"""

import functools
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# module -> layer label (metric names must start with a letter or a digit)
LAYERS = {
    "numcore": "numcore",
    "_kernels": "kernels",
    "fiber": "fiber",
    "arrow": "arrow",
    "coords": "coords",
    "gzflow": "gzflow",
    "control": "control",
    "cli": "cli",
}
# cli's public helpers are internal to that layer: one span over run() keeps
# argument parsing and JSON parse/emit in cli's self time
ENTRY_POINTS = {"cli": ("run",)}

SIZES = (4, 8, 16)
# self time per op, overall and split by matrix size (roundtrip, fibre_ops)
SIZE_SPLIT = (
    "numcore.eigenvalues",
    "numcore.eigvec_last_one",
    "kernels.hessenberg_reduce",
    "kernels.hessenberg_eigvalues",
    "fiber.ritz_values",
    "fiber.genericity_report",
    "fiber.hessenberg_representative",
    "arrow.sigma_matrix",
    "arrow.cauchy_matrix",
    "arrow.pi_matrix",
    "coords.extract_coords",
    "coords.diagonalizer",
    "coords.reconstruct",
    "coords.transpose_coords",
    "gzflow.expm",
    "gzflow.gz_flow",
    "control.solve_unique_completion",
)
SELF_ONLY = ("fiber.strong_regularity_check", "gzflow.poisson_bracket", "cli.run")
CALLS = (
    "numcore.eigenvalues",
    "numcore.eigvec_last_one",
    "linalg.solve",
    "fiber.genericity_report",
    "arrow.sigma_matrix",
    "gzflow.SparsePoly.add",
    "gzflow.SparsePoly.mul",
    "gzflow.SparsePoly.partial",
)
SPARSE_POLY_METHODS = (
    ("__add__", "add"), ("__radd__", "add"), ("__mul__", "mul"), ("__rmul__", "mul"),
    ("partial", "partial"),
)


def per_layer_spec():
    """(name, unit, better) of every per-layer metric, in output order."""
    spec = [(f"{name}.calls_per_op", "calls/op", "lower") for name in CALLS]
    for name in SIZE_SPLIT:
        spec.append((f"{name}.self_ms_per_op", "ms", "lower"))
        spec += [(f"{name}.self_ms_per_op.n{n}", "ms", "lower") for n in SIZES]
    spec += [(f"{name}.self_ms_per_op", "ms", "lower") for name in SELF_ONLY]
    spec += [
        ("gzflow.SparsePoly.add.terms_copied_per_op", "terms/op", "lower"),
        ("gzflow.bracket_pairs.hit_ratio", "ratio", "higher"),
        ("cli.process_ms_per_op", "ms", "lower"),
        ("import.ritzfiber_ms", "ms", "lower"),
        ("trace.throughput_ratio", "ratio", "higher"),
    ]
    spec += [(f"{label}.errors", "count", "lower") for label in LAYERS.values()]
    return spec


def _public_functions(module):
    for name, obj in vars(module).items():
        if (not name.startswith("_") and callable(obj) and not isinstance(obj, type)
                and getattr(obj, "__module__", None) == module.__name__):
            yield name


def self_times(spans):
    """(name, op id, self seconds) of every span."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    for i, (name, start, end, _, op) in enumerate(spans):
        yield name, op, end - start - covered[i]


class Tracer:
    """In-memory spans and counts for the calls made inside ``recording()``."""

    def __init__(self):
        self.spans = []
        self.calls = Counter()
        self.errors = Counter()
        self.terms_copied = 0
        self.pairs_visited = 0
        self.pairs_hit = 0
        self.op_sizes = {}
        self._stack = []
        self._op = None
        self._last_error = None
        self._patches = self._patch_list()

    def _patch_list(self):
        """(owner, attribute, original, wrapper) for every binding site."""
        sites = [mod for name, mod in sys.modules.items()
                 if name == "ritzfiber" or name.startswith("ritzfiber.")]
        patches = []
        for modname, label in LAYERS.items():
            module = sys.modules[f"ritzfiber.{modname}"]
            for name in ENTRY_POINTS.get(modname) or list(_public_functions(module)):
                original = getattr(module, name)
                span_name = f"{label}.{name}"
                before = self._count_pairs if span_name == "gzflow.poisson_bracket" else None
                wrapper = self._span(span_name, label, original, before)
                for site in sites:
                    patches += [(site, attr, original, wrapper)
                                for attr, value in vars(site).items() if value is original]
        sparse = sys.modules["ritzfiber.gzflow"].SparsePoly
        for attr, name in SPARSE_POLY_METHODS:
            original = vars(sparse)[attr]
            tally = self._count_copied if name == "add" else None
            patches.append((sparse, attr, original,
                            self._counter(f"gzflow.SparsePoly.{name}", original, tally)))
        solve = np.linalg.solve
        patches.append((np.linalg, "solve", solve, self._counter("linalg.solve", solve)))
        return patches

    def _span(self, name, label, fn, before=None):
        spans, stack, calls = self.spans, self._stack, self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            calls[name] += 1
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                # count an exception once, at the first wrapped function it leaves
                if exc is not self._last_error:
                    self._last_error = exc
                    self.errors[label] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self._op)

        return wrapper

    def _counter(self, name, fn, tally=None):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if tally is not None:
                tally(args)
            return fn(*args, **kwargs)

        return wrapper

    def _count_copied(self, args):
        # SparsePoly.__add__ starts from a copy of its left operand's terms
        self.terms_copied += len(args[0].terms)

    def _count_pairs(self, args):
        # poisson_bracket visits every pair of variables of f and g; only
        # pairs with j = k or i = l contribute
        left, right = args[0].variables(), args[1].variables()
        self.pairs_visited += len(left) * len(right)
        self.pairs_hit += sum(1 for i, j in left for k, l in right if j == k or i == l)

    @contextmanager
    def recording(self, op_id, size):
        """Patch every binding site while the block runs one op."""
        self._op = op_id
        self.op_sizes[op_id] = size
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)
            self._op = None
            self._last_error = None

    def layer_metrics(self, ops_by_size):
        """Per-layer values over the counted ops, ``ops_by_size`` = {n: ops}.

        Ratios that need a second run (trace overhead, cli process time,
        import time) are filled in by the caller.
        """
        ops = max(sum(ops_by_size.values()), 1)
        total = Counter()
        by_size = Counter()
        for name, op, seconds in self_times(self.spans):
            total[name] += seconds
            by_size[name, self.op_sizes.get(op)] += seconds
        values = {f"{name}.calls_per_op": self.calls[name] / ops for name in CALLS}
        for name in SIZE_SPLIT:
            values[f"{name}.self_ms_per_op"] = 1e3 * total[name] / ops
            for n in SIZES:
                values[f"{name}.self_ms_per_op.n{n}"] = (
                    1e3 * by_size[name, n] / ops_by_size[n] if ops_by_size.get(n) else 0.0
                )
        for name in SELF_ONLY:
            values[f"{name}.self_ms_per_op"] = 1e3 * total[name] / ops
        values["gzflow.SparsePoly.add.terms_copied_per_op"] = self.terms_copied / ops
        values["gzflow.bracket_pairs.hit_ratio"] = (
            self.pairs_hit / self.pairs_visited if self.pairs_visited else 0.0
        )
        for label in LAYERS.values():
            values[f"{label}.errors"] = float(self.errors[label])
        return values
