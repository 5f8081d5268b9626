"""Shared samplers and comparison helpers for the test suite."""

import numpy as np

from ritzfiber import (
    FiberCoords,
    RitzData,
    genericity_report,
    ritz_values,
)


def complex_randn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_generic_matrix(rng, n, max_tries=500, normalized=False):
    """Random matrix rejection-sampled to be generic and well separated.

    With normalized=True the entries are scaled so the spectral radius is
    about 1, which keeps exponential flows well conditioned.
    """
    scale = 1.0 / np.sqrt(2 * n) if normalized else 1.0
    for _ in range(max_tries):
        x = scale * complex_randn(rng, n, n)
        rep = genericity_report(ritz_values(x))
        if rep.generic and not rep.ill_conditioned:
            return x
    raise RuntimeError(f"no well-separated generic {n}x{n} matrix in {max_tries} tries")


def random_generic_ritz(rng, n, max_tries=500):
    """Random Ritz values rejection-sampled to be generic and well separated.

    Levels come out in the canonical order, matching what extract_coords
    records, so coordinate round trips compare entrywise.
    """
    for _ in range(max_tries):
        r = RitzData([np.sort_complex(complex_randn(rng, m)) for m in range(1, n + 1)])
        rep = genericity_report(r)
        if rep.generic and not rep.ill_conditioned:
            return r
    raise RuntimeError(f"no well-separated generic RitzData of size {n}")


def random_fiber_coords(rng, n):
    """Random coordinates with moderate, safely nonzero b entries.

    The Ritz values are taken from an actual random matrix: independently
    sampled levels routinely describe fibres whose points have enormous
    entries, which tests nothing but the conditioning cliff.
    """
    r = ritz_values(random_generic_matrix(rng, n))
    b = [
        rng.uniform(0.5, 2.0, m) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, m))
        for m in range(1, n)
    ]
    return FiberCoords(r, b)


def random_unit_hessenberg(rng, n):
    """Random unit upper Hessenberg matrix."""
    y = np.triu(complex_randn(rng, n, n))
    y[np.arange(1, n), np.arange(n - 1)] = 1.0
    return y


def multiset_gap(a, b):
    """Max gap when two equal-size eigenvalue multisets are paired in
    canonical sorted order."""
    a = np.sort_complex(np.asarray(a, dtype=complex))
    b = np.sort_complex(np.asarray(b, dtype=complex))
    return float(np.max(np.abs(a - b)))


def ritz_gap(r1, r2):
    """Max multiset_gap over the levels of two Ritz data sets."""
    return max(multiset_gap(a, b) for a, b in zip(r1.levels, r2.levels))
