"""The package's one eigensolver call: LAPACK ``zgeev`` through numpy.

Every spectrum and eigenvector matrix in the package comes from here.  A
LAPACK failure and any non-finite result (e.g. an eigenvalue that overflows
on huge entries) raise NumericalError, so no caller sees a wrong spectrum.
"""

import numpy as np

from .errors import NumericalError


def _checked(call, x):
    try:
        out = call(x)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"LAPACK eigensolver failed: {exc}") from None
    for part in out if isinstance(out, tuple) else (out,):
        if not np.isfinite(part).all():
            raise NumericalError("eigensolver returned non-finite values (overflow)")
    return out


def eigvals(x):
    """Eigenvalues of the complex matrix x, in LAPACK's order."""
    return _checked(np.linalg.eigvals, x)


def eig(x):
    """``(eigenvalues, eigenvector columns)`` of the complex matrix x, in
    LAPACK's order.  ``zgeev`` normalizes every eigenvector column to unit
    2-norm, so callers compare its entries with absolute thresholds."""
    return _checked(np.linalg.eig, x)
