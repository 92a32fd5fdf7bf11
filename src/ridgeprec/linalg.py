"""Symmetric-matrix primitives used by every estimator.

All public functions validate their inputs and return exactly symmetric
arrays: results are computed as :func:`symmetrize` computes them, which
guarantees the (i, j) and (j, i) entries are the same float, not merely close. The one
exception is :func:`eig_sym_unchecked`, which validates nothing: callers
pass it a matrix they have checked already, and read its eigenvectors only
through products that do not depend on their signs.
"""

import numpy as np

from .errors import InvalidMatrixError, NotPositiveDefiniteError

# Relative asymmetry allowed before an input is rejected outright.
_ASYM_RTOL = 1e-8


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Return (a + a')/2 over the last two axes, exactly symmetric in IEEE arithmetic."""
    return 0.5 * (a + a.swapaxes(-1, -2))


def check_symmetric(a, name: str = "matrix", stack: bool = False) -> np.ndarray:
    """Validate that ``a`` is a finite, square, symmetric 2-D array.

    With ``stack`` set, ``a`` may also be a stack ``(..., p, p)`` and each
    matrix is held to the same test. Returns the exactly-symmetrized copy,
    a new array that the caller owns and may overwrite; it equals
    :func:`symmetrize` of ``a`` bit for bit, and is the only array of
    ``a``'s size allocated here. Raises
    :class:`~ridgeprec.errors.InvalidMatrixError` otherwise.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or (a.ndim > 2 and not stack) or a.shape[-2] != a.shape[-1]:
        raise InvalidMatrixError(f"{name} must be square, got shape {a.shape}")
    if a.size == 0:
        raise InvalidMatrixError(f"{name} must be nonempty")
    # max |a| without an |a| temporary; max, min and maximum propagate NaN,
    # so a finite scale means finite entries.
    scale = np.maximum(a.max(axis=(-2, -1)), -a.min(axis=(-2, -1)))
    if not np.all(np.isfinite(scale)):
        raise InvalidMatrixError(f"{name} contains non-finite entries")
    out = np.subtract(a, a.swapaxes(-1, -2))
    np.abs(out, out=out)
    if np.any(out.max(axis=(-2, -1)) > _ASYM_RTOL * (1.0 + scale)):
        raise InvalidMatrixError(f"{name} is not symmetric")
    np.add(a, a.swapaxes(-1, -2), out=out)
    out *= 0.5
    return out


def eig_sym_unchecked(a: np.ndarray) -> tuple:
    """``(values, vectors)`` of a finite, exactly symmetric array; validates nothing.

    Eigenvalues descend. Eigenvector signs are whatever ``eigh`` returns:
    every caller reads the vectors through sign-free products such as
    ``V diag(d) V'`` or squared projections. ``a`` may be a stack
    ``(..., p, p)``; every matrix is decomposed in one ``eigh`` call.
    """
    vals, vecs = np.linalg.eigh(a)
    # eigh sorts ascending; flip for descending without re-sorting. The
    # copies keep later products on contiguous arrays.
    return vals[..., ::-1].copy(), vecs[..., ::-1].copy()


def pd_tolerance(values):
    """Default positive-definiteness cutoff: 1e-12 * max(1, max |eigenvalue|).

    Taken over the last axis, so a stack of spectra gets one cutoff each.
    """
    values = np.asarray(values, dtype=float)
    return 1e-12 * np.maximum(1.0, np.abs(values).max(axis=-1))


def inv_pd(a) -> np.ndarray:
    """Inverse of a symmetric positive-definite matrix.

    Computed via the eigendecomposition so the result is symmetric by
    construction and the p.d. requirement is enforced (not silently assumed).
    Raises :class:`~ridgeprec.errors.InvalidMatrixError` for an input that
    :func:`check_symmetric` rejects.
    """
    vals, vecs = eig_sym_unchecked(check_symmetric(a))
    if vals[-1] <= pd_tolerance(vals):
        raise NotPositiveDefiniteError(
            f"inverse requires a p.d. input (min eigenvalue {vals[-1]:.3e})"
        )
    return symmetrize((vecs / vals) @ vecs.T)
