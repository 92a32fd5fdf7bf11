"""Symmetric-matrix primitives used by every estimator.

All public functions validate their inputs and return exactly symmetric
arrays: results are passed through :func:`symmetrize`, which guarantees the
(i, j) and (j, i) entries are the same float, not merely close. The one
exception is :func:`eig_sym_unchecked`, the body of :func:`eig_sym` for
callers that have validated the matrix already.
"""

from typing import NamedTuple

import numpy as np

from .errors import InvalidMatrixError, NotPositiveDefiniteError

# Relative asymmetry allowed before an input is rejected outright.
_ASYM_RTOL = 1e-8


class EigenDecomposition(NamedTuple):
    """Eigenvalues (descending) and matching orthonormal eigenvectors."""

    values: np.ndarray
    vectors: np.ndarray


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Return (a + a')/2 over the last two axes, exactly symmetric in IEEE arithmetic."""
    return 0.5 * (a + a.swapaxes(-1, -2))


def check_symmetric(a, name: str = "matrix", stack: bool = False) -> np.ndarray:
    """Validate that ``a`` is a finite, square, symmetric 2-D array.

    With ``stack`` set, ``a`` may also be a stack ``(..., p, p)`` and each
    matrix is held to the same test. Returns the exactly-symmetrized copy.
    Raises :class:`~ridgeprec.errors.InvalidMatrixError` otherwise.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or (a.ndim > 2 and not stack) or a.shape[-2] != a.shape[-1]:
        raise InvalidMatrixError(f"{name} must be square, got shape {a.shape}")
    if a.size == 0:
        raise InvalidMatrixError(f"{name} must be nonempty")
    if not np.all(np.isfinite(a)):
        raise InvalidMatrixError(f"{name} contains non-finite entries")
    scale = np.abs(a).max(axis=(-2, -1))
    if np.any(np.abs(a - a.swapaxes(-1, -2)).max(axis=(-2, -1)) > _ASYM_RTOL * (1.0 + scale)):
        raise InvalidMatrixError(f"{name} is not symmetric")
    return symmetrize(a)


def eig_sym(a) -> EigenDecomposition:
    """Eigendecomposition of a symmetric matrix with a fixed canonical form.

    Eigenvalues are returned in descending order. Each eigenvector is scaled
    so its first component of nonnegligible magnitude is positive, which makes
    the decomposition deterministic for reproducible downstream output.

    Parameters
    ----------
    a : array_like
        Finite symmetric matrix.

    Returns
    -------
    EigenDecomposition
        ``values`` (p,) descending, ``vectors`` (p, p) with columns matching
        ``values``; ``a == vectors @ diag(values) @ vectors.T`` up to roundoff.

    Raises
    ------
    InvalidMatrixError
        If the input is not finite/square/symmetric.
    """
    return eig_sym_unchecked(check_symmetric(a))


def eig_sym_unchecked(a: np.ndarray) -> EigenDecomposition:
    """:func:`eig_sym` without validation, for a finite, exactly symmetric array.

    ``a`` may be a stack ``(..., p, p)``; every matrix is decomposed in one
    ``eigh`` call and gets the same canonical form.
    """
    vals, vecs = np.linalg.eigh(a)
    # eigh sorts ascending; flip for descending without re-sorting.
    vals = vals[..., ::-1].copy()
    vecs = vecs[..., ::-1].copy()
    # Sign convention: first component with |v_i| above a relative threshold
    # is made positive. Unit-norm columns always have such a component.
    # Multiplying by +-1.0 in place is exact, the same as negating.
    lead = np.argmax(np.abs(vecs) > 1e-12, axis=-2)
    first = np.take_along_axis(vecs, lead[..., None, :], axis=-2)
    vecs *= np.where(first < 0, -1.0, 1.0)
    return EigenDecomposition(vals, vecs)


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
    """
    vals, vecs = eig_sym(a)
    if vals[-1] <= pd_tolerance(vals):
        raise NotPositiveDefiniteError(
            f"inverse requires a p.d. input (min eigenvalue {vals[-1]:.3e})"
        )
    return symmetrize((vecs / vals) @ vecs.T)
