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
    """Return (a + a.T)/2, which is exactly symmetric in IEEE arithmetic."""
    return 0.5 * (a + a.T)


def check_symmetric(a, name: str = "matrix") -> np.ndarray:
    """Validate that ``a`` is a finite, square, symmetric 2-D array.

    Returns the exactly-symmetrized copy. Raises
    :class:`~ridgeprec.errors.InvalidMatrixError` otherwise.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidMatrixError(f"{name} must be square, got shape {a.shape}")
    if a.size == 0:
        raise InvalidMatrixError(f"{name} must be nonempty")
    if not np.all(np.isfinite(a)):
        raise InvalidMatrixError(f"{name} contains non-finite entries")
    scale = np.abs(a).max()
    if np.abs(a - a.T).max() > _ASYM_RTOL * (1.0 + scale):
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
    """:func:`eig_sym` without validation, for a finite, exactly symmetric array."""
    vals, vecs = np.linalg.eigh(a)
    # eigh sorts ascending; flip for descending without re-sorting.
    vals = vals[::-1].copy()
    vecs = vecs[:, ::-1].copy()
    # Sign convention: first component with |v_i| above a relative threshold
    # is made positive. Unit-norm columns always have such a component.
    lead = np.argmax(np.abs(vecs) > 1e-12, axis=0)
    flip = vecs[lead, np.arange(vecs.shape[1])] < 0
    vecs[:, flip] = -vecs[:, flip]
    return EigenDecomposition(vals, vecs)


def pd_tolerance(values) -> float:
    """Default positive-definiteness cutoff: 1e-12 * max(1, max |eigenvalue|)."""
    values = np.asarray(values, dtype=float)
    return 1e-12 * max(1.0, float(np.abs(values).max()))


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
