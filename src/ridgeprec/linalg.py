"""Symmetric-matrix primitives used by every estimator, and the p.d. rules.

Public functions that return a symmetric matrix validate their inputs and
compute it as :func:`symmetrize` does, which guarantees the (i, j) and
(j, i) entries are the same float, not merely close. The exception is
:func:`eig_sym_unchecked`, which validates nothing: callers pass it a
matrix they have checked already, and read its eigenvectors only through
products that do not depend on their signs.

:func:`require_pd` (a spectrum against :func:`pd_tolerance`) and :func:`cholesky_pd`
decide positive definiteness for the package, and :func:`pd_under_congruence`
passes a congruence ``A N A'`` early from ``N``'s spectrum; archetype-2 alone
checks ``S + lam*I`` against 0.
"""

from contextlib import nullcontext

import numpy as np

from .errors import InvalidMatrixError, NotPositiveDefiniteError

# Relative asymmetry allowed before an input is rejected outright.
_ASYM_RTOL = 1e-8


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Return (a + a')/2 over the last two axes of a float array, exactly symmetric."""
    out = a + a.swapaxes(-1, -2)
    out *= 0.5
    return out


def check_symmetric(a, name: str = "matrix", stack: bool = False) -> np.ndarray:
    """Validate that ``a`` is a finite, square, symmetric 2-D array.

    With ``stack`` set, ``a`` may also be a stack ``(..., p, p)`` and each
    matrix is held to the same test. Returns the exactly-symmetrized copy,
    a new array that the caller owns and may overwrite; it equals
    :func:`symmetrize` of ``a`` bit for bit, and is the only array of
    ``a``'s size allocated here. Raises
    :class:`~ridgeprec.errors.InvalidMatrixError` otherwise, or if ``a + a'`` overflows.
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
    # a - a' and a + a' can overflow only where some |entry| exceeds max/2.
    huge = scale.max() > 0.5 * np.finfo(float).max
    with np.errstate(over="ignore") if huge else nullcontext():
        out = np.subtract(a, a.swapaxes(-1, -2))
        np.abs(out, out=out)
        if np.any(out.max(axis=(-2, -1)) > _ASYM_RTOL * (1.0 + scale)):
            raise InvalidMatrixError(f"{name} is not symmetric")
        np.add(a, a.swapaxes(-1, -2), out=out)
    if huge and not np.all(np.isfinite(out)):
        raise InvalidMatrixError(f"{name} overflows when symmetrized (|entry| {scale.max():.3e})")
    out *= 0.5
    return out


def same_shape(a, b, names: str) -> None:
    """Raise :class:`~ridgeprec.errors.InvalidMatrixError` naming both shapes unless they agree."""
    if np.shape(a) != np.shape(b):
        raise InvalidMatrixError(f"{names} differ in shape: {np.shape(a)} and {np.shape(b)}")


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
    """Default positive-definiteness cutoff: 1e-12 * max |eigenvalue|.

    Relative, so the verdict does not depend on the data's units. Taken over
    the last axis, so a stack of spectra gets one cutoff each.
    """
    return 1e-12 * np.abs(np.asarray(values, dtype=float)).max(axis=-1)


def require_pd(values, what: str, error=NotPositiveDefiniteError) -> None:
    """The eigenvalue rule: every spectrum's smallest value exceeds :func:`pd_tolerance`.

    ``values`` is a spectrum in any order, or a stack ``(..., p)`` of them.
    Raises ``error`` naming the smallest value of the first failing spectrum.
    """
    low = np.min(values, axis=-1)
    bad = low <= pd_tolerance(values)
    if np.any(bad):
        raise error(f"{what} (min eigenvalue {np.extract(bad, low)[0]:.3e})")


def pd_under_congruence(values, spread):
    """Whether every ``A N A'`` passes the eigenvalue rule, read from ``N``'s spectrum alone.

    ``values`` is a spectrum of ``N``, or a stack ``(..., p)`` of them, and
    ``spread`` (broadcast over the stack) the condition number of ``AA'``.
    By Ostrowski's theorem each eigenvalue of ``A N A'`` is one of ``N``'s
    times a factor between the extreme eigenvalues of ``AA'``, so a smallest
    value above ``spread`` times :func:`pd_tolerance` passes for sure. False
    decides nothing: :func:`require_pd` the spectrum of ``A N A'`` itself.
    """
    return np.min(values, axis=-1) > spread * pd_tolerance(values)


def cholesky_pd(a, what: str) -> np.ndarray:
    """The Cholesky rule: the lower factor of ``a``, or ``NotPositiveDefiniteError(what)``."""
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(what) from exc


def inv_pd(a) -> np.ndarray:
    """Inverse of a symmetric positive-definite matrix.

    Computed via the eigendecomposition so the result is symmetric by
    construction and the p.d. requirement is enforced (not silently assumed).
    Raises :class:`~ridgeprec.errors.InvalidMatrixError` for an input that
    :func:`check_symmetric` rejects.
    """
    vals, vecs = eig_sym_unchecked(check_symmetric(a))
    require_pd(vals, "inverse requires a p.d. input")
    return symmetrize((vecs / vals) @ vecs.T)
