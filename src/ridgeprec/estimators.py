"""Ridge-penalized precision matrix estimators.

Four estimators share one vocabulary. With ``S`` the sample covariance and
``T`` a precision-side target:

* ``archetype-1``: convex-combination ridge, ``omega = [(1-v)S + v*G]^-1``
  with ``v`` in (0, 1] and ``G = T^-1`` the covariance-side target.
* ``archetype-2``: plain diagonal ridge, ``omega = (S + v*I)^-1``.
* ``alt-1``: the penalized-likelihood maximizer for penalty ``lam > 0``,
  ``omega = {[lam*I + (1/4)(S - lam*T)^2]^(1/2) + (1/2)(S - lam*T)}^-1``.
* ``alt-2``: ``alt-1`` at ``T = 0``.

The alternative estimators maximize
``ln|omega| - tr(S omega) - (lam/2)*||omega - T||_F^2`` and are positive
definite for every symmetric ``S``, every penalty ``lam > 0``, and every
symmetric ``T`` — including singular ``S`` from fewer observations than
variables. The covariance-side estimate obeys the exact identity
``sigma - lam*omega = S - lam*T``, so ``omega`` never requires an explicit
inversion: a fit is one eigendecomposition of ``S - lam*T`` with
cancellation-free per-eigenvalue maps; dense matrices are built on demand.

:func:`fit` broadcasts: ``lam`` may be a 1-D grid and ``S`` a stack
``(..., p, p)``, and every matrix the call needs is decomposed in one
stacked ``eigh``. alt-2 and archetype-2 decompose ``S`` once for the whole
grid. Each slice is bit-identical to the fit of that ``S`` at that penalty
alone. Callers that stack many fits keep each stack within
:data:`STACK_BYTES` through :func:`stack_slices`.

:func:`fit_data` fits from the data rows instead of ``S``. With fewer rows
than columns, and a kind whose matrix is a scalar shift of ``S`` (alt-2,
archetype-2, and alt-1 and archetype-1 with a scalar target), it takes the
n nonzero eigenpairs of ``S`` from the thin SVD of the data; the other
p - n eigenvalues are 0 and map to one null pair (Hastie & Tibshirani
2004, "Efficient quadratic regularization for expression arrays").
Everything else is :func:`fit` on the sample covariance.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    EmptyDataError,
    InvalidMatrixError,
    InvalidPenaltyError,
    InvalidTargetError,
    NotPositiveDefiniteError,
)
from .linalg import check_symmetric, eig_sym_unchecked, inv_pd, pd_tolerance, symmetrize

#: Canonical estimator kind names (also the CLI spelling).
KINDS = ("archetype-1", "archetype-2", "alt-1", "alt-2")

# The kinds that take a target.
_TARGETED = ("alt-1", "archetype-1")

#: Sentinel for the data-driven diagonal target, resolved per fit from S.
DDIAG = "ddiag"

#: Byte budget for one stack of p x p float matrices handed to :func:`fit`.
STACK_BYTES = 2**18

_OVERFLOW = "data overflow: Y'Y/n is not finite although every data entry is; rescale the data"


def stack_slices(count: int, p: int, rows: int = 0) -> list:
    """Split ``count`` stacked p x p fits into blocks within :data:`STACK_BYTES`.

    Fits from stacked data pass ``rows``, the n of each n x p data matrix;
    a block's data then fits the budget too.
    """
    step = max(1, STACK_BYTES // (8 * p * max(p, rows)))
    return [slice(start, min(start + step, count)) for start in range(0, count, step)]


# ---------------------------------------------------------------------------
# Targets


@dataclass(frozen=True)
class Target:
    """Precision-side shrinkage target.

    One of three variants: ``scalar`` (psi * I, psi >= 0; :meth:`zero` is
    psi = 0), ``diagonal`` (positive entries; a stack ``(..., p)`` holds one
    diagonal per matrix of a stacked fit), or ``full`` (symmetric positive
    definite). Use the factory classmethods; the raw constructor performs
    no validation.
    """

    kind: str
    psi: float = 0.0
    values: np.ndarray | None = field(default=None, compare=False)

    @classmethod
    def zero(cls) -> "Target":
        return cls.scalar(0.0)

    @classmethod
    def scalar(cls, psi: float) -> "Target":
        psi = float(psi)
        if not np.isfinite(psi) or psi < 0:
            raise InvalidTargetError(f"scalar target needs finite psi >= 0, got {psi}")
        return cls("scalar", psi=psi)

    @classmethod
    def identity(cls) -> "Target":
        return cls.scalar(1.0)

    @classmethod
    def diagonal(cls, values) -> "Target":
        v = np.atleast_1d(np.asarray(values, dtype=float))
        if v.size == 0 or not np.all(np.isfinite(v)) or np.any(v <= 0):
            raise InvalidTargetError("diagonal target needs finite positive entries")
        return cls("diagonal", values=v)

    @classmethod
    def full(cls, matrix) -> "Target":
        m = check_symmetric(matrix, "full target")
        vals = np.linalg.eigvalsh(m)
        if vals[0] <= pd_tolerance(vals):
            raise InvalidTargetError(
                f"full target must be p.d. (min eigenvalue {vals[0]:.3e})"
            )
        return cls("full", values=m)

    @property
    def is_zero(self) -> bool:
        return self.kind == "scalar" and self.psi == 0.0

    def diagonal_entries(self, p: int) -> np.ndarray:
        """The (p,) diagonal of a scalar or diagonal target."""
        if self.kind == "full":
            raise InvalidTargetError("a full target is not diagonal")
        if self.kind == "diagonal":
            if self.values.shape[-1] != p:
                raise InvalidTargetError(
                    f"diagonal target has {self.values.shape[-1]} entries, expected {p}"
                )
            return self.values
        return np.full(p, self.psi)

    def matrix(self, p: int) -> np.ndarray:
        """The target as a dense (p, p) array."""
        if self.kind != "full":
            return self.diagonal_entries(p)[..., None] * np.eye(p)
        if self.values.shape[0] != p:
            raise InvalidTargetError(
                f"full target is {self.values.shape[0]}x{self.values.shape[0]}, expected {p}"
            )
        return self.values.copy()

    def gamma(self, p: int) -> np.ndarray:
        """Covariance-side target ``G = T^-1`` used by archetype-1."""
        if self.is_zero:
            raise InvalidTargetError("archetype-1 requires a p.d. target, got zero")
        if self.kind == "full":
            # Target.full validated the matrix (symmetric, p.d.) already.
            vals, vecs = eig_sym_unchecked(self.matrix(p))
            return symmetrize((vecs / vals) @ vecs.T)
        return (1.0 / self.diagonal_entries(p))[..., None] * np.eye(p)

    def label(self) -> str:
        """Short human-readable tag used in CLI/CSV output."""
        if self.kind == "scalar":
            if self.psi == 0.0:
                return "zero"
            if self.psi == 1.0:
                return "identity"
            from .matio import fmt

            return f"scalar:{fmt(self.psi)}"
        return self.kind


def resolve_target(target, S) -> Target:
    """Resolve a target spec (Target instance or the ``"ddiag"`` sentinel).

    ``S`` is read, not validated: pass the output of
    :func:`~ridgeprec.linalg.check_symmetric`. A stack of ``S`` resolves
    ``"ddiag"`` to a stack of diagonals.
    """
    if isinstance(target, Target):
        return target
    if target == DDIAG:
        d = np.diagonal(S, axis1=-2, axis2=-1)
        if np.any(d <= 0):
            raise InvalidTargetError("default diagonal target needs diag(S) > 0")
        return Target.diagonal(1.0 / d)
    raise InvalidTargetError(f"unknown target spec {target!r}")


# ---------------------------------------------------------------------------
# Estimates


@dataclass(frozen=True)
class RidgeEstimate:
    """A fitted precision/covariance pair, held as its eigendecomposition.

    ``vectors`` (columns) are orthonormal; ``prec`` and ``cov`` are the
    precision- and covariance-side eigenvalues. The exactly symmetric
    ``omega`` and its inverse ``sigma`` are built on first access and
    cached. ``kind`` is one of :data:`KINDS`, ``lam`` its own-scale penalty.
    A broadcast fit carries leading axes: ``vectors`` is ``(..., p, p)``,
    ``prec`` and ``cov`` are ``(..., p)`` and ``lam`` is the grid.

    A thin fit (:func:`fit_data` with n < p rows) holds only r = n columns:
    ``vectors`` is ``(..., p, r)``, and ``null_prec`` and ``null_cov`` (one
    value per fit) are the eigenvalue pair of the p - r directions
    orthogonal to them, so ``omega = null_prec*I + V diag(prec - null_prec) V'``
    and ``sigma`` likewise. A dense fit leaves both None.
    """

    vectors: np.ndarray
    prec: np.ndarray
    cov: np.ndarray
    kind: str
    lam: float | np.ndarray
    target: Target | None
    null_prec: np.ndarray | None = None
    null_cov: np.ndarray | None = None

    @cached_property
    def omega(self) -> np.ndarray:
        return self._build(self.prec, self.null_prec)

    @cached_property
    def sigma(self) -> np.ndarray:
        return self._build(self.cov, self.null_cov)

    def _build(self, values, null) -> np.ndarray:
        V, Vt = self.vectors, self.vectors.swapaxes(-1, -2)
        if null is None:
            return symmetrize((V * values[..., None, :]) @ Vt)
        out = (V * (values - null[..., None])[..., None, :]) @ Vt
        idx = np.arange(self.p)
        out[..., idx, idx] += null[..., None]
        return symmetrize(out)

    @property
    def p(self) -> int:
        return self.vectors.shape[-2]


def _check_penalty(lam, upper: float = np.inf):
    """A penalty, or a 1-D grid of them, each in ``(0, upper]``.

    Returns a float for a scalar and a float array for a grid.
    """
    grid = np.asarray(lam, dtype=float)
    if grid.ndim > 1 or grid.size == 0:
        raise InvalidPenaltyError(f"penalty must be a scalar or a 1-D grid, got shape {grid.shape}")
    bad = ~(np.isfinite(grid) & (grid > 0) & (grid <= upper))
    if np.any(bad):
        bound = f"(0.0, {upper}]" if np.isfinite(upper) else "(0.0, inf)"
        raise InvalidPenaltyError(f"penalty must be in {bound}, got {grid[bad].flat[0]}")
    return float(grid) if grid.ndim == 0 else grid


def prepare_data(Y, center: bool = False, stack: bool = False) -> np.ndarray:
    """Validated 2-D float data matrix, column-centered when ``center`` is set.

    A 1-D input is one column. With ``stack`` set, ``Y`` may also be a
    stack ``(..., n, p)``, each matrix centered on its own. Rejects empty
    and non-finite data.
    """
    Y = np.asarray(Y, dtype=float)
    if Y.ndim == 1:
        Y = Y[:, None]
    if Y.ndim != 2 and not (stack and Y.ndim > 2):
        raise InvalidMatrixError(f"data must be 2-D, got shape {Y.shape}")
    if Y.shape[-2] == 0:
        raise EmptyDataError("data matrix has zero rows")
    if not np.all(np.isfinite(Y)):
        raise InvalidMatrixError("data matrix contains non-finite entries")
    if center:
        Y = Y - Y.mean(axis=-2, keepdims=True)
    return Y


def sample_cov(Y, center: bool = False) -> np.ndarray:
    """Sample covariance ``S = Y'Y / n`` (divisor n, no centering by default).

    With ``center=True`` column means are subtracted first; the divisor is
    still n. A stack ``(..., n, p)`` of data gives a stack of ``S``, each
    equal to the covariance of its matrix alone. Data so large that
    ``Y'Y/n`` overflows raise :class:`~ridgeprec.errors.InvalidMatrixError`.
    """
    Y = prepare_data(Y, center, stack=True)
    with np.errstate(over="ignore"):
        S = Y.swapaxes(-1, -2) @ Y
        S /= Y.shape[-2]
    if not np.all(np.isfinite(S)):
        raise InvalidMatrixError(_OVERFLOW)
    # symmetrize(S) with one temporary fewer; the same operations, so the same bits.
    out = S + S.swapaxes(-1, -2)
    out *= 0.5
    return out


def _eigen_map(kind: str, m: np.ndarray, lam):
    """Covariance- and precision-side eigenvalues of a fit.

    ``m`` is the spectrum of the matrix the kind decomposes: ``S - lam*T``
    for the alternative kinds (``T = 0`` for alt-2), ``(1-lam)S + lam*G``
    for archetype-1 and ``S`` for archetype-2. The alternative covariance
    value is ``sqrt(lam + m^2/4) + m/2`` and the precision value its
    reciprocal; each is evaluated on the cancellation-free side of the
    identity ``(R + m/2)(R - m/2) = lam``. ``m`` and ``lam`` broadcast.
    """
    if kind == "archetype-1":
        return m, 1.0 / m
    if kind == "archetype-2":
        cov = m + lam
        return cov, 1.0 / cov
    root = np.sqrt(lam + 0.25 * m * m)
    m = np.broadcast_to(m, root.shape)
    lam = np.broadcast_to(lam, root.shape)
    cov = np.empty(root.shape)
    prec = np.empty(root.shape)
    pos = m >= 0
    cov[pos] = root[pos] + 0.5 * m[pos]
    prec[pos] = 1.0 / cov[pos]
    neg = ~pos
    other = root[neg] - 0.5 * m[neg]
    cov[neg] = lam[neg] / other
    prec[neg] = other / lam[neg]
    return cov, prec


def fit(kind: str, S, lam, target=None) -> RidgeEstimate:
    """Fit any estimator by kind name, over a penalty grid or a stack of ``S``.

    ``target`` is required for "archetype-1" and "alt-1" (a
    :class:`Target` or ``"ddiag"``) and ignored by the other two kinds.

    ``lam`` is a penalty or a 1-D grid, and ``S`` a matrix or a stack
    ``(..., p, p)``. The estimate's leading axes are ``S``'s stack axes
    followed by the grid axis; a scalar ``lam`` with a 2-D ``S`` gives a
    plain 2-D fit. Every slice equals, bit for bit, the fit of that ``S``
    at that penalty alone.

    Every kind runs the same steps: validate ``S``, every penalty (in the
    kind's own domain) and the target once; build the stack of ``S``,
    ``S - lam*T`` or ``(1-lam)S + lam*G``, with a diagonal target applied
    to the diagonal only; decompose it in one ``eigh`` call (alt-2 and
    archetype-2 decompose ``S`` once for the whole grid); and map its
    eigenvalues by the kind's rule. The estimate keeps the eigenvectors and
    both mapped spectra. When the call has one matrix per penalty (a scalar
    ``lam``, or a one-point grid), the kind's matrix is built in place in
    the checked copy of ``S``; the caller's ``S`` is never written.
    """
    S = check_symmetric(S, "S", stack=True)
    kind, lam, target = _resolve(kind, lam, target, S)
    p = S.shape[-1]
    grid = np.ndim(lam) == 1
    if grid:  # the grid axis follows S's stack axes
        S = S[..., None, :, :]
    lam_v = np.asarray(lam)[..., None]  # against a spectrum (..., p)
    lam_m = lam_v[..., None]  # against a stack (..., p, p)
    if kind in ("alt-2", "archetype-2"):
        vals, vecs = eig_sym_unchecked(S)
        if grid:
            vecs = np.broadcast_to(vecs, vecs.shape[:-3] + lam.shape + (p, p))
        return _estimate(kind, vals, vecs, lam, target)
    shape = np.broadcast_shapes(S.shape, lam_m.shape)
    # The checked copy is this call's own; reuse it when no grid axis widens it.
    M = S if shape == S.shape else np.array(np.broadcast_to(S, shape))
    if kind == "archetype-1":
        M *= 1.0 - lam_m
    if target.kind == "full":
        if kind == "alt-1":
            M -= lam_m * target.matrix(p)
        else:
            M += lam_m * target.gamma(p)
    else:
        t = target.diagonal_entries(p)
        if grid:
            t = t[..., None, :]
        idx = np.arange(p)
        if kind == "alt-1":
            M[..., idx, idx] -= lam_v * t
        else:
            # lam*G is +0.0 off the diagonal; adding it turns -0.0 into +0.0.
            M += 0.0
            M[..., idx, idx] += lam_v * (1.0 / t)
    vals, vecs = eig_sym_unchecked(M)
    return _estimate(kind, vals, vecs, lam, target)


def fit_data(kind: str, Y, lam, target=None) -> RidgeEstimate:
    """:func:`fit` of the sample covariance ``S = Y'Y/n``, thin when n < p.

    ``Y`` is an n x p data matrix or a stack ``(..., n, p)``; ``lam`` and
    ``target`` are as for :func:`fit`, and so are the estimate's axes. The
    fit is thin when n < p and the kind's matrix is a scalar shift of ``S``:
    alt-2, archetype-2, and alt-1 and archetype-1 with a :class:`Target`
    of kind "scalar". Then the n nonzero eigenvalues of ``S`` and their
    eigenvectors are the squared singular values and right singular vectors
    of ``Y/sqrt(n)``, and the p - n zero eigenvalues map to one null pair
    (see :class:`RidgeEstimate`). A singular value that is 0 maps exactly
    onto that pair, so no rank cut is needed. Every other case returns
    ``fit(kind, sample_cov(Y), lam, target)``. The route depends only on
    n, p and the kind of ``target``; the two agree to rounding, but not bit
    for bit.
    """
    Y = prepare_data(Y, stack=True)
    n, p = Y.shape[-2:]
    scalar = isinstance(target, Target) and target.kind == "scalar"
    if n >= p or not (scalar or kind in ("alt-2", "archetype-2")):
        return fit(kind, sample_cov(Y), lam, target)
    kind, lam, target = _resolve(kind, lam, target)
    _, s, vt = np.linalg.svd(Y / np.sqrt(n), full_matrices=False)
    with np.errstate(over="ignore"):
        d = s * s
    if not np.all(np.isfinite(d)):
        raise InvalidMatrixError(_OVERFLOW)
    # The n nonzero eigenvalues of S, then one exact 0 for its null space.
    d = np.concatenate([d, np.zeros(d.shape[:-1] + (1,))], axis=-1)
    vecs = vt.swapaxes(-1, -2)
    if np.ndim(lam) == 1:
        d = d[..., None, :]
        vecs = np.broadcast_to(vecs[..., None, :, :], vecs.shape[:-2] + lam.shape + vecs.shape[-2:])
    return _estimate(kind, _shift(kind, d, np.asarray(lam)[..., None], target), vecs, lam, target)


def _resolve(kind: str, lam, target, S=None):
    """Checked ``(kind, lam, target)`` of a fit, the penalties in the kind's domain.

    alt-1 at a zero target is alt-2; archetype-1 has no zero-target form.
    """
    if kind not in KINDS:
        raise InvalidPenaltyError(f"unknown estimator kind {kind!r}; expected one of {KINDS}")
    targeted = kind in _TARGETED
    if targeted and target is None:
        raise InvalidTargetError(f"{kind} requires a target")
    lam = _check_penalty(lam, upper=1.0 if kind == "archetype-1" else np.inf)
    target = resolve_target(target, S) if targeted else None
    if targeted and target.is_zero:
        if kind == "archetype-1":
            raise InvalidTargetError("archetype-1 requires a p.d. target, got zero")
        kind = "alt-2"
    return kind, lam, target


def _shift(kind: str, d, lam_v, target):
    """Spectrum of the kind's matrix from the spectrum ``d`` of ``S``, scalar target."""
    if kind == "alt-1":
        return d - lam_v * target.psi
    if kind == "archetype-1":
        return (1.0 - lam_v) * d + lam_v * (1.0 / target.psi)
    return d


def _estimate(kind: str, vals, vecs, lam, target) -> RidgeEstimate:
    """Check the descending spectrum ``vals`` of the kind's matrix, map it, hold the fit.

    archetype-1 needs its combined matrix p.d., and archetype-2 needs
    ``S + lam*I`` p.d. A thin fit's last value is its null space's.
    """
    lam_v = np.asarray(lam)[..., None]
    low = vals[..., -1]
    if kind == "archetype-1":
        bad = low <= pd_tolerance(vals)
        if np.any(bad):
            raise NotPositiveDefiniteError(
                f"combined matrix not p.d. (min eigenvalue {np.extract(bad, low)[0]:.3e})"
            )
    if kind == "archetype-2":
        low = low + lam_v[..., 0]
        if np.any(low <= 0):
            raise NotPositiveDefiniteError(
                f"S + lam*I not p.d. (min eigenvalue {np.extract(low <= 0, low)[0]:.3e})"
            )
    cov, prec = _eigen_map(kind, vals, lam_v)
    target = Target.zero() if kind == "alt-2" else target
    if vals.shape[-1] == vecs.shape[-1]:
        return RidgeEstimate(vecs, prec, cov, kind, lam, target)
    return RidgeEstimate(
        vecs, prec[..., :-1], cov[..., :-1], kind, lam, target, prec[..., -1], cov[..., -1]
    )


# ---------------------------------------------------------------------------
# Spectrum-level shrinkage and penalty scale maps


def shrunk_eigenvalues(kind: str, d, lam: float, psi: float = 1.0) -> np.ndarray:
    """Covariance-side shrunken eigenvalues for scalar-target estimators.

    For a sample eigenvalue ``d`` (and scalar precision target ``psi * I``
    where a target applies):

    * alt-1:       ``sqrt(lam + (d - lam*psi)^2/4) + (d - lam*psi)/2``
    * alt-2:       ``sqrt(lam + d^2/4) + d/2``
    * archetype-1: ``(1-lam)*d + lam/psi``
    * archetype-2: ``d + lam``

    Precision-side values are the reciprocals. These are the eigenvalue maps
    :func:`fit` applies, so they agree with ``fit(kind, diag(d), lam,
    Target.scalar(psi)).sigma``.
    """
    d = np.atleast_1d(np.asarray(d, dtype=float))
    if not np.all(np.isfinite(d)):
        raise InvalidMatrixError("eigenvalues must be finite")
    target = Target.scalar(psi) if kind in _TARGETED else None
    kind, lam, target = _resolve(kind, lam, target)
    lam_v = np.asarray(lam)[..., None]
    return _eigen_map(kind, _shift(kind, d, lam_v, target), lam_v)[0]


def penalty_map_1(lam_a: float) -> float:
    """Map an alternative penalty to the archetype-1 scale: ``1 - 1/(lam_a + 1)``."""
    lam_a = _check_penalty(lam_a)
    return 1.0 - 1.0 / (lam_a + 1.0)


# ---------------------------------------------------------------------------
# Diagnostics


def loglik(omega, S) -> float:
    """Unpenalized Gaussian log-likelihood kernel ``ln|omega| - tr(S omega)``.

    ``omega`` must be p.d. (checked via Cholesky).
    """
    omega, S = check_symmetric(omega, "omega"), check_symmetric(S, "S")
    try:
        L = np.linalg.cholesky(omega)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError("loglik requires a p.d. omega") from exc
    logdet = 2.0 * float(np.sum(np.log(np.diag(L))))
    return logdet - float(np.einsum("ij,ij->", S, omega))


def stationarity_residual(omega, S, target, lam: float) -> float:
    """Frobenius norm of the penalized-likelihood stationarity condition.

    At the alternative-ridge maximizer, ``omega^-1 - (S - lam*T) - lam*omega``
    vanishes; the residual norm measures how far ``omega`` is from satisfying
    the first-order condition.
    """
    omega = check_symmetric(omega, "omega")
    S = check_symmetric(S, "S")
    lam = _check_penalty(lam)
    target = resolve_target(target, S)
    T = target.matrix(S.shape[0])
    resid = inv_pd(omega) - (S - lam * T) - lam * omega
    return float(np.linalg.norm(resid))
