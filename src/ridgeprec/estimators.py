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
inversion; both matrices are built from one eigendecomposition of
``S - lam*T`` with cancellation-free per-eigenvalue formulas.
"""

from dataclasses import dataclass, field

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

#: Sentinel for the data-driven diagonal target, resolved per fit from S.
DDIAG = "ddiag"


# ---------------------------------------------------------------------------
# Targets


@dataclass(frozen=True)
class Target:
    """Precision-side shrinkage target.

    One of four variants: ``zero``, ``scalar`` (psi * I, psi >= 0; psi = 0
    coincides with zero), ``diagonal`` (positive entries), or ``full``
    (symmetric positive definite). Use the factory classmethods; the raw
    constructor performs no validation.
    """

    kind: str
    psi: float = 0.0
    values: np.ndarray | None = field(default=None, compare=False)

    @classmethod
    def zero(cls) -> "Target":
        return cls("zero")

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
        v = np.asarray(values, dtype=float).ravel()
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
        return self.kind == "zero" or (self.kind == "scalar" and self.psi == 0.0)

    def matrix(self, p: int) -> np.ndarray:
        """The target as a dense (p, p) array."""
        if self.kind == "zero":
            return np.zeros((p, p))
        if self.kind == "scalar":
            return self.psi * np.eye(p)
        if self.kind == "diagonal":
            if self.values.size != p:
                raise InvalidTargetError(
                    f"diagonal target has {self.values.size} entries, expected {p}"
                )
            return np.diag(self.values)
        if self.values.shape[0] != p:
            raise InvalidTargetError(
                f"full target is {self.values.shape[0]}x{self.values.shape[0]}, expected {p}"
            )
        return self.values.copy()

    def gamma(self, p: int) -> np.ndarray:
        """Covariance-side target ``G = T^-1`` used by archetype-1."""
        if self.is_zero:
            raise InvalidTargetError("archetype-1 requires a p.d. target, got zero")
        if self.kind == "scalar":
            return (1.0 / self.psi) * np.eye(p)
        if self.kind == "diagonal":
            if self.values.size != p:
                raise InvalidTargetError(
                    f"diagonal target has {self.values.size} entries, expected {p}"
                )
            return np.diag(1.0 / self.values)
        return inv_pd(self.matrix(p))

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


def default_diagonal_target(S) -> Target:
    """Data-driven diagonal target with entries 1/diag(S).

    Requires every diagonal entry of S to be strictly positive.
    """
    return resolve_target(DDIAG, check_symmetric(S, "S"))


def resolve_target(target, S) -> Target:
    """Resolve a target spec (Target instance or the ``"ddiag"`` sentinel).

    ``S`` is read, not validated: pass the output of
    :func:`~ridgeprec.linalg.check_symmetric`.
    """
    if isinstance(target, Target):
        return target
    if target == DDIAG:
        d = np.diag(S)
        if np.any(d <= 0):
            raise InvalidTargetError("default diagonal target needs diag(S) > 0")
        return Target.diagonal(1.0 / d)
    raise InvalidTargetError(f"unknown target spec {target!r}")


# ---------------------------------------------------------------------------
# Estimates


@dataclass(frozen=True)
class RidgeEstimate:
    """A fitted precision/covariance pair.

    ``omega`` is the precision estimate, ``sigma`` its inverse (the
    covariance-side estimate); both are exactly symmetric and mutually
    inverse up to roundoff. ``kind`` is one of :data:`KINDS` and ``lam`` the
    penalty in that estimator's own scale.
    """

    omega: np.ndarray
    sigma: np.ndarray
    kind: str
    lam: float
    target: Target | None

    @property
    def p(self) -> int:
        return self.omega.shape[0]


def _check_penalty(lam, upper: float = np.inf) -> float:
    lam = float(lam)
    if not np.isfinite(lam) or lam <= 0 or lam > upper:
        bound = f"(0.0, {upper}]" if np.isfinite(upper) else "(0.0, inf)"
        raise InvalidPenaltyError(f"penalty must be in {bound}, got {lam}")
    return lam


def prepare_data(Y, center: bool = False) -> np.ndarray:
    """Validated 2-D float data matrix, column-centered when ``center`` is set.

    A 1-D input is one column. Rejects empty and non-finite data.
    """
    Y = np.asarray(Y, dtype=float)
    if Y.ndim == 1:
        Y = Y[:, None]
    if Y.ndim != 2:
        raise InvalidMatrixError(f"data must be 2-D, got shape {Y.shape}")
    if Y.shape[0] == 0:
        raise EmptyDataError("data matrix has zero rows")
    if not np.all(np.isfinite(Y)):
        raise InvalidMatrixError("data matrix contains non-finite entries")
    if center:
        Y = Y - Y.mean(axis=0)
    return Y


def sample_cov(Y, center: bool = False) -> np.ndarray:
    """Sample covariance ``S = Y'Y / n`` (divisor n, no centering by default).

    With ``center=True`` column means are subtracted first; the divisor is
    still n.
    """
    Y = prepare_data(Y, center)
    return symmetrize(Y.T @ Y / Y.shape[0])


def _eigen_map(kind: str, m: np.ndarray, lam: float):
    """Covariance- and precision-side eigenvalues of a fit.

    ``m`` is the spectrum of the matrix the kind decomposes: ``S - lam*T``
    for the alternative kinds (``T = 0`` for alt-2), ``(1-lam)S + lam*G``
    for archetype-1 and ``S`` for archetype-2. The alternative covariance
    value is ``sqrt(lam + m^2/4) + m/2`` and the precision value its
    reciprocal; each is evaluated on the cancellation-free side of the
    identity ``(R + m/2)(R - m/2) = lam``.
    """
    if kind == "archetype-1":
        return m, 1.0 / m
    if kind == "archetype-2":
        return m + lam, 1.0 / (m + lam)
    root = np.sqrt(lam + 0.25 * m * m)
    cov = np.empty_like(m)
    prec = np.empty_like(m)
    pos = m >= 0
    cov[pos] = root[pos] + 0.5 * m[pos]
    prec[pos] = 1.0 / cov[pos]
    neg = ~pos
    other = root[neg] - 0.5 * m[neg]
    cov[neg] = lam / other
    prec[neg] = other / lam
    return cov, prec


def alt_ridge1(S, target, lam: float) -> RidgeEstimate:
    """Penalized-likelihood ridge precision estimator with target ``T``.

    Maximizes ``ln|omega| - tr(S omega) - (lam/2)||omega - T||_F^2``. The
    solution is positive definite for every symmetric S (singular included),
    every ``lam > 0``, and every symmetric target. A zero target routes to
    :func:`alt_ridge2`, which is the same estimator at ``T = 0``.

    Parameters
    ----------
    S : array_like
        Symmetric sample covariance (n.n.d. in intended use).
    target : Target or "ddiag"
        Precision-side target; ``"ddiag"`` resolves to ``diag(1/diag(S))``.
    lam : float
        Penalty, any positive value.
    """
    return fit("alt-1", S, lam, target)


def alt_ridge2(S, lam: float) -> RidgeEstimate:
    """Target-free alternative ridge: ``alt_ridge1`` at ``T = 0``.

    ``omega = {[lam*I + (1/4)S^2]^(1/2) + (1/2)S}^-1``, positive definite for
    every symmetric S and ``lam > 0``.
    """
    return fit("alt-2", S, lam)


def archetype1(S, target, lam: float) -> RidgeEstimate:
    """Convex-combination ridge ``omega = [(1-v)S + v*G]^-1``, ``v`` in (0,1].

    ``G`` is the covariance-side target, the inverse of the precision-side
    ``target`` (which therefore must be p.d.; the zero target is rejected).
    """
    return fit("archetype-1", S, lam, target)


def archetype2(S, lam: float) -> RidgeEstimate:
    """Plain diagonal ridge ``omega = (S + v*I)^-1``, ``v > 0``."""
    return fit("archetype-2", S, lam)


def fit(kind: str, S, lam: float, target=None) -> RidgeEstimate:
    """Fit any estimator by kind name.

    ``target`` is required for "archetype-1" and "alt-1" (a
    :class:`Target` or ``"ddiag"``) and ignored by the other two kinds.

    Every kind runs the same steps: validate ``S``, the penalty (in the
    kind's own domain) and the target once; decompose ``S``, ``S - lam*T``
    or ``(1-lam)S + lam*G`` once; map its eigenvalues by the kind's rule;
    and rebuild ``omega`` and ``sigma`` from the one set of eigenvectors.
    """
    if kind not in KINDS:
        raise InvalidPenaltyError(f"unknown estimator kind {kind!r}; expected one of {KINDS}")
    targeted = kind in ("alt-1", "archetype-1")
    if targeted and target is None:
        raise InvalidTargetError(f"{kind} requires a target")
    S = check_symmetric(S, "S")
    lam = _check_penalty(lam, upper=1.0 if kind == "archetype-1" else np.inf)
    target = resolve_target(target, S) if targeted else None
    if kind == "alt-1" and target.is_zero:
        kind = "alt-2"
    p = S.shape[0]
    if kind == "alt-1":
        M = S - lam * target.matrix(p)
    elif kind == "archetype-1":
        M = (1.0 - lam) * S + lam * target.gamma(p)
    else:
        M = S
    vals, vecs = eig_sym_unchecked(M)
    if kind == "archetype-1" and vals[-1] <= pd_tolerance(vals):
        raise NotPositiveDefiniteError(
            f"combined matrix not p.d. (min eigenvalue {vals[-1]:.3e})"
        )
    if kind == "archetype-2" and vals[-1] + lam <= 0:
        raise NotPositiveDefiniteError(
            f"S + lam*I not p.d. (min eigenvalue {vals[-1] + lam:.3e})"
        )
    cov, prec = _eigen_map(kind, vals, lam)
    omega, sigma = (symmetrize((vecs * x) @ vecs.T) for x in (prec, cov))
    if kind == "alt-2":
        target = Target.zero()
    return RidgeEstimate(omega, sigma, kind, lam, target)


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
    if kind not in KINDS:
        raise InvalidPenaltyError(f"unknown estimator kind {kind!r}; expected one of {KINDS}")
    lam = _check_penalty(lam, upper=1.0 if kind == "archetype-1" else np.inf)
    psi = float(psi)
    if kind == "alt-1":
        if not np.isfinite(psi) or psi < 0:
            raise InvalidTargetError(f"alt-1 scalar target needs psi >= 0, got {psi}")
        d = d - lam * psi
    elif kind == "archetype-1":
        if not np.isfinite(psi) or psi <= 0:
            raise InvalidTargetError(f"archetype-1 scalar target needs psi > 0, got {psi}")
        d = (1.0 - lam) * d + lam / psi
    return _eigen_map(kind, d, lam)[0]


def penalty_map_1(lam_a: float) -> float:
    """Map an alternative penalty to the archetype-1 scale: ``1 - 1/(lam_a + 1)``."""
    lam_a = _check_penalty(lam_a)
    return 1.0 - 1.0 / (lam_a + 1.0)


def penalty_map_2(lam_2: float) -> float:
    """Map an archetype-2 penalty to the alternative scale: ``lam_2^2``."""
    lam_2 = _check_penalty(lam_2)
    return lam_2 * lam_2


# ---------------------------------------------------------------------------
# Diagnostics


def loglik(omega, S) -> float:
    """Unpenalized Gaussian log-likelihood kernel ``ln|omega| - tr(S omega)``.

    ``omega`` must be p.d. (checked via Cholesky).
    """
    omega = check_symmetric(omega, "omega")
    S = check_symmetric(S, "S")
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
