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
``(..., p, p)``. With no target or a scalar one ``psi*I`` (the thin rule
:func:`_shares_S`) it decomposes ``S`` once for the whole grid and shifts
the eigenvalues. archetype-1 with a ``ddiag``, diagonal or full target
``T = c*T'`` decomposes ``R = T'^(1/2) S T'^(1/2)`` once instead, and holds
a scaled fit (:attr:`RidgeEstimate.scaled`) unless the congruence leaves a
p.d. verdict undecided. Such a call, and alt-1 with such a target,
decomposes one matrix per penalty (see :func:`fit`). Callers that stack
many fits take their grid blocks from :func:`grid_blocks`, and read a fit
of either form through :meth:`RidgeEstimate.eigen_rows`.

:func:`fit_data` fits from the data rows instead of ``S``. With fewer rows
than columns and no or a scalar target, it takes the n nonzero eigenpairs
of ``S`` from the thin SVD of the data; the other p - n eigenvalues are 0
and map to one null pair (Hastie & Tibshirani 2004, "Efficient quadratic
regularization for expression arrays"). Everything else is :func:`fit` on
the sample covariance.
"""

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import (
    EmptyDataError,
    InvalidMatrixError,
    InvalidPenaltyError,
    InvalidTargetError,
    NotPositiveDefiniteError,
)
from .linalg import (
    check_symmetric,
    cholesky_pd,
    eig_sym_unchecked,
    inv_pd,
    pd_under_congruence,
    require_pd,
    same_shape,
    symmetrize,
)

#: Canonical estimator kind names (also the CLI spelling).
KINDS = ("archetype-1", "archetype-2", "alt-1", "alt-2")

# The kinds that take a target.
_TARGETED = ("alt-1", "archetype-1")

#: Sentinel for the data-driven diagonal target, resolved per fit from S.
DDIAG = "ddiag"

#: Byte budget for one block of stacked items (grid points or replicates).
STACK_BYTES = 2**18

_OVERFLOW = "data overflow: Y'Y/n is not finite although every data entry is; rescale the data"


def stack_slices(count: int, item: int) -> list:
    """Split ``count`` items of ``item`` floats each into blocks within :data:`STACK_BYTES`."""
    step = max(1, STACK_BYTES // (8 * item))
    return [slice(start, min(start + step, count)) for start in range(0, count, step)]


def _shares_S(kind: str, target) -> bool:
    """The thin rule: no target, or a scalar one, makes the kind's matrix a shift of ``S``."""
    return kind not in _TARGETED or isinstance(target, Target) and target.kind == "scalar"


def grid_blocks(kind: str, target, count: int, p: int) -> list:
    """:func:`stack_slices` blocks of ``count`` penalties for fits of one p x p ``S``: p
    eigenvalues a penalty where :func:`fit` decomposes one matrix for the grid, else p x p."""
    return stack_slices(count, p if kind == "archetype-1" or _shares_S(kind, target) else p * p)


# ---------------------------------------------------------------------------
# Targets


@dataclass(frozen=True)
class Target:
    """Precision-side shrinkage target.

    One of three variants: ``scalar`` (psi * I, psi >= 0; :meth:`zero` is
    psi = 0), ``diagonal`` (positive entries; a stack ``(..., p)`` holds one
    diagonal per matrix of a stacked fit), or ``full`` (symmetric positive
    definite). Targets compare and hash by value. Use the factory
    classmethods; the raw constructor performs no validation.

    archetype-1 fits a diagonal or full target through the split
    ``T = c*T'`` (``_split``), applying powers of ``T'`` with
    :meth:`power`.
    """

    kind: str
    psi: float = 0.0
    values: np.ndarray | None = None

    def __eq__(self, other) -> bool:
        if not isinstance(other, Target):
            return NotImplemented
        if (self.kind, self.psi) != (other.kind, other.psi):
            return False
        if self.values is None or other.values is None:
            return self.values is other.values
        return self.values.shape == other.values.shape and bool(np.all(self.values == other.values))

    def __hash__(self) -> int:
        return hash((self.kind, self.psi, None if self.values is None else self.values.shape))

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
        v = np.array(values, dtype=float, ndmin=1)  # a copy, so the caller's array may change
        if v.size == 0 or not np.all(np.isfinite(v)) or np.any(v <= 0):
            raise InvalidTargetError("diagonal target needs finite positive entries")
        v.flags.writeable = False
        return cls("diagonal", values=v)

    @classmethod
    def full(cls, matrix) -> "Target":
        target = cls("full", values=check_symmetric(matrix, "full target"))
        target.values.flags.writeable = False  # matrix() hands it out
        require_pd(target._pairs[0], "full target must be p.d.", InvalidTargetError)
        return target

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
        """The target as a dense (p, p) array; a full target's own, read-only matrix."""
        if self.kind != "full":
            return self.diagonal_entries(p)[..., None] * np.eye(p)
        if self.values.shape[0] != p:
            raise InvalidTargetError(
                f"full target is {self.values.shape[0]}x{self.values.shape[0]}, expected {p}"
            )
        return self.values

    @cached_property
    def _pairs(self) -> tuple:
        """A full target's eigenpairs: :meth:`full`'s check, the split and ``T^-1`` read them."""
        return eig_sym_unchecked(self.values)

    @cached_property
    def _split(self) -> tuple:
        """``(k, h, Q)`` with ``T = 2^k * Q diag(h^2) Q'``, for a diagonal or full target.

        ``c = 2^k`` is the least power of 4 at or above T's largest
        eigenvalue (one per stacked diagonal), so ``T' = T/c`` has
        eigenvalues ``h^2 <= 1``, and ``h = sqrt(e) / 2^(k/2)`` rescales
        ``sqrt(e)`` exactly. ``k`` may reach 1024, where ``c`` itself
        overflows; the fit reads only ``h`` and ``1/c``. ``Q`` is None for
        a diagonal target, and a full one's eigenvectors otherwise.
        """
        if self.kind == "diagonal":
            e, Q = self.values, None
            top = e.max(axis=-1)
        else:
            e, Q = self._pairs
            top = e[0]
        m, k = np.frexp(top)
        k = k - (m == 0.5)  # top <= 2^k
        k = k + k % 2
        return k, np.ldexp(np.sqrt(e), -(k // 2)[..., None]), Q

    def power(self, a, exponent: float) -> np.ndarray:
        """``T'^exponent @ a`` for an array ``a`` of shape ``(..., p, k)``.

        A diagonal target scales the rows of ``a``, a stacked one matched
        with ``a``'s leading axes; a full target multiplies by
        ``Q diag(h^(2*exponent)) Q'`` (see ``_split``).
        """
        p = a.shape[-2]
        _, h, Q = self._split
        f = h ** (2.0 * exponent)
        if Q is None:
            self.diagonal_entries(p)  # the size check
            return f.reshape(f.shape[:-1] + (1,) * (a.ndim - f.ndim - 1) + (p, 1)) * a
        self.matrix(p)
        return Q @ (f[:, None] * (Q.T @ a))

    def log_det(self):
        """``ln|T'|`` of the split ``T = c*T'``; one per stacked diagonal."""
        return 2.0 * np.sum(np.log(self._split[1]), axis=-1)

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

    A ``scaled`` fit (archetype-1 with a diagonal or full target
    ``T = c*T'``, fitted by congruence; see :func:`fit`) holds the factors
    of ``R = T'^(1/2) S T'^(1/2)``:
    ``omega = T'^(1/2) V diag(prec) V' T'^(1/2)`` and
    ``sigma = T'^(-1/2) V diag(cov) V' T'^(-1/2)``, so ``prec`` and ``cov``
    are not the spectra of ``omega`` and ``sigma``; they have the same signs.
    """

    vectors: np.ndarray
    prec: np.ndarray
    cov: np.ndarray
    kind: str
    lam: float | np.ndarray
    target: Target | None
    null_prec: np.ndarray | None = None
    null_cov: np.ndarray | None = None
    scaled: bool = False

    @cached_property
    def omega(self) -> np.ndarray:
        return self._build(self.prec, self.null_prec, 0.5)

    @cached_property
    def sigma(self) -> np.ndarray:
        return self._build(self.cov, self.null_cov, -0.5)

    def _build(self, values, null, exponent) -> np.ndarray:
        V = self.target.power(self.vectors, exponent) if self.scaled else self.vectors
        Vt = V.swapaxes(-1, -2)
        if null is None:
            return symmetrize((V * values[..., None, :]) @ Vt)
        out = (V * (values - null[..., None])[..., None, :]) @ Vt
        idx = np.arange(self.p)
        out[..., idx, idx] += null[..., None]
        return symmetrize(out)

    @property
    def p(self) -> int:
        return self.vectors.shape[-2]

    def eigen_rows(self, rows) -> tuple:
        """``(X, offset)`` with ``rows omega rows' = X V diag(prec) V' X'`` and ``ln|omega| =
        sum(ln prec) + offset`` for a dense fit's ``V = vectors``: the ``rows`` (n x p) and 0,
        or ``rows T'^(1/2)`` and ``ln|T'|`` for a scaled fit."""
        if not self.scaled:
            return rows, 0.0
        return self.target.power(rows.T, 0.5).T, self.target.log_det()


def _check_penalty(lam, upper: float = np.inf, error=InvalidPenaltyError):
    """A penalty, or a 1-D grid of them, each in ``(0, upper]``; else ``error``.

    Returns a float for a scalar and a float array for a grid.
    """
    grid = np.asarray(lam, dtype=float)
    if grid.ndim > 1 or grid.size == 0:
        raise error(f"penalty must be a scalar or a 1-D grid, got shape {grid.shape}")
    bad = ~(np.isfinite(grid) & (grid > 0) & (grid <= upper))
    if np.any(bad):
        bound = f"(0.0, {upper}]" if np.isfinite(upper) else "(0.0, inf)"
        raise error(f"penalty must be in {bound}, got {grid[bad].flat[0]}")
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
        S = symmetrize(S)
    if not np.all(np.isfinite(S)):
        raise InvalidMatrixError(_OVERFLOW)
    return S


def _eigen_map(kind: str, m: np.ndarray, lam):
    """Covariance- and precision-side eigenvalues of a fit.

    ``m`` is the spectrum of the kind's matrix: ``S - lam*T`` for the
    alternative kinds (``T = 0`` for alt-2), ``(1-lam)S + lam*G`` for
    archetype-1 (or its congruence ``(1-lam)R + (lam/c)I``) and
    ``S + lam*I`` for archetype-2, which the archetypes invert. The
    alternative covariance value is ``sqrt(lam + m^2/4) + m/2``
    and the precision value its reciprocal; each is evaluated on the
    cancellation-free side of the identity ``(R + m/2)(R - m/2) = lam``,
    via ``R + |m|/2``. ``m`` and ``lam`` broadcast.
    """
    if kind in ("archetype-1", "archetype-2"):
        return m, 1.0 / m
    big = np.sqrt(lam + 0.25 * m * m) + 0.5 * np.abs(m)
    pos = m >= 0
    return np.where(pos, big, lam / big), np.where(pos, 1.0 / big, big / lam)


def fit(kind: str, S, lam, target=None) -> RidgeEstimate:
    """Fit any estimator by kind name, over a penalty grid or a stack of ``S``.

    ``target`` is required for "archetype-1" and "alt-1" (a
    :class:`Target` or ``"ddiag"``) and ignored by the other two kinds.

    ``lam`` is a penalty or a 1-D grid, and ``S`` a matrix or a stack
    ``(..., p, p)``. The estimate's leading axes are ``S``'s stack axes
    followed by the grid axis; a scalar ``lam`` with a 2-D ``S`` gives a
    plain 2-D fit. Every slice equals, bit for bit, the fit of that ``S``
    at that penalty alone (but see archetype-1's combined matrices below).

    Every kind runs the same steps: validate ``S``, every penalty (in the
    kind's own domain) and the target once; decompose one matrix per ``S``,
    or per ``S`` and penalty; and map the eigenvalues by the kind's rule.
    The estimate keeps the eigenvectors and both mapped spectra.

    * No target, or a scalar one (:func:`_shares_S`): the kind's matrix is
      a shift of ``S``, so ``S`` is decomposed once for the whole grid.
    * archetype-1 with a ``ddiag``, diagonal or full target ``T = c*T'``
      (``c`` a power of 4): ``(1-lam)S + lam*T^-1`` is the congruence
      ``T'^(-1/2) [(1-lam)R + (lam/c)I] T'^(-1/2)`` of
      ``R = T'^(1/2) S T'^(1/2)``, and inversion commutes with it. So ``R``
      is decomposed once for the whole grid, its eigenvalues take the
      scalar-target shift at ``psi = c``, and the estimate is
      :attr:`RidgeEstimate.scaled`. An ``R`` that is not finite raises
      before ``eigh`` runs. The p.d. verdict is the combined matrix's: a
      call whose every shifted spectrum passes the eigenvalue rule for any
      congruence by ``T'`` is p.d.; any other call takes the combined
      matrices ``(1-lam)S + lam*T^-1`` themselves, one per penalty, and
      holds an unscaled fit of them (:func:`_per_penalty`), whose slices at
      penalties the congruence decides match their own fits to rounding.
    * alt-1 with a ``ddiag``, diagonal or full target: one ``S - lam*T`` per
      ``S`` and penalty (:func:`_per_penalty`).
    """
    S = check_symmetric(S, "S", stack=True)
    kind, lam, target = _resolve(kind, lam, target, S)
    if _shares_S(kind, target):
        return _spectral(kind, *eig_sym_unchecked(S), lam, target)
    if kind == "archetype-1":
        return _congruent(S, lam, target)
    return _per_penalty(kind, S, lam, target)


def _congruent(S, lam, target) -> RidgeEstimate:
    """archetype-1 with a diagonal or full target, from one ``eigh`` of ``R`` per ``S``.

    The spectrum of ``N = (1-lam)R + (lam/c)I`` has the signs of the
    combined matrix ``M``'s but not its magnitudes. A call whose every ``N``
    passes :func:`~ridgeprec.linalg.pd_under_congruence`, with ``T``'s
    condition number as the spread, is decided p.d. and held scaled; any
    other call is :func:`_per_penalty`'s.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # caught below, before eigh
        R = symmetrize(target.power(target.power(S, 0.5).swapaxes(-1, -2), 0.5))
    if not np.all(np.isfinite(R)):
        raise InvalidMatrixError(
            "fit overflow: T'^(1/2) S T'^(1/2) is not finite; rescale the data or the target"
        )
    k, h, _ = target._split
    r, vecs = eig_sym_unchecked(R)
    axes = (1,) * np.ndim(lam)  # the grid axis, if any
    with np.errstate(over="ignore"):  # 1/c of a tiny target, or an inf spread, decides nothing
        g = np.ldexp(1.0, -np.reshape(k, np.shape(k) + axes + (1,)))
        spread = np.reshape((h.max(axis=-1) / h.min(axis=-1)) ** 2, np.shape(k) + axes)
        # N's largest and smallest eigenvalues: the shift keeps their order.
        ends = r[..., [0, -1]].reshape(r.shape[:-1] + axes + (2,))
        ends = _shift("archetype-1", ends, np.asarray(lam)[..., None], 0.0, g)
    if not np.all(pd_under_congruence(ends, spread)):
        return _per_penalty("archetype-1", S, lam, target)
    return replace(_spectral("archetype-1", r, vecs, lam, target, g), scaled=True)


def _per_penalty(kind: str, S, lam, target) -> RidgeEstimate:
    """The kind's matrix for each ``S`` and penalty, all decomposed in one ``eigh`` call.

    alt-1 takes ``S - lam*T``, and archetype-1 the combined matrix
    ``M = (1-lam)S + lam*T^-1`` where :func:`_congruent` leaves the verdict
    undecided (a near-singular ``M`` or an ill-conditioned target): ``M``'s
    own spectrum decides, and ``M`` is inverted on its own eigenvectors. A
    diagonal target touches the diagonal only. The matrices are built in the
    checked copy of ``S`` (a copy widened by the grid axis, if any), never
    the caller's.
    """
    p = S.shape[-1]
    if target.kind != "full":
        G = target.diagonal_entries(p)
        with np.errstate(over="ignore"):  # caught below, before eigh
            G = G if kind == "alt-1" else 1.0 / G
    elif kind == "alt-1":
        G = target.matrix(p)
    else:
        e, Q = target._pairs  # inv_pd(T), bit for bit, from the target's own eigenpairs
        G = symmetrize((Q / e) @ Q.T)
    grid = np.ndim(lam) == 1
    if grid:  # the grid axis follows S's stack axes
        S = S[..., None, :, :]
    lam_v = np.asarray(lam)[..., None]  # against a spectrum (..., p)
    lam_m = lam_v[..., None]  # against a stack (..., p, p)
    shape = np.broadcast_shapes(S.shape, lam_m.shape)
    # The checked copy is this call's own; reuse it when no grid axis widens it.
    M = S if shape == S.shape else np.array(np.broadcast_to(S, shape))
    sign = -1.0 if kind == "alt-1" else 1.0  # S - lam*T as S + (-lam)*T: T is not negated
    with np.errstate(over="ignore"):  # an overflow is caught below, before eigh
        if kind == "archetype-1":
            M *= 1.0 - lam_m
        if target.kind == "full":
            M += (sign * lam_m) * G
        else:
            idx = np.arange(p)
            M[..., idx, idx] += (sign * lam_v) * (G[..., None, :] if grid else G)
    _check_fine(np.all(np.isfinite(M), axis=(-2, -1)), lam)
    return _estimate(kind, *eig_sym_unchecked(M), lam, target)


def fit_data(kind: str, Y, lam, target=None) -> RidgeEstimate:
    """:func:`fit` of the sample covariance ``S = Y'Y/n``, thin when n < p.

    ``Y`` is an n x p data matrix or a stack ``(..., n, p)``; ``lam`` and
    ``target`` are as for :func:`fit`, and so are the estimate's axes. The
    fit is thin when n < p and the kind's matrix is a shift of ``S``
    (:func:`_shares_S`). Then the n nonzero eigenvalues of ``S`` and their
    eigenvectors are the squared singular values and right singular vectors
    of ``Y/sqrt(n)``, shifted as in :func:`fit`, and the p - n zero
    eigenvalues map to one null pair (see :class:`RidgeEstimate`). A
    singular value that is 0 maps exactly onto that pair, so no rank cut is
    needed. Every other case returns ``fit(kind, sample_cov(Y), lam,
    target)``. The route depends only on n, p and the kind of ``target``;
    the two agree to rounding, but not bit for bit.
    """
    Y = prepare_data(Y, stack=True)
    n, p = Y.shape[-2:]
    if n >= p or not _shares_S(kind, target):
        return fit(kind, sample_cov(Y), lam, target)
    kind, lam, target = _resolve(kind, lam, target)
    _, s, vt = np.linalg.svd(Y / np.sqrt(n), full_matrices=False)
    with np.errstate(over="ignore"):
        d = s * s
    if not np.all(np.isfinite(d)):
        raise InvalidMatrixError(_OVERFLOW)
    # The n nonzero eigenvalues of S, then one exact 0 for its null space.
    d = np.concatenate([d, np.zeros(d.shape[:-1] + (1,))], axis=-1)
    return _spectral(kind, d, vt.swapaxes(-1, -2), lam, target)


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


def _spectral(kind: str, d, vecs, lam, target, g=None) -> RidgeEstimate:
    """Fit from the descending spectrum ``d`` of ``S`` and its eigenvectors; no or scalar target.

    archetype-1's scaled fit passes ``R``'s instead, and ``g = 1/c`` of its
    split, shaped to broadcast against the grid's spectra.
    """
    if np.ndim(lam) == 1:
        d = d[..., None, :]
        vecs = np.broadcast_to(vecs[..., None, :, :], vecs.shape[:-2] + lam.shape + vecs.shape[-2:])
    with np.errstate(over="ignore"):  # an overflow is caught in _estimate
        vals = _shift(kind, d, np.asarray(lam)[..., None], getattr(target, "psi", 0.0), g)
    return _estimate(kind, vals, vecs, lam, target)


def _shift(kind: str, d, lam_v, psi, g=None):
    """Spectrum of the kind's matrix from the spectrum ``d`` of ``S``; target ``psi*I``.

    archetype-1 adds ``lam*g`` for its ``G = T^-1``: ``g = 1/psi`` unless given.
    """
    if kind == "alt-1":
        return d - lam_v * psi
    if kind == "archetype-1":
        return (1.0 - lam_v) * d + lam_v * (1.0 / psi if g is None else g)
    return d + lam_v if kind == "archetype-2" else d


def _estimate(kind: str, vals, vecs, lam, target) -> RidgeEstimate:
    """Check the descending spectrum ``vals`` of the kind's matrix, map it, hold the fit.

    archetype-1 needs its combined matrix finite and p.d., and archetype-2
    needs ``S + lam*I`` p.d. A value that is not finite and positive names
    its penalty (the first in grid order). A thin fit's last value is its
    null space's.
    """
    low = vals[..., -1]
    if kind == "archetype-1":
        _check_fine(np.all(np.isfinite(vals), axis=-1), lam)  # an inf voids the p.d. cutoff
        require_pd(vals, "combined matrix not p.d.")
    if kind == "archetype-2" and np.any(low <= 0):
        raise NotPositiveDefiniteError(
            f"S + lam*I not p.d. (min eigenvalue {np.extract(low <= 0, low)[0]:.3e})"
        )
    with np.errstate(over="ignore"):
        cov, prec = _eigen_map(kind, vals, np.asarray(lam)[..., None])
    _check_fine(np.all((cov > 0) & (cov < np.inf) & (prec > 0) & (prec < np.inf), axis=-1), lam)
    target = Target.zero() if kind == "alt-2" else target
    if vals.shape[-1] == vecs.shape[-1]:
        return RidgeEstimate(vecs, prec, cov, kind, lam, target)
    return RidgeEstimate(
        vecs, prec[..., :-1], cov[..., :-1], kind, lam, target, prec[..., -1], cov[..., -1]
    )


def _check_fine(fine, lam) -> None:
    """Raise the fit-overflow error at the first penalty, in grid order, where ``fine`` fails.

    ``fine`` holds one flag per fit, over the fit's leading axes (the grid axis last).
    """
    if not np.all(fine):
        grid = np.atleast_1d(lam)
        first = grid[~np.all(fine.reshape(-1, grid.size), axis=0)][0]
        raise InvalidMatrixError(
            f"fit overflow at penalty {first}: an eigenvalue of the fit is not finite and "
            "positive; rescale the data or the penalty"
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
    Target.scalar(psi)).sigma``, and an overflow raises :func:`fit`'s
    error.
    """
    d = np.atleast_1d(np.asarray(d, dtype=float))
    if not np.all(np.isfinite(d)):
        raise InvalidMatrixError("eigenvalues must be finite")
    target = Target.scalar(psi) if kind in _TARGETED else None
    kind, lam, target = _resolve(kind, lam, target)
    lam_v = np.asarray(lam)[..., None]
    with np.errstate(over="ignore"):  # caught below
        cov, prec = _eigen_map(kind, _shift(kind, d, lam_v, getattr(target, "psi", 0.0)), lam_v)
    _check_fine(np.all(np.isfinite(cov) & np.isfinite(prec)), lam)
    return cov


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
    same_shape(omega, S, "omega and S")
    L = cholesky_pd(omega, "loglik requires a p.d. omega")
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
    same_shape(omega, S, "omega and S")
    lam = _check_penalty(lam)
    target = resolve_target(target, S)
    T = target.matrix(S.shape[0])
    resid = inv_pd(omega) - (S - lam * T) - lam * omega
    return float(np.linalg.norm(resid))
