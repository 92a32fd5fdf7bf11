"""Conditional-independence graph extraction from a precision estimate.

Pipeline: precision matrix -> partial correlations -> two-component mixture
fit on the off-diagonal values -> per-edge local false discovery rates ->
edge selection and support sparsification.

The null density for a partial correlation r under kappa effective degrees
of freedom is ``f0(r; kappa) = |r| * B(r^2; 1/2, (kappa-1)/2)`` with B the
Beta density, which simplifies to
``(1 - r^2)^((kappa-3)/2) / Beta(1/2, (kappa-1)/2)`` and integrates to one
on [-1, 1]. The mixture is ``f = eta0 f0 + (1 - eta0) f_alt``; the fit
recipe is pinned:

* kappa: truncated maximum likelihood of f0 on the null-dominated central
  region |r| <= c with ``c = min(q75(|values|), 0.75)``, correcting for
  the truncation so the estimate is consistent when the data really are
  null. The quantile keeps the fit on the central bulk when shrinkage
  concentrates every value near zero; the 0.75 cap keeps alternative mass
  near the domain edges out of the null fit when it is abundant;
* eta0: central matching, the ratio of the mixture density to the fitted
  null density at r = 0, clamped to [0, 1];
* mixture density: Gaussian kernel density estimate with Silverman's
  bandwidth h, reflected at both -1 and +1. It is linearly binned on a
  grid over [-1, 1] of spacing h/200 (at most 2**20 intervals, which bounds
  memory when h is tiny), convolved by one real FFT and read off the nodes
  by linear interpolation: O(m + B log B) for m values and B nodes instead
  of the exact sum's O(m^2). Against the exact reflected kernel sum the
  relative error at the values is below 1e-4 and the error anywhere on
  [-1, 1] below 1e-5 of the peak (at most 1.3e-5 and 5.1e-6 on the test
  fixtures; a spacing of h/100 gives 5.3e-5 and 2.0e-5).

Edge (j, j') is selected when ``1 - lFDR >= threshold`` with
``lFDR = min(1, eta0 f0 / f)`` (equal to the two-component posterior null
probability when the alternative density is recovered as
``max(0, (f - eta0 f0)/(1 - eta0))``).
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import cv, estimators
from .errors import (
    DegenerateFitError,
    InsufficientDataError,
    InvalidParameterError,
    NotPositiveDefiniteError,
)
from .linalg import check_symmetric, pd_tolerance, symmetrize

#: Quantile of |values| bounding the null-dominated region used for the
#: kappa fit.
CENTRAL_FRACTION = 0.75
#: Hard cap on the central cutoff: values with |r| beyond it are never
#: attributed to the null component, however heavy their share.
CENTRAL_CAP = 0.75
#: Grid nodes per bandwidth of the binned mixture density.
KDE_NODES_PER_BANDWIDTH = 200
#: Cap on the grid intervals over [-1, 1]; it bounds the FFT at 2**22 points.
KDE_MAX_INTERVALS = 2**20
#: Kernel truncation in bandwidths; exp(-40**2 / 2) underflows to zero.
KDE_KERNEL_REACH = 40


# ---------------------------------------------------------------------------
# Partial correlations


def partial_correlations(omega, spectrum=None) -> np.ndarray:
    """Standardize a p.d. precision matrix to partial correlations.

    ``P[j, j'] = -omega[j, j'] / sqrt(omega[j, j] omega[j', j'])`` with unit
    diagonal. Off-diagonal entries lie in (-1, 1) for p.d. input. The p.d.
    check reads ``spectrum``, the eigenvalues of ``omega`` when they are
    known already (a fit's ``prec``), and runs ``eigvalsh`` otherwise.
    """
    omega = check_symmetric(omega, "omega")
    vals = np.sort(spectrum) if spectrum is not None else np.linalg.eigvalsh(omega)
    if vals[0] <= pd_tolerance(vals):
        raise NotPositiveDefiniteError(
            f"partial correlations require a p.d. precision (min eigenvalue {vals[0]:.3e})"
        )
    d = np.sqrt(np.diag(omega))
    P = -omega / np.outer(d, d)
    np.fill_diagonal(P, 1.0)
    return symmetrize(P)


def offdiagonal_values(P) -> np.ndarray:
    """The p(p-1)/2 nonredundant off-diagonal entries (upper triangle, row-major)."""
    P = np.asarray(P, dtype=float)
    iu = np.triu_indices(P.shape[0], k=1)
    return P[iu].copy()


# ---------------------------------------------------------------------------
# Null density and mixture fit


def _check_kappa(kappa: float) -> float:
    kappa = float(kappa)
    if not np.isfinite(kappa) or kappa <= 1.0:
        raise InvalidParameterError(f"kappa must be finite and > 1, got {kappa}")
    return kappa


def null_density(r, kappa: float):
    """Null density of a partial correlation with ``kappa`` degrees of freedom.

    Vectorized over ``r`` (must lie in [-1, 1]); scalar in, scalar out.
    """
    kappa = _check_kappa(kappa)
    arr = np.atleast_1d(np.asarray(r, dtype=float))
    if np.any(np.abs(arr) > 1.0):
        raise InvalidParameterError("null density domain is [-1, 1]")
    out = np.exp(_log_null_density(arr, kappa))
    return out if np.ndim(r) else float(out[0])


def _log_null_density(r: np.ndarray, kappa: float) -> np.ndarray:
    """``ln f0(r; kappa)`` for an array ``r`` in [-1, 1], unvalidated."""
    from scipy import special

    expo = 0.5 * (kappa - 3.0)
    lognorm = special.betaln(0.5, 0.5 * (kappa - 1.0))
    with np.errstate(divide="ignore"):
        return expo * np.log1p(-r * r) - lognorm


def _fit_kappa(values: np.ndarray, cutoff: float) -> float:
    """Truncated ML for kappa on the |values| <= cutoff subset.

    The log-likelihood of the kept values under f0 restricted to the
    central region subtracts ``m * ln P0(|r| <= cutoff; kappa)``, so the
    estimate stays consistent under truncation.
    """
    from scipy import optimize, special

    kept = values[np.abs(values) <= cutoff]
    m = kept.size

    def nll(u: float) -> float:
        kappa = 1.0 + math.exp(u)
        mass = special.betainc(0.5, 0.5 * (kappa - 1.0), cutoff * cutoff)
        if mass <= 0.0:
            return np.inf
        return -float(np.sum(_log_null_density(kept, kappa))) + m * math.log(mass)

    res = optimize.minimize_scalar(
        nll,
        bounds=(math.log(1e-2), math.log(1e7)),
        method="bounded",
        options={"xatol": 1e-8},
    )
    return 1.0 + math.exp(float(res.x))


@dataclass(frozen=True)
class LfdrFit:
    """Fitted two-component mixture over partial-correlation values."""

    eta0: float
    kappa: float
    values: np.ndarray = field(compare=False)
    bandwidth: float
    cutoff: float

    def mixture_density(self, r):
        """Reflected-KDE mixture density, evaluable anywhere on [-1, 1].

        The values are linearly binned onto :func:`kde_nodes`; their
        reflections ``2 - v`` and ``-2 - v`` land on the mirrored nodes of
        [-3, 3]. One real FFT convolves the counts with the Gaussian kernel,
        truncated at 40 bandwidths and scaled to unit mass on the grid (so
        the density still integrates to one when the node cap makes the
        spacing wider than the bandwidth). FFT round-off below zero is
        clipped, and the density at ``r`` is read off the nodes by linear
        interpolation.
        """
        arr = np.atleast_1d(np.asarray(r, dtype=float))
        nodes = kde_nodes(self.bandwidth)
        n = nodes.size - 1
        delta = 2.0 / n
        pos = (self.values + 1.0) / delta
        left = np.clip(np.floor(pos).astype(np.intp), 0, n - 1)
        frac = pos - left
        counts = np.bincount(left, 1.0 - frac, n + 1) + np.bincount(left + 1, frac, n + 1)
        extended = np.zeros(3 * n + 1)
        extended[: n + 1] += counts[::-1]
        extended[n : 2 * n + 1] += counts
        extended[2 * n :] += counts[::-1]
        reach = math.ceil(KDE_KERNEL_REACH * self.bandwidth / delta)
        z = np.arange(-reach, reach + 1) * (delta / self.bandwidth)
        kernel = np.exp(-0.5 * z * z)
        kernel /= kernel.sum() * delta * self.values.size
        size = 1 << (extended.size + kernel.size - 2).bit_length()
        conv = np.fft.irfft(np.fft.rfft(extended, size) * np.fft.rfft(kernel, size), size)
        density = np.maximum(conv[n + reach : 2 * n + reach + 1], 0.0)
        out = np.interp(arr, nodes, density)
        return out if np.ndim(r) else float(out[0])


def kde_nodes(bandwidth: float) -> np.ndarray:
    """Nodes of the binned mixture density: [-1, 1] at spacing <= bandwidth/200.

    The interval count is capped at ``KDE_MAX_INTERVALS``, which bounds the
    memory a tiny bandwidth can ask for; the spacing is then coarser.
    """
    intervals = min(2.0 * KDE_NODES_PER_BANDWIDTH / bandwidth, KDE_MAX_INTERVALS)
    return np.linspace(-1.0, 1.0, math.ceil(intervals) + 1)


def fit_lfdr(values) -> LfdrFit:
    """Fit the null/alternative mixture to partial-correlation values.

    Requires at least 10 values, all strictly inside (-1, 1), not all
    identical. See the module docstring for the pinned recipe.
    """
    values = np.asarray(values, dtype=float).ravel()
    if values.size < 10:
        raise InsufficientDataError(
            f"mixture fit needs at least 10 values, got {values.size}"
        )
    if not np.all(np.isfinite(values)) or np.any(np.abs(values) >= 1.0):
        raise InvalidParameterError("values must be finite and strictly inside (-1, 1)")
    if np.ptp(values) == 0.0:
        raise DegenerateFitError("all values identical; no mixture to fit")
    cutoff = min(float(np.quantile(np.abs(values), CENTRAL_FRACTION)), CENTRAL_CAP)
    kept = values[np.abs(values) <= cutoff]
    if kept.size < 5:
        raise DegenerateFitError(
            f"only {kept.size} values in the central region |r| <= {cutoff:g}"
        )
    if np.ptp(kept) == 0.0:
        raise DegenerateFitError("central-region values are all identical")
    kappa = _fit_kappa(values, cutoff)
    sd = float(np.std(values))
    iqr = float(np.quantile(values, 0.75) - np.quantile(values, 0.25))
    scale = min(sd, iqr / 1.34) if iqr > 0 else sd
    bandwidth = 0.9 * scale * values.size ** (-0.2)
    fit = LfdrFit(1.0, kappa, values.copy(), bandwidth, cutoff)
    eta0 = float(np.clip(fit.mixture_density(0.0) / null_density(0.0, kappa), 0.0, 1.0))
    return LfdrFit(eta0, kappa, values.copy(), bandwidth, cutoff)


# ---------------------------------------------------------------------------
# Per-edge lFDR, selection, sparsification


def lfdr_values(values, fit: LfdrFit) -> np.ndarray:
    """Local FDR for each value: ``min(1, eta0 f0 / f)``.

    ``eta0 == 1`` short-circuits to all ones (the pure-null posterior).
    """
    values = np.atleast_1d(np.asarray(values, dtype=float))
    if fit.eta0 >= 1.0:
        return np.ones_like(values)
    f0 = null_density(values, fit.kappa)
    f = fit.mixture_density(values)
    return np.minimum(1.0, fit.eta0 * np.asarray(f0) / f)


def edge_probabilities(P, fit: LfdrFit) -> np.ndarray:
    """Presence probability ``1 - lFDR`` per pair j < j', in ``np.triu_indices`` order."""
    return 1.0 - lfdr_values(offdiagonal_values(P), fit)


def select_edges(probs, p: int, threshold: float = 0.99) -> set:
    """Pairs whose :func:`edge_probabilities` entry reaches ``threshold``."""
    threshold = float(threshold)
    if not 0.0 <= threshold <= 1.0:
        raise InvalidParameterError(f"threshold must be in [0, 1], got {threshold}")
    probs = np.asarray(probs, dtype=float)
    if probs.shape != (p * (p - 1) // 2,):
        raise InvalidParameterError(f"need {p * (p - 1) // 2} probabilities for p={p}")
    pairs = np.transpose(np.triu_indices(p, k=1))
    return {(i, j) for i, j in pairs[probs >= threshold].tolist()}


def sparsify(omega, edges):
    """Zero the off-diagonal entries outside ``edges``.

    Returns ``(sparsified, min_eigenvalue)``; the smallest eigenvalue is
    reported because support-based truncation can leave the p.d. cone.
    """
    omega = check_symmetric(omega, "omega")
    p = omega.shape[0]
    pairs = np.array(list(edges), dtype=int)
    if pairs.size == 0:
        pairs = pairs.reshape(0, 2)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise InvalidParameterError("edges must be (i, j) pairs")
    bad = np.any((pairs < 0) | (pairs >= p), axis=1) | (pairs[:, 0] == pairs[:, 1])
    if np.any(bad):
        i, j = pairs[bad][0].tolist()
        raise InvalidParameterError(f"edge ({i}, {j}) out of range for p={p}")
    keep = np.zeros((p, p), dtype=bool)
    keep[pairs[:, 0], pairs[:, 1]] = keep[pairs[:, 1], pairs[:, 0]] = True
    np.fill_diagonal(keep, True)
    out = np.where(keep, omega, 0.0)
    return out, float(np.linalg.eigvalsh(out)[0])


class SupportMetrics(NamedTuple):
    sensitivity: float
    specificity: float


def _normalize_edges(edges) -> set:
    out = set()
    for i, j in edges:
        if i == j:
            raise InvalidParameterError(f"self-loop ({i}, {j}) is not an edge")
        out.add((min(i, j), max(i, j)))
    return out


def support_metrics(selected, truth, p: int) -> SupportMetrics:
    """Sensitivity and specificity of a selected edge set vs the truth."""
    selected = _normalize_edges(selected)
    truth = _normalize_edges(truth)
    if not truth:
        raise InvalidParameterError("sensitivity is undefined for an empty truth set")
    total = p * (p - 1) // 2
    negatives = total - len(truth)
    if negatives == 0:
        raise InvalidParameterError("specificity is undefined for a complete truth set")
    tp = len(selected & truth)
    fp = len(selected - truth)
    return SupportMetrics(tp / len(truth), (negatives - fp) / negatives)


def stable_edges(ranked_lists, alpha: float, p: int) -> set:
    """Union of the top ``ceil(p(p-1)/2 * alpha)`` edges from each ranked list."""
    alpha = float(alpha)
    if not 0.0 < alpha <= 1.0:
        raise InvalidParameterError(f"alpha must be in (0, 1], got {alpha}")
    m = math.ceil(p * (p - 1) / 2 * alpha)
    out = set()
    for ranked in ranked_lists:
        out |= _normalize_edges(list(ranked)[:m])
    return out


# ---------------------------------------------------------------------------
# End-to-end pipeline


@dataclass(frozen=True)
class GgmResult:
    omega: np.ndarray
    partials: np.ndarray
    fit: LfdrFit
    probabilities: np.ndarray
    selected: set
    sparsified: np.ndarray
    min_eigenvalue: float
    lambda_used: float | None
    cv_result: object = None


def extract_network(
    Y=None,
    omega=None,
    estimator: str = "alt-1",
    target=estimators.DDIAG,
    lam: float | None = None,
    auto_lambda: bool = False,
    grid=None,
    threshold: float = 0.99,
    center: bool = False,
    threads: int = 1,
) -> GgmResult:
    """Run the full pipeline from data (or a precision matrix) to a graph.

    Exactly one of ``Y`` (n x p data) and ``omega`` (p.d. precision) must be
    given. With data, the penalty is either ``lam`` or chosen by approximate
    leave-one-out CV over ``grid`` (default grid when omitted) when
    ``auto_lambda`` is set.
    """
    if (Y is None) == (omega is None):
        raise InvalidParameterError("provide exactly one of data and precision input")
    cv_result = None
    lambda_used = None
    if Y is not None:
        S = estimators.sample_cov(np.asarray(Y, dtype=float), center=center)
        if auto_lambda:
            if lam is not None:
                raise InvalidParameterError("give either lam or auto_lambda, not both")
            if grid is None:
                grid = cv.default_grid(S, kind=estimator)
            config = cv.CVConfig(grid, "aloocv", estimator=estimator, target=target, center=center)
            cv_result = cv.select_lambda(Y, config, threads=threads)
            lam = cv_result.lambda_star
        if lam is None:
            raise InvalidParameterError("a penalty is required (lam or auto_lambda)")
        est = estimators.fit(estimator, S, lam, target)
        omega, spectrum = est.omega, est.prec
        lambda_used = float(lam)
    else:
        omega, spectrum = check_symmetric(omega, "omega"), None
    P = partial_correlations(omega, spectrum)
    fit = fit_lfdr(offdiagonal_values(P))
    probs = edge_probabilities(P, fit)
    selected = select_edges(probs, P.shape[0], threshold)
    sparsified, min_eig = sparsify(omega, selected)
    return GgmResult(
        omega=omega,
        partials=P,
        fit=fit,
        probabilities=probs,
        selected=selected,
        sparsified=sparsified,
        min_eigenvalue=min_eig,
        lambda_used=lambda_used,
        cv_result=cv_result,
    )
