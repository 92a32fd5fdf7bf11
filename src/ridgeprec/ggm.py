"""Conditional-independence graph extraction from a precision estimate.

Pipeline: precision matrix -> partial correlations -> two-component mixture
fit on the off-diagonal values -> per-edge local false discovery rates ->
edge selection and support sparsification. The pipeline starts from a
precision matrix: fitting one is :func:`ridgeprec.estimators.fit`'s job,
and choosing its penalty :func:`ridgeprec.cv.select_lambda`'s.

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
  near the domain edges out of the null fit when it is abundant. With
  ``b = (kappa - 1)/2`` the likelihood's score in b is zero where the
  truncated null mean ``E_b[ln(1 - s^2) | 0 <= s <= c]``, under the density
  proportional to ``(1 - s^2)^(b-1)``, equals the kept values' mean of
  ``ln(1 - r^2)``. That mean rises with b (its derivative is a variance),
  so bisection in ``u = ln(kappa - 1)`` over [ln 1e-2, ln 1e7] finds the
  one root to adjacent floats, or returns the bound a one-signed score
  (a flat likelihood included) points to;
* eta0: central matching, the ratio of the mixture density to the fitted
  null density at r = 0, clamped to [0, 1];
* mixture density: Gaussian kernel density estimate with Silverman's
  bandwidth h, reflected at both -1 and +1. It is linearly binned on a
  grid over [-1, 1] of spacing h/200 (at most 2**20 intervals, which bounds
  memory when h is tiny), mirrored at each end only as far as the kernel's
  40 bandwidths reach, convolved by one real FFT and read off the nodes by
  linear interpolation: O(m + B log B) for m values and B nodes instead of
  the exact sum's O(m^2). Against the exact reflected kernel sum the
  relative error at the values is below 1e-4 and the error anywhere on
  [-1, 1] below 1e-5 of the peak (at most 1.3e-5 and 5.1e-6 on the test
  fixtures; a spacing of h/100 gives 5.3e-5 and 2.0e-5).

Edge (j, j') is selected when ``1 - lFDR >= threshold`` with
``lFDR = min(1, eta0 f0 / f)`` (equal to the two-component posterior null
probability when the alternative density is recovered as
``max(0, (f - eta0 f0)/(1 - eta0))``).
"""

import math
from dataclasses import dataclass, field, replace
from functools import cache
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateFitError,
    InsufficientDataError,
    InvalidMatrixError,
    InvalidParameterError,
)
from .linalg import check_symmetric, require_pd

#: Quantile of |values| bounding the null-dominated region used for the
#: kappa fit.
CENTRAL_FRACTION = 0.75
#: Hard cap on the central cutoff: values with |r| beyond it are never
#: attributed to the null component, however heavy their share.
CENTRAL_CAP = 0.75
#: Grid nodes per bandwidth of the binned mixture density.
KDE_NODES_PER_BANDWIDTH = 200
#: Cap on the grid intervals over [-1, 1]; it bounds the FFT at 2**21 points.
KDE_MAX_INTERVALS = 2**20
#: Kernel truncation in bandwidths; exp(-40**2 / 2) underflows to zero.
KDE_KERNEL_REACH = 40
#: Search interval of the kappa fit in ``u = ln(kappa - 1)``.
KAPPA_U_MIN = math.log(1e-2)
KAPPA_U_MAX = math.log(1e7)
#: ``B_2k / (2k (2k - 1))``, the first six Stirling-series coefficients of ln Gamma.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360)


# ---------------------------------------------------------------------------
# Partial correlations


def partial_correlations(omega) -> np.ndarray:
    """Standardize a p.d. precision matrix to partial correlations.

    ``P[j, j'] = -omega[j, j'] / sqrt(omega[j, j] omega[j', j'])`` with unit
    diagonal; ``eigvalsh`` checks ``omega`` p.d., so the rest lie in (-1, 1).
    """
    return _partial_correlations(check_symmetric(omega, "omega"))


def _partial_correlations(omega: np.ndarray) -> np.ndarray:
    """:func:`partial_correlations` of an ``omega`` that ``check_symmetric`` returned."""
    require_pd(np.linalg.eigvalsh(omega), "partial correlations require a p.d. precision")
    d = np.sqrt(np.diag(omega))
    # omega is exactly symmetric and d_i d_j == d_j d_i, so P is too.
    P = np.outer(d, d)
    np.divide(omega, P, out=P)
    np.negative(P, out=P)
    np.fill_diagonal(P, 1.0)
    return P


def offdiagonal_values(P) -> np.ndarray:
    """The p(p-1)/2 nonredundant off-diagonal entries (upper triangle, row-major).

    ``P`` must be square and pass :func:`~ridgeprec.linalg.check_symmetric`:
    only its upper triangle is read, so an asymmetric ``P`` has no one answer.
    """
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise InvalidMatrixError(f"P must be square, got shape {P.shape}")
    return _offdiagonal_values(check_symmetric(P, "P"))


def _offdiagonal_values(P: np.ndarray) -> np.ndarray:
    """:func:`offdiagonal_values` of an exactly symmetric ``P``."""
    return P[np.triu_indices(P.shape[0], k=1)]


# ---------------------------------------------------------------------------
# Null density and mixture fit


def _check_kappa(kappa: float) -> float:
    try:
        kappa = float(kappa)
        if np.isfinite(kappa) and kappa > 1.0:
            return kappa
    except (TypeError, ValueError):
        pass
    raise InvalidParameterError(f"kappa must be finite and > 1, got {kappa}")


def _check_inside(values: np.ndarray) -> None:
    """Raise unless every value is finite and strictly inside (-1, 1)."""
    if not np.all(np.abs(values) < 1.0):
        raise InvalidParameterError("values must be finite and strictly inside (-1, 1)")


def null_density(r, kappa: float):
    """Null density of a partial correlation with ``kappa`` degrees of freedom.

    Vectorized over ``r`` (must lie in [-1, 1]); scalar in, scalar out.
    """
    kappa = _check_kappa(kappa)
    try:
        arr = np.atleast_1d(np.asarray(r, dtype=float))
        inside = np.all(np.abs(arr) <= 1.0)
    except (TypeError, ValueError):
        inside = False
    if not inside:
        raise InvalidParameterError("null density domain is [-1, 1]")
    out = np.exp(_log_null_density(arr, kappa))
    return out if np.ndim(r) else float(out[0])


def _log_null_density(r: np.ndarray, kappa: float) -> np.ndarray:
    """``ln f0(r; kappa)`` for an array ``r`` in [-1, 1], unvalidated."""
    expo = 0.5 * (kappa - 3.0)
    lognorm = _log_beta_half(0.5 * (kappa - 1.0))
    with np.errstate(divide="ignore"):
        return expo * np.log1p(-r * r) - lognorm


def _log_beta_half(b: float) -> float:
    """``ln B(1/2, b)``: lgamma below b = 20, the Stirling series of ln Gamma above.

    Above 20 the difference ``ln Gamma(b) - ln Gamma(b + 1/2)`` is taken
    term by term, so the two large logarithms never cancel.
    """
    if b < 20.0:
        return math.lgamma(0.5) + math.lgamma(b) - math.lgamma(b + 0.5)
    h = b + 0.5
    series = sum(c * (b ** (1 - 2 * k) - h ** (1 - 2 * k)) for k, c in enumerate(_STIRLING, 1))
    return 0.5 * math.log(math.pi) + 0.5 - 0.5 * math.log(b) - b * math.log1p(0.5 / b) + series


@cache
def _legendre_rule() -> tuple[np.ndarray, np.ndarray]:
    """The 64-point Gauss-Legendre nodes and weights on [0, 1].

    Five Newton steps on the three-term Legendre recurrence, from the
    asymptotic guess for each root, reach rounding level.
    """
    n = 64
    x = np.cos(np.pi * (np.arange(1, n + 1) - 0.25) / (n + 0.5))
    for _ in range(5):
        prev, poly = np.ones(n), x
        for j in range(2, n + 1):
            prev, poly = poly, ((2 * j - 1) * x * poly - (j - 1) * prev) / j
        slope = n * (x * poly - prev) / (x * x - 1.0)
        x = x - poly / slope
    return 0.5 * (1.0 + x), 1.0 / ((1.0 - x * x) * slope * slope)


def _truncated_null_mean(b: float, cutoff: float) -> float:
    """``E_b[ln(1 - s^2) | 0 <= s <= cutoff]`` under the density ``(1 - s^2)^(b-1)``.

    Gauss-Legendre on [0, min(cutoff, sqrt(80/b))]; beyond ``sqrt(80/b)``
    the density is below ``e^-79`` of its value at zero.
    """
    nodes, weights = _legendre_rule()
    s = min(cutoff, math.sqrt(80.0 / b)) * nodes
    log_1ms2 = np.log1p(-s * s)
    mass = weights * np.exp((b - 1.0) * log_1ms2)
    return float(np.sum(mass * log_1ms2) / np.sum(mass))


def _fit_kappa(kept: np.ndarray, cutoff: float) -> float:
    """Bisect ``E_b[ln(1 - s^2)] - mean(ln(1 - r^2))``, increasing in ``u = ln(kappa - 1)``.

    A score of one sign over the interval returns the bound it points to.
    """
    mean = float(np.mean(np.log1p(-kept * kept)))

    def score(u: float) -> float:
        return _truncated_null_mean(0.5 * math.exp(u), cutoff) - mean

    lo, hi = KAPPA_U_MIN, KAPPA_U_MAX
    u = lo if score(lo) >= 0.0 else hi if score(hi) <= 0.0 else 0.5 * (lo + hi)
    while lo < u < hi:
        if score(u) < 0.0:
            lo = u
        else:
            hi = u
        u = 0.5 * (lo + hi)
    return 1.0 + math.exp(u)


@dataclass(frozen=True)
class LfdrFit:
    """Fitted two-component mixture over partial-correlation values.

    ``density`` holds the mixture density on :func:`kde_nodes`, as
    :func:`fit_lfdr` convolved it from ``values`` and ``bandwidth``.
    """

    eta0: float
    kappa: float
    values: np.ndarray = field(compare=False)
    bandwidth: float
    cutoff: float
    density: np.ndarray = field(compare=False, repr=False)

    def warnings(self) -> list[str]:
        """One line per sign of a degenerate fit or a coarse density.

        The signs are kappa exactly on a bound, eta0 clamped, and a node grid
        capped at ``KDE_MAX_INTERVALS`` intervals.
        """
        out = []
        lower, upper = 1.0 + math.exp(KAPPA_U_MIN), 1.0 + math.exp(KAPPA_U_MAX)
        for bound, side in ((lower, "lower"), (upper, "upper")):
            if self.kappa == bound:
                out.append(
                    f"kappa {self.kappa:.17g} is at the {side} bound of its search interval "
                    f"[{lower:g}, {upper:g}]"
                )
        if self.eta0 in (0.0, 1.0):
            out.append(f"eta0 is clamped to {self.eta0:g}; the mixture fit is degenerate")
        if 2.0 * KDE_NODES_PER_BANDWIDTH / self.bandwidth > KDE_MAX_INTERVALS:
            out.append(
                f"the KDE node grid is capped at {KDE_MAX_INTERVALS} intervals, coarser than "
                f"bandwidth/{KDE_NODES_PER_BANDWIDTH} (bandwidth {self.bandwidth:.3g}); the "
                "mixture density's 1e-4 accuracy against the exact KDE is not assured"
            )
        return out

    def mixture_density(self, r):
        """Reflected-KDE mixture density, evaluable anywhere on [-1, 1].

        The values are linearly binned onto :func:`kde_nodes`; their
        reflections ``2 - v`` and ``-2 - v`` land on mirrored nodes beyond
        -1 and +1, kept only as far as the kernel reaches. One real FFT
        convolves the counts with the Gaussian kernel, truncated at 40
        bandwidths and scaled to unit mass on the grid (so the density still
        integrates to one when the node cap makes the spacing wider than the
        bandwidth). Its power-of-two length is the least at which no node's
        value wraps around. FFT round-off below zero is clipped, and the
        density at ``r`` is read off the nodes by linear interpolation.
        """
        arr = np.atleast_1d(np.asarray(r, dtype=float))
        out = np.interp(arr, kde_nodes(self.bandwidth), self.density)
        return out if np.ndim(r) else float(out[0])


def _node_density(values: np.ndarray, bandwidth: float) -> np.ndarray:
    """The reflected-KDE density on :func:`kde_nodes`; see :meth:`LfdrFit.mixture_density`."""
    n = _kde_intervals(bandwidth)
    delta = 2.0 / n
    pos = (values + 1.0) / delta
    left = np.clip(np.floor(pos).astype(np.intp), 0, n - 1)
    frac = pos - left
    counts = np.bincount(left, 1.0 - frac, n + 1)
    counts += np.bincount(left + 1, frac, n + 1)
    reach = math.ceil(KDE_KERNEL_REACH * bandwidth / delta)
    # Index i holds node i - r. Reflection puts counts[k] at node -k and
    # counts[n - k] at node n + k, for k up to the r nodes the kernel reaches.
    r = min(reach, n)
    extended = np.zeros(n + 1 + 2 * r)
    extended[: r + 1] += counts[r::-1]
    extended[r : n + r + 1] += counts
    extended[n + r :] += counts[n - r :][::-1]
    z = np.arange(-reach, reach + 1) * (delta / bandwidth)
    kernel = np.exp(-0.5 * z * z)
    kernel /= kernel.sum() * delta * values.size
    # A circular convolution of this size wraps no output that is read.
    size = 1 << (n + r + reach).bit_length()
    spectrum = np.fft.rfft(extended, size)
    del extended
    spectrum *= np.fft.rfft(kernel, size)
    conv = np.fft.irfft(spectrum, size)
    return np.maximum(conv[r + reach : n + r + reach + 1], 0.0)


def _kde_intervals(bandwidth: float) -> int:
    """Intervals of :func:`kde_nodes` over [-1, 1]."""
    return math.ceil(min(2.0 * KDE_NODES_PER_BANDWIDTH / bandwidth, KDE_MAX_INTERVALS))


def kde_nodes(bandwidth: float) -> np.ndarray:
    """Nodes of the binned mixture density: [-1, 1] at spacing <= bandwidth/200.

    The interval count is capped at ``KDE_MAX_INTERVALS``, which bounds the
    memory a tiny bandwidth can ask for; the spacing is then coarser.
    """
    return np.linspace(-1.0, 1.0, _kde_intervals(bandwidth) + 1)


def _sorted_quantile(ordered: np.ndarray, q: float) -> float:
    """``np.quantile(a, q)``'s default linear rule, read off ``ordered = np.sort(a)``.

    numpy's float operations, its ``t >= 0.5`` branch included, so the two
    agree bit for bit up to the sign of a zero between -0.0 and 0.0 ties.
    np.quantile would import numpy.ma on its first call.
    """
    index = (ordered.size - 1) * q
    below = math.floor(index)
    if below >= ordered.size - 1:
        return float(ordered[-1])
    a, b = float(ordered[below]), float(ordered[below + 1])
    t = index - below
    return b - (b - a) * (1.0 - t) if t >= 0.5 else a + (b - a) * t


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
    _check_inside(values)
    if np.ptp(values) == 0.0:
        raise DegenerateFitError("all values identical; no mixture to fit")
    cutoff = min(_sorted_quantile(np.sort(np.abs(values)), CENTRAL_FRACTION), CENTRAL_CAP)
    kept = values[np.abs(values) <= cutoff]
    if kept.size < 5:
        raise DegenerateFitError(
            f"only {kept.size} values in the central region |r| <= {cutoff:g}"
        )
    if np.ptp(kept) == 0.0:
        raise DegenerateFitError("central-region values are all identical")
    kappa = _fit_kappa(kept, cutoff)
    sd = float(np.std(values))
    ordered = np.sort(values)
    # Only iqr > 0 and iqr itself are read, so the sign of a zero quartile is moot.
    iqr = _sorted_quantile(ordered, 0.75) - _sorted_quantile(ordered, 0.25)
    scale = min(sd, iqr / 1.34) if iqr > 0 else sd
    bandwidth = 0.9 * scale * values.size ** (-0.2)
    density = _node_density(values, bandwidth)
    fit = LfdrFit(1.0, kappa, values.copy(), bandwidth, cutoff, density)
    eta0 = float(np.clip(fit.mixture_density(0.0) / null_density(0.0, kappa), 0.0, 1.0))
    return replace(fit, eta0=eta0)


# ---------------------------------------------------------------------------
# Per-edge lFDR and sparsification


def lfdr_values(values, fit: LfdrFit) -> np.ndarray:
    """Local FDR for each value: ``min(1, eta0 f0 / f)``.

    The values are held to :func:`fit_lfdr`'s domain; ``eta0 == 1`` then
    short-circuits to all ones (the pure-null posterior).
    """
    values = np.atleast_1d(np.asarray(values, dtype=float))
    _check_inside(values)
    if fit.eta0 >= 1.0:
        return np.ones_like(values)
    f0 = null_density(values, fit.kappa)
    f = fit.mixture_density(values)
    return np.minimum(1.0, fit.eta0 * np.asarray(f0) / f)


def edge_probabilities(P, fit: LfdrFit) -> np.ndarray:
    """Presence probability ``1 - lFDR`` per pair j < j', in ``np.triu_indices`` order.

    ``P`` is held to :func:`offdiagonal_values`'s checks.
    """
    return 1.0 - lfdr_values(offdiagonal_values(P), fit)


def sparsify(omega, selected):
    """Zero the off-diagonal entries of the pairs outside ``selected``.

    ``selected`` is a boolean mask over the pairs j < j' in
    ``np.triu_indices`` order, as in :attr:`GgmResult.selected`. Returns
    ``(sparsified, min_eigenvalue)``; the smallest eigenvalue is reported
    because support-based truncation can leave the p.d. cone.
    """
    omega = check_symmetric(omega, "omega")
    p = omega.shape[0]
    selected = np.asarray(selected)
    if selected.dtype != bool or selected.shape != (p * (p - 1) // 2,):
        raise InvalidParameterError(
            f"selected must be a boolean mask over the {p * (p - 1) // 2} pairs for p={p}"
        )
    return _sparsify(omega, selected)


def _sparsify(omega: np.ndarray, selected: np.ndarray):
    """:func:`sparsify` of a checked ``omega`` and a boolean mask of the right shape."""
    p = omega.shape[0]
    keep = np.eye(p, dtype=bool)
    keep[np.triu_indices(p, k=1)] = selected
    keep |= keep.T
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
    selected: np.ndarray  # probabilities >= threshold
    sparsified: np.ndarray
    min_eigenvalue: float


def extract_network(omega, threshold: float = 0.99) -> GgmResult:
    """Run the graph pipeline on a p.d. precision matrix.

    To start from data, fit first: ``est = fit(kind, sample_cov(Y), lam,
    target)``, then ``extract_network(est.omega, threshold)``.
    """
    threshold = float(threshold)
    if not 0.0 <= threshold <= 1.0:
        raise InvalidParameterError(f"threshold must be in [0, 1], got {threshold}")
    omega = check_symmetric(omega, "omega")
    P = _partial_correlations(omega)
    values = _offdiagonal_values(P)
    fit = fit_lfdr(values)
    probs = 1.0 - lfdr_values(values, fit)
    selected = probs >= threshold
    sparsified, min_eig = _sparsify(omega, selected)
    return GgmResult(
        omega=omega,
        partials=P,
        fit=fit,
        probabilities=probs,
        selected=selected,
        sparsified=sparsified,
        min_eigenvalue=min_eig,
    )
