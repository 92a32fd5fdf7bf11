"""Penalty selection: K-fold, exact leave-one-out, and approximate LOO scores.

Scores are predictive negative log-likelihoods (smaller is better). The
approximate scheme touches the estimator once per penalty value on the full
data, making it usable where exact LOOCV would need n refits per penalty.
"""

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import estimators
from .errors import InvalidFoldsError, InvalidParameterError
from .estimators import prepare_data, sample_cov

SCHEMES = ("kfold", "loocv", "aloocv")


@dataclass(frozen=True)
class CVConfig:
    """Everything a cross-validation run needs besides the data.

    ``grid`` values are in the estimator's own penalty scale. ``target`` is a
    :class:`~ridgeprec.estimators.Target` or the ``"ddiag"`` sentinel, which
    re-resolves against each held-in sample covariance.
    """

    grid: np.ndarray
    scheme: str = "aloocv"
    k: int = 5
    fold_seed: int = 0
    estimator: str = "alt-1"
    target: object = estimators.DDIAG
    center: bool = False

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise InvalidParameterError(
                f"scheme must be one of {SCHEMES}, got {self.scheme!r}"
            )
        if self.estimator not in estimators.KINDS:
            raise InvalidParameterError(
                f"estimator must be one of {estimators.KINDS}, got {self.estimator!r}"
            )
        grid = np.atleast_1d(np.asarray(self.grid, dtype=float))
        if grid.size == 0:
            raise InvalidParameterError("grid must be nonempty")
        if not np.all(np.isfinite(grid)) or np.any(grid <= 0):
            raise InvalidParameterError("grid values must be finite and positive")
        if grid.size > 1 and np.any(np.diff(grid) <= 0):
            raise InvalidParameterError("grid must be strictly increasing")
        object.__setattr__(self, "grid", grid)
        if int(self.k) != self.k or self.k < 2:
            raise InvalidParameterError(f"k must be an integer >= 2, got {self.k}")
        object.__setattr__(self, "k", int(self.k))


@dataclass(frozen=True)
class CVResult:
    scheme: str
    grid: np.ndarray
    scores: np.ndarray
    lambda_star: float


def make_folds(n: int, k: int, seed: int) -> list[np.ndarray]:
    """Seeded partition of range(n) into k near-equal folds."""
    if int(k) != k or k < 2:
        raise InvalidFoldsError(f"k must be an integer >= 2, got {k}")
    if k > n:
        raise InvalidFoldsError(f"cannot split {n} observations into {k} folds")
    perm = np.random.default_rng(seed).permutation(n)
    return list(np.array_split(perm, k))


def _scorer(Y, config: CVConfig, scheme: str):
    """Per-penalty score function of ``scheme`` on data prepared once.

    The data are validated (and centered) here, and whatever does not depend
    on the penalty is computed here too: the folds, or for "aloocv" the
    full-data sample covariance.
    """
    Y = prepare_data(Y, config.center)
    n = Y.shape[0]
    if scheme == "kfold":
        folds = make_folds(n, config.k, config.fold_seed)
        return lambda lam: _score_with_folds(Y, lam, config, folds)
    if n < 2:
        what = "leave-one-out" if scheme == "loocv" else "approximate leave-one-out"
        raise InvalidFoldsError(f"{what} needs at least 2 observations")
    if scheme == "loocv":
        folds = [np.array([i]) for i in range(n)]
        return lambda lam: _score_with_folds(Y, lam, config, folds)
    S = sample_cov(Y)
    return lambda lam: _approx_loocv(Y, S, lam, config)


def _score_with_folds(Y, lam, config, folds) -> float:
    n = Y.shape[0]
    score = 0.0
    for held_out in folds:
        mask = np.ones(n, dtype=bool)
        mask[held_out] = False
        est = estimators.fit(config.estimator, sample_cov(Y[mask]), lam, config.target)
        U = Y[held_out] @ est.vectors
        score += held_out.size * -np.sum(np.log(est.prec)) + np.sum(U * U * est.prec)
    return float(score)


def _approx_loocv(Y, S, lam, config) -> float:
    n, p = Y.shape
    est = estimators.fit(config.estimator, S, lam, config.target)
    B = (Y @ est.vectors) * np.sqrt(est.prec)
    q = np.einsum("ij,ij->i", B, B)
    G = B @ B.T if n <= p else B.T @ B
    correction = (q @ q - np.sum(G * G) / n) / (2.0 * n * (n - 1.0))
    return float(-0.5 * (np.sum(np.log(est.prec)) - q.sum() / n) + correction)


def kfold_cv_score(Y, lam: float, config: CVConfig) -> float:
    """K-fold predictive negative log-likelihood at one penalty value.

    ``sum_k n_k * (-ln|omega_{-k}| + tr[omega_{-k} S_k])`` with ``S_k`` the
    held-out sample covariance (divisor n_k, uncentered) and ``omega_{-k}``
    fitted on the remaining rows.
    """
    return _scorer(Y, config, "kfold")(lam)


def exact_loocv_score(Y, lam: float, config: CVConfig) -> float:
    """Leave-one-out score: K-fold with every fold a single row."""
    return _scorer(Y, config, "loocv")(lam)


def approx_loocv_score(Y, lam: float, config: CVConfig) -> float:
    """Closed-form approximation to the leave-one-out score.

    ``-(1/n) * L(omega; S) + (1/(2n(n-1))) * sum_i gamma_i`` where
    ``L = (n/2) * loglik(omega; S)`` is the full-data Gaussian
    log-likelihood (additive constants dropped) and ``gamma_i`` sums every
    entry of the Hadamard product
    ``[sigma - y_i y_i'] o [omega (S - y_i y_i') omega]``. The ``n/2``
    scale on ``L`` keeps the base term and the correction on the same
    per-observation half-log-likelihood scale that the expansion of the
    leave-one-out score produces; dropping it lets the correction dominate
    and drags the argmin. Exactly one estimator fit (and no matrix
    inversion) per call, evaluated from its eigenpairs ``(V, prec)`` with
    no product of the dense ``omega``, ``sigma`` and ``S``: with the n x n
    Gram ``G = B B' = Y omega Y'`` of ``B = Y V diag(prec)^(1/2)`` and
    ``q = diag(G)``, ``sigma omega = I`` gives ``-(1/2)(sum ln prec -
    sum(q)/n) + (sum(q^2) - sum(G^2)/n) / (2n(n-1))``. When n > p the
    same ``sum(G^2)`` is read from the smaller ``B'B``.
    """
    return _scorer(Y, config, "aloocv")(lam)


def score_grid(Y, config: CVConfig, threads: int = 1) -> np.ndarray:
    """Evaluate the configured scheme's score at every grid value.

    ``threads=0`` means one worker per CPU and ``threads <= 1`` runs inline;
    otherwise an order-preserving thread pool scores the grid points.
    """
    scorer = _scorer(Y, config, config.scheme)
    threads = threads or os.cpu_count() or 1
    if threads <= 1 or config.grid.size <= 1:
        return np.array([scorer(lam) for lam in config.grid])
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return np.array(list(pool.map(scorer, config.grid)))


def select_lambda(Y, config: CVConfig, threads: int = 1) -> CVResult:
    """Minimize the CV score over the grid; ties go to the larger penalty."""
    scores = score_grid(Y, config, threads)
    rev = scores[::-1]
    idx = scores.size - 1 - int(np.argmin(rev))
    return CVResult(config.scheme, config.grid, scores, float(config.grid[idx]))


def default_grid(S, num: int = 50, kind: str | None = None) -> np.ndarray:
    """Default penalty grid: ``num`` log-spaced points on [1e-4 g, 1e4 g].

    The anchor is ``g = tr(S)/p``. For "archetype-1" the grid is mapped
    through the penalty scale map into its (0, 1] domain.
    """
    S = np.asarray(S, dtype=float)
    p = S.shape[0]
    g = float(np.trace(S)) / p
    if not np.isfinite(g) or g <= 0:
        raise InvalidParameterError("default grid needs tr(S)/p > 0")
    if int(num) != num or num < 1:
        raise InvalidParameterError(f"grid size must be a positive integer, got {num}")
    grid = np.logspace(np.log10(1e-4 * g), np.log10(1e4 * g), int(num))
    if kind == "archetype-1":
        grid = np.array([estimators.penalty_map_1(x) for x in grid])
    return grid
