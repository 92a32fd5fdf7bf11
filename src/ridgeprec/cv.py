"""Penalty selection: K-fold, exact leave-one-out, and approximate LOO scores.

Scores are predictive negative log-likelihoods (smaller is better). The
approximate scheme touches the estimator once per penalty value on the full
data, making it usable where exact LOOCV would need n refits per penalty.

All three schemes share one loop that runs fold by fold. Each part (a
fold, a left-out row, or the whole data for the approximation) builds its
held-in sample covariance once and fits the whole grid in broadcast
:func:`~ridgeprec.estimators.fit` calls, one per
:func:`~ridgeprec.estimators.stack_slices` block. A thread pool, when asked
for, fits a part's blocks concurrently, so a grid that is one block (every
grid at small p) runs inline.
"""

import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from . import estimators
from .errors import InvalidFoldsError, InvalidParameterError, whole
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
        object.__setattr__(self, "k", whole(self.k, "k", 2))
        object.__setattr__(self, "fold_seed", whole(self.fold_seed, "fold_seed", 0))


@dataclass(frozen=True)
class CVResult:
    scheme: str
    grid: np.ndarray
    scores: np.ndarray
    lambda_star: float


def make_folds(n: int, k: int, seed: int) -> list[np.ndarray]:
    """Seeded partition of range(n) into k near-equal folds."""
    k = whole(k, "k", 2, InvalidFoldsError)
    if k > n:
        raise InvalidFoldsError(f"cannot split {n} observations into {k} folds")
    perm = np.random.default_rng(whole(seed, "seed", 0)).permutation(n)
    return list(np.array_split(perm, k))


def _held_out_term(Y_out, vectors, prec) -> float:
    """``n_out * (-ln|omega|) + tr(Y_out omega Y_out')`` from one fit's eigenpairs.

    This and :func:`_aloocv_term` read all p eigenpairs of a dense
    :func:`~ridgeprec.estimators.fit`; a thin estimate's null pair is not
    counted, so scoring never uses :func:`~ridgeprec.estimators.fit_data`.
    """
    U = Y_out @ vectors
    return Y_out.shape[0] * -np.sum(np.log(prec)) + np.sum(U * U * prec)


def _aloocv_term(Y, vectors, prec) -> float:
    """The approximate leave-one-out score of one full-data fit's eigenpairs.

    ``-(1/n) * L(omega; S) + (1/(2n(n-1))) * sum_i gamma_i`` where
    ``L = (n/2) * loglik(omega; S)`` is the full-data Gaussian
    log-likelihood (additive constants dropped) and ``gamma_i`` sums every
    entry of the Hadamard product
    ``[sigma - y_i y_i'] o [omega (S - y_i y_i') omega]``. The ``n/2``
    scale on ``L`` keeps the base term and the correction on the same
    per-observation half-log-likelihood scale that the expansion of the
    leave-one-out score produces; dropping it lets the correction dominate
    and drags the argmin. It needs one fit on the full data and no matrix
    inversion, and reads the eigenpairs ``(V, prec)`` with no product of
    the dense ``omega``, ``sigma`` and ``S``: with the n x n Gram
    ``G = B B' = Y omega Y'`` of ``B = Y V diag(prec)^(1/2)`` and
    ``q = diag(G)``, ``sigma omega = I`` gives ``-(1/2)(sum ln prec -
    sum(q)/n) + (sum(q^2) - sum(G^2)/n) / (2n(n-1))``. When n > p the
    same ``sum(G^2)`` is read from the smaller ``B'B``.
    """
    n, p = Y.shape
    B = (Y @ vectors) * np.sqrt(prec)
    q = np.einsum("ij,ij->i", B, B)
    G = B @ B.T if n <= p else B.T @ B
    correction = (q @ q - np.sum(G * G) / n) / (2.0 * n * (n - 1.0))
    return float(-0.5 * (np.sum(np.log(prec)) - q.sum() / n) + correction)


def _score(Y, grid, config: CVConfig, scheme: str, threads: int = 1) -> np.ndarray:
    """Scores of ``scheme`` at every penalty of ``grid``, part by part.

    Terms are added in part order, as a loop over parts per penalty adds
    them, so every score equals that loop's bit for bit.
    """
    Y = prepare_data(Y, config.center)
    n, p = Y.shape
    if scheme == "kfold":
        parts = make_folds(n, config.k, config.fold_seed)
    elif n < 2:
        what = "leave-one-out" if scheme == "loocv" else "approximate leave-one-out"
        raise InvalidFoldsError(f"{what} needs at least 2 observations")
    elif scheme == "loocv":
        parts = [np.array([i]) for i in range(n)]
    else:
        parts = [None]
    blocks = estimators.stack_slices(grid.size, p)
    scores = np.zeros(grid.size)
    threads = threads or os.cpu_count() or 1
    pooled = threads > 1 and len(blocks) > 1
    with ThreadPoolExecutor(max_workers=threads) if pooled else nullcontext() as pool:
        for held_out in parts:
            if held_out is None:
                S, rows, term = sample_cov(Y), Y, _aloocv_term
            else:
                mask = np.ones(n, dtype=bool)
                mask[held_out] = False
                S, rows, term = sample_cov(Y[mask]), Y[held_out], _held_out_term

            def block_terms(block):
                est = estimators.fit(config.estimator, S, grid[block], config.target)
                return [term(rows, v, w) for v, w in zip(est.vectors, est.prec)]

            for block, terms in zip(blocks, (pool.map if pooled else map)(block_terms, blocks)):
                scores[block] += terms
    return scores


def score_grid(Y, config: CVConfig, threads: int = 1) -> np.ndarray:
    """Evaluate the configured scheme's score at every grid value.

    Scoring runs fold by fold: one held-in covariance per fold and one
    broadcast fit per grid block. ``threads=0`` means one worker per CPU
    and ``threads <= 1`` runs inline; otherwise an order-preserving thread
    pool fits a fold's grid blocks, so a grid that is one block (every grid
    at small p) runs inline. Scores do not depend on ``threads``.
    """
    return _score(Y, config.grid, config, config.scheme, threads)


def select_lambda(Y, config: CVConfig, threads: int = 1) -> CVResult:
    """Minimize the CV score over the grid; ties go to the larger penalty."""
    scores = score_grid(Y, config, threads)
    rev = scores[::-1]
    idx = scores.size - 1 - int(np.argmin(rev))
    return CVResult(config.scheme, config.grid, scores, float(config.grid[idx]))


def default_grid(S, num: int = 50, kind: str | None = None) -> np.ndarray:
    """Default penalty grid: ``num`` log-spaced points on [1e-4 g, 1e4 g].

    The anchor is ``g = tr(S)/p``, which must be finite and positive. For
    "archetype-1" the grid is mapped through the penalty scale map into its
    (0, 1] domain.
    """
    S = np.asarray(S, dtype=float)
    p = S.shape[0]
    g = float(np.trace(S)) / p
    if not np.isfinite(g) or g <= 0:
        raise InvalidParameterError(
            f"default grid needs a finite, positive anchor tr(S)/p, got {g}"
        )
    grid = np.logspace(np.log10(1e-4 * g), np.log10(1e4 * g), whole(num, "grid size"))
    return estimators.penalty_map_1(grid) if kind == "archetype-1" else grid
