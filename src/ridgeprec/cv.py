"""Penalty selection: K-fold, exact leave-one-out, and approximate LOO scores.

Scores are predictive negative log-likelihoods (smaller is better). The
approximate scheme touches the estimator once per penalty value on the full
data, making it usable where exact LOOCV would need n refits per penalty.

All three schemes share one loop that runs fold by fold. Each part (a
fold, a left-out row, or the whole data for the approximation) builds its
held-in sample covariance once and fits the whole grid in broadcast
:func:`~ridgeprec.estimators.fit` calls, one per block of
:func:`~ridgeprec.estimators.grid_blocks`. With ``threads = N > 1`` the
caller and a pool of at most N - 1 workers fit a part's blocks, N at a
time; one block runs inline.

Scores read any fit's eigenpairs through
:meth:`~ridgeprec.estimators.RidgeEstimate.eigen_rows`.
"""

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from . import estimators
from .errors import (
    InvalidFoldsError,
    InvalidMatrixError,
    InvalidParameterError,
    InvalidPenaltyError,
    whole,
)
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


def _held_out_term(Y_out, vectors, prec, logdet) -> float:
    """``n_out * (-ln|omega|) + tr(Y_out omega Y_out')`` from one fit's eigenpairs.

    ``Y_out`` and ``logdet`` come from ``RidgeEstimate.eigen_rows``, so
    ``ln|omega| = sum(ln prec) + logdet``. This and
    :func:`_aloocv_term` read all p eigenpairs of a dense
    :func:`~ridgeprec.estimators.fit`; a thin estimate's null pair is not
    counted, so scoring never uses :func:`~ridgeprec.estimators.fit_data`.
    """
    U = Y_out @ vectors
    return Y_out.shape[0] * -(np.sum(np.log(prec)) + logdet) + np.sum(U * U * prec)


def _aloocv_term(Y, vectors, prec, logdet) -> float:
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
    same ``sum(G^2)`` is read from the smaller ``B'B``. ``Y`` and ``logdet``
    are as for :func:`_held_out_term`.
    """
    n, p = Y.shape
    B = (Y @ vectors) * np.sqrt(prec)
    q = np.einsum("ij,ij->i", B, B)
    G = B @ B.T if n <= p else B.T @ B
    correction = (q @ q - np.sum(G * G) / n) / (2.0 * n * (n - 1.0))
    return float(-0.5 * (np.sum(np.log(prec)) + logdet - q.sum() / n) + correction)


def score_grid(Y, config: CVConfig, threads: int = 1) -> np.ndarray:
    """Evaluate the configured scheme's score at every grid value.

    Scoring runs fold by fold: one held-in covariance per fold and one
    broadcast fit per grid block (see the module docstring). ``threads``, a
    whole number, is the number of concurrent fits, the calling thread
    included: 0 means one per usable CPU (the process's CPU affinity where
    the platform reports it) and 1 runs inline. Otherwise the caller and a
    pool of N - 1 workers, N being ``threads`` capped by the block count,
    take each part's blocks in turn until none is left, so a grid that is
    one block runs inline and starts no thread. Scores do not
    depend on ``threads``: blocks are disjoint, and each part's terms are
    added before the next part starts, in part order as a loop over parts
    per penalty adds them, so every score equals that loop's bit for bit.
    A failing fit raises the error of the first failing block, as inline.
    """
    threads = whole(threads, "threads", 0)
    Y = prepare_data(Y, config.center)
    n, p = Y.shape
    grid, scheme = config.grid, config.scheme
    if scheme == "kfold":
        parts = make_folds(n, config.k, config.fold_seed)
    elif n < 2:
        what = "leave-one-out" if scheme == "loocv" else "approximate leave-one-out"
        raise InvalidFoldsError(f"{what} needs at least 2 observations")
    elif scheme == "loocv":
        parts = [np.array([i]) for i in range(n)]
    else:
        parts = [None]
    blocks = estimators.grid_blocks(config.estimator, config.target, grid.size, p)
    scores = np.zeros(grid.size)
    fits = min(threads or _usable_cpus(), len(blocks))
    with ThreadPoolExecutor(max_workers=fits - 1) if fits > 1 else nullcontext() as pool:
        for held_out in parts:
            if held_out is None:
                S, rows, term = sample_cov(Y), Y, _aloocv_term
            else:
                mask = np.ones(n, dtype=bool)
                mask[held_out] = False
                S, rows, term = sample_cov(Y[mask]), Y[held_out], _held_out_term

            def add_block_terms(block):
                est = estimators.fit(config.estimator, S, grid[block], config.target)
                X, logdet = est.eigen_rows(rows)
                # Per thread: a score that overflows is left NaN for select_lambda to name.
                with np.errstate(over="ignore", invalid="ignore"):
                    scores[block] += [term(X, v, w, logdet) for v, w in zip(est.vectors, est.prec)]

            pending, claim = iter(range(len(blocks))), threading.Lock()

            def score_share():
                """Score unclaimed blocks until none is left; the first failure's (index, error)."""
                while True:
                    with claim:
                        i = next(pending, len(blocks))
                    if i == len(blocks):
                        return i, None
                    try:
                        add_block_terms(blocks[i])
                    except Exception as exc:
                        return i, exc

            shares = [pool.submit(score_share) for _ in range(1, fits)]
            outcomes = [score_share()] + [share.result() for share in shares]
            _, error = min(outcomes, key=lambda outcome: outcome[0])
            if error is not None:
                raise error
    return scores


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set, else the machine's count."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def select_lambda(Y, config: CVConfig, threads: int = 1) -> CVResult:
    """Minimize the CV score over the grid; ties go to the larger penalty; a NaN score raises."""
    scores = score_grid(Y, config, threads)
    if np.any(np.isnan(scores)):
        first = config.grid[np.isnan(scores)][0]
        raise InvalidPenaltyError(f"CV score is NaN at penalty {first}; drop it from the grid")
    rev = scores[::-1]
    idx = scores.size - 1 - int(np.argmin(rev))
    return CVResult(config.scheme, config.grid, scores, float(config.grid[idx]))


def default_grid(S, num: int = 50, kind: str | None = None) -> np.ndarray:
    """Default penalty grid: ``num`` log-spaced points on [1e-4 g, 1e4 g].

    ``S`` is a nonempty square 2-D array, and the anchor ``g = tr(S)/p``
    must be finite and positive. For "archetype-1" the grid is mapped
    through the penalty scale map into its (0, 1] domain.
    """
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1] or S.size == 0:
        raise InvalidMatrixError(f"S must be a nonempty square matrix, got shape {S.shape}")
    p = S.shape[0]
    g = float(np.trace(S)) / p
    if not np.isfinite(g) or g <= 0:
        raise InvalidParameterError(
            f"default grid needs a finite, positive anchor tr(S)/p, got {g}"
        )
    grid = np.logspace(np.log10(1e-4 * g), np.log10(1e4 * g), whole(num, "grid size"))
    return estimators.penalty_map_1(grid) if kind == "archetype-1" else grid
