"""Moments of the sample covariance and the large-penalty bias approximation.

For n i.i.d. rows from N(0, Sigma) and S = Y'Y/n, the first two moments are
exact Wishart identities; the expectation of the target-free alternative
ridge covariance estimate admits a series approximation that is accurate
once the penalty dominates the spectrum of S.
"""

from typing import NamedTuple

import numpy as np

from . import estimators
from .errors import InvalidParameterError, InvalidPenaltyError
from .estimators import Target, sample_cov
from .linalg import check_symmetric, symmetrize


class WishartMoments(NamedTuple):
    mean: np.ndarray
    mean_sq: np.ndarray


def _check_n(n) -> int:
    if int(n) != n or n < 1:
        raise InvalidParameterError(f"n must be a positive integer, got {n}")
    return int(n)


def wishart_moments(Sigma, n: int) -> WishartMoments:
    """Exact E[S] and E[S^2] for S = Y'Y/n with rows ~ N(0, Sigma).

    ``E[S] = Sigma`` and ``E[S^2] = ((n+1)/n) Sigma^2 + (tr Sigma / n) Sigma``.
    """
    Sigma = check_symmetric(Sigma, "Sigma")
    n = _check_n(n)
    mean = Sigma.copy()
    mean_sq = symmetrize(
        ((n + 1.0) / n) * (Sigma @ Sigma) + (float(np.trace(Sigma)) / n) * Sigma
    )
    return WishartMoments(mean, mean_sq)


def bias_approx_type2(Sigma, n: int, lam: float) -> np.ndarray:
    """Large-penalty approximation to E[sigma-hat] for the target-free estimator.

    ``(1/2) Sigma + sqrt(lam) I + E[S^2] / (8 sqrt(lam))`` — accurate when
    ``lam`` is large relative to ``||Sigma||_2^2``.
    """
    Sigma = check_symmetric(Sigma, "Sigma")
    n = _check_n(n)
    lam = float(lam)
    if not np.isfinite(lam) or lam <= 0:
        raise InvalidPenaltyError(f"lam must be positive, got {lam}")
    p = Sigma.shape[0]
    _, mean_sq = wishart_moments(Sigma, n)
    return symmetrize(
        0.5 * Sigma + np.sqrt(lam) * np.eye(p) + mean_sq / (8.0 * np.sqrt(lam))
    )


def mc_moments(
    Sigma,
    n: int,
    lam: float,
    target=None,
    reps: int = 1000,
    seed: int = 0,
) -> np.ndarray:
    """Monte Carlo estimate of E[sigma-hat] under the alternative estimator.

    Draws ``reps`` datasets of n rows from N(0, Sigma) (one child RNG stream
    per replicate, so results are reproducible and order-independent),
    fits the alternative ridge at ``lam`` (target-free when ``target`` is
    None or zero), and averages the covariance-side estimates.
    """
    Sigma = check_symmetric(Sigma, "Sigma")
    n = _check_n(n)
    if int(reps) != reps or reps < 1:
        raise InvalidParameterError(f"reps must be a positive integer, got {reps}")
    reps = int(reps)
    p = Sigma.shape[0]
    L = np.linalg.cholesky(Sigma)
    target = Target.zero() if target is None else target
    acc = np.zeros((p, p))
    for r in range(reps):
        rng = np.random.default_rng([int(seed), r])
        S = sample_cov(rng.standard_normal((n, p)) @ L.T)
        acc += estimators.alt_ridge1(S, target, lam).sigma
    return symmetrize(acc / reps)
