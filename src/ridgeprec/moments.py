"""Moments of the sample covariance and the large-penalty bias approximation.

For n i.i.d. rows from N(0, Sigma) and S = Y'Y/n, the first two moments are
exact Wishart identities; the expectation of the target-free alternative
ridge covariance estimate admits a series approximation that is accurate
once the penalty dominates the spectrum of S.
"""

from typing import NamedTuple

import numpy as np

from . import estimators
from .errors import whole
from .estimators import Target
from .linalg import check_symmetric, cholesky_pd, symmetrize


class WishartMoments(NamedTuple):
    mean: np.ndarray
    mean_sq: np.ndarray


def wishart_moments(Sigma, n: int) -> WishartMoments:
    """Exact E[S] and E[S^2] for S = Y'Y/n with rows ~ N(0, Sigma).

    ``E[S] = Sigma`` and ``E[S^2] = ((n+1)/n) Sigma^2 + (tr Sigma / n) Sigma``.
    """
    Sigma = check_symmetric(Sigma, "Sigma")
    n = whole(n, "n")
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
    Sigma, mean_sq = wishart_moments(Sigma, n)
    lam = float(estimators._check_penalty(lam))
    p = Sigma.shape[0]
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
    ``[seed, r]`` per replicate, so results are reproducible and
    order-independent), fits the alternative ridge at ``lam`` (target-free
    when ``target`` is None or zero), and averages the covariance-side
    estimates. Replicates are drawn and fitted in stacked blocks of
    :func:`~ridgeprec.estimators.stack_slices` through
    :func:`~ridgeprec.estimators.fit_data`, and summed one at a time in
    replicate order. With n >= p, or a target that is not scalar, each fit
    is the dense fit of that replicate's ``S``, so the mean equals that of
    one fit per replicate bit for bit. With n < p and a scalar target the
    fits are thin (one SVD of the n x p data each), and the mean agrees
    with the dense one to rounding.
    """
    Sigma = check_symmetric(Sigma, "Sigma")
    n = whole(n, "n")
    reps = whole(reps, "reps")
    seed = whole(seed, "seed", 0)
    p = Sigma.shape[0]
    L = cholesky_pd(Sigma, "Monte Carlo sampling requires a p.d. Sigma")
    target = Target.zero() if target is None else target
    acc = np.zeros((p, p))
    for block in estimators.stack_slices(reps, p * max(p, n)):  # a draw and a p x p sigma
        Y = np.stack([
            np.random.default_rng([seed, r]).standard_normal((n, p))
            for r in range(block.start, block.stop)
        ]) @ L.T
        for sigma_hat in estimators.fit_data("alt-1", Y, lam, target).sigma:
            acc += sigma_hat
    return symmetrize(acc / reps)
