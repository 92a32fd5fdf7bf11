"""Every whole-number count and RNG seed is checked by ``errors.whole``.

Each site must turn a bad value into its documented ``RidgeprecError``
subclass, never a ``ValueError``, ``OverflowError`` or ``TypeError``. The same
holds for matrix pairs of mismatched sizes, for grids that are not 1-D, for
strings where numbers belong, and for the graph layer's matrices and values.
"""

from dataclasses import replace

import numpy as np
import pytest

from ridgeprec import cv, estimators, ggm, moments, simulate
from ridgeprec.errors import (
    InvalidFoldsError,
    InvalidMatrixError,
    InvalidParameterError,
    InvalidPenaltyError,
    InvalidTargetError,
    RidgeprecError,
    whole,
)
from ridgeprec.linalg import inv_pd

SIGMA = np.array([[2.0, 0.3], [0.3, 1.0]])
CHAIN = simulate.PopulationSpec("chain", 3)
BAD = [float("nan"), float("inf"), -float("inf"), 2.5, "3", None]

# name -> (call with the value under test, lowest valid value, error class)
COUNTS = {
    "CVConfig.k": (lambda v: cv.CVConfig(grid=[1.0], k=v), 2, InvalidParameterError),
    "make_folds.k": (lambda v: cv.make_folds(10, v, 0), 2, InvalidFoldsError),
    "make_folds.n": (lambda v: cv.make_folds(v, 2, 0), 1, InvalidFoldsError),
    "default_grid.num": (lambda v: cv.default_grid(SIGMA, v), 1, InvalidParameterError),
    "wishart_moments.n": (lambda v: moments.wishart_moments(SIGMA, v), 1, InvalidParameterError),
    "bias_approx_type2.n": (
        lambda v: moments.bias_approx_type2(SIGMA, v, 1.0), 1, InvalidParameterError
    ),
    "mc_moments.n": (lambda v: moments.mc_moments(SIGMA, v, 1.0, reps=2), 1, InvalidParameterError),
    "mc_moments.reps": (
        lambda v: moments.mc_moments(SIGMA, 3, 1.0, reps=v), 1, InvalidParameterError
    ),
    "PopulationSpec.p": (lambda v: simulate.PopulationSpec("chain", v), 2, InvalidParameterError),
    "PopulationSpec.n0": (
        lambda v: simulate.PopulationSpec("random", 3, n0=v), 1, InvalidParameterError
    ),
    "PopulationSpec.blocks": (
        lambda v: simulate.PopulationSpec("clique", 4, blocks=v), 1, InvalidParameterError
    ),
    "sample_mvn.n": (lambda v: simulate.sample_mvn(SIGMA, v, 0), 1, InvalidParameterError),
    "RiskConfig.reps": (
        lambda v: simulate.RiskConfig(CHAIN, (5,), [1.0], reps=v), 1, InvalidParameterError
    ),
    "RiskConfig.sample_sizes": (
        lambda v: simulate.RiskConfig(CHAIN, (5, v), [1.0]), 1, InvalidParameterError
    ),
    "default_risk_grid.num": (
        lambda v: cv.default_grid(inv_pd(np.eye(3)), v), 1, InvalidParameterError
    ),
}

SEEDS = {
    "CVConfig.fold_seed": lambda v: cv.CVConfig(grid=[1.0], fold_seed=v),
    "make_folds.seed": lambda v: cv.make_folds(10, 2, v),
    "RiskConfig.base_seed": lambda v: simulate.RiskConfig(CHAIN, (5,), [1.0], base_seed=v),
    "PopulationSpec.seed": lambda v: simulate.PopulationSpec("random", 3, seed=v),
    "mc_moments.seed": lambda v: moments.mc_moments(SIGMA, 3, 1.0, reps=2, seed=v),
}


I2, I3 = np.eye(2), np.eye(3)

# name -> a call with a 3 x 3 and a 2 x 2 matrix where one size belongs
MISMATCHED = {
    "loglik": lambda: estimators.loglik(I3, I2),
    "stationarity_residual": lambda: estimators.stationarity_residual(
        I3, I2, estimators.Target.identity(), 1.0
    ),
    "loss_frobenius": lambda: simulate.loss_frobenius(I3, I2),
    "loss_quadratic": lambda: simulate.loss_quadratic(I3, I2),
}

# name -> a config built with a 2-D grid
GRIDS_2D = {
    "CVConfig.grid": lambda: cv.CVConfig(grid=[[1.0, 2.0], [3.0, 4.0]]),
    "RiskConfig.grid": lambda: simulate.RiskConfig(CHAIN, (5,), [[1.0, 2.0], [3.0, 4.0]]),
}

# name -> (a call with a non-number where a number belongs, error class)
STRINGS = {
    "Target.scalar": (lambda v: estimators.Target.scalar(v), InvalidTargetError),
    "Target.diagonal": (lambda v: estimators.Target.diagonal([1.0, v]), InvalidTargetError),
    "null_density.r": (lambda v: ggm.null_density(v, 3.0), InvalidParameterError),
    "null_density.kappa": (lambda v: ggm.null_density(0.0, v), InvalidParameterError),
    "fit.lam": (lambda v: estimators.fit("alt-2", I3, v), InvalidPenaltyError),
    "penalty_map_1": (lambda v: estimators.penalty_map_1(v), InvalidPenaltyError),
    "penalty_in_kind_scale": (
        lambda v: simulate.penalty_in_kind_scale("alt-2", v), InvalidPenaltyError
    ),
    "bias_approx_type2.lam": (
        lambda v: moments.bias_approx_type2(SIGMA, 3, v), InvalidPenaltyError
    ),
    "stationarity_residual.lam": (
        lambda v: estimators.stationarity_residual(I3, I3, estimators.Target.identity(), v),
        InvalidPenaltyError,
    ),
    "shrunk_eigenvalues.lam": (
        lambda v: estimators.shrunk_eigenvalues("alt-2", [1.0], v), InvalidPenaltyError
    ),
    "CVConfig.grid": (lambda v: cv.CVConfig(grid=[1.0, v]), InvalidParameterError),
    "RiskConfig.grid": (
        lambda v: simulate.RiskConfig(CHAIN, (5,), [1.0, v]), InvalidParameterError
    ),
}


def mixture_fit():
    """An lFDR fit with ``eta0`` in (0, 1): a null bulk and 20 values near 0.8."""
    rng = np.random.default_rng(0)
    spikes = np.clip(0.8 + 0.02 * rng.standard_normal(20), -0.99, 0.99)
    return ggm.fit_lfdr(np.concatenate([0.2 * rng.standard_normal(80), spikes]))


# name -> a graph-layer call with an array that is not a square matrix
NOT_SQUARE = {
    "offdiagonal_values.1d": lambda: ggm.offdiagonal_values(np.ones(3)),
    "offdiagonal_values.2x3": lambda: ggm.offdiagonal_values(np.ones((2, 3))),
    "edge_probabilities.1d": lambda: ggm.edge_probabilities(np.ones(3), mixture_fit()),
}

# Read by its upper triangle alone, this P gave pair (0, 1) an edge
# probability of 0.99997 and its transpose 0.0096.
ASYMMETRIC_P = np.array([[1.0, 0.8, 0.0], [-0.1, 1.0, 0.0], [0.0, 0.0, 1.0]])

# name -> a graph-layer call that reads a partial-correlation matrix
READS_P = {
    "offdiagonal_values": ggm.offdiagonal_values,
    "edge_probabilities": lambda P: ggm.edge_probabilities(P, mixture_fit()),
}

OUTSIDE = [float("nan"), float("inf"), -1.0, 1.0, 1.5]


class TestWhole:
    @pytest.mark.parametrize("value", [3, 3.0, np.int64(3), np.float64(3.0)])
    def test_returns_int(self, value):
        out = whole(value, "n")
        assert out == 3 and type(out) is int

    @pytest.mark.parametrize("value", BAD + [0, -1])
    def test_rejects_with_the_given_class(self, value):
        with pytest.raises(InvalidParameterError, match="n must be a positive integer"):
            whole(value, "n")
        with pytest.raises(InvalidFoldsError):
            whole(value, "k", 2, InvalidFoldsError)

    def test_message_names_the_bound(self):
        with pytest.raises(InvalidParameterError, match="k must be an integer >= 2, got 1"):
            whole(1, "k", 2)
        with pytest.raises(InvalidParameterError, match="seed must be a non-negative integer"):
            whole(-1, "seed", 0)
        assert whole(0, "seed", 0) == 0


@pytest.mark.parametrize("site", sorted(COUNTS))
@pytest.mark.parametrize("value", BAD + ["below low"])
def test_count_sites_raise_typed_errors(site, value):
    call, low, error = COUNTS[site]
    if value == "below low":
        value = low - 1
    with pytest.raises(RidgeprecError) as info:
        call(value)
    assert type(info.value) is error


@pytest.mark.parametrize("site", sorted(COUNTS))
def test_count_sites_accept_integral_floats(site):
    call, low, _ = COUNTS[site]
    call(float(max(low, 2)))


@pytest.mark.parametrize("site", sorted(SEEDS))
@pytest.mark.parametrize("value", BAD + [-1])
def test_seed_sites_raise_typed_errors(site, value):
    with pytest.raises(InvalidParameterError, match="must be a non-negative integer"):
        SEEDS[site](value)


def test_configs_store_the_checked_ints():
    config = cv.CVConfig(grid=[1.0], k=3.0, fold_seed=4.0)
    assert (type(config.k), type(config.fold_seed)) == (int, int)
    spec = simulate.PopulationSpec("random", 3.0, seed=2.0, n0=50.0, blocks=1.0)
    assert all(type(getattr(spec, f)) is int for f in ("p", "seed", "n0", "blocks"))
    risk = simulate.RiskConfig(spec, (5.0,), [1.0], reps=2.0, base_seed=1.0)
    assert all(type(x) is int for x in (risk.reps, risk.base_seed, *risk.sample_sizes))


@pytest.mark.parametrize("site", sorted(MISMATCHED))
def test_mismatched_sizes_are_matrix_errors(site):
    with pytest.raises(InvalidMatrixError, match=r"\(3, 3\) and \(2, 2\)"):
        MISMATCHED[site]()


@pytest.mark.parametrize("site", sorted(GRIDS_2D))
def test_two_dimensional_grids_are_parameter_errors(site):
    with pytest.raises(InvalidParameterError, match=r"shape \(2, 2\)"):
        GRIDS_2D[site]()


@pytest.mark.parametrize("site", sorted(STRINGS))
@pytest.mark.parametrize("value", ["x", ""])
def test_strings_for_numbers_raise_typed_errors(site, value):
    call, error = STRINGS[site]
    with pytest.raises(RidgeprecError) as info:
        call(value)
    assert type(info.value) is error


@pytest.mark.parametrize("site", ["Target.scalar", "null_density.r", "null_density.kappa"])
def test_none_for_a_number_raises_a_typed_error(site):
    call, error = STRINGS[site]
    with pytest.raises(RidgeprecError) as info:
        call(None)
    assert type(info.value) is error


def test_targets_keep_their_messages_for_strings():
    with pytest.raises(InvalidTargetError, match="scalar target needs finite psi >= 0, got x"):
        estimators.Target.scalar("x")
    with pytest.raises(InvalidTargetError, match="diagonal target needs finite positive entries"):
        estimators.Target.diagonal(["a"])


def test_empty_estimator_list_is_a_parameter_error():
    with pytest.raises(InvalidParameterError, match="estimators must be a nonempty list"):
        simulate.RiskConfig(simulate.PopulationSpec("star", 5), (5,), [1.0], estimators=())


@pytest.mark.parametrize("site", sorted(NOT_SQUARE))
def test_graph_matrices_must_be_square(site):
    with pytest.raises(InvalidMatrixError, match=r"P must be square, got shape \("):
        NOT_SQUARE[site]()


@pytest.mark.parametrize("site", sorted(READS_P))
@pytest.mark.parametrize("P", [ASYMMETRIC_P, ASYMMETRIC_P.T], ids=["upper", "lower"])
def test_graph_matrices_must_be_symmetric(site, P):
    with pytest.raises(InvalidMatrixError, match="P is not symmetric"):
        READS_P[site](P)


@pytest.mark.parametrize("eta0", ["fitted", 1.0])
@pytest.mark.parametrize("value", OUTSIDE)
def test_lfdr_values_take_the_fits_domain(eta0, value):
    fit = mixture_fit()
    fit = fit if eta0 == "fitted" else replace(fit, eta0=eta0)
    with pytest.raises(InvalidParameterError, match=r"strictly inside \(-1, 1\)"):
        ggm.lfdr_values([0.0, value], fit)
