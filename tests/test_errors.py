"""Every whole-number count and RNG seed is checked by ``errors.whole``.

Each site must turn a bad value into its documented ``RidgeprecError``
subclass, never a ``ValueError``, ``OverflowError`` or ``TypeError``.
"""

import numpy as np
import pytest

from ridgeprec import cv, moments, simulate
from ridgeprec.errors import InvalidFoldsError, InvalidParameterError, RidgeprecError, whole
from ridgeprec.linalg import inv_pd

SIGMA = np.array([[2.0, 0.3], [0.3, 1.0]])
CHAIN = simulate.PopulationSpec("chain", 3)
BAD = [float("nan"), float("inf"), -float("inf"), 2.5, "3", None]

# name -> (call with the value under test, lowest valid value, error class)
COUNTS = {
    "CVConfig.k": (lambda v: cv.CVConfig(grid=[1.0], k=v), 2, InvalidParameterError),
    "make_folds.k": (lambda v: cv.make_folds(10, v, 0), 2, InvalidFoldsError),
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
