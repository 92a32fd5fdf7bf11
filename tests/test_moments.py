import numpy as np
import numpy.testing as npt
import pytest

from ridgeprec.errors import (
    InvalidMatrixError,
    InvalidParameterError,
    InvalidPenaltyError,
    NotPositiveDefiniteError,
)
from ridgeprec.estimators import Target, alt_ridge2, sample_cov
from ridgeprec import estimators
from ridgeprec.moments import bias_approx_type2, mc_moments, wishart_moments

from oracles import mc_moments_loop, same_bits


class TestWishartMoments:
    def test_identity_example(self):
        m = wishart_moments(np.eye(3), 5)
        npt.assert_array_equal(m.mean, np.eye(3))
        npt.assert_allclose(m.mean_sq, 1.8 * np.eye(3), rtol=1e-15)

    def test_diagonal_example(self):
        Sigma = np.diag([1.0, 2.0])
        m = wishart_moments(Sigma, 4)
        # (5/4) diag(1,4) + (3/4) diag(1,2)
        npt.assert_allclose(m.mean_sq, np.diag([2.0, 6.5]), rtol=1e-15)

    def test_mean_is_sigma(self, rng, make_spd):
        Sigma = make_spd(4, rng)
        npt.assert_array_equal(wishart_moments(Sigma, 7).mean, Sigma)

    def test_rejects_asymmetric(self):
        with pytest.raises(InvalidMatrixError):
            wishart_moments(np.array([[1.0, 0.2], [0.1, 1.0]]), 5)

    def test_rejects_bad_n(self):
        with pytest.raises(InvalidParameterError):
            wishart_moments(np.eye(2), 0)

    def test_second_moment_against_monte_carlo(self, rng, make_spd):
        Sigma = make_spd(3, rng)
        L = np.linalg.cholesky(Sigma)
        n, reps = 5, 200_000
        draws = rng.standard_normal((reps, n, 3)) @ L.T
        S = np.einsum("rni,rnj->rij", draws, draws) / n
        S2 = np.einsum("rij,rjk->rik", S, S)
        mc_mean = S2.mean(axis=0)
        mc_se = S2.std(axis=0, ddof=1) / np.sqrt(reps)
        exact = wishart_moments(Sigma, n).mean_sq
        assert np.all(np.abs(mc_mean - exact) <= 3.0 * mc_se)


class TestBiasApprox:
    def test_tiny_sigma_reduces_to_sqrt_lam(self):
        got = bias_approx_type2(1e-15 * np.eye(3), 5, 9.0)
        npt.assert_allclose(got, 3.0 * np.eye(3), atol=1e-12)

    def test_scalar_hand_value(self):
        # p=1, Sigma=1, n=10, lam=4: 0.5 + 2 + E[S^2]/(8*2) with E[S^2]=1.2
        got = bias_approx_type2(np.eye(1), 10, 4.0)
        npt.assert_allclose(got, [[2.575]], rtol=1e-15)

    def test_correction_shrinks_with_penalty(self, rng, make_spd):
        Sigma = make_spd(3, rng)
        p = 3
        gaps = []
        for lam in (1e2, 1e3, 1e4):
            approx = bias_approx_type2(Sigma, 6, lam)
            leading = 0.5 * Sigma + np.sqrt(lam) * np.eye(p)
            gaps.append(np.linalg.norm(approx - leading))
        assert gaps[0] > gaps[1] > gaps[2]

    def test_rejects_nonpositive_penalty(self):
        for lam in (0.0, -1.0, np.nan):
            with pytest.raises(InvalidPenaltyError):
                bias_approx_type2(np.eye(2), 5, lam)


class TestMCMoments:
    def test_near_identity_with_tiny_penalty(self):
        got = mc_moments(np.eye(2), 400, 1e-8, reps=50, seed=1)
        npt.assert_allclose(got, np.eye(2), atol=0.05)

    def test_single_rep_equals_direct_fit(self):
        Sigma = np.diag([2.0, 1.0])
        n, lam, seed = 6, 3.0, 14
        got = mc_moments(Sigma, n, lam, reps=1, seed=seed)
        rng = np.random.default_rng([seed, 0])
        Y = rng.standard_normal((n, 2)) @ np.linalg.cholesky(Sigma).T
        want = alt_ridge2(sample_cov(Y), lam).sigma
        npt.assert_allclose(got, 0.5 * (want + want.T), rtol=1e-15)

    def test_deterministic(self, make_spd, rng):
        Sigma = make_spd(3, rng)
        a = mc_moments(Sigma, 5, 2.0, reps=20, seed=3)
        b = mc_moments(Sigma, 5, 2.0, reps=20, seed=3)
        npt.assert_array_equal(a, b)

    def test_seed_matters(self):
        a = mc_moments(np.eye(2), 5, 2.0, reps=10, seed=0)
        b = mc_moments(np.eye(2), 5, 2.0, reps=10, seed=1)
        assert not np.array_equal(a, b)

    def test_with_target_uses_anchored_estimator(self):
        Sigma = np.eye(2)
        with_target = mc_moments(Sigma, 5, 50.0, target=Target.identity(), reps=10, seed=2)
        without = mc_moments(Sigma, 5, 50.0, reps=10, seed=2)
        # anchored fit stays near the target inverse; target-free grows like sqrt(lam)
        assert np.linalg.norm(with_target - np.eye(2)) < 1.0
        assert np.linalg.norm(without) > 5.0

    @pytest.mark.parametrize("reps", [3, 4, 5, 9])
    @pytest.mark.parametrize("target", [None, Target.identity(), "ddiag"], ids=["zero", "identity", "ddiag"])
    def test_matches_per_replicate_loop_across_blocks(self, reps, target, make_spd, rng, monkeypatch):
        # Blocks of 4 replicates: 3, 4, 5 and 9 are below, at and above one block.
        Sigma = make_spd(3, rng)
        monkeypatch.setattr(estimators, "STACK_BYTES", 4 * 8 * 3 * 6)  # 4 replicates of 6 x 3 data
        got = mc_moments(Sigma, 6, 2.5, target=target, reps=reps, seed=11)
        want = mc_moments_loop(Sigma, 6, 2.5, target=target, reps=reps, seed=11)
        assert same_bits(got, want)

    def test_matches_per_replicate_loop_at_default_budget(self, make_spd, rng):
        # n = 10 < p = 25: the fits are thin, so the mean agrees with one
        # dense fit per replicate to rounding, not bit for bit.
        p = 25
        block = estimators.stack_slices(10**6, p)[0].stop
        Sigma = make_spd(p, rng)
        got = mc_moments(Sigma, 10, 50.0, reps=block + 1, seed=4)
        want = mc_moments_loop(Sigma, 10, 50.0, reps=block + 1, seed=4)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("n", [25, 40], ids=["n=p", "n>p"])
    def test_dense_matches_per_replicate_loop_at_default_budget(self, n, make_spd, rng):
        p = 25
        block = estimators.stack_slices(10**6, p, n)[0].stop
        Sigma = make_spd(p, rng)
        got = mc_moments(Sigma, n, 50.0, reps=block + 1, seed=4)
        assert same_bits(got, mc_moments_loop(Sigma, n, 50.0, reps=block + 1, seed=4))

    def test_draws_are_blocked_by_data_size(self, monkeypatch):
        # A block holds at most STACK_BYTES of n x p draws, not just of p x p fits.
        sizes = []
        fit_data = estimators.fit_data

        def recording(kind, Y, lam, target=None):
            sizes.append(Y.shape[0])
            return fit_data(kind, Y, lam, target)

        monkeypatch.setattr(estimators, "fit_data", recording)
        monkeypatch.setattr(estimators, "STACK_BYTES", 3 * 8 * 2 * 50)
        mc_moments(np.eye(2), 50, 1.0, reps=7, seed=0)
        assert sizes == [3, 3, 1]

    def test_rejects_bad_penalty(self):
        for lam in (0.0, -1.0, np.nan):
            with pytest.raises(InvalidPenaltyError):
                mc_moments(np.eye(2), 5, lam, reps=3)

    def test_rejects_bad_reps(self):
        with pytest.raises(InvalidParameterError):
            mc_moments(np.eye(2), 5, 1.0, reps=0)

    def test_rejects_indefinite_sigma(self):
        with pytest.raises(NotPositiveDefiniteError):
            mc_moments(np.array([[1.0, 2.0], [2.0, 1.0]]), 5, 1.0, reps=3)

    def test_approximation_tracks_mc_at_large_penalty(self, rng, make_spd):
        Sigma = make_spd(3, rng)
        s2 = np.linalg.norm(Sigma, 2) ** 2
        lam = 200.0 * s2
        approx = bias_approx_type2(Sigma, 10, lam)
        mc = mc_moments(Sigma, 10, lam, reps=4000, seed=7)
        rel = np.linalg.norm(approx - mc) / np.linalg.norm(mc)
        assert rel < 5e-3
