import numpy as np
import numpy.testing as npt
import pytest

from ridgeprec import cv, estimators, simulate
from ridgeprec.errors import (
    InvalidParameterError,
    InvalidPenaltyError,
    NotPositiveDefiniteError,
)
from ridgeprec.estimators import Target, penalty_map_1, sample_cov
from ridgeprec.linalg import inv_pd
from ridgeprec.simulate import (
    PopulationSpec,
    RiskConfig,
    coefficient_paths,
    figure1_inverse,
    figure1_matrix,
    loss_frobenius,
    loss_quadratic,
    penalty_in_kind_scale,
    population_precision,
    risk_curve,
    sample_mvn,
)

from oracles import (
    coefficient_paths_loop,
    default_risk_grid_closed_form,
    is_pd,
    loss_frobenius_loop,
    loss_quadratic_loop,
    penalty_in_kind_scale_loop,
    penalty_map_1_loop,
    quadratic_given_sigma_diag,
    risk_curve_loop,
    same_bits,
)

CUSTOM_GRID = np.array([1e-3, 0.02, 0.5, 1.0, 3.7, 50.0, 1e4])


class TestPopulationPrecision:
    def test_chain_p3(self):
        want = np.array([[1.0, 0.25, 0.0], [0.25, 1.0, 0.25], [0.0, 0.25, 1.0]])
        npt.assert_array_equal(population_precision(PopulationSpec("chain", 3)), want)

    def test_star_p3(self):
        want = np.array([[1.0, 0.5, 1.0 / 3.0], [0.5, 1.0, 0.0], [1.0 / 3.0, 0.0, 1.0]])
        npt.assert_allclose(population_precision(PopulationSpec("star", 3)), want, rtol=1e-16)

    def test_clique_blocks(self):
        Omega = population_precision(PopulationSpec("clique", 10, blocks=5, offdiag=0.25))
        block = np.array([[1.0, 0.25], [0.25, 1.0]])
        npt.assert_array_equal(Omega, np.kron(np.eye(5), block))

    def test_clique_divisibility(self):
        with pytest.raises(InvalidParameterError):
            population_precision(PopulationSpec("clique", 10, blocks=3))

    def test_random_is_pd_and_deterministic(self):
        spec = PopulationSpec("random", 6, seed=4)
        a = population_precision(spec)
        b = population_precision(spec)
        npt.assert_array_equal(a, b)
        assert is_pd(a, tol=0.0)
        assert not np.array_equal(a, population_precision(PopulationSpec("random", 6, seed=5)))

    def test_random_concentrates_near_identity(self):
        Omega = population_precision(PopulationSpec("random", 4, seed=0))
        assert np.max(np.abs(Omega - np.eye(4))) < 0.1

    def test_spec_validation(self):
        with pytest.raises(InvalidParameterError):
            PopulationSpec("lattice", 5)
        with pytest.raises(InvalidParameterError):
            PopulationSpec("chain", 1)

    @pytest.mark.parametrize(
        "topology, field, value",
        [("clique", "blocks", 0), ("clique", "blocks", -1), ("clique", "blocks", 2.5),
         ("random", "n0", 0), ("random", "n0", -3)],
    )
    def test_blocks_and_n0_must_be_positive_integers(self, topology, field, value):
        with pytest.raises(InvalidParameterError, match=field):
            PopulationSpec(topology, 10, **{field: value})

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_offdiag_must_be_finite(self, value):
        with pytest.raises(InvalidParameterError, match="offdiag must be finite"):
            PopulationSpec("clique", 10, blocks=5, offdiag=value)


class TestSampleMVN:
    def test_identity_large_sample(self):
        Y = sample_mvn(np.eye(3), 100_000, seed=0)
        assert np.max(np.abs(sample_cov(Y, center=True) - np.eye(3))) < 0.02

    def test_deterministic(self):
        Sigma = np.diag([4.0, 1.0])
        npt.assert_array_equal(sample_mvn(Sigma, 10, 3), sample_mvn(Sigma, 10, 3))

    def test_marginal_variances(self):
        Sigma = np.diag([4.0, 1.0])
        n = 50_000
        v = sample_cov(sample_mvn(Sigma, n, 1), center=True).diagonal()
        se = np.sqrt(2.0 / n) * Sigma.diagonal()  # sd of a variance estimate
        assert np.all(np.abs(v - Sigma.diagonal()) <= 3.0 * se)

    def test_generator_passthrough(self):
        Sigma = np.eye(2)
        from_seed = sample_mvn(Sigma, 5, 11)
        from_gen = sample_mvn(Sigma, 5, np.random.default_rng(11))
        npt.assert_array_equal(from_seed, from_gen)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefiniteError):
            sample_mvn(np.diag([1.0, -1.0]), 5, 0)

    def test_rejects_bad_n(self):
        with pytest.raises(InvalidParameterError):
            sample_mvn(np.eye(2), 0, 0)

    @pytest.mark.parametrize("seed", [-1, 2.5, float("nan"), None, "1", [7, -1], [7, 0.5]])
    def test_rejects_bad_seed(self, seed):
        with pytest.raises(InvalidParameterError, match="seed"):
            sample_mvn(np.eye(2), 3, seed)

    def test_seed_forms_draw_their_streams(self):
        Sigma = np.eye(2)
        for seed in (0, 11, np.int64(11), [7, 20, 3]):
            want = np.random.default_rng(seed).standard_normal((4, 2))
            npt.assert_array_equal(sample_mvn(Sigma, 4, seed), want)
            npt.assert_array_equal(sample_mvn(Sigma, 4, np.random.default_rng(seed)), want)


class TestLosses:
    def test_zero_at_truth(self, rng, make_spd):
        Omega = make_spd(4, rng)
        assert loss_frobenius(Omega, Omega) == 0.0
        assert loss_quadratic(Omega, Omega) <= 1e-25

    def test_quadratic_scaling_example(self, rng, make_spd):
        Omega = make_spd(3, rng)
        npt.assert_allclose(loss_quadratic(2.0 * Omega, Omega), 3.0, rtol=1e-10)

    def test_frobenius_matches_loop(self, rng, make_spd):
        A, B = make_spd(4, rng), make_spd(4, rng)
        npt.assert_allclose(loss_frobenius(A, B), loss_frobenius_loop(A, B), rtol=1e-13)

    def test_quadratic_matches_loop(self, rng, make_spd):
        A, B = make_spd(4, rng), make_spd(4, rng)
        npt.assert_allclose(loss_quadratic(A, B), loss_quadratic_loop(A, B), rtol=1e-10)

    @pytest.mark.parametrize("n", [4, 20], ids=["n<p", "n>p"])
    @pytest.mark.parametrize("kind", estimators.KINDS)
    def test_quadratic_given_sigma_matches_diagonal_subtraction(self, kind, n):
        p = 10
        Omega = population_precision(PopulationSpec("star", p))
        Sigma = inv_pd(Omega)
        S = sample_cov(sample_mvn(Sigma, n, [3, n]))
        grid = penalty_in_kind_scale(kind, np.logspace(-3, 3, 9))
        for omega in estimators.fit(kind, S, grid, "ddiag").omega:
            got = simulate._quadratic_given_sigma(omega, Sigma)
            assert same_bits(got, quadratic_given_sigma_diag(omega, Sigma))


class TestPenaltyScale:
    def test_alt_passthrough(self):
        assert penalty_in_kind_scale("alt-1", 3.7) == 3.7
        assert penalty_in_kind_scale("alt-2", 3.7) == 3.7

    def test_archetype_maps(self):
        assert penalty_in_kind_scale("archetype-1", 1.0) == pytest.approx(penalty_map_1(1.0))
        assert penalty_in_kind_scale("archetype-2", 4.0) == 2.0

    def test_unknown_kind(self):
        with pytest.raises(InvalidParameterError):
            penalty_in_kind_scale("lasso", 1.0)

    @pytest.mark.parametrize("kind", estimators.KINDS)
    @pytest.mark.parametrize("which", ["default", "custom"])
    def test_grid_map_matches_elementwise_map_bit_for_bit(self, kind, which):
        grid = cv.default_grid(inv_pd(figure1_inverse()), 50) if which == "default" else CUSTOM_GRID
        want = penalty_in_kind_scale_loop(kind, grid)
        assert same_bits(penalty_in_kind_scale(kind, grid), want)
        assert [penalty_in_kind_scale(kind, la) for la in grid] == want.tolist()

    @pytest.mark.parametrize("which", ["default", "custom"])
    def test_penalty_map_1_grid_matches_elementwise_map(self, which):
        grid = cv.default_grid(figure1_matrix(), 50) if which == "default" else CUSTOM_GRID
        assert same_bits(penalty_map_1(grid), penalty_map_1_loop(grid))

    def test_archetype_1_default_grid_matches_elementwise_map(self):
        S = figure1_matrix()
        want = penalty_map_1_loop(cv.default_grid(S, 50))
        assert same_bits(cv.default_grid(S, 50, kind="archetype-1"), want)

    @pytest.mark.parametrize("kind", estimators.KINDS)
    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_bad_penalty_is_a_penalty_error(self, kind, bad):
        with pytest.raises(InvalidPenaltyError):
            penalty_in_kind_scale(kind, bad)
        with pytest.raises(InvalidPenaltyError):
            penalty_in_kind_scale(kind, np.array([1.0, bad]))


class TestDefaultRiskGrid:
    def test_endpoints(self):
        Omega = np.diag([0.5, 0.25])  # Sigma = diag(2, 4), g = 3
        grid = cv.default_grid(inv_pd(Omega), 10)
        assert grid.size == 10
        npt.assert_allclose(grid[0], 3e-4, rtol=1e-12)
        npt.assert_allclose(grid[-1], 3e4, rtol=1e-12)

    @pytest.mark.parametrize("num", [50, 7])
    def test_matches_closed_form_bit_for_bit(self, num):
        for Omega in (figure1_inverse(), population_precision(PopulationSpec("star", 25))):
            assert same_bits(
                cv.default_grid(inv_pd(Omega), num), default_risk_grid_closed_form(Omega, num)
            )


def replicate_stack(reps, kind):
    """A (reps, 3, 4) stack of losses: plain draws, heavy ties or signed zeros."""
    rng = np.random.default_rng([34, reps])
    if kind == "signed-zeros":
        return rng.choice([-0.0, 0.0, 1.0], (reps, 3, 4))
    stacked = rng.standard_normal((reps, 3, 4))
    return np.round(stacked) if kind == "ties" else stacked


class TestReplicateMedian:
    # risk_curve takes the median off one np.sort, because np.median
    # imports numpy.ma on its first call.

    @pytest.mark.parametrize("kind", ["plain", "ties", "signed-zeros"])
    @pytest.mark.parametrize("reps", [1, 2, 5, 6, 11, 30])
    def test_matches_np_median_bit_for_bit(self, reps, kind):
        stacked = replicate_stack(reps, kind)
        assert same_bits(simulate._replicate_median(stacked), np.median(stacked, axis=0))

    @pytest.mark.parametrize("reps", [5, 6])
    def test_a_nan_in_a_column_gives_nan(self, reps):
        stacked = replicate_stack(reps, "plain")
        stacked[1, 0, 2] = np.nan
        got = simulate._replicate_median(stacked)
        assert np.isnan(got[0, 2]) and np.isnan(got).sum() == 1
        assert same_bits(got, np.median(stacked, axis=0))


class TestRiskCurve:
    def test_single_rep_equals_direct_computation(self):
        pop = PopulationSpec("chain", 4)
        cfg = RiskConfig(
            pop, (8,), [0.5], estimators=("alt-1",), reps=1, loss="quadratic", base_seed=9
        )
        curve = risk_curve(cfg)
        Omega = population_precision(pop)
        L = np.linalg.cholesky(inv_pd(Omega))
        rng = np.random.default_rng([9, 8, 0])
        S = sample_cov(rng.standard_normal((8, 4)) @ L.T)
        direct = loss_quadratic(estimators.fit("alt-1", S, 0.5, "ddiag").omega, Omega)
        npt.assert_allclose(curve.medians[("alt-1", 8)][0], direct, rtol=5e-15)

    def test_indefinite_sigma_is_a_typed_error(self):
        # A caller-supplied Sigma is factored to draw the replicates; numpy's
        # LinAlgError used to escape untyped.
        cfg = RiskConfig(PopulationSpec("chain", 4), (8,), [0.5], reps=1)
        with pytest.raises(NotPositiveDefiniteError, match=r"^risk curves require a p\.d\. Sigma$"):
            risk_curve(cfg, np.eye(4), np.diag([1.0, 1.0, 1.0, -1.0]))

    def test_true_precision_target_wins_at_heavy_shrinkage(self):
        pop = PopulationSpec("chain", 5)
        Omega = population_precision(pop)
        grid = cv.default_grid(inv_pd(Omega), 12)
        kw = dict(
            sample_sizes=(20,),
            grid=grid,
            estimators=("alt-1",),
            reps=10,
            loss="frobenius",
            base_seed=5,
        )
        ddiag = risk_curve(RiskConfig(pop, **kw)).medians[("alt-1", 20)]
        spot = risk_curve(RiskConfig(pop, target=Target.full(Omega), **kw)).medians[
            ("alt-1", 20)
        ]
        assert np.all(spot[9:] < 0.01 * ddiag[9:])

    def test_anchored_at_truth_huge_penalty_loss_vanishes(self):
        pop = PopulationSpec("chain", 5)
        Omega = population_precision(pop)
        cfg = RiskConfig(
            pop,
            (10,),
            [1e8],
            estimators=("alt-1",),
            target=Target.full(Omega),
            reps=3,
            loss="frobenius",
            base_seed=1,
        )
        assert risk_curve(cfg).medians[("alt-1", 10)][0] <= 1e-10

    def test_deterministic(self):
        cfg = RiskConfig(
            PopulationSpec("chain", 4),
            (12,),
            [0.1, 1.0],
            estimators=("alt-1", "archetype-2"),
            reps=4,
            base_seed=2,
        )
        a = risk_curve(cfg)
        b = risk_curve(cfg)
        for key in a.medians:
            npt.assert_array_equal(a.medians[key], b.medians[key])

    def test_losses_shape_and_median(self):
        cfg = RiskConfig(
            PopulationSpec("chain", 3), (6,), [0.2, 2.0], estimators=("alt-2",),
            target=Target.zero(), reps=5, base_seed=0,
        )
        curve = risk_curve(cfg)
        raw = curve.losses[("alt-2", 6)]
        assert raw.shape == (5, 2)
        npt.assert_array_equal(np.median(raw, axis=0), curve.medians[("alt-2", 6)])

    @pytest.mark.parametrize("block", [None, 5], ids=["one-block", "blocks-of-5"])
    @pytest.mark.parametrize("loss", ["quadratic", "frobenius"])
    def test_matches_per_penalty_loop(self, loss, block, monkeypatch):
        p = 6
        if block is not None:
            monkeypatch.setattr(estimators, "STACK_BYTES", block * 8 * p * p)
        for target in ("ddiag", Target.identity(), Target.full(np.eye(p) + 0.1)):
            cfg = RiskConfig(
                PopulationSpec("star", p), (4, 12), np.logspace(-3, 2, 12),
                estimators=estimators.KINDS, target=target, reps=3, loss=loss, base_seed=7,
            )
            curve = risk_curve(cfg)
            medians, losses = risk_curve_loop(cfg)
            assert curve.medians.keys() == medians.keys() == losses.keys()
            for key in medians:
                assert same_bits(curve.medians[key], medians[key]), key
                assert same_bits(curve.losses[key], losses[key]), key

    @pytest.mark.parametrize("loss", ["quadratic", "frobenius"])
    def test_stacked_losses_match_loop_on_a_split_grid(self, loss):
        # p = 26 at the default STACK_BYTES: the 50-point grid runs in two
        # blocks, and each block's losses are one stacked contraction.
        p, grid = 26, np.logspace(-2, 2, 50)
        assert len(estimators.stack_slices(grid.size, p * p)) == 2
        cfg = RiskConfig(
            PopulationSpec("star", p), (10,), grid, estimators=("alt-2", "archetype-2"),
            target=Target.zero(), reps=2, loss=loss, base_seed=3,
        )
        curve = risk_curve(cfg)
        medians, losses = risk_curve_loop(cfg)
        for key in medians:
            assert same_bits(curve.medians[key], medians[key]), key
            assert same_bits(curve.losses[key], losses[key]), key

    def test_one_grid_decomposition_per_replicate_and_shared_kind(self, decompositions):
        # 4 kinds on a 50-point grid: alt-2 and archetype-2 decompose S once,
        # alt-1 (ddiag) and archetype-1 once per penalty: 102 matrices. With
        # an identity target every kind shifts S's eigenvalues: 4 matrices.
        reps, sizes = 3, (5, 10)
        replicates = reps * len(sizes)
        for target, matrices in (("ddiag", 102), (Target.identity(), 4)):
            decompositions.clear()
            cfg = RiskConfig(
                PopulationSpec("star", 8), sizes, np.logspace(-2, 2, 50),
                estimators=estimators.KINDS, target=target, reps=reps,
            )
            risk_curve(cfg)
            # One more matrix: the population covariance inverted once per curve.
            assert sum(decompositions) <= matrices * replicates + 1

    def test_config_validation(self):
        pop = PopulationSpec("chain", 3)
        with pytest.raises(InvalidParameterError):
            RiskConfig(pop, (5,), [0.1], loss="hinge")
        with pytest.raises(InvalidParameterError):
            RiskConfig(pop, (5,), [0.1], estimators=("lasso",))
        with pytest.raises(InvalidParameterError):
            RiskConfig(pop, (5,), [0.1], reps=0)
        with pytest.raises(InvalidParameterError):
            RiskConfig(pop, (5,), [-0.1])
        for sizes in ((), (0,), (-5,), (2.5,)):
            with pytest.raises(InvalidParameterError):
                RiskConfig(pop, sizes, [0.1])


class TestFigure1:
    def test_inverse_entries(self):
        Sinv = figure1_inverse()
        npt.assert_array_equal(np.diag(Sinv), np.ones(5))
        assert Sinv[0, 1] == 0.12  # (1*2+1) % 21 / 25
        assert Sinv[1, 2] == 0.28  # (2*3+1) % 21 / 25
        assert Sinv[3, 4] == 0.0  # (4*5+1) % 21 = 0
        npt.assert_array_equal(Sinv, Sinv.T)

    def test_matrix_inverts_back(self):
        S = figure1_matrix()
        npt.assert_allclose(S @ figure1_inverse(), np.eye(5), atol=1e-12)


class TestCoefficientPaths:
    def test_pairs_order(self):
        pairs, _ = coefficient_paths(np.eye(3), [1.0])
        assert pairs == [(0, 1), (0, 2), (1, 2)]

    def test_shapes_and_kinds(self):
        S = figure1_matrix()
        pairs, paths = coefficient_paths(S, [0.1, 1.0, 10.0], kinds=("alt-1", "archetype-2"))
        assert set(paths) == {"alt-1", "archetype-2"}
        assert paths["alt-1"].shape == (10, 3)

    def test_light_shrinkage_recovers_inverse(self):
        S = figure1_matrix()
        Sinv = figure1_inverse()
        pairs, paths = coefficient_paths(S, [1e-8])
        want = np.array([Sinv[i, j] for i, j in pairs])
        npt.assert_allclose(paths["alt-1"][:, 0], want, atol=1e-5)

    @pytest.mark.parametrize("block", [None, 4], ids=["one-block", "blocks-of-4"])
    def test_matches_per_penalty_loop(self, block, monkeypatch):
        S = figure1_matrix()
        if block is not None:
            monkeypatch.setattr(estimators, "STACK_BYTES", block * 8 * 5 * 5)
        grid = np.logspace(-4, 4, 9)
        for target in ("ddiag", Target.scalar(2.0)):
            _, paths = coefficient_paths(S, grid, kinds=estimators.KINDS, target=target)
            want = coefficient_paths_loop(S, grid, kinds=estimators.KINDS, target=target)
            for kind in estimators.KINDS:
                assert same_bits(paths[kind], want[kind]), kind

    def test_heavy_shrinkage_kills_offdiagonals(self):
        S = figure1_matrix()
        _, paths = coefficient_paths(S, [1e8])
        assert np.max(np.abs(paths["alt-1"][:, 0])) <= 1e-3
