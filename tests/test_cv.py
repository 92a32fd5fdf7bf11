import itertools
import math
import os
import sys
import threading
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

import ridgeprec.cv as cv
import ridgeprec.estimators as estimators
from ridgeprec.cv import (
    SCHEMES,
    CVConfig,
    default_grid,
    make_folds,
    score_grid,
    select_lambda,
)
from ridgeprec.errors import (
    InvalidFoldsError,
    InvalidParameterError,
    InvalidPenaltyError,
    InvalidTargetError,
)
from ridgeprec.estimators import Target, loglik, penalty_map_1, sample_cov
from ridgeprec.simulate import PopulationSpec, population_precision, sample_mvn

from oracles import aloocv_score_dense, cv_scores_loop, kfold_score_oracle, same_bits


def chain_data(n, p=5, seed=3):
    Omega = population_precision(PopulationSpec("chain", p))
    Sigma = np.linalg.inv(Omega)
    return sample_mvn(0.5 * (Sigma + Sigma.T), n, seed)


class TestCVConfig:
    def test_valid_roundtrip(self):
        cfg = CVConfig(grid=[0.1, 1.0], scheme="kfold", k=3)
        npt.assert_array_equal(cfg.grid, [0.1, 1.0])
        assert cfg.k == 3

    def test_bad_scheme(self):
        with pytest.raises(InvalidParameterError):
            CVConfig(grid=[1.0], scheme="bootstrap")

    def test_bad_estimator(self):
        with pytest.raises(InvalidParameterError):
            CVConfig(grid=[1.0], estimator="lasso")

    def test_bad_grid(self):
        for grid in ([], [0.0], [-1.0], [np.inf], [np.nan], [2.0, 1.0], [1.0, 1.0]):
            with pytest.raises(InvalidParameterError):
                CVConfig(grid=grid)

    def test_bad_k(self):
        with pytest.raises(InvalidParameterError):
            CVConfig(grid=[1.0], k=1)
        with pytest.raises(InvalidParameterError):
            CVConfig(grid=[1.0], k=2.5)


class TestMakeFolds:
    def test_partition_and_sizes(self):
        folds = make_folds(10, 3, seed=0)
        assert len(folds) == 3
        sizes = sorted(f.size for f in folds)
        assert sizes == [3, 3, 4]
        npt.assert_array_equal(np.sort(np.concatenate(folds)), np.arange(10))

    def test_deterministic(self):
        a = make_folds(12, 4, seed=7)
        b = make_folds(12, 4, seed=7)
        for x, y in zip(a, b):
            npt.assert_array_equal(x, y)

    def test_seed_changes_assignment(self):
        a = np.concatenate(make_folds(12, 4, seed=1))
        b = np.concatenate(make_folds(12, 4, seed=2))
        assert not np.array_equal(a, b)

    def test_k_equals_n_singletons(self):
        folds = make_folds(5, 5, seed=0)
        assert all(f.size == 1 for f in folds)

    def test_too_many_folds(self):
        with pytest.raises(InvalidFoldsError):
            make_folds(4, 5, seed=0)


class TestKFoldScore:
    def test_matches_from_scratch_oracle(self):
        Y = chain_data(8, p=3, seed=11)
        cfg = CVConfig(grid=[0.7], scheme="kfold", k=2, fold_seed=7, estimator="alt-1")
        got = score_grid(Y, cfg)[0]
        want = kfold_score_oracle(Y, 0.7, "alt-1", "ddiag", k=2, seed=7)
        npt.assert_allclose(got, want, rtol=1e-12)

    def test_k_equals_n_is_loocv(self):
        Y = chain_data(6, p=2, seed=5)
        cfg = CVConfig(grid=[0.3], scheme="kfold", k=6, estimator="alt-2", target=Target.zero())
        npt.assert_allclose(
            score_grid(Y, cfg)[0],
            score_grid(Y, replace(cfg, scheme="loocv"))[0],
            rtol=1e-12,
        )

    def test_loocv_matches_definitional_loop(self):
        Y = chain_data(7, p=3, seed=9)
        lam = 0.5
        cfg = CVConfig(grid=[lam], scheme="loocv", estimator="archetype-2", target=Target.zero())
        total = 0.0
        for i in range(7):
            rest = np.delete(Y, i, axis=0)
            est = estimators.fit("archetype-2", sample_cov(rest), lam, Target.zero())
            S_i = np.outer(Y[i], Y[i])
            total += -(np.linalg.slogdet(est.omega)[1] - np.trace(est.omega @ S_i))
        npt.assert_allclose(score_grid(Y, cfg)[0], total, rtol=1e-12)

    def test_zero_target_blows_up_at_huge_penalty(self):
        Y = chain_data(12, p=4, seed=2)
        cfg = CVConfig(grid=[1.0], scheme="kfold", k=3, estimator="alt-2", target=Target.zero())
        scores = [score_grid(Y, replace(cfg, grid=[lam]))[0] for lam in (1.0, 1e4, 1e8, 1e12)]
        assert np.all(np.diff(scores) > 100.0)

    def test_center_flag_changes_score(self):
        Y = chain_data(10, p=3, seed=4) + 3.0
        base = CVConfig(grid=[0.5], scheme="kfold", k=2, fold_seed=1)
        centered = CVConfig(grid=[0.5], scheme="kfold", k=2, fold_seed=1, center=True)
        assert score_grid(Y, base)[0] != score_grid(Y, centered)[0]


class TestApproxLOOCV:
    def test_hand_worked_scalar_case(self):
        Y = np.array([[1.0], [2.0]])
        lam = 0.5
        cfg = CVConfig(grid=[lam], scheme="aloocv", estimator="alt-2", target=Target.zero())
        S = 2.5
        sigma = math.sqrt(lam + S * S / 4.0) + S / 2.0
        omega = 1.0 / sigma
        gammas = [
            (sigma - y * y) * omega * (S - y * y) * omega for y in (1.0, 2.0)
        ]
        want = -0.5 * (math.log(omega) - S * omega) + sum(gammas) / 4.0
        npt.assert_allclose(score_grid(Y, cfg)[0], want, rtol=1e-12)

    def test_one_estimator_fit_per_call(self, monkeypatch):
        calls = {"n": 0}
        real_fit = estimators.fit

        def counting_fit(*args, **kwargs):
            calls["n"] += 1
            return real_fit(*args, **kwargs)

        monkeypatch.setattr(estimators, "fit", counting_fit)
        Y = chain_data(15, p=4, seed=8)
        cfg = CVConfig(grid=[0.2], scheme="aloocv")
        score_grid(Y, cfg)
        assert calls["n"] == 1

    def test_needs_two_rows(self):
        cfg = CVConfig(grid=[1.0], scheme="aloocv")
        with pytest.raises(InvalidFoldsError):
            score_grid(np.array([[1.0, 2.0]]), cfg)

    def test_tracks_exact_loocv_argmin(self):
        Y = chain_data(40, p=5, seed=3)
        grid = default_grid(sample_cov(Y), 20)
        exact = CVConfig(grid=grid, scheme="loocv", estimator="archetype-2", target=Target.zero())
        approx = CVConfig(grid=grid, scheme="aloocv", estimator="archetype-2", target=Target.zero())
        i_exact = int(np.argmin(score_grid(Y, exact)))
        i_approx = int(np.argmin(score_grid(Y, approx)))
        assert i_exact == 8  # interior, not an endpoint
        assert abs(i_exact - i_approx) <= 1


class TestSpectralScoresMatchOracles:
    """Eigenpair scores against the dense K-fold and ALOOCV definitions.

    The data sit on a grid of 2**-10, so every sample covariance is exact
    in floating point and the package and the oracles' loop-built ones
    agree bit for bit. At n < p the smallest archetype-2 penalty amplifies
    a one-ulp difference in the held-in covariance by about 1e4.
    """

    SHAPES = {"n<p": (20, 40), "n>p": (60, 15)}

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @pytest.mark.parametrize("kind", estimators.KINDS)
    def test_scores_match_dense_oracles(self, kind, shape, scheme):
        n, p = self.SHAPES[shape]
        Y = np.round(chain_data(n, p=p, seed=n + p) * 1024.0) / 1024.0
        grid = default_grid(sample_cov(Y), 5, kind=kind)
        cfg = CVConfig(grid=grid, scheme=scheme, k=5, fold_seed=3, estimator=kind)
        if scheme == "aloocv":
            want = [aloocv_score_dense(Y, lam, kind, "ddiag") for lam in grid]
        else:
            k = n if scheme == "loocv" else 5
            want = [kfold_score_oracle(Y, lam, kind, "ddiag", k, 3) for lam in grid]
        npt.assert_allclose(score_grid(Y, cfg), want, rtol=1e-12)


class TestSelectLambda:
    def test_single_point_grid(self):
        Y = chain_data(10, p=3, seed=1)
        res = select_lambda(Y, CVConfig(grid=[0.4], scheme="kfold", k=2))
        assert res.lambda_star == 0.4
        assert res.scores.shape == (1,)

    def test_monotone_score_picks_smallest(self):
        Y = chain_data(40, p=5, seed=3)
        grid = np.logspace(2, 6, 8)
        cfg = CVConfig(grid=grid, scheme="kfold", k=4, estimator="alt-2", target=Target.zero())
        res = select_lambda(Y, cfg)
        assert np.all(np.diff(res.scores) > 0)
        assert res.lambda_star == grid[0] == 100.0

    def test_tie_breaks_to_larger_penalty(self, monkeypatch):
        grid = np.array([0.1, 1.0, 10.0])
        monkeypatch.setattr(cv, "score_grid", lambda Y, config, threads=1: np.zeros(3))
        res = select_lambda(np.eye(4), CVConfig(grid=grid))
        assert res.lambda_star == 10.0

    def test_deterministic_across_calls(self):
        Y = chain_data(20, p=4, seed=6)
        cfg = CVConfig(grid=default_grid(sample_cov(Y), 10), scheme="kfold", k=4, fold_seed=3)
        a = select_lambda(Y, cfg)
        b = select_lambda(Y, cfg)
        assert a.lambda_star == b.lambda_star
        npt.assert_array_equal(a.scores, b.scores)

    def test_result_records_scheme_and_grid(self):
        Y = chain_data(10, p=3, seed=1)
        cfg = CVConfig(grid=[0.5, 1.0], scheme="aloocv")
        res = select_lambda(Y, cfg)
        assert res.scheme == "aloocv"
        npt.assert_array_equal(res.grid, [0.5, 1.0])


    def test_nan_score_names_its_penalty(self):
        # At 1e-300 alt-2's ALOOCV score overflows to NaN; argmin would pick it.
        Y = np.random.default_rng(0).standard_normal((5, 8))
        cfg = CVConfig(grid=np.logspace(-300, 0, 4), scheme="aloocv", estimator="alt-2")
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isnan(score_grid(Y, cfg)[0])
            with pytest.raises(InvalidPenaltyError, match=r"^CV score is NaN at penalty 1e-300;"):
                select_lambda(Y, cfg)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_nan_score_warns_nothing(self, threads, monkeypatch):
        # No errstate here: pytest turns a numpy warning into an error, on the
        # workers too. Blocks of one grid point put three of them on a worker.
        monkeypatch.setattr(estimators, "STACK_BYTES", 8 * 8)
        Y = np.random.default_rng(0).standard_normal((5, 8))
        cfg = CVConfig(grid=np.logspace(-300, 0, 4), scheme="aloocv", estimator="alt-2")
        scores = score_grid(Y, cfg, threads)
        assert np.isnan(scores[0])
        npt.assert_array_equal(scores, score_grid(Y, cfg))
        with pytest.raises(InvalidPenaltyError, match=r"^CV score is NaN at penalty 1e-300;"):
            select_lambda(Y, cfg, threads)


class TestDefaultGrid:
    def test_endpoints_and_length(self):
        S = np.diag([2.0, 4.0])  # tr/p = 3
        grid = default_grid(S, 50)
        assert grid.size == 50
        npt.assert_allclose(grid[0], 3e-4, rtol=1e-12)
        npt.assert_allclose(grid[-1], 3e4, rtol=1e-12)
        assert np.all(np.diff(np.log(grid)) > 0)

    def test_log_spacing_uniform(self):
        grid = default_grid(np.eye(3), 9)
        steps = np.diff(np.log10(grid))
        npt.assert_allclose(steps, steps[0], rtol=1e-9)

    def test_archetype1_mapping(self):
        S = np.eye(2)
        raw = default_grid(S, 7)
        mapped = default_grid(S, 7, kind="archetype-1")
        npt.assert_allclose(mapped, [penalty_map_1(x) for x in raw], rtol=1e-15)
        assert np.all(mapped > 0) and np.all(mapped <= 1.0)

    def test_rejects_bad_anchor(self):
        with pytest.raises(InvalidParameterError):
            default_grid(np.zeros((2, 2)))

    def test_rejects_bad_num(self):
        with pytest.raises(InvalidParameterError):
            default_grid(np.eye(2), 0)


class TestScoreGrid:
    def test_matches_pointwise_scores(self):
        Y = chain_data(12, p=3, seed=13)
        grid = np.array([0.1, 1.0, 10.0])
        cfg = CVConfig(grid=grid, scheme="kfold", k=3, fold_seed=2)
        scores = score_grid(Y, cfg)
        want = [score_grid(Y, replace(cfg, grid=[lam]))[0] for lam in grid]
        npt.assert_allclose(scores, want, rtol=1e-13)

    @pytest.mark.parametrize("scheme, penalties", [("kfold", 9), ("aloocv", 3)])
    def test_one_symmetry_check_per_fit(self, scheme, penalties, symmetry_checks, monkeypatch):
        grid_sizes = []
        real_fit = estimators.fit

        def recording_fit(kind, S, lam, *args, **kwargs):
            grid_sizes.append(np.size(lam))
            return real_fit(kind, S, lam, *args, **kwargs)

        monkeypatch.setattr(estimators, "fit", recording_fit)
        Y = chain_data(12, p=3, seed=13)
        score_grid(Y, CVConfig(grid=[0.1, 1.0, 10.0], scheme=scheme, k=3))
        assert grid_sizes == [3] * (penalties // 3)  # the grid is one block: one fit per part
        assert symmetry_checks == ["S"] * len(grid_sizes)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_scores_build_no_dense_matrices(self, scheme, monkeypatch):
        fits = []
        real_fit = estimators.fit

        def recording_fit(*args, **kwargs):
            fits.append(real_fit(*args, **kwargs))
            return fits[-1]

        monkeypatch.setattr(estimators, "fit", recording_fit)
        score_grid(chain_data(12, p=3, seed=13), CVConfig(grid=[0.1, 1.0], scheme=scheme, k=3))
        assert len(fits) == {"kfold": 3, "loocv": 12, "aloocv": 1}[scheme]
        assert sum(np.size(est.lam) for est in fits) == {"kfold": 6, "loocv": 24, "aloocv": 2}[scheme]
        assert not any({"omega", "sigma"} & est.__dict__.keys() for est in fits)

    def test_threads_do_not_change_result(self, monkeypatch):
        Y = chain_data(15, p=4, seed=21)
        grid = default_grid(sample_cov(Y), 8)
        monkeypatch.setattr(estimators, "STACK_BYTES", 2 * 8 * 4 * 4)  # 4 blocks of 2
        real_fit = estimators.fit
        for scheme in ("kfold", "aloocv"):
            cfg = CVConfig(grid=grid, scheme=scheme)
            monkeypatch.setattr(estimators, "fit", real_fit)
            inline = score_grid(Y, cfg, threads=1)
            # The first two fits wait for each other, so they must run on two threads.
            barrier = threading.Barrier(2, timeout=30)
            lock = threading.Lock()
            fit_threads = []

            def recording_fit(*args, **kwargs):
                with lock:
                    fit_threads.append(threading.get_ident())
                    first = len(fit_threads) <= 2
                if first:
                    barrier.wait()
                return real_fit(*args, **kwargs)

            monkeypatch.setattr(estimators, "fit", recording_fit)
            npt.assert_array_equal(score_grid(Y, cfg, threads=2), inline)
            assert len(set(fit_threads)) == 2
            npt.assert_array_equal(score_grid(Y, cfg, threads=0), inline)

    @pytest.mark.parametrize("source", ["affinity", "cpu_count"])
    def test_threads_zero_counts_usable_cpus(self, source, monkeypatch):
        # One usable CPU runs inline, whatever the machine's CPU count.
        if source == "affinity":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 2)
        else:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 1)
        monkeypatch.setattr(estimators, "STACK_BYTES", 2 * 8 * 4 * 4)  # 4 blocks of 2
        real_fit = estimators.fit
        fit_threads = set()

        def recording_fit(*args, **kwargs):
            fit_threads.add(threading.get_ident())
            return real_fit(*args, **kwargs)

        monkeypatch.setattr(estimators, "fit", recording_fit)
        Y = chain_data(15, p=4, seed=21)
        score_grid(Y, CVConfig(grid=default_grid(sample_cov(Y), 8), scheme="aloocv"), threads=0)
        assert fit_threads == {threading.get_ident()}


class TestCallerThreadPool:
    """``threads = N`` fits N blocks at a time: the caller and N - 1 pool workers."""

    @staticmethod
    def case(monkeypatch, grid_n=8):
        monkeypatch.setattr(estimators, "STACK_BYTES", 2 * 8 * 4 * 4)  # blocks of 2
        Y = chain_data(15, p=4, seed=21)
        return Y, default_grid(sample_cov(Y), grid_n)

    @staticmethod
    def record_fits(monkeypatch, parties):
        """Record each fit's thread; the first ``parties`` fits wait for each other."""
        real_fit = estimators.fit
        barrier = threading.Barrier(parties, timeout=30)
        lock = threading.Lock()
        fit_threads = []

        def recording_fit(*args, **kwargs):
            with lock:
                fit_threads.append(threading.get_ident())
                first = len(fit_threads) <= parties
            if first:
                barrier.wait()
            return real_fit(*args, **kwargs)

        monkeypatch.setattr(estimators, "fit", recording_fit)
        return fit_threads

    @pytest.mark.parametrize("threads", [2, 3])
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_scores_equal_inline_bit_for_bit(self, scheme, threads, monkeypatch):
        Y, grid = self.case(monkeypatch, grid_n=7)  # 4 blocks, the last of one penalty
        cfg = CVConfig(grid=grid, scheme=scheme, k=4)
        assert same_bits(score_grid(Y, cfg, threads=threads), score_grid(Y, cfg, threads=1))

    @pytest.mark.parametrize("threads", [2, 3])
    def test_fits_run_on_threads_threads_one_the_caller(self, threads, monkeypatch):
        Y, grid = self.case(monkeypatch)
        fit_threads = self.record_fits(monkeypatch, threads)
        score_grid(Y, CVConfig(grid=grid, scheme="kfold", k=3), threads=threads)
        assert len(set(fit_threads)) == threads
        assert threading.get_ident() in fit_threads
        assert len(fit_threads) == 3 * 4  # every block of every fold, once

    @pytest.mark.parametrize(
        "threads, grid_n, workers",
        [(1, 8, None), (2, 8, 1), (3, 8, 2), (0, 8, 2), (64, 4, 1), (64, 2, None)],
    )
    def test_pool_has_threads_minus_one_workers_capped_by_blocks(
        self, threads, grid_n, workers, monkeypatch
    ):
        Y, grid = self.case(monkeypatch, grid_n)
        monkeypatch.setattr(cv, "_usable_cpus", lambda: 3)
        sizes = []

        class RecordingExecutor(cv.ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(cv, "ThreadPoolExecutor", RecordingExecutor)
        start = threading.active_count()
        got = score_grid(Y, CVConfig(grid=grid, scheme="aloocv"), threads=threads)
        assert sizes == ([] if workers is None else [workers])
        assert threading.active_count() == start  # no thread left running
        assert same_bits(got, score_grid(Y, CVConfig(grid=grid, scheme="aloocv")))

    def test_more_threads_than_cores_switching_often(self, monkeypatch):
        # Threads write disjoint slices of one score array, and the pooled
        # archetype-1 run's threads race to fill a fresh full target's
        # cached split; a lost update would change a score.
        monkeypatch.setattr(estimators, "STACK_BYTES", 8 * 4)  # blocks of 1
        Y = chain_data(15, p=4, seed=21)
        S = sample_cov(Y)
        plain = CVConfig(grid=default_grid(S, 24), scheme="kfold", k=3)
        full = CVConfig(
            grid=default_grid(S, 24, kind="archetype-1"), scheme="kfold", k=3,
            estimator="archetype-1", target=Target.full(S + np.eye(4)),
        )
        fresh_full = replace(full, target=Target.full(S + np.eye(4)))
        for cfg, fresh in ((plain, plain), (full, fresh_full)):
            inline = score_grid(Y, cfg, threads=1)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                pooled = score_grid(Y, fresh, threads=8)
            finally:
                sys.setswitchinterval(interval)
            assert same_bits(pooled, inline)
        for exponent in (0.5, -0.5):
            want = full.target.power(np.eye(4), exponent)
            assert same_bits(fresh_full.target.power(np.eye(4), exponent), want)

    def test_first_failing_block_raises_as_inline(self, monkeypatch):
        # archetype-1 penalties must be at most 1, so blocks 2 and 3 fail. The
        # caller's fits wait for a failure, so the worker meets block 2 and
        # the caller block 3; the error is block 2's, as inline.
        monkeypatch.setattr(estimators, "STACK_BYTES", 2 * 8 * 4)  # 2 spectra of p = 4
        Y = chain_data(15, p=4, seed=21)
        cfg = CVConfig(grid=[0.1, 0.2, 0.5, 0.9, 1.5, 2, 3, 4], estimator="archetype-1")
        with pytest.raises(InvalidPenaltyError, match="got 1.5") as inline:
            score_grid(Y, cfg, threads=1)
        real_fit = estimators.fit
        caller, failed = threading.get_ident(), threading.Event()

        def fit(*args):
            if threading.get_ident() == caller:
                assert failed.wait(timeout=30)
            try:
                return real_fit(*args)
            except InvalidPenaltyError:
                failed.set()
                raise

        monkeypatch.setattr(estimators, "fit", fit)
        with pytest.raises(InvalidPenaltyError) as pooled:
            score_grid(Y, cfg, threads=2)
        assert str(pooled.value) == str(inline.value)


class TestFoldOuterLoop:
    """``score_grid`` against the per-(penalty, fold) loop it replaced.

    Each case runs n < p and n > p, uncentered and centered, with the grid
    in one stack and split into stacks of two matrices.
    """

    SHAPES = ((9, 14), (24, 6))
    TARGETS = ("zero", "identity", "ddiag", "full")

    @staticmethod
    def target(name, p):
        if name == "full":
            B = np.random.default_rng(p).standard_normal((p, p))
            return Target.full(B @ B.T / p + np.eye(p))
        return {"zero": Target.zero(), "identity": Target.identity(), "ddiag": "ddiag"}[name]

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("target", TARGETS)
    @pytest.mark.parametrize("kind", estimators.KINDS)
    def test_scores_equal_the_loop_bit_for_bit(self, kind, target, scheme, monkeypatch):
        cases = itertools.product(self.SHAPES, (False, True), (None, 2))
        for (n, p), center, per_block in cases:
            Y = chain_data(n, p=p, seed=n + p)
            cfg = CVConfig(
                grid=default_grid(sample_cov(Y), 7, kind=kind), scheme=scheme, k=4,
                fold_seed=5, estimator=kind, target=self.target(target, p), center=center,
            )
            budget = 2**18 if per_block is None else per_block * 8 * p * p
            monkeypatch.setattr(estimators, "STACK_BYTES", budget)
            if kind == "archetype-1" and target == "zero":
                for scores in (score_grid, cv_scores_loop):
                    with pytest.raises(InvalidTargetError):
                        scores(Y, cfg)
                continue
            got, want = score_grid(Y, cfg), cv_scores_loop(Y, cfg)
            assert same_bits(got, want), (n, p, center, per_block, got - want)

    @pytest.mark.parametrize("per_block", [None, 2])
    @pytest.mark.parametrize("grid_n", [1, 9])
    @pytest.mark.parametrize("scheme, builds", [("kfold", 4), ("loocv", 10), ("aloocv", 1)])
    def test_one_held_in_covariance_per_part(self, scheme, builds, grid_n, per_block, monkeypatch):
        calls = []
        real_cov = cv.sample_cov

        def counting_cov(*args, **kwargs):
            calls.append(1)
            return real_cov(*args, **kwargs)

        monkeypatch.setattr(cv, "sample_cov", counting_cov)
        if per_block is not None:
            monkeypatch.setattr(estimators, "STACK_BYTES", per_block * 8 * 3 * 3)
        cfg = CVConfig(grid=np.logspace(-2, 2, grid_n), scheme=scheme, k=4)
        score_grid(chain_data(10, p=3, seed=4), cfg)
        assert len(calls) == builds

    def test_full_target_split_once_for_all_folds(self, monkeypatch, decompositions):
        # One R per fold for the whole grid, plus the full target's
        # eigenpairs once per Target, on its first fit.
        p, G = 6, 4
        Y = chain_data(20, p=p)
        cfg = CVConfig(
            grid=default_grid(sample_cov(Y), G, kind="archetype-1"), scheme="kfold", k=5,
            estimator="archetype-1", target=self.target("full", p),
        )
        monkeypatch.setattr(estimators, "STACK_BYTES", 8 * p * p)  # one p x p matrix a block
        got = score_grid(Y, cfg)
        assert decompositions == [1] * (1 + 5)
        assert same_bits(got, cv_scores_loop(Y, cfg))

    def test_one_point_calls_keep_their_errors(self):
        Y = chain_data(10, p=3, seed=4)
        for scheme in SCHEMES:
            cfg = CVConfig(grid=[1.5], scheme=scheme, k=4, estimator="archetype-1")
            with pytest.raises(InvalidPenaltyError):
                score_grid(Y, cfg)


class TestSharedRouteBlocks:
    """A fit that shares S's decomposition holds p eigenvalues per grid point.

    So a grid whose p x p matrices would each fill a block is still one
    fit, and one decomposed matrix, per part.
    """

    CASES = [
        ("alt-2", "ddiag"),  # alt-2 and archetype-2 ignore the target
        ("archetype-2", "ddiag"),
        ("alt-1", Target.identity()),
        ("archetype-1", Target.scalar(2.0)),
    ]

    @pytest.mark.parametrize("scheme, parts", [("kfold", 4), ("loocv", 10), ("aloocv", 1)])
    @pytest.mark.parametrize("kind, target", CASES, ids=[kind for kind, _ in CASES])
    @pytest.mark.parametrize("p", [14, 6])
    def test_one_decomposition_per_part_equal_to_the_loop(
        self, p, kind, target, scheme, parts, monkeypatch, decompositions
    ):
        Y = chain_data(10, p=p, seed=p)
        cfg = CVConfig(
            grid=default_grid(sample_cov(Y), 5, kind=kind), scheme=scheme, k=4,
            estimator=kind, target=target,
        )
        monkeypatch.setattr(estimators, "STACK_BYTES", 8 * p * p)  # one p x p matrix a block
        got = score_grid(Y, cfg)
        assert decompositions == [1] * parts
        assert same_bits(got, cv_scores_loop(Y, cfg))

    @pytest.mark.parametrize("scheme, parts", [("kfold", 4), ("loocv", 10), ("aloocv", 1)])
    @pytest.mark.parametrize("target_name", ["ddiag", "diagonal", "full"])
    @pytest.mark.parametrize("p", [14, 6])
    def test_archetype1_decomposes_one_matrix_per_part(
        self, p, target_name, scheme, parts, monkeypatch, decompositions
    ):
        # A congruence of a shift of S: one R per part, plus a full
        # target's eigenpairs once.
        Y = chain_data(10, p=p, seed=p)
        target = {
            "ddiag": "ddiag",
            "diagonal": Target.diagonal(np.linspace(0.5, 3.0, p)),
            "full": TestFoldOuterLoop.target("full", p),
        }[target_name]
        cfg = CVConfig(
            grid=default_grid(sample_cov(Y), 5, kind="archetype-1"), scheme=scheme, k=4,
            estimator="archetype-1", target=target,
        )
        monkeypatch.setattr(estimators, "STACK_BYTES", 8 * p * p)  # one p x p matrix a block
        got = score_grid(Y, cfg)
        assert decompositions == [1] * ((target_name == "full") + parts)
        assert same_bits(got, cv_scores_loop(Y, cfg))


class TestScaledScores:
    """archetype-1 with a diagonal or full target, scored from R's eigenpairs."""

    SHAPES = {"n<p": (20, 40), "n>p": (60, 15)}

    @staticmethod
    def target(name, p):
        if name == "diagonal":
            return Target.diagonal(np.linspace(0.5, 3.0, p))
        return TestFoldOuterLoop.target("full", p)

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @pytest.mark.parametrize("target_name", ["diagonal", "full"])
    def test_scores_match_dense_omega_oracles(self, target_name, shape, scheme):
        # As TestSpectralScoresMatchOracles, which covers the ddiag target.
        n, p = self.SHAPES[shape]
        Y = np.round(chain_data(n, p=p, seed=n + p) * 1024.0) / 1024.0
        grid = default_grid(sample_cov(Y), 5, kind="archetype-1")
        target = self.target(target_name, p)
        cfg = CVConfig(grid, scheme, k=5, fold_seed=3, estimator="archetype-1", target=target)
        if scheme == "aloocv":
            want = [aloocv_score_dense(Y, lam, "archetype-1", target) for lam in grid]
        else:
            k = n if scheme == "loocv" else 5
            want = [kfold_score_oracle(Y, lam, "archetype-1", target, k, 3) for lam in grid]
        npt.assert_allclose(score_grid(Y, cfg), want, rtol=1e-12)

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("target_name", ["ddiag", "diagonal", "full"])
    def test_threads_keep_the_bits(self, target_name, scheme, monkeypatch):
        p = 6
        monkeypatch.setattr(estimators, "STACK_BYTES", 2 * 8 * p)  # blocks of 2 penalties
        Y = chain_data(15, p=p, seed=21)
        target = "ddiag" if target_name == "ddiag" else self.target(target_name, p)
        cfg = CVConfig(
            grid=default_grid(sample_cov(Y), 9, kind="archetype-1"), scheme=scheme, k=3,
            estimator="archetype-1", target=target,
        )
        inline = score_grid(Y, cfg, threads=1)
        assert same_bits(score_grid(Y, cfg, threads=8), inline)
        assert same_bits(inline, cv_scores_loop(Y, cfg))
