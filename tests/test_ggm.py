import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from scipy import integrate, special

import ridgeprec
from ridgeprec.errors import (
    DegenerateFitError,
    InsufficientDataError,
    InvalidParameterError,
    NotPositiveDefiniteError,
)
from ridgeprec.ggm import (
    GgmResult,
    LfdrFit,
    edge_probabilities,
    extract_network,
    fit_lfdr,
    kde_nodes,
    lfdr_values,
    null_density,
    offdiagonal_values,
    partial_correlations,
    select_edges,
    sparsify,
    stable_edges,
    support_metrics,
)
from ridgeprec.linalg import inv_pd
from ridgeprec.simulate import PopulationSpec, population_precision, sample_mvn

from oracles import null_partial_corr_draws, reflected_kde_exact


def planted_values(seed, n_null=250, n_alt=250):
    """Half known-null draws, half spikes near +-0.8."""
    rng = np.random.default_rng([21, seed])
    null = null_partial_corr_draws(rng, 20.0, n_null)
    spikes = np.clip(
        rng.choice([-0.8, 0.8], size=n_alt) + 0.02 * rng.standard_normal(n_alt),
        -0.99,
        0.99,
    )
    return np.concatenate([null, spikes])


def piled_values(seed, n_pile=100, n_null=200):
    """Values piled within 0.05 of -1 and of +1 around a null bulk."""
    rng = np.random.default_rng([22, seed])
    near_one = 1.0 - 0.05 * (1.0 - rng.random((2, n_pile)))  # in [0.95, 1)
    return np.concatenate([near_one[0], -near_one[1], null_partial_corr_draws(rng, 20.0, n_null)])


def oracle_eta0(fit):
    """``eta0`` by the fit's recipe, with the exact reflected KDE."""
    f = reflected_kde_exact(fit.values, fit.bandwidth, 0.0)
    return float(np.clip(f / null_density(0.0, fit.kappa), 0.0, 1.0))


def oracle_probabilities(values, fit):
    """``1 - lFDR`` at ``values`` with the exact reflected KDE."""
    eta0 = oracle_eta0(fit)
    if eta0 >= 1.0:
        return np.zeros_like(values)
    f = reflected_kde_exact(fit.values, fit.bandwidth, values)
    return 1.0 - np.minimum(1.0, eta0 * null_density(values, fit.kappa) / f)


DENSITY_FIXTURES = {
    "planted": lambda: planted_values(0),
    "m45": lambda: planted_values(0, n_null=40, n_alt=5),
    "piled": lambda: piled_values(0),
}


class TestPartialCorrelations:
    def test_diagonal_gives_identity(self):
        npt.assert_array_equal(partial_correlations(np.diag([2.0, 5.0])), np.eye(2))

    def test_two_by_two_sign_flip(self):
        P = partial_correlations(np.array([[1.0, 0.5], [0.5, 1.0]]))
        npt.assert_allclose(P, [[1.0, -0.5], [-0.5, 1.0]], rtol=1e-15)

    def test_offdiagonals_inside_unit_interval(self, rng, make_spd):
        P = partial_correlations(make_spd(6, rng))
        off = offdiagonal_values(P)
        assert np.all(np.abs(off) < 1.0)
        npt.assert_array_equal(np.diag(P), np.ones(6))

    def test_diagonal_rescaling_invariance(self, rng, make_spd):
        omega = make_spd(4, rng)
        D = np.diag([4.0, 0.25, 16.0, 1.0])  # powers of two: exact rescale
        npt.assert_array_equal(
            partial_correlations(D @ omega @ D), partial_correlations(omega)
        )

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefiniteError):
            partial_correlations(np.diag([1.0, -1.0]))

    def test_known_spectrum_skips_eigvalsh(self, rng, make_spd, monkeypatch):
        omega = make_spd(5, rng)
        want = partial_correlations(omega)
        spectrum = np.linalg.eigvalsh(omega)[::-1]

        def forbidden(a):
            raise AssertionError("eigvalsh called despite a known spectrum")

        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
        npt.assert_array_equal(partial_correlations(omega, spectrum), want)
        with pytest.raises(NotPositiveDefiniteError):
            partial_correlations(np.diag([1.0, 2.0]), np.array([1.0, -1.0]))


class TestOffdiagonalValues:
    def test_row_major_upper_triangle(self):
        M = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]])
        npt.assert_array_equal(offdiagonal_values(M), [1.0, 2.0, 3.0])

    def test_count(self):
        assert offdiagonal_values(np.zeros((6, 6))).size == 15


class TestNullDensity:
    def test_symmetric_in_r(self):
        r = np.linspace(0.0, 0.95, 20)
        npt.assert_allclose(null_density(r, 7.0), null_density(-r, 7.0), rtol=1e-14)

    def test_kappa_three_is_uniform(self):
        npt.assert_allclose(null_density([0.0, 0.4, -0.9], 3.0), [0.5, 0.5, 0.5], rtol=1e-14)

    @pytest.mark.parametrize("kappa", [3.0, 10.0, 50.0])
    def test_integrates_to_one(self, kappa):
        total, _ = integrate.quad(lambda r: null_density(r, kappa), -1.0, 1.0)
        npt.assert_allclose(total, 1.0, atol=1e-6)

    def test_large_kappa_concentrates(self):
        # |R|^2 ~ Beta(1/2, (kappa-1)/2): the 99th percentile at kappa=100
        q99 = float(np.sqrt(special.betaincinv(0.5, 49.5, 0.99)))
        assert q99 < 0.3
        mass, _ = integrate.quad(lambda r: null_density(r, 100.0), -q99, q99)
        npt.assert_allclose(mass, 0.99, atol=1e-6)

    def test_scalar_in_scalar_out(self):
        out = null_density(0.2, 5.0)
        assert isinstance(out, float)

    def test_rejects_bad_kappa(self):
        for kappa in (1.0, 0.5, np.inf):
            with pytest.raises(InvalidParameterError):
                null_density(0.0, kappa)

    def test_rejects_out_of_domain(self):
        with pytest.raises(InvalidParameterError):
            null_density(1.5, 5.0)


class TestFitLfdr:
    def test_pure_null_recovers_kappa_and_eta0(self):
        etas, kappas = [], []
        for s in range(50):
            rng = np.random.default_rng([20, s])
            f = fit_lfdr(null_partial_corr_draws(rng, 20.0, 500))
            etas.append(f.eta0)
            kappas.append(f.kappa)
        assert np.median(etas) == pytest.approx(0.977, abs=0.02)
        assert np.median(kappas) == pytest.approx(20.6, abs=1.0)
        assert min(etas) > 0.75
        assert all(e <= 1.0 for e in etas)

    def test_planted_mixture_eta0_near_truth(self):
        etas = [fit_lfdr(planted_values(s)).eta0 for s in range(20)]
        med = float(np.median(etas))
        assert med == pytest.approx(0.434, abs=0.02)
        assert 0.3 <= med <= 0.7

    def test_planted_values_get_lower_lfdr(self):
        wins = 0
        for s in range(20):
            vals = planted_values(s)
            f = fit_lfdr(vals)
            lf = lfdr_values(vals, f)
            wins += lf[250:].mean() < lf[:250].mean()
        assert wins == 20

    def test_cutoff_respects_cap(self):
        f = fit_lfdr(planted_values(0))
        assert f.cutoff <= 0.75

    def test_constant_values_degenerate(self):
        with pytest.raises(DegenerateFitError):
            fit_lfdr(np.full(50, 0.3))

    def test_too_few_values(self):
        with pytest.raises(InsufficientDataError):
            fit_lfdr(np.linspace(-0.5, 0.5, 9))

    def test_rejects_boundary_values(self):
        bad = np.linspace(-0.5, 0.5, 20)
        bad[3] = 1.0
        with pytest.raises(InvalidParameterError):
            fit_lfdr(bad)

    def test_rejects_nonfinite(self):
        bad = np.linspace(-0.5, 0.5, 20)
        bad[3] = np.nan
        with pytest.raises(InvalidParameterError):
            fit_lfdr(bad)

    def test_mixture_density_integrates_to_one(self):
        rng = np.random.default_rng(77)
        f = fit_lfdr(2.0 * rng.beta(5.0, 5.0, 400) - 1.0)
        total, _ = integrate.quad(
            lambda r: f.mixture_density(float(r)), -1.0, 1.0, limit=200
        )
        npt.assert_allclose(total, 1.0, atol=1e-3)


class TestBinnedMixtureDensity:
    """The binned KDE against the exact reflected kernel sum."""

    @pytest.mark.parametrize("name", sorted(DENSITY_FIXTURES))
    def test_matches_exact_kde_at_the_values(self, name):
        values = DENSITY_FIXTURES[name]()
        f = fit_lfdr(values)
        exact = reflected_kde_exact(values, f.bandwidth, values)
        npt.assert_allclose(f.mixture_density(values), exact, rtol=1e-4, atol=0.0)

    @pytest.mark.parametrize("name", sorted(DENSITY_FIXTURES))
    def test_matches_exact_kde_on_a_grid(self, name):
        f = fit_lfdr(DENSITY_FIXTURES[name]())
        r = np.linspace(-1.0, 1.0, 201)
        exact = reflected_kde_exact(f.values, f.bandwidth, r)
        assert np.max(np.abs(f.mixture_density(r) - exact)) <= 1e-5 * exact.max()

    @pytest.mark.parametrize("name", sorted(DENSITY_FIXTURES))
    def test_eta0_matches_exact_kde(self, name):
        f = fit_lfdr(DENSITY_FIXTURES[name]())
        assert f.eta0 == pytest.approx(oracle_eta0(f), abs=1e-5)

    def test_selection_matches_exact_kde_on_criterion_11_seeds(self):
        Sigma = inv_pd(population_precision(PopulationSpec("chain", 20)))
        for s in range(20):
            res = extract_network(
                Y=sample_mvn(Sigma, 200, s), estimator="alt-1", auto_lambda=True, threshold=0.99
            )
            exact = oracle_probabilities(offdiagonal_values(res.partials), res.fit)
            for threshold in (0.5, 0.9, 0.99):
                assert select_edges(res.probabilities, 20, threshold) == select_edges(
                    exact, 20, threshold
                ), (s, threshold)

    def test_tiny_bandwidth_hits_the_node_cap(self):
        # The interquartile range is 5e-8, so the bandwidth is about 1e-8
        # and an uncapped grid at bandwidth/200 would need ~3e10 nodes.
        values = np.concatenate([0.2 + 1e-9 * np.arange(80), np.linspace(-0.9, 0.9, 20)])
        f = fit_lfdr(values)
        nodes = kde_nodes(f.bandwidth)
        assert f.bandwidth < 1e-7 and nodes.size == 2**20 + 1
        density = f.mixture_density(nodes)
        assert np.all(np.isfinite(density)) and np.all(density >= 0.0)
        # Piecewise linear on the nodes, so the trapezoid rule is exact.
        npt.assert_allclose(integrate.trapezoid(density, nodes), 1.0, atol=1e-3)
        assert np.all(np.isfinite(f.mixture_density(values)))


def test_importing_the_package_leaves_scipy_unloaded():
    code = (
        "import sys\n"
        "loaded = lambda: any(m.split('.')[0] == 'scipy' for m in sys.modules)\n"
        "import ridgeprec\n"
        "print(loaded())\n"
        "import ridgeprec.cli\n"
        "print(loaded())\n"
    )
    src = str(Path(ridgeprec.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False", "False"]


class TestLfdrValues:
    @staticmethod
    def manual_fit(eta0, values=None):
        if values is None:
            values = np.linspace(-0.4, 0.4, 30)
        return LfdrFit(eta0, 10.0, np.asarray(values), 0.1, 0.75)

    def test_pure_null_short_circuit(self):
        lf = lfdr_values([0.0, 0.5, -0.9], self.manual_fit(1.0))
        npt.assert_array_equal(lf, np.ones(3))

    def test_zero_null_weight(self):
        lf = lfdr_values([0.0, 0.5], self.manual_fit(0.0))
        npt.assert_array_equal(lf, np.zeros(2))

    def test_capped_at_one(self):
        lf = lfdr_values(np.linspace(-0.9, 0.9, 25), self.manual_fit(0.8))
        assert np.all(lf <= 1.0) and np.all(lf >= 0.0)


class TestEdgeSelection:
    @staticmethod
    def planted_matrix_and_fit(seed=0, p=10):
        vals = planted_values(seed, n_null=p * (p - 1) // 2 - 5, n_alt=5)
        P = np.eye(p)
        P[np.triu_indices(p, k=1)] = vals
        P = np.triu(P) + np.triu(P, k=1).T
        return P, fit_lfdr(vals)

    def test_probabilities_in_triangle_order(self):
        P, f = self.planted_matrix_and_fit()
        probs = edge_probabilities(P, f)
        assert probs.shape == (45,)
        npt.assert_array_equal(probs, 1.0 - lfdr_values(offdiagonal_values(P), f))

    def test_pure_null_fit_selects_nothing(self):
        P, _ = self.planted_matrix_and_fit()
        null_fit = LfdrFit(1.0, 10.0, offdiagonal_values(P), 0.1, 0.75)
        assert select_edges(edge_probabilities(P, null_fit), 10, threshold=0.5) == set()

    def test_threshold_nesting(self):
        P, f = self.planted_matrix_and_fit()
        probs = edge_probabilities(P, f)
        loose = select_edges(probs, 10, threshold=0.5)
        mid = select_edges(probs, 10, threshold=0.9)
        tight = select_edges(probs, 10, threshold=0.99)
        assert tight <= mid <= loose
        assert loose  # the spikes are found at the loose threshold

    def test_threshold_domain(self):
        P, f = self.planted_matrix_and_fit()
        probs = edge_probabilities(P, f)
        with pytest.raises(InvalidParameterError):
            select_edges(probs, 10, threshold=1.5)
        with pytest.raises(InvalidParameterError):
            select_edges(probs, 10, threshold=-0.1)

    def test_selects_pairs_at_or_above_threshold(self):
        probs = np.array([0.5, 0.99, 0.98, 1.0, 0.0, 0.99])
        assert select_edges(probs, 4, threshold=0.99) == {(0, 2), (1, 2), (2, 3)}

    def test_rejects_probabilities_of_wrong_length(self):
        with pytest.raises(InvalidParameterError):
            select_edges(np.ones(5), 4)


class TestSparsify:
    def test_full_support_unchanged(self, rng, make_spd):
        omega = make_spd(4, rng)
        edges = {(i, j) for i in range(4) for j in range(i + 1, 4)}
        out, mineig = sparsify(omega, edges)
        npt.assert_array_equal(out, omega)
        npt.assert_allclose(mineig, np.linalg.eigvalsh(omega)[0], rtol=1e-12)

    def test_empty_support_keeps_diagonal(self, rng, make_spd):
        omega = make_spd(3, rng)
        out, mineig = sparsify(omega, set())
        npt.assert_array_equal(out, np.diag(np.diag(omega)))
        assert mineig > 0

    def test_diagonally_dominant_stays_pd(self):
        omega = np.eye(4) + 0.1 * (np.ones((4, 4)) - np.eye(4))
        out, mineig = sparsify(omega, {(0, 1)})
        assert mineig > 0

    def test_idempotent(self, rng, make_spd):
        omega = make_spd(5, rng)
        edges = {(0, 1), (2, 3)}
        once, _ = sparsify(omega, edges)
        twice, _ = sparsify(once, edges)
        npt.assert_array_equal(once, twice)

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(InvalidParameterError):
            sparsify(np.eye(3), {(0, 7)})

    def test_rejects_self_loop(self):
        with pytest.raises(InvalidParameterError):
            sparsify(np.eye(3), {(1, 1)})

    def test_rejects_negative_index_and_names_the_edge(self):
        with pytest.raises(InvalidParameterError, match=r"edge \(-1, 2\)"):
            sparsify(np.eye(3), [(0, 1), (-1, 2)])

    def test_rejects_edges_that_are_not_pairs(self):
        with pytest.raises(InvalidParameterError):
            sparsify(np.eye(3), [(0, 1, 2), (1, 2, 0)])

    def test_matches_edge_loop(self, rng, make_spd):
        omega = make_spd(7, rng)
        edges = {(0, 3), (5, 2), (6, 1), (1, 6)}
        keep = np.eye(7, dtype=bool)
        for i, j in edges:
            keep[i, j] = keep[j, i] = True
        out, mineig = sparsify(omega, edges)
        npt.assert_array_equal(out, np.where(keep, omega, 0.0))
        assert mineig == float(np.linalg.eigvalsh(out)[0])


class TestSupportMetrics:
    def test_perfect(self):
        truth = {(0, 1), (1, 2)}
        m = support_metrics(truth, truth, 4)
        assert m == (1.0, 1.0)

    def test_empty_selection(self):
        m = support_metrics(set(), {(0, 1)}, 4)
        assert m.sensitivity == 0.0 and m.specificity == 1.0

    def test_five_vertex_example(self):
        truth = {(0, 1), (1, 2), (2, 3)}
        selected = {(0, 1), (1, 2), (3, 4)}
        m = support_metrics(selected, truth, 5)
        npt.assert_allclose(m.sensitivity, 2.0 / 3.0, rtol=1e-15)
        npt.assert_allclose(m.specificity, 6.0 / 7.0, rtol=1e-15)

    def test_orientation_normalized(self):
        m = support_metrics({(1, 0)}, {(0, 1)}, 3)
        assert m == (1.0, 1.0)

    def test_empty_truth_rejected(self):
        with pytest.raises(InvalidParameterError):
            support_metrics(set(), set(), 4)

    def test_complete_truth_rejected(self):
        with pytest.raises(InvalidParameterError):
            support_metrics(set(), {(0, 1), (0, 2), (1, 2)}, 3)

    def test_self_loop_rejected(self):
        with pytest.raises(InvalidParameterError):
            support_metrics({(1, 1)}, {(0, 1)}, 3)


class TestStableEdges:
    def test_alpha_one_takes_everything(self):
        lists = [[(0, 1), (1, 2)], [(2, 3)]]
        assert stable_edges(lists, 1.0, 4) == {(0, 1), (1, 2), (2, 3)}

    def test_identical_lists_cut_at_top(self):
        ranked = [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]
        # p=4: 6 possible edges, alpha=0.5 -> top 3 from each list
        assert stable_edges([ranked, ranked], 0.5, 4) == {(0, 1), (1, 2), (2, 3)}

    def test_union_of_distinct_tops(self):
        # p=5: 10 pairs, alpha=0.1 -> top 1 of each list
        out = stable_edges([[(0, 1), (1, 2)], [(3, 4), (1, 2)]], 0.1, 5)
        assert out == {(0, 1), (3, 4)}

    def test_alpha_domain(self):
        with pytest.raises(InvalidParameterError):
            stable_edges([[(0, 1)]], 0.0, 3)
        with pytest.raises(InvalidParameterError):
            stable_edges([[(0, 1)]], 1.5, 3)


class TestExtractNetwork:
    @staticmethod
    def chain_draw(seed, n=200, p=20):
        Omega = population_precision(PopulationSpec("chain", p))
        Sigma = np.linalg.inv(Omega)
        return sample_mvn(0.5 * (Sigma + Sigma.T), n, seed), Omega

    def test_requires_exactly_one_input(self):
        with pytest.raises(InvalidParameterError):
            extract_network()
        with pytest.raises(InvalidParameterError):
            extract_network(Y=np.eye(3), omega=np.eye(3))

    def test_lam_and_auto_lambda_exclusive(self):
        Y, _ = self.chain_draw(0, n=50, p=6)
        with pytest.raises(InvalidParameterError):
            extract_network(Y=Y, lam=0.1, auto_lambda=True)
        with pytest.raises(InvalidParameterError):
            extract_network(Y=Y)

    def test_deterministic(self):
        Y, _ = self.chain_draw(1, n=100, p=8)
        a = extract_network(Y=Y, lam=0.05)
        b = extract_network(Y=Y, lam=0.05)
        assert a.selected == b.selected
        npt.assert_array_equal(a.sparsified, b.sparsified)
        npt.assert_array_equal(a.probabilities, b.probabilities)

    def test_fitted_precision_is_not_rechecked(self, monkeypatch):
        Y, _ = self.chain_draw(4, n=100, p=8)
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a):
            calls.append(np.shape(a))
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        fitted = extract_network(Y=Y, lam=0.05)
        assert len(calls) == 1  # sparsify's smallest eigenvalue only
        extract_network(omega=fitted.omega)
        assert len(calls) == 3  # the --omega path keeps its p.d. check

    def test_data_path_matches_omega_path(self):
        Y, _ = self.chain_draw(2, n=100, p=8)
        from_data = extract_network(Y=Y, lam=0.05)
        from_omega = extract_network(omega=from_data.omega)
        assert from_data.selected == from_omega.selected
        assert from_omega.lambda_used is None

    def test_result_fields_consistent(self):
        Y, _ = self.chain_draw(3, n=150, p=10)
        res = extract_network(Y=Y, estimator="alt-1", auto_lambda=True)
        assert isinstance(res, GgmResult)
        assert res.lambda_used == res.cv_result.lambda_star
        iu = np.triu_indices(10, k=1)
        above = {(int(i), int(j)) for i, j, pr in zip(*iu, res.probabilities) if pr >= 0.99}
        assert res.selected == above
        kept = {(i, j) for i in range(10) for j in range(10) if res.sparsified[i, j] != 0 and i < j}
        assert kept == res.selected
        npt.assert_allclose(
            res.min_eigenvalue, np.linalg.eigvalsh(res.sparsified)[0], rtol=1e-12
        )

    def test_kde_evaluated_once_over_the_edges(self, monkeypatch):
        sizes = []
        density = LfdrFit.mixture_density

        def counting(fit, r):
            sizes.append(np.size(r))
            return density(fit, r)

        monkeypatch.setattr(LfdrFit, "mixture_density", counting)
        Y, _ = self.chain_draw(1, n=150, p=10)
        res = extract_network(Y=Y, lam=0.05)
        assert 0.0 < res.fit.eta0 < 1.0  # eta0 = 1 would skip the KDE
        assert sorted(sizes) == [1, 45]  # eta0 at r = 0, then every pair once

    def test_thousand_variables(self):
        Omega = population_precision(PopulationSpec("clique", 1000, blocks=50, offdiag=0.5))
        Y = sample_mvn(inv_pd(Omega), 500, 1000)
        res = extract_network(Y=Y, lam=0.05)
        assert res.probabilities.shape == (499500,)
        assert np.all((res.probabilities >= 0.0) & (res.probabilities <= 1.0))
        assert res.fit.eta0 < 1.0  # eta0 = 1 would skip the KDE
        assert np.linalg.eigvalsh(res.omega)[0] > 0.0

    def test_exact_zero_offdiagonals_degenerate(self):
        Omega = population_precision(PopulationSpec("chain", 20))
        with pytest.raises(DegenerateFitError):
            extract_network(omega=Omega)

    def test_recovers_chain_support_reasonably(self):
        Omega = population_precision(PopulationSpec("chain", 20))
        truth = {(j, j + 1) for j in range(19)}
        jacs = []
        for s in range(5):
            Y, _ = self.chain_draw(s)
            res = extract_network(Y=Y, auto_lambda=True, threshold=0.9)
            sel = res.selected
            jacs.append(len(sel & truth) / max(1, len(sel | truth)))
        assert np.median(jacs) >= 0.3
