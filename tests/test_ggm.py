import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from scipy import integrate, special

import ridgeprec
from ridgeprec import ggm
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
    sparsify,
    stable_edges,
    support_metrics,
)
from ridgeprec.linalg import inv_pd
from ridgeprec.simulate import PopulationSpec, population_precision, sample_mvn

from oracles import (
    edge_set,
    fit_kappa_scipy,
    kappa_nll_mp,
    log_null_density_scipy,
    network_from_data,
    null_partial_corr_draws,
    reflected_kde_exact,
    same_bits,
    truncated_null_mean_mp,
)


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


def lfdr_fit(eta0, kappa, values, bandwidth, cutoff):
    """An ``LfdrFit`` built by hand, holding the density ``fit_lfdr`` would convolve."""
    values = np.asarray(values, dtype=float)
    return LfdrFit(eta0, kappa, values, bandwidth, cutoff, ggm._node_density(values, bandwidth))


def full_reflection_density(values, bandwidth):
    """``_node_density`` built plainly: three full copies of the grid, no wrap-around."""
    n = kde_nodes(bandwidth).size - 1
    delta = 2.0 / n
    counts = np.zeros(n + 1)
    for v in values:
        pos = (v + 1.0) / delta
        left = min(max(math.floor(pos), 0), n - 1)
        counts[left] += 1.0 - (pos - left)
        counts[left + 1] += pos - left
    extended = np.concatenate([counts[::-1], np.zeros(n - 1), counts[::-1]])
    extended[n : 2 * n + 1] += counts  # nodes -n..2n; 0 and n are counted twice
    reach = math.ceil(ggm.KDE_KERNEL_REACH * bandwidth / delta)
    z = np.arange(-reach, reach + 1) * (delta / bandwidth)
    kernel = np.exp(-0.5 * z * z)
    kernel /= kernel.sum() * delta * len(values)
    size = 1 << (extended.size + kernel.size - 2).bit_length()  # no wrap at all
    conv = np.fft.irfft(np.fft.rfft(extended, size) * np.fft.rfft(kernel, size), size)
    return np.maximum(conv[n + reach : 2 * n + reach + 1], 0.0)


def node_cap_values():
    """The interquartile range is 5e-8, so the bandwidth is about 1e-8 and an
    uncapped grid at bandwidth/200 would need ~3e10 nodes."""
    return np.concatenate([0.2 + 1e-9 * np.arange(80), np.linspace(-0.9, 0.9, 20)])


def reach_and_intervals(bandwidth):
    n = kde_nodes(bandwidth).size - 1
    return math.ceil(ggm.KDE_KERNEL_REACH * bandwidth * n / 2.0), n


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

    def test_checks_omega_with_one_eigvalsh(self, rng, make_spd, monkeypatch):
        omega = make_spd(5, rng)
        checked = []
        eigvalsh = np.linalg.eigvalsh

        def recording(a):
            checked.append(np.array(a))
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording)
        partial_correlations(omega)
        assert len(checked) == 1 and np.array_equal(checked[0], omega)


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


def quantile_table():
    """name -> values: plain, tied and signed-zero draws at each size."""
    rng = np.random.default_rng(33)
    table = {}
    for size in (10, 11, 57, 1000, 11175):
        x = 0.3 * rng.standard_normal(size)
        table[f"plain-{size}"] = x
        table[f"ties-{size}"] = np.round(x, 1)
        table[f"signed-zeros-{size}"] = rng.choice([-0.0, 0.0, -0.25, 0.5], size)
    return table


QUANTILES = quantile_table()


class TestSortedQuantile:
    # fit_lfdr reads np.quantile's linear rule off one np.sort, because
    # np.quantile imports numpy.ma on its first call.

    @pytest.mark.parametrize("magnitudes", [False, True], ids=["values", "magnitudes"])
    @pytest.mark.parametrize("q", [0.25, 0.75])
    @pytest.mark.parametrize("name", sorted(QUANTILES))
    def test_matches_np_quantile_bit_for_bit(self, name, q, magnitudes):
        x = np.abs(QUANTILES[name]) if magnitudes else QUANTILES[name]
        got, want = ggm._sorted_quantile(np.sort(x), q), np.quantile(x, q)
        zero_signs = np.signbit(x[x == 0.0])
        if want == 0.0 and zero_signs.any() and not zero_signs.all():
            # np.sort and np.partition may leave -0.0 and 0.0 ties in
            # either order, so only the value is fixed.
            assert got == want
        else:
            assert same_bits(got, want)

    @pytest.mark.parametrize("seed", range(5))
    def test_fit_reads_the_quantiles_np_quantile_gives(self, seed):
        values = planted_values(seed)
        fit = fit_lfdr(values)
        iqr = float(np.quantile(values, 0.75) - np.quantile(values, 0.25))
        scale = min(float(np.std(values)), iqr / 1.34)
        assert fit.cutoff == min(float(np.quantile(np.abs(values), 0.75)), 0.75)
        assert fit.bandwidth == 0.9 * scale * values.size ** (-0.2)


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

    def test_selection_matches_exact_kde_on_criterion_11_seeds(self, aloocv_lambda):
        Sigma = inv_pd(population_precision(PopulationSpec("chain", 20)))
        for s in range(20):
            Y = sample_mvn(Sigma, 200, s)
            res = network_from_data(Y, aloocv_lambda(Y), 0.99)
            exact = oracle_probabilities(offdiagonal_values(res.partials), res.fit)
            for threshold in (0.5, 0.9, 0.99):
                npt.assert_array_equal(
                    res.probabilities >= threshold, exact >= threshold, err_msg=f"{s} {threshold}"
                )

    def test_tiny_bandwidth_hits_the_node_cap(self):
        values = node_cap_values()
        f = fit_lfdr(values)
        nodes = kde_nodes(f.bandwidth)
        assert f.bandwidth < 1e-7 and nodes.size == 2**20 + 1
        density = f.mixture_density(nodes)
        assert np.all(np.isfinite(density)) and np.all(density >= 0.0)
        # Piecewise linear on the nodes, so the trapezoid rule is exact.
        npt.assert_allclose(integrate.trapezoid(density, nodes), 1.0, atol=1e-3)
        assert np.all(np.isfinite(f.mixture_density(values)))

    # (values, bandwidth or None for the fitted one, reach against the
    # intervals n). Values piled near +-1, two on the end nodes, weigh the
    # mirrored ends. 0.01 and 0.05 put 8,000 nodes in the kernel's reach,
    # below and at n = 40,000 and 8,000; few spread values fit a wide
    # bandwidth; at 40 the kernel is longer than the transform.
    TRIM_CASES = {
        "narrow": (lambda: np.append(piled_values(0, 20, 40), [-1 + 1e-9, 1 - 1e-9]), 0.01, "<"),
        "reach-is-grid": (lambda: np.append(piled_values(0, 20, 40), [-1 + 1e-9]), 0.05, "=="),
        "few-spread": (lambda: np.linspace(-0.9, 0.9, 12), None, ">"),
        "wider-than-transform": (lambda: piled_values(0, 20, 40), 40.0, ">"),
        "node-cap": (node_cap_values, None, "<"),
    }

    @pytest.mark.parametrize("case", list(TRIM_CASES))
    def test_trimmed_reflection_matches_the_full_one(self, case):
        make_values, bandwidth, relation = self.TRIM_CASES[case]
        values = make_values()
        bandwidth = bandwidth or fit_lfdr(values).bandwidth
        reach, n = reach_and_intervals(bandwidth)
        assert {"<": reach < n, "==": reach == n, ">": reach > n}[relation]
        want = full_reflection_density(values, bandwidth)
        got = ggm._node_density(values, bandwidth)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * want.max()

    @pytest.mark.parametrize(
        "bandwidth, expected",
        [(0.01, 2**16), (0.05, 2**15), (40.0, 2**13), (1e-8, 2**21)],
    )
    def test_transform_covers_only_the_nodes_that_are_read(self, bandwidth, expected, monkeypatch):
        # Power of two at or above n + r + reach + 1, r = min(reach, n):
        # 40,000 + 2 * 8,000 + 1 at 0.01, and 2**20 + 2 * reach + 1 at the cap.
        sizes = []
        rfft = np.fft.rfft

        def recording(a, n=None, *args, **kwargs):
            sizes.append(n)
            return rfft(a, n, *args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", recording)
        ggm._node_density(np.linspace(-0.5, 0.5, 20), bandwidth)
        reach, n = reach_and_intervals(bandwidth)
        least = n + min(reach, n) + reach + 1
        assert sizes == [expected, expected]
        assert expected >= least > expected // 2


def test_importing_the_package_leaves_scipy_unloaded(tmp_path):
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

    # A full ggm call runs, and prints the same, when scipy cannot be imported.
    Sigma = inv_pd(population_precision(PopulationSpec("chain", 8)))
    data = tmp_path / "data.csv"
    np.savetxt(data, sample_mvn(Sigma, 60, 5), delimiter=",", fmt="%.17g")
    argv = ["ridgeprec", "ggm", "--data", str(data), "--auto-lambda"]
    blocked = (
        "import runpy, sys\n"
        "class NoScipy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.split('.')[0] == 'scipy':\n"
        "            raise ImportError('scipy is blocked')\n"
        "sys.meta_path.insert(0, NoScipy())\n"
        f"sys.argv = {argv!r}\n"
        "runpy.run_module('ridgeprec', run_name='__main__')\n"
    )
    runs = [
        subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)
        for cmd in ([sys.executable, "-c", blocked], [sys.executable, "-m", *argv])
    ]
    for run in runs:
        assert run.returncode == 0, run.stderr
    assert runs[0].stdout == runs[1].stdout
    assert "# report" in runs[0].stdout


@pytest.fixture(scope="module")
def kappa_cases(aloocv_lambda):
    """ggm --auto-lambda fits on graph-style block data (seeds 1-5) and criterion 11's chains."""
    block = inv_pd(population_precision(PopulationSpec("clique", 150, blocks=5, offdiag=0.95)))
    chain = inv_pd(population_precision(PopulationSpec("chain", 20)))
    draws = [sample_mvn(block, 200, s) for s in range(1, 6)]
    draws += [sample_mvn(chain, 200, s) for s in range(20)]
    cases = []
    for Y in draws:
        res = network_from_data(Y, aloocv_lambda(Y), 0.99)
        cases.append((res, fit_kappa_scipy(res.fit.values, res.fit.cutoff)))
    return cases


def scipy_null_probabilities(fit, kappa):
    """``1 - lFDR`` at the fit's values with kappa and the null density from scipy."""
    f0_at_zero = math.exp(log_null_density_scipy(np.zeros(1), kappa)[0])
    eta0 = float(np.clip(fit.mixture_density(0.0) / f0_at_zero, 0.0, 1.0))
    if eta0 >= 1.0:
        return np.zeros_like(fit.values)
    f0 = np.exp(log_null_density_scipy(fit.values, kappa))
    return 1.0 - np.minimum(1.0, eta0 * f0 / fit.mixture_density(fit.values))


class TestKappaFit:
    """The scipy-free kappa fit against scipy's Beta functions and Brent search."""

    @pytest.mark.parametrize("low, high, rtol", [(5e-3, 100.0, 1e-13), (100.0, 5e6, 1e-9)])
    def test_log_beta_half_matches_betaln(self, low, high, rtol):
        b = np.geomspace(low, high, 300)
        ours = np.array([ggm._log_beta_half(v) for v in b])
        npt.assert_allclose(ours, special.betaln(0.5, b), rtol=rtol, atol=rtol)

    @pytest.mark.parametrize("low, high", [(5e-3, 100.0), (100.0, 5e6)])
    def test_truncated_null_mean_matches_mpmath(self, low, high):
        b, c = np.meshgrid(np.geomspace(low, high, 9), np.geomspace(1e-3, 0.75, 5))
        ours = [ggm._truncated_null_mean(bi, ci) for bi, ci in zip(b.ravel(), c.ravel())]
        want = [truncated_null_mean_mp(bi, ci) for bi, ci in zip(b.ravel(), c.ravel())]
        npt.assert_allclose(ours, want, rtol=1e-13, atol=0.0)

    def test_kappa_matches_the_scipy_fit(self, kappa_cases):
        for res, oracle in kappa_cases:
            assert res.fit.kappa == pytest.approx(oracle, rel=5e-6, abs=0.0)

    def test_selections_match_the_scipy_fit(self, kappa_cases):
        for res, oracle in kappa_cases:
            fit = res.fit
            want = scipy_null_probabilities(fit, oracle)
            p = res.partials.shape[0]
            for threshold in (0.5, 0.9, 0.99):
                npt.assert_array_equal(
                    res.probabilities >= threshold, want >= threshold, err_msg=str(threshold)
                )

    def test_no_worse_a_likelihood_than_the_scipy_fit(self, kappa_cases):
        for res, oracle in kappa_cases:
            fit = res.fit
            ours, theirs = kappa_nll_mp(fit.values, fit.cutoff, (fit.kappa, oracle))
            assert float(ours - theirs) <= 1e-9

    def test_one_ulp_moves_kappa_by_rounding_only(self):
        # Weak clique data: the likelihood is flat to its last bit over
        # |du| ~ 1e-7 here, so only a root of the score is well conditioned.
        Y = sample_mvn(inv_pd(population_precision(PopulationSpec("clique", 150))), 200, 1)
        values = offdiagonal_values(network_from_data(Y, 0.05).partials)
        kappa = fit_lfdr(values).kappa
        rng = np.random.default_rng(0)
        for _ in range(5):
            toward = rng.choice([-1.0, 1.0], values.size)
            moved = np.where(rng.random(values.size) < 0.5, np.nextafter(values, toward), values)
            assert fit_lfdr(moved).kappa == pytest.approx(kappa, rel=1e-12, abs=0.0)

    def test_kappa_solves_the_score_equation(self, kappa_cases):
        for res, _ in kappa_cases:
            fit = res.fit
            kept = fit.values[np.abs(fit.values) <= fit.cutoff]
            mean = float(np.mean(np.log1p(-kept * kept)))
            got = ggm._truncated_null_mean(0.5 * (fit.kappa - 1.0), fit.cutoff)
            assert got == pytest.approx(mean, rel=1e-13, abs=0.0)


class TestFitWarnings:
    """The upper bound and eta0 = 1 are checked through the CLI in test_cli.py."""

    def test_lower_bound_and_zero_eta0(self):
        fit = lfdr_fit(0.0, 1.0 + math.exp(ggm.KAPPA_U_MIN), np.zeros(3), 0.1, 0.5)
        lines = fit.warnings()
        assert len(lines) == 2
        assert "lower bound" in lines[0] and "eta0 is clamped to 0" in lines[1]

    def test_flat_likelihood_lands_on_the_upper_bound(self):
        # At lam = 1e6 every |partial correlation| is below 1e-6, the NLL is
        # flat to rounding over the top of the interval, and the score stays
        # negative up to the upper bound, which the fit returns exactly. The
        # bandwidth is so small that the node grid is capped too.
        Y = sample_mvn(inv_pd(population_precision(PopulationSpec("chain", 20))), 200, 0)
        fit = network_from_data(Y, 1e6).fit
        assert fit.kappa == 1.0 + math.exp(ggm.KAPPA_U_MAX)
        lines = fit.warnings()
        assert len(lines) == 3 and "eta0 is clamped to 1" in lines[1]
        assert lines[0].startswith(f"kappa {fit.kappa:.17g} is at the upper bound")
        assert lines[2].startswith("the KDE node grid is capped")
        assert network_from_data(Y, 1.0).fit.warnings() == []

    def test_node_cap_is_reported(self):
        fit = fit_lfdr(node_cap_values())
        capped = [line for line in fit.warnings() if "capped" in line]
        assert len(capped) == 1
        assert capped[0].startswith("the KDE node grid is capped at 1048576 intervals")
        assert "bandwidth/200" in capped[0] and "not assured" in capped[0]

    def test_node_cap_boundary(self):
        # 400 / bandwidth intervals is exactly the cap here, which keeps the
        # spacing at bandwidth/200; a bandwidth one ulp smaller is coarser.
        at_cap = 400.0 / ggm.KDE_MAX_INTERVALS
        assert kde_nodes(at_cap).size == ggm.KDE_MAX_INTERVALS + 1
        for bandwidth, count in ((at_cap, 0), (np.nextafter(at_cap, 0.0), 1)):
            fit = lfdr_fit(0.5, 20.0, np.zeros(3), bandwidth, 0.5)
            assert len(fit.warnings()) == count

    def test_graph_like_data_is_not_capped(self):
        # n = 200 draws of 150 variables in 5 blocks of 30: no cap line.
        Omega = population_precision(PopulationSpec("clique", 150, blocks=5, offdiag=0.5))
        Y = sample_mvn(inv_pd(Omega), 200, 1)
        fit = network_from_data(Y, 0.5).fit
        assert fit.eta0 < 1.0
        assert kde_nodes(fit.bandwidth).size - 1 < ggm.KDE_MAX_INTERVALS
        assert not any("capped" in line for line in fit.warnings())


class TestLfdrValues:
    @staticmethod
    def manual_fit(eta0, values=None):
        if values is None:
            values = np.linspace(-0.4, 0.4, 30)
        return lfdr_fit(eta0, 10.0, values, 0.1, 0.75)

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
        null_fit = lfdr_fit(1.0, 10.0, offdiagonal_values(P), 0.1, 0.75)
        assert not np.any(edge_probabilities(P, null_fit) >= 0.5)

    def test_threshold_nesting(self):
        P, f = self.planted_matrix_and_fit()
        probs = edge_probabilities(P, f)
        loose, mid, tight = probs >= 0.5, probs >= 0.9, probs >= 0.99
        assert np.all(tight <= mid) and np.all(mid <= loose)
        assert loose.any()  # the spikes are found at the loose threshold

    def test_threshold_domain(self):
        Y, _ = TestExtractNetwork.chain_draw(0, n=100, p=8)
        omega = network_from_data(Y, 0.05).omega
        for threshold in (1.5, -0.1, np.nan):
            with pytest.raises(InvalidParameterError, match="threshold must be in"):
                network_from_data(Y, 0.05, threshold)
            with pytest.raises(InvalidParameterError, match="threshold must be in"):
                extract_network(omega, threshold=threshold)

    def test_selects_pairs_at_or_above_threshold(self):
        probs = np.array([0.5, 0.99, 0.98, 1.0, 0.0, 0.99])
        assert edge_set(probs >= 0.99, 4) == {(0, 2), (1, 2), (2, 3)}


class TestSparsify:
    def test_full_support_unchanged(self, rng, make_spd):
        omega = make_spd(4, rng)
        out, mineig = sparsify(omega, np.ones(6, dtype=bool))
        npt.assert_array_equal(out, omega)
        npt.assert_allclose(mineig, np.linalg.eigvalsh(omega)[0], rtol=1e-12)

    def test_empty_support_keeps_diagonal(self, rng, make_spd):
        omega = make_spd(3, rng)
        out, mineig = sparsify(omega, np.zeros(3, dtype=bool))
        npt.assert_array_equal(out, np.diag(np.diag(omega)))
        assert mineig > 0

    def test_diagonally_dominant_stays_pd(self):
        omega = np.eye(4) + 0.1 * (np.ones((4, 4)) - np.eye(4))
        out, mineig = sparsify(omega, np.arange(6) == 0)  # pair (0, 1) only
        assert mineig > 0

    def test_idempotent(self, rng, make_spd):
        omega = make_spd(5, rng)
        selected = np.arange(10) % 3 == 0
        once, _ = sparsify(omega, selected)
        twice, _ = sparsify(once, selected)
        npt.assert_array_equal(once, twice)

    def test_rejects_mask_of_wrong_length(self):
        with pytest.raises(InvalidParameterError, match="boolean mask over the 3 pairs"):
            sparsify(np.eye(3), np.ones(4, dtype=bool))
        with pytest.raises(InvalidParameterError):
            sparsify(np.eye(3), np.ones((3, 1), dtype=bool))

    def test_rejects_non_boolean_mask(self):
        with pytest.raises(InvalidParameterError):
            sparsify(np.eye(3), np.array([1, 0, 1]))
        with pytest.raises(InvalidParameterError):
            sparsify(np.eye(3), [0.0, 1.0, 1.0])

    def test_matches_edge_loop(self, rng, make_spd):
        omega = make_spd(7, rng)
        selected = rng.random(21) < 0.3
        keep = np.eye(7, dtype=bool)
        for i, j in edge_set(selected, 7):
            keep[i, j] = keep[j, i] = True
        out, mineig = sparsify(omega, selected)
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

    def test_deterministic(self):
        Y, _ = self.chain_draw(1, n=100, p=8)
        a = network_from_data(Y, 0.05)
        b = network_from_data(Y, 0.05)
        npt.assert_array_equal(a.selected, b.selected)
        npt.assert_array_equal(a.sparsified, b.sparsified)
        npt.assert_array_equal(a.probabilities, b.probabilities)

    def test_fitted_precision_is_checked_once(self, monkeypatch):
        Y, _ = self.chain_draw(4, n=100, p=8)
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def recording(a):
            calls.append(np.array(a))
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording)
        fitted = network_from_data(Y, 0.05)
        # omega's p.d. check, then sparsify's smallest eigenvalue.
        assert len(calls) == 2
        assert np.array_equal(calls[0], fitted.omega)
        assert np.array_equal(calls[1], fitted.sparsified)
        extract_network(fitted.omega)
        assert len(calls) == 4  # the --omega path runs the same two

    def test_omega_is_checked_once(self, monkeypatch):
        Y, _ = self.chain_draw(4, n=100, p=8)
        omega = network_from_data(Y, 0.05).omega
        names = []
        check = ggm.check_symmetric

        def counting(a, name="matrix", **kwargs):
            names.append(name)
            return check(a, name, **kwargs)

        monkeypatch.setattr(ggm, "check_symmetric", counting)
        res = extract_network(omega)
        assert names == ["omega"]
        # The unchecked cores give the public functions' results.
        npt.assert_array_equal(res.partials, partial_correlations(omega))
        npt.assert_array_equal(res.sparsified, sparsify(omega, res.selected)[0])

    def test_data_path_matches_omega_path(self):
        Y, _ = self.chain_draw(2, n=100, p=8)
        from_data = network_from_data(Y, 0.05)
        from_omega = extract_network(from_data.omega)
        npt.assert_array_equal(from_data.selected, from_omega.selected)

    def test_omega_is_the_symmetrized_input(self):
        # An asymmetry within check_symmetric's tolerance is accepted, and
        # the result carries (omega + omega')/2, not the input as given.
        Y, _ = self.chain_draw(2, n=100, p=8)
        omega = network_from_data(Y, 0.05).omega.copy()
        omega[0, 1] += 1e-12
        res = extract_network(omega)
        npt.assert_array_equal(res.omega, 0.5 * (omega + omega.T))
        npt.assert_array_equal(res.omega, res.omega.T)

    def test_result_fields_consistent(self, aloocv_lambda):
        Y, _ = self.chain_draw(3, n=150, p=10)
        lam = aloocv_lambda(Y)
        res = network_from_data(Y, lam)
        assert isinstance(res, GgmResult)
        iu = np.triu_indices(10, k=1)
        above = {(int(i), int(j)) for i, j, pr in zip(*iu, res.probabilities) if pr >= 0.99}
        assert edge_set(res.selected, 10) == above
        kept = {(i, j) for i in range(10) for j in range(10) if res.sparsified[i, j] != 0 and i < j}
        assert kept == edge_set(res.selected, 10)
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
        res = network_from_data(Y, 0.05)
        assert 0.0 < res.fit.eta0 < 1.0  # eta0 = 1 would skip the KDE
        assert sorted(sizes) == [1, 45]  # eta0 at r = 0, then every pair once

    def test_mixture_density_convolved_once(self, monkeypatch):
        # fit_lfdr convolves the node density once (two rfft calls) and both
        # mixture_density calls, eta0's and the edges', read it off the fit.
        calls = []
        rfft = np.fft.rfft

        def counting(*args, **kwargs):
            calls.append(1)
            return rfft(*args, **kwargs)

        Y, _ = self.chain_draw(1, n=150, p=10)
        omega = network_from_data(Y, 0.05).omega
        monkeypatch.setattr(np.fft, "rfft", counting)
        res = extract_network(omega)
        assert 0.0 < res.fit.eta0 < 1.0  # eta0 = 1 would skip the edges' density
        assert len(calls) == 2

    def test_thousand_variables(self):
        Omega = population_precision(PopulationSpec("clique", 1000, blocks=50, offdiag=0.5))
        Y = sample_mvn(inv_pd(Omega), 500, 1000)
        res = network_from_data(Y, 0.05)
        assert res.probabilities.shape == (499500,)
        assert np.all((res.probabilities >= 0.0) & (res.probabilities <= 1.0))
        assert res.fit.eta0 < 1.0  # eta0 = 1 would skip the KDE
        assert np.linalg.eigvalsh(res.omega)[0] > 0.0

    def test_exact_zero_offdiagonals_degenerate(self):
        Omega = population_precision(PopulationSpec("chain", 20))
        with pytest.raises(DegenerateFitError):
            extract_network(Omega)

    def test_recovers_chain_support_reasonably(self, aloocv_lambda):
        Omega = population_precision(PopulationSpec("chain", 20))
        truth = {(j, j + 1) for j in range(19)}
        jacs = []
        for s in range(5):
            Y, _ = self.chain_draw(s)
            res = network_from_data(Y, aloocv_lambda(Y), 0.9)
            sel = edge_set(res.selected, 20)
            jacs.append(len(sel & truth) / max(1, len(sel | truth)))
        assert np.median(jacs) >= 0.3
