"""End-to-end acceptance checks, one test per numbered criterion.

Run ``pytest -s tests/test_acceptance.py`` to see a PASS/FAIL line per
criterion. Each test prints its one-line verdict (with the measured
numbers) before asserting, so failures still report what was measured.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from ridgeprec import cv, estimators, ggm, matio, moments, simulate
from ridgeprec.estimators import (
    Target,
    fit,
    loglik,
    resolve_target,
    sample_cov,
    shrunk_eigenvalues,
    stationarity_residual,
)
from ridgeprec.linalg import check_symmetric, inv_pd

from oracles import fd_gradient_max_abs, is_pd, newton_max_penalized


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def fit_sweep():
    """1000 random (S, target, lam) cases with both alternative fits.

    Shared by the positive-definiteness, stationarity, and covariance-identity
    criteria. Dimensions p in {3, 10, 25}; n in [2, 2p] so a large share of
    the sample covariances are singular; penalties log-uniform on
    [1e-6, 1e4]; targets cycle through identity, data-driven diagonal,
    random scalar, and random full p.d. matrices.
    """
    rng = np.random.default_rng(1001)
    cases = []
    t0 = time.perf_counter()
    for i in range(1000):
        p = int(rng.choice([3, 10, 25]))
        n = int(rng.integers(2, 2 * p + 1))
        A = 0.4 * rng.standard_normal((p, p)) + np.eye(p)
        S = sample_cov(rng.standard_normal((n, p)) @ A.T)
        lam = float(10.0 ** rng.uniform(-6, 4))
        kind = i % 4
        if kind == 0:
            target = Target.identity()
        elif kind == 1:
            target = resolve_target("ddiag", check_symmetric(S))
        elif kind == 2:
            target = Target.scalar(float(10.0 ** rng.uniform(-1, 1)))
        else:
            B = rng.standard_normal((p, p))
            target = Target.full(B @ B.T / p + np.eye(p))
        cases.append(
            (S, target, lam, n < p, fit("alt-1", S, lam, target), fit("alt-2", S, lam))
        )
    return cases, time.perf_counter() - t0


def test_criterion_01_positive_definiteness(fit_sweep):
    cases, elapsed = fit_sweep
    bad = 0
    singular = 0
    for S, _, _, is_singular, est1, est2 in cases:
        singular += is_singular
        if not (is_pd(est1.omega, tol=0.0) and is_pd(est2.omega, tol=0.0)):
            bad += 1
    _report(
        1,
        bad == 0 and elapsed < 30.0,
        f"{len(cases) - bad}/{len(cases)} fit pairs p.d. at tol 0 "
        f"({singular} singular-S cases), sweep took {elapsed:.1f}s (< 30s)",
    )


def test_criterion_02_penalty_limits():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2002)
    B = rng.standard_normal((10, 10))
    S = B @ B.T / 10 + np.eye(10)
    Sinv = inv_pd(S)
    target = resolve_target("ddiag", check_symmetric(S))
    rel_small_1 = np.linalg.norm(
        fit("alt-1", S, 1e-10, target).omega - Sinv
    ) / np.linalg.norm(Sinv)
    rel_small_2 = np.linalg.norm(fit("alt-2", S, 1e-10).omega - Sinv) / np.linalg.norm(
        Sinv
    )
    lam_big = 1e8 * np.linalg.norm(S)
    T = target.matrix(10)
    rel_big = np.linalg.norm(fit("alt-1", S, lam_big, target).omega - T) / np.linalg.norm(
        T
    )
    elapsed = time.perf_counter() - t0
    _report(
        2,
        rel_small_1 <= 1e-6 and rel_small_2 <= 1e-6 and rel_big <= 1e-3 and elapsed < 5,
        f"lam->0 rel err {rel_small_1:.2e}/{rel_small_2:.2e} (<= 1e-6), "
        f"lam->inf rel err to target {rel_big:.2e} (<= 1e-3), {elapsed:.1f}s",
    )


def test_criterion_03_stationarity(fit_sweep):
    cases, _ = fit_sweep
    worst = 0.0
    for S, target, lam, _, est1, est2 in cases:
        scale = np.linalg.norm(S)
        r1 = stationarity_residual(est1.omega, S, target, lam) / scale
        r2 = stationarity_residual(est2.omega, S, Target.zero(), lam) / scale
        worst = max(worst, r1, r2)
    rng = np.random.default_rng(303)
    worst_fd = 0.0
    for _ in range(20):
        A = 0.4 * rng.standard_normal((4, 4)) + np.eye(4)
        S = sample_cov(rng.standard_normal((8, 4)) @ A.T)
        lam = float(10.0 ** rng.uniform(-2, 2))
        target = Target.scalar(float(rng.uniform(0.5, 2.0)))
        est = fit("alt-1", S, lam, target)
        worst_fd = max(worst_fd, fd_gradient_max_abs(est.omega, S, target.matrix(4), lam))
    _report(
        3,
        worst <= 1e-7 and worst_fd <= 1e-5,
        f"max scaled stationarity residual {worst:.2e} (<= 1e-7) over 2000 fits; "
        f"max |finite-difference gradient| {worst_fd:.2e} (<= 1e-5) over 20 cases",
    )


def test_criterion_04_covariance_identity(fit_sweep):
    cases, _ = fit_sweep
    worst = 0.0
    for S, target, lam, _, est1, est2 in cases:
        scale = 1.0 + np.linalg.norm(S)
        p = S.shape[0]
        lhs1 = S - lam * target.matrix(p)
        worst = max(
            worst,
            np.linalg.norm(lhs1 - (est1.sigma - lam * est1.omega)) / scale,
            np.linalg.norm(S - (est2.sigma - lam * est2.omega)) / scale,
        )
    _report(
        4,
        worst <= 1e-10,
        f"max scaled identity residual {worst:.2e} (<= 1e-10) over 2000 fits",
    )


def test_criterion_05_shrinkage_dominance():
    rng = np.random.default_rng(505)
    viol_1 = viol_2 = 0
    for _ in range(1000):
        d = rng.uniform(0.0, 10.0, size=10)
        lam_a = float(10.0 ** rng.uniform(-3, 3))
        psi = float(10.0 ** rng.uniform(-1, 1))
        lam_1 = 1.0 - 1.0 / (lam_a * psi * psi + 1.0)
        g_alt = shrunk_eigenvalues("alt-1", d, lam_a, psi=psi)
        g_arch = shrunk_eigenvalues("archetype-1", d, lam_1, psi=psi)
        viol_1 += int(np.any(g_alt < g_arch - 1e-12 * (1.0 + np.abs(g_arch))))
        lam_2 = float(10.0 ** rng.uniform(-3, 3))
        h_alt = shrunk_eigenvalues("alt-2", d, lam_2 * lam_2)
        h_arch = shrunk_eigenvalues("archetype-2", d, lam_2)
        viol_2 += int(np.any(h_alt > h_arch + 1e-12 * (1.0 + np.abs(h_arch))))
    order_bad = 0
    for _ in range(200):
        p = int(rng.integers(2, 6))
        B = rng.standard_normal((p + 2, p))
        S = sample_cov(B)
        lam_2 = float(10.0 ** rng.uniform(-2, 2))
        ll_alt = loglik(fit("alt-2", S, lam_2 * lam_2).omega, S)
        ll_arch = loglik(fit("archetype-2", S, lam_2).omega, S)
        order_bad += int(ll_alt < ll_arch - 1e-12)
    _report(
        5,
        viol_1 == 0 and viol_2 == 0 and order_bad == 0,
        f"anchored dominance violations {viol_1}/1000, target-free {viol_2}/1000, "
        f"likelihood-ordering violations {order_bad}/200",
    )


def test_criterion_06_scalar_newton_oracle():
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(100):
        s = float(rng.uniform(0.0, 10.0))
        t = float(rng.uniform(0.0, 5.0))
        lam = float(10.0 ** rng.uniform(-4, 4))
        got1 = fit("alt-1", np.array([[s]]), lam, Target.scalar(t)).omega[0, 0]
        ref1 = newton_max_penalized(s, t, lam)
        got2 = fit("alt-2", np.array([[s]]), lam).omega[0, 0]
        ref2 = newton_max_penalized(s, 0.0, lam)
        worst = max(worst, abs(got1 - ref1) / ref1, abs(got2 - ref2) / ref2)
    _report(6, worst <= 1e-10, f"max relative error vs Newton oracle {worst:.2e} (<= 1e-10)")


def test_criterion_07_approx_loocv_tracks_exact(monkeypatch):
    t0 = time.perf_counter()
    Omega = simulate.population_precision(simulate.PopulationSpec("chain", 5))
    Sigma = inv_pd(Omega)
    within_one = 0
    seeds = 50
    for s in range(seeds):
        Y = simulate.sample_mvn(Sigma, 20, [7, s])
        grid = cv.default_grid(sample_cov(Y), 30)
        kw = dict(grid=grid, estimator="archetype-2", target=Target.zero())
        i_exact = int(np.argmin(cv.score_grid(Y, cv.CVConfig(scheme="loocv", **kw))))
        i_approx = int(np.argmin(cv.score_grid(Y, cv.CVConfig(scheme="aloocv", **kw))))
        within_one += abs(i_exact - i_approx) <= 1
    # instrumented: the approximate scheme touches the estimator once per penalty
    calls = {"n": 0}
    real_fit = estimators.fit

    def counting_fit(kind, S, lam, *args, **kwargs):
        calls["n"] += np.size(lam)
        return real_fit(kind, S, lam, *args, **kwargs)

    monkeypatch.setattr(estimators, "fit", counting_fit)
    Y = simulate.sample_mvn(Sigma, 20, [7, 0])
    grid = cv.default_grid(sample_cov(Y), 30)
    cv.score_grid(
        Y, cv.CVConfig(grid=grid, scheme="aloocv", estimator="archetype-2", target=Target.zero())
    )
    elapsed = time.perf_counter() - t0
    _report(
        7,
        within_one >= 45 and calls["n"] == 30 and elapsed < 120,
        f"argmin within one grid step in {within_one}/{seeds} seeds (need >= 45); "
        f"{calls['n']} penalties fitted for 30 grid points; {elapsed:.1f}s (< 2 min)",
    )


def test_criterion_08_bias_approximation():
    t0 = time.perf_counter()
    Omega = simulate.population_precision(simulate.PopulationSpec("chain", 3))
    Sigma = inv_pd(Omega)
    s2 = float(np.linalg.norm(Sigma, 2) ** 2)
    rels = []
    for mult in (25.0, 100.0, 1000.0):
        lam = mult * s2
        approx = moments.bias_approx_type2(Sigma, 10, lam)
        mc = moments.mc_moments(Sigma, 10, lam, reps=20_000, seed=8)
        rels.append(np.linalg.norm(approx - mc) / np.linalg.norm(mc))
    elapsed = time.perf_counter() - t0
    _report(
        8,
        max(rels) <= 0.02 and elapsed < 120,
        "relative Frobenius error "
        + ", ".join(f"{r:.2e}" for r in rels)
        + f" at 25/100/1000 x ||Sigma||_2^2 (all <= 2%); {elapsed:.1f}s (< 2 min)",
    )


def test_criterion_09_risk_curves_desk_scale():
    t0 = time.perf_counter()
    pop = simulate.PopulationSpec("star", 25)
    Omega = simulate.population_precision(pop)
    grid = simulate.default_risk_grid(Omega, 50)
    config = simulate.RiskConfig(
        population=pop,
        sample_sizes=(5, 10, 25),
        grid=grid,
        estimators=("alt-1", "archetype-1", "alt-2", "archetype-2"),
        target="ddiag",
        reps=100,
        loss="quadratic",
        base_seed=0,
    )
    curve = simulate.risk_curve(config)
    half = grid.size // 2

    def at_optimum(alt, arch):
        """Compare two median-loss curves at each one's own best grid penalty."""
        i_alt, i_arch = int(np.argmin(alt)), int(np.argmin(arch))
        interior = 0 < i_alt < grid.size - 1 and 0 < i_arch < grid.size - 1
        ratio = float(alt[i_alt] / arch[i_arch])
        return interior and ratio <= 1.05, (
            f"optimum ratio {ratio:.4f} (argmin {i_alt}/{i_arch} of {grid.size})"
        )

    details = []
    ok = True
    for n in config.sample_sizes:
        # Shared grid points are translated for the archetypes (penalty_map_1,
        # sqrt), and those maps equate the pair only in special cases: the
        # type I map only for a unit scalar target, while this run uses
        # ddiag; the type-free map only at zero sample eigenvalues (criterion
        # 05). So both pairs are also compared at each estimator's own best
        # grid penalty. The type I lower-half check stays; the type-free
        # pointwise ratio is reported, not asserted.
        alt1 = curve.medians[("alt-1", n)]
        arch1 = curve.medians[("archetype-1", n)]
        frac = float(np.mean(alt1[:half] <= arch1[:half]))
        opt1_ok, opt1 = at_optimum(alt1, arch1)
        alt2 = curve.medians[("alt-2", n)]
        arch2 = curve.medians[("archetype-2", n)]
        opt2_ok, opt2 = at_optimum(alt2, arch2)
        ok &= frac >= 0.9 and opt1_ok and opt2_ok
        pointwise = float(np.max(alt2 / arch2))
        details.append(
            f"n={n}: lower-half win frac {frac:.2f}, type I {opt1}, "
            f"type-free {opt2}, pointwise max ratio {pointwise:.4f}"
        )
    elapsed = time.perf_counter() - t0
    _report(
        9,
        ok and elapsed < 600,
        "; ".join(details)
        + "; need frac >= 0.9, interior argmins and optimum ratios <= 1.05; "
        f"{elapsed:.0f}s (< 10 min)",
    )


def test_criterion_10_worked_example_paths():
    Sinv = simulate.figure1_inverse()
    spot_ok = (
        Sinv[0, 1] == 0.12
        and Sinv[1, 2] == 0.28
        and np.all(np.diag(Sinv) == 1.0)
        and Sinv[3, 4] == 0.0
    )
    S = simulate.figure1_matrix()
    grid = cv.default_grid(S, 50)
    _, paths = simulate.coefficient_paths(S, grid, kinds=("alt-1",), target=Target.identity())
    mags = np.abs(paths["alt-1"])
    # paths can rebound mid-grid after a sign change; the shrinkage claim is
    # that each entry ends smaller in magnitude than it starts
    good = int(np.sum(mags[:, -1] < mags[:, 0]))
    _report(
        10,
        spot_ok and good >= 9,
        f"worked-example spot checks {'exact' if spot_ok else 'MISMATCH'}; "
        f"{good}/10 off-diagonal path magnitudes smaller at grid max than at "
        f"grid min (need >= 9)",
    )


def test_criterion_11_ggm_pipeline(aloocv_lambda):
    for kappa in (3.0, 10.0, 50.0):
        total, _ = integrate.quad(lambda r: ggm.null_density(r, kappa), -1.0, 1.0)
        assert abs(total - 1.0) <= 1e-6, f"null density integral {total} at kappa={kappa}"
    Omega = simulate.population_precision(simulate.PopulationSpec("chain", 20))
    Sigma = inv_pd(Omega)
    truth = {(j, j + 1) for j in range(19)}
    sens, spec = [], []
    antitone_ok = True
    for s in range(20):
        Y = simulate.sample_mvn(Sigma, 200, s)
        res = ggm.extract_network(Y=Y, estimator="alt-1", lam=aloocv_lambda(Y), threshold=0.99)
        m = ggm.support_metrics(res.selected, truth, 20)
        sens.append(m.sensitivity)
        spec.append(m.specificity)
        loose = ggm.select_edges(res.probabilities, 20, threshold=0.5)
        mid = ggm.select_edges(res.probabilities, 20, threshold=0.9)
        antitone_ok &= res.selected <= mid <= loose
    med_sens = float(np.median(sens))
    med_spec = float(np.median(spec))
    _report(
        11,
        med_sens >= 0.5 and med_spec >= 0.9 and antitone_ok,
        f"median sensitivity {med_sens:.3f} (>= 0.5), median specificity {med_spec:.3f} "
        f"(>= 0.9) over 20 seeds; selection antitone in threshold on every seed: {antitone_ok}; "
        "null-density normalization within 1e-6",
    )


def test_criterion_12_empirical_consistency():
    t0 = time.perf_counter()
    Omega = simulate.population_precision(simulate.PopulationSpec("chain", 5))
    Sigma = inv_pd(Omega)
    L = np.linalg.cholesky(Sigma)
    medians = {}
    for n in (50, 200, 800):
        errs = []
        for r in range(200):
            rng = np.random.default_rng([0, n, r])
            S = sample_cov(rng.standard_normal((n, 5)) @ L.T)
            sigma_hat = fit("alt-1", S, 1.0 / n, Target.identity()).sigma
            errs.append(np.linalg.norm(sigma_hat - Sigma))
        medians[n] = float(np.median(errs))
    elapsed = time.perf_counter() - t0
    decreasing = medians[50] > medians[200] > medians[800]
    halved = medians[800] < 0.5 * medians[50]
    _report(
        12,
        decreasing and halved and elapsed < 180,
        f"median covariance error {medians[50]:.4f} -> {medians[200]:.4f} -> "
        f"{medians[800]:.4f} over n=50/200/800 (strictly decreasing, last < half of "
        f"first); {elapsed:.1f}s (< 3 min)",
    )


def test_criterion_13_cli_determinism(tmp_path):
    Omega = simulate.population_precision(simulate.PopulationSpec("chain", 6))
    Sigma = inv_pd(Omega)
    Y = simulate.sample_mvn(0.5 * (Sigma + Sigma.T), 30, seed=42)
    data = tmp_path / "data.csv"
    np.savetxt(data, Y, delimiter=",", fmt="%.17g")
    sig = tmp_path / "sigma.csv"
    moment_sigma = np.array([[2.0, 0.3, 0.0], [0.3, 1.5, 0.2], [0.0, 0.2, 1.0]])
    sig.write_text(matio.matrix_to_csv(moment_sigma))
    commands = [
        ["estimate", "--data", str(data), "--lambda", "0.2"],
        ["cv", "--data", str(data), "--grid-n", "8"],
        ["ggm", "--data", str(data), "--lambda", "0.1", "--threshold", "0.9"],
        [
            "simulate", "--topology", "chain", "--p", "4", "--n", "6", "--reps", "2",
            "--grid-min", "0.1", "--grid-max", "10", "--grid-n", "3",
            "--estimators", "alt-1",
        ],
        ["moments", "--sigma", str(sig), "--n", "8", "--lambda", "50", "--mc-reps", "10"],
    ]
    # Run the package this test imported, installed or not.
    src = str(Path(cv.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    mismatched = []
    for argv in commands:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "ridgeprec", *argv],
                capture_output=True,
                check=False,
                env=env,
            )
            for _ in range(2)
        ]
        if not all(r.returncode == 0 for r in runs) or runs[0].stdout != runs[1].stdout:
            mismatched.append(argv[0])
    _report(
        13,
        not mismatched,
        "all 5 subcommands byte-identical across repeat runs"
        if not mismatched
        else f"non-deterministic or failing subcommands: {mismatched}",
    )
