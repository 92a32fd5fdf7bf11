"""Independent reference implementations used as test oracles.

Everything here recomputes a quantity by a route the package does not use:
cyclic Jacobi rotations instead of LAPACK eigensolvers, safeguarded 1-D
Newton instead of the matrix square-root formula, explicit loops instead of
vectorized linear algebra, an exact kernel sum instead of the binned KDE,
one fit per penalty, replicate or (penalty, fold) instead of one broadcast
fit per stack, scipy's Beta functions and bounded Brent search instead of
the package's Gauss-Legendre score root, mpmath quadrature at 30 digits
for the kappa likelihood and its truncated null mean, and one ``fmt`` call per
CSV value instead of one format operation per row.
Values produced by these helpers are what the
tests trust. The last five helpers, ``is_pd``, ``same_bits``,
``matrix_from_text``, ``edge_set`` and ``network_from_data``, are small
test conveniences that the package itself never needs.
"""

import io
import math

import numpy as np


def jacobi_eigenvalues(a, max_sweeps: int = 100, tol: float = 1e-14) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations.

    Returns the spectrum in descending order. Independent of
    ``numpy.linalg.eigh``: only rotations and matrix products are used.
    """
    A = np.array(a, dtype=float)
    p = A.shape[0]
    scale = np.abs(A).max() or 1.0
    for _ in range(max_sweeps):
        off = math.sqrt(float((np.tril(A, -1) ** 2).sum()))
        if off <= tol * scale:
            break
        for i in range(p - 1):
            for j in range(i + 1, p):
                if abs(A[i, j]) <= 1e-300:
                    continue
                theta = 0.5 * (A[j, j] - A[i, i]) / A[i, j]
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                J = np.eye(p)
                J[i, i] = J[j, j] = c
                J[i, j] = s
                J[j, i] = -s
                A = J.T @ A @ J
    return np.sort(np.diag(A))[::-1]


def newton_max_penalized(s: float, t: float, lam: float) -> float:
    """Maximize ``ln w - s*w - (lam/2)(w - t)^2`` over w > 0.

    Safeguarded Newton on the strictly decreasing derivative
    ``1/w - s - lam*(w - t)``; the objective is strictly concave so the
    stationary point is the unique maximizer. Converges to machine
    precision, independently of the closed-form shrinkage formulas.
    """

    def fp(w: float) -> float:
        return 1.0 / w - s - lam * (w - t)

    def fpp(w: float) -> float:
        return -1.0 / (w * w) - lam

    lo = 0.0
    hi = max(1.0, t + (1.0 + abs(s)) / lam)
    while fp(hi) >= 0.0:
        hi *= 2.0
    x = 0.5 * hi
    for _ in range(300):
        g = fp(x)
        if g > 0.0:
            lo = x
        else:
            hi = x
        xn = x - g / fpp(x)
        if not (lo < xn < hi):
            xn = 0.5 * (lo + hi)
        if abs(xn - x) <= 1e-16 * max(1.0, abs(x)):
            return xn
        x = xn
    return x


def sample_cov_loop(Y, center: bool = False) -> np.ndarray:
    """Sample covariance by an explicit outer-product loop, divisor n."""
    Y = np.asarray(Y, dtype=float)
    if Y.ndim == 1:
        Y = Y[:, None]
    n, p = Y.shape
    if center:
        means = np.array([sum(Y[:, j]) / n for j in range(p)])
        Y = Y - means
    S = np.zeros((p, p))
    for i in range(n):
        S += np.outer(Y[i], Y[i])
    return S / n


def loss_frobenius_loop(omega_hat, Omega) -> float:
    """Squared Frobenius loss by elementwise accumulation."""
    D = np.asarray(omega_hat, dtype=float) - np.asarray(Omega, dtype=float)
    acc = 0.0
    for i in range(D.shape[0]):
        for j in range(D.shape[1]):
            acc += D[i, j] ** 2
    return acc


def loss_quadratic_loop(omega_hat, Omega) -> float:
    """Squared quadratic loss ``||omega_hat Omega^-1 - I||_F^2`` by loops.

    The inverse goes through LU (``numpy.linalg.inv``), a different route
    than the package's eigendecomposition-based inverse.
    """
    M = np.asarray(omega_hat, dtype=float) @ np.linalg.inv(np.asarray(Omega, dtype=float))
    acc = 0.0
    for i in range(M.shape[0]):
        for j in range(M.shape[1]):
            acc += (M[i, j] - (1.0 if i == j else 0.0)) ** 2
    return acc


def quadratic_given_sigma_diag(omega_hat, Sigma) -> float:
    """``||omega_hat Sigma - I||_F^2``, with I subtracted from the diagonal in place.

    ``simulate._quadratic_given_sigma`` subtracts a dense identity instead,
    and must match this form bit for bit.
    """
    M = omega_hat @ Sigma
    M[np.diag_indices_from(M)] -= 1.0
    return float(np.sum(M * M))


def penalized_loglik(omega, S, T, lam: float) -> float:
    """Objective ``ln|omega| - tr(S omega) - (lam/2)||omega - T||_F^2``."""
    sign, logdet = np.linalg.slogdet(omega)
    if sign <= 0:
        return -np.inf
    D = omega - T
    return float(logdet - (S * omega).sum() - 0.5 * lam * (D * D).sum())


def fd_gradient_max_abs(omega, S, T, lam: float, step: float = 1e-6) -> float:
    """Max-abs central-difference gradient of the penalized log-likelihood.

    Perturbs each of the p(p+1)/2 independent entries of the symmetric
    argument ((i, j) and (j, i) together) around ``omega``. At the
    maximizer the gradient vanishes.
    """
    omega = np.asarray(omega, dtype=float)
    p = omega.shape[0]
    worst = 0.0
    for i in range(p):
        for j in range(i, p):
            E = np.zeros((p, p))
            E[i, j] = E[j, i] = 1.0
            up = penalized_loglik(omega + step * E, S, T, lam)
            dn = penalized_loglik(omega - step * E, S, T, lam)
            worst = max(worst, abs(up - dn) / (2.0 * step))
    return worst


def archetype1_lu(S, lam: float, T) -> np.ndarray:
    """archetype-1's ``[(1-lam)S + lam*T^-1]^-1`` through two LU inverses (``numpy.linalg.inv``).

    A different route from the package's eigendecompositions, for a dense target ``T``.
    """
    S, T = np.asarray(S, dtype=float), np.asarray(T, dtype=float)
    return np.linalg.inv((1.0 - lam) * S + lam * np.linalg.inv(T))


def kfold_score_oracle(Y, lam: float, kind: str, target, k: int, seed: int) -> float:
    """From-scratch K-fold CV score recomputation.

    Reimplements fold assignment (seeded permutation, near-equal splits)
    and the score ``sum_k n_k * (-ln|omega_{-k}| + tr[omega_{-k} S_k])``
    with loop-based covariances, ``slogdet``, and an explicit trace loop.
    The estimator fit itself is the package's (its correctness has its own
    oracles); everything around it is recomputed here.
    """
    from ridgeprec import estimators

    Y = np.asarray(Y, dtype=float)
    n = Y.shape[0]
    perm = np.random.default_rng(seed).permutation(n)
    folds = np.array_split(perm, k)
    total = 0.0
    for held in folds:
        held_set = set(int(i) for i in held)
        train = [i for i in range(n) if i not in held_set]
        S_in = sample_cov_loop(Y[train])
        est = estimators.fit(kind, S_in, lam, target)
        S_out = sample_cov_loop(Y[list(held)])
        sign, logdet = np.linalg.slogdet(est.omega)
        tr = 0.0
        p = S_out.shape[0]
        for a in range(p):
            for b in range(p):
                tr += est.omega[a, b] * S_out[b, a]
        total += held.size * (-logdet + tr)
    return total


def aloocv_score_dense(Y, lam: float, kind: str, target) -> float:
    """Approximate leave-one-out score from its dense definition.

    Builds the p x p matrices ``omega``, ``sigma``, ``W = omega S omega``
    and ``Z = Y omega``, then ``t0 = <sigma, W>``, ``v1_i = z_i' sigma z_i``,
    ``v2_i = y_i' W y_i``, ``q_i = z_i' y_i`` and
    ``gamma_i = t0 - v1_i - v2_i + q_i^2``; the log-likelihood
    ``ln|omega| - tr(S omega)`` goes through a Cholesky factor. The package
    evaluates the same score in the fit's eigenbasis instead.
    """
    from ridgeprec import estimators

    Y = np.asarray(Y, dtype=float)
    n = Y.shape[0]
    S = estimators.sample_cov(Y)
    est = estimators.fit(kind, S, lam, target)
    omega, sigma = est.omega, est.sigma
    W = omega @ S @ omega
    Z = Y @ omega
    t0 = float(np.einsum("ij,ij->", sigma, W))
    v1 = np.einsum("ij,ij->i", Z @ sigma, Z)
    v2 = np.einsum("ij,ij->i", Y @ W, Y)
    q = np.einsum("ij,ij->i", Z, Y)
    gamma = t0 - v1 - v2 + q * q
    L = np.linalg.cholesky(omega)
    loglik = 2.0 * float(np.sum(np.log(np.diag(L)))) - float(np.einsum("ij,ij->", S, omega))
    return float(-0.5 * loglik + gamma.sum() / (2.0 * n * (n - 1.0)))


def cv_scores_loop(Y, config) -> np.ndarray:
    """CV scores with one scalar fit per (penalty, fold), penalty outer.

    Every held-in sample covariance is rebuilt at every penalty, and the
    score at each penalty sums its folds' terms in fold order; "aloocv" is
    one full-data fit per penalty. The terms are read from the fit's
    eigenpairs as the package reads them (a scaled fit's from the rows
    times ``T'^(1/2)``, with ``ln|T'|`` added to ``ln|omega|``), so the
    fold-outer loop with one broadcast fit per grid block must reproduce
    these scores bit for bit.
    """
    from ridgeprec import cv, estimators

    Y = estimators.prepare_data(Y, config.center)
    n, p = Y.shape
    scores = []
    for lam in config.grid:
        if config.scheme == "aloocv":
            est = estimators.fit(config.estimator, estimators.sample_cov(Y), lam, config.target)
            X, logdet = scaled_rows(est, Y)
            B = (X @ est.vectors) * np.sqrt(est.prec)
            q = np.einsum("ij,ij->i", B, B)
            G = B @ B.T if n <= p else B.T @ B
            correction = (q @ q - np.sum(G * G) / n) / (2.0 * n * (n - 1.0))
            logdet_omega = np.sum(np.log(est.prec)) + logdet
            scores.append(float(-0.5 * (logdet_omega - q.sum() / n) + correction))
            continue
        if config.scheme == "kfold":
            folds = cv.make_folds(n, config.k, config.fold_seed)
        else:
            folds = [np.array([i]) for i in range(n)]
        score = 0.0
        for held_out in folds:
            mask = np.ones(n, dtype=bool)
            mask[held_out] = False
            S_in = estimators.sample_cov(Y[mask])
            est = estimators.fit(config.estimator, S_in, lam, config.target)
            X, logdet = scaled_rows(est, Y[held_out])
            U = X @ est.vectors
            score += held_out.size * -(np.sum(np.log(est.prec)) + logdet) + np.sum(U * U * est.prec)
        scores.append(float(score))
    return np.array(scores)


def scaled_rows(est, rows):
    """``(rows, 0.0)``, or for a scaled fit ``(rows T'^(1/2), ln|T'|)``."""
    if not est.scaled:
        return rows, 0.0
    return est.target.power(rows.T, 0.5).T, est.target.log_det()


def risk_curve_loop(config):
    """Risk-curve medians and raw losses from one scalar fit per grid penalty.

    Same replicate streams ``[base_seed, n, r]`` and reference matrices as
    the package, with no stacking, and the quadratic loss from
    :func:`quadratic_given_sigma_diag`: the broadcast harness must
    reproduce these values bit for bit. Returns ``(medians, losses)``
    keyed by ``(kind, n)``.
    """
    from ridgeprec import estimators, simulate
    from ridgeprec.linalg import inv_pd

    Omega = simulate.population_precision(config.population)
    Sigma = inv_pd(Omega)
    L = np.linalg.cholesky(Sigma)
    p = Omega.shape[0]
    if config.loss == "frobenius":
        loss_fn, reference = simulate.loss_frobenius, Omega
    else:
        loss_fn, reference = quadratic_given_sigma_diag, Sigma
    medians, losses = {}, {}
    for n in config.sample_sizes:
        table = np.empty((config.reps, len(config.estimators), config.grid.size))
        for r in range(config.reps):
            rng = np.random.default_rng([int(config.base_seed), n, r])
            S = estimators.sample_cov(rng.standard_normal((n, p)) @ L.T)
            for ki, kind in enumerate(config.estimators):
                for gi, la in enumerate(config.grid):
                    lam = simulate.penalty_in_kind_scale(kind, la)
                    est = estimators.fit(kind, S, lam, config.target)
                    table[r, ki, gi] = loss_fn(est.omega, reference)
        for ki, kind in enumerate(config.estimators):
            medians[(kind, n)] = np.median(table, axis=0)[ki]
            losses[(kind, n)] = table[:, ki, :]
    return medians, losses


def fit_omega_mp(kind: str, Y, lam: float, psi: float) -> np.ndarray:
    """Omega of a scalar-target fit to the exact ``Y'Y/n`` of float data ``Y``, at 40 digits.

    ``psi`` is the scalar target (ignored by alt-2 and archetype-2, pass 0).
    The eigendecomposition and the kind's eigenvalue map run in mpmath, so
    the result is the fit of the data, free of the rounding in ``S``.
    """
    import mpmath as mp

    with mp.workdps(40):
        n, p = Y.shape
        Ym = mp.matrix(Y.tolist())
        E, Q = mp.eigsy(Ym.T * Ym / n)
        lam = mp.mpf(lam)
        prec = []
        for i in range(p):
            d = E[i]
            if kind == "archetype-1":
                prec.append(1 / ((1 - lam) * d + lam / psi))
            elif kind == "archetype-2":
                prec.append(1 / (d + lam))
            else:
                m = d - lam * psi
                prec.append(1 / (mp.sqrt(lam + m * m / 4) + m / 2))
        return np.array((Q * mp.diag(prec) * Q.T).tolist(), dtype=float)


def mc_moments_loop(Sigma, n: int, lam: float, target=None, reps: int = 1000, seed: int = 0):
    """Monte Carlo mean of the alternative covariance estimate, one fit per replicate."""
    from ridgeprec import estimators
    from ridgeprec.linalg import symmetrize

    Sigma = np.asarray(Sigma, dtype=float)
    p = Sigma.shape[0]
    L = np.linalg.cholesky(Sigma)
    target = estimators.Target.zero() if target is None else target
    acc = np.zeros((p, p))
    for r in range(reps):
        rng = np.random.default_rng([int(seed), r])
        S = estimators.sample_cov(rng.standard_normal((n, p)) @ L.T)
        acc += estimators.fit("alt-1", S, lam, target).sigma
    return symmetrize(acc / reps)


def coefficient_paths_loop(S, grid, kinds=("alt-1",), target="ddiag") -> dict:
    """Upper-triangle precision entries per kind, one scalar fit per grid penalty."""
    from ridgeprec import estimators, simulate

    S = np.asarray(S, dtype=float)
    iu = np.triu_indices(S.shape[0], k=1)
    paths = {}
    for kind in kinds:
        out = np.empty((iu[0].size, len(grid)))
        for gi, la in enumerate(grid):
            lam = simulate.penalty_in_kind_scale(kind, la)
            out[:, gi] = estimators.fit(kind, S, lam, target).omega[iu]
        paths[kind] = out
    return paths


def default_risk_grid_closed_form(Omega, num: int) -> np.ndarray:
    """``num`` log-spaced points on [1e-4 g, 1e4 g] with ``g = tr(Omega^-1)/p``, written out."""
    from ridgeprec.linalg import inv_pd

    Sigma = inv_pd(Omega)
    g = float(np.trace(Sigma)) / Sigma.shape[0]
    return np.logspace(np.log10(1e-4 * g), np.log10(1e4 * g), int(num))


def penalty_map_1_loop(grid) -> np.ndarray:
    """``1 - 1/(lam + 1)`` in Python floats, one grid value at a time."""
    return np.array([1.0 - 1.0 / (float(la) + 1.0) for la in grid])


def penalty_in_kind_scale_loop(kind: str, grid) -> np.ndarray:
    """The alternative-to-kind penalty map in Python floats, one grid value at a time."""
    if kind == "archetype-1":
        return penalty_map_1_loop(grid)
    if kind == "archetype-2":
        return np.array([math.sqrt(la) for la in grid])
    return np.array([float(la) for la in grid])


def null_partial_corr_draws(rng, kappa: float, size: int) -> np.ndarray:
    """Draws from the null partial-correlation density with ``kappa`` dof.

    If X ~ Beta(a, a) with a = (kappa - 1)/2 then 2X - 1 has density
    proportional to ``(1 - r^2)^((kappa - 3)/2)`` on [-1, 1], which is the
    null density.
    """
    a = 0.5 * (kappa - 1.0)
    return 2.0 * rng.beta(a, a, size=size) - 1.0


def reflected_kde_exact(values, h: float, r):
    """Exact Gaussian KDE of ``values``, bandwidth ``h``, reflected at -1 and +1.

    Sums the kernel over the 3m points ``v``, ``2 - v`` and ``-2 - v`` at
    every ``r``, in blocks of about 2**22 kernel evaluations: O(m) per
    point, with no binning or interpolation. Scalar in, scalar out.
    """
    arr = np.atleast_1d(np.asarray(r, dtype=float))
    v = np.asarray(values, dtype=float)
    aug = np.concatenate([v, 2.0 - v, -2.0 - v])
    norm = v.size * h * math.sqrt(2.0 * math.pi)
    out = np.empty_like(arr)
    step = max(1, int(2**22 / max(aug.size, 1)))
    for start in range(0, arr.size, step):
        block = arr[start : start + step, None]
        z = (block - aug[None, :]) / h
        out[start : start + step] = np.exp(-0.5 * z * z).sum(axis=1) / norm
    return out if np.ndim(r) else float(out[0])


def log_null_density_scipy(r: np.ndarray, kappa: float) -> np.ndarray:
    """``ln f0(r; kappa)`` with scipy's ``betaln`` as the normalizer."""
    from scipy import special

    expo = 0.5 * (kappa - 3.0)
    lognorm = special.betaln(0.5, 0.5 * (kappa - 1.0))
    with np.errstate(divide="ignore"):
        return expo * np.log1p(-r * r) - lognorm


def fit_kappa_scipy(values: np.ndarray, cutoff: float) -> float:
    """Truncated ML for kappa on |values| <= cutoff by scipy's bounded Brent search.

    The normalized likelihood with ``betainc`` for the truncation mass, over
    ``u = ln(kappa - 1)`` in [ln 1e-2, ln 1e7] with ``xatol = 1e-8``.
    """
    from scipy import optimize, special

    kept = values[np.abs(values) <= cutoff]
    m = kept.size

    def nll(u: float) -> float:
        kappa = 1.0 + math.exp(u)
        mass = special.betainc(0.5, 0.5 * (kappa - 1.0), cutoff * cutoff)
        if mass <= 0.0:
            return np.inf
        return -float(np.sum(log_null_density_scipy(kept, kappa))) + m * math.log(mass)

    res = optimize.minimize_scalar(
        nll,
        bounds=(math.log(1e-2), math.log(1e7)),
        method="bounded",
        options={"xatol": 1e-8},
    )
    return 1.0 + math.exp(float(res.x))


def kappa_nll_mp(values, cutoff: float, kappas) -> list:
    """Truncated negative log-likelihood at each of ``kappas``, as 30-digit ``mpmath.mpf``.

    ``-(kappa-3)/2 * sum(ln(1 - r^2)) + m ln J`` over the m values with
    ``|r| <= cutoff``, where ``J = 2 int_0^cutoff (1 - s^2)^((kappa-3)/2) ds``
    is integrated by quadrature with breakpoints at multiples of the null's
    scale ``1/sqrt(b)``, ``b = (kappa - 1)/2``.
    """
    import mpmath

    with mpmath.workdps(30):
        kept = [mpmath.mpf(float(v)) for v in values if abs(v) <= cutoff]
        log_sum = mpmath.fsum(mpmath.log1p(-r * r) for r in kept)
        c = mpmath.mpf(cutoff)
        out = []
        for kappa in kappas:
            b = (mpmath.mpf(kappa) - 1) / 2
            scale = 1 / mpmath.sqrt(b)
            points = [0] + [k * scale for k in (0.25, 0.5, 1, 2, 4, 8, 16, 32) if k * scale < c]
            J = 2 * mpmath.quad(lambda s: mpmath.exp((b - 1) * mpmath.log1p(-s * s)), points + [c])
            out.append(-(b - 1) * log_sum + len(kept) * mpmath.log(J))
        return out


def truncated_null_mean_mp(b: float, cutoff: float) -> float:
    """``E_b[ln(1 - s^2) | 0 <= s <= cutoff]`` under ``(1 - s^2)^(b-1)``, by 30-digit quadrature.

    Both integrals run over the whole of [0, cutoff], with breakpoints at
    multiples of the null's scale ``1/sqrt(b)`` as in :func:`kappa_nll_mp`.
    """
    import mpmath

    with mpmath.workdps(30):
        b, c = mpmath.mpf(b), mpmath.mpf(cutoff)
        scale = 1 / mpmath.sqrt(b)
        points = [0] + [k * scale for k in (0.25, 0.5, 1, 2, 4, 8, 16, 32) if k * scale < c] + [c]

        def density(s):
            return mpmath.exp((b - 1) * mpmath.log1p(-s * s))

        num = mpmath.quad(lambda s: density(s) * mpmath.log1p(-s * s), points)
        return float(num / mpmath.quad(density, points))


def csv_per_value(a) -> str:
    """CSV text of a 1-D or 2-D array, one ``matio.fmt`` call per value."""
    from ridgeprec.matio import fmt

    rows = np.atleast_2d(np.asarray(a, dtype=float))
    return "".join(",".join(fmt(v) for v in row) + "\n" for row in rows)


def is_pd(a, tol: float = 0.0) -> bool:
    """True iff the smallest eigenvalue of symmetric ``a`` exceeds ``tol``."""
    a = np.asarray(a, dtype=float)
    return float(np.linalg.eigvalsh(a)[0]) > tol


def same_bits(a, b) -> bool:
    """True iff ``a`` and ``b`` have the same shape and the same bytes.

    Stricter than ``np.array_equal``, which takes -0.0 and +0.0 as equal:
    a sign of zero that moves can print differently.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def matrix_from_text(text: str, header: bool = False) -> np.ndarray:
    """Parse a symmetric matrix from in-memory CSV text with ``read_matrix``."""
    from ridgeprec.matio import read_matrix

    return read_matrix(io.StringIO(text), header=header)


def edge_set(mask, p: int) -> set:
    """The pairs (i, j) that a boolean mask in ``np.triu_indices(p, k=1)`` order selects."""
    return {(i, j) for i, j in np.transpose(np.triu_indices(p, k=1))[mask].tolist()}


def network_from_data(Y, lam: float, threshold: float = 0.99):
    """``extract_network`` on the alt-1 fit of data ``Y`` with the ``ddiag`` target."""
    from ridgeprec import estimators, ggm

    est = estimators.fit("alt-1", estimators.sample_cov(Y), lam, estimators.DDIAG)
    return ggm.extract_network(est.omega, threshold)
