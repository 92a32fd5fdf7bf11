"""Independent reference implementations used as test oracles.

Everything here recomputes a quantity by a route the package does not use:
cyclic Jacobi rotations instead of LAPACK eigensolvers, safeguarded 1-D
Newton instead of the matrix square-root formula, explicit loops instead of
vectorized linear algebra. Values produced by these helpers are what the
tests trust. The last two helpers, ``is_pd`` and ``matrix_from_text``, are
small test conveniences that the package itself never needs.
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


def null_partial_corr_draws(rng, kappa: float, size: int) -> np.ndarray:
    """Draws from the null partial-correlation density with ``kappa`` dof.

    If X ~ Beta(a, a) with a = (kappa - 1)/2 then 2X - 1 has density
    proportional to ``(1 - r^2)^((kappa - 3)/2)`` on [-1, 1], which is the
    null density.
    """
    a = 0.5 * (kappa - 1.0)
    return 2.0 * rng.beta(a, a, size=size) - 1.0


def canonical_signs_loop(vecs) -> np.ndarray:
    """Per-column loop form of ``eig_sym``'s eigenvector sign convention.

    The first component with magnitude above 1e-12 of each column is made
    positive. Negation is exact, so the result must match bit for bit.
    """
    vecs = np.array(vecs, dtype=float)
    for j in range(vecs.shape[1]):
        col = vecs[:, j]
        idx = np.argmax(np.abs(col) > 1e-12)
        if col[idx] < 0:
            vecs[:, j] = -col
    return vecs


def is_pd(a, tol: float = 0.0) -> bool:
    """True iff the smallest eigenvalue of symmetric ``a`` exceeds ``tol``."""
    a = np.asarray(a, dtype=float)
    return float(np.linalg.eigvalsh(a)[0]) > tol


def matrix_from_text(text: str, header: bool = False) -> np.ndarray:
    """Parse a symmetric matrix from in-memory CSV text with ``read_matrix``."""
    from ridgeprec.matio import read_matrix

    return read_matrix(io.StringIO(text), header=header)
