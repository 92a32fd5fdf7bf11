"""Output checks for the benchmark's CLI calls.

Every reference value here is recomputed with plain numpy from the
benchmark's own inputs; nothing is imported from ``ridgeprec``. Each check
takes the call's stdout text and returns a list of failure messages (empty
when the output is correct).
"""

import numpy as np

# Relative tolerance for quantities recomputed along a different numerical
# route (LU instead of eigendecompositions, another summation order). The
# inputs are well conditioned enough that agreement is ~1e-12 in practice.
RTOL = 1e-8
# Selection quality on the graph workload's block truth; measured recovery
# on it is complete (sensitivity and specificity 1.0).
MIN_SENSITIVITY = 0.9
MIN_SPECIFICITY = 0.99
# The Monte Carlo mean of R fits has relative error of order R^-1/2; at
# R = 10000 the measured gap to the bias approximation is about 0.002.
MC_RTOL_AT_ONE_REP = 1.0


# ---------------------------------------------------------------------------
# Parsing


def _rows(lines):
    return [[float(tok) for tok in line.split(",")] for line in lines if line]


def parse_matrix(text: str) -> np.ndarray:
    return np.array(_rows(text.splitlines()), dtype=float)


def sections(text: str) -> dict:
    """Split ``# name`` delimited output into {name: [lines]}."""
    out, current = {}, None
    for line in text.splitlines():
        if line.startswith("# "):
            current = out.setdefault(line[2:].strip(), [])
        elif current is not None and line:
            current.append(line)
    return out


def parse_cv(text: str):
    """Return (lambda strings, lambdas, scores, lambda_star string)."""
    lines = text.splitlines()
    if not lines or lines[0] != "lambda,score" or not lines[-1].startswith("lambda_star,"):
        raise ValueError("cv output lacks its header or lambda_star row")
    pairs = [line.split(",") for line in lines[1:-1]]
    lam_text = [a for a, _ in pairs]
    return lam_text, np.array(lam_text, float), np.array([b for _, b in pairs], float), lines[-1].split(",")[1]


# ---------------------------------------------------------------------------
# Reference numerics


def sample_cov(Y) -> np.ndarray:
    return Y.T @ Y / Y.shape[0]


def default_grid(S, num: int) -> np.ndarray:
    g = np.trace(S) / S.shape[0]
    return np.logspace(np.log10(1e-4 * g), np.log10(1e4 * g), num)


def alt_fit(S, lam: float, target_diag):
    """Penalized-likelihood ridge (omega, sigma) with a diagonal target.

    Maximizer of ln|W| - tr(SW) - (lam/2)||W - T||_F^2: in the eigenbasis of
    M = S - lam*T the covariance eigenvalue is sqrt(lam + m^2/4) + m/2.
    """
    m, V = np.linalg.eigh(S - lam * np.diag(target_diag))
    root = np.sqrt(lam + 0.25 * m * m)
    cov = np.where(m >= 0, root + 0.5 * m, lam / (root - 0.5 * m))
    return (V / cov) @ V.T, (V * cov) @ V.T


def kfold_score(Y, lam: float, k: int, fold_seed: int) -> float:
    """K-fold predictive negative log-likelihood of alt-1 with the ddiag target."""
    n = Y.shape[0]
    total = 0.0
    for held in np.array_split(np.random.default_rng(fold_seed).permutation(n), k):
        train = np.ones(n, bool)
        train[held] = False
        S_in = sample_cov(Y[train])
        omega, _ = alt_fit(S_in, lam, 1.0 / np.diag(S_in))
        _, logdet = np.linalg.slogdet(omega)
        total += held.size * (-logdet + np.sum(omega * sample_cov(Y[held])))
    return total


def aloocv_score(Y, lam: float) -> float:
    """Approximate leave-one-out score of alt-1 with the ddiag target."""
    n = Y.shape[0]
    S = sample_cov(Y)
    omega, sigma = alt_fit(S, lam, 1.0 / np.diag(S))
    _, logdet = np.linalg.slogdet(omega)
    W = omega @ S @ omega
    Z = Y @ omega
    gamma = (
        np.sum(sigma * W)
        - np.einsum("ij,ij->i", Z @ sigma, Z)
        - np.einsum("ij,ij->i", Y @ W, Y)
        + np.einsum("ij,ij->i", Z, Y) ** 2
    )
    return -0.5 * (logdet - np.sum(S * omega)) + gamma.sum() / (2.0 * n * (n - 1.0))


def _close(a, b, rtol=RTOL) -> bool:
    return bool(np.all(np.abs(np.asarray(a) - b) <= rtol * np.maximum(np.abs(b), 1e-300)))


# ---------------------------------------------------------------------------
# Per-subcommand checks


def check_cv(text: str, Y, scheme: str, grid_n: int, k: int = 5, fold_seed: int = 0) -> list:
    lam_text, grid, scores, star = parse_cv(text)
    fails = []
    if grid.size != grid_n or not _close(grid, default_grid(sample_cov(Y), grid_n), 1e-12):
        fails.append("cv grid differs from the default log grid")
    if not np.all(np.isfinite(scores)):
        return fails + ["cv scores are not finite"]
    idx = scores.size - 1 - int(np.argmin(scores[::-1]))
    if star != lam_text[idx]:
        fails.append(f"lambda_star {star} is not the ties-heavier argmin {lam_text[idx]}")
    if scheme == "kfold":
        ref = kfold_score(Y, grid[idx], k, fold_seed)
    else:
        ref = aloocv_score(Y, grid[idx])
    if not _close(scores[idx], ref):
        fails.append(f"{scheme} score at lambda_star {scores[idx]!r} != reference {ref!r}")
    return fails


def check_estimate(text: str, Y, cv_text: str) -> list:
    """Symmetric p.d. omega satisfying alt-1 stationarity at the cv lambda_star."""
    omega = parse_matrix(text)
    p = Y.shape[1]
    if omega.shape != (p, p):
        return [f"omega has shape {omega.shape}, expected {(p, p)}"]
    fails = []
    if not np.array_equal(omega, omega.T):
        fails.append("omega is not exactly symmetric")
    try:
        np.linalg.cholesky(omega)
    except np.linalg.LinAlgError:
        return fails + ["omega is not positive definite"]
    lam = float(parse_cv(cv_text)[3])
    S = sample_cov(Y)
    M = S - lam * np.diag(1.0 / np.diag(S))
    resid = np.linalg.inv(omega) - M - lam * omega
    scale = np.linalg.norm(M) + lam * np.linalg.norm(omega)
    if np.linalg.norm(resid) > RTOL * scale:
        fails.append(f"stationarity residual {np.linalg.norm(resid) / scale:.3e} (relative)")
    return fails


def check_ggm(text: str, truth: np.ndarray, threshold: float) -> list:
    """Edge table consistency, sparsified support, and recovery of ``truth``."""
    parts = sections(text)
    p = truth.shape[0]
    edges = np.array(_rows(parts.get("edges", [])[1:]), dtype=float).reshape(-1, 5)
    iu = np.triu_indices(p, k=1)
    if edges.shape[0] != iu[0].size or not (
        np.array_equal(edges[:, 0], iu[0]) and np.array_equal(edges[:, 1], iu[1])
    ):
        return ["edge table does not list every pair i < j once"]
    i, j = edges[:, 0].astype(int), edges[:, 1].astype(int)
    prob, sel = edges[:, 3], edges[:, 4] == 1
    fails = []
    if np.any((prob < 0) | (prob > 1)) or not np.array_equal(sel, prob >= threshold):
        fails.append("selected flags disagree with one_minus_lfdr >= threshold")
    sparse = parse_matrix("\n".join(parts.get("sparsified_precision", [])))
    if sparse.shape != (p, p):
        return fails + [f"sparsified precision has shape {sparse.shape}"]
    support = np.zeros((p, p), bool)
    support[i[sel], j[sel]] = support[j[sel], i[sel]] = True
    np.fill_diagonal(support, True)
    if np.any(sparse[~support] != 0.0):
        fails.append("sparsified precision has entries outside the selected support")
    d = np.sqrt(np.diag(sparse))
    partial = -sparse[i[sel], j[sel]] / (d[i[sel]] * d[j[sel]])
    if not _close(edges[sel, 2], partial, 1e-12):
        fails.append("partial_corr column disagrees with the sparsified precision")
    true_edge = truth[iu] != 0
    sens = np.sum(sel & true_edge) / max(1, true_edge.sum())
    spec = np.sum(~sel & ~true_edge) / max(1, (~true_edge).sum())
    if sens < MIN_SENSITIVITY or spec < MIN_SPECIFICITY:
        fails.append(f"support recovery sensitivity {sens:.3f}, specificity {spec:.4f}")
    return fails


def _own_omega(kind: str, S, lam: float) -> np.ndarray:
    """One estimator fit at an alternative-scale penalty, ddiag target."""
    if kind == "alt-1":
        return alt_fit(S, lam, 1.0 / np.diag(S))[0]
    if kind == "alt-2":
        return alt_fit(S, lam, np.zeros(S.shape[0]))[0]
    if kind == "archetype-1":
        v = 1.0 - 1.0 / (lam + 1.0)
        return np.linalg.inv((1.0 - v) * S + v * np.diag(np.diag(S)))
    return np.linalg.inv(S + np.sqrt(lam) * np.eye(S.shape[0]))


def check_simulate(text: str, Omega, kinds, sizes, reps: int, seed: int, grid_n: int, cells) -> list:
    """Grid and row layout, plus median losses recomputed at ``cells``.

    ``cells`` is a list of (kind, n, grid index); replicate r at sample size
    n draws from the documented stream ``default_rng([seed, n, r])``.
    """
    lines = text.splitlines()
    if not lines or lines[0] != "estimator,target,n,lambda,median_loss":
        return ["simulate output lacks its header"]
    rows = [line.split(",") for line in lines[1:] if line]
    if len(rows) != len(kinds) * len(sizes) * grid_n:
        return [f"simulate printed {len(rows)} rows"]
    table = {(r[0], int(r[2]), gi % grid_n): (float(r[3]), float(r[4])) for gi, r in enumerate(rows)}
    Sigma = np.linalg.inv(Omega)
    Sigma = 0.5 * (Sigma + Sigma.T)
    grid = default_grid(Sigma, grid_n)
    fails = []
    if not _close(np.array([table[(kinds[0], sizes[0], g)][0] for g in range(grid_n)]), grid, 1e-12):
        fails.append("simulate grid differs from the default risk grid")
    L = np.linalg.cholesky(Sigma)
    p = Omega.shape[0]
    for kind, n, gi in cells:
        lam, printed = table[(kind, n, gi)]
        losses = []
        for r in range(reps):
            rng = np.random.default_rng([seed, n, r])
            S = sample_cov(rng.standard_normal((n, p)) @ L.T)
            M = _own_omega(kind, S, lam) @ Sigma - np.eye(p)
            losses.append(np.sum(M * M))
        if not _close(printed, np.median(losses)):
            fails.append(f"median loss at ({kind}, n={n}, lambda={lam!r}) {printed!r} != {np.median(losses)!r}")
    return fails


def check_moments(text: str, Sigma, n: int, lam: float, mc_reps: int) -> list:
    """Approximation matches its formula; the MC mean agrees with it at ``lam``."""
    parts = sections(text)
    approx = parse_matrix("\n".join(parts.get("approximation", [])))
    mc = parse_matrix("\n".join(parts.get("mc_estimate", [])))
    p = Sigma.shape[0]
    if approx.shape != (p, p) or mc.shape != (p, p):
        return ["moments output lacks a p x p approximation or mc_estimate"]
    mean_sq = (n + 1.0) / n * Sigma @ Sigma + np.trace(Sigma) / n * Sigma
    ref = 0.5 * Sigma + np.sqrt(lam) * np.eye(p) + mean_sq / (8.0 * np.sqrt(lam))
    fails = []
    if np.abs(approx - ref).max() > 1e-12 * np.abs(ref).max():
        fails.append("bias approximation differs from its closed form")
    gap = np.linalg.norm(mc - ref) / np.linalg.norm(ref)
    if gap > MC_RTOL_AT_ONE_REP / np.sqrt(mc_reps):
        fails.append(f"MC estimate is {gap:.4f} (relative) from the bias approximation")
    return fails
