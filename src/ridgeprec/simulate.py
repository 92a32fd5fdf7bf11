"""Synthetic populations, Monte Carlo risk curves, and shrinkage paths."""

from dataclasses import dataclass

import numpy as np

from . import estimators as _est
from .errors import ConstructionFailedError, InvalidParameterError, whole
from .estimators import sample_cov
from .linalg import check_symmetric, cholesky_pd, inv_pd, require_pd, same_shape, symmetrize

TOPOLOGIES = ("random", "chain", "star", "clique")
LOSSES = ("frobenius", "quadratic")


@dataclass(frozen=True)
class PopulationSpec:
    """Recipe for a population precision matrix.

    ``seed``/``n0`` matter only for the random topology; ``blocks``/``offdiag``
    only for clique.
    """

    topology: str
    p: int
    seed: int = 0
    n0: int = 10000
    blocks: int = 5
    offdiag: float = 0.25

    def __post_init__(self):
        if self.topology not in TOPOLOGIES:
            raise InvalidParameterError(
                f"topology must be one of {TOPOLOGIES}, got {self.topology!r}"
            )
        for name, low in (("p", 2), ("seed", 0), ("n0", 1), ("blocks", 1)):
            object.__setattr__(self, name, whole(getattr(self, name), name, low))
        if not np.isfinite(self.offdiag):
            raise InvalidParameterError(f"offdiag must be finite, got {self.offdiag!r}")


def population_precision(spec: PopulationSpec) -> np.ndarray:
    """Build the population precision matrix for a spec; always validated p.d."""
    p = spec.p
    if spec.topology == "chain":
        Omega = np.eye(p)
        idx = np.arange(p - 1)
        Omega[idx, idx + 1] = 0.25
        Omega[idx + 1, idx] = 0.25
    elif spec.topology == "star":
        Omega = np.eye(p)
        for j in range(1, p):
            Omega[0, j] = Omega[j, 0] = 1.0 / (j + 1)
    elif spec.topology == "clique":
        if p % spec.blocks != 0:
            raise InvalidParameterError(
                f"clique needs p divisible by blocks ({p} % {spec.blocks} != 0)"
            )
        b = p // spec.blocks
        block = np.full((b, b), spec.offdiag)
        np.fill_diagonal(block, 1.0)
        Omega = np.kron(np.eye(spec.blocks), block)
    else:  # random
        rng = np.random.default_rng([spec.seed, 1])
        Y = rng.standard_normal((spec.n0, p))
        Omega = Y.T @ Y / spec.n0
    Omega = symmetrize(Omega)
    what = f"{spec.topology} population is not p.d."
    require_pd(np.linalg.eigvalsh(Omega), what, ConstructionFailedError)
    return Omega


def sample_mvn(Sigma, n: int, seed) -> np.ndarray:
    """Draw n rows from N(0, Sigma).

    ``seed`` is a Generator, or a non-negative integer or a sequence of them
    (such as ``[seed, n, r]``); anything else is an ``InvalidParameterError``.
    """
    Sigma = check_symmetric(Sigma, "Sigma")
    n = whole(n, "n")
    if not isinstance(seed, np.random.Generator):
        for part in np.ravel(np.asarray(seed, dtype=object)):
            whole(part, "seed", low=0)
    L = cholesky_pd(Sigma, "sampling requires a p.d. covariance")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return rng.standard_normal((n, Sigma.shape[0])) @ L.T


def _frobenius(omegas, Omega):
    """``||omega_hat - Omega||_F^2`` of each matrix in a stack (..., p, p)."""
    M = omegas - Omega
    M *= M  # in place: one stack-sized temporary
    return np.sum(M, axis=(-2, -1))


def _quadratic_given_sigma(omegas, Sigma):
    """``||omega_hat Sigma - I||_F^2`` of each matrix in a stack (..., p, p)."""
    M = omegas @ Sigma
    M -= np.eye(Sigma.shape[0])
    M *= M
    return np.sum(M, axis=(-2, -1))


def loss_frobenius(omega_hat, Omega) -> float:
    """Squared Frobenius loss ``||omega_hat - Omega||_F^2``."""
    same_shape(omega_hat, Omega, "omega_hat and Omega")
    return float(_frobenius(np.asarray(omega_hat, dtype=float), np.asarray(Omega, dtype=float)))


def loss_quadratic(omega_hat, Omega) -> float:
    """Squared quadratic loss ``||omega_hat Omega^-1 - I||_F^2``."""
    same_shape(omega_hat, Omega, "omega_hat and Omega")
    return float(_quadratic_given_sigma(np.asarray(omega_hat, dtype=float), inv_pd(Omega)))


@dataclass(frozen=True)
class RiskConfig:
    """Monte Carlo risk-curve settings.

    ``grid`` is in the alternative penalty scale; archetype fits translate
    each value through :func:`penalty_in_kind_scale`. That map matches the
    estimators' shrinkage only in limiting cases, so medians of different
    kinds at the same grid point are not compared at equal shrinkage;
    compare each kind at its own best grid penalty instead.
    """

    population: PopulationSpec
    sample_sizes: tuple
    grid: np.ndarray
    estimators: tuple = ("alt-1", "archetype-1")
    target: object = _est.DDIAG
    reps: int = 100
    loss: str = "quadratic"
    base_seed: int = 0

    def __post_init__(self):
        if self.loss not in LOSSES:
            raise InvalidParameterError(f"loss must be one of {LOSSES}, got {self.loss!r}")
        kinds = tuple(self.estimators)
        if not kinds:
            raise InvalidParameterError("estimators must be a nonempty list")
        for kind in kinds:
            if kind not in _est.KINDS:
                raise InvalidParameterError(f"unknown estimator kind {kind!r}")
        object.__setattr__(self, "reps", whole(self.reps, "reps"))
        object.__setattr__(self, "base_seed", whole(self.base_seed, "base_seed", 0))
        sizes = tuple(whole(n, "sample size") for n in self.sample_sizes)
        if not sizes:
            raise InvalidParameterError("sample sizes must be a nonempty list")
        grid = np.atleast_1d(_est._check_penalty(self.grid, error=InvalidParameterError))
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "sample_sizes", sizes)
        object.__setattr__(self, "estimators", kinds)


@dataclass(frozen=True)
class RiskCurve:
    """A :func:`risk_curve` run: median losses and views of the per-replicate losses."""

    grid: np.ndarray
    sample_sizes: tuple
    estimators: tuple
    target_label: str
    loss: str
    medians: dict  # (kind, n) -> ndarray over grid
    losses: dict  # (kind, n) -> ndarray (reps, len(grid))


def penalty_in_kind_scale(kind: str, lam_a):
    """Translate an alternative-scale penalty, or a 1-D grid of them, into ``kind``'s own scale.

    A grid maps elementwise. Each value must be finite and positive, as for ``penalty_map_1``.

    The map does not equate shrinkage. For archetype-2 (``sqrt(lam_a)``) the
    shrunken covariance eigenvalues agree with alt-2's at ``lam_a`` only for
    zero sample eigenvalues and in the large-penalty limit; for every sample
    eigenvalue ``d > 0`` archetype-2 shrinks strictly more (criterion 05).
    For archetype-1 (``1 - 1/(lam_a + 1)``) with a unit scalar target the
    two agree where ``d = 1`` and in both penalty limits, and alt-1's
    eigenvalues are never below archetype-1's elsewhere; other targets carry
    no such guarantee.
    """
    if kind not in _est.KINDS:
        raise InvalidParameterError(f"unknown estimator kind {kind!r}")
    lam_a = _est._check_penalty(lam_a)
    if kind == "archetype-1":
        return _est.penalty_map_1(lam_a)
    if kind == "archetype-2":
        return np.sqrt(lam_a)
    return lam_a


def _replicate_median(stacked: np.ndarray) -> np.ndarray:
    """``np.median(stacked, axis=0)`` bit for bit, which would import numpy.ma.

    Like np.median: the mean of the one or two middle sorted rows, and the
    last sorted value (a NaN sorts last) wherever that value is NaN.
    """
    reps = stacked.shape[0]
    ordered = np.sort(stacked, axis=0)
    med = np.mean(ordered[(reps - 1) // 2 : reps // 2 + 1], axis=0)
    np.copyto(med, ordered[-1], where=np.isnan(ordered[-1]))
    return med


def risk_curve(config: RiskConfig, Omega=None, Sigma=None) -> RiskCurve:
    """Median loss per (estimator, sample size, grid penalty) over replicates.

    Replicate r at sample size n uses the RNG stream seeded by
    ``[base_seed, n, r]``, so curves are reproducible, and a study split
    into one run per sample size gives the same rows as a single run.
    Each (replicate, kind) is one broadcast :func:`~ridgeprec.estimators.fit`
    over the grid, split only where the grid's p x p stack would exceed
    :data:`~ridgeprec.estimators.STACK_BYTES`, and each block's losses are
    one stacked contraction; the losses equal those of one fit and one loss
    call per grid penalty, bit for bit. The per-replicate losses are kept
    in :attr:`RiskCurve.losses`.

    ``Omega`` and ``Sigma``, the population precision and its inverse, are
    built from ``config.population`` unless the caller passes them.
    """
    Omega = population_precision(config.population) if Omega is None else Omega
    Sigma = inv_pd(Omega) if Sigma is None else Sigma
    L = cholesky_pd(Sigma, "risk curves require a p.d. Sigma")
    p = Omega.shape[0]
    kinds = config.estimators
    grid = config.grid
    lam_table = {k: penalty_in_kind_scale(k, grid) for k in kinds}
    blocks = _est.stack_slices(grid.size, p * p)  # a dense omega per grid point
    if config.loss == "frobenius":
        loss_fn, reference = _frobenius, Omega
    else:
        loss_fn, reference = _quadratic_given_sigma, Sigma

    medians, losses = {}, {}
    for n in config.sample_sizes:
        stacked = np.empty((config.reps, len(kinds), grid.size))
        for r in range(config.reps):
            rng = np.random.default_rng([config.base_seed, n, r])
            S = sample_cov(rng.standard_normal((n, p)) @ L.T)
            for ki, kind in enumerate(kinds):
                for block in blocks:
                    omegas = _est.fit(kind, S, lam_table[kind][block], config.target).omega
                    stacked[r, ki, block] = loss_fn(omegas, reference)
                    del omegas  # free this stack before the next fit builds one
        med = _replicate_median(stacked)
        for ki, kind in enumerate(kinds):
            medians[(kind, n)] = med[ki]
            losses[(kind, n)] = stacked[:, ki, :]
    if isinstance(config.target, _est.Target):
        target_label = config.target.label()
    else:
        target_label = str(config.target)
    return RiskCurve(grid, config.sample_sizes, kinds, target_label, config.loss, medians, losses)


# ---------------------------------------------------------------------------
# The worked 5x5 example and shrinkage paths


def figure1_inverse() -> np.ndarray:
    """The 5x5 population precision: unit diagonal, (j1*j2+1 mod 21)/25 off it."""
    p = 5
    M = np.empty((p, p))
    for a in range(1, p + 1):
        for b in range(1, p + 1):
            M[a - 1, b - 1] = 1.0 if a == b else ((a * b + 1) % 21) / 25.0
    return M


def figure1_matrix() -> np.ndarray:
    """The 5x5 worked-example covariance (inverse of :func:`figure1_inverse`)."""
    return inv_pd(figure1_inverse())


def coefficient_paths(S, grid, kinds=("alt-1",), target=_est.DDIAG):
    """Off-diagonal precision entries along a penalty grid.

    Returns ``(pairs, paths)`` with ``pairs`` the upper-triangle index pairs
    and ``paths[kind]`` an array of shape (len(pairs), len(grid)). The grid
    is in the alternative scale and mapped per kind, as in the risk harness;
    each kind is one broadcast fit per :func:`~ridgeprec.estimators.stack_slices`
    block of the grid.
    """
    S = check_symmetric(S, "S")
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    iu = np.triu_indices(S.shape[0], k=1)
    pairs = list(zip(iu[0].tolist(), iu[1].tolist()))
    paths = {}
    for kind in kinds:
        lams = penalty_in_kind_scale(kind, grid)
        out = np.empty((len(pairs), grid.size))
        for block in _est.stack_slices(grid.size, S.size):  # a dense omega per point
            out[:, block] = _est.fit(kind, S, lams[block], target).omega[:, iu[0], iu[1]].T
        paths[kind] = out
    return pairs, paths
