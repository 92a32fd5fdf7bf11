import re

import numpy as np
import numpy.testing as npt
import pytest

from ridgeprec import estimators, ggm, moments, simulate
from ridgeprec.errors import (
    ConstructionFailedError,
    InvalidMatrixError,
    InvalidTargetError,
    NotPositiveDefiniteError,
)
from ridgeprec.estimators import Target
from ridgeprec.linalg import (
    check_symmetric,
    cholesky_pd,
    eig_sym_unchecked,
    inv_pd,
    pd_tolerance,
    require_pd,
    symmetrize,
)

from oracles import is_pd, jacobi_eigenvalues, same_bits


class TestEigSym:
    def test_identity(self):
        vals, vecs = eig_sym_unchecked(np.eye(3))
        npt.assert_array_equal(vals, np.ones(3))
        npt.assert_allclose(vecs @ vecs.T, np.eye(3), atol=1e-14)

    def test_diagonal_descending(self):
        vals, vecs = eig_sym_unchecked(np.diag([3.0, 1.0]))
        npt.assert_allclose(vals, [3.0, 1.0])
        npt.assert_allclose(np.abs(vecs), np.eye(2), atol=1e-14)

    def test_worked_example_matrix_vs_jacobi(self):
        S = simulate.figure1_matrix()
        vals, _ = eig_sym_unchecked(S)
        ref = jacobi_eigenvalues(S)
        npt.assert_allclose(vals, ref, atol=1e-8)

    def test_reconstruction(self, rng, make_spd):
        A = make_spd(6, rng)
        vals, vecs = eig_sym_unchecked(A)
        npt.assert_allclose((vecs * vals) @ vecs.T, A, atol=1e-12 * np.linalg.norm(A))


class TestInvPD:
    def test_identity(self):
        npt.assert_allclose(inv_pd(np.eye(2)), np.eye(2), atol=1e-15)

    def test_diagonal(self):
        npt.assert_allclose(inv_pd(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]), atol=1e-15)

    def test_residual_bound(self, rng, make_spd):
        p = 9
        A = make_spd(p, rng)
        X = inv_pd(A)
        assert np.linalg.norm(A @ X - np.eye(p)) <= 1e-8 * p
        npt.assert_array_equal(X, X.T)

    def test_rejects_singular(self):
        with pytest.raises(NotPositiveDefiniteError):
            inv_pd(np.diag([1.0, 0.0]))

    def test_rejects_asymmetric(self):
        with pytest.raises(InvalidMatrixError):
            inv_pd(np.array([[1.0, 2.0], [0.0, 1.0]]))


INDEFINITE = np.diag([1.0, -1.0])
# Archetype-1 at lam = 0.5 with an identity target combines d into (d + 1)/2.
ARCH1_STACK = np.stack([np.eye(2), np.diag([1.0, -3.0]), np.diag([1.0, -5.0])])
RISK = simulate.RiskConfig(simulate.PopulationSpec("chain", 2), (4,), [0.5], reps=1)

# site -> (call that fails the p.d. rule, error type, message prefix)
PD_FAILURES = {
    "Target.full": (
        lambda: Target.full(INDEFINITE), InvalidTargetError,
        "full target must be p.d. (min eigenvalue -1.000e+00)",
    ),
    "archetype-1": (
        lambda: estimators.fit("archetype-1", np.diag([1.0, -3.0]), 0.5, Target.identity()),
        NotPositiveDefiniteError, "combined matrix not p.d. (min eigenvalue -1.000e+00)",
    ),
    "archetype-1 stacked": (
        lambda: estimators.fit("archetype-1", ARCH1_STACK, 0.5, Target.identity()),
        NotPositiveDefiniteError, "combined matrix not p.d. (min eigenvalue -1.000e+00)",
    ),
    "archetype-1 full target": (
        lambda: estimators.fit("archetype-1", np.diag([1.0, -3.0]), 0.5, Target.full(np.eye(2))),
        NotPositiveDefiniteError, "combined matrix not p.d. (min eigenvalue -1.000e+00)",
    ),
    "inv_pd": (
        lambda: inv_pd(INDEFINITE), NotPositiveDefiniteError,
        "inverse requires a p.d. input (min eigenvalue -1.000e+00)",
    ),
    "population_precision": (
        lambda: simulate.population_precision(
            simulate.PopulationSpec("clique", 4, blocks=1, offdiag=-0.5)
        ),
        ConstructionFailedError, "clique population is not p.d. (min eigenvalue -5.000e-01)",
    ),
    "partial_correlations": (
        lambda: ggm.partial_correlations(INDEFINITE), NotPositiveDefiniteError,
        "partial correlations require a p.d. precision (min eigenvalue -1.000e+00)",
    ),
    "partial_correlations spectrum": (
        lambda: ggm.partial_correlations(INDEFINITE, np.array([1.0, -1.0])),
        NotPositiveDefiniteError,
        "partial correlations require a p.d. precision (min eigenvalue -1.000e+00)",
    ),
    "loglik": (
        lambda: estimators.loglik(INDEFINITE, np.eye(2)), NotPositiveDefiniteError,
        "loglik requires a p.d. omega",
    ),
    "sample_mvn": (
        lambda: simulate.sample_mvn(INDEFINITE, 3, 0), NotPositiveDefiniteError,
        "sampling requires a p.d. covariance",
    ),
    "mc_moments": (
        lambda: moments.mc_moments(INDEFINITE, 3, 1.0, reps=2), NotPositiveDefiniteError,
        "Monte Carlo sampling requires a p.d. Sigma",
    ),
    "risk_curve": (
        lambda: simulate.risk_curve(RISK, np.eye(2), INDEFINITE), NotPositiveDefiniteError,
        "risk curves require a p.d. Sigma",
    ),
}


class TestPDRules:
    """Every p.d. failure in the package goes through ``require_pd`` or ``cholesky_pd``."""

    @pytest.mark.parametrize("site", PD_FAILURES)
    def test_each_site_keeps_its_error_and_message(self, site):
        call, error, prefix = PD_FAILURES[site]
        with pytest.raises(error, match="^" + re.escape(prefix)) as info:
            call()
        assert type(info.value) is error

    def test_eigenvalue_rule_reads_any_order(self):
        for vals in ([3.0, 1e-13, 2.0], [1e-13, 2.0, 3.0], [3.0, 2.0, 1e-13]):
            with pytest.raises(NotPositiveDefiniteError, match=r"^x \(min eigenvalue 1\.000e-13\)$"):
                require_pd(np.array(vals), "x")
        require_pd(np.array([2.0, 1e-11, 3.0]), "x")

    def test_eigenvalue_rule_uses_the_tolerance(self):
        # pd_tolerance([2e6, ...]) is 2e-6, and a value at the cutoff fails.
        require_pd(np.array([2e6, 3e-6]), "x")
        with pytest.raises(NotPositiveDefiniteError):
            require_pd(np.array([2e6, 2e-6]), "x")

    def test_eigenvalue_rule_names_the_first_failing_spectrum(self):
        stack = np.array([[[1.0, 2.0], [1.0, -4.0]], [[-3.0, 1.0], [1.0, 1.0]]])
        with pytest.raises(InvalidTargetError, match=r"^y \(min eigenvalue -4\.000e\+00\)$"):
            require_pd(stack, "y", InvalidTargetError)
        require_pd(np.ones((2, 3, 4)), "y")

    def test_cholesky_rule_returns_the_lower_factor(self):
        A = np.array([[4.0, 2.0], [2.0, 3.0]])
        npt.assert_array_equal(cholesky_pd(A, "z"), np.linalg.cholesky(A))
        with pytest.raises(NotPositiveDefiniteError, match=r"^z$") as info:
            cholesky_pd(np.diag([1.0, 0.0]), "z")
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


class TestIsPD:
    def test_identity_true(self):
        assert is_pd(np.eye(3), tol=0.0)

    def test_semidefinite_false(self):
        assert not is_pd(np.diag([1.0, 0.0]), tol=0.0)

    def test_indefinite_false(self):
        A = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        assert not is_pd(A, tol=0.0)

    def test_tol_raises_bar(self):
        assert is_pd(np.diag([1.0, 0.5]), tol=0.4)
        assert not is_pd(np.diag([1.0, 0.5]), tol=0.6)


class TestValidation:
    def test_check_symmetric_returns_exactly_symmetric(self):
        A = np.array([[1.0, 2.0 + 1e-12], [2.0, 1.0]])
        out = check_symmetric(A)
        npt.assert_array_equal(out, out.T)

    def test_check_symmetric_rejects_asymmetric(self):
        with pytest.raises(InvalidMatrixError):
            check_symmetric(np.array([[1.0, 5.0], [2.0, 1.0]]))

    def test_check_symmetric_rejects_nonsquare(self):
        with pytest.raises(InvalidMatrixError):
            check_symmetric(np.ones((2, 3)))

    def test_check_symmetric_rejects_nonfinite(self):
        with pytest.raises(InvalidMatrixError):
            check_symmetric(np.array([[1.0, np.nan], [np.nan, 1.0]]))

    @pytest.mark.parametrize("big", [(0, 0), (0, 1)], ids=["diagonal", "off-diagonal"])
    def test_check_symmetric_names_an_overflow(self, big):
        # Finite entries above max/2 overflow a + a'; no RuntimeWarning escapes.
        A = np.eye(3)
        A[big] = A[big[::-1]] = 1e308
        with pytest.raises(InvalidMatrixError, match="A overflows when symmetrized"):
            check_symmetric(A, "A")
        with pytest.raises(InvalidMatrixError, match="A overflows when symmetrized"):
            check_symmetric(np.stack([np.eye(3), A]), "A", stack=True)

    def test_check_symmetric_near_the_overflow_bound(self):
        # Just below max/2 nothing overflows, and an antisymmetric pair above
        # it is an asymmetry, not an overflow.
        A = np.diag([8.9e307, 1.0])
        assert same_bits(check_symmetric(A), A)
        with pytest.raises(InvalidMatrixError, match="not symmetric"):
            check_symmetric(np.array([[1.0, 1e308], [-1e308, 1.0]]))

    def test_pd_tolerance_scales_with_spectrum(self):
        assert pd_tolerance(np.array([0.5])) == 5e-13
        assert pd_tolerance(np.array([2e6, 1.0])) == pytest.approx(2e-6)

    def test_pd_tolerance_is_relative(self, rng):
        # A power of two rescales every eigenvalue exactly, and so the cutoff.
        v = rng.uniform(0.1, 10.0, size=(3, 5))
        for k in range(-40, 41):
            assert same_bits(pd_tolerance(2.0**k * v), 2.0**k * pd_tolerance(v)), k

    def test_symmetrize_exact(self, rng):
        A = rng.standard_normal((4, 4))
        out = symmetrize(A)
        npt.assert_array_equal(out, out.T)
