import numpy as np
import numpy.testing as npt
import pytest

from ridgeprec import simulate
from ridgeprec.errors import InvalidMatrixError, NotPositiveDefiniteError
from ridgeprec.linalg import (
    check_symmetric,
    eig_sym_unchecked,
    inv_pd,
    pd_tolerance,
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
        assert pd_tolerance(np.array([0.5])) == 1e-12
        assert pd_tolerance(np.array([2e6, 1.0])) == pytest.approx(2e-6)

    def test_symmetrize_exact(self, rng):
        A = rng.standard_normal((4, 4))
        out = symmetrize(A)
        npt.assert_array_equal(out, out.T)
