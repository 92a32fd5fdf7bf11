import math

import numpy as np
import numpy.testing as npt
import pytest

from ridgeprec.errors import (
    EmptyDataError,
    InvalidMatrixError,
    InvalidPenaltyError,
    InvalidTargetError,
    NotPositiveDefiniteError,
)
from ridgeprec.estimators import (
    KINDS,
    RidgeEstimate,
    Target,
    _eigen_map,
    fit,
    fit_data,
    loglik,
    penalty_map_1,
    resolve_target,
    sample_cov,
    shrunk_eigenvalues,
    stationarity_residual,
)
from ridgeprec.linalg import check_symmetric, eig_sym_unchecked, inv_pd, symmetrize

from oracles import (
    archetype1_lu,
    fd_gradient_max_abs,
    fit_omega_mp,
    is_pd,
    newton_max_penalized,
    same_bits,
    sample_cov_loop,
)


class TestSampleCov:
    def test_identity_rows(self):
        npt.assert_array_equal(sample_cov(np.eye(2)), 0.5 * np.eye(2))

    def test_single_row_centered_is_zero(self):
        npt.assert_array_equal(sample_cov(np.array([[3.7, 3.7]]), center=True), np.zeros((2, 2)))

    def test_matches_outer_product_loop(self, rng):
        Y = rng.standard_normal((10, 4))
        npt.assert_allclose(sample_cov(Y), sample_cov_loop(Y), atol=1e-14)

    def test_centered_matches_loop(self, rng):
        Y = rng.standard_normal((9, 3)) + 5.0
        npt.assert_allclose(sample_cov(Y, center=True), sample_cov_loop(Y, center=True), atol=1e-13)

    def test_centered_divisor_stays_n(self, rng):
        Y = rng.standard_normal((6, 2))
        C = Y - Y.mean(axis=0)
        npt.assert_allclose(sample_cov(Y, center=True), C.T @ C / 6.0, atol=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(EmptyDataError):
            sample_cov(np.empty((0, 3)))

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidMatrixError):
            sample_cov(np.array([[1.0, np.inf]]))

    @pytest.mark.parametrize("center", [False, True])
    def test_stack_equals_each_matrix(self, center, rng):
        Y = rng.standard_normal((2, 3, 7, 5)) + 1.0
        got = sample_cov(Y, center=center)
        assert got.shape == (2, 3, 5, 5)
        for i in range(2):
            for j in range(3):
                assert same_bits(got[i, j], sample_cov(Y[i, j], center=center))

    @pytest.mark.parametrize("shape", [(7, 5), (2, 3, 7, 5), (3, 9)])
    def test_bits_equal_the_symmetrized_gram(self, shape, rng):
        # Y'Y, /= n, + transpose, *= 0.5: the operations of symmetrize(Y'Y / n).
        Y = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape)
        assert same_bits(sample_cov(Y), symmetrize(Y.swapaxes(-1, -2) @ Y / Y.shape[-2]))

    def test_overflow_names_the_data(self):
        # Every entry is finite, but Y'Y/n is not; no RuntimeWarning escapes.
        with pytest.raises(InvalidMatrixError, match="data overflow"):
            sample_cov(np.array([[1e200, 1.0], [2e200, 1.0]]))
        with pytest.raises(InvalidMatrixError, match="data overflow"):
            sample_cov(np.array([[[1.0, 1.0]], [[1e200, 1.0]]]))
        # Y'Y/n is finite (its largest entry is 1e308), but S + S' is not.
        with pytest.raises(InvalidMatrixError, match="data overflow"):
            sample_cov(np.array([[1e154, 5e153]]))


class TestTarget:
    def test_scalar_validation(self):
        with pytest.raises(InvalidTargetError):
            Target.scalar(-1.0)

    def test_diagonal_validation(self):
        with pytest.raises(InvalidTargetError):
            Target.diagonal([1.0, 0.0])

    def test_full_must_be_pd(self):
        with pytest.raises(InvalidTargetError):
            Target.full(np.diag([1.0, -2.0]))

    def test_zero_variants(self):
        assert Target.zero().is_zero
        assert Target.scalar(0.0).is_zero
        assert not Target.identity().is_zero

    def test_matrix_shapes(self):
        npt.assert_array_equal(Target.identity().matrix(3), np.eye(3))
        npt.assert_array_equal(Target.scalar(2.5).matrix(2), 2.5 * np.eye(2))
        npt.assert_array_equal(Target.diagonal([2.0, 4.0]).matrix(2), np.diag([2.0, 4.0]))

    def test_full_matrix_is_read_only(self):
        target = Target.full(np.eye(2))
        assert target.matrix(2) is target.values
        with pytest.raises(ValueError):
            target.matrix(2)[0, 0] = 5.0

    @pytest.mark.parametrize(
        "values, k",
        [
            ([3.0, 0.5], 2),
            ([1.0, 0.25], 0),
            ([[1e300, 1.0], [1e-300, 2.0**-4]], [998, -4]),
        ],
        ids=["up", "power-of-4", "stacked"],
    )
    def test_split_is_exact(self, values, k):
        # c = 2^k is the least power of 4 at or above the largest entry, so
        # T/c and T'^(1/2) are exact rescalings of T and sqrt(T).
        target = Target.diagonal(values)
        v = np.asarray(values)
        npt.assert_array_equal(target._split[0], k)
        c = np.ldexp(1.0, np.asarray(k))[..., None]
        ones = np.ones(v.shape + (1,))
        npt.assert_array_equal(target.power(ones, 0.5)[..., 0], np.sqrt(v) / np.sqrt(c))
        npt.assert_array_equal(target.power(ones, -0.5)[..., 0], np.sqrt(c) / np.sqrt(v))
        npt.assert_allclose(target.log_det(), np.sum(np.log(v / c), axis=-1), rtol=1e-14)

    def test_full_split_applies_powers_of_the_reduced_matrix(self, rng, make_spd):
        A = make_spd(4, rng) * 10.0
        target = Target.full(A)
        c = np.ldexp(1.0, target._split[0])
        top = np.linalg.eigvalsh(A)[-1]
        assert c / 4 < top <= c and np.log2(c) % 2 == 0
        half = target.power(np.eye(4), 0.5)
        npt.assert_allclose(half @ half, A / c, atol=1e-14)
        npt.assert_allclose(target.power(half, -0.5), np.eye(4), atol=1e-14)
        npt.assert_allclose(target.log_det(), np.linalg.slogdet(A / c)[1], rtol=1e-13)

    def test_diagonal_values_are_a_read_only_copy(self):
        v = np.array([1.0, 2.0])
        target = Target.diagonal(v)
        v[0] = -1.0
        npt.assert_array_equal(target.values, [1.0, 2.0])
        with pytest.raises(ValueError):
            target.values[0] = 5.0

    def test_targets_compare_and_hash_by_value(self):
        assert Target.zero() == Target.zero() and hash(Target.zero()) == hash(Target.zero())
        assert Target.full(np.eye(2)) != Target.full(2 * np.eye(2))
        assert Target.diagonal([1.0, 2.0]) != Target.diagonal([5.0, 6.0])
        assert Target.diagonal([1.0, 2.0]) != Target.diagonal([[1.0, 2.0]])
        assert Target.diagonal([1.0, 1.0]) != Target.full(np.eye(2))
        assert Target.diagonal([1.0, 2.0]) != Target.scalar(1.0)
        for a, b in (
            (Target.full(np.eye(2)), Target.full(np.eye(2))),
            (Target.diagonal([1.0, 2.0]), Target.diagonal(np.array([1.0, 2.0]))),
            (Target.scalar(2.5), Target.scalar(2.5)),
        ):
            assert a == b and hash(a) == hash(b) and len({a, b}) == 1

    def test_fit_rejects_zero_target_before_decomposing(self, decompositions):
        message = r"^archetype-1 requires a p.d. target, got zero$"
        for lam in (0.5, [0.2, 0.5]):
            with pytest.raises(InvalidTargetError, match=message):
                fit("archetype-1", np.eye(2), lam, Target.zero())
        assert decompositions == []

    @pytest.mark.parametrize("kind", ["alt-1", "archetype-1"])
    @pytest.mark.parametrize("lam", [0.5, [0.2, 0.5]], ids=["scalar", "grid"])
    def test_fit_rejects_wrong_size_target(self, kind, lam):
        for target, message in (
            (Target.diagonal([2.0, 4.0]), "diagonal target has 2 entries, expected 3"),
            (Target.full(np.eye(2)), "full target is 2x2, expected 3"),
        ):
            with pytest.raises(InvalidTargetError, match=f"^{message}$"):
                fit(kind, np.eye(3), lam, target)

    def test_full_eigenpairs_computed_once(self, rng, make_spd, decompositions):
        target = Target.full(make_spd(5, rng))
        fit("alt-1", make_spd(5, rng), 0.5, target)
        assert decompositions == [1]  # building the target and alt-1 split nothing
        decompositions.clear()
        for lam in (0.3, 0.6, [0.2, 0.7]):
            fit("archetype-1", make_spd(5, rng), lam, target)
        # The target's eigenpairs on first use, then one R per fit, grid or not.
        assert decompositions == [1, 1, 1, 1]

    def test_full_target_fit_validates_once(self, rng, make_spd, symmetry_checks):
        S, target = make_spd(4, rng), Target.full(make_spd(4, rng))
        symmetry_checks.clear()
        fit("archetype-1", S, 0.3, target)
        assert symmetry_checks == ["S"]

    def test_labels(self):
        assert Target.identity().label() == "identity"
        assert Target.zero().label() == "zero"
        assert Target.scalar(0.5).label() == "scalar:0.5"
        assert Target.diagonal([1.0, 2.0]).label() == "diagonal"

    def test_default_diagonal_target(self):
        T = resolve_target("ddiag", check_symmetric(np.diag([2.0, 4.0])))
        npt.assert_array_equal(T.values, [0.5, 0.25])
        T = resolve_target("ddiag", check_symmetric(np.eye(3)))
        npt.assert_array_equal(T.values, np.ones(3))

    def test_default_diagonal_unit_diag(self, rng):
        B = rng.standard_normal((4, 4)) * 0.2
        S = 0.5 * (B + B.T)
        np.fill_diagonal(S, 1.0)
        npt.assert_array_equal(resolve_target("ddiag", check_symmetric(S)).values, np.ones(4))

    def test_default_diagonal_rejects_nonpositive(self):
        with pytest.raises(InvalidTargetError):
            resolve_target("ddiag", check_symmetric(np.diag([1.0, 0.0])))

    def test_resolve_target(self):
        t = Target.identity()
        assert resolve_target(t, np.eye(2)) is t
        got = resolve_target("ddiag", np.diag([2.0, 4.0]))
        npt.assert_array_equal(got.values, [0.5, 0.25])
        with pytest.raises(InvalidTargetError):
            resolve_target("bogus", np.eye(2))


class TestArchetype1:
    def test_full_penalty_returns_target(self):
        S = np.array([[4.0, 1.0], [1.0, 3.0]])
        est = fit("archetype-1", S, 1.0, Target.identity())
        npt.assert_allclose(est.omega, np.eye(2), atol=1e-14)

    def test_scalar_example(self):
        est = fit("archetype-1", np.array([[2.0]]), 0.5, Target.identity())
        npt.assert_allclose(est.omega, [[1.0 / 1.5]], rtol=1e-15)

    def test_singular_sample_cov_is_pd(self, rng):
        Y = rng.standard_normal((3, 6))
        S = sample_cov(Y)
        est = fit("archetype-1", S, 0.1, "ddiag")
        assert is_pd(est.omega, tol=0.0)

    def test_penalty_domain(self):
        S = np.eye(2)
        for bad in (0.0, -1.0, 1.5, np.inf):
            with pytest.raises(InvalidPenaltyError):
                fit("archetype-1", S, bad, Target.identity())

    def test_zero_target_rejected(self):
        with pytest.raises(InvalidTargetError):
            fit("archetype-1", np.eye(2), 0.5, Target.zero())


class TestArchetype2:
    def test_zero_matrix(self):
        est = fit("archetype-2", np.zeros((3, 3)), 2.0)
        npt.assert_allclose(est.omega, 0.5 * np.eye(3), atol=1e-15)

    def test_scalar_example(self):
        npt.assert_allclose(fit("archetype-2", np.array([[2.0]]), 3.0).omega, [[0.2]], rtol=1e-15)

    def test_singular_sample_cov_is_pd(self, rng):
        S = sample_cov(rng.standard_normal((2, 5)))
        assert is_pd(fit("archetype-2", S, 1e-3).omega, tol=0.0)

    def test_penalty_domain(self):
        with pytest.raises(InvalidPenaltyError):
            fit("archetype-2", np.eye(2), 0.0)


class TestAltRidge1:
    def test_identity_fixed_point(self):
        for lam in (0.1, 1.0, 100.0):
            est = fit("alt-1", np.eye(3), lam, Target.identity())
            npt.assert_allclose(est.omega, np.eye(3), atol=1e-12)

    def test_scalar_example_closed_form(self):
        est = fit("alt-1", np.array([[2.0]]), 1.0, Target.identity())
        npt.assert_allclose(est.omega[0, 0], (math.sqrt(5.0) - 1.0) / 2.0, rtol=1e-14)

    def test_scalar_matches_newton_oracle(self, rng):
        for _ in range(25):
            s = float(rng.uniform(0.0, 8.0))
            t = float(rng.uniform(0.1, 4.0))
            lam = float(10.0 ** rng.uniform(-3, 3))
            est = fit("alt-1", np.array([[s]]), lam, Target.scalar(t))
            ref = newton_max_penalized(s, t, lam)
            npt.assert_allclose(est.omega[0, 0], ref, rtol=1e-12)

    def test_large_penalty_reaches_target(self, rng, make_spd):
        S = make_spd(5, rng)
        est = fit("alt-1", S, 1e8, Target.scalar(2.0))
        T = 2.0 * np.eye(5)
        assert np.linalg.norm(est.omega - T) <= 1e-3 * np.linalg.norm(T)

    def test_small_penalty_monotone_to_inverse(self, rng, make_spd):
        S = make_spd(4, rng)
        Sinv = inv_pd(S)
        errs = [
            np.linalg.norm(fit("alt-1", S, lam, "ddiag").omega - Sinv)
            for lam in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10)
        ]
        assert all(a > b for a, b in zip(errs, errs[1:]))
        assert errs[-1] <= 1e-6 * np.linalg.norm(Sinv)

    def test_inversion_free_route_agrees(self, rng):
        S = sample_cov(rng.standard_normal((4, 6)))
        t = resolve_target("ddiag", check_symmetric(S))
        lam = 0.37
        est = fit("alt-1", S, lam, t)
        M = S - lam * t.matrix(6)
        route_b = (est.sigma - M) / lam
        assert np.linalg.norm(route_b - est.omega) <= 1e-9 * np.linalg.norm(est.omega)
        npt.assert_allclose(inv_pd(est.sigma), est.omega, atol=1e-9 * np.linalg.norm(est.omega))

    def test_zero_target_routes_to_type2(self):
        S = np.array([[2.0, 0.3], [0.3, 1.0]])
        est = fit("alt-1", S, 0.8, Target.zero())
        assert est.kind == "alt-2"
        npt.assert_array_equal(est.omega, fit("alt-2", S, 0.8).omega)

    def test_rotation_equivariance_scalar_target(self, rng, make_spd):
        S = make_spd(5, rng)
        Q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        lam, psi = 0.9, 1.7
        direct = fit("alt-1", Q @ S @ Q.T, lam, Target.scalar(psi)).omega
        rotated = Q @ fit("alt-1", S, lam, Target.scalar(psi)).omega @ Q.T
        assert np.linalg.norm(direct - rotated) <= 1e-9 * np.linalg.norm(direct)

    def test_penalty_domain(self):
        with pytest.raises(InvalidPenaltyError):
            fit("alt-1", np.eye(2), -0.5, Target.identity())


class TestAltRidge2:
    def test_zero_matrix(self):
        npt.assert_allclose(fit("alt-2", np.zeros((2, 2)), 4.0).omega, 0.5 * np.eye(2), atol=1e-15)

    def test_scalar_example(self):
        est = fit("alt-2", np.array([[2.0]]), 4.0)
        npt.assert_allclose(est.omega[0, 0], (math.sqrt(5.0) - 1.0) / 4.0, rtol=1e-14)

    def test_scalar_matches_newton_oracle(self, rng):
        for _ in range(25):
            s = float(rng.uniform(0.0, 8.0))
            lam = float(10.0 ** rng.uniform(-3, 3))
            est = fit("alt-2", np.array([[s]]), lam)
            npt.assert_allclose(est.omega[0, 0], newton_max_penalized(s, 0.0, lam), rtol=1e-12)

    def test_huge_penalty_norm_bound(self, rng, make_spd):
        S = make_spd(6, rng)
        lam = 1e10
        assert np.linalg.norm(fit("alt-2", S, lam).omega) <= 2.0 * 6 / math.sqrt(lam)

    def test_singular_sample_cov_is_pd(self, rng):
        S = sample_cov(rng.standard_normal((2, 7)))
        assert is_pd(fit("alt-2", S, 1e-6).omega, tol=0.0)


class TestSharedInvariants:
    @pytest.fixture()
    def fits(self, rng):
        S = sample_cov(rng.standard_normal((5, 8)))  # singular, p > n
        t = resolve_target("ddiag", check_symmetric(S))
        return S, t, [
            fit("alt-1", S, 0.42, t),
            fit("alt-2", S, 0.42),
            fit("archetype-1", S, 0.42, t),
            fit("archetype-2", S, 0.42),
        ]

    def test_omega_sigma_mutually_inverse(self, fits):
        S, _, ests = fits
        for est in ests:
            assert np.linalg.norm(est.omega @ est.sigma - np.eye(8)) <= 1e-8 * 8

    def test_covariance_identity_for_alternative_fits(self, fits):
        S, t, ests = fits
        for est in ests[:2]:
            T = est.target.matrix(8)
            lhs = S - est.lam * T
            rhs = est.sigma - est.lam * est.omega
            assert np.linalg.norm(lhs - rhs) <= 1e-10 * (1.0 + np.linalg.norm(S))

    def test_all_fits_pd(self, fits):
        _, _, ests = fits
        for est in ests:
            assert is_pd(est.omega, tol=0.0)


class TestShrunkEigenvalues:
    def test_type2_at_zero(self):
        npt.assert_allclose(shrunk_eigenvalues("alt-2", [0.0], 9.0), [3.0], rtol=1e-15)

    def test_type1_example(self):
        npt.assert_allclose(shrunk_eigenvalues("alt-1", [1.0], 5.0, psi=1.0), [1.0], rtol=1e-12)

    def test_archetype2_example(self):
        npt.assert_allclose(shrunk_eigenvalues("archetype-2", [2.0], 3.0), [5.0], rtol=1e-15)

    def test_archetype1_scalar_formula(self):
        got = shrunk_eigenvalues("archetype-1", [2.0], 0.25, psi=2.0)
        npt.assert_allclose(got, [0.75 * 2.0 + 0.25 / 2.0], rtol=1e-15)

    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_full_matrix_fit(self, rng, kind):
        d = np.sort(rng.uniform(0.0, 5.0, size=4))[::-1]
        lam, psi = 0.8, 1.3
        cov = shrunk_eigenvalues(kind, d, lam, psi=psi)
        est = fit(kind, np.diag(d), lam, Target.scalar(psi))
        npt.assert_allclose(np.linalg.eigvalsh(est.sigma), np.sort(cov), rtol=1e-12)

    def test_domain_errors(self):
        with pytest.raises(InvalidPenaltyError):
            shrunk_eigenvalues("archetype-1", [1.0], 2.0)
        with pytest.raises(InvalidPenaltyError):
            shrunk_eigenvalues("alt-2", [1.0], 0.0)
        with pytest.raises(InvalidPenaltyError):
            shrunk_eigenvalues("nope", [1.0], 1.0)


class TestShrinkageDominance:
    def test_anchored_estimator_shrinks_at_least_as_much(self, rng):
        # covariance-side eigenvalues at matched penalty scales
        for _ in range(200):
            d = rng.uniform(0.0, 10.0, size=6)
            lam_a = float(10.0 ** rng.uniform(-3, 3))
            psi = float(10.0 ** rng.uniform(-1, 1))
            lam_1 = 1.0 - 1.0 / (lam_a * psi * psi + 1.0)
            alt = shrunk_eigenvalues("alt-1", d, lam_a, psi=psi)
            arch = shrunk_eigenvalues("archetype-1", d, lam_1, psi=psi)
            assert np.all(alt >= arch - 1e-12 * (1.0 + np.abs(arch)))

    def test_target_free_estimator_shrinks_less(self, rng):
        for _ in range(200):
            d = rng.uniform(0.0, 10.0, size=6)
            lam_2 = float(10.0 ** rng.uniform(-3, 3))
            alt = shrunk_eigenvalues("alt-2", d, lam_2 * lam_2)
            arch = shrunk_eigenvalues("archetype-2", d, lam_2)
            assert np.all(alt <= arch + 1e-12 * (1.0 + np.abs(arch)))


class TestPenaltyMaps:
    def test_map1_values(self):
        assert penalty_map_1(1.0) == pytest.approx(0.5)
        assert penalty_map_1(1e-9) == pytest.approx(1e-9, rel=1e-6)
        assert penalty_map_1(1e6) == pytest.approx(1.0, abs=2e-6)

    def test_domains(self):
        with pytest.raises(InvalidPenaltyError):
            penalty_map_1(0.0)


class TestStationarityResidual:
    def test_inverse_gives_exact_value(self, rng, make_spd):
        S = make_spd(4, rng)
        T = Target.identity()
        lam = 0.7
        got = stationarity_residual(inv_pd(S), S, T, lam)
        want = lam * np.linalg.norm(inv_pd(S) - np.eye(4))
        npt.assert_allclose(got, want, rtol=1e-9)

    def test_fit_is_near_zero_and_perturbation_larger(self, rng, make_spd):
        S = make_spd(4, rng)
        lam = 0.9
        est = fit("alt-1", S, lam, "ddiag")
        base = stationarity_residual(est.omega, S, "ddiag", lam)
        assert base <= 1e-7 * np.linalg.norm(S)
        bumped = est.omega.copy()
        bumped[0, 0] += 0.1
        assert stationarity_residual(bumped, S, "ddiag", lam) > base

    def test_rejects_non_pd(self):
        with pytest.raises(NotPositiveDefiniteError):
            stationarity_residual(np.diag([1.0, -1.0]), np.eye(2), Target.identity(), 1.0)


class TestLoglik:
    def test_identity_case(self):
        assert loglik(np.eye(2), np.eye(2)) == pytest.approx(-2.0)

    def test_scalar_case(self):
        assert loglik(np.array([[2.0]]), np.zeros((1, 1))) == pytest.approx(math.log(2.0))

    def test_rejects_non_pd(self):
        with pytest.raises(NotPositiveDefiniteError):
            loglik(np.diag([1.0, -1.0]), np.eye(2))

    def test_matched_scale_likelihood_ordering(self, rng, make_spd):
        for _ in range(20):
            S = make_spd(4, rng)
            lam2 = float(10.0 ** rng.uniform(-2, 2))
            arch = loglik(fit("archetype-2", S, lam2).omega, S)
            alt = loglik(fit("alt-2", S, lam2 * lam2).omega, S)
            assert arch <= alt + 1e-12


class TestFitDispatch:
    def test_kinds_reachable(self, rng, make_spd):
        S = make_spd(3, rng)
        for kind in KINDS:
            est = fit(kind, S, 0.5, "ddiag")
            assert isinstance(est, RidgeEstimate)
            assert est.kind in KINDS

    def test_target_required(self):
        with pytest.raises(InvalidTargetError):
            fit("alt-1", np.eye(2), 0.5)
        with pytest.raises(InvalidTargetError):
            fit("archetype-1", np.eye(2), 0.5)

    def test_unknown_kind(self):
        with pytest.raises(InvalidPenaltyError):
            fit("lasso", np.eye(2), 0.5)

    @pytest.mark.parametrize("kind", KINDS)
    def test_dense_matrices_built_on_first_access(self, kind, rng, make_spd):
        est = fit(kind, make_spd(5, rng), 0.5, "ddiag")
        assert "omega" not in est.__dict__ and "sigma" not in est.__dict__
        assert est.scaled == (kind == "archetype-1")
        V, W = est.vectors, est.vectors
        if est.scaled:  # T'^(1/2) V and T'^(-1/2) V
            V, W = est.target.power(V, 0.5), est.target.power(V, -0.5)
        npt.assert_array_equal(est.omega, symmetrize((V * est.prec) @ V.T))
        npt.assert_array_equal(est.sigma, symmetrize((W * est.cov) @ W.T))
        assert est.omega is est.omega and est.sigma is est.sigma
        assert est.p == 5


    @pytest.mark.parametrize("kind", ["alt-1", "archetype-1"])
    @pytest.mark.parametrize("lam", [0.4, np.array([0.4])], ids=["scalar", "one-point-grid"])
    def test_input_is_not_written(self, kind, lam, rng, make_spd):
        # fit builds the kind's matrix in place in its own checked copy of S.
        S = make_spd(6, rng)
        kept = S.copy()
        fit(kind, S, lam, "ddiag")
        assert S.tobytes() == kept.tobytes()


class TestGradientAtOptimum:
    def test_finite_difference_gradient_vanishes(self, rng, make_spd):
        S = make_spd(4, rng)
        t = Target.identity()
        lam = 1.3
        est = fit("alt-1", S, lam, t)
        assert fd_gradient_max_abs(est.omega, S, np.eye(4), lam) <= 1e-5


class TestBroadcastFit:
    """A grid or stacked fit equals the scalar fits, slice by slice, bit for bit."""

    P = 8
    GRIDS = {
        "archetype-1": np.array([1e-3, 0.05, 0.4, 0.9, 1.0]),
        "other": np.logspace(-3, 3, 7),
    }

    @staticmethod
    def targets(rng, make_spd, p):
        return {
            "zero": Target.zero(),
            "identity": Target.identity(),
            "scalar": Target.scalar(2.5),
            "diagonal": Target.diagonal(rng.uniform(0.5, 2.0, size=p)),
            "ddiag": "ddiag",
            "full": Target.full(make_spd(p, rng)),
        }

    @staticmethod
    def assert_slice_equal(got, want):
        assert got.kind == want.kind
        for name in ("vectors", "prec", "cov", "omega", "sigma"):
            assert same_bits(getattr(got, name), getattr(want, name)), name

    @pytest.mark.parametrize("n", [4, 15], ids=["n<p", "n>p"])
    @pytest.mark.parametrize("target_name", ["zero", "identity", "scalar", "diagonal", "ddiag", "full"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_grid_fit_equals_scalar_fits(self, kind, target_name, n, rng, make_spd):
        S = sample_cov(rng.standard_normal((n, self.P)))
        target = self.targets(rng, make_spd, self.P)[target_name]
        grid = self.GRIDS["archetype-1" if kind == "archetype-1" else "other"]
        if kind == "archetype-1" and target_name == "zero":
            with pytest.raises(InvalidTargetError):
                fit(kind, S, grid, target)
            return
        est = fit(kind, S, grid, target)
        assert est.vectors.shape == (grid.size, self.P, self.P)
        assert est.prec.shape == est.cov.shape == (grid.size, self.P)
        assert est.omega.shape == (grid.size, self.P, self.P) and est.p == self.P
        npt.assert_array_equal(est.lam, grid)
        for g, lam in enumerate(grid):
            one = fit(kind, S, float(lam), target)
            got = RidgeEstimate(
                est.vectors[g], est.prec[g], est.cov[g], est.kind, lam, est.target,
                scaled=est.scaled,
            )
            self.assert_slice_equal(got, one)
            assert same_bits(est.omega[g], one.omega)

    @pytest.mark.parametrize("target_name", ["identity", "diagonal", "ddiag", "full"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_stacked_s_with_and_without_grid(self, kind, target_name, rng, make_spd):
        stack = np.stack([sample_cov(rng.standard_normal((n, self.P))) for n in (3, 9, 20)])
        target = self.targets(rng, make_spd, self.P)[target_name]
        grid = self.GRIDS["archetype-1" if kind == "archetype-1" else "other"][1:4]
        scalar = float(grid[1])
        at_scalar = fit(kind, stack, scalar, target)
        assert at_scalar.vectors.shape == (3, self.P, self.P)
        over_grid = fit(kind, stack, grid, target)
        assert over_grid.vectors.shape == (3, grid.size, self.P, self.P)
        for b, S in enumerate(stack):
            one = fit(kind, S, scalar, target)
            assert same_bits(at_scalar.omega[b], one.omega)
            assert same_bits(at_scalar.sigma[b], one.sigma)
            for g, lam in enumerate(grid):
                one = fit(kind, S, float(lam), target)
                for name in ("vectors", "prec", "cov"):
                    assert same_bits(getattr(over_grid, name)[b, g], getattr(one, name))
                assert same_bits(over_grid.omega[b, g], one.omega)

    @pytest.mark.parametrize("stacked", [False, True], ids=["2-D", "stack"])
    @pytest.mark.parametrize(
        "kind, target_name",
        [
            (kind, name)
            for kind in KINDS
            for name in ("zero", "scalar", "diagonal", "ddiag", "full")
            if (kind, name) != ("archetype-1", "zero")  # rejected before any work
        ],
    )
    def test_fit_never_writes_to_s(self, kind, target_name, stacked, rng, make_spd):
        S = np.stack([sample_cov(rng.standard_normal((n, self.P))) for n in (3, 20)])
        if not stacked:
            S = S[0]
        before = S.tobytes()
        target = self.targets(rng, make_spd, self.P)[target_name]
        grid = self.GRIDS["archetype-1" if kind == "archetype-1" else "other"]
        for lam in (float(grid[2]), grid):
            fit(kind, S, lam, target)
            assert S.tobytes() == before

    @pytest.mark.parametrize("kind", ["alt-1", "archetype-1"])
    def test_diagonal_target_matches_dense_target_bitwise(self, kind):
        # Negative zeros off the diagonal, which eigh's Householder signs
        # follow. The identity target takes the spectral path: S's
        # eigenpairs, its eigenvalues shifted. (archetype-1 fits a diagonal
        # target by congruence, the test below.)
        S = np.diag([2.0, 1.0, 3.0])
        S[0, 1] = S[1, 0] = -0.0
        S[0, 2] = S[2, 0] = -0.5
        d, V = eig_sym_unchecked(S)
        for target in (Target.identity(), Target.diagonal([1.0, 2.0, 0.5])):
            if kind == "archetype-1" and target.kind == "diagonal":
                continue
            for lam in (0.3, 1.0):
                if target.kind == "scalar":
                    psi, vecs = target.psi, V
                    vals = d - lam * psi if kind == "alt-1" else (1.0 - lam) * d + lam * (1.0 / psi)
                else:
                    vals, vecs = eig_sym_unchecked(S - lam * target.matrix(3))
                cov, prec = _eigen_map(kind, vals, lam)
                est = fit(kind, S, lam, target)
                for got, want in ((est.vectors, vecs), (est.cov, cov), (est.prec, prec)):
                    assert same_bits(got, want)

    @pytest.mark.parametrize("p", [5, 25, 100])
    @pytest.mark.parametrize("kind", ["alt-1", "archetype-1"])
    def test_scalar_target_agrees_with_the_dense_matrix(self, kind, p, rng):
        # The spectral path shifts S's eigenvalues; the dense reference
        # decomposes S - lam*psi*I (or (1-lam)S + (lam/psi)I) itself. The two
        # decompositions differ by rounding, which a fit amplifies by the
        # condition number of its estimate: measured up to 17 eps*cond, and
        # 1.5e-11 relative to the largest entry of omega (p = 5..400).
        eps = np.finfo(float).eps
        grid = self.GRIDS["archetype-1" if kind == "archetype-1" else "other"]
        for n in (p // 2, 2 * p):
            S = sample_cov(rng.standard_normal((n, p)) * rng.uniform(0.3, 3.0, p))
            for psi in (0.3, 1.0, 2.5):
                est = fit(kind, S, grid, Target.scalar(psi))
                for g, lam in enumerate(grid):
                    if kind == "alt-1":
                        dense = S - lam * psi * np.eye(p)
                    else:
                        dense = (1.0 - lam) * S + (lam / psi) * np.eye(p)
                    vals, vecs = eig_sym_unchecked(dense)
                    cov, prec = _eigen_map(kind, vals, lam)
                    want = symmetrize((vecs * prec) @ vecs.T)
                    rel = np.abs(est.omega[g] - want).max() / np.abs(want).max()
                    assert rel <= 64 * eps * cov.max() / cov.min(), (n, psi, lam)

    @pytest.mark.parametrize("n", [4, 15], ids=["n<p", "n>p"])
    @pytest.mark.parametrize("target_name", ["diagonal", "ddiag", "full"])
    def test_scaled_fit_is_the_scalar_target_fit_of_r(self, target_name, n, rng, make_spd):
        # (1-lam)S + lam*T^-1 is a congruence of (1-lam)R + (lam/c)I, with
        # R = T'^(1/2) S T'^(1/2) and T = c*T': the scalar-target fit of R
        # at psi = c, bit for bit, over the whole grid.
        S = sample_cov(rng.standard_normal((n, self.P)))
        target = self.targets(rng, make_spd, self.P)[target_name]
        grid = self.GRIDS["archetype-1"]
        est = fit("archetype-1", S, grid, target)
        assert est.scaled and est.target == resolve_target(target, check_symmetric(S))
        T = est.target
        R = symmetrize(T.power(T.power(S, 0.5).T, 0.5))
        want = fit("archetype-1", R, grid, Target.scalar(np.ldexp(1.0, T._split[0])))
        for name in ("vectors", "prec", "cov"):
            assert same_bits(getattr(est, name), getattr(want, name)), name

    @pytest.mark.parametrize("n", [4, 15], ids=["n<p", "n>p"])
    @pytest.mark.parametrize("target_name", ["diagonal", "ddiag", "full"])
    def test_scaled_fit_agrees_with_the_lu_inverse(self, target_name, n, rng, make_spd):
        # Both routes err by rounding amplified by the condition number of
        # the combined matrix M = (1-lam)S + lam*T^-1.
        eps = np.finfo(float).eps
        S = sample_cov(rng.standard_normal((n, self.P)) * rng.uniform(0.3, 3.0, self.P))
        target = self.targets(rng, make_spd, self.P)[target_name]
        T = resolve_target(target, check_symmetric(S)).matrix(self.P)
        grid = np.logspace(-4, 0, 9)
        est = fit("archetype-1", S, grid, target)
        for g, lam in enumerate(grid):
            want = archetype1_lu(S, lam, T)
            sigma = (1.0 - lam) * S + lam * np.linalg.inv(T)
            rel = np.abs(est.omega[g] - want).max() / np.abs(want).max()
            assert rel <= 64 * eps * np.linalg.cond(sigma), (lam, rel)
            rel = np.abs(est.sigma[g] - sigma).max() / np.abs(sigma).max()
            assert rel <= 64 * eps * np.linalg.cond(sigma), (lam, rel)

    @pytest.mark.parametrize("target_name", ["diagonal", "ddiag", "full"])
    def test_scaled_grid_decomposes_one_matrix_per_s(
        self, target_name, rng, make_spd, decompositions
    ):
        stack = np.stack([sample_cov(rng.standard_normal((n, self.P))) for n in (3, 9, 20)])
        target = self.targets(rng, make_spd, self.P)[target_name]
        grid = self.GRIDS["archetype-1"]
        fit("archetype-1", stack[0], grid, target)
        fit("archetype-1", stack, grid, target)
        # A full target's eigenpairs once, on first use; then one R per S.
        assert decompositions == [1] * (target_name == "full") + [1, 3]

    def test_undecided_congruence_keeps_the_combined_matrix_verdict(self, decompositions):
        # N = (1-lam)R + (lam/c)I = diag(1, 5e-13) fails its own cutoff, but
        # M = (1-lam)S + lam*T^-1 = diag(5, 1) is p.d.: the call takes the
        # combined matrices, one per penalty, and holds an unscaled fit.
        S, target = np.diag([0.0, 1.0]), Target.diagonal([1e-13, 1.0])
        for lam, omega in ((5e-13, [0.2, 1.0]), ([5e-13, 1e-12], [[0.2, 1.0], [0.1, 1.0]])):
            decompositions.clear()
            est = fit("archetype-1", S, lam, target)
            assert not est.scaled and decompositions == [1, np.size(lam)]
            npt.assert_allclose(np.diagonal(est.omega, axis1=-2, axis2=-1), omega, rtol=1e-15)
            npt.assert_array_equal(est.omega, est.omega * np.eye(2))
        # M = diag(0.5, 5e19) is not p.d. although N = 0.5*I is.
        message = r"^combined matrix not p\.d\. \(min eigenvalue 5\.000e-01\)$"
        with pytest.raises(NotPositiveDefiniteError, match=message):
            fit("archetype-1", np.zeros((2, 2)), 0.5, Target.diagonal([1.0, 1e-20]))

    @pytest.mark.parametrize("target_name", ["diagonal", "full"])
    def test_ill_conditioned_target_agrees_with_the_lu_inverse(self, target_name, rng):
        # A target condition number of 1e11 leaves small penalties undecided
        # by the congruence; every fit still inverts M to rounding.
        eps = np.finfo(float).eps
        p = self.P
        e = np.logspace(-11, 0, p)
        Q = np.linalg.qr(rng.standard_normal((p, p)))[0]
        T = np.diag(e) if target_name == "diagonal" else symmetrize((Q * e) @ Q.T)
        target = Target.diagonal(e) if target_name == "diagonal" else Target.full(T)
        S = sample_cov(rng.standard_normal((4, p)))
        grid = np.logspace(-12, 0, 7)
        scaled = [fit("archetype-1", S, lam, target).scaled for lam in grid]
        assert not scaled[0] and scaled[-1]
        est = fit("archetype-1", S, grid, target)
        for g, lam in enumerate(grid):
            want = archetype1_lu(S, lam, T)
            sigma = (1.0 - lam) * S + lam * np.linalg.inv(T)
            rel = np.abs(est.omega[g] - want).max() / np.abs(want).max()
            assert rel <= 64 * eps * np.linalg.cond(sigma), (lam, rel)

    @pytest.mark.parametrize("kind", KINDS)
    def test_bad_grid_value_rejected(self, kind):
        for bad in ([0.5, 0.0], [0.5, -1.0], [np.nan, 0.5], [0.5, np.inf], [], [[0.5]]):
            with pytest.raises(InvalidPenaltyError):
                fit(kind, np.eye(3), bad, Target.identity())
        if kind == "archetype-1":
            with pytest.raises(InvalidPenaltyError):
                fit(kind, np.eye(3), [0.5, 1.5], Target.identity())

    def test_non_pd_archetype1_slice_rejected(self):
        S = np.diag([-5.0, 1.0])  # (1-v)(-5) + v > 0 only for v > 5/6
        fit("archetype-1", S, 0.9, Target.identity())
        with pytest.raises(NotPositiveDefiniteError):
            fit("archetype-1", S, [0.9, 0.5], Target.identity())
        with pytest.raises(NotPositiveDefiniteError):
            fit("archetype-1", np.stack([np.eye(2), S]), 0.5, Target.identity())

    def test_non_pd_archetype2_slice_rejected(self):
        S = np.diag([-1.0, 1.0])
        fit("archetype-2", S, 2.0)
        with pytest.raises(NotPositiveDefiniteError):
            fit("archetype-2", S, [2.0, 0.5])

    @pytest.mark.parametrize("kind", ["alt-1", "archetype-1"])
    def test_wrong_size_diagonal_target_rejected(self, kind):
        with pytest.raises(InvalidTargetError):
            fit(kind, np.eye(3), [0.2, 0.5], Target.diagonal([1.0, 2.0]))
        with pytest.raises(InvalidTargetError):
            fit(kind, np.eye(3), 0.5, Target.diagonal([1.0, 2.0]))

    def test_stack_rejects_one_asymmetric_matrix(self):
        stack = np.stack([np.eye(2), np.array([[1.0, 2.0], [0.0, 1.0]])])
        with pytest.raises(InvalidMatrixError):
            fit("alt-2", stack, [0.5, 1.0])

    def test_stack_ddiag_rejects_one_nonpositive_diagonal(self):
        stack = np.stack([np.eye(2), np.diag([1.0, 0.0])])
        with pytest.raises(InvalidTargetError):
            fit("alt-1", stack, 0.5, "ddiag")

    def test_shared_decomposition_is_one_matrix(self, rng, decompositions):
        S = sample_cov(rng.standard_normal((6, 5)))
        for kind in ("alt-2", "archetype-2"):
            fit(kind, S, np.logspace(-2, 2, 9))
        # A scalar target shifts S's eigenvalues: one matrix, grid or not.
        for kind in ("alt-1", "archetype-1"):
            grid = self.GRIDS["archetype-1" if kind == "archetype-1" else "other"]
            for target in (Target.identity(), Target.scalar(2.5)):
                for lam in (float(grid[2]), grid):
                    fit(kind, S, lam, target)
        fit("alt-1", S, np.logspace(-2, 2, 9), "ddiag")
        assert decompositions == [1] * 10 + [9]


class TestStackSlices:
    def test_blocks_cover_count_within_budget(self, monkeypatch):
        from ridgeprec import estimators

        monkeypatch.setattr(estimators, "STACK_BYTES", 3 * 8 * 4 * 4)
        assert estimators.stack_slices(7, 4 * 4) == [slice(0, 3), slice(3, 6), slice(6, 7)]
        assert estimators.stack_slices(3, 4 * 4) == [slice(0, 3)]
        assert estimators.stack_slices(2, 100 * 100) == [slice(0, 1), slice(1, 2)]


class TestFitOverflow:
    """An eigenvalue map that overflows raises a typed error naming its penalty.

    pytest turns warnings into errors, so these also show that no numpy
    overflow warning escapes.
    """

    Y = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.5], [7.0, 8.2, 9.0], [1.5, 2.0, 3.3]])
    GRID = np.logspace(0, 300, 4)  # 1, 1e100, 1e200, 1e300

    def test_dense_route_names_the_penalty(self):
        S = sample_cov(self.Y)
        with pytest.raises(InvalidMatrixError, match=r"^fit overflow at penalty 1e\+160: "):
            fit("alt-1", S, 1e160, "ddiag")
        for target in ("ddiag", Target.identity()):
            for stack in (S, np.stack([S, S])):
                with pytest.raises(InvalidMatrixError, match=r"at penalty 1e\+200: "):
                    fit("alt-1", stack, self.GRID, target)

    def test_first_penalty_in_grid_order(self):
        # The second matrix overflows at every penalty, the first from 1e200 on.
        S = sample_cov(self.Y)
        with pytest.raises(InvalidMatrixError, match=r"at penalty 1\.0: "):
            fit("alt-1", np.stack([S, S * 1e155]), self.GRID, Target.identity())

    def test_overflowing_matrix_names_the_penalty_before_eigh(self, monkeypatch):
        # lam*T overflows while S - lam*T is built; eigh would turn the inf into NaN.
        def forbidden(a):
            raise AssertionError("eigh ran on a matrix that is not finite")

        monkeypatch.setattr(np.linalg, "eigh", forbidden)
        big = Target.diagonal([1e10] * 3)
        with pytest.raises(InvalidMatrixError, match=r"^fit overflow at penalty 1e\+300: "):
            fit("alt-1", np.eye(3), 1e300, big)
        with pytest.raises(InvalidMatrixError, match=r"at penalty 1e\+299: "):
            fit("alt-1", np.stack([np.eye(3)] * 2), np.array([1.0, 1e299, 1e300]), big)
        with pytest.raises(InvalidMatrixError, match=r"at penalty 1e\+300: "):
            fit("alt-1", np.eye(2), 1e300, Target.full(np.diag([1e10, 1.0])))

    def test_overflowing_congruence_raises_before_eigh(self, monkeypatch):
        # S's entries are below half the float range, so S passes its check,
        # but T'^(1/2) S T'^(1/2) concentrates them: its (0, 0) entry is
        # about 4 times as large.
        p = 9
        v = np.full(p, 1.0 / 3.0)
        v[0] += 1.0
        v /= np.linalg.norm(v)
        T = Target.full(0.99 * (np.outer(v, v) * (1.0 - 1e-3) + 1e-3 * np.eye(p)))
        S = np.full((p, p), 8e307)
        assert T._split[0] == 0  # c = 1

        def forbidden(a):
            raise AssertionError("eigh ran on a matrix that is not finite")

        T.power(np.eye(p), 0.5)  # the target's own eigenpairs, before eigh is forbidden
        monkeypatch.setattr(np.linalg, "eigh", forbidden)
        message = r"^fit overflow: T'\^\(1/2\) S T'\^\(1/2\) is not finite"
        for lam in (0.5, [0.2, 0.5]):
            with pytest.raises(InvalidMatrixError, match=message):
                fit("archetype-1", S, lam, T)

    @pytest.mark.parametrize("tiny", [Target.diagonal([1e-320] * 3), Target.scalar(1e-320)])
    def test_tiny_archetype_target_names_the_penalty(self, tiny):
        # T^-1 overflows, so the shift (1-lam)d + lam/c is not finite: a fit
        # overflow, not a p.d. failure, and no numpy warning.
        with pytest.raises(InvalidMatrixError, match=r"^fit overflow at penalty 0\.5: "):
            fit("archetype-1", np.eye(3), 0.5, tiny)
        with pytest.raises(InvalidMatrixError, match=r"at penalty 0\.1: "):
            fit("archetype-1", np.stack([np.eye(3)] * 2), [0.1, 0.5], tiny)

    @pytest.mark.parametrize(
        "scale, entry, omega",
        [
            (1e10, 1e300, 2e-10),
            (1e-10, 1e-300, 2.0000000000000004e-300),
            (8e307, 1.5e308, 2.5000000000000003e-308),
        ],
        ids=["huge-target", "tiny-target", "both-near-the-float-maximum"],
    )
    def test_extreme_targets_fit_without_overflow(self, scale, entry, omega):
        # omega is what inverting (1-lam)S + lam*T^-1 gave. A plain
        # T^(1/2) S T^(1/2) would overflow (1e310) or underflow; the split
        # T = c*T' keeps R at or below S, even where c = 2^1024 itself
        # overflows (the fit reads only 1/c and 2^512).
        est = fit("archetype-1", scale * np.eye(3), 0.5, Target.diagonal([entry] * 3))
        npt.assert_allclose(est.omega, omega * np.eye(3), rtol=4 * np.finfo(float).eps, atol=0)

    def test_tiny_archetype_spectrum_overflows_its_inverse(self):
        with pytest.raises(InvalidMatrixError, match=r"at penalty 1e-320: "):
            fit("archetype-2", np.eye(3) * 1e-320, 1e-320)

    def test_thin_route_names_the_penalty(self):
        for target in (Target.identity(), Target.scalar(2.0)):
            with pytest.raises(InvalidMatrixError, match=r"at penalty 1e\+200: "):
                fit_data("alt-1", self.Y[:2], self.GRID, target)
        with pytest.raises(InvalidMatrixError, match=r"at penalty 1\.0: "):
            fit_data("alt-2", self.Y[:2] * 1e80, self.GRID)


class TestFitData:
    """``fit_data`` goes thin for n < p and a scalar shift of S, and agrees with the dense fit."""

    P = 8
    TARGETS = {"zero": Target.zero(), "identity": Target.identity(), "scalar": Target.scalar(2.5)}

    @staticmethod
    def data(variant, n, p, rng):
        if variant == "duplicated":
            Y = rng.standard_normal((max(1, n - 1), p))
            return np.vstack([Y, Y[:1]])[:n]
        Y = rng.standard_normal((n, p))
        return Y - Y.mean(axis=0) if variant == "centered" else Y

    @staticmethod
    def rel(a, b):
        return np.abs(a - b).max() / np.abs(b).max()

    @pytest.mark.parametrize("variant", ["plain", "duplicated", "centered"])
    @pytest.mark.parametrize("n", [1, 4, 7], ids=["n=1", "n=p/2", "n=p-1"])
    @pytest.mark.parametrize("target_name", ["zero", "identity", "scalar"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_thin_matches_dense_at_moderate_penalty(self, kind, target_name, n, variant, rng):
        Y = self.data(variant, n, self.P, rng)
        target = self.TARGETS[target_name]
        S = sample_cov(Y)
        lams = [0.5, 1.0] if kind == "archetype-1" else [1.0, 7.5, 1e4]
        for lam in lams:
            if kind == "archetype-1" and target_name == "zero":
                with pytest.raises(InvalidTargetError):
                    fit_data(kind, Y, lam, target)
                with pytest.raises(InvalidTargetError):
                    fit(kind, S, lam, target)
                continue
            thin, dense = fit_data(kind, Y, lam, target), fit(kind, S, lam, target)
            assert thin.vectors.shape == (self.P, n) and thin.null_prec is not None
            assert thin.kind == dense.kind and thin.target == dense.target and thin.p == self.P
            assert self.rel(thin.omega, dense.omega) <= 1e-12
            assert self.rel(thin.sigma, dense.sigma) <= 1e-12
            assert same_bits(thin.omega, thin.omega.T)

    @pytest.mark.parametrize("variant", ["plain", "duplicated", "centered"])
    @pytest.mark.parametrize("n", [1, 4, 7], ids=["n=1", "n=p/2", "n=p-1"])
    def test_thin_is_at_least_as_accurate_at_small_penalty(self, n, variant, rng):
        # Below lam = 1 the dense fit's null eigenvalues of S carry noise of
        # about eps*||S||; against a 40-digit fit of the exact Y'Y/n the thin
        # fit is never further off than the dense one (beyond 1e-14).
        Y = self.data(variant, n, self.P, rng)
        S = sample_cov(Y)
        for kind in KINDS:
            for target in (Target.identity(), Target.scalar(2.5)):
                for lam in (1e-10, 1e-2):
                    psi = target.psi if kind in ("alt-1", "archetype-1") else 0.0
                    want = fit_omega_mp(kind, Y, lam, psi)
                    thin = fit_data(kind, Y, lam, target).omega
                    dense = fit(kind, S, lam, target).omega
                    assert self.rel(thin, want) <= max(self.rel(dense, want), 1e-14), (kind, psi, lam)

    @pytest.mark.parametrize("target_name", ["zero", "identity", "scalar"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_stack_and_grid_broadcast_like_fit(self, kind, target_name, rng):
        target = self.TARGETS[target_name]
        if kind == "archetype-1" and target_name == "zero":
            return
        Y = rng.standard_normal((2, 3, 5, self.P))
        grid = np.array([0.5, 0.9, 1.0]) if kind == "archetype-1" else np.logspace(0, 3, 4)
        thin = fit_data(kind, Y, grid, target)
        dense = fit(kind, sample_cov(Y), grid, target)
        assert thin.vectors.shape == (2, 3, grid.size, self.P, 5)
        assert thin.null_prec.shape == thin.null_cov.shape == (2, 3, grid.size)
        assert thin.omega.shape == dense.omega.shape == (2, 3, grid.size, self.P, self.P)
        npt.assert_array_equal(thin.lam, grid)
        for b in np.ndindex(2, 3):
            for g, lam in enumerate(grid):
                one = fit_data(kind, Y[b], float(lam), target)
                assert same_bits(thin.omega[b + (g,)], one.omega)
                assert same_bits(thin.sigma[b + (g,)], one.sigma)
                assert self.rel(one.omega, dense.omega[b + (g,)]) <= 1e-12

    @pytest.mark.parametrize("kind", KINDS)
    def test_other_cases_are_the_dense_fit(self, kind, rng, make_spd):
        # n >= p, or a target that is not scalar: exactly fit(kind, sample_cov(Y)).
        p = self.P
        lam = 0.5
        cases = [(rng.standard_normal((p, p)), Target.identity()), (rng.standard_normal((20, p)), "ddiag")]
        if kind in ("alt-1", "archetype-1"):
            Y = rng.standard_normal((3, p))
            cases += [
                (Y, "ddiag"),
                (Y, Target.diagonal(rng.uniform(0.5, 2.0, size=p))),
                (Y, Target.full(make_spd(p, rng))),
                (np.stack([Y, Y + 1.0]), "ddiag"),
            ]
        for Y, target in cases:
            got = fit_data(kind, Y, lam, target)
            want = fit(kind, sample_cov(Y), lam, target)
            assert got.null_prec is None and got.vectors.shape[-1] == p
            for name in ("vectors", "prec", "cov", "omega", "sigma"):
                assert same_bits(getattr(got, name), getattr(want, name)), name

    def test_errors_match_the_dense_route(self):
        Y = np.ones((2, 4))
        with pytest.raises(InvalidPenaltyError):
            fit_data("lasso", Y, 1.0)
        with pytest.raises(InvalidTargetError):
            fit_data("alt-1", Y, 1.0)
        for bad in (0.0, -1.0, np.nan, [1.0, 0.0]):
            with pytest.raises(InvalidPenaltyError):
                fit_data("alt-2", Y, bad)
        with pytest.raises(InvalidPenaltyError):
            fit_data("archetype-1", Y, 1.5, Target.identity())
        with pytest.raises(InvalidMatrixError):
            fit_data("alt-2", np.array([[1.0, np.nan, 0.0]]), 1.0)
        with pytest.raises(EmptyDataError):
            fit_data("alt-2", np.empty((0, 3)), 1.0)
        for Y in (np.array([[1e200, 1.0, 1.0]]), np.array([[1e200, 1.0], [1.0, 1.0], [2.0, 1.0]])):
            with pytest.raises(InvalidMatrixError, match="data overflow"):
                fit_data("alt-2", Y, 1.0)

    def test_vanishing_singular_value_maps_onto_the_null_pair(self):
        # Two identical rows: the second singular value vanishes, so its
        # column carries the null pair and adds nothing to omega.
        Y = np.array([[1.0, 2.0, 0.0, -1.0], [1.0, 2.0, 0.0, -1.0]])
        est = fit_data("alt-2", Y, 4.0)
        assert est.prec[-1] == est.null_prec and est.cov[-1] == est.null_cov
