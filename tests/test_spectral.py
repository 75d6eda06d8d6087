"""Tests for eigenvalue machinery, the semicircle law, and KS distances."""

import math

import numpy as np
import pytest
from scipy import integrate, optimize

from covspectrum import spectral
from covspectrum.ensemble import DistributionSpec, MatrixShape, SeedSpec, sample_matrix
from covspectrum.errors import ConvergenceError, ValidationError
from covspectrum.normalize import (
    CovarianceSpec,
    build_A,
    build_A1,
    build_S1,
    build_S2,
    covariance_from_json,
)
from covspectrum.spectral import (
    covariance_error,
    diag_max_dev,
    eigvals_sym,
    ks_distance,
    lambda_max_matfree,
    semicircle_cdf,
    symmetric_operator_norm,
)

from oracles import esd_sup_diff


class TestEigvalsSym:
    def test_identity(self):
        np.testing.assert_allclose(eigvals_sym(np.eye(3)), [1.0, 1.0, 1.0], atol=0)

    def test_swap_matrix(self):
        np.testing.assert_allclose(eigvals_sym([[0.0, 1.0], [1.0, 0.0]]), [-1.0, 1.0], atol=1e-15)

    def test_matches_characteristic_cubic_roots(self):
        # companion-polynomial oracle: roots of det(M - x I) expanded by hand
        rng = np.random.default_rng(21)
        for _ in range(20):
            M = rng.standard_normal((3, 3))
            M = (M + M.T) / 2
            a, b, c = M[0, 0], M[1, 1], M[2, 2]
            d, e, f = M[0, 1], M[0, 2], M[1, 2]
            c2 = -(a + b + c)
            c1 = a * b + a * c + b * c - d * d - e * e - f * f
            c0 = -(a * b * c + 2 * d * e * f - a * f * f - b * e * e - c * d * d)
            roots = np.sort(np.roots([1.0, c2, c1, c0]).real)
            np.testing.assert_allclose(eigvals_sym(M), roots, atol=1e-8)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValidationError):
            eigvals_sym([[0.0, 1.0], [0.0, 0.0]])

    @pytest.mark.parametrize(
        "M",
        [[[np.nan, 1.0], [2.0, 2.0]], [[np.inf, 0.0], [0.0, 1.0]], [[1.0, -np.inf], [-np.inf, 1.0]], [[np.nan]]],
        ids=["nan-asymmetric", "inf-diagonal", "inf-symmetric", "nan-1x1"],
    )
    def test_rejects_non_finite(self, M):
        # M - M' is NaN for a NaN entry, so the asymmetry test alone passes it,
        # and LAPACK then returns finite garbage or fails to converge
        with pytest.raises(ValidationError, match="non-finite"):
            eigvals_sym(M)

    def test_trace_and_frobenius_conserved(self):
        rng = np.random.default_rng(22)
        for p in (5, 40):
            M = rng.standard_normal((p, p))
            M = (M + M.T) / 2
            w = eigvals_sym(M)
            assert abs(w.sum() - np.trace(M)) <= 1e-9 * p
            assert abs((w**2).sum() - (M**2).sum()) <= 1e-9 * p

    def test_operator_norm(self):
        assert symmetric_operator_norm(np.diag([-3.0, 2.0])) == 3.0


class TestSemicircle:
    def test_cdf_midpoint_and_endpoints(self):
        assert semicircle_cdf(0.0) == 0.5
        assert semicircle_cdf(1.0) == 1.0
        assert semicircle_cdf(-1.0) == 0.0
        assert semicircle_cdf(5.0) == 1.0
        assert semicircle_cdf(-2.0) == 0.0

    def test_cdf_half_matches_quadrature(self):
        # frozen from quadrature of (2/pi) sqrt(1-t^2) over [-1, 0.5]
        val, _ = integrate.quad(lambda t: (2 / np.pi) * np.sqrt(1 - t * t), -1, 0.5)
        assert val == pytest.approx(0.8044988905221149, abs=1e-12)
        assert semicircle_cdf(0.5) == pytest.approx(val, abs=1e-10)

    def test_cdf_is_vectorized_and_monotone(self):
        x = np.linspace(-1.2, 1.2, 401)
        F = semicircle_cdf(x)
        assert F.shape == x.shape
        assert np.all(np.diff(F) >= 0)


class TestKsDistance:
    def test_point_mass_at_zero(self):
        assert ks_distance(np.zeros(5)) == pytest.approx(0.5)

    def test_single_atom_at_one(self):
        assert ks_distance(np.array([1.0])) == pytest.approx(1.0)

    def test_inverse_cdf_semicircle_sample(self):
        # 2000 i.i.d. draws from the semicircle itself; KS should sit well
        # under the ~1.63/sqrt(p) critical value 0.036 (frozen seed)
        rng = np.random.default_rng(24)
        u = rng.random(2000)
        draws = np.array(
            [optimize.brentq(lambda x, t=t: semicircle_cdf(x) - t, -1, 1) for t in u]
        )
        assert ks_distance(np.sort(draws)) <= 0.045

    def test_permutation_invariant(self):
        rng = np.random.default_rng(25)
        eigs = rng.uniform(-1, 1, size=31)
        d1 = ks_distance(eigs)
        d2 = ks_distance(rng.permutation(eigs))
        assert d1 == d2


class TestEsdSupDiff:
    def test_identical_spectra(self):
        eigs = np.array([-1.0, 0.0, 2.0])
        assert esd_sup_diff(eigs, eigs) == 0.0

    def test_one_displaced_atom(self):
        a = np.array([0.0, 1.0, 2.0, 3.0])
        b = np.array([0.0, 1.0, 2.5, 3.0])
        assert esd_sup_diff(a, b) == pytest.approx(1 / 4, abs=0)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            esd_sup_diff(np.zeros(3), np.zeros(4))

    def test_fan_inequality_on_real_samples(self):
        rng_seed = 0
        for p, n in ((20, 200), (60, 300)):
            X = sample_matrix(DistributionSpec("gaussian"), MatrixShape(p, n), SeedSpec(rng_seed), 0)
            d = esd_sup_diff(eigvals_sym(build_A(X)), eigvals_sym(build_A1(X)))
            assert d <= 1.0 / p  # rank-one perturbation moves the ESD by <= 1/p


class TestDiagMaxDev:
    def test_rademacher_identically_zero(self):
        X = sample_matrix(DistributionSpec("rademacher"), MatrixShape(10, 50), SeedSpec(1), 0)
        assert diag_max_dev(X) == 0.0

    def test_single_entry(self):
        assert diag_max_dev(np.array([[2.0]])) == 3.0

    def test_equals_twice_max_diagonal_of_A(self):
        rng = np.random.default_rng(26)
        x = rng.standard_normal((7, 40))
        A = build_A(x)
        assert diag_max_dev(x) == pytest.approx(2.0 * np.abs(np.diag(A)).max(), rel=1e-12)


@pytest.mark.parametrize("shape", [(0, 5), (3, 0)], ids=["no-rows", "no-columns"])
@pytest.mark.parametrize(
    "read",
    [
        spectral.lambda_max,
        lambda_max_matfree,
        diag_max_dev,
        lambda X: covariance_error(X, covariance_from_json({"kind": "identity"})),
    ],
    ids=["lambda_max", "lambda_max_matfree", "diag_max_dev", "covariance_error"],
)
def test_empty_matrix_is_a_validation_error(read, shape):
    # a numpy warning on the way there fails too: the tests turn warnings into errors
    with pytest.raises(ValidationError, match="must be a positive integer"):
        read(np.empty(shape))


class TestCovarianceError:
    @pytest.mark.parametrize(
        "spec",
        [{"kind": "identity"}, {"kind": "diagonal", "d": [0.5, 1.0, 2.0, 3.0, 4.0]}, {"kind": "toeplitz", "rho": 0.4}],
        ids=lambda s: s["kind"],
    )
    def test_materializes_sigma_once(self, monkeypatch, spec):
        sigma = covariance_from_json(spec)
        X = sample_matrix(DistributionSpec("gaussian"), MatrixShape(5, 60), SeedSpec(3), 0)
        calls = []
        materialize = CovarianceSpec.materialize

        def counted(spec, p):
            calls.append(p)
            return materialize(spec, p)

        monkeypatch.setattr(CovarianceSpec, "materialize", counted)
        got = covariance_error(X, sigma)
        assert calls == [5]
        monkeypatch.undo()
        # the same three norms as building Sigma separately for S2, the error and the bound
        S = sigma.materialize(5)
        sigma_norm = symmetric_operator_norm(S)
        expected = (
            symmetric_operator_norm(build_S2(X, S) - S),
            symmetric_operator_norm(build_S1(X) - np.eye(5)) * sigma_norm,
            sigma_norm,
        )
        assert got == expected


class TestLambdaMaxMatfree:
    def test_row_of_ones(self, monkeypatch):
        monkeypatch.setattr(spectral, "RESIDUAL_TOL", 1e-12)
        x = np.ones((1, 4))
        lam, _ = lambda_max_matfree(x)
        assert lam == 0.0

    def test_random_row_runs_the_lanczos_loop(self):
        # p = 1: the one Lanczos step breaks down, and one more application
        # verifies its Ritz value
        x = np.random.default_rng(43).standard_normal((1, 500))
        lam, iters = lambda_max_matfree(x)
        assert lam == pytest.approx((x[0] @ x[0] - 500) / (2 * math.sqrt(500)), rel=1e-15)
        assert iters == 2

    def test_all_zero_matrix(self, monkeypatch):
        monkeypatch.setattr(spectral, "RESIDUAL_TOL", 1e-12)
        lam, iters = lambda_max_matfree(np.zeros((2, 8)))
        assert lam == pytest.approx(-1.0, abs=1e-12)

    def test_matches_dense_oracle_on_random_instances(self, monkeypatch):
        monkeypatch.setattr(spectral, "RESIDUAL_TOL", 1e-8)
        rng = np.random.default_rng(27)
        for _ in range(12):
            p = int(rng.integers(2, 101))
            n = int(rng.integers(p, 1001))
            x = rng.standard_normal((p, n))
            dense = eigvals_sym(build_A(x))[-1]
            lam, iters = lambda_max_matfree(x)
            assert abs(lam - dense) <= 1e-8 * max(1.0, abs(dense))
            assert iters > 0

    def test_nonconvergence_carries_best_iterate(self, monkeypatch):
        monkeypatch.setattr(spectral, "RESIDUAL_TOL", 1e-14)
        monkeypatch.setattr(spectral, "MAX_BASIS", 3)
        rng = np.random.default_rng(28)
        x = rng.standard_normal((50, 100))
        with pytest.raises(ConvergenceError) as err:
            lambda_max_matfree(x)
        assert err.value.best_value is not None
        assert err.value.iterations == 4
        # three Lanczos steps, then one application for the true residual of
        # the last top Ritz pair, which bounds its distance to the spectrum
        eigs = eigvals_sym(build_A(x))
        assert 0.0 < err.value.residual < 1.0
        assert np.min(np.abs(eigs - err.value.best_value)) <= err.value.residual

    def test_matches_dense_on_rank_deficient_and_repeated_rows(self, monkeypatch):
        monkeypatch.setattr(spectral, "RESIDUAL_TOL", 1e-12)
        rng = np.random.default_rng(40)
        y = rng.standard_normal((15, 40))
        cases = (
            rng.standard_normal((60, 20)),  # n < p: eigenvalue -n/(2 sqrt(np)) of multiplicity p - n
            np.vstack([y, y, y]),  # repeated rows
            np.kron(np.eye(2), y),  # two disjoint copies: a doubled top eigenvalue
        )
        for x in cases:
            dense = eigvals_sym(build_A(x))
            lam, _ = lambda_max_matfree(x)
            assert abs(lam - dense[-1]) <= 1e-10 * max(1.0, abs(dense[-1]))
        assert dense[-1] - dense[-2] <= 1e-12

    def test_basis_cap_ends_the_solve(self, monkeypatch):
        # one pass, no restart: at the cap the top Ritz pair is verified once
        rng = np.random.default_rng(41)
        x = rng.standard_normal((80, 320))
        monkeypatch.setattr(spectral, "MAX_BASIS", 6)
        with pytest.raises(ConvergenceError) as err:
            lambda_max_matfree(x)
        assert err.value.iterations == 7
        eigs = eigvals_sym(build_A(x))
        assert 0.0 < err.value.residual < 1.0
        assert np.min(np.abs(eigs - err.value.best_value)) <= err.value.residual

    def test_operator_applications_without_restarts(self):
        # 52 and 73 applications: the cap is p = 200, then MAX_BASIS < p = 600
        for p, budget in ((200, 70), (600, 100)):
            X = sample_matrix(DistributionSpec("gaussian"), MatrixShape(p, 4 * p), SeedSpec(33), 0)
            _, iters = lambda_max_matfree(X)
            assert iters <= budget, p

    def test_residual_tol_is_the_acceptance_rule(self, monkeypatch):
        X = sample_matrix(DistributionSpec("gaussian"), MatrixShape(200, 800), SeedSpec(33), 0)
        assert lambda_max_matfree(X)[1] == 52
        monkeypatch.setattr(spectral, "RESIDUAL_TOL", 1e-4)
        lam, iters = lambda_max_matfree(X)
        assert iters < 52
        eigs = eigvals_sym(build_A(X))
        assert np.min(np.abs(eigs - lam)) <= 1e-4 * max(1.0, abs(lam))

    @pytest.mark.parametrize("gap", [1e-8, 1e-6, 1e-4])
    @pytest.mark.parametrize("p", [100, 300])
    def test_clustered_top_matches_dense(self, p, gap):
        # a near-double top eigenvalue, relative gap `gap` in the singular
        # values: a stop on the error bound r^2 / (theta_1 - theta_2) misses
        # the hidden partner at gap <= 1e-6 by about 1e-8 or more; the
        # residual test does not
        n = 4 * p
        U, s, Vt = np.linalg.svd(np.random.default_rng(p).standard_normal((p, n)), full_matrices=False)
        s[1] = s[0] * math.sqrt(1.0 - gap)
        x = (U * s) @ Vt
        dense = eigvals_sym(build_A(x))[-1]
        lam, _ = lambda_max_matfree(x)
        assert abs(lam - dense) <= spectral.RESIDUAL_TOL * max(1.0, abs(dense))

    def test_non_finite_input_fails_at_once(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal((50, 200))
        x[3, 7] = np.nan
        with pytest.raises(ValidationError):
            lambda_max_matfree(x)


class TestSpectralIdentities:
    def test_spectrum_is_shifted_singular_values(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            p, n = 6, 25
            x = rng.standard_normal((p, n))
            sv = np.linalg.svd(x, compute_uv=False)
            shifted = np.sort((sv**2 - n) / (2 * math.sqrt(n * p)))
            eigs = eigvals_sym(build_A(x))
            # A has p eigenvalues; singular values give the top p of them
            np.testing.assert_allclose(eigs[::-1][: sv.size], shifted[::-1], atol=1e-8)

    def test_centered_lambda_max_never_exceeds_raw(self):
        rng_master = SeedSpec(30)
        for rep in range(10):
            X = sample_matrix(DistributionSpec("gaussian"), MatrixShape(15, 90), rng_master, rep)
            lam = eigvals_sym(build_A(X))[-1]
            lam1 = eigvals_sym(build_A1(X))[-1]
            assert lam1 <= lam + 1e-10

    def test_weyl_diagonal_perturbation(self):
        rng_master = SeedSpec(31)
        for rep in range(10):
            X = sample_matrix(DistributionSpec("gaussian"), MatrixShape(12, 60), rng_master, rep)
            A = build_A(X)
            lam_a = eigvals_sym(A)[-1]
            np.fill_diagonal(A, 0.0)
            lam_b = eigvals_sym(A)[-1]
            assert abs(lam_a - lam_b) <= diag_max_dev(X) / 2 + 1e-10

