"""Tests for matrix constructions and the truncation report."""

import math
import tracemalloc

import numpy as np
import pytest

from covspectrum.ensemble import DistributionSpec, MatrixShape, SeedSpec, sample_matrix
from covspectrum.errors import DegenerateInputError, ValidationError
from covspectrum.normalize import (
    BLOCK,
    CovarianceSpec,
    build_A,
    build_A1,
    build_S1,
    build_S2,
    covariance_from_json,
    default_delta,
    sqrt_psd,
    truncation_report,
)
from covspectrum.spectral import eigvals_sym, lambda_max


def _as_matrix(rows):
    entries = np.array(rows, dtype=float)
    entries.setflags(write=False)
    return entries


def _brute_force_A(x):
    """Entrywise double-sum oracle for the normalized Gram matrix."""
    p, n = x.shape
    A = np.empty((p, p))
    for i in range(p):
        for j in range(p):
            acc = math.fsum(x[i, k] * x[j, k] for k in range(n))
            if i == j:
                acc -= n
            A[i, j] = acc / (2.0 * math.sqrt(n * p))
    return A


def _population(kind, p):
    """A materialized population covariance; the explicit one enters off symmetric by 1e-12."""
    g = np.random.default_rng(4).standard_normal((p, p))
    matrix = g @ g.T / p
    matrix[0, 1] += 1e-12
    fields = {"diagonal": {"d": (0.5, 2.0) * (p // 2)}, "toeplitz": {"rho": 0.6}, "explicit": {"matrix": matrix}}
    return CovarianceSpec(kind, **fields.get(kind, {})).materialize(p)


class TestBuildA:
    def test_single_zero_entry(self):
        A = build_A(_as_matrix([[0.0]]))
        assert A.shape == (1, 1)
        assert A[0, 0] == -0.5

    def test_row_of_ones_cancels_exactly(self):
        A = build_A(_as_matrix([[1.0, 1.0, 1.0, 1.0]]))
        assert A[0, 0] == 0.0

    def test_matches_brute_force_oracle(self):
        x = np.array([[1.0, -1.0, 1.0], [1.0, 1.0, -1.0]])
        np.testing.assert_allclose(build_A(x), _brute_force_A(x), atol=1e-14)
        rng = np.random.default_rng(42)
        for _ in range(10):
            x = rng.standard_normal((3, 7))
            np.testing.assert_allclose(build_A(x), _brute_force_A(x), atol=1e-12)

    def test_all_zero_matrix_scaling(self):
        p, n = 3, 12
        A = build_A(_as_matrix(np.zeros((p, n))))
        np.testing.assert_allclose(A, -0.5 * math.sqrt(n / p) * np.eye(p), atol=0)

    # build_S1 and build_A1 do not symmetrize their result: it is exact
    # because build_S's is and sbar sbar' is, entry by entry.  eigvals_sym
    # decomposes what these return without symmetrizing it again.
    @pytest.mark.parametrize(
        "build",
        [
            build_A,
            build_S1,
            build_A1,
            *(
                pytest.param(lambda x, kind=kind: _population(kind, x.shape[0]), id=f"materialize-{kind}")
                for kind in ("identity", "diagonal", "toeplitz", "explicit")
            ),
            pytest.param(lambda x: build_S2(x, _population("toeplitz", x.shape[0])), id="build_S2-toeplitz"),
            pytest.param(lambda x: build_S2(x, _population("explicit", x.shape[0])), id="build_S2-explicit"),
            pytest.param(lambda x: sqrt_psd(_population("explicit", x.shape[0]), x.shape[0]), id="sqrt_psd"),
        ],
        ids=lambda f: f.__name__,
    )
    @pytest.mark.parametrize("view", ["contiguous", "every-other-column"])
    def test_exactly_symmetric(self, build, view):
        x = np.random.default_rng(1).standard_normal((20, 200))
        if view == "every-other-column":
            x = x[:, ::2]
        M = build(x)
        assert np.array_equal(M, M.T)


class TestBuildB:
    """B, build_A with the diagonal zeroed, as ``spectral.lambda_max`` builds it for ``lambda_max_b``."""

    def test_zero_diagonal(self):
        x = np.random.default_rng(2).standard_normal((6, 30))
        B = build_A(x)
        np.fill_diagonal(B, 0.0)
        assert lambda_max(x)[1]["lambda_max_b"] == eigvals_sym(B)[-1]

    def test_p_equal_one_is_zero(self):
        assert lambda_max(_as_matrix([[1.0, 2.0, 3.0]]))[1]["lambda_max_b"] == 0.0

    def test_difference_is_diagonal_of_row_sums(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((3, 5))
        D = np.diag((np.sum(x * x, axis=1) - 5) / (2.0 * math.sqrt(15)))
        expected = np.linalg.eigvalsh(build_A(x) - D)[-1]
        assert lambda_max(x)[1]["lambda_max_b"] == pytest.approx(expected, rel=0, abs=1e-14)


class TestBuildS1:
    def test_identical_columns_vanish(self):
        col = np.array([1.0, -2.0, 0.5])
        x = np.tile(col[:, None], (1, 6))
        np.testing.assert_allclose(build_S1(x), np.zeros((3, 3)), atol=0)

    def test_two_point_row(self):
        S1 = build_S1(_as_matrix([[1.0, -1.0]]))
        assert S1[0, 0] == 1.0

    def test_matches_definitional_sum(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((3, 6))
        sbar = x.mean(axis=1)
        direct = sum(np.outer(x[:, j] - sbar, x[:, j] - sbar) for j in range(6)) / 6
        np.testing.assert_allclose(build_S1(x), direct, atol=1e-12)

    def test_psd_up_to_tolerance(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            S1 = build_S1(rng.standard_normal((8, 20)))
            assert np.linalg.eigvalsh(S1).min() >= -1e-12


class TestBuildA1:
    def test_identical_columns(self):
        A1 = build_A1(_as_matrix([[2.0, 2.0, 2.0, 2.0]]))
        assert A1[0, 0] == pytest.approx(-1.0, abs=1e-15)

    def test_rank_one_identity(self):
        # A - A1 = (1/2) sqrt(n/p) sbar sbar', a PSD rank-<=1 matrix
        rng = np.random.default_rng(6)
        for _ in range(10):
            x = rng.standard_normal((5, 40))
            p, n = x.shape
            sbar = x.mean(axis=1)
            gap = build_A(x) - build_A1(x)
            expect = 0.5 * math.sqrt(n / p) * np.outer(sbar, sbar)
            np.testing.assert_allclose(gap, expect, atol=1e-12)
            eigs = np.linalg.eigvalsh(gap)
            assert eigs.min() >= -1e-12
            assert np.sum(np.abs(eigs) > 1e-10) <= 1

    def test_zero_mean_columns_give_equal_matrices(self):
        # antisymmetric column pairs force sbar = 0 exactly
        rng = np.random.default_rng(7)
        half = rng.standard_normal((4, 9))
        x = np.concatenate([half, -half], axis=1)
        np.testing.assert_allclose(build_A1(x), build_A(x), atol=1e-13)


class TestDefaultDelta:
    def test_exact_power_of_two(self):
        assert default_delta(MatrixShape(2**28, 2**28)) == 2.0**-7

    def test_power_of_ten(self):
        shape = MatrixShape(10**4, 10**4)
        delta = default_delta(shape)
        assert delta == pytest.approx(0.1, rel=1e-14)
        # threshold = delta * (np)^{1/4} = (np)^{1/8} = 10 for np = 10^8
        assert delta * (10**8) ** 0.25 == pytest.approx(10.0, rel=1e-14)

    def test_monotonicity(self):
        d1 = default_delta(MatrixShape(100, 1000))
        d2 = default_delta(MatrixShape(100, 4000))
        assert d2 < d1
        thr1 = d1 * (100 * 1000) ** 0.25
        thr2 = d2 * (100 * 4000) ** 0.25
        assert thr2 > thr1


def _three_pass_pipeline(X):
    """Reference report: each step as a fresh full array -- np.where, kept.std(), (kept - mean) / scale.

    Returns (threshold, count_truncated, fraction_truncated, post_mean, post_sigma2).
    """
    threshold = default_delta(MatrixShape(*X.shape)) * float(X.shape[0] * X.shape[1]) ** 0.25
    mask = np.abs(X) > threshold
    kept = np.where(mask, 0.0, X)
    out = (kept - float(kept.mean())) / float(kept.std())
    return threshold, int(np.count_nonzero(mask)), float(mask.mean()), float(out.mean()), float(out.var())


class TestTruncate:
    """The truncation step of ``truncation_report``: |x| > (np)^{1/8} becomes 0."""

    def test_no_op_below_threshold(self):
        # threshold = (np)^{1/8} = 4^{1/8} > 1 for p = n = 2: nothing truncated
        X = _as_matrix([[0.5, -0.25], [0.1, 0.0]])
        report = truncation_report(X)
        assert (report.count_truncated, report.fraction_truncated) == (0, 0.0)
        _, _, _, post_mean, post_sigma2 = _three_pass_pipeline(X)
        assert report.post_mean == pytest.approx(post_mean, rel=0, abs=1e-16)
        assert report.post_sigma2 == pytest.approx(post_sigma2, rel=1e-15)

    def test_indicator_truncation_to_zero(self):
        # threshold = (np)^{1/8} = 2^{1/4} for p=1, n=4: only 10.0 exceeds it
        report = truncation_report(_as_matrix([[10.0, 1.0, -1.0, 0.0]]))
        assert report.threshold == pytest.approx(2.0**0.25, rel=1e-15)
        assert (report.count_truncated, report.fraction_truncated) == (1, 0.25)
        # kept entries [0, 1, -1, 0] have mean 0 and sd 1/sqrt(2): z = [0, sqrt 2, -sqrt 2, 0]
        assert report.post_mean == 0.0
        assert report.post_sigma2 == pytest.approx(1.0, rel=1e-15)

    def test_gaussian_default_delta_truncates_almost_nothing(self):
        X = sample_matrix(DistributionSpec("gaussian"), MatrixShape(200, 20000), SeedSpec(123), 0)
        report = truncation_report(X)
        # threshold ~ 6.69 sd; the expected exceedance count is ~1e-4 entries
        assert report.fraction_truncated <= 1e-6


class TestRecenterRescale:
    """The empirical standardization step of ``truncation_report``."""

    def test_fixed_point_when_already_standardized(self):
        # threshold = 2^{1/8} > 1 for p=1, n=2: nothing truncated, and [-1, 1] has mean 0 and sd 1
        report = truncation_report(_as_matrix([[-1.0, 1.0]]))
        assert (report.count_truncated, report.post_mean, report.post_sigma2) == (0, 0.0, 1.0)

    def test_two_entry_example(self):
        # 3.0 exceeds the threshold 2^{1/8}; [1, 0] standardizes to [1, -1]
        report = truncation_report(_as_matrix([[1.0, 3.0]]))
        assert (report.count_truncated, report.fraction_truncated) == (1, 0.5)
        assert (report.post_mean, report.post_sigma2) == (0.0, 1.0)

    def test_empirical_exactness(self):
        X = sample_matrix(DistributionSpec("uniform-symmetric"), MatrixShape(30, 100), SeedSpec(10), 0)
        report = truncation_report(X)
        assert report.fraction_truncated == 0.0  # the support ends at sqrt(3) < 3000^{1/8}
        assert abs(report.post_mean) <= 1e-15
        assert abs(report.post_sigma2 - 1.0) <= 1e-12

    def test_degenerate_input(self):
        # the standardization divides by the kept matrix's sd
        with pytest.raises(DegenerateInputError):
            truncation_report(_as_matrix([[3.0, 0.0]]))  # the kept [0, 0] has sd 0
        with pytest.raises(DegenerateInputError):
            truncation_report(_as_matrix([[math.nan, 1.0]]))  # NaN is kept, and its sd is NaN


class TestPipeline:
    def test_empirical_pipeline_machine_precision(self):
        X = sample_matrix(DistributionSpec("student-t", df=5), MatrixShape(60, 400), SeedSpec(11), 0)
        report = truncation_report(X)
        assert report.threshold == pytest.approx(default_delta(MatrixShape(60, 400)) * (60 * 400) ** 0.25)
        assert 0.0 < report.fraction_truncated < 0.05
        assert abs(report.post_mean) <= 1e-15
        assert abs(report.post_sigma2 - 1.0) <= 1e-12


class TestTruncationReport:
    """``truncation_report`` reads X in row blocks; ``_three_pass_pipeline`` is its reference."""

    @staticmethod
    def _assert_matches_pipeline(X):
        report = truncation_report(X)
        threshold, count, fraction, _, _ = _three_pass_pipeline(X)
        assert (report.threshold, report.count_truncated, report.fraction_truncated) == (threshold, count, fraction)
        # the rounding of mu shows in post_mean scaled by |mu| / sigma, which is
        # about 10 for two-point(0.01) and far below 1 for centred laws
        kept = np.where(np.abs(X) > report.threshold, 0.0, X)
        assert abs(report.post_mean) <= 1e-15 * max(1.0, abs(kept.mean()) / kept.std())
        assert abs(report.post_sigma2 - 1.0) <= 1e-12
        return report

    # each shape takes several row blocks, the last one partial
    @pytest.mark.parametrize(
        "spec, shape",
        [
            (DistributionSpec("gaussian"), (200, 4000)),
            (DistributionSpec("student-t", df=3), (150, 1000)),
            (DistributionSpec("two-point", q=0.01), (100, 1500)),
        ],
        ids=["gaussian", "student-t3", "two-point"],
    )
    def test_matches_pipeline(self, spec, shape):
        X = sample_matrix(spec, MatrixShape(*shape), SeedSpec(21), 0)
        assert shape[0] % (BLOCK // shape[1]) != 0 < BLOCK // shape[1] < shape[0]
        report = self._assert_matches_pipeline(X)
        if spec.kind != "gaussian":
            assert report.count_truncated > 0  # the mask path runs

    def test_untruncated_and_copied_blocks_in_one_call(self):
        # a Gaussian matrix truncates nothing at (np)^{1/8} ~ 5.5, so every
        # block is read in place except the one with the planted entries
        p, n = 200, 4000
        X = np.array(sample_matrix(DistributionSpec("gaussian"), MatrixShape(p, n), SeedSpec(21), 0))
        untouched = truncation_report(X)
        assert untouched.count_truncated == 0
        rows = (17, 20, 25)
        assert len({i // (BLOCK // n) for i in rows}) == 1 < p // (BLOCK // n)
        X[rows, (0, 1999, 3999)] = 10 * untouched.threshold * np.array([1.0, -1.0, 1.0])
        report = self._assert_matches_pipeline(X)
        assert report.count_truncated == 3
        # the copied block holds what the kept matrix holds, read in place
        kept = truncation_report(np.where(np.abs(X) > report.threshold, 0.0, X))
        assert (kept.count_truncated, kept.post_mean, kept.post_sigma2) == (0, report.post_mean, report.post_sigma2)

    def test_count_is_exact(self):
        report = truncation_report(_as_matrix([[10.0, 1.0, -1.0, 0.0]]))
        assert (report.count_truncated, report.fraction_truncated) == (1, 0.25)

    @pytest.mark.parametrize("view", ["transposed", "every-other-column"])
    def test_strided_views(self, view):
        if view == "transposed":
            X = sample_matrix(DistributionSpec("student-t", df=3), MatrixShape(3000, 60), SeedSpec(4), 0).T
        else:
            X = sample_matrix(DistributionSpec("student-t", df=3), MatrixShape(60, 6000), SeedSpec(4), 0)[:, ::2]
        assert not X.flags.c_contiguous
        assert self._assert_matches_pipeline(X).count_truncated > 0

    @pytest.mark.parametrize("shape", [(3, BLOCK + 5), (1, 5000)], ids=["n-above-block", "p-one"])
    def test_one_row_blocks(self, shape):
        X = sample_matrix(DistributionSpec("student-t", df=3), MatrixShape(*shape), SeedSpec(5), 0)
        self._assert_matches_pipeline(X)

    def test_degenerate_input(self):
        with pytest.raises(DegenerateInputError):
            truncation_report(_as_matrix([[2.0, 2.0], [2.0, 2.0]]))  # every entry truncated
        with pytest.raises(DegenerateInputError):
            truncation_report(_as_matrix([[0.5, 0.5]]))  # constant, nothing truncated

    def test_peak_memory_is_a_few_blocks(self):
        X = sample_matrix(DistributionSpec("student-t", df=3), MatrixShape(512, 8192), SeedSpec(8), 0)  # 32 MiB
        tracemalloc.start()
        try:
            report = truncation_report(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.count_truncated > 0
        assert peak <= 0.1 * X.nbytes


def _sigma(p, **spec):
    """Sigma as the p x p array the covariance code takes, from its JSON spec."""
    return covariance_from_json(spec).materialize(p)


class TestSqrtPsd:
    def test_identity(self):
        assert np.array_equal(sqrt_psd(_sigma(4, kind="identity"), 4), np.eye(4))

    def test_diagonal(self):
        root = sqrt_psd(_sigma(2, kind="diagonal", d=[4.0, 9.0]), 2)
        np.testing.assert_allclose(root, np.diag([2.0, 3.0]), atol=1e-14)

    def test_toeplitz_round_trip(self):
        sigma = _sigma(3, kind="toeplitz", rho=0.5)
        root = sqrt_psd(sigma, 3)
        err = np.abs(np.linalg.eigvalsh(root @ root - sigma)).max()
        assert err <= 1e-10 * np.abs(np.linalg.eigvalsh(sigma)).max()

    def test_rejects_non_psd(self):
        for scale in (1.0, 1e9):
            with pytest.raises(ValidationError, match="not PSD"):
                sqrt_psd(scale * np.array([[1.0, 2.0], [2.0, 1.0]]), 2)  # eigenvalue -scale

    def test_rank_deficient_psd_at_large_scale(self):
        # rank 3 with entries ~1e9: eigh's rounding puts the zero eigenvalues
        # near -1e-7, which an absolute 1e-10 would reject
        B = np.random.default_rng(3).standard_normal((6, 3)) * 1e4
        sigma = (B @ B.T + (B @ B.T).T) / 2
        w = np.linalg.eigvalsh(sigma)
        assert w[0] < -1e-10
        root = sqrt_psd(sigma, 6)
        assert np.abs(root @ root - sigma).max() <= 1e-10 * np.abs(sigma).max()

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            sqrt_psd(_sigma(2, kind="diagonal", d=[1.0, 2.0]), 3)


class TestBuildS2:
    def test_identity_sigma_reduces_to_S1(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((4, 10))
        np.testing.assert_allclose(build_S2(x, _sigma(4, kind="identity")), build_S1(x), atol=1e-15)

    def test_identical_columns_vanish(self):
        x = np.tile(np.array([1.0, 2.0])[:, None], (1, 5))
        np.testing.assert_allclose(build_S2(x, _sigma(2, kind="toeplitz", rho=0.5)), np.zeros((2, 2)), atol=1e-15)

    def test_matches_definitional_sum(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((3, 8))
        sigma = _sigma(3, kind="toeplitz", rho=0.5)
        y = sqrt_psd(sigma, 3) @ x
        ybar = y.mean(axis=1)
        direct = sum(np.outer(y[:, j] - ybar, y[:, j] - ybar) for j in range(8)) / 8
        np.testing.assert_allclose(build_S2(x, sigma), direct, atol=1e-12)

    def test_norm_factorization_property(self):
        rng = np.random.default_rng(15)
        sigma = _sigma(6, kind="toeplitz", rho=0.6)
        for _ in range(10):
            x = rng.standard_normal((6, 30))
            err = np.abs(np.linalg.eigvalsh(build_S2(x, sigma) - sigma)).max()
            s1_dev = np.abs(np.linalg.eigvalsh(build_S1(x) - np.eye(6))).max()
            sig_norm = np.abs(np.linalg.eigvalsh(sigma)).max()
            assert err <= s1_dev * sig_norm + 1e-10

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            build_S2(np.zeros((3, 5)), np.eye(2))


class TestCovarianceSpecs:
    def test_parses_literal_json(self):
        assert covariance_from_json({"kind": "identity"}) == CovarianceSpec("identity")
        diagonal = covariance_from_json({"kind": "diagonal", "d": [1.0, 2.0]})
        assert (diagonal.kind, diagonal.d, diagonal.rho, diagonal.matrix) == ("diagonal", (1.0, 2.0), None, None)
        toeplitz = covariance_from_json({"kind": "toeplitz", "rho": 0.5})
        assert (toeplitz.kind, toeplitz.d, toeplitz.rho, toeplitz.matrix) == ("toeplitz", None, 0.5, None)

    def test_explicit_via_matrix_file(self, tmp_path):
        from covspectrum.ensemble import save_matrix

        X = sample_matrix(DistributionSpec("gaussian"), MatrixShape(3, 3), SeedSpec(1), 0)
        sigma = X @ X.T + np.eye(3)  # PSD
        entries = (sigma + sigma.T) / 2
        entries.setflags(write=False)
        path = tmp_path / "sigma.bin"
        save_matrix(entries, path)
        spec = covariance_from_json({"kind": "explicit", "path": str(path)})
        np.testing.assert_allclose(spec.materialize(3), entries, atol=0)

    def test_explicit_symmetry_tolerance_scales_with_sigma(self):
        # B D B' with ||Sigma|| ~ 4e9: the product's rounding leaves an
        # asymmetry of ~1e-8, which an absolute 1e-10 would reject
        rng = np.random.default_rng(2)
        B = rng.standard_normal((6, 6))
        matrix = B @ np.diag(np.geomspace(1.0, 1e9, 6)) @ B.T
        assert np.abs(matrix - matrix.T).max() > 1e-10
        sigma = CovarianceSpec("explicit", matrix=matrix).materialize(6)
        assert np.array_equal(sigma, sigma.T)
        np.testing.assert_allclose(sigma, matrix, rtol=1e-15, atol=0)
        for bad in ([[1.0, 0.5], [0.0, 1.0]], 1e9 * np.array([[1.0, 0.5], [0.0, 1.0]])):
            with pytest.raises(ValidationError, match="symmetric"):
                CovarianceSpec("explicit", matrix=np.array(bad))

    def test_validation(self):
        with pytest.raises(ValidationError):
            CovarianceSpec("toeplitz", rho=1.0)
        with pytest.raises(ValidationError):
            CovarianceSpec("diagonal", d=(-1.0,))
        with pytest.raises(ValidationError, match="identity covariance takes no rho"):
            CovarianceSpec("identity", rho=0.5)
        with pytest.raises(ValidationError, match="toeplitz covariance takes no d"):
            CovarianceSpec("toeplitz", rho=0.5, d=(1.0, 2.0))
        with pytest.raises(ValidationError):
            covariance_from_json({"kind": "mystery"})
        with pytest.raises(ValidationError):
            covariance_from_json({"kind": "explicit"})
