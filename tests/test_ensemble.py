"""Tests for seeded matrix generation and closed-form moments."""

import math
import os
import struct
import threading
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy import integrate, stats

from covspectrum.ensemble import (
    _MAGIC,
    DistributionSpec,
    MatrixShape,
    SeedSpec,
    distribution_from_json,
    load_matrix,
    matrix_to_csv,
    moment_sequence,
    sample_matrix,
    save_matrix,
)
from covspectrum.errors import ResourceError, ValidationError


def _first_four(spec):
    return tuple(spec.moment(order) for order in (1, 2, 3, 4))


class TestStandardizedMoments:
    def test_gaussian(self):
        assert _first_four(DistributionSpec("gaussian")) == (0.0, 1.0, 0.0, 3.0)

    def test_rademacher(self):
        assert _first_four(DistributionSpec("rademacher")) == (0.0, 1.0, 0.0, 1.0)

    def test_student_t5_matches_integration_oracle(self):
        # independent oracle: quadrature of the scipy.stats t5 density,
        # standardized by its exact sd sqrt(5/3)
        sd = math.sqrt(5.0 / 3.0)
        oracle = []
        for order in (1, 2, 3, 4):
            val, _ = integrate.quad(
                lambda x, s=order: x**s * stats.t.pdf(x * sd, 5) * sd, -np.inf, np.inf, limit=400
            )
            oracle.append(val)
        m1, m2, m3, m4 = _first_four(DistributionSpec("student-t", df=5))
        np.testing.assert_allclose([m1, m2, m3, m4], oracle, atol=1e-7)
        assert (m1, m2, m3) == (0.0, 1.0, 0.0)
        assert m4 == pytest.approx(9.0, rel=1e-12)

    def test_uniform_and_exponential_against_quadrature(self):
        root3 = math.sqrt(3)
        for spec, pdf, lo, hi in (
            (
                DistributionSpec("uniform-symmetric"),
                lambda x: stats.uniform.pdf(x, -root3, 2 * root3),
                -root3,
                root3,
            ),
            (DistributionSpec("centered-exponential"), lambda x: stats.expon.pdf(x + 1.0), -1.0, 80.0),
        ):
            for order in (1, 2, 3, 4, 5, 6):
                val, _ = integrate.quad(lambda x, s=order: x**s * pdf(x), lo, hi, limit=400)
                assert spec.moment(order) == pytest.approx(val, abs=1e-7), (spec.kind, order)

    def test_gaussian_higher_orders(self):
        assert DistributionSpec("gaussian").moment(6) == 15.0
        assert DistributionSpec("gaussian").moment(8) == 105.0

    def test_two_point_symmetric_reduces_to_rademacher(self):
        assert _first_four(DistributionSpec("two-point", q=0.5)) == (0.0, 1.0, 0.0, 1.0)
        rademacher = moment_sequence(DistributionSpec("rademacher"), 8)
        assert moment_sequence(DistributionSpec("two-point", q=0.5), 8) == rademacher

    def test_student_t5_fourth_moment_is_exact(self):
        # (1 * 3/3) * (3 * 3/1): the telescoped product rounds nowhere
        assert DistributionSpec("student-t", df=5).moment(4) == 9.0

    @pytest.mark.parametrize("df, order", [(306.0, 60), (330.0, 28), (341.0, 10), (343.0, 4)])
    def test_student_t_moments_finite_where_the_gamma_product_overflowed(self, df, order):
        # gamma(df / 2) fits a double here, but a product of gammas does not
        exact = Fraction(1)
        for i in range(1, order // 2 + 1):
            exact *= (2 * i - 1) * Fraction(df - 2) / Fraction(df - 2 * i)
        assert DistributionSpec("student-t", df=df).moment(order) == pytest.approx(float(exact), rel=1e-15)

    def test_two_point_asymmetric(self):
        q = 0.2
        m1, m2, m3, m4 = _first_four(DistributionSpec("two-point", q=q))
        assert m1 == pytest.approx(0.0, abs=1e-15)
        assert m2 == pytest.approx(1.0, abs=1e-15)
        # closed forms for the standardized two-point law
        assert m3 == pytest.approx((1 - 2 * q) / math.sqrt(q * (1 - q)), rel=1e-12)
        assert m4 == pytest.approx(1.0 / (q * (1 - q)) - 3.0, rel=1e-12)

    def test_student_t_fourth_moment_flag(self):
        assert math.isinf(DistributionSpec("student-t", df=3.0).moment(4))
        assert math.isinf(DistributionSpec("student-t", df=4.0).moment(4))
        assert math.isfinite(DistributionSpec("student-t", df=4.5).moment(4))

    def test_parameter_errors(self):
        with pytest.raises(ValidationError):
            DistributionSpec("student-t", df=2.0)
        with pytest.raises(ValidationError):
            DistributionSpec("two-point", q=1.0)
        with pytest.raises(ValidationError):
            DistributionSpec("lognormal")
        with pytest.raises(ValidationError):
            DistributionSpec("gaussian", df=5.0)
        with pytest.raises(ValidationError, match="student-t takes no q"):
            DistributionSpec("student-t", df=5, q=0.5)
        with pytest.raises(ValidationError, match="two-point takes no df"):
            distribution_from_json({"kind": "two-point", "q": 0.3, "df": 7})
        # a JSON null for a parameter the law does not take is still that parameter
        with pytest.raises(ValidationError, match="gaussian takes no df"):
            distribution_from_json({"kind": "gaussian", "df": None})
        with pytest.raises(ValidationError, match="student-t takes no q"):
            distribution_from_json({"kind": "student-t", "df": 5, "q": None})
        with pytest.raises(ValidationError, match="two-point takes no df"):
            distribution_from_json({"kind": "two-point", "q": 0.3, "df": None})

    @settings(max_examples=400, deadline=None)
    @given(
        spec=st.one_of(
            st.sampled_from(["gaussian", "rademacher", "uniform-symmetric", "centered-exponential"]).map(
                DistributionSpec
            ),
            st.floats(1e-300, 1 - 1e-16).map(lambda q: DistributionSpec("two-point", q=q)),
            st.floats(2.0, 1e6, exclude_min=True).map(lambda df: DistributionSpec("student-t", df=df)),
        ),
        order=st.integers(0, 400),
    )
    def test_moment_is_a_float_at_every_order(self, spec, order):
        # a moment past the double range is +-inf, never an OverflowError
        value = spec.moment(order)
        assert isinstance(value, float)
        if order % 2 == 0:
            assert value >= 0.0

    @pytest.mark.parametrize(
        "spec, order",
        [
            (DistributionSpec("two-point", q=1e-100), 8),
            (DistributionSpec("two-point", q=1 - 1e-16), 40),
            (DistributionSpec("student-t", df=400), 4),
            (DistributionSpec("student-t", df=1e6), 300),
        ],
        ids=["two-point-small-q", "two-point-q-near-1", "t400", "t1e6"],
    )
    def test_overflow_prone_moment_matches_mpmath(self, spec, order):
        with mpmath.workdps(50):
            if spec.kind == "two-point":
                q = mpmath.mpf(spec.q)
                x_hi, x_lo = mpmath.sqrt((1 - q) / q), -mpmath.sqrt(q / (1 - q))
                expected = q * x_hi**order + (1 - q) * x_lo**order
            else:
                df, s = mpmath.mpf(spec.df), mpmath.mpf(order)
                raw = df ** (s / 2) * mpmath.gamma((s + 1) / 2) * mpmath.gamma((df - s) / 2)
                raw /= mpmath.sqrt(mpmath.pi) * mpmath.gamma(df / 2)
                expected = raw / (df / (df - 2)) ** (s / 2)
            assert math.isfinite(float(expected))
            assert abs(spec.moment(order) - expected) <= 1e-12 * abs(expected)

    @staticmethod
    def _exact_moment(spec, order):
        """E[X^order] as an int or Fraction, from formulas moment() does not use;
        inf or nan where a student-t moment does not exist."""
        if order <= 2:
            return (1, 0, 1)[order]  # the standardization, not the float atoms' own moments
        if spec.kind == "student-t":  # prod_{i=1}^m (2i-1)(df-2)/(df-2i), one Fraction factor at a time
            if order >= spec.df:
                return math.nan if order % 2 else math.inf
            exact, df = Fraction(1), Fraction(spec.df)
            for i in range(1, order // 2 + 1):
                exact *= (2 * i - 1) * (df - 2) / (df - 2 * i)
            return 0 if order % 2 else exact
        if spec.kind == "two-point":
            return sum(Fraction(w) * Fraction(x) ** order for x, w in spec.atoms())
        if spec.kind == "centered-exponential":  # binomial expansion with E[E^j] = j!
            return sum(math.comb(order, j) * (-1) ** (order - j) * math.factorial(j) for j in range(order + 1))
        if order % 2:
            return 0
        m = order // 2
        if spec.kind == "gaussian":  # (2m)! / (2^m m!) = (2m - 1)!!
            return math.factorial(order) // (2**m * math.factorial(m))
        if spec.kind == "rademacher":
            return 1
        return Fraction(3**m, order + 1)  # uniform on [-sqrt(3), sqrt(3)]

    @pytest.mark.parametrize(
        "spec",
        [DistributionSpec(kind) for kind in ("gaussian", "rademacher", "uniform-symmetric", "centered-exponential")]
        + [DistributionSpec("two-point", q=q) for q in (1e-100, 1e-12, 0.01, 0.3, 0.5, 1 - 1e-10)]
        + [DistributionSpec("student-t", df=df) for df in (2.5, 5, 40.5, 1e300)],
        ids=lambda spec: spec.kind if spec.q is None and spec.df is None else f"{spec.kind}-{spec.q or spec.df!r}",
    )
    def test_moment_is_the_exact_moment_rounded_once(self, spec):
        for order in range(61):
            exact = self._exact_moment(spec, order)
            try:
                expected = float(exact)
            except OverflowError:
                expected = math.inf if exact > 0 else -math.inf
            got = spec.moment(order)
            assert got == expected or math.isnan(got) and math.isnan(expected), (order, exact)
            # moment_sequence hands the oracles the same moment, unrounded
            assert spec.exact_moment(order) == exact or math.isnan(expected)

    def test_two_point_odd_moment_past_the_doubles_is_negative_inf(self):
        # the lower atom -sqrt(q / (1 - q)) ~ -1e8 carries almost all the weight
        assert DistributionSpec("two-point", q=1 - 1e-16).moment(401) == -math.inf

    def test_moment_sequence(self):
        assert moment_sequence(DistributionSpec("rademacher"), 6) == (0.0, 1.0, 0.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValidationError):
            moment_sequence(DistributionSpec("rademacher"), 0)

    def test_parses_literal_json(self):
        gauss = distribution_from_json({"kind": "gaussian"})
        assert (gauss.kind, gauss.df, gauss.q) == ("gaussian", None, None)
        t5 = distribution_from_json({"kind": "student-t", "df": 5})
        assert (t5.kind, t5.df, t5.q) == ("student-t", 5, None)
        two = distribution_from_json({"kind": "two-point", "q": 0.25})
        assert (two.kind, two.df, two.q) == ("two-point", None, 0.25)
        assert distribution_from_json("rademacher") == DistributionSpec("rademacher")
        with pytest.raises(ValidationError):
            distribution_from_json({"kind": "gaussian", "bogus": 1})


class TestShapesAndSeeds:
    def test_shape_validation(self):
        with pytest.raises(ValidationError):
            MatrixShape(0, 5)
        with pytest.raises(ValidationError):
            MatrixShape(5, -1)

    def test_seed_derivation_deterministic_and_distinct(self):
        seed = SeedSpec(123456789)
        assert seed.derive(10, 100, 0) == seed.derive(10, 100, 0)
        derived = {seed.derive(10, 100, rep) for rep in range(64)}
        assert len(derived) == 64
        assert seed.derive(10, 100, 0) != seed.derive(100, 10, 0)

    def test_seed_validation(self):
        with pytest.raises(ValidationError):
            SeedSpec(-1)
        with pytest.raises(ValidationError):
            SeedSpec(2**64)


class TestSampling:
    def test_determinism(self):
        a = sample_matrix(DistributionSpec("rademacher"), MatrixShape(2, 3), SeedSpec(7), 0)
        b = sample_matrix(DistributionSpec("rademacher"), MatrixShape(2, 3), SeedSpec(7), 0)
        assert np.array_equal(a, b)

    def test_replicates_differ(self):
        a = sample_matrix(DistributionSpec("gaussian"), MatrixShape(5, 20), SeedSpec(7), 0)
        b = sample_matrix(DistributionSpec("gaussian"), MatrixShape(5, 20), SeedSpec(7), 1)
        assert not np.array_equal(a, b)

    def test_replicate_must_fit_in_64_bits(self):
        # the stream seed keeps 64 bits of the replicate, so 2**64 would alias 0
        shape, seed = MatrixShape(2, 2), SeedSpec(0)
        assert sample_matrix(DistributionSpec("gaussian"), shape, seed, 2**64 - 1).shape == (2, 2)
        for replicate in (-1, 2**64):
            with pytest.raises(ValidationError):
                sample_matrix(DistributionSpec("gaussian"), shape, seed, replicate)

    @pytest.mark.parametrize(
        "spec",
        [
            DistributionSpec("gaussian"),
            DistributionSpec("rademacher"),
            DistributionSpec("student-t", df=5),
            DistributionSpec("two-point", q=0.3),
        ],
        ids=lambda spec: spec.kind,
    )
    def test_shape_numpy_refuses_is_a_library_error(self, spec):
        with pytest.raises(ValidationError, match="Maximum allowed dimension exceeded"):
            sample_matrix(spec, MatrixShape(2**64 + 10, 1), SeedSpec(0))
        # 2^54 entries, 128 PiB: more than any address space, so no page is touched
        with pytest.raises(ResourceError, match="Unable to allocate"):
            sample_matrix(spec, MatrixShape(2**27, 2**27), SeedSpec(0))

    def test_two_point_support(self):
        X = sample_matrix(DistributionSpec("two-point", q=0.5), MatrixShape(10, 50), SeedSpec(3), 0)
        assert set(np.unique(X)) <= {-1.0, 1.0}

    def test_gaussian_empirical_moments_clt_sized(self):
        X = sample_matrix(DistributionSpec("gaussian"), MatrixShape(200, 20000), SeedSpec(2024), 0)
        assert abs(np.mean(X)) <= 4.0 / math.sqrt(200 * 20000)
        assert abs(np.mean(X**2) - 1.0) <= 0.02

    def test_all_builtin_kinds_standardized(self):
        # |m1| and |m2 - 1| small at CLT scale for every built-in law
        shape = MatrixShape(100, 2000)
        for spec in (
            DistributionSpec("gaussian"),
            DistributionSpec("rademacher"),
            DistributionSpec("uniform-symmetric"),
            DistributionSpec("centered-exponential"),
            DistributionSpec("student-t", df=5),
            DistributionSpec("two-point", q=0.3),
        ):
            X = sample_matrix(spec, shape, SeedSpec(99), 0)
            m4 = spec.moment(4)
            tol = 5.0 * math.sqrt(max(m4 - 1.0, 1.0) / (shape.p * shape.n))
            assert abs(np.mean(X)) <= 5.0 / math.sqrt(shape.p * shape.n), spec.kind
            assert abs(np.mean(X**2) - 1.0) <= tol, spec.kind

    def test_replicate_streams_uncorrelated(self):
        shape = MatrixShape(50, 200)
        X0 = sample_matrix(DistributionSpec("gaussian"), shape, SeedSpec(11), 0).ravel()
        X1 = sample_matrix(DistributionSpec("gaussian"), shape, SeedSpec(11), 1).ravel()
        corr = float(np.mean(X0 * X1))
        assert abs(corr) < 4.0 / math.sqrt(shape.p * shape.n)

    def test_entries_immutable(self):
        X = sample_matrix(DistributionSpec("gaussian"), MatrixShape(3, 4), SeedSpec(1), 0)
        with pytest.raises(ValueError):
            X[0, 0] = 0.0

    def test_returns_float64_array_of_the_shape(self):
        X = sample_matrix(DistributionSpec("rademacher"), MatrixShape(3, 4), SeedSpec(1), 0)
        assert isinstance(X, np.ndarray)
        assert (X.shape, X.dtype) == ((3, 4), np.float64)


class TestEmpiricalMomentReport:
    """Empirical moments of sampled matrices, computed on the array."""

    def test_rademacher_second_moment_exact(self):
        X = sample_matrix(DistributionSpec("rademacher"), MatrixShape(8, 25), SeedSpec(5), 0)
        assert np.mean(X**2) == 1.0

    def test_gaussian_fourth_moment(self):
        X = sample_matrix(DistributionSpec("gaussian"), MatrixShape(100, 1000), SeedSpec(5), 0)
        assert abs(np.mean(X**4) - 3.0) <= 0.5


class TestMatrixIO:
    def test_binary_round_trip(self, tmp_path):
        X = sample_matrix(DistributionSpec("student-t", df=5), MatrixShape(7, 13), SeedSpec(77), 2)
        path = tmp_path / "m.bin"
        save_matrix(X, path)
        Y = load_matrix(path)
        assert Y.shape == X.shape
        assert np.array_equal(X, Y)

    def test_binary_header_layout(self, tmp_path):
        X = sample_matrix(DistributionSpec("rademacher"), MatrixShape(2, 3), SeedSpec(0), 0)
        path = tmp_path / "m.bin"
        save_matrix(X, path)
        raw = path.read_bytes()
        assert len(raw) == 16 + 16 + 8 * 6
        assert raw[:16] == b"COVSPEC-MAT-v01\n"
        assert int.from_bytes(raw[16:24], "little") == 2
        assert int.from_bytes(raw[24:32], "little") == 3

    @pytest.mark.parametrize("transpose", [False, True], ids=["c-order", "transposed"])
    def test_binary_bytes(self, tmp_path, transpose):
        X = sample_matrix(DistributionSpec("gaussian"), MatrixShape(5, 3), SeedSpec(4), 0)
        X = X.T if transpose else X
        path = tmp_path / "m.bin"
        save_matrix(X, path)
        p, n = X.shape
        assert path.read_bytes() == _MAGIC + struct.pack("<QQ", p, n) + X.astype("<f8").tobytes()

    def test_save_peak_memory_is_no_copy(self, tmp_path):
        X = sample_matrix(DistributionSpec("gaussian"), MatrixShape(512, 8192), SeedSpec(5), 0)  # 32 MiB
        path = tmp_path / "m.bin"
        tracemalloc.start()
        try:
            save_matrix(X, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.stat().st_size == 32 + X.nbytes
        assert peak <= 0.1 * X.nbytes

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"\x00" * 64)
        with pytest.raises(ValidationError):
            load_matrix(path)

    def test_truncated_payload_rejected(self, tmp_path):
        X = sample_matrix(DistributionSpec("rademacher"), MatrixShape(2, 3), SeedSpec(0), 0)
        path = tmp_path / "m.bin"
        save_matrix(X, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValidationError):
            load_matrix(path)

    def test_reads_from_a_pipe(self, tmp_path):
        X = sample_matrix(DistributionSpec("rademacher"), MatrixShape(2, 3), SeedSpec(0), 0)
        path = tmp_path / "m.bin"
        save_matrix(X, path)
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(path.read_bytes(),))
        writer.start()
        try:
            back = load_matrix(fifo)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        np.testing.assert_array_equal(back, X)

    def test_forged_header_on_a_pipe_rejected(self, tmp_path):
        # a pipe has no size to check the header against: the read must stop at EOF
        X = sample_matrix(DistributionSpec("rademacher"), MatrixShape(2, 3), SeedSpec(0), 0)
        path = tmp_path / "m.bin"
        save_matrix(X, path)
        forged = path.read_bytes()[:16] + (2**40).to_bytes(8, "little") * 2 + path.read_bytes()[32:]
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(forged,))
        writer.start()
        try:
            with pytest.raises(ValidationError, match="truncated matrix payload"):
                load_matrix(fifo)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()

    def test_load_peak_memory_is_one_payload(self, tmp_path):
        X = sample_matrix(DistributionSpec("gaussian"), MatrixShape(200, 4000), SeedSpec(5), 0)
        path = tmp_path / "m.bin"
        save_matrix(X, path)
        tracemalloc.start()
        try:
            Y = load_matrix(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(Y, X)
        assert peak <= 1.25 * X.nbytes

    def test_non_finite_entries_rejected(self, tmp_path):
        for bad in (np.nan, np.inf, -np.inf):
            entries = np.zeros((2, 3))
            entries[1, 2] = bad
            path = tmp_path / "m.bin"
            save_matrix(entries, path)
            with pytest.raises(ValidationError):
                load_matrix(path)

    def test_csv_export(self, tmp_path):
        X = sample_matrix(DistributionSpec("gaussian"), MatrixShape(3, 4), SeedSpec(9), 0)
        path = tmp_path / "m.csv"
        matrix_to_csv(X, path)
        back = np.loadtxt(path, delimiter=",")
        assert np.array_equal(back, X)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        arrays(
            np.float64,
            array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
            elements=st.floats(allow_nan=False, allow_infinity=False),
        )
    )
    def test_binary_round_trip_is_bitwise(self, tmp_path, X):
        path = tmp_path / "m.bin"
        save_matrix(X, path)
        Y = load_matrix(path)
        assert (Y.shape, Y.dtype) == (X.shape, np.float64)
        assert Y.tobytes() == X.tobytes()  # bitwise: keeps -0.0 and subnormals
        assert not Y.flags.writeable
