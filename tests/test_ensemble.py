"""Tests for seeded matrix generation and closed-form moments."""

import math
import os
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy import integrate, stats

from covspectrum.ensemble import (
    DistributionSpec,
    MatrixShape,
    SeedSpec,
    centered_exponential,
    distribution_from_json,
    gaussian,
    load_matrix,
    matrix_to_csv,
    moment_sequence,
    rademacher,
    sample_matrix,
    save_matrix,
    student_t,
    two_point,
    uniform_symmetric,
)
from covspectrum.errors import ValidationError


def _first_four(spec):
    return tuple(spec.moment(order) for order in (1, 2, 3, 4))


class TestStandardizedMoments:
    def test_gaussian(self):
        assert _first_four(gaussian()) == (0.0, 1.0, 0.0, 3.0)

    def test_rademacher(self):
        assert _first_four(rademacher()) == (0.0, 1.0, 0.0, 1.0)

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
        m1, m2, m3, m4 = _first_four(student_t(5))
        np.testing.assert_allclose([m1, m2, m3, m4], oracle, atol=1e-7)
        assert (m1, m2, m3) == (0.0, 1.0, 0.0)
        assert m4 == pytest.approx(9.0, rel=1e-12)

    def test_uniform_and_exponential_against_quadrature(self):
        root3 = math.sqrt(3)
        for spec, pdf, lo, hi in (
            (uniform_symmetric(), lambda x: stats.uniform.pdf(x, -root3, 2 * root3), -root3, root3),
            (centered_exponential(), lambda x: stats.expon.pdf(x + 1.0), -1.0, 80.0),
        ):
            for order in (1, 2, 3, 4, 5, 6):
                val, _ = integrate.quad(lambda x, s=order: x**s * pdf(x), lo, hi, limit=400)
                assert spec.moment(order) == pytest.approx(val, abs=1e-7), (spec.kind, order)

    def test_gaussian_higher_orders(self):
        assert gaussian().moment(6) == 15.0
        assert gaussian().moment(8) == 105.0

    def test_two_point_symmetric_reduces_to_rademacher(self):
        assert _first_four(two_point(q=0.5)) == (0.0, 1.0, 0.0, 1.0)

    def test_two_point_asymmetric(self):
        q = 0.2
        m1, m2, m3, m4 = _first_four(two_point(q=q))
        assert m1 == pytest.approx(0.0, abs=1e-15)
        assert m2 == pytest.approx(1.0, abs=1e-15)
        # closed forms for the standardized two-point law
        assert m3 == pytest.approx((1 - 2 * q) / math.sqrt(q * (1 - q)), rel=1e-12)
        assert m4 == pytest.approx(1.0 / (q * (1 - q)) - 3.0, rel=1e-12)

    def test_student_t_fourth_moment_flag(self):
        assert math.isinf(student_t(3.0).moment(4))
        assert math.isinf(student_t(4.0).moment(4))
        assert math.isfinite(student_t(4.5).moment(4))

    def test_parameter_errors(self):
        with pytest.raises(ValidationError):
            student_t(2.0)
        with pytest.raises(ValidationError):
            two_point(q=1.0)
        with pytest.raises(ValidationError):
            DistributionSpec("lognormal")
        with pytest.raises(ValidationError):
            DistributionSpec("gaussian", df=5.0)

    def test_moment_sequence(self):
        assert moment_sequence(rademacher(), 6) == (0.0, 1.0, 0.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValidationError):
            moment_sequence(rademacher(), 0)

    def test_json_round_trip(self):
        for spec in (gaussian(), student_t(5), two_point(q=0.25)):
            assert distribution_from_json(spec.to_json()) == spec
        assert distribution_from_json("rademacher") == rademacher()
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
        a = sample_matrix(rademacher(), MatrixShape(2, 3), SeedSpec(7), 0)
        b = sample_matrix(rademacher(), MatrixShape(2, 3), SeedSpec(7), 0)
        assert np.array_equal(a, b)

    def test_replicates_differ(self):
        a = sample_matrix(gaussian(), MatrixShape(5, 20), SeedSpec(7), 0)
        b = sample_matrix(gaussian(), MatrixShape(5, 20), SeedSpec(7), 1)
        assert not np.array_equal(a, b)

    def test_two_point_support(self):
        X = sample_matrix(two_point(q=0.5), MatrixShape(10, 50), SeedSpec(3), 0)
        assert set(np.unique(X)) <= {-1.0, 1.0}

    def test_gaussian_empirical_moments_clt_sized(self):
        X = sample_matrix(gaussian(), MatrixShape(200, 20000), SeedSpec(2024), 0)
        assert abs(np.mean(X)) <= 4.0 / math.sqrt(200 * 20000)
        assert abs(np.mean(X**2) - 1.0) <= 0.02

    def test_all_builtin_kinds_standardized(self):
        # |m1| and |m2 - 1| small at CLT scale for every built-in law
        shape = MatrixShape(100, 2000)
        for spec in (
            gaussian(),
            rademacher(),
            uniform_symmetric(),
            centered_exponential(),
            student_t(5),
            two_point(q=0.3),
        ):
            X = sample_matrix(spec, shape, SeedSpec(99), 0)
            m4 = spec.moment(4)
            tol = 5.0 * math.sqrt(max(m4 - 1.0, 1.0) / (shape.p * shape.n))
            assert abs(np.mean(X)) <= 5.0 / math.sqrt(shape.p * shape.n), spec.kind
            assert abs(np.mean(X**2) - 1.0) <= tol, spec.kind

    def test_replicate_streams_uncorrelated(self):
        shape = MatrixShape(50, 200)
        X0 = sample_matrix(gaussian(), shape, SeedSpec(11), 0).ravel()
        X1 = sample_matrix(gaussian(), shape, SeedSpec(11), 1).ravel()
        corr = float(np.mean(X0 * X1))
        assert abs(corr) < 4.0 / math.sqrt(shape.p * shape.n)

    def test_entries_immutable(self):
        X = sample_matrix(gaussian(), MatrixShape(3, 4), SeedSpec(1), 0)
        with pytest.raises(ValueError):
            X[0, 0] = 0.0

    def test_returns_float64_array_of_the_shape(self):
        X = sample_matrix(rademacher(), MatrixShape(3, 4), SeedSpec(1), 0)
        assert isinstance(X, np.ndarray)
        assert (X.shape, X.dtype) == ((3, 4), np.float64)


class TestEmpiricalMomentReport:
    """Empirical moments of sampled matrices, computed on the array."""

    def test_rademacher_second_moment_exact(self):
        X = sample_matrix(rademacher(), MatrixShape(8, 25), SeedSpec(5), 0)
        assert np.mean(X**2) == 1.0

    def test_gaussian_fourth_moment(self):
        X = sample_matrix(gaussian(), MatrixShape(100, 1000), SeedSpec(5), 0)
        assert abs(np.mean(X**4) - 3.0) <= 0.5


class TestMatrixIO:
    def test_binary_round_trip(self, tmp_path):
        X = sample_matrix(student_t(5), MatrixShape(7, 13), SeedSpec(77), 2)
        path = tmp_path / "m.bin"
        save_matrix(X, path)
        Y = load_matrix(path)
        assert Y.shape == X.shape
        assert np.array_equal(X, Y)

    def test_binary_header_layout(self, tmp_path):
        X = sample_matrix(rademacher(), MatrixShape(2, 3), SeedSpec(0), 0)
        path = tmp_path / "m.bin"
        save_matrix(X, path)
        raw = path.read_bytes()
        assert len(raw) == 16 + 16 + 8 * 6
        assert raw[:16] == b"COVSPEC-MAT-v01\n"
        assert int.from_bytes(raw[16:24], "little") == 2
        assert int.from_bytes(raw[24:32], "little") == 3

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"\x00" * 64)
        with pytest.raises(ValidationError):
            load_matrix(path)

    def test_truncated_payload_rejected(self, tmp_path):
        X = sample_matrix(rademacher(), MatrixShape(2, 3), SeedSpec(0), 0)
        path = tmp_path / "m.bin"
        save_matrix(X, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValidationError):
            load_matrix(path)

    def test_reads_from_a_pipe(self, tmp_path):
        X = sample_matrix(rademacher(), MatrixShape(2, 3), SeedSpec(0), 0)
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
        X = sample_matrix(rademacher(), MatrixShape(2, 3), SeedSpec(0), 0)
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
        X = sample_matrix(gaussian(), MatrixShape(200, 4000), SeedSpec(5), 0)
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
        X = sample_matrix(gaussian(), MatrixShape(3, 4), SeedSpec(9), 0)
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
