"""Tests for sweep orchestration, statistics, and report emission."""

import json
import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from covspectrum import harness, spectral
from covspectrum.ensemble import KINDS, MatrixShape, distribution_from_json, gaussian, rademacher
from covspectrum.errors import ValidationError
from covspectrum.harness import (
    TASK_NAMES,
    ExperimentConfig,
    TaskSpec,
    run_experiment,
)
from covspectrum.momentlab import IndexCircuit
from covspectrum.normalize import covariance_from_json, toeplitz_cov
from covspectrum.reports import (
    CSV_COLUMNS,
    RunRecord,
    emit_report,
    fit_rate,
    read_records,
    records_to_csv,
    summarize,
    tail_probability_report,
)


# Arbitrary JSON, biased towards the field names and kind names the parsers
# know.  "path" is left out: an explicit covariance opens it as a file, and a
# missing file is an OSError by design.
_JSON_KEYS = st.sampled_from(
    ["kind", "df", "q", "d", "rho", "name", "sigma", "k", "i", "j",
     "distribution", "grid", "replicates", "master_seed", "tasks", "bogus"]
)
_JSON_NAMES = st.sampled_from(KINDS + TASK_NAMES + ("identity", "diagonal", "toeplitz", "explicit"))
_json_value = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4) | _JSON_NAMES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_JSON_KEYS, inner, max_size=5),
    max_leaves=20,
)


def _config(**kwargs):
    base = dict(
        distribution=rademacher(),
        grid=(MatrixShape(10, 100),),
        replicates=2,
        master_seed=7,
        tasks=(TaskSpec("lambda_max"),),
    )
    base.update(kwargs)
    return ExperimentConfig(**base)


class TestConfig:
    def test_json_round_trip(self):
        config = _config(
            tasks=(
                TaskSpec("lambda_max"),
                TaskSpec("cov_rate", sigma=toeplitz_cov(0.5)),
                TaskSpec("moment_check", k=2),
            )
        )
        back = ExperimentConfig.from_json(config.to_json())
        assert back == config

    def test_empty_grid_rejected(self):
        with pytest.raises(ValidationError):
            _config(grid=())

    def test_duplicate_tasks_rejected(self):
        with pytest.raises(ValidationError):
            _config(tasks=(TaskSpec("lambda_max"), TaskSpec("lambda_max")))

    def test_task_validation(self):
        with pytest.raises(ValidationError):
            TaskSpec("cov_rate")
        with pytest.raises(ValidationError):
            TaskSpec("moment_check")
        with pytest.raises(ValidationError):
            TaskSpec("unknown_task")
        assert TaskSpec.from_json("diag_dev").name == "diag_dev"
        spec = TaskSpec.from_json({"name": "cov_rate", "sigma": {"kind": "identity"}})
        assert spec.sigma.kind == "identity"


    @pytest.mark.parametrize(
        "parse",
        [
            distribution_from_json,
            covariance_from_json,
            ExperimentConfig.from_json,
            TaskSpec.from_json,
            IndexCircuit.from_json,
        ],
        ids=["distribution", "covariance", "config", "task", "circuit"],
    )
    @settings(max_examples=300, deadline=None)
    @given(obj=_json_value)
    def test_from_json_raises_only_validation_error(self, parse, obj):
        try:
            parse(obj)
        except ValidationError:
            pass


class TestRunExperiment:
    def test_empty_task_set_writes_header_only_csv(self, tmp_path):
        records = run_experiment(_config(tasks=()), threads=1, out_dir=str(tmp_path))
        assert records == []
        lines = (tmp_path / "records.csv").read_text().splitlines()
        assert lines == [",".join(CSV_COLUMNS)]

    def test_empty_task_set_samples_nothing(self, monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "sample_matrix", lambda *args: calls.append(args))
        config = _config(grid=(MatrixShape(300, 3000),), replicates=3, tasks=())
        assert run_experiment(config, threads=1) == []
        assert calls == []

    @pytest.mark.parametrize("threads", [1, 2])
    def test_only_lambda_max_switches_above_the_dense_limit(self, monkeypatch, threads):
        config = _config(
            distribution=gaussian(),
            grid=(MatrixShape(20, 200),),
            tasks=(TaskSpec("lambda_max"), TaskSpec("esd_ks"), TaskSpec("lambda_max_centered")),
        )

        def by_task(records):
            out = {}
            for r in records:
                r.aux.pop("wall_ms")
                out.setdefault(r.task, []).append(r)
            return out

        dense = by_task(run_experiment(config, threads=threads))
        monkeypatch.setattr(spectral, "DENSE_P_LIMIT", 10)
        small = by_task(run_experiment(config, threads=threads))
        assert not any(r.failed for rs in small.values() for r in rs)
        assert [r.aux["method"] for r in small["lambda_max"]] == ["matfree"] * 2
        for task in ("esd_ks", "lambda_max_centered"):
            assert small[task] == dense[task]

    def test_moment_check_at_p_one_is_zero_without_moments(self):
        # no star circuit at p = 1; at (1, 3) the nominal 3^4000 is over budget
        config = _config(
            distribution=gaussian(),
            grid=(MatrixShape(1, 1),),
            replicates=1,
            tasks=(TaskSpec("moment_check", k=4000),),
        )
        start = time.perf_counter()
        (record,) = run_experiment(config, threads=1)
        assert time.perf_counter() - start < 1.0
        assert not record.failed
        assert record.value == 0.0

    @pytest.mark.parametrize(
        "shape, k, power",
        [
            # the 40,000 gaussian moments alone would take minutes
            ((10, 100), 20000, "1.000e+60000"),
            # (pn)^k beyond the double range
            ((3, 30), 3000, "5.340e+5862"),
        ],
    )
    def test_moment_check_over_budget_is_a_quick_error_row(self, shape, k, power):
        config = _config(
            distribution=gaussian(),
            grid=(MatrixShape(*shape),),
            replicates=1,
            tasks=(TaskSpec("moment_check", k=k),),
        )
        start = time.perf_counter()
        (record,) = run_experiment(config, threads=1)
        assert time.perf_counter() - start < 1.0
        assert record.aux["error"] == f"ResourceError: (p*n)^k = {power} exceeds the 1e+08 term budget"

    def test_two_replicates_distinct_and_rerun_identical(self, tmp_path):
        config = _config()
        records = run_experiment(config, threads=1, out_dir=str(tmp_path / "a"))
        assert len(records) == 2
        assert records[0].value != records[1].value
        again = run_experiment(config, threads=1, out_dir=str(tmp_path / "b"))
        assert (tmp_path / "a" / "records.csv").read_bytes() == (
            tmp_path / "b" / "records.csv"
        ).read_bytes()

    def test_thread_counts_do_not_change_bytes(self, tmp_path):
        # threads = 1 keeps BLAS's own threads and a pool caps them at one,
        # so the bytes agree here only because p <= 12: OpenBLAS does not
        # thread products that small.  At sweep sizes threads = 1 and
        # threads >= 2 may differ in the last bits (see harness's docstring).
        config = _config(
            grid=(MatrixShape(8, 40), MatrixShape(12, 60)),
            replicates=3,
            tasks=(TaskSpec("lambda_max"), TaskSpec("diag_dev")),
        )
        run_experiment(config, threads=1, out_dir=str(tmp_path / "t1"))
        run_experiment(config, threads=8, out_dir=str(tmp_path / "t8"))
        assert (tmp_path / "t1" / "records.csv").read_bytes() == (
            tmp_path / "t8" / "records.csv"
        ).read_bytes()

    def test_threads_zero_counts_the_cpus_it_may_use(self, monkeypatch):
        # four CPUs on the host but one in the affinity mask: threads = 0
        # runs the two jobs serially, and a pool would raise
        def no_pool(*args, **kwargs):
            raise AssertionError("threads=0 with one usable CPU started a pool")

        monkeypatch.setattr(harness.os, "cpu_count", lambda: 4)
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(harness, "ThreadPoolExecutor", no_pool)
        records = run_experiment(_config(), threads=0)
        assert [r.replicate for r in records] == [0, 1]

    def test_records_sorted_and_unique(self, tmp_path):
        config = _config(
            grid=(MatrixShape(12, 60), MatrixShape(8, 40)),
            replicates=2,
            tasks=(TaskSpec("diag_dev"), TaskSpec("lambda_max")),
        )
        records = run_experiment(config, threads=2)
        keys = [r.sort_key() for r in records]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    def test_fail_isolation(self):
        # moment_check at this grid blows the enumeration budget and must
        # come back as an error row without suppressing its siblings
        config = _config(
            tasks=(TaskSpec("lambda_max"), TaskSpec("moment_check", k=8)),
            replicates=1,
        )
        records = run_experiment(config, threads=1)
        by_task = {r.task: r for r in records}
        assert by_task["moment_check"].failed
        assert "ResourceError" in by_task["moment_check"].aux["error"]
        assert math.isnan(by_task["moment_check"].value)
        assert not by_task["lambda_max"].failed

    def test_medians_decrease_with_ratio(self):
        config = _config(
            grid=(MatrixShape(40, 400), MatrixShape(40, 4000)),
            replicates=5,
            master_seed=101,
        )
        records = run_experiment(config, threads=2)
        rows = {(s.p, s.n): s.median for s in summarize(records)}
        assert rows[(40, 4000)] < rows[(40, 400)]

    def test_truncation_and_covariance_tasks(self):
        config = _config(
            distribution=gaussian(),
            grid=(MatrixShape(10, 200),),
            replicates=1,
            tasks=(
                TaskSpec("truncation_report"),
                TaskSpec("cov_rate", sigma=toeplitz_cov(0.5)),
                TaskSpec("esd_ks"),
                TaskSpec("lambda_max_centered"),
            ),
        )
        records = {r.task: r for r in run_experiment(config, threads=1)}
        trunc = records["truncation_report"]
        # threshold (np)^{1/8} = 2.59 here, so a ~1% gaussian tail is zeroed
        assert 0.0 <= trunc.value <= 0.03
        assert abs(trunc.aux["post_mean"]) < 1e-14
        cov = records["cov_rate"]
        assert cov.value <= cov.aux["bound"] + 1e-10
        assert 0.0 <= records["esd_ks"].value <= 1.0


class TestPoolBlasThreads:
    """Pooled sweeps run numpy's OpenBLAS at one thread, and only while the pool runs."""

    # Big enough for OpenBLAS to thread its Gram products and eigensolves.
    @staticmethod
    def _config():
        return _config(
            distribution=gaussian(),
            grid=(MatrixShape(100, 10000), MatrixShape(200, 4000)),
            replicates=2,
            tasks=(
                TaskSpec("lambda_max"),
                TaskSpec("esd_ks"),
                TaskSpec("cov_rate", sigma=toeplitz_cov(0.5)),
            ),
        )

    @staticmethod
    def _blas():
        blas = harness._openblas()
        if blas is None:
            pytest.skip("numpy's bundled OpenBLAS thread-count symbols do not resolve")
        return blas

    def _csv(self, out_dir, threads):
        run_experiment(self._config(), threads=threads, out_dir=str(out_dir))
        return (out_dir / "records.csv").read_bytes()

    def test_pool_sizes_give_the_same_bytes(self, tmp_path):
        assert self._csv(tmp_path / "t2", 2) == self._csv(tmp_path / "t3", 3)

    def test_pool_matches_serial_run_at_one_blas_thread(self, tmp_path):
        self._blas()
        with harness._single_blas_thread():
            serial = self._csv(tmp_path / "t1", 1)
        assert serial == self._csv(tmp_path / "t2", 2)

    @pytest.mark.parametrize("failure", ["task", "worker"])
    def test_workers_see_one_thread_and_the_count_comes_back(self, monkeypatch, failure):
        get_threads, set_threads = self._blas()
        seen = []
        execute_task = harness._execute_task
        run_tasks = harness._run_tasks

        def spy_task(task, X, dist):
            seen.append(get_threads())
            if failure == "task":
                raise RuntimeError("task failed")
            return execute_task(task, X, dist)

        def spy_worker(config, shape, replicate):
            run_tasks(config, shape, replicate)
            raise RuntimeError("worker failed")

        monkeypatch.setattr(harness, "_execute_task", spy_task)
        if failure == "worker":
            monkeypatch.setattr(harness, "_run_tasks", spy_worker)
        prior = get_threads()
        set_threads(2)
        try:
            if failure == "task":
                records = run_experiment(_config(), threads=2)
                assert all(r.failed for r in records)
            else:
                with pytest.raises(RuntimeError, match="worker failed"):
                    run_experiment(_config(), threads=2)
            assert get_threads() == 2
        finally:
            set_threads(prior)
        assert seen and set(seen) == {1}

    def test_overlapping_scopes_restore_only_when_the_last_leaves(self):
        get_threads, set_threads = self._blas()
        prior = get_threads()
        set_threads(2)
        try:
            first, second = harness._single_blas_thread(), harness._single_blas_thread()
            first.__enter__()
            second.__enter__()
            first.__exit__(None, None, None)
            assert get_threads() == 1  # the second pool still runs
            second.__exit__(None, None, None)
            assert get_threads() == 2
        finally:
            set_threads(prior)

    def test_concurrent_sweeps_stress(self, monkeypatch):
        get_threads, set_threads = self._blas()
        seen = []
        execute_task = harness._execute_task

        def spy_task(task, X, dist):
            seen.append(get_threads())
            return execute_task(task, X, dist)

        monkeypatch.setattr(harness, "_execute_task", spy_task)
        config = _config(grid=(MatrixShape(8, 40), MatrixShape(12, 60)), replicates=3)
        expected = run_experiment(config, threads=1)
        seen.clear()
        results = []
        callers = [
            threading.Thread(target=lambda: results.append(run_experiment(config, threads=3)))
            for _ in range(6)
        ]
        prior = get_threads()
        set_threads(2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
            assert not any(caller.is_alive() for caller in callers)
            assert get_threads() == 2
        finally:
            sys.setswitchinterval(interval)
            set_threads(prior)
        assert len(results) == len(callers)
        assert all(
            [(r.sort_key(), r.value) for r in got] == [(r.sort_key(), r.value) for r in expected]
            for got in results
        )
        assert set(seen) == {1}

    def test_without_the_library_a_pool_still_runs(self, tmp_path, monkeypatch):
        run_experiment(self._config(), threads=2, out_dir=str(tmp_path / "capped"))
        monkeypatch.setattr(harness, "_openblas", lambda: None)
        run_experiment(self._config(), threads=2, out_dir=str(tmp_path / "plain"))
        capped = read_records(tmp_path / "capped" / "records.csv")
        plain = read_records(tmp_path / "plain" / "records.csv")
        assert [r.sort_key() for r in plain] == [r.sort_key() for r in capped]
        assert not any(r.failed for r in plain)
        for got, want in zip(plain, capped):
            # BLAS's default thread count may move the last bits only
            assert got.value == pytest.approx(want.value, rel=1e-9)


class TestBlasKernel:
    """numpy's OpenBLAS picks its kernel by CPU, and OPENBLAS_CORETYPE makes a
    child process use another one.  records.csv's bytes may differ across
    kernels, but every value agrees within the benchmark's record tolerance."""

    RECORD_RTOL = 1e-9  # perfbench/checks.py: a record against its reference

    @staticmethod
    def _sweep(config_path, out_dir, coretype):
        env = os.environ.copy()
        env.pop("OPENBLAS_CORETYPE", None)
        env.pop("COVSPECTRUM_OUT", None)
        if coretype is not None:
            env["OPENBLAS_CORETYPE"] = coretype
        res = subprocess.run(
            [sys.executable, "-m", "covspectrum", "sweep", "--config", str(config_path),
             "--threads", "2", "--out", str(out_dir)],
            capture_output=True, text=True, env=env, stdin=subprocess.DEVNULL,
        )
        assert res.returncode == 0, res.stderr
        return read_records(out_dir / "records.csv")

    def test_haswell_kernel_agrees_with_the_default_within_record_rtol(self, tmp_path):
        config = _config(
            distribution=gaussian(),
            grid=(MatrixShape(20, 400), MatrixShape(40, 1600)),
            replicates=2,
            tasks=(TaskSpec("lambda_max"), TaskSpec("esd_ks"), TaskSpec("cov_rate", sigma=toeplitz_cov(0.5))),
        )
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config.to_json()))
        default = self._sweep(config_path, tmp_path / "default", None)
        haswell = self._sweep(config_path, tmp_path / "haswell", "Haswell")
        assert [r.sort_key() for r in haswell] == [r.sort_key() for r in default]
        assert len(default) == 12 and not any(r.failed for r in default + haswell)
        for got, want in zip(haswell, default):
            assert sorted(got.aux) == sorted(want.aux)
            assert math.isclose(got.value, want.value, rel_tol=self.RECORD_RTOL)
            for key, value in want.aux.items():
                if isinstance(value, float):
                    assert math.isclose(got.aux[key], value, rel_tol=self.RECORD_RTOL), (got.sort_key(), key)
                else:
                    assert got.aux[key] == value, (got.sort_key(), key)


class TestSummarize:
    def test_single_record(self):
        rec = RunRecord(p=2, n=4, ratio=0.5, replicate=0, task="diag_dev", value=1.5)
        row = summarize([rec])[0]
        assert row.median == 1.5 and row.count == 1 and row.std == 0.0

    def test_lower_median(self):
        recs = [
            RunRecord(p=2, n=4, ratio=0.5, replicate=i, task="t", value=v)
            for i, v in enumerate([1.0, 2.0, 3.0])
        ]
        assert summarize(recs)[0].median == 2.0
        recs.append(RunRecord(p=2, n=4, ratio=0.5, replicate=3, task="t", value=4.0))
        assert summarize(recs)[0].median == 2.0  # lower median of 4 values

    def test_against_sort_oracle(self):
        rng = np.random.default_rng(35)
        values = rng.standard_normal(1000)
        recs = [
            RunRecord(p=1, n=1, ratio=1.0, replicate=i, task="t", value=float(v))
            for i, v in enumerate(values)
        ]
        row = summarize(recs)[0]
        s = np.sort(values)
        assert row.median == s[(len(s) - 1) // 2]
        assert row.min == s[0] and row.max == s[-1]
        assert row.mean == pytest.approx(values.mean(), rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            summarize([])


class TestFitRate:
    @staticmethod
    def _cov_records(ratio_to_value, replicates=1):
        recs = []
        for (p, n), value in ratio_to_value.items():
            for rep in range(replicates):
                recs.append(
                    RunRecord(
                        p=p, n=n, ratio=p / n, replicate=rep, task="cov_rate", value=value
                    )
                )
        return recs

    def test_exact_square_root_law(self):
        recs = self._cov_records(
            {(10, 100): math.sqrt(0.1), (10, 1000): math.sqrt(0.01), (10, 10000): math.sqrt(0.001)}
        )
        fit = fit_rate(recs)
        assert fit.slope == pytest.approx(0.5, abs=1e-12)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)

    def test_constant_errors_give_zero_slope(self):
        recs = self._cov_records({(10, 100): 0.25, (10, 1000): 0.25, (10, 10000): 0.25})
        fit = fit_rate(recs)
        assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_needs_three_ratios(self):
        recs = self._cov_records({(10, 100): 1.0, (10, 1000): 2.0})
        assert fit_rate(recs) is None
        # a ratio whose rows all failed is not usable
        recs.append(RunRecord(p=10, n=10000, ratio=0.001, replicate=0, task="cov_rate",
                              value=math.nan, aux={"error": "ValidationError: boom"}))
        assert fit_rate(recs) is None


class TestTailReport:
    def test_wilson_and_ordering(self):
        recs = []
        for rep in range(20):
            recs.append(
                RunRecord(
                    p=8, n=80, ratio=0.1, replicate=rep, task="lambda_max",
                    value=1.0, aux={"lambda_max_b": 1.5 if rep < 4 else 0.9},
                )
            )
            recs.append(
                RunRecord(
                    p=8, n=800, ratio=0.01, replicate=rep, task="lambda_max",
                    value=1.0, aux={"lambda_max_b": 0.9},
                )
            )
        rows = tail_probability_report(recs, eps=0.3)
        assert [r.ratio for r in rows] == [0.1, 0.01]
        assert rows[0].exceed == 4 and rows[0].total == 20
        assert rows[0].frequency == pytest.approx(0.2)
        assert rows[0].wilson_low < 0.2 < rows[0].wilson_high
        assert rows[1].frequency == 0.0
        assert rows[1].wilson_low == 0.0

    def test_monte_carlo_tail_thins_out(self):
        # ratio 0.2 keeps the event {lambda_max(B) > 1.3} observable at
        # this scale (at ratio 0.1 it is already below ~1%); the frequency
        # must not grow when the ratio shrinks to 0.02
        config = ExperimentConfig(
            distribution=gaussian(),
            grid=(MatrixShape(8, 40), MatrixShape(8, 400)),
            replicates=120,
            master_seed=7,
            tasks=(TaskSpec("lambda_max"),),
        )
        rows = tail_probability_report(run_experiment(config, threads=2))
        assert rows[0].ratio == 0.2
        assert rows[0].exceed > 0
        assert rows[1].frequency < rows[0].frequency


class TestReports:
    @staticmethod
    def _records():
        return [
            RunRecord(
                p=10, n=100, ratio=0.1, replicate=0, task="lambda_max",
                value=1.25, aux={"method": "dense", "wall_ms": 3.5},
            ),
            RunRecord(
                p=10, n=1000, ratio=0.01, replicate=0, task="lambda_max",
                value=1.1, aux={"method": "dense", "wall_ms": 1.0},
            ),
        ]

    def test_schema_golden(self, tmp_path):
        path = tmp_path / "records.csv"
        records_to_csv(self._records(), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "p,n,ratio,replicate,task,value,aux"
        # volatile wall_ms is stripped; aux is canonical JSON
        assert lines[1] == '10,100,0.1,0,lambda_max,1.25,"{""method"":""dense""}"'

    def test_round_trip(self, tmp_path):
        path = tmp_path / "records.csv"
        records_to_csv(self._records(), path)
        back = read_records(path)
        assert len(back) == 2
        assert back[0].p == 10 and back[0].value == 1.25
        assert back[0].aux == {"method": "dense"}

    _finite = st.floats(allow_nan=False, allow_infinity=False)
    _json_value = st.recursive(
        st.none() | st.booleans() | st.integers() | _finite | st.text(),
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
        max_leaves=8,
    )
    _record = st.builds(
        RunRecord,
        p=st.integers(1, 10**6),
        n=st.integers(1, 10**6),
        ratio=_finite,
        replicate=st.integers(0, 10**4),
        task=st.sampled_from(TASK_NAMES),
        value=_finite,
        aux=st.dictionaries(st.text().filter(lambda key: key != "wall_ms"), _json_value, max_size=4),
    )

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(_record, max_size=5))
    def test_round_trip_property(self, tmp_path, records):
        path = tmp_path / "records.csv"
        records_to_csv(records, path)
        assert read_records(path) == records

    def test_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(ValidationError):
            read_records(path)

    def test_emit_csv_and_json(self, tmp_path):
        paths = emit_report(self._records(), "csv", str(tmp_path))
        assert any(p.endswith("report_records.csv") for p in paths)
        assert any(p.endswith("report_summary.csv") for p in paths)
        (json_path,) = emit_report(self._records(), "json", str(tmp_path))
        payload = json.loads(Path(json_path).read_text())
        assert len(payload["records"]) == 2
        assert "wall_ms" not in payload["records"][0]["aux"]

    def test_summary_golden(self, tmp_path):
        # SummaryRow's field names are both the CSV header and the JSON keys
        paths = emit_report(self._records(), "csv", str(tmp_path))
        (summary,) = [p for p in paths if p.endswith("report_summary.csv")]
        lines = Path(summary).read_text().splitlines()
        assert lines[0] == "p,n,task,count,median,mean,std,min,max"
        assert lines[1] == "10,100,lambda_max,1,1.25,1.25,0.0,1.25,1.25"
        (json_path,) = emit_report(self._records(), "json", str(tmp_path))
        rows = json.loads(Path(json_path).read_text())["summary"]
        assert [sorted(row) for row in rows] == [
            ["count", "max", "mean", "median", "min", "n", "p", "std", "task"]
        ] * 2

    def test_emit_empty_csv(self, tmp_path):
        paths = emit_report([], "csv", str(tmp_path))
        lines = Path(paths[0]).read_text().splitlines()
        assert lines == ["p,n,ratio,replicate,task,value,aux"]

    def test_svg_deterministic_and_parseable(self, tmp_path):
        (path1,) = emit_report(self._records(), "svg", str(tmp_path / "one"))
        (path2,) = emit_report(self._records(), "svg", str(tmp_path / "two"))
        body1 = Path(path1).read_text()
        assert body1 == Path(path2).read_text()
        assert 'viewBox="0 0 800 600"' in body1
        # parse back circle coordinates: value decreases with ratio, so the
        # point with larger cx (ratio) must have smaller cy... larger value
        import re

        pts = [
            (float(m.group(1)), float(m.group(2)))
            for m in re.finditer(r'<circle cx="([-\d.]+)" cy="([-\d.]+)"', body1)
        ]
        assert len(pts) == 2
        pts.sort()
        assert pts[0][1] > pts[1][1]  # smaller ratio plots lower (smaller value)

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValidationError):
            emit_report(self._records(), "pdf", str(tmp_path))
