"""Tests for sweep orchestration, statistics, and report emission."""

import json
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from covspectrum import harness, spectral
from covspectrum.ensemble import KINDS, DistributionSpec, MatrixShape, distribution_from_json
from covspectrum.errors import ValidationError
from covspectrum.harness import (
    TASK_NAMES,
    ExperimentConfig,
    TaskSpec,
    run_experiment,
)
from covspectrum.momentlab import IndexCircuit
from covspectrum.normalize import CovarianceSpec, covariance_from_json
from covspectrum.reports import (
    _BLOCKS,
    CSV_COLUMNS,
    RunRecord,
    edge_report,
    emit_report,
    fit_rate,
    read_records,
    records_to_csv,
    summarize,
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


_TOEPLITZ = {"kind": "toeplitz", "rho": 0.5}


def _config(**kwargs):
    base = dict(
        distribution=DistributionSpec("rademacher"),
        grid=(MatrixShape(10, 100),),
        replicates=2,
        master_seed=7,
        tasks=(TaskSpec("lambda_max"),),
    )
    base.update(kwargs)
    return ExperimentConfig(**base)


class TestConfig:
    def test_parses_literal_json(self):
        config = ExperimentConfig.from_json({
            "distribution": {"kind": "student-t", "df": 5},
            "grid": [[10, 100], [20, 400]],
            "replicates": 2,
            "master_seed": 7,
            "tasks": ["lambda_max", {"name": "cov_rate", "sigma": _TOEPLITZ}, {"name": "moment_check", "k": 2}],
        })
        assert config.distribution == DistributionSpec("student-t", df=5)
        assert config.grid == (MatrixShape(10, 100), MatrixShape(20, 400))
        assert (config.replicates, config.master_seed) == (2, 7)
        assert config.tasks == (
            TaskSpec("lambda_max"),
            TaskSpec("cov_rate", sigma=CovarianceSpec("toeplitz", rho=0.5)),
            TaskSpec("moment_check", k=2),
        )

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
        with pytest.raises(ValidationError, match="lambda_max takes no k"):
            TaskSpec("lambda_max", k=3)
        with pytest.raises(ValidationError, match="moment_check takes no sigma"):
            TaskSpec("moment_check", k=2, sigma=CovarianceSpec("identity"))
        with pytest.raises(ValidationError, match=r"unknown task fields \['k'\]"):
            TaskSpec.from_json({"name": "lambda_max", "k": None})
        with pytest.raises(ValidationError, match=r"unknown task fields \['sigma'\]"):
            TaskSpec.from_json({"name": "moment_check", "k": 2, "sigma": {"kind": "identity"}})
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
        # nor does a task set whose tasks never read X
        calls = []
        monkeypatch.setattr(harness, "sample_matrix", lambda *args: calls.append(args))
        for tasks in [(), (TaskSpec("moment_check", k=2),)]:
            config = _config(grid=(MatrixShape(300, 3000),), replicates=3, tasks=tasks)
            assert len(run_experiment(config, threads=1)) == 3 * len(tasks)
        assert calls == []

    def test_serial_sweep_holds_one_matrix_at_a_time(self, monkeypatch):
        # each cell's X must be freed when the cell ends, before the next cell draws
        drawn, alive = [], []
        sample = harness.sample_matrix

        def spy(*args):
            alive.append(sum(ref() is not None for ref in drawn))
            X = sample(*args)
            drawn.append(weakref.ref(X))
            return X

        monkeypatch.setattr(harness, "sample_matrix", spy)
        config = _config(
            grid=(MatrixShape(10, 100), MatrixShape(20, 200)),
            tasks=(TaskSpec("lambda_max"), TaskSpec("diag_dev"), TaskSpec("moment_check", k=2)),
        )
        assert not any(r.failed for r in run_experiment(config, threads=1))
        assert alive == [0, 0, 0, 0]

    def test_pooled_cells_draw_at_the_same_time(self, monkeypatch):
        # a lock shared by all cells around the draw (functools.cached_property's, before
        # Python 3.12) would keep the second draw waiting until the first one returned
        barrier = threading.Barrier(2, timeout=5)
        sample = harness.sample_matrix

        def spy(*args):
            barrier.wait()
            return sample(*args)

        monkeypatch.setattr(harness, "sample_matrix", spy)
        assert not any(r.failed for r in run_experiment(_config(), threads=2))

    @pytest.mark.parametrize("threads", [1, 2])
    def test_cells_run_with_overflow_warnings_off(self, monkeypatch, threads):
        # the test run turns warnings into errors, so an overflow warning would
        # be an error row; a pool thread does not inherit the caller's errstate
        def overflow(task, cell):
            return float(np.square(np.float64(1e200))), {}

        monkeypatch.setitem(harness._TASKS, "lambda_max", harness._Task((), overflow))
        records = run_experiment(_config(), threads=threads)
        assert [(r.failed, r.value) for r in records] == [(False, math.inf)] * 2

    def test_records_file_reads_back_as_the_returned_records(self, tmp_path):
        config = _config(
            distribution=DistributionSpec("student-t", df=5),
            grid=(MatrixShape(10, 100), MatrixShape(20, 400)),
            tasks=(
                TaskSpec("lambda_max"),
                TaskSpec("esd_ks"),
                TaskSpec("cov_rate", sigma=covariance_from_json(_TOEPLITZ)),
                TaskSpec("truncation_report"),
                TaskSpec("moment_check", k=2),
            ),
        )
        records = run_experiment(config, threads=2, out_dir=str(tmp_path))
        assert len(records) == 20 and not any(r.failed for r in records)
        assert read_records(tmp_path / "records.csv") == records

    @pytest.mark.parametrize("threads", [1, 2])
    def test_unsampleable_cell_gives_error_rows_and_keeps_the_others(self, tmp_path, threads):
        # numpy refuses a 2^40 x 2^40 shape before it allocates anything
        # two tasks read X, so the failing cell's second one samples again and fails the same way
        tasks = (TaskSpec("diag_dev"), TaskSpec("lambda_max"), TaskSpec("moment_check", k=2))
        config = _config(grid=(MatrixShape(10, 100), MatrixShape(2**40, 2**40)), tasks=tasks)
        records = run_experiment(config, threads=threads, out_dir=str(tmp_path))
        good = [r for r in records if r.p == 10]
        bad = [r for r in records if r.p == 2**40]
        assert good == run_experiment(replace(config, grid=config.grid[:1]), threads=threads)
        assert [(r.replicate, r.task) for r in bad] == [
            (rep, task) for rep in (0, 1) for task in ("diag_dev", "lambda_max", "moment_check")
        ]
        for r in bad:
            assert math.isnan(r.value)
            if r.task != "moment_check":
                assert r.aux["error"].startswith("ValidationError: cannot sample a 1099511627776 x 1099511627776")
            else:  # moment_check never reads X, so it reports its own outcome
                assert r.aux["error"] == (
                    "ResourceError: (p*n)^k = (1099511627776*1099511627776)^2 exceeds the 1e+08 term budget"
                )
        assert len(read_records(tmp_path / "records.csv")) == 12

    @pytest.mark.parametrize("threads", [1, 2])
    def test_only_lambda_max_switches_above_the_dense_limit(self, monkeypatch, threads):
        config = _config(
            distribution=DistributionSpec("gaussian"),
            grid=(MatrixShape(20, 200),),
            tasks=(TaskSpec("lambda_max"), TaskSpec("esd_ks"), TaskSpec("lambda_max_centered")),
        )

        def by_task(records):
            out = {}
            for r in records:
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
            distribution=DistributionSpec("gaussian"),
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
        "shape, k",
        [
            # the 40,000 gaussian moments alone would take minutes
            ((10, 100), 20000),
            # (pn)^k beyond the double range
            ((3, 30), 3000),
        ],
    )
    def test_moment_check_over_budget_is_a_quick_error_row(self, shape, k):
        config = _config(
            distribution=DistributionSpec("gaussian"),
            grid=(MatrixShape(*shape),),
            replicates=1,
            tasks=(TaskSpec("moment_check", k=k),),
        )
        start = time.perf_counter()
        (record,) = run_experiment(config, threads=1)
        assert time.perf_counter() - start < 1.0
        p, n = shape
        assert record.aux["error"] == f"ResourceError: (p*n)^k = ({p}*{n})^{k} exceeds the 1e+08 term budget"

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
            distribution=DistributionSpec("gaussian"),
            grid=(MatrixShape(10, 200),),
            replicates=1,
            tasks=(
                TaskSpec("truncation_report"),
                TaskSpec("cov_rate", sigma=covariance_from_json(_TOEPLITZ)),
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


class TestTruncationTask:
    """The sweep's truncation_report reads X in blocks, without a p x n copy."""

    @pytest.mark.parametrize("p, n", [(200, 4000), (100, 10000)])
    def test_six_task_cell_peaks_near_the_input(self, p, n):
        tasks = tuple(
            TaskSpec(name) for name in ("lambda_max", "lambda_max_centered", "esd_ks", "diag_dev", "truncation_report")
        ) + (TaskSpec("cov_rate", sigma=covariance_from_json(_TOEPLITZ)),)
        config = _config(
            distribution=DistributionSpec("gaussian"), grid=(MatrixShape(p, n),), replicates=1, tasks=tasks
        )
        tracemalloc.start()
        try:
            records = run_experiment(config, threads=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not any(r.failed for r in records)
        # X itself plus block and p x p temporaries; a p x n copy would pass 2x
        assert peak <= 1.5 * p * n * 8

    # The Gaussian cells truncate nothing, so every block is read in place;
    # the t(3) cells copy blocks.  Pooled cells run OpenBLAS at one thread,
    # so a BLAS reduction would round differently at threads=1 and 2.
    @pytest.mark.parametrize(
        "spec, grid, truncates",
        [
            (DistributionSpec("student-t", df=3), (MatrixShape(30, 900), MatrixShape(60, 400)), True),
            (DistributionSpec("gaussian"), (MatrixShape(200, 4000), MatrixShape(100, 10000)), False),
        ],
        ids=["student-t3", "gaussian"],
    )
    def test_records_do_not_depend_on_threads(self, spec, grid, truncates):
        config = _config(distribution=spec, grid=grid, replicates=2, tasks=(TaskSpec("truncation_report"),))
        one = run_experiment(config, threads=1)
        assert all((r.aux["count_truncated"] > 0) == truncates for r in one)
        assert one == run_experiment(config, threads=2)


class TestPoolBlasThreads:
    """Pooled sweeps run numpy's OpenBLAS at one thread, and only while the pool runs."""

    # Big enough for OpenBLAS to thread its Gram products and eigensolves.
    @staticmethod
    def _config():
        return _config(
            distribution=DistributionSpec("gaussian"),
            grid=(MatrixShape(100, 10000), MatrixShape(200, 4000)),
            replicates=2,
            tasks=(
                TaskSpec("lambda_max"),
                TaskSpec("esd_ks"),
                TaskSpec("cov_rate", sigma=covariance_from_json(_TOEPLITZ)),
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
        fields, evaluate = harness._TASKS["lambda_max"]
        records = harness._Cell.records

        def spy_task(task, cell):
            seen.append(get_threads())
            if failure == "task":
                raise RuntimeError("task failed")
            return evaluate(task, cell)

        def spy_worker(cell):
            records(cell)
            raise RuntimeError("worker failed")

        monkeypatch.setitem(harness._TASKS, "lambda_max", harness._Task(fields, spy_task))
        if failure == "worker":
            monkeypatch.setattr(harness._Cell, "records", spy_worker)
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
        fields, evaluate = harness._TASKS["lambda_max"]

        def spy_task(task, cell):
            seen.append(get_threads())
            return evaluate(task, cell)

        monkeypatch.setitem(harness._TASKS, "lambda_max", harness._Task(fields, spy_task))
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
        config = {
            "distribution": "gaussian",
            "grid": [[20, 400], [40, 1600]],
            "replicates": 2,
            "master_seed": 7,
            "tasks": ["lambda_max", "esd_ks", {"name": "cov_rate", "sigma": _TOEPLITZ}],
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
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
        rec = RunRecord(p=2, n=4, replicate=0, task="diag_dev", value=1.5)
        row = summarize([rec])[0]
        assert row.median == 1.5 and row.count == 1 and row.std == 0.0

    def test_lower_median(self):
        recs = [
            RunRecord(p=2, n=4, replicate=i, task="t", value=v)
            for i, v in enumerate([1.0, 2.0, 3.0])
        ]
        assert summarize(recs)[0].median == 2.0
        recs.append(RunRecord(p=2, n=4, replicate=3, task="t", value=4.0))
        assert summarize(recs)[0].median == 2.0  # lower median of 4 values

    def test_against_sort_oracle(self):
        rng = np.random.default_rng(35)
        values = rng.standard_normal(1000)
        recs = [
            RunRecord(p=1, n=1, replicate=i, task="t", value=float(v))
            for i, v in enumerate(values)
        ]
        row = summarize(recs)[0]
        s = np.sort(values)
        assert row.median == s[(len(s) - 1) // 2]
        assert row.min == s[0] and row.max == s[-1]
        assert row.mean == pytest.approx(values.mean(), rel=1e-12)

    def test_empty_gives_no_rows(self):
        assert summarize([]) == []

    def test_values_near_the_double_limit_keep_a_finite_mean_and_std(self):
        # no RuntimeWarning, and the order statistics stay exact
        cases = [
            ([1.7e308, 1.6e308, 1.5e308], 1.6e308, 1e307),  # the sum overflows
            ([-1e308, 1e308], 0.0, math.sqrt(2) * 1e308),  # the squared deviations overflow
            ([-1.7e308, 1.7e308], 0.0, math.inf),  # the true std is beyond the double range
            ([1e-200, 2e-200, 3e-200], 2e-200, 1e-200),  # the squared deviations underflow
        ]
        for values, mean, std in cases:
            recs = [RunRecord(p=4, n=8, replicate=i, task="cov_rate", value=v) for i, v in enumerate(values)]
            (row,) = summarize(recs)
            assert row.mean == pytest.approx(mean, rel=1e-15, abs=0.0)
            assert row.std == pytest.approx(std, rel=1e-15, abs=0.0)
            low = sorted(values)
            assert (row.median, row.min, row.max) == (low[(len(low) - 1) // 2], low[0], low[-1])


class TestFitRate:
    @staticmethod
    def _cov_records(ratio_to_value, replicates=1):
        recs = []
        for (p, n), value in ratio_to_value.items():
            for rep in range(replicates):
                recs.append(RunRecord(p=p, n=n, replicate=rep, task="cov_rate", value=value))
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
        recs.append(RunRecord(p=10, n=10000, replicate=0, task="cov_rate",
                              value=math.nan, aux={"error": "ValidationError: boom"}))
        assert fit_rate(recs) is None

    def test_fits_the_summary_medians(self):
        # a failed row with a finite value and a NaN row must both be left out
        recs = self._cov_records({(10, 100): 0.3, (10, 1000): 0.1, (10, 10000): 0.04}, replicates=3)
        recs = [replace(r, value=r.value * (1 + r.replicate / 10)) for r in recs]
        recs += [
            RunRecord(p=10, n=100, replicate=3, task="cov_rate", value=1e-9,
                      aux={"error": "ValidationError: boom"}),
            RunRecord(p=10, n=1000, replicate=3, task="cov_rate", value=math.nan),
            RunRecord(p=10, n=100, replicate=0, task="diag_dev", value=5.0),
        ]
        rows = [row for row in summarize(recs) if row.task == "cov_rate"]
        assert [row.count for row in rows] == [3, 3, 3]
        assert fit_rate(recs).points == tuple(
            sorted((math.log(row.p / row.n), math.log(row.median)) for row in rows)
        )
        assert fit_rate(recs).points[-1] == (math.log(0.1), math.log(0.3 * 1.1))


class TestEdgeReport:
    @staticmethod
    def _rec(p, n, replicate, value, task="lambda_max", **aux):
        return RunRecord(p=p, n=n, replicate=replicate, task=task, value=value, aux=aux)

    def test_wilson_and_ordering(self):
        recs = []
        for rep in range(20):
            recs.append(self._rec(8, 80, rep, 1.0, lambda_max_b=1.5 if rep < 4 else 0.9))
            recs.append(self._rec(8, 800, rep, 1.0, lambda_max_b=0.9))
        rows = edge_report(recs)
        assert [r.p / r.n for r in rows] == [0.1, 0.01]
        assert rows[0].exceed == 4 and rows[0].dense == 20
        assert rows[0].frequency == pytest.approx(0.2)
        assert rows[0].wilson_low < 0.2 < rows[0].wilson_high
        assert rows[1].frequency == 0.0
        assert rows[1].wilson_low == 0.0

    def test_monte_carlo_tail_thins_out(self):
        # ratio 0.2 keeps the event {lambda_max(B) > 1.3} observable at
        # this scale (at ratio 0.1 it is already below ~1%); the frequency
        # must not grow when the ratio shrinks to 0.02
        config = ExperimentConfig(
            distribution=DistributionSpec("gaussian"),
            grid=(MatrixShape(8, 40), MatrixShape(8, 400)),
            replicates=120,
            master_seed=7,
            tasks=(TaskSpec("lambda_max"),),
        )
        rows = edge_report(run_experiment(config, threads=2))
        assert rows[0].p / rows[0].n == 0.2
        assert rows[0].exceed > 0
        assert rows[1].frequency < rows[0].frequency

    def test_lower_median_against_the_edge(self):
        rec = self._rec
        recs = [
            # both methods count; a failed row and other tasks do not
            rec(100, 10000, 0, 1.25, method="dense", lambda_max_b=1.0),
            rec(100, 10000, 1, 0.75, method="matfree", iterations=40),
            rec(100, 10000, 2, 1.5, method="matfree", iterations=41),
            rec(100, 10000, 3, 1.0, method="dense", lambda_max_b=0.5),
            rec(100, 10000, 4, math.nan, error="ConvergenceError: boom"),
            rec(100, 10000, 0, 9.0, task="diag_dev"),
            rec(100, 400, 0, 1.125, method="dense", lambda_max_b=1.0),
        ]
        rows = edge_report(recs)
        assert [(r.p, r.n, r.count, r.median, r.edge) for r in rows] == [
            (100, 400, 1, 1.125, 1.25),
            (100, 10000, 4, 1.0, 1.05),
        ]
        assert [(r.median_minus_edge, r.median_minus_one) for r in rows] == [
            (1.125 - 1.25, 0.125),
            (1.0 - 1.05, 0.0),
        ]

    def test_mean_shift_against_the_law(self):
        rec = self._rec
        recs = [
            # dense lambda_max rows count; failed, matfree and other-task rows do not
            rec(10, 1000, 0, 1.5, method="dense", lambda_max_b=1.25),
            rec(10, 1000, 1, 1.5, method="dense", lambda_max_b=1.0),
            rec(10, 1000, 2, 1.0, method="matfree", iterations=40),
            rec(10, 1000, 3, math.nan, error="ConvergenceError: boom"),
            rec(10, 1000, 0, 9.0, task="diag_dev"),
            rec(10, 100, 0, 1.25, method="dense", lambda_max_b=1.25),
        ]
        gaussian = DistributionSpec("gaussian")
        rows = edge_report(recs, gaussian)
        assert [(r.p, r.n, r.count, r.dense, r.mean_shift, r.std_error) for r in rows] == [
            (10, 100, 1, 1, 0.0, 0.0),
            (10, 1000, 3, 2, 0.375, 0.125),
        ]
        assert [(r.implied_fourth_moment, r.predicted_shift) for r in rows] == [(1.0, 0.1), (8.5, 0.1)]
        assert [r.z for r in rows] == [None, (0.375 - 0.1) / 0.125]  # no spread, no z
        for law in (None, DistributionSpec("student-t", df=4)):  # no law, or an infinite E X^4
            assert [(r.predicted_shift, r.z) for r in edge_report(recs, law)] == [(None, None)] * 2
            assert [r.mean_shift for r in edge_report(recs, law)] == [r.mean_shift for r in rows]

    def test_dense_fields_read_only_records_with_both_eigenvalues_finite(self):
        # a matrix-free shape has a median but no dense row: dense 0, exceed 0
        # and None after them, law or no law; a non-finite value or
        # lambda_max_b leaves its record out of the tail and the shift alike
        rec = self._rec
        recs = [
            rec(10, 100, 0, 1.5, method="dense", lambda_max_b=1.5),
            rec(10, 100, 1, math.nan, method="dense", lambda_max_b=1.5),
            rec(10, 100, 2, 1.5, method="dense", lambda_max_b=None),
            rec(2050, 4100, 0, 1.25, method="matfree", iterations=40),
            rec(2050, 4100, 1, 1.5, method="matfree", iterations=41),
        ]
        rows = edge_report(recs, DistributionSpec("gaussian"))
        assert [(r.p, r.count, r.median, r.dense, r.exceed) for r in rows] == [
            (2050, 2, 1.25, 0, 0),
            (10, 2, 1.5, 1, 1),
        ]
        assert list(vars(rows[0]).values())[9:] == [None] * 8
        assert (rows[1].frequency, rows[1].mean_shift, rows[1].predicted_shift) == (1.0, 0.0, 0.1)

    @pytest.mark.parametrize(
        "law, implied",
        [
            ({"kind": "rademacher"}, ((1.0, 1.0), (1.0, 1.0))),
            ({"kind": "gaussian"}, ((2.4, 4.3), (2.3, 4.5))),
            ({"kind": "two-point", "q": 0.1}, ((7.2, 11.0), (7.6, 10.6))),
            ({"kind": "centered-exponential"}, ((7.5, 13.5), (8.5, 12.5))),
        ],
        ids=["rademacher", "gaussian", "two-point", "centered-exponential"],
    )
    def test_implied_fourth_moment_on_real_sweeps(self, law, implied):
        # E X^4 is 1, 3, 8.11 and 9.  Over seeds 101-112 (the pinned seed is
        # 27) the implied E X^4 at p = 50 and 100 was 3.04-3.62 and 3.12-3.86
        # (Gaussian), 8.50-9.94 and 8.45-9.82 (two-point) and 9.12-11.39 and
        # 9.85-11.01 (exponential): about 5 of the seeds' standard deviations
        # around their mean.  z is not asserted: where max D nears 1/2 the
        # shift outgrows (E X^4 - 1)/(2p), and the exponential's z reached 4.5.
        spec = distribution_from_json(law)
        config = ExperimentConfig(
            distribution=spec,
            grid=(MatrixShape(50, 2500), MatrixShape(100, 10000)),
            replicates=100,
            master_seed=27,
            tasks=(TaskSpec("lambda_max"),),
        )
        rows = edge_report(run_experiment(config, threads=2), spec)
        assert [(r.p, r.count, r.dense) for r in rows] == [(50, 100, 100), (100, 100, 100)]
        for row, (low, high) in zip(rows, implied):
            assert low <= row.implied_fourth_moment <= high, row
            assert row.predicted_shift == (spec.moment(4) - 1) / (2 * row.p)
        if spec.kind == "rademacher":  # A = B bit for bit: the diagonal of A is exactly 0
            assert [(r.mean_shift, r.z) for r in rows] == [(0.0, None)] * 2


def test_every_example_config_parses():
    paths = sorted((Path(__file__).parents[1] / "examples").glob("**/*.json"))
    assert paths
    for path in paths:
        ExperimentConfig.from_json(json.loads(path.read_text()))


class TestReportBlocks:
    @pytest.mark.parametrize("name", sorted(_BLOCKS))
    def test_no_records_give_no_rows(self, name):
        assert _BLOCKS[name]([]) == []

    def test_each_block_is_rows_of_one_flat_frozen_dataclass(self):
        config = ExperimentConfig(
            distribution=DistributionSpec("gaussian"),
            grid=(MatrixShape(8, 40), MatrixShape(8, 400)),
            replicates=3,
            master_seed=5,
            tasks=(TaskSpec("lambda_max"), TaskSpec("diag_dev")),
        )
        records = run_experiment(config, threads=1)
        for name, derive in _BLOCKS.items():
            rows = derive(records, config.distribution)
            assert rows, name
            (row_type,) = {type(row) for row in rows}
            assert row_type.__dataclass_params__.frozen, name
            for row in rows:
                assert {type(value) for value in vars(row).values()} <= {int, float, str}, (name, row)


class TestReports:
    @staticmethod
    def _records():
        return [
            RunRecord(
                p=10, n=100, replicate=0, task="lambda_max",
                value=1.25, aux={"method": "dense", "lambda_max_b": 0.5},
            ),
            RunRecord(
                p=10, n=1000, replicate=0, task="lambda_max",
                value=1.1, aux={"method": "dense", "lambda_max_b": 0.25},
            ),
        ]

    def test_schema_golden(self, tmp_path):
        path = tmp_path / "records.csv"
        records_to_csv(self._records(), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "p,n,ratio,replicate,task,value,aux"
        # aux is canonical JSON: sorted keys, no spaces
        assert lines[1] == '10,100,0.1,0,lambda_max,1.25,"{""lambda_max_b"":0.5,""method"":""dense""}"'

    def test_round_trip(self, tmp_path):
        path = tmp_path / "records.csv"
        records_to_csv(self._records(), path)
        back = read_records(path)
        assert back == self._records()
        assert back[0].aux == {"method": "dense", "lambda_max_b": 0.5}

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
        replicate=st.integers(0, 10**4),
        task=st.sampled_from(TASK_NAMES),
        value=_finite,
        aux=st.dictionaries(st.text(), _json_value, max_size=4),
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
        # the records are not written again: only their blocks are, and the
        # dense lambda_max rows carry lambda_max_b, so edge has its tail columns
        paths = emit_report(self._records(), "csv", str(tmp_path))
        names = ("edge", "summary")
        assert paths == [str(tmp_path / f"report_{name}.csv") for name in names]
        edge = Path(paths[0]).read_text().splitlines()
        assert edge[0] == (
            "p,n,count,median,edge,median_minus_edge,median_minus_one,dense,exceed,frequency,wilson_low,"
            "wilson_high,mean_shift,std_error,implied_fourth_moment,predicted_shift,z"
        )
        assert [line.split(",")[:2] + line.split(",")[7:10] for line in edge[1:]] == [
            ["10", "100", "1", "0", "0.0"],
            ["10", "1000", "1", "0", "0.0"],
        ]
        (json_path,) = emit_report(self._records(), "json", str(tmp_path))
        payload = json.loads(Path(json_path).read_text())
        assert payload == {
            "edge": [vars(row) for row in edge_report(self._records())],
            "summary": [vars(row) for row in summarize(self._records())],
        }

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
        # a block with no rows writes nothing: no csv file, no json key
        failed = RunRecord(p=10, n=100, replicate=0, task="diag_dev", value=math.nan, aux={"error": "boom"})
        for records in ([], [failed]):
            assert emit_report(records, "csv", str(tmp_path)) == []
            assert os.listdir(tmp_path) == []
        (json_path,) = emit_report([failed], "json", str(tmp_path))
        assert json.loads(Path(json_path).read_text()) == {}

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
