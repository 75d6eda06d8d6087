"""Experiment orchestration: deterministic parallel sweeps.

A sweep runs a task set over a (p, n) grid with R replicates.  Each run
seeds its own stream from (master_seed, p, n, replicate) by avalanche
mixing, so results are independent of scheduling; the persisted CSV is
byte-identical across reruns.  Failures of individual runs become error
rows and never abort the sweep.

Threads: with ``threads >= 2`` and more than one job, cells run on a
thread pool and numpy's bundled OpenBLAS is capped at one thread while
the pool runs (pool threads times BLAS threads would oversubscribe the
cores), so records at any ``threads >= 2`` are a function of the config
for a given BLAS build and CPU kernel.  ``threads = 1`` runs cells in the
calling thread with BLAS's default thread count, which the matrix-free
matvecs need; on a multi-core host its dense values can therefore differ
from pooled ones in the last bits.  numpy's OpenBLAS is the only BLAS the
package calls, so the cap governs every BLAS call of a sweep; where numpy
links another BLAS, no cap is applied.
"""

import ctypes
import functools
import glob
import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, fields

import numpy as np

from .ensemble import (
    DistributionSpec,
    MatrixShape,
    SeedSpec,
    _is_int,
    _reject_unknown,
    distribution_from_json,
    sample_matrix,
)
from .errors import ValidationError
from .momentlab import law_trace_moment
from .normalize import (
    CovarianceSpec,
    build_A,
    build_A1,
    covariance_from_json,
    truncation_pipeline,
)
from .reports import RunRecord, records_to_csv
from .spectral import (
    covariance_error,
    diag_max_dev,
    eigvals_sym,
    ks_distance,
    lambda_max,
)

__all__ = [
    "TASK_NAMES",
    "TaskSpec",
    "ExperimentConfig",
    "run_experiment",
]

TASK_NAMES = (
    "lambda_max",
    "lambda_max_centered",
    "esd_ks",
    "diag_dev",
    "cov_rate",
    "truncation_report",
    "moment_check",
)

_TASK_FIELDS = {"cov_rate": ("name", "sigma"), "moment_check": ("name", "k")}


@dataclass(frozen=True)
class TaskSpec:
    """One task of a sweep; cov_rate carries its Sigma, moment_check its k."""

    name: str
    sigma: CovarianceSpec | None = None
    k: int | None = None

    def __post_init__(self):
        if self.name not in TASK_NAMES:
            raise ValidationError(f"unknown task {self.name!r}")
        if self.name == "cov_rate" and self.sigma is None:
            raise ValidationError("cov_rate requires a covariance spec")
        if self.name == "moment_check" and not (_is_int(self.k) and self.k >= 1):
            raise ValidationError("moment_check requires an integer k >= 1")

    @classmethod
    def from_json(cls, obj) -> "TaskSpec":
        if isinstance(obj, str):
            return cls(obj)
        if not isinstance(obj, dict) or not isinstance(obj.get("name"), str):
            raise ValidationError("task must be a name or a dict with a string 'name'")
        _reject_unknown(obj, _TASK_FIELDS.get(obj["name"], ("name",)), "task")
        sigma = covariance_from_json(obj["sigma"]) if "sigma" in obj else None
        return cls(obj["name"], sigma=sigma, k=obj.get("k"))

    def to_json(self):
        if self.name == "cov_rate":
            return {"name": self.name, "sigma": self.sigma.to_json()}
        if self.name == "moment_check":
            return {"name": self.name, "k": self.k}
        return self.name


@dataclass(frozen=True)
class ExperimentConfig:
    distribution: DistributionSpec
    grid: tuple
    replicates: int
    master_seed: int
    tasks: tuple = ()

    def __post_init__(self):
        if len(self.grid) == 0:
            raise ValidationError("grid must be nonempty")
        if len(set(self.grid)) != len(self.grid):
            raise ValidationError("duplicate (p, n) shapes in grid would break record uniqueness")
        if not (_is_int(self.replicates) and self.replicates >= 1):
            raise ValidationError("replicates must be an integer >= 1")
        SeedSpec(self.master_seed)  # a bool, a float or an out-of-range seed fails here
        names = [t.name for t in self.tasks]
        if len(names) != len(set(names)):
            raise ValidationError("duplicate task names would break record uniqueness")

    @classmethod
    def from_json(cls, obj) -> "ExperimentConfig":
        if not isinstance(obj, dict):
            raise ValidationError("experiment config must be a JSON object")
        _reject_unknown(obj, [f.name for f in fields(cls)], "experiment config")
        try:
            return cls(
                distribution=distribution_from_json(obj["distribution"]),
                grid=tuple(MatrixShape(p, n) for p, n in obj["grid"]),
                replicates=obj.get("replicates", 1),
                master_seed=obj.get("master_seed", 0),
                tasks=tuple(TaskSpec.from_json(t) for t in obj.get("tasks", ())),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed experiment config: {exc}") from exc

    def to_json(self) -> dict:
        return {
            "distribution": self.distribution.to_json(),
            "grid": [[s.p, s.n] for s in self.grid],
            "replicates": self.replicates,
            "master_seed": self.master_seed,
            "tasks": [t.to_json() for t in self.tasks],
        }


def _run_tasks(config: ExperimentConfig, shape: MatrixShape, replicate: int) -> list:
    if not config.tasks:
        return []
    X = sample_matrix(config.distribution, shape, SeedSpec(config.master_seed), replicate)
    ratio = shape.p / shape.n
    records = []
    for task in config.tasks:
        start = time.perf_counter()
        try:
            value, aux = _execute_task(task, X, config.distribution)
        except Exception as exc:  # error rows must never abort the sweep
            value, aux = math.nan, {"error": f"{type(exc).__name__}: {exc}"}
        aux["wall_ms"] = (time.perf_counter() - start) * 1000.0
        records.append(
            RunRecord(
                p=shape.p,
                n=shape.n,
                ratio=ratio,
                replicate=replicate,
                task=task.name,
                value=value,
                aux=aux,
            )
        )
    return records


def _execute_task(task: TaskSpec, X: np.ndarray, dist: DistributionSpec):
    name = task.name
    p, n = X.shape
    if name == "lambda_max":
        return lambda_max(X)
    if name == "lambda_max_centered":
        return float(eigvals_sym(build_A1(X))[-1]), {"method": "dense"}
    if name == "esd_ks":
        eigs = eigvals_sym(build_A(X))
        return float(ks_distance(eigs)), {"lambda_max": float(eigs[-1])}
    if name == "diag_dev":
        return float(diag_max_dev(X)), {}
    if name == "cov_rate":
        err, bound, sigma_norm = covariance_error(X, task.sigma)
        return err, {"bound": bound, "sigma_norm": sigma_norm}
    if name == "truncation_report":
        _, report = truncation_pipeline(X)
        return float(report.fraction_truncated), {
            "threshold": report.threshold,
            "post_mean": report.post_mean,
            "post_sigma2": report.post_sigma2,
        }
    # moment_check
    return law_trace_moment(dist, p, n, task.k), {"k": task.k}


@functools.cache
def _openblas():
    """(get, set) thread-count functions of numpy's bundled OpenBLAS, or None."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))):
        try:
            lib = ctypes.CDLL(path)
            get_threads = lib.scipy_openblas_get_num_threads64_
            set_threads = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        return get_threads, set_threads
    return None


# OpenBLAS's thread count is global to the process, so overlapping pools
# share one cap: the first to enter saves the count, the last to leave
# restores it.
_blas_cap_lock = threading.Lock()
_blas_cap = {"pools": 0, "saved": None}


@contextmanager
def _single_blas_thread():
    """Run the body with numpy's OpenBLAS at one thread; a no-op without it."""
    blas = _openblas()
    if blas is None:
        yield
        return
    get_threads, set_threads = blas
    with _blas_cap_lock:
        if _blas_cap["pools"] == 0:
            _blas_cap["saved"] = get_threads()
            set_threads(1)
        _blas_cap["pools"] += 1
    try:
        yield
    finally:
        with _blas_cap_lock:
            _blas_cap["pools"] -= 1
            if _blas_cap["pools"] == 0:
                set_threads(_blas_cap["saved"])


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_experiment(config: ExperimentConfig, threads: int = 0, out_dir: str | None = None) -> list:
    """Execute every (shape, replicate, task); persist a canonical CSV.

    threads = 0 picks one thread per CPU this process may run on
    (``os.sched_getaffinity``, or ``os.cpu_count()`` where the platform
    has no affinity call, as on macOS and Windows).  Each run is a pure
    function of its derived seed and aggregation sorts by (p, n,
    replicate, task), so the records do not depend on scheduling.  With threads >= 2 and more than
    one job the cells run on a pool with numpy's OpenBLAS at one thread
    (restored on return, also on error), so the records are the same bytes
    at every threads >= 2 for a given BLAS build and CPU kernel.
    threads = 1 keeps BLAS's own threads; on a multi-core host its dense
    values may differ from pooled ones in the last bits.
    """
    if threads < 0:
        raise ValidationError(f"threads must be >= 0 (0 = one per CPU), got {threads}")
    jobs = [(shape, rep) for shape in config.grid for rep in range(config.replicates)]
    if threads == 0:
        threads = _usable_cpus()
    if threads == 1 or len(jobs) <= 1:
        nested = [_run_tasks(config, shape, rep) for shape, rep in jobs]
    else:
        with _single_blas_thread(), ThreadPoolExecutor(max_workers=threads) as pool:
            nested = list(pool.map(lambda job: _run_tasks(config, *job), jobs))
    records = [rec for batch in nested for rec in batch]
    records.sort(key=RunRecord.sort_key)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        records_to_csv(records, os.path.join(out_dir, "records.csv"))
    return records
