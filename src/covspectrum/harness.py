"""Experiment orchestration: deterministic parallel sweeps.

A sweep runs a task set over a (p, n) grid with R replicates.  Each run
seeds its own stream from (master_seed, p, n, replicate) by avalanche
mixing, so the records do not depend on scheduling; the CLI, not the
harness, writes them.  Each (p, n, replicate) cell gives its tasks
the law, shape, seed and X, drawn by the first task that reads it.  A task
that fails becomes an error row, and a cell that cannot be sampled gives
each task that reads X an error row; neither aborts the sweep.  A cell
runs under the CLI's overflow rule itself: pool threads do not inherit
numpy's error state.  ``run_tasks`` runs the same task evaluators on a
cell that already holds a user's X, as the CLI's ``tasks`` command does.

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
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from typing import Callable, NamedTuple

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
    truncation_report,
)
from .reports import RunRecord
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
    "run_tasks",
]


# Task evaluators read what they need of the cell and call each layer by its module global, which a tracer patches.
def _lambda_max(task, cell):
    return lambda_max(cell.X)


def _lambda_max_centered(task, cell):
    return float(eigvals_sym(build_A1(cell.X))[-1]), {"method": "dense"}


def _esd_ks(task, cell):
    eigs = eigvals_sym(build_A(cell.X))
    return float(ks_distance(eigs)), {"lambda_max": float(eigs[-1])}


def _diag_dev(task, cell):
    return float(diag_max_dev(cell.X)), {}


def _cov_rate(task, cell):
    err, bound, sigma_norm = covariance_error(cell.X, task.sigma)
    return err, {"bound": bound, "sigma_norm": sigma_norm}


def _truncation_report(task, cell):
    aux = asdict(truncation_report(cell.X))
    return float(aux.pop("fraction_truncated")), aux


def _moment_check(task, cell):
    return law_trace_moment(cell.config.distribution, cell.shape.p, cell.shape.n, task.k), {"k": task.k}


class _Task(NamedTuple):
    fields: tuple  # the JSON fields it takes besides "name"; each is required
    evaluate: Callable  # (task, _Cell) -> (value, aux)


_TASKS = {
    "lambda_max": _Task((), _lambda_max),
    "lambda_max_centered": _Task((), _lambda_max_centered),
    "esd_ks": _Task((), _esd_ks),
    "diag_dev": _Task((), _diag_dev),
    "cov_rate": _Task(("sigma",), _cov_rate),
    "truncation_report": _Task((), _truncation_report),
    "moment_check": _Task(("k",), _moment_check),
}
TASK_NAMES = tuple(_TASKS)


@dataclass(frozen=True)
class TaskSpec:
    """One task of a sweep; ``_TASKS`` names the fields each task takes."""

    name: str
    sigma: CovarianceSpec | None = None
    k: int | None = None

    def __post_init__(self):
        if self.name not in _TASKS:
            raise ValidationError(f"unknown task {self.name!r}")
        takes = _TASKS[self.name].fields
        for field, value in (("sigma", self.sigma), ("k", self.k)):
            if (field in takes) != (value is not None):
                raise ValidationError(f"{self.name} {'requires' if field in takes else 'takes no'} {field}")
        if "k" in takes and not (_is_int(self.k) and self.k >= 1):
            raise ValidationError(f"{self.name} requires an integer k >= 1")

    @classmethod
    def from_json(cls, obj) -> "TaskSpec":
        if isinstance(obj, str):
            return cls(obj)
        if not isinstance(obj, dict) or not isinstance(obj.get("name"), str):
            raise ValidationError("task must be a name or a dict with a string 'name'")
        task = _TASKS.get(obj["name"])
        _reject_unknown(obj, ("name", *(task.fields if task else ())), "task")
        sigma = covariance_from_json(obj["sigma"]) if "sigma" in obj else None
        return cls(obj["name"], sigma=sigma, k=obj.get("k"))


def _task_list(obj) -> list:
    if not isinstance(obj, list):
        raise ValidationError("tasks must be a list of task names or dicts")
    return obj


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
        if not (isinstance(obj.get("grid"), list) and all(isinstance(s, list) and len(s) == 2 for s in obj["grid"])):
            raise ValidationError("grid must be a list of [p, n] pairs")
        tasks = _task_list(obj.get("tasks", []))
        if "distribution" not in obj:
            raise ValidationError("experiment config needs a 'distribution'")
        return cls(
            distribution=distribution_from_json(obj["distribution"]),
            grid=tuple(MatrixShape(p, n) for p, n in obj["grid"]),
            replicates=obj.get("replicates", 1),
            master_seed=obj.get("master_seed", 0),
            tasks=tuple(TaskSpec.from_json(t) for t in tasks),
        )


@dataclass(frozen=True)
class _Cell:
    config: ExperimentConfig
    shape: MatrixShape
    replicate: int

    @property  # not functools.cached_property, whose lock (Python < 3.12) would serialize the pool's draws
    def X(self):
        if "X" not in self.__dict__:  # a failed draw is not kept, so each task that reads X draws again
            seed = SeedSpec(self.config.master_seed)
            self.__dict__["X"] = sample_matrix(self.config.distribution, self.shape, seed, self.replicate)
        return self.__dict__["X"]

    @np.errstate(over="ignore", invalid="ignore")
    def records(self) -> list:
        records = []
        for task in self.config.tasks:
            try:
                value, aux = _TASKS[task.name].evaluate(task, self)
            except Exception as exc:  # error rows, an unsampleable cell's included, must never abort the sweep
                value, aux = math.nan, {"error": f"{type(exc).__name__}: {exc}"}
            records.append(RunRecord(self.shape.p, self.shape.n, self.replicate, task.name, value, aux))
        return records


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


def run_experiment(config: ExperimentConfig, threads: int = 0) -> list:
    """Execute every (shape, replicate, task) and return the records; write no file.

    threads = 0 picks one thread per CPU this process may run on
    (``os.sched_getaffinity``, or ``os.cpu_count()`` where the platform
    has no affinity call, as on macOS and Windows).  Each run is a pure
    function of its derived seed and the records are sorted by (p, n,
    replicate, task), so they do not depend on scheduling.  With threads
    >= 2 and more than one job the cells run on a pool with numpy's OpenBLAS
    at one thread (restored on return, also on error), so the records are
    the same at every threads >= 2 for a given BLAS build and CPU kernel.
    threads = 1 keeps BLAS's own threads; on a multi-core host its dense
    values may differ from pooled ones in the last bits.
    """
    if threads < 0:
        raise ValidationError(f"threads must be >= 0 (0 = one per CPU), got {threads}")
    jobs = [(shape, rep) for shape in config.grid for rep in range(config.replicates)]
    if threads == 0:
        threads = _usable_cpus()
    if threads == 1 or len(jobs) <= 1:
        nested = [_Cell(config, shape, rep).records() for shape, rep in jobs]
    else:
        with _single_blas_thread(), ThreadPoolExecutor(max_workers=threads) as pool:
            nested = list(pool.map(lambda job: _Cell(config, *job).records(), jobs))
    records = [rec for batch in nested for rec in batch]
    records.sort(key=RunRecord.sort_key)
    return records


def run_tasks(X, tasks) -> dict:
    """name -> (value, aux) of each task on the data matrix X, as a sweep records them for a cell that drew X.

    tasks is a list in an experiment config's "tasks" form, refused as a
    config refuses it.  A matrix has no law, so moment_check is refused.
    Unlike a sweep's, a task that raises ends the run.
    """
    specs = tuple(TaskSpec.from_json(t) for t in _task_list(tasks))
    if any(spec.name == "moment_check" for spec in specs):
        raise ValidationError("moment_check needs the entry law, which a matrix does not carry")
    shape = MatrixShape(*X.shape)
    cell = _Cell(ExperimentConfig(None, (shape,), 1, 0, specs), shape, 0)  # the config checks the task names
    cell.__dict__["X"] = X
    return {spec.name: _TASKS[spec.name].evaluate(spec, cell) for spec in specs}
