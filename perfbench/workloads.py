"""The benchmark's three workloads.

Each workload makes its inputs from the seed (a sweep config, or a case
list drawn from a fixed pool), then runs one timed unit through the public
CLI entry ``covspectrum.cli.main``, in-process.  The program receives only
the generated config or case list.

* ``sweep_dense``: the paper's main Monte Carlo sweep, all six dense tasks,
  one pool worker per core.  Many small BLAS-3 Gram products and LAPACK
  eigendecompositions per (p, n, replicate) cell, then ``report``.  Gram
  reuse, truncation fusion and BLAS oversubscription show here; it never
  reaches Lanczos or ``momentlab``.
* ``sweep_matfree``: p just above ``DENSE_P_LIMIT`` with one pool worker,
  the only sweep path into ``lambda_max_matfree``.  BLAS-2 matvecs, so the
  parallelism comes from BLAS itself: a global BLAS pin that helps
  ``sweep_dense`` costs this workload.  It runs 24 matrices because the Lanczos
  matvec count varies by about 30% from matrix to matrix; fewer let the
  seed move ``run_s`` by more than the bound.
* ``oracles``: exact trace moments, the sextuple-sum bound and the proof
  schedule.  Pure-Python combinatorics with no BLAS and no threads; both
  sweep-side optimisations should leave it unchanged.
"""

import contextlib
import csv
import io
import json
import math
import os
import random
import traceback
from dataclasses import dataclass, field

SIX_TASKS = (
    "lambda_max",
    "lambda_max_centered",
    "esd_ks",
    "diag_dev",
    {"name": "cov_rate", "sigma": {"kind": "toeplitz", "rho": 0.5}},
    "truncation_report",
)

# Three p/n ratios between 0.01 and 0.05, so ``report`` fits the cov_rate slope.
DENSE_GRID = ((100, 10000), (150, 6000), (200, 4000))
DENSE_REPLICATES = 4

MATFREE_GRID = ((2050, 8200), (2100, 8400))
MATFREE_REPLICATES = 12
MATFREE_TASKS = ("lambda_max", "diag_dev")

# (p, n, k) with (pn)^k from 10^4 to 10^6, inside ENUMERATION_BUDGET.
EXACT_SHAPES = (
    (2, 50, 2),
    (3, 10, 3),
    (5, 40, 2),
    (3, 6, 4),
    (2, 10, 4),
    (2, 15, 4),
    (4, 25, 3),
)
EXACT_DISTS = ("rademacher", "gaussian", "centered-exponential")
BOUND_SHAPES = (
    (100, 10000, 8),
    (100, 10000, 14),
    (1000, 100000, 12),
    (10**6, 10**8, 16),
    (10**6, 10**8, 20),
)
BOUND_DELTAS = (0.05, 0.1, 0.2)
SCHEDULE_PS = (100, 10**4, 10**6)
SCHEDULE_DELTAS = (0.05, 0.1, 0.3)

WHY = {
    "sweep_dense": "the paper's main sweep: all six dense tasks at --threads nproc, "
    "BLAS-3 Grams and LAPACK eigh per cell, then report",
    "sweep_matfree": "p just above DENSE_P_LIMIT at --threads 1: the only sweep path "
    "into lambda_max_matfree, BLAS-2 matvecs threaded by BLAS alone",
    "oracles": "moments exact, bound and schedule: pure-Python combinatorics, "
    "no BLAS and no threads",
}


def nproc():
    return len(os.sched_getaffinity(0))


def call_cli(cli, argv):
    """Run ``cli.main(argv)`` in-process; an exception counts as exit code -1."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception:  # a crashing item is a failed item, never a crashed benchmark
            traceback.print_exc()
            code = -1
    return code, out.getvalue(), err.getvalue()


def last_json(text):
    lines = text.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


@dataclass
class Unit:
    """One timed workload run: items attempted and failed, and what it printed."""

    attempted: int
    failed: int
    outputs: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)


def read_records_csv(path):
    """records.csv as plain dicts, parsed by the benchmark itself."""
    with open(path, newline="") as fh:
        return [
            {
                "p": int(row["p"]),
                "n": int(row["n"]),
                "replicate": int(row["replicate"]),
                "task": row["task"],
                "value": float(row["value"]),
                "aux": json.loads(row["aux"]),
            }
            for row in csv.DictReader(fh)
        ]


def record_key(p, n, replicate, task):
    return f"{p},{n},{replicate},{task}"


class SweepWorkload:
    """``sweep`` on a generated config, optionally followed by ``report --format json``."""

    def __init__(self, name, grid, replicates, tasks, threads, report):
        self.name = name
        self.grid = grid
        self.replicates = replicates
        self.tasks = tasks
        self.threads = threads
        self.report = report

    def config(self, seed):
        return {
            "distribution": "gaussian",
            "grid": [list(shape) for shape in self.grid],
            "replicates": self.replicates,
            "master_seed": seed,
            "tasks": list(self.tasks),
        }

    @property
    def cells(self):
        return len(self.grid) * self.replicates

    @property
    def expected_keys(self):
        names = [t if isinstance(t, str) else t["name"] for t in self.tasks]
        return [
            record_key(p, n, rep, task)
            for p, n in self.grid
            for rep in range(self.replicates)
            for task in names
        ]

    def build(self, seed, work):
        path = os.path.join(work, f"{self.name}.json")
        with open(path, "w") as fh:
            json.dump(self.config(seed), fh)
        return {"config": path, "out": os.path.join(work, "out")}

    def warmup(self, cli, work):
        """A tiny sweep on the same code path, so lazy imports and BLAS threads start untimed."""
        path = os.path.join(work, "warmup.json")
        tiny = dict(self.config(0), grid=[[20, 400], [30, 1200], [40, 4000]], replicates=1)
        with open(path, "w") as fh:
            json.dump(tiny, fh)
        out = os.path.join(work, "warmup")
        call_cli(cli, ["sweep", "--config", path, "--threads", str(self.threads), "--out", out])
        if self.report:
            call_cli(cli, ["report", "--records", os.path.join(out, "records.csv"), "--format", "json", "--out", out])

    def run(self, cli, inputs):
        """The timed part: the CLI calls a user makes."""
        out = inputs["out"]
        argv = ["sweep", "--config", inputs["config"], "--threads", str(self.threads), "--out", out]
        calls = [call_cli(cli, argv)]
        if self.report and calls[0][0] == 0:
            records = os.path.join(out, "records.csv")
            calls.append(call_cli(cli, ["report", "--records", records, "--format", "json", "--out", out]))
        return calls

    def collect(self, inputs, calls):
        """Items and outputs of one unit; a failed CLI call fails every record it owed."""
        attempted = len(self.expected_keys)
        errors = [f"exit {code}: {err.strip()}" for code, _, err in calls if code != 0]
        if errors:
            return Unit(attempted, attempted, errors=errors)
        try:
            records = read_records_csv(os.path.join(inputs["out"], "records.csv"))
            outputs = {"records": records}
            if self.report:
                outputs["report_stdout"] = last_json(calls[1][1])
                with open(os.path.join(inputs["out"], "report.json")) as fh:
                    outputs["report"] = json.load(fh)
        except (OSError, ValueError, KeyError) as exc:
            return Unit(attempted, attempted, errors=[f"unreadable outputs: {exc!r}"])
        keys = {record_key(r["p"], r["n"], r["replicate"], r["task"]) for r in records}
        missing = len(set(self.expected_keys) - keys)
        failed = min(attempted, missing + sum(1 for r in records if "error" in r["aux"]))
        return Unit(attempted, failed, outputs)


class OracleWorkload:
    """``moments exact|bound|schedule`` over a case list drawn from a fixed pool."""

    threads = 1

    def cases(self, seed):
        """One case per shape; the seed picks each law and delta.  Laws rotate
        so every seed uses all three, keeping the cost nearly seed-free."""
        rng = random.Random(seed)
        offset = rng.randrange(len(EXACT_DISTS))
        cases = [
            {"mode": "exact", "p": p, "n": n, "k": k, "dist": EXACT_DISTS[(i + offset) % len(EXACT_DISTS)]}
            for i, (p, n, k) in enumerate(EXACT_SHAPES)
        ]
        cases += [
            {"mode": "bound", "p": p, "n": n, "k": k, "delta": rng.choice(BOUND_DELTAS)}
            for p, n, k in BOUND_SHAPES
        ]
        cases += [{"mode": "schedule", "p": p, "delta": rng.choice(SCHEDULE_DELTAS)} for p in SCHEDULE_PS]
        return cases

    @staticmethod
    def pool():
        """Every case any seed can draw; the checked-in reference answers all of them."""
        cases = [
            {"mode": "exact", "p": p, "n": n, "k": k, "dist": d} for p, n, k in EXACT_SHAPES for d in EXACT_DISTS
        ]
        cases += [
            {"mode": "bound", "p": p, "n": n, "k": k, "delta": d} for p, n, k in BOUND_SHAPES for d in BOUND_DELTAS
        ]
        cases += [{"mode": "schedule", "p": p, "delta": d} for p in SCHEDULE_PS for d in SCHEDULE_DELTAS]
        return cases

    @staticmethod
    def argv(case):
        argv = ["moments", case["mode"]]
        for key in ("p", "n", "k", "delta", "dist"):
            if key in case:
                argv += [f"--{key}", str(case[key])]
        return argv

    @staticmethod
    def key(case):
        return json.dumps(case, sort_keys=True)

    def build(self, seed, work):
        return {"cases": self.cases(seed)}

    def warmup(self, cli, work):
        for case in ({"mode": "exact", "p": 2, "n": 3, "k": 2, "dist": "gaussian"},
                     {"mode": "bound", "p": 10, "n": 100, "k": 3, "delta": 0.1},
                     {"mode": "schedule", "p": 10, "delta": 0.1}):
            call_cli(cli, self.argv(case))

    def run(self, cli, inputs):
        return [call_cli(cli, self.argv(case)) for case in inputs["cases"]]

    def collect(self, inputs, calls):
        answers, errors = {}, []
        for case, (code, out, err) in zip(inputs["cases"], calls):
            try:
                answer = last_json(out) if code == 0 else None
            except ValueError:
                answer, err = None, f"unparsable answer {out!r}"
            if answer is None:
                errors.append(f"{self.key(case)}: exit {code}: {err.strip()}")
            else:
                answers[self.key(case)] = answer
        return Unit(len(inputs["cases"]), len(errors), {"answers": answers}, errors)


def make_workloads():
    return {
        "sweep_dense": SweepWorkload("sweep_dense", DENSE_GRID, DENSE_REPLICATES, SIX_TASKS, nproc(), report=True),
        "sweep_matfree": SweepWorkload(
            "sweep_matfree", MATFREE_GRID, MATFREE_REPLICATES, MATFREE_TASKS, 1, report=False
        ),
        "oracles": OracleWorkload(),
    }


def lambda_limit(p, n):
    """The paper's edge: lambda_max(A) -> 1 + sqrt(p/n)/2 as p, n grow."""
    return 1.0 + math.sqrt(p / n) / 2.0
