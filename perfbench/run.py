"""covspectrum benchmark: three workloads, measured end to end and layer by layer.

One workload, as the last stdout line a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``::

    python3 perfbench/run.py --workload sweep_dense --seed 1 --seconds 15 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones, from spans recorded by wrappers this benchmark installs around each
layer's public functions.  Without ``--workload`` it runs every workload in
a fresh process, untraced then traced, and prints one row per workload,
with the tracing overhead (traced minus untraced ``run_s``)::

    python3 perfbench/run.py --seed 1 --seconds 15

The benchmark imports covspectrum from ``src/`` of the checkout it sits
in, makes its inputs from ``--seed`` (the sweeps' ``master_seed``), runs
whole workload units through ``covspectrum.cli.main`` until ``--seconds``
have passed, and checks every output (see checks.py).  It never sets a
``*_NUM_THREADS`` or ``OMP_*`` variable: it records them as found.  It
writes only under ``perfbench/``: scratch files in ``_work/`` (removed on
exit) and span dumps and summaries in ``out/``.
"""

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 3
DEFAULT_SECONDS = 15


def _import_covspectrum():
    """covspectrum from this checkout's src/, never an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "covspectrum", "__init__.py")):
        raise SystemExit(f"error: no covspectrum sources under {SRC}")
    sys.path.insert(0, SRC)
    if ROOT not in sys.path:
        sys.path.insert(0, ROOT)
    cov = importlib.import_module("covspectrum")
    if os.path.dirname(os.path.dirname(os.path.abspath(cov.__file__))) != SRC:
        raise SystemExit(f"error: imported covspectrum from {cov.__file__}, not {SRC}")
    importlib.import_module("covspectrum.cli")
    return cov


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS") or k.startswith("OMP_")},
    }


def _work_dir(name):
    path = os.path.join(HERE, "_work", f"{name}-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


def _remove_work(path):
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(path))
    except OSError:  # another run still uses it
        pass


def setup_only(workload_name, seed):
    """What a user pays before the first operation: import, then build the inputs."""
    _import_covspectrum()
    from perfbench.workloads import make_workloads

    work = _work_dir("setup")
    try:
        make_workloads()[workload_name].build(seed, work)
    finally:
        _remove_work(work)


def measure_setup(workload_name, seed):
    """Median wall time of SETUP_SAMPLES fresh processes that only set up."""
    argv = [sys.executable, os.path.abspath(__file__), "--setup-only", "--workload", workload_name, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up process failed: {proc.stderr.strip()}")
    return statistics.median(times)


def run_workload(workload_name, seed, seconds, trace):
    cov = _import_covspectrum()
    from perfbench import checks, metrics
    from perfbench.tracer import Tracer
    from perfbench.workloads import WHY, make_workloads

    env = environment()
    setup_s = None if trace else measure_setup(workload_name, seed)
    workload = make_workloads()[workload_name]
    work = _work_dir(workload_name)
    try:
        inputs = workload.build(seed, work)
        workload.warmup(cov.cli, work)
        tracer = Tracer(cov, metrics.OBSERVERS) if trace else None
        units, walls, cpus = [], [], []
        if tracer:
            tracer.install()
        try:
            start = time.perf_counter()
            while not walls or time.perf_counter() - start < seconds:
                cpu0, wall0 = time.process_time(), time.perf_counter()
                calls = workload.run(cov.cli, inputs)
                walls.append(time.perf_counter() - wall0)
                cpus.append(time.process_time() - cpu0)
                units.append(workload.collect(inputs, calls))
        finally:
            if tracer:
                tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        problems = _check(cov, checks, workload, workload_name, inputs, units, seed)
    finally:
        _remove_work(work)

    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    run_s = statistics.median(walls)
    if trace:
        values = metrics.per_layer(tracer, len(units), sum(walls), sum(cpus), workload.threads, env["nproc"])
        values["trace.run_s"] = run_s
        units_of = metrics.PER_LAYER
        _dump_spans(tracer, workload_name, seed)
    else:
        values = {
            "setup_s": setup_s,
            "run_s": run_s,
            "items_per_s": (attempted - failed) / sum(walls),
            "ok_frac": 1.0 - failed / attempted,
            "peak_rss_mb": peak_rss_mb,
            "outputs_ok": 0.0 if problems else 1.0,
        }
        units_of = metrics.END_TO_END
    info = {
        "workload": workload_name,
        "why": WHY[workload_name],
        "seed": seed,
        "trace": trace,
        "runs": len(walls),
        "run_s_all": walls,
        "setup_samples": 0 if trace else SETUP_SAMPLES,
        "env": env,
        "item_errors": [e for u in units for e in u.errors][:10],
        "problems": problems[:20],
    }
    print(json.dumps(info, sort_keys=True))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units_of.items()},
    }
    print(json.dumps(result))
    return 0


def _check(cov, checks, workload, workload_name, inputs, units, seed):
    """Problems with the first unit's outputs; later units must repeat them exactly."""
    first = units[0]
    if first.errors or first.failed:
        return [f"{first.failed} of {first.attempted} items failed"] + first.errors[:10]
    problems = [f"run {i} printed different outputs" for i, u in enumerate(units) if not checks.same_outputs(u.outputs, first.outputs)]
    reference = checks.load_reference()
    if workload_name == "oracles":
        return problems + checks.check_oracles(inputs["cases"], first.outputs, reference["oracles"])
    seed_ref = reference["seeds"].get(str(seed), {}).get(workload_name)
    if workload_name == "sweep_dense":
        return problems + checks.check_sweep_dense(workload, first.outputs, seed_ref)
    if seed_ref is not None:
        dense = seed_ref["dense_lambda_max"]
    else:  # a held-out seed: replicate 0 of each shape keeps the check under a minute
        dense = checks.dense_lambda_max(cov, workload.grid, 1, seed)
    return problems + checks.check_sweep_matfree(workload, first.outputs, seed_ref, dense)


def _dump_spans(tracer, workload_name, seed):
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    t0 = min((s.start for s in tracer.spans), default=0.0)
    spans = [[s.id, s.name, s.start - t0, s.end - t0, s.parent, s.thread] for s in tracer.spans]
    with open(os.path.join(out_dir, f"trace-{workload_name}-seed{seed}.json"), "w") as fh:
        json.dump({"fields": ["id", "name", "start", "end", "parent", "thread"], "spans": spans, "counts": tracer.counts}, fh)


def run_all(seed, seconds):
    """Every workload in a fresh process, untraced then traced; one row per workload."""
    from perfbench.metrics import END_TO_END, PER_LAYER
    from perfbench.workloads import WHY

    rows = {}
    for name in WHY:
        rows[name] = {}
        for trace in (0, 1):
            argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                raise SystemExit(f"error: {name} --trace {trace} failed: {proc.stderr.strip()[-2000:]}")
            rows[name]["info" if trace == 0 else "info_traced"] = json.loads(lines[-2])
            rows[name]["result" if trace == 0 else "traced"] = json.loads(lines[-1])
    header = ["workload", "runs"] + [f"{m} [{u}]" for m, u in END_TO_END.items()]
    header += ["attempted", "failed", "trace_overhead_s [s]"]
    table = []
    for name, row in rows.items():
        m, t = row["result"]["metrics"], row["traced"]["metrics"]
        overhead = t["trace.run_s"]["value"] - m["run_s"]["value"]
        row["trace_overhead_s"] = overhead
        table.append([name, row["info"]["runs"]] + [f"{m[k]['value']:.6g}" for k in END_TO_END]
                     + [row["result"]["attempted"], row["result"]["failed"], f"{overhead:.4g}"])
    first = next(iter(rows.values()))["info"]
    print(f"seed {seed}, {seconds} s per workload; env {json.dumps(first['env'], sort_keys=True)}")
    widths = [max(len(str(r[i])) for r in [header] + table) for i in range(len(header))]
    for r in [header] + table:
        print("  ".join(str(c).ljust(w) for c, w in zip(r, widths)))
    print()
    print("per-layer (traced run; .calls per run, .s layer-self seconds per run)")
    names = list(rows)
    print("  ".join([f"{'metric':34}"] + [f"{n:>14}" for n in names]))
    for metric, unit in PER_LAYER.items():
        vals = [rows[n]["traced"]["metrics"][metric]["value"] for n in names]
        print("  ".join([f"{metric + ' [' + unit + ']':34}"] + [f"{v:>14.6g}" for v in vals]))
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"summary-seed{seed}.json"), "w") as fh:
        json.dump(rows, fh, indent=1, sort_keys=True)
    ok = all(row["result"]["correct"] and row["traced"]["correct"] for row in rows.values())
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("sweep_dense", "sweep_matfree", "oracles"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be a 64-bit unsigned integer")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if args.setup_only:
        if args.workload is None:
            parser.error("--setup-only needs --workload")
        setup_only(args.workload, args.seed)
        return 0
    if args.workload is None:
        _import_covspectrum()
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
