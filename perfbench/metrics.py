"""Metric names, units and how each is computed from one benchmark run.

End-to-end metrics come from untraced runs; per-layer metrics from a traced
run.  ``.calls`` is calls per workload run, ``.s`` is layer-self seconds
per workload run (see ``Tracer.self_times``), and a ``_per_cell``
count divides by the (p, n, replicate) cells the sweeps ran.
"""

import inspect

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "items_per_s": "1/s",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
    "outputs_ok": "bool",
}

_CALLS_AND_SELF = (
    "ensemble.sample_matrix",
    "normalize.build_A",
    "normalize.build_S1",
    "normalize.sqrt_psd",
    "spectral.eigvals_sym",
    "spectral.lambda_max_matfree",
    "momentlab.exact_trace_moment",
    "momentlab.bound_rhs_a13",
)
_CALLS_ONLY = ("normalize.build_S",)
_SELF_ONLY = (
    "normalize.build_A1",
    "normalize.build_S2",
    "normalize.truncation_pipeline",
    "spectral.diag_max_dev",
    "spectral.ks_distance",
    "momentlab.check_schedule",
    "harness.run_experiment",
    "reports.records_to_csv",
    "reports.emit_report",
)

PER_LAYER = {}
for _name in _CALLS_AND_SELF:
    PER_LAYER[_name + ".calls"] = "count"
    PER_LAYER[_name + ".s"] = "s"
for _name in _CALLS_ONLY:
    PER_LAYER[_name + ".calls"] = "count"
for _name in _SELF_ONLY:
    PER_LAYER[_name + ".s"] = "s"
PER_LAYER.update(
    {
        "normalize.gram_per_cell": "count",
        "spectral.eig_per_cell": "count",
        "spectral.matvecs_per_solve": "count",
        "momentlab.exact_terms": "count",
        "harness.idle_frac": "frac",
        "harness.cpu_util": "frac",
        "cli.self_s": "s",
        "trace.run_s": "s",
    }
)


def _matvecs(fn, args, kwargs, result):
    return {"spectral.matvecs": result[1]}


def _exact_terms(fn, args, kwargs, result):
    bound = inspect.signature(fn).bind(*args, **kwargs).arguments
    return {"momentlab.exact_terms": (bound["p"] * bound["n"]) ** bound["k"]}


OBSERVERS = {
    "spectral.lambda_max_matfree": _matvecs,
    "momentlab.exact_trace_moment": _exact_terms,
}


def per_layer(tracer, runs, wall_s, cpu_s, workers, nproc):
    """Per-layer metrics over ``runs`` traced workload runs of ``wall_s`` seconds in all."""
    counts = tracer.counts
    own = tracer.self_times()

    def calls(name):
        return counts.get(name + ".calls", 0)

    def ratio(a, b):
        return a / b if b else 0.0

    cells = calls("ensemble.sample_matrix")
    out = {}
    for name in PER_LAYER:
        base, _, kind = name.rpartition(".")
        if kind == "calls":
            out[name] = calls(base) / runs
        elif kind == "s":
            out[name] = own.get(base, 0.0) / runs
    sweep_s = sum(s.end - s.start for s in tracer.spans if s.name == "harness.run_experiment")
    out.update(
        {
            "normalize.gram_per_cell": ratio(calls("normalize.build_A") + calls("normalize.build_S"), cells),
            "spectral.eig_per_cell": ratio(calls("spectral.eigvals_sym"), cells),
            "spectral.matvecs_per_solve": ratio(counts.get("spectral.matvecs", 0), calls("spectral.lambda_max_matfree")),
            "momentlab.exact_terms": counts.get("momentlab.exact_terms", 0) / runs,
            "harness.idle_frac": 1.0 - ratio(tracer.child_busy("harness.run_experiment"), sweep_s * workers)
            if sweep_s
            else 0.0,
            "harness.cpu_util": ratio(cpu_s, wall_s * nproc),
            "cli.self_s": own.get("cli.main", 0.0) / runs,
        }
    )
    return out

