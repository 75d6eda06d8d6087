"""Command-line harness.

Subcommands: gen, spectrum, esd, covtest, moments, sweep, report.  Each
declares only the flags it reads: --seed on gen, --threads on sweep,
--format on gen and report, --out on the commands that write files
(gen, esd, sweep, report); each moments mode (classify, exact, bound,
schedule) is its own subcommand with its own flags.  spectrum, esd and
covtest print what a sweep records for the lambda_max, esd_ks and
cov_rate tasks, through the same spectral functions: spectrum runs
spectral.lambda_max, which picks dense LAPACK or Lanczos from p.  Every
command but gen (which prints the path it wrote) prints one line of strict
JSON: a non-finite number is printed as null, never as NaN or Infinity.
Each subcommand (each moments mode too) names its handler where it is
declared; main runs it with numpy's overflow and invalid warnings off, so
an overflow prints only the ``error:`` line of the check that rejects the
non-finite result, and maps what it raises to the exit code: 0 success, 1
validation error, 2 resource/convergence error or failed allocation, 3
I/O error.  Every command that writes files takes its output directory
from --out, defaulting to the current directory; a sweep config names no
output directory.  sweep writes records.csv and, beside it, config.json:
the bytes of its --config, unchanged.  report writes the edge and summary
blocks as csv or json; edge's predicted_shift and z take the entry law from
a config.json beside its --records, whose grid must hold each record's (p, n).
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .ensemble import (
    MatrixShape,
    SeedSpec,
    distribution_from_json,
    load_matrix,
    matrix_to_csv,
    sample_matrix,
    save_matrix,
)
from .errors import ConvergenceError, ResourceError, ValidationError
from .harness import TASK_NAMES, ExperimentConfig, run_experiment
from .momentlab import IndexCircuit, bound_rhs_a13, check_schedule, classify_json, law_trace_moment
from .normalize import build_A, covariance_from_json
from .reports import emit_report, fit_rate, json_text, read_records
from .spectral import (
    DENSE_P_LIMIT,
    covariance_error,
    diag_max_dev,
    eigvals_sym,
    ks_distance,
    lambda_max,
    spectrum_to_csv,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValidationError(message)


def _json_arg(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid {what} JSON: {exc}") from exc


def _dist_arg(text: str):
    if text.lstrip().startswith("{"):
        return distribution_from_json(_json_arg(text, "distribution"))
    return distribution_from_json(text)


def build_parser() -> _Parser:
    parser = _Parser(prog="covspectrum", description=__doc__)
    parser.add_argument("--version", action="version", version=f"covspectrum {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(sp):
        sp.add_argument("--out", default=".", help="output directory (default: the current directory)")

    sp = sub.add_parser("gen", help="sample a data matrix and write it to a file")
    sp.add_argument("--dist", required=True, help="kind name or JSON spec")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--replicate", type=int, default=0)
    sp.add_argument("--name", default=None, help="output file name (default derived)")
    sp.add_argument("--seed", type=int, default=0, help="64-bit master seed")
    sp.add_argument("--format", default="bin", choices=("bin", "csv"))
    add_out(sp)
    sp.set_defaults(run=_cmd_gen)

    sp = sub.add_parser(
        "spectrum",
        help="largest eigenvalue of one matrix, as a sweep's lambda_max record",
        description=f"Print p, n, diag_max_dev and the lambda_max task's value and aux for one matrix: dense "
        f"LAPACK up to p = {DENSE_P_LIMIT} (aux lambda_max_b), Lanczos above it (aux iterations).",
    )
    sp.add_argument("--in", dest="infile", required=True, help="matrix file from gen")
    sp.set_defaults(run=_cmd_spectrum)

    sp = sub.add_parser("esd", help="full spectrum plus KS distance to the semicircle law")
    sp.add_argument("--in", dest="infile", required=True)
    add_out(sp)
    sp.set_defaults(run=_cmd_esd)

    sp = sub.add_parser("covtest", help="operator-norm error of S2 against a population Sigma")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--sigma", required=True, help="covariance JSON spec")
    sp.set_defaults(run=_cmd_covtest)

    sp = sub.add_parser("moments", help="combinatorial oracles: classify, exact, bound, schedule")
    modes = sp.add_subparsers(dest="mode", required=True)
    mp = modes.add_parser("classify", help="edge taxonomy of one circuit")
    mp.add_argument("--circuit", required=True, help="circuit JSON")
    mp.set_defaults(run=_cmd_classify)
    mp = modes.add_parser("exact", help="exact E tr(B^k) by enumeration")
    mp.add_argument("--p", type=int, required=True)
    mp.add_argument("--n", type=int, required=True)
    mp.add_argument("--k", type=int, required=True)
    mp.add_argument("--dist", default="rademacher", help="entry law whose moments are used")
    mp.set_defaults(run=_cmd_exact)
    mp = modes.add_parser("bound", help="the sextuple-sum bound on E tr(B^k)")
    mp.add_argument("--p", type=int, required=True)
    mp.add_argument("--n", type=int, required=True)
    mp.add_argument("--k", type=int, required=True)
    mp.add_argument("--delta", type=float, required=True)
    mp.set_defaults(run=_cmd_bound)
    mp = modes.add_parser("schedule", help="the proof's conditions on the truncation schedule")
    mp.add_argument("--p", type=int, required=True)
    mp.add_argument("--delta", type=float, required=True)
    mp.add_argument("--c1", type=float, default=2.0)
    mp.set_defaults(run=_cmd_schedule)

    sp = sub.add_parser("sweep", help="run an ExperimentConfig JSON")
    sp.add_argument("--config", required=True)
    sp.add_argument("--threads", type=int, default=0, help="worker threads (0 = one per CPU this process may use)")
    add_out(sp)
    sp.set_defaults(run=_cmd_sweep)

    sp = sub.add_parser(
        "report",
        help="report blocks (csv, json) or plots (svg) from a records CSV",
        description="Write the edge and summary blocks of a records CSV as "
        "report_<block>.csv files (csv) or keys of report.json (json), or one plot per task (svg); a block "
        "with no rows is not written.  The entry law is read from the config.json that sweep writes beside "
        "records.csv; without that file, edge's predicted_shift and z are empty.",
    )
    sp.add_argument("--records", required=True)
    sp.add_argument("--format", default="csv", choices=("csv", "json", "svg"))
    add_out(sp)
    sp.set_defaults(run=_cmd_report)

    return parser


def _cmd_gen(args) -> None:
    spec = _dist_arg(args.dist)
    X = sample_matrix(spec, MatrixShape(args.p, args.n), SeedSpec(args.seed), args.replicate)
    os.makedirs(args.out, exist_ok=True)
    name = args.name or f"matrix_p{args.p}_n{args.n}_r{args.replicate}"
    if args.format == "csv":
        path = os.path.join(args.out, name + ".csv")
        matrix_to_csv(X, path)
    else:
        path = os.path.join(args.out, name + ".bin")
        save_matrix(X, path)
    print(path)


def _cmd_spectrum(args) -> None:
    X = load_matrix(args.infile)
    lam, aux = lambda_max(X)
    p, n = X.shape
    print(json_text({"p": p, "n": n, "lambda_max": lam, "diag_max_dev": diag_max_dev(X), **aux}))


def _cmd_esd(args) -> None:
    X = load_matrix(args.infile)
    eigs = eigvals_sym(build_A(X))
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "spectrum.csv")
    spectrum_to_csv(eigs, path)
    print(json_text({"spectrum_csv": path, "lambda_max": float(eigs[-1]), "ks_to_semicircle": ks_distance(eigs)}))


def _cmd_covtest(args) -> None:
    X = load_matrix(args.infile)
    err, bound, sigma_norm = covariance_error(X, covariance_from_json(_json_arg(args.sigma, "covariance")))
    # an overflowed bound bounds nothing: err <= inf would always hold
    within = err <= bound + 1e-10 * max(1.0, bound) if math.isfinite(bound) else None
    print(json_text({"norm_error": err, "factorized_bound": bound, "sigma_norm": sigma_norm, "within_bound": within}))


def _cmd_classify(args) -> None:
    print(json_text(classify_json(IndexCircuit.from_json(_json_arg(args.circuit, "circuit")))))


def _cmd_exact(args) -> None:
    value = law_trace_moment(_dist_arg(args.dist), args.p, args.n, args.k)
    print(json_text({"p": args.p, "n": args.n, "k": args.k, "exact": value}))


def _cmd_bound(args) -> None:
    value = bound_rhs_a13(args.p, args.n, args.k, args.delta)
    print(json_text({"p": args.p, "n": args.n, "k": args.k, "delta": args.delta, "bound": value}))


def _cmd_schedule(args) -> None:
    print(json_text(check_schedule(args.p, args.delta, C1=args.c1)))


def _read_config(path):
    """(bytes, parsed JSON) of an experiment config file; bytes that are not JSON text name the path."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data, json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: experiment config is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid experiment config JSON: {exc}") from exc


def _cmd_sweep(args) -> None:
    data, obj = _read_config(args.config)
    config = ExperimentConfig.from_json(obj)
    records = run_experiment(config, threads=args.threads, out_dir=args.out)
    # the config's own bytes identify the records: a sweep has no other settings
    with open(os.path.join(args.out, "config.json"), "wb") as fh:
        fh.write(data)
    failed = sum(1 for r in records if r.failed)
    print(json_text({"records": len(records), "failed": failed, "records_csv": os.path.join(args.out, "records.csv")}))


def _sweep_law(records_path, records):
    """The entry law in the config.json beside a records file, or None without that file.

    Only "distribution" and "grid" are read: an explicit Sigma's path may be
    relative to the directory the sweep ran in.  A config whose grid misses a
    record's (p, n) did not write the records, and is refused.
    """
    path = os.path.join(os.path.dirname(records_path), "config.json")
    try:
        _, obj = _read_config(path)
    except FileNotFoundError:
        return None
    if not isinstance(obj, dict) or "distribution" not in obj:
        raise ValidationError(f"{path}: experiment config needs a 'distribution'")
    try:
        law = distribution_from_json(obj["distribution"])
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    grid = obj.get("grid")
    for rec in records:
        if not (isinstance(grid, list) and [rec.p, rec.n] in grid):
            raise ValidationError(f"{path}: (p, n) = ({rec.p}, {rec.n}) of {records_path} is not on the grid")
    return law


def _cmd_report(args) -> None:
    records = read_records(args.records)
    law = _sweep_law(args.records, records)
    seen = set()
    try:  # every input error names the records file, as read_records's do
        for rec in records:  # reject what no sweep writes before a file is written
            if rec.task not in TASK_NAMES:
                raise ValidationError(f"{rec.task!r} is not a sweep task")
            if rec.sort_key() in seen:
                raise ValidationError(f"two records for (p, n, replicate, task) = {rec.sort_key()}")
            seen.add(rec.sort_key())
        fit = fit_rate(records)
        out = {"paths": emit_report(records, args.format, args.out, law)}
    except ValidationError as exc:
        raise ValidationError(f"{args.records}: {exc}") from exc
    if fit is not None:
        out.update(rate_slope=fit.slope, rate_r2=fit.r2)
    print(json_text(out))


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        with np.errstate(over="ignore", invalid="ignore"):
            args.run(args)
        return 0
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ResourceError, ConvergenceError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
