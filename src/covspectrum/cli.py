"""Command-line harness.

Subcommands: gen, spectrum, esd, covtest, moments, sweep, report.  Each
declares only the flags it reads: --seed on gen and sweep, --threads on
sweep, --format on gen and report, --out on the commands that write files
(gen, esd, sweep, report); each moments mode (classify, exact, bound,
schedule) is its own subcommand with its own flags.  spectrum, esd and
covtest print what a sweep records for the lambda_max, esd_ks and
cov_rate tasks, through the same spectral functions: spectrum runs
spectral.lambda_max, which picks dense LAPACK or Lanczos from p.
Exit codes: 0 success, 1 validation error, 2 resource/convergence error
or failed allocation, 3 I/O error.  Every command that writes files takes
its output directory from --out, falling back to the COVSPECTRUM_OUT
environment variable, then the current directory; a sweep config names no
output directory.
"""

import argparse
import json
import os
import sys
from dataclasses import replace

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
from .harness import ExperimentConfig, run_experiment
from .momentlab import IndexCircuit, bound_rhs_a13, check_schedule, classify_json, law_trace_moment
from .normalize import build_A, covariance_from_json
from .reports import emit_report, fit_rate, read_records
from .spectral import (
    DENSE_P_LIMIT,
    covariance_error,
    diag_max_dev,
    eigvals_sym,
    ks_distance,
    lambda_max,
    spectrum_to_csv,
)

OUT_ENV_VAR = "COVSPECTRUM_OUT"


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


def _out_dir(args) -> str:
    if args.out is not None:
        return args.out
    return os.environ.get(OUT_ENV_VAR, ".")


def build_parser() -> _Parser:
    parser = _Parser(prog="covspectrum", description=__doc__)
    parser.add_argument("--version", action="version", version=f"covspectrum {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(sp):
        sp.add_argument("--out", default=None, help="output directory")

    sp = sub.add_parser("gen", help="sample a data matrix and write it to a file")
    sp.add_argument("--dist", required=True, help="kind name or JSON spec")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--replicate", type=int, default=0)
    sp.add_argument("--name", default=None, help="output file name (default derived)")
    sp.add_argument("--seed", type=int, default=0, help="64-bit master seed")
    sp.add_argument("--format", default="bin", choices=("bin", "csv"))
    add_out(sp)

    sp = sub.add_parser(
        "spectrum",
        help="largest eigenvalue of one matrix, as a sweep's lambda_max record",
        description=f"Print p, n, diag_max_dev and the lambda_max task's value and aux for one matrix: dense "
        f"LAPACK up to p = {DENSE_P_LIMIT} (aux lambda_max_b), Lanczos above it (aux iterations).",
    )
    sp.add_argument("--in", dest="infile", required=True, help="matrix file from gen")

    sp = sub.add_parser("esd", help="full spectrum plus KS distance to the semicircle law")
    sp.add_argument("--in", dest="infile", required=True)
    add_out(sp)

    sp = sub.add_parser("covtest", help="operator-norm error of S2 against a population Sigma")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--sigma", required=True, help="covariance JSON spec")

    sp = sub.add_parser("moments", help="combinatorial oracles: classify, exact, bound, schedule")
    modes = sp.add_subparsers(dest="mode", required=True)
    mp = modes.add_parser("classify", help="edge taxonomy of one circuit")
    mp.add_argument("--circuit", required=True, help="circuit JSON")
    mp = modes.add_parser("exact", help="exact E tr(B^k) by enumeration")
    mp.add_argument("--p", type=int, required=True)
    mp.add_argument("--n", type=int, required=True)
    mp.add_argument("--k", type=int, required=True)
    mp.add_argument("--dist", default="rademacher", help="entry law whose moments are used")
    mp = modes.add_parser("bound", help="the sextuple-sum bound on E tr(B^k)")
    mp.add_argument("--p", type=int, required=True)
    mp.add_argument("--n", type=int, required=True)
    mp.add_argument("--k", type=int, required=True)
    mp.add_argument("--delta", type=float, required=True)
    mp = modes.add_parser("schedule", help="the proof's conditions on the truncation schedule")
    mp.add_argument("--p", type=int, required=True)
    mp.add_argument("--delta", type=float, required=True)
    mp.add_argument("--c1", type=float, default=2.0)

    sp = sub.add_parser("sweep", help="run an ExperimentConfig JSON")
    sp.add_argument("--config", required=True)
    sp.add_argument("--seed", type=int, default=None, help="overrides the config's master_seed")
    sp.add_argument("--threads", type=int, default=0, help="worker threads (0 = one per CPU this process may use)")
    add_out(sp)

    sp = sub.add_parser("report", help="summaries and plots from a records CSV")
    sp.add_argument("--records", required=True)
    sp.add_argument("--format", default="csv", choices=("csv", "json", "svg"))
    add_out(sp)

    return parser


def _cmd_gen(args) -> int:
    spec = _dist_arg(args.dist)
    X = sample_matrix(spec, MatrixShape(args.p, args.n), SeedSpec(args.seed), args.replicate)
    out_dir = _out_dir(args)
    os.makedirs(out_dir, exist_ok=True)
    name = args.name or f"matrix_p{args.p}_n{args.n}_r{args.replicate}"
    if args.format == "csv":
        path = os.path.join(out_dir, name + ".csv")
        matrix_to_csv(X, path)
    else:
        path = os.path.join(out_dir, name + ".bin")
        save_matrix(X, path)
    print(path)
    return 0


def _cmd_spectrum(args) -> int:
    X = load_matrix(args.infile)
    lam, aux = lambda_max(X)
    p, n = X.shape
    print(json.dumps({"p": p, "n": n, "lambda_max": lam, "diag_max_dev": diag_max_dev(X), **aux}, sort_keys=True))
    return 0


def _cmd_esd(args) -> int:
    X = load_matrix(args.infile)
    eigs = eigvals_sym(build_A(X))
    out_dir = _out_dir(args)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "spectrum.csv")
    spectrum_to_csv(eigs, path)
    print(
        json.dumps(
            {"spectrum_csv": path, "lambda_max": float(eigs[-1]), "ks_to_semicircle": ks_distance(eigs)},
            sort_keys=True,
        )
    )
    return 0


def _cmd_covtest(args) -> int:
    X = load_matrix(args.infile)
    err, bound, sigma_norm = covariance_error(X, covariance_from_json(_json_arg(args.sigma, "covariance")))
    print(
        json.dumps(
            {
                "norm_error": err,
                "factorized_bound": bound,
                "sigma_norm": sigma_norm,
                "within_bound": err <= bound + 1e-10,
            },
            sort_keys=True,
        )
    )
    return 0


def _cmd_moments(args) -> int:
    if args.mode == "classify":
        circuit = IndexCircuit.from_json(_json_arg(args.circuit, "circuit"))
        print(json.dumps(classify_json(circuit), sort_keys=True))
        return 0
    if args.mode == "exact":
        value = law_trace_moment(_dist_arg(args.dist), args.p, args.n, args.k)
        print(json.dumps({"p": args.p, "n": args.n, "k": args.k, "exact": value}, sort_keys=True))
        return 0
    if args.mode == "bound":
        value = bound_rhs_a13(args.p, args.n, args.k, args.delta)
        print(
            json.dumps(
                {"p": args.p, "n": args.n, "k": args.k, "delta": args.delta, "bound": value},
                sort_keys=True,
            )
        )
        return 0
    print(json.dumps(check_schedule(args.p, args.delta, C1=args.c1), sort_keys=True))
    return 0


def _cmd_sweep(args) -> int:
    try:
        with open(args.config, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{args.config}: experiment config is not UTF-8 text: {exc}") from exc
    config = ExperimentConfig.from_json(_json_arg(text, "experiment config"))
    if args.seed is not None:
        config = replace(config, master_seed=args.seed)
    out_dir = _out_dir(args)
    records = run_experiment(config, threads=args.threads, out_dir=out_dir)
    failed = sum(1 for r in records if r.failed)
    print(
        json.dumps(
            {
                "records": len(records),
                "failed": failed,
                "records_csv": os.path.join(out_dir, "records.csv"),
            },
            sort_keys=True,
        )
    )
    return 0


def _cmd_report(args) -> int:
    records = read_records(args.records)
    fit = fit_rate(records)
    out = {"paths": emit_report(records, args.format, _out_dir(args))}
    if fit is not None:
        out.update(rate_slope=fit.slope, rate_r2=fit.r2)
    print(json.dumps(out, sort_keys=True))
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "spectrum": _cmd_spectrum,
    "esd": _cmd_esd,
    "covtest": _cmd_covtest,
    "moments": _cmd_moments,
    "sweep": _cmd_sweep,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
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
