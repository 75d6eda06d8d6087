"""Regenerate perfbench/reference.json from the current covspectrum sources.

    python3 perfbench/make_reference.py --seeds 16

For each seed 0..seeds-1 it stores every record of the dense sweep (run
in-process at one pool worker) and the dense eigvalsh of build_A for each
matrix-free matrix; it also answers every oracle case any seed can draw.
Run it only when a change to covspectrum is meant to change results, and
say so in the change.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), os.path.dirname(HERE)]

import covspectrum  # noqa: E402
from covspectrum import cli, harness  # noqa: E402

from perfbench.checks import REFERENCE_PATH, dense_lambda_max, oracle_answer  # noqa: E402
from perfbench.workloads import OracleWorkload, call_cli, last_json, make_workloads, record_key  # noqa: E402


def sweep_records(workload, seed):
    config = harness.ExperimentConfig.from_json(workload.config(seed))
    records = harness.run_experiment(config, threads=1)
    return {record_key(r.p, r.n, r.replicate, r.task): r.value for r in records}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=16)
    args = parser.parse_args()
    workloads = make_workloads()
    dense, matfree = workloads["sweep_dense"], workloads["sweep_matfree"]
    oracles = {}
    for case in OracleWorkload.pool():
        code, out, err = call_cli(cli, OracleWorkload.argv(case))
        if code != 0:
            raise SystemExit(f"oracle case {case} failed: {err}")
        oracles[OracleWorkload.key(case)] = oracle_answer(case, last_json(out))
    seeds = {}
    for seed in range(args.seeds):
        seeds[str(seed)] = {
            "sweep_dense": {"records": sweep_records(dense, seed)},
            "sweep_matfree": {
                "dense_lambda_max": dense_lambda_max(covspectrum, matfree.grid, matfree.replicates, seed),
            },
        }
        print(f"seed {seed} done", file=sys.stderr, flush=True)
    with open(REFERENCE_PATH, "w") as fh:
        json.dump({"oracles": oracles, "seeds": seeds}, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
