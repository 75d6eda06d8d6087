"""Tests of the benchmark itself: tracing changes nothing, counts are exact,
failures are counted, and the checks reject wrong answers."""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if os.path.join(ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(ROOT, "src"))

import covspectrum  # noqa: E402
from covspectrum import cli, harness, normalize, spectral  # noqa: E402

from perfbench import checks, metrics  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402
from perfbench.workloads import SIX_TASKS, OracleWorkload, SweepWorkload  # noqa: E402

TINY_GRID = ((20, 2000), (30, 1200), (40, 800))


def tiny_sweep(threads=2):
    return SweepWorkload("tiny", TINY_GRID, 2, SIX_TASKS, threads, report=True)


def run_unit(workload, inputs, tracer=None):
    if tracer is None:
        return workload.collect(inputs, workload.run(cli, inputs))
    with tracer:
        return workload.collect(inputs, workload.run(cli, inputs))


def test_traced_and_untraced_runs_return_identical_records(tmp_path):
    workload = tiny_sweep()
    inputs = workload.build(7, str(tmp_path))
    plain = run_unit(workload, inputs)
    traced = run_unit(workload, inputs, Tracer(covspectrum, metrics.OBSERVERS))
    assert plain.failed == traced.failed == 0
    assert len(plain.outputs["records"]) == workload.cells * len(SIX_TASKS)
    assert checks.same_outputs(plain.outputs, traced.outputs)


def test_six_task_cell_does_five_grams_seven_eigvals_one_sqrt(tmp_path):
    workload = tiny_sweep()
    inputs = workload.build(3, str(tmp_path))
    tracer = Tracer(covspectrum, metrics.OBSERVERS)
    unit = run_unit(workload, inputs, tracer)
    assert unit.failed == 0
    values = metrics.per_layer(tracer, 1, 1.0, 1.0, workload.threads, 2)
    assert values["ensemble.sample_matrix.calls"] == workload.cells
    assert values["normalize.gram_per_cell"] == 5
    assert values["spectral.eig_per_cell"] == 7
    assert values["normalize.sqrt_psd.calls"] == workload.cells
    assert 0.0 <= values["harness.idle_frac"] <= 1.0


def test_tracer_restores_every_module_attribute():
    originals = (harness.build_A, normalize.build_A, spectral.eigvals_sym, harness.eigvals_sym, cli.main)
    with Tracer(covspectrum):
        assert harness.build_A is normalize.build_A is not originals[1]
        assert harness.eigvals_sym is spectral.eigvals_sym is not originals[2]
    assert (harness.build_A, normalize.build_A, spectral.eigvals_sym, harness.eigvals_sym, cli.main) == originals


def test_over_budget_exact_case_counts_as_failed():
    workload = OracleWorkload()
    cases = [
        {"mode": "exact", "p": 2, "n": 50, "k": 2, "dist": "gaussian"},
        {"mode": "exact", "p": 10, "n": 100, "k": 3, "dist": "gaussian"},  # (pn)^k = 1e9 > budget
    ]
    inputs = {"cases": cases}
    unit = workload.collect(inputs, workload.run(cli, inputs))
    assert (unit.attempted, unit.failed) == (2, 1)
    assert "exit 2" in unit.errors[0]
    problems = checks.check_oracles(cases, unit.outputs, checks.load_reference()["oracles"])
    assert len(problems) == 1 and "no answer" in problems[0]


def test_checks_reject_wrong_answers():
    reference = checks.load_reference()["oracles"]
    case = {"mode": "exact", "p": 5, "n": 40, "k": 2, "dist": "rademacher"}
    key = OracleWorkload.key(case)
    good = {"answers": {key: {"p": 5, "n": 40, "k": 2, "exact": 1.0}}}
    bad = {"answers": {key: {"p": 5, "n": 40, "k": 2, "exact": 1.0 + 1e-9}}}
    assert checks.check_oracles([case], good, reference) == []
    assert len(checks.check_oracles([case], bad, reference)) == 2


def test_every_pool_case_has_a_reference_answer():
    reference = checks.load_reference()
    assert sorted(reference["oracles"]) == sorted(OracleWorkload.key(c) for c in OracleWorkload.pool())
    for seed in range(4):
        cases = OracleWorkload().cases(seed)
        assert all(OracleWorkload.key(c) in reference["oracles"] for c in cases)


def test_metric_tables_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == metrics.PER_LAYER


def test_matfree_check_compares_against_dense_value():
    workload = SweepWorkload("tiny", ((2100, 8400),), 1, ("lambda_max", "diag_dev"), 1, report=False)
    key = "2100,8400,0,lambda_max"

    def outputs(lam):
        return {"records": [
            {"p": 2100, "n": 8400, "replicate": 0, "task": "lambda_max", "value": lam, "aux": {"method": "matfree"}},
            {"p": 2100, "n": 8400, "replicate": 0, "task": "diag_dev", "value": 0.1, "aux": {}},
        ]}

    assert checks.check_sweep_matfree(workload, outputs(1.24), None, {key: 1.24}) == []
    assert len(checks.check_sweep_matfree(workload, outputs(1.24 * (1 + 1e-6)), None, {key: 1.24})) == 1
    assert len(checks.check_sweep_matfree(workload, outputs(1.24), None, {})) == 1
