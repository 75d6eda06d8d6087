"""End-to-end tests of the covspectrum command-line tool."""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import mpmath
import numpy as np
import pytest

from covspectrum import cli, spectral
from covspectrum.ensemble import load_matrix, save_matrix
from covspectrum.momentlab import exact_trace_moment
from covspectrum.reports import read_records

CLI = [sys.executable, "-m", "covspectrum"]


def run_cli(*args, env_extra=None, cwd=None, stdin=subprocess.DEVNULL):
    env = os.environ.copy()
    env.pop("COVSPECTRUM_OUT", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, env=env, cwd=cwd, stdin=stdin
    )


class TestGenAndSpectrum:
    def test_gen_writes_loadable_matrix(self, tmp_path):
        res = run_cli(
            "gen", "--dist", "rademacher", "--p", "4", "--n", "10",
            "--seed", "11", "--out", str(tmp_path),
        )
        assert res.returncode == 0, res.stderr
        path = res.stdout.strip()
        X = load_matrix(path)
        assert X.shape == (4, 10)
        assert set(np.unique(X)) <= {-1.0, 1.0}

    def test_gen_accepts_json_dist_and_csv_format(self, tmp_path):
        res = run_cli(
            "gen", "--dist", '{"kind": "student-t", "df": 5}', "--p", "3", "--n", "6",
            "--out", str(tmp_path), "--format", "csv",
        )
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip().endswith(".csv")

    def test_gen_rejects_two_point_a(self, tmp_path):
        res = run_cli(
            "gen", "--dist", '{"kind": "two-point", "a": 1, "q": 0.3}', "--p", "3", "--n", "6",
            "--out", str(tmp_path),
        )
        assert res.returncode == 1
        assert res.stderr.startswith("error:") and "'a'" in res.stderr
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "p, n, code, said",
        [
            # numpy cannot index this shape at all
            ("18446744073709551626", "1", 1, "Maximum allowed dimension exceeded"),
            # 2^57 bytes: numpy's allocation fails before any page is touched
            ("134217728", "134217728", 2, "Unable to allocate"),
        ],
        ids=["too-many-dimensions", "128-PiB"],
    )
    def test_gen_shape_numpy_refuses_is_an_error_line(self, tmp_path, p, n, code, said):
        res = run_cli("gen", "--dist", "gaussian", "--p", p, "--n", n, "--out", str(tmp_path))
        assert res.returncode == code
        assert res.stderr.startswith("error:") and said in res.stderr
        assert "Traceback" not in res.stderr
        assert not list(tmp_path.iterdir())

    def test_gen_determinism(self, tmp_path):
        args = ["gen", "--dist", "gaussian", "--p", "5", "--n", "8", "--seed", "3"]
        run_cli(*args, "--out", str(tmp_path / "a"))
        run_cli(*args, "--out", str(tmp_path / "b"))
        a = (tmp_path / "a" / "matrix_p5_n8_r0.bin").read_bytes()
        b = (tmp_path / "b" / "matrix_p5_n8_r0.bin").read_bytes()
        assert a == b

    @pytest.mark.parametrize("limit, method", [(2000, "dense"), (19, "matfree")], ids=["dense", "matfree"])
    def test_spectrum_prints_the_sweep_record(self, tmp_path, monkeypatch, capsys, limit, method):
        # the limit is lowered in-process, for the sweep and spectrum alike
        monkeypatch.setattr(spectral, "DENSE_P_LIMIT", limit)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"distribution": "gaussian", "grid": [[20, 200]], "master_seed": 5, "tasks": ["lambda_max"]}
        ))
        assert cli.main(["sweep", "--config", str(config), "--threads", "1", "--out", str(tmp_path)]) == 0
        (record,) = read_records(str(tmp_path / "records.csv"))
        argv = ["gen", "--dist", "gaussian", "--p", "20", "--n", "200", "--seed", "5", "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        path = capsys.readouterr().out.splitlines()[-1]
        assert cli.main(["spectrum", "--in", path]) == 0
        out = json.loads(capsys.readouterr().out)
        aux = {key: value for key, value in record.aux.items() if key != "wall_ms"}
        assert aux["method"] == method
        assert set(out) == {"p", "n", "lambda_max", "diag_max_dev", *aux}
        assert {key: out[key] for key in ("lambda_max", *aux)} == {"lambda_max": record.value, **aux}

    def test_spectrum_max_iter_reaches_the_solver(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(spectral, "DENSE_P_LIMIT", 10)
        monkeypatch.setattr(spectral, "MAX_ITER", 3)
        path = tmp_path / "m.bin"
        save_matrix(np.random.default_rng(5).standard_normal((20, 200)), path)
        assert cli.main(["spectrum", "--in", str(path)]) == 2
        assert "3 operator applications" in capsys.readouterr().err

    def test_spectrum_rejects_non_finite_matrix(self, tmp_path):
        entries = np.ones((3, 5))
        entries[0, 1] = np.nan
        path = tmp_path / "nan.bin"
        save_matrix(entries, path)
        res = run_cli("spectrum", "--in", str(path))
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr.startswith("error:") and "non-finite" in res.stderr

    def test_spectrum_rejects_truncated_header(self, tmp_path):
        good = tmp_path / "m.bin"
        save_matrix(np.ones((3, 5)), good)
        short = tmp_path / "short.bin"
        short.write_bytes(good.read_bytes()[:18])  # the magic plus 2 of the 16 header bytes
        res = run_cli("spectrum", "--in", str(short))
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr.startswith("error:") and "truncated matrix header" in res.stderr

    @pytest.mark.parametrize(
        "p, n, payload",
        [(2**40, 2**40, b""), (2**20, 2**10, b"\x00" * 64)],
        ids=["overflowing-size", "oversized-header"],
    )
    def test_spectrum_rejects_header_larger_than_file(self, tmp_path, p, n, payload):
        good = tmp_path / "m.bin"
        save_matrix(np.ones((1, 1)), good)
        forged = tmp_path / "forged.bin"
        forged.write_bytes(good.read_bytes()[:16] + p.to_bytes(8, "little") + n.to_bytes(8, "little") + payload)
        res = run_cli("spectrum", "--in", str(forged))
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr.startswith("error:") and "Traceback" not in res.stderr
        assert f"header says {p} x {n}" in res.stderr and f"the file holds {len(payload)}" in res.stderr

    def test_spectrum_rejects_forged_header_on_a_pipe(self, tmp_path):
        good = tmp_path / "m.bin"
        save_matrix(np.ones((1, 1)), good)
        read_end, write_end = os.pipe()
        with os.fdopen(write_end, "wb") as fh:
            fh.write(good.read_bytes()[:16] + (2**40).to_bytes(8, "little") * 2)
        with os.fdopen(read_end, "rb") as stdin:
            res = run_cli("spectrum", "--in", "/dev/stdin", stdin=stdin)
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr.startswith("error:") and "Traceback" not in res.stderr
        assert "truncated matrix payload" in res.stderr

    def test_solver_flags_are_rejected_with_dense(self, tmp_path):
        # spectrum picks its solver from p, so the old solver flags are unread
        path = tmp_path / "m.bin"
        save_matrix(np.ones((2, 3)), path)
        for flags in (["--tol", "-1"], ["--max-iter", "-5"]):
            res = run_cli("spectrum", "--in", str(path), "--method", "dense", *flags)
            assert res.returncode == 1
            assert res.stdout == ""
            assert res.stderr.startswith("error:")
            assert all(flag in res.stderr for flag in ("--method", flags[0]))

    def test_only_spectrum_switches_above_the_dense_limit(self, tmp_path):
        path = tmp_path / "tall.bin"
        save_matrix(np.zeros((2001, 1)), path)
        res = run_cli("esd", "--in", str(path), "--out", str(tmp_path))
        assert res.returncode == 0, res.stderr
        assert len((tmp_path / "spectrum.csv").read_text().splitlines()) == 2001 + 1
        res = run_cli("spectrum", "--in", str(path))
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout)["method"] == "matfree"

    @pytest.mark.parametrize(
        "argv", [["covtest", "--sigma", '{"kind":"identity"}'], ["esd"]], ids=["covtest", "esd"]
    )
    def test_failed_allocation_exits_2(self, tmp_path, argv):
        # numpy refuses the 8 TiB p x p matrix up front, before touching memory
        path = tmp_path / "tall.bin"
        save_matrix(np.zeros((2**20, 1)), path)
        res = run_cli(argv[0], "--in", str(path), *argv[1:], env_extra={"COVSPECTRUM_OUT": str(tmp_path)})
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.startswith("error: Unable to allocate 8.00 TiB") and res.stderr.count("\n") == 1
        assert not (tmp_path / "spectrum.csv").exists()

    def test_esd_writes_spectrum_csv(self, tmp_path):
        gen = run_cli(
            "gen", "--dist", "gaussian", "--p", "10", "--n", "100",
            "--seed", "5", "--out", str(tmp_path),
        )
        res = run_cli("esd", "--in", gen.stdout.strip(), "--out", str(tmp_path))
        assert res.returncode == 0, res.stderr
        payload = json.loads(res.stdout)
        lines = Path(payload["spectrum_csv"]).read_text().splitlines()
        assert lines[0] == "index,eigenvalue"
        assert len(lines) == 11
        assert 0.0 <= payload["ks_to_semicircle"] <= 1.0


class TestCovtestAndMoments:
    def test_covtest_reports_factorized_bound(self, tmp_path):
        gen = run_cli(
            "gen", "--dist", "gaussian", "--p", "8", "--n", "400",
            "--seed", "9", "--out", str(tmp_path),
        )
        res = run_cli(
            "covtest", "--in", gen.stdout.strip(), "--sigma", '{"kind": "toeplitz", "rho": 0.5}'
        )
        assert res.returncode == 0, res.stderr
        payload = json.loads(res.stdout)
        assert payload["within_bound"] is True
        assert payload["norm_error"] <= payload["factorized_bound"] + 1e-10

    def test_moments_classify(self):
        res = run_cli("moments", "classify", "--circuit", '{"k": 2, "i": [1, 2], "j": [1, 1]}')
        assert res.returncode == 0, res.stderr
        payload = json.loads(res.stdout)
        assert payload["labels"] == [
            "column-innovation-T11",
            "row-innovation",
            "T3-irregular",
            "T3-irregular",
        ]
        assert payload["stats"]["is_W"] is True

    @pytest.mark.parametrize(
        "circuit",
        [
            '{"k": 2.7, "i": [1, 2], "j": [1, 1]}',
            '{"k": 2, "i": [true, 2], "j": [1, 1]}',
            '{"k": "x", "i": [1, 2], "j": [1, 1]}',
        ],
        ids=["float-k", "bool-index", "string-k"],
    )
    def test_moments_classify_rejects_non_integers(self, circuit):
        res = run_cli("moments", "classify", "--circuit", circuit)
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr.startswith("error:") and "Traceback" not in res.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ["covtest", "--sigma", '{"kind": "toeplitz"}'],
            ["covtest", "--sigma", '{"kind": "toeplitz", "rho": "0.5"}'],
            ["covtest", "--sigma", '{"kind": "diagonal", "d": ["x", 1, 1, 1]}'],
            ["covtest", "--sigma", '{"kind": "diagonal", "d": 5}'],
            ["covtest", "--sigma", '{"kind": "diagonal", "d": [1, 1, 1, NaN]}'],
            ["gen", "--dist", '{"kind": "student-t", "df": "x"}', "--p", "4", "--n", "10"],
            ["gen", "--dist", '{"kind": "two-point", "q": "0.3"}', "--p", "4", "--n", "10"],
            ["covtest", "--sigma", '{"kind": "toeplitz", "rho": 0.5, "d": [1, 2]}'],
            ["moments", "classify", "--circuit", '{"k": 1, "i": [1], "j": [1], "zzz": 9}'],
        ],
        ids=[
            "rho-missing",
            "rho-string",
            "d-string",
            "d-number",
            "d-nan",
            "df-string",
            "q-string",
            "covariance-unknown-field",
            "circuit-unknown-field",
        ],
    )
    def test_malformed_spec_is_validation_error(self, tmp_path, argv):
        path = tmp_path / "m.bin"
        save_matrix(np.ones((4, 10)), path)
        where = {"covtest": ["--in", str(path)], "gen": ["--out", str(tmp_path / "gen")]}.get(argv[0], [])
        res = run_cli(*argv, *where)
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr.startswith("error:") and "Traceback" not in res.stderr

    def test_covtest_explicit_path_must_be_a_string(self, tmp_path):
        # open(0) would read Sigma from stdin, so stdin holds a valid Sigma
        data, sigma = tmp_path / "m.bin", tmp_path / "sigma.bin"
        save_matrix(np.ones((4, 10)), data)
        save_matrix(np.eye(4), sigma)
        with open(sigma, "rb") as fh:
            res = run_cli("covtest", "--in", str(data), "--sigma", '{"kind": "explicit", "path": 0}', stdin=fh)
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr.startswith("error:") and "'path' string" in res.stderr

    def test_moments_exact(self):
        res = run_cli("moments", "exact", "--p", "3", "--n", "4", "--k", "2")
        assert json.loads(res.stdout)["exact"] == 0.5

    @pytest.mark.parametrize("flag", ["--p", "--n", "--k"])
    def test_moments_exact_names_p_n_k(self, flag):
        argv = {"--p": "3", "--n": "4", "--k": "2"}
        argv[flag] = "0"
        res = run_cli("moments", "exact", *(x for kv in argv.items() for x in kv))
        assert res.returncode == 1
        assert res.stderr == "error: p, n, k must be >= 1\n"

    @pytest.mark.parametrize(
        "argv, power",
        [
            # the 40,000 gaussian moments alone would take minutes
            (["--p", "10", "--n", "100", "--k", "20000", "--dist", "gaussian"], "1.000e+60000"),
            # (pn)^k beyond the double range
            (["--p", "10", "--n", "100", "--k", "110"], "1.000e+330"),
            # p = 1 answers 0.0 without moments, but only within the budget
            (["--p", "1", "--n", "100", "--k", "5"], "1.000e+10"),
        ],
        ids=["k20000-gaussian", "k110", "p1"],
    )
    def test_moments_exact_checks_the_budget_first(self, capsys, argv, power):
        start = time.perf_counter()
        code = cli.main(["moments", "exact", *argv])
        elapsed = time.perf_counter() - start
        assert code == 2
        assert capsys.readouterr().err == f"error: (p*n)^k = {power} exceeds the 1e+08 term budget\n"
        assert elapsed < 1.0

    def test_moments_exact_at_p_one_builds_no_moments(self, capsys):
        # the 8,000 gaussian moments alone took seconds for an answer of 0.0
        start = time.perf_counter()
        code = cli.main(["moments", "exact", "--p", "1", "--n", "1", "--k", "4000", "--dist", "gaussian"])
        elapsed = time.perf_counter() - start
        assert code == 0
        assert json.loads(capsys.readouterr().out)["exact"] == 0.0
        assert elapsed < 1.0

    @pytest.mark.parametrize("k", ["1025", "1100"])
    def test_moments_exact_p_n_one_at_large_k(self, k):
        # no star circuit at p = 1, and 2^k no longer fits a double
        res = run_cli("moments", "exact", "--p", "1", "--n", "1", "--k", k)
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout)["exact"] == 0.0

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["--p", "2", "--n", "2", "--k", "4", "--dist", '{"kind": "two-point", "q": 1e-100}'], "oracle"),
            # E tr(B^2) = (p - 1)/4 for every standardized law
            (["--p", "2", "--n", "3", "--k", "2", "--dist", '{"kind": "student-t", "df": 400}'], 0.25),
            # p = 1 has no star circuit
            (["--p", "1", "--n", "1", "--k", "200", "--dist", "gaussian"], 0.0),
        ],
        ids=["two-point-small-q", "t400", "gaussian-order-400"],
    )
    def test_moments_exact_where_a_closed_form_overflows(self, argv, expected):
        if expected == "oracle":
            # E X^8 = (1 - q)^4 / q^3 ~ 1e300 is finite; mpmath gives the moment sequence
            with mpmath.workdps(50):
                q = mpmath.mpf(1e-100)
                x_hi, x_lo = mpmath.sqrt((1 - q) / q), -mpmath.sqrt(q / (1 - q))
                moments = tuple(float(q * x_hi**s + (1 - q) * x_lo**s) for s in range(1, 9))
            expected = exact_trace_moment(2, 2, 4, moments)
        res = run_cli("moments", "exact", *argv)
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout)["exact"] == pytest.approx(expected, rel=1e-12)

    def test_moments_bound_and_schedule(self):
        res = run_cli("moments", "bound", "--p", "3", "--n", "9", "--k", "1", "--delta", "0.5")
        assert json.loads(res.stdout)["bound"] == pytest.approx(1.5 * (1 / 3) ** 0.5, rel=1e-12)
        res = run_cli("moments", "schedule", "--p", "1000", "--delta", "0.2")
        payload = json.loads(res.stdout)
        assert "feasible" in payload and len(payload["conditions"]) == 6

    @pytest.mark.parametrize(
        "p, delta, passed",
        [
            ("100", "1e300", [False, False, True, False, False, True]),
            ("1" + "0" * 700, "0.5", [True, False, True, True, False, True]),
        ],
        ids=["huge-delta", "huge-p"],
    )
    def test_schedule_prints_strict_json(self, p, delta, passed):
        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        res = run_cli("moments", "schedule", "--p", p, "--delta", delta)
        assert res.returncode == 0, res.stderr
        payload = json.loads(res.stdout, parse_constant=reject)
        assert [c["passed"] for c in payload["conditions"]] == passed
        assert {c["name"] for c in payload["conditions"] if c["value"] is None} >= {"h_tail"}
        assert payload["feasible"] is False

    def test_missing_required_knob_is_validation_error(self):
        res = run_cli("moments", "exact", "--p", "3")
        assert res.returncode == 1
        assert res.stderr.startswith("error:") and "--n" in res.stderr


class TestOneCodePath:
    def test_cli_and_sweep_give_identical_numbers(self, tmp_path):
        seed = 9
        sigma = {"kind": "toeplitz", "rho": 0.5}
        gen = run_cli(
            "gen", "--dist", "gaussian", "--p", "8", "--n", "400",
            "--seed", str(seed), "--out", str(tmp_path),
        )
        path = gen.stdout.strip()
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "distribution": "gaussian",
            "grid": [[8, 400]],
            "replicates": 1,
            "master_seed": seed,
            "tasks": ["lambda_max", "esd_ks", {"name": "cov_rate", "sigma": sigma}],
        }))
        sweep = run_cli("sweep", "--config", str(config), "--out", str(tmp_path / "run"))
        assert sweep.returncode == 0, sweep.stderr
        records = {r.task: r for r in read_records(json.loads(sweep.stdout)["records_csv"])}

        cov = json.loads(run_cli("covtest", "--in", path, "--sigma", json.dumps(sigma)).stdout)
        rate = records["cov_rate"]
        assert (cov["norm_error"], cov["factorized_bound"], cov["sigma_norm"]) == (
            rate.value, rate.aux["bound"], rate.aux["sigma_norm"]
        )
        spectrum = json.loads(run_cli("spectrum", "--in", path).stdout)
        lam = records["lambda_max"]
        assert (spectrum["lambda_max"], spectrum["method"], spectrum["lambda_max_b"]) == (
            lam.value, lam.aux["method"], lam.aux["lambda_max_b"]
        )
        esd = json.loads(run_cli("esd", "--in", path, "--out", str(tmp_path / "esd")).stdout)
        ks = records["esd_ks"]
        assert (esd["lambda_max"], esd["ks_to_semicircle"]) == (ks.aux["lambda_max"], ks.value)

    @pytest.mark.parametrize(
        "dist",
        [{"kind": "gaussian"}, {"kind": "student-t", "df": 5}, {"kind": "two-point", "q": 0.3}],
        ids=["gaussian", "t5", "two-point"],
    )
    @pytest.mark.parametrize("p, n, k", [(3, 6, 4), (4, 5, 3)])
    def test_moments_exact_is_the_moment_check_record(self, tmp_path, capsys, dist, p, n, k):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"distribution": dist, "grid": [[p, n]], "tasks": [{"name": "moment_check", "k": k}]}
        ))
        assert cli.main(["sweep", "--config", str(config), "--threads", "1", "--out", str(tmp_path)]) == 0
        (record,) = read_records(str(tmp_path / "records.csv"))
        capsys.readouterr()
        argv = ["moments", "exact", "--p", str(p), "--n", str(n), "--k", str(k), "--dist", json.dumps(dist)]
        assert cli.main(argv) == 0
        assert json.loads(capsys.readouterr().out)["exact"] == record.value


class TestSweepAndReport:
    @staticmethod
    def _write_config(tmp_path):
        config = {
            "distribution": "rademacher",
            "grid": [[10, 100], [10, 400]],
            "replicates": 2,
            "master_seed": 21,
            "tasks": ["lambda_max", "diag_dev"],
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        return path

    def test_sweep_then_report(self, tmp_path):
        config = self._write_config(tmp_path)
        res = run_cli("sweep", "--config", str(config), "--out", str(tmp_path / "run"))
        assert res.returncode == 0, res.stderr
        payload = json.loads(res.stdout)
        assert payload["records"] == 8 and payload["failed"] == 0
        rep = run_cli(
            "report", "--records", payload["records_csv"],
            "--format", "svg", "--out", str(tmp_path / "plots"),
        )
        assert rep.returncode == 0, rep.stderr
        paths = json.loads(rep.stdout)["paths"]
        assert len(paths) == 2  # one svg per task
        for p in paths:
            assert Path(p).read_text().startswith("<svg")

    def test_sweep_thread_flag_reproducible(self, tmp_path):
        config = self._write_config(tmp_path)
        run_cli("sweep", "--config", str(config), "--threads", "1", "--out", str(tmp_path / "t1"))
        run_cli("sweep", "--config", str(config), "--threads", "8", "--out", str(tmp_path / "t8"))
        assert (tmp_path / "t1" / "records.csv").read_bytes() == (
            tmp_path / "t8" / "records.csv"
        ).read_bytes()

    def test_seed_zero_overrides_config_master_seed(self, tmp_path):
        config = self._write_config(tmp_path)  # master_seed 21
        zero = tmp_path / "zero.json"
        zero.write_text(json.dumps({**json.loads(config.read_text()), "master_seed": 0}))
        run_cli("sweep", "--config", str(config), "--seed", "0", "--out", str(tmp_path / "flag"))
        run_cli("sweep", "--config", str(zero), "--out", str(tmp_path / "zero"))
        run_cli("sweep", "--config", str(config), "--out", str(tmp_path / "own"))
        flag = (tmp_path / "flag" / "records.csv").read_bytes()
        assert flag == (tmp_path / "zero" / "records.csv").read_bytes()
        assert flag != (tmp_path / "own" / "records.csv").read_bytes()

    @pytest.mark.parametrize(
        "text",
        ["{not json"]
        + [
            json.dumps({"distribution": "gaussian", "grid": [[10, 100]], **fields})
            for fields in (
                {"replicates": "x"},
                {"grid": [[10.7, 100]]},
                {"grid": [[10, True]]},
                {"replicates": 2.5},
                {"replicates": True},
                {"master_seed": 1.5},
                {"master_seed": True},
                {"tasks": [{"name": "moment_check", "k": True}]},
                {"tasks": [{"name": "moment_check", "k": 2.5}]},
                {"replicate": 5},
                {"tasks": [{"name": "diag_dev", "k": 3, "sigma": {"kind": "identity"}}]},
                {"output_dir": 5},
                {"grid": [[10, 100], [10, 100]]},
            )
        ]
        + [b'\xff\xfe{"distribution": "gaussian", "grid": [[10, 100]]}'],
        ids=[
            "not-json",
            "bad-replicates",
            "float-grid",
            "bool-grid",
            "float-replicates",
            "bool-replicates",
            "float-master-seed",
            "bool-master-seed",
            "bool-k",
            "float-k",
            "unknown-config-field",
            "unknown-task-field",
            "output-dir-field",
            "duplicate-grid-shape",
            "not-utf8",
        ],
    )
    def test_malformed_config_is_validation_error(self, tmp_path, text):
        config = tmp_path / "config.json"
        config.write_bytes(text if isinstance(text, bytes) else text.encode())
        res = run_cli("sweep", "--config", str(config), "--out", str(tmp_path / "run"))
        assert res.returncode == 1
        assert res.stderr.startswith("error:") and "Traceback" not in res.stderr
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("grid", [[[10, 100]], [[10, 100], [10, 400]]], ids=["one-job", "two-jobs"])
    def test_negative_threads_is_validation_error(self, tmp_path, grid):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"distribution": "gaussian", "grid": grid, "tasks": ["diag_dev"]}))
        res = run_cli("sweep", "--config", str(config), "--threads", "-1", "--out", str(tmp_path / "run"))
        assert res.returncode == 1
        assert res.stderr.startswith("error:") and "threads" in res.stderr
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "rows, where",
        [
            ('1.5,100,0.1,0,diag_dev,0.5,"{}"', "{records}, line 2"),
            ("10,100,0.1,0,diag_dev,0.5,{oops", "{records}, line 2"),
            ("10,100,0.1,0,diag_dev", "{records}, line 2"),
            ("10,100,0.1,0,diag_dev,0.5,[1]", "{records}, line 2"),
            ('10,0,0.1,0,diag_dev,0.5,"{}"', "{records}, line 2"),
            ('0,100,0.0,0,diag_dev,0.5,"{}"', "{records}, line 2"),
            ('10,100,0.1,-1,diag_dev,0.5,"{}"', "{records}, line 2"),
            ('10,100,0.1,0,cov_rate,0.5,"{""bound"":NaN}"', "{records}, line 2"),
            ('10,100,0.1,0,cov_rate,0.5,"{""bound"":Infinity}"', "{records}, line 2"),
            (
                '10,100,0.1,0,cov_rate,0.3,"{}"\n10,500,0.02,0,cov_rate,0.0,"{}"\n10,1000,0.01,0,cov_rate,0.1,"{}"',
                "p=10, n=500",
            ),
        ],
        ids=[
            "float-p",
            "bad-aux",
            "short-row",
            "aux-not-object",
            "zero-n",
            "zero-p",
            "negative-replicate",
            "aux-nan",
            "aux-infinity",
            "non-positive-cov-rate-median",
        ],
    )
    def test_report_rejects_malformed_row(self, tmp_path, rows, where):
        records = tmp_path / "records.csv"
        records.write_text("p,n,ratio,replicate,task,value,aux\n" + rows + "\n")
        res = run_cli("report", "--records", str(records), "--out", str(tmp_path / "report"))
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr.startswith("error:") and "Traceback" not in res.stderr
        assert where.format(records=records) in res.stderr
        assert not (tmp_path / "report").exists()

    def test_report_without_a_usable_rate_fit_exits_0(self, tmp_path):
        # the diagonal Sigma has 10 entries, so every p = 20 cov_rate row fails
        # and only 2 usable p/n ratios remain
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "distribution": "gaussian",
            "grid": [[10, 1000], [10, 500], [20, 400]],
            "tasks": [{"name": "cov_rate", "sigma": {"kind": "diagonal", "d": [1.0] * 10}}],
        }))
        sweep = run_cli("sweep", "--config", str(config), "--out", str(tmp_path / "run"))
        assert json.loads(sweep.stdout)["failed"] == 1
        rep = run_cli("report", "--records", str(tmp_path / "run" / "records.csv"), "--out", str(tmp_path / "run"))
        assert rep.returncode == 0, rep.stderr
        assert sorted(json.loads(rep.stdout)) == ["paths"]

    def test_report_rejects_undecodable_bytes(self, tmp_path):
        records = tmp_path / "records.csv"
        records.write_bytes(b"p,n,ratio,replicate,task,value,aux\n10,100,0.1,0,diag_dev,0.5,\"{}\"\xff\n")
        res = run_cli("report", "--records", str(records), "--out", str(tmp_path / "report"))
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr.startswith("error:") and "Traceback" not in res.stderr
        assert f"{records}: records file is not text" in res.stderr
        assert not (tmp_path / "report").exists()

    def test_env_var_out_dir_honored_only_without_flag(self, tmp_path):
        config = self._write_config(tmp_path)
        env_dir = tmp_path / "from_env"
        run_cli(
            "sweep", "--config", str(config),
            env_extra={"COVSPECTRUM_OUT": str(env_dir)},
        )
        assert (env_dir / "records.csv").exists()
        flag_dir = tmp_path / "from_flag"
        run_cli(
            "sweep", "--config", str(config), "--out", str(flag_dir),
            env_extra={"COVSPECTRUM_OUT": str(tmp_path / "ignored")},
        )
        assert (flag_dir / "records.csv").exists()
        assert not (tmp_path / "ignored").exists()


@pytest.mark.parametrize("module", ["scipy.special", "scipy"])
def test_cli_import_leaves_scipy_special_out(module):
    code = f"import sys, covspectrum.cli; print({module!r} in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


class TestExitCodes:
    def test_unknown_flag_is_1(self):
        assert run_cli("gen", "--bogus").returncode == 1

    def test_validation_error_is_1(self):
        res = run_cli("moments", "exact", "--p", "0", "--n", "4", "--k", "2")
        assert res.returncode == 1

    def test_resource_error_is_2(self):
        res = run_cli("moments", "exact", "--p", "10", "--n", "10", "--k", "9")
        assert res.returncode == 2
        res = run_cli("moments", "bound", "--p", "2", "--n", "2", "--k", "25", "--delta", "1.0")
        assert res.returncode == 2

    def test_io_error_is_3(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        res = run_cli(
            "gen", "--dist", "gaussian", "--p", "2", "--n", "2", "--out", str(blocker)
        )
        assert res.returncode == 3

    def test_version_is_0(self):
        res = run_cli("--version")
        assert res.returncode == 0
        assert "covspectrum" in res.stdout


def _declared_options(parser, prefix=""):
    """Subcommand path -> option strings, walking nested subparsers."""
    out = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sp in action.choices.items():
                path = f"{prefix} {name}".strip()
                out[path] = {opt for a in sp._actions for opt in a.option_strings} - {"-h", "--help"}
                out.update(_declared_options(sp, path))
    return out


class TestParser:
    OPTIONS = {
        "gen": {"--dist", "--p", "--n", "--replicate", "--name", "--seed", "--format", "--out"},
        "spectrum": {"--in"},
        "esd": {"--in", "--out"},
        "covtest": {"--in", "--sigma"},
        "moments": set(),
        "moments classify": {"--circuit"},
        "moments exact": {"--p", "--n", "--k", "--dist"},
        "moments bound": {"--p", "--n", "--k", "--delta"},
        "moments schedule": {"--p", "--delta", "--c1"},
        "sweep": {"--config", "--seed", "--threads", "--out"},
        "report": {"--records", "--format", "--out"},
    }

    def test_each_subcommand_declares_only_what_it_reads(self):
        assert _declared_options(cli.build_parser()) == self.OPTIONS

    def test_flag_a_subcommand_does_not_read_is_rejected(self, tmp_path):
        res = run_cli("spectrum", "--in", str(tmp_path / "missing.bin"), "--threads", "2")
        assert res.returncode == 1
        assert res.stderr.startswith("error:") and "--threads" in res.stderr

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["bound", "--p", "3", "--n", "9", "--k", "1", "--delta", "0.5", "--circuit", "junk"], "--circuit"),
            (["bound", "--p", "3", "--n", "9", "--k", "1", "--delta", "0.5", "--dist", "nonsense"], "--dist"),
            (["schedule", "--p", "1000", "--delta", "0.2", "--n", "5"], "--n"),
        ],
        ids=["bound-circuit", "bound-dist", "schedule-n"],
    )
    def test_moments_mode_rejects_flags_it_does_not_read(self, argv, flag):
        res = run_cli("moments", *argv)
        assert res.returncode == 1
        assert res.stderr.startswith("error:") and flag in res.stderr
