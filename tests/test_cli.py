"""End-to-end tests of the covspectrum command-line tool."""

import argparse
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import mpmath
import numpy as np
import pytest

from covspectrum import cli, spectral
from covspectrum.ensemble import DistributionSpec, load_matrix, save_matrix
from covspectrum.errors import ConvergenceError
from covspectrum.momentlab import exact_trace_moment
from covspectrum.reports import _BLOCKS, edge_report, read_records

CLI = [sys.executable, "-m", "covspectrum"]
SRC = str(Path(cli.__file__).resolve().parents[1])  # so a child run from any cwd imports this package


def run_cli(*args, env_extra=None, cwd=None, stdin=subprocess.DEVNULL):
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, env=env, cwd=cwd, stdin=stdin
    )


def tasks_argv(path, *tasks):
    return ["tasks", "--in", str(path), "--tasks", json.dumps(list(tasks))]


class TestGenAndTasks:
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

    @pytest.mark.parametrize(
        "name", ["../escaped", "ABSOLUTE", "", ".", "..", "sub/m"],
        ids=["parent", "absolute", "empty", "dot", "dot-dot", "subdirectory"],
    )
    def test_gen_name_is_a_file_name_in_out(self, tmp_path, capsys, name):
        # a path would escape --out, and an empty name fell back to the derived one
        name = str(tmp_path / "absolute") if name == "ABSOLUTE" else name
        argv = ["gen", "--dist", "gaussian", "--p", "2", "--n", "3", "--out", str(tmp_path / "outdir"), "--name", name]
        assert cli.main(argv) == 1
        assert capsys.readouterr() == ("", f"error: --name {name!r} is not a file name: the file goes in --out\n")
        assert list(tmp_path.iterdir()) == []

    def test_tasks_max_basis_reaches_the_solver(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(spectral, "DENSE_P_LIMIT", 10)
        monkeypatch.setattr(spectral, "MAX_BASIS", 3)
        path = tmp_path / "m.bin"
        save_matrix(np.random.default_rng(5).standard_normal((20, 200)), path)
        assert cli.main(tasks_argv(path, "lambda_max")) == 2
        out, err = capsys.readouterr()
        with pytest.raises(ConvergenceError) as exc:
            spectral.lambda_max_matfree(load_matrix(path))
        assert exc.value.iterations == 4  # three Lanczos steps and one true residual
        assert out == ""
        assert "4 operator applications" in err
        assert f"best Ritz value {exc.value.best_value!r}, true residual {exc.value.residual!r}" in err

    def test_tasks_rejects_non_finite_matrix(self, tmp_path):
        entries = np.ones((3, 5))
        entries[0, 1] = np.nan
        path = tmp_path / "nan.bin"
        save_matrix(entries, path)
        res = run_cli(*tasks_argv(path, "lambda_max"))
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr.startswith("error:") and "non-finite" in res.stderr

    def test_tasks_rejects_truncated_header(self, tmp_path):
        good = tmp_path / "m.bin"
        save_matrix(np.ones((3, 5)), good)
        short = tmp_path / "short.bin"
        short.write_bytes(good.read_bytes()[:18])  # the magic plus 2 of the 16 header bytes
        res = run_cli(*tasks_argv(short, "lambda_max"))
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr.startswith("error:") and "truncated matrix header" in res.stderr

    @pytest.mark.parametrize(
        "p, n, payload",
        [(2**40, 2**40, b""), (2**20, 2**10, b"\x00" * 64)],
        ids=["overflowing-size", "oversized-header"],
    )
    def test_tasks_rejects_header_larger_than_file(self, tmp_path, p, n, payload):
        good = tmp_path / "m.bin"
        save_matrix(np.ones((1, 1)), good)
        forged = tmp_path / "forged.bin"
        forged.write_bytes(good.read_bytes()[:16] + p.to_bytes(8, "little") + n.to_bytes(8, "little") + payload)
        res = run_cli(*tasks_argv(forged, "lambda_max"))
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr.startswith("error:") and "Traceback" not in res.stderr
        assert f"header says {p} x {n}" in res.stderr and f"the file holds {len(payload)}" in res.stderr

    def test_tasks_rejects_forged_header_on_a_pipe(self, tmp_path):
        good = tmp_path / "m.bin"
        save_matrix(np.ones((1, 1)), good)
        read_end, write_end = os.pipe()
        with os.fdopen(write_end, "wb") as fh:
            fh.write(good.read_bytes()[:16] + (2**40).to_bytes(8, "little") * 2)
        with os.fdopen(read_end, "rb") as stdin:
            res = run_cli(*tasks_argv("/dev/stdin", "lambda_max"), stdin=stdin)
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr.startswith("error:") and "Traceback" not in res.stderr
        assert "truncated matrix payload" in res.stderr

    @pytest.mark.parametrize("piped", [False, True], ids=["file", "pipe"])
    def test_tasks_rejects_bytes_after_the_payload(self, tmp_path, piped):
        # a header that undercounts its payload must not load the wrong matrix
        path = tmp_path / "m.bin"
        save_matrix(np.ones((3, 4)), path)
        path.write_bytes(path.read_bytes() + b"\x00" * 16)
        if piped:
            read_end, write_end = os.pipe()
            with os.fdopen(write_end, "wb") as fh:
                fh.write(path.read_bytes())
            with os.fdopen(read_end, "rb") as stdin:
                res = run_cli(*tasks_argv("/dev/stdin", "lambda_max"), stdin=stdin)
        else:
            res = run_cli(*tasks_argv(path, "lambda_max"))
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr.startswith("error:") and "Traceback" not in res.stderr
        assert "bytes after the matrix payload: the header says 3 x 4 (96 bytes)" in res.stderr

    def test_solver_flags_are_rejected_with_dense(self, tmp_path):
        # lambda_max picks its solver from p, so the old solver flags are unread
        path = tmp_path / "m.bin"
        save_matrix(np.ones((2, 3)), path)
        for flags in (["--tol", "-1"], ["--max-iter", "-5"]):
            res = run_cli(*tasks_argv(path, "lambda_max"), "--method", "dense", *flags)
            assert res.returncode == 1
            assert res.stdout == ""
            assert res.stderr.startswith("error:")
            assert all(flag in res.stderr for flag in ("--method", flags[0]))

    def test_only_lambda_max_switches_above_the_dense_limit(self, tmp_path, capsys):
        path = tmp_path / "tall.bin"
        save_matrix(np.zeros((2001, 1)), path)
        assert cli.main(tasks_argv(path, "esd_ks", "lambda_max")) == 0
        out = json.loads(capsys.readouterr().out)["tasks"]
        assert out["esd_ks"]["aux"]["lambda_max"] == -1 / (2 * math.sqrt(2001))  # A = -I / (2 sqrt(np)), dense
        assert out["lambda_max"]["aux"]["method"] == "matfree"

    @pytest.mark.parametrize(
        "task", [{"name": "cov_rate", "sigma": {"kind": "identity"}}, "esd_ks"], ids=["cov_rate", "esd_ks"]
    )
    def test_failed_allocation_exits_2(self, tmp_path, task):
        # numpy refuses the 8 TiB p x p matrix up front, before touching memory
        path = tmp_path / "tall.bin"
        save_matrix(np.zeros((2**20, 1)), path)
        res = run_cli(*tasks_argv(path, task), cwd=tmp_path)
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.startswith("error: Unable to allocate 8.00 TiB") and res.stderr.count("\n") == 1
        assert os.listdir(tmp_path) == ["tall.bin"]

    def test_tasks_refuses_moment_check(self, tmp_path, capsys):
        # the exact E tr(B^k) needs the entry law, and a matrix file carries none
        path = tmp_path / "m.bin"
        save_matrix(np.ones((3, 5)), path)
        assert cli.main(tasks_argv(path, "diag_dev", {"name": "moment_check", "k": 4})) == 1
        assert capsys.readouterr() == ("", "error: moment_check needs the entry law, which a matrix does not carry\n")

    @pytest.mark.parametrize(
        "tasks, says",
        [
            (["diag_dev", "lambda_max", "diag_dev"], "duplicate task names"),
            (["lambda_min"], "unknown task 'lambda_min'"),
            ([{"name": "cov_rate"}], "cov_rate requires sigma"),
            ([{"name": "diag_dev", "k": 3}], "unknown task fields"),
            ([7], "task must be a name or a dict"),
            ("lambda_max", "tasks must be a list of task names or dicts"),
            ({"name": "lambda_max"}, "tasks must be a list of task names or dicts"),
        ],
        ids=["duplicate", "unknown", "no-sigma", "unknown-field", "not-a-task", "string", "dict"],
    )
    def test_tasks_refuses_what_a_sweep_config_refuses(self, tmp_path, capsys, tasks, says):
        path = tmp_path / "m.bin"
        save_matrix(np.ones((3, 5)), path)
        assert cli.main(["tasks", "--in", str(path), "--tasks", json.dumps(tasks)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:") and says in err and err.count("\n") == 1
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"distribution": "gaussian", "grid": [[3, 5]], "tasks": tasks}))
        assert cli.main(["sweep", "--config", str(config), "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr() == ("", err)

    def test_tasks_refuses_text_that_is_not_json(self, tmp_path, capsys):
        path = tmp_path / "m.bin"
        save_matrix(np.ones((3, 5)), path)
        assert cli.main(["tasks", "--in", str(path), "--tasks", "[lambda_max]"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: invalid tasks JSON:")


class TestCovRateAndMoments:
    def test_cov_rate_error_is_within_its_factorized_bound(self, tmp_path):
        gen = run_cli(
            "gen", "--dist", "gaussian", "--p", "8", "--n", "400",
            "--seed", "9", "--out", str(tmp_path),
        )
        res = run_cli(*tasks_argv(gen.stdout.strip(), {"name": "cov_rate", "sigma": {"kind": "toeplitz", "rho": 0.5}}))
        assert res.returncode == 0, res.stderr
        rate = json.loads(res.stdout)["tasks"]["cov_rate"]
        assert rate["value"] <= rate["aux"]["bound"] + 1e-10

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
            ["tasks", "--tasks", '[{"name": "cov_rate", "sigma": {"kind": "toeplitz"}}]'],
            ["tasks", "--tasks", '[{"name": "cov_rate", "sigma": {"kind": "toeplitz", "rho": "0.5"}}]'],
            ["tasks", "--tasks", '[{"name": "cov_rate", "sigma": {"kind": "diagonal", "d": ["x", 1, 1, 1]}}]'],
            ["tasks", "--tasks", '[{"name": "cov_rate", "sigma": {"kind": "diagonal", "d": 5}}]'],
            ["tasks", "--tasks", '[{"name": "cov_rate", "sigma": {"kind": "diagonal", "d": [1, 1, 1, NaN]}}]'],
            ["gen", "--dist", '{"kind": "student-t", "df": "x"}', "--p", "4", "--n", "10"],
            ["gen", "--dist", '{"kind": "two-point", "q": "0.3"}', "--p", "4", "--n", "10"],
            ["tasks", "--tasks", '[{"name": "cov_rate", "sigma": {"kind": "toeplitz", "rho": 0.5, "d": [1, 2]}}]'],
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
        where = {"tasks": ["--in", str(path)], "gen": ["--out", str(tmp_path / "gen")]}.get(argv[0], [])
        res = run_cli(*argv, *where)
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr.startswith("error:") and "Traceback" not in res.stderr

    def test_cov_rate_explicit_path_must_be_a_string(self, tmp_path):
        # open(0) would read Sigma from stdin, so stdin holds a valid Sigma
        data, sigma = tmp_path / "m.bin", tmp_path / "sigma.bin"
        save_matrix(np.ones((4, 10)), data)
        save_matrix(np.eye(4), sigma)
        with open(sigma, "rb") as fh:
            res = run_cli(*tasks_argv(data, {"name": "cov_rate", "sigma": {"kind": "explicit", "path": 0}}), stdin=fh)
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr.startswith("error:") and "'path' string" in res.stderr

    _OVERFLOW_ERROR = "error: matrix has non-finite entries; did the input overflow?"
    # above DENSE_P_LIMIT rows lambda_max runs Lanczos, which forms no Gram and has its own check
    _LANCZOS_ERROR = "error: non-finite Lanczos coefficient in lambda_max_matfree; did the input overflow?"
    _OVERFLOWS = pytest.mark.parametrize(
        "task, huge_shape, error",
        [
            ("lambda_max", (3, 5), _OVERFLOW_ERROR),
            ("lambda_max", (spectral.DENSE_P_LIMIT + 1, 3), _LANCZOS_ERROR),
            ("esd_ks", (3, 5), _OVERFLOW_ERROR),
            ({"name": "cov_rate", "sigma": {"kind": "identity"}}, (3, 5), _OVERFLOW_ERROR),
            ({"name": "cov_rate", "sigma": {"kind": "diagonal", "d": [1.7e308, 1, 1]}}, None, _OVERFLOW_ERROR),
            ({"name": "cov_rate", "sigma": {"kind": "explicit", "path": "SIGMA"}}, None, _OVERFLOW_ERROR),
        ],
        ids=[
            "lambda_max", "lambda_max-lanczos", "esd_ks", "cov_rate-identity", "cov_rate-huge-diagonal",
            "cov_rate-huge-explicit",
        ],
    )

    @staticmethod
    def _overflow_argv(tmp_path, task, huge_shape):
        """tasks argv for task on finite entries whose Gram, Lanczos step or S2 overflows to inf.

        The matrix is of shape huge_shape with entries +-1e200, or 3 x 50
        Gaussian with standard deviation 4 if huge_shape is None, so that
        S2 = Sigma^{1/2} S1 Sigma^{1/2} has (1, 1) entry 1.7e308 * S1_11
        with S1_11 ~ 12, past the doubles; a SIGMA path names a file holding
        diag(1.7e308, 1, 1).
        """
        data, sigma = tmp_path / "m.bin", tmp_path / "sigma.bin"
        if huge_shape is not None:
            signs = np.arange(np.prod(huge_shape)).reshape(huge_shape) % 4 == 0
            save_matrix(np.where(signs, -1e200, 1e200), data)
        else:
            save_matrix(4.0 * np.random.default_rng(1).standard_normal((3, 50)), data)
        save_matrix(np.diag([1.7e308, 1.0, 1.0]), sigma)
        return [a.replace('"SIGMA"', json.dumps(str(sigma))) for a in tasks_argv(data, task)]

    @_OVERFLOWS
    def test_overflow_to_non_finite_is_validation_error(self, tmp_path, task, huge_shape, error):
        res = run_cli(*self._overflow_argv(tmp_path, task, huge_shape), cwd=tmp_path)
        assert res.returncode == 1
        assert res.stdout == ""
        # numpy's RuntimeWarning lines would come ahead of the error
        assert res.stderr.splitlines() == [error]

    @_OVERFLOWS
    def test_overflow_warns_nothing_in_process(self, tmp_path, monkeypatch, capsys, task, huge_shape, error):
        # the test run turns warnings into errors, so a RuntimeWarning would escape main
        monkeypatch.chdir(tmp_path)
        assert cli.main(self._overflow_argv(tmp_path, task, huge_shape)) == 1
        assert capsys.readouterr() == ("", error + "\n")

    def test_gram_near_the_double_range_is_not_overflow(self, tmp_path, capsys):
        # X X' = [[1e308, 1e154], [1e154, 1]] is finite, and at n = 1 S1 = S - sbar sbar' is exactly 0
        data = tmp_path / "m.bin"
        save_matrix(np.array([[1e154], [1.0]]), data)
        assert cli.main(tasks_argv(data, {"name": "cov_rate", "sigma": {"kind": "identity"}})) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert json.loads(out) == {
            "p": 2, "n": 1, "tasks": {"cov_rate": {"value": 1.0, "aux": {"bound": 1.0, "sigma_norm": 1.0}}}
        }

    @staticmethod
    def _cov_rate_explicit(tmp_path, matrix, p=None):
        data, sigma = tmp_path / "m.bin", tmp_path / "sigma.bin"
        save_matrix(np.random.default_rng(2).standard_normal((p or len(matrix), 200)), data)
        save_matrix(np.asarray(matrix, dtype=float), sigma)
        return run_cli(*tasks_argv(data, {"name": "cov_rate", "sigma": {"kind": "explicit", "path": str(sigma)}}))

    @pytest.mark.parametrize("case", ["bdb", "rank-deficient"])
    def test_cov_rate_tolerances_scale_with_sigma(self, tmp_path, case):
        # an absolute 1e-10 rejected both: B D B' for its rounding asymmetry
        # (~1e-8 at ||Sigma|| ~ 4e9), B B' of rank 3 for its eigenvalues near -1e-7
        rng = np.random.default_rng(2 if case == "bdb" else 3)
        if case == "bdb":
            B = rng.standard_normal((6, 6))
            matrix = B @ np.diag(np.geomspace(1.0, 1e9, 6)) @ B.T
        else:
            B = rng.standard_normal((6, 3)) * 1e4
            matrix = B @ B.T
        res = self._cov_rate_explicit(tmp_path, matrix)
        assert res.returncode == 0, res.stderr
        rate = json.loads(res.stdout)["tasks"]["cov_rate"]
        assert rate["value"] <= rate["aux"]["bound"] + 1e-10 * max(1.0, rate["aux"]["bound"])

    @pytest.mark.parametrize(
        "matrix, p, said",
        [
            ([[1, 0.5], [0, 1]], None, "symmetric"),
            ([[1, 2], [2, 1]], None, "not PSD"),
            (np.ones((3, 5)), None, "square"),
            (np.eye(3), 5, "explicit covariance is 3 x 3, expected 5 x 5"),  # symmetric PSD, so only the size is wrong
        ],
        ids=["asymmetric", "indefinite", "not-square", "wrong-size"],
    )
    def test_cov_rate_rejects_invalid_explicit_sigma(self, tmp_path, matrix, p, said):
        res = self._cov_rate_explicit(tmp_path, matrix, p)
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr.startswith("error:") and said in res.stderr

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
            (["--p", "10", "--n", "100", "--k", "20000", "--dist", "gaussian"], "(10*100)^20000"),
            # (pn)^k beyond the double range
            (["--p", "10", "--n", "100", "--k", "110"], "(10*100)^110"),
            # p = 1 answers 0.0 without moments, but only within the budget
            (["--p", "1", "--n", "100", "--k", "5"], "(1*100)^5"),
            # building the exact (pn)^k would take seconds
            (["--p", "10", "--n", "100", "--k", "2000000", "--dist", "gaussian"], "(10*100)^2000000"),
            (["--p", "7", "--n", "13", "--k", "300000"], "(7*13)^300000"),
            # k beyond the double range: k log10(pn) overflowed a float
            (["--p", "10", "--n", "100", "--k", str(10**400)], f"(10*100)^{10**400}"),
        ],
        ids=["k20000-gaussian", "k110", "p1", "k2000000-gaussian", "k300000", "k1e400"],
    )
    def test_moments_exact_checks_the_budget_first(self, capsys, argv, power):
        start = time.perf_counter()
        code = cli.main(["moments", "exact", *argv])
        elapsed = time.perf_counter() - start
        assert code == 2
        assert capsys.readouterr().err == f"error: (p*n)^k = {power} exceeds the 1e+08 term budget\n"
        assert elapsed < 1.0

    @pytest.mark.parametrize("k", [10**8, 10**400], ids=["k1e8", "k1e400"])
    def test_moments_bound_checks_the_budget_first(self, capsys, k):
        # counting the terms in a loop over l <= k took seconds at k = 10^7
        start = time.perf_counter()
        code = cli.main(["moments", "bound", "--p", "10", "--n", "100", "--k", str(k), "--delta", "0.5"])
        elapsed = time.perf_counter() - start
        assert code == 2
        assert capsys.readouterr().err == f"error: bound terms at k = {k} exceed the 20000000 budget\n"
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
        "argv, null_at, passed",
        [
            (["moments", "schedule", "--p", "100", "--delta", "1e300"],
             [("conditions", 1, "value"), ("conditions", 2, "value"), ("conditions", 5, "value")],
             [False, False, True, False, False, True]),
            (["moments", "schedule", "--p", "1" + "0" * 700, "--delta", "0.5"], [("conditions", 2, "value")],
             [True, False, True, True, False, True]),
            # h_tail = e^709.5 is below the largest double, e^709.78, so it prints as a number
            (["moments", "schedule", "--p", "2", "--delta", "1.1765556589940544e+77"], [],
             [False, False, True, False, False, True]),
            # E X^8 = (1 - q)^4 / q^3 overflows a double
            (["moments", "exact", "--p", "2", "--n", "1", "--k", "4", "--dist", '{"kind":"two-point","q":1e-200}'],
             [("exact",)], None),
            # the factorized bound ||Sigma|| (1 + ||S1 - I||) overflows, the error itself does not
            (["tasks", "--in", "DATA", "--tasks", "SIGMA"], [("tasks", "cov_rate", "aux", "bound")], None),
        ],
        ids=["huge-delta", "huge-p", "h-tail-below-overflow", "exact-overflow", "cov_rate-overflow"],
    )
    def test_schedule_prints_strict_json(self, tmp_path, argv, null_at, passed):
        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        data, sigma = tmp_path / "m.bin", tmp_path / "sigma.bin"
        if "DATA" in argv:
            gen = run_cli("gen", "--dist", "gaussian", "--p", "4", "--n", "4", "--seed", "0", "--replicate", "2",
                          "--name", "m", "--out", str(tmp_path))
            assert gen.returncode == 0, gen.stderr
            save_matrix(np.full((4, 4), 2e307), sigma)
        argv = [a.replace("DATA", str(data)) for a in argv]
        task = {"name": "cov_rate", "sigma": {"kind": "explicit", "path": str(sigma)}}
        argv = [a.replace("SIGMA", json.dumps([task])) for a in argv]
        res = run_cli(*argv)
        assert res.returncode == 0, res.stderr
        payload = json.loads(res.stdout, parse_constant=reject)
        for path in null_at:
            value = payload
            for key in path:
                value = value[key]
            assert value is None, path
        if "conditions" in payload:  # null_at names every condition printed as null
            nulls = [("conditions", i, "value") for i, c in enumerate(payload["conditions"]) if c["value"] is None]
            assert nulls == null_at
        if passed is not None:
            assert [c["passed"] for c in payload["conditions"]] == passed
            assert payload["feasible"] is False

    def test_missing_required_knob_is_validation_error(self):
        res = run_cli("moments", "exact", "--p", "3")
        assert res.returncode == 1
        assert res.stderr.startswith("error:") and "--n" in res.stderr


class TestOneCodePath:
    @pytest.mark.parametrize(
        "limit, method, sigma",
        [(2000, "dense", "toeplitz"), (2000, "dense", "explicit"), (7, "matfree", "toeplitz")],
        ids=["dense", "dense-explicit-sigma", "matfree"],
    )
    def test_tasks_prints_the_sweep_records(self, tmp_path, monkeypatch, capsys, limit, method, sigma):
        # the limit is lowered in-process, for the sweep and tasks alike
        monkeypatch.setattr(spectral, "DENSE_P_LIMIT", limit)
        if sigma == "explicit":
            B = np.random.default_rng(6).standard_normal((8, 8))
            save_matrix(B @ B.T + np.eye(8), tmp_path / "sigma.bin")
            sigma = {"kind": "explicit", "path": str(tmp_path / "sigma.bin")}
        else:
            sigma = {"kind": "toeplitz", "rho": 0.5}
        tasks = ["lambda_max", "lambda_max_centered", "esd_ks", "diag_dev", {"name": "cov_rate", "sigma": sigma},
                 "truncation_report"]
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"distribution": "gaussian", "grid": [[8, 400]], "master_seed": 9, "tasks": tasks}
        ))
        assert cli.main(["sweep", "--config", str(config), "--threads", "1", "--out", str(tmp_path / "run")]) == 0
        records = read_records(str(tmp_path / "run" / "records.csv"))
        assert len(records) == 6 and not any(r.failed for r in records)
        argv = ["gen", "--dist", "gaussian", "--p", "8", "--n", "400", "--seed", "9", "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        path = capsys.readouterr().out.splitlines()[-1]
        assert cli.main(tasks_argv(path, *tasks)) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {"p": 8, "n": 400, "tasks": {r.task: {"value": r.value, "aux": r.aux} for r in records}}
        assert out["tasks"]["lambda_max"]["aux"]["method"] == method

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
            "--format", "json", "--out", str(tmp_path / "report"),
        )
        assert rep.returncode == 0, rep.stderr
        (path,) = json.loads(rep.stdout)["paths"]
        assert sorted(json.loads(Path(path).read_text())) == ["edge", "summary"]
        # report draws no plots: svg is refused before anything is written
        rep = run_cli(
            "report", "--records", payload["records_csv"],
            "--format", "svg", "--out", str(tmp_path / "plots"),
        )
        assert (rep.returncode, rep.stdout) == (1, "")
        assert rep.stderr.startswith("error:") and "'svg'" in rep.stderr and rep.stderr.count("\n") == 1
        assert not (tmp_path / "plots").exists()

    def test_unsampleable_cell_is_error_rows_not_an_abort(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"distribution": "gaussian", "grid": [[10, 100], [2**40, 2**40]],
                                      "replicates": 2, "tasks": ["diag_dev", "lambda_max"]}))
        res = run_cli("sweep", "--config", str(config), "--out", str(tmp_path))
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout)["failed"] == 4
        records = read_records(tmp_path / "records.csv")
        assert [(r.p, r.replicate, r.task, r.failed) for r in records] == [
            (p, rep, task, p == 2**40)
            for p in (10, 2**40) for rep in (0, 1) for task in ("diag_dev", "lambda_max")
        ]
        assert all("ValidationError: cannot sample" in r.aux["error"] for r in records if r.failed)

    def test_sweep_thread_flag_reproducible(self, tmp_path):
        config = self._write_config(tmp_path)
        run_cli("sweep", "--config", str(config), "--threads", "1", "--out", str(tmp_path / "t1"))
        run_cli("sweep", "--config", str(config), "--threads", "8", "--out", str(tmp_path / "t8"))
        assert (tmp_path / "t1" / "records.csv").read_bytes() == (
            tmp_path / "t8" / "records.csv"
        ).read_bytes()

    def test_sweep_takes_its_seed_only_from_the_config(self, tmp_path):
        config = self._write_config(tmp_path)
        res = run_cli("sweep", "--config", str(config), "--seed", "3", "--out", str(tmp_path / "run"))
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr.startswith("error:") and res.stderr.count("\n") == 1
        assert not (tmp_path / "run").exists()

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
                {"distribution": {"kind": "student-t", "df": 5, "q": 0.5}},
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
            "other-law-parameter",
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

    def test_config_without_a_distribution_says_so(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"grid": [[10, 100]]}))
        res = run_cli("sweep", "--config", str(config), "--out", str(tmp_path / "run"))
        assert (res.returncode, res.stdout) == (1, "")
        assert res.stderr == "error: experiment config needs a 'distribution'\n"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("tasks", "lambda_max"),
            ("tasks", {"name": "lambda_max"}),
            ("grid", "ab"),
            ("grid", [10, 100]),
            ("grid", [[10, 100, 5]]),
            ("grid", None),
        ],
    )
    def test_non_list_tasks_or_grid_names_the_field(self, tmp_path, field, value):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"distribution": "gaussian", "grid": [[10, 100]], field: value}))
        res = run_cli("sweep", "--config", str(config), "--out", str(tmp_path / "run"))
        assert res.returncode == 1
        assert res.stderr.startswith(f"error: {field} must be a list")

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
            ('10,200,0.9,0,lambda_max,1.0,"{}"', "{records}, line 2"),
            (
                '10,100,0.1,0,cov_rate,0.3,"{}"\n10,500,0.02,0,cov_rate,0.0,"{}"\n10,1000,0.01,0,cov_rate,0.1,"{}"',
                "{records}: cov_rate median at p=10, n=500",
            ),
            ('10,100,0.1,0,a/b,0.5,"{}"', "{records}: 'a/b' is not a sweep task"),
            ('10,100,0.1,0,a<b&c,0.5,"{}"', "{records}: 'a<b&c' is not a sweep task"),
            (
                '10,100,0.1,0,diag_dev,0.5,"{}"\n10,100,0.1,0,diag_dev,0.75,"{}"',
                "{records}: two records for (p, n, replicate, task) = (10, 100, 0, 'diag_dev')",
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
            "ratio-not-p-over-n",
            "non-positive-cov-rate-median",
            "task-with-slash",
            "task-with-markup",
            "repeated-key",
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

    def test_overflowing_cov_rate_is_a_validation_error_row(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "distribution": "gaussian",
            "grid": [[3, 50]],
            "tasks": ["lambda_max", {"name": "cov_rate", "sigma": {"kind": "diagonal", "d": [1.7e308, 1, 1]}}],
        }))
        sweep = run_cli("sweep", "--config", str(config), "--out", str(tmp_path / "run"))
        assert sweep.returncode == 0, sweep.stderr
        records = {r.task: r for r in read_records(str(tmp_path / "run" / "records.csv"))}
        assert not records["lambda_max"].failed
        assert records["cov_rate"].failed
        assert records["cov_rate"].aux["error"] == "ValidationError: matrix has non-finite entries; did the input overflow?"

    def test_overflowing_aux_round_trips(self, tmp_path):
        # replicate 2's factorized bound overflows to inf: records.csv holds
        # null for it, and report reads the file back and writes strict JSON
        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        sigma = tmp_path / "sigma.bin"
        save_matrix(np.full((4, 4), 2e307), sigma)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "distribution": "gaussian",
            "grid": [[4, 4]],
            "replicates": 3,
            "master_seed": 0,
            "tasks": [{"name": "cov_rate", "sigma": {"kind": "explicit", "path": str(sigma)}}],
        }))
        sweep = run_cli("sweep", "--config", str(config), "--out", str(tmp_path / "run"))
        assert sweep.returncode == 0, sweep.stderr
        records = tmp_path / "run" / "records.csv"
        assert '""bound"":null' in records.read_text()
        rep = run_cli("report", "--records", str(records), "--format", "json", "--out", str(tmp_path / "report"))
        assert rep.returncode == 0, rep.stderr
        assert [r.aux["bound"] for r in read_records(str(records))].count(None) == 1
        (path,) = json.loads(rep.stdout, parse_constant=reject)["paths"]
        payload = json.loads(Path(path).read_text(), parse_constant=reject)
        assert sorted(payload) == ["summary"]
        assert [row["count"] for row in payload["summary"]] == [3]

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

    @pytest.mark.parametrize(
        "tasks, blocks",
        [(["lambda_max", "diag_dev"], ["edge", "summary"]), (["diag_dev"], ["summary"])],
        ids=["dense-lambda-max", "diag-dev-only"],
    )
    def test_report_writes_each_block_with_rows(self, tmp_path, tasks, blocks):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"distribution": "rademacher", "grid": [[10, 100], [10, 400]],
                                      "replicates": 3, "master_seed": 21, "tasks": tasks}))
        sweep = run_cli("sweep", "--config", str(config), "--out", str(tmp_path / "run"))
        assert sweep.returncode == 0, sweep.stderr
        records = str(tmp_path / "run" / "records.csv")
        rep = run_cli("report", "--records", records, "--format", "json", "--out", str(tmp_path / "json"))
        assert rep.returncode == 0, rep.stderr
        payload = json.loads((tmp_path / "json" / "report.json").read_text())
        assert sorted(payload) == blocks
        rows = edge_report(read_records(records), DistributionSpec("rademacher"))  # the law of config.json
        assert payload.get("edge", []) == [vars(row) for row in rows]
        rep = run_cli("report", "--records", records, "--format", "csv", "--out", str(tmp_path / "csv"))
        assert rep.returncode == 0, rep.stderr
        names = [f"report_{block}.csv" for block in blocks]
        assert sorted(os.listdir(tmp_path / "csv")) == names
        assert json.loads(rep.stdout)["paths"] == [str(tmp_path / "csv" / name) for name in names]

    @pytest.mark.parametrize(
        "value, usable",
        [("null", False), ("1" + "0" * 400, False), ("2.0", True), ("true", None), ('"x"', None),
         ("[1.5]", None), ('{"v": 1.5}', None)],
        ids=["null", "int-past-the-doubles", "number", "bool", "string", "list", "object"],
    )
    def test_report_reads_lambda_max_b_only_as_a_number(self, tmp_path, value, usable):
        # null is how json_text writes a non-finite value: the edge block's
        # dense fields leave it out, as they do a number no double holds; a
        # value that is not a number at all is rejected before anything is written
        records = tmp_path / "records.csv"
        quoted = value.replace('"', '""')  # the aux column is a quoted CSV field
        records.write_text(
            "p,n,ratio,replicate,task,value,aux\n"
            '10,100,0.1,0,lambda_max,1.0,"{""lambda_max_b"":0.5}"\n'
            f'10,100,0.1,1,lambda_max,1.0,"{{""lambda_max_b"":{quoted}}}"\n'
        )
        res = run_cli("report", "--records", str(records), "--format", "json", "--out", str(tmp_path / "report"))
        if usable is None:
            assert res.returncode == 1
            assert res.stdout == ""
            assert res.stderr.startswith(f"error: {records}: lambda_max_b") and res.stderr.count("\n") == 1
            assert not (tmp_path / "report").exists()
        else:
            assert res.returncode == 0, res.stderr
            (edge,) = json.loads((tmp_path / "report" / "report.json").read_text())["edge"]
            assert (edge["count"], edge["exceed"], edge["dense"]) == ((2, 1, 2) if usable else (2, 0, 1))

    @pytest.mark.parametrize("fmt, names", [
        ("csv", ["report_edge.csv", "report_summary.csv"]),
        ("json", ["report.json"]),
    ], ids=["csv", "json"])
    def test_report_writes_exactly_the_paths_it_prints(self, tmp_path, capsys, fmt, names):
        records = tmp_path / "records.csv"
        records.write_text(
            "p,n,ratio,replicate,task,value,aux\n"
            '10,100,0.1,0,lambda_max,1.25,"{}"\n'
            '10,100,0.1,0,diag_dev,0.5,"{}"\n'
            '10,1000,0.01,0,diag_dev,nan,"{""error"":""ValidationError: boom""}"\n'
        )
        out = tmp_path / "report"
        out.mkdir()
        assert cli.main(["report", "--records", str(records), "--format", fmt, "--out", str(out)]) == 0
        paths = json.loads(capsys.readouterr().out)["paths"]
        assert sorted(os.listdir(out)) == names
        assert sorted(paths) == [str(out / name) for name in names]

    def test_sweep_keeps_the_config_bytes_beside_the_records(self, tmp_path):
        # CRLF line ends, unsorted keys and loose spacing: the copy is the
        # bytes, not a re-encoding; a config read from the output directory
        # is left as it was
        data = '{ "tasks": ["diag_dev"],\r\n  "distribution": "gaussian", "grid": [[4, 16]] }\r\n'.encode()
        config = tmp_path / "mine.json"
        config.write_bytes(data)
        res = run_cli("sweep", "--config", str(config), "--out", str(tmp_path / "run"))
        assert res.returncode == 0, res.stderr
        assert sorted(os.listdir(tmp_path / "run")) == ["config.json", "records.csv"]
        assert (tmp_path / "run" / "config.json").read_bytes() == data
        records = (tmp_path / "run" / "records.csv").read_bytes()
        res = run_cli("sweep", "--config", str(tmp_path / "run" / "config.json"), "--out", str(tmp_path / "run"))
        assert res.returncode == 0, res.stderr
        assert (tmp_path / "run" / "config.json").read_bytes() == data
        assert (tmp_path / "run" / "records.csv").read_bytes() == records

    def test_report_reads_the_law_from_the_config_beside_the_records(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"distribution": {"kind": "two-point", "q": 0.1}, "grid": [[10, 100], [20, 400]],
                                      "replicates": 4, "master_seed": 3, "tasks": ["lambda_max"]}))
        sweep = run_cli("sweep", "--config", str(config), "--out", str(tmp_path / "run"))
        assert sweep.returncode == 0, sweep.stderr
        rep = run_cli("report", "--records", str(tmp_path / "run" / "records.csv"), "--format", "json",
                      "--out", str(tmp_path / "run"))
        assert rep.returncode == 0, rep.stderr
        rows = json.loads((tmp_path / "run" / "report.json").read_text())["edge"]
        fourth = DistributionSpec("two-point", q=0.1).moment(4)
        assert [(row["p"], row["predicted_shift"]) for row in rows] == [(10, (fourth - 1) / 20), (20, (fourth - 1) / 40)]
        for row in rows:
            assert row["z"] == (row["mean_shift"] - row["predicted_shift"]) / row["std_error"]
        # the same records without the config: the law-derived cells are empty
        alone = tmp_path / "alone"
        alone.mkdir()
        (alone / "records.csv").write_bytes((tmp_path / "run" / "records.csv").read_bytes())
        rep = run_cli("report", "--records", str(alone / "records.csv"), "--format", "csv", "--out", str(alone))
        assert rep.returncode == 0, rep.stderr
        lines = (alone / "report_edge.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[-2:] == ["predicted_shift", "z"]
        assert [line.split(",")[-2:] for line in lines[1:]] == [["", ""]] * 2
        assert [line.split(",")[:-2] for line in lines[1:]] == [[str(row[key]) for key in header[:-2]] for row in rows]

    @pytest.mark.parametrize(
        "text, says",
        [
            (b"{oops", "invalid experiment config JSON"),
            (b'{"distribution": "gaussian"}\xff', "not UTF-8 text"),
            (b'["gaussian"]', "experiment config must be a JSON object"),
            (b'{"grid": [[10, 100]]}', "needs a 'distribution'"),
            (b'{"distribution": "cauchy", "grid": [[10, 100]]}', "unknown distribution kind"),
            (b'{"distribution": {"kind": "two-point", "q": 2}, "grid": [[10, 100]]}', "two-point requires"),
            (b'{"distribution": "gaussian", "grid": [[10, 100]], "replicates": 0}', "replicates must be an integer >= 1"),
            (b'{"distribution": "gaussian", "grid": [[10, 100]], "seed": 1}', "unknown experiment config fields ['seed']"),
            (b'{"distribution": "gaussian", "grid": [[10, 100], [10, 100]]}', "duplicate (p, n) shapes in grid"),
        ],
        ids=["not-json", "not-utf8", "not-an-object", "no-distribution", "unknown-kind", "bad-parameter",
             "no-replicates", "unknown-field", "repeated-shape"],
    )
    def test_report_rejects_a_malformed_config_by_its_path(self, tmp_path, text, says):
        records = tmp_path / "records.csv"
        records.write_text("p,n,ratio,replicate,task,value,aux\n" '10,100,0.1,0,lambda_max,1.5,"{""lambda_max_b"":1.0}"\n')
        config = tmp_path / "config.json"
        config.write_bytes(text)
        res = run_cli("report", "--records", str(records), "--out", str(tmp_path / "report"))
        assert (res.returncode, res.stdout) == (1, "")
        assert res.stderr.startswith(f"error: {config}: ") and res.stderr.count("\n") == 1
        assert says in res.stderr and f"{records}:" not in res.stderr
        assert not (tmp_path / "report").exists()

    def test_report_does_not_open_an_explicit_sigma_path(self, tmp_path):
        # the path is relative to the directory the sweep ran in, not to report's
        run = tmp_path / "run"
        run.mkdir()
        save_matrix(np.eye(4), run / "sigma.bin")
        (run / "sweep.json").write_text(json.dumps({
            "distribution": "gaussian",
            "grid": [[4, 40]],
            "replicates": 2,
            "tasks": ["lambda_max", {"name": "cov_rate", "sigma": {"kind": "explicit", "path": "sigma.bin"}}],
        }))
        sweep = run_cli("sweep", "--config", "sweep.json", "--out", ".", cwd=run)
        assert json.loads(sweep.stdout)["failed"] == 0, sweep.stderr
        assert not (tmp_path / "sigma.bin").exists()
        rep = run_cli("report", "--records", str(run / "records.csv"), "--format", "json",
                      "--out", str(tmp_path / "report"), cwd=tmp_path)
        assert rep.returncode == 0, rep.stderr
        (row,) = json.loads((tmp_path / "report" / "report.json").read_text())["edge"]
        assert row["predicted_shift"] == (3.0 - 1) / (2 * 4)  # (E X^4 - 1) / (2p), gaussian E X^4 = 3

    @pytest.mark.parametrize(
        "grid, says",
        [
            ([[7, 9]], "(p, n) = (10, 100) of {records} is not on the grid"),
            ([[10, 100], [7, 9]], "(p, n) = (20, 400) of {records} is not on the grid"),
            (None, "grid must be a list of [p, n] pairs"),
            ("10, 100", "grid must be a list of [p, n] pairs"),
        ],
        ids=["other-sweep", "one-shape-missing", "no-grid", "grid-not-a-list"],
    )
    def test_report_rejects_a_config_whose_grid_misses_a_record(self, tmp_path, grid, says):
        # another sweep's config beside these records would lend them its law
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"distribution": "gaussian", "grid": [[10, 100], [20, 400]],
                                      "replicates": 2, "master_seed": 0, "tasks": ["lambda_max"]}))
        sweep = run_cli("sweep", "--config", str(config), "--out", str(tmp_path / "run"))
        assert sweep.returncode == 0, sweep.stderr
        records, beside = tmp_path / "run" / "records.csv", tmp_path / "run" / "config.json"
        beside.write_text(json.dumps({"distribution": "rademacher", **({} if grid is None else {"grid": grid})}))
        res = run_cli("report", "--records", str(records), "--out", str(tmp_path / "report"))
        assert (res.returncode, res.stdout) == (1, "")
        assert res.stderr == f"error: {beside}: {says.format(records=records)}\n"
        assert not (tmp_path / "report").exists()

    def test_report_rejects_undecodable_bytes(self, tmp_path):
        records = tmp_path / "records.csv"
        records.write_bytes(b"p,n,ratio,replicate,task,value,aux\n10,100,0.1,0,diag_dev,0.5,\"{}\"\xff\n")
        res = run_cli("report", "--records", str(records), "--out", str(tmp_path / "report"))
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr.startswith("error:") and "Traceback" not in res.stderr
        assert f"{records}: records file is not text" in res.stderr
        assert not (tmp_path / "report").exists()

    def test_out_dir_defaults_to_the_working_directory_whatever_the_environment(self, tmp_path):
        env_dir = tmp_path / "from_env"
        res = run_cli(
            "gen", "--dist", "gaussian", "--p", "2", "--n", "3", "--seed", "4", "--name", "m",
            env_extra={"COVSPECTRUM_OUT": str(env_dir)}, cwd=tmp_path,
        )
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == os.path.join(".", "m.bin")
        assert load_matrix(tmp_path / "m.bin").shape == (2, 3)
        assert not env_dir.exists()


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
        "tasks": {"--in", "--tasks"},
        "moments": set(),
        "moments classify": {"--circuit"},
        "moments exact": {"--p", "--n", "--k", "--dist"},
        "moments bound": {"--p", "--n", "--k", "--delta"},
        "moments schedule": {"--p", "--delta", "--c1"},
        "sweep": {"--config", "--threads", "--out"},
        "report": {"--records", "--format", "--out"},
    }

    def test_each_subcommand_declares_only_what_it_reads(self):
        assert _declared_options(cli.build_parser()) == self.OPTIONS

    def test_report_help_names_every_block(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["report", "--help"])
        assert exit_info.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert [name for name in _BLOCKS if not re.search(rf"\b{name}\b", text)] == []
        assert "config.json" in text

    def test_flag_a_subcommand_does_not_read_is_rejected(self, tmp_path):
        res = run_cli(*tasks_argv(tmp_path / "missing.bin", "lambda_max"), "--threads", "2")
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
