import json
import math
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from steerwork.cli import main

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs" / "schemas"


def load_schema(name):
    return json.loads((SCHEMA_DIR / f"{name}.schema.json").read_text())


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBounds:
    def test_json_values(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--dim", "2", "--n-bases", "3",
                               "--omega", "1", "--beta", "1", "--format", "json")
        assert code == 0
        data = json.loads(out)
        jsonschema.validate(data, load_schema("bound_set"))
        assert data["w_quantum"] == pytest.approx(0.26894142136999512, abs=1e-12)
        assert data["w_classical"] == pytest.approx(0.05761655596480800, abs=1e-12)
        assert data["xi"] == pytest.approx(4.66778023896922317, abs=1e-10)

    def test_single_basis_no_advantage(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--dim", "2", "--n-bases", "1",
                               "--format", "json")
        assert code == 0
        assert json.loads(out)["advantage"] is False

    def test_infinite_temperature_ratio(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--dim", "5", "--n-bases", "6",
                               "--beta", "0", "--format", "json")
        assert code == 0
        assert json.loads(out)["xi"] == pytest.approx(math.sqrt(6), abs=1e-12)

    def test_xi_domain_exit_code_still_prints(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--dim", "2", "--n-bases", "3",
                               "--beta", "inf", "--format", "json")
        assert code == 3
        data = json.loads(out)
        jsonschema.validate(data, load_schema("bound_set"))
        assert data["xi"] is None
        assert data["beta"] == "inf"
        assert data["w_classical"] < 0

    def test_text_format_nine_digits(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--dim", "2", "--n-bases", "3")
        assert code == 0
        assert "w_quantum   = 0.268941421" in out

    def test_invalid_flags(self, capsys):
        code, _, _ = run_cli(capsys, "bounds", "--dim", "1", "--n-bases", "3")
        assert code == 2
        code, _, _ = run_cli(capsys, "bounds", "--dim", "2", "--n-bases", "3",
                             "--omega", "-1")
        assert code == 2
        for omega in ["inf", "nan", "0"]:
            code, out, _ = run_cli(capsys, "bounds", "--dim", "2", "--n-bases", "3",
                                   "--omega", omega, "--format", "json")
            assert code == 2
            assert out == ""


class TestSimulate:
    def test_exact_qutrit(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--dim", "3", "--n-bases", "4",
                               "--omega", "1", "--beta", "1", "--format", "json")
        assert code == 0
        data = json.loads(out)
        jsonschema.validate(data, load_schema("work_report"))
        assert data["mode"] == "exact"
        assert data["average"] == pytest.approx(0.42388311523417089, abs=1e-10)

    def test_monte_carlo_deterministic_bytes(self, capsys):
        argv = ["simulate", "--dim", "2", "--n-bases", "3", "--shots", "20000",
                "--seed", "7", "--format", "json"]
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2
        data = json.loads(out1)
        jsonschema.validate(data, load_schema("work_report"))
        assert data["mode"] == "monte_carlo"
        assert data["shots"] == 20000

    def test_unsupported_dimension(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--dim", "6", "--n-bases", "7")
        assert code == 4
        assert "supported families" in err

    def test_invalid_config(self, capsys):
        code, _, _ = run_cli(capsys, "simulate", "--dim", "2", "--n-bases", "3",
                             "--shots", "-5")
        assert code == 2
        code, _, _ = run_cli(capsys, "simulate", "--dim", "2", "--n-bases", "3",
                             "--omega", "inf", "--shots", "10")
        assert code == 2

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--dim", "2", "--n-bases", "2",
                               "--format", "csv")
        assert code == 0
        header, row = out.strip().split("\n")
        assert header.startswith("d,n,omega,beta,mode")
        assert row.split(",")[4] == "exact"


class TestScan:
    DIMS = "2,3,5,7,11,13"

    def test_csv_table_increasing_xi(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--dims", self.DIMS,
                               "--omega", "1", "--beta", "1")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "d,n,omega,beta,w_classical,w_quantum,xi,xi_over_sqrt_d"
        xis = [float(line.split(",")[6]) for line in lines[1:]]
        assert len(xis) == 6
        assert all(b > a for a, b in zip(xis, xis[1:]))

    def test_infinite_temperature_identity(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--dims", self.DIMS, "--beta", "0")
        assert code == 0
        for line in out.strip().split("\n")[1:]:
            cells = line.split(",")
            d, xi_val = int(cells[0]), float(cells[6])
            assert xi_val == pytest.approx(math.sqrt(d + 1), abs=1e-9)

    def test_empty_dims(self, capsys):
        code, _, _ = run_cli(capsys, "scan", "--dims", "")
        assert code == 2

    @pytest.mark.parametrize("dims", ["2,,3", "2,3,"])
    def test_empty_dims_token(self, capsys, dims):
        code, out, err = run_cli(capsys, "scan", "--dims", dims)
        assert code == 2
        assert out == ""
        assert "bad --dims list" in err

    def test_unsupported_dim(self, capsys):
        code, _, _ = run_cli(capsys, "scan", "--dims", "2,6")
        assert code == 4

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "scan.csv"
        code, out, _ = run_cli(capsys, "scan", "--dims", "2,3", "--out", str(target))
        assert code == 0
        assert out == ""
        lines = target.read_text().strip().split("\n")
        assert lines[0] == "d,n,omega,beta,w_classical,w_quantum,xi,xi_over_sqrt_d"
        assert len(lines) == 3


class TestLhsOpt:
    def test_qubit_gap(self, capsys):
        code, out, _ = run_cli(capsys, "lhs-opt", "--dim", "2", "--n-bases", "3",
                               "--format", "json")
        assert code == 0
        data = json.loads(out)
        jsonschema.validate(data["optimizer"], load_schema("optimizer_result"))
        assert abs(data["gap"]) < 1e-6
        assert data["oracle_agreement"] < 1e-5

    def test_qutrit_objective_below_overlap_cap(self, capsys):
        code, out, _ = run_cli(capsys, "lhs-opt", "--dim", "3", "--n-bases", "4",
                               "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["optimizer"]["objective"] <= 2.0 / 3.0 + 1e-8
        assert data["oracle"] is None

    def test_deterministic_given_seed(self, capsys):
        argv = ["lhs-opt", "--dim", "3", "--n-bases", "4", "--restarts", "8",
                "--seed", "5", "--format", "json"]
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2

    def test_unsupported(self, capsys):
        code, _, _ = run_cli(capsys, "lhs-opt", "--dim", "4", "--n-bases", "3")
        assert code == 4

    @pytest.mark.parametrize("flag, value", [("--tol", "nan"), ("--tol", "inf"),
                                             ("--tol", "-1"), ("--omega", "inf")])
    def test_invalid_flags(self, capsys, flag, value):
        code, _, _ = run_cli(capsys, "lhs-opt", "--dim", "2", "--n-bases", "3", flag, value)
        assert code == 2


class TestVerifyMub:
    def test_pass_large_prime(self, capsys):
        code, out, _ = run_cli(capsys, "verify-mub", "--dim", "7", "--n-bases", "8")
        assert code == 0
        assert out.startswith("PASS")

    def test_pass_fourier_pair(self, capsys):
        code, _, _ = run_cli(capsys, "verify-mub", "--dim", "4", "--n-bases", "2")
        assert code == 0

    def test_rounding_fails_at_zero_tolerance(self, capsys):
        # double-precision construction cannot meet an exact-zero tolerance
        code, out, _ = run_cli(capsys, "verify-mub", "--dim", "3", "--n-bases", "4",
                               "--tol", "0")
        assert code == 5
        assert out.startswith("FAIL")
        assert "worst pair" in out

    def test_unsupported(self, capsys):
        code, _, _ = run_cli(capsys, "verify-mub", "--dim", "6", "--n-bases", "4")
        assert code == 4

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_invalid_flags(self, capsys, tol):
        code, out, _ = run_cli(capsys, "verify-mub", "--dim", "3", "--n-bases", "4",
                               "--tol", tol)
        assert code == 2
        assert out == ""

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "verify-mub", "--dim", "5", "--n-bases", "6",
                               "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["passed"] is True
        assert data["max_deviation"] < 1e-12


SHAPES = {
    "bounds": (["--dim", "2", "--n-bases", "3"],
               "d,n,omega,beta,w_classical,w_quantum,xi,rastegin,advantage",
               ["d", "n", "omega", "beta", "w_classical", "w_quantum", "xi", "rastegin",
                "advantage"]),
    "simulate": (["--dim", "2", "--n-bases", "3"],
                 "d,n,omega,beta,mode,shots,seed,average,stderr,w_classical,w_quantum,xi",
                 ["d", "n", "omega", "beta", "mode", "shots", "seed", "average", "stderr",
                  "w_classical", "w_quantum", "xi", "per_round"]),
    "scan": (["--dims", "2,3"],
             "d,n,omega,beta,w_classical,w_quantum,xi,xi_over_sqrt_d",
             ["d", "n", "omega", "beta", "w_classical", "w_quantum", "xi", "xi_over_sqrt_d"]),
    "lhs-opt": (["--dim", "3", "--n-bases", "4", "--restarts", "2"],
                "d,n,omega,beta,objective,achievable_work,w_classical,gap,"
                "oracle_objective,oracle_agreement",
                ["d", "n", "omega", "beta", "optimizer", "achievable_work", "w_classical",
                 "gap", "oracle", "oracle_agreement"]),
    "verify-mub": (["--dim", "3", "--n-bases", "4"],
                   "d,n,tol,passed,max_deviation,x,a,y,b",
                   ["d", "n", "tol", "passed", "max_deviation", "worst_pair"]),
}


@pytest.mark.parametrize("command", sorted(SHAPES))
def test_output_shape(capsys, command):
    argv, csv_header, json_keys = SHAPES[command]
    code, out, _ = run_cli(capsys, command, *argv, "--format", "csv")
    assert code == 0
    assert out.split("\n")[0] == csv_header
    code, out, _ = run_cli(capsys, command, *argv, "--format", "json")
    assert code == 0
    data = json.loads(out)
    for obj in data if isinstance(data, list) else [data]:
        assert list(obj) == json_keys


def _numbers(value):
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        for item in value:
            yield from _numbers(item)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield value


@pytest.mark.parametrize("argv", [
    ["simulate", "--dim", "5", "--n-bases", "6", "--omega", "1e6"],
    ["simulate", "--dim", "5", "--n-bases", "6", "--omega", "1e7"],
    ["simulate", "--dim", "23", "--n-bases", "24", "--omega", "1e6"],
    ["simulate", "--dim", "2", "--n-bases", "3", "--omega", "1e300", "--beta", "1"],
    ["simulate", "--dim", "3", "--n-bases", "4", "--omega", "1e200", "--beta", "1e-200"],
    ["lhs-opt", "--dim", "3", "--n-bases", "4", "--omega", "1e8"],
    ["simulate", "--dim", "3", "--n-bases", "4", "--omega", "1e300", "--shots", "1000",
     "--seed", "3"],
    ["simulate", "--dim", "5", "--n-bases", "6", "--omega", "1e308", "--beta", "0"],
    ["simulate", "--dim", "23", "--n-bases", "24", "--omega", "1e308", "--beta", "0"],
], ids=lambda argv: "-".join(argv[:1] + argv[2:7:2] + argv[8:9]))
def test_large_omega(capsys, argv):
    # the absolute tolerances hold in units of omega, so none of these may fail
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert code == 0, err
    data = json.loads(out)
    assert all(math.isfinite(v) for v in _numbers(data))
    omega = data["omega"]
    if argv[0] == "simulate":
        assert abs(data["average"] - data["w_quantum"]) <= 1e-10 * omega
    else:
        assert data["achievable_work"] <= data["w_classical"] + 1e-10 * omega


def test_out_to_missing_directory(capsys, tmp_path):
    target = tmp_path / "missing" / "bounds.txt"
    code, out, err = run_cli(capsys, "bounds", "--dim", "3", "--n-bases", "4",
                             "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not target.exists()


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "steerwork", "bounds", "--dim", "2",
             "--n-bases", "3", "--format", "json"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["advantage"] is True

    def test_usage_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "steerwork", "bounds"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2

    def test_no_command(self):
        proc = subprocess.run(
            [sys.executable, "-m", "steerwork"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
