import importlib
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from referencing import Registry, Resource

from steerwork.bounds import rastegin_bound
from steerwork.cli import build_parser, main
from steerwork.mub import SUPPORTED_FAMILIES as FAMILIES
from steerwork.mub import ATOL, check_supported

ROOT = Path(__file__).resolve().parent.parent
SCHEMA_DIR = ROOT / "docs" / "schemas"
SCHEMAS = {path.name.removesuffix(".schema.json"): json.loads(path.read_text())
           for path in SCHEMA_DIR.glob("*.schema.json")}
# a schema names another by its $id, as lhs_opt does with "$ref": "optimizer_result"
REGISTRY = Registry().with_resources(
    (schema["$id"], Resource.from_contents(schema)) for schema in SCHEMAS.values())


def validate(data, name):
    jsonschema.validate(data, SCHEMAS[name], registry=REGISTRY)


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
        validate(data, "bound_set")
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
        validate(data, "bound_set")
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
        # omega is a plain float to the parser; the library names what is wrong
        for omega in ["inf", "nan", "0", "-0", "1e-400"]:
            code, out, err = run_cli(capsys, "bounds", "--dim", "2", "--n-bases", "3",
                                     "--omega", omega, "--format", "json")
            assert code == 2
            assert out == ""
            assert err == ("error: energy gap must be finite and positive, "
                           f"got omega={float(omega)}\n")

    @pytest.mark.parametrize("flag", ["--dim", "--n-bases"])
    def test_huge_integer_exits_two(self, capsys, flag):
        # 3 or 1 followed by 400 zeros does not convert to a float
        argv = ["bounds", "--dim", "3", "--n-bases", "1"]
        argv[argv.index(flag) + 1] += "0" * 400
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == {"--dim": "error: d must fit in a float, got a 1331-bit d\n",
                       "--n-bases": "error: n must fit in a float, got a 1329-bit n\n"}[flag]

    @pytest.mark.parametrize("command", ["simulate", "lhs-opt", "verify-mub"])
    def test_huge_dim_is_named(self, capsys, command):
        code, out, err = run_cli(capsys, command, "--dim", "1" + "0" * 400, "--n-bases", "2")
        assert (code, out, err) == (2, "", "error: d must fit in a float, got a 1329-bit d\n")

    @pytest.mark.parametrize("command", ["simulate", "lhs-opt", "verify-mub"])
    def test_size_past_the_floats_is_finite(self, capsys, command):
        # 32 d^2 bytes at d = 10^200 is 2.98e+392 GiB, which no float holds
        d = 10**200
        code, out, err = run_cli(capsys, command, "--dim", str(d), "--n-bases", "2")
        assert (code, out, err) == (2, "", f"error: (d={d}, n=2) needs 2.98e+392 GiB of bases "
                                           "(16*n*d^2 bytes), above the cap of 1 GiB\n")


class TestSimulate:
    def test_exact_qutrit(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--dim", "3", "--n-bases", "4",
                               "--omega", "1", "--beta", "1", "--format", "json")
        assert code == 0
        data = json.loads(out)
        validate(data, "work_report")
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
        validate(data, "work_report")
        assert data["mode"] == "monte_carlo"
        assert data["shots"] == 20000

    def test_unsupported_dimension(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--dim", "6", "--n-bases", "7")
        assert code == 4
        assert err == f"error: (d=6, n=7) not available; supported families: {FAMILIES}\n"

    def test_invalid_config(self, capsys):
        for shots in ["-5", "1000000001", "1000000000000"]:
            code, out, err = run_cli(capsys, "simulate", "--dim", "2", "--n-bases", "3",
                                     "--shots", shots)
            assert code == 2
            assert out == ""
            assert "argument --shots: " in err  # rejected by the parser, before any work
        code, _, _ = run_cli(capsys, "simulate", "--dim", "2", "--n-bases", "3",
                             "--omega", "inf", "--shots", "10")
        assert code == 2

    @pytest.mark.parametrize("seed", ["-1", str(2**128), "1.5"])
    def test_seed_rejected_by_parser(self, capsys, seed):
        for shots in ["0", "10"]:
            code, out, err = run_cli(capsys, "simulate", "--dim", "3", "--n-bases", "4",
                                     "--shots", shots, "--seed", seed)
            assert code == 2
            assert out == ""
            assert err.splitlines()[-1].startswith("steerwork simulate: error: argument --seed: ")
        if seed == "-1":
            assert err.splitlines()[-1] == (
                "steerwork simulate: error: argument --seed: must be between 0 and "
                f"{2**128 - 1}, got '-1'")

    def test_seed_range_is_inclusive(self, capsys):
        for seed in ["0", str(2**128 - 1)]:
            code, _, _ = run_cli(capsys, "simulate", "--dim", "3", "--n-bases", "4",
                                 "--shots", "10", "--seed", seed)
            assert code == 0

    @pytest.mark.parametrize("d,n", [(2, 2), (2, 3), (3, 2), (3, 4), (4, 2), (5, 6), (6, 2),
                                     (7, 8)])
    def test_subnormal_omega_exits_zero(self, capsys, d, n):
        # 60 log-spaced omegas down to the smallest subnormal; 18 of these
        # runs once failed the ceiling identity after scaling by omega
        for k in range(60):
            omega = 5e-324 * (2.3e-308 / 5e-324) ** (k / 59)
            code, out, err = run_cli(capsys, "simulate", "--dim", str(d), "--n-bases", str(n),
                                     "--omega", repr(omega), "--format", "json")
            assert code == 0, (omega, err)
            data = json.loads(out, parse_constant=lambda c: pytest.fail(f"non-finite {c}"))
            assert abs(data["average"] - data["w_quantum"]) <= 1e-10 * omega + math.ulp(0.0)

    def test_shots_cap_is_inclusive(self):
        args = build_parser().parse_args(["simulate", "--dim", "2", "--n-bases", "3",
                                          "--shots", "1000000000"])
        assert args.shots == 10**9

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
        code, out, err = run_cli(capsys, "scan", "--dims", "2,6")
        assert code == 4
        assert out == ""
        assert err == f"error: (d=6, n=7) not available; supported families: {FAMILIES}\n"

    @pytest.mark.parametrize("beta", ["1", "inf"])
    def test_json_schema(self, capsys, beta):
        # at zero temperature no dimension has an advantage ratio: xi is null
        code, out, _ = run_cli(capsys, "scan", "--dims", self.DIMS, "--beta", beta,
                               "--format", "json")
        assert code == 0
        rows = json.loads(out)
        validate(rows, "scan")
        assert len(rows) == 6
        assert all((row["xi"] is None) == (beta == "inf") for row in rows)

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
        validate(data["optimizer"], "optimizer_result")
        assert abs(data["gap"]) < 1e-6
        assert data["oracle_agreement"] < 1e-5

    @pytest.mark.parametrize("d", [2, 3])
    def test_json_schema(self, capsys, d):
        # the oracle runs at d = 2 only, so it is an object there and null at d = 3
        code, out, _ = run_cli(capsys, "lhs-opt", "--dim", str(d), "--n-bases", str(d + 1),
                               "--format", "json")
        assert code == 0
        data = json.loads(out)
        validate(data, "lhs_opt")
        assert (data["oracle"] is None) == (d != 2)

    def test_gap_carries_no_thermal_term(self, capsys):
        # gap is omega * (r - objective) in one product; the difference of the
        # two works would carry the rounding of each omega * P (here P = 1)
        code, out, _ = run_cli(capsys, "lhs-opt", "--dim", "3", "--n-bases", "4",
                               "--omega", "1e5", "--beta", "40", "--format", "json")
        assert code == 0
        data = json.loads(out)
        objective = data["optimizer"]["objective"]
        assert data["gap"] == 1e5 * (rastegin_bound(3, 4) - objective)

    def test_json_schema_checks_the_optimizer(self, capsys):
        # the optimizer object follows optimizer_result through its $ref
        _, out, _ = run_cli(capsys, "lhs-opt", "--dim", "2", "--n-bases", "3",
                            "--format", "json")
        for key in ("optimizer", "oracle"):
            data = json.loads(out)
            data[key]["extra"] = 1
            with pytest.raises(jsonschema.ValidationError):
                validate(data, "lhs_opt")

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
                                             ("--tol", "-1"), ("--omega", "inf"),
                                             ("--max-iter", "-1"), ("--max-iter", "0"),
                                             ("--max-iter", "100001"),
                                             ("--max-iter", "100000000"),
                                             ("--restarts", "0"), ("--restarts", "-2"),
                                             ("--restarts", "10001"),
                                             ("--restarts", "100000000")])
    def test_invalid_flags(self, capsys, flag, value):
        code, out, err = run_cli(capsys, "lhs-opt", "--dim", "2", "--n-bases", "3", flag, value)
        assert code == 2
        assert out == ""
        # rejected before any work: the convergence flags are gone, omega
        # is the library's to check, and the budgets are the parser's
        if flag in ("--tol", "--max-iter"):
            assert err.splitlines()[-1] == (
                f"steerwork lhs-opt: error: unrecognized arguments: {flag} {value}")
        elif flag == "--omega":
            assert err == f"error: energy gap must be finite and positive, got omega={value}\n"
        else:
            assert f"argument {flag}: " in err

    def test_bad_beta_refused_before_the_bases(self, capsys):
        message = "error: inverse temperature must be >= 0, got beta=-1.0\n"
        code, out, err = run_cli(capsys, "lhs-opt", "--dim", "4", "--n-bases", "3", "--beta", "-1")
        assert (code, out, err) == (2, "", message)
        # at d = 199 the 127 MB of bases are never built
        tracemalloc.start()
        try:
            code, _, err = run_cli(capsys, "lhs-opt", "--dim", "199", "--n-bases", "200",
                                   "--beta", "-1")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, err) == (2, message)
        assert peak < 2**20, f"peak allocation {peak / 2**20:.2f} MiB"

    def test_seed_rejected_by_parser(self, capsys):
        code, out, err = run_cli(capsys, "lhs-opt", "--dim", "3", "--n-bases", "4",
                                 "--seed", "-1")
        assert code == 2
        assert out == ""
        assert err.splitlines()[-1] == (
            "steerwork lhs-opt: error: argument --seed: must be between 0 and "
            f"{2**128 - 1}, got '-1'")

    def test_budget_caps_are_inclusive(self):
        args = build_parser().parse_args(["lhs-opt", "--dim", "2", "--n-bases", "3",
                                          "--restarts", "10000"])
        assert args.restarts == 10**4


class TestVerifyMub:
    def test_pass_large_prime(self, capsys):
        code, out, _ = run_cli(capsys, "verify-mub", "--dim", "7", "--n-bases", "8")
        assert code == 0
        assert out.startswith("PASS")

    def test_pass_fourier_pair(self, capsys):
        code, _, _ = run_cli(capsys, "verify-mub", "--dim", "4", "--n-bases", "2")
        assert code == 0

    def test_json_schema(self, capsys):
        code, out, _ = run_cli(capsys, "verify-mub", "--dim", "7", "--n-bases", "8",
                               "--format", "json")
        assert code == 0
        data = json.loads(out)
        validate(data, "verify_mub")
        assert data["passed"] is True
        assert data["tol"] == ATOL

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_broken_construction_fails(self, capsys, monkeypatch, fmt):
        # two copies of the identity basis: a cross overlap of 0 where
        # 1/sqrt(2) is expected, first at (x, a, y, b) = (0, 0, 1, 1)
        monkeypatch.setattr("steerwork.cli.build_mub",
                            lambda d, n: np.stack([np.eye(d, dtype=complex)] * n))
        code, out, _ = run_cli(capsys, "verify-mub", "--dim", "2", "--n-bases", "2",
                               "--format", fmt)
        assert code == 5
        worst = 1 / math.sqrt(2)
        if fmt == "text":
            assert out == ("FAIL: 2 bases in dimension 2 at tol 1e-10\n"
                           f"max deviation = {worst:.9g}\n"
                           "worst pair: basis 0 vector 0 vs basis 1 vector 1\n")
        elif fmt == "json":
            data = json.loads(out)
            validate(data, "verify_mub")
            assert data == {"d": 2, "n": 2, "tol": ATOL, "passed": False, "max_deviation": worst,
                            "worst_pair": {"x": 0, "a": 0, "y": 1, "b": 1}}
        else:
            assert out == ("d,n,tol,passed,max_deviation,x,a,y,b\n"
                           f"2,2,1e-10,false,{worst!r},0,0,1,1\n")

    def test_unsupported(self, capsys):
        code, _, _ = run_cli(capsys, "verify-mub", "--dim", "6", "--n-bases", "4")
        assert code == 4

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_invalid_flags(self, capsys, tol):
        # a set passes within mub.ATOL; there is no --tol to set
        code, out, err = run_cli(capsys, "verify-mub", "--dim", "3", "--n-bases", "4",
                                 "--tol", tol)
        assert code == 2
        assert out == ""
        assert err.splitlines()[-1] == (
            f"steerwork verify-mub: error: unrecognized arguments: --tol {tol}")

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


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_empty_out_path_is_an_error(capsys, fmt):
    # an empty path, as from --out "$UNSET", must not fall back to stdout
    code, out, err = run_cli(capsys, "bounds", "--dim", "3", "--n-bases", "4",
                             "--format", fmt, "--out", "")
    assert (code, out) == (2, "")
    assert err == "error: [Errno 2] No such file or directory: ''\n"


@pytest.mark.parametrize("raised, detail", [
    (MemoryError("Unable to allocate 23.8 GiB"), "Unable to allocate 23.8 GiB"),
    (MemoryError(), "allocation failed"),
])
def test_memory_error_is_a_one_line_exit(capsys, monkeypatch, raised, detail):
    def exhausted(d, n, omega, beta):
        raise raised

    monkeypatch.setattr("steerwork.cli.run_exact_quantum", exhausted)
    code, out, err = run_cli(capsys, "simulate", "--dim", "3", "--n-bases", "4")
    assert code == 2
    assert out == ""
    assert err == f"error: not enough memory: {detail}\n"


@pytest.mark.parametrize("command, code, message", [
    ("simulate", 4, f"(d=2, n=1) not available; supported families: {FAMILIES}"),
    ("lhs-opt", 4, f"(d=2, n=1) not available; supported families: {FAMILIES}"),
    ("verify-mub", 4, f"(d=2, n=1) not available; supported families: {FAMILIES}"),
])
def test_single_basis_game_rejected(capsys, command, code, message):
    # n = 1 is in the game's domain, so bounds prices it (TestBounds), and
    # every command that builds bases exits 4: no MUB family has one basis
    got, out, err = run_cli(capsys, command, "--dim", "2", "--n-bases", "1")
    assert (got, out, err) == (code, "", f"error: {message}\n")


OUT_OF_DOMAIN = [
    ("1", "2", "dimension must be >= 2, got d=1"),
    ("-3", "0", "dimension must be >= 2, got d=-3"),
    ("3", "0", "basis count must be >= 1, got n=0"),
    ("3", "-4", "basis count must be >= 1, got n=-4"),
]


@pytest.mark.parametrize("argv, message", [
    ([command, "--dim", d, "--n-bases", n], message)
    for command in ("bounds", "simulate", "lhs-opt", "verify-mub")
    for d, n, message in OUT_OF_DOMAIN
] + [
    # scan sweeps n = d + 1, so it meets the d rule alone
    (["scan", "--dims", "1"], "dimension must be >= 2, got d=1"),
    (["scan", "--dims", "5,-3"], "dimension must be >= 2, got d=-3"),
])
def test_one_domain_rule(capsys, argv, message):
    # exit 2 for a (d, n) outside the game's domain, with one message on every subcommand
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is enforced on Linux")
def test_out_of_memory_under_address_space_limit():
    # the real rho_AB at d = 200 needs 11.9 GiB; a 2 GB address-space cap makes that
    # allocation fail in the child without touching the host's memory
    import resource

    def cap_address_space():
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        limit = 2 * 10**9 if hard == resource.RLIM_INFINITY else min(2 * 10**9, hard)
        resource.setrlimit(resource.RLIMIT_AS, (limit, hard))

    proc = subprocess.run(
        [sys.executable, "-m", "steerwork", "simulate", "--dim", "200", "--n-bases", "2"],
        capture_output=True, text=True, preexec_fn=cap_address_space,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: not enough memory: ")
    assert proc.stderr.count("\n") == 1


# a prime past any array size, and the first d whose primality is not decided
HUGE_PRIME = "1000000000000000003"
UNDECIDED = "3317044064679887385961981"


class TestHugeDimension:
    @pytest.mark.parametrize("argv,expected", [
        (["scan", "--dims", HUGE_PRIME], 0),
        (["simulate", "--dim", HUGE_PRIME, "--n-bases", "3"], 2),
        (["simulate", "--dim", HUGE_PRIME, "--n-bases", "3", "--shots", "10"], 2),
        (["lhs-opt", "--dim", HUGE_PRIME, "--n-bases", "3"], 2),
        (["verify-mub", "--dim", HUGE_PRIME, "--n-bases", "3"], 2),
        (["scan", "--dims", UNDECIDED], 2),
        (["simulate", "--dim", UNDECIDED, "--n-bases", "3"], 2),
        (["verify-mub", "--dim", UNDECIDED, "--n-bases", "4"], 2),
    ])
    def test_returns_within_a_second(self, capsys, argv, expected):
        start = time.perf_counter()
        code, _, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == expected
        if expected:
            assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["verify-mub"], ["lhs-opt"], ["simulate"], ["simulate", "--shots", "10"],
    ])
    def test_oversized_bases_refused_before_allocation(self, capsys, argv):
        # 15.3 GiB of bases; the cap refuses them with no address-space limit.
        # Checked on the library first, so a broken cap fails here, not in
        # an allocation of that size.
        with pytest.raises(ValueError, match="cap"):
            check_supported(1009, 1010)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv, "--dim", "1009", "--n-bases", "1010")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err == ("error: (d=1009, n=1010) needs 15.3 GiB of bases (16*n*d^2 bytes), "
                       "above the cap of 1 GiB\n")

    def test_undecided_primality_is_named(self, capsys):
        _, _, err = run_cli(capsys, "scan", "--dims", UNDECIDED)
        assert "primality" in err and "not decided" in err


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

    def test_import_stays_lean(self):
        # verify-mub uses neither; importing numpy.random costs about 5.7 MB
        # of RSS and 15 ms, concurrent.futures about 16 ms
        probe = ("import sys, steerwork.cli; "
                 "print(sorted({'numpy.random', 'concurrent.futures'} & set(sys.modules)))")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        proc = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, check=True)
        assert proc.stdout == "[]\n"

    def test_no_command(self):
        proc = subprocess.run(
            [sys.executable, "-m", "steerwork"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2

    def test_pyproject_names_the_entry_function(self, monkeypatch):
        # Python 3.10 has no tomllib, so the tables are read with regexes
        text = (ROOT / "pyproject.toml").read_text()
        tables = dict(re.findall(r"^\[([\w.]+)\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S))
        module, name = re.fullmatch(r'steerwork = "([\w.]+):(\w+)"\s*',
                                    tables["project.scripts"]).groups()
        entry = getattr(importlib.import_module(module), name)
        # the console script calls it with no arguments and exits with its result
        for argv, code in [(["bounds", "--dim", "2", "--n-bases", "3"], 0), (["bounds"], 2)]:
            monkeypatch.setattr(sys, "argv", ["steerwork", *argv])
            assert entry() == code
        # the version is read from steerwork.__version__, its one home
        assert not re.search(r"^version\s*=", tables["project"], re.M)
        assert 'dynamic = ["version"]' in tables["project"]
        assert 'version = {attr = "steerwork.__version__"}' in tables["tool.setuptools.dynamic"]
