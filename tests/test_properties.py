"""Property tests: every subcommand, drawn over the whole documented input range.

Each call runs the CLI in process with --format json. It must exit with a
documented code, print JSON that a strict parser accepts (no Infinity or
NaN), and meet the identity that the paper's closed forms promise.

The subnormal draws (omega in [5e-324, 1e-300]) run every subcommand that
takes omega a second time. Each output there is omega times a dimensionless
number, rounded to a grid whose spacing is math.ulp(0.0), so their
identities get that spacing as an absolute floor on top of the 1e-10 * omega
slack.

test_argv_never_tracebacks draws hostile values instead: one flag of a small
valid call is set to an arbitrary token, and the CLI must still answer with
a documented exit code and, on a usage error, a one-line message.
"""

import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steerwork.cli import main
from steerwork.mub import ATOL, supported_family

SUPPORTED = [(d, n) for d in range(2, 12) for n in range(2, d + 2) if supported_family(d, n)]
SCAN_DIMS = [d for d in range(2, 12) if supported_family(d, d + 1)]

pairs = st.sampled_from(SUPPORTED)
omegas = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)
betas = st.one_of(st.sampled_from([0.0, math.inf]), st.floats(0.0, 1e3))
seeds = st.integers(0, 2**32 - 1)
# log-uniform from the smallest subnormal up to 1e-300
tiny_omegas = st.floats(math.log10(5e-324), -300.0).map(lambda e: max(10.0**e, 5e-324))
ULP0 = math.ulp(0.0)

# deterministic draws and no example database, so tier-1 runs the same cases
# every time; 100 examples each keep the file near 2 s
FEW = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def _reject(constant):
    raise ValueError(f"non-finite JSON number {constant}")


def run(*argv):
    """Exit code and strictly parsed JSON output of one CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([*map(str, argv), "--format", "json"])
    return code, json.loads(out.getvalue(), parse_constant=_reject)


def check_xi(row):
    """xi is the ratio of the ceilings wherever it is defined."""
    if row["xi"] is not None:
        assert math.isclose(row["xi"], row["w_quantum"] / row["w_classical"], rel_tol=1e-12)


def common(d, n, omega, beta):
    return ["--dim", d, "--n-bases", n, "--omega", repr(omega), "--beta", repr(beta)]


@FEW
@given(pairs, omegas, betas)
def test_bounds(pair, omega, beta):
    code, row = run("bounds", *common(*pair, omega, beta))
    assert code == (3 if row["xi"] is None else 0)
    assert row["advantage"]
    check_xi(row)


@FEW
@given(pairs, omegas, betas, st.one_of(st.just(0), st.integers(1, 1000)), seeds)
def test_simulate(pair, omega, beta, shots, seed):
    code, report = run("simulate", *common(*pair, omega, beta), "--shots", shots, "--seed", seed)
    assert code == 0
    assert abs(report["average"] - report["w_quantum"]) <= 1e-10 * omega
    check_xi(report)


@FEW
@given(st.lists(st.sampled_from(SCAN_DIMS), min_size=1, max_size=4), omegas, betas)
def test_scan(dims, omega, beta):
    code, rows = run("scan", "--dims", ",".join(map(str, dims)), "--omega", repr(omega),
                     "--beta", repr(beta))
    assert code == 0
    assert [row["d"] for row in rows] == dims
    for row in rows:
        check_xi(row)
        if row["xi"] is not None:
            assert row["xi_over_sqrt_d"] == row["xi"] / math.sqrt(row["d"])


@FEW
@given(pairs, omegas, betas, st.integers(1, 4), seeds)
def test_lhs_opt(pair, omega, beta, restarts, seed):
    code, data = run("lhs-opt", *common(*pair, omega, beta), "--restarts", restarts,
                     "--seed", seed)
    assert code == 0
    assert data["achievable_work"] <= data["w_classical"] + 1e-10 * omega


@FEW
@given(pairs)
def test_verify_mub(pair):
    # every constructed family passes, within mub.ATOL, which the output echoes
    d, n = pair
    code, report = run("verify-mub", "--dim", d, "--n-bases", n)
    assert code == 0
    assert report["passed"] and report["max_deviation"] <= report["tol"] == ATOL


def check_xi_subnormal(row, omega):
    """xi times w_classical gives w_quantum, within the grid spacing of both."""
    if row["xi"] is not None:
        xi = row["xi"]
        assert abs(xi * row["w_classical"] - row["w_quantum"]) <= (1 + xi) * (1e-10 * omega + ULP0)


@FEW
@given(pairs, tiny_omegas, betas)
def test_bounds_subnormal_omega(pair, omega, beta):
    code, row = run("bounds", *common(*pair, omega, beta))
    assert code == (3 if row["xi"] is None else 0)
    assert row["advantage"]
    check_xi_subnormal(row, omega)


@FEW
@given(pairs, tiny_omegas, betas, st.one_of(st.just(0), st.integers(1, 1000)), seeds)
def test_simulate_subnormal_omega(pair, omega, beta, shots, seed):
    code, report = run("simulate", *common(*pair, omega, beta), "--shots", shots, "--seed", seed)
    assert code == 0
    assert abs(report["average"] - report["w_quantum"]) <= 1e-10 * omega + ULP0
    check_xi_subnormal(report, omega)


@FEW
@given(st.lists(st.sampled_from(SCAN_DIMS), min_size=1, max_size=4), tiny_omegas, betas)
def test_scan_subnormal_omega(dims, omega, beta):
    code, rows = run("scan", "--dims", ",".join(map(str, dims)), "--omega", repr(omega),
                     "--beta", repr(beta))
    assert code == 0
    assert [row["d"] for row in rows] == dims
    for row in rows:
        check_xi_subnormal(row, omega)
        if row["xi"] is not None:
            assert row["xi_over_sqrt_d"] == row["xi"] / math.sqrt(row["d"])


@FEW
@given(pairs, tiny_omegas, betas, st.integers(1, 4), seeds)
def test_lhs_opt_subnormal_omega(pair, omega, beta, restarts, seed):
    code, data = run("lhs-opt", *common(*pair, omega, beta), "--restarts", restarts,
                     "--seed", seed)
    assert code == 0
    assert data["achievable_work"] <= data["w_classical"] + 1e-10 * omega + ULP0


# A small valid call of each subcommand. The argv test sets one of its values
# (or --format) to a drawn token; a hostile --dim keeps --n-bases 4 beside it.
VALID_ARGV = {
    "bounds": {"--dim": "3", "--n-bases": "4", "--omega": "1", "--beta": "1"},
    "simulate": {"--dim": "3", "--n-bases": "4", "--omega": "1", "--beta": "1",
                 "--shots": "3", "--seed": "0"},
    "scan": {"--dims": "2,3", "--omega": "1", "--beta": "1"},
    "lhs-opt": {"--dim": "3", "--n-bases": "4", "--omega": "1", "--beta": "1",
                "--restarts": "2", "--seed": "0"},
    "verify-mub": {"--dim": "3", "--n-bases": "4"},
}
HOSTILE = ["nan", "inf", "-inf", "-1", "0", "-0", "1e309", "1e-400", "5e-324", "1e300", "2.5",
           "", "0x10", "1_000", "\u096f", "1" + "0" * 400]
# flags whose value sets the size of the run
SIZE_FLAGS = {"--dim", "--n-bases", "--shots", "--restarts", "--dims"}
EXIT_CODES = {0, 2, 3, 4, 5}


def small(token):
    """False if some comma-separated piece of token is, by the CLI's int(), above 7.

    Size flags take only small tokens, so no draw starts a large valid run.
    """
    for piece in token.split(","):
        try:
            if int(piece) > 7:
                return False
        except ValueError:
            pass
    return True


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_argv_never_tracebacks(data):
    command = data.draw(st.sampled_from(sorted(VALID_ARGV)))
    values = {**VALID_ARGV[command],
              "--format": data.draw(st.sampled_from(["json", "csv", "text"]))}
    flag = data.draw(st.sampled_from(sorted(values)))
    tokens = st.one_of(st.sampled_from(HOSTILE), st.text())
    values[flag] = data.draw(tokens.filter(small) if flag in SIZE_FLAGS else tokens)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, *(item for pair in values.items() for item in pair)])
    assert code in EXIT_CODES
    assert "Traceback" not in err.getvalue()
    if code in (2, 4):
        lines = err.getvalue().splitlines()
        assert lines and "error:" in lines[-1]
        assert sum("error:" in line for line in lines) == 1
    if code == 0 and values["--format"] == "json":
        json.loads(out.getvalue(), parse_constant=_reject)


@pytest.mark.parametrize("flag, token, value", [
    ("--seed", "1_000", 1000), ("--seed", "\u096f", 9),
    ("--omega", "1_000", 1000.0), ("--omega", "\u096f", 9.0),
])
def test_numbers_take_python_literal_syntax(flag, token, value):
    # int() and float() read digit-group underscores and any Unicode decimal
    # digit (U+096F is Devanagari nine); the CLI accepts what they accept
    argv = {"--dim": 3, "--n-bases": 4, "--shots": 1, "--seed": 0, "--omega": 1.0, flag: token}
    code, report = run("simulate", *(str(item) for pair in argv.items() for item in pair))
    assert code == 0
    assert report[flag[2:]] == value
