"""Property tests: every subcommand, drawn over the whole documented input range.

Each call runs the CLI in process with --format json. It must exit with a
documented code, print JSON that a strict parser accepts (no Infinity or
NaN), and meet the identity that the paper's closed forms promise.

The subnormal draws (omega in [5e-324, 1e-300]) run every subcommand that
takes omega a second time. Each output there is omega times a dimensionless
number, rounded to a grid whose spacing is math.ulp(0.0), so their
identities get that spacing as an absolute floor on top of the 1e-10 * omega
slack.
"""

import contextlib
import io
import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from steerwork.cli import main
from steerwork.mub import supported_family

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
@given(pairs, st.one_of(st.just(1e-10), st.floats(0.0, 1e-8)))
def test_verify_mub(pair, tol):
    d, n = pair
    code, report = run("verify-mub", "--dim", d, "--n-bases", n, "--tol", repr(tol))
    assert report["passed"] == (report["max_deviation"] <= tol)
    assert code == (0 if report["passed"] else 5)
    if tol >= 1e-10:
        assert report["passed"]


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
