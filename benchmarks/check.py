"""Per-op correctness check against closed forms written out here.

The formulas are the paper's, written out again here; nothing is
imported from steerwork, so a bug in steerwork.bounds cannot hide itself.

  P(d, omega, beta)        = 1 / (1 + (d-1) e^{-beta omega})   (1/d at beta = 0, 1 at inf)
  w_quantum(d, omega, beta) = omega (1 - P)
  rastegin(d, n)           = (1 + (d-1)/sqrt(n)) / d
  w_classical(d, n, ...)   = omega rastegin - omega P

Each check returns None when the op's output is right, else a one-line reason.
"""

from __future__ import annotations

import math

WORK_RTOL = 1e-9  # works are checked to 1e-9 * omega
OBJECTIVE_SLACK = 1e-12  # rounding allowed at the ends of [1/d, rastegin]
MUB_MAX_DEVIATION = 1e-12


def ground_population(d: int, omega: float, beta: float) -> float:
    if beta == 0.0:
        return 1.0 / d
    if math.isinf(beta):
        return 1.0
    return 1.0 / (1.0 + (d - 1) * math.exp(-beta * omega))


def w_quantum(d: int, omega: float, beta: float) -> float:
    return omega * (1.0 - ground_population(d, omega, beta))


def rastegin(d: int, n: int) -> float:
    return (1.0 + (d - 1) / math.sqrt(n)) / d


def w_classical(d: int, n: int, omega: float, beta: float) -> float:
    return omega * rastegin(d, n) - omega * ground_population(d, omega, beta)


def _close(name: str, got, want: float, omega: float) -> str | None:
    if not isinstance(got, (int, float)) or isinstance(got, bool):
        return f"{name} is {got!r}, not a number"
    if not abs(got - want) <= WORK_RTOL * omega:
        return f"{name} = {got!r}, expected {want!r} within {WORK_RTOL:g}*omega"
    return None


def _echo(out: dict, workload, op) -> str | None:
    if out.get("d") != workload.d or out.get("n") != workload.n:
        return f"output is for (d={out.get('d')}, n={out.get('n')})"
    if op.omega is not None and out.get("omega") != op.omega:
        return f"output omega {out.get('omega')!r} != {op.omega!r}"
    return None


def check_simulate(out: dict, workload, op) -> str | None:
    d, n, omega = workload.d, workload.n, op.omega
    wq = w_quantum(d, omega, op.beta)
    per_round = out.get("per_round")
    if not isinstance(per_round, list) or len(per_round) != n or any(
        not isinstance(row, list) or len(row) != d for row in per_round
    ):
        return f"per_round is not an {n} x {d} table"
    reasons = [
        _echo(out, workload, op),
        _close("average", out.get("average"), wq, omega),
        _close("w_quantum", out.get("w_quantum"), wq, omega),
        _close("w_classical", out.get("w_classical"), w_classical(d, n, omega, op.beta), omega),
    ]
    reasons += [_close(f"per_round[{x}][{a}]", w, wq, omega)
                for x, row in enumerate(per_round) for a, w in enumerate(row)]
    return next((r for r in reasons if r), None)


def check_lhs_opt(out: dict, workload, op) -> str | None:
    d, n, omega = workload.d, workload.n, op.omega
    if (reason := _echo(out, workload, op)):
        return reason
    objective = out.get("optimizer", {}).get("objective")
    if not isinstance(objective, float):
        return f"objective is {objective!r}, not a number"
    lo, hi = 1.0 / d, rastegin(d, n)
    if not lo - OBJECTIVE_SLACK <= objective <= hi + OBJECTIVE_SLACK:
        return f"objective {objective!r} outside [1/d, rastegin] = [{lo!r}, {hi!r}]"
    want = omega * objective - omega * ground_population(d, omega, op.beta)
    return (_close("achievable_work", out.get("achievable_work"), want, omega)
            or _close("w_classical", out.get("w_classical"),
                      w_classical(d, n, omega, op.beta), omega))


def check_verify_mub(out: dict, workload, op) -> str | None:
    if (reason := _echo(out, workload, op)):
        return reason
    if out.get("passed") is not True:
        return f"passed is {out.get('passed')!r}"
    dev = out.get("max_deviation")
    if not isinstance(dev, float) or not dev < MUB_MAX_DEVIATION:
        return f"max_deviation {dev!r} is not below {MUB_MAX_DEVIATION:g}"
    return None


CHECKS = {
    "simulate": check_simulate,
    "lhs-opt": check_lhs_opt,
    "verify-mub": check_verify_mub,
}


def check(out: dict, workload, op) -> str | None:
    """None when the parsed JSON output of op is correct, else the reason."""
    return CHECKS[workload.command[0]](out, workload, op)
