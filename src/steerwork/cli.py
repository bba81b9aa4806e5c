"""Command-line front end.

Subcommands: bounds (closed forms), simulate (exact or Monte Carlo game),
scan (dimension sweep at n = d+1), lhs-opt (single-state optimizer against
the classical ceiling), verify-mub (overlap certification to within
mub.ATOL).

The parser checks syntax and the CLI's own budgets (--shots, --restarts,
--seed). The library checks (d, n, omega, beta), before any array is built.

Exit codes: 0 ok, 2 bad flags, a parameter outside the game's domain, or
not enough memory, 3 advantage ratio undefined (bounds are still printed),
4 an in-domain (d, n) with no MUB construction, 5 verification failure.

Formats: text renders 9 significant digits, json and csv carry full double
precision. Zero temperature (beta = inf) is written as the string "inf" in
JSON, which has no infinity literal.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .bounds import evaluate_bounds, json_float, work_above_reset
from .game import run_exact_quantum, run_monte_carlo
from .lhs import DEFAULT_RESTARTS, DEFAULT_SEED, closed_form_optimum, optimize_single_state
from .mub import ATOL, MAX_SEED, MubConstructionError, build_mub, check_family, verify_mub

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_XI_DOMAIN = 3
EXIT_UNSUPPORTED = 4
EXIT_VERIFY_FAIL = 5

# Monte Carlo time is linear in --shots and nothing is printed until the end;
# 10^9 shots already take tens of seconds, so a larger count is refused.
MAX_SHOTS = 10**9
# The lhs-opt budget likewise: at d = 61 (2 vCPU, OpenBLAS on one thread,
# 2026-10-20), 10^4 restarts take about 43 s, each stopping at its fixed
# point after about 5 steps.
MAX_RESTARTS = 10**4


def _cell(value, csv: bool = False) -> str:
    """One value as text (9 significant digits, "undefined" for None) or as
    CSV (full double precision, an empty cell for None)."""
    if value is None:
        return "" if csv else "undefined"
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return repr(value) if csv else format(value, ".9g")
    return str(value)


def _labelled(fields: dict) -> list[str]:
    """Text lines "key = value", with the keys padded to the longest one."""
    width = max(map(len, fields))
    return [f"{key:<{width}} = {_cell(value)}" for key, value in fields.items()]


def _render(args, payload, rows: list[dict], text: list[str]) -> None:
    """Write payload as JSON, rows as CSV (header from the first row), or text."""
    if args.format == "json":
        out = json.dumps(payload, indent=2)
    elif args.format == "csv":
        out = "\n".join([",".join(rows[0])]
                        + [",".join(_cell(v, csv=True) for v in row.values()) for row in rows])
    else:
        out = "\n".join(text)
    if args.out is not None:
        with open(args.out, "w") as fh:
            fh.write(out + "\n")
    else:
        print(out)


def _int_in(low: int, high: int):
    """argparse type: an integer between low and high inclusive."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(f"must be between {low} and {high}, got {text!r}")
        return value
    return parse


def _add_output(sub, default: str = "text"):
    sub.add_argument("--format", choices=["json", "csv", "text"], default=default)
    sub.add_argument("--out", default=None, help="write output to a file instead of stdout")


def _add_dims(sub):
    sub.add_argument("--dim", type=int, required=True, help="Hilbert-space dimension d")
    sub.add_argument("--n-bases", type=int, required=True, help="number of measurement settings n")


def _add_energies(sub):
    sub.add_argument("--omega", type=float, default=1.0, help="energy gap (default 1.0)")
    sub.add_argument("--beta", type=float, default=1.0,
                     help="inverse temperature; 'inf' = zero temperature (default 1.0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steerwork",
        description="Work extraction from steered quantum correlations.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    # each subcommand keeps its parser, which main asks to report unknown flags
    p = subs.add_parser("bounds", help="closed-form work ceilings and advantage ratio")
    _add_dims(p)
    _add_energies(p)
    _add_output(p)
    p.set_defaults(func=cmd_bounds, parser=p)

    p = subs.add_parser("simulate", help="run the game exactly (shots=0) or by sampling")
    _add_dims(p)
    _add_energies(p)
    _add_output(p)
    p.add_argument("--shots", type=_int_in(0, MAX_SHOTS), default=0,
                   help=f"0 = exact mode (default); at most {MAX_SHOTS}")
    p.add_argument("--seed", type=_int_in(0, MAX_SEED), default=0,
                   help="RNG seed, from 0 to 2**128 - 1 (default 0)")
    p.set_defaults(func=cmd_simulate, parser=p)

    p = subs.add_parser("scan", help="sweep dimensions at n = d+1 and tabulate the advantage")
    p.add_argument("--dims", required=True,
                   help="comma-separated list of dimensions, e.g. 2,3,5,7")
    _add_energies(p)
    _add_output(p, default="csv")
    p.set_defaults(func=cmd_scan, parser=p)

    p = subs.add_parser("lhs-opt", help="maximize the unsteerable work and compare to the ceiling")
    _add_dims(p)
    _add_energies(p)
    _add_output(p)
    p.add_argument("--restarts", type=_int_in(1, MAX_RESTARTS), default=DEFAULT_RESTARTS)
    p.add_argument("--seed", type=_int_in(0, MAX_SEED), default=DEFAULT_SEED)
    p.set_defaults(func=cmd_lhs_opt, parser=p)

    p = subs.add_parser("verify-mub", help="certify the overlap relations of a constructed family")
    _add_dims(p)
    _add_output(p)
    p.set_defaults(func=cmd_verify_mub, parser=p)

    return parser


def cmd_bounds(args) -> int:
    bs = evaluate_bounds(args.dim, args.n_bases, args.omega, args.beta)
    row = bs.to_json_dict()
    _render(args, row, [row], _labelled(row))
    return EXIT_OK if bs.xi is not None else EXIT_XI_DOMAIN


def cmd_simulate(args) -> int:
    game = (args.dim, args.n_bases, args.omega, args.beta)
    report = (run_exact_quantum(*game) if args.shots == 0
              else run_monte_carlo(*game, shots=args.shots, seed=args.seed))
    payload = report.to_json_dict()
    row = {k: v for k, v in payload.items() if k != "per_round"}
    shown = {k: "-" if v is None and k in ("seed", "stderr") else v for k, v in row.items()}
    text = _labelled(shown) + ["per_round (settings x outcomes):"]
    text += ["  " + "  ".join(_cell(w) for w in ws) for ws in payload["per_round"]]
    _render(args, payload, [row], text)
    return EXIT_OK


def cmd_scan(args) -> int:
    try:
        dims = [int(tok) for tok in args.dims.split(",")]
    except ValueError as exc:
        raise ValueError(f"bad --dims list {args.dims!r}: {exc}") from exc
    rows = []
    for d in dims:  # the domain, then the construction: the first d that fails decides
        bs = evaluate_bounds(d, d + 1, args.omega, args.beta)
        check_family(d, d + 1)
        row = {k: v for k, v in bs.to_json_dict().items() if k not in ("rastegin", "advantage")}
        rows.append({**row, "xi_over_sqrt_d": bs.xi / math.sqrt(d) if bs.xi is not None else None})
    table = [list(rows[0]), *(row.values() for row in rows)]
    text = ["  ".join(f"{_cell(v):>14}" for v in line) for line in table]
    _render(args, rows, rows, text)
    return EXIT_OK


def cmd_lhs_opt(args) -> int:
    # refuse a bad (d, n, omega, beta) before the bases are built, as simulate does
    bs = evaluate_bounds(args.dim, args.n_bases, args.omega, args.beta)
    bases = build_mub(bs.d, bs.n)
    result = optimize_single_state(bases, args.restarts, args.seed)
    achievable = work_above_reset(args.omega, result.objective, bs.population)
    gap = args.omega * (bs.rastegin - result.objective)  # carries no omega * P
    oracle = closed_form_optimum(bases)
    agreement = abs(oracle.objective - result.objective) if oracle else None

    head = {"d": args.dim, "n": args.n_bases, "omega": args.omega, "beta": json_float(args.beta)}
    work = {"achievable_work": achievable, "w_classical": bs.w_classical, "gap": gap}
    checks = {"oracle_objective": oracle.objective if oracle else None,
              "oracle_agreement": agreement}
    payload = {**head, "optimizer": result.to_json_dict(), **work,
               "oracle": oracle.to_json_dict() if oracle else None,
               "oracle_agreement": agreement}
    row = {**head, "objective": result.objective, **work, **checks}
    fields = {"d": args.dim, "n": args.n_bases, "objective": result.objective, **work,
              "restarts": result.restarts_used, "iterations": result.iterations,
              "converged": result.converged, **(checks if oracle else {})}
    _render(args, payload, [row], _labelled(fields))
    return EXIT_OK


def cmd_verify_mub(args) -> int:
    report = verify_mub(build_mub(args.dim, args.n_bases))
    head = {"d": args.dim, "n": args.n_bases, "tol": ATOL,
            "passed": report.passed, "max_deviation": report.max_deviation}
    pair = dict(zip("xayb", report.worst_pair))
    text = [
        f"{'PASS' if report.passed else 'FAIL'}: {args.n_bases} bases in dimension "
        f"{args.dim} at tol {_cell(ATOL)}",
        f"max deviation = {_cell(report.max_deviation)}",
    ]
    if not report.passed:
        text.append("worst pair: basis {x} vector {a} vs basis {y} vector {b}".format(**pair))
    _render(args, {**head, "worst_pair": pair}, [{**head, **pair}], text)
    return EXIT_OK if report.passed else EXIT_VERIFY_FAIL


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args, unknown = parser.parse_known_args(argv)
        if unknown:
            args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except MubConstructionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except MemoryError as exc:
        print(f"error: not enough memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
