"""Workloads: which CLI call each op makes, and its parameters.

Every op's parameters come from the workload seed alone, so the same seed
gives the same op sequence. The program sees only the generated argv.

Parameter laws (per op):
  * omega is log-uniform over [1e-3, 1e5];
  * beta is 0 for 10% of ops, inf for 10%, log-uniform over [1e-2, 10]
    otherwise;
  * --seed (Monte Carlo and LHS ops only) is uniform over [0, 2**31).

omega and beta are not drawn independently per op but from two Kronecker
(golden-ratio and silver-ratio) sequences whose start points the seed
picks. Each sequence is equidistributed, so the laws above hold, and every
prefix of the op stream covers the omega range evenly, whatever the seed
and the run length.

omega stops at 1e5 because every workload's ops pass up to 2e5, while
from about 5e5 upward the program fails on absolute tolerances. Those
failures are not timed: the traced run probes them with the fixed
PROBE_OMEGAS and reports how many fail.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

OMEGA_LOG10 = (-3.0, 5.0)
PROBE_OMEGAS = (1e6, 1e7)  # at beta = 1; past the omega range, where absolute tolerances give way
BETA_LOG10 = (-2.0, 1.0)
BETA_ZERO_SHARE = 0.1
BETA_INF_SHARE = 0.1
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SILVER = math.sqrt(2.0) - 1.0


@dataclass(frozen=True)
class Workload:
    """One CLI configuration; ops differ only in omega, beta and --seed.

    Why each workload exists is recorded in README.md and BENCHMARK.json.
    """

    name: str
    command: tuple[str, ...]
    d: int
    n: int
    physics: bool  # takes --omega and --beta
    seeded: bool  # takes --seed


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "exact-d23", ("simulate", "--dim", "23", "--n-bases", "24"), 23, 24,
            physics=True, seeded=False,
        ),
        Workload(
            "montecarlo-d5",
            ("simulate", "--dim", "5", "--n-bases", "6", "--shots", "1000000"), 5, 6,
            physics=True, seeded=True,
        ),
        Workload(
            "lhs-d31", ("lhs-opt", "--dim", "31", "--n-bases", "32"), 31, 32,
            physics=True, seeded=True,
        ),
        Workload(
            "verify-d61", ("verify-mub", "--dim", "61", "--n-bases", "62"), 61, 62,
            physics=False, seeded=False,
        ),
    ]
}


@dataclass(frozen=True)
class Op:
    argv: list[str]
    omega: float | None
    beta: float | None
    seed: int | None


def _float_arg(value: float) -> str:
    return "inf" if math.isinf(value) else repr(value)


class OpStream:
    """The seeded sequence of ops of one workload."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self._rng = random.Random(seed)
        self._u0 = self._rng.random()
        self._v0 = self._rng.random()
        self._index = 0

    def next(self) -> Op:
        w = self.workload
        i = self._index
        self._index += 1
        omega = beta = seed = None
        if w.physics:
            u = (self._u0 + i * GOLDEN) % 1.0
            omega = 10.0 ** (OMEGA_LOG10[0] + u * (OMEGA_LOG10[1] - OMEGA_LOG10[0]))
            v = (self._v0 + i * SILVER) % 1.0
            if v < BETA_ZERO_SHARE:
                beta = 0.0
            elif v < BETA_ZERO_SHARE + BETA_INF_SHARE:
                beta = math.inf
            else:
                s = (v - BETA_ZERO_SHARE - BETA_INF_SHARE) / (1.0 - BETA_ZERO_SHARE - BETA_INF_SHARE)
                beta = 10.0 ** (BETA_LOG10[0] + s * (BETA_LOG10[1] - BETA_LOG10[0]))
        if w.seeded:
            seed = self._rng.randrange(2**31)
        return make_op(w, omega, beta, seed)


def make_op(w: Workload, omega: float | None, beta: float | None, seed: int | None) -> Op:
    argv = list(w.command) + ["--format", "json"]
    if w.physics:
        argv += ["--omega", _float_arg(omega), "--beta", _float_arg(beta)]
    if w.seeded:
        argv += ["--seed", str(seed)]
    return Op(argv=argv, omega=omega, beta=beta, seed=seed)


def probe_ops(w: Workload) -> list[Op]:
    """Fixed ops past the omega range, at beta = 1; none for workloads without omega."""
    if not w.physics:
        return []
    return [make_op(w, omega, 1.0, 0 if w.seeded else None) for omega in PROBE_OMEGAS]


def warmup_op(w: Workload) -> Op:
    """A fixed op at omega = beta = 1 that runs before timing starts."""
    return make_op(w, 1.0 if w.physics else None, 1.0 if w.physics else None,
                   0 if w.seeded else None)
