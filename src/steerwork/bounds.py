"""Closed-form ceilings on the average extractable work, and their ratio.

Conventions: k_B = 1 and hbar = 1, omega carries arbitrary energy units,
beta is inverse energy (math.inf = zero temperature). Every formula depends
on temperature only through the ground-level thermal population
e^{beta*omega} / (e^{beta*omega} + d - 1), which is computed in the
overflow-safe form 1 / (1 + (d-1) e^{-beta*omega}).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def ground_state_population(d: int, omega: float, beta: float) -> float:
    """Thermal weight on the ground level of a gap-omega, d-level spectrum.

    Equals 1/d at beta = 0 and 1 at beta = inf; exp(-beta*omega) never
    overflows for beta >= 0, omega > 0.
    """
    _check_args(d, 1, omega, beta)
    return 1.0 / (1.0 + (d - 1) * math.exp(-beta * omega))


def rastegin_bound(d: int, n: int) -> float:
    """Maximum average overlap of a state with one vector from each of n MUBs.

    (1/d) * (1 + (d-1)/sqrt(n)); lies in (1/d, 1] and decays like 1/sqrt(d)
    along n = d+1.
    """
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got d={d}")
    if n < 1:
        raise ValueError(f"basis count must be >= 1, got n={n}")
    return (1.0 + (d - 1) / math.sqrt(n)) / d


def w_classical(d: int, n: int, omega: float, beta: float) -> float:
    """Ceiling on the average extracted work without steering.

    omega * rastegin_bound(d, n) minus the thermal reset cost; can go
    negative at low temperature.
    """
    _check_args(d, n, omega, beta)
    return omega * rastegin_bound(d, n) - omega * ground_state_population(d, omega, beta)


def w_quantum(d: int, omega: float, beta: float) -> float:
    """Maximum average extracted work over all bipartite strategies.

    omega * (1 - ground population); attained by measuring a maximally
    entangled state in the conjugated bases.
    """
    _check_args(d, 1, omega, beta)
    return omega * (1.0 - ground_state_population(d, omega, beta))


def advantage_condition(d: int, n: int) -> bool:
    """True iff quantum strategies can beat the unsteerable ceiling.

    The criterion d*sqrt(n)/(sqrt(n) + d - 1) > 1 holds for every d >= 2
    once n >= 2.
    """
    if d < 2 or n < 1:
        raise ValueError(f"need d >= 2 and n >= 1, got d={d}, n={n}")
    rn = math.sqrt(n)
    return d * rn / (rn + d - 1) > 1.0


@dataclass(frozen=True)
class BoundSet:
    """All closed-form quantities for one (d, n, omega, beta) configuration.

    xi is None when the classical bound is <= 0 and the ratio is undefined.
    """

    d: int
    n: int
    omega: float
    beta: float
    w_classical: float
    w_quantum: float
    xi: float | None
    rastegin: float
    advantage: bool

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "n": self.n,
            "omega": self.omega,
            "beta": json_float(self.beta),
            "w_classical": self.w_classical,
            "w_quantum": self.w_quantum,
            "xi": self.xi,
            "rastegin": self.rastegin,
            "advantage": self.advantage,
        }


def evaluate_bounds(d: int, n: int, omega: float, beta: float) -> BoundSet:
    """Bundle every bound for one configuration; xi becomes None off-domain."""
    wc = w_classical(d, n, omega, beta)
    wq = w_quantum(d, omega, beta)
    ratio = wq / wc if wc > 0.0 else None
    return BoundSet(
        d=d, n=n, omega=omega, beta=beta,
        w_classical=wc, w_quantum=wq, xi=ratio,
        rastegin=rastegin_bound(d, n),
        advantage=advantage_condition(d, n),
    )


def json_float(value: float) -> float | str:
    """Strict JSON has no Infinity literal; zero temperature goes out as "inf"."""
    return "inf" if math.isinf(value) else value


def _check_args(d: int, n: int, omega: float, beta: float) -> None:
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got d={d}")
    if n < 1:
        raise ValueError(f"basis count must be >= 1, got n={n}")
    if not omega > 0:
        raise ValueError(f"energy gap must be positive, got omega={omega}")
    if not (beta >= 0):
        raise ValueError(f"inverse temperature must be >= 0, got beta={beta}")
