"""Closed-form ceilings on the average extractable work, and their ratio.

Conventions: k_B = 1 and hbar = 1, omega carries arbitrary energy units,
beta is inverse energy (math.inf = zero temperature). Every formula depends
on temperature only through the ground-level thermal population P. With
t = (d-1) e^{-beta*omega}, which cannot overflow, neither P = 1/(1 + t) nor
1 - P = t/(1 + t) is a difference, so neither cancels where P nears 1.
Both ceilings have the shape omega*overlap - omega*P: the classical one with
the Rastegin overlap bound r, the quantum one with overlap 1. Their ratio is
the dimensionless xi = (1 - P) / (r - P), which no omega can underflow.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass
from decimal import Decimal
from fractions import Fraction

from .mub import _as_dims


def _thermal_weights(d: int, omega: float, beta: float) -> tuple[float, float]:
    """Thermal weights (P, 1 - P) on and off the ground level of a gap-omega, d-level spectrum.

    The one check of the energies: raises ValueError unless 0 < omega < inf
    and beta >= 0 (inf allowed); d is checked by mub._as_dims. P equals 1/d
    at beta = 0 and 1 at beta = inf. beta*omega is taken exactly, as hi + lo,
    and e^{-lo} as 1 - lo, within lo^2 / 2: P and 1 - P hold to a few ulps.
    """
    if not 0 < omega < math.inf:
        raise ValueError(f"energy gap must be finite and positive, got omega={omega}")
    if not (beta >= 0):
        raise ValueError(f"inverse temperature must be >= 0, got beta={beta}")
    beta, omega = float(beta), float(omega)
    hi = beta * omega
    lo = float(Fraction(beta) * Fraction(omega) - Fraction(hi)) if hi < math.inf else 0.0
    t = (d - 1) * math.exp(-hi) * (1 - lo)
    return 1.0 / (1.0 + t), t / (1.0 + t)


def rastegin_bound(d: int, n: int) -> float:
    """Maximum average overlap of a state with one vector from each of n MUBs.

    (1/d) * (1 + (d-1)/sqrt(n)); lies in (1/d, 1] and decays like 1/sqrt(d)
    along n = d+1. For a (d, n) that mub._as_dims accepts.
    """
    return (1.0 + (d - 1) / math.sqrt(n)) / d


def work_above_reset(omega: float, overlap: float, population: float) -> float:
    """omega * overlap - omega * population, the shape of every work bound.

    Rounds whose average fidelity with the quench vector is overlap pay
    this much once the thermal reset cost omega * P is taken off.
    """
    return omega * overlap - omega * population


@dataclass(frozen=True)
class BoundSet:
    """All closed-form quantities for one (d, n, omega, beta) configuration.

    w_quantum = omega * (1 - P) is attained by measuring a maximally
    entangled state in the conjugated bases. advantage is the criterion
    d*sqrt(n)/(sqrt(n) + d - 1) > 1, that is r < 1, which holds for every
    d >= 2 once n >= 2. xi is None when r <= P, where the classical bound
    is <= 0 and the ratio is undefined. population and excited, that is
    P and 1 - P, are left out of JSON.
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
    population: float
    excited: float

    def to_json_dict(self) -> dict:
        """The fields in order but population and excited, with beta strict-JSON safe."""
        fields = {**asdict(self), "beta": json_float(self.beta)}
        return {k: v for k, v in fields.items() if k not in ("population", "excited")}


def evaluate_bounds(d: int, n: int, omega: float, beta: float) -> BoundSet:
    """Validate one configuration and bundle its bounds from one r, P and 1 - P, d, n as ints.

    (d, n) are checked by mub._as_dims first, then omega and beta.
    """
    d, n = _as_dims(d, n)
    r = rastegin_bound(d, n)
    pop, excited = _thermal_weights(d, omega, beta)
    if excited >= (d - 1) * sys.float_info.min:
        w_quantum = omega * excited
    else:  # omega must not scale up the rounding of a subnormal e^{-beta*omega}; 1 + t = 1
        w, b = Decimal(float(omega)), Decimal(float(beta))
        w_quantum = float(w * (d - 1) * (-b * w).exp())
    return BoundSet(
        d=d, n=n, omega=omega, beta=beta,
        w_classical=work_above_reset(omega, r, pop),
        w_quantum=w_quantum,
        xi=excited / (r - pop) if r > pop else None,
        rastegin=r,
        advantage=r < 1.0,
        population=pop,
        excited=excited,
    )


def json_float(value: float) -> float | str:
    """Strict JSON has no Infinity literal; zero temperature goes out as "inf"."""
    return "inf" if math.isinf(value) else value
