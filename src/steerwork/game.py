"""The bipartite work-extraction game.

One round: Bob draws a setting x, Alice measures her half of the shared
state and announces the outcome a, Bob quenches his (initially trivial)
Hamiltonian to H_{a|x} = -omega |phi_x^a><phi_x^a|, thermalizes against a
bath at inverse temperature beta, and quenches back. The net work of the
round is -Tr(H rho) + Tr(H gamma) with gamma the Gibbs state of H; the
figure of merit is the average over uniform x and the outcome statistics.

Exact mode evaluates the full double sum over (a, x); Monte Carlo mode
samples rounds operationally with a seeded counter-based generator so that
reports are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import bounds as bounds_mod
from .mub import MubSet, build_mub, conjugate_basis
from .qmath import (
    check_hermitian,
    check_povm,
    dagger,
    expectation,
    hermitian_eigensystem,
    projector,
)

# Outcomes with p(a|x) below this contribute zero work: their normalized
# post-measurement state is undefined and the unnormalized summand vanishes.
P_EPS = 1e-14

ATOL_ASSEMBLAGE = 1e-10


@dataclass(frozen=True)
class GameConfig:
    """Free parameters of one game: dimension, bases, energy scale, bath."""

    d: int
    n: int
    omega: float = 1.0
    beta: float = 1.0
    shots: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.d < 2:
            raise ValueError(f"dimension must be >= 2, got d={self.d}")
        if self.n < 2:
            raise ValueError(f"need at least two settings, got n={self.n}")
        if not self.omega > 0:
            raise ValueError(f"energy gap must be positive, got omega={self.omega}")
        if not (self.beta >= 0):
            raise ValueError(f"inverse temperature must be >= 0, got beta={self.beta}")
        if self.shots < 0:
            raise ValueError(f"shot count must be >= 0, got shots={self.shots}")


@dataclass
class Assemblage:
    """Bob's unnormalized conditional states sigma[x, a] with p[x, a] = Tr(sigma).

    d is Bob's dimension, n the number of settings; sigma has shape
    (n, outcomes, d, d). Construction validates the defining identities:
    traces match p, outcome distributions normalize per setting, and the
    reduced state sum_a sigma[x, a] is setting-independent (no signaling).
    """

    d: int
    n: int
    sigma: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        n, m, db, db2 = self.sigma.shape
        if db != db2 or db != self.d or n != self.n or self.p.shape != (n, m):
            raise ValueError(
                f"shape mismatch: sigma {self.sigma.shape}, p {self.p.shape}, "
                f"d={self.d}, n={self.n}"
            )
        traces = np.einsum("xaii->xa", self.sigma).real
        if np.max(np.abs(traces - self.p)) > ATOL_ASSEMBLAGE:
            raise ValueError("p(a|x) does not match Tr(sigma_{a|x})")
        if np.min(self.p) < -1e-12:
            raise ValueError(f"negative outcome probability: {np.min(self.p):.3e}")
        if np.max(np.abs(self.p.sum(axis=1) - 1.0)) > ATOL_ASSEMBLAGE:
            raise ValueError("outcome probabilities do not sum to 1 per setting")
        reduced = self.sigma.sum(axis=1)
        dev = np.max(np.abs(reduced - reduced[0]))
        if dev > ATOL_ASSEMBLAGE:
            raise ValueError(f"assemblage signals: reduced states differ by {dev:.3e}")

    @property
    def outcomes(self) -> int:
        return self.sigma.shape[1]

    def conditional_state(self, x: int, a: int) -> np.ndarray:
        """Normalized post-measurement state sigma[x, a] / p[x, a]."""
        prob = self.p[x, a]
        if prob < P_EPS:
            raise ValueError(f"outcome (a={a}, x={x}) has probability {prob:.3e}")
        return self.sigma[x, a] / prob


@dataclass
class WorkReport:
    """Per-round work terms, their average, and the closed-form context."""

    d: int
    n: int
    omega: float
    beta: float
    mode: str
    shots: int
    seed: int | None
    average: float
    stderr: float | None
    w_classical: float
    w_quantum: float
    xi: float | None
    per_round: np.ndarray = field(repr=False)

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "n": self.n,
            "omega": self.omega,
            "beta": bounds_mod.json_float(self.beta),
            "mode": self.mode,
            "shots": self.shots,
            "seed": self.seed,
            "average": self.average,
            "stderr": self.stderr,
            "w_classical": self.w_classical,
            "w_quantum": self.w_quantum,
            "xi": self.xi,
            "per_round": [[float(w) for w in row] for row in self.per_round],
        }


def maximally_entangled(d: int) -> np.ndarray:
    """Density matrix of d^{-1/2} sum_i |ii> on C^d x C^d."""
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got d={d}")
    psi = np.zeros(d * d, dtype=complex)
    psi[:: d + 1] = 1.0 / math.sqrt(d)
    return projector(psi)


def projective_povm(basis: np.ndarray) -> list[np.ndarray]:
    """Rank-1 projectors onto the rows of an orthonormal basis array."""
    return [projector(vec) for vec in basis]


def measure_assemblage(rho_ab: np.ndarray, povms: list[list[np.ndarray]]) -> Assemblage:
    """Bob's assemblage from measuring rho_AB with one POVM per setting.

    sigma_{a|x} = Tr_A[(M_x^a (x) I_B) rho_AB], contracted directly on the
    A indices; p(a|x) is its trace.
    """
    dim = rho_ab.shape[0]
    if rho_ab.ndim != 2 or rho_ab.shape[1] != dim:
        raise ValueError(f"expected a square matrix, got shape {rho_ab.shape}")
    if not povms:
        raise ValueError("need at least one POVM")
    da = povms[0][0].shape[0]
    if dim % da != 0:
        raise ValueError(f"POVM dimension {da} does not divide state dimension {dim}")
    db = dim // da
    m = len(povms[0])
    n = len(povms)
    for effects in povms:
        if len(effects) != m:
            raise ValueError("all settings must have the same number of outcomes")
        check_povm(effects)
        if effects[0].shape[0] != da:
            raise ValueError("all POVMs must act on the same dimension")

    r4 = rho_ab.reshape(da, db, da, db)
    sigma = np.empty((n, m, db, db), dtype=complex)
    for x, effects in enumerate(povms):
        for a, eff in enumerate(effects):
            # Tr_A[(M (x) I) rho] index by index: sum_{i,j} M_ij rho[(j,k),(i,l)]
            sigma[x, a] = np.einsum("ij,jkil->kl", eff, r4)
    p = np.einsum("xaii->xa", sigma).real
    return Assemblage(d=db, n=n, sigma=sigma, p=p)


def hamiltonian(mub: MubSet, a: int, x: int, omega: float) -> np.ndarray:
    """Quench Hamiltonian -omega |phi_x^a><phi_x^a|; spectrum {-omega, 0^(d-1)}."""
    if not 0 <= x < mub.n:
        raise IndexError(f"basis index {x} out of range [0, {mub.n})")
    if not 0 <= a < mub.d:
        raise IndexError(f"outcome index {a} out of range [0, {mub.d})")
    if not omega > 0:
        raise ValueError(f"energy gap must be positive, got omega={omega}")
    return -omega * projector(mub.vector(x, a))


def thermal_state(h: np.ndarray, beta: float) -> np.ndarray:
    """Gibbs state e^{-beta H} / Tr(e^{-beta H}).

    Computed in the eigenbasis with the exponent shifted to the ground
    level, so large beta*||H|| never overflows. beta = inf returns the
    uniform mixture over the ground eigenspace.
    """
    if not (beta >= 0):
        raise ValueError(f"inverse temperature must be >= 0, got beta={beta}")
    w, v = hermitian_eigensystem(h)
    if math.isinf(beta):
        weights = (w <= w[0] + 1e-12).astype(float)
    else:
        weights = np.exp(-beta * (w - w[0]))
    weights /= weights.sum()
    return (v * weights) @ dagger(v)


def work_term(rho_hat: np.ndarray, h: np.ndarray, beta: float) -> float:
    """Net extractable work -Tr(H rho) + Tr(H gamma) of a single round."""
    if rho_hat.shape != h.shape:
        raise ValueError(f"dimension mismatch: state {rho_hat.shape}, H {h.shape}")
    check_hermitian(h)
    gamma = thermal_state(h, beta)
    t_state = complex(np.trace(h @ rho_hat))
    t_thermal = complex(np.trace(h @ gamma))
    residue = max(abs(t_state.imag), abs(t_thermal.imag))
    if residue > 1e-10:
        raise ValueError(f"non-Hermitian inputs: imaginary trace residue {residue:.3e}")
    return -t_state.real + t_thermal.real


def _work_table(asm: Assemblage, mub: MubSet, omega: float, beta: float) -> np.ndarray:
    """Per-round works W(rho_hat_{a|x}, H_{a|x}); zero-probability rounds are 0.

    Computed in units of omega (unit-gap H at inverse temperature beta*omega)
    and scaled by omega once, so work_term's absolute tolerances hold at
    every energy scale.
    """
    if asm.d != mub.d or asm.n != mub.n or asm.outcomes != mub.d:
        raise ValueError(
            f"assemblage ({asm.d}, {asm.n}, {asm.outcomes} outcomes) does not "
            f"match MUB set ({mub.d}, {mub.n})"
        )
    table = np.zeros((asm.n, asm.outcomes))
    for x in range(asm.n):
        for a in range(asm.outcomes):
            if asm.p[x, a] < P_EPS:
                continue
            h = hamiltonian(mub, a, x, 1.0)
            table[x, a] = work_term(asm.conditional_state(x, a), h, beta * omega)
    return omega * table


def average_work(asm: Assemblage, mub: MubSet, omega: float, beta: float) -> WorkReport:
    """Average extracted work (1/n) sum_{a,x} p(a|x) W(rho_{a|x}, H_{a|x})."""
    table = _work_table(asm, mub, omega, beta)
    avg = float(np.sum(asm.p * table) / asm.n)
    return _report(asm.d, asm.n, omega, beta, mode="exact", shots=0, seed=None,
                   average=avg, stderr=None, per_round=table)


def _report(d, n, omega, beta, *, mode, shots, seed, average, stderr, per_round) -> WorkReport:
    bs = bounds_mod.evaluate_bounds(d, n, omega, beta)
    return WorkReport(d=d, n=n, omega=omega, beta=beta, mode=mode, shots=shots,
                      seed=seed, average=average, stderr=stderr, w_classical=bs.w_classical,
                      w_quantum=bs.w_quantum, xi=bs.xi, per_round=per_round)


def _quantum_protocol(config: GameConfig) -> tuple[Assemblage, MubSet]:
    """Maximally entangled state measured in the conjugated bases.

    The resulting conditional states are exactly the basis projectors with
    flat outcome statistics; both identities are enforced here because they
    are theorems, so a violation means an implementation bug.
    """
    mub = build_mub(config.d, config.n)
    rho_ab = maximally_entangled(config.d)
    povms = [projective_povm(conjugate_basis(mub, x)) for x in range(config.n)]
    asm = measure_assemblage(rho_ab, povms)

    for x in range(config.n):
        for a in range(config.d):
            if abs(asm.p[x, a] - 1.0 / config.d) > 1e-10:
                raise RuntimeError(
                    f"protocol identity broken: p({a}|{x}) = {asm.p[x, a]!r}, "
                    f"expected 1/d"
                )
            fid = expectation(asm.conditional_state(x, a), mub.vector(x, a))
            if abs(fid - 1.0) > 1e-10:
                raise RuntimeError(
                    f"protocol identity broken: conditional state ({a}|{x}) has "
                    f"fidelity {fid!r} with its basis projector"
                )
    return asm, mub


def run_exact_quantum(config: GameConfig) -> WorkReport:
    """Exact average work of the entanglement-powered protocol.

    The report's average equals the closed-form quantum ceiling within
    1e-10 in units of omega; that identity is asserted before returning.
    """
    asm, mub = _quantum_protocol(config)
    report = average_work(asm, mub, config.omega, config.beta)
    if abs(report.average - report.w_quantum) / config.omega > 1e-10:
        raise RuntimeError(
            f"protocol average {report.average!r} deviates from the quantum "
            f"ceiling {report.w_quantum!r}"
        )
    return report


def run_monte_carlo(config: GameConfig) -> WorkReport:
    """Operational sampling of the quantum protocol.

    Each shot draws x uniformly, then a from p(a|x), and banks the exact
    per-round work of that (a, x). The generator is counter-based (Philox)
    keyed by the seed, and the mean is a deterministic pairwise reduction,
    so equal seeds give bit-identical reports. stderr is the sample
    standard deviation over sqrt(shots) (0.0 for a single shot).
    """
    if config.shots < 1:
        raise ValueError(f"Monte Carlo needs shots >= 1, got {config.shots}")
    asm, mub = _quantum_protocol(config)
    table = _work_table(asm, mub, config.omega, config.beta)

    rng = np.random.Generator(np.random.Philox(key=config.seed))
    xs = rng.integers(0, config.n, size=config.shots)
    us = rng.random(config.shots)
    cdf = np.cumsum(np.clip(asm.p, 0.0, None), axis=1)
    a_idx = np.minimum((cdf[xs] <= us[:, None]).sum(axis=1), asm.outcomes - 1)
    works = table[xs, a_idx]

    mean = float(np.mean(works))
    stderr = float(np.std(works, ddof=1) / math.sqrt(config.shots)) if config.shots > 1 else 0.0
    return _report(config.d, config.n, config.omega, config.beta, mode="monte_carlo",
                   shots=config.shots, seed=config.seed, average=mean, stderr=stderr,
                   per_round=table)
