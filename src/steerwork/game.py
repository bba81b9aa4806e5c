"""The bipartite work-extraction game.

One round: Bob draws a setting x, Alice measures her half of the shared
state and announces the outcome a, Bob quenches his (initially trivial)
Hamiltonian to H_{a|x} = -omega |phi_x^a><phi_x^a|, thermalizes against a
bath at inverse temperature beta, and quenches back. The net work of the
round is -Tr(H rho) + Tr(H gamma) with gamma the Gibbs state of H; the
figure of merit is the average over uniform x and the outcome statistics.

H has rank 1, so the work of a round is omega (F - P), with F the fidelity
of Bob's state with |phi_x^a> and P the ground-level Gibbs population; the
pipeline evaluates that closed form for all (a, x) at once, in units of
omega. hamiltonian, thermal_state and work_term evaluate one round by
diagonalization and remain as the general reference. Exact mode sums over
(a, x); Monte Carlo mode samples rounds operationally with a seeded
counter-based generator so that reports are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import bounds as bounds_mod
from .mub import MubSet, build_mub
from .qmath import (
    check_hermitian,
    check_povm,
    dagger,
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


def projective_povm(basis: np.ndarray) -> np.ndarray:
    """Rank-1 projectors onto the rows of a (..., d, d) stack of bases."""
    b = np.asarray(basis, dtype=complex)
    return b[..., :, None] * b.conj()[..., None, :]


def measure_assemblage(rho_ab: np.ndarray, povms: np.ndarray) -> Assemblage:
    """Bob's assemblage from measuring rho_AB with one POVM per setting.

    povms holds the effects M_x^a with shape (n, m, dA, dA); nested lists
    are stacked. sigma_{a|x} = Tr_A[(M_x^a (x) I_B) rho_AB] for every
    (x, a) in one contraction on the A indices; p(a|x) is its trace.
    """
    dim = rho_ab.shape[0]
    if rho_ab.ndim != 2 or rho_ab.shape[1] != dim:
        raise ValueError(f"expected a square matrix, got shape {rho_ab.shape}")
    effects = np.asarray(povms)
    if effects.ndim != 4 or effects.shape[0] == 0:
        raise ValueError(f"expected effects of shape (n, m, dA, dA), got {effects.shape}")
    n, _, da, _ = effects.shape
    if dim % da != 0:
        raise ValueError(f"POVM dimension {da} does not divide state dimension {dim}")
    db = dim // da
    for setting in effects:
        check_povm(setting)

    # Tr_A[(M (x) I) rho] index by index: sum_{i,j} M_ij rho[(j,k),(i,l)]
    sigma = np.einsum("xaij,jkil->xakl", effects, rho_ab.reshape(da, db, da, db))
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


def _fidelities(asm: Assemblage, mub: MubSet) -> np.ndarray:
    """F[x, a] = <phi_x^a| sigma_{a|x} |phi_x^a> / p(a|x); 0 where p < P_EPS.

    Raises ValueError when some Im F exceeds 1e-10, which Hermitian
    conditional states cannot produce.
    """
    if asm.d != mub.d or asm.n != mub.n or asm.outcomes != mub.d:
        raise ValueError(
            f"assemblage ({asm.d}, {asm.n}, {asm.outcomes} outcomes) does not "
            f"match MUB set ({mub.d}, {mub.n})"
        )
    overlap = np.einsum("xaj,xajk,xak->xa", mub.bases.conj(), asm.sigma, mub.bases)
    fid = np.divide(overlap, asm.p, out=np.zeros_like(overlap), where=asm.p >= P_EPS)
    residue = float(np.max(np.abs(fid.imag)))
    if residue > 1e-10:
        raise ValueError(f"non-Hermitian inputs: imaginary trace residue {residue:.3e}")
    return fid.real


def _work_table(asm: Assemblage, mub: MubSet, omega: float, beta: float) -> np.ndarray:
    """Per-round works F - P in units of omega; zero-probability rounds are 0."""
    fid = _fidelities(asm, mub)
    pop = bounds_mod.ground_state_population(asm.d, omega, beta)
    return np.where(asm.p >= P_EPS, fid - pop, 0.0)


def average_work(asm: Assemblage, mub: MubSet, omega: float, beta: float) -> WorkReport:
    """Average extracted work (1/n) sum_{a,x} p(a|x) W(rho_{a|x}, H_{a|x})."""
    table = _work_table(asm, mub, omega, beta)
    avg = omega * float(np.sum(asm.p * table) / asm.n)
    return _report(asm.d, asm.n, omega, beta, mode="exact", shots=0, seed=None,
                   average=avg, stderr=None, per_round=omega * table)


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
    asm = measure_assemblage(maximally_entangled(config.d), projective_povm(mub.bases.conj()))

    p_dev = np.abs(asm.p - 1.0 / config.d)
    x, a = np.unravel_index(np.argmax(p_dev), p_dev.shape)
    if p_dev[x, a] > 1e-10:
        raise RuntimeError(
            f"protocol identity broken: p({a}|{x}) = {asm.p[x, a]!r}, expected 1/d"
        )
    fid = _fidelities(asm, mub)
    x, a = np.unravel_index(np.argmax(np.abs(fid - 1.0)), fid.shape)
    if abs(fid[x, a] - 1.0) > 1e-10:
        raise RuntimeError(
            f"protocol identity broken: conditional state ({a}|{x}) has "
            f"fidelity {fid[x, a]!r} with its basis projector"
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

    spread = float(np.std(works, ddof=1) / math.sqrt(config.shots)) if config.shots > 1 else 0.0
    omega = config.omega
    return _report(config.d, config.n, omega, config.beta, mode="monte_carlo",
                   shots=config.shots, seed=config.seed, average=omega * float(np.mean(works)),
                   stderr=omega * spread, per_round=omega * table)
