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
omega, and never builds a Hamiltonian or a Gibbs state. A protocol run
checks F = 1 on the same table it prices, and every check here uses the
one tolerance qmath.ATOL (in units of omega for the work). The general
per-round ledger by diagonalization lives in tests/oracles.py, where the
tests compare the closed form against it.

Exact mode sums over (a, x); Monte Carlo mode samples rounds operationally
with a seeded counter-based generator, a fixed-size chunk of shots at a
time, into a histogram of the (x, a) rounds. Its memory therefore does not
depend on the shot count, and equal seeds give bit-identical reports
within a version.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import bounds as bounds_mod
from .mub import MubSet, build_mub
from .qmath import ATOL, check_povm, projector

# Outcomes with p(a|x) below this contribute zero work: their normalized
# post-measurement state is undefined and the unnormalized summand vanishes.
P_EPS = 1e-14

# Monte Carlo shots drawn per chunk; memory is O(CHUNK) whatever the shot count.
CHUNK = 1 << 16


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
        bounds_mod.check_parameters(self.d, self.omega, self.beta)
        if self.n < 2:
            raise ValueError(f"need at least two settings, got n={self.n}")
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
        if np.max(np.abs(traces - self.p)) > ATOL:
            raise ValueError("p(a|x) does not match Tr(sigma_{a|x})")
        if np.min(self.p) < -1e-12:
            raise ValueError(f"negative outcome probability: {np.min(self.p):.3e}")
        if np.max(np.abs(self.p.sum(axis=1) - 1.0)) > ATOL:
            raise ValueError("outcome probabilities do not sum to 1 per setting")
        reduced = self.sigma.sum(axis=1)
        dev = np.max(np.abs(reduced - reduced[0]))
        if dev > ATOL:
            raise ValueError(f"assemblage signals: reduced states differ by {dev:.3e}")

    @property
    def outcomes(self) -> int:
        return self.sigma.shape[1]


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
        """The fields in order, with beta strict-JSON safe and per_round as lists."""
        return {**asdict(self), "beta": bounds_mod.json_float(self.beta),
                "per_round": self.per_round.tolist()}


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


def _fidelities(asm: Assemblage, mub: MubSet) -> np.ndarray:
    """F[x, a] = <phi_x^a| sigma_{a|x} |phi_x^a> / p(a|x); 0 where p < P_EPS.

    Raises ValueError when some Im F exceeds ATOL, which Hermitian
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
    if residue > ATOL:
        raise ValueError(f"non-Hermitian inputs: imaginary trace residue {residue:.3e}")
    return fid.real


def _work_table(asm: Assemblage, fid: np.ndarray, pop: float) -> np.ndarray:
    """Per-round works F - P in units of omega; zero-probability rounds are 0."""
    return np.where(asm.p >= P_EPS, fid - pop, 0.0)


def _report(d, n, omega, beta, *, mode, shots, seed, average, stderr, per_round) -> WorkReport:
    bs = bounds_mod.evaluate_bounds(d, n, omega, beta)
    return WorkReport(d=d, n=n, omega=omega, beta=beta, mode=mode, shots=shots,
                      seed=seed, average=average, stderr=stderr, w_classical=bs.w_classical,
                      w_quantum=bs.w_quantum, xi=bs.xi, per_round=per_round)


def _quantum_protocol(config: GameConfig) -> tuple[Assemblage, np.ndarray]:
    """Maximally entangled state measured in the conjugated bases.

    Returns the assemblage and its fidelity table F. The conditional states
    are exactly the basis projectors with flat outcome statistics; both
    identities are enforced here because they are theorems, so a violation
    means an implementation bug.
    """
    mub = build_mub(config.d, config.n)
    asm = measure_assemblage(maximally_entangled(config.d), projective_povm(mub.bases.conj()))

    p_dev = np.abs(asm.p - 1.0 / config.d)
    x, a = np.unravel_index(np.argmax(p_dev), p_dev.shape)
    if p_dev[x, a] > ATOL:
        raise RuntimeError(
            f"protocol identity broken: p({a}|{x}) = {asm.p[x, a]!r}, expected 1/d"
        )
    fid = _fidelities(asm, mub)
    x, a = np.unravel_index(np.argmax(np.abs(fid - 1.0)), fid.shape)
    if abs(fid[x, a] - 1.0) > ATOL:
        raise RuntimeError(
            f"protocol identity broken: conditional state ({a}|{x}) has "
            f"fidelity {fid[x, a]!r} with its basis projector"
        )
    return asm, fid


def run_exact_quantum(config: GameConfig) -> WorkReport:
    """Exact average work of the entanglement-powered protocol.

    The average, in units of omega, equals the closed-form quantum ceiling
    1 - P within ATOL; that identity is asserted before returning. It is
    checked before scaling by omega, so a subnormal omega cannot round it
    apart.
    """
    asm, fid = _quantum_protocol(config)
    omega, beta = config.omega, config.beta
    pop = bounds_mod.ground_state_population(config.d, omega, beta)
    table = _work_table(asm, fid, pop)
    mean = float(np.sum(asm.p * table) / asm.n)
    if abs(mean - (1.0 - pop)) > ATOL:
        raise RuntimeError(
            f"protocol average {mean!r} deviates from the quantum ceiling "
            f"{1.0 - pop!r} in units of omega"
        )
    return _report(config.d, config.n, omega, beta, mode="exact", shots=0, seed=None,
                   average=omega * mean, stderr=None, per_round=omega * table)


def _sample_rounds(p: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """Histogram counts[x, a] of shots rounds: x uniform, then a drawn from p[x].

    Shots are drawn CHUNK at a time from a Philox generator keyed by seed.
    The outcome of a shot is the number of cumulative thresholds
    cdf[x, :m-1] that its uniform u reaches; the CDF never decreases, so
    that count is already at most m - 1.
    """
    n, m = p.shape
    thresholds = np.cumsum(np.clip(p, 0.0, None), axis=1)[:, :-1]
    rng = np.random.Generator(np.random.Philox(key=seed))
    counts = np.zeros(n * m, dtype=np.int64)
    for start in range(0, shots, CHUNK):
        k = min(CHUNK, shots - start)
        x = rng.integers(0, n, k)
        u = rng.random(k)
        a = np.zeros(k, dtype=np.int64)
        for column in thresholds.T:
            a += column[x] <= u
        counts += np.bincount(x * m + a, minlength=n * m)
    return counts.reshape(n, m)


def run_monte_carlo(config: GameConfig) -> WorkReport:
    """Operational sampling of the quantum protocol.

    Each shot draws x uniformly, then a from p(a|x), and banks the exact
    per-round work of that (a, x). The generator is counter-based (Philox)
    keyed by the seed, and the mean and variance are deterministic sums
    over the histogram of rounds, so equal seeds give bit-identical
    reports. stderr is the sample standard deviation over sqrt(shots)
    (0.0 for a single shot).
    """
    if config.shots < 1:
        raise ValueError(f"Monte Carlo needs shots >= 1, got {config.shots}")
    asm, fid = _quantum_protocol(config)
    pop = bounds_mod.ground_state_population(config.d, config.omega, config.beta)
    table = _work_table(asm, fid, pop)

    shots = config.shots
    counts = _sample_rounds(asm.p, shots, config.seed)
    mean = float(np.sum(counts * table) / shots)
    var = float(np.sum(counts * (table - mean) ** 2) / (shots - 1)) if shots > 1 else 0.0
    omega = config.omega
    return _report(config.d, config.n, omega, config.beta, mode="monte_carlo",
                   shots=shots, seed=config.seed, average=omega * mean,
                   stderr=omega * math.sqrt(var / shots), per_round=omega * table)
