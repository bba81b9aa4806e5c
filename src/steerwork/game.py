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
omega, and never builds a Hamiltonian or a Gibbs state.

There is one protocol: the maximally entangled state measured in the
conjugated bases, which steers Bob to sigma_{a|x} = |phi_x^a><phi_x^a|/d.
_quantum_protocol computes its tables p[x, a] and F[x, a] one setting at a
time, so its memory is the dense real rho plus one setting's effects and
sigma, and _check_protocol asserts the identities they obey on exactly the
tables that are then priced, each at the one tolerance mub.ATOL (in units of
omega for the work). The general path for any state and POVM stack, and
the per-round ledger by diagonalization, live in tests/oracles.py, where
the tests compare the production tables against them.

Both modes take (d, n, omega, beta) as plain arguments and share one
prologue, _protocol_table, which builds their BoundSet and prices the tables.
n = 1 lies in the game's domain, but no MUB family has one basis to build.
Reports carry their integers as Python ints, so they serialize to JSON.
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
from .mub import ATOL, _as_int, _seeded_rng, build_mub

# Monte Carlo shots drawn per chunk; memory is O(CHUNK) whatever the shot count.
CHUNK = 1 << 16


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


def _report(bs, *, mode, shots, seed, average, stderr, per_round) -> WorkReport:
    return WorkReport(d=bs.d, n=bs.n, omega=bs.omega, beta=bs.beta, mode=mode, shots=shots,
                      seed=seed, average=average, stderr=stderr, w_classical=bs.w_classical,
                      w_quantum=bs.w_quantum, xi=bs.xi, per_round=per_round)


def _check_protocol(bases: np.ndarray, p: np.ndarray, fid: np.ndarray,
                    reduced: np.ndarray) -> None:
    """Assert the protocol's identities on its tables, naming the worst round.

    bases[x] holds the vectors of setting x as rows, p[x, a] the outcome
    probabilities, fid[x, a] the complex fidelities and reduced[x] Bob's
    reduced state sum_a sigma_{a|x}. Each identity is a theorem, so a
    deviation beyond ATOL (or a NaN) is an implementation bug and raises
    RuntimeError at the first worst setting or round: every setting is
    complete (B_x^dag B_x = I), each outcome law sums to 1, the reduced
    state does not depend on x (no signalling), p = 1/d, Im F = 0, F = 1.
    """
    d = p.shape[1]
    checks = [
        (np.abs(bases.conj().transpose(0, 2, 1) @ bases - np.eye(d)).max(axis=(1, 2)),
         "setting {0} is incomplete: max |B^dag B - I| = {dev:.3e}"),
        (np.abs(p.sum(axis=1) - 1.0),
         "outcome probabilities of setting {0} miss 1 by {dev:.3e}"),
        (np.abs(reduced - reduced[0]).max(axis=(1, 2)),
         "assemblage signals: reduced state of setting {0} differs from setting 0 by {dev:.3e}"),
        (np.abs(p - 1.0 / d), "p({1}|{0}) = {p!r}, expected 1/d"),
        (np.abs(fid.imag), "conditional state ({1}|{0}) has |Im F| = {dev:.3e}"),
        (np.abs(fid.real - 1.0),
         "conditional state ({1}|{0}) has fidelity {f!r} with its basis projector"),
    ]
    for dev, message in checks:
        k = np.unravel_index(np.argmax(dev), dev.shape)
        if not dev[k] <= ATOL:
            # a round's message quotes its p and F as plain Python floats
            quoted = {"p": float(p[k]), "f": float(fid[k].real)} if dev.ndim == 2 else {}
            raise RuntimeError("protocol identity broken: "
                               + message.format(*k, dev=dev[k], **quoted))


def _quantum_protocol(d: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Maximally entangled state measured in the conjugated bases.

    Returns p[x, a] and the fidelity table F[x, a] of Bob's conditional
    states with |phi_x^a>, after _check_protocol has passed them. Alice's
    effect for (x, a) is the projector onto conj(phi_x^a); the general
    path for any state and POVM stack is the test oracle in tests/oracles.py.
    The settings are measured one at a time, so memory is the dense rho
    (d^4 float64 entries, half a complex rho's bytes) plus one setting's
    effects and sigma (d^3 complex entries each). Each sigma is bit for bit
    the one a complex rho gives.
    """
    bases = build_mub(d, n)
    psi = np.zeros(d * d)
    psi[:: d + 1] = 1.0 / math.sqrt(d)
    rho = np.outer(psi, psi).reshape(d, d, d, d)
    p = np.empty((n, d))
    fid = np.empty((n, d), dtype=complex)
    reduced = np.empty((n, d, d), dtype=complex)
    for x, basis in enumerate(bases):
        effects = basis.conj()[:, :, None] * basis[:, None, :]
        # Tr_A[(M (x) I) rho] index by index: sum_{i,j} M_ij rho[(j,k),(i,l)];
        # rho is real, so the real and imaginary parts of M contract apart
        sigma = (np.einsum("aij,jkil->akl", effects.real, rho)
                 + 1j * np.einsum("aij,jkil->akl", effects.imag, rho))
        p[x] = np.einsum("aii->a", sigma).real
        fid[x] = np.einsum("aj,ajk,ak->a", basis.conj(), sigma, basis) / p[x]
        reduced[x] = sigma.sum(axis=0)
    _check_protocol(bases, p, fid, reduced)
    return p, fid.real


def _protocol_table(d: int, n: int, omega: float,
                    beta: float) -> tuple[np.ndarray, np.ndarray, bounds_mod.BoundSet]:
    """The run prologue of both modes: validate, run the protocol, price it.

    Raises ValueError unless evaluate_bounds accepts (d, n, omega, beta) and
    build_mub can construct (d, n), as no n = 1 can. Returns p[x, a], the work
    table F - P in units of omega, and the bound set, whose population is P.
    """
    bs = bounds_mod.evaluate_bounds(d, n, omega, beta)
    p, fid = _quantum_protocol(bs.d, bs.n)
    return p, fid - bs.population, bs


def run_exact_quantum(d: int, n: int, omega: float = 1.0, beta: float = 1.0) -> WorkReport:
    """Exact average work of the entanglement-powered protocol.

    The average, in units of omega, equals the closed-form quantum ceiling
    1 - P within ATOL; that identity is asserted before returning. It is
    checked before scaling by omega, so a subnormal omega cannot round it
    apart.
    """
    p, table, bs = _protocol_table(d, n, omega, beta)
    mean = float(np.sum(p * table) / bs.n)
    if abs(mean - bs.excited) > ATOL:
        raise RuntimeError(f"protocol average {mean!r} deviates from the quantum ceiling "
                           f"{bs.excited!r} in units of omega")
    return _report(bs, mode="exact", shots=0, seed=None, average=omega * mean, stderr=None,
                   per_round=omega * table)


def _sample_rounds(p: np.ndarray, shots: int, rng: np.random.Generator) -> np.ndarray:
    """Histogram counts[x, a] of shots rounds: x uniform, then a drawn from p[x].

    Shots are drawn CHUNK at a time from rng. The outcome of a shot is the
    number of cumulative thresholds cdf[x, :m-1] that its uniform u
    reaches; the CDF never decreases, so that count is already at most m - 1.
    """
    n, m = p.shape
    thresholds = np.cumsum(np.clip(p, 0.0, None), axis=1)[:, :-1]
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


def run_monte_carlo(d: int, n: int, omega: float = 1.0, beta: float = 1.0, *,
                    shots: int, seed: int = 0) -> WorkReport:
    """Operational sampling of the quantum protocol.

    Each shot draws x uniformly, then a from p(a|x), and banks the exact
    per-round work of that (a, x). The generator is mub._seeded_rng(seed),
    and the mean and variance are deterministic sums over the histogram of
    rounds, so equal seeds give bit-identical reports. stderr is the sample
    standard deviation over sqrt(shots) (0.0 for a single shot).
    """
    shots, rng = _as_int("shots", shots), _seeded_rng(seed)
    if shots < 1:
        raise ValueError(f"Monte Carlo needs shots >= 1, got {shots}")
    p, table, bs = _protocol_table(d, n, omega, beta)
    counts = _sample_rounds(p, shots, rng)
    mean = float(np.sum(counts * table) / shots)
    var = float(np.sum(counts * (table - mean) ** 2) / (shots - 1)) if shots > 1 else 0.0
    return _report(bs, mode="monte_carlo", shots=shots, seed=int(seed),
                   average=omega * mean, stderr=omega * math.sqrt(var / shots),
                   per_round=omega * table)
