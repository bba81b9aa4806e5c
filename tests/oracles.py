"""Reference implementations that the tests compare the package against.

Nothing here runs on the production path. Each function evaluates a quantity
the general way, with Kronecker products, partial traces, diagonalization,
explicit hidden-state models or a Bloch-sphere grid, so that the closed
forms and contractions in steerwork can be checked against it.

The dense measurement layer is the general form of the protocol in
steerwork.game: any bipartite state, any stack of POVMs, the Assemblage
carrier that validates its identities on construction, and the work table
F - P with zero-probability rounds set to 0. game._quantum_protocol prices
the one assemblage of the saturating protocol with the same contraction,
and the tests hold its tables equal to this path bit for bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from steerwork import game
from steerwork.bounds import evaluate_bounds
from steerwork.game import WorkReport
from steerwork.lhs import DEFAULT_RESTARTS, DEFAULT_SEED, OptimizerResult, principal_eigenvector
from steerwork.mub import ATOL

ATOL_CONSTRUCT = 1e-12

# Outcomes with p(a|x) below this contribute zero work: their normalized
# post-measurement state is undefined and the unnormalized summand vanishes.
P_EPS = 1e-14


# -- dense linear algebra ---------------------------------------------------

def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return m.conj().T


def normalize(vec: np.ndarray) -> np.ndarray:
    """Return vec / ||vec||."""
    nrm = float(np.linalg.norm(vec))
    if nrm == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return np.asarray(vec, dtype=complex) / nrm


def check_hermitian(m: np.ndarray) -> None:
    """Raise ValueError unless m is square and Hermitian within ATOL."""
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    dev = float(np.max(np.abs(m - dagger(m))))
    if dev > ATOL:
        raise ValueError(f"matrix is not Hermitian: max |m - m^dag| = {dev:.3e} > {ATOL:.1e}")


def overlap2(u: np.ndarray, v: np.ndarray) -> float:
    """Squared overlap |<u|v>|^2 of two state vectors."""
    return float(np.abs(np.vdot(u, v)) ** 2)


def expectation(rho: np.ndarray, psi: np.ndarray) -> float:
    """<psi| rho |psi> for Hermitian rho (imaginary part discarded)."""
    return float(np.vdot(psi, rho @ psi).real)


def projector(psi: np.ndarray) -> np.ndarray:
    """Rank-1 projector |psi><psi|."""
    v = np.asarray(psi, dtype=complex)
    return np.outer(v, v.conj())


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with row-major block convention.

    Entry ((i*rb + k), (j*cb + l)) equals a[i, j] * b[k, l].
    """
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def partial_trace_A(rho: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """Trace out the first factor of a (dim_a*dim_b)-dimensional operator.

    Composite indices follow the tensor_product convention: row = i*dim_b + k
    with i on A and k on B. The result is dim_b x dim_b and has the same
    trace as the input.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {rho.shape}")
    if rho.shape[0] != dim_a * dim_b:
        raise ValueError(
            f"dimension mismatch: operator is {rho.shape[0]}-dimensional, "
            f"expected dim_a*dim_b = {dim_a * dim_b}"
        )
    r4 = rho.reshape(dim_a, dim_b, dim_a, dim_b)
    return np.einsum("ikil->kl", r4)


def check_constructed_hermitian(m: np.ndarray, tol: float = ATOL_CONSTRUCT) -> None:
    """check_hermitian, then Hermiticity within the construction tier tol."""
    check_hermitian(m)
    dev = float(np.max(np.abs(m - dagger(m))))
    if dev > tol:
        raise ValueError(f"matrix is not Hermitian: max |m - m^dag| = {dev:.3e} > {tol:.1e}")


def hermitian_eigensystem(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (w, v) with eigenvalues w ascending and orthonormal eigenvectors
    in the columns of v, so that m = v @ diag(w) @ v^dag.
    """
    check_constructed_hermitian(m)
    return np.linalg.eigh(np.asarray(m, dtype=complex))


def min_eigenvalue(m: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix."""
    w, _ = hermitian_eigensystem(m)
    return float(w[0])


def check_povm(effects: np.ndarray) -> None:
    """Raise ValueError unless the (m, d, d) stack of effects forms a POVM.

    Each effect must be Hermitian and PSD within ATOL, and the effects must
    sum to the identity within ATOL.
    """
    e = np.asarray(effects)
    if e.ndim != 3 or e.shape[0] == 0 or e.shape[1] != e.shape[2]:
        raise ValueError(f"expected a nonempty (m, d, d) stack of effects, got shape {e.shape}")
    herm = np.max(np.abs(e - e.conj().transpose(0, 2, 1)), axis=(1, 2))
    k = int(np.argmax(herm))
    if herm[k] > ATOL:
        raise ValueError(f"effect {k} is not Hermitian: max |m - m^dag| = {herm[k]:.3e} > {ATOL:.1e}")
    lows = np.linalg.eigvalsh(e)[:, 0]
    k = int(np.argmin(lows))
    if lows[k] < -ATOL:
        raise ValueError(f"effect {k} not PSD: smallest eigenvalue {lows[k]:.3e}")
    dev = float(np.max(np.abs(e.sum(axis=0) - np.eye(e.shape[1]))))
    if dev > ATOL:
        raise ValueError(f"effects do not sum to identity: max deviation {dev:.3e}")


def check_density_matrix(rho: np.ndarray, tol_construct: float = ATOL_CONSTRUCT,
                         tol_psd: float = ATOL) -> None:
    """Raise ValueError unless rho is Hermitian, unit-trace and PSD.

    Hermiticity and trace are held to tol_construct; the smallest eigenvalue
    may dip to -tol_psd (rounding slack).
    """
    check_constructed_hermitian(rho, tol_construct)
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > tol_construct:
        raise ValueError(f"trace is {tr}, expected 1 within {tol_construct:.1e}")
    lo = float(np.linalg.eigvalsh(rho)[0])
    if lo < -tol_psd:
        raise ValueError(f"smallest eigenvalue {lo:.3e} below -{tol_psd:.1e}")


def random_density_matrix(d: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """Random mixed state G G^dag / Tr(G G^dag) with G a d x rank Ginibre matrix."""
    k = d if rank is None else rank
    g = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
    rho = g @ dagger(g)
    return rho / np.trace(rho).real


def random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a Ginibre matrix with phase fixing."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases


def random_pure_state(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random pure state: a complex Gaussian vector, real part drawn first, normalized.

    The norm is taken along the last axis, as lhs.optimize_single_state takes
    it for each row of a block of starts, so the two agree bit for bit.
    """
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return z / np.linalg.norm(z, axis=-1, keepdims=True)


# -- mutually unbiased bases -----------------------------------------------

def mub_first_worst_pair(bases: np.ndarray) -> tuple[float, tuple[int, int, int, int]]:
    """Worst overlap deviation of (n, d, d) bases and its first pair, from the full Gram matrix.

    Expected |<phi_x^a|phi_y^b>| is delta_{a,b} within a basis and 1/sqrt(d)
    across bases. Pairs with y >= x are scanned in (x, a, y, b) order and the
    first worst one is returned as (max_deviation, (x, a, y, b)); a NaN
    counts above every number.
    """
    n, d = bases.shape[:2]
    flat = bases.reshape(n * d, d)
    expect = np.full((n * d, n * d), 1.0 / np.sqrt(d))
    for x in range(n):
        expect[x * d:(x + 1) * d, x * d:(x + 1) * d] = np.eye(d)
    dev = np.abs(np.abs(flat.conj() @ flat.T) - expect)
    basis = np.arange(n * d) // d
    dev[basis[:, np.newaxis] > basis[np.newaxis, :]] = -np.inf
    row, col = divmod(int(np.argmax(dev)), n * d)
    return float(dev[row, col]), (row // d, row % d, col // d, col % d)


# -- the dense measurement layer --------------------------------------------

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
    (x, a) in the contraction that game._quantum_protocol uses.
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
    sigma = np.einsum("xaij,jkil->xakl", effects, rho_ab.reshape(da, db, da, db))
    p = np.einsum("xaii->xa", sigma).real
    return Assemblage(d=db, n=n, sigma=sigma, p=p)


def fidelities(asm: Assemblage, bases: np.ndarray) -> np.ndarray:
    """F[x, a] = <phi_x^a| sigma_{a|x} |phi_x^a> / p(a|x); 0 where p < P_EPS.

    Raises ValueError when some Im F exceeds ATOL, which Hermitian
    conditional states cannot produce.
    """
    n, d = bases.shape[:2]
    if asm.d != d or asm.n != n or asm.outcomes != d:
        raise ValueError(
            f"assemblage ({asm.d}, {asm.n}, {asm.outcomes} outcomes) does not "
            f"match MUB set ({d}, {n})"
        )
    overlap = np.einsum("xaj,xajk,xak->xa", bases.conj(), asm.sigma, bases)
    fid = np.divide(overlap, asm.p, out=np.zeros_like(overlap), where=asm.p >= P_EPS)
    residue = float(np.max(np.abs(fid.imag)))
    if residue > ATOL:
        raise ValueError(f"non-Hermitian inputs: imaginary trace residue {residue:.3e}")
    return fid.real


def work_table(asm: Assemblage, fid: np.ndarray, pop: float) -> np.ndarray:
    """Per-round works F - P in units of omega; zero-probability rounds are 0."""
    return np.where(asm.p >= P_EPS, fid - pop, 0.0)


def protocol_assemblage(bases: np.ndarray) -> Assemblage:
    """The saturating protocol on the general path: Phi measured in the conjugated bases."""
    return measure_assemblage(maximally_entangled(bases.shape[1]), projective_povm(bases.conj()))


# -- one round of the game, by diagonalization ------------------------------

def conditional_state(asm: Assemblage, x: int, a: int) -> np.ndarray:
    """Normalized post-measurement state sigma[x, a] / p[x, a]."""
    prob = asm.p[x, a]
    if prob < P_EPS:
        raise ValueError(f"outcome (a={a}, x={x}) has probability {prob:.3e}")
    return asm.sigma[x, a] / prob


def hamiltonian(bases: np.ndarray, a: int, x: int, omega: float) -> np.ndarray:
    """Quench Hamiltonian -omega |phi_x^a><phi_x^a|; spectrum {-omega, 0^(d-1)}."""
    n, d = bases.shape[:2]
    if not 0 <= x < n:
        raise IndexError(f"basis index {x} out of range [0, {n})")
    if not 0 <= a < d:
        raise IndexError(f"outcome index {a} out of range [0, {d})")
    if not omega > 0:
        raise ValueError(f"energy gap must be positive, got omega={omega}")
    return -omega * projector(bases[x, a])


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


def average_work(asm: Assemblage, bases: np.ndarray, omega: float, beta: float) -> WorkReport:
    """Exact-mode report of any assemblage: (1/n) sum_{a,x} p(a|x) W(rho_{a|x}, H_{a|x}).

    Prices every round with the closed-form table F - P, which the tests
    hold against the eigen-based ledger above; run_exact_quantum does the
    same for the one assemblage of the quantum protocol.
    """
    bs = evaluate_bounds(asm.d, asm.n, omega, beta)
    table = work_table(asm, fidelities(asm, bases), bs.population)
    return game._report(bs, mode="exact", shots=0, seed=None,
                        average=omega * float(np.sum(asm.p * table) / asm.n), stderr=None,
                        per_round=omega * table)


# -- local-hidden-state models ----------------------------------------------

@dataclass
class LhsModel:
    """Finite mixture {p(lambda), rho_lambda} with response table p(a|x, lambda).

    states has shape (L, d, d), weights (L,), response (L, n, outcomes)
    with each response row a probability vector over outcomes.
    """

    d: int
    n: int
    states: np.ndarray
    weights: np.ndarray
    response: np.ndarray

    def __post_init__(self):
        L = self.states.shape[0]
        if self.states.shape != (L, self.d, self.d):
            raise ValueError(f"states shape {self.states.shape} does not match d={self.d}")
        if self.weights.shape != (L,):
            raise ValueError(f"weights shape {self.weights.shape}, expected ({L},)")
        if self.response.shape[:2] != (L, self.n):
            raise ValueError(f"response shape {self.response.shape} does not match (L, n)")
        if np.min(self.weights) < -1e-12 or abs(self.weights.sum() - 1.0) > 1e-12:
            raise ValueError("weights are not a probability vector")
        row_sums = self.response.sum(axis=2)
        if np.min(self.response) < -1e-12 or np.max(np.abs(row_sums - 1.0)) > 1e-12:
            raise ValueError("response rows are not probability vectors")
        for k in range(L):
            check_density_matrix(self.states[k], tol_construct=1e-10)


def assemblage_from_model(model: LhsModel) -> Assemblage:
    """Unsteerable assemblage sigma_{a|x} = sum_l p(l) p(a|x,l) rho_l."""
    sigma = np.einsum("l,lxa,lij->xaij", model.weights, model.response, model.states)
    p = np.einsum("xaii->xa", sigma).real
    return Assemblage(d=model.d, n=model.n, sigma=sigma, p=p)


def lhs_work(model: LhsModel, bases: np.ndarray, omega: float, beta: float) -> float:
    """Average work the model extracts against the MUB quench Hamiltonians."""
    return average_work(assemblage_from_model(model), bases, omega, beta).average


def mub_overlap_objective(bases: np.ndarray, psi: np.ndarray) -> float:
    """(1/n) sum_x max_a |<phi_x^a|psi>|^2 for a pure state psi."""
    amps = np.abs(bases.conj() @ psi) ** 2
    return float(amps.max(axis=1).mean())


# Default gain tolerance and step budget of the full loop below.
REFERENCE_TOL, REFERENCE_MAX_ITER = 1e-12, 500


def reference_optimize_single_state(bases: np.ndarray, restarts: int = DEFAULT_RESTARTS,
                                    tol: float = REFERENCE_TOL,
                                    max_iter: int = REFERENCE_MAX_ITER,
                                    seed: int = DEFAULT_SEED) -> OptimizerResult:
    """lhs.optimize_single_state as it ran before its fixed-point stop.

    Every alternating step is computed, a repeat of the previous picks
    included, on a conjugated copy of the bases; the loop ends only on the
    gain test (gain < tol) or max_iter. At tol = ulp(0) and max_iter =
    lhs.MAX_STEPS, the package's optimizer must report the same objective,
    iterations, converged flag and state bytes. Each restart draws its start
    with random_pure_state, in turn, from one Philox stream keyed by seed. A
    later restart replaces the best only when it beats it by more than
    16 ulp(1), and the best state is put in the phase that makes
    <phi_0^{a(0)}|psi> real and positive, a(0) its best outcome in basis 0.
    """
    n, d = bases.shape[:2]
    conj = bases.conj()
    best_obj, best_state, best_converged, total_iters = -math.inf, None, False, 0
    rng = np.random.Generator(np.random.Philox(key=seed))

    def overlaps(psi):
        amps = np.abs(conj @ psi) ** 2
        return amps, float(amps.max(axis=1).mean())

    def pick_state(picked):
        return principal_eigenvector(picked.T @ picked.conj() / len(picked))

    for _ in range(restarts):
        psi = random_pure_state(d, rng)
        amps, obj = overlaps(psi)
        converged = False
        for _ in range(max_iter):
            psi = pick_state(bases[np.arange(n), np.argmax(amps, axis=1)])
            amps, new_obj = overlaps(psi)
            total_iters += 1
            if new_obj < obj - 1e-12:
                raise RuntimeError(
                    f"objective decreased from {obj!r} to {new_obj!r}; "
                    f"the alternating steps must be monotone"
                )
            gain = new_obj - obj
            obj = new_obj
            if gain < tol:
                converged = True
                break
        if obj > best_obj + 16 * math.ulp(1.0):
            best_obj, best_converged = obj, converged
            overlap = np.vdot(bases[0, np.argmax(amps[0])], psi)
            best_state = psi * (abs(overlap) / overlap)

    return OptimizerResult(best_state=best_state, objective=best_obj,
                           restarts_used=restarts, iterations=total_iters,
                           converged=best_converged)


def reference_qubit_oracle(bases: np.ndarray) -> OptimizerResult:
    """Exact qubit optimum by enumeration: the best state of the 2^n pick functions.

    Each pick function a(x) gives the principal eigenvector of its average
    projector; the first with the highest objective wins, in
    itertools.product order, and iterations counts the candidates. Exact at
    d = 2, where these are all d^n pick functions.
    """
    n = bases.shape[0]
    conj = bases.conj()
    best_obj, best_state = -math.inf, None
    for picks in itertools.product(range(2), repeat=n):
        picked = bases[np.arange(n), picks]
        psi = principal_eigenvector(picked.T @ picked.conj() / len(picked))
        obj = float((np.abs(conj @ psi) ** 2).max(axis=1).mean())
        if obj > best_obj:
            best_obj, best_state = obj, psi
    return OptimizerResult(best_state=best_state, objective=best_obj, restarts_used=1,
                           iterations=2**n, converged=True)


# Points per axis of bloch_grid_search's initial (theta, phi) grid, and
# theta rows per tile it is evaluated in: a 20 x 500 tile peaks near
# 2 MB, the whole grid at once near 46 MB.
BLOCH_RESOLUTION = 500
BLOCH_TILE = 20


def bloch_grid_search(bases: np.ndarray) -> OptimizerResult:
    """Brute-force qubit oracle: scan the Bloch sphere, then zoom in.

    Only valid at d = 2. The initial (theta, phi) grid has BLOCH_RESOLUTION
    points per axis; the window around the best point is then shrunk
    geometrically with a fixed 25 x 25 subgrid until the angular step is
    far below the target precision. Fully deterministic. It shares no code
    with reference_qubit_oracle, which enumerates pick functions instead.
    """
    d = bases.shape[1]
    if d != 2:
        raise ValueError(f"Bloch-sphere search requires d = 2, got d={d}")

    def evaluate(thetas: np.ndarray, phis: np.ndarray) -> tuple[float, int]:
        # the grid is scanned BLOCH_TILE theta rows at a time; a later tile
        # takes over only on strict >, so the first maximum wins
        conj, best, flat = bases.conj(), -math.inf, 0
        for i in range(0, len(thetas), BLOCH_TILE):
            # states (cos(t/2), e^{i f} sin(t/2)) for every grid pair
            t, f = np.meshgrid(thetas[i:i + BLOCH_TILE], phis, indexing="ij")
            psis = np.stack([np.cos(t / 2), np.exp(1j * f) * np.sin(t / 2)])
            amps = np.abs(np.einsum("xaj,jtf->xatf", conj, psis)) ** 2
            objs = amps.max(axis=1).mean(axis=0)
            k = int(np.argmax(objs))
            if objs.flat[k] > best:
                best, flat = float(objs.flat[k]), i * len(phis) + k
        return best, flat

    thetas = np.linspace(0.0, math.pi, BLOCH_RESOLUTION)
    phis = np.linspace(0.0, 2 * math.pi, BLOCH_RESOLUTION, endpoint=False)
    best, flat = evaluate(thetas, phis)
    t0, f0 = thetas[flat // len(phis)], phis[flat % len(phis)]

    dt = math.pi / BLOCH_RESOLUTION
    levels = 0
    while dt > 1e-10:
        thetas = np.clip(np.linspace(t0 - dt, t0 + dt, 25), 0.0, math.pi)
        phis = np.linspace(f0 - dt, f0 + dt, 25)
        cand, flat = evaluate(thetas, phis)
        if cand > best:
            best = cand
            t0, f0 = thetas[flat // 25], phis[flat % 25]
        dt /= 5.0
        levels += 1

    psi = np.array([math.cos(t0 / 2), complex(math.cos(f0), math.sin(f0)) * math.sin(t0 / 2)])
    return OptimizerResult(best_state=psi, objective=best, restarts_used=1,
                           iterations=levels, converged=True)


def deterministic_single_state_model(bases: np.ndarray, psi: np.ndarray) -> LhsModel:
    """Extreme-point model: one hidden state, responses pinned to the argmax."""
    n, d = bases.shape[:2]
    picks = np.argmax(np.abs(bases.conj() @ psi) ** 2, axis=1)
    response = np.zeros((1, n, d))
    response[0, np.arange(n), picks] = 1.0
    return LhsModel(d=d, n=n, states=projector(psi)[np.newaxis],
                    weights=np.array([1.0]), response=response)


def random_lhs_model(d: int, n: int, rng: np.random.Generator,
                     max_states: int = 4, outcomes: int | None = None) -> LhsModel:
    """Random model for property testing: mixed/pure states, noisy or sharp responses."""
    m = d if outcomes is None else outcomes
    L = int(rng.integers(1, max_states + 1))
    states = np.empty((L, d, d), dtype=complex)
    for k in range(L):
        if rng.random() < 0.5:
            states[k] = projector(random_pure_state(d, rng))
        else:
            states[k] = random_density_matrix(d, rng)
    weights = rng.dirichlet(np.ones(L))
    response = np.empty((L, n, m))
    for k in range(L):
        for x in range(n):
            if rng.random() < 0.5:
                row = np.zeros(m)
                row[int(rng.integers(m))] = 1.0
            else:
                row = rng.dirichlet(np.ones(m))
            response[k, x] = row
    return LhsModel(d=d, n=n, states=states, weights=weights, response=response)
