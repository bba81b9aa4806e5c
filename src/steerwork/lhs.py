"""Local-hidden-state models and numerical certification of the classical ceiling.

An LHS model explains Bob's conditional states as a classical mixture: a
hidden state rho_lambda drawn with weight p(lambda), postprocessed by a
response table p(a|x, lambda). The work such a model can extract is capped
by the closed-form w_classical; this module realizes models, evaluates
their work, and attacks the cap from below.

Because the work functional is linear in the model, the supremum over LHS
models is attained on extreme points: a single pure hidden state with a
deterministic response. Finding the best pure state is the nonconvex
problem max_psi (1/n) sum_x max_a |<phi_x^a|psi>|^2, handled by alternating
maximization with random restarts, plus an exhaustive Bloch-sphere grid as
an independent oracle at d = 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bounds as bounds_mod
from .game import Assemblage, average_work
from .mub import MubSet, build_mub
from .qmath import (
    check_density_matrix,
    principal_eigenvector,
    projector,
    random_pure_state,
)


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


@dataclass
class OptimizerResult:
    """Best single hidden state found and the objective it achieves.

    objective is (1/n) sum_x max_a |<phi_x^a|best_state>|^2; it always lies
    in [1/d, rastegin_bound(d, n)] up to rounding. iterations counts the
    total alternating steps over all restarts; converged reports whether
    the best restart stopped on the gain tolerance rather than max_iter.
    """

    best_state: np.ndarray
    objective: float
    restarts_used: int
    iterations: int
    converged: bool

    def to_json_dict(self) -> dict:
        return {
            "dim": int(self.best_state.shape[0]),
            "best_state": [[float(c.real), float(c.imag)] for c in self.best_state],
            "objective": self.objective,
            "restarts_used": self.restarts_used,
            "iterations": self.iterations,
            "converged": self.converged,
        }


def assemblage_from_model(model: LhsModel) -> Assemblage:
    """Unsteerable assemblage sigma_{a|x} = sum_l p(l) p(a|x,l) rho_l."""
    sigma = np.einsum("l,lxa,lij->xaij", model.weights, model.response, model.states)
    p = np.einsum("xaii->xa", sigma).real
    return Assemblage(d=model.d, n=model.n, sigma=sigma, p=p)


def lhs_work(model: LhsModel, mub: MubSet, omega: float, beta: float) -> float:
    """Average work the model extracts against the MUB quench Hamiltonians."""
    return average_work(assemblage_from_model(model), mub, omega, beta).average


def mub_overlap_objective(mub: MubSet, psi: np.ndarray) -> float:
    """(1/n) sum_x max_a |<phi_x^a|psi>|^2 for a pure state psi."""
    amps = np.abs(mub.bases.conj() @ psi) ** 2
    return float(amps.max(axis=1).mean())


def optimize_single_state(mub: MubSet, restarts: int = 32, tol: float = 1e-12,
                          max_iter: int = 500, seed: int = 0) -> OptimizerResult:
    """Alternating maximization of the single-state overlap objective.

    From a random pure state, repeat: pick the best outcome per basis
    (ties to the smallest index), then move to the principal eigenvector of
    the average of the selected projectors. Both half-steps are exact
    maximizations, so the objective never decreases; a decrease beyond
    rounding raises RuntimeError. Restarts use seeds spawned from the
    master seed and the best restart wins, ties going to the earliest.
    """
    if restarts < 1:
        raise ValueError(f"need at least one restart, got {restarts}")
    d, n = mub.d, mub.n
    best_obj = -math.inf
    best_state = None
    best_converged = False
    total_iters = 0

    seed_seqs = np.random.SeedSequence(seed).spawn(restarts)
    for seq in seed_seqs:
        rng = np.random.default_rng(seq)
        psi = random_pure_state(d, rng)
        obj = mub_overlap_objective(mub, psi)
        converged = False
        for _ in range(max_iter):
            picks = np.argmax(np.abs(mub.bases.conj() @ psi) ** 2, axis=1)
            picked = mub.bases[np.arange(n), picks]
            psi = principal_eigenvector(picked.T @ picked.conj() / n)
            new_obj = mub_overlap_objective(mub, psi)
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
        if obj > best_obj:
            best_obj = obj
            best_state = psi
            best_converged = converged

    return OptimizerResult(best_state=best_state, objective=best_obj,
                           restarts_used=restarts, iterations=total_iters,
                           converged=best_converged)


def bloch_grid_search(mub: MubSet, resolution: int = 500) -> OptimizerResult:
    """Brute-force qubit oracle: scan the Bloch sphere, then zoom in.

    Only valid at d = 2. The initial (theta, phi) grid has `resolution`
    points per axis; the window around the best point is then shrunk
    geometrically with a fixed 25 x 25 subgrid until the angular step is
    far below the target precision. Fully deterministic.
    """
    if mub.d != 2:
        raise ValueError(f"Bloch-sphere search requires d = 2, got d={mub.d}")
    if resolution < 8:
        raise ValueError(f"resolution too coarse: {resolution}")

    def evaluate(thetas: np.ndarray, phis: np.ndarray) -> tuple[float, int]:
        # states (cos(t/2), e^{i f} sin(t/2)) for every grid pair
        t, f = np.meshgrid(thetas, phis, indexing="ij")
        psis = np.stack([np.cos(t / 2), np.exp(1j * f) * np.sin(t / 2)])
        amps = np.abs(np.einsum("xaj,jtf->xatf", mub.bases.conj(), psis)) ** 2
        objs = amps.max(axis=1).mean(axis=0)
        return float(objs.max()), int(np.argmax(objs))

    thetas = np.linspace(0.0, math.pi, resolution)
    phis = np.linspace(0.0, 2 * math.pi, resolution, endpoint=False)
    best, flat = evaluate(thetas, phis)
    t0, f0 = thetas[flat // len(phis)], phis[flat % len(phis)]

    dt = math.pi / resolution
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


def deterministic_single_state_model(mub: MubSet, psi: np.ndarray) -> LhsModel:
    """Extreme-point model: one hidden state, responses pinned to the argmax."""
    picks = np.argmax(np.abs(mub.bases.conj() @ psi) ** 2, axis=1)
    response = np.zeros((1, mub.n, mub.d))
    response[0, np.arange(mub.n), picks] = 1.0
    return LhsModel(d=mub.d, n=mub.n, states=projector(psi)[np.newaxis],
                    weights=np.array([1.0]), response=response)


def lhs_sup_work(d: int, n: int, omega: float, beta: float, restarts: int = 32,
                 tol: float = 1e-12, max_iter: int = 500, seed: int = 0,
                 mub: MubSet | None = None) -> tuple[float, float, OptimizerResult]:
    """Best LHS work found numerically, next to the closed-form ceiling.

    Returns (achievable, bound, result) with result the optimizer's output.
    The achievable side is realized by running the full game pipeline on
    the deterministic single-state model built from the optimizer's best
    state, which equals omega * objective - omega * ground_population
    analytically.
    """
    if mub is None:
        mub = build_mub(d, n)
    result = optimize_single_state(mub, restarts=restarts, tol=tol,
                                   max_iter=max_iter, seed=seed)
    model = deterministic_single_state_model(mub, result.best_state)
    achievable = lhs_work(model, mub, omega, beta)
    bound = bounds_mod.w_classical(d, n, omega, beta)
    return achievable, bound, result


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
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            rho = g @ g.conj().T
            states[k] = rho / np.trace(rho).real
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
