"""Numerical certification of the unsteerable (classical) ceiling.

A local-hidden-state (LHS) model explains Bob's conditional states as a
classical mixture: a hidden state rho_lambda drawn with weight p(lambda),
postprocessed by a response table p(a|x, lambda). The work such a model can
extract is capped by the closed-form w_classical; this module attacks that
cap from below.

Because the work functional is linear in the model, the supremum over LHS
models is attained on extreme points: a single pure hidden state psi with
the deterministic response a(x) = argmax_a |<phi_x^a|psi>|^2. That model
extracts omega * objective(psi) - omega * P exactly, with P the ground-level
Gibbs population (bounds.work_above_reset, the shape of w_classical), so
no assemblage is built here. Finding the best pure state is the nonconvex
problem max_psi (1/n) sum_x max_a |<phi_x^a|psi>|^2, handled by
alternating maximization with random restarts: the bases are conjugated
once per call, and one overlap table per iterate gives both the objective
and the next picks. An exhaustive Bloch-sphere grid, with its own
contraction, is the independent oracle at d = 2. General
hidden-state models and the full game pipeline on them live in
tests/oracles.py, where the tests check this closed form against them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bounds as bounds_mod
from .qmath import principal_eigenvector, random_pure_state

# Defaults of optimize_single_state, which the lhs-opt flags share.
DEFAULT_RESTARTS, DEFAULT_TOL, DEFAULT_MAX_ITER, DEFAULT_SEED = 32, 1e-12, 500, 0

# Points per axis of bloch_grid_search's initial (theta, phi) grid, and
# theta rows per tile it is evaluated in: a 20 x 500 tile peaks near
# 2 MB, the whole grid at once near 46 MB.
BLOCH_RESOLUTION = 500
BLOCH_TILE = 20


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


def optimize_single_state(bases: np.ndarray, restarts: int = DEFAULT_RESTARTS,
                          tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER,
                          seed: int = DEFAULT_SEED) -> OptimizerResult:
    """Alternating maximization of the single-state overlap objective.

    From a random pure state, repeat: pick the best outcome per basis
    (ties to the smallest index), then move to the principal eigenvector of
    the average of the selected projectors. Both half-steps are exact
    maximizations, so the objective never decreases; a decrease beyond
    rounding raises RuntimeError. Restarts use seeds spawned from the
    master seed and the best restart wins, ties going to the earliest.
    Each iterate's overlap table |<phi_x^a|psi>|^2 gives both its
    objective and the next picks. bases is the (n, d, d) array of
    mub.build_mub.
    """
    if restarts < 1:
        raise ValueError(f"need at least one restart, got {restarts}")
    if max_iter < 1:
        raise ValueError(f"need at least one iteration, got max_iter={max_iter}")
    n, d = bases.shape[:2]
    conj = bases.conj()

    def overlaps(psi: np.ndarray) -> tuple[np.ndarray, float]:
        amps = np.abs(conj @ psi) ** 2
        return amps, float(amps.max(axis=1).mean())

    best_obj = -math.inf
    best_state = None
    best_converged = False
    total_iters = 0

    seed_seqs = np.random.SeedSequence(seed).spawn(restarts)
    for seq in seed_seqs:
        rng = np.random.default_rng(seq)
        psi = random_pure_state(d, rng)
        amps, obj = overlaps(psi)
        converged = False
        for _ in range(max_iter):
            picked = bases[np.arange(n), np.argmax(amps, axis=1)]
            psi = principal_eigenvector(picked.T @ picked.conj() / n)
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
        if obj > best_obj:
            best_obj = obj
            best_state = psi
            best_converged = converged

    return OptimizerResult(best_state=best_state, objective=best_obj,
                           restarts_used=restarts, iterations=total_iters,
                           converged=best_converged)


def bloch_grid_search(bases: np.ndarray) -> OptimizerResult:
    """Brute-force qubit oracle: scan the Bloch sphere, then zoom in.

    Only valid at d = 2. The initial (theta, phi) grid has BLOCH_RESOLUTION
    points per axis; the window around the best point is then shrunk
    geometrically with a fixed 25 x 25 subgrid until the angular step is
    far below the target precision. Fully deterministic.
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


def lhs_sup_work(bases: np.ndarray, omega: float, beta: float,
                 **optimizer) -> tuple[float, float, OptimizerResult]:
    """Best LHS work found numerically on bases, next to the closed-form ceiling.

    Returns (achievable, bound, result) with result the output of
    optimize_single_state, which receives the optimizer keywords (restarts,
    tol, max_iter, seed). The achievable side is the work of the
    deterministic single-state model on the optimizer's best state,
    omega * objective - omega * P with P the ground-level Gibbs population;
    bound is evaluate_bounds(...).w_classical at the (d, n) of the bases,
    the same expression with the Rastegin overlap bound in place of the
    objective.
    """
    n, d = bases.shape[:2]
    bound = bounds_mod.evaluate_bounds(d, n, omega, beta).w_classical
    result = optimize_single_state(bases, **optimizer)
    achievable = bounds_mod.work_above_reset(
        omega, result.objective, bounds_mod.ground_state_population(d, omega, beta))
    return achievable, bound, result
