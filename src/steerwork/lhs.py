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
Gibbs population, so no assemblage is built here; lhs-opt prices the
objective with bounds.work_above_reset, the shape of w_classical. Finding
the best pure state is the nonconvex problem
max_psi (1/n) sum_x max_a |<phi_x^a|psi>|^2, handled by alternating
maximization with random restarts: one overlap table per iterate gives
both the objective and the next picks, and a restart stops at its fixed
point. The optimum is the largest lambda_max of
(1/n) sum_x |phi_x^{a(x)}><phi_x^{a(x)}| over the d^n pick functions a(x);
qubit_oracle enumerates the 2^n of them at d = 2. General hidden-state
models, the game pipeline on them and a Bloch-sphere grid search live in
tests/oracles.py, where the tests check these closed forms against them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .mub import ATOL, _as_int, _bases_shape

# Defaults of optimize_single_state, which the lhs-opt flags share.
DEFAULT_RESTARTS, DEFAULT_SEED = 32, 0
# Steps after which a restart ends unconverged; a guard, not an option:
# over 1,920 restarts at d = 61, n = 62 the longest took 13 steps.
MAX_STEPS = 500


@dataclass
class OptimizerResult:
    """Best single hidden state found and the objective it achieves.

    objective is (1/n) sum_x max_a |<phi_x^a|best_state>|^2; it always lies
    in [1/d, rastegin_bound(d, n)] up to rounding. iterations counts the
    alternating steps taken over all restarts; converged reports whether
    the best restart stopped at its fixed point rather than at MAX_STEPS.
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


def random_pure_state(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random pure state: normalized complex Gaussian vector."""
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return z / np.linalg.norm(z)


def principal_eigenvector(m: np.ndarray) -> np.ndarray:
    """Unit eigenvector of the largest eigenvalue of m, which must be Hermitian within ATOL.

    A non-Hermitian m, or one with a NaN or inf, raises ValueError. A tie
    goes to the first such column of eigh's ascending output; the global
    phase is eigh's.
    """
    if not np.isfinite(m).all():
        raise ValueError("matrix has a NaN or infinite entry")
    dev = float(np.max(np.abs(m - m.conj().T)))
    if dev > ATOL:
        raise ValueError(f"matrix is not Hermitian: max |m - m^dag| = {dev:.3e} > {ATOL:.1e}")
    w, v = np.linalg.eigh(m)
    return v[:, int(np.argmax(w))].copy()


def _overlaps(bases: np.ndarray, psi: np.ndarray) -> tuple[np.ndarray, float]:
    """Overlap table |<phi_x^a|psi>|^2, taken as |phi^T psi*|^2, and its objective."""
    amps = np.abs(bases @ psi.conj()) ** 2
    return amps, float(amps.max(axis=1).mean())


def _pick_state(picked: np.ndarray) -> np.ndarray:
    """Principal eigenvector of the average projector of one picked vector per basis."""
    return principal_eigenvector(picked.T @ picked.conj() / len(picked))


def optimize_single_state(bases: np.ndarray, restarts: int = DEFAULT_RESTARTS,
                          seed: int = DEFAULT_SEED) -> OptimizerResult:
    """Alternating maximization of the single-state overlap objective.

    From a random pure state, repeat: pick the best outcome per basis
    (ties to the smallest index), then move to the principal eigenvector of
    the average of the selected projectors. Both half-steps are exact
    maximizations, so the objective never decreases; a decrease beyond
    rounding raises RuntimeError. Restarts use seeds spawned from the
    master seed and the best restart wins, ties going to the earliest.
    Each iterate's overlap table |<phi_x^a|psi>|^2 gives both its
    objective and the next picks. A restart stops, converged, at its fixed
    point: when a computed step fails to raise the objective, or when its
    picks repeat the previous step's, which would rebuild the same state,
    so that step counts as one and computes nothing. After MAX_STEPS steps
    it stops unconverged. bases is the (n, d, d) array of mub.build_mub,
    or ValueError from mub._bases_shape. restarts and seed must be integral
    (numpy integers are), or ValueError names the one that is not.
    """
    n, d = _bases_shape(bases)
    restarts, seed = _as_int("restarts", restarts), _as_int("seed", seed)
    if restarts < 1:
        raise ValueError(f"need at least one restart, got {restarts}")
    best_obj, best_state, best_converged, total_iters = -math.inf, None, False, 0
    root = np.random.SeedSequence(seed)

    for _ in range(restarts):
        # one child at a time: the same spawn keys as spawn(restarts), in O(1) memory
        rng = np.random.default_rng(root.spawn(1)[0])
        psi = random_pure_state(d, rng)
        amps, obj = _overlaps(bases, psi)
        converged, last = False, None
        for _ in range(MAX_STEPS):
            total_iters += 1
            picks = np.argmax(amps, axis=1)
            if last is not None and np.array_equal(picks, last):
                converged = True  # the next state would be this one
                break
            last = picks
            psi = _pick_state(bases[np.arange(n), picks])
            amps, new_obj = _overlaps(bases, psi)
            if new_obj < obj - 1e-12:
                raise RuntimeError(
                    f"objective decreased from {obj!r} to {new_obj!r}; "
                    f"the alternating steps must be monotone"
                )
            converged, obj = new_obj <= obj, new_obj
            if converged:
                break
        if obj > best_obj:
            best_obj = obj
            best_state = psi
            best_converged = converged

    return OptimizerResult(best_state=best_state, objective=best_obj,
                           restarts_used=restarts, iterations=total_iters,
                           converged=best_converged)


def qubit_oracle(bases: np.ndarray) -> OptimizerResult:
    """Exact qubit optimum: the best of the states of the 2^n pick functions.

    Only valid at d = 2, where build_mub makes at most n = 3 bases, so 8
    candidates. The first pick function (itertools.product order) with the
    highest objective wins; iterations counts the candidates checked.
    bases are checked by mub._bases_shape.
    """
    n, d = _bases_shape(bases)
    if d != 2:
        raise ValueError(f"the qubit oracle requires d = 2, got d={d}")
    best_obj, best_state = -math.inf, None
    for picks in itertools.product(range(2), repeat=n):
        psi = _pick_state(bases[np.arange(n), picks])
        obj = _overlaps(bases, psi)[1]
        if obj > best_obj:
            best_obj, best_state = obj, psi
    return OptimizerResult(best_state=best_state, objective=best_obj, restarts_used=1,
                           iterations=2**n, converged=True)

