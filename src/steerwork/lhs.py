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
maximization with random restarts in lockstep blocks, each restart stopping
at its fixed point. The optimum is the largest lambda_max of
(1/n) sum_x |phi_x^{a(x)}><phi_x^{a(x)}| over the d^n pick functions a(x);
at d = 2 and at n = 2 every a(x) gives the same one, which
closed_form_optimum takes from bounds. General hidden-state models, the
game pipeline on them and a Bloch-sphere grid search live in
tests/oracles.py, where the tests check these closed forms against them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import single_state_optimum
from .mub import _as_int, _bases_shape, _seeded_rng

# Defaults of optimize_single_state, which the lhs-opt flags share.
DEFAULT_RESTARTS, DEFAULT_SEED = 32, 0
# Steps after which a restart ends unconverged; a guard, not an option:
# over 1,920 restarts at d = 61, n = 62 the longest took 12 steps.
MAX_STEPS = 500
# Restarts per lockstep block of optimize_single_state. One stacked step
# saves the Python overhead around each small eigh, while the traced peak
# doubles with the block: at d = 31 (in process, 2 vCPU, OpenBLAS on one
# thread) a default call took a median of 20.6, 18.5 and 17.9 ms with
# blocks of 4, 8 and 16, peaking at 193, 382 and 760 KiB.
RESTART_BLOCK = 8


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
        return {"dim": int(self.best_state.shape[0]),
                "best_state": [[float(c.real), float(c.imag)] for c in self.best_state],
                **{k: v for k, v in vars(self).items() if k != "best_state"}}


def principal_eigenvector(m: np.ndarray) -> np.ndarray:
    """Unit eigenvector of the largest eigenvalue of each matrix of the (..., d, d) stack m.

    Returns the (..., d) stack of eigenvectors; each matrix is diagonalized
    as it would be alone. The matrices must be Hermitian, as the average
    projectors of _average_projectors are by construction: eigh reads only
    their lower triangle. A NaN or inf anywhere raises ValueError. A tie
    goes to the first such column of eigh's ascending output, in eigh's phase.
    """
    if not np.isfinite(m).all():
        raise ValueError("matrix has a NaN or infinite entry")
    w, v = np.linalg.eigh(m)
    return np.take_along_axis(v, np.argmax(w, axis=-1)[..., None, None], axis=-1)[..., 0]


def _best_picks(bases: np.ndarray, psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Best outcome per basis and objective of each state of the (k, d) stack psi.

    A tie goes to the smallest outcome. Both come from the overlap table
    |<phi_x^a|psi_k>|^2, taken as |phi^T psi_k*|^2 with one matrix-vector
    product per basis, as for a lone state, so each row is bit-identical to
    that state's table.
    """
    amps = np.abs((bases @ psi.conj()[:, None, :, None])[..., 0])
    amps **= 2
    return np.argmax(amps, axis=2), amps.max(axis=2).mean(axis=1)


def _in_canonical_phase(psi: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """psi in the global phase that makes a nonzero <phi|psi> real and positive."""
    overlap = np.vdot(phi, psi)
    return psi * (abs(overlap) / overlap)


def _average_projectors(bases: np.ndarray, picks: np.ndarray) -> np.ndarray:
    """Average projector of one picked vector per basis, for each row of the (k, n) picks."""
    picked = bases[np.arange(len(bases)), picks]
    m = np.swapaxes(picked, 1, 2) @ picked.conj()
    m /= len(bases)
    return m


def optimize_single_state(bases: np.ndarray, restarts: int = DEFAULT_RESTARTS,
                          seed: int = DEFAULT_SEED) -> OptimizerResult:
    """Alternating maximization of the single-state overlap objective.

    From a random pure state, repeat: pick the best outcome per basis
    (ties to the smallest index), then move to the principal eigenvector of
    the average of the selected projectors. Both half-steps are exact
    maximizations, so the objective never decreases; a decrease beyond
    rounding raises RuntimeError. Each iterate's overlap table
    |<phi_x^a|psi>|^2 gives both its objective and the next picks. A restart
    stops, converged, at its fixed point: when a computed step fails to raise
    the objective, or when its picks repeat the previous step's, which would
    rebuild the same state, so that step counts as one and computes nothing.
    After MAX_STEPS steps it stops unconverged. Restart i starts from the
    i-th Haar state of mub._seeded_rng(seed). The restarts run in lockstep
    blocks of RESTART_BLOCK: each step takes the block's running restarts
    through one stacked eigh, and each restart computes bit for bit what it
    would alone, so memory is O(block) whatever restarts is. A later restart
    wins only by more than 16 ulp(1), so a tie to rounding goes to the
    earliest whatever the BLAS, and the winner's state is returned in the
    phase that makes <phi_0^{a(0)}|psi> real and positive, a(0) its pick in
    basis 0. bases is the (n, d, d) array of mub.build_mub, or ValueError
    from mub._bases_shape. restarts and seed must be integral (numpy integers
    are), or ValueError names the one that is not; so does a seed outside 0
    to mub.MAX_SEED.
    """
    _, d = _bases_shape(bases)
    restarts, rng = _as_int("restarts", restarts), _seeded_rng(seed)
    if restarts < 1:
        raise ValueError(f"need at least one restart, got {restarts}")
    best_obj, best_state, best_converged, total_iters = -math.inf, None, False, 0

    for start in range(0, restarts, RESTART_BLOCK):
        # restart i's Haar start: its real row, then its imaginary row, in stream order
        g = rng.standard_normal((min(RESTART_BLOCK, restarts - start), 2, d))
        psi = g[:, 0] + 1j * g[:, 1]
        psi /= np.linalg.norm(psi, axis=1, keepdims=True)
        picks, obj = _best_picks(bases, psi)
        converged = np.zeros(len(psi), dtype=bool)
        last = np.full_like(picks, -1)  # the picks each state was built from; none yet
        run = np.arange(len(psi))  # the restarts still stepping
        for _ in range(MAX_STEPS):
            total_iters += len(run)
            repeat = (picks[run] == last[run]).all(axis=1)
            converged[run[repeat]] = True  # the next state would be this one
            run = run[~repeat]
            if not len(run):
                break
            last[run] = picks[run]
            psi[run] = principal_eigenvector(_average_projectors(bases, last[run]))
            picks[run], new_obj = _best_picks(bases, psi[run])
            fell = np.flatnonzero(new_obj < obj[run] - 1e-12)
            if len(fell):
                r = fell[0]
                raise RuntimeError(f"objective decreased from {float(obj[run[r]])!r} to "
                                   f"{float(new_obj[r])!r}; the alternating steps must be monotone")
            stop = new_obj <= obj[run]
            obj[run], converged[run] = new_obj, stop
            run = run[~stop]
        for r in range(len(psi)):  # in restart order, within and across blocks
            if obj[r] > best_obj + 16 * math.ulp(1.0):
                best_obj, best_converged = float(obj[r]), bool(converged[r])
                best_state = _in_canonical_phase(psi[r], bases[0, picks[r, 0]])

    return OptimizerResult(best_state, best_obj, restarts, total_iters, best_converged)


def closed_form_optimum(bases: np.ndarray) -> OptimizerResult | None:
    """build_mub's optimum where bounds.single_state_optimum knows it, else None.

    The state is a(x) = 0's, which attains it as every pick function does, in
    optimize_single_state's canonical phase; mub._bases_shape checks bases.
    """
    n, d = _bases_shape(bases)
    if (objective := single_state_optimum(d, n)) is None:
        return None
    psi = principal_eigenvector(_average_projectors(bases, np.zeros((1, n), dtype=int)))[0]
    return OptimizerResult(_in_canonical_phase(psi, bases[0, 0]), objective, restarts_used=1,
                           iterations=1, converged=True)
