import math
import tracemalloc

import numpy as np
import pytest

import oracles
from steerwork.bounds import (
    _thermal_weights,
    evaluate_bounds,
    rastegin_bound,
    single_state_optimum,
    work_above_reset,
)
from oracles import (
    LhsModel,
    assemblage_from_model,
    bloch_grid_search,
    deterministic_single_state_model,
    lhs_work,
    measure_assemblage,
    mub_overlap_objective,
    normalize,
    projective_povm,
    random_density_matrix,
    random_lhs_model,
    random_pure_state,
    random_unitary,
    reference_optimize_single_state,
    reference_qubit_oracle,
    tensor_product,
)
from steerwork import lhs
from steerwork.lhs import (
    DEFAULT_RESTARTS,
    DEFAULT_SEED,
    closed_form_optimum,
    optimize_single_state,
)
from steerwork.mub import build_mub

PAULI = [
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]]),
    np.array([[1, 0], [0, -1]], dtype=complex),
]

# analytic optima of the single-state objective on the Bloch sphere
QUBIT_OPT_N3 = 0.78867513459481288   # (1 + 1/sqrt(3))/2, Bloch (1,1,1)/sqrt(3)
QUBIT_OPT_N2 = 0.85355339059327376   # (1 + 1/sqrt(2))/2, Bloch (1,0,1)/sqrt(2)

# regression: best value the optimizer attains for the qutrit 4-MUB family
# (equals cos^2(pi/5); strictly below rastegin_bound(3,4) = 2/3, so the
# closed-form ceiling is not known to be tight beyond d = 2)
QUTRIT_ATTAINED_N4 = 0.65450849718747462


def bloch_vector(psi):
    return np.array([np.vdot(psi, s @ psi).real for s in PAULI])


def single_basis_set():
    return np.eye(2, dtype=complex)[np.newaxis]


class TestAssemblageFromModel:
    def test_single_state_deterministic_response(self):
        rng = np.random.default_rng(20)
        rho = random_density_matrix(2, rng)
        response = np.zeros((1, 2, 2))
        response[0, 0, 1] = 1.0
        response[0, 1, 0] = 1.0
        model = LhsModel(d=2, n=2, states=rho[np.newaxis],
                         weights=np.array([1.0]), response=response)
        asm = assemblage_from_model(model)
        assert np.allclose(asm.sigma[0, 1], rho, atol=1e-14)
        assert np.allclose(asm.sigma[0, 0], 0.0, atol=1e-14)
        assert np.allclose(asm.sigma[1, 0], rho, atol=1e-14)

    def test_mimics_separable_state_measurement(self):
        # hidden states = Alice's measurement collapses on a product state
        rng = np.random.default_rng(21)
        rho_a = random_density_matrix(2, rng)
        rho_b = random_density_matrix(2, rng)
        povms = [projective_povm(random_unitary(2, rng).T) for _ in range(3)]
        asm_direct = measure_assemblage(tensor_product(rho_a, rho_b), povms)

        response = np.empty((1, 3, 2))
        for x in range(3):
            for a in range(2):
                response[0, x, a] = np.trace(povms[x][a] @ rho_a).real
        model = LhsModel(d=2, n=3, states=rho_b[np.newaxis],
                         weights=np.array([1.0]), response=response)
        asm_model = assemblage_from_model(model)
        assert np.allclose(asm_model.sigma, asm_direct.sigma, atol=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_consistency_identity(self, seed):
        rng = np.random.default_rng(1000 + seed)
        model = random_lhs_model(3, 4, rng)
        asm = assemblage_from_model(model)
        mixture = np.einsum("l,lij->ij", model.weights, model.states)
        for x in range(4):
            assert np.allclose(asm.sigma[x].sum(axis=0), mixture, atol=1e-12)

    def test_invalid_weights_rejected(self):
        with pytest.raises(ValueError, match="weights"):
            LhsModel(d=2, n=1, states=np.eye(2, dtype=complex)[np.newaxis] / 2,
                     weights=np.array([0.7]), response=np.ones((1, 1, 2)) / 2)


class TestLhsWork:
    def test_trivial_single_state_model(self):
        d, n = 3, 4
        bases = build_mub(d, n)
        model = LhsModel(d=d, n=n, states=(np.eye(d, dtype=complex) / d)[np.newaxis],
                         weights=np.array([1.0]), response=np.full((1, n, d), 1.0 / d))
        z = math.e + d - 1
        expect = 1.0 / d - math.e / z
        assert abs(lhs_work(model, bases, 1.0, 1.0) - expect) < 1e-12

    def test_qubit_optimal_model_saturates(self):
        # Bloch (1,1,1)/sqrt(3) with responses pinned to the closest outcome
        bases = build_mub(2, 3)
        psi = normalize(np.array([math.cos(0.5 * math.acos(1 / math.sqrt(3))),
                                  math.sin(0.5 * math.acos(1 / math.sqrt(3)))
                                  * np.exp(1j * math.pi / 4)]))
        model = deterministic_single_state_model(bases, psi)
        for beta in (0.0, 1.0, 2.0):
            got = lhs_work(model, bases, 1.0, beta)
            assert abs(got - evaluate_bounds(2, 3, 1.0, beta).w_classical) < 1e-6

    @pytest.mark.parametrize("d,n", [(2, 3), (3, 4), (5, 6)])
    def test_never_beats_classical_bound(self, d, n):
        bases = build_mub(d, n)
        rng = np.random.default_rng(d * 97)
        wc = evaluate_bounds(d, n, 1.0, 1.0).w_classical
        for _ in range(60):
            model = random_lhs_model(d, n, rng)
            assert lhs_work(model, bases, 1.0, 1.0) <= wc + 1e-8


# arrays that are not a non-empty (n, d, d) float or complex stack; a 2-D
# array failed with numpy's AxisError deep in the first overlap table
BAD_BASES = [
    (np.eye(2), "bases must be a non-empty (n, d, d) array, got shape (2, 2)"),
    (np.zeros((0, 2, 2)), "bases must be a non-empty (n, d, d) array, got shape (0, 2, 2)"),
    (np.zeros((3, 2, 3)), "bases must be a non-empty (n, d, d) array, got shape (3, 2, 3)"),
    (np.eye(2, dtype=int)[None], f"bases must be a float or complex array, got {np.dtype(int)}"),
    (np.ones((2, 2, 2), dtype=bool), "bases must be a float or complex array, got bool"),
]


class TestOptimizeSingleState:
    def test_qubit_three_bases(self):
        result = optimize_single_state(build_mub(2, 3), restarts=32, seed=0)
        assert abs(result.objective - QUBIT_OPT_N3) < 1e-9
        assert result.converged
        r = bloch_vector(result.best_state)
        assert np.allclose(np.abs(r), 1 / math.sqrt(3), atol=1e-5)

    def test_single_basis_aligns(self):
        result = optimize_single_state(single_basis_set(), restarts=4, seed=1)
        assert abs(result.objective - 1.0) < 1e-12

    def test_qutrit_four_bases(self):
        result = optimize_single_state(build_mub(3, 4), restarts=64, seed=0)
        assert result.objective <= rastegin_bound(3, 4) + 1e-8
        assert abs(result.objective - QUTRIT_ATTAINED_N4) < 1e-9

    @pytest.mark.parametrize("d,n", [(2, 2), (2, 3), (3, 4), (5, 6)])
    def test_objective_within_certified_window(self, d, n):
        result = optimize_single_state(build_mub(d, n), restarts=16, seed=3)
        assert 1.0 / d - 1e-10 <= result.objective <= rastegin_bound(d, n) + 1e-8

    def test_deterministic_given_seed(self):
        a = optimize_single_state(build_mub(3, 4), restarts=8, seed=11)
        b = optimize_single_state(build_mub(3, 4), restarts=8, seed=11)
        assert a.objective == b.objective
        assert np.array_equal(a.best_state, b.best_state)

    def test_objective_matches_helper(self):
        bases = build_mub(5, 6)
        result = optimize_single_state(bases, restarts=8, seed=7)
        assert abs(result.objective - mub_overlap_objective(bases, result.best_state)) < 1e-14

    @pytest.mark.parametrize("kwargs, match", [(dict(restarts=0), "restart")])
    def test_invalid_budget_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            optimize_single_state(build_mub(2, 3), **kwargs)

    @pytest.mark.parametrize("bases, message", BAD_BASES)
    def test_rejects_what_verify_mub_rejects(self, bases, message):
        with pytest.raises(ValueError) as err:
            optimize_single_state(bases, restarts=1)
        assert str(err.value) == message

    def test_nan_amplitude_rejected(self):
        # NaN fails every comparison, so the check must read it as a failure
        bases = build_mub(3, 4)
        bases[1, 2, 0] = np.nan
        with pytest.raises(ValueError, match="^matrix has a NaN or infinite entry$"):
            optimize_single_state(bases)

    def test_memory_does_not_grow_with_restarts(self, monkeypatch):
        # every restart's start drawn up front would grow with the restarts;
        # one block's draw at a time keeps the peak near 16 KiB for 2,000
        monkeypatch.setattr(lhs, "MAX_STEPS", 1)
        bases = build_mub(3, 4)
        optimize_single_state(bases, restarts=2)
        tracemalloc.start()
        try:
            optimize_single_state(bases, restarts=2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**10, f"peak allocation {peak / 2**10:.1f} KiB"

    def test_memory_stays_one_block_at_the_workload_size(self, monkeypatch):
        # at lhs-d31's size one block's stacks peak near 400 KiB, against
        # about 90 KiB for one restart at a time; stacks that grew with the
        # restart count would pass the bound within the first 16 restarts
        monkeypatch.setattr(lhs, "MAX_STEPS", 1)
        bases = build_mub(31, 32)
        optimize_single_state(bases, restarts=2)
        tracemalloc.start()
        try:
            optimize_single_state(bases, restarts=2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 640 * 2**10, f"peak allocation {peak / 2**10:.1f} KiB"


@pytest.fixture
def eigh_calls(monkeypatch):
    """One-item list counting the matrices np.linalg.eigh diagonalized during the test.

    A (k, d, d) stack counts k, so the count does not depend on how the
    optimizer groups its restarts.
    """
    calls, eigh = [0], np.linalg.eigh

    def counted(m):
        calls[0] += math.prod(m.shape[:-2])
        return eigh(m)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


class TestFixedPointStop:
    """A restart stops, converged, at its fixed point, or unconverged at MAX_STEPS.

    The full loop in oracles computes the repeated step too, a gain of
    exactly 0, and stops on gain < tol. At tol = ulp(0) that is gain <= 0,
    the optimizer's rule, so at the same step cap the two agree bit for bit.
    """

    @pytest.mark.parametrize("d,n", [(2, 2), (2, 3), (3, 4), (5, 6), (7, 8), (31, 32),
                                     (6, 2), (31, 5)])
    @pytest.mark.parametrize("cap", [lhs.MAX_STEPS, 1, 2, 40],
                             ids=["default", "iter1", "iter2", "iter40"])
    def test_matches_the_full_loop(self, d, n, cap, monkeypatch):
        # one restart, one full block, a block and one more, a block and a half
        monkeypatch.setattr(lhs, "MAX_STEPS", cap)
        block = lhs.RESTART_BLOCK
        bases = build_mub(d, n)
        for restarts in (1, block, block + 1, block + block // 2):
            for seed in range(5):
                got = optimize_single_state(bases, restarts=restarts, seed=seed)
                want = reference_optimize_single_state(bases, restarts=restarts, seed=seed,
                                                       tol=math.ulp(0.0), max_iter=cap)
                case = (restarts, seed)
                assert got.objective == want.objective, case
                assert got.best_state.tobytes() == want.best_state.tobytes(), case
                assert got.iterations == want.iterations, case
                assert got.converged is want.converged, case

    def test_a_falling_step_names_its_objectives(self, monkeypatch):
        # restart 4 of the first block is sent to (1, i)/sqrt(2), unbiased to
        # both qubit bases, so its objective falls to 1/2 while the others rise
        bases, seed, victim = build_mub(2, 2), 3, 4
        unbiased = np.array([1, 1j]) / math.sqrt(2)
        eigenvector, calls = lhs.principal_eigenvector, []

        def sabotaged(m):
            v = eigenvector(m)
            if not calls:
                assert v.shape == (lhs.RESTART_BLOCK, 2)
                v[victim] = unbiased
            calls.append(len(m))
            return v

        monkeypatch.setattr(lhs, "principal_eigenvector", sabotaged)
        rng = np.random.Generator(np.random.Philox(key=seed))
        start = [random_pure_state(2, rng) for _ in range(victim + 1)][victim]
        old = float((np.abs(bases @ start.conj()) ** 2).max(axis=1).mean())
        new = float((np.abs(bases @ unbiased.conj()) ** 2).max(axis=1).mean())
        assert old > new + 1e-12
        message = (f"objective decreased from {old!r} to {new!r}; "
                   f"the alternating steps must be monotone")
        with pytest.raises(RuntimeError) as err:
            optimize_single_state(bases, restarts=9, seed=seed)
        assert str(err.value) == message
        assert calls == [lhs.RESTART_BLOCK]

    @pytest.mark.parametrize("n", [2, 3])
    def test_qubit_oracle_matches_conjugated_bases(self, n):
        # the closed form against the enumeration of all 2^n pick functions
        bases = build_mub(2, n)
        got, want = closed_form_optimum(bases), reference_qubit_oracle(bases)
        assert abs(got.objective - want.objective) <= 2 * math.ulp(want.objective)
        assert abs(mub_overlap_objective(bases, got.best_state) - got.objective) <= 1e-15

    def test_skips_the_repeated_step(self, eigh_calls):
        # every restart ends on a repeat, which the full loop diagonalized
        # again: 108 matrices diagonalized at seed 0, against 76
        result = optimize_single_state(build_mub(31, 32), seed=0)
        assert result.converged
        assert eigh_calls[0] == result.iterations - 32 == 76

    def test_does_not_spin(self, eigh_calls):
        # the restart stops at its fixed point, far below the step cap, and
        # only the repeat diagonalizes nothing
        result = optimize_single_state(build_mub(61, 62), restarts=1)
        assert result.converged is True
        assert result.iterations - 1 == eigh_calls[0] < 100


class TestKernelIndependence:
    """Another BLAS kernel returns eigenvectors in another phase and rounded otherwise.

    Restarts that reach optima whose objectives tie to rounding must not
    trade places for it, and the printed state must not carry eigh's phase.
    """

    @pytest.mark.parametrize("phase, noise", [(True, 0.0), (False, 4e-16), (False, 2e-15)],
                             ids=["phase", "rounding", "ulps"])
    def test_the_answer_does_not_move(self, phase, noise, monkeypatch):
        eigenvector = lhs.principal_eigenvector
        for d in (3, 5, 7, 11, 13):
            bases = build_mub(d, d + 1)
            for seed in range(4):
                monkeypatch.setattr(lhs, "principal_eigenvector", eigenvector)
                want = optimize_single_state(bases, seed=seed)
                rng = np.random.default_rng(seed)

                def other_kernel(m):
                    v = eigenvector(m)
                    v = v * (1 + noise * rng.standard_normal(v.shape))
                    v /= np.linalg.norm(v, axis=-1, keepdims=True)
                    turn = rng.random((*v.shape[:-1], 1)) if phase else 0.0
                    return v * np.exp(2j * np.pi * turn)

                monkeypatch.setattr(lhs, "principal_eigenvector", other_kernel)
                got = optimize_single_state(bases, seed=seed)
                case = (d, seed)
                assert abs(got.objective - want.objective) <= 1e-14, case
                assert got.iterations == want.iterations, case
                assert np.max(np.abs(got.best_state - want.best_state)) <= 1e-12, case

    @pytest.mark.parametrize("d,n", [(2, 3), (3, 4), (5, 6), (6, 2), (31, 32)])
    def test_canonical_phase(self, d, n):
        # <phi_0^{a(0)}|psi> real and positive, a(0) the best outcome in basis 0
        bases = build_mub(d, n)
        psi = optimize_single_state(bases, restarts=8, seed=d).best_state
        amps = np.abs(bases[0].conj() @ psi) ** 2
        lead = np.vdot(bases[0, np.argmax(amps)], psi)
        assert lead.real >= 1 / math.sqrt(d) - 1e-12 and abs(lead.imag) <= 1e-15


class TestBlochGridSearch:
    def test_three_bases_optimum(self):
        result = bloch_grid_search(build_mub(2, 3))
        assert abs(result.objective - QUBIT_OPT_N3) < 1e-6

    def test_two_bases_optimum(self):
        result = bloch_grid_search(build_mub(2, 2))
        assert abs(result.objective - QUBIT_OPT_N2) < 1e-6

    def test_grid_never_beats_optimizer(self):
        for n in (2, 3):
            bases = build_mub(2, n)
            grid = bloch_grid_search(bases)
            opt = optimize_single_state(bases, restarts=16, seed=2)
            assert grid.objective <= opt.objective + 1e-6

    def test_oracle_agreement(self):
        for n in (2, 3):
            bases = build_mub(2, n)
            grid = bloch_grid_search(bases)
            opt = optimize_single_state(bases, restarts=16, seed=5)
            assert abs(grid.objective - opt.objective) < 1e-5

    def test_rejects_higher_dimensions(self):
        with pytest.raises(ValueError, match="d = 2"):
            bloch_grid_search(build_mub(3, 2))

    @pytest.mark.parametrize("n", [2, 3])
    def test_tiles_do_not_change_the_result(self, n, monkeypatch):
        bases = build_mub(2, n)
        tiled = bloch_grid_search(bases)
        monkeypatch.setattr(oracles, "BLOCH_TILE", oracles.BLOCH_RESOLUTION)
        whole = bloch_grid_search(bases)
        assert tiled.objective == whole.objective
        assert tiled.best_state.tobytes() == whole.best_state.tobytes()

    def test_memory_grid_tiles(self):
        # the whole 500 x 500 grid at once peaked at about 46 MB for n = 3
        bases = build_mub(2, 3)
        tracemalloc.start()
        try:
            bloch_grid_search(bases)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, f"peak allocation {peak / 2**20:.2f} MB"


class TestQubitOracle:
    """The closed-form optimum at d = 2, and the enumeration that checks it."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_exact_optimum(self, n):
        result = closed_form_optimum(build_mub(2, n))
        assert abs(result.objective - (1 + 1 / math.sqrt(n)) / 2) <= 1e-15
        assert result.iterations == 1
        assert result.restarts_used == 1 and result.converged

    @pytest.mark.parametrize("n", [2, 3])
    def test_global_maximum(self, n):
        bases = build_mub(2, n)
        oracle = closed_form_optimum(bases)
        for seed in range(10):
            opt = optimize_single_state(bases, seed=seed)
            assert oracle.objective >= opt.objective - 1e-15, seed

    @pytest.mark.parametrize("seed", range(3))
    def test_agrees_with_grid_on_random_bases(self, seed):
        # three Haar-random qubit bases: not mutually unbiased, no symmetry,
        # so no closed form; the two references must still agree
        rng = np.random.default_rng(500 + seed)
        bases = np.stack([random_unitary(2, rng) for _ in range(3)])
        oracle = reference_qubit_oracle(bases)
        grid = bloch_grid_search(bases)
        assert abs(oracle.objective - grid.objective) < 1e-9
        assert abs(oracle.objective - mub_overlap_objective(bases, oracle.best_state)) < 1e-15

    @pytest.mark.parametrize("bases, message", BAD_BASES)
    def test_rejects_what_verify_mub_rejects(self, bases, message):
        with pytest.raises(ValueError) as err:
            closed_form_optimum(bases)
        assert str(err.value) == message

    def test_rejects_nan_bases(self):
        # a NaN state would score NaN against the closed form
        with pytest.raises(ValueError, match="^matrix has a NaN or infinite entry$"):
            closed_form_optimum(np.full((3, 2, 2), np.nan, dtype=complex))


def largest_pick_eigenvalue(bases):
    """Largest lambda_max of the average projector over all d^n pick functions."""
    n, d = bases.shape[:2]
    best = -math.inf
    for picks in np.ndindex(*(d,) * n):
        picked = bases[np.arange(n), picks]
        best = max(best, float(np.linalg.eigvalsh(picked.T @ picked.conj() / n)[-1]))
    return best


class TestClosedFormOptimum:
    """bounds.single_state_optimum, where it is known, and lhs.closed_form_optimum."""

    @pytest.mark.parametrize("d", range(2, 65))
    def test_optimizer_reaches_it_at_two_bases(self, d):
        c2 = (1 + 1 / math.sqrt(d)) / 2
        assert single_state_optimum(d, 2) == c2
        assert abs(optimize_single_state(build_mub(d, 2)).objective - c2) <= 1e-12

    @pytest.mark.parametrize("d", [4, 6])
    def test_every_pick_function_gives_it_at_two_bases(self, d):
        bases = build_mub(d, 2)
        assert abs(largest_pick_eigenvalue(bases) - single_state_optimum(d, 2)) <= 1e-15

    def test_the_two_regimes_meet_at_the_qubit_pair(self):
        assert single_state_optimum(2, 2) == rastegin_bound(2, 2)

    @pytest.mark.parametrize("d,n", [(3, 3), (3, 4), (5, 6), (31, 32)])
    def test_unknown_elsewhere(self, d, n):
        assert single_state_optimum(d, n) is None
        assert closed_form_optimum(build_mub(d, n)) is None

    @pytest.mark.parametrize("d,n", [(2, 2), (2, 3), (3, 2), (6, 2), (64, 2)])
    def test_state_attains_it_in_canonical_phase(self, d, n):
        bases = build_mub(d, n)
        result = closed_form_optimum(bases)
        assert abs(mub_overlap_objective(bases, result.best_state) - result.objective) <= 1e-14
        assert abs(np.linalg.norm(result.best_state) - 1) <= 1e-14
        lead = np.vdot(bases[0, 0], result.best_state)
        assert lead.real > 0 and abs(lead.imag) <= 1e-15


def priced_lhs_work(bases, omega, beta, restarts=DEFAULT_RESTARTS, seed=DEFAULT_SEED):
    """(achievable, w_classical, result) as lhs-opt prices them, from three library calls."""
    n, d = bases.shape[:2]
    bs = evaluate_bounds(d, n, omega, beta)
    result = optimize_single_state(bases, restarts, seed)
    return work_above_reset(omega, result.objective, bs.population), bs.w_classical, result


class TestLhsSupWork:
    """The best single-state work against w_classical, priced as lhs-opt does."""

    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0, 2.0])
    def test_qubit_tightness(self, beta):
        achievable, bound, _ = priced_lhs_work(build_mub(2, 3), 1.0, beta, restarts=16, seed=0)
        assert abs(achievable - bound) < 1e-6
        assert abs(bound - evaluate_bounds(2, 3, 1.0, beta).w_classical) < 1e-15

    def test_qutrit_gap_recorded(self):
        achievable, bound, _ = priced_lhs_work(build_mub(3, 4), 1.0, 1.0, restarts=32, seed=0)
        assert achievable <= bound + 1e-8
        # the gap is a finding, not a failure: omega * (2/3 - cos^2(pi/5))
        assert bound - achievable == pytest.approx(2 / 3 - QUTRIT_ATTAINED_N4, abs=1e-6)

    def test_infinite_temperature_identity(self):
        bases = build_mub(2, 3)
        result = optimize_single_state(bases, restarts=16, seed=4)
        achievable, _, _ = priced_lhs_work(build_mub(2, 3), 1.0, 0.0, restarts=16, seed=4)
        assert abs(achievable - (result.objective - 0.5)) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 5, 7])
    def test_closed_form_matches_pipeline_oracle(self, d):
        # lhs-opt prices the deterministic single-state model as
        # omega * objective - omega * P; the full game pipeline on that
        # model is the reference, for random states and the optimizer's best
        n = d + 1
        bases = build_mub(d, n)
        rng = np.random.default_rng(40 + d)
        states = [random_pure_state(d, rng) for _ in range(3)]
        for omega in (1e-3, 1.0, 1e300):
            for beta in (0.0, 0.37, 1.0, math.inf):
                achievable, _, result = priced_lhs_work(bases, omega, beta, restarts=4, seed=d)
                pop = _thermal_weights(d, omega, beta)[0]
                cases = [(result.best_state, achievable)]
                cases += [(psi, omega * mub_overlap_objective(bases, psi) - omega * pop)
                          for psi in states]
                for psi, closed in cases:
                    model = deterministic_single_state_model(bases, psi)
                    oracle = lhs_work(model, bases, omega, beta)
                    assert abs(closed - oracle) <= 1e-12 * omega, (omega, beta)

    def test_bound_follows_the_mub_set(self):
        # the ceiling's (d, n) come from the bases the optimizer searches
        achievable, bound, result = priced_lhs_work(build_mub(5, 6), 1.0, 1.0, restarts=2)
        assert bound == evaluate_bounds(5, 6, 1.0, 1.0).w_classical
        assert result.best_state.shape == (5,)
        assert achievable <= bound + 1e-10

    def test_memory_no_assemblage(self):
        # running the game on the one-state model built a (32, 31, 31, 31)
        # complex sigma stack at d = 31, about 15 MB; the closed form needs none
        bases = build_mub(31, 32)
        tracemalloc.start()
        try:
            priced_lhs_work(bases, 1.0, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, f"peak allocation {peak / 2**20:.2f} MB"


class TestArgmaxTieBreaking:
    def test_ties_go_to_smallest_outcome(self):
        # |+> is equidistant from both Z outcomes and exactly on X outcome 0
        bases = build_mub(2, 2)
        plus = normalize(np.array([1.0, 1.0]))
        model = deterministic_single_state_model(bases, plus)
        assert model.response[0, 0, 0] == 1.0  # Z basis: tie, outcome 0 wins
        assert model.response[0, 1, 0] == 1.0  # X basis: aligned with outcome 0


class TestSerialization:
    def test_optimizer_result_json(self):
        result = optimize_single_state(build_mub(2, 3), restarts=4, seed=0)
        js = result.to_json_dict()
        assert js["dim"] == 2
        assert len(js["best_state"]) == 2
        amp = complex(js["best_state"][0][0], js["best_state"][0][1])
        assert abs(amp - result.best_state[0]) < 1e-15
        assert js["objective"] == result.objective
        assert isinstance(js["converged"], bool)


class TestRandomModelGenerator:
    def test_models_are_valid(self):
        rng = np.random.default_rng(30)
        for _ in range(20):
            model = random_lhs_model(2, 3, rng)
            assert abs(model.weights.sum() - 1.0) < 1e-12
            assert np.all(model.response.sum(axis=2) == pytest.approx(1.0, abs=1e-12))
            asm = assemblage_from_model(model)  # validates on construction
            assert asm.d == 2 and asm.n == 3
