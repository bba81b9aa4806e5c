import json
import math
import tracemalloc

import numpy as np
import pytest

from steerwork import game
from steerwork.bounds import ground_state_population, w_classical, w_quantum
from steerwork.game import (
    P_EPS,
    Assemblage,
    GameConfig,
    average_work,
    hamiltonian,
    maximally_entangled,
    measure_assemblage,
    projective_povm,
    run_exact_quantum,
    run_monte_carlo,
    thermal_state,
    work_term,
)
from steerwork.lhs import assemblage_from_model, random_lhs_model
from steerwork.mub import build_mub, conjugate_basis
from steerwork.qmath import (
    dagger,
    expectation,
    min_eigenvalue,
    normalize,
    partial_trace_A,
    projector,
    random_density_matrix,
    random_pure_state,
    random_unitary,
    tensor_product,
)

# 1 - e/(e+1) frozen from the 50-digit closed-form evaluation
WQ_D2_B1 = 0.26894142136999512


def assemblage_oracle(rho_ab, povms, da, db):
    # the defining formula, via the kron/partial-trace composition
    n, m = len(povms), len(povms[0])
    sigma = np.empty((n, m, db, db), dtype=complex)
    for x in range(n):
        for a in range(m):
            sigma[x, a] = partial_trace_A(
                tensor_product(povms[x][a], np.eye(db)) @ rho_ab, da, db
            )
    return sigma


def random_povm(d, outcomes, rng):
    # normalize random PSD pieces: E_k = S^{-1/2} A_k S^{-1/2}
    pieces = []
    for _ in range(outcomes):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        pieces.append(g @ dagger(g))
    total = sum(pieces)
    w, v = np.linalg.eigh(total)
    inv_sqrt = (v / np.sqrt(w)) @ dagger(v)
    return [inv_sqrt @ a @ inv_sqrt for a in pieces]


class TestMaximallyEntangled:
    def test_bell_corners(self):
        rho = maximally_entangled(2)
        expect = np.zeros((4, 4), dtype=complex)
        for i, j in [(0, 0), (0, 3), (3, 0), (3, 3)]:
            expect[i, j] = 0.5
        assert np.allclose(rho, expect, atol=1e-15)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_reduced_state_maximally_mixed(self, d):
        rho = maximally_entangled(d)
        assert np.allclose(partial_trace_A(rho, d, d), np.eye(d) / d, atol=1e-13)

    def test_purity(self):
        rho = maximally_entangled(3)
        assert abs(np.trace(rho @ rho).real - 1.0) < 1e-12


class TestMeasureAssemblage:
    def test_product_state_factorizes(self):
        rng = np.random.default_rng(11)
        rho_a = random_density_matrix(2, rng)
        rho_b = random_density_matrix(3, rng)
        povms = [random_povm(2, 2, rng) for _ in range(2)]
        asm = measure_assemblage(tensor_product(rho_a, rho_b), povms)
        for x in range(2):
            for a in range(2):
                weight = np.trace(povms[x][a] @ rho_a).real
                assert np.allclose(asm.sigma[x, a], weight * rho_b, atol=1e-12)
                if weight > 1e-12:
                    assert np.allclose(asm.conditional_state(x, a), rho_b, atol=1e-10)

    def test_entangled_qubits_steer_to_basis_states(self):
        # conjugated-basis measurement on the maximally entangled pair
        # leaves Bob in the matching basis projector with p = 1/2
        mub = build_mub(2, 3)
        povms = [projective_povm(conjugate_basis(mub, x)) for x in range(3)]
        asm = measure_assemblage(maximally_entangled(2), povms)
        for x in range(3):
            for a in range(2):
                assert abs(asm.p[x, a] - 0.5) < 1e-12
                fid = expectation(asm.conditional_state(x, a), mub.vector(x, a))
                assert abs(fid - 1.0) < 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_defining_formula(self, seed):
        rng = np.random.default_rng(600 + seed)
        rho = random_density_matrix(6, rng)
        povms = [random_povm(2, 3, rng), random_povm(2, 3, rng)]
        asm = measure_assemblage(rho, povms)
        assert np.allclose(asm.sigma, assemblage_oracle(rho, povms, 2, 3), atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_no_signaling(self, seed):
        rng = np.random.default_rng(700 + seed)
        rho = random_density_matrix(4, rng)
        povms = [projective_povm(random_unitary(2, rng).T) for _ in range(3)]
        asm = measure_assemblage(rho, povms)
        reduced = partial_trace_A(rho, 2, 2)
        for x in range(3):
            assert np.allclose(asm.sigma[x].sum(axis=0), reduced, atol=1e-12)

    def test_dimension_mismatch(self):
        povms = [projective_povm(np.eye(3, dtype=complex))]
        with pytest.raises(ValueError, match="divide"):
            measure_assemblage(maximally_entangled(2), povms)

    def test_signaling_rejected(self):
        # hand-built inconsistent assemblage trips the invariant check
        good = projector(np.array([1.0, 0.0]))
        bad = projector(normalize(np.array([1.0, 1.0])))
        sigma = np.stack([np.stack([0.5 * good, 0.5 * good]),
                          np.stack([0.5 * bad, 0.5 * good])])
        with pytest.raises(ValueError, match="signals"):
            Assemblage(d=2, n=2, sigma=sigma, p=np.full((2, 2), 0.5))


class TestHamiltonian:
    def test_computational_basis(self):
        mub = build_mub(2, 3)
        assert np.allclose(hamiltonian(mub, 0, 0, 1.5), np.diag([-1.5, 0.0]), atol=1e-15)

    @pytest.mark.parametrize("d,n", [(2, 3), (3, 4), (5, 2)])
    def test_spectrum(self, d, n):
        mub = build_mub(d, n)
        for x in range(n):
            for a in range(d):
                h = hamiltonian(mub, a, x, 2.0)
                assert abs(min_eigenvalue(h) + 2.0) < 1e-12
                assert abs(np.trace(h).real + 2.0) < 1e-12

    def test_index_out_of_range(self):
        mub = build_mub(2, 2)
        with pytest.raises(IndexError):
            hamiltonian(mub, 2, 0, 1.0)
        with pytest.raises(IndexError):
            hamiltonian(mub, 0, 2, 1.0)


class TestThermalState:
    def test_infinite_temperature(self):
        rng = np.random.default_rng(12)
        h = -1.3 * projector(random_pure_state(4, rng))
        assert np.allclose(thermal_state(h, 0.0), np.eye(4) / 4, atol=1e-13)

    @pytest.mark.parametrize("d,beta,omega", [(2, 1.0, 1.0), (3, 0.7, 2.0), (5, 2.0, 0.5)])
    def test_rank_one_well_populations(self, d, beta, omega):
        rng = np.random.default_rng(13 + d)
        phi = random_pure_state(d, rng)
        h = -omega * projector(phi)
        gamma = thermal_state(h, beta)
        z = math.exp(beta * omega) + d - 1
        assert abs(expectation(gamma, phi) - math.exp(beta * omega) / z) < 1e-12
        # thermal pull-back term of the work ledger
        assert abs(np.trace(h @ gamma).real + omega * math.exp(beta * omega) / z) < 1e-12

    def test_zero_temperature_ground_state(self):
        phi = normalize(np.array([1.0, -1j, 0.5]))
        gamma = thermal_state(-projector(phi), math.inf)
        assert np.allclose(gamma, projector(phi), atol=1e-12)

    def test_zero_temperature_degenerate(self):
        gamma = thermal_state(np.zeros((3, 3), dtype=complex), math.inf)
        assert np.allclose(gamma, np.eye(3) / 3, atol=1e-14)

    def test_large_beta_no_overflow(self):
        gamma = thermal_state(-np.diag([2.0, 0.0, 0.0]).astype(complex), 1e4)
        assert np.allclose(gamma, np.diag([1.0, 0.0, 0.0]), atol=1e-12)


class TestWorkTerm:
    @pytest.mark.parametrize("seed", range(5))
    def test_thermal_fixed_point(self, seed):
        rng = np.random.default_rng(800 + seed)
        h = -float(rng.uniform(0.5, 3.0)) * projector(random_pure_state(3, rng))
        beta = float(rng.uniform(0.0, 2.0))
        assert abs(work_term(thermal_state(h, beta), h, beta)) < 1e-12

    def test_aligned_qubit_round(self):
        phi = np.array([1.0, 0.0], dtype=complex)
        got = work_term(projector(phi), -projector(phi), 1.0)
        assert abs(got - WQ_D2_B1) < 1e-12

    @pytest.mark.parametrize("d,beta,omega", [(2, 1.0, 1.0), (4, 0.5, 2.0)])
    def test_maximally_mixed_input(self, d, beta, omega):
        rng = np.random.default_rng(14 + d)
        h = -omega * projector(random_pure_state(d, rng))
        z = math.exp(beta * omega) + d - 1
        expect = omega / d - omega * math.exp(beta * omega) / z
        assert abs(work_term(np.eye(d) / d, h, beta) - expect) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            work_term(np.eye(2) / 2, np.zeros((3, 3)), 1.0)


class TestAverageWork:
    def test_uncorrelated_inputs(self):
        # I/d (x) I/d leaves Bob maximally mixed for every round
        d, n = 3, 4
        mub = build_mub(d, n)
        rng = np.random.default_rng(15)
        povms = [projective_povm(random_unitary(d, rng).T) for _ in range(n)]
        asm = measure_assemblage(np.eye(d * d, dtype=complex) / d**2, povms)
        report = average_work(asm, mub, 1.0, 1.0)
        z = math.e + d - 1
        expect = 1.0 / d - math.e / z
        assert abs(report.average - expect) < 1e-12
        assert report.average <= w_classical(d, n, 1.0, 1.0)

    def test_exact_average_identity(self):
        report = run_exact_quantum(GameConfig(d=3, n=4))
        recomputed = float(np.sum(np.full((4, 3), 1.0 / 3) * report.per_round) / 4)
        assert abs(report.average - recomputed) < 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_generic_ceiling(self, seed):
        # no strategy beats omega * (1 - ground population)
        rng = np.random.default_rng(900 + seed)
        d = int(rng.choice([2, 3]))
        n = d + 1
        mub = build_mub(d, n)
        rho = random_density_matrix(d * d, rng)
        povms = [projective_povm(random_unitary(d, rng).T) for _ in range(n)]
        beta = float(rng.choice([0.0, 0.5, 1.0, 2.0]))
        report = average_work(measure_assemblage(rho, povms), mub, 1.0, beta)
        ceiling = 1.0 - ground_state_population(d, 1.0, beta)
        assert report.average <= ceiling + 1e-10


def eigen_work_table(asm, mub, omega, beta):
    # the general per-round ledger: diagonalize each unit-gap H, scale by omega
    table = np.zeros((asm.n, asm.outcomes))
    for x in range(asm.n):
        for a in range(asm.outcomes):
            if asm.p[x, a] >= P_EPS:
                h = hamiltonian(mub, a, x, 1.0)
                table[x, a] = omega * work_term(asm.conditional_state(x, a), h, beta * omega)
    return table


def sharp_mixed_assemblage(d, n, rng):
    # Alice's half sits in |0>, so basis 0 of her measurement never fires a >= 1
    e0 = np.zeros(d, dtype=complex)
    e0[0] = 1.0
    rho = tensor_product(projector(e0), random_density_matrix(d, rng))
    povms = [projective_povm(np.eye(d, dtype=complex))]
    povms += [projective_povm(random_unitary(d, rng).T) for _ in range(n - 1)]
    return measure_assemblage(rho, povms)


class TestWorkTable:
    @pytest.mark.parametrize("beta", [0.0, 0.37, 1.0, math.inf])
    @pytest.mark.parametrize("omega", [1e-3, 1.0, 1e6])
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_closed_form_matches_eigen_oracle(self, d, omega, beta):
        rng = np.random.default_rng(1000 + d)
        n = d + 1
        mub = build_mub(d, n)
        sharp = sharp_mixed_assemblage(d, n, rng)
        assert np.any(sharp.p < P_EPS)
        assemblages = [
            assemblage_from_model(random_lhs_model(d, n, rng)),
            measure_assemblage(random_density_matrix(d * d, rng),
                               [projective_povm(random_unitary(d, rng).T) for _ in range(n)]),
            sharp,
        ]
        for asm in assemblages:
            got = average_work(asm, mub, omega, beta).per_round
            assert np.max(np.abs(got - eigen_work_table(asm, mub, omega, beta))) <= 1e-12 * omega

    def test_non_hermitian_assemblage_rejected(self):
        # an anti-Hermitian shift between two outcomes keeps every trace and
        # the reduced states, so Assemblage accepts it; the work ledger must not
        d, n = 3, 4
        mub = build_mub(d, n)
        povms = [projective_povm(conjugate_basis(mub, x)) for x in range(n)]
        asm = measure_assemblage(maximally_entangled(d), povms)
        shift = 1e-6j * (projector(mub.vector(0, 0)) - projector(mub.vector(0, 1)))
        sigma = asm.sigma.copy()
        sigma[0, 0] += shift
        sigma[0, 1] -= shift
        bad = Assemblage(d=d, n=n, sigma=sigma, p=asm.p)
        with pytest.raises(ValueError, match="non-Hermitian inputs"):
            average_work(bad, mub, 1.0, 1.0)


class TestRunExactQuantum:
    def test_qubit_value(self):
        report = run_exact_quantum(GameConfig(d=2, n=3, omega=1.0, beta=1.0))
        assert abs(report.average - WQ_D2_B1) < 1e-10
        assert report.mode == "exact"

    def test_qutrit_value(self):
        report = run_exact_quantum(GameConfig(d=3, n=4, omega=1.0, beta=1.0))
        assert abs(report.average - 0.42388311523417089) < 1e-10

    @pytest.mark.parametrize("d,n", [(2, 2), (3, 2), (5, 6), (7, 8)])
    def test_infinite_temperature(self, d, n):
        report = run_exact_quantum(GameConfig(d=d, n=n, omega=2.0, beta=0.0))
        assert abs(report.average - 2.0 * (1 - 1 / d)) < 1e-10

    @pytest.mark.parametrize("d,n,beta", [(2, 3, 1.0), (3, 4, 0.5), (5, 6, 2.0), (2, 2, math.inf)])
    def test_matches_closed_form(self, d, n, beta):
        report = run_exact_quantum(GameConfig(d=d, n=n, omega=1.0, beta=beta))
        assert abs(report.average - w_quantum(d, 1.0, beta)) < 1e-10

    @pytest.mark.parametrize("mix,match", [
        # doubly stochastic: traces stay 1/d, one conditional state is worst
        ([[0.997, 0.003, 0.0], [0.003, 0.991, 0.006], [0.0, 0.006, 0.994]],
         r"conditional state \(1\|2\) has fidelity"),
        # columns sum to 1, so no signaling; p(0|2) deviates most
        ([[1.0, 0.006, 0.0], [0.0, 0.994, 0.003], [0.0, 0.0, 0.997]], r"p\(0\|2\) = "),
    ], ids=["fidelity", "probability"])
    def test_broken_identity_names_worst_round(self, monkeypatch, mix, match):
        genuine = game.measure_assemblage

        def corrupted(rho_ab, povms):
            asm = genuine(rho_ab, povms)
            sigma = asm.sigma.copy()
            sigma[2] = np.einsum("ab,bkl->akl", np.array(mix), sigma[2])
            return Assemblage(d=asm.d, n=asm.n, sigma=sigma, p=np.einsum("xaii->xa", sigma).real)

        monkeypatch.setattr(game, "measure_assemblage", corrupted)
        with pytest.raises(RuntimeError, match=match):
            run_exact_quantum(GameConfig(d=3, n=4))

    def test_memory_no_full_size_temporary(self):
        # rho_AB and the stacked effects take about 4.5 MB each at d = 23;
        # one more temporary of that size would cross the limit
        tracemalloc.start()
        try:
            run_exact_quantum(GameConfig(d=23, n=24))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, f"peak allocation {peak / 2**20:.1f} MB"

    def test_report_embeds_bounds(self):
        report = run_exact_quantum(GameConfig(d=2, n=3))
        assert report.w_classical == w_classical(2, 3, 1.0, 1.0)
        assert report.w_quantum == w_quantum(2, 1.0, 1.0)
        assert report.xi == pytest.approx(4.66778023896922317, abs=1e-10)


class TestRunMonteCarlo:
    def test_requires_shots(self):
        with pytest.raises(ValueError, match="shots"):
            run_monte_carlo(GameConfig(d=2, n=3, shots=0))

    def test_single_shot_is_one_round(self):
        report = run_monte_carlo(GameConfig(d=2, n=3, shots=1, seed=5))
        assert report.stderr == 0.0
        assert report.average in report.per_round

    def test_same_seed_bit_identical(self):
        a = run_monte_carlo(GameConfig(d=2, n=3, shots=2000, seed=9))
        b = run_monte_carlo(GameConfig(d=2, n=3, shots=2000, seed=9))
        assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())

    def test_stderr_shrinks_with_shots(self):
        small = run_monte_carlo(GameConfig(d=2, n=3, shots=100, seed=4))
        large = run_monte_carlo(GameConfig(d=2, n=3, shots=100000, seed=4))
        assert large.stderr <= small.stderr + 1e-18

    def test_mean_consistent_with_exact(self):
        exact = run_exact_quantum(GameConfig(d=2, n=3)).average
        report = run_monte_carlo(GameConfig(d=2, n=3, shots=100000, seed=7))
        # the protocol's rounds all pay the same work, so stderr collapses to
        # rounding noise; the comparison needs a machine-resolution floor
        floor = 8 * np.finfo(float).eps * max(1.0, abs(exact))
        assert abs(report.average - exact) <= 5 * report.stderr + floor

    def test_mode_and_metadata(self):
        report = run_monte_carlo(GameConfig(d=3, n=2, omega=2.0, beta=0.5, shots=10, seed=3))
        assert report.mode == "monte_carlo"
        assert report.shots == 10
        assert report.seed == 3
        assert report.per_round.shape == (2, 3)


class TestGameConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(d=1, n=3), dict(d=2, n=1), dict(d=2, n=3, omega=0.0),
        dict(d=2, n=3, omega=-1.0), dict(d=2, n=3, beta=-0.1),
        dict(d=2, n=3, shots=-1), dict(d=2, n=3, beta=math.nan),
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            GameConfig(**kwargs)

    def test_zero_temperature_flag(self):
        cfg = GameConfig(d=2, n=3, beta=math.inf)
        assert math.isinf(cfg.beta)
