import json
import math
import tracemalloc

import numpy as np
import pytest

from steerwork import game
from steerwork.bounds import _thermal_weights, evaluate_bounds
from oracles import (
    P_EPS,
    Assemblage,
    average_work,
    assemblage_from_model,
    conditional_state,
    dagger,
    expectation,
    fidelities,
    hamiltonian,
    maximally_entangled,
    measure_assemblage,
    min_eigenvalue,
    normalize,
    partial_trace_A,
    projective_povm,
    projector,
    protocol_assemblage,
    random_density_matrix,
    random_lhs_model,
    random_pure_state,
    random_unitary,
    tensor_product,
    thermal_state,
    work_term,
)
from steerwork.game import run_exact_quantum, run_monte_carlo
from steerwork.lhs import optimize_single_state
from steerwork.mub import MAX_SEED, SUPPORTED_FAMILIES, MubConstructionError, _seeded_rng
from steerwork.mub import build_mub

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


def protocol_tables(bases, sigma):
    # the arguments _check_protocol takes, formed as _quantum_protocol forms them
    p = np.einsum("xaii->xa", sigma).real
    fid = np.einsum("xaj,xajk,xak->xa", bases.conj(), sigma, bases) / p
    return [bases, p, fid, sigma.sum(axis=1)]


def mixed(mix):
    # protocol tables with the conditional states of setting 2 mixed by mix
    def corrupt(bases, sigma):
        sigma = sigma.copy()
        sigma[2] = np.einsum("ab,bkl->akl", np.array(mix), sigma[2])
        return protocol_tables(bases, sigma)
    return corrupt


def shifted(slot, shifts):
    # protocol tables with entries of table number slot shifted: (index, amount)
    def corrupt(bases, sigma):
        tables = protocol_tables(bases, sigma)
        table = tables[slot] = tables[slot].astype(complex if slot != 1 else float)
        for index, amount in shifts:
            table[index] += amount
        return tables
    return corrupt


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
                    assert np.allclose(conditional_state(asm, x, a), rho_b, atol=1e-10)

    def test_entangled_qubits_steer_to_basis_states(self):
        # conjugated-basis measurement on the maximally entangled pair
        # leaves Bob in the matching basis projector with p = 1/2
        bases = build_mub(2, 3)
        povms = [projective_povm(bases[x].conj()) for x in range(3)]
        asm = measure_assemblage(maximally_entangled(2), povms)
        for x in range(3):
            for a in range(2):
                assert abs(asm.p[x, a] - 0.5) < 1e-12
                fid = expectation(conditional_state(asm, x, a), bases[x, a])
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
        bases = build_mub(2, 3)
        assert np.allclose(hamiltonian(bases, 0, 0, 1.5), np.diag([-1.5, 0.0]), atol=1e-15)

    @pytest.mark.parametrize("d,n", [(2, 3), (3, 4), (5, 2)])
    def test_spectrum(self, d, n):
        bases = build_mub(d, n)
        for x in range(n):
            for a in range(d):
                h = hamiltonian(bases, a, x, 2.0)
                assert abs(min_eigenvalue(h) + 2.0) < 1e-12
                assert abs(np.trace(h).real + 2.0) < 1e-12

    def test_index_out_of_range(self):
        bases = build_mub(2, 2)
        with pytest.raises(IndexError):
            hamiltonian(bases, 2, 0, 1.0)
        with pytest.raises(IndexError):
            hamiltonian(bases, 0, 2, 1.0)


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
        bases = build_mub(d, n)
        rng = np.random.default_rng(15)
        povms = [projective_povm(random_unitary(d, rng).T) for _ in range(n)]
        asm = measure_assemblage(np.eye(d * d, dtype=complex) / d**2, povms)
        report = average_work(asm, bases, 1.0, 1.0)
        z = math.e + d - 1
        expect = 1.0 / d - math.e / z
        assert abs(report.average - expect) < 1e-12
        assert report.average <= evaluate_bounds(d, n, 1.0, 1.0).w_classical

    def test_exact_average_identity(self):
        report = run_exact_quantum(d=3, n=4)
        recomputed = float(np.sum(np.full((4, 3), 1.0 / 3) * report.per_round) / 4)
        assert abs(report.average - recomputed) < 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_generic_ceiling(self, seed):
        # no strategy beats omega * (1 - ground population)
        rng = np.random.default_rng(900 + seed)
        d = int(rng.choice([2, 3]))
        n = d + 1
        bases = build_mub(d, n)
        rho = random_density_matrix(d * d, rng)
        povms = [projective_povm(random_unitary(d, rng).T) for _ in range(n)]
        beta = float(rng.choice([0.0, 0.5, 1.0, 2.0]))
        report = average_work(measure_assemblage(rho, povms), bases, 1.0, beta)
        ceiling = 1.0 - _thermal_weights(d, 1.0, beta)[0]
        assert report.average <= ceiling + 1e-10


def eigen_work_table(asm, bases, omega, beta):
    # the general per-round ledger: diagonalize each unit-gap H, scale by omega
    table = np.zeros((asm.n, asm.outcomes))
    for x in range(asm.n):
        for a in range(asm.outcomes):
            if asm.p[x, a] >= P_EPS:
                h = hamiltonian(bases, a, x, 1.0)
                table[x, a] = omega * work_term(conditional_state(asm, x, a), h, beta * omega)
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
        bases = build_mub(d, n)
        sharp = sharp_mixed_assemblage(d, n, rng)
        assert np.any(sharp.p < P_EPS)
        assemblages = [
            assemblage_from_model(random_lhs_model(d, n, rng)),
            measure_assemblage(random_density_matrix(d * d, rng),
                               [projective_povm(random_unitary(d, rng).T) for _ in range(n)]),
            sharp,
        ]
        for asm in assemblages:
            got = average_work(asm, bases, omega, beta).per_round
            assert np.max(np.abs(got - eigen_work_table(asm, bases, omega, beta))) <= 1e-12 * omega

    def test_non_hermitian_assemblage_rejected(self):
        # an anti-Hermitian shift between two outcomes keeps every trace and
        # the reduced states, so Assemblage accepts it; the work ledger must not
        d, n = 3, 4
        bases = build_mub(d, n)
        povms = [projective_povm(bases[x].conj()) for x in range(n)]
        asm = measure_assemblage(maximally_entangled(d), povms)
        shift = 1e-6j * (projector(bases[0, 0]) - projector(bases[0, 1]))
        sigma = asm.sigma.copy()
        sigma[0, 0] += shift
        sigma[0, 1] -= shift
        bad = Assemblage(d=d, n=n, sigma=sigma, p=asm.p)
        with pytest.raises(ValueError, match="non-Hermitian inputs"):
            average_work(bad, bases, 1.0, 1.0)


class TestRunExactQuantum:
    def test_qubit_value(self):
        report = run_exact_quantum(d=2, n=3, omega=1.0, beta=1.0)
        assert abs(report.average - WQ_D2_B1) < 1e-10
        assert report.mode == "exact"

    def test_qutrit_value(self):
        report = run_exact_quantum(d=3, n=4, omega=1.0, beta=1.0)
        assert abs(report.average - 0.42388311523417089) < 1e-10

    @pytest.mark.parametrize("d,n", [(2, 2), (3, 2), (5, 6), (7, 8)])
    def test_infinite_temperature(self, d, n):
        report = run_exact_quantum(d=d, n=n, omega=2.0, beta=0.0)
        assert abs(report.average - 2.0 * (1 - 1 / d)) < 1e-10

    @pytest.mark.parametrize("d,n,beta", [(2, 3, 1.0), (3, 4, 0.5), (5, 6, 2.0), (2, 2, math.inf)])
    def test_matches_closed_form(self, d, n, beta):
        report = run_exact_quantum(d=d, n=n, omega=1.0, beta=beta)
        assert abs(report.average - evaluate_bounds(d, n, 1.0, beta).w_quantum) < 1e-10

    @pytest.mark.parametrize("corrupt,match", [
        # doubly stochastic: traces stay 1/d, one conditional state is worst
        (mixed([[0.997, 0.003, 0.0], [0.003, 0.991, 0.006], [0.0, 0.006, 0.994]]),
         r"conditional state \(1\|2\) has fidelity"),
        # columns sum to 1, so no signaling; p(0|2) deviates most
        (mixed([[1.0, 0.006, 0.0], [0.0, 0.994, 0.003], [0.0, 0.0, 0.997]]),
         r"p\(0\|2\) = 0\."),
        (shifted(0, [((1, 2, 0), 3e-10), ((3, 0, 1), 1e-9)]), r"setting 3 is incomplete"),
        (shifted(1, [((1, 0), 3e-10), ((2, 1), -1e-9)]),
         r"outcome probabilities of setting 2 miss 1 by 1\.000e-09"),
        (shifted(3, [((1, 0, 0), 3e-10), ((2, 1, 2), 1e-9j)]),
         r"assemblage signals: reduced state of setting 2 differs from setting 0 by 1\.000e-09"),
        (shifted(2, [((1, 2), 3e-10j), ((3, 0), -1e-9j)]),
         r"conditional state \(0\|3\) has \|Im F\| = 1\.000e-09"),
        (shifted(2, [((1, 2), 1e-9), ((3, 1), math.nan)]),
         r"conditional state \(1\|3\) has fidelity nan"),
    ], ids=["fidelity", "probability", "completeness", "normalization", "signalling",
            "imaginary", "nan"])
    def test_broken_identity_names_worst_round(self, corrupt, match):
        bases = build_mub(3, 4)
        tables = corrupt(bases, protocol_assemblage(bases).sigma)
        with pytest.raises(RuntimeError, match="protocol identity broken: " + match):
            game._check_protocol(*tables)

    def test_broken_average_names_ceiling(self, monkeypatch):
        # the checked tables always give mean = 1 - P; unchecked ones need not
        p, fid = np.full((4, 3), 1.0 / 3), np.ones((4, 3))
        fid[1, 2] -= 1e-6
        monkeypatch.setattr(game, "_quantum_protocol", lambda d, n: (p, fid))
        with pytest.raises(RuntimeError, match="deviates from the quantum ceiling"):
            run_exact_quantum(d=3, n=4)

    @pytest.mark.parametrize("d, n, message", [
        (2.5, 3, "d must be an int, got 2.5"),
        (3.0, 4, "d must be an int, got 3.0"),
        (3, 4.0, "n must be an int, got 4.0"),
    ])
    def test_non_integer_parameter_is_named(self, d, n, message):
        for run in (run_exact_quantum, lambda d, n: run_monte_carlo(d, n, shots=10)):
            with pytest.raises(ValueError) as err:
                run(d, n)
            assert str(err.value) == message

    @staticmethod
    def traced_peak(d, n):
        tracemalloc.start()
        try:
            run_exact_quantum(d, n)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_memory_no_full_size_temporary(self):
        # the real rho_AB takes 2.1 MiB at d = 23 and one setting's effects and
        # sigma 0.2 MiB each; a complex rho alone (4.3 MiB), or one more
        # temporary the size of rho, would cross the limit
        peak = self.traced_peak(23, 24)
        assert peak < 4 * 2**20, f"peak allocation {peak / 2**20:.2f} MiB"

    def test_memory_does_not_grow_with_settings(self):
        # settings are measured one at a time, so 22 more of them add no
        # stack of effects or sigma to the peak (8.4 MiB if they were stacked)
        growth = self.traced_peak(23, 24) - self.traced_peak(23, 2)
        assert growth < 2**20, f"24 settings peak {growth / 2**20:.2f} MiB above 2"

    def test_report_embeds_bounds(self):
        report = run_exact_quantum(d=2, n=3)
        assert report.w_classical == evaluate_bounds(2, 3, 1.0, 1.0).w_classical
        assert report.w_quantum == evaluate_bounds(2, 3, 1.0, 1.0).w_quantum
        assert report.xi == pytest.approx(4.66778023896922317, abs=1e-10)


@pytest.mark.parametrize("shots", [0, 1000])
def test_one_fidelity_table_per_run(monkeypatch, shots):
    # the protocol's identity check and its work table read the same F
    checked = []
    genuine = game._check_protocol
    monkeypatch.setattr(game, "_check_protocol",
                        lambda *tables: checked.append(tables[2]) or genuine(*tables))
    report = (run_monte_carlo(3, 4, 2.0, shots=shots) if shots
              else run_exact_quantum(3, 4, 2.0))
    assert len(checked) == 1
    pop = _thermal_weights(3, 2.0, 1.0)[0]
    assert np.array_equal(report.per_round, 2.0 * (checked[0].real - pop))


@pytest.mark.parametrize("d", [2, 3, 5, 23])
def test_rounding_residue_scales_with_omega(d):
    # each round's F - P carries about eps of rounding, which omega scales:
    # where P rounds to 1 (omega = 1.7e308), average and per_round sit up to
    # 5.2 and 8 eps * omega from w_quantum = 0 at d = 23; where they are
    # subnormal, one step of that grid more (the -0 of beta = inf)
    eps = np.finfo(float).eps
    for omega, beta in [(1.0, 1.0), (1.7e308, 1.0), (2.2e-308, math.inf)]:
        bound = d * eps * omega + math.ulp(0.0)
        for report in (run_exact_quantum(d, d + 1, omega, beta),
                       run_monte_carlo(d, d + 1, omega, beta, shots=100, seed=d)):
            assert abs(report.average - report.w_quantum) <= bound, (omega, report.mode)
            assert np.max(np.abs(report.per_round - report.w_quantum)) <= bound, omega


@pytest.mark.parametrize("d,n", [(2, 3), (3, 4), (4, 2), (5, 6), (6, 2), (7, 8), (11, 12),
                                 (23, 24)])
def test_protocol_tables_match_dense_oracle(d, n):
    # the production tables, from a real rho, and the general measurement
    # path with a complex rho, bit for bit
    bases = build_mub(d, n)
    asm = protocol_assemblage(bases)
    p, fid = game._quantum_protocol(d, n)
    assert np.array_equal(p, asm.p)
    assert np.array_equal(fid, fidelities(asm, bases))


class TestIsotropicState:
    # rho_eta = eta Phi + (1 - eta) I/d^2 in the conjugated bases: every round
    # has p = 1/d and F = eta + (1 - eta)/d, so the average crosses the
    # classical ceiling at eta = 1/sqrt(n); at d = 2, n = 3 that is the 1/sqrt(3)
    # Pauli steering threshold of the two-qubit Werner state

    @staticmethod
    def assemblage(bases, eta):
        d = bases.shape[1]
        rho = eta * maximally_entangled(d) + (1.0 - eta) * np.eye(d * d) / d**2
        return measure_assemblage(rho, projective_povm(bases.conj()))

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_flat_rounds(self, d):
        bases = build_mub(d, d + 1)
        for eta in [0.0, 0.25, 1.0 / math.sqrt(d + 1), 0.8, 1.0]:
            asm = self.assemblage(bases, eta)
            assert np.max(np.abs(asm.p - 1.0 / d)) <= 1e-15
            assert np.max(np.abs(fidelities(asm, bases) - (eta + (1.0 - eta) / d))) <= 1e-15

    @pytest.mark.parametrize("omega,beta", [(1.0, 1.0), (1e-3, 0.0), (3.7, 0.7),
                                            (1e6, 0.37), (1.0, math.inf)])
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_crosses_classical_ceiling_at_threshold(self, d, omega, beta):
        n = d + 1
        bases = build_mub(d, n)
        threshold = 1.0 / math.sqrt(n)
        gap = {}
        for step in (-1, 0, 1):
            asm = self.assemblage(bases, threshold + step * 1e-6)
            report = average_work(asm, bases, omega, beta)
            gap[step] = report.average - report.w_classical
        assert gap[-1] < 0 < gap[1]
        assert abs(gap[0]) <= 1e-12 * omega


class TestRunMonteCarlo:
    def test_requires_shots(self):
        with pytest.raises(ValueError, match="shots"):
            run_monte_carlo(d=2, n=3, shots=0)

    def test_single_shot_is_one_round(self):
        report = run_monte_carlo(d=2, n=3, shots=1, seed=5)
        assert report.stderr == 0.0
        assert report.average in report.per_round

    def test_same_seed_bit_identical(self):
        a = run_monte_carlo(d=2, n=3, shots=2000, seed=9)
        b = run_monte_carlo(d=2, n=3, shots=2000, seed=9)
        assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())

    def test_stderr_shrinks_with_shots(self):
        small = run_monte_carlo(d=2, n=3, shots=100, seed=4)
        large = run_monte_carlo(d=2, n=3, shots=100000, seed=4)
        assert large.stderr <= small.stderr + 1e-18

    def test_mean_consistent_with_exact(self):
        exact = run_exact_quantum(d=2, n=3).average
        report = run_monte_carlo(d=2, n=3, shots=100000, seed=7)
        # the protocol's rounds all pay the same work, so stderr collapses to
        # rounding noise; the comparison needs a machine-resolution floor
        floor = 8 * np.finfo(float).eps * max(1.0, abs(exact))
        assert abs(report.average - exact) <= 5 * report.stderr + floor

    def test_mode_and_metadata(self):
        report = run_monte_carlo(d=3, n=2, omega=2.0, beta=0.5, shots=10, seed=3)
        assert report.mode == "monte_carlo"
        assert report.shots == 10
        assert report.seed == 3
        assert report.per_round.shape == (2, 3)

    def test_moments_match_per_shot_formula(self, monkeypatch):
        # a table that varies across rounds, so mean and stderr are not
        # rounding noise; the reference expands the histogram shot by shot
        p = np.full((4, 5), 0.2)
        fid = np.linspace(0.1, 1.4, 20).reshape(4, 5)
        monkeypatch.setattr(game, "_quantum_protocol", lambda d, n: (p, fid))
        report = run_monte_carlo(d=5, n=4, omega=3.0, shots=5000, seed=2)
        table = fid - _thermal_weights(5, 3.0, 1.0)[0]
        counts = game._sample_rounds(p, 5000, _seeded_rng(2))
        works = np.repeat(table.ravel(), counts.ravel())
        assert report.average == pytest.approx(3.0 * works.mean(), rel=1e-13)
        assert report.stderr == pytest.approx(3.0 * works.std(ddof=1) / math.sqrt(5000),
                                              rel=1e-12)

    def test_memory_independent_of_shots(self):
        # one draw per shot would hold at least 8 MB per array at 10^6 shots
        tracemalloc.start()
        try:
            run_monte_carlo(d=5, n=6, shots=10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, f"peak allocation {peak / 2**20:.1f} MB"


class TestSampleRounds:
    # one zero-probability outcome per setting: first, middle and last
    P = np.array([[0.0, 0.25, 0.75], [0.5, 0.0, 0.5], [0.2, 0.8, 0.0]])

    @pytest.mark.parametrize("shots", [1, game.CHUNK - 1, game.CHUNK, game.CHUNK + 1])
    def test_counts_cover_every_shot(self, shots):
        counts = game._sample_rounds(self.P, shots, _seeded_rng(4))
        assert counts.shape == (3, 3) and counts.dtype == np.int64
        assert counts.sum() == shots
        assert np.all(counts[self.P == 0.0] == 0)

    def test_chi_square_against_round_law(self):
        shots = 10 * game.CHUNK + 1
        counts = game._sample_rounds(self.P, shots, _seeded_rng(11))
        positive = self.P > 0
        expected = shots * self.P[positive] / 3
        chi2 = float(np.sum((counts[positive] - expected) ** 2 / expected))
        # 5 degrees of freedom: the 99.9% quantile is 20.5
        assert chi2 < 20.5, chi2

    def test_matches_clamped_count_reference(self):
        # the earlier per-shot rule on the same draws: count every CDF column
        # that u reaches, then clamp to the last outcome
        shots, seed = 2 * game.CHUNK + 7, 5
        n, m = self.P.shape
        cdf = np.cumsum(self.P, axis=1)
        rng = np.random.Generator(np.random.Philox(key=seed))
        expected = np.zeros((n, m), dtype=np.int64)
        for start in range(0, shots, game.CHUNK):
            k = min(game.CHUNK, shots - start)
            x, u = rng.integers(0, n, k), rng.random(k)
            np.add.at(expected, (x, np.minimum((cdf[x] <= u[:, None]).sum(axis=1), m - 1)), 1)
        assert np.array_equal(game._sample_rounds(self.P, shots, _seeded_rng(seed)), expected)

    def test_seed_determines_counts(self):
        a = game._sample_rounds(self.P, 1000, _seeded_rng(6))
        assert np.array_equal(a, game._sample_rounds(self.P, 1000, _seeded_rng(6)))
        assert not np.array_equal(a, game._sample_rounds(self.P, 1000, _seeded_rng(7)))


class TestGameConfig:
    # the game's parameters are plain arguments of the run functions, which
    # validate them in one prologue; only Monte Carlo takes shots and a seed
    @pytest.mark.parametrize("kwargs", [
        dict(d=1, n=3), dict(d=2, n=1), dict(d=2, n=3, omega=0.0),
        dict(d=2, n=3, omega=-1.0), dict(d=2, n=3, beta=-0.1),
        dict(d=2, n=3, shots=-1), dict(d=2, n=3, beta=math.nan),
        dict(d=2, n=3, omega=math.inf),
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            run_monte_carlo(**{"shots": 10, **kwargs})
        if "shots" not in kwargs:
            with pytest.raises(ValueError):
                run_exact_quantum(**kwargs)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(d=1, n=3), "dimension must be >= 2, got d=1"),
        (dict(d=2, n=0), "basis count must be >= 1, got n=0"),
        (dict(d=2, n=3, omega=0.0), "energy gap must be finite and positive, got omega=0.0"),
        (dict(d=2, n=3, omega=-1.0), "energy gap must be finite and positive, got omega=-1.0"),
        (dict(d=2, n=3, beta=-0.1), "inverse temperature must be >= 0, got beta=-0.1"),
        (dict(d=2, n=3, beta=math.nan), "inverse temperature must be >= 0, got beta=nan"),
        (dict(d=2, n=3, omega=math.inf), "energy gap must be finite and positive, got omega=inf"),
    ])
    @pytest.mark.parametrize("shots", [0, 10])
    def test_message_names_the_bad_parameter(self, kwargs, message, shots):
        with pytest.raises(ValueError) as err:
            if shots:
                run_monte_carlo(**kwargs, shots=shots)
            else:
                run_exact_quantum(**kwargs)
        assert str(err.value) == message

    @pytest.mark.parametrize("shots", [0, 10])
    def test_single_basis_has_no_construction(self, shots):
        # n = 1 is in the game's domain, but no MUB family has one basis
        with pytest.raises(MubConstructionError) as err:
            if shots:
                run_monte_carlo(2, 1, shots=shots)
            else:
                run_exact_quantum(2, 1)
        assert str(err.value) == (
            f"(d=2, n=1) not available; supported families: {SUPPORTED_FAMILIES}")

    def test_negative_shots_message(self):
        with pytest.raises(ValueError) as err:
            run_monte_carlo(d=2, n=3, shots=-1)
        assert str(err.value) == "Monte Carlo needs shots >= 1, got -1"

    @pytest.mark.parametrize("name", ["shots", "seed"])
    def test_exact_mode_takes_no_sampling_arguments(self, name):
        # a shot count or seed cannot be passed to exact mode and then ignored
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
            run_exact_quantum(d=3, n=4, **{name: 7})

    def test_zero_temperature_flag(self):
        report = run_exact_quantum(d=2, n=3, beta=math.inf)
        assert math.isinf(report.beta)


class TestIntegerArguments:
    # every library entry turns its integer arguments into Python ints,
    # so that a report serializes whatever integer type the caller passed
    @pytest.mark.parametrize("call", [
        lambda: evaluate_bounds(np.int64(3), 4, 1.0, 1.0),
        lambda: run_exact_quantum(np.int64(3), np.int64(4)),
        lambda: run_monte_carlo(3, 4, shots=10, seed=np.int64(2)),
        lambda: run_monte_carlo(np.int32(3), 4, shots=np.uint8(10)),
        lambda: optimize_single_state(build_mub(3, 4), restarts=np.int64(2),
                                      seed=np.int64(1)),
    ], ids=["bounds", "exact", "monte_carlo_seed", "monte_carlo_shots", "optimizer"])
    def test_report_round_trips_json(self, call):
        payload = call().to_json_dict()
        assert json.loads(json.dumps(payload)) == payload

    @pytest.mark.parametrize("name, call", [
        ("d", lambda: evaluate_bounds(2.5, 3, 1.0, 1.0)),
        ("n", lambda: evaluate_bounds(3, 4.0, 1.0, 1.0)),
        ("shots", lambda: run_monte_carlo(3, 4, shots=2.5)),
        ("seed", lambda: run_monte_carlo(3, 4, shots=10, seed=2.5)),
        ("restarts", lambda: optimize_single_state(build_mub(2, 3), restarts=2.5)),
        ("seed", lambda: optimize_single_state(build_mub(2, 3), seed=np.float64(1.0))),
    ], ids=["bounds_d", "bounds_n", "shots", "monte_carlo_seed", "restarts",
            "optimizer_seed"])
    def test_non_integral_argument_is_named(self, name, call):
        with pytest.raises(ValueError, match=f"^{name} must be an int, got "):
            call()

    @pytest.mark.parametrize("name, call", [
        ("d", lambda: evaluate_bounds(10**400, 3, 1.0, 1.0)),
        ("n", lambda: evaluate_bounds(3, -10**400, 1.0, 1.0)),
        ("d", lambda: run_exact_quantum(10**400, 3)),
        ("d", lambda: run_monte_carlo(10**400, 3, shots=10)),
        ("d", lambda: build_mub(10**400, 2)),
        ("n", lambda: build_mub(3, 10**400)),
    ], ids=["bounds_d", "bounds_n", "exact", "monte_carlo", "mub_d", "mub_n"])
    def test_oversize_argument_is_named(self, name, call):
        # an int beyond the float range is refused before any formula rounds it
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == f"{name} must fit in a float, got a 1329-bit {name}"


class TestSeedRange:
    # both seeded functions key one Philox stream, so they take one seed range;
    # the optimizer once ran at seeds of 2**128 and above, which Philox refuses
    SEEDED = [lambda seed: run_monte_carlo(2, 3, shots=10, seed=seed),
              lambda seed: optimize_single_state(build_mub(2, 3), restarts=1, seed=seed)]

    @pytest.mark.parametrize("run", SEEDED, ids=["monte_carlo", "optimizer"])
    @pytest.mark.parametrize("seed", [0, MAX_SEED])
    def test_seed_range_ends_are_accepted(self, run, seed):
        run(seed)

    @pytest.mark.parametrize("run", SEEDED, ids=["monte_carlo", "optimizer"])
    @pytest.mark.parametrize("seed", [-1, MAX_SEED + 1])
    def test_seed_outside_the_range_is_refused(self, run, seed):
        with pytest.raises(ValueError) as err:
            run(seed)
        assert str(err.value) == f"seed must be between 0 and {2**128 - 1}, got {seed}"
