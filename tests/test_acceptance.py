"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines;
every tolerance is pinned here, not configurable.
"""

import json
import math
import time
from contextlib import contextmanager

import mpmath
import numpy as np
import pytest

from oracles import (
    average_work,
    bloch_grid_search,
    conditional_state,
    expectation,
    lhs_work,
    measure_assemblage,
    projective_povm,
    protocol_assemblage,
    random_density_matrix,
    random_lhs_model,
    random_unitary,
)
from steerwork.bounds import _thermal_weights, evaluate_bounds, work_above_reset
from steerwork.cli import main as cli_main
from steerwork.game import run_exact_quantum, run_monte_carlo
from steerwork.lhs import optimize_single_state
from steerwork.mub import build_mub, supported_family, verify_mub

BETA_PALETTE = [0.0, 0.5, 1.0, 2.0, math.inf]


@contextmanager
def criterion(label):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] {label}: FAIL ({time.perf_counter() - start:.2f}s)")
        raise
    print(f"[ACCEPTANCE] {label}: PASS ({time.perf_counter() - start:.2f}s)")


def eq16_oracle(d, omega, beta):
    """Independent high-precision evaluation of the quantum work ceiling."""
    with mpmath.workdps(50):
        ebw = mpmath.exp(mpmath.mpf(beta) * mpmath.mpf(omega))
        val = mpmath.mpf(omega) * (1 - ebw / (ebw + d - 1))
        return float(val)


def test_criterion_1_quantum_protocol_reproduction():
    with criterion("1 quantum protocol reproduction"):
        for d, n, printed in [(2, 3, 0.26894142), (3, 4, 0.42388307)]:
            start = time.perf_counter()
            report = run_exact_quantum(d=d, n=n, omega=1.0, beta=1.0)
            elapsed = time.perf_counter() - start
            oracle = eq16_oracle(d, 1.0, 1.0)
            assert abs(report.average - oracle) < 1e-9, (d, n, report.average, oracle)
            # the quoted 8-digit round-offs are met at their print precision
            assert abs(report.average - printed) < 5e-7
            assert elapsed < 1.0, f"(d={d}, n={n}) took {elapsed:.3f}s"


def test_criterion_2_assemblage_identity():
    with criterion("2 steered-assemblage identity"):
        start = time.perf_counter()
        from steerwork.game import _quantum_protocol

        for d in [2, 3, 5, 7, 11, 13]:
            n_max = 3 if d == 2 else d + 1
            for n in range(2, n_max + 1):
                p, fid = _quantum_protocol(d, n)
                bases = build_mub(d, n)
                asm = protocol_assemblage(bases)
                for x in range(n):
                    for a in range(d):
                        steered = expectation(conditional_state(asm, x, a), bases[x, a])
                        assert min(fid[x, a], steered) > 1 - 1e-10, (d, n, x, a, fid, steered)
                        assert abs(p[x, a] - 1.0 / d) <= 1e-10, (d, n, x, a)
        assert time.perf_counter() - start < 30.0


def test_criterion_3_lhs_never_beats_classical_bound():
    with criterion("3 unsteerable models respect the classical ceiling"):
        start = time.perf_counter()
        rng = np.random.default_rng(2024)
        for d in [2, 3, 5]:
            n = d + 1
            bases = build_mub(d, n)
            for _ in range(1000):
                beta = float(rng.choice(BETA_PALETTE))
                model = random_lhs_model(d, n, rng)
                work = lhs_work(model, bases, 1.0, beta)
                cap = evaluate_bounds(d, n, 1.0, beta).w_classical
                assert work <= cap + 1e-8, (d, beta, work, cap)
        assert time.perf_counter() - start < 120.0


def test_criterion_4_qubit_tightness():
    with criterion("4 qubit ceiling is attained"):
        target = 0.78867513  # (1 + 1/sqrt(3))/2 to the quoted digits
        bases = build_mub(2, 3)
        opt = optimize_single_state(bases, restarts=32, seed=0)
        grid = bloch_grid_search(bases)
        assert abs(opt.objective - target) < 1e-6
        assert abs(grid.objective - target) < 1e-6
        for beta in [0.0, 0.5, 1.0, 2.0]:
            # the pricing of lhs-opt: one bound set, the optimizer, the work shape
            bs = evaluate_bounds(2, 3, 1.0, beta)
            result = optimize_single_state(build_mub(bs.d, bs.n), restarts=32, seed=0)
            achievable = work_above_reset(1.0, result.objective, bs.population)
            assert abs(achievable - evaluate_bounds(2, 3, 1.0, beta).w_classical) < 1e-6
            assert abs(bs.w_classical - evaluate_bounds(2, 3, 1.0, beta).w_classical) < 1e-15


def test_criterion_5_scaling_table(tmp_path):
    with criterion("5 advantage scaling table"):
        start = time.perf_counter()
        dims = "2,3,5,7,11,13,17,19,23"

        out = tmp_path / "scan_b1.csv"
        assert cli_main(["scan", "--dims", dims, "--omega", "1", "--beta", "1",
                         "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "d,n,omega,beta,w_classical,w_quantum,xi,xi_over_sqrt_d"
        xis = [float(line.split(",")[6]) for line in lines[1:]]
        assert len(xis) == 9
        assert all(b > a for a, b in zip(xis, xis[1:])), "xi must increase with d"
        assert abs(xis[0] - 4.66778) < 1e-4

        out0 = tmp_path / "scan_b0.csv"
        assert cli_main(["scan", "--dims", dims, "--omega", "1", "--beta", "0",
                         "--out", str(out0)]) == 0
        for line in out0.read_text().strip().split("\n")[1:]:
            cells = line.split(",")
            d, xi_val = int(cells[0]), float(cells[6])
            assert abs(xi_val - math.sqrt(d + 1)) < 1e-9
        assert time.perf_counter() - start < 10.0


def test_criterion_6_advantage_from_two_bases():
    with criterion("6 two bases suffice for an advantage"):
        for d in range(2, 65):
            assert evaluate_bounds(d, 2, 1.0, 1.0).advantage, d


def test_criterion_7_generic_ceiling():
    with criterion("7 generic work ceiling"):
        rng = np.random.default_rng(777)
        for d in [2, 3]:
            n = d + 1
            bases = build_mub(d, n)
            for _ in range(250):
                beta = float(rng.choice(BETA_PALETTE))
                rho = random_density_matrix(d * d, rng)
                povms = [projective_povm(random_unitary(d, rng).T) for _ in range(n)]
                report = average_work(measure_assemblage(rho, povms), bases, 1.0, beta)
                ceiling = 1.0 - _thermal_weights(d, 1.0, beta)[0]
                assert report.average <= ceiling + 1e-8, (d, beta, report.average)


def test_criterion_8_monte_carlo_statistics():
    with criterion("8 Monte Carlo statistics"):
        exact = run_exact_quantum(d=2, n=3, omega=1.0, beta=1.0).average
        # The protocol pays identical work every round, so the sample spread
        # is pure rounding noise; the 5-sigma band therefore gets a
        # machine-resolution floor (~1e-15), far below any physical scale.
        floor = 8 * np.finfo(float).eps * max(1.0, abs(exact))
        hits = 0
        for seed in range(100):
            rep = run_monte_carlo(d=2, n=3, omega=1.0, beta=1.0, shots=100_000, seed=seed)
            if abs(rep.average - exact) <= 5 * rep.stderr + floor:
                hits += 1
        assert hits >= 99, f"only {hits}/100 runs within the 5-sigma band"

        a = run_monte_carlo(d=2, n=3, shots=100_000, seed=12345)
        b = run_monte_carlo(d=2, n=3, shots=100_000, seed=12345)
        assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())


def test_criterion_9_mub_certification():
    with criterion("9 MUB certification and corruption detection"):
        for d in range(2, 24):
            configs = [(d, 2)]
            if d == 2:
                configs.append((2, 3))
            elif supported_family(d, d + 1):
                configs.append((d, d + 1))
            for dd, n in configs:
                report = verify_mub(build_mub(dd, n))
                assert report.passed, (dd, n, report.max_deviation)

        clean = build_mub(3, 4)

        duplicated = clean.copy()
        duplicated[2] = duplicated[1]
        assert not verify_mub(duplicated).passed

        denormalized = clean.copy()
        denormalized[1, 0] *= 0.9
        assert not verify_mub(denormalized).passed

        phased = clean.copy()
        phased[2, 1, 0] *= np.exp(1j * 1e-3)
        assert not verify_mub(phased).passed
