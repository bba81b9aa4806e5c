import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from oracles import mub_first_worst_pair, overlap2
import steerwork.mub as mub
from steerwork.mub import (
    GRAM_TILE,
    MAX_BASES_BYTES,
    MAX_SCAN_WORKERS,
    MubConstructionError,
    SUPPORTED_FAMILIES,
    build_mub,
    check_family,
    check_supported,
    MR_EXACT_BELOW,
    is_prime,
    supported_family,
    verify_mub,
)

ODD_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23]


def exhaustive_overlap_check(bases, tol):
    # direct loop over every vector pair, independent of verify_mub
    n, d = bases.shape[:2]
    target_cross = 1.0 / np.sqrt(d)
    worst = 0.0
    for x in range(n):
        for a in range(d):
            for y in range(n):
                for b in range(d):
                    ov = abs(np.vdot(bases[x, a], bases[y, b]))
                    expect = (1.0 if a == b else 0.0) if x == y else target_cross
                    worst = max(worst, abs(ov - expect))
    assert worst < tol, f"worst deviation {worst:.3e}"
    return worst


class TestBuildMub:
    def test_qubit_pauli_family(self):
        bases = build_mub(2, 3)
        # basis 0 is computational (Z); bases are the Pauli eigenbases
        assert np.allclose(bases[0], np.eye(2))
        exhaustive_overlap_check(bases, 1e-12)
        for x in range(3):
            for y in range(x + 1, 3):
                for a in range(2):
                    for b in range(2):
                        ov = abs(np.vdot(bases[x, a], bases[y, b]))
                        assert abs(ov - 1 / np.sqrt(2)) < 1e-12

    def test_qubit_bases_are_the_pauli_literal(self):
        # Z, X and Y eigenbases, each vector a row; the quarter turns are exact
        s = 1 / np.sqrt(2)
        pauli = np.array([[[1, 0], [0, 1]], [[s, s], [s, -s]], [[s, 1j * s], [s, -1j * s]]],
                         dtype=complex)
        assert np.array_equal(build_mub(2, 3), pauli)
        assert np.array_equal(build_mub(2, 2), pauli[:2])

    def test_fourier_pair_d4(self):
        bases = build_mub(4, 2)
        assert np.allclose(bases[0], np.eye(4))
        cross = np.abs(bases[1].conj() @ bases[0].T)
        assert np.allclose(cross, 0.5, atol=1e-12)

    @pytest.mark.parametrize("d", [4, 6, 9, 10, 12, 64])
    def test_composite_pair_is_fourier(self, d):
        # phases reduced mod d before exp, whose argument then stays below 2 pi
        j = np.arange(d)
        dft = np.exp(2j * np.pi * (np.outer(j, j) % d) / d) / np.sqrt(d)
        assert np.allclose(build_mub(d, 2)[1], dft, rtol=0, atol=2e-15)

    @pytest.mark.parametrize("d", ODD_PRIMES + [61])
    def test_prime_pair_is_quadratic_phase(self, d):
        # for odd prime d the second basis is the x = 1 quadratic-phase basis,
        # the first two bases of the maximal family, not the Fourier basis
        j = np.arange(d)
        quad = np.exp(2j * np.pi * ((j * j + j[:, None] * j) % d) / d) / np.sqrt(d)
        pair = build_mub(d, 2)
        assert np.array_equal(pair, build_mub(d, d + 1)[:2])
        assert np.allclose(pair[1], quad, rtol=0, atol=2e-15)

    @pytest.mark.parametrize("d", range(2, 65))
    def test_every_family_to_rounding(self, d):
        # every supported n: each phase factor is a table entry, read by an
        # exponent reduced mod 4d, so an overlap misses by little more than
        # the rounding of its d-term sum
        for n in range(2, d + 2):
            if supported_family(d, n):
                report = verify_mub(build_mub(d, n))
                assert report.max_deviation <= 2e-15, (n, report)

    def test_qutrit_full_family(self):
        worst = exhaustive_overlap_check(build_mub(3, 4), 1e-12)
        assert worst < 1e-12

    @pytest.mark.parametrize("d", ODD_PRIMES)
    def test_odd_prime_maximal_family(self, d):
        report = verify_mub(build_mub(d, d + 1))
        assert report.passed, report

    @pytest.mark.parametrize("d,n", [(2, 2), (2, 3), (4, 2), (6, 2), (9, 2), (3, 3), (5, 4)])
    def test_supported_families_verify(self, d, n):
        assert supported_family(d, n)
        assert verify_mub(build_mub(d, n)).passed

    @pytest.mark.parametrize("d,n", [(4, 3), (6, 3), (9, 4), (8, 9), (2, 4), (3, 5), (2, 1),
                                     (5, 1)])
    def test_unsupported_raises(self, d, n):
        # one message for every in-domain pair without a construction, n = 1 included
        assert not supported_family(d, n)
        with pytest.raises(MubConstructionError) as err:
            build_mub(d, n)
        assert str(err.value) == (
            f"(d={d}, n={n}) not available; supported families: {SUPPORTED_FAMILIES}")

    @pytest.mark.parametrize("d, n, message", [
        (1, 2, "dimension must be >= 2, got d=1"),
        (0, 0, "dimension must be >= 2, got d=0"),
        (-5, 3, "dimension must be >= 2, got d=-5"),
        (3, 0, "basis count must be >= 1, got n=0"),
        (np.int64(2), np.int8(-1), "basis count must be >= 1, got n=-1"),
    ])
    def test_out_of_domain_is_a_value_error(self, d, n, message):
        # outside the game's domain d >= 2, n >= 1: a bad parameter, not a missing family
        for check in (build_mub, check_family, check_supported):
            with pytest.raises(ValueError) as err:
                check(d, n)
            assert not isinstance(err.value, MubConstructionError)
            assert str(err.value) == message

    def test_memory_bases_only(self):
        # the bases are written in place; stacking per-basis copies took 2x
        tracemalloc.start()
        try:
            bases = build_mub(61, 62)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * bases.nbytes, f"peak {peak / bases.nbytes:.2f} x the bases"

    @pytest.mark.parametrize("d, n, message", [
        (2.5, 3, "d must be an int, got 2.5"),
        (3.0, 4, "d must be an int, got 3.0"),
        (3, 4.0, "n must be an int, got 4.0"),
        (np.float64(5.0), 6, "d must be an int, got np.float64(5.0)"),
    ])
    def test_non_integer_parameter_is_named(self, d, n, message):
        with pytest.raises(ValueError) as err:
            build_mub(d, n)
        assert not isinstance(err.value, MubConstructionError)
        assert str(err.value) == message

    @pytest.mark.parametrize("d, n", [(5, 6), (7, 2), (2, 3), (43, 44), (10**9, 2)])
    def test_numpy_integers_are_accepted(self, d, n):
        if 16 * n * d * d > MAX_BASES_BYTES:
            # converted before the cap, so 16 n d^2 cannot wrap around in int64
            with pytest.raises(ValueError, match="above the cap"):
                build_mub(np.int64(d), np.int32(n))
            return
        ints = check_supported(np.int64(d), np.int32(n))
        assert ints == (d, n) and all(type(v) is int for v in ints)
        assert np.array_equal(build_mub(np.int64(d), np.int32(n)), build_mub(d, n))

    def test_cap_on_the_bases(self):
        # 16 n d^2 bytes: d = 401 with all d + 1 bases fits, d = 409 does not;
        # with n = 2 the cap bounds d itself
        check_supported(401, 402)
        check_supported(5792, 2)
        assert 16 * 402 * 401**2 <= MAX_BASES_BYTES < 16 * 410 * 409**2
        for d, n, size in [(409, 410, "1.02"), (1009, 1010, "15.3"), (5793, 2, "1"),
                           (10**18 + 3, 3, "4.47e+28")]:
            with pytest.raises(ValueError) as err:
                check_supported(d, n)
            assert not isinstance(err.value, MubConstructionError)
            assert str(err.value) == (f"(d={d}, n={n}) needs {size} GiB of bases "
                                      "(16*n*d^2 bytes), above the cap of 1 GiB")

    def test_cap_message_near_the_float_limit(self):
        # from about d = 8e157 on, 16 n d^2 / 2^30 GiB is past the float
        # range, although d itself is not; the figure stays finite
        for d, size in [(10**153, "2.98e+298"), (10**157, "2.98e+306"), (10**158, "2.98e+308"),
                        (10**300, "2.98e+592")]:
            with pytest.raises(ValueError) as err:
                check_supported(d, 2)
            assert str(err.value) == (f"(d={d}, n=2) needs {size} GiB of bases "
                                      "(16*n*d^2 bytes), above the cap of 1 GiB")

    def test_error_names_supported_families(self):
        with pytest.raises(MubConstructionError, match="odd prime"):
            build_mub(6, 3)


class TestVerifyMub:
    def test_passes_on_good_set(self):
        report = verify_mub(build_mub(3, 4))
        assert report.passed
        assert report.max_deviation < 1e-12

    def test_duplicated_basis_fails(self):
        eye = np.eye(2, dtype=complex)
        report = verify_mub(np.stack([eye, eye]))
        assert not report.passed
        # worst offender: a cross overlap of 0 against an expected 1/sqrt(2)
        assert abs(report.max_deviation - 1 / np.sqrt(2)) < 1e-12
        x, _, y, _ = report.worst_pair
        assert x != y
        # exact ties in every cross block: the first worst pair in block order wins
        report = verify_mub(np.stack([eye, eye, eye]))
        assert report.worst_pair == (0, 0, 1, 1)
        # the copy overwrites the first or the last basis, the edges of the block rows
        for dst, src in [(0, 1), (3, 0), (3, 2)]:
            bases = build_mub(3, 4).copy()
            bases[dst] = bases[src]
            report = verify_mub(bases)
            assert not report.passed
            assert abs(report.max_deviation - 1 / np.sqrt(3)) < 1e-12
            x, _, y, _ = report.worst_pair
            assert {x, y} == {dst, src}

    def test_denormalized_vector_fails(self):
        clean = build_mub(2, 3)
        for x in (0, 1, 2):
            bases = clean.copy()
            bases[x, 0] *= 0.9
            report = verify_mub(bases)
            assert not report.passed
            assert report.max_deviation > 0.05
            # the norm defect 1 - 0.81 outweighs every cross-overlap defect
            assert report.worst_pair == (x, 0, x, 0)

    def test_phase_perturbed_vector_fails(self):
        bases = build_mub(3, 4)
        # a common unitary keeps the set unbiased and makes basis 0 dense, so a
        # phase kick on one component is not a global phase there
        rng = np.random.default_rng(3)
        u, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        rotated = bases @ u.T
        assert verify_mub(rotated).passed
        for x in (0, 2, 3):
            bases = rotated.copy()
            bases[x, 1, 0] *= np.exp(1j * 1e-3)
            report = verify_mub(bases)
            assert not report.passed
            assert report.max_deviation > 1e-5
            wx, wa, wy, wb = report.worst_pair
            assert (x, 1) in [(wx, wa), (wy, wb)]

    @pytest.mark.parametrize("bad", [np.nan, complex(0.5, np.nan), np.inf])
    @pytest.mark.parametrize("x", [0, 5])
    def test_non_finite_amplitude_fails(self, x, bad):
        bases = build_mub(5, 6).copy()
        bases[x, 2, 3] = bad
        with np.errstate(invalid="ignore"):
            report = verify_mub(bases)
        assert not report.passed
        assert np.isnan(report.max_deviation)
        # every overlap with vector (x, 2) is NaN; the first such pair in
        # (x, a, y, b) order has vector (0, 0), although rows x > 0 hold NaNs too
        assert report.worst_pair == (0, 0, x, 2)

    @pytest.mark.parametrize("d", [2, 3, 5, 7])
    def test_matches_exhaustive_check(self, d):
        bases = build_mub(d, d + 1)
        report = verify_mub(bases)
        assert abs(report.max_deviation - exhaustive_overlap_check(bases, 1e-12)) <= 1e-15
        x, a, y, b = report.worst_pair
        ov = abs(np.vdot(bases[x, a], bases[y, b]))
        expect = (1.0 if a == b else 0.0) if x == y else 1.0 / np.sqrt(d)
        assert abs(abs(ov - expect) - report.max_deviation) <= 1e-15

    @pytest.mark.parametrize("d,n", [(d, n) for d in range(2, 14) for n in range(2, d + 2)
                                     if supported_family(d, n)])
    def test_matches_full_gram_oracle(self, d, n):
        bases = build_mub(d, n)
        report = verify_mub(bases)
        oracle_max, _ = mub_first_worst_pair(bases)
        # products computed in another blocking may differ in the last bit, so
        # the worst pair is checked to attain the maximum up to rounding
        assert abs(report.max_deviation - oracle_max) <= 1e-15
        x, a, y, b = report.worst_pair
        assert y >= x
        ov = abs(np.vdot(bases[x, a], bases[y, b]))
        expect = (1.0 if a == b else 0.0) if x == y else 1.0 / np.sqrt(d)
        assert abs(abs(ov - expect) - oracle_max) <= 1e-15

    @pytest.mark.parametrize("x", [0, 1, 3])
    def test_first_worst_pair_across_tiles(self, x):
        # Basis x is made computational, so block row x holds the components
        # of the bases y >= x exactly. Zeroing component 4 of a vector in the
        # row's first tile and component 1 of one in its second tile plants
        # two deviations of exactly 1/sqrt(d); every other one is at most
        # about 1/d. The first in (x, a, y, b) order lies in the later tile.
        y_early, y_late = x + 1, x + GRAM_TILE
        d = min(p for p in ODD_PRIMES if p + 1 > y_late)
        bases = build_mub(d, d + 1).copy()
        bases[[0, x]] = bases[[x, 0]]
        bases[y_early, 2, 4] = 0.0
        bases[y_late, 3, 1] = 0.0
        report = verify_mub(bases)
        assert report.max_deviation == 1.0 / np.sqrt(d)
        assert report.worst_pair == (x, 1, y_late, 3)
        assert (report.max_deviation, report.worst_pair) == mub_first_worst_pair(bases)

    def test_memory_one_block_row(self):
        # the full (nd)^2 Gram matrix at d = 61 would take about 440 MB and one
        # d x nd block row about 7 MB; a tile of GRAM_TILE bases takes 0.5 MB
        bases = build_mub(61, 62)
        tracemalloc.start()
        try:
            report = verify_mub(bases)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak < 2**20, f"peak allocation {peak / 2**20:.2f} MB"

    @pytest.mark.parametrize("shape", [(3, 3), (2, 3, 4), (0, 3, 3), (2, 0, 0), (1, 2, 2, 2)])
    def test_rejects_wrong_shape(self, shape):
        with pytest.raises(ValueError) as err:
            verify_mub(np.zeros(shape, dtype=complex))
        assert str(err.value) == f"bases must be a non-empty (n, d, d) array, got shape {shape}"

    @pytest.mark.parametrize("bases, dtype", [
        (np.eye(3, dtype=int)[None], np.dtype(int).name),
        (np.ones((2, 2, 2), dtype=bool), "bool"),
        (np.eye(2, dtype=object)[None], "object"),
        (np.eye(2)[None].tolist(), "list"),
    ])
    def test_rejects_non_numeric_dtype(self, bases, dtype):
        # an integer or bool array crashed inside the tiled scan with numpy's UFuncTypeError
        with pytest.raises(ValueError) as err:
            verify_mub(bases)
        assert str(err.value) == f"bases must be a float or complex array, got {dtype}"

    def test_real_bases_are_checked(self):
        hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        assert verify_mub(np.stack([np.eye(2), hadamard])).passed
        assert not verify_mub(np.stack([np.eye(4), np.eye(4)[::-1]])).passed

    def test_tolerance_semantics(self, monkeypatch):
        # a set passes when its worst deviation is at most ATOL, the bound included
        bases = build_mub(7, 8)
        worst = verify_mub(bases).max_deviation
        assert 0 < worst < 1e-14
        monkeypatch.setattr(mub, "ATOL", worst)
        assert verify_mub(bases).passed
        monkeypatch.setattr(mub, "ATOL", math.nextafter(worst, 0.0))
        assert not verify_mub(bases).passed
        monkeypatch.undo()
        # one vector scaled by 1 + eps deviates from its unit norm by about 2 eps
        for eps, passed in [(mub.ATOL / 4, True), (mub.ATOL, False)]:
            scaled = bases.copy()
            scaled[3, 2] *= 1 + eps
            assert verify_mub(scaled).passed is passed


class TestConjugateBasis:
    def test_real_bases_fixed(self):
        bases = build_mub(2, 3)
        for x in (0, 1):  # Z and X eigenbases are real
            assert np.allclose(bases[x].conj(), bases[x])

    def test_y_basis_swaps_phases(self):
        bases = build_mub(2, 3)
        got = bases[2].conj()
        s = 1 / np.sqrt(2)
        assert np.allclose(got, np.array([[s, -1j * s], [s, 1j * s]]))

    def test_fourier_conjugate_orthonormal(self):
        bases = build_mub(3, 2)
        conj = bases[1].conj()
        gram = conj.conj() @ conj.T
        assert np.allclose(gram, np.eye(3), atol=1e-12)

    def test_involution(self):
        bases = build_mub(5, 6)
        for x in range(6):
            twice = np.conj(bases[x].conj())
            for a in range(5):
                assert overlap2(twice[a], bases[x, a]) > 1 - 1e-12


def trial_division_is_prime(d):
    if d < 2:
        return False
    return all(d % k for k in range(2, math.isqrt(d) + 1))


class TestMisc:
    def test_is_prime(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61}
        for d in range(1, 65):
            assert is_prime(d) == (d in primes)

    def test_is_prime_matches_trial_division(self):
        for d in [*range(-3, 5000), *range(10**9 - 200, 10**9 + 200)]:
            assert is_prime(d) == trial_division_is_prime(d), d

    @pytest.mark.parametrize("d", [
        # Carmichael numbers and the least strong pseudoprimes to the first
        # k prime bases, up to k = 12 (the last one fools 2..37, not 41)
        561, 41041, 2047, 1373653, 25326001, 3215031751, 2152302898747,
        3474749660383, 341550071728321, 3825123056546413051,
        318665857834031151167461,
    ])
    def test_is_prime_rejects_strong_pseudoprimes(self, d):
        assert not is_prime(d)

    @pytest.mark.parametrize("d,expected", [
        (10**18 + 3, True), (2**61 - 1, True), (2**61 + 1, False),
        (MR_EXACT_BELOW - 2, False), ((2**61 - 1) * (2**19 - 1), False),
    ])
    def test_is_prime_large(self, d, expected):
        assert is_prime(d) is expected

    def test_is_prime_refuses_undecided_range(self):
        # MR_EXACT_BELOW itself is a strong pseudoprime to every witness
        with pytest.raises(ValueError, match="not decided"):
            is_prime(MR_EXACT_BELOW)


def verify_on(monkeypatch, cpus, bases):
    monkeypatch.setattr(mub, "_usable_cpus", lambda: cpus)
    return verify_mub(bases)


def exact(report):
    return report.passed, float(report.max_deviation).hex(), report.worst_pair


BLAS_VARIABLES = (*mub.BLAS_THREAD_VARIABLES, "MKL_NUM_THREADS")


def set_blas_env(monkeypatch, env):
    for name in BLAS_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)


# BLAS thread variables and the workers of a 62-basis scan on 2 CPUs. OpenBLAS
# takes the first variable that holds a positive integer and ignores MKL's.
SCAN_WORKERS_TABLE = [
    ({}, 1),
    ({"OPENBLAS_NUM_THREADS": "1"}, 2),
    ({"GOTO_NUM_THREADS": "1"}, 2),
    ({"OMP_NUM_THREADS": "1"}, 2),
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 1),
    ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 2),
    ({"OPENBLAS_NUM_THREADS": "x", "OMP_NUM_THREADS": "1"}, 2),
    ({"OPENBLAS_NUM_THREADS": "-1", "GOTO_NUM_THREADS": "1"}, 2),
    ({"OPENBLAS_NUM_THREADS": "5"}, 1),
    ({"MKL_NUM_THREADS": "1"}, 1),
    ({"OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "4"}, 2),
]


class TestScanWorkers:
    @pytest.mark.parametrize("blas", [None, 2, 4])
    def test_one_worker_beside_a_threaded_or_unknown_blas(self, monkeypatch, blas):
        # None sets no variable, and BLAS runs one thread per CPU
        def no_thread(*args, **kwargs):
            raise AssertionError("a helper thread was started")

        set_blas_env(monkeypatch, {} if blas is None else {"OPENBLAS_NUM_THREADS": str(blas)})
        monkeypatch.setattr(threading, "Thread", no_thread)
        bases = build_mub(13, 14)
        assert exact(verify_on(monkeypatch, 8, bases)) == exact(verify_on(monkeypatch, 1, bases))

    def test_two_workers_beside_a_one_thread_blas(self, monkeypatch):
        set_blas_env(monkeypatch, {"OPENBLAS_NUM_THREADS": "1"})
        for cpus, n, workers in [(1, 62, 1), (2, 62, 2), (8, 62, MAX_SCAN_WORKERS), (8, 1, 1)]:
            monkeypatch.setattr(mub, "_usable_cpus", lambda: cpus)
            assert mub._scan_workers(n) == workers

    @pytest.mark.parametrize("cpus", [2, 1])
    @pytest.mark.parametrize("env,workers", SCAN_WORKERS_TABLE)
    def test_workers_follow_openblas_rule(self, monkeypatch, env, workers, cpus):
        set_blas_env(monkeypatch, env)
        monkeypatch.setattr(mub, "_usable_cpus", lambda: cpus)
        assert mub._scan_workers(62) == (workers if cpus == 2 else 1)

    def test_usable_cpus_without_affinity(self, monkeypatch):
        # os.sched_getaffinity exists on Linux only
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        set_blas_env(monkeypatch, {"OPENBLAS_NUM_THREADS": "1"})
        assert mub._usable_cpus() == 3
        assert mub._scan_workers(62) == MAX_SCAN_WORKERS
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # undeterminable
        assert mub._usable_cpus() == 1

    @pytest.mark.parametrize("threads", [1, 2])
    def test_workers_in_a_fresh_process(self, threads):
        # the decision a new process makes from the variables it starts with
        env = {name: value for name, value in os.environ.items() if name not in BLAS_VARIABLES}
        env.update(OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", "import steerwork.mub as mub; "
                              "print(mub._usable_cpus(), mub._scan_workers(62))"],
                             env=env, capture_output=True, text=True, check=True).stdout.split()
        cpus = mub._usable_cpus()
        workers = min(MAX_SCAN_WORKERS, cpus) if threads == 1 else 1
        assert out == [str(cpus), str(workers)]


class TestParallelScan:
    @pytest.fixture(autouse=True)
    def one_thread_blas(self, monkeypatch):
        # the helpers start only beside a BLAS that runs on one thread
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    def test_memory_on_many_cpus(self, monkeypatch):
        # MAX_SCAN_WORKERS bounds the workers, and with them the peak, on
        # machines with more CPUs than this one
        monkeypatch.setattr(mub, "_usable_cpus", lambda: 8)
        bases = build_mub(61, 62)
        tracemalloc.start()
        try:
            report = verify_mub(bases)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak < 2**20, f"peak allocation {peak / 2**20:.2f} MB"

    @pytest.mark.parametrize("d,n", [(d, n) for d in range(2, 14) for n in range(2, d + 2)
                                     if supported_family(d, n)])
    def test_one_worker_equals_two(self, monkeypatch, d, n):
        bases = build_mub(d, n)
        assert exact(verify_on(monkeypatch, 1, bases)) == exact(verify_on(monkeypatch, 2, bases))

    def test_helper_error_reaches_caller(self, monkeypatch):
        # an infinite amplitude in the last basis makes every block row NaN;
        # under the caller's errstate each thread raises, whichever scans it
        bases = build_mub(13, 14).copy()
        bases[13, 4, 7] = np.inf
        escaped = []
        monkeypatch.setattr(threading, "excepthook", escaped.append)
        monkeypatch.setattr(mub, "_usable_cpus", lambda: 2)
        before = threading.active_count()
        with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
            verify_mub(bases)
        assert threading.active_count() == before
        assert escaped == []

    def test_helper_runs_under_callers_errstate(self, monkeypatch):
        # np.errstate is per thread; a helper must scan its rows under the caller's
        seen, block_row = {}, mub._block_row

        def recording(*args):
            seen.setdefault(threading.get_ident(), set()).add(tuple(sorted(np.geterr().items())))
            time.sleep(1e-3)  # so that both threads get rows
            return block_row(*args)

        monkeypatch.setattr(mub, "_block_row", recording)
        monkeypatch.setattr(mub, "_usable_cpus", lambda: 2)
        with np.errstate(invalid="raise", over="ignore", under="warn"):
            caller = tuple(sorted(np.geterr().items()))
            assert verify_mub(build_mub(13, 14)).passed
        assert len(seen) == 2
        assert all(states == {caller} for states in seen.values())

    @pytest.mark.parametrize("failing", ["helper", "caller"])
    def test_first_error_raised_after_join(self, monkeypatch, failing):
        # the failing thread raises at its first product, the other one keeps
        # scanning; either error reaches the caller only once both have ended
        caller, matmul = threading.get_ident(), np.matmul

        def product(*args, **kwargs):
            if (threading.get_ident() == caller) == (failing == "caller"):
                raise KeyError(failing)
            time.sleep(1e-3)  # so that the failing thread gets a row
            return matmul(*args, **kwargs)

        escaped = []
        monkeypatch.setattr(threading, "excepthook", escaped.append)
        monkeypatch.setattr(np, "matmul", product)
        monkeypatch.setattr(mub, "_usable_cpus", lambda: 2)
        before = threading.active_count()
        with pytest.raises(KeyError, match=failing):
            verify_mub(build_mub(13, 14))
        assert threading.active_count() == before
        assert escaped == []

    def test_interrupt_raised_after_join(self, monkeypatch):
        # a KeyboardInterrupt in the caller's own scan reaches the caller only
        # once the helper has ended, which then scans nothing more
        caller, matmul, helper_products = threading.get_ident(), np.matmul, []

        def product(*args, **kwargs):
            if threading.get_ident() == caller:
                raise KeyboardInterrupt
            time.sleep(1e-3)
            helper_products.append(args)
            return matmul(*args, **kwargs)

        escaped = []
        monkeypatch.setattr(threading, "excepthook", escaped.append)
        monkeypatch.setattr(np, "matmul", product)
        monkeypatch.setattr(mub, "_usable_cpus", lambda: 2)
        before = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            verify_mub(build_mub(13, 14))
        products = len(helper_products)
        assert threading.active_count() == before
        time.sleep(0.02)
        assert len(helper_products) == products
        assert escaped == []

    def test_shared_row_counter_under_contention(self, monkeypatch):
        # more workers than CPUs and a short switch interval; a row lost or
        # scanned out of turn would move the planted worst pair or crash the merge
        monkeypatch.setattr(mub, "MAX_SCAN_WORKERS", 6)
        bases = build_mub(11, 12).copy()
        bases[9, 3, 5] = 0.0
        reference = exact(verify_on(monkeypatch, 1, bases))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                assert exact(verify_on(monkeypatch, 6, bases)) == reference
        finally:
            sys.setswitchinterval(interval)
