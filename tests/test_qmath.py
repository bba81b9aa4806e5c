"""Dense linear algebra: the references in oracles, and lhs's random pure
states and principal eigenvector (the former steerwork.qmath, removed in 0.5.0).
"""

import numpy as np
import pytest

from oracles import (
    check_density_matrix,
    check_povm,
    dagger,
    hermitian_eigensystem,
    min_eigenvalue,
    normalize,
    overlap2,
    partial_trace_A,
    projector,
    random_density_matrix,
    random_pure_state,
    random_unitary,
    tensor_product,
)
from steerwork.lhs import _average_projectors, principal_eigenvector
from steerwork.mub import build_mub

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]])
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def kron_oracle(a, b):
    # independent double-loop realization of the block convention
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k, j * cb + l] = a[i, j] * b[k, l]
    return out


def partial_trace_oracle(rho, da, db):
    out = np.zeros((db, db), dtype=complex)
    for k in range(db):
        for l in range(db):
            for i in range(da):
                out[k, l] += rho[i * db + k, i * db + l]
    return out


def random_hermitian(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + dagger(g)) / 2


class TestTensorProduct:
    def test_identity(self):
        assert np.array_equal(tensor_product(np.eye(2), np.eye(2)), np.eye(4))

    def test_diagonal_convention(self):
        got = tensor_product(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        assert np.array_equal(got, np.diag([0.0, 1.0, 0.0, 0.0]).astype(complex))

    def test_xx_flips_00(self):
        # (X (x) X)|00> = |11>, checked against the hand-built 4x4 product
        xx = tensor_product(PAULI_X, PAULI_X)
        assert np.allclose(xx, kron_oracle(PAULI_X, PAULI_X))
        ket00 = np.array([1, 0, 0, 0], dtype=complex)
        assert np.allclose(xx @ ket00, np.array([0, 0, 0, 1]))

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_loop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        b = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        assert np.allclose(tensor_product(a, b), kron_oracle(a, b), atol=1e-14)

    @pytest.mark.parametrize("seed", range(5))
    def test_trace_multiplicative(self, seed):
        rng = np.random.default_rng(100 + seed)
        a = random_hermitian(3, rng)
        b = random_hermitian(4, rng)
        lhs = np.trace(tensor_product(a, b))
        assert abs(lhs - np.trace(a) * np.trace(b)) < 1e-12


class TestPartialTrace:
    def test_product_state(self):
        rng = np.random.default_rng(1)
        rho_a = random_density_matrix(2, rng)
        rho_b = random_density_matrix(3, rng)
        got = partial_trace_A(tensor_product(rho_a, rho_b), 2, 3)
        assert np.allclose(got, rho_b, atol=1e-12)

    def test_maximally_entangled_qubits(self):
        psi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        got = partial_trace_A(projector(psi), 2, 2)
        assert np.allclose(got, np.eye(2) / 2, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_summation_oracle(self, seed):
        rng = np.random.default_rng(200 + seed)
        rho = random_density_matrix(6, rng)
        assert np.allclose(partial_trace_A(rho, 2, 3), partial_trace_oracle(rho, 2, 3),
                           atol=1e-13)

    @pytest.mark.parametrize("da,db", [(2, 2), (2, 3), (3, 5)])
    def test_preserves_trace(self, da, db):
        rng = np.random.default_rng(da * 31 + db)
        rho = random_density_matrix(da * db, rng)
        assert abs(np.trace(partial_trace_A(rho, da, db)) - 1.0) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            partial_trace_A(np.eye(5, dtype=complex) / 5, 2, 3)


class TestEigensystem:
    def test_diagonal_sorted(self):
        w, _ = hermitian_eigensystem(np.diag([3.0, 1.0, 2.0]).astype(complex))
        assert np.allclose(w, [1.0, 2.0, 3.0])

    def test_pauli_x(self):
        w, v = hermitian_eigensystem(PAULI_X)
        assert np.allclose(w, [-1.0, 1.0])
        minus = np.array([1, -1]) / np.sqrt(2)
        plus = np.array([1, 1]) / np.sqrt(2)
        assert overlap2(v[:, 0], minus) > 1 - 1e-12
        assert overlap2(v[:, 1], plus) > 1 - 1e-12

    @pytest.mark.parametrize("seed", range(8))
    def test_reconstruction(self, seed):
        # the spectral identity sum_k w_k v_k v_k^dag = m is the oracle
        rng = np.random.default_rng(300 + seed)
        m = random_hermitian(5, rng)
        w, v = hermitian_eigensystem(m)
        recon = (v * w) @ dagger(v)
        assert np.max(np.abs(recon - m)) < 1e-9

    @pytest.mark.parametrize("seed", range(8))
    def test_orthonormal(self, seed):
        rng = np.random.default_rng(400 + seed)
        _, v = hermitian_eigensystem(random_hermitian(6, rng))
        assert np.max(np.abs(dagger(v) @ v - np.eye(6))) < 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            hermitian_eigensystem(np.array([[0, 1], [0, 0]], dtype=complex))


class TestMinEigenvalue:
    def test_rank_one_well(self):
        phi = normalize(np.array([1.0, 2.0, 1j]))
        assert abs(min_eigenvalue(-projector(phi)) - (-1.0)) < 1e-12

    def test_zero_matrix(self):
        assert min_eigenvalue(np.zeros((3, 3), dtype=complex)) == 0.0

    def test_diagonal(self):
        assert abs(min_eigenvalue(np.diag([0.3, -0.7, 2.0]).astype(complex)) - (-0.7)) < 1e-14

    @pytest.mark.parametrize("seed", range(10))
    def test_gershgorin(self, seed):
        rng = np.random.default_rng(500 + seed)
        m = random_hermitian(4, rng)
        bound = max(np.sum(np.abs(m[k, :])) for k in range(4))
        assert abs(min_eigenvalue(m)) <= bound + 1e-12


class TestPrincipalEigenvector:
    def test_diagonal(self):
        v = principal_eigenvector(np.diag([1.0, 5.0, 2.0]).astype(complex))
        assert overlap2(v, np.array([0, 1, 0])) > 1 - 1e-12

    def test_projector(self):
        phi = normalize(np.array([1.0, 1j, -0.5]))
        assert overlap2(principal_eigenvector(projector(phi)), phi) > 1 - 1e-12

    def test_degenerate_top_is_deterministic(self):
        # repeated top eigenvalue: the first eigh column attaining the
        # maximum wins, so repeated calls agree bit for bit
        m = np.eye(3, dtype=complex)
        a = principal_eigenvector(m)
        b = principal_eigenvector(m)
        assert np.array_equal(a, b)
        assert overlap2(a, np.array([1.0, 0, 0])) > 1 - 1e-12

    def test_rejects_nan(self):
        # eigh hands back NaN eigenvalues without an error, so the finite
        # check names a NaN before eigh sees it
        m = np.eye(3, dtype=complex)
        m[1, 1] = np.nan
        with pytest.raises(ValueError, match="^matrix has a NaN or infinite entry$"):
            principal_eigenvector(m)

    def test_rejects_inf(self):
        # an inf is named too: eigh would turn it into NaN eigenvalues
        m = np.eye(3, dtype=complex)
        m[2, 2] = np.inf
        with pytest.raises(ValueError, match="^matrix has a NaN or infinite entry$"):
            principal_eigenvector(m)

    @pytest.mark.parametrize("seed", range(3))
    def test_stack_matches_each_matrix(self, seed):
        # a (k, d, d) stack, a tied top eigenvalue included, gives each
        # matrix's own eigenvector bit for bit
        rng = np.random.default_rng(600 + seed)
        stack = np.stack([random_hermitian(6, rng) for _ in range(4)] + [np.eye(6)])
        got = principal_eigenvector(stack)
        assert got.shape == (5, 6)
        for m, v in zip(stack, got):
            assert v.tobytes() == principal_eigenvector(m).tobytes()
        nested = principal_eigenvector(stack[:4].reshape(2, 2, 6, 6))
        assert nested.tobytes() == got[:4].tobytes()

    @pytest.mark.parametrize("d", [2, 3, 5, 7, 11, 31, 61])
    def test_average_projectors_are_hermitian(self, d):
        # principal_eigenvector's precondition: the optimizer's matrices are
        # picked^T conj(picked) / n, Hermitian up to rounding relative to m
        eps = np.finfo(float).eps
        rng = np.random.default_rng(700 + d)
        for n in (2, d + 1):
            bases = build_mub(d, n)
            for _ in range(5):
                m = _average_projectors(bases, rng.integers(0, d, size=(8, n)))
                dev = np.abs(m - np.conj(np.swapaxes(m, 1, 2))).max()
                assert dev <= 8 * eps * np.abs(m).max(), (n, dev)

    @pytest.mark.parametrize("k", [0, 2, 4])
    def test_stack_rejects_one_nan(self, k):
        stack = np.stack([np.eye(3, dtype=complex)] * 5)
        stack[k, 0, 1] = np.nan
        with pytest.raises(ValueError, match="^matrix has a NaN or infinite entry$"):
            principal_eigenvector(stack)

    def test_qubit_mub_average(self):
        # average of the +z/+x/+y projectors: the 2x2 Bloch form
        # I/2 + (sx+sy+sz)/6 has principal axis (1,1,1)/sqrt(3), whose
        # overlap with each projector is (1 + 1/sqrt(3))/2.
        plus_x = normalize(np.array([1.0, 1.0]))
        plus_y = normalize(np.array([1.0, 1j]))
        plus_z = np.array([1.0, 0.0], dtype=complex)
        avg = (projector(plus_x) + projector(plus_y) + projector(plus_z)) / 3
        bloch = np.eye(2) / 2 + (PAULI_X + PAULI_Y + PAULI_Z) / 6
        assert np.allclose(avg, bloch, atol=1e-14)
        v = principal_eigenvector(avg)
        target = (1 + 1 / np.sqrt(3)) / 2
        for vec in (plus_x, plus_y, plus_z):
            assert abs(overlap2(v, vec) - target) < 1e-12


class TestCheckers:
    def test_density_matrix_ok(self):
        rng = np.random.default_rng(7)
        check_density_matrix(random_density_matrix(4, rng))

    def test_density_matrix_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            check_density_matrix(np.eye(2, dtype=complex))

    def test_density_matrix_negative(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            check_density_matrix(np.diag([1.5, -0.5]).astype(complex))

    def test_construction_tier_hermiticity(self):
        # the oracles hold Hermiticity to 1e-12, tighter than the package's ATOL
        rho = np.diag([0.5, 0.5]).astype(complex)
        rho[0, 1] = 1e-11
        for check in (check_density_matrix, hermitian_eigensystem, min_eigenvalue):
            with pytest.raises(ValueError, match="not Hermitian"):
                check(rho)

    def test_povm_ok(self):
        rng = np.random.default_rng(8)
        u = random_unitary(3, rng)
        check_povm([projector(u[:, k]) for k in range(3)])

    def test_povm_incomplete(self):
        with pytest.raises(ValueError, match="identity"):
            check_povm([projector(np.array([1.0, 0.0]))])

    def test_povm_non_hermitian(self):
        skew = np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="effect 0 is not Hermitian"):
            check_povm([skew, np.eye(2) - skew])

    def test_povm_not_psd(self):
        # sums to the identity, but the first effect has eigenvalue -0.5
        effects = [np.diag([1.5, -0.5]).astype(complex), np.diag([-0.5, 1.5]).astype(complex)]
        with pytest.raises(ValueError, match="effect 0 not PSD"):
            check_povm(effects)

    def test_random_pure_state_normalized(self):
        rng = np.random.default_rng(9)
        for d in (2, 3, 7):
            psi = random_pure_state(d, rng)
            assert abs(np.vdot(psi, psi).real - 1.0) < 1e-12
