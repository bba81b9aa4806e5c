"""Dense complex linear algebra for small Hilbert spaces.

Everything here operates on plain numpy arrays (complex128). Target sizes
are d <= 64 for a single system and d^2 <= 4096 for a bipartite one, so
dense storage and LAPACK eigensolvers are the right tool throughout.

Eigenvectors are defined up to a global phase; comparisons of states should
always go through |<u|v>|^2, never through amplitude equality.
"""

from __future__ import annotations

import numpy as np

# Tolerance tiers: construction identities, positivity/completeness checks,
# and eigensystem reconstruction, in order of decreasing strictness.
ATOL_CONSTRUCT = 1e-12
ATOL_PSD = 1e-10
ATOL_RECON = 1e-9


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return m.conj().T


def check_hermitian(m: np.ndarray, tol: float = ATOL_PSD) -> None:
    """Raise ValueError unless m is square and Hermitian within tol."""
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    dev = float(np.max(np.abs(m - dagger(m))))
    if dev > tol:
        raise ValueError(f"matrix is not Hermitian: max |m - m^dag| = {dev:.3e} > {tol:.1e}")


def normalize(vec: np.ndarray) -> np.ndarray:
    """Return vec / ||vec||."""
    nrm = float(np.linalg.norm(vec))
    if nrm == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return np.asarray(vec, dtype=complex) / nrm


def projector(psi: np.ndarray) -> np.ndarray:
    """Rank-1 projector |psi><psi|."""
    v = np.asarray(psi, dtype=complex)
    return np.outer(v, v.conj())


def overlap2(u: np.ndarray, v: np.ndarray) -> float:
    """Squared overlap |<u|v>|^2 of two state vectors."""
    return float(np.abs(np.vdot(u, v)) ** 2)


def expectation(rho: np.ndarray, psi: np.ndarray) -> float:
    """<psi| rho |psi> for Hermitian rho (imaginary part discarded)."""
    return float(np.vdot(psi, rho @ psi).real)


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with row-major block convention.

    Entry ((i*rb + k), (j*cb + l)) equals a[i, j] * b[k, l].
    """
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def partial_trace_A(rho: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """Trace out the first factor of a (dim_a*dim_b)-dimensional operator.

    Composite indices follow the tensor_product convention: row = i*dim_b + k
    with i on A and k on B. The result is dim_b x dim_b and has the same
    trace as the input.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {rho.shape}")
    if rho.shape[0] != dim_a * dim_b:
        raise ValueError(
            f"dimension mismatch: operator is {rho.shape[0]}-dimensional, "
            f"expected dim_a*dim_b = {dim_a * dim_b}"
        )
    r4 = rho.reshape(dim_a, dim_b, dim_a, dim_b)
    return np.einsum("ikil->kl", r4)


def hermitian_eigensystem(m: np.ndarray, tol: float = ATOL_PSD) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (w, v) with eigenvalues w ascending and orthonormal eigenvectors
    in the columns of v, so that m = v @ diag(w) @ v^dag.
    """
    check_hermitian(m, tol)
    w, v = np.linalg.eigh(np.asarray(m, dtype=complex))
    return w, v


def min_eigenvalue(m: np.ndarray, tol: float = ATOL_PSD) -> float:
    """Smallest eigenvalue of a Hermitian matrix."""
    w, _ = hermitian_eigensystem(m, tol)
    return float(w[0])


def principal_eigenvector(m: np.ndarray, tol: float = ATOL_PSD) -> np.ndarray:
    """Normalized eigenvector of the largest eigenvalue.

    Degenerate top eigenvalues are resolved deterministically: among the
    ascending eigh output, the first column attaining the maximum is chosen.
    The global phase is whatever the eigensolver returns.
    """
    w, v = hermitian_eigensystem(m, tol)
    idx = int(np.argmax(w))
    return v[:, idx].copy()


def check_density_matrix(rho: np.ndarray, tol_construct: float = ATOL_CONSTRUCT,
                         tol_psd: float = ATOL_PSD) -> None:
    """Raise ValueError unless rho is Hermitian, unit-trace and PSD.

    Hermiticity and trace are held to tol_construct; the smallest eigenvalue
    may dip to -tol_psd (rounding slack).
    """
    check_hermitian(rho, tol_construct)
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > tol_construct:
        raise ValueError(f"trace is {tr}, expected 1 within {tol_construct:.1e}")
    lo = float(np.linalg.eigvalsh(rho)[0])
    if lo < -tol_psd:
        raise ValueError(f"smallest eigenvalue {lo:.3e} below -{tol_psd:.1e}")


def check_povm(effects: np.ndarray, tol: float = ATOL_PSD) -> None:
    """Raise ValueError unless the (m, d, d) stack of effects forms a POVM.

    Each effect must be Hermitian and PSD within tol, and the effects must
    sum to the identity within tol.
    """
    e = np.asarray(effects)
    if e.ndim != 3 or e.shape[0] == 0 or e.shape[1] != e.shape[2]:
        raise ValueError(f"expected a nonempty (m, d, d) stack of effects, got shape {e.shape}")
    herm = np.max(np.abs(e - e.conj().transpose(0, 2, 1)), axis=(1, 2))
    k = int(np.argmax(herm))
    if herm[k] > tol:
        raise ValueError(f"effect {k} is not Hermitian: max |m - m^dag| = {herm[k]:.3e} > {tol:.1e}")
    lows = np.linalg.eigvalsh(e)[:, 0]
    k = int(np.argmin(lows))
    if lows[k] < -tol:
        raise ValueError(f"effect {k} not PSD: smallest eigenvalue {lows[k]:.3e}")
    dev = float(np.max(np.abs(e.sum(axis=0) - np.eye(e.shape[1]))))
    if dev > tol:
        raise ValueError(f"effects do not sum to identity: max deviation {dev:.3e}")


def random_pure_state(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random pure state: normalized complex Gaussian vector."""
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return normalize(z)


def random_density_matrix(d: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """Random mixed state G G^dag / Tr(G G^dag) with G a d x rank Ginibre matrix."""
    k = d if rank is None else rank
    g = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
    rho = g @ dagger(g)
    return rho / np.trace(rho).real


def random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a Ginibre matrix with phase fixing."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases
