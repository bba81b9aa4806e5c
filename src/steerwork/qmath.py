"""Dense complex linear algebra for small Hilbert spaces.

Everything here operates on plain numpy arrays (complex128): the Hermiticity
check, Haar-random pure states and the principal eigenvector that the LHS
optimizer steps to. Target sizes are d <= 64 for a single system and
d^2 <= 4096 for a bipartite one, so dense storage and LAPACK eigensolvers
are the right tool throughout. Projectors, the POVM check, Kronecker
products, partial traces and the other general-purpose references live in
tests/oracles.py, next to the tests that compare against them.

Eigenvectors are defined up to a global phase; comparisons of states should
always go through |<u|v>|^2, never through amplitude equality.
"""

from __future__ import annotations

import numpy as np

# The one absolute slack of the package's numerical checks: Hermiticity,
# the protocol identities (the work in units of omega) and MUB overlaps.
ATOL = 1e-10


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return m.conj().T


def check_hermitian(m: np.ndarray) -> None:
    """Raise ValueError unless m is square and Hermitian within ATOL."""
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    dev = float(np.max(np.abs(m - dagger(m))))
    if dev > ATOL:
        raise ValueError(f"matrix is not Hermitian: max |m - m^dag| = {dev:.3e} > {ATOL:.1e}")


def normalize(vec: np.ndarray) -> np.ndarray:
    """Return vec / ||vec||."""
    nrm = float(np.linalg.norm(vec))
    if nrm == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return np.asarray(vec, dtype=complex) / nrm


def principal_eigenvector(m: np.ndarray) -> np.ndarray:
    """Normalized eigenvector of the largest eigenvalue of a Hermitian matrix.

    Raises ValueError unless m is Hermitian within ATOL. Degenerate top
    eigenvalues are resolved deterministically: among the ascending eigh
    output, the first column attaining the maximum is chosen. The global
    phase is whatever the eigensolver returns.
    """
    check_hermitian(m)
    w, v = np.linalg.eigh(np.asarray(m, dtype=complex))
    return v[:, int(np.argmax(w))].copy()


def random_pure_state(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random pure state: normalized complex Gaussian vector."""
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return normalize(z)
