"""Construction and verification of mutually unbiased bases (MUBs).

Two orthonormal bases of C^d are mutually unbiased when every cross-basis
overlap has modulus 1/sqrt(d). Supported constructions:

  * any d, n = 2: computational basis + discrete Fourier basis;
  * d = 2, n <= 3: the Pauli Z/X/Y eigenbases;
  * odd prime d, n <= d+1: computational basis plus the quadratic-phase
    family whose basis x has components <j|phi_x^a> =
    d^{-1/2} exp(2*pi*i*(x*j^2 + a*j)/d) for x = 1..d.

For odd primes the quadratic-phase family with x = 1..d together with the
computational basis realizes the maximal count of d+1 bases. Prime powers
p^k with k > 1 would need Galois-field arithmetic and are not constructed;
asking for them raises MubConstructionError.

Outcome index a and basis index x are 0-based everywhere; basis 0 is always
the computational basis (for d = 2 that is the Z eigenbasis).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qmath import ATOL

SUPPORTED_FAMILIES = (
    "(any d >= 2, n = 2), (d = 2, n <= 3), (odd prime d, n <= d + 1)"
)


class MubConstructionError(ValueError):
    """Requested (d, n) has no implemented MUB construction."""


def is_prime(d: int) -> bool:
    """Deterministic trial division; fine for the d <= 64 regime."""
    if d < 2:
        return False
    k = 2
    while k * k <= d:
        if d % k == 0:
            return False
        k += 1
    return True


def supported_family(d: int, n: int) -> bool:
    """Whether build_mub can construct n bases in dimension d."""
    if d < 2 or n < 2:
        return False
    if n == 2:
        return True
    if d == 2:
        return n <= 3
    return is_prime(d) and n <= d + 1


@dataclass(frozen=True)
class MubSet:
    """n orthonormal bases of C^d, stored as bases[x, a, j] = <j|phi_x^a>.

    A plain carrier: nothing is validated on construction, so corrupted
    sets can be represented and fed to verify_mub. Sets returned by
    build_mub always pass verification.
    """

    d: int
    n: int
    bases: np.ndarray


@dataclass(frozen=True)
class MubVerification:
    """Result of checking the defining overlap relations at a tolerance.

    max_deviation is the worst |observed − expected| over all vector pairs,
    where expected is delta_{a,b} within a basis and 1/sqrt(d) across bases.
    worst_pair holds the offending indices (x, a, y, b).
    """

    passed: bool
    max_deviation: float
    worst_pair: tuple[int, int, int, int]
    tol: float


def _pauli_bases() -> np.ndarray:
    s = 1.0 / np.sqrt(2.0)
    return np.array(
        [
            [[1, 0], [0, 1]],                    # Z
            [[s, s], [s, -s]],                   # X
            [[s, 1j * s], [s, -1j * s]],         # Y
        ],
        dtype=complex,
    )


def _quadratic_basis(d: int, x: int) -> np.ndarray:
    # Vector a has j-th component d^{-1/2} exp(2 pi i (x j^2 + a j)/d);
    # for x = 0 or x = d the quadratic phase drops out and this is the
    # Fourier basis, which is unbiased to the computational one for any d.
    j = np.arange(d)
    quad = np.exp(2j * np.pi * x * (j * j % d) / d)
    lin = np.exp(2j * np.pi * np.outer(np.arange(d), j) / d)
    return quad[np.newaxis, :] * lin / np.sqrt(d)


def check_supported(d: int, n: int) -> None:
    """Raise MubConstructionError unless build_mub can construct (d, n)."""
    if not supported_family(d, n):
        raise MubConstructionError(
            f"(d={d}, n={n}) not available; supported families: {SUPPORTED_FAMILIES}"
        )


def build_mub(d: int, n: int) -> MubSet:
    """Construct n mutually unbiased bases in dimension d.

    Raises MubConstructionError when (d, n) falls outside the supported
    families listed in the module docstring.
    """
    check_supported(d, n)
    if d == 2:
        bases = _pauli_bases()[:n]
    elif is_prime(d):
        bases = np.stack([np.eye(d, dtype=complex)] + [_quadratic_basis(d, x) for x in range(1, n)])
    else:
        bases = np.stack([np.eye(d, dtype=complex), _quadratic_basis(d, 0)])
    return MubSet(d=d, n=n, bases=bases)


def verify_mub(mub: MubSet, tol: float = ATOL) -> MubVerification:
    """Check the defining overlap relations of a MubSet.

    Report-style: never raises on a bad set, just flags it with the worst
    deviation and the indices where it occurs.

    The Gram matrix is built one block row at a time: basis x is compared
    with bases y >= x only, since |<u|v>| = |<v|u>|, so memory peaks at one
    d x nd block. worst_pair is the first worst pair in block order (x,
    then a, then y, then b); pairs whose deviations tie to rounding may be
    named differently than by a full-matrix scan. A NaN anywhere makes
    max_deviation NaN and the set fail.
    """
    d, n = mub.d, mub.n
    flat = mub.bases.reshape(n * d, d)
    max_dev, worst = -np.inf, (0, 0, 0, 0)
    for x in range(n):
        dev = np.abs(mub.bases[x].conj() @ flat[x * d:].T)
        dev[:, :d] -= np.eye(d)
        dev[:, d:] -= 1.0 / np.sqrt(d)
        np.abs(dev, out=dev)
        a, col = divmod(int(np.argmax(dev)), dev.shape[1])
        block_dev = float(dev[a, col])
        # argmax returns a block's first NaN, but `>` never picks one up
        if block_dev > max_dev or math.isnan(block_dev):
            max_dev, worst = block_dev, (x, a, x + col // d, col % d)
            if math.isnan(block_dev):
                break
    return MubVerification(passed=max_dev <= tol, max_deviation=max_dev,
                           worst_pair=worst, tol=tol)
