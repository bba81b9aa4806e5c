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

# Bases per column tile of a Gram block row in verify_mub. At d = 61 a
# tile's product and deviation table take 0.5 MB, which stays in cache.
# A multiple of 4 keeps the tile edges on OpenBLAS's column blocking, so
# each product is bit-identical to the one of the untiled block row.
GRAM_TILE = 4

# The primes up to 41 as Miller-Rabin witnesses decide every d below
# MR_EXACT_BELOW (Sorenson and Webster, 2017).
MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981

SUPPORTED_FAMILIES = (
    "(any d >= 2, n = 2), (d = 2, n <= 3), (odd prime d, n <= d + 1)"
)


class MubConstructionError(ValueError):
    """Requested (d, n) has no implemented MUB construction."""


def is_prime(d: int) -> bool:
    """Deterministic Miller-Rabin test on the witnesses MR_WITNESSES.

    Exact below MR_EXACT_BELOW; a larger d raises ValueError, since no
    witness set here decides it.
    """
    if d < 2:
        return False
    if d >= MR_EXACT_BELOW:
        raise ValueError(f"primality of d={d} is not decided at or above {MR_EXACT_BELOW:.2e}")
    for w in MR_WITNESSES:
        if d % w == 0:
            return d == w
    odd, twos = d - 1, 0
    while odd % 2 == 0:
        odd, twos = odd // 2, twos + 1
    for w in MR_WITNESSES:
        y = pow(w, odd, d)
        if y in (1, d - 1):
            continue
        for _ in range(twos - 1):
            y = y * y % d
            if y == d - 1:
                break
        else:
            return False
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
class MubVerification:
    """Result of checking the defining overlap relations at a tolerance.

    max_deviation is the worst |observed − expected| over all vector pairs,
    where expected is delta_{a,b} within a basis and 1/sqrt(d) across bases.
    worst_pair holds the offending indices (x, a, y, b).
    """

    passed: bool
    max_deviation: float
    worst_pair: tuple[int, int, int, int]


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


def check_supported(d: int, n: int) -> None:
    """Raise MubConstructionError unless build_mub can construct (d, n)."""
    if not supported_family(d, n):
        raise MubConstructionError(
            f"(d={d}, n={n}) not available; supported families: {SUPPORTED_FAMILIES}"
        )


def build_mub(d: int, n: int) -> np.ndarray:
    """Construct n mutually unbiased bases in dimension d.

    Returns the (n, d, d) array bases[x, a, j] = <j|phi_x^a>, so row a of
    bases[x] is vector a of basis x. Raises MubConstructionError when
    (d, n) falls outside the supported families of the module docstring.
    """
    check_supported(d, n)
    if d == 2:
        return _pauli_bases()[:n]
    # Vector a of basis x has j-th component d^{-1/2} exp(2 pi i (x j^2 + a j)/d):
    # a quadratic phase in j times the Fourier factor, which all bases share.
    # For composite d the one Fourier basis is the x = 0 member, unbiased to
    # the computational basis for any d.
    j = np.arange(d)
    fourier = np.exp(2j * np.pi * np.outer(j, j) / d)
    bases = np.empty((n, d, d), dtype=complex)
    bases[0] = np.eye(d)
    for slot, x in enumerate(range(1, n) if is_prime(d) else [0], start=1):
        quad = np.exp(2j * np.pi * x * (j * j % d) / d)
        np.multiply(quad[np.newaxis, :], fourier, out=bases[slot])
        bases[slot] /= np.sqrt(d)
    return bases


def verify_mub(bases: np.ndarray, tol: float = ATOL) -> MubVerification:
    """Check the defining overlap relations of the (n, d, d) bases array.

    Report-style: never raises on a bad set, just flags it with the worst
    deviation and the indices where it occurs. Nothing else is validated,
    so corrupted sets can be checked too.

    Basis x is compared with bases y >= x only, since |<u|v>| = |<v|u>|,
    and each block row of the Gram matrix is built GRAM_TILE bases at a
    time, so memory peaks at one d x GRAM_TILE*d tile. worst_pair is the
    first worst pair in (x, a, y, b) order; pairs whose deviations tie to
    rounding may be named differently than by a full-matrix scan. A NaN
    anywhere makes max_deviation NaN and the set fail.
    """
    n, d = bases.shape[:2]
    columns = bases.reshape(n * d, d).T
    cross = 1.0 / np.sqrt(d)
    max_dev, worst = -np.inf, (0, 0, 0, 0)
    for x in range(n):
        row = bases[x].conj()
        starts = range(x * d, n * d, GRAM_TILE * d)
        # per tile k and row a: the largest deviation and the column of its
        # first occurrence; max and argmax both put a NaN above every number
        tile_max = np.empty((len(starts), d))
        tile_col = np.empty((len(starts), d), dtype=np.intp)
        for k, start in enumerate(starts):
            dev = np.abs(row @ columns[:, start:start + GRAM_TILE * d])
            if k == 0:
                dev[:, :d] -= np.eye(d)
                dev[:, d:] -= cross
            else:
                dev -= cross
            np.abs(dev, out=dev)
            np.argmax(dev, axis=1, out=tile_col[k])
            np.max(dev, axis=1, out=tile_max[k])
        # the first tile holding each row's maximum, then the first such row
        k = np.argmax(tile_max, axis=0)
        a = int(np.argmax(tile_max.max(axis=0)))
        block_dev = float(tile_max[k[a], a])
        col = int(k[a]) * GRAM_TILE * d + int(tile_col[k[a], a])
        # argmax returns a block's first NaN, but `>` never picks one up
        if block_dev > max_dev or math.isnan(block_dev):
            max_dev, worst = block_dev, (x, a, x + col // d, col % d)
            if math.isnan(block_dev):
                break
    return MubVerification(passed=max_dev <= tol, max_deviation=max_dev, worst_pair=worst)
