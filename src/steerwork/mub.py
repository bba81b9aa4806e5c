"""Construction and verification of mutually unbiased bases (MUBs).

Two orthonormal bases of C^d are mutually unbiased when every cross-basis
overlap has modulus 1/sqrt(d). Basis 0 is the computational basis (Z at
d = 2); every other one is a member m of the Wootters-Fields family, read
from one table of the 4d-th roots of unity, roots[k] = exp(2*pi*i*k/(4d)),
by an integer exponent reduced mod 4d, with c = 4 for odd d, c = 2 at d = 2:

    component j of vector a = d^{-1/2} roots[(c*m*j^2 + 4*a*j) mod 4d].

Supported constructions, with outcome a and basis index x 0-based:
  * any d, n = 2: m = 0, the discrete Fourier basis, except that odd prime
    d gets the first two bases of the family below;
  * d = 2, n <= 3: m = 0, 1, the Pauli X and Y eigenbases;
  * odd prime d, n <= d+1: basis x is m = x, the maximal count d+1 at m = d.
Prime powers p^k with k > 1 would need Galois-field arithmetic and are not
constructed; asking for them raises MubConstructionError.
"""

from __future__ import annotations

import operator
import os
import sys
import threading
from dataclasses import dataclass
from decimal import Decimal

import numpy as np

# The one absolute slack of the package's numerical checks: Hermiticity,
# the protocol identities (the work in units of omega) and MUB overlaps.
ATOL = 1e-10

# Bases per column tile of a Gram block row in verify_mub. At d = 61 a
# tile's product and deviation table take 0.5 MB, which stays in cache.
# A multiple of 4 keeps the tile edges on OpenBLAS's column blocking, so
# each product is bit-identical to the one of the untiled block row.
GRAM_TILE = 4
# Most threads verify_mub scans block rows on. Each holds the buffers of one
# block row at a time (row, tile product, deviations), 0.45 MiB at d = 61,
# where the whole scan is held to 1 MiB (test_memory_one_block_row) on any
# machine, however many CPUs it has.
MAX_SCAN_WORKERS = 2
# The variables OpenBLAS takes its thread count from, in its order: it runs
# on the first that holds a positive integer, or on one thread per CPU.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
# Largest bases array build_mub allocates, 16*n*d^2 bytes. It is the largest
# allocation of verify-mub and lhs-opt, so the cap refuses an oversized run
# before any work starts. Every family has n >= 2, so it also caps d at
# 5792; odd primes up to d = 401 fit with all d + 1 bases.
MAX_BASES_BYTES = 2**30
# Philox keys are 128-bit, and Monte Carlo and the optimizer key one with the seed.
MAX_SEED = 2**128 - 1

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
    """Whether build_mub can construct n bases in dimension d, for a (d, n) _as_dims accepts."""
    if n <= 2:
        return n == 2
    if d == 2:
        return n <= 3
    return is_prime(d) and n <= d + 1


@dataclass(frozen=True)
class MubVerification:
    """Result of checking the defining overlap relations to within ATOL.

    max_deviation is the worst |observed − expected| over all vector pairs,
    where expected is delta_{a,b} within a basis and 1/sqrt(d) across bases.
    worst_pair holds the offending indices (x, a, y, b).
    """

    passed: bool
    max_deviation: float
    worst_pair: tuple[int, int, int, int]


def _as_int(name: str, value) -> int:
    """value as a Python int; ValueError naming the parameter if it is not integral."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an int, got {value!r}") from None


def _seeded_rng(seed) -> np.random.Generator:
    """The one random stream of a seeded run: Philox keyed by an int seed in [0, MAX_SEED]."""
    seed = _as_int("seed", seed)
    if not 0 <= seed <= MAX_SEED:
        raise ValueError(f"seed must be between 0 and {MAX_SEED}, got {seed}")
    return np.random.Generator(np.random.Philox(key=seed))


def _as_dims(d, n) -> tuple[int, int]:
    """(d, n) as Python ints, the one check of them as numbers.

    ValueError names the first that is not integral, exceeds the floats or
    lies outside the game's domain d >= 2, n >= 1.
    """
    dims = _as_int("d", d), _as_int("n", n)
    for name, value in zip("dn", dims):
        if abs(value) > sys.float_info.max:
            raise ValueError(f"{name} must fit in a float, got a {value.bit_length()}-bit {name}")
    d, n = dims
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got d={d}")
    if n < 1:
        raise ValueError(f"basis count must be >= 1, got n={n}")
    return dims


def check_family(d: int, n: int) -> tuple[int, int]:
    """(d, n) as ints if _as_dims accepts them; MubConstructionError outside the families."""
    d, n = _as_dims(d, n)
    if not supported_family(d, n):
        raise MubConstructionError(
            f"(d={d}, n={n}) not available; supported families: {SUPPORTED_FAMILIES}"
        )
    return d, n


def check_supported(d: int, n: int) -> tuple[int, int]:
    """(d, n) as Python ints, if build_mub can construct them within MAX_BASES_BYTES.

    A (d, n) that _as_dims refuses, or bases above the cap, raise
    ValueError; an in-domain (d, n) outside the supported families raises
    MubConstructionError.
    """
    d, n = check_family(d, n)
    if 16 * n * d * d > MAX_BASES_BYTES:
        # the size in GiB overflows a float from about d = 8e157 at n = 2 and
        # is then shown as a Decimal; below, as a float, whose .3g format
        # drops trailing zeros ("1", not "1.00")
        gib = Decimal(16 * n * d * d) / 2**30
        gib = gib if gib > sys.float_info.max else float(gib)
        raise ValueError(
            f"(d={d}, n={n}) needs {gib:.3g} GiB of bases "
            f"(16*n*d^2 bytes), above the cap of {MAX_BASES_BYTES / 2**30:g} GiB"
        )
    return d, n


def build_mub(d: int, n: int) -> np.ndarray:
    """Construct n mutually unbiased bases in dimension d.

    Returns the (n, d, d) array bases[x, a, j] = <j|phi_x^a>, so row a of
    bases[x] is vector a of basis x. Raises MubConstructionError when
    (d, n) falls outside the supported families of the module docstring,
    and ValueError, before allocating, when check_supported refuses it.
    """
    d, n = check_supported(d, n)
    k = 4 * d
    roots = np.exp(2j * np.pi * np.arange(k) / k)
    roots[::d] = 1, 1j, -1, -1j  # exact: exp leaves cos(pi/2) at 6e-17
    j = np.arange(d)
    # the quadratic phase roots[c m j^2] times the Fourier factor, which all bases share
    fourier = roots[4 * np.outer(j, j) % k] / np.sqrt(d)
    c, first = (2, 0) if d == 2 else (4, int(is_prime(d)))
    bases = np.empty((n, d, d), dtype=complex)
    bases[0] = np.eye(d)
    for x, m in enumerate(range(first, first + n - 1), start=1):
        np.multiply(roots[c * m * j * j % k], fourier, out=bases[x])
    return bases


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one, else os.cpu_count()."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _scan_workers(n: int) -> int:
    """Threads verify_mub scans n block rows on.

    More than one only where BLAS runs each product on one thread, as
    OpenBLAS decides from BLAS_THREAD_VARIABLES: a threaded BLAS already
    spreads each tile product over the CPUs, and threads of both kinds on
    the same CPUs contend (on 2 CPUs at d = 61, two workers took 86 ms
    against 71 ms on one). A count set at run time, as by threadpoolctl,
    is not seen; a wrong guess costs time only.
    """
    cpus = _usable_cpus()
    for name in BLAS_THREAD_VARIABLES:
        try:
            threads = int(os.environ.get(name, ""))
        except ValueError:
            continue
        if threads > 0:
            break
    else:
        threads = cpus
    return min(MAX_SCAN_WORKERS, cpus, n) if threads == 1 else 1


def _bases_shape(bases) -> tuple[int, int]:
    """(n, d) of bases; ValueError unless it is a non-empty (n, d, d) float or complex array."""
    shape, dtype = np.shape(bases), getattr(bases, "dtype", None)
    if len(shape) != 3 or shape[1] != shape[2] or 0 in shape:
        raise ValueError(f"bases must be a non-empty (n, d, d) array, got shape {shape}")
    if dtype is None or not np.issubdtype(dtype, np.inexact):
        got = type(bases).__name__ if dtype is None else dtype
        raise ValueError(f"bases must be a float or complex array, got {got}")
    return shape[:2]


def _block_row(bases: np.ndarray, columns: np.ndarray, x: int) -> tuple:
    """Largest deviation of Gram block row x and its first pair (x, a, y, b)."""
    n, d = bases.shape[:2]
    cross, width, real = 1.0 / np.sqrt(d), GRAM_TILE * d, bases.real.dtype
    starts = range(x * d, n * d, width)
    row, block = np.conjugate(bases[x], order="C"), np.empty((d, d), dtype=real)
    prod, dev = np.empty(d * width, dtype=bases.dtype), np.empty(d * width, dtype=real)
    # per tile k and row a: the largest deviation and the column of its
    # first occurrence; argmax puts a NaN above every number
    tile_max, tile_col = np.empty((len(starts), d)), np.empty((len(starts), d), dtype=np.intp)
    for k, start in enumerate(starts):
        w = min(width, n * d - start)
        # Contiguous views of the buffers' heads: a ufunc on a 2-D slice
        # such as [:, :w] allocates iteration buffers of up to 128 KiB,
        # while a copy between slices allocates nothing.
        p, v = prod[:d * w].reshape(d, w), dev[:d * w].reshape(d, w)
        np.matmul(row, columns[:, start:start + w], out=p)
        np.abs(p, out=v)
        if k == 0:
            # basis x against itself expects the identity
            np.copyto(block, v[:, :d])
            v -= cross
            np.copyto(v[:, :d], block)
            v.reshape(-1)[::w + 1][:d] -= 1.0
        else:
            v -= cross
        np.abs(v, out=v)
        np.argmax(v, axis=1, out=tile_col[k])
        tile_max[k] = np.take_along_axis(v, tile_col[k, :, None], axis=1)[:, 0]
    # the first tile holding each row's maximum, then the first such row
    k = np.argmax(tile_max, axis=0)
    a = int(np.argmax(tile_max.max(axis=0)))
    col = int(k[a]) * width + int(tile_col[k[a], a])
    return float(tile_max[k[a], a]), (x, a, x + col // d, col % d)


def verify_mub(bases: np.ndarray) -> MubVerification:
    """Check the defining overlap relations of the (n, d, d) bases array.

    A set passes when every deviation is at most ATOL. Report-style: never
    raises on a bad set, just flags it with the worst deviation and the
    indices where it occurs; only what _bases_shape refuses, anything but a
    non-empty (n, d, d) float or complex array, raises ValueError. Nothing
    else is validated, so corrupted sets can be checked too.

    Basis x is compared with bases y >= x only, since |<u|v>| = |<v|u>|,
    and each block row of the Gram matrix is built GRAM_TILE bases at a
    time, so memory peaks at one d x GRAM_TILE*d tile per worker. Where
    BLAS runs on one thread, block rows are shared among
    min(MAX_SCAN_WORKERS, usable CPUs, n) threads, the caller included,
    longest first (see _scan_workers); every thread runs under the
    caller's np.geterr(), an exception stops each at its next row, and the
    first is re-raised here once all have finished. The rows are merged in
    x order, so the result does not depend on the number of threads:
    worst_pair is the first worst pair in (x, a, y, b) order, where pairs
    whose deviations tie to rounding may be named differently than by a
    full-matrix scan. A NaN anywhere makes max_deviation NaN and the set
    fail.
    """
    n, d = _bases_shape(bases)
    columns = bases.reshape(n * d, d).T
    # per block row x: its largest deviation and first pair
    rows = [None] * n
    order, lock, errors, err = iter(range(n)), threading.Lock(), [], np.geterr()

    def scan() -> None:
        try:
            with np.errstate(**err):  # errstate is per thread
                while not errors:
                    with lock:
                        x = next(order, n)
                    if x == n:
                        return
                    rows[x] = _block_row(bases, columns, x)
        except BaseException as exc:  # re-raised below, once every thread has ended
            errors.append(exc)

    helpers = [threading.Thread(target=scan) for _ in range(_scan_workers(n) - 1)]
    for thread in helpers:
        thread.start()
    scan()
    for thread in helpers:
        thread.join()
    if errors:
        raise errors[0]

    # argmax takes the first NaN, else the first of equal maxima, as in _block_row
    max_dev, worst = rows[int(np.argmax([dev for dev, _ in rows]))]
    return MubVerification(passed=max_dev <= ATOL, max_deviation=max_dev, worst_pair=worst)
