"""Classical permanent evaluators.

Exact routes: naive permutation sum, Ryser, Glynn, the double-sign-vector
Glynn-Kan form (real or complex, (x'^T A x)^N per pair), and the GapP split
of a real permanent into two nonnegative sums.  All but the naive sum are
short reductions over one blocked walk of the sign-vector cube
(matrices.sign_blocks), taking each product over a sign vector's coordinates
along contiguous rows.  Glynn's and Glynn-Kan's terms are unchanged by
x -> -x (Glynn 2010), so those walks cover only x_0 = +1 (and x'_0 = +1):
half of Glynn's 2^N vectors, a quarter of Glynn-Kan's 4^N pairs.  The
unsigned Glynn-Kan total that GapP also needs changes by (-1)^N under the
same flip, so its quarter gives the full total only at even N, which GapP
always has after padding.
Randomized route: the Gurvits additive-error sampler, in batches that fit the
same block budget.

The exact evaluators double as oracles for the quantum protocol tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

from . import matrices
from .accumulate import LaneSum, block_sum
from .errors import DimensionTooLargeError, InvalidInputError
from .matrices import as_matrix, sign_blocks, sign_matrix

_NAIVE_MAX_N = 10
_RYSER_MAX_N = 30
_GLYNN_MAX_N = 28
_GLYNN_KAN_MAX_N = 13
_GAPP_MAX_N = 12


@dataclass
class PermanentEstimate:
    """A permanent value together with how it was obtained.

    error_bound is 0 for exact methods, an additive envelope for sampling
    and protocol methods, None when no bound is attached.  wall_terms counts
    the summands of the method's formula (2^N for Glynn, 4^N for Glynn-Kan,
    the samples for Gurvits), not the ones a symmetry lets it skip.
    """

    value: complex
    method: str
    error_bound: float | None = None
    samples_used: int | None = None
    wall_terms: int = 0
    extra: dict = field(default_factory=dict)


def _check_cap(n: int, cap: int, method: str) -> None:
    if n > cap:
        raise DimensionTooLargeError(f"{method} is capped at n <= {cap}, got n = {n}")


def permanent_naive(a) -> PermanentEstimate:
    """Sum over all N! permutations; the ground-truth oracle for small n."""
    m = as_matrix(a)
    n = m.n
    _check_cap(n, _NAIVE_MAX_N, "permanent_naive")
    arr = m.array
    rows = np.arange(n)
    sums = []
    count = 0
    chunk = []
    for perm in permutations(range(n)):
        chunk.append(perm)
        if len(chunk) == 65536:
            sums.append(arr[rows, np.array(chunk)].prod(axis=1).sum())
            count += len(chunk)
            chunk = []
    if chunk:
        sums.append(arr[rows, np.array(chunk)].prod(axis=1).sum())
        count += len(chunk)
    return PermanentEstimate(value=complex(block_sum(sums)), method="naive",
                             error_bound=0.0, wall_terms=count)


def _entries(m) -> np.ndarray:
    return m.real_part if m.is_real else m.array


def _signed_row_product_sum(w: np.ndarray, shift: np.ndarray):
    """Sum over sign vectors x of par(x) * prod_j (shift + x @ w)_j.

    shift is an (m, 1) column, added to each block of m-vectors in place.
    The sum is a float for real w and a complex for complex w.
    """
    lanes = LaneSum()
    for par, cols in sign_blocks(w, 2 * w.itemsize * w.shape[1]):
        cols += shift
        terms = cols.prod(axis=0)
        terms *= par
        lanes.add(terms)
    return lanes.total()


def permanent_ryser(a) -> PermanentEstimate:
    """Ryser inclusion-exclusion over column subsets.

    A subset is the 0/1 vector v = (1 - x)/2 of a sign vector x, so its row
    sums are (A 1 - A x)/2 and the sign (-1)^|v| is par(x): the sum runs over
    the same blocked sign-vector walk as Glynn, O(N 2^N) work in total.
    """
    m = as_matrix(a)
    n = m.n
    _check_cap(n, _RYSER_MAX_N, "permanent_ryser")
    arr = _entries(m)
    value = (-1) ** n * _signed_row_product_sum(-0.5 * arr.T, 0.5 * arr.sum(axis=1)[:, None])
    return PermanentEstimate(value=complex(value), method="ryser",
                             error_bound=0.0, wall_terms=(1 << n) - 1)


def permanent_glynn(a) -> PermanentEstimate:
    """Glynn average of signed products over all 2^N sign vectors.

    A term par(x) prod_j (A x)_j is unchanged by x -> -x (both factors take
    (-1)^N), so the sum runs over the 2^(N-1) vectors with x_0 = +1: the
    walk covers x_1..x_{N-1} and A's first column is the shift.
    """
    m = as_matrix(a)
    n = m.n
    _check_cap(n, _GLYNN_MAX_N, "permanent_glynn")
    w = _entries(m).T
    value = _signed_row_product_sum(w[1:], w[0][:, None]) / (1 << (n - 1))
    return PermanentEstimate(value=complex(value), method="glynn",
                             error_bound=0.0, wall_terms=1 << n)


def _int_power(q: np.ndarray, n: int) -> np.ndarray:
    """q ** n for an integer n >= 1 by repeated squaring; overwrites q.

    np.power calls pow() per element; on a 16 x 2048 block (N = 11) this
    takes about a tenth of its time.
    """
    out = None
    while True:
        if n & 1:
            out = q.copy() if out is None else np.multiply(out, q, out=out)
        n >>= 1
        if n == 0:
            return out
        np.multiply(q, q, out=q)


def _glynn_kan_sums(arr: np.ndarray, unsigned: bool = False) -> tuple[complex, complex | None]:
    """Pair sums over sign vectors (x, x') of par(x) par(x') q^N and, when
    unsigned is set, of q^N, with q = x'^T A x for a real or complex matrix A.

    x -> -x and x' -> -x' each negate q, so q^N and par(x) par(x') both
    change by (-1)^N and a signed term is unchanged by either: the sums run
    over the quarter of the pairs with x_0 = x'_0 = +1 (the walk covers
    x'_1..x'_{N-1}, A's first row is the shift) and are multiplied by 4.  An
    unsigned term q^N changes by (-1)^N, so 4 times its quarter is the full
    total only at even N; at odd N the full total is 0.  Each x' row's signed
    inner sum over x is formed pairwise first; the rows of a block are then
    summed correctly rounded, and so are the block sums.
    """
    n = arr.shape[0]
    x = sign_matrix(n)[::2]
    par_x = x.prod(axis=1)
    signed = []
    total = []
    # q^N and two temporaries: three 2^(N-1)-wide rows per x'
    for par_xp, u in sign_blocks(arr[1:], 3 * arr.itemsize << (n - 1)):
        u += arr[0][:, None]
        qn = _int_power(u.T @ x.T, n)
        signed.append(block_sum(par_xp * (qn * par_x).sum(axis=1)))
        if unsigned:
            total.append(block_sum(qn.sum(axis=1)))
    return 4 * block_sum(signed), 4 * block_sum(total) if unsigned else None


def permanent_glynn_kan(a) -> PermanentEstimate:
    """Glynn-Kan double-sign-vector average of N-th powers of x'^T A x.

    Both real and complex input evaluate the 4^N pair sum directly (blocked
    walk over x', vectorized inner sum over x), raising x'^T A x to the N-th
    power by repeated squaring.  The binomial expansion over the B and C
    parts of A = B + iC, which the quantum protocol mirrors, lives in
    decomposition.generate_terms.
    """
    m = as_matrix(a)
    n = m.n
    _check_cap(n, _GLYNN_KAN_MAX_N, "permanent_glynn_kan")
    scale = math.factorial(n) * 4**n
    signed, _ = _glynn_kan_sums(_entries(m))
    return PermanentEstimate(value=complex(signed / scale),
                             method="glynn_kan" if m.is_real else "glynn_kan_complex",
                             error_bound=0.0, wall_terms=4**n)


def permanent_gapp(b) -> PermanentEstimate:
    """Real permanent as a difference of two nonnegative sums.

    Splits the Glynn-Kan pair sum by the relative parity of (x, x'):
    S+- = (total +- signed) / 2; for even N both are nonnegative.  The value
    is the signed sum itself, which rounds better than the difference
    S+ - S-.  Odd dimensions are first padded by a direct sum with the
    scalar 1, which leaves the permanent unchanged.
    """
    m = as_matrix(b)
    if not m.is_real:
        raise InvalidInputError("permanent_gapp requires a real matrix")
    n = m.n
    _check_cap(n, _GAPP_MAX_N, "permanent_gapp")
    arr = m.real_part
    padded = n % 2 == 1
    if padded:
        arr = np.pad(arr, ((0, 1), (0, 1)))
        arr[n, n] = 1.0
    np2 = arr.shape[0]
    signed, total = _glynn_kan_sums(arr, unsigned=True)
    scale = math.factorial(np2) * 4**np2
    return PermanentEstimate(
        value=complex(signed / scale),
        method="gapp",
        error_bound=0.0,
        wall_terms=4**np2,
        extra={"s_plus": (total + signed) / 2 / scale,
               "s_minus": (total - signed) / 2 / scale, "padded": padded},
    )


def permanent_gurvits(a, samples: int, seed: int, exhaustive: bool = False) -> PermanentEstimate:
    """Gurvits Monte-Carlo estimator of the Glynn average.

    Unbiased mean of (prod_k x_k)(prod_j A_j . x) over i.i.d. uniform sign
    vectors; reported error_bound is the 3-sigma-style envelope
    3 ||A||_2^N / sqrt(samples).  With exhaustive=True all 2^N sign vectors
    are enumerated once, reproducing the exact Glynn value.

    Random stream: sample i takes the next ceil(N/64) 64-bit outputs of
    np.random.default_rng(seed).bit_generator, and its coordinate j is +1
    when bit j mod 64 of word j // 64 is set, -1 when it is clear.  The
    words are unpacked in bulk through their little-endian bytes, so a seed
    gives the same sign vectors on any host byte order and at any batch size.

    Real input is sampled in real arithmetic.  Batches are sized to
    matrices._BLOCK_BYTES, so memory stays flat in the sample count.  A batch
    is held as (N, b) columns, so each term is the single product
    prod_j x_j (A x)_j along contiguous rows, the parity folded in.  The
    envelope is inf when ||A||_2^N overflows a float.
    """
    m = as_matrix(a)
    n = m.n
    if samples < 1:
        raise InvalidInputError("samples must be >= 1")
    if exhaustive:
        _check_cap(n, _GLYNN_MAX_N, "permanent_gurvits(exhaustive)")
        value = permanent_glynn(m).value
        return PermanentEstimate(value=value, method="gurvits", error_bound=0.0,
                                 samples_used=1 << n, wall_terms=1 << n,
                                 extra={"stderr": 0.0, "exhaustive": True})

    arr = _entries(m)
    words = -(-n // 64)
    # per sample: its words, one byte per unpacked bit, the float signs and
    # the products x_j (A x)_j
    batch = min(samples, max(1, matrices._BLOCK_BYTES // (8 * words + (9 + arr.itemsize) * n)))
    bit_gen = np.random.default_rng(seed).bit_generator
    # the signs and products of every batch, the last short one in flat views
    x_buf = np.empty(n * batch)
    cols_buf = np.empty(n * batch, dtype=arr.dtype)
    sums = []
    sums_sq = []
    for done in range(0, samples, batch):
        b = min(batch, samples - done)
        raw = bit_gen.random_raw(b * words).astype("<u8", copy=False).view(np.uint8)
        bits = np.unpackbits(raw.reshape(b, 8 * words), axis=1, count=n, bitorder="little")
        x = np.multiply(bits.T, 2.0, out=x_buf[:n * b].reshape(n, b))  # one sign vector per column
        x -= 1.0
        cols = np.matmul(arr, x, out=cols_buf[:n * b].reshape(n, b))
        cols *= x
        vals = cols.prod(axis=0)
        sums.append(vals.sum())
        sums_sq.append(np.vdot(vals, vals).real)
    mean = block_sum(sums) / samples
    second = block_sum(sums_sq) / samples  # inf or nan once the squared terms overflow
    var = max(second - abs(mean) ** 2, 0.0) if math.isfinite(second) else math.inf
    stderr = math.sqrt(var / samples)
    try:
        bound = 3.0 * m.norms.two_norm**n / math.sqrt(samples)
    except OverflowError:
        bound = math.inf
    return PermanentEstimate(value=complex(mean), method="gurvits", error_bound=bound,
                             samples_used=samples, wall_terms=samples,
                             extra={"stderr": stderr, "exhaustive": False})
