"""Classical permanent evaluators.

Exact routes: naive permutation sum, Ryser, Glynn, the double-sign-vector
Glynn-Kan form (real or complex, (x'^T A x)^N per pair), and the GapP split
of a real permanent into two nonnegative sums.  Ryser and Glynn take each
product over a sign vector's coordinates along contiguous rows.  When their
sign-vector cube fits one block under sign_blocks' rule (at the 1 MiB
budget, Ryser up to N = 12 real and 11 complex, Glynn up to 13 and 12),
every term comes from one BLAS product of A against a cached read-only
table, one product over rows, one parity multiply and one block_sum; larger
N takes the blocked walk of matrices.sign_blocks, which also serves
simulator.overlap_exact.  Glynn-Kan and GapP take their 4^N pair sum over
the cached sign table matrices.sign_table(N), x' in slices, each slice's
inner sums over x in one BLAS product; up to N = 9 real and 8 complex one
slice holds every x', and its sums are the result.  Glynn's and Glynn-Kan's
terms are unchanged by x -> -x (Glynn 2010), so those sums cover only
x_0 = +1 (and x'_0 = +1): half of Glynn's 2^N vectors, a quarter of
Glynn-Kan's 4^N pairs.  The unsigned Glynn-Kan total that GapP also needs
changes by (-1)^N under the same flip, so its quarter gives the full total
only at even N, which GapP always has after padding.
Randomized route: the Gurvits additive-error sampler, in batches that fit the
same block budget.  Dense check: the operator expectation <phi|P H(A)^N|phi>
/ N! on the 4^N-entry state, its diagonal built from the same sign table.
Kernels read SquareMatrix.entries, so real input runs in real arithmetic.

The exact evaluators double as oracles for the quantum protocol tests.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cache
from itertools import islice, permutations

import numpy as np

from . import matrices
from .accumulate import LaneSum, block_sum
from .errors import DimensionTooLargeError, InvalidInputError
from .matrices import as_matrix, block_height, sign_blocks, sign_table

_NAIVE_MAX_N = 10
_RYSER_MAX_N = 30
_GLYNN_MAX_N = 28
_GLYNN_KAN_MAX_N = 13
_GAPP_MAX_N = 12
_OPERATOR_MAX_N = 7


@dataclass(slots=True)
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
    arr = m.entries
    # per permutation: its tuple (a 40-byte header and n pointers) and list
    # slot, its int64 index row and its gathered entries
    batch_size = max(1, matrices._BLOCK_BYTES // (48 + (16 + arr.itemsize) * n))
    rows = np.arange(n)
    perms = permutations(range(n))
    sums = []
    while batch := list(islice(perms, batch_size)):
        sums.append(arr[rows, np.array(batch)].prod(axis=1).sum())
    return PermanentEstimate(value=complex(block_sum(sums)), method="naive",
                             error_bound=0.0, wall_terms=math.factorial(n))


@cache
def _one_block_table(n: int, ryser: bool) -> tuple[np.ndarray, np.ndarray]:
    """The sign vectors of a one-block Ryser or Glynn sum, one per column of
    a C-contiguous (N, 2^N or 2^(N-1)) array, and their parities; read-only.

    Ryser's columns are the 0/1 subset vectors (1 + x)/2 of every row x of
    sign_table(N), the full set first, Glynn's the x_0 = +1 rows themselves.
    Built on first use and kept, like sign_table (together at most 1.6 MiB,
    for every N up to the one-block limits), since a BLAS product reads a
    contiguous table 1.5 to 2 times as fast as the transposed view of
    sign_table's rows at N = 10 to 12.
    """
    table, (par, _) = sign_table(n)
    if ryser:
        cols = np.ascontiguousarray((1.0 + table.T) / 2)
    else:
        cols, par = np.ascontiguousarray(table[::2].T), np.ascontiguousarray(par[::2])
    cols.setflags(write=False)
    par.setflags(write=False)
    return cols, par


def _signed_table_product_sum(arr: np.ndarray, cols: np.ndarray, par: np.ndarray):
    """Sum over the columns v of cols of par(v) * prod_j (arr @ v)_j, as one block.

    The vectors arr @ v are one BLAS product against the read-only table;
    complex arr enters it as its float64 view (re, im interleaved), so the
    real table is never cast to complex, and that product is transposed so
    that each term's product runs along contiguous rows, as in the walk.
    """
    if arr.dtype == np.float64:
        rows = arr @ cols
    else:
        a_f = np.ascontiguousarray(arr.T).view(np.float64)
        rows = np.ascontiguousarray((cols.T @ a_f).view(arr.dtype).T)
    terms = rows.prod(axis=0)
    terms *= par
    return block_sum(terms)


def _overflow_reads_inf(total):
    """total, or complex(inf, nan) for a complex total that is not finite.

    Input is finite, so such a total means terms overflowed; NumPy's complex
    products of overflowed factors give inf+infj or inf+nanj, which sum to
    nan+nanj.  The result's abs() is inf, as a real total's would be.
    """
    if isinstance(total, complex) and not cmath.isfinite(total):
        return complex(math.inf, math.nan)
    return total


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

    A subset is the 0/1 vector v = (1 + x)/2 of a sign vector x, and its
    sign (-1)^(N - |v|) is par(x).  When the sign-vector walk would be one
    block, the row sums A v are one product against the cached subset
    table, which lists the full set first: in that order math.fsum keeps
    fewer partial sums.  Otherwise the blocked walk that Glynn uses takes
    the row sums (A 1 - A x)/2 of v's complement, whose sign is
    (-1)^N par(x).  O(N 2^N) work either way.
    """
    m = as_matrix(a)
    n = m.n
    _check_cap(n, _RYSER_MAX_N, "permanent_ryser")
    arr = m.entries
    if block_height(n, 2 * arr.itemsize * n) == n:  # the walk would be one block
        total = _signed_table_product_sum(arr, *_one_block_table(n, True))
    else:
        total = (-1) ** n * _signed_row_product_sum(-0.5 * arr.T, 0.5 * arr.sum(axis=1)[:, None])
    value = _overflow_reads_inf(total)
    return PermanentEstimate(value=complex(value), method="ryser",
                             error_bound=0.0, wall_terms=(1 << n) - 1)


def permanent_glynn(a) -> PermanentEstimate:
    """Glynn average of signed products over all 2^N sign vectors.

    A term par(x) prod_j (A x)_j is unchanged by x -> -x (both factors take
    (-1)^N), so the sum runs over the 2^(N-1) vectors with x_0 = +1.  When
    the walk would be one block, that is one product against the x_0 = +1
    half of the cached sign_table(N); otherwise the walk covers
    x_1..x_{N-1} and A's first column is the shift.
    """
    m = as_matrix(a)
    n = m.n
    _check_cap(n, _GLYNN_MAX_N, "permanent_glynn")
    arr = m.entries
    if block_height(n - 1, 2 * arr.itemsize * n) == n - 1:  # the walk would be one block
        total = _signed_table_product_sum(arr, *_one_block_table(n, False))
    else:
        total = _signed_row_product_sum(arr.T[1:], arr.T[0][:, None])
    value = _overflow_reads_inf(total / (1 << (n - 1)))
    return PermanentEstimate(value=complex(value), method="glynn",
                             error_bound=0.0, wall_terms=1 << n)


def _int_power(q: np.ndarray, n: int, out: np.ndarray) -> np.ndarray:
    """q ** n for an integer n >= 1 by repeated squaring; overwrites q.

    Returns q itself when n is a power of two, else out, which then holds
    the product of the powers q^(2^j) over n's set bits, lowest first.
    Faster than np.power, which calls pow() per element.
    """
    while not n & 1:
        np.multiply(q, q, out=q)
        n >>= 1
    if n == 1:
        return q
    np.copyto(out, q)
    while n > 1:
        n >>= 1
        np.multiply(q, q, out=q)
        if n & 1:
            np.multiply(out, q, out=out)
    return out


@cache
def _half_cube(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The x_0 = +1 rows x of sign_table(n), their parities, and the weight
    rows (par(x), 1) of the Glynn-Kan inner sums; all read-only."""
    table, (par, _) = sign_table(n)
    x, par_x = table[::2], par[::2]
    w = np.ones((2, x.shape[0]))
    w[0] = par_x
    w.setflags(write=False)
    return x, par_x, w


def _glynn_kan_sums(arr: np.ndarray, unsigned: bool = False) -> tuple[complex, complex | None]:
    """Pair sums over sign vectors (x, x') of par(x) par(x') q^N and, when
    unsigned is set, of q^N, with q = x'^T A x for a real or complex matrix A.

    x -> -x and x' -> -x' each negate q, so q^N and par(x) par(x') both
    change by (-1)^N and a signed term is unchanged by either: the sums run
    over the quarter of the pairs with x_0 = x'_0 = +1 and are multiplied by
    4.  An unsigned term q^N changes by (-1)^N, so 4 times its quarter is the
    full total only at even N; at odd N the full total is 0.

    x and x' both run over the x_0 = +1 rows of the cached sign_table(N).
    x' comes in slices sized to matrices._BLOCK_BYTES; per slice, q holds
    one column per x' and one row per x, so the inner sums over x of every
    column are one BLAS product with the cached weight rows W = par(x) (and
    1 when unsigned is set).  When one slice holds every x', as it does up
    to N = 9 real and N = 8 complex at the 1 MiB budget, that slice's sums
    are the pair sums.  Complex arrays enter both products as their float64
    views (re, im interleaved), so the real table is never cast to complex.
    The x' parities then weight each slice's inner sums, which are summed
    correctly rounded, and so are the slice sums.  The inner sums themselves
    are BLAS dot products, not correctly rounded; accumulate's docstring
    states that trade-off.
    """
    n = arr.shape[0]
    x, par_x, w = _half_cube(n)
    w = w[:1 + unsigned]
    half = x.shape[0]
    a_f = np.ascontiguousarray(arr).view(np.float64)  # complex A: (N, 2N), re and im
    # q and its N-th power: two 2^(N-1)-long columns per x', in one block,
    # since two equal blocks freed together can make malloc hand both back
    # to the OS, and fault them in again, on every call
    width = min(half, max(1, matrices._BLOCK_BYTES // (2 * arr.itemsize * half)))
    if width == half:
        q, qn = np.empty((2, half, half), dtype=arr.dtype)
        signed, total = _slice_sums(x, par_x, x, w, a_f, q, qn)
        return 4 * signed, 4 * total if unsigned else None
    q_buf, qn_buf = np.empty((2, half * width), dtype=arr.dtype)
    sums = []
    for start in range(0, half, width):
        xp = x[start:start + width]
        size = half * xp.shape[0]
        sums.append(_slice_sums(xp, par_x[start:start + width], x, w, a_f,
                                q_buf[:size].reshape(half, -1), qn_buf[:size].reshape(half, -1)))
    signed, total = zip(*sums)
    return 4 * block_sum(signed), 4 * block_sum(total) if unsigned else None


def _slice_sums(xp, par_xp, x, w, a_f, q, qn):
    """One x' slice's signed sum, and its unsigned sum when w has a second
    row (else None); q and q^N, one column per x', are written into q and qn."""
    y = np.ascontiguousarray((xp @ a_f).view(q.dtype).T)  # columns A^T x'
    np.matmul(x, y.view(np.float64), out=q.view(np.float64))
    qn = _int_power(q, x.shape[1], qn)
    sums = (w @ qn.view(np.float64)).view(q.dtype)
    return block_sum(par_xp * sums[0]), block_sum(sums[1]) if w.shape[0] > 1 else None


def permanent_glynn_kan(a) -> PermanentEstimate:
    """Glynn-Kan double-sign-vector average of N-th powers of x'^T A x.

    Both real and complex input evaluate the 4^N pair sum directly (x' in
    slices of the cached half-cube sign table, each slice's inner sums over
    x in one BLAS product), raising x'^T A x to the N-th power by repeated
    squaring.  The binomial expansion over the B and C parts of A = B + iC,
    which the quantum protocol mirrors, lives in
    decomposition.generate_terms.
    """
    m = as_matrix(a)
    n = m.n
    _check_cap(n, _GLYNN_KAN_MAX_N, "permanent_glynn_kan")
    scale = math.factorial(n) * 4**n
    signed, _ = _glynn_kan_sums(m.entries)
    return PermanentEstimate(value=complex(_overflow_reads_inf(signed / scale)),
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
    arr = m.entries
    padded = n % 2 == 1
    if padded:
        square = np.zeros((n + 1, n + 1))
        square[:n, :n] = arr
        square[n, n] = 1.0
        arr = square
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


def permanent_gurvits(a, samples: int, seed: int) -> PermanentEstimate:
    """Gurvits Monte-Carlo estimator of the Glynn average.

    Unbiased mean of (prod_k x_k)(prod_j A_j . x) over i.i.d. uniform sign
    vectors; reported error_bound is the 3-sigma-style envelope
    3 ||A||_2^N / sqrt(samples).

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
    arr = m.entries
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
                             extra={"stderr": stderr})


def glynn_kan_operator_expectation(a) -> PermanentEstimate:
    """Per(A) as <phi|P H(A)^N|phi> / N! on the dense 2N-qubit state.

    Builds the uniform superposition over 2^{2N} basis states, applies the
    diagonal Ising operator N times, applies the parity operator, and takes
    the inner product with the uniform state.  The state is real for real A.
    """
    m = as_matrix(a)
    n = m.n
    _check_cap(n, _OPERATOR_MAX_N, "glynn_kan_operator_expectation")
    arr = m.entries
    table, (par, _) = sign_table(n)
    # basis index x + 2^N x': rows x' (qubits N+1..2N), columns x (qubits 1..N)
    diag = ((table @ arr) @ table.T).ravel()         # <s|H(A)|s>
    parity = np.outer(par, par).ravel()              # <s|P|s>
    amp = np.full(diag.shape[0], 1.0 / 2**n, dtype=arr.dtype)
    vec = amp.copy()
    for _ in range(n):
        vec = vec * diag
    vec = vec * parity
    value = complex(np.conj(amp) @ vec) / math.factorial(n)
    return PermanentEstimate(value=value, method="operator_expectation",
                             error_bound=0.0, wall_terms=4**n)
