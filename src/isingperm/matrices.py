"""Square real or complex matrices, their norms, the sign-vector cube, its
shared sign tables and its blocked walk, random ensembles, and JSON I/O."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import DimensionTooLargeError, InvalidInputError

_SPECTRAL_DIAG_MAX_N = 8


class SquareMatrix:
    """Immutable N x N matrix, real or complex.

    Decides is_real once, at construction: input of a real dtype, or complex
    input whose imaginary parts are all zero, is kept as one contiguous
    read-only float64 array, any other input as a complex128 one.  That
    array, entries, is the only one it holds; every reader takes it as it
    is.  Caches the norm triple on first use; safe to share across threads.
    """

    __slots__ = ("_entries", "_norms")

    def __init__(self, entries):
        arr = np.asarray(entries)
        if arr.dtype.kind not in "biufc":
            arr = arr.astype(np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise InvalidInputError("expected a square matrix with n >= 1")
        if not np.isfinite(arr).all():
            raise InvalidInputError("matrix entries must be finite")
        if np.iscomplexobj(arr) and np.any(arr.imag):
            arr = np.array(arr, dtype=np.complex128)
        else:
            arr = np.array(arr.real, dtype=np.float64, order="C")
        arr.setflags(write=False)
        self._entries = arr
        self._norms = None

    @property
    def n(self) -> int:
        return self._entries.shape[0]

    @property
    def entries(self) -> np.ndarray:
        """The read-only entries: float64 for a real matrix, else complex128."""
        return self._entries

    @property
    def is_real(self) -> bool:
        return self._entries.dtype == np.float64

    @property
    def norms(self) -> "MatrixNorms":
        if self._norms is None:
            self._norms = norms(self)
        return self._norms

    def __repr__(self) -> str:
        return f"SquareMatrix(n={self.n})"


def as_matrix(a) -> SquareMatrix:
    return a if isinstance(a, SquareMatrix) else SquareMatrix(a)


@dataclass(frozen=True)
class MatrixNorms:
    """2-norm (largest singular value), 1-norm (max column sum), and the
    Pauli-coefficient norm of the associated Ising operator, sum_jk |A_jk|."""

    two_norm: float
    one_norm: float
    ising_norm: float


def norms(a) -> MatrixNorms:
    """All three norms of a square matrix."""
    arr = as_matrix(a).entries
    absa = np.abs(arr)
    return MatrixNorms(
        two_norm=float(np.linalg.norm(arr, 2)),
        one_norm=float(absa.sum(axis=0).max()),
        ising_norm=float(absa.sum()),
    )


def sign_matrix(n: int) -> np.ndarray:
    """All 2^n sign vectors in {-1,+1}^n, one per row (bit 0 -> +1)."""
    idx = np.arange(1 << n)
    bits = (idx[:, None] >> np.arange(n)) & 1
    return 1.0 - 2.0 * bits


@cache
def sign_table(k: int) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """sign_matrix(k) and the parity pair (par, -par) of its rows.

    Built on first use and kept for the life of the process, one per k, all
    read-only: every walk that needs a k-bit table shares it.  sign_blocks
    asks for its low block height, k <= 12 under _BLOCK_BYTES; Glynn-Kan and
    GapP for their dimension, k <= 13, x and x' both reading its x_0 = +1
    half; the operator expectation for its dimension, k <= 7.  So the tables
    together take under 2 MiB.
    """
    low = sign_matrix(k)
    par = low.prod(axis=1)
    pars = par, -par
    for table in (low, *pars):
        table.setflags(write=False)
    return low, pars


# Byte budget for one block of rows (sign vectors, samples, permutations or
# drawn matrices) and the per-row temporaries a reduction builds from it;
# every blocked loop sizes its blocks from it, so its memory stays flat in
# the row count.
_BLOCK_BYTES = 1 << 20


def sign_blocks(w: np.ndarray, row_bytes: int):
    """Yield (par(X), (X @ w).T) over all 2^n sign vectors X, 2^k at a time.

    Each block holds the m-vectors X @ w of its 2^k sign vectors as columns of
    an (m, 2^k) C-contiguous array, so a product over one sign vector's m
    coordinates is prod(axis=0), which runs along contiguous rows.  Every
    block is written into one buffer allocated once per walk: the next block
    overwrites this one, and the caller may overwrite it too.  par(X) is one
    of two read-only arrays.  The low k bits of the sign-vector index form
    one block, w's first k rows times sign_table(k), built once per walk;
    each block adds the signed sum of w's rows for its high bits.  row_bytes
    is what the caller materialises per sign vector; k is the largest that
    keeps 2^k such vectors within _BLOCK_BYTES.  The low block and the
    yielded one share one allocation, since two equal blocks freed together
    can make malloc hand both back to the OS, and fault them in again, on
    every call.
    """
    n = w.shape[0]
    k = min(n, max(0, (_BLOCK_BYTES // row_bytes).bit_length() - 1))
    low, pars = sign_table(k)
    low_w, cols = np.empty((2, w.shape[1], 1 << k), dtype=np.result_type(w, low))
    np.matmul(w[:k].T, low.T, out=low_w)
    high_w = w[k:]
    high_bits = np.arange(n - k)
    for h in range(1 << (n - k)):
        bits = (h >> high_bits) & 1
        np.add(low_w, ((1.0 - 2.0 * bits) @ high_w)[:, None], out=cols)
        yield pars[int(bits.sum()) & 1], cols


def ising_diag_spectral_norm(a) -> float:
    """Exact spectral norm of the diagonal Ising operator of A.

    max over sign vectors x, x' of |x'^T A x|; exponential cost, capped at
    n <= 8.  Diagnostic companion to the ising_norm upper bound.
    """
    m = as_matrix(a)
    if m.n > _SPECTRAL_DIAG_MAX_N:
        raise DimensionTooLargeError(
            f"exact diagonal spectral norm capped at n <= {_SPECTRAL_DIAG_MAX_N}, got {m.n}"
        )
    s = sign_matrix(m.n)
    return float(np.abs((s @ m.entries) @ s.T).max())


_ENSEMBLE_KINDS = ("real-standard-normal", "complex-standard-normal")


def gaussian_batches(n: int, count: int, seed: int, kind: str = "real-standard-normal"):
    """Draw `count` i.i.d. Gaussian n x n matrices, deterministic under seed,
    as an iterator of consecutive (b, n, n) pieces of whole matrices, each
    within _BLOCK_BYTES: float64 for the real kind, complex128 for the
    complex kind.

    real-standard-normal: each entry N(0, 1); a piece is the draw itself.
    complex-standard-normal: real and imaginary parts each N(0, 1/2),
    so E|A_jk|^2 = 1; each matrix draws its real part, then its imaginary
    part.

    The pieces come from one generator, drawn in order, so joined they equal
    the one-shot draw bit for bit.  A draw too large for numpy to index as
    one array (count n^2 normals, twice that for complex) is rejected.
    """
    if n < 1:
        raise InvalidInputError("n must be >= 1")
    if count < 1:
        raise InvalidInputError("count must be >= 1")
    if kind not in _ENSEMBLE_KINDS:
        raise InvalidInputError(f"unknown ensemble kind {kind!r}")
    parts = 1 if kind == "real-standard-normal" else 2
    if count * parts * n * n > np.iinfo(np.intp).max:
        raise InvalidInputError(f"{count} draws of {n} x {n} matrices are too many to index")
    rng = np.random.default_rng(seed)
    # per matrix: its float64 draw, and for complex its complex128 entries
    batch = min(count, max(1, _BLOCK_BYTES // ((8 if parts == 1 else 32) * n * n)))
    sizes = (min(batch, count - done) for done in range(0, count, batch))
    if parts == 1:
        return (rng.standard_normal((b, n, n)) for b in sizes)
    return (_complex_pairs(rng.standard_normal((b, 2, n, n))) for b in sizes)


def _complex_pairs(draw: np.ndarray) -> np.ndarray:
    return (draw[:, 0] + 1j * draw[:, 1]) / math.sqrt(2)


# --- JSON matrix format -----------------------------------------------------
#
# {"n": int, "rows": [[entry, ...], ...]} where entry is either a bare number
# (real matrices) or a two-element [re, im] pair.


def _parse_entry(value, row_idx: int):
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if (
        isinstance(value, (list, tuple))
        and len(value) == 2
        and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
    ):
        return complex(value[0], value[1])
    raise InvalidInputError(f"row {row_idx}: entry {value!r} is not a number or [re, im] pair")


def matrix_from_json(obj) -> SquareMatrix:
    if not isinstance(obj, dict) or "n" not in obj or "rows" not in obj:
        raise InvalidInputError('matrix JSON must be an object with "n" and "rows"')
    n = obj["n"]
    rows = obj["rows"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise InvalidInputError('"n" must be a positive integer')
    if not isinstance(rows, list) or len(rows) != n:
        raise InvalidInputError(f'"rows" must be a list of {n} rows')
    entries = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise InvalidInputError(f"row {i}: expected {n} entries")
        entries.append([_parse_entry(v, i) for v in row])
    return SquareMatrix(entries)


def matrix_to_json(a) -> dict:
    m = as_matrix(a)
    if m.is_real:
        rows = [[float(v) for v in row] for row in m.entries]
    else:
        rows = [[[float(v.real), float(v.imag)] for v in row] for row in m.entries]
    return {"n": m.n, "rows": rows}


def load_matrix(path) -> SquareMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidInputError(f"not valid JSON: {exc}") from exc
    return matrix_from_json(obj)


def save_matrix(a, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(matrix_to_json(a), fh)
        fh.write("\n")
