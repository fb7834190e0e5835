"""Square complex matrices, their norms, the sign-vector cube and its blocked
walk, random ensembles, and JSON I/O."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionTooLargeError, InvalidInputError

_SPECTRAL_DIAG_MAX_N = 8


class SquareMatrix:
    """Immutable N x N complex matrix.

    Caches the real/imaginary split and the norm triple on first use; safe
    to share across threads.
    """

    __slots__ = ("_arr", "_norms")

    def __init__(self, entries):
        arr = np.array(entries, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise InvalidInputError("expected a square matrix with n >= 1")
        if not np.all(np.isfinite(arr)):
            raise InvalidInputError("matrix entries must be finite")
        arr.setflags(write=False)
        self._arr = arr
        self._norms = None

    @property
    def n(self) -> int:
        return self._arr.shape[0]

    @property
    def array(self) -> np.ndarray:
        return self._arr

    @property
    def real_part(self) -> np.ndarray:
        return np.real(self._arr)

    @property
    def imag_part(self) -> np.ndarray:
        return np.imag(self._arr)

    @property
    def is_real(self) -> bool:
        return not np.any(self._arr.imag)

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
    arr = as_matrix(a).array
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


# Byte budget for one block of sign-vector rows and the per-row temporaries a
# reduction builds from it; keeps memory flat in N up to every cap.
_BLOCK_BYTES = 1 << 20


def sign_blocks(w: np.ndarray, row_bytes: int):
    """Yield (par(X), (X @ w).T) over all 2^n sign vectors X, 2^k at a time.

    Each block holds the m-vectors X @ w of its 2^k sign vectors as columns of
    an (m, 2^k) C-contiguous array, so a product over one sign vector's m
    coordinates is prod(axis=0), which runs along contiguous rows.  Every
    block is written into one buffer allocated once per walk: the next block
    overwrites this one, and the caller may overwrite it too.  par(X) is one
    of two read-only arrays.  The low k bits of the sign-vector index form
    one block, built once; each block adds the signed sum of w's rows for its
    high bits.  row_bytes is what the caller materialises per sign vector; k
    is the largest that keeps 2^k such vectors within _BLOCK_BYTES.
    """
    n = w.shape[0]
    k = min(n, max(0, (_BLOCK_BYTES // row_bytes).bit_length() - 1))
    low = sign_matrix(k)
    low_par = low.prod(axis=1)
    pars = low_par, -low_par
    for p in pars:
        p.setflags(write=False)
    low_w = w[:k].T @ low.T
    high_w = w[k:]
    high_bits = np.arange(n - k)
    cols = np.empty_like(low_w)
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
    return float(np.abs((s @ m.array) @ s.T).max())


_ENSEMBLE_KINDS = ("real-standard-normal", "complex-standard-normal")


def gaussian_stack(n: int, count: int, seed: int, kind: str = "real-standard-normal") -> np.ndarray:
    """Draw `count` i.i.d. Gaussian n x n matrices as one (count, n, n)
    complex128 array, deterministic under seed.

    real-standard-normal: each entry N(0, 1).
    complex-standard-normal: real and imaginary parts each N(0, 1/2),
    so E|A_jk|^2 = 1; each matrix draws its real part, then its imaginary
    part.
    """
    if count < 1:
        raise InvalidInputError("count must be >= 1")
    if kind not in _ENSEMBLE_KINDS:
        raise InvalidInputError(f"unknown ensemble kind {kind!r}")
    rng = np.random.default_rng(seed)
    if kind == "real-standard-normal":
        return rng.standard_normal((count, n, n)).astype(np.complex128)
    draw = rng.standard_normal((count, 2, n, n))
    return (draw[:, 0] + 1j * draw[:, 1]) / math.sqrt(2)


def gaussian_ensemble(n: int, count: int, seed: int, kind: str = "real-standard-normal"):
    """The matrices of gaussian_stack(n, count, seed, kind), one SquareMatrix each."""
    return [SquareMatrix(draw) for draw in gaussian_stack(n, count, seed, kind)]


# --- JSON matrix format -----------------------------------------------------
#
# {"n": int, "rows": [[entry, ...], ...]} where entry is either a bare number
# (real matrices) or a two-element [re, im] pair.


def _parse_entry(value, row_idx: int):
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(value)
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
        rows = [[float(v) for v in row] for row in m.real_part]
    else:
        rows = [[[float(v.real), float(v.imag)] for v in row] for row in m.array]
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
