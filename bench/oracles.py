"""Reference permanents that share no code with the package under test.

Two oracles, both vectorised over whole blocks of subsets or sign vectors
instead of walking a Gray code:

* ``permanent_exact_parts`` evaluates Ryser's formula for integer and Gaussian-
  integer matrices in modular arithmetic over several 31-bit primes and
  recombines the residues by the Chinese remainder theorem.  The result is
  the exact real and imaginary parts as Python ints.
* ``glynn_reference`` evaluates Glynn's formula in float64 with NumPy's
  pairwise summation and also returns the mean absolute term, which scales
  the roundoff any float evaluation of the permanent can be expected to
  carry.

Both run outside every timer.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# 31-bit primes: residues stay below 2^31, so the product of two residues
# fits in int64 before it is reduced.
_PRIMES = (2147483647, 2147483629, 2147483587, 2147483579, 2147483563,
           2147483549, 2147483543, 2147483497, 2147483489, 2147483477,
           2147483423, 2147483399, 2147483353, 2147483323, 2147483269,
           2147483249, 2147483237, 2147483179, 2147483171, 2147483137)
_BLOCK = 1 << 13


def _subset_bits(start: int, stop: int, n: int) -> np.ndarray:
    idx = np.arange(start, stop, dtype=np.int64)
    return (idx[:, None] >> np.arange(n, dtype=np.int64)) & 1


def _crt(residues: list[int], primes: list[int]) -> int:
    total, modulus = 0, 1
    for r, p in zip(residues, primes):
        # solve total + modulus * k == r (mod p)
        k = ((r - total) * pow(modulus, -1, p)) % p
        total += modulus * k
        modulus *= p
    return total if total <= modulus // 2 else total - modulus


def permanent_exact_parts(a) -> tuple[int, int]:
    """(Re Per(A), Im Per(A)) as exact Python ints."""
    arr = np.asarray(a)
    n = arr.shape[0]
    re = np.rint(arr.real).astype(np.int64)
    im = np.rint(arr.imag).astype(np.int64) if np.iscomplexobj(arr) else np.zeros_like(re)
    if not (np.array_equal(re, arr.real) and np.array_equal(im, np.imag(arr))):
        raise ValueError("permanent_exact needs integer-valued entries")
    # |Per| <= prod_i sum_j |a_ij|; the primes must cover twice that per part.
    bound = 1
    for i in range(n):
        bound *= int(np.abs(re[i]).sum() + np.abs(im[i]).sum())
    primes: list[int] = []
    modulus = 1
    for p in _PRIMES:
        if modulus > 2 * bound:
            break
        primes.append(p)
        modulus *= p
    if modulus <= 2 * bound:
        raise ValueError("matrix entries too large for the modular oracle")

    acc_re = [0] * len(primes)
    acc_im = [0] * len(primes)
    for start in range(1, 1 << n, _BLOCK):
        bits = _subset_bits(start, min(start + _BLOCK, 1 << n), n)
        sign = np.where(bits.sum(axis=1) % 2 == n % 2, 1, -1)
        sums_re = bits @ re.T            # row sums over the subset, exact
        sums_im = bits @ im.T
        for k, p in enumerate(primes):
            r = sums_re % p
            s = sums_im % p
            pr, pi = r[:, 0].copy(), s[:, 0].copy()
            for j in range(1, n):
                pr, pi = (pr * r[:, j] - pi * s[:, j]) % p, (pr * s[:, j] + pi * r[:, j]) % p
            acc_re[k] = (acc_re[k] + int((sign * pr).sum())) % p
            acc_im[k] = (acc_im[k] + int((sign * pi).sum())) % p
    return _crt(acc_re, primes), _crt(acc_im, primes)


def glynn_reference(a) -> tuple[complex, float]:
    """(Per(A), mean |term|) by Glynn's formula over all 2^N sign vectors.

    The first sign is fixed to +1 (the summand is even in x), so 2^(N-1)
    vectors are evaluated, in blocks, each product formed directly.
    """
    arr = np.asarray(a, dtype=np.complex128)
    n = arr.shape[0]
    count = 1 << (n - 1)
    total = 0j
    total_abs = 0.0
    for start in range(0, count, _BLOCK):
        bits = _subset_bits(start, min(start + _BLOCK, count), n - 1)
        x = np.concatenate([np.ones((bits.shape[0], 1)), 1.0 - 2.0 * bits], axis=1)
        terms = x.prod(axis=1) * (x @ arr.T).prod(axis=1)
        total += terms.sum()
        total_abs += float(np.abs(terms).sum())
    return total / count, total_abs / count


def exact_abs_error(value: complex, parts: tuple[int, int]) -> float:
    """|value - Per| against exact integer parts, without rounding Per first."""
    re, im = parts
    value = complex(value)
    dre = Fraction(value.real) - re
    dim = Fraction(value.imag) - im
    return math.sqrt(float(dre * dre + dim * dim))
