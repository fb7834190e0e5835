"""Compensated summation helpers.

The exponential-length sums in this package (2^N .. 4^N terms) would lose
roughly N bits of precision under naive accumulation, so every long scalar
accumulation goes through a Kahan accumulator.  Works for float and complex.
Blocked sums add one correctly rounded sum per block to the accumulator.
"""

from __future__ import annotations

import math

import numpy as np


class KahanSum:
    """Running compensated sum (Kahan)."""

    __slots__ = ("_s", "_c")

    def __init__(self, value=0.0):
        self._s = value
        self._c = value * 0

    def add(self, value) -> None:
        y = value - self._c
        t = self._s + y
        self._c = (t - self._s) - y
        self._s = t

    @property
    def total(self):
        return self._s


def block_sum(values: np.ndarray):
    """Correctly rounded sum (math.fsum) of a 1-D float or complex array.

    Blocks of sign-vector terms cancel heavily; on complex-integer Glynn at
    N=16 a pairwise sum per block left up to 3.8 times the error of a
    per-term Kahan sum.  Non-finite or overflowing blocks, which fsum rejects, take
    NumPy's sum so that inf and nan propagate as before.
    """
    try:
        if np.iscomplexobj(values):
            return complex(math.fsum(values.real.tolist()), math.fsum(values.imag.tolist()))
        return math.fsum(values.tolist())
    except (OverflowError, ValueError):
        return values.sum()
