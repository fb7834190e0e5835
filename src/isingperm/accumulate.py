"""The package's one summation rule.

The exponential-length sums in this package (2^N .. 4^N terms) cancel
heavily and would lose roughly N bits of precision under naive
accumulation.  Every long sum therefore goes through block_sum, in one of
two ways:

- A sign-vector walk (Ryser, Glynn, overlap_exact) adds its blocks of terms
  lane by lane into a LaneSum: each block's term vector is added to running
  lane sums s by the error-free TwoSum transformation (Ogita, Rump and
  Oishi, "Accurate sum and dot product", SIAM J. Sci. Comput. 26, 2005),
  and the rounding error of every lane addition is collected in error lanes
  c.  The walk is rounded once, as one block_sum over s and c together.
  Over B blocks of terms x the error is at most u|S| + gamma_{B-1}^2 sum|x|
  (u = 2^-53, gamma_k = k u / (1 - k u)), against u sum_b |S_b| + u|S| for
  rounding each block's sum S_b and then their total S.  A walk of one
  block is block_sum of that block, correctly rounded.
- Any other sum of pieces (Glynn-Kan and GapP slices, Gurvits batches,
  permanent_naive chunks, recombined terms) reduces each piece, collects
  the pieces in a list, and returns one block_sum of that list.

One inner sum is not rounded this way: Glynn-Kan and GapP take each x'
column's sum over the 2^(N-1) vectors x in one BLAS product, whose worst-case
error grows like 2^(N-1) u sum|terms| against about (N-1) u for a pairwise
sum.  That product is what makes the 4^N kernels fast; on integer matrices at
N = 11 to 13 the measured error stays below 0.02 u sum|terms|, and the test
suite checks 16 u sum|terms| up to N = 12.

Works for float and complex.
"""

from __future__ import annotations

import math

import numpy as np


def block_sum(values):
    """Correctly rounded sum (math.fsum) of a 1-D float or complex array or list.

    Blocks of sign-vector terms cancel heavily; on complex-integer Glynn at
    N=16 a pairwise sum per block left up to 3.8 times the error of a
    per-term Kahan sum.  Non-finite or overflowing input, which fsum rejects,
    takes NumPy's sum so that inf and nan propagate.
    """
    values = np.asarray(values)
    try:
        if np.iscomplexobj(values):
            return complex(math.fsum(values.real.tolist()), math.fsum(values.imag.tolist()))
        return math.fsum(values.tolist())
    except (OverflowError, ValueError):
        return values.sum()


class LaneSum:
    """Sum of equal-length 1-D blocks of terms, added lane by lane and rounded once.

    add() takes each block over: the first is kept as the lane sums without
    a copy, and later ones are overwritten as scratch.  total() of a single
    block is exactly block_sum(block).  Once a lane holds inf or nan its
    error lane is meaningless (inf - inf), so the total is then block_sum of
    the lane sums alone, which is inf or nan as NumPy's sum gives it.
    """

    __slots__ = ("_s", "_c", "_t", "_u")

    def __init__(self):
        self._s = self._c = self._t = self._u = None

    def add(self, x: np.ndarray) -> None:
        if self._s is None:
            self._s = x
            return
        if self._c is None:
            self._c = np.zeros_like(self._s)
            self._t = np.empty_like(self._s)
            self._u = np.empty_like(self._s)
        s, c, t, u = self._s, self._c, self._t, self._u
        with np.errstate(invalid="ignore"):
            np.add(s, x, out=t)        # t = fl(s + x); TwoSum: s + x = t + e exactly
            np.subtract(t, s, out=u)   # u = the part of t that came from x
            np.subtract(x, u, out=x)   # x's rounding error
            np.subtract(t, u, out=u)   # u = the part of t that came from s
            np.subtract(s, u, out=s)   # s's rounding error
            s += x                     # e
            c += s
        self._s, self._t = t, s

    def total(self):
        """block_sum of every term added so far; a float or a complex."""
        s, c = self._s, self._c
        if c is None or not np.isfinite(s).all():
            return block_sum(s)
        return block_sum(np.concatenate((s, c)))
