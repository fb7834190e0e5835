import math
from fractions import Fraction

import numpy as np
import pytest

from isingperm.accumulate import LaneSum, block_sum


def _lane_total(blocks):
    lanes = LaneSum()
    for block in blocks:
        lanes.add(block.copy())
    return lanes.total()


@pytest.mark.parametrize("complex_", [False, True])
def test_single_block_is_block_sum(complex_):
    rng = np.random.default_rng(3)
    x = rng.standard_normal(1000) * 2.0 ** rng.integers(-30, 30, 1000)
    if complex_:
        x = x + 1j * rng.standard_normal(1000)
    want = block_sum(x)
    lanes = LaneSum()
    lanes.add(x)
    got = lanes.total()
    assert type(got) is type(want) and got == want


def _cancelling_blocks(rng, blocks, width):
    # big terms that cancel in pairs across blocks, plus unit-size terms
    big = rng.standard_normal(blocks * width // 4) * 2.0 ** rng.integers(0, 40, blocks * width // 4)
    small = rng.standard_normal(blocks * width // 2)
    terms = np.concatenate((big, -big, small))
    rng.shuffle(terms)
    return terms.reshape(blocks, width)


@pytest.mark.parametrize("seed", range(4))
def test_cancelling_blocks_match_exact_sum(seed):
    rng = np.random.default_rng(seed)
    re = _cancelling_blocks(rng, 16, 256)
    im = _cancelling_blocks(rng, 16, 256)
    got = _lane_total(re + 1j * im)
    for part, blocks in ((got.real, re), (got.imag, im)):
        exact = sum(map(Fraction, blocks.ravel().tolist()))
        assert abs(Fraction(part) - exact) <= math.ulp(float(exact))
        # a plain sum of the same terms misses by far more than an ulp
        assert abs(Fraction(float(blocks.sum())) - exact) > 1000 * math.ulp(float(exact))


@pytest.mark.parametrize("where", [0, 1, 2])
def test_nonfinite_lane_propagates(where):
    # a lane that holds inf reads inf, and one that holds nan reads nan,
    # whichever block brings it; no RuntimeWarning escapes the accumulator
    blocks = np.random.default_rng(5).standard_normal((3, 8))
    for bad, check in ((math.inf, lambda v: v == math.inf), (math.nan, math.isnan)):
        case = blocks.copy()
        case[where, 5] = bad
        assert check(_lane_total(case))
        assert check(_lane_total(case + 0j).real)
