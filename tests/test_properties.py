"""Property-based invariants over random matrices."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from test_classical import U, _abs_term_sum

from isingperm import (ProtocolConfig, exact_overlap_evaluator, norms, permanent_gapp,
                       permanent_glynn, permanent_glynn_kan, permanent_ryser, run_protocol,
                       select_dt)

finite = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False,
                   allow_infinity=False, width=64)


def square(n):
    return arrays(np.float64, (n, n), elements=finite)


@given(a=square(4), seed=st.integers(0, 2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_permanent_invariant_under_permutation(a, seed):
    rng = np.random.default_rng(seed)
    perm = rng.permutation(4)
    base = permanent_ryser(a).value
    scale = max(1.0, abs(base))
    assert abs(permanent_ryser(a[perm]).value - base) / scale < 1e-9
    assert abs(permanent_ryser(a[:, perm]).value - base) / scale < 1e-9


@given(a=square(4))
@settings(max_examples=50, deadline=None)
def test_transpose_invariance(a):
    base = permanent_glynn(a).value
    scale = max(1.0, abs(base))
    assert abs(permanent_glynn(a.T).value - base) / scale < 1e-9


@given(a=square(3), c=st.floats(min_value=-3.0, max_value=3.0,
                                allow_nan=False, allow_infinity=False))
@settings(max_examples=50, deadline=None)
def test_row_scaling_multiplies_permanent(a, c):
    scaled = a.copy()
    scaled[0] *= c
    base = permanent_ryser(a).value
    scale = max(1.0, abs(c * base))
    assert abs(permanent_ryser(scaled).value - c * base) / scale < 1e-9


@given(a=square(3))
@settings(max_examples=50, deadline=None)
def test_norm_ordering(a):
    res = norms(a)
    assert res.two_norm <= res.ising_norm + 1e-9
    assert res.two_norm <= np.sqrt(3) * res.one_norm + 1e-9


# --- identities that need no second oracle -----------------------------------
#
# Each side of an identity is computed by the kernel under test, so the check
# is exact up to rounding at any N.  Every exact kernel's error is within
# 16 u S, S its own sum of |terms| (test_classical._abs_term_sum), so the two
# sides may differ by twice that.
KERNELS = {"ryser": permanent_ryser, "glynn": permanent_glynn,
           "glynn_kan": permanent_glynn_kan, "gapp": permanent_gapp}
KERNEL_FIELDS = [(k, c) for k in KERNELS for c in (False, True) if not (k == "gapp" and c)]

# no entry so small that a product of N of them leaves the normal floats, where
# rounding is no longer relative
entry = st.one_of(st.just(0.0), st.floats(1e-6, 5.0), st.floats(-5.0, -1e-6))


@st.composite
def kernel_input(draw, complex_):
    n = draw(st.integers(1, 6))
    a = draw(arrays(np.float64, (n, n), elements=entry))
    if complex_:
        a = a + 1j * draw(arrays(np.float64, (n, n), elements=entry))
    return a


def assert_kernel_identity(kernel, left, right, scale=1.0):
    # kernel(left) == scale * kernel(right), within twice 16 u S
    got, want = KERNELS[kernel](left).value, scale * KERNELS[kernel](right).value
    tol = 2 * 16 * U * max(_abs_term_sum(kernel, left), abs(scale) * _abs_term_sum(kernel, right))
    assert abs(got - want) <= tol, (got, want, tol)


@pytest.mark.parametrize("kernel, complex_", KERNEL_FIELDS)
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_kernel_invariant_under_permutations_and_transpose(kernel, complex_, data):
    a = data.draw(kernel_input(complex_))
    n = a.shape[0]
    p = data.draw(st.permutations(range(n)))
    q = data.draw(st.permutations(range(n)))
    assert_kernel_identity(kernel, a[p][:, q], a)
    assert_kernel_identity(kernel, a.T, a)


@pytest.mark.parametrize("kernel, complex_", KERNEL_FIELDS)
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_kernel_diagonal_scaling(kernel, complex_, data):
    a = data.draw(kernel_input(complex_))
    n = a.shape[0]
    scales = arrays(np.float64, n, elements=st.floats(0.25, 4.0) | st.floats(-4.0, -0.25))
    d, e = data.draw(scales), data.draw(scales)
    assert_kernel_identity(kernel, d[:, None] * a * e, a, scale=np.prod(d) * np.prod(e))


@pytest.mark.parametrize("kernel", ["ryser", "glynn", "glynn_kan"])
@given(a=kernel_input(complex_=True))
@settings(max_examples=15, deadline=None)
def test_kernel_conjugate(kernel, a):
    got = KERNELS[kernel](a.conj()).value
    want = KERNELS[kernel](a).value.conjugate()
    assert abs(got - want) <= 2 * 16 * U * _abs_term_sum(kernel, a)


@given(seed=st.integers(0, 2**32 - 1), n_a=st.integers(1, 10), n_b=st.integers(1, 10))
@example(seed=0, n_a=10, n_b=10)  # 2N = 20
@settings(max_examples=12, deadline=None)
def test_ryser_direct_sum(seed, n_a, n_b):
    # Per(A (+) B) = Per(A) Per(B).  Ryser's terms on the direct sum are the
    # products of A's and B's terms, so its S is S(A) S(B); each of the three
    # calls contributes at most 16 u S(A) S(B).
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal((n_a, n_a)), rng.standard_normal((n_b, n_b))
    block = np.zeros((n_a + n_b,) * 2)
    block[:n_a, :n_a], block[n_a:, n_a:] = a, b
    got = permanent_ryser(block).value
    want = permanent_ryser(a).value * permanent_ryser(b).value
    assert abs(got - want) <= 3 * 16 * U * _abs_term_sum("ryser", a) * _abs_term_sum("ryser", b)


def exact_run(a, dt):
    return run_protocol(a, ProtocolConfig(dt=dt), exact_overlap_evaluator()).value


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("n", range(3, 9))
def test_protocol_identities(n, complex_):
    # Permuting rows moves which entries meet the (pi/dt) I shift of every
    # term, so agreement checks the shift-as-parity identity itself; the
    # protocol's error against Per is far larger than the tolerance.
    rng = np.random.default_rng(300 + n + 10 * complex_)
    a = 0.1 * rng.standard_normal((n, n))
    if complex_:
        a = a + 0.1j * rng.standard_normal((n, n))
    dt = select_dt(a).chosen
    base = exact_run(a, dt)
    p, q = rng.permutation(n), rng.permutation(n)
    c = 1.7
    cases = [(a[p][:, q], dt, base), (a.T, dt, base), (-a, dt, (-1) ** n * base),
             (a.conj(), dt, base.conjugate()), (c * a, dt / c, c**n * base)]
    for m, step, want in cases:
        assert abs(exact_run(m, step) - want) <= 1e-10 * abs(want)
