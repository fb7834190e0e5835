import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from isingperm import matrices
from isingperm import (
    DimensionTooLargeError,
    InvalidInputError,
    norms,
    overlap_exact,
    permanent_gapp,
    permanent_glynn,
    permanent_glynn_kan,
    permanent_gurvits,
    permanent_naive,
    permanent_ryser,
)


def reference_permanent(a):
    # independent oracle: direct sum over permutations, no shared code paths
    arr = np.asarray(a, dtype=np.complex128)
    n = arr.shape[0]
    total = 0.0 + 0.0j
    for perm in itertools.permutations(range(n)):
        prod = 1.0 + 0.0j
        for row, col in enumerate(perm):
            prod *= arr[row, col]
        total += prod
    return total


EXACT_METHODS = [
    permanent_naive,
    permanent_ryser,
    permanent_glynn,
    permanent_glynn_kan,
]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_exact_methods_match_oracle_complex(n):
    rng = np.random.default_rng(100 + n)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    expected = reference_permanent(a)
    scale = max(1.0, abs(expected))
    for method in EXACT_METHODS:
        got = method(a).value
        assert abs(got - expected) / scale < 1e-9, method.__name__


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_exact_methods_match_oracle_real(n):
    rng = np.random.default_rng(200 + n)
    a = rng.standard_normal((n, n))
    expected = reference_permanent(a)
    scale = max(1.0, abs(expected))
    for method in EXACT_METHODS + [permanent_gapp]:
        got = method(a).value
        assert abs(got - expected) / scale < 1e-9, method.__name__


U = 2.0**-53


def _sign_cube(n):
    idx = np.arange(1 << n)
    return 1 - 2 * ((idx[:, None] >> np.arange(n)) & 1)


def exact_integer_permanent(a):
    """Ryser over all column subsets: int64 row sums, Python-int products.

    Entries are Gaussian integers; returns the exact permanent as a
    (real, imag) pair of Python ints.
    """
    re = np.rint(np.real(a)).astype(np.int64)
    im = np.rint(np.imag(a)).astype(np.int64)
    n = re.shape[0]
    subsets = (1 - _sign_cube(n)) // 2
    total_re = total_im = 0
    for v, sums_re, sums_im in zip(subsets, (subsets @ re.T).tolist(),
                                   (subsets @ im.T).tolist()):
        p_re, p_im = 1, 0
        for x, y in zip(sums_re, sums_im):
            p_re, p_im = p_re * x - p_im * y, p_re * y + p_im * x
        sign = -1 if (n - int(v.sum())) % 2 else 1
        total_re += sign * p_re
        total_im += sign * p_im
    return total_re, total_im


def _abs_term_sum(kernel, a):
    """Sum of |terms| of each kernel's own formula, at its normalisation."""
    n = a.shape[0]
    if kernel == "ryser":
        subsets = (1 - _sign_cube(n)) // 2
        return np.abs(subsets @ a.T).prod(axis=1).sum()
    if kernel == "glynn":
        return np.abs(_sign_cube(n) @ a.T).prod(axis=1).sum() / 2**n
    if kernel == "gapp" and n % 2:
        a = np.pad(a, ((0, 1), (0, 1)))
        a[n, n] = 1.0
        n += 1
    s = _sign_cube(n)
    s_re, s_im = s @ a.real, s @ a.imag
    total = 0.0
    for k in range(0, len(s), 256):  # 256 x' rows at a time: 8 MiB per array at N = 12
        q = np.abs(s_re[k:k + 256] @ s.T) + np.abs(s_im[k:k + 256] @ s.T)
        total += (q**n).sum()
    return total / (math.factorial(n) * 4**n)


# At the 1 MiB block budget these sizes make every Ryser and Glynn walk span
# several blocks, and every Glynn-Kan and GapP call but real N = 9 and
# complex N = 8 (one slice each) several x' slices;
# test_pair_sums_independent_of_slicing covers one, two and several slices.
# Real Glynn-Kan at N = 11, 12 and GapP at N = 11 (padded to 12) check the
# longest BLAS inner sums over x: 1024 and 2048 terms, not rounded exactly.
@pytest.mark.parametrize("kernel, n, complex_", [
    ("ryser", 14, False), ("ryser", 13, True),
    ("glynn", 14, False), ("glynn", 13, True),
    ("glynn_kan", 9, False), ("glynn_kan", 10, False), ("glynn_kan", 11, False),
    ("glynn_kan", 12, False), ("glynn_kan", 8, True),
    ("glynn_kan", 9, True), ("glynn_kan", 10, True),
    ("gapp", 9, False), ("gapp", 10, False), ("gapp", 11, False),
])
def test_exact_methods_match_integer_oracle(kernel, n, complex_):
    rng = np.random.default_rng(n + 100 * complex_)
    method = {"ryser": permanent_ryser, "glynn": permanent_glynn,
              "glynn_kan": permanent_glynn_kan, "gapp": permanent_gapp}[kernel]
    for _ in range(3):
        a = rng.integers(-3, 4, (n, n)).astype(float)
        if complex_:
            a = a + 1j * rng.integers(-3, 4, (n, n))
        want_re, want_im = exact_integer_permanent(a)
        got = method(a).value
        err = math.hypot(float(Fraction(got.real) - want_re), float(Fraction(got.imag) - want_im))
        assert err <= 16 * U * _abs_term_sum(kernel, a), (kernel, n, complex_)


@pytest.mark.parametrize("seed", range(3))
def test_walks_independent_of_block_size(seed, monkeypatch):
    # entries in -2..2 at N = 8 keep every Ryser and Glynn term and partial
    # sum an integer below 2^53, so both must be exact at any block size
    a = np.random.default_rng(seed).integers(-2, 3, (8, 8)).astype(float)
    want = complex(exact_integer_permanent(a)[0])
    values = []
    for block_bytes in (matrices._BLOCK_BYTES, 4 << 10):  # 4 KiB: 4 to 8 blocks per walk
        monkeypatch.setattr(matrices, "_BLOCK_BYTES", block_bytes)
        values.append((permanent_ryser(a).value, permanent_glynn(a).value,
                       overlap_exact(0.1 * a, 0.7).value))
    assert repr(values[0]) == repr(values[1])  # repr tells every float apart, -0.0 included
    assert values[0][:2] == (want, want)


@pytest.mark.parametrize("kernel, complex_", [
    ("glynn_kan", False), ("glynn_kan", True), ("gapp", False)])
@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_pair_sums_independent_of_slicing(n, kernel, complex_, monkeypatch):
    # entries in -1..1 keep every pair term q^N, and so every partial sum in
    # any order, an integer below 2^53 (checked), so every slicing of the x'
    # half cube must give the exact permanent
    rng = np.random.default_rng(60 + n + 10 * complex_)
    a = rng.integers(-1, 2, (n, n)).astype(float)
    if complex_:
        a = a + 1j * rng.integers(-1, 2, (n, n))
    m = n + (kernel == "gapp" and n % 2)  # GapP pads odd N by one
    padded = np.eye(m, dtype=a.dtype)
    padded[:n, :n] = a
    s = _sign_cube(m)
    assert (np.abs(s @ padded @ s.T) ** m).sum() < 2.0**53
    want = complex(*exact_integer_permanent(a))
    method = permanent_glynn_kan if kernel == "glynn_kan" else permanent_gapp
    half = 1 << (m - 1)
    col_bytes = 2 * a.itemsize * half  # q and its power: two columns per x'
    values = [method(a).value]
    for slices in (1, 2, half):
        monkeypatch.setattr(matrices, "_BLOCK_BYTES", half // slices * col_bytes)
        values.append(method(a).value)
    assert len(set(map(repr, values))) == 1, values
    assert values[0] == want


# At the 1 MiB block budget one product covers the whole sum for Ryser up
# to N = 12 real and 11 complex, Glynn up to 13 and 12, Glynn-Kan up to 9
# and 8 and GapP up to 8 (N = 9 pads to 10); each case runs to one N past
# that switch.  An 8-byte budget puts one sign vector in each walk block and
# one x' in each slice, so every N >= 2 takes the walk or the slice loop.
SWITCH_CASES = [("ryser", False, 13), ("ryser", True, 12), ("glynn", False, 14),
                ("glynn", True, 13), ("glynn_kan", False, 10), ("glynn_kan", True, 9),
                ("gapp", False, 9)]


@pytest.mark.parametrize("kernel, complex_, top", SWITCH_CASES)
def test_one_product_path_matches_walk(kernel, complex_, top, monkeypatch):
    method = {"ryser": permanent_ryser, "glynn": permanent_glynn,
              "glynn_kan": permanent_glynn_kan, "gapp": permanent_gapp}[kernel]
    rng = np.random.default_rng(70 + top + 100 * complex_)
    for n in range(1, top + 1):
        ints = rng.integers(-3, 4, (n, n)).astype(float)
        floats = rng.standard_normal((n, n))
        if complex_:
            ints = ints + 1j * rng.integers(-3, 4, (n, n))
            floats = floats + 1j * rng.standard_normal((n, n))
        fast = method(ints).value, method(floats).value
        with monkeypatch.context() as patch:
            patch.setattr(matrices, "_BLOCK_BYTES", 8)
            walked = method(ints).value, method(floats).value
        # Ryser's and Glynn's integer terms are formed alike on both paths and
        # summed to the correctly rounded total; Glynn-Kan's and GapP's inner
        # sums are BLAS products whose order may move with the slice width,
        # so theirs are equal while every partial sum is an integer below 2^53
        m = n + (kernel == "gapp" and n % 2)
        raw = _abs_term_sum(kernel, ints) * math.factorial(m) * 4**m
        if kernel in ("ryser", "glynn") or raw < 2.0**53:
            assert fast[0] == walked[0], (kernel, n)
        else:
            assert abs(fast[0] - walked[0]) <= 16 * U * _abs_term_sum(kernel, ints), (kernel, n)
        assert abs(fast[1] - walked[1]) <= 16 * U * _abs_term_sum(kernel, floats), (kernel, n)


# N = 1 leaves the half-cube walks an empty sign vector; N = 2, 3 cover even
# and odd N, where the unsigned Glynn-Kan terms change sign under x -> -x.
@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_half_cube_kernels_small_n(n, complex_):
    rng = np.random.default_rng(50 + n)
    a = rng.standard_normal((n, n))
    if complex_:
        a = a + 1j * rng.standard_normal((n, n))
    want = permanent_naive(a).value
    methods = [permanent_glynn, permanent_glynn_kan] + ([] if complex_ else [permanent_gapp])
    for method in methods:
        assert method(a).value == pytest.approx(want, rel=1e-13, abs=1e-14), method.__name__
    if not complex_:
        est = permanent_gapp(a)
        assert est.extra["s_plus"] - est.extra["s_minus"] == pytest.approx(
            want.real, rel=1e-12, abs=1e-14)


def test_overflow_gives_nonfinite_value():
    a = np.full((3, 3), 1e200)
    with np.errstate(over="ignore", invalid="ignore"):
        for method in (permanent_ryser, permanent_glynn, permanent_glynn_kan):
            assert not np.isfinite(method(a).value), method.__name__


def test_overflow_reads_inf_across_blocks_and_batches(monkeypatch):
    # every term is +inf; a sum over several batches or blocks must stay inf.
    # Complex terms that overflow are inf+infj or inf+nanj and sum to
    # nan+nanj, which the kernels report as a value of infinite modulus,
    # from one product and from the walk or slice loop alike
    def complex_reads_inf(method):
        with np.errstate(invalid="ignore"):  # NumPy's complex products of infinities
            return abs(method(1e50 * np.eye(8) + 1e-3j).value) == math.inf

    complex_kernels = (permanent_ryser, permanent_glynn, permanent_glynn_kan)
    with np.errstate(over="ignore"):
        est = permanent_gurvits(1e200 * np.eye(2), samples=60_000, seed=1)  # 3 batches
        assert est.value == complex(math.inf, 0.0)
        for method in complex_kernels:
            assert complex_reads_inf(method), method.__name__
        monkeypatch.setattr(matrices, "_BLOCK_BYTES", 1 << 11)  # 2^4 of Glynn's 2^7 vectors
        assert permanent_glynn(1e50 * np.eye(8)).value == complex(math.inf, 0.0)
        for method in complex_kernels:
            assert complex_reads_inf(method), method.__name__


def test_known_values():
    ones4 = np.ones((4, 4))
    assert permanent_ryser(ones4).value == pytest.approx(24.0, abs=1e-9)
    assert permanent_glynn(np.eye(5)).value == pytest.approx(1.0, abs=1e-12)
    a = [[1.0, 2.0], [3.0, 4.0]]
    assert permanent_naive(a).value == pytest.approx(10.0, abs=1e-12)


def test_zero_row_gives_exact_zero():
    a = np.ones((4, 4))
    a[2] = 0.0
    for method in EXACT_METHODS:
        assert abs(method(a).value) < 1e-12


def test_permutation_invariance():
    rng = np.random.default_rng(23)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    base = permanent_ryser(a).value
    perm = rng.permutation(5)
    assert permanent_ryser(a[perm]).value == pytest.approx(base, rel=1e-10)
    assert permanent_ryser(a[:, perm]).value == pytest.approx(base, rel=1e-10)
    assert permanent_ryser(a.T).value == pytest.approx(base, rel=1e-10)


def test_row_scaling():
    rng = np.random.default_rng(29)
    a = rng.standard_normal((4, 4))
    scaled = a.copy()
    scaled[1] *= 3.0
    assert permanent_glynn(scaled).value == pytest.approx(
        3.0 * permanent_glynn(a).value, rel=1e-10
    )


def test_glynn_kan_complex_dispatch():
    rng = np.random.default_rng(31)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    est = permanent_glynn_kan(a)
    assert est.method == "glynn_kan_complex"
    assert permanent_glynn_kan(a.real).method == "glynn_kan"


def test_gapp_split_consistency():
    rng = np.random.default_rng(37)
    for n in (2, 3, 4, 5):
        a = rng.standard_normal((n, n))
        est = permanent_gapp(a)
        expected = reference_permanent(a)
        assert est.extra["s_plus"] >= 0.0
        assert est.extra["s_minus"] >= 0.0
        assert est.extra["s_plus"] - est.extra["s_minus"] == pytest.approx(
            est.value.real, rel=1e-12, abs=1e-12
        )
        assert est.value == pytest.approx(expected.real, rel=1e-9, abs=1e-9)
        assert est.extra["padded"] == (n % 2 == 1)


def test_gapp_rejects_complex():
    with pytest.raises(InvalidInputError):
        permanent_gapp([[1.0 + 1.0j]])


def test_wall_terms_reported():
    a = np.eye(3)
    assert permanent_ryser(a).wall_terms == 2**3 - 1
    assert permanent_glynn(a).wall_terms == 2**3
    assert permanent_glynn_kan(a).wall_terms == 4**3
    assert permanent_glynn_kan(a + 1j * np.eye(3)).wall_terms == 4**3


def test_dimension_caps():
    with pytest.raises(DimensionTooLargeError):
        permanent_naive(np.eye(11))
    with pytest.raises(DimensionTooLargeError):
        permanent_glynn_kan(np.eye(14))


def test_gurvits_bound_and_concentration():
    rng = np.random.default_rng(43)
    a = rng.standard_normal((5, 5)) / math.sqrt(5)
    truth = reference_permanent(a).real
    samples = 20_000
    est = permanent_gurvits(a, samples=samples, seed=7)
    bound = 3.0 * norms(a).two_norm ** 5 / math.sqrt(samples)
    assert est.error_bound == pytest.approx(bound, rel=1e-12)
    assert abs(est.value - truth) < bound
    assert est.samples_used == samples


def test_gurvits_deterministic_under_seed():
    a = np.ones((3, 3))
    e1 = permanent_gurvits(a, samples=500, seed=9)
    e2 = permanent_gurvits(a, samples=500, seed=9)
    assert e1.value == e2.value


def gurvits_fixed_batches(a, samples, seed):
    """The sampler in complex arithmetic with fixed 65 536-row batches.

    Each sample takes ceil(N/64) raw 64-bit words from the seed's bit
    generator; coordinate j is +1 when bit j % 64 of word j // 64 is set.
    Returns (mean, stderr, mean |term|).
    """
    arr = np.asarray(a, dtype=np.complex128)
    n = arr.shape[0]
    words = -(-n // 64)
    word_of = np.arange(n) // 64
    shift = (np.arange(n) % 64).astype(np.uint64)
    bit_gen = np.random.default_rng(seed).bit_generator
    total, total_sq, total_abs, done = 0j, 0.0, 0.0, 0
    while done < samples:
        batch = min(65536, samples - done)
        raw = bit_gen.random_raw(batch * words).reshape(batch, words)
        x = ((raw[:, word_of] >> shift) & np.uint64(1)) * 2.0 - 1.0
        vals = x.prod(axis=1) * (x @ arr.T).prod(axis=1)
        total += vals.sum()
        total_sq += float((np.abs(vals) ** 2).sum())
        total_abs += float(np.abs(vals).sum())
        done += batch
    mean = total / samples
    var = max(total_sq / samples - abs(mean) ** 2, 0.0)
    return mean, math.sqrt(var / samples), total_abs / samples


def _gurvits_case(n, complex_, seed):
    rng = np.random.default_rng(1000 * n + 10 * complex_ + seed)
    a = rng.standard_normal((n, n)) / math.sqrt(n)
    if complex_:
        a = a + 1j * rng.standard_normal((n, n)) / math.sqrt(n)
    return a


GURVITS_CASES = [(n, c, seed) for n, c in ((6, False), (9, False), (5, True), (20, False),
                                          (70, False))
                 for seed in range(3)]


@pytest.mark.parametrize("n, complex_, seed", GURVITS_CASES)
def test_gurvits_same_samples_as_fixed_batches(n, complex_, seed):
    a = _gurvits_case(n, complex_, seed)
    want, want_stderr, mean_abs = gurvits_fixed_batches(a, 150_000, seed)
    est = permanent_gurvits(a, samples=150_000, seed=seed)
    assert abs(est.value - want) <= 1e-12 * mean_abs
    assert est.extra["stderr"] == pytest.approx(want_stderr, rel=1e-10)


@pytest.mark.parametrize("n, complex_, seed", GURVITS_CASES[::3])
def test_gurvits_batch_size_invariant(n, complex_, seed, monkeypatch):
    a = _gurvits_case(n, complex_, seed)
    _, _, mean_abs = gurvits_fixed_batches(a, 20_000, seed)
    base = permanent_gurvits(a, samples=20_000, seed=seed)
    monkeypatch.setattr(matrices, "_BLOCK_BYTES", 4 << 10)
    small = permanent_gurvits(a, samples=20_000, seed=seed)
    assert abs(small.value - base.value) <= 1e-12 * mean_abs
    assert small.extra["stderr"] == pytest.approx(base.extra["stderr"], rel=1e-10)


def test_gurvits_bound_overflow_is_infinite():
    # every term is finite, but ||A||_2^300 is near 1e372
    a = 0.5 * np.random.default_rng(53).standard_normal((300, 300))
    est = permanent_gurvits(a, samples=64, seed=5)
    assert est.error_bound == math.inf
    assert np.isfinite(est.value)
    assert est.extra["stderr"] == math.inf


def test_gurvits_memory_bounded():
    a = np.random.default_rng(47).standard_normal((20, 20)) / math.sqrt(20)
    tracemalloc.start()
    try:
        permanent_gurvits(a, samples=200_000, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_naive_memory_bounded():
    # 40 320 permutations in batches sized to matrices._BLOCK_BYTES (1 MiB);
    # a first small call keeps numpy's one-time set-up out of the trace
    a = np.random.default_rng(59).standard_normal((8, 8))
    permanent_naive(a[:2, :2])
    tracemalloc.start()
    try:
        permanent_naive(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


@pytest.mark.parametrize("complex_", [False, True])
def test_naive_exact_at_every_batch_size(complex_, monkeypatch):
    # entries in -2..2 at N = 6 keep every term and partial sum an integer
    # below 2^53: one, seven and all 720 permutations per batch agree exactly
    rng = np.random.default_rng(61)
    a = rng.integers(-2, 3, (6, 6)).astype(float)
    if complex_:
        a = a + 1j * rng.integers(-2, 3, (6, 6))
    m = matrices.SquareMatrix(a)
    per_perm = 48 + (16 + m.entries.itemsize) * 6
    want = permanent_ryser(a).value
    assert want == complex(*exact_integer_permanent(a))
    for block_bytes in (1, 7 * per_perm, 720 * per_perm):
        monkeypatch.setattr(matrices, "_BLOCK_BYTES", block_bytes)
        assert permanent_naive(m).value == want


def test_empty_like_smallest_case():
    assert permanent_naive([[7.0]]).value == pytest.approx(7.0)
    assert permanent_ryser([[7.0]]).value == pytest.approx(7.0)
