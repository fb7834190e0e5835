import math

import numpy as np
import pytest

from isingperm import (
    InvalidInputError,
    SquareMatrix,
    ising_diag_spectral_norm,
    matrix_from_json,
    matrix_to_json,
    norms,
)
from isingperm import matrices


def test_identity_norms():
    res = norms(np.eye(3))
    assert res.two_norm == pytest.approx(1.0, rel=1e-10)
    assert res.one_norm == 1.0
    assert res.ising_norm == 3.0


def test_single_entry_norms():
    res = norms([[0.0, 2.0], [0.0, 0.0]])
    assert res.two_norm == pytest.approx(2.0, rel=1e-10)
    assert res.one_norm == 2.0
    assert res.ising_norm == 2.0


def _unitary(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q


def test_two_norm_matches_svd_oracle():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        expected = np.linalg.svd(a, compute_uv=False)[0]
        assert norms(a).two_norm == pytest.approx(expected, rel=1e-12)
    # Top two singular values 1e-5 apart relative to the norm: power iteration converges slowly
    # from below here, and the 2-norm enters the Gurvits bound as ||A||^N.
    for _ in range(20):
        sv = np.array([2.0, 2.0 - 2e-5, 1.0, 0.5, 0.25, 0.125])
        a = _unitary(rng, 6) @ np.diag(sv) @ _unitary(rng, 6).conj().T
        assert norms(a).two_norm == pytest.approx(sv[0], rel=1e-12)


def test_real_norms_match_complex_cast():
    # a real matrix takes a real SVD: the 2-norm may move in its last bits,
    # the sums of |A_jk| may not
    rng = np.random.default_rng(8)
    u = 2.0**-53
    for n in (1, 2, 3, 5, 8, 13):
        for _ in range(10):
            a = rng.standard_normal((n, n))
            real, cast = norms(a), norms(a.astype(np.complex128))
            assert real.ising_norm == cast.ising_norm
            assert real.one_norm == cast.one_norm
            assert abs(real.two_norm - cast.two_norm) <= 4 * u * cast.two_norm


def test_norm_interval_invariants():
    rng = np.random.default_rng(4)
    for n in (1, 2, 3, 5):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        res = norms(a)
        assert res.one_norm / math.sqrt(n) <= res.two_norm * (1 + 1e-12)
        assert res.two_norm <= res.one_norm * math.sqrt(n) * (1 + 1e-12)
        assert res.ising_norm >= res.two_norm - 1e-12


def test_ising_norm_symmetries():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    base = norms(a).ising_norm
    assert norms(a.T).ising_norm == pytest.approx(base, rel=1e-14)
    assert norms(np.conj(a)).ising_norm == pytest.approx(base, rel=1e-14)
    perm = np.random.default_rng(6).permutation(4)
    assert norms(a[perm][:, perm]).ising_norm == pytest.approx(base, rel=1e-14)


def test_nonfinite_entries_rejected():
    with pytest.raises(InvalidInputError):
        SquareMatrix([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(InvalidInputError):
        SquareMatrix([[np.inf]])


def test_non_square_rejected():
    with pytest.raises(InvalidInputError):
        SquareMatrix([[1.0, 2.0]])


def test_real_imag_reconstruction():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    m = SquareMatrix(a)
    assert np.array_equal(m.entries.real + 1j * m.entries.imag, a)


def test_entries_are_read_only_and_typed_by_is_real():
    real = SquareMatrix([[1.0, 2.0], [3.0, 4.0]])
    cplx = SquareMatrix([[1.0, 2.0j], [3.0, 4.0]])
    assert real.is_real and real.entries.dtype == np.float64
    assert not cplx.is_real and cplx.entries.dtype == np.complex128
    assert np.array_equal(real.entries, [[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(cplx.entries, [[1.0, 2.0j], [3.0, 4.0]])
    for m in (real, cplx):
        assert not m.entries.flags.writeable
        with pytest.raises(ValueError):
            m.entries[0, 0] = 5.0
        with pytest.raises(AttributeError):
            m.is_real = not m.is_real


def _draw(n, count, seed, kind="real-standard-normal"):
    return np.concatenate(list(matrices.gaussian_batches(n, count, seed, kind)))


def test_ensemble_deterministic_under_seed():
    assert np.array_equal(_draw(2, 3, seed=7), _draw(2, 3, seed=7))


@pytest.mark.parametrize("kind", ["real-standard-normal", "complex-standard-normal"])
def test_ensemble_batches_equal_one_shot_draw(kind, monkeypatch):
    monkeypatch.setattr(matrices, "_BLOCK_BYTES", 1 << 12)  # 32 or 8 matrices per batch
    batches = list(matrices.gaussian_batches(4, 50, seed=3, kind=kind))
    assert len(batches) > 1
    rng = np.random.default_rng(3)
    if kind == "real-standard-normal":
        want = rng.standard_normal((50, 4, 4))
    else:
        draw = rng.standard_normal((50, 2, 4, 4))
        want = (draw[:, 0] + 1j * draw[:, 1]) / math.sqrt(2)
    assert all(batch.dtype == want.dtype for batch in batches)
    assert want.dtype == (np.float64 if kind == "real-standard-normal" else np.complex128)
    assert np.array_equal(np.concatenate(batches), want)


@pytest.mark.parametrize("n", [0, -1])
def test_ensemble_rejects_nonpositive_n(n):
    with pytest.raises(InvalidInputError, match="n must be >= 1"):
        matrices.gaussian_batches(n, 1, seed=0)


def test_real_ensemble_mean_ising_norm():
    draws = _draw(10, 2000, seed=11, kind="real-standard-normal")
    mean = np.abs(draws).sum(axis=(1, 2)).mean()
    predicted = math.sqrt(2.0 / math.pi) * 100
    assert abs(mean - predicted) / predicted < 0.02


def test_complex_ensemble_unit_second_moment():
    stack = _draw(3, 100_000, seed=13, kind="complex-standard-normal")
    second_moment = (np.abs(stack) ** 2).mean(axis=0)
    assert np.all(np.abs(second_moment - 1.0) < 0.02)


def test_diag_spectral_norm_bounded_by_ising_norm():
    rng = np.random.default_rng(17)
    for n in (1, 2, 3, 4):
        a = rng.standard_normal((n, n))
        exact = ising_diag_spectral_norm(a)
        assert exact <= norms(a).ising_norm + 1e-12


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("low_bits", [0, 2])
@pytest.mark.parametrize("n", range(1, 8))
def test_sign_blocks_contract(n, low_bits, complex_, monkeypatch):
    # Integer entries make every sum exact, so the walk must match bit for bit.
    rng = np.random.default_rng(23 + n)
    w = rng.integers(-4, 5, (n, 3)).astype(float)
    if complex_:
        w = w + 1j * rng.integers(-4, 5, (n, 3))
    row_bytes = 48
    monkeypatch.setattr(matrices, "_BLOCK_BYTES", row_bytes << low_bits)
    # the next block overwrites this one, so copy each block as it arrives
    blocks, buffers = [], set()
    width = 1 << min(n, low_bits)
    for par, cols in matrices.sign_blocks(w, row_bytes):
        assert par.shape == (width,)
        assert cols.shape == (3, width) and cols.flags.c_contiguous
        buffers.add(cols.__array_interface__["data"][0])
        blocks.append((par.copy(), cols.copy()))
    assert len(blocks) == (1 << n) // width
    assert len(buffers) == 1
    x = matrices.sign_matrix(n)
    assert np.array_equal(np.concatenate([par for par, _ in blocks]), x.prod(axis=1))
    assert np.array_equal(np.concatenate([cols for _, cols in blocks], axis=1), (x @ w).T)


def test_sign_tables_are_shared_and_never_written():
    # every exact walk takes its tables from sign_table; a kernel that wrote
    # into one would corrupt every later call
    from isingperm import classical, simulator

    tables = {k: matrices.sign_table(k) for k in range(14)}
    rng = np.random.default_rng(29)
    for n in range(1, 14):
        a = rng.standard_normal((n, n))
        c = a + 1j * rng.standard_normal((n, n))
        for kernel in (classical.permanent_ryser, classical.permanent_glynn,
                       classical.permanent_glynn_kan):
            kernel(a)
            if n <= 9 or kernel is not classical.permanent_glynn_kan:  # 0.4 s at 13
                kernel(c)
        if n <= 12:
            classical.permanent_gapp(a)
        simulator.overlap_exact(a, 0.1)
    for k, (low, pars) in tables.items():
        assert matrices.sign_table(k)[0] is low
        fresh = matrices.sign_matrix(k)
        assert np.array_equal(low, fresh) and low.flags.c_contiguous
        assert np.array_equal(pars[0], fresh.prod(axis=1))
        assert np.array_equal(pars[1], -fresh.prod(axis=1))
        for table in (low, *pars):
            assert not table.flags.writeable


@pytest.mark.parametrize("entries", [
    [[1, -2], [3, 4]],
    np.array([[True, False], [True, True]]),
    np.arange(9.0).reshape(3, 3).T,
    np.array([[1.5, -2.0j * 0], [0.25, 4.0]], dtype=np.complex128),
    [[1.0 + 2.0j, 2.0], [-3.0, 4.0 - 1.0j]],
], ids=["int", "bool", "float-transposed", "complex-zero-imag", "complex"])
def test_square_matrix_keeps_its_values_at_every_input_dtype(entries):
    # the values every input type had when all input went through complex128;
    # a real matrix's 2-norm is its own real SVD's
    ref = np.array(entries, dtype=np.complex128)
    real = not np.any(ref.imag)
    m = SquareMatrix(entries)
    assert m.is_real == real
    assert m.entries.dtype == (np.float64 if real else np.complex128)
    assert np.array_equal(m.entries, ref.real if real else ref)
    if real:
        assert m.entries.flags.c_contiguous
    assert not m.entries.flags.writeable
    absa = np.abs(ref)
    assert m.norms == matrices.MatrixNorms(two_norm=float(np.linalg.norm(m.entries, 2)),
                                           one_norm=float(absa.sum(axis=0).max()),
                                           ising_norm=float(absa.sum()))


def test_json_round_trip_complex():
    rng = np.random.default_rng(19)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    back = matrix_from_json(matrix_to_json(a))
    assert np.array_equal(back.entries, a)


def test_json_round_trip_real_uses_bare_numbers():
    obj = matrix_to_json(np.eye(2))
    assert obj["rows"] == [[1.0, 0.0], [0.0, 1.0]]
    assert np.array_equal(matrix_from_json(obj).entries, np.eye(2))


def test_json_parse_error_names_row():
    bad = {"n": 2, "rows": [[1.0, 2.0], [3.0, "x"]]}
    with pytest.raises(InvalidInputError, match="row 1"):
        matrix_from_json(bad)


def test_json_boolean_dimension_rejected():
    # bool is an int subclass; "n": true must not read as n = 1
    with pytest.raises(InvalidInputError, match='"n"'):
        matrix_from_json({"n": True, "rows": [[1]]})
