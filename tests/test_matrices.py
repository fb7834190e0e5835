import math

import numpy as np
import pytest

from isingperm import (
    InvalidInputError,
    SquareMatrix,
    gaussian_ensemble,
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
    assert np.array_equal(m.real_part + 1j * m.imag_part, m.array)


def test_ensemble_deterministic_under_seed():
    first = gaussian_ensemble(2, 3, seed=7)
    second = gaussian_ensemble(2, 3, seed=7)
    for m1, m2 in zip(first, second):
        assert np.array_equal(m1.array, m2.array)


def test_real_ensemble_mean_ising_norm():
    draws = gaussian_ensemble(10, 2000, seed=11, kind="real-standard-normal")
    mean = np.mean([np.abs(m.array).sum() for m in draws])
    predicted = math.sqrt(2.0 / math.pi) * 100
    assert abs(mean - predicted) / predicted < 0.02


def test_complex_ensemble_unit_second_moment():
    draws = gaussian_ensemble(3, 100_000, seed=13, kind="complex-standard-normal")
    stack = np.stack([m.array for m in draws])
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


def test_json_round_trip_complex():
    rng = np.random.default_rng(19)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    back = matrix_from_json(matrix_to_json(a))
    assert np.array_equal(back.array, SquareMatrix(a).array)


def test_json_round_trip_real_uses_bare_numbers():
    obj = matrix_to_json(np.eye(2))
    assert obj["rows"] == [[1.0, 0.0], [0.0, 1.0]]
    assert np.array_equal(matrix_from_json(obj).array, np.eye(2))


def test_json_parse_error_names_row():
    bad = {"n": 2, "rows": [[1.0, 2.0], [3.0, "x"]]}
    with pytest.raises(InvalidInputError, match="row 1"):
        matrix_from_json(bad)


def test_json_boolean_dimension_rejected():
    # bool is an int subclass; "n": true must not read as n = 1
    with pytest.raises(InvalidInputError, match='"n"'):
        matrix_from_json({"n": True, "rows": [[1]]})
