import math
import tracemalloc

import numpy as np
import pytest

from isingperm import (
    DtOutOfRangeError,
    InvalidInputError,
    advantage_classify,
    advantage_domain_ratio,
    complex_overlap_count,
    convergence_dt_max,
    gaussian_norm_statistic,
    generate_terms,
    ProtocolConfig,
    q_ratio,
    resource_table,
    total_error_bound,
)
from isingperm import matrices
from isingperm.analysis import advantage_labels


def test_total_bound_components_real():
    a = np.eye(3) * 0.1
    dt = 0.5 * convergence_dt_max(a)
    budget = total_error_bound(a, dt, eps_ht=0.01)
    n, h = 3, 0.3
    ht = 0.01 * (2.0 / dt) ** n / math.factorial(n)
    fd = (n * dt**2 / 24.0) * h ** (n + 2) / math.factorial(n)
    assert budget.ht_bound == pytest.approx(ht, rel=1e-12)
    assert budget.fd_bound == pytest.approx(fd, rel=1e-12)
    assert budget.total_bound == pytest.approx(ht + fd, rel=1e-12)
    eps_red = (0.01 + n / 6.0) / math.sqrt(2.0 * math.pi * n)
    assert budget.eps_reduced == pytest.approx(eps_red, rel=1e-12)
    simplified = eps_red * (2.0 * math.e / (n * dt)) ** n
    assert budget.simplified_bound == pytest.approx(simplified, rel=1e-12)


def test_simplified_dominates_exact_in_window():
    rng = np.random.default_rng(61)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        a = rng.standard_normal((n, n))
        if rng.integers(2):
            a = a + 1j * rng.standard_normal((n, n))
        dt = rng.uniform(0.05, 1.0) * convergence_dt_max(a)
        budget = total_error_bound(a, dt, eps_ht=rng.uniform(0.0, 1.0))
        assert budget.simplified_bound >= budget.total_bound * (1.0 - 1e-9)


def test_complex_eps_reduced():
    a = np.eye(2) * (0.1 + 0.1j)
    budget = total_error_bound(a, 0.5, eps_ht=0.2)
    expected = (0.2 + 4.0 * 2 / 3.0) / math.sqrt(4.0 * math.pi)
    assert budget.eps_reduced == pytest.approx(expected, rel=1e-12)


def test_total_bound_rejects_bad_dt():
    a = np.eye(3)
    with pytest.raises(DtOutOfRangeError):
        total_error_bound(a, 10.0, eps_ht=0.1)
    with pytest.raises(DtOutOfRangeError):
        total_error_bound(a, -1.0, eps_ht=0.1)


@pytest.mark.parametrize("dt", [1e-160, 1e-300])
def test_total_bound_rejects_tiny_dt(dt):
    # the 1/(N! dt^N) weight is beyond float range, as in generate_terms
    with pytest.raises(DtOutOfRangeError, match="too small"):
        total_error_bound(np.diag([0.3, 0.2, 0.25]), dt, eps_ht=0.1)


def test_total_bound_overflows_to_inf_inside_weight_range():
    # at dt^3 = 2 / (3 max) the scale 1/(3! dt^3) is max/4, but the
    # Hadamard-test term eps (2/dt)^3 / 3! = 2 eps max is not a float
    a = np.diag([0.3, 0.2, 0.25])
    dt = math.exp((math.log(2.0 / 3.0) - math.log(np.finfo(float).max)) / 3.0)
    budget = total_error_bound(a, dt, eps_ht=1.0)
    assert budget.ht_bound == math.inf
    assert budget.simplified_bound == math.inf
    assert 0.0 <= budget.fd_bound < 1e-200
    assert total_error_bound(a, dt, eps_ht=0.0).ht_bound == 0.0


def test_advantage_cases():
    # identity: ||H|| = N, ||A||_2 = 1, threshold N/e < N -> no advantage
    label, _ = advantage_classify(np.eye(8))
    assert label == "no_advantage"
    # scaled-down identity keeps the ratio but ||A||_2 <= 1 -> still no
    label, _ = advantage_classify(np.eye(8) / 64.0)
    assert label == "no_advantage"
    # single nonzero row: ||A||_2 = sqrt(N) ||H|| / N, ratio sqrt(N) > e at N=16
    n = 16
    a = np.zeros((n, n))
    a[0] = 1.0
    label, details = advantage_classify(a)
    assert details["ising_norm"] <= details["threshold"]
    assert label in ("case2", "case3")
    # scaled single row: ||A||_2 = 1 and ||H|| = sqrt(N) <= N/e at N = 16
    b = np.zeros((n, n))
    b[0] = 0.25
    label, _ = advantage_classify(b)
    assert label == "case1"


@pytest.mark.parametrize("complex_", [False, True])
def test_advantage_labels_match_classify(complex_):
    # sparse, rescaled draws reach all four labels; the batched norms must give
    # each matrix the label advantage_classify gives it alone
    rng = np.random.default_rng(59 + complex_)
    found = set()
    for n in (3, 8, 16):
        keep = rng.random((150, n, n)) < rng.uniform(0.02, 0.4, size=(150, 1, 1))
        vals = rng.standard_normal((150, n, n))
        if complex_:
            vals = vals + 1j * rng.standard_normal((150, n, n))
        stack = keep * vals * rng.uniform(0.05, 3.0, size=(150, 1, 1))
        stack[:, 0, 0] += 1e-3
        labels = advantage_labels(stack)
        assert labels == [advantage_classify(m)[0] for m in stack]
        found.update(labels)
    assert found == {"case1", "case2", "case3", "no_advantage"}


def test_q_ratio_thresholds():
    assert q_ratio(7) == 0.0
    assert q_ratio(8) > 0.0
    assert q_ratio(27) < 0.5
    assert q_ratio(28) > 0.5
    assert 0.0 <= q_ratio(1000) < 1.0


def test_advantage_domain_ratio_rows():
    rows = advantage_domain_ratio(2, 10)
    assert [n for n, _ in rows] == list(range(2, 11))
    assert all(q == q_ratio(n) for n, q in rows)
    with pytest.raises(InvalidInputError):
        advantage_domain_ratio(1, 5)
    with pytest.raises(InvalidInputError):
        advantage_domain_ratio(5, 4)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_complex_overlap_count_matches_generator(n):
    rng = np.random.default_rng(800 + n)
    a = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) * 0.01
    cfg = ProtocolConfig(dt=0.5 * convergence_dt_max(a))
    assert complex_overlap_count(n) == len(generate_terms(a, cfg))


def test_resource_table_columns():
    rep = resource_table(4)
    assert rep.qubits == 9
    assert rep.overlaps == 2
    assert rep.cnots_formula == 4 * 16 + 8
    assert rep.depth_formula == 9 * 16 + 1
    assert rep.cnots_measured == 4 * 16
    assert rep.discrepancy_note
    rep_c = resource_table(4, is_complex=True)
    assert rep_c.overlaps == complex_overlap_count(4)
    assert "N^3" in rep_c.total_samples_order


def test_gaussian_norm_statistic():
    stats = gaussian_norm_statistic(10, trials=5000, seed=3)
    assert stats.predicted == pytest.approx(math.sqrt(2.0 / math.pi) * 100)
    assert stats.relative_deviation < 0.02
    assert stats.min_k == 2  # smallest k with 5^{k-1} > 2e sqrt(2/pi) ~ 4.34
    assert math.isinf(gaussian_norm_statistic(2, trials=100, seed=0).min_k)
    with pytest.raises(InvalidInputError):
        gaussian_norm_statistic(5, trials=10, seed=0)
    for n in (0, -2):
        with pytest.raises(InvalidInputError, match="n must be >= 1"):
            gaussian_norm_statistic(n, trials=100, seed=0)


def test_gaussian_norm_statistic_memory_bounded():
    # the draws come in pieces of matrices._BLOCK_BYTES (1 MiB), each freed
    # before the next is drawn, not one array of every draw and its abs
    # (32 MB here); a first small call keeps numpy's one-time set-up out of
    # the trace
    gaussian_norm_statistic(2, trials=100, seed=0)
    tracemalloc.start()
    try:
        gaussian_norm_statistic(10, trials=20000, seed=4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 << 20


def test_gaussian_norm_statistic_is_one_stream_at_any_batch(monkeypatch):
    # batches of 1, 70 and 1310 matrices read the same consecutive draws
    want = np.abs(np.random.default_rng(6).standard_normal(1311 * 100)).sum() / 1311
    for budget in (800, 800 * 70, 1 << 20):
        monkeypatch.setattr(matrices, "_BLOCK_BYTES", budget)
        got = gaussian_norm_statistic(10, trials=1311, seed=6).mean_ising_norm
        assert got == pytest.approx(want, rel=1e-13)
