import itertools
import math

import numpy as np
import pytest

from isingperm import (
    DtOutOfRangeError,
    InvalidInputError,
    ProtocolConfig,
    check_convergence,
    convergence_dt_max,
    exact_overlap_evaluator,
    finite_difference_bound,
    generate_terms,
    glynn_kan_operator_expectation,
    norms,
    overlap_exact,
    recombine,
    richardson_extrapolate,
    run_protocol,
    select_dt,
    shot_overlap_evaluator,
)
from isingperm import simulator


def reference_permanent(a):
    arr = np.asarray(a, dtype=np.complex128)
    n = arr.shape[0]
    total = 0.0 + 0.0j
    for perm in itertools.permutations(range(n)):
        prod = 1.0 + 0.0j
        for row, col in enumerate(perm):
            prod *= arr[row, col]
        total += prod
    return total


def small_matrix(n, seed, complex_=False, scale=0.3):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    if complex_:
        a = a + 1j * rng.standard_normal((n, n))
    return a * scale / n


def safe_dt(a, frac=0.5):
    return frac * convergence_dt_max(a)


# --- operator expectation -------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_operator_expectation_matches_oracle(n):
    rng = np.random.default_rng(300 + n)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    est = glynn_kan_operator_expectation(a)
    expected = reference_permanent(a)
    assert abs(est.value - expected) / max(1.0, abs(expected)) < 1e-9
    assert est.method == "operator_expectation"


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_operator_expectation_real_input_matches_complex(n):
    # real input runs the 4^N state in float64; the same matrix typed complex
    # runs it in complex128
    a = np.random.default_rng(310 + n).standard_normal((n, n))
    real = glynn_kan_operator_expectation(a).value
    cplx = glynn_kan_operator_expectation(a.astype(np.complex128)).value
    assert real.imag == 0.0
    assert abs(real - cplx) <= 1e-15 * abs(cplx)


# --- dt selection and convergence ------------------------------------------


def test_convergence_dt_max_values():
    assert convergence_dt_max(np.eye(3)) == pytest.approx(2.0 / 3.0)
    a = np.eye(2) * (1.0 + 1.0j)
    assert convergence_dt_max(a) == pytest.approx(4.0 / norms(a).ising_norm)
    assert math.isinf(convergence_dt_max(np.zeros((2, 2))))


def test_check_convergence_raises_and_overrides():
    a = np.eye(3)
    cfg = ProtocolConfig(dt=1.0)  # limit is 2/3
    with pytest.raises(DtOutOfRangeError):
        run_protocol(a, cfg, exact_overlap_evaluator())
    cfg = ProtocolConfig(dt=1.0, allow_dt_override=True)
    run_protocol(a, cfg, exact_overlap_evaluator())  # no raise
    with pytest.raises(DtOutOfRangeError, match="convergence bound"):
        check_convergence(a, 1.0)
    check_convergence(a, 1.0, allow_override=True)
    check_convergence(a, 2.0 / 3.0)


def test_select_dt_small_norm_window():
    # n = 8, ||H|| small: the exponential window (2e/8, 2/||H||] is non-empty
    a = np.eye(8) * 0.01
    sel = select_dt(a)
    assert not sel.exp_window.empty
    assert sel.exp_window.lower == pytest.approx(2.0 * math.e / 8.0)
    assert sel.exp_window.upper == pytest.approx(2.0 / 0.08)
    assert sel.chosen == pytest.approx(
        math.sqrt(sel.exp_window.lower * sel.exp_window.upper)
    )
    assert sel.exp_window.lower <= sel.chosen <= sel.exp_window.upper


def test_select_dt_fallback_to_convergence_limit():
    a = np.ones((3, 3))  # ||H|| = 9, upper 2/9 < lower 2e/3
    sel = select_dt(a)
    assert sel.exp_window.empty
    assert sel.chosen == pytest.approx(2.0 / 9.0)


def test_select_dt_equal_endpoints_not_empty():
    # arrange lower == upper exactly: 2e/n == 2/||H|| when ||H|| = n/e
    n = 4
    a = np.diag([n / math.e / n] * n)  # ising norm n * (1/e) = n/e
    sel = select_dt(a)
    assert not sel.exp_window.empty
    assert sel.chosen == pytest.approx(sel.exp_window.lower, rel=1e-9)


def test_config_validation():
    with pytest.raises(InvalidInputError):
        ProtocolConfig(dt=-0.1)
    with pytest.raises(InvalidInputError):
        ProtocolConfig(dt=0.1, mode="nope")
    with pytest.raises(InvalidInputError):
        ProtocolConfig(dt=0.1, richardson_levels=-1)
    with pytest.raises(InvalidInputError):
        ProtocolConfig(dt=0.1, richardson_levels=5)
    for dt in (0.0, math.nan, math.inf):
        with pytest.raises(InvalidInputError):
            ProtocolConfig(dt=dt)


# --- term generation --------------------------------------------------------


def test_real_term_counts():
    a = small_matrix(4, 1)
    cfg = ProtocolConfig(dt=safe_dt(a))
    assert len(generate_terms(a, cfg)) == 2          # l = 0, 1 (middle dropped)
    cfg_full = ProtocolConfig(dt=cfg.dt, halve_by_time_reversal=False)
    assert len(generate_terms(a, cfg_full)) == 5     # N + 1


@pytest.mark.parametrize("n,halved,full", [(2, 4, 10), (3, 10, 20), (4, 16, 35)])
def test_complex_term_counts(n, halved, full):
    a = small_matrix(n, 2, complex_=True)
    cfg = ProtocolConfig(dt=safe_dt(a))
    assert len(generate_terms(a, cfg)) == halved
    assert halved == (n**3 + 6 * n**2 + 11 * n + 6) // 12 if n % 2 else \
        halved == (n**3 + 6 * n**2 + 8 * n) // 12
    cfg_full = ProtocolConfig(dt=cfg.dt, halve_by_time_reversal=False)
    assert len(generate_terms(a, cfg_full)) == full
    total = sum(
        (n - l + 1) * (l + 1) for l in range(n + 1)
    )
    assert full == total


def test_weight_sum_identity_unhalved():
    # sum of |weight| over all terms equals (d/dt)^N / N!
    for complex_ in (False, True):
        a = small_matrix(3, 3, complex_=complex_)
        dt = safe_dt(a)
        cfg = ProtocolConfig(dt=dt, halve_by_time_reversal=False)
        terms = generate_terms(a, cfg)
        d = 4.0 if complex_ else 2.0
        expected = (d / dt) ** 3 / math.factorial(3)
        total = sum(abs(t.weight) for t in terms)
        assert total == pytest.approx(expected, rel=1e-12)


def test_shifted_matrices_real():
    a = small_matrix(3, 4)
    dt = safe_dt(a)
    cfg = ProtocolConfig(dt=dt, halve_by_time_reversal=False)
    terms = generate_terms(a, cfg)
    for term in terms:
        _, j, _ = term.indices
        expected = (3 - 2 * j) * a + (math.pi / dt) * np.eye(3)
        assert term.matrix.entries.dtype == np.float64
        assert np.array_equal(term.matrix.entries, expected)


def test_shifted_matrices_complex():
    a = small_matrix(3, 6, complex_=True)
    dt = safe_dt(a)
    cfg = ProtocolConfig(dt=dt, halve_by_time_reversal=False)
    terms = generate_terms(a, cfg)
    assert len(terms) == sum((3 - l + 1) * (l + 1) for l in range(4))
    for term in terms:
        l, j, k = term.indices
        expected = ((3 - l - 2 * j) * a.real + (l - 2 * k) * a.imag
                    + (math.pi / dt) * np.eye(3))
        assert np.array_equal(term.matrix.entries, expected)


def test_time_reversal_overlap_conjugation():
    # overlap of the partner term is the conjugate of the original's
    a = small_matrix(3, 5)
    dt = safe_dt(a)
    cfg = ProtocolConfig(dt=dt, halve_by_time_reversal=False)
    terms = generate_terms(a, cfg)
    by_j = {t.indices[1]: t for t in terms}
    for j in range(4):
        o1 = overlap_exact(by_j[j].matrix.entries, dt / 2.0).value
        o2 = overlap_exact(by_j[3 - j].matrix.entries, dt / 2.0).value
        assert o2 == pytest.approx(-np.conj(o1), abs=1e-12)


# --- full protocol -----------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_protocol_real_within_bound(n):
    a = small_matrix(n, 400 + n)
    cfg = ProtocolConfig(dt=safe_dt(a))
    est = run_protocol(a, cfg, exact_overlap_evaluator())
    truth = reference_permanent(a)
    assert abs(est.value - truth) <= est.error_bound * (1.0 + 1e-9)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_protocol_complex_within_bound(n):
    a = small_matrix(n, 500 + n, complex_=True)
    cfg = ProtocolConfig(dt=safe_dt(a))
    est = run_protocol(a, cfg, exact_overlap_evaluator())
    truth = reference_permanent(a)
    assert abs(est.value - truth) <= est.error_bound * (1.0 + 1e-9)


@pytest.mark.parametrize("complex_", [False, True])
def test_halving_matches_full_sum(complex_):
    a = small_matrix(3, 7, complex_=complex_)
    dt = safe_dt(a)
    ev = exact_overlap_evaluator()
    halved = run_protocol(a, ProtocolConfig(dt=dt), ev)
    full = run_protocol(
        a, ProtocolConfig(dt=dt, halve_by_time_reversal=False), ev
    )
    assert halved.value == pytest.approx(full.value, abs=1e-11)


def test_recombine_length_mismatch():
    a = small_matrix(2, 8)
    cfg = ProtocolConfig(dt=safe_dt(a))
    terms = generate_terms(a, cfg)
    with pytest.raises(InvalidInputError):
        recombine(terms, [0.0] * (len(terms) + 1))


def test_fd_bound_quadratic_in_dt():
    a = small_matrix(3, 9)
    b1 = finite_difference_bound(a, 0.1)
    b2 = finite_difference_bound(a, 0.2)
    assert b2 / b1 == pytest.approx(4.0, rel=1e-12)
    assert finite_difference_bound(np.zeros((2, 2)), 0.1) == 0.0


TINY_DT_INPUT = np.diag([0.3, 0.2, 0.25])


@pytest.mark.parametrize("halve", [True, False])
@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("dt", [1e-160, 1e-300])
def test_tiny_dt_weights_out_of_range(dt, complex_, halve):
    # 1/(3! dt^3) is beyond float range: an out-of-range dt, not an OverflowError
    a = TINY_DT_INPUT + (0.1j * np.eye(3) if complex_ else 0.0)
    cfg = ProtocolConfig(dt=dt, halve_by_time_reversal=halve)
    with pytest.raises(DtOutOfRangeError, match="too small"):
        generate_terms(a, cfg)


@pytest.mark.parametrize("halve", [True, False])
def test_weight_past_float_range_is_out_of_range(halve):
    # at dt^3 = 1 / (3 max) the scale 1/(3! dt^3) = max/2 fits, but the
    # C(3,1) weight, 3 or 6 times the scale, does not; at twice that dt
    # every weight is finite
    dt = math.exp(-(math.log(3.0) + math.log(np.finfo(float).max)) / 3.0)
    with pytest.raises(DtOutOfRangeError, match="too small"):
        generate_terms(TINY_DT_INPUT, ProtocolConfig(dt=dt, halve_by_time_reversal=halve))
    terms = generate_terms(TINY_DT_INPUT, ProtocolConfig(dt=2.0 * dt, halve_by_time_reversal=halve))
    assert all(np.isfinite(t.weight) for t in terms)


@pytest.mark.parametrize("complex_", [False, True])
def test_fd_bound_at_tiny_dt(complex_):
    # dt^2 underflows to 0 at dt = 1e-300; the bound takes it as 2 log dt
    a = TINY_DT_INPUT + (0.1j * np.eye(3) if complex_ else 0.0)
    ref = finite_difference_bound(a, 1e-100)
    assert finite_difference_bound(a, 1e-150) == pytest.approx(ref * 1e-100, rel=1e-12)
    assert 0.0 <= finite_difference_bound(a, 1e-300) <= finite_difference_bound(a, 1e-160) <= ref


def test_fd_error_scales_quadratically():
    # slope of log(error) vs log(dt) should be ~2
    a = small_matrix(3, 10)
    truth = reference_permanent(a)
    dts = [safe_dt(a) / 2**k for k in range(4)]
    errs = [
        abs(run_protocol(a, ProtocolConfig(dt=dt), exact_overlap_evaluator()).value
            - truth)
        for dt in dts
    ]
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.15)


def test_empirical_error_within_bound_many_trials():
    rng = np.random.default_rng(77)
    hits = 0
    trials = 500
    for t in range(trials):
        n = int(rng.integers(1, 5))
        a = rng.standard_normal((n, n)) * 0.3 / n
        if t % 2:
            a = a + 1j * rng.standard_normal((n, n)) * 0.3 / n
        dt = rng.uniform(0.2, 0.9) * convergence_dt_max(a)
        est = run_protocol(a, ProtocolConfig(dt=dt), exact_overlap_evaluator())
        if abs(est.value - reference_permanent(a)) <= est.error_bound * (1 + 1e-9):
            hits += 1
    assert hits >= int(0.99 * trials)


# --- shot mode ---------------------------------------------------------------


def test_shot_evaluator_deterministic():
    a = small_matrix(2, 11)
    cfg = ProtocolConfig(dt=safe_dt(a), mode="hadamard_shots", shots_per_overlap=256,
                         seed=5)
    e1 = run_protocol(a, cfg, shot_overlap_evaluator(256, 5))
    e2 = run_protocol(a, cfg, shot_overlap_evaluator(256, 5))
    assert e1.value == e2.value
    assert e1.samples_used == 256 * e1.wall_terms


def test_shot_mode_converges_to_exact():
    a = small_matrix(2, 12)
    dt = safe_dt(a)
    exact = run_protocol(a, ProtocolConfig(dt=dt), exact_overlap_evaluator())
    shots = run_protocol(
        a, ProtocolConfig(dt=dt, mode="hadamard_shots", shots_per_overlap=400_000),
        shot_overlap_evaluator(400_000, 3),
    )
    scale = max(1.0, abs(exact.value))
    assert abs(shots.value - exact.value) / scale < 0.02


# --- Richardson --------------------------------------------------------------


@pytest.mark.parametrize("complex_", [False, True])
def test_run_protocol_overlaps_are_the_evaluator_values(complex_):
    a = small_matrix(4, 19, complex_=complex_)
    seen = []
    exact = exact_overlap_evaluator()

    def evaluator(term, dt_half, index):
        seen.append(exact(term, dt_half, index))
        return seen[-1]

    est = run_protocol(a, ProtocolConfig(dt=safe_dt(a)), evaluator)
    overlaps = est.extra["overlaps"]
    assert isinstance(overlaps, np.ndarray) and overlaps.dtype == np.float64
    assert overlaps.tolist() == seen


def test_richardson_level_zero_equals_plain():
    a = small_matrix(3, 13)
    cfg = ProtocolConfig(dt=safe_dt(a))
    plain = run_protocol(a, cfg, exact_overlap_evaluator())
    rich = richardson_extrapolate(a, cfg, 0, exact_overlap_evaluator())
    assert rich.value == pytest.approx(plain.value, abs=1e-15)


@pytest.mark.parametrize("shots", [False, True])
@pytest.mark.parametrize("levels", [0, 1, 2])
def test_run_protocol_runs_configured_levels(levels, shots):
    # richardson_extrapolate is run_protocol with richardson_levels set
    a = small_matrix(3, 17, complex_=shots)
    mode = "hadamard_shots" if shots else "exact_overlap"
    base = ProtocolConfig(dt=safe_dt(a), mode=mode, shots_per_overlap=64, seed=4)

    def evaluator():
        return shot_overlap_evaluator(64, 4) if shots else exact_overlap_evaluator()

    cfg = ProtocolConfig(dt=base.dt, mode=mode, shots_per_overlap=64, seed=4,
                         richardson_levels=levels)
    est = run_protocol(a, cfg, evaluator())
    rich = richardson_extrapolate(a, base, levels, evaluator())
    assert est.value.real.hex() == rich.value.real.hex()
    assert est.value.imag.hex() == rich.value.imag.hex()
    assert (est.error_bound, est.samples_used, est.wall_terms) == (
        rich.error_bound, rich.samples_used, rich.wall_terms)
    assert est.extra.keys() == rich.extra.keys()
    assert est.error_bound == finite_difference_bound(a, base.dt / 2**levels)
    assert est.wall_terms == (levels + 1) * len(generate_terms(a, base))
    if levels:
        assert est.extra["per_level"] == rich.extra["per_level"]
        assert est.extra["levels"] == levels and est.extra["base_dt"] == base.dt
    else:
        assert np.array_equal(est.extra["overlaps"], rich.extra["overlaps"])
        assert est.extra["dt"] == base.dt


def test_richardson_improves_error():
    a = small_matrix(3, 14)
    truth = reference_permanent(a)
    cfg = ProtocolConfig(dt=safe_dt(a))
    e0 = abs(run_protocol(
        a, ProtocolConfig(dt=cfg.dt / 2.0), exact_overlap_evaluator()).value - truth)
    e1 = abs(richardson_extrapolate(a, cfg, 1, exact_overlap_evaluator()).value - truth)
    assert e1 < e0 / 3.0


def test_richardson_reports_levels_and_residuals():
    a = small_matrix(2, 15)
    cfg = ProtocolConfig(dt=safe_dt(a))
    est = richardson_extrapolate(a, cfg, 2, exact_overlap_evaluator())
    assert len(est.extra["per_level"]) == 3
    assert len(est.extra["residuals"]) == 2
    assert est.extra["levels"] == 2


def test_richardson_levels_draw_fresh_shot_seeds(monkeypatch):
    a = small_matrix(2, 18, complex_=True)
    # unpaired terms draw one Re Hadamard test each, like paired ones
    cfg = ProtocolConfig(dt=safe_dt(a), mode="hadamard_shots", shots_per_overlap=64,
                         seed=11, halve_by_time_reversal=False)
    indices, seeds = [], []
    evaluate = shot_overlap_evaluator(64, 11)
    overlap_shots = simulator.overlap_shots

    def recording_evaluator(term, dt_half, index):
        indices.append(index)
        return evaluate(term, dt_half, index)

    def recording_shots(m, dt_half, shots, seed, measure_imag=False):
        seeds.append(seed)
        return overlap_shots(m, dt_half, shots, seed, measure_imag=measure_imag)

    monkeypatch.setattr(simulator, "overlap_shots", recording_shots)
    est = richardson_extrapolate(a, cfg, 2, recording_evaluator)
    assert sorted(indices) == list(range(3 * len(generate_terms(a, cfg))))
    assert len(seeds) == len(indices)
    assert len(set(map(tuple, seeds))) == len(seeds)
    plain = run_protocol(a, cfg, shot_overlap_evaluator(64, 11))
    assert est.extra["per_level"][0] == plain.value


def test_samples_used_counts_shots_drawn(monkeypatch):
    # real N = 4 without halving: every term is unpaired and draws one circuit
    a = small_matrix(4, 19)
    cfg = ProtocolConfig(dt=safe_dt(a), mode="hadamard_shots", shots_per_overlap=100,
                         seed=3, halve_by_time_reversal=False)
    drawn = []
    overlap_shots = simulator.overlap_shots

    def recording_shots(m, dt_half, shots, seed, measure_imag=False):
        drawn.append(shots)
        return overlap_shots(m, dt_half, shots, seed, measure_imag=measure_imag)

    monkeypatch.setattr(simulator, "overlap_shots", recording_shots)
    est = run_protocol(a, cfg, shot_overlap_evaluator(100, 3))
    assert est.samples_used == sum(drawn) == 500
    drawn.clear()
    est = richardson_extrapolate(a, cfg, 2, shot_overlap_evaluator(100, 3))
    assert est.samples_used == sum(drawn) == 1500


def test_shots_draw_one_real_hadamard_test_per_term(monkeypatch):
    # real N = 4 without halving: no term is paired, and none needs Im
    a = small_matrix(4, 19)
    cfg = ProtocolConfig(dt=safe_dt(a), mode="hadamard_shots", shots_per_overlap=100,
                         seed=3, halve_by_time_reversal=False)
    terms = generate_terms(a, cfg)
    drawn, imag = [], []
    overlap_shots = simulator.overlap_shots

    def recording_shots(m, dt_half, shots, seed, measure_imag=False):
        drawn.append(shots)
        imag.append(measure_imag)
        return overlap_shots(m, dt_half, shots, seed, measure_imag=measure_imag)

    monkeypatch.setattr(simulator, "overlap_shots", recording_shots)
    for levels in (0, 2):
        drawn.clear()
        imag.clear()
        if levels:
            est = richardson_extrapolate(a, cfg, levels, shot_overlap_evaluator(100, 3))
        else:
            est = run_protocol(a, cfg, shot_overlap_evaluator(100, 3))
        circuits = (levels + 1) * len(terms)
        assert len(drawn) == circuits
        assert not any(imag)
        assert est.value.imag == 0.0
        assert est.samples_used == 100 * circuits == sum(drawn)


def test_adjacent_run_seeds_share_no_shot_stream(monkeypatch):
    # with seed + index, term i + 1 at seed 5 read term i's stream at seed 6
    a = small_matrix(3, 20)
    cfg = ProtocolConfig(dt=safe_dt(a), mode="hadamard_shots", shots_per_overlap=16)
    seeds = []
    overlap_shots = simulator.overlap_shots

    def recording_shots(m, dt_half, shots, seed, measure_imag=False):
        seeds[-1].append(tuple(np.atleast_1d(seed).tolist()))
        return overlap_shots(m, dt_half, shots, seed, measure_imag=measure_imag)

    monkeypatch.setattr(simulator, "overlap_shots", recording_shots)
    for run_seed in (5, 6):
        seeds.append([])
        run_protocol(a, cfg, shot_overlap_evaluator(16, run_seed))
    assert len(seeds[0]) == len(seeds[1]) == len(generate_terms(a, cfg)) > 1
    assert not set(seeds[0]) & set(seeds[1])


def test_richardson_level_cap():
    a = small_matrix(2, 16)
    cfg = ProtocolConfig(dt=safe_dt(a))
    with pytest.raises(InvalidInputError):
        richardson_extrapolate(a, cfg, 5, exact_overlap_evaluator())
