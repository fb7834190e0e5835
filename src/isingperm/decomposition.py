"""Finite-difference decomposition of the Glynn-Kan operator picture.

Turns a permanent into a weighted sum of propagator overlaps: generates the
shifted matrices and combination weights for real and complex inputs,
selects the time step, halves the term list by time-reversal pairing, and
runs the protocol: evaluates and recombines the overlaps at each
Richardson level and extrapolates in dt^2.  Real or complex input is
SquareMatrix.is_real; the dense operator expectation the protocol
approximates is classical.glynn_kan_operator_expectation.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .accumulate import block_sum
from .classical import PermanentEstimate
from .errors import DtOutOfRangeError, InvalidInputError
from .matrices import SquareMatrix, as_matrix

_RICHARDSON_MAX_LEVELS = 4
_LOG_FLOAT_MAX = math.log(sys.float_info.max)
E = math.e


@dataclass(frozen=True)
class OverlapTerm:
    """One shifted-matrix propagator and its combination weight.

    The weight already carries the sign, binomials, i^l phase, and this
    term's share of the (-1)^N / (N! dt^N) prefactor.  uses_conjugate_pair
    marks a term that stands for its time-reversal pair, so its weight is
    doubled.
    """

    matrix: SquareMatrix
    weight: complex
    indices: tuple
    uses_conjugate_pair: bool = False


@dataclass
class ProtocolConfig:
    """Run configuration for the overlap protocol."""

    dt: float
    mode: str = "exact_overlap"  # or "hadamard_shots"
    shots_per_overlap: int = 1024
    richardson_levels: int = 0
    seed: int = 0
    halve_by_time_reversal: bool = True
    allow_dt_override: bool = False

    def __post_init__(self):
        if not 0.0 < self.dt < math.inf:  # also rejects nan
            raise InvalidInputError(f"dt must be positive and finite, got {self.dt!r}")
        if self.mode not in ("exact_overlap", "hadamard_shots"):
            raise InvalidInputError(f"unknown mode {self.mode!r}")
        if self.shots_per_overlap < 1:
            raise InvalidInputError("shots_per_overlap must be >= 1")
        if not 0 <= self.richardson_levels <= _RICHARDSON_MAX_LEVELS:
            raise InvalidInputError(
                f"richardson_levels must be in 0..{_RICHARDSON_MAX_LEVELS}")


def convergence_d(m: SquareMatrix) -> float:
    """d of the convergence condition dt <= d/||H(A)||: 2 real, 4 complex."""
    return 2.0 if m.is_real else 4.0


def convergence_dt_max(a) -> float:
    """Largest dt meeting the expansion's convergence condition, d/||H(A)||."""
    m = as_matrix(a)
    h = m.norms.ising_norm
    return convergence_d(m) / h if h > 0.0 else math.inf


def check_convergence(a, dt: float, allow_override: bool = False) -> None:
    """Raise DtOutOfRangeError for dt above convergence_dt_max(a), unless overridden."""
    limit = convergence_dt_max(a)
    if dt > limit * (1.0 + 1e-12) and not allow_override:
        raise DtOutOfRangeError(f"dt = {dt:g} violates the convergence bound dt <= {limit:g}")


# --- Delta-t selection --------------------------------------------------------


@dataclass(frozen=True)
class DtWindow:
    lower: float
    upper: float
    empty: bool
    chosen: float


@dataclass(frozen=True)
class DtSelection:
    exp_window: DtWindow       # exponentially-small-total-error window
    gurvits_window: DtWindow   # window where the quantum bound beats Gurvits'
    chosen: float


def _window(lower: float, upper: float) -> DtWindow:
    # boundary lower == upper counts as non-empty (closed upper end);
    # the tolerance absorbs float noise in the norm arithmetic
    empty = lower > upper * (1.0 + 1e-12)
    if empty:
        chosen = upper
    elif math.isinf(upper):
        chosen = 2.0 * lower
    else:
        chosen = math.sqrt(lower * upper)
    return DtWindow(lower=lower, upper=upper, empty=empty, chosen=chosen)


def select_dt(a) -> DtSelection:
    """Both dt windows and a concrete choice.

    Real matrices: exponential-error window (2e/N, 2/||H||]; complex: the
    same with d = 4.  The Gurvits-beating window is [de/(N ||A||_2), d/||H||].
    When the exponential window is empty the choice falls back to the
    convergence-limited maximum d/||H||, which minimizes the (d/dt)^N
    Hadamard-error amplification subject to validity.
    """
    m = as_matrix(a)
    n = m.n
    two_norm = m.norms.two_norm
    d = convergence_d(m)
    upper = convergence_dt_max(m)
    exp_win = _window(d * E / n, upper)
    gur_lower = d * E / (n * two_norm) if two_norm > 0.0 else math.inf
    gur_win = _window(gur_lower, upper)
    chosen = exp_win.chosen if not exp_win.empty else upper
    if math.isinf(chosen):  # zero matrix: any dt converges
        chosen = 1.0
    return DtSelection(exp_window=exp_win, gurvits_window=gur_win, chosen=chosen)


# --- term generation ----------------------------------------------------------


def exp_or_inf(x: float) -> float:
    """math.exp, with inf where the result is too large for a float."""
    return math.exp(x) if x <= _LOG_FLOAT_MAX else math.inf


def _weights_overflow(dt: float) -> DtOutOfRangeError:
    return DtOutOfRangeError(f"dt = {dt:g} is too small: the 1/(N! dt^N) weights overflow a float")


def log_weight_scale(n: int, dt: float) -> float:
    """log of 1/(N! dt^N), the scale of every protocol weight.

    Raises DtOutOfRangeError when that weight is too large for a float,
    which only a tiny dt does.
    """
    log_scale = -math.lgamma(n + 1) - n * math.log(dt)
    if log_scale > _LOG_FLOAT_MAX:
        raise _weights_overflow(dt)
    return log_scale


def _log_comb(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def generate_terms(a, cfg: ProtocolConfig) -> list[OverlapTerm]:
    """Overlap terms whose weighted sum approximates Per(A).

    A = B + iC expands over the triple binomial (l, j, k) with shifted
    matrices (N-l-2j) B + (l-2k) C + (pi/dt) I; the parity operator is
    absorbed into the diagonal shift.  Real input is the l = 0 slice, since
    C = 0 makes every l >= 1 term vanish: the N+1 binomial terms (0, j, 0)
    with matrices (N-2j) B + (pi/dt) I, float64 like A's entries and with
    no C term; (pi/dt) I is built once per call.  The time-reversal partner
    of (l, j, k) is (l, N-l-j, l-k); with halving only the lesser of each
    pair is emitted, flagged and with doubled weight, and the self-paired
    terms, whose overlaps vanish identically, are dropped.

    Weights are assembled in log-magnitude + phase form so the 1/(N! dt^N)
    prefactor never overflows on its own; a dt so small that a weight is
    too large for a float raises DtOutOfRangeError.
    """
    m = as_matrix(a)
    check_convergence(m, cfg.dt, cfg.allow_dt_override)
    n = m.n
    dt = cfg.dt
    shift_i = (math.pi / dt) * np.eye(n)
    log_pref = log_weight_scale(n, dt)
    sign_n = -1.0 if n % 2 else 1.0
    b = m.entries.real
    c = None if m.is_real else m.entries.imag
    terms: list[OverlapTerm] = []
    halved = cfg.halve_by_time_reversal
    for l in range(1 if m.is_real else n + 1):
        for j in range(n - l + 1):
            for k in range(l + 1):
                partner = (n - l - j, l - k)
                if halved:
                    if (j, k) == partner:
                        continue  # shifted matrix is exactly (pi/dt) I; overlap 0
                    if (j, k) > partner:
                        continue
                log_mag = (_log_comb(n, l) + _log_comb(n - l, j)
                           + _log_comb(l, k) + log_pref)
                phase = (1j**l) * (-1.0 if (j + k) % 2 else 1.0) * sign_n
                weight = phase * exp_or_inf(log_mag)
                if halved:
                    weight *= 2.0
                if not cmath.isfinite(weight):
                    raise _weights_overflow(dt)
                coef_b = float(n - l - 2 * j)
                if c is None:
                    shifted = coef_b * b + shift_i
                else:
                    shifted = coef_b * b + float(l - 2 * k) * c + shift_i
                terms.append(OverlapTerm(
                    matrix=SquareMatrix(shifted),
                    weight=weight,
                    indices=(l, j, k),
                    uses_conjugate_pair=halved,
                ))
    return terms


# --- error remainder of the finite difference ---------------------------------


def finite_difference_bound(a, dt: float) -> float:
    """Analytic bound on the finite-difference remainder of the protocol.

    Real: (N dt^2 / 24) ||H(B)||^{N+2} / N!.  Complex: the same with
    ||H(A)||^{N-1} (||H(B)||^3 + ||H(C)||^3).  Evaluated in log space, with
    dt^2 as 2 log dt, so that a tiny dt gives a tiny bound, not log(0).
    """
    m = as_matrix(a)
    n = m.n
    h = m.norms.ising_norm
    if h == 0.0:
        return 0.0
    if m.is_real:
        log_norms = (n + 2) * math.log(h)
    else:
        hb = float(np.abs(m.entries.real).sum())
        hc = float(np.abs(m.entries.imag).sum())
        log_norms = (n - 1) * math.log(h) + math.log(hb**3 + hc**3)
    return math.exp(log_norms + math.log(n / 24.0) + 2.0 * math.log(dt) - math.lgamma(n + 1))


# --- recombination and extrapolation ------------------------------------------


def recombine(terms, overlaps) -> float:
    """Weighted, correctly rounded sum of the real overlap values.

    Every term contributes weight * Re(overlap): each overlap is real (see
    simulator.overlap_exact), so an imaginary part could only be noise.
    """
    terms = list(terms)
    overlaps = list(overlaps)
    if len(terms) != len(overlaps):
        raise InvalidInputError(
            f"{len(overlaps)} overlaps supplied for {len(terms)} terms"
        )
    return block_sum([t.weight * complex(o).real for t, o in zip(terms, overlaps)])


def run_protocol(a, cfg: ProtocolConfig, evaluator) -> PermanentEstimate:
    """Per(A) by the overlap protocol, Richardson-extrapolated over cfg's levels.

    Level i = 0 .. cfg.richardson_levels generates the terms at dt / 2^i,
    evaluates each with evaluator(term, dt_half, index) and recombines them.
    Indices number the terms on across the levels, so an evaluator that
    seeds by index (shot_overlap_evaluator) draws fresh shots at every level.
    The remainder has only even powers of dt, so the tableau entry
    T[i][m] = (4^m T[i][m-1] - T[i-1][m-1]) / (4^m - 1) eliminates the
    leading 2m-th order error.

    error_bound is the finite-difference bound at the finest step, and in
    shots mode samples_used counts one circuit's shots per term.  extra
    holds dt and the overlaps for a single level, the overlaps as one
    float64 array in term order (an evaluator's imaginary part is dropped,
    as recombine drops it).  A Richardson run's extra holds the per-level
    estimates, the last-column residuals (a non-dt^2 signal stays visible in
    them), base_dt and levels, the first two as lists.
    """
    m = as_matrix(a)
    levels = cfg.richardson_levels
    per_level = []
    wall_terms = 0
    for i in range(levels + 1):
        cfg_i = replace(cfg, dt=cfg.dt / 2**i)
        terms = generate_terms(m, cfg_i)
        overlaps = np.array([evaluator(t, cfg_i.dt / 2.0, wall_terms + k)
                             for k, t in enumerate(terms)]).real
        per_level.append(complex(recombine(terms, overlaps)))
        wall_terms += len(terms)

    tableau = [per_level]
    for col in range(1, levels + 1):
        factor = 4.0**col
        prev = tableau[-1]
        tableau.append([
            (factor * prev[i] - prev[i - 1]) / (factor - 1.0)
            for i in range(1, len(prev))
        ])
    if levels:
        residuals = [abs(tableau[c][-1] - tableau[c - 1][-1]) for c in range(1, levels + 1)]
        extra = {"per_level": per_level, "residuals": residuals,
                 "base_dt": cfg.dt, "levels": levels}
    else:
        extra = {"dt": cfg.dt, "overlaps": overlaps}
    return PermanentEstimate(
        value=tableau[-1][-1], method="quantum_protocol",
        error_bound=finite_difference_bound(m, cfg.dt / 2**levels),
        samples_used=(cfg.shots_per_overlap * wall_terms
                      if cfg.mode == "hadamard_shots" else None),
        wall_terms=wall_terms, extra=extra,
    )


def richardson_extrapolate(a, base_cfg: ProtocolConfig, levels: int,
                           evaluator) -> PermanentEstimate:
    """run_protocol with base_cfg's richardson_levels set to levels."""
    return run_protocol(a, replace(base_cfg, richardson_levels=levels), evaluator)
