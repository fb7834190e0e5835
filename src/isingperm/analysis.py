"""Analytic error budgets, advantage conditions, and resource accounting."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import matrices
from .accumulate import block_sum
from .decomposition import (E, check_convergence, convergence_d, exp_or_inf,
                            finite_difference_bound, log_weight_scale)
from .errors import DtOutOfRangeError, InvalidInputError
from .matrices import as_matrix


@dataclass
class ErrorBudget:
    """Additive error decomposition for one protocol configuration.

    fd_bound and ht_bound are the finite-difference and Hadamard-test
    contributions of the exact 1/N!-form bound; simplified_bound is the
    Stirling form eps_reduced * (d e / (N dt))^N, which always dominates the
    exact bound inside the convergence window.  gurvits_bound holds the
    classical comparison envelope at equal reduced epsilon.
    """

    fd_bound: float
    ht_bound: float
    total_bound: float
    simplified_bound: float
    eps_reduced: float
    gurvits_bound: float
    case_label: str


def _log_pow(base: float, exponent: float) -> float:
    """base ** exponent via logs; 0 for base 0."""
    if base == 0.0:
        return 0.0
    return exp_or_inf(exponent * math.log(base))


def total_error_bound(a, dt: float, eps_ht: float) -> ErrorBudget:
    """Exact and simplified total additive-error bounds for one run.

    Real input: total <= (eps_HT (2/dt)^N + (N dt^2/24) ||H||^{N+2}) / N!
    and the reduced form eps_R (2e/(N dt))^N with
    eps_R = (eps_HT + N/6) / sqrt(2 pi N); complex input uses d = 4
    and eps_C = (eps_HT + 4N/3) / sqrt(2 pi N).  A dt so small that the
    1/(N! dt^N) weight is too large for a float raises DtOutOfRangeError,
    as in generate_terms; a bound that overflows short of that reads inf.
    """
    m = as_matrix(a)
    n = m.n
    if eps_ht < 0.0:
        raise InvalidInputError("eps_ht must be nonnegative")
    if dt <= 0.0:
        raise DtOutOfRangeError(f"dt = {dt:g} must be positive")
    check_convergence(m, dt)
    d = convergence_d(m)
    log_weight_scale(n, dt)  # raises where the protocol's weights overflow

    ht = eps_ht * exp_or_inf(n * math.log(d / dt) - math.lgamma(n + 1)) if eps_ht else 0.0
    fd = finite_difference_bound(m, dt)
    if m.is_real:
        eps_red = (eps_ht + n / 6.0) / math.sqrt(2.0 * math.pi * n)
    else:
        eps_red = (eps_ht + 4.0 * n / 3.0) / math.sqrt(2.0 * math.pi * n)
    simplified = eps_red * _log_pow(d * E / (n * dt), n)
    gurvits = eps_red * _log_pow(m.norms.two_norm, n)
    label, _ = advantage_classify(m)
    return ErrorBudget(fd_bound=fd, ht_bound=ht, total_bound=ht + fd,
                       simplified_bound=simplified, eps_reduced=eps_red,
                       gurvits_bound=gurvits, case_label=label)


def advantage_classify(a):
    """Classify a matrix against the quantum-vs-Gurvits advantage condition.

    Returns (label, details); labels follow the three enumerated cases of
    the condition ||H(A)|| <= (N/e) ||A||_2, with boundary ties resolved
    toward the lower-numbered case.
    """
    m = as_matrix(a)
    n = m.n
    h = m.norms.ising_norm
    a2 = m.norms.two_norm
    details = {"ising_norm": h, "two_norm": a2, "n_over_e": n / E,
               "threshold": n / E * a2}
    return _advantage_label(n, h, a2), details


def advantage_labels(stack: np.ndarray) -> list[str]:
    """advantage_classify's label for each matrix of a (count, N, N) stack.

    The norms come from one batched SVD and one batched |A| sum over the
    stack as it is, float64 or complex128, the same values MatrixNorms holds
    for each matrix.
    """
    stack = np.asarray(stack)
    n = stack.shape[-1]
    two = np.linalg.norm(stack, 2, axis=(1, 2))
    ising = np.abs(stack).sum(axis=(1, 2))
    return [_advantage_label(n, float(h), float(a2)) for h, a2 in zip(ising, two)]


def _advantage_label(n: int, h: float, a2: float) -> str:
    threshold = n / E * a2
    if h > threshold:
        return "no_advantage"
    if threshold <= n / E:       # ||A|| <= 1
        return "case1"
    if h <= n / E:
        return "case2"
    return "case3"


def q_ratio(n: int) -> float:
    """Fraction of the feasible norm-ratio interval occupied by the advantage
    interval [e, sqrt(N)] inside [1/sqrt(N), sqrt(N)]."""
    root = math.sqrt(n)
    return max(0.0, root - E) / (root - 1.0 / root)


def advantage_domain_ratio(n_min: int, n_max: int):
    """(N, Q(N)) rows for N in [n_min, n_max]."""
    if n_min < 2:
        raise InvalidInputError("n_min must be >= 2")
    if n_max < n_min:
        raise InvalidInputError("n_max must be >= n_min")
    return [(n, q_ratio(n)) for n in range(n_min, n_max + 1)]


def complex_overlap_count(n: int) -> int:
    """Halved overlap count for complex input (odd/even closed forms)."""
    if n % 2 == 1:
        return (n**3 + 6 * n**2 + 11 * n + 6) // 12
    return (n**3 + 6 * n**2 + 8 * n) // 12


@dataclass(frozen=True)
class ResourceReport:
    n: int
    is_complex: bool
    overlaps: int
    qubits: int
    cnots_formula: int
    depth_formula: int
    cnots_measured: int
    depth_measured: int
    total_samples_order: str
    discrepancy_note: str


_CNOT_NOTE = (
    "synthesized circuits contain 4N^2 CNOTs; the published per-overlap count "
    "4N^2+2N includes 2N extra CNOTs whose figure-level origin is not "
    "recoverable, so both numbers are reported"
)


def resource_table(n: int, is_complex: bool = False) -> ResourceReport:
    """Published formula columns next to counts measured from actual synthesis."""
    from .simulator import build_hadamard_test

    if n < 1:
        raise InvalidInputError("n must be >= 1")
    overlaps = complex_overlap_count(n) if is_complex else (n + 1) // 2
    circ = build_hadamard_test(np.ones((n, n)), dt_half=0.5)
    order = "N^3/eps_HT^2 * log(1/delta)" if is_complex else "N/eps_HT^2 * log(1/delta)"
    return ResourceReport(
        n=n,
        is_complex=is_complex,
        overlaps=overlaps,
        qubits=2 * n + 1,
        cnots_formula=4 * n**2 + 2 * n,
        depth_formula=9 * n**2 + 1,
        cnots_measured=circ.cnot_count,
        depth_measured=circ.depth(),
        total_samples_order=order,
        discrepancy_note=_CNOT_NOTE,
    )


@dataclass(frozen=True)
class GaussianNormStats:
    n: int
    trials: int
    mean_ising_norm: float
    predicted: float
    relative_deviation: float
    min_k: float


def gaussian_norm_statistic(n: int, trials: int, seed: int) -> GaussianNormStats:
    """Monte-Carlo mean of sum_jk |A_jk| over real standard-normal draws.

    The predicted mean is sqrt(2/pi) n^2 (E|X| per entry).  min_k is the
    smallest integer order k with 2e sqrt(2/pi) < (n/2)^{k-1}; no finite k
    exists for n <= 2.

    The draws are the pieces of matrices.gaussian_batches, each freed before
    the next is drawn; the piece sums are added by one block_sum.
    """
    if n < 1:
        raise InvalidInputError("n must be >= 1")
    if trials < 100:
        raise InvalidInputError("trials must be >= 100")
    sums = []
    for piece in matrices.gaussian_batches(n, trials, seed):
        sums.append(np.abs(piece, out=piece).sum())
        del piece
    mean = block_sum(sums) / trials
    predicted = math.sqrt(2.0 / math.pi) * n * n
    lhs = 2.0 * E * math.sqrt(2.0 / math.pi)
    if n <= 2:
        min_k: float = math.inf
    else:
        min_k = 1
        while (n / 2.0) ** (min_k - 1) <= lhs:
            min_k += 1
    return GaussianNormStats(n=n, trials=trials, mean_ising_norm=mean,
                             predicted=predicted,
                             relative_deviation=abs(mean - predicted) / predicted,
                             min_k=min_k)
