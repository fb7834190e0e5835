"""The benchmark's correctness gate.

Every job output is judged here, after all timing, against a reference
computed before the first pass.  A job can:

* fail: it raised, returned a wrong exit code, produced a non-finite value,
  or disagreed with the reference beyond tolerance on an exact path;
* violate its bound: a protocol estimate whose observed error exceeds the
  error bound the program itself reported.  This is counted apart from
  failures, so a dishonest error bar shows as a number and never hides a
  crash (or the reverse).

Nothing is dropped, re-seeded or resized: every job of every pass is judged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from oracles import exact_abs_error, glynn_reference, permanent_exact_parts

_U = 2.0**-53
# Roundoff of a float evaluation of the permanent is proportional to the
# mean |term| of the Glynn sum times the random-walk growth 2^(N/2) of a
# 2^N-step accumulation.  Measured errors of every kernel on Gaussian
# inputs at N <= 18 stay below 30 units of that scale; the tolerance is
# 2^10 units, about 1.5 digits above the worst of them.
TOL_UNITS = 2.0**10
DIGITS_CAP = 16.0


@dataclass(frozen=True)
class Reference:
    """Oracle value of one input matrix."""

    per: complex
    mean_abs_term: float
    exact_parts: tuple[int, int] | None  # exact (Re, Im) for integer inputs
    n: int

    @property
    def tolerance(self) -> float:
        return TOL_UNITS * _U * 2.0 ** (self.n / 2) * self.mean_abs_term


def reference(arr: np.ndarray, exact: bool) -> Reference:
    """Reference for one input; exact=True needs integer-valued entries."""
    per, mean_abs = glynn_reference(arr)
    parts = None
    if exact:
        parts = permanent_exact_parts(arr)
        per = complex(*parts)
    return Reference(per=complex(per), mean_abs_term=mean_abs,
                     exact_parts=parts, n=arr.shape[0])


@dataclass
class Outcome:
    failed: bool = False
    reason: str = ""
    exact_digits: float | None = None     # exact classical job, integer oracle
    protocol: bool = False                # counts towards bound_violation_frac
    violation: bool = False
    observed: float | None = None
    bound: float | None = None
    protocol_digits: float | None = None  # exact-overlap protocol job
    residual_rel: float | None = None     # last Richardson residual / |Per|
    exit_mismatch: bool = False


def digits(rel_err: float) -> float:
    """-log10 of a relative error, capped at DIGITS_CAP for exact agreement."""
    if not math.isfinite(rel_err):
        return 0.0
    return min(DIGITS_CAP, -math.log10(max(rel_err, 10.0**-DIGITS_CAP)))


def failure(reason: str, **fields) -> Outcome:
    return Outcome(failed=True, reason=reason, **fields)


def check_permanent(value: complex, ref: Reference) -> Outcome:
    """An exact classical result against the oracle (exact or cross-kernel)."""
    value = complex(value)
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        return failure(f"non-finite value {value}")
    if ref.exact_parts is not None:
        err = exact_abs_error(value, ref.exact_parts)
        scale = abs(ref.per)
        out = Outcome(exact_digits=digits(err / scale) if scale else None)
    else:
        err = abs(value - ref.per)
        out = Outcome()
    if err > ref.tolerance:
        out.failed = True
        out.reason = f"|value - Per| = {err:.3e} exceeds tolerance {ref.tolerance:.3e}"
    return out


def check_sampled(value: complex, bound: float | None, ref: Reference) -> Outcome:
    """A Gurvits estimate: its own reported envelope is its tolerance."""
    value = complex(value)
    err = abs(value - ref.per)
    if bound is None or not math.isfinite(err) or err > bound:
        return failure(f"Gurvits error {err:.3e} exceeds its bound {bound}")
    return Outcome()


def check_protocol(value: complex, bound: float | None, ref: Reference, exact: bool,
                   residual: float | None = None) -> Outcome:
    """A protocol estimate against the oracle and against its own bound."""
    value = complex(value)
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        return failure(f"non-finite estimate {value}", protocol=True)
    err = abs(value - ref.per)
    scale = abs(ref.per)
    out = Outcome(protocol=True, observed=err, bound=bound,
                  violation=bound is None or err > bound)
    if exact and scale:
        out.protocol_digits = digits(err / scale)
        if residual is not None:
            out.residual_rel = residual / scale
    return out


def check_exit(code: int, expected: int) -> Outcome | None:
    """A wrong exit code is a failure; None means the code is as expected."""
    if code != expected:
        return failure(f"exit code {code}, expected {expected}", exit_mismatch=True)
    return None


def self_check() -> list[str]:
    """Prove the gate on known-bad inputs; returns the problems found."""
    import itertools

    problems = []
    rng = np.random.default_rng(12345)
    for arr in (rng.integers(-3, 4, (5, 5)).astype(float),
                (rng.integers(-3, 4, (5, 5)) + 1j * rng.integers(-3, 4, (5, 5)))):
        brute = sum(math.prod(complex(arr[i, p[i]]) for i in range(5))
                    for p in itertools.permutations(range(5)))
        if complex(*permanent_exact_parts(arr)) != brute:
            problems.append("modular oracle disagrees with the permutation sum")
        ref = reference(arr, exact=True)
        if abs(glynn_reference(arr)[0] - brute) > ref.tolerance:
            problems.append("float reference disagrees with the permutation sum")
        if check_permanent(ref.per, ref).failed:
            problems.append("an exact value was judged failed")
        if not check_permanent(ref.per * (1 + 1e-6) + 1e-6, ref).failed:
            problems.append("a perturbed value was not judged failed")
        if not check_permanent(complex("nan"), ref).failed:
            problems.append("a NaN value was not judged failed")
        if not check_protocol(ref.per + 1.0, 0.5, ref, exact=True).violation:
            problems.append("an error above its reported bound was not a violation")
        if check_protocol(ref.per + 0.25, 0.5, ref, exact=True).violation:
            problems.append("an error below its reported bound was a violation")
        if not check_sampled(ref.per + 1.0, 0.5, ref).failed:
            problems.append("a sampled value outside its envelope was not failed")
    bad = check_exit(0, 3)
    if bad is None or not (bad.failed and bad.exit_mismatch):
        problems.append("a wrong exit code was not counted as a mismatch")
    if check_exit(2, 2) is not None:
        problems.append("a matching exit code was counted as a mismatch")
    return problems
