"""Per-call cost of each exact permanent kernel, checked against Ryser.

    python3 tools/kernel_costs.py SRC --n 4 6 8 [--repeats K]

SRC is the ``src/`` directory of the checkout to time.  For each N and each
exact kernel the script makes one untimed call (it fills the cached sign
tables and gives the value checked), then K timed calls, and reports the
fastest, with one BLAS thread.  Every value is checked against Ryser on the
same matrix before its time is kept: a kernel that reads more than 1e-10
relative from it gets no time, and the script exits 1.  A kernel whose cap
is below N is listed as capped.  The result is one JSON object on stdout.

The inputs have entries uniform in [0, 1) (real and imaginary parts alike),
so no kernel's sum cancels and 1e-10 is far above any kernel's roundoff.
To compare two checkouts, run the script on each in turn, alternating
which goes first, and keep each side's fastest call.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from time import perf_counter

# (kernel name, function in isingperm.classical, input field)
_KERNELS = (
    ("naive", "permanent_naive", "real"),
    ("ryser", "permanent_ryser", "real"),
    ("ryser", "permanent_ryser", "complex"),
    ("glynn", "permanent_glynn", "real"),
    ("glynn", "permanent_glynn", "complex"),
    ("glynn_kan", "permanent_glynn_kan", "real"),
    ("glynn_kan", "permanent_glynn_kan", "complex"),
    ("gapp", "permanent_gapp", "real"),
    ("operator", "glynn_kan_operator_expectation", "real"),
    ("operator", "glynn_kan_operator_expectation", "complex"),
)
_REL_TOL = 1e-10


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = perf_counter()
        fn()
        best = min(best, perf_counter() - start)
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", help="the src/ directory holding the isingperm package")
    parser.add_argument("--n", type=int, nargs="+", required=True, help="dimensions to time")
    parser.add_argument("--repeats", type=int, default=5, help="timed calls per kernel and N")
    args = parser.parse_args(argv)
    if args.repeats < 1 or min(args.n) < 1:
        parser.error("--repeats and every --n must be >= 1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before NumPy loads
    sys.path.insert(0, os.path.abspath(args.src))
    import numpy as np

    from isingperm import classical
    from isingperm.errors import DimensionTooLargeError

    rows, ok = [], True
    for n in args.n:
        rng = np.random.default_rng(n)
        real = rng.random((n, n))
        inputs = {"real": real, "complex": real + 1j * rng.random((n, n))}
        refs = {}
        for name, func, field in _KERNELS:
            fn = getattr(classical, func)
            a = inputs[field]
            row = {"kernel": name, "field": field, "n": n}
            rows.append(row)
            try:
                value = fn(a).value  # also fills the cached sign tables
            except DimensionTooLargeError:
                row["capped"] = True
                continue
            if field not in refs:
                refs[field] = classical.permanent_ryser(a).value
            ref = refs[field]
            row["rel_err"] = abs(value - ref) / abs(ref)
            if not row["rel_err"] <= _REL_TOL:
                ok = False
                continue
            row["best_s"] = _best_of(lambda: fn(a), args.repeats)
    print(json.dumps({"src": os.path.abspath(args.src), "python": platform.python_version(),
                      "numpy": np.__version__, "blas_threads": 1, "repeats": args.repeats,
                      "rel_tol": _REL_TOL, "ok": ok, "rows": rows}, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
