"""Layered benchmark of isingperm.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of classical, protocol-exact, protocol-shots, cli, or ``all``
(each workload in its own process, one after another).  The run builds its
inputs from the seed, repeats passes over the workload's job list for about
S seconds, judges every output against references computed outside the
timers, and prints one line per metric followed by a JSON summary as the
last line.  With ``--trace 0`` the metrics are the end-to-end ones named in
BENCHMARK.json; with ``--trace 1`` one pass runs with spans around the
package's public calls and the metrics are the per-layer ones.  Each run
also writes its result (environment, per-pass timings, every failure and
bound violation, and with tracing the span file) under ``.bench_runs/``.

The package is imported from ``src/`` of the checkout this file lives in;
without it the run stops with exit code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_HERE = os.path.join(ROOT, "bench")
_WORKLOADS = ("classical", "protocol-exact", "protocol-shots", "cli")


def _pin_blas_threads() -> None:
    """One BLAS thread, set before NumPy loads.

    The load is one caller in a closed loop, so one core does the work; a
    second BLAS thread only adds wake-up latency, which on a shared virtual
    machine is the noisiest part of a small matrix product.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _run_all(args) -> int:
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in _WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.join(_HERE, "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    t_start = perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=_WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set the workload up and print the set-up time")
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "isingperm", "__init__.py")):
        print(f"error: no isingperm package under {src}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    _pin_blas_threads()
    sys.path[:0] = [src, _HERE]

    import isingperm  # noqa: F401  (set-up time includes the import)
    if not os.path.abspath(isingperm.__file__).startswith(src + os.sep):
        print(f"error: isingperm imported from {isingperm.__file__}, not {src}",
              file=sys.stderr)
        return 2
    if args.workload == "cli":
        import isingperm.cli  # noqa: F401
    import workloads

    workload = workloads.build(args.workload, args.seed, ROOT)
    setup_s = perf_counter() - t_start
    try:
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        import harness

        return harness.run(workload, args, setup_s, ROOT)
    finally:
        workload.close()


if __name__ == "__main__":
    raise SystemExit(main())
