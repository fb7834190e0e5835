"""Every job output of one benchmark pass, for comparing two checkouts bit for bit.

    python3 tools/bench_outputs.py SRC --seed N

SRC is the ``src/`` directory of the checkout to run.  The script builds the
classical, protocol-exact, protocol-shots and cli workloads of the
``bench/workloads.py`` next to it at the seed, as ``bench/run.py`` does, and
runs each job once with one BLAS thread: library jobs in this process with
the package imported from SRC, CLI jobs in fresh processes that import it
from SRC too.  Each output is judged with the benchmark's own check, and the
script exits 1 when any job is judged wrong.

The result is one JSON object on stdout: per workload and job, the output.
A library job gives value, error_bound, samples_used, wall_terms and extra,
every float as ``float.hex`` and every complex as a [re, im] pair of them.
A CLI job gives its exit code, stdout and stderr, with the work directory's
path replaced by ``<workdir>``.  The work directory is removed at the end.
Two checkouts are compared by running the script on each at the same seed
and comparing the two objects job by job.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

_BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
_WORKLOADS = ("classical", "protocol-exact", "protocol-shots", "cli")
_FIELDS = ("value", "error_bound", "samples_used", "wall_terms", "extra")


def _exact(obj):
    """obj with every float as float.hex, every complex as a [re, im] pair."""
    if hasattr(obj, "tolist"):  # numpy arrays and scalars
        obj = obj.tolist()
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, complex):
        return [obj.real.hex(), obj.imag.hex()]
    if isinstance(obj, dict):
        return {str(k): _exact(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_exact(v) for v in obj]
    return obj  # None, bool, int or str


def _record(job, out, workdir: str | None):
    if job.argv is not None:
        clean = lambda text: text.replace(workdir, "<workdir>") if workdir else text
        return {"exit_code": out.returncode, "stdout": clean(out.stdout),
                "stderr": clean(out.stderr)}
    return {name: _exact(getattr(out, name)) for name in _FIELDS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", help="the src/ directory holding the isingperm package")
    parser.add_argument("--seed", type=int, required=True, help="the workload seed")
    args = parser.parse_args(argv)
    src = os.path.abspath(args.src)
    root = os.path.dirname(src)
    if not os.path.isfile(os.path.join(src, "isingperm", "__init__.py")) \
            or os.path.basename(src) != "src":
        parser.error(f"{args.src} is not a checkout's src/ directory holding isingperm")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before NumPy loads
    sys.path[:0] = [src, _BENCH]
    import numpy as np

    import isingperm
    import workloads

    if not os.path.abspath(isingperm.__file__).startswith(src + os.sep):
        print(f"error: isingperm imported from {isingperm.__file__}, not {src}",
              file=sys.stderr)
        return 2

    result = {"seed": args.seed, "python": platform.python_version(),
              "numpy": np.__version__, "wrong": {}, "workloads": {}}
    for name in _WORKLOADS:
        workload = workloads.build(name, args.seed, root)
        try:
            refs = workload.references()
            outputs = result["workloads"][name] = {}
            for job in workload.jobs:
                try:
                    out = job.run()
                except Exception as exc:  # a raising job is a wrong output
                    outputs[job.name] = {"raised": f"{type(exc).__name__}: {exc}"}
                    result["wrong"][f"{name}: {job.name}"] = outputs[job.name]["raised"]
                    continue
                outputs[job.name] = _record(job, out, workload.workdir)
                outcome = job.check(out, refs)
                if outcome.failed:
                    result["wrong"][f"{name}: {job.name}"] = outcome.reason
        finally:
            workload.close()
    print(json.dumps(result, indent=1, sort_keys=True))
    return 1 if result["wrong"] else 0


if __name__ == "__main__":
    sys.exit(main())
