"""The four workloads as job lists built from a seed.

Each job is one call a user would make, and each pass runs the jobs one
after another (a closed loop with one caller).  Inputs are drawn here from
the workload seed; the package receives only the generated arrays (or, for
the CLI, the files written here).  Library calls are looked up on their
module at call time so that a traced pass sees them through the tracer's
wrappers.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
from isingperm import analysis, classical, decomposition, matrices, simulator

from checks import (Outcome, check_exit, check_permanent, check_protocol, check_sampled,
                    failure, reference)

_UNIT, _SMALL = 1.0, 0.1          # the two norm regimes of the protocol inputs
_CLI_SHOTS = 2952                 # isingperm quantum's default --shots


@dataclass
class Job:
    name: str
    group: str                              # kernel, "protocol" or CLI command
    run: Callable[[], Any]
    check: Callable[[Any, dict], Outcome]   # (output, references) -> outcome
    argv: list[str] | None = None           # CLI jobs: arguments after "isingperm"
    exit_code: int = 0                      # CLI jobs: the expected exit code


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    inputs: dict[str, tuple[np.ndarray, bool]]   # key -> (matrix, exact oracle?)
    workdir: str | None = None

    def references(self) -> dict:
        return {key: reference(arr, exact) for key, (arr, exact) in self.inputs.items()}

    def close(self) -> None:
        if self.workdir:
            shutil.rmtree(self.workdir, ignore_errors=True)


class _Draw:
    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)

    def matrix(self, kind: str, n: int, scale: float = 1.0) -> np.ndarray:
        rng = self.rng
        if kind == "int":
            return rng.integers(-3, 4, (n, n)).astype(float)
        if kind == "cint":
            return (rng.integers(-3, 4, (n, n)) + 1j * rng.integers(-3, 4, (n, n))).astype(complex)
        if kind == "real":
            return scale * rng.standard_normal((n, n))
        if kind == "complex":
            return scale * (rng.standard_normal((n, n))
                            + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
        raise ValueError(kind)

    def seed(self) -> int:
        return int(self.rng.integers(1 << 31))


def _classical(draw: _Draw) -> Workload:
    # Small calls carry per-call overhead into job_p50_s, large ones carry
    # Gray-code throughput into wall_s.  Odd N exercises the GapP padding.
    specs = [(k, n, kind) for n in range(6, 11) for k in ("ryser", "glynn")
             for kind in ("int", "real")]
    specs += [(k, n, kind) for n in range(5, 9) for k in ("glynn_kan", "gapp")
              for kind in ("int", "real")]
    specs += [("glynn_kan", n, kind) for n in range(4, 7) for kind in ("cint", "complex")]
    specs += [("ryser", 18, "int"), ("glynn", 17, "real"), ("ryser", 16, "cint"),
              ("glynn", 16, "complex"), ("glynn_kan", 11, "real"), ("gapp", 10, "int"),
              ("glynn_kan", 8, "complex"), ("gurvits", 20, "real")]
    jobs, inputs = [], {}
    for kernel, n, kind in specs:
        key = f"{kernel}/n{n}/{kind}"
        arr = draw.matrix(kind, n)
        inputs[key] = (arr, kind in ("int", "cint"))
        if kernel == "gurvits":
            run = (lambda a=arr, s=draw.seed():
                   classical.permanent_gurvits(a, samples=10**6, seed=s))
            check = (lambda est, refs, key=key:
                     check_sampled(est.value, est.error_bound, refs[key]))
        else:
            run = lambda a=arr, f="permanent_" + kernel: getattr(classical, f)(a)
            check = lambda est, refs, key=key: check_permanent(est.value, refs[key])
        jobs.append(Job(key, kernel, run, check))
    return Workload("classical", jobs, inputs)


def _protocol_job(draw: _Draw, field_: str, n: int, scale: float, levels: int,
                  shots: int | None, halve: bool = True) -> tuple[Job, np.ndarray]:
    arr = draw.matrix(field_, n, scale)
    seed = draw.seed()
    exact = shots is None
    key = (f"protocol/{field_}/n{n}/scale{scale:g}/rich{levels}"
           + ("" if exact else f"/shots{shots}") + ("" if halve else "/nohalve"))

    def run():
        cfg = decomposition.ProtocolConfig(
            dt=decomposition.select_dt(arr).chosen,
            mode="exact_overlap" if exact else "hadamard_shots",
            shots_per_overlap=shots or 1024, richardson_levels=levels, seed=seed,
            halve_by_time_reversal=halve)
        evaluator = (simulator.exact_overlap_evaluator() if exact
                     else simulator.shot_overlap_evaluator(shots, seed))
        if levels:
            return decomposition.richardson_extrapolate(arr, cfg, levels, evaluator)
        return decomposition.run_protocol(arr, cfg, evaluator)

    def check(est, refs):
        residuals = est.extra.get("residuals") or [None]
        return check_protocol(est.value, est.error_bound, refs[key], exact, residuals[-1])

    return Job(key, "protocol", run, check), arr


def _protocol(draw: _Draw, shots_mode: bool) -> Workload:
    grid = [(s, lv) for s in (_UNIT, _SMALL) for lv in (0, 2)]
    if not shots_mode:
        # overlap_exact costs 4^N per overlap: the full grid up to N = 9,
        # then the cheapest jobs at N = 10, 11 (real) and 7, 8 (complex).
        specs = [("real", n, s, lv, None) for n in (6, 7, 8, 9) for s, lv in grid]
        specs += [("real", 10, _UNIT, 0, None), ("real", 10, _SMALL, 0, None),
                  ("real", 11, _SMALL, 0, None)]
        specs += [("complex", n, s, lv, None) for n in (5, 6) for s, lv in grid]
        specs += [("complex", 7, _UNIT, 0, None), ("complex", 7, _SMALL, 2, None),
                  ("complex", 8, _SMALL, 0, None)]
    else:
        # a 2N+1-qubit statevector per overlap: the full grid at real N = 5,
        # every (regime, level) pair at real N = 6 and complex N = 4 with the
        # shot counts alternating, one or two jobs at the larger sizes.
        levels = [(s, lv) for s in (_UNIT, _SMALL) for lv in (0, 1, 2)]
        specs = [("real", 5, s, lv, shots) for s, lv in levels for shots in (4096, _CLI_SHOTS)]
        for field_, n in (("real", 6), ("complex", 4)):
            specs += [(field_, n, s, lv, (4096, _CLI_SHOTS)[i % 2])
                      for i, (s, lv) in enumerate(levels)]
        specs += [("real", 7, _SMALL, 1, 4096), ("real", 7, _UNIT, 0, _CLI_SHOTS),
                  ("real", 8, _SMALL, 0, 4096),
                  ("complex", 5, _UNIT, 0, 4096), ("complex", 5, _SMALL, 1, _CLI_SHOTS),
                  ("complex", 6, _SMALL, 0, 4096)]
    jobs, inputs = [], {}
    for spec in specs:
        job, arr = _protocol_job(draw, *spec)
        jobs.append(job)
        inputs[job.name] = (arr, False)
    if not shots_mode:
        job, arr = _protocol_job(draw, "real", 8, _SMALL, 0, None, halve=False)
        jobs.append(job)
        inputs[job.name] = (arr, False)
    return Workload("protocol-shots" if shots_mode else "protocol-exact", jobs, inputs)


# --- the CLI ------------------------------------------------------------------


def _write_matrix(path: str, arr: np.ndarray) -> None:
    if np.iscomplexobj(arr):
        rows = [[[float(v.real), float(v.imag)] for v in row] for row in arr]
    else:
        rows = [[float(v) for v in row] for row in arr]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"n": arr.shape[0], "rows": rows}, fh)


def _payload(proc) -> dict:
    return json.loads(proc.stdout)


def _value(pair) -> complex:
    return complex(pair[0], pair[1])


def _workdir(root: str, name: str) -> str:
    workdir = os.path.join(root, ".bench_runs", f"{name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    return workdir


def cli_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def _cli_run(argv: list[str], env: dict):
    """One fresh ``isingperm`` process (run as ``python -m isingperm.cli`` so the
    package comes from this checkout's ``src/``)."""
    return subprocess.run([sys.executable, "-m", "isingperm.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=150)


def _cli(draw: _Draw, root: str) -> Workload:
    workdir = _workdir(root, "cli")
    path = lambda name: os.path.join(workdir, name)
    env = cli_env(root)

    inputs = {"int12": (draw.matrix("int", 12), True),
              "real12": (draw.matrix("real", 12), False),
              "q8": (draw.matrix("real", 8, _SMALL), False),
              "q6": (draw.matrix("real", 6, _SMALL), False)}
    for key, (arr, _) in inputs.items():
        _write_matrix(path(key + ".json"), arr)
    _write_matrix(path("int11.json"), draw.matrix("int", 11))
    with open(path("bad.json"), "w", encoding="utf-8") as fh:
        fh.write('{"n": 2, "rows": [[1, 2], [3, 4]')
    seed = str(draw.seed())

    def exact_value(key):
        return lambda p, refs: check_permanent(_value(_payload(p)["value"]), refs[key])

    def gurvits(p, refs):
        out = _payload(p)
        return check_sampled(_value(out["value"]), out["error_bound"], refs["real12"])

    def quantum(key, exact):
        def check(p, refs):
            out = _payload(p)
            budget = out["error_budget"] or {}
            result = check_protocol(_value(out["estimate"]["value"]),
                                    budget.get("total_bound"), refs[key], exact)
            if exact:
                with open(path("manifest.json"), encoding="utf-8") as fh:
                    manifest = json.load(fh)
                if manifest.get("command") != "quantum" or len(out.get("per_level", [])) != 3:
                    return failure("--verbose/--manifest output incomplete", protocol=True,
                                   observed=result.observed, bound=result.bound)
            return result
        return check

    def generate(p, refs):
        with open(path("gen.json"), encoding="utf-8") as fh:
            out = json.load(fh)
        vals = np.abs(np.array(out["rows"], dtype=float))
        if out["n"] != 10 or vals.shape != (10, 10) or not np.all(vals < 1.0):
            return failure("generated matrix has the wrong shape or scale")
        return Outcome()

    def resources(p, refs):
        out = _payload(p)
        # complex N = 8: (N^3 + 6N^2 + 8N)/12 overlaps, 2N+1 qubits, 4N^2 CNOTs
        if (out["qubits"], out["overlaps"], out["cnots_measured"]) != (17, 80, 256):
            return failure(f"resource table {out}")
        return Outcome()

    def advantage(p, refs):
        lines = p.stdout.strip().splitlines()
        rows = [[float(c) for c in line.split(",")] for line in lines[1:]]
        if [int(r[0]) for r in rows] != list(range(4, 13)):
            return failure("advantage rows do not cover N = 4..12")
        for n, q, *fracs in rows:
            want = max(0.0, math.sqrt(n) - math.e) / (math.sqrt(n) - 1.0 / math.sqrt(n))
            if abs(q - want) > 1e-9 or abs(sum(fracs) - 1.0) > 1e-5:
                return failure(f"advantage row N = {n:g} is inconsistent")
        return Outcome()

    def gaussian_stat(p, refs):
        out = _payload(p)
        predicted = math.sqrt(2.0 / math.pi) * 100
        # 5000 trials of 100 entries: the mean's relative sd is about 1e-3
        if abs(out["predicted"] - predicted) > 1e-9 * predicted or out["relative_deviation"] > 0.02:
            return failure(f"gaussian-stat {out}")
        return Outcome()

    f = lambda name: path(name + ".json")
    specs = [
        (["generate", "--n", "10", "--seed", seed, "--scale", "0.1", "--output", f("gen")],
         0, generate),
        (["compute", "--input", f("int12"), "--method", "ryser"], 0, exact_value("int12")),
        (["compute", "--input", f("int12"), "--method", "glynn"], 0, exact_value("int12")),
        (["compute", "--input", f("real12"), "--method", "glynn"], 0, exact_value("real12")),
        (["compute", "--input", f("real12"), "--method", "gurvits", "--seed", seed], 0, gurvits),
        (["quantum", "--input", f("q8"), "--richardson", "2", "--verbose",
          "--manifest", f("manifest")], 0, quantum("q8", exact=True)),
        (["quantum", "--input", f("q6"), "--mode", "shots", "--seed", seed], 0,
         quantum("q6", exact=False)),
        (["resources", "--n", "8", "--complex", "--format", "json"], 0, resources),
        (["advantage", "--n-min", "4", "--n-max", "12", "--ensemble", "500", seed], 0, advantage),
        (["gaussian-stat", "--n", "10", "--seed", seed], 0, gaussian_stat),
        # expected failures: time step above the convergence bound, dimension
        # cap, malformed JSON
        (["quantum", "--input", f("q8"), "--dt", "1000"], 3, None),
        (["compute", "--input", f("int11"), "--method", "naive"], 2, None),
        (["compute", "--input", f("bad"), "--method", "ryser"], 1, None),
    ]
    jobs = []
    for argv, code, check_output in specs:
        def check(proc, refs, code=code, check_output=check_output):
            bad = check_exit(proc.returncode, code)
            if bad is not None:
                return bad
            if check_output is None:
                return Outcome() if proc.stderr.startswith("error:") else failure(
                    "expected failure printed no error message")
            return check_output(proc, refs)

        name = " ".join(a if not a.startswith(workdir) else os.path.basename(a) for a in argv)
        jobs.append(Job(name, argv[0], lambda argv=argv: _cli_run(argv, env), check, argv, code))
    return Workload("cli", jobs, inputs, workdir=workdir)


def _census(draw: _Draw, root: str) -> Workload:
    """One small call into each layer and each CLI command, unjudged.

    A traced run uses it for the per-layer times of layers its workload does
    not reach, so that every reported time is a measurement.
    """
    workdir = _workdir(root, "census")
    env = cli_env(root)
    real, cplx = draw.matrix("real", 5), draw.matrix("complex", 4)
    exact = _protocol_job(draw, "real", 4, _SMALL, 0, None)[0]
    shots = _protocol_job(draw, "real", 3, _SMALL, 0, 64)[0]
    small = draw.matrix("real", 4, _SMALL)
    path = os.path.join(workdir, "m.json")
    seed = str(draw.seed())

    def files():
        matrices.save_matrix(small, path)
        return matrices.load_matrix(path)

    def analyses():
        dt = decomposition.select_dt(small).chosen
        return (analysis.advantage_classify(small), analysis.total_error_bound(small, dt, 0.0),
                analysis.gaussian_norm_statistic(3, 100, int(seed)), analysis.resource_table(3))

    calls = [("ryser", lambda: classical.permanent_ryser(real)),
             ("glynn", lambda: classical.permanent_glynn(real)),
             ("glynn_kan", lambda: classical.permanent_glynn_kan(real)),
             ("glynn_kan_complex", lambda: classical.permanent_glynn_kan(cplx)),
             ("gapp", lambda: classical.permanent_gapp(real)),
             ("gurvits", lambda: classical.permanent_gurvits(real, samples=1000, seed=int(seed))),
             ("protocol-exact", exact.run), ("protocol-shots", shots.run),
             ("matrices", files), ("analysis", analyses)]
    jobs = [Job(name, name, run, lambda out, refs: Outcome()) for name, run in calls]
    for argv in (["generate", "--n", "3", "--seed", seed, "--output", path],
                 ["compute", "--input", path, "--method", "ryser"],
                 ["quantum", "--input", path],
                 ["resources", "--n", "2"],
                 ["advantage", "--n-min", "2", "--n-max", "3"],
                 ["gaussian-stat", "--n", "3", "--trials", "100", "--seed", seed]):
        jobs.append(Job(argv[0], argv[0], lambda argv=argv: _cli_run(argv, env),
                        lambda out, refs: Outcome(), argv))
    return Workload("census", jobs, {}, workdir=workdir)


def _spread(workload: Workload) -> Workload:
    """Run the jobs in a golden-ratio stride order instead of spec order.

    The spec lists jobs roughly by size, so jobs of similar cost would run
    back to back and share one short stretch of the host's speed.  A stride
    coprime with the job count puts neighbours in the spec far apart in the
    pass, so the jobs that decide the median and the tail sample the whole
    pass.  The order is fixed for a given job list.
    """
    n = len(workload.jobs)
    stride = max(1, round(n * 0.618))
    while math.gcd(stride, n) != 1:
        stride += 1
    workload.jobs = [workload.jobs[(i * stride) % n] for i in range(n)]
    return workload


def build(name: str, seed: int, root: str) -> Workload:
    draw = _Draw(seed)
    if name == "classical":
        return _spread(_classical(draw))
    if name in ("protocol-exact", "protocol-shots"):
        return _spread(_protocol(draw, shots_mode=name == "protocol-shots"))
    if name == "cli":
        return _spread(_cli(draw, root))
    if name == "census":
        return _census(draw, root)
    raise ValueError(f"unknown workload {name!r}")
