"""Passes, metrics, the result file and the printed report of one run."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import workloads
from checks import failure, self_check
from tracing import CLI_COMMANDS, Tracer, layer_metrics

_SETUP_PROBES = 6       # fresh set-ups per untraced run, besides the run's own
_STARTUP_PROBES = 3     # fresh interpreters importing isingperm.cli


@dataclass
class Pass:
    traced: bool
    wall_s: float
    times: list[float]
    cpu: list[float]       # CPU time of each job, the process's and its children's
    outputs: list[tuple]   # (output, error message or None)


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _blas() -> dict:
    info = {"threads_env": os.environ.get("OPENBLAS_NUM_THREADS")}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError):
        pass
    try:  # the thread count OpenBLAS actually uses, when it is the BLAS
        import ctypes

        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln and ".so" in ln})
        for lib in libs:
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(ctypes.CDLL(lib), sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    info["threads"] = fn()
                    return info
    except OSError:
        pass
    return info


def _src_digest(root: str) -> str:
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def environment(root: str, args) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    git_sha = None
    if os.path.exists(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        git_sha = proc.stdout.strip() or None
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": _blas(),
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu, "git_sha": git_sha,
            "src_sha256": _src_digest(root), "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def _run_pass(workload, traced: bool, tracer: Tracer, index: int) -> Pass:
    times, cpu, outputs = [], [], []
    with tracer.instrument() if traced else contextlib.nullcontext():
        t_pass = perf_counter()
        for j, job in enumerate(workload.jobs):
            tracer.job = f"{index}:{j}:{job.name}"
            cpu_start = _cpu_s()
            start = perf_counter()
            try:
                if traced:
                    with tracer.span("job." + job.group):
                        out = job.run()
                else:
                    out = job.run()
                err = None
            except Exception as exc:  # a failing job is counted, never dropped
                out, err = None, f"{type(exc).__name__}: {exc}"
            times.append(perf_counter() - start)
            cpu.append(_cpu_s() - cpu_start)
            outputs.append((out, err))
        wall = perf_counter() - t_pass
    return Pass(traced, wall, times, cpu, outputs)


def _cli_in_process(workload, tracer: Tracer) -> tuple[dict, list]:
    """Each CLI command once more through ``cli.main(argv)``, traced."""
    from isingperm import cli

    main_s: dict[str, list] = {}
    codes = []
    with tracer.instrument():
        for j, job in enumerate(workload.jobs):
            if job.argv is None:
                continue
            tracer.job = f"main:{j}:{job.name}"
            sink = io.StringIO()
            start = perf_counter()
            with tracer.span(f"cli.{job.group}.main"), contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                try:
                    code = cli.main(job.argv)
                except SystemExit as exc:
                    code = exc.code
            main_s.setdefault(job.group, []).append(perf_counter() - start)
            codes.append(code)
    return main_s, codes


def _startup_s(env: dict) -> float:
    samples = []
    for _ in range(_STARTUP_PROBES):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import isingperm.cli"], env=env, check=True,
                       capture_output=True, timeout=60)
        samples.append(perf_counter() - start)
    return statistics.median(samples)


def _setup_samples(args, own: float, root: str) -> list[float]:
    samples = [own]
    for _ in range(_SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.join(root, "bench", "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--setup-probe"],
            capture_output=True, text=True, check=True, timeout=120)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def _job_times(untraced: list[Pass]) -> tuple[float, float, float]:
    """(p50, tail, tail percentile) of per-job CPU times.

    Each job's CPU time is first reduced to its median over the passes; the
    tail is the highest rank with at least 10 jobs beyond it.  CPU time, not
    wall time: on a shared virtual machine the wall time of a short job also
    holds the time the hypervisor gave its CPU to other guests, which swings
    by tens of percent from run to run.
    """
    per_job = sorted(statistics.median(cpu) for cpu in zip(*(p.cpu for p in untraced)))
    rank = max(len(per_job) - 11, 0)
    return statistics.median(per_job), per_job[rank], 100.0 * (rank + 1) / len(per_job)


def _judge(workload, passes, refs):
    outcomes = []
    for p, record in enumerate(passes):
        for job, (out, err) in zip(workload.jobs, record.outputs):
            if err is not None:
                outcome = failure(err)
            else:
                try:
                    outcome = job.check(out, refs)
                except Exception as exc:  # an unreadable output is a failure
                    outcome = failure(f"output check raised {type(exc).__name__}: {exc}")
            outcomes.append((p, job, outcome))
    return outcomes


def _quality(outcomes) -> dict:
    results = [o for _, _, o in outcomes]
    protocol = [o for o in results if o.protocol]
    exact = [o.exact_digits for o in results if o.exact_digits is not None]
    proto_digits = [o.protocol_digits for o in results if o.protocol_digits is not None]
    slack = [math.log10(o.bound / o.observed) for o in results
             if o.protocol_digits is not None and o.bound and o.observed]
    residual = [o.residual_rel for o in results if o.residual_rel is not None]
    return {
        "failed_frac": sum(o.failed for o in results) / len(results),
        "bound_violation_frac": (sum(o.violation for o in protocol) / len(protocol)
                                 if protocol else 0.0),
        "exact_digits": min(exact) if exact else 0.0,
        "protocol_digits": statistics.median(proto_digits) if proto_digits else 0.0,
        "decomposition.bound_slack_digits": statistics.median(slack) if slack else 0.0,
        "decomposition.richardson_residual_rel": statistics.median(residual) if residual else 0.0,
        "cli.exit_code_mismatches": sum(o.exit_mismatch for o in results),
    }


def _declared(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    with open(os.path.join(root, "bench", "metric_map.json"), encoding="utf-8") as fh:
        mapping = json.load(fh)
    for section in ("end_to_end", "per_layer"):
        names = [m["name"] for m in bench[section]]
        if sorted(names) != sorted(mapping[section]):
            raise SystemExit(f"bench/metric_map.json and BENCHMARK.json disagree on {section}")
    return bench


def _report(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"  {name:44s} {value:<14.6g} {unit}{'  ' + note if note else ''}")


def _end_to_end(workload, untraced: list[Pass], setup: list[float]) -> tuple[dict, dict]:
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload.name == "cli":
        rss_kib = max(rss_kib, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    p50, tail, tail_pct = _job_times(untraced)
    metrics = {"setup_s": statistics.median(setup),
               "wall_s": statistics.median(p.wall_s for p in untraced),
               "job_p50_s": p50, "job_tail_s": tail, "peak_rss_mb": rss_kib / 1024.0}
    notes = {"setup_s": f"(median of {len(setup)} set-ups)",
             "wall_s": f"(median of {len(untraced)} passes)",
             "job_p50_s": f"(CPU time; each job's median over {len(untraced)} passes)",
             "job_tail_s": f"(CPU time; p{tail_pct:.0f} of {len(workload.jobs)} jobs)"}
    return metrics, notes


def _per_layer(workload, tracer: Tracer, traced: Pass, main_s: dict, codes: list) -> dict:
    metrics = layer_metrics(tracer)
    for cmd in CLI_COMMANDS:
        # the traced pass times CLI jobs as whole subprocesses, untouched by tracing
        times = [t for job, t in zip(workload.jobs, traced.times) if job.group == cmd]
        metrics[f"cli.{cmd}.process_s"] = statistics.median(times) if main_s and times else 0.0
        metrics[f"cli.{cmd}.main_s"] = statistics.median(main_s.get(cmd, [0.0]))
    metrics["cli.exit_code_mismatches"] = sum(
        code != job.exit_code for job, code in zip((j for j in workload.jobs if j.argv), codes))
    return metrics


def _census_metrics(args, root: str) -> dict:
    census = workloads.build("census", args.seed, root)
    try:
        tracer = Tracer()
        traced = _run_pass(census, True, tracer, "census")
        main_s, codes = _cli_in_process(census, tracer)
        return _per_layer(census, tracer, traced, main_s, codes)
    finally:
        census.close()


def run(workload, args, setup_own: float, root: str) -> int:
    problems = self_check()
    if problems:
        for problem in problems:
            print(f"error: gate self-check: {problem}", file=sys.stderr)
        return 1
    declared = _declared(root)
    env = environment(root, args)
    setup = [setup_own] if args.trace else _setup_samples(args, setup_own, root)
    refs = workload.references()

    tracer = Tracer()
    passes: list[Pass] = []
    main_s, codes = {}, []
    plan = [False, True] if args.trace else [False]
    t_begin = perf_counter()
    while len(passes) < len(plan) or perf_counter() - t_begin + passes[-1].wall_s <= args.seconds:
        traced = len(passes) < len(plan) and plan[len(passes)]
        passes.append(_run_pass(workload, traced, tracer, len(passes)))
        if traced and workload.name == "cli":
            main_s, codes = _cli_in_process(workload, tracer)

    outcomes = _judge(workload, passes, refs)
    quality = _quality(outcomes)
    untraced = [p for p in passes if not p.traced]
    failed = [(p, job.name, o.reason) for p, job, o in outcomes if o.failed]
    violations = [(p, job.name, o.observed, o.bound) for p, job, o in outcomes if o.violation]
    census_filled = []
    if args.trace:
        traced = next(p for p in passes if p.traced)
        metrics, notes = _per_layer(workload, tracer, traced, main_s, codes), {}
        metrics["cli.exit_code_mismatches"] += quality.pop("cli.exit_code_mismatches")
        metrics.update(quality)
        metrics["trace.overhead_s"] = traced.wall_s - statistics.median(p.wall_s for p in untraced)
        metrics["cli.startup_s"] = _startup_s(workloads.cli_env(root))
        census = _census_metrics(args, root)
        for m in declared["per_layer"]:
            if m["unit"] in ("s", "ns") and metrics[m["name"]] == 0:
                metrics[m["name"]] = census[m["name"]]
                census_filled.append(m["name"])
                notes[m["name"]] = "(census call)"
        section = declared["per_layer"]
    else:
        quality.pop("cli.exit_code_mismatches")
        metrics, notes = _end_to_end(workload, untraced, setup)
        section = declared["end_to_end"]

    out_dir = os.path.join(root, ".bench_runs")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    spans_file = stem + "-spans.jsonl" if args.trace else None
    if spans_file:
        tracer.write(spans_file)
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        names = [j.name for j in workload.jobs]
        json.dump({"env": env, "metrics": metrics, "checks": quality,
                   "passes": [{"traced": p.traced, "wall_s": p.wall_s,
                               "job_times_s": dict(zip(names, p.times)),
                               "job_cpu_s": dict(zip(names, p.cpu))} for p in passes],
                   "setup_samples_s": setup, "failures": failed,
                   "violations": violations, "spans_file": spans_file,
                   "census_filled": census_filled}, fh, indent=1)

    print(f"env {json.dumps(env)}")
    print(f"workload {workload.name}: {len(untraced)} untraced pass(es)"
          f"{', 1 traced pass' if args.trace else ''}, {len(workload.jobs)} jobs per pass, "
          "closed loop, one caller")
    for m in section:
        _report(m["name"], metrics[m["name"]], m["unit"], notes.get(m["name"], ""))
    if args.trace:
        print(f"  spans written to {os.path.relpath(spans_file, root)} "
              f"({len(tracer.spans)} spans)")
    else:
        print("  checks (all passes):")
        protocol_jobs = sum(o.protocol for _, _, o in outcomes)
        _report("failed_frac", quality["failed_frac"], "ratio",
                f"({len(failed)} of {len(outcomes)} jobs)")
        _report("bound_violation_frac", quality["bound_violation_frac"], "ratio",
                f"({len(violations)} of {protocol_jobs} protocol jobs)")
        _report("exact_digits", quality["exact_digits"], "digits")
        _report("protocol_digits", quality["protocol_digits"], "digits")
    for p, name, reason in failed:
        print(f"  FAILED pass {p} {name}: {reason}")
    for p, name, observed, bound in violations:
        print(f"  bound violated pass {p} {name}: observed {observed:.3e} > bound {bound}")
    print(f"result written to {os.path.relpath(stem + '.json', root)}")
    print(json.dumps({"correct": not failed, "attempted": len(outcomes), "failed": len(failed),
                      "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                                  for m in section}}))
    return 0
