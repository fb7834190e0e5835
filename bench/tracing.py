"""Spans around the package's public calls, recorded from outside ``src/``.

``Tracer.instrument()`` replaces selected public functions, in every loaded
``isingperm`` module that binds them, with wrappers that record a span
(name, start, end, parent span, job id) and the work counts of the call.
Internal callers look the names up at call time, so the wrappers also see
``run_protocol`` calling ``generate_terms``, ``SquareMatrix.norms`` calling
``norms``, and ``overlap_shots`` calling ``simulate_statevector``.  The
evaluator factories are wrapped so that every overlap handed back to
``decomposition`` is recorded with its index and weight: that is the
boundary between ``decomposition`` and ``simulator``.

Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

_CLASSICAL = ("permanent_ryser", "permanent_glynn", "permanent_glynn_kan",
              "permanent_gapp", "permanent_gurvits")
KERNELS = ("ryser", "glynn", "glynn_kan", "glynn_kan_complex", "gapp", "gurvits")
CLI_COMMANDS = ("generate", "compute", "quantum", "resources", "advantage", "gaussian-stat")
_PROTOCOL = ("decomposition.run_protocol", "decomposition.richardson_extrapolate")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, job]
        self.overlaps: list[tuple] = []  # (job, index, weight, paired, dt_half, value)
        self.counts: dict[str, float] = defaultdict(float)
        self.job: str | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = [name, perf_counter(), None, self._stack[-1] if self._stack else None, self.job]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn, count=None, rename=None):
        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
            if rename is not None:
                rec[0] = rename(out)
            if count is not None:
                count(self.counts, rec[0], args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_evaluator(self, factory):
        def make(*args, **kwargs):
            evaluate = factory(*args, **kwargs)

            def traced(term, dt_half, index):
                with self.span("decomposition.evaluator"):
                    value = evaluate(term, dt_half, index)
                self.overlaps.append((self.job, index, term.weight,
                                      term.uses_conjugate_pair, dt_half, complex(value)))
                return value

            return traced

        make.__wrapped__ = factory
        return make

    @contextmanager
    def instrument(self):
        """Patch the public calls for the duration of the block."""
        from isingperm import analysis, classical, decomposition, matrices, simulator

        def kernel_terms(counts, name, args, kwargs, out):
            counts[name + ".terms"] += out.wall_terms

        def terms(counts, name, args, kwargs, out):
            counts["decomposition.terms"] += len(out)

        def pairs(counts, name, args, kwargs, out):
            m = args[0]
            counts[name + ".pairs"] += 4 ** (m.n if hasattr(m, "n") else len(m))

        def shots(counts, name, args, kwargs, out):
            counts[name + ".shots"] += out.shots_used

        def amplitudes(counts, name, args, kwargs, out):
            circ = args[0]
            counts["simulator.overlap_shots.amp_updates"] += len(circ.gates) << circ.num_qubits
            key = "simulator.overlap_shots.qubits_max"
            counts[key] = max(counts[key], circ.num_qubits)

        def json_bytes(counts, name, args, kwargs, out):
            path = args[1] if name.endswith("save_matrix") else args[0]
            counts["matrices.json_bytes"] += os.path.getsize(path)

        targets = [(classical, f, "classical." + f, kernel_terms,
                    lambda est: "classical." + est.method) for f in _CLASSICAL]
        targets += [
            (matrices, "norms", "matrices.norms", None, None),
            (matrices, "load_matrix", "matrices.load_matrix", json_bytes, None),
            (matrices, "save_matrix", "matrices.save_matrix", json_bytes, None),
            (decomposition, "generate_terms", "decomposition.generate_terms", terms, None),
            (decomposition, "run_protocol", "decomposition.run_protocol", None, None),
            (decomposition, "richardson_extrapolate", "decomposition.richardson_extrapolate",
             None, None),
            (simulator, "overlap_exact", "simulator.overlap_exact", pairs, None),
            (simulator, "overlap_shots", "simulator.overlap_shots", shots, None),
            (simulator, "simulate_statevector", "simulator.simulate_statevector",
             amplitudes, None),
        ]
        targets += [(analysis, f, "analysis." + f, None, None)
                    for f in ("advantage_classify", "total_error_bound",
                              "gaussian_norm_statistic", "resource_table")]
        replace = {}
        for module, attr, name, count, rename in targets:
            fn = getattr(module, attr)
            replace[id(fn)] = (fn, self._wrap(name, fn, count, rename))
        for attr in ("exact_overlap_evaluator", "shot_overlap_evaluator"):
            fn = getattr(simulator, attr)
            replace[id(fn)] = (fn, self._wrap_evaluator(fn))

        def swap(value):
            hit = replace.get(id(value))
            return hit[1] if hit is not None and hit[0] is value else None

        # module attributes, and values of module-level dicts such as the
        # CLI's method table
        patched = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "isingperm" and not mod_name.startswith("isingperm."):
                continue
            for attr, value in list(vars(module).items()):
                targets = [(vars(module), attr, value)]
                if isinstance(value, dict):
                    targets = [(value, key, item) for key, item in value.items()]
                for table, key, item in targets:
                    wrapper = swap(item)
                    if wrapper is not None:
                        table[key] = wrapper
                        patched.append((table, key, item))
        try:
            yield
        finally:
            for table, key, item in patched:
                table[key] = item

    def write(self, path: str) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, job) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start_s": start - t0,
                                     "end_s": end - t0, "parent": parent, "job": job}))
                fh.write("\n")


def _busy(spans, name: str) -> tuple[int, float]:
    durations = [end - start for n, start, end, _, _ in spans if n == name]
    return len(durations), sum(durations)


def _ns_per(busy: float, work: float) -> float:
    return 1e9 * busy / work if work else 0.0


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from everything the tracer recorded."""
    spans, counts = tracer.spans, tracer.counts
    out: dict[str, float] = {}
    for k in KERNELS:
        name = "classical." + k
        calls, busy = _busy(spans, name)
        work = counts[name + ".terms"]
        out.update({name + ".calls": calls, name + ".busy_s": busy,
                    name + ".terms": work, name + ".ns_per_term": _ns_per(busy, work)})

    calls, busy = _busy(spans, "simulator.overlap_exact")
    work = counts["simulator.overlap_exact.pairs"]
    out.update({"simulator.overlap_exact.calls": calls, "simulator.overlap_exact.busy_s": busy,
                "simulator.overlap_exact.pairs": work,
                "simulator.overlap_exact.ns_per_pair": _ns_per(busy, work)})
    calls, busy = _busy(spans, "simulator.overlap_shots")
    work = counts["simulator.overlap_shots.amp_updates"]
    out.update({"simulator.overlap_shots.calls": calls, "simulator.overlap_shots.busy_s": busy,
                "simulator.overlap_shots.shots": counts["simulator.overlap_shots.shots"],
                "simulator.overlap_shots.qubits_max": counts["simulator.overlap_shots.qubits_max"],
                "simulator.overlap_shots.amp_updates": work,
                "simulator.overlap_shots.ns_per_amp_update": _ns_per(busy, work)})

    out["decomposition.generate_terms.busy_s"] = _busy(spans, "decomposition.generate_terms")[1]
    out["decomposition.terms"] = counts["decomposition.terms"]
    overlaps, evaluator_s = _busy(spans, "decomposition.evaluator")
    out["decomposition.overlaps"] = overlaps
    # outermost protocol spans only: Richardson calls run_protocol per level
    protocol_s = sum(end - start for name, start, end, parent, _ in spans
                     if name in _PROTOCOL and (parent is None or spans[parent][0] not in _PROTOCOL))
    out["decomposition.self_s"] = protocol_s - evaluator_s if protocol_s else 0.0

    per_level = defaultdict(list)
    per_job = defaultdict(list)
    for job, index, weight, paired, dt_half, value in tracer.overlaps:
        per_level[(job, dt_half)].append(weight * value.real if paired else weight * value)
        per_job[job].append(index)
    ratios = [sum(abs(c) for c in cs) / abs(sum(cs)) for cs in per_level.values() if sum(cs)]
    out["decomposition.cancellation_ratio"] = _median(ratios)
    total = sum(len(ix) for ix in per_job.values())
    out["decomposition.distinct_index_ratio"] = (
        sum(len(set(ix)) for ix in per_job.values()) / total if total else 0.0)

    out["matrices.norms.calls"], out["matrices.norms.busy_s"] = _busy(spans, "matrices.norms")
    out["matrices.load_matrix.busy_s"] = _busy(spans, "matrices.load_matrix")[1]
    out["matrices.save_matrix.busy_s"] = _busy(spans, "matrices.save_matrix")[1]
    out["matrices.json_bytes"] = counts["matrices.json_bytes"]
    calls, busy = _busy(spans, "analysis.advantage_classify")
    out["analysis.advantage_classify.calls"] = calls
    out["analysis.advantage_classify.busy_s"] = busy
    for f in ("total_error_bound", "gaussian_norm_statistic", "resource_table"):
        out[f"analysis.{f}.busy_s"] = _busy(spans, "analysis." + f)[1]
    return out
