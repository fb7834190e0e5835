"""Command-line front end.

Subcommands: compute (classical permanents), quantum (the overlap
protocol end-to-end), resources (circuit accounting table), advantage
(Q(N) CSV, optional ensemble case frequencies), generate (random matrix
files), gaussian-stat (Monte-Carlo Ising-norm statistic).  Each command
returns the fields its manifest records, and main writes the manifest,
after checking before the command runs that its path can be written.
Exit codes: 0 ok, 1 invalid input or a file that cannot be read or
written, 2 dimension cap, 3 invalid time step.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections import Counter
from dataclasses import asdict

from . import __version__
from .analysis import (
    advantage_domain_ratio,
    advantage_labels,
    gaussian_norm_statistic,
    resource_table,
    total_error_bound,
)
from .classical import (
    PermanentEstimate,
    glynn_kan_operator_expectation,
    permanent_gapp,
    permanent_glynn,
    permanent_glynn_kan,
    permanent_gurvits,
    permanent_naive,
    permanent_ryser,
)
from .decomposition import ProtocolConfig, run_protocol, select_dt
from .errors import DimensionTooLargeError, DtOutOfRangeError, InvalidInputError
from .matrices import gaussian_batches, load_matrix, save_matrix
from .simulator import exact_overlap_evaluator, hoeffding_shots, shot_overlap_evaluator

# exit code of each error main reports, most specific class first (0: success)
_EXIT_CODES = ((DtOutOfRangeError, 3), (DimensionTooLargeError, 2),
               (InvalidInputError, 1), (OSError, 1))

_METHODS = {
    "naive": permanent_naive,
    "ryser": permanent_ryser,
    "glynn": permanent_glynn,
    "glynn_kan": permanent_glynn_kan,
    "gapp": permanent_gapp,
    "operator": glynn_kan_operator_expectation,
}


def _estimate_payload(est: PermanentEstimate) -> dict:
    return {
        "value": [est.value.real, est.value.imag],
        "method": est.method,
        "error_bound": est.error_bound,
        "samples_used": est.samples_used,
        "wall_terms": est.wall_terms,
    }


def _strict(obj):
    """obj with every non-finite float replaced by None, for strict JSON (null)."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _strict(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(value) for value in obj]
    return obj


def _dumps(obj, **kwargs) -> str:
    return json.dumps(_strict(obj), allow_nan=False, **kwargs)


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(_dumps(payload))
        return
    for key, value in payload.items():
        print(f"{key:24s} {value}")


def _write_manifest(args, outputs=(), config: dict | None = None) -> None:
    if not args.manifest:
        return
    manifest = {
        "command": args.command,
        "argv": args.argv,
        "input_path": getattr(args, "input", None),
        "config": config or {},
        "outputs": list(outputs),
        "versions": f"isingperm {__version__}",
        "seed": getattr(args, "seed", None),
    }
    with open(args.manifest, "w", encoding="utf-8") as fh:
        fh.write(_dumps(manifest, indent=2) + "\n")


def _check_writable(path: str) -> None:
    """Raise the OSError that writing path would raise, and leave no file behind.

    main checks the manifest path before the command runs, so that a run
    whose manifest cannot be written prints no result.
    """
    existed = os.path.exists(path)
    with open(path, "a", encoding="utf-8"):
        pass
    if not existed:
        os.remove(path)


def _cmd_compute(args) -> dict:
    matrix = load_matrix(args.input)
    if args.method == "gurvits":
        est = permanent_gurvits(matrix, samples=args.samples, seed=args.seed)
    else:
        est = _METHODS[args.method](matrix)
    payload = _estimate_payload(est)
    if est.extra:
        payload["extra"] = dict(est.extra)
    _emit(payload, args.format)
    return {}


def _cmd_quantum(args) -> dict:
    matrix = load_matrix(args.input)
    selection = select_dt(matrix)
    try:
        dt = selection.chosen if args.dt == "auto" else float(args.dt)
    except ValueError:
        raise InvalidInputError(f'--dt must be a number or "auto", got {args.dt!r}') from None
    cfg = ProtocolConfig(
        dt=dt,
        mode="hadamard_shots" if args.mode == "shots" else "exact_overlap",
        shots_per_overlap=args.shots,
        richardson_levels=args.richardson,
        seed=args.seed,
        halve_by_time_reversal=not args.no_halve,
        allow_dt_override=args.force,
    )
    if cfg.mode == "hadamard_shots":
        evaluator = shot_overlap_evaluator(cfg.shots_per_overlap, cfg.seed)
        eps_ht = math.sqrt(2.0 * math.log(2.0 / 0.05) / cfg.shots_per_overlap)
    else:
        evaluator = exact_overlap_evaluator()
        eps_ht = 0.0
    est = run_protocol(matrix, cfg, evaluator)
    try:
        # at the finest step the run used, where estimate.error_bound is taken
        budget_payload = asdict(
            total_error_bound(matrix, dt / 2**cfg.richardson_levels, eps_ht=eps_ht))
        del budget_payload["eps_reduced"]
    except DtOutOfRangeError:
        if not args.force:
            raise
        budget_payload = None  # bounds are not valid outside the window

    payload = {
        "estimate": _estimate_payload(est),
        "dt": dt,
        "windows": {
            "exponential_error": asdict(selection.exp_window),
            "gurvits_beating": asdict(selection.gurvits_window),
        },
        "error_budget": budget_payload,
    }
    if args.verbose:  # a single-level run fills overlaps, a Richardson run per_level
        for key in ("overlaps", "per_level"):
            if key in est.extra:
                payload[key] = [[complex(v).real, complex(v).imag] for v in est.extra[key]]
    _emit(payload, args.format)
    return {"config": asdict(cfg)}


def _cmd_resources(args) -> dict:
    report = asdict(resource_table(args.n, is_complex=args.complex))
    if args.format == "json":
        print(_dumps(report))
    elif args.format == "csv":
        note = report.pop("discrepancy_note")
        print(",".join(report))
        print(",".join(str(value) for value in report.values()))
        print(f"# note: {note}")
    else:
        for key, value in report.items():
            print(f"{key:22s} {value}")
    return {}


def _cmd_advantage(args) -> dict:
    rows = advantage_domain_ratio(args.n_min, args.n_max)
    header = ["N", "Q"]
    freq_rows = None
    if args.ensemble:
        trials, seed = (int(v) for v in args.ensemble)
        labels = ("case1", "case2", "case3", "no_advantage")
        header += [f"frac_{lab}" for lab in labels]
        freq_rows = []
        for n, _ in rows:
            found = Counter()
            for batch in gaussian_batches(n, trials, seed + n):
                found.update(advantage_labels(batch))
            freq_rows.append([found[lab] / trials for lab in labels])
    print(",".join(header))
    for i, (n, q) in enumerate(rows):
        cells = [str(n), f"{q:.10f}"]
        if freq_rows is not None:
            cells += [f"{f:.6f}" for f in freq_rows[i]]
        print(",".join(cells))
    return {}


def _cmd_generate(args) -> dict:
    save_matrix(args.scale * next(gaussian_batches(args.n, 1, args.seed, kind=args.kind))[0],
                args.output)
    print(args.output)
    return {"outputs": [args.output]}


def _cmd_norms_report(args) -> dict:
    stats = gaussian_norm_statistic(args.n, args.trials, args.seed)
    _emit(asdict(stats), args.format)
    return {}


def _check_seeds(args) -> None:
    """Reject a negative --seed and an --ensemble that is not two integers >= 0."""
    if getattr(args, "seed", 0) < 0:
        raise InvalidInputError(f"--seed must be >= 0, got {args.seed}")
    pair = getattr(args, "ensemble", None)
    if pair and not all(v.isdecimal() for v in pair):
        raise InvalidInputError(f"--ensemble takes two non-negative integers, got {' '.join(pair)}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isingperm",
        description="Compute and estimate matrix permanents classically and "
                    "via the simulated overlap protocol.",
    )
    parser.add_argument("--version", action="version", version=f"isingperm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "table"), default="json")

    p = sub.add_parser("compute", help="classical permanent of a matrix file")
    p.add_argument("--input", required=True, help="matrix JSON file")
    p.add_argument("--method", required=True, choices=sorted(_METHODS) + ["gurvits"])
    p.add_argument("--samples", type=int, default=100_000, help="gurvits sample count")
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("quantum", help="run the overlap protocol end-to-end")
    p.add_argument("--input", required=True)
    p.add_argument("--dt", default="auto", help='time step, or "auto" for the selected window')
    p.add_argument("--mode", choices=("exact", "shots"), default="exact")
    p.add_argument("--shots", type=int, default=hoeffding_shots(0.05, 0.05))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--richardson", type=int, default=0)
    p.add_argument("--no-halve", action="store_true",
                   help="keep all terms instead of time-reversal halving")
    p.add_argument("--force", action="store_true",
                   help="allow dt outside the convergence bound")
    p.add_argument("--verbose", action="store_true", help="include per-term overlaps")
    common(p)
    p.set_defaults(func=_cmd_quantum)

    p = sub.add_parser("resources", help="protocol resource table for dimension N")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--complex", action="store_true")
    p.add_argument("--format", choices=("json", "csv", "table"), default="csv")
    p.set_defaults(func=_cmd_resources)

    p = sub.add_parser("advantage", help="Q(N) advantage-domain ratio CSV")
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--ensemble", nargs=2, metavar=("TRIALS", "SEED"),
                   help="append Gaussian-ensemble case-label frequencies")
    p.set_defaults(func=_cmd_advantage)

    p = sub.add_parser("generate", help="write a random Gaussian matrix file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--kind", choices=("real-standard-normal", "complex-standard-normal"),
                   default="real-standard-normal")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("gaussian-stat", help="Monte-Carlo Ising-norm statistic")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=5000)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=_cmd_norms_report)

    for p in sub.choices.values():  # main writes every command's manifest
        p.add_argument("--manifest", help="write a reproducibility manifest to this path")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    args.argv = argv  # recorded in the manifest
    try:
        _check_seeds(args)
        if args.manifest:
            _check_writable(args.manifest)
        _write_manifest(args, **args.func(args))
        return 0
    except (InvalidInputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))


if __name__ == "__main__":
    raise SystemExit(main())
