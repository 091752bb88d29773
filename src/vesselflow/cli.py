"""Command-line interface.

    vesselflow simulate <config.json> [--t-end X] [--dt X] [--output DIR]
                        [--check-only] [--snapshot t1,t2,...]

Exit codes: 0 success, 1 usage or config error, 2 solvability-condition
failure, 3 solver failure (running out of memory included) or any other
unexpected error (reported in one line, without a traceback).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .config import load_config
from .errors import ConfigError, SimulationError, WellPosednessFailure
from .output import CsvSink, emit_snapshot
from .solver import initial_state, run, time_tolerance
from .wellposedness import check_state

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONDITIONS = 2
EXIT_SOLVER = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vesselflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    sim = sub.add_parser("simulate", help="run a scenario from a config file")
    sim.add_argument("config", help="path to the scenario JSON file")
    sim.add_argument("--t-end", type=float, default=None, help="override solver.t_end")
    sim.add_argument("--dt", type=float, default=None, help="override solver.dt")
    sim.add_argument("--output", default=None, help="override the output directory")
    sim.add_argument(
        "--check-only",
        action="store_true",
        help="run the solvability checks on the initial state and exit",
    )
    sim.add_argument(
        "--snapshot",
        default=None,
        help="comma-separated times; write one full-field CSV per time",
    )
    return parser


def _simulate(args) -> int:
    try:
        return _simulate_classified(args)
    except Exception as exc:  # anything the steps below do not classify
        message = " ".join(str(exc).split()) or "no message"
        if isinstance(exc, MemoryError):
            print(f"solver failure: out of memory ({message})", file=sys.stderr)
        else:
            print(f"unexpected error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_SOLVER


def _simulate_classified(args) -> int:
    try:
        loaded = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    sim = loaded.sim
    overrides = {}
    if args.t_end is not None:
        overrides["t_end"] = args.t_end
    if args.dt is not None:
        overrides["dt"] = args.dt
    if overrides:
        try:
            sim = dataclasses.replace(sim, **overrides)
        except ValueError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_USAGE
    out_dir = args.output if args.output is not None else loaded.output_dir

    for w in loaded.warnings:
        print(f"warning: {w.subject}: {w.message}")
    print("solver settings: " + ", ".join(
        f"{k}={v}" for k, v in sorted(dataclasses.asdict(sim).items())
    ))

    try:
        state0, diags = initial_state(loaded.net, loaded.init, sim)
    except SimulationError as exc:
        print(f"initial state error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    init_errors = [d for d in diags if d.severity == "error"]
    for d in diags:
        print(f"{d.severity}: {d.subject}: {d.message}")

    if args.check_only:
        report = check_state(state0, sim)
        for c in report.checks:
            status = "pass" if c.passed else "FAIL"
            extra = f" [{c.classification}]" if c.classification else ""
            print(
                f"{status} {c.subject}: {c.condition} margin {c.margin:.6e} "
                f"at x-index {c.x_index}{extra}"
            )
        for j in report.junction_checks:
            status = "pass" if j.passed else "FAIL"
            print(f"{status} {j.node}: junction condition estimate {j.condition_estimate:.3e}")
        for msg in report.unevaluable:
            print(f"FAIL {msg}")
        if not report.passed or init_errors:
            print("solvability check: FAIL")
            return EXIT_CONDITIONS
        print("solvability check: PASS")
        return EXIT_OK

    if init_errors:
        print("aborting: initial state violates node compatibility", file=sys.stderr)
        return EXIT_SOLVER

    try:
        snapshot_times = sorted(float(s) for s in args.snapshot.split(",")) if args.snapshot else []
        # NaN and the infinities fail the range check too (t_end is finite)
        valid = all(0.0 <= t <= sim.t_end for t in snapshot_times)
    except ValueError:
        valid = False
    if not valid:
        print(
            f"invalid --snapshot list: {args.snapshot!r} "
            f"(times must be finite, at least 0 and at most t_end = {sim.t_end!r})",
            file=sys.stderr,
        )
        return EXIT_USAGE

    csv_path = os.path.join(out_dir, loaded.timeseries)
    pending = list(snapshot_times)
    snap_count = [0]
    tiny = time_tolerance(sim.t_end)

    def on_step(state):
        while pending and state.t >= pending[0] - tiny:
            pending.pop(0)
            path = os.path.join(out_dir, f"snapshot_{snap_count[0]:03d}.csv")
            with CsvSink(path) as snap:
                emit_snapshot(snap, state, sim.epsilon0)
            print(f"snapshot at t={state.t!r} -> {path}")
            snap_count[0] += 1

    try:
        os.makedirs(out_dir, exist_ok=True)
        on_step(state0)  # times at 0 take the initial state
        with CsvSink(csv_path) as sink:
            report = run(
                loaded.net, state0, sim,
                probes=loaded.probes, sink=sink,
                on_step=on_step if snapshot_times else None,
            )
    except WellPosednessFailure as exc:
        print(f"solvability failure: {exc}", file=sys.stderr)
        return EXIT_CONDITIONS
    except SimulationError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_SOLVER

    print(
        f"done: {report.steps} steps to t={report.t_final!r}, "
        f"{report.picard_total} fixed-point iterations, "
        f"{report.dt_adjustments} dt adjustments, "
        f"{report.extrapolated_steps} extrapolated starts, "
        f"{report.extrapolation_retries} extrapolation retries"
    )
    print(f"timeseries -> {csv_path}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "simulate":
        return _simulate(args)
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
