"""One benchmark operation, run in a fresh interpreter.

    python3 bench/worker.py <spec.json>

An operation imports vesselflow, sets up the workload's scenarios,
runs them, and checks the outputs. Only the standard library is loaded
before the timed `import vesselflow`, so set-up time includes what a
user's launch pays for. The result (timings, counters, check problems
and, when traced, the per-layer metrics) is written as JSON to the path
the spec names.

Times are corrected for the host's speed (see `hostspeed.py`): the
setup and run times it reports are reference-host seconds, and the raw
wall times are reported next to them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import resource
import sys
import time

import hostspeed


def _timed(fn, calls):
    """Wrap `run` so the call into it is timestamped and its time loop
    is timed by a SpeedLog, which calibrates between steps through the
    solver's per-step callback (after the caller's own callback)."""

    def wrapper(*args, **kwargs):
        t_in = time.perf_counter()
        cal_in = hostspeed.calibrate(hostspeed.PURE)
        user_on_step = kwargs.pop("on_step", None)
        log = hostspeed.SpeedLog()

        def on_step(state):
            if user_on_step is not None:
                user_on_step(state)
            log.mark()

        log.start()
        report = fn(*args, on_step=on_step, **kwargs)
        log.stop()
        calls.append((t_in, cal_in, log, report))
        return report

    return wrapper


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def _deep_size(obj, seen) -> int:
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    size = sys.getsizeof(obj)
    if isinstance(obj, dict):
        size += sum(_deep_size(k, seen) + _deep_size(v, seen) for k, v in obj.items())
    elif isinstance(obj, (list, tuple, set, frozenset)):
        size += sum(_deep_size(v, seen) for v in obj)
    elif hasattr(obj, "__dict__"):
        size += _deep_size(vars(obj), seen)
    return size


def retained_bytes(report) -> int:
    """Deep size of a SimReport without its final state."""
    seen = {id(report.final_state)}
    return sys.getsizeof(report) + sum(
        _deep_size(v, seen) for k, v in vars(report).items() if k != "final_state"
    )


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    workload = spec["workload"]

    cal_start = hostspeed.calibrate(hostspeed.PURE)
    t0 = time.perf_counter()
    import vesselflow

    if workload == "cli-bifurcation":
        import vesselflow.cli
    else:
        import vesselflow.config
    t_import = time.perf_counter()

    if not os.path.abspath(vesselflow.__file__).startswith(spec["src"] + os.sep):
        print(f"vesselflow imported from {vesselflow.__file__}, not {spec['src']}", file=sys.stderr)
        return 2

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    calls = []
    if workload == "cli-bifurcation":
        cli = sys.modules["vesselflow.cli"]
        cli.run = _timed(cli.run, calls)
        log = io.StringIO()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            exit_code = cli.main(spec["argv"])
        if exit_code != 0 or not calls:
            raise RuntimeError(f"vesselflow simulate exited {exit_code}: {log.getvalue()[-2000:]}")
    else:
        config, solver = sys.modules["vesselflow.config"], sys.modules["vesselflow.solver"]
        loaded = [config.load_config(p) for p in spec["configs"]]
        states = []
        for lc in loaded:
            state, diags = solver.initial_state(lc.net, lc.init, lc.sim)
            errors = [d for d in diags if d.severity == "error"]
            if errors:
                raise RuntimeError(f"initial state errors: {errors}")
            states.append(state)
        run = _timed(solver.run, calls)
        for lc, state in zip(loaded, states):
            os.makedirs(lc.output_dir, exist_ok=True)
            with vesselflow.CsvSink(os.path.join(lc.output_dir, lc.timeseries)) as sink:
                run(lc.net, state, lc.sim, probes=lc.probes, sink=sink)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import numpy as np

    import checks

    reports = [c[3] for c in calls]
    if workload == "cli-bifurcation":
        out_dir = spec["out_dir"]
        series = _read_rows(os.path.join(out_dir, spec["timeseries"]))
        snapshot = _read_rows(os.path.join(out_dir, "snapshot_000.csv"))
        with open(spec["configs"][0]) as fh:
            doc = json.load(fh)
        problems = checks.check_bifurcation(doc, exit_code, reports[0].steps, series, snapshot)
    else:
        fields = [
            {vid: (np.asarray(f.P), np.asarray(f.Q)) for vid, f in r.final_state.fields.items()}
            for r in reports
        ]
        if workload == "tree-63":
            problems = checks.check_tree(spec["layout"], fields[0])
        else:
            problems = checks.check_refinement([f["v"] for f in fields])

    records, csv_bytes = 0, 0
    for name in os.listdir(spec["out_dir"]):
        if name.endswith(".csv"):
            path = os.path.join(spec["out_dir"], name)
            records += len(_read_rows(path))
            csv_bytes += os.path.getsize(path)

    steps = sum(r.steps for r in reports)
    result = {
        "problems": problems,
        "import_s": t_import - t0,
        "setup_s": (calls[0][0] - t0) * hostspeed.scale(cal_start, calls[0][1]),
        "setup_wall_s": calls[0][0] - t0,
        "run_s": sum(c[2].corrected for c in calls),
        "run_wall_s": sum(c[2].wall for c in calls),
        "steps": steps,
        "iterations": sum(r.picard_total for r in reports),
        "dt_halvings": sum(r.dt_adjustments for r in reports),
        "vessel_steps": sum(r.steps * n for r, n in zip(reports, spec["vessels"])),
        "peak_rss_mb": peak_rss_mb,
        "retained_kb": sum(retained_bytes(r) for r in reports) / 1024.0,
        "records": records,
        "csv_kb": csv_bytes / 1024.0,
    }
    if tracer is not None:
        result["layers"] = tracer.layers()
        result["full_sweeps"] = tracer.full_sweeps
        result["absent"] = tracer.absent
        result["points_iters"] = sum(r.picard_total * p for r, p in zip(reports, spec["points"]))
        result["closures"] = sum(r.picard_total * j for r, j in zip(reports, spec["junctions"]))
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
