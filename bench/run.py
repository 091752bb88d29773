"""vesselflow benchmark: time to solution on three named workloads.

    python3 bench/run.py --workload tree-63 --seed 3 --seconds 30 --trace 0
    python3 bench/run.py --workload all --trace 1     # every workload, every metric
    python3 bench/run.py --smoke                      # all workloads at tiny sizes
    python3 bench/run.py --write-manifest             # regenerate BENCHMARK.json

Run from anywhere inside a checkout; the program is imported from the
checkout's `src/`. Each operation (one simulation and its correctness
check) runs in a fresh single-threaded interpreter, one after another,
so set-up time includes the import a user's launch pays for. Whole
operations repeat until --seconds is used up; metrics are medians over
the operations of the run. With --trace 1 untraced and traced
operations alternate: the traced ones give the per-layer split and the
difference of the two run times is the tracing overhead. Set-up and
run times are corrected for the shared host's speed (see hostspeed.py).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import (
    BIFURCATION_SMOKE_T_END,
    WORKLOADS,
    bifurcation_doc,
    draw,
    pulse_docs,
    tree_doc,
    write_json,
)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"

RUN_SECONDS = 40
HARD_LIMIT_S = 170.0  # every run ends well inside three minutes

WHY = {
    "cli-bifurcation": "the user's real path: vesselflow simulate parses the config, closes a branching and a "
                       "transitional node, and writes probe CSV rows every step",
    "tree-63": "63 short vessels and 31 three-way junctions with a full condition check every step: "
               "per-vessel and per-node Python overhead, node closures and check_state",
    "pulse-refine": "one long vessel on 800, 1600 and 3200 cells: per-point arithmetic in the "
                    "characteristics kernel with almost no node work",
}

# name, unit, better, bound (share of the parent's median). setup_s and
# run_s are corrected for the host's speed (hostspeed.py); what noise is
# left is mostly the import's file system work and short outliers, so
# the time bounds sit at the 0.25 cap and setup_s has no smaller one.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("run_s", "s", "lower", 0.25),
    ("vessel_steps_per_s", "vessel-steps/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
)

CHECK = "wellposedness.check_state"


def _total(r, layer):
    return r["layers"].get(layer, {}).get("total_ns", 0)


def _self(r, layer):
    return r["layers"].get(layer, {}).get("self_ns", 0)


def _calls(r, layer):
    return r["layers"].get(layer, {}).get("calls", 0)


def _per_iter_us(ns, r):
    return ns / max(r["iterations"], 1) / 1e3


# name, unit, better, value from one traced operation's result
PER_LAYER = (
    ("vesselflow.import_ms", "ms", "lower", lambda r: r["import_s"] * 1e3),
    ("config.load_ms", "ms", "lower", lambda r: _total(r, "config.load") / 1e6),
    ("solver.initial_state_ms", "ms", "lower", lambda r: _total(r, "solver.initial_state") / 1e6),
    ("solver.steps", "count", "lower", lambda r: r["steps"]),
    ("solver.dt_halvings", "count", "lower", lambda r: r["dt_halvings"]),
    ("solver.picard_iters_per_step", "iters/step", "lower",
     lambda r: r["iterations"] / max(r["steps"], 1)),
    ("solver.self_us_per_iter", "us", "lower",
     lambda r: _per_iter_us(_self(r, "solver.picard_step"), r)),
    ("solver.retained_kb", "KB", "lower", lambda r: r["retained_kb"]),
    ("constitutive.coefficients_us_per_iter", "us", "lower",
     lambda r: _per_iter_us(_total(r, "constitutive.coefficients"), r)),
    ("constitutive.eigen_us_per_iter", "us", "lower",
     lambda r: _per_iter_us(_total(r, "constitutive.eigen"), r)),
    ("constitutive.from_riemann_us_per_iter", "us", "lower",
     lambda r: _per_iter_us(_total(r, "constitutive.from_riemann"), r)),
    ("characteristics.freeze_us_per_iter", "us", "lower",
     lambda r: _per_iter_us(_self(r, "characteristics.freeze_step"), r)),
    ("characteristics.interior_us_per_iter", "us", "lower",
     lambda r: _per_iter_us(_self(r, "characteristics.interior_update"), r)),
    ("characteristics.calls_per_iter", "calls/iter", "lower",
     lambda r: _calls(r, "characteristics.interior_update") / max(r["iterations"], 1)),
    ("characteristics.ns_per_point", "ns", "lower",
     lambda r: (_total(r, "characteristics.freeze_step") + _total(r, "characteristics.interior_update"))
     / max(r["points_iters"], 1)),
    ("junctions.assemble_us_per_iter", "us", "lower",
     lambda r: _per_iter_us(_total(r, "junctions.assemble"), r)),
    ("junctions.solve_us_per_iter", "us", "lower",
     lambda r: _per_iter_us(_total(r, "junctions.solve"), r)),
    ("junctions.external_us_per_iter", "us", "lower",
     lambda r: _per_iter_us(_total(r, "junctions.external"), r)),
    ("junctions.solves_per_closure", "solves/closure", "lower",
     lambda r: _calls(r, "junctions.solve") / r["closures"] if r["closures"] else 0.0),
    ("wellposedness.check_ms_per_step", "ms", "lower",
     lambda r: _total(r, CHECK) / max(r["steps"], 1) / 1e6),
    ("wellposedness.full_sweeps", "count", "lower", lambda r: r["full_sweeps"]),
    ("output.probe_us_per_step", "us", "lower",
     lambda r: _total(r, "output.emit_probes") / max(r["steps"], 1) / 1e3),
    ("output.records", "count", "lower", lambda r: r["records"]),
    ("output.csv_kb", "KB", "lower", lambda r: r["csv_kb"]),
)
TRACE_OVERHEAD = ("trace.overhead_s", "s", "lower")


def manifest() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w, "why": WHY[w]} for w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER
        ] + [dict(zip(("name", "unit", "better"), TRACE_OVERHEAD))],
    }


def manifest_text() -> str:
    return json.dumps(manifest(), indent=2) + "\n"


# --- inputs ----------------------------------------------------------------


def prepare(workload: str, seed: int, size: str, work: Path) -> dict:
    """Write the seeded scenario files; return the operation spec."""
    params = draw(seed)
    out_dir = str(work / "out")
    spec = {"workload": workload, "src": str(SRC), "out_dir": out_dir, "params": params}
    if workload == "cli-bifurcation":
        with open(ROOT / "configs" / "bifurcation.json") as fh:
            docs = [bifurcation_doc(json.load(fh), params)]
        if size == "smoke":
            docs[0]["solver"]["t_end"] = BIFURCATION_SMOKE_T_END
        config = str(work / "bifurcation.json")
        spec["argv"] = ["simulate", config, "--output", out_dir,
                        "--snapshot", repr(docs[0]["solver"]["t_end"])]
        spec["timeseries"] = docs[0]["output"]["timeseries"]
        paths = [config]
    elif workload == "tree-63":
        doc, spec["layout"] = tree_doc(params, size, out_dir)
        docs, paths = [doc], [str(work / "tree.json")]
    else:
        docs = pulse_docs(params, size, out_dir)
        paths = [str(work / f"pulse_{d['vessels'][0]['n_cells']}.json") for d in docs]
    for doc, path in zip(docs, paths):
        write_json(path, doc)
    spec["configs"] = paths
    spec["vessels"] = [len(d["vessels"]) for d in docs]
    spec["points"] = [sum(v["n_cells"] + 1 for v in d["vessels"]) for d in docs]
    spec["junctions"] = [
        sum(n["kind"] in ("branching", "transitional") for n in d["nodes"]) for d in docs
    ]
    return spec


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


# --- operations --------------------------------------------------------------


def run_op(spec: dict, traced: bool, work: Path, timeout: float) -> dict | None:
    """One operation in a fresh interpreter; None if it failed."""
    shutil.rmtree(spec["out_dir"], ignore_errors=True)
    os.makedirs(spec["out_dir"])
    result_path = work / "result.json"
    if result_path.exists():
        result_path.unlink()
    spec_path = work / "spec.json"
    write_json(str(spec_path), dict(spec, trace=traced, result=str(result_path)))
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), str(spec_path)],
            env=worker_env(), capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        print(f"{spec['workload']}: operation timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0 or not result_path.exists():
        print(f"{spec['workload']}: operation failed (exit {proc.returncode})\n"
              f"{proc.stderr[-3000:]}", file=sys.stderr)
        return None
    with open(result_path) as fh:
        result = json.load(fh)
    for problem in result["problems"]:
        print(f"{spec['workload']}: CHECK FAILED: {problem}", file=sys.stderr)
    return result


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    """Whole rounds of operations until `seconds` are used up (at least
    one round). A round is one untraced operation, or an untraced and a
    traced one when tracing."""
    t_start = time.perf_counter()
    work = WORK / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        spec = prepare(workload, seed, size, work)
        # compile the package's bytecode and warm the file cache once,
        # outside the timed operations
        subprocess.run([sys.executable, "-c", "import vesselflow.cli"],
                       env=worker_env(), check=True, capture_output=True,
                       timeout=max(1.0, HARD_LIMIT_S - (time.perf_counter() - t_start)))
        pattern = (False, True) if trace else (False,)
        plain, traced, attempted, failed = [], [], 0, 0
        t_measure = time.perf_counter()
        while True:
            t_round = time.perf_counter()
            for is_traced in pattern:
                left = HARD_LIMIT_S - (time.perf_counter() - t_start)
                result = run_op(spec, is_traced, work, left) if left > 0 else None
                attempted += 1
                if result is None:
                    failed += 1
                else:
                    (traced if is_traced else plain).append(result)
            now = time.perf_counter()
            if now - t_measure + (now - t_round) > seconds or left <= 0:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"plain": plain, "traced": traced, "attempted": attempted, "failed": failed,
            "params": spec["params"]}


# --- metrics -----------------------------------------------------------------


def end_to_end(plain: list) -> dict:
    med = statistics.median
    return {
        "setup_s": med(r["setup_s"] for r in plain),
        "run_s": med(r["run_s"] for r in plain),
        "vessel_steps_per_s": med(r["vessel_steps"] / r["run_s"] for r in plain),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in plain),
    }


def per_layer(plain: list, traced: list) -> dict:
    out = {name: statistics.median(fn(r) for r in traced) for name, _, _, fn in PER_LAYER}
    out[TRACE_OVERHEAD[0]] = (statistics.median(r["run_s"] for r in traced)
                              - statistics.median(r["run_s"] for r in plain))
    return out


def summarize(workload: str, m: dict, trace: bool) -> dict:
    ops = m["plain"] + m["traced"]
    correct = bool(ops) and all(not r["problems"] for r in ops)
    units = {n: u for n, u, *_ in END_TO_END + PER_LAYER + (TRACE_OVERHEAD,)}
    print(f"workload {workload}: {m['attempted']} operations, {m['failed']} failed, "
          f"inputs {json.dumps(m['params'])}")
    shown = {}
    if m["plain"]:
        shown.update(end_to_end(m["plain"]))
    if trace and m["plain"] and m["traced"]:
        shown.update(per_layer(m["plain"], m["traced"]))
        last = m["traced"][-1]
        print(f"  {'layer':34s} {'calls':>9s} {'total ms':>11s} {'self ms':>11s}")
        for layer, s in sorted(last["layers"].items()):
            print(f"  {layer:34s} {s['calls']:9d} {s['total_ns'] / 1e6:11.3f} {s['self_ns'] / 1e6:11.3f}")
        for name in last["absent"]:
            print(f"  absent: {name} (its layer reads 0)")
    for name, value in shown.items():
        print(f"  {name:40s} {value:16.6f} {units[name]}")
    for kind in ("plain", "traced"):
        if m[kind]:
            print(f"  run_s of each {kind} operation: " + " ".join(f"{r['run_s']:.3f}" for r in m[kind]))
            print(f"    raw wall time: " + " ".join(f"{r['run_wall_s']:.3f}" for r in m[kind]))
    wanted = ([n for n, *_ in PER_LAYER] + [TRACE_OVERHEAD[0]]) if trace else [n for n, *_ in END_TO_END]
    metrics = {n: {"value": shown[n], "unit": units[n]} for n in wanted if n in shown}
    if len(metrics) != len(wanted):
        raise SystemExit(f"{workload}: no successful operation to take metrics from")
    return {"correct": correct, "attempted": m["attempted"], "failed": m["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at a tiny size, one untraced and one traced operation")
    parser.add_argument("--write-manifest", action="store_true",
                        help="write BENCHMARK.json at the checkout root and exit")
    args = parser.parse_args(argv)

    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(manifest_text())
        return 0
    if not (SRC / "vesselflow" / "__init__.py").is_file():
        print(f"no vesselflow sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    if args.smoke:
        workloads, seconds, trace, size = WORKLOADS, 0.0, True, "smoke"
    else:
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        seconds, trace, size = args.seconds, bool(args.trace), "full"
    results = []
    for workload in workloads:
        m = measure(workload, args.seed, seconds, trace, size)
        results.append(summarize(workload, m, trace))
    WORK.mkdir(exist_ok=True)
    for workload, res in zip(workloads, results):
        (WORK / f"result-{workload}-trace{int(trace)}.json").write_text(json.dumps(res) + "\n")
        print(json.dumps(res))
    if args.smoke:
        return 0 if all(r["correct"] and not r["failed"] for r in results) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
