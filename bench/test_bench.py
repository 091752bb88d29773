"""Self-tests of the benchmark: each correctness check passes on real
output at smoke size and fails on a corrupted copy of it; the tracer
charges time to layers and reports missing names; the smoke mode runs
every workload; BENCHMARK.json matches the benchmark's own tables."""

import copy
import csv
import json
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run as bench_run  # noqa: E402
import workloads  # noqa: E402
import hostspeed  # noqa: E402
from tracer import CHECK, Tracer  # noqa: E402


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def _simulate(doc, path):
    """load_config -> initial_state -> run, as the worker drives them."""
    from vesselflow import initial_state, run
    from vesselflow.config import load_config

    workloads.write_json(str(path), doc)
    lc = load_config(str(path))
    state, _ = initial_state(lc.net, lc.init, lc.sim)
    final = run(lc.net, state, lc.sim).final_state
    return {vid: (f.P.copy(), f.Q.copy()) for vid, f in final.fields.items()}


@pytest.fixture(scope="module")
def bifurcation(tmp_path_factory):
    from vesselflow.cli import main

    work = tmp_path_factory.mktemp("bifurcation")
    with open(ROOT / "configs" / "bifurcation.json") as fh:
        doc = workloads.bifurcation_doc(json.load(fh), workloads.draw(7))
    doc["solver"]["t_end"] = workloads.BIFURCATION_SMOKE_T_END
    workloads.write_json(str(work / "b.json"), doc)
    code = main(["simulate", str(work / "b.json"), "--output", str(work),
                 "--snapshot", repr(doc["solver"]["t_end"])])
    series = _rows(work / doc["output"]["timeseries"])
    steps = len({r[0] for r in series})
    return doc, code, steps, series, _rows(work / "snapshot_000.csv")


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    work = tmp_path_factory.mktemp("tree")
    doc, layout = workloads.tree_doc(workloads.draw(7), "smoke", str(work))
    return layout, _simulate(doc, work / "tree.json")


@pytest.fixture(scope="module")
def refinement(tmp_path_factory):
    work = tmp_path_factory.mktemp("pulse")
    docs = workloads.pulse_docs(workloads.draw(7), "smoke", str(work))
    return [_simulate(d, work / f"p{k}.json")["v"] for k, d in enumerate(docs)]


def test_checks_pass_on_real_output(bifurcation, tree, refinement):
    assert checks.check_bifurcation(*bifurcation) == []
    assert checks.check_tree(*tree) == []
    assert checks.check_refinement(refinement) == []


def test_wrong_csv_row_count_fails(bifurcation):
    doc, code, steps, series, snapshot = bifurcation
    assert checks.check_bifurcation(doc, code, steps, series[:-1], snapshot)
    assert checks.check_bifurcation(doc, code, steps + 1, series, snapshot)


def test_flow_imbalance_at_one_junction_fails(bifurcation, tree):
    layout, fields = tree
    j = layout["junctions"][-1]
    broken = dict(fields)
    P, Q = fields[j["children"][0]]
    Q = Q.copy()
    Q[0] *= 1.0 + 1e-7
    broken[j["children"][0]] = (P, Q)
    problems = checks.check_tree(layout, broken)
    assert any(p.startswith(j["node"] + ":") for p in problems)

    doc, code, steps, series, snapshot = bifurcation
    snap = copy.deepcopy(snapshot)
    row = next(r for r in snap if r[2] == "branch_a" and float(r[3]) == 0.0 and r[4] == "Q")
    row[5] = repr(float(row[5]) * (1.0 + 1e-7))
    assert any("fork" in p for p in checks.check_bifurcation(doc, code, steps, series, snap))


def test_broken_sibling_symmetry_fails(tree):
    layout, fields = tree
    a, b = layout["siblings"][0]
    broken = dict(fields)
    P, Q = fields[a]
    P = P.copy()
    P[len(P) // 2] *= 1.0 + 1e-8
    broken[a] = (P, Q)
    assert any("siblings" in p for p in checks.check_tree(layout, broken))


def test_degraded_convergence_order_fails(refinement):
    coarse, mid, fine = refinement
    # an error on the finest grid as large as the coarse grid's
    e1 = float(np.max(np.abs(mid[0][::2] - coarse[0])))
    degraded = (fine[0] + e1, fine[1])
    assert checks.convergence_orders([coarse, mid, fine])["P"] >= checks.MIN_ORDER
    assert any("order in P" in p for p in checks.check_refinement([coarse, mid, degraded]))


def test_tracer_self_time_charging_and_absent_names(monkeypatch):
    fake = types.ModuleType("fake_solver")
    fake.leaf = lambda: sum(range(1000))
    fake.check = lambda: fake.leaf()
    fake.step = lambda: (fake.leaf(), fake.check())
    monkeypatch.setitem(sys.modules, "fake_solver", fake)
    tracer = Tracer()
    tracer.install((
        ("fake_solver", "step", "solver.picard_step"),
        ("fake_solver", "check", CHECK),
        ("fake_solver", "leaf", "constitutive.coefficients"),
        ("fake_solver", "gone", "junctions.solve"),
        ("no_such_module", "anything", "junctions.solve"),
    ))
    fake.step()
    layers = tracer.layers()
    assert tracer.absent == ["fake_solver.gone", "no_such_module.anything"]
    # the leaf under check is charged to the check layer
    assert layers["constitutive.coefficients"]["calls"] == 1
    assert layers[CHECK]["calls"] == 1
    step = layers["solver.picard_step"]
    assert step["self_ns"] == step["total_ns"] - layers[CHECK]["total_ns"] - (
        layers["constitutive.coefficients"]["total_ns"])


def test_seed_zero_reproduces_the_shipped_config():
    with open(ROOT / "configs" / "bifurcation.json") as fh:
        shipped = json.load(fh)
    assert workloads.bifurcation_doc(shipped, workloads.draw(0)) == shipped
    for seed in range(1, 50):
        params = workloads.draw(seed)
        assert params == workloads.draw(seed)
        for name, (lo, hi) in workloads.RANGES.items():
            assert lo <= params[name] <= hi


def test_host_speed_scale():
    ref = hostspeed.REFERENCE_S
    assert hostspeed.scale(ref, ref) == pytest.approx(1.0)
    slow = {n: 2.0 * t for n, t in ref.items()}
    assert hostspeed.scale(slow, slow) == pytest.approx(0.5)
    # one end of a stretch at reference speed, the other twice as slow
    assert hostspeed.scale(ref, slow) == pytest.approx(2.0 / 3.0)
    # the pure-Python kernels alone, as before the timed import
    pure = {k.__name__ for k in hostspeed.PURE}
    assert hostspeed.scale({n: ref[n] for n in pure}, slow) == pytest.approx(2.0 / 3.0)
    assert set(hostspeed.calibrate()) == set(ref)


def test_manifest_is_current():
    assert (ROOT / "BENCHMARK.json").read_text() == bench_run.manifest_text()


def test_smoke_mode_runs_every_workload():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert len(results) == len(workloads.WORKLOADS)
    for res in results:
        assert res["correct"] and res["failed"] == 0 and res["attempted"] == 2
        assert set(res["metrics"]) == {m["name"] for m in bench_run.manifest()["per_layer"]}
