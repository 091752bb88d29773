"""Signal evaluation, config parsing/round-trip, CSV output, CLI tests."""

import json
import random
import re
from pathlib import Path

import pytest

from vesselflow import (
    ConfigError,
    ListSink,
    ProbeRecord,
    ProbeSpec,
    SineSignal,
    TableSignal,
    eval_signal,
    initial_state,
    write_records,
)
from vesselflow.cli import main
from vesselflow.config import dump_config, load_config, parse_config


# --- signals ---------------------------------------------------------------


def test_table_midpoint():
    sig = TableSignal(times=(0.0, 1.0), values=(1.0, 3.0))
    assert eval_signal(sig, 0.5) == 2.0


def test_table_extrapolation_holds_ends():
    sig = TableSignal(times=(0.0, 1.0), values=(1.0, 3.0))
    assert eval_signal(sig, 5.0) == 3.0
    assert eval_signal(sig, -1.0) == 1.0


def test_sine_quarter_period():
    sig = SineSignal(mean=0.0, amplitude=1.0, frequency=1.0, phase=0.0)
    assert eval_signal(sig, 0.25) == pytest.approx(1.0, rel=1e-15)


def test_table_requires_increasing_times():
    with pytest.raises(ConfigError):
        TableSignal(times=(0.0, 1.0, 0.5), values=(1.0, 2.0, 3.0))
    with pytest.raises(ConfigError):
        TableSignal(times=(0.0,), values=(1.0,))


# --- config ------------------------------------------------------------------


MINIMAL = {
    "vessels": [
        {
            "id": "v1", "n_cells": 8, "x0": "in", "x1": "out",
            "tube_law": {"kind": "power", "C": 1e4, "R0": 1e-3, "beta": 2.0},
        }
    ],
    "nodes": [
        {"id": "in", "kind": "pressure", "signal": {"kind": "constant", "value": 13000.0}},
        {"id": "out", "kind": "flow", "signal": {"kind": "constant", "value": 0.0}},
    ],
    "solver": {"dt": 1e-4, "t_end": 1e-3},
    "initial": {"default": {"P": 13000.0, "Q": 0.0}},
    "probes": [{"vessel": "v1", "x_fraction": 0.5, "quantities": ["P", "Q"]}],
}


def write_json(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_minimal_config_loads_with_defaults(tmp_path):
    loaded = load_config(write_json(tmp_path, MINIMAL))
    assert loaded.sim.cfl_max == 0.9
    assert loaded.sim.picard_tol == 1e-10
    assert loaded.sim.picard_max_iters == 50
    assert loaded.sim.epsilon0 == 1e-10
    assert loaded.sim.check_every == 1
    assert loaded.net.vessels["v1"].alpha == 1.1
    assert loaded.timeseries == "timeseries.csv"


def test_duplicate_vessel_id_rejected(tmp_path):
    doc = json.loads(json.dumps(MINIMAL))
    doc["vessels"].append(dict(doc["vessels"][0]))
    with pytest.raises(ConfigError, match="duplicate vessel id 'v1'"):
        load_config(write_json(tmp_path, doc))


def test_decreasing_table_rejected(tmp_path):
    doc = json.loads(json.dumps(MINIMAL))
    doc["nodes"][0]["signal"] = {"kind": "table", "points": [[0.0, 1.0], [1.0, 2.0], [0.5, 3.0]]}
    with pytest.raises(ConfigError, match="strictly increasing"):
        load_config(write_json(tmp_path, doc))


def test_parse_error_reports_location(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"vessels": [,]}')
    with pytest.raises(ConfigError, match="line"):
        load_config(str(path))


def test_config_round_trip(tmp_path):
    doc = json.loads(json.dumps(MINIMAL))
    doc["nodes"][0]["signal"] = {
        "kind": "sine", "mean": 1e4, "amplitude": 500.0, "frequency": 1.2, "phase": 0.1,
    }
    doc["initial"]["vessels"] = {"v1": {"P": [13000.0] * 9, "Q": 0.0}}
    loaded = parse_config(doc)
    normalized = dump_config(loaded)
    reloaded = parse_config(normalized)
    assert reloaded.net == loaded.net
    assert reloaded.sim == loaded.sim
    assert reloaded.init == loaded.init
    assert reloaded.probes == loaded.probes
    # and a second normalization is bit-identical
    assert json.dumps(dump_config(reloaded), sort_keys=True) == json.dumps(
        normalized, sort_keys=True
    )


def test_config_round_trip_tabulated_and_synthetic():
    doc = {
        "vessels": [
            {"id": "t1", "n_cells": 4, "x0": "in", "x1": "mid",
             "alpha": 1.2, "nu": 3e-6, "rho": 1060.0,
             "tube_law": {
                 "kind": "tabulated",
                 "radii": [0.5e-3, 1e-3, 1.5e-3, 2e-3],
                 "pressures": [[-7500.0, 0.0, 12500.0, 30000.0],
                               [-7000.0, 500.0, 13000.0, 31000.0]],
                 "x_stations": [0.0, 1.0],
             }},
            {"id": "s1", "n_cells": 4, "x0": "mid", "x1": "out",
             "coefficients": {"a": 2.0, "b": 0.5, "c": 0.1, "f": 0.0, "g": 0.3,
                              "area": 2.0}},
        ],
        "nodes": [
            {"id": "in", "kind": "pressure", "signal": {"kind": "constant", "value": 0.0}},
            {"id": "mid", "kind": "branching", "attachments": [
                {"vessel": "t1", "rho_j": 1e-3}, {"vessel": "s1", "rho_j": 2e-3}]},
            {"id": "out", "kind": "flow",
             "signal": {"kind": "table", "points": [[0.0, 0.0], [1.0, 1e-6]]}},
        ],
        "solver": {"dt": 1e-4, "t_end": 1e-3},
    }
    loaded = parse_config(doc)
    reloaded = parse_config(dump_config(loaded))
    assert reloaded.net == loaded.net
    assert reloaded.sim == loaded.sim


def test_branching_config_infers_ends(tmp_path):
    doc = {
        "vessels": [
            {"id": "p", "n_cells": 4, "x0": "in", "x1": "j",
             "tube_law": {"kind": "power", "C": 1e4, "R0": 1e-3, "beta": 2.0}},
            {"id": "c", "n_cells": 4, "x0": "j", "x1": "out",
             "tube_law": {"kind": "power", "C": 1e4, "R0": 1e-3, "beta": 2.0}},
        ],
        "nodes": [
            {"id": "in", "kind": "pressure", "signal": {"kind": "constant", "value": 0.0}},
            {"id": "j", "kind": "branching", "attachments": [
                {"vessel": "p", "rho_j": 1e-3}, {"vessel": "c", "rho_j": 1e-3}]},
            {"id": "out", "kind": "pressure", "signal": {"kind": "constant", "value": 0.0}},
        ],
        "solver": {"dt": 1e-4, "t_end": 1e-3},
    }
    loaded = load_config(write_json(tmp_path, doc))
    node = loaded.net.nodes["j"]
    assert {(a.vessel, a.end) for a in node.attachments} == {("p", "x1"), ("c", "x0")}


# --- probes and CSV ----------------------------------------------------------


def test_probe_requires_one_anchor():
    with pytest.raises(ConfigError):
        ProbeSpec(quantities=("P",))
    with pytest.raises(ConfigError):
        ProbeSpec(quantities=("P",), vessel="v", x_index=0, x_fraction=0.5)
    with pytest.raises(ConfigError):
        ProbeSpec(quantities=("bogus",), vessel="v", x_index=0)


def test_row_count_three_steps(tmp_path):
    # one probe, two quantities, three steps -> 6 data rows
    recs = [
        ProbeRecord(t=k * 0.1, kind="vessel", id="v", x=0.5, quantity=q, value=1.0)
        for k in range(1, 4)
        for q in ("P", "Q")
    ]
    path = tmp_path / "out.csv"
    write_records(str(path), recs)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,kind,id,x,quantity,value"
    assert len(lines) - 1 == 6


def test_list_sink_collects():
    sink = ListSink()
    rec = ProbeRecord(t=0.0, kind="node", id="n", x=None, quantity="P_C1", value=2.0)
    sink.emit(rec)
    assert sink.records == [rec]


# --- CLI ---------------------------------------------------------------------


def test_cli_simulate_minimal(tmp_path):
    doc = json.loads(json.dumps(MINIMAL))
    doc["output"] = {"directory": str(tmp_path / "out")}
    code = main(["simulate", write_json(tmp_path, doc)])
    assert code == 0
    csv_path = tmp_path / "out" / "timeseries.csv"
    assert csv_path.exists()
    lines = csv_path.read_text().strip().split("\n")
    assert len(lines) - 1 == 2 * 10  # 2 quantities x 10 steps


def test_cli_usage_error_exit_1(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    assert main(["simulate", str(path)]) == 1


def test_cli_check_only_pass(tmp_path, capsys):
    code = main(["simulate", write_json(tmp_path, MINIMAL), "--check-only"])
    out = capsys.readouterr().out
    assert code == 0
    assert "solvability check: PASS" in out


def test_cli_check_only_cond3_failure(tmp_path, capsys):
    doc = {
        "vessels": [
            {"id": "v1", "n_cells": 8, "x0": "in", "x1": "out",
             "coefficients": {"a": 1.0, "b": -0.5, "c": 1.0}},
        ],
        "nodes": [
            {"id": "in", "kind": "pressure", "signal": {"kind": "constant", "value": 0.0}},
            {"id": "out", "kind": "flow", "signal": {"kind": "constant", "value": 0.0}},
        ],
        "solver": {"dt": 1e-4, "t_end": 1e-3},
    }
    code = main(["simulate", write_json(tmp_path, doc), "--check-only"])
    out = capsys.readouterr().out
    assert code == 2
    assert "endpoint_split" in out
    assert "under-determined" in out


@pytest.mark.parametrize(
    "solver, args, message",
    [
        ({}, ["--t-end", "inf"], "config error: t_end must be finite, got inf"),
        ({}, ["--t-end", "nan"], "config error: t_end must be finite, got nan"),
        ({}, ["--dt", "-1"], "config error: dt, cfl_max must be positive"),
        ({"dt": float("nan")}, [], "config error: solver: dt must be finite, got nan"),
        ({"dt": -1}, [], "config error: solver: dt, cfl_max must be positive"),
        ({"cfl_max": float("inf")}, [], "config error: solver: cfl_max must be finite"),
        ({"picard_tol": float("nan")}, [], "config error: solver: picard_tol must be finite"),
        ({"epsilon0": float("inf")}, [], "config error: solver: epsilon0 must be finite"),
        ({}, ["--snapshot", "nan"], "invalid --snapshot list: 'nan'"),
        ({}, ["--snapshot", "inf"], "invalid --snapshot list: 'inf'"),
        ({}, ["--snapshot", "0.0005,-inf"], "invalid --snapshot list: '0.0005,-inf'"),
        ({}, ["--snapshot", "0.0005,0.0011"],
         "invalid --snapshot list: '0.0005,0.0011' (times must be finite, at least 0 and at most t_end = 0.001)"),
        ({}, ["--snapshot", "0.0005,-1"],
         "invalid --snapshot list: '0.0005,-1' (times must be finite, at least 0 and at most t_end = 0.001)"),
    ],
    ids=["t-end-inf", "t-end-nan", "dt-override-negative", "dt-nan", "dt-negative",
         "cfl-inf", "tol-nan", "epsilon0-inf", "snapshot-nan", "snapshot-inf", "snapshot-minus-inf",
         "snapshot-after-t-end", "snapshot-negative"],
)
def test_cli_rejects_invalid_solver_settings(tmp_path, capsys, solver, args, message):
    doc = json.loads(json.dumps(MINIMAL))
    doc["solver"].update(solver)
    doc["output"] = {"directory": str(tmp_path / "o")}
    path = write_json(tmp_path, doc)
    code = main(["simulate", path, *args])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(message) and err.count("\n") == 1
    assert not (tmp_path / "o").exists()
    if not args:
        with pytest.raises(ConfigError, match="^solver: "):
            load_config(path)


BIFURCATION = Path(__file__).resolve().parents[1] / "configs" / "bifurcation.json"


@pytest.mark.parametrize(
    "keys, value, message",
    [
        (("vessels", 0, "n_cells"), "abc", "vessels[0].n_cells: expected an integer, got 'abc'"),
        (("vessels", 0, "n_cells"), 2.7, "vessels[0].n_cells: expected an integer, got 2.7"),
        (("vessels", 0, "alpha"), "x", "vessels[0].alpha: expected a number, got 'x'"),
        (("vessels", 0, "tube_law", "C"), [1], "vessels[0].tube_law.C: expected a number, got [1]"),
        (("vessels", 0, "tube_law"), {"kind": "tabulated", "radii": [1e-3, 2e-3], "pressures": [[0.0, "x"]]},
         "vessels[0].tube_law: could not convert string to float: 'x'"),
        (("nodes", 1, "attachments", 0, "rho_j"), None,
         "nodes[1].attachments[0].rho_j: expected a number, got None"),
        (("nodes", 2, "signal", "value"), "x", "nodes[2].signal.value: expected a number, got 'x'"),
        (("probes", 1, "x_index"), "q", "probes[1].x_index: expected an integer, got 'q'"),
        (("initial",), "x", "config.initial: expected <class 'dict'>, got str"),
        (("output",), "x", "config.output: expected <class 'dict'>, got str"),
        (("output", "timeseries"), [], "output.timeseries: expected <class 'str'>, got list"),
        (("output", "directory"), None, "output.directory: expected <class 'str'>, got NoneType"),
    ],
    ids=["n_cells-string", "n_cells-fraction", "alpha-string", "tube-law-C-list", "table-string", "rho_j-null",
         "signal-value-string", "probe-x_index-string", "initial-string", "output-string",
         "timeseries-list", "directory-null"],
)
def test_cli_rejects_malformed_config_values(tmp_path, capsys, keys, value, message):
    assert_config_error(tmp_path, capsys, keys, value, message)


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "keys",
    [
        ("vessels", 0, "nu"),
        ("nodes", 1, "attachments", 0, "rho_j"),
        ("nodes", 3, "P_C1"),
        ("nodes", 0, "signal", "mean"),
        ("nodes", 3, "R_C"),
    ],
    ids=["nu", "rho_j", "P_C1", "signal-mean", "R_C"],
)
def test_cli_rejects_non_finite_config_values(tmp_path, capsys, keys, value):
    path = keys[0] + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys[1:])
    assert_config_error(tmp_path, capsys, keys, value, f"{path}: expected a finite number, got {value!r}")


def assert_config_error(tmp_path, capsys, keys, value, message):
    """The shipped bifurcation config with one field replaced is a
    config error with this message, from load_config and the CLI."""
    doc = json.loads(BIFURCATION.read_text())
    target = doc
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    path = write_json(tmp_path, doc)
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        load_config(path)
    for extra in ([], ["--check-only"]):
        code = main(["simulate", path, "--output", str(tmp_path / "o"), *extra])
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"config error: {message}\n"
        assert not (tmp_path / "o").exists()


def test_cli_solver_failure_exit_3(tmp_path):
    # a dt so large the Courant bound is still violated after the ten
    # permitted halvings aborts the run
    doc = json.loads(json.dumps(MINIMAL))
    doc["solver"] = {"dt": 1e5, "t_end": 2e5}
    code = main(["simulate", write_json(tmp_path, doc), "--output", str(tmp_path / "o")])
    assert code == 3


def test_cli_overflowing_speeds_are_a_solver_failure(tmp_path, capsys):
    # alpha = 1e300 makes c^2 overflow once the flow is nonzero: the run
    # must end as a classified solver failure, not an unexpected error
    doc = json.loads(BIFURCATION.read_text())
    doc["vessels"][1]["alpha"] = 1e300
    code = main(["simulate", write_json(tmp_path, doc), "--t-end", "0.01", "--output", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("solver failure: ") and err.count("\n") == 1
    assert "unexpected error" not in err


@pytest.mark.parametrize("index, vessel", [(1, "branch_a"), (3, "vein")])
def test_cli_overflowing_speeds_name_the_vessel(tmp_path, capsys, index, vessel):
    # branch_a is the first vessel of the layout and the vein the last
    doc = json.loads(BIFURCATION.read_text())
    doc["vessels"][index]["alpha"] = 1e300
    code = main(["simulate", write_json(tmp_path, doc), "--t-end", "0.01", "--output", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith(f"solver failure: vessel {vessel!r}: c^2 + a*b must be positive")


def test_cli_snapshot_mode(tmp_path):
    doc = json.loads(json.dumps(MINIMAL))
    doc["output"] = {"directory": str(tmp_path / "snap")}
    code = main(["simulate", write_json(tmp_path, doc), "--snapshot", "0.0005"])
    assert code == 0
    snap = tmp_path / "snap" / "snapshot_000.csv"
    assert snap.exists()
    lines = snap.read_text().strip().split("\n")
    assert len(lines) - 1 == 9 * 5  # 9 stations x 5 quantities


def test_cli_writes_a_snapshot_at_t_end(tmp_path):
    doc = json.loads(json.dumps(MINIMAL))
    doc["output"] = {"directory": str(tmp_path / "o")}
    assert main(["simulate", write_json(tmp_path, doc), "--snapshot", "0.001"]) == 0
    assert (tmp_path / "o" / "snapshot_000.csv").exists()


def test_cli_writes_the_initial_state_as_a_snapshot_at_t_0(tmp_path, capsys):
    out = tmp_path / "o"
    code = main(["simulate", str(BIFURCATION), "--t-end", "0.003", "--snapshot", "0", "--output", str(out)])
    assert code == 0
    assert f"snapshot at t=0.0 -> {out / 'snapshot_000.csv'}" in capsys.readouterr().out
    rows = [line.split(",") for line in (out / "snapshot_000.csv").read_text().splitlines()[1:]]
    assert {row[0] for row in rows} == {"0.0"}
    loaded = load_config(str(BIFURCATION))
    state0, _ = initial_state(loaded.net, loaded.init, loaded.sim)
    for vid, field in state0.fields.items():
        for name in ("P", "Q"):
            got = [float(row[5]) for row in rows if row[2] == vid and row[4] == name]
            assert got == getattr(field, name).tolist()


def test_cli_reports_an_output_directory_that_cannot_be_made(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code = main(["simulate", write_json(tmp_path, MINIMAL), "--output", str(blocker / "o")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("output error: ") and "Not a directory" in err and err.count("\n") == 1


def test_cli_overrides(tmp_path):
    doc = json.loads(json.dumps(MINIMAL))
    doc["output"] = {"directory": str(tmp_path / "ovr")}
    code = main(["simulate", write_json(tmp_path, doc), "--t-end", "5e-4"])
    assert code == 0
    csv_path = tmp_path / "ovr" / "timeseries.csv"
    lines = csv_path.read_text().strip().split("\n")
    assert len(lines) - 1 == 2 * 5


def test_cli_unexpected_error_exit_3_one_line(tmp_path, capsys, monkeypatch):
    import vesselflow.cli as cli

    def broken(*args, **kwargs):
        raise RuntimeError("kernel\nexploded")

    monkeypatch.setattr(cli, "run", broken)
    doc = json.loads(json.dumps(MINIMAL))
    doc["output"] = {"directory": str(tmp_path / "o")}
    code = main(["simulate", write_json(tmp_path, doc)])
    err = capsys.readouterr().err
    assert code == 3
    assert err == "unexpected error: RuntimeError: kernel exploded\n"


def test_cli_runs_a_tabulated_vessel(tmp_path):
    radii = [1.2e-3 + k * 2.4e-5 for k in range(26)]  # P from 4.4 to 22.4 kPa
    doc = json.loads(json.dumps(MINIMAL))
    doc["vessels"][0]["tube_law"] = {
        "kind": "tabulated",
        "radii": radii,
        "pressures": [[1e4 * ((r / 1e-3) ** 2 - 1.0) for r in radii]],
    }
    doc["output"] = {"directory": str(tmp_path / "tab")}
    assert main(["simulate", write_json(tmp_path, doc), "--t-end", "5e-4"]) == 0
    lines = (tmp_path / "tab" / "timeseries.csv").read_text().strip().split("\n")
    assert len(lines) - 1 == 2 * 5


def test_import_leaves_scipy_interpolate_unloaded():
    # only tabulated tube laws need scipy.interpolate; it is imported
    # when the first one is built
    import os
    import subprocess
    import sys

    import vesselflow

    src = os.path.dirname(os.path.dirname(os.path.abspath(vesselflow.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, vesselflow, vesselflow.cli; "
        "assert 'scipy.interpolate' not in sys.modules, 'loaded at import'; "
        "vesselflow.TabulatedLaw(radii=[1.0, 2.0], pressures=[[0.0, 1.0]]); "
        "assert 'scipy.interpolate' in sys.modules"
    )
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_output_evaluates_coefficients_once_per_call(monkeypatch):
    import dataclasses

    import numpy as np

    import vesselflow.output as output
    import vesselflow.solver as solver
    from vesselflow.constitutive import PrimitiveState, coefficients
    from vesselflow.solver import InitSpec, VesselInit, initial_state

    loaded = parse_config(MINIMAL)
    net, sim = loaded.net, loaded.sim
    init = InitSpec(default=VesselInit(P=lambda x: 13000.0 + 500.0 * x, Q=2e-6))
    state, _ = initial_state(net, init, sim)
    v, f = net.vessels["v1"], state.fields["v1"]
    # the per-vessel fields are views into the flat state
    assert np.shares_memory(f.P, state.P) and np.shares_memory(f.Q, state.Q)
    real, calls = solver.layout_coefficients, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(solver, "layout_coefficients", counted)
    # the same level without its cached coefficients
    state = dataclasses.replace(state)
    snap = ListSink()
    output.emit_snapshot(snap, net, state, sim.epsilon0)
    assert len(calls) == 1  # one evaluation over the layout
    assert len(snap.records) == 5 * (v.n_cells + 1)
    for idx, x in enumerate(v.grid):
        P, Q = float(f.P[idx]), float(f.Q[idx])
        cs = coefficients(v, x, state.t, PrimitiveState(P, Q), epsilon0=sim.epsilon0)
        expected = {"P": P, "Q": Q, "A": float(cs.A),
                    "R": float(np.sqrt(cs.A / np.pi)), "V": Q / float(cs.A)}
        got = {r.quantity: r.value for r in snap.records[5 * idx : 5 * idx + 5]}
        assert {r.x for r in snap.records[5 * idx : 5 * idx + 5]} == {x}
        assert got == expected

    probes = [ProbeSpec(quantities=("P", "Q"), vessel="v1", x_index=2),
              ProbeSpec(quantities=("V", "A", "R", "P"), vessel="v1", x_index=4),
              ProbeSpec(quantities=("Q", "A"), vessel="v1", x_index=6)]
    sink = ListSink()
    output.emit_probes(sink, net, state, probes, sim.epsilon0)
    assert len(calls) == 1  # the probes read the level's evaluation
    assert [r.quantity for r in sink.records] == ["P", "Q", "V", "A", "R", "P", "Q", "A"]
    by_x = {}
    for r in snap.records:
        by_x.setdefault(r.x, {})[r.quantity] = r.value
    assert [(r.x, r.quantity, r.value) for r in sink.records] == [
        (r.x, r.quantity, by_x[r.x][r.quantity]) for r in sink.records
    ]
    assert [r.x for r in sink.records] == [0.25] * 2 + [0.5] * 4 + [0.75] * 2

    output.emit_probes(ListSink(), net, state, probes[:1], sim.epsilon0)
    assert len(calls) == 1


# --- mutation corpus -------------------------------------------------------

CORPUS_VALUES = (0, -1, 1e300, -1e300, 1e-300, 0.5, "x", None, [], {}, True)
DELETED = object()
CLASSIFIED_EXIT_3 = (
    "solver failure: ", "initial state error: ", "output error: ",
    "aborting: initial state violates node compatibility",
)


def corpus_cases(doc):
    """Every value of a JSON document, container or leaf, replaced by
    each of CORPUS_VALUES or deleted, as (path, value) pairs."""
    cases = []

    def walk(node, path):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            cases.extend((path + (key,), value) for value in CORPUS_VALUES + (DELETED,))
            if isinstance(child, (dict, list)):
                walk(child, path + (key,))

    walk(doc, ())
    return cases


def mutated(doc, path, value):
    doc = json.loads(json.dumps(doc))
    *head, last = path
    parent = doc
    for key in head:
        parent = parent[key]
    if value is DELETED:
        del parent[last]
    else:
        parent[last] = value
    return doc


def test_cli_classifies_a_seeded_mutation_corpus(tmp_path, capsys):
    # 60 fixed-seed mutations of the shipped bifurcation, each run for two
    # steps of its own dt: every one ends with a documented exit code and,
    # for exit 3, a classified last line, never an unexpected error.
    doc = json.loads(BIFURCATION.read_text())
    cases = corpus_cases(doc)
    assert len(cases) > 1000
    codes = []
    for k, (path, value) in enumerate(random.Random(20261018).sample(cases, 60)):
        config = write_json(tmp_path, mutated(doc, path, value))
        argv = ["simulate", config, "--output", str(tmp_path / f"out{k}")]
        try:
            argv += ["--t-end", repr(2 * load_config(config).sim.dt)]
        except ConfigError:
            pass
        code = main(argv)
        err = capsys.readouterr().err
        case = f"{path} -> {value if value is not DELETED else 'deleted'}: {err!r}"
        assert code in (0, 1, 2, 3), case
        assert "unexpected error" not in err and "Traceback" not in err, case
        if code == 3:
            assert err.splitlines()[-1].startswith(CLASSIFIED_EXIT_3), case
        codes.append(code)
    assert {0, 1, 3} <= set(codes)


@pytest.mark.parametrize("path, value, code, last", [
    (("vessels", 0, "nu"), 1e300, 3, "solver failure: "),
    (("vessels", 0, "tube_law", "C"), 1e300, 3, "solver failure: "),
    (("vessels", 0, "tube_law", "R0"), 1e300, 3, "initial state error: "),
    (("vessels", 0, "tube_law", "beta"), 1e300, 2, "solvability failure: "),
    (("vessels", 0, "tube_law", "beta"), 1e-300, 3, "initial state error: "),
    (("initial", "default", "P"), 1e300, 3, "aborting: initial state violates node compatibility"),
    (("initial", "default", "Q"), 1e300, 3, "aborting: initial state violates node compatibility"),
    (("initial", "default", "Q"), -1e300, 3, "aborting: initial state violates node compatibility"),
], ids=["nu", "C", "R0", "beta", "beta-tiny", "P", "Q", "Q-negative"])
def test_cli_overflowing_inputs_end_classified_without_warnings(tmp_path, capsys, path, value, code, last):
    # numpy overflows on these inputs; under the error filter for
    # RuntimeWarning a warning escaping its source would end the run as
    # an unexpected error instead of the classified failure
    doc = json.loads(BIFURCATION.read_text())
    config = write_json(tmp_path, mutated(doc, path, value))
    argv = ["simulate", config, "--output", str(tmp_path / "o"), "--t-end", "0.002"]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith(last)
    assert "RuntimeWarning" not in err and "unexpected error" not in err
