"""Signal evaluation, config parsing/round-trip, CSV output, CLI tests."""

import json

import pytest

from vesselflow import (
    ConfigError,
    ListSink,
    ProbeRecord,
    ProbeSpec,
    SineSignal,
    TableSignal,
    eval_signal,
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
    ],
    ids=["t-end-inf", "t-end-nan", "dt-override-negative", "dt-nan", "dt-negative",
         "cfl-inf", "tol-nan", "epsilon0-inf"],
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


def test_cli_solver_failure_exit_3(tmp_path):
    # a dt so large the Courant bound is still violated after the ten
    # permitted halvings aborts the run
    doc = json.loads(json.dumps(MINIMAL))
    doc["solver"] = {"dt": 1e5, "t_end": 2e5}
    code = main(["simulate", write_json(tmp_path, doc), "--output", str(tmp_path / "o")])
    assert code == 3


def test_cli_snapshot_mode(tmp_path):
    doc = json.loads(json.dumps(MINIMAL))
    doc["output"] = {"directory": str(tmp_path / "snap")}
    code = main(["simulate", write_json(tmp_path, doc), "--snapshot", "0.0005"])
    assert code == 0
    snap = tmp_path / "snap" / "snapshot_000.csv"
    assert snap.exists()
    lines = snap.read_text().strip().split("\n")
    assert len(lines) - 1 == 9 * 5  # 9 stations x 5 quantities


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
    import numpy as np

    import vesselflow.output as output
    from vesselflow.constitutive import PrimitiveState, coefficients
    from vesselflow.solver import InitSpec, VesselInit, initial_state

    loaded = parse_config(MINIMAL)
    net, sim = loaded.net, loaded.sim
    init = InitSpec(default=VesselInit(P=lambda x: 13000.0 + 500.0 * x, Q=2e-6))
    state, _ = initial_state(net, init, sim)
    v, f = net.vessels["v1"], state.fields["v1"]
    # the per-vessel fields are views into the flat state
    assert np.shares_memory(f.P, state.P) and np.shares_memory(f.Q, state.Q)
    real, calls = output.layout_coefficients, []

    def counted(*args, **kw):
        calls.append(kw.get("points"))
        return real(*args, **kw)

    monkeypatch.setattr(output, "layout_coefficients", counted)
    snap = ListSink()
    output.emit_snapshot(snap, net, state, sim.epsilon0)
    assert len(calls) == 1 and calls[0] is None  # one evaluation over the layout
    assert len(snap.records) == 5 * (v.n_cells + 1)
    for idx, x in enumerate(v.grid):
        P, Q = float(f.P[idx]), float(f.Q[idx])
        cs = coefficients(v, x, state.t, PrimitiveState(P, Q), epsilon0=sim.epsilon0)
        expected = {"P": P, "Q": Q, "A": float(cs.A),
                    "R": float(np.sqrt(cs.A / np.pi)), "V": Q / float(cs.A)}
        got = {r.quantity: r.value for r in snap.records[5 * idx : 5 * idx + 5]}
        assert {r.x for r in snap.records[5 * idx : 5 * idx + 5]} == {x}
        assert got == expected

    calls.clear()
    probes = [ProbeSpec(quantities=("P", "Q"), vessel="v1", x_index=2),
              ProbeSpec(quantities=("V", "A", "R", "P"), vessel="v1", x_index=4),
              ProbeSpec(quantities=("Q", "A"), vessel="v1", x_index=6)]
    sink = ListSink()
    output.emit_probes(sink, net, state, probes, sim.epsilon0)
    # one evaluation, restricted to the points that ask for A, R or V
    assert len(calls) == 1 and calls[0].tolist() == [4, 6]
    assert [r.quantity for r in sink.records] == ["P", "Q", "V", "A", "R", "P", "Q", "A"]
    by_x = {}
    for r in snap.records:
        by_x.setdefault(r.x, {})[r.quantity] = r.value
    assert [(r.x, r.quantity, r.value) for r in sink.records] == [
        (r.x, r.quantity, by_x[r.x][r.quantity]) for r in sink.records
    ]
    assert [r.x for r in sink.records] == [0.25] * 2 + [0.5] * 4 + [0.75] * 2

    calls.clear()
    output.emit_probes(ListSink(), net, state, probes[:1], sim.epsilon0)
    assert calls == []  # P and Q only: no evaluation
