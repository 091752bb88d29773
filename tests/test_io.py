"""Signal evaluation, config parsing/round-trip, CSV output, CLI tests."""

import csv
import dataclasses
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vesselflow import (
    ConfigError,
    InitSpec,
    ListSink,
    PowerLaw,
    ProbeRecord,
    ProbeSpec,
    SimConfig,
    SineSignal,
    SyntheticCoefficients,
    TableSignal,
    Vessel,
    VesselInit,
    eval_signal,
    initial_state,
    write_records,
)
from vesselflow.cli import main
from vesselflow.config import LoadedConfig, dump_config, load_config, parse_config
from vesselflow.output import CSV_HEADER, CsvSink


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


def test_every_optional_field_takes_its_class_default_and_dumps_in_order():
    power = {"kind": "power", "C": 1e4, "R0": 1e-3, "beta": 2.0}
    constant = {"kind": "constant", "value": 0.0}
    doc = {
        "vessels": [
            {"id": "a", "n_cells": 4, "x0": "in", "x1": "micro", "tube_law": power},
            {"id": "v", "n_cells": 4, "x0": "micro", "x1": "out", "tube_law": power},
            {"id": "s", "n_cells": 4, "x0": "left", "x1": "right", "coefficients": {}},
        ],
        "nodes": [
            {"id": "in", "kind": "pressure",
             "signal": {"kind": "sine", "mean": 0.0, "amplitude": 1.0, "frequency": 1.0}},
            {"id": "micro", "kind": "transitional", "arteries": [{"vessel": "a", "resistance": 1e7}],
             "veins": [{"vessel": "v", "resistance": 1e7}], "R_C": 4e7, "C1": 2e-10, "C2": 2e-10},
            {"id": "out", "kind": "flow", "signal": constant},
            {"id": "left", "kind": "pressure", "signal": constant},
            {"id": "right", "kind": "pressure", "signal": constant},
        ],
        "solver": {"dt": 1e-3, "t_end": 1e-2},
    }
    loaded = parse_config(doc)
    net = loaded.net
    assert net.vessels["a"] == Vessel("a", 4, "in", "micro", tube_law=PowerLaw(1e4, 1e-3, 2.0))
    assert net.vessels["s"].synthetic == SyntheticCoefficients()
    assert net.nodes["in"].signal == SineSignal(mean=0.0, amplitude=1.0, frequency=1.0)
    assert net.nodes["micro"].P_C1_init is None and net.nodes["micro"].P_C2_init is None
    assert loaded.sim == SimConfig(dt=1e-3, t_end=1e-2)
    assert loaded.init == InitSpec(default=VesselInit())
    assert loaded.probes == []
    assert (loaded.output_dir, loaded.timeseries) == (LoadedConfig.output_dir, LoadedConfig.timeseries)

    net.nodes["micro"] = dataclasses.replace(net.nodes["micro"], P_C1_init=1.0, P_C2_init=2.0)
    dumped = dump_config(loaded)
    assert list(dumped) == ["vessels", "nodes", "solver", "initial", "probes", "output"]
    a, s, _ = dumped["vessels"]
    assert list(a) == ["id", "n_cells", "x0", "x1", "alpha", "nu", "rho", "tube_law"]
    assert list(a["tube_law"]) == ["kind", "C", "R0", "beta"]
    assert list(s) == ["id", "n_cells", "x0", "x1", "coefficients"]
    assert list(s["coefficients"]) == ["a", "b", "c", "f", "g", "area"]
    assert [list(n) for n in dumped["nodes"]] == [
        ["id", "kind", "signal"],
        ["id", "kind", "signal"],
        ["id", "kind", "arteries", "veins", "R_C", "C1", "C2", "P_C1", "P_C2"],
        ["id", "kind", "signal"],
        ["id", "kind", "signal"],
    ]
    assert [list(n["signal"]) for n in dumped["nodes"] if "signal" in n] == [
        ["kind", "mean", "amplitude", "frequency", "phase"]] + [["kind", "value"]] * 3
    assert list(dumped["solver"]) == [
        "dt", "t_end", "cfl_max", "picard_tol", "picard_max_iters", "epsilon0", "check_every"]
    assert list(dumped["initial"]) == ["default"] and list(dumped["initial"]["default"]) == ["P", "Q"]
    assert list(dumped["output"]) == ["directory", "timeseries"]
    reloaded = parse_config(dumped)
    assert (reloaded.net, reloaded.sim, reloaded.init) == (net, loaded.sim, loaded.init)


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


# text with the characters that make csv quote a field, and any other
# character a UTF-8 file can hold
_TEXT = st.text(st.sampled_from(',"\r\n \t') | st.characters(codec="utf-8"), max_size=6)
_FLOATS = st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.5e-310]) | st.floats()


@st.composite
def levels_of_records(draw):
    """1-4 levels over a fixed set of keys, each (t, keys, values): a
    level's keys are a subset of the set in any order, or the previous
    level's keys object itself, as a run's plan passes them."""
    keyset = draw(st.lists(st.tuples(_TEXT, _TEXT, st.none() | _FLOATS, _TEXT), min_size=1, max_size=5))
    levels, keys = [], None
    for t in draw(st.lists(_FLOATS, min_size=1, max_size=4)):
        if keys is None or not draw(st.booleans()):
            keys = tuple(key for key in draw(st.permutations(keyset)) if draw(st.booleans()))
        levels.append((t, keys, [draw(_FLOATS) for _ in keys]))
    return levels


_KEYS = tuple(("vessel", "v", x, "P") for x in (0.0, -0.0, math.nan, None))


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(levels_of_records())
@example([(t, _KEYS, [1.0] * 4) for t in (0.5, 1.0)])  # 0.0, -0.0 and NaN as x of one kind, id and quantity
def test_csv_sink_writes_the_rows_of_csv_writer(levels):
    # the sink joins parts formatted once per keys object and once per
    # level; the bytes stay those of csv.writer over each record's
    # columns, whether it takes whole levels or single records
    records = [ProbeRecord(t, *key, value) for t, keys, values in levels for key, value in zip(keys, values)]
    with tempfile.TemporaryDirectory() as d:
        by_level, by_record, ref = Path(d) / "levels.csv", Path(d) / "records.csv", Path(d) / "ref.csv"
        with CsvSink(str(by_level)) as sink:
            for level in levels:
                sink.emit_level(*level)
        write_records(str(by_record), records)
        with open(ref, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER)
            for rec in records:
                writer.writerow((repr(float(rec.t)), rec.kind, rec.id,
                                 "" if rec.x is None else repr(float(rec.x)),
                                 rec.quantity, repr(float(rec.value))))
        assert by_level.read_bytes() == by_record.read_bytes() == ref.read_bytes()


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
SYNTHETIC = Path(__file__).resolve().parents[1] / "configs" / "synthetic.json"
BIG = 10**400  # an integer literal beyond the float range
OUT_OF_RANGE = "expected a number in the float range, got an integer of 401 digits"


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
        (("vessels", 0, "tube_law", "C"), BIG, f"vessels[0].tube_law.C: {OUT_OF_RANGE}"),
        (("solver", "dt"), BIG, f"solver.dt: {OUT_OF_RANGE}"),
        (("vessels", 0, "n_cells"), -BIG, f"vessels[0].n_cells: {OUT_OF_RANGE}"),
        (("nodes", 0, "signal"), {"kind": "table", "points": [[0.0, 1.0], [BIG, 2.0]]},
         f"nodes[0].signal.points[1]: {OUT_OF_RANGE}"),
        (("initial", "default", "P"), [12000.0, BIG], f"initial.default.P[1]: {OUT_OF_RANGE}"),
        (("vessels", 0, "tube_law"), {"kind": "tabulated", "radii": [1e-3, BIG], "pressures": [[0.0, 1.0]]},
         "vessels[0].tube_law: int too large to convert to float"),
    ],
    ids=["n_cells-string", "n_cells-fraction", "alpha-string", "tube-law-C-list", "table-string", "rho_j-null",
         "signal-value-string", "probe-x_index-string", "initial-string", "output-string",
         "timeseries-list", "directory-null", "tube-law-C-huge", "dt-huge", "n_cells-huge",
         "table-time-huge", "initial-P-entry-huge", "tabulated-radius-huge"],
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


@pytest.mark.parametrize("keys, field", [(("vessels", 0, "n_cells"), "vessels[0].n_cells"),
                                         (("vessels", 0, "x0"), "vessels[0].x0"),
                                         (("initial", "default", "Q"), "initial.default.Q")],
                         ids=["n_cells", "x0", "initial-Q"])
def test_cli_rejects_an_integer_literal_over_the_int_string_limit(tmp_path, capsys, keys, field):
    # Python's json cannot read an integer literal of more than 4300
    # digits; the field path still comes with the error
    doc = mutated(json.loads(BIFURCATION.read_text()), keys, "<long literal>")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc).replace('"<long literal>"', "-" + "7" * 5001))
    message = f"{field}: expected a number in the float range, got an integer of 5001 digits"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        load_config(path)
    assert main(["simulate", str(path), "--check-only"]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_cli_rejects_a_config_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_bytes(b'{"vessels": "\xff"}')
    assert main(["simulate", str(path), "--check-only"]) == 1
    assert capsys.readouterr().err.startswith("config error: ")


@pytest.mark.parametrize("before", ["", '"n": 1' + "0" * 5000 + ", "], ids=["nested", "long-literal-first"])
def test_cli_rejects_a_config_nested_past_the_recursion_limit(tmp_path, capsys, before):
    # 100000 deep; an integer literal over the int-string limit is read
    # first, and the second read, which keeps it, meets the nesting
    path = tmp_path / "config.json"
    path.write_text("{" + before + '"vessels": ' + "[" * 100000 + "]" * 100000 + "}")
    with pytest.raises(ConfigError, match="^config parse error: maximum recursion depth exceeded"):
        load_config(path)
    assert main(["simulate", str(path), "--check-only"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: config parse error: ") and "unexpected error" not in err


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


MICRO_SWAPPED = {  # the bifurcation's transitional node with arteries and veins swapped
    "id": "micro", "kind": "transitional",
    "arteries": [{"vessel": "vein", "resistance": 2e7}], "veins": [{"vessel": "branch_b", "resistance": 2e7}],
    "R_C": 4e7, "C1": 2e-10, "C2": 2e-10,
}


@pytest.mark.parametrize(
    "keys, value, message",
    [
        (("probes", 2, "node"), "micro", "P_junc probe needs a branching node, got 'micro'"),
        (("probes", 3), {"node": "fork", "quantities": ["Q_C"]}, "Q_C probe needs a transitional node, got 'fork'"),
    ],
    ids=["P_junc-on-transitional", "Q_C-on-branching"],
)
def test_node_probes_need_their_node_kind(tmp_path, capsys, keys, value, message):
    assert_config_error(tmp_path, capsys, keys, value, message)


def test_transitional_arteries_must_attach_at_x1(tmp_path, capsys):
    message = "nodes[3].arteries[0]: vessel 'vein' must attach at x=1"
    assert_config_error(tmp_path, capsys, ("nodes", 3), MICRO_SWAPPED, message)


@pytest.mark.parametrize(
    "law, message",
    [
        ({"radii": [1e-3], "pressures": [[0.0]]}, "tabulated law needs >= 2 radius samples"),
        ({"radii": [2e-3, 1e-3], "pressures": [[0.0, 1.0]]}, "tabulated law radii must be strictly increasing"),
        ({"radii": [1e-3, 2e-3], "pressures": [[0.0, 1.0, 2.0]]},
         "tabulated law pressures must be (n_stations, n_radii)"),
        ({"radii": [1e-3, 2e-3], "pressures": [[0.0, 1.0], [0.0, 2.0]], "x_stations": [0.5, 0.2]},
         "tabulated law stations must be strictly increasing"),
    ],
    ids=["one-radius", "radii-decreasing", "pressures-shape", "stations-decreasing"],
)
def test_rejected_tabulated_laws_name_the_vessel(tmp_path, capsys, law, message):
    law = {"kind": "tabulated", **law}
    assert_config_error(tmp_path, capsys, ("vessels", 0, "tube_law"), law, f"vessels[0].tube_law: {message}")


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


def test_cli_writes_a_snapshot_at_a_t_end_the_summed_steps_fall_short_of(tmp_path, capsys):
    # 930 steps of 0.1 sum to 92.99999999999899: short of t_end = 93 by
    # less than run's end tolerance, but by more than 1e-12, so the last
    # level reaches t_end and must take the snapshot requested there
    doc = json.loads(SYNTHETIC.read_text())
    doc["vessels"][0]["n_cells"] = 4
    doc["solver"].update(dt=0.1, t_end=93.0)
    out = tmp_path / "o"
    code = main(["simulate", write_json(tmp_path, doc), "--snapshot", "93", "--output", str(out)])
    printed = capsys.readouterr().out
    assert code == 0
    assert "done: 930 steps to t=92.99999999999899" in printed
    assert f"snapshot at t=92.99999999999899 -> {out / 'snapshot_000.csv'}" in printed
    assert (out / "snapshot_000.csv").exists()


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
    # one row per vessel quantity at each station: vessels in id order,
    # then stations, then P, Q, A, R, V
    assert len(state0.fields) > 1
    expected = []
    for vid, field in state0.fields.items():
        A = state0.coeffs.A[state0.layout.slices[vid]]
        for x, P, Q, a in zip(loaded.net.vessels[vid].grid, field.P, field.Q, A):
            R, V = np.sqrt(a / np.pi), Q / a
            expected += [("vessel", vid, x, name, value) for name, value in zip("PQARV", (P, Q, a, R, V))]
    got = [(row[1], row[2], float(row[3]), row[4], float(row[5])) for row in rows]
    assert got == expected


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


@pytest.mark.parametrize("step", ["initial_state", "run"])
def test_cli_out_of_memory_is_a_solver_failure(tmp_path, capsys, monkeypatch, step):
    import vesselflow.cli as cli

    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 305. MiB\nfor an array")

    monkeypatch.setattr(cli, step, exhausted)
    doc = json.loads(json.dumps(MINIMAL))
    doc["output"] = {"directory": str(tmp_path / "o")}
    code = main(["simulate", write_json(tmp_path, doc)])
    err = capsys.readouterr().err
    assert code == 3
    assert err == "solver failure: out of memory (Unable to allocate 305. MiB for an array)\n"


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
    output.emit_snapshot(snap, state, sim.epsilon0)
    assert len(calls) == 1  # one evaluation over the layout
    assert len(snap.records) == 5 * (v.n_cells + 1)
    for idx, x in enumerate(v.grid):
        P, Q = float(f.P[idx]), float(f.Q[idx])
        cs = coefficients(v, x, state.t, PrimitiveState(P, Q))
        expected = {"P": P, "Q": Q, "A": float(cs.A),
                    "R": float(np.sqrt(cs.A / np.pi)), "V": Q / float(cs.A)}
        got = {r.quantity: r.value for r in snap.records[5 * idx : 5 * idx + 5]}
        assert {r.x for r in snap.records[5 * idx : 5 * idx + 5]} == {x}
        assert got == expected

    probes = [ProbeSpec(quantities=("P", "Q"), vessel="v1", x_index=2),
              ProbeSpec(quantities=("V", "A", "R", "P"), vessel="v1", x_index=4),
              ProbeSpec(quantities=("Q", "A"), vessel="v1", x_index=6)]
    sink = ListSink()
    output.emit_probes(sink, output.probe_plan(state.layout, probes), state)
    assert len(calls) == 1  # the probes read the level's evaluation
    assert [r.quantity for r in sink.records] == ["P", "Q", "V", "A", "R", "P", "Q", "A"]
    by_x = {}
    for r in snap.records:
        by_x.setdefault(r.x, {})[r.quantity] = r.value
    assert [(r.x, r.quantity, r.value) for r in sink.records] == [
        (r.x, r.quantity, by_x[r.x][r.quantity]) for r in sink.records
    ]
    assert [r.x for r in sink.records] == [0.25] * 2 + [0.5] * 4 + [0.75] * 2

    output.emit_probes(ListSink(), output.probe_plan(state.layout, probes[:1]), state)
    assert len(calls) == 1


def test_run_emits_each_probe_quantity_of_every_accepted_level():
    # one probe of every quantity, in declaration order, each value bit
    # for bit as recomputed from the level passed to on_step
    from vesselflow.constitutive import PrimitiveState, coefficients
    from vesselflow.solver import run

    loaded = load_config(BIFURCATION)
    net = loaded.net
    sim = dataclasses.replace(loaded.sim, t_end=6 * loaded.sim.dt)
    probes = [
        ProbeSpec(("V", "P", "R", "Q", "A"), vessel="branch_a", x_index=7),
        ProbeSpec(("Q_C", "P_C2", "P_C1"), node="micro"),
        ProbeSpec(("P_junc",), node="fork"),
        ProbeSpec(("A",), vessel="parent", x_fraction=1.0),
    ]
    sink, states = ListSink(), []
    state0 = initial_state(net, loaded.init, sim)[0]
    report = run(net, state0, sim, probes=probes, sink=sink, on_step=states.append)
    assert report.steps == len(states) == 6

    def station(s, vid, k):
        x = net.vessels[vid].grid[k]
        at = s.layout.slices[vid].start + k
        P, Q = float(s.P[at]), float(s.Q[at])
        A = float(coefficients(net.vessels[vid], x, s.t, PrimitiveState(P, Q)).A)
        return x, {"P": P, "Q": Q, "A": A, "R": float(np.sqrt(A / np.pi)), "V": Q / A}

    expected = []
    for s in states:
        x, values = station(s, "branch_a", 7)
        expected += [(s.t, "vessel", "branch_a", x, q, values[q]) for q in probes[0].quantities]
        i = s.layout.junctions.transitional.index("micro")
        P_C1, P_C2 = float(s.P_C1[i]), float(s.P_C2[i])
        values = {"P_C1": P_C1, "P_C2": P_C2, "Q_C": (P_C1 - P_C2) / net.nodes["micro"].R_C}
        expected += [(s.t, "node", "micro", None, q, values[q]) for q in probes[1].quantities]
        j = s.layout.junctions.branching.index("fork")
        expected.append((s.t, "node", "fork", None, "P_junc", float(s.P_junc[j])))
        x, values = station(s, "parent", 40)
        expected.append((s.t, "vessel", "parent", x, "A", values["A"]))
    got = [(r.t, r.kind, r.id, r.x, r.quantity, r.value) for r in sink.records]
    assert [g[:5] for g in got] == [e[:5] for e in expected]
    assert [g[5].hex() for g in got] == [e[5].hex() for e in expected]


def _scalar_value(s, k, quantity, R_C=None):
    """One probe value by the per-record scalar formulas: k a grid point
    in layout order, or the node's branching or transitional slot."""
    A = s.coeffs.A
    return {
        "P": lambda: float(s.P[k]),
        "Q": lambda: float(s.Q[k]),
        "A": lambda: float(A[k]),
        "R": lambda: float(np.sqrt(float(A[k]) / np.pi)),
        "V": lambda: float(s.Q[k]) / float(A[k]),
        "P_junc": lambda: float(s.P_junc[k]),
        "P_C1": lambda: float(s.P_C1[k]),
        "P_C2": lambda: float(s.P_C2[k]),
        "Q_C": lambda: (float(s.P_C1[k]) - float(s.P_C2[k])) / R_C,
    }[quantity]()


def test_the_level_path_reads_all_nine_quantities_with_the_scalar_bits():
    # a branching and a transitional node; every vessel quantity at both
    # ends and inside every vessel, in shuffled orders, every node
    # quantity, and the snapshot: each value bit for bit the scalar form's
    from vesselflow.output import emit_probes, emit_snapshot, probe_plan
    from vesselflow.solver import picard_step

    loaded = load_config(BIFURCATION)
    net, sim = loaded.net, loaded.sim
    state = initial_state(net, loaded.init, sim)[0]
    order = ("V", "R", "A", "Q", "P")
    probes = [ProbeSpec(order[k % 5:] + order[:k % 5], vessel=vid, x_index=i)
              for k, (vid, i) in enumerate((vid, i) for vid in sorted(net.vessels) for i in (0, 17, 40))]
    probes += [ProbeSpec(("Q_C", "P_C1", "P_C2"), node="micro"), ProbeSpec(("P_junc",), node="fork"),
               ProbeSpec(("P_C2", "Q_C", "P_C1"), node="micro")]
    R_C = net.nodes["micro"].R_C
    for _ in range(3):
        state = picard_step(state, sim)[0]  # away from rest, P_junc set
        lay = state.layout
        expected = []
        for p in probes:
            if p.vessel is not None:
                k = lay.slices[p.vessel].start + p.x_index
                expected += [("vessel", p.vessel, float(lay.x[k]), q, _scalar_value(state, k, q))
                             for q in p.quantities]
            elif p.node == "fork":
                k = lay.junctions.branching.index("fork")
                expected += [("node", "fork", None, q, _scalar_value(state, k, q)) for q in p.quantities]
            else:
                k = lay.junctions.transitional.index("micro")
                expected += [("node", "micro", None, q, _scalar_value(state, k, q, R_C)) for q in p.quantities]
        assert len({e[3] for e in expected}) == 9
        plan = probe_plan(lay, probes)
        values = plan.values(state)
        assert list(plan.keys) == [e[:4] for e in expected]
        assert [v.hex() for v in values] == [e[4].hex() for e in expected]
        sink = ListSink()
        emit_probes(sink, plan, state)
        assert sink.records == [ProbeRecord(state.t, *e) for e in expected]
        assert [r.value.hex() for r in sink.records] == [e[4].hex() for e in expected]

        snap = ListSink()
        emit_snapshot(snap, state, sim.epsilon0)
        points = [(vid, k) for vid, at in lay.slices.items() for k in range(at.start, at.stop)]
        assert [(r.id, r.x, r.quantity) for r in snap.records] == [
            (vid, float(lay.x[k]), q) for vid, k in points for q in ("P", "Q", "A", "R", "V")]
        assert [r.value.hex() for r in snap.records] == [
            _scalar_value(state, k, q).hex() for _, k in points for q in ("P", "Q", "A", "R", "V")]


def test_emit_probes_makes_as_many_python_calls_for_1_record_as_for_20(tmp_path):
    # a level is one gather and one write: the Python calls of an
    # emit_probes call (sys.setprofile) do not grow with the records
    import sys

    from vesselflow.output import emit_probes, probe_plan
    from vesselflow.solver import run

    loaded = load_config(BIFURCATION)
    state = initial_state(loaded.net, loaded.init, loaded.sim)[0]
    state = run(loaded.net, state, dataclasses.replace(loaded.sim, t_end=2 * loaded.sim.dt)).final_state
    one = [ProbeSpec(("P",), vessel="parent", x_index=3)]
    twenty = [ProbeSpec(("P", "Q", "A", "R", "V"), vessel=vid, x_index=5) for vid in ("parent", "vein")]
    twenty += [ProbeSpec(("P_C1", "P_C2", "Q_C"), node="micro"), ProbeSpec(("P_junc",), node="fork"),
               ProbeSpec(("V", "R", "A", "Q", "P", "Q"), vessel="branch_b", x_fraction=1.0)]
    counts = []
    for probes, records in ((one, 1), (twenty, 20)):
        plan = probe_plan(state.layout, probes)
        assert len(plan.keys) == records
        calls = []

        def profile(frame, event, arg):
            if event == "call":
                calls.append(frame.f_code.co_name)

        with CsvSink(str(tmp_path / "probes.csv")) as sink:
            emit_probes(sink, plan, state)  # formats the plan's keys
            sys.setprofile(profile)
            try:
                emit_probes(sink, plan, state)
            finally:
                sys.setprofile(None)
        counts.append(calls)
    assert len(counts[0]) == len(counts[1]) and len(counts[0]) < 10, counts


# --- mutation corpus -------------------------------------------------------

CORPUS_VALUES = (0, -1, 1e300, -1e300, 1e-300, 1e308, 5e-324, 0.5, "x", None, [], {}, True, BIG)
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


@pytest.mark.parametrize("config, size", [(BIFURCATION, 2205), (SYNTHETIC, 615)],
                         ids=["bifurcation", "synthetic"])
def test_cli_classifies_the_whole_mutation_corpus(tmp_path, capsys, config, size):
    # every mutation of a shipped config, each run for two steps of its
    # own dt: every one ends with a documented exit code and, for exit 3,
    # a classified last line, never an unexpected error.
    doc = json.loads(config.read_text())
    cases = corpus_cases(doc)
    assert len(cases) == size
    codes = []
    for k, (path, value) in enumerate(cases):
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
    assert set(codes) == {0, 1, 2, 3}


NOT_FINITE = "characteristic value is not finite"
SYN = ("vessels", 0, "coefficients")


@pytest.mark.parametrize("config, path, value, code, last", [
    (BIFURCATION, ("vessels", 0, "nu"), 1e300, 3, "solver failure: "),
    (BIFURCATION, ("vessels", 0, "tube_law", "C"), 1e300, 3, "solver failure: "),
    (BIFURCATION, ("vessels", 0, "tube_law", "R0"), 1e300, 3, "initial state error: "),
    (BIFURCATION, ("vessels", 0, "tube_law", "beta"), 1e300, 2, "solvability failure: "),
    (BIFURCATION, ("vessels", 0, "tube_law", "beta"), 1e-300, 3, "initial state error: "),
    (BIFURCATION, ("initial", "default", "P"), 1e300, 3,
     "aborting: initial state violates node compatibility"),
    (BIFURCATION, ("initial", "default", "Q"), 1e300, 3,
     "aborting: initial state violates node compatibility"),
    (BIFURCATION, ("initial", "default", "Q"), -1e300, 3,
     "aborting: initial state violates node compatibility"),
    # the source sum overflows at an end whose foot stayed in the vessel
    (BIFURCATION, ("vessels", 2, "nu"), 1e300, 3,
     f"solver failure: vessel 'branch_b' family R: {NOT_FINITE}"),
    (BIFURCATION, ("vessels", 3, "nu"), 1e300, 3,
     f"solver failure: vessel 'vein' family L: {NOT_FINITE}"),
    (SYNTHETIC, SYN + ("g",), 1e308, 3, f"solver failure: vessel 'v' family L: {NOT_FINITE}"),
    (SYNTHETIC, SYN + ("g",), -1e308, 3, f"solver failure: vessel 'v' family L: {NOT_FINITE}"),
    (SYNTHETIC, SYN + ("f",), 1e308, 3, f"solver failure: vessel 'v' family L: {NOT_FINITE}"),
    (SYNTHETIC, SYN + ("f",), -1e308, 3, f"solver failure: vessel 'v' family L: {NOT_FINITE}"),
    (SYNTHETIC, SYN + ("c",), 1e300, 3, "solver failure: vessel 'v': c^2 + a*b must be positive"),
    (SYNTHETIC, SYN + ("c",), -1e300, 3, "solver failure: vessel 'v': c^2 + a*b must be positive"),
    # the junction stack of the condition check overflows, or 1/R_C does
    # and meets a zero: the node's estimate reads inf
    (BIFURCATION, ("nodes", 1, "attachments", 0, "rho_j"), 1e308, 2,
     "solvability failure: solvability check failed at t=0: fork: junction condition estimate inf"),
    (BIFURCATION, ("nodes", 3, "R_C"), 5e-324, 2,
     "solvability failure: solvability check failed at t=0: micro: junction condition estimate inf"),
], ids=["nu", "C", "R0", "beta", "beta-tiny", "P", "Q", "Q-negative", "nu-branch_b", "nu-vein",
        "synthetic-g", "synthetic-g-negative", "synthetic-f", "synthetic-f-negative",
        "synthetic-c", "synthetic-c-negative", "rho_j", "R_C-tiny"])
def test_cli_overflowing_inputs_end_classified_without_warnings(
    tmp_path, capsys, config, path, value, code, last
):
    # numpy overflows on these inputs; under the error filter for
    # RuntimeWarning a warning escaping its source would end the run as
    # an unexpected error instead of the classified failure
    doc = json.loads(config.read_text())
    config = write_json(tmp_path, mutated(doc, path, value))
    argv = ["simulate", config, "--output", str(tmp_path / "o"), "--t-end", "0.002"]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith(last)
    assert "RuntimeWarning" not in err and "unexpected error" not in err
