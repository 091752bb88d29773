"""Correctness checks for the benchmark workloads.

Each check compares the program's outputs with values the benchmark
computes itself from the scenario document (prescribed signals,
resistances, the tree's symmetry) or with properties the method must
have (exact flow balance, first-order convergence). None of them reads
a stored copy of earlier output, and none imports vesselflow. Every
check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np

BALANCE_TOL = 1e-10  # flow balance, relative to the summed |Q| at the node
LEG_TOL = 1e-10  # R Q = +-(P - P_C), relative to the larger side
SIGNAL_TOL = 1e-12  # prescribed inlet pressure, relative
SIBLING_TOL = 1e-9  # sibling fields of the symmetric tree, relative
MIN_ORDER = 0.9  # observed convergence order in P and Q


def _end_x(vessel: dict, node_id: str) -> float:
    return 0.0 if vessel["x0"] == node_id else 1.0


def check_bifurcation(doc: dict, exit_code: int, steps: int, series: list, snapshot: list) -> list[str]:
    """The CLI run of the bifurcation scenario.

    series and snapshot are the CSV data rows (t, kind, id, x, quantity,
    value) of the probe timeseries and of the snapshot at t_end."""
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    per_step = sum(len(p["quantities"]) for p in doc["probes"])
    if steps < 1 or len(series) != steps * per_step:
        return problems + [f"{len(series)} timeseries rows, expected {steps} x {per_step}"]
    t = np.array([float(r[0]) for r in series])
    value = np.array([float(r[5]) for r in series])
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(value))):
        problems.append("non-finite timeseries value")
    t_steps = t.reshape(steps, per_step)
    if np.any(t_steps != t_steps[:, :1]) or np.any(np.diff(t_steps[:, 0]) <= 0):
        problems.append("timeseries rows are not grouped by step in time order")

    vessels = {v["id"]: v for v in doc["vessels"]}
    nodes = {n["id"]: n for n in doc["nodes"]}

    # vessel probes at an end held by a constant-pressure node
    held_ends = 0
    for vid, v in vessels.items():
        for end, x in (("x0", 0.0), ("x1", 1.0)):
            sig = nodes[v[end]].get("signal", {})
            if nodes[v[end]]["kind"] != "pressure" or sig.get("kind") != "constant":
                continue
            held = [float(r[5]) for r in series
                    if r[1] == "vessel" and r[2] == vid and r[4] == "P" and float(r[3]) == x]
            held_ends += bool(held)
            if any(p != sig["value"] for p in held):
                problems.append(f"{vid} at x={x} leaves its prescribed {sig['value']} Pa")
    if not held_ends:
        problems.append("no pressure probe on an end held at constant pressure")

    snap = {}
    for r in snapshot:
        snap[(r[2], float(r[3]), r[4])] = float(r[5])
    t_snap = float(snapshot[0][0]) if snapshot else math.nan
    t_end = doc["solver"]["t_end"]
    if not abs(t_snap - t_end) <= 1e-9 * max(1.0, t_end):
        return problems + [f"snapshot at t={t_snap}, expected t_end={t_end}"]

    for n in doc["nodes"]:
        sig = n.get("signal", {})
        if n["kind"] != "pressure" or sig.get("kind") != "sine":
            continue
        expected = sig["mean"] + sig["amplitude"] * math.sin(
            2.0 * math.pi * sig["frequency"] * t_snap + sig.get("phase", 0.0))
        for vid, v in vessels.items():
            if n["id"] in (v["x0"], v["x1"]):
                got = snap[(vid, _end_x(v, n["id"]), "P")]
                if abs(got - expected) > SIGNAL_TOL * abs(expected):
                    problems.append(f"inlet {vid}: P={got!r}, signal gives {expected!r}")

    last = {(r[2], r[4]): float(r[5]) for r in series[-per_step:]}
    for n in doc["nodes"]:
        if n["kind"] == "branching":
            signed = []
            for att in n["attachments"]:
                v = vessels[att["vessel"]]
                x = _end_x(v, n["id"])
                q = snap[(v["id"], x, "Q")]
                signed.append(q if x == 1.0 else -q)  # x=1 ends flow in
            problems += balance_problems(n["id"], signed)
        elif n["kind"] == "transitional":
            legs = [(a, "P_C1", 1.0) for a in n["arteries"]] + [(a, "P_C2", -1.0) for a in n["veins"]]
            for att, cap, sign in legs:
                v = vessels[att["vessel"]]
                x = _end_x(v, n["id"])
                lhs = att["resistance"] * snap[(v["id"], x, "Q")]
                rhs = sign * (snap[(v["id"], x, "P")] - last[(n["id"], cap)])
                if abs(lhs - rhs) > LEG_TOL * max(abs(lhs), abs(rhs)):
                    problems.append(f"{n['id']} leg {v['id']}: R Q = {lhs!r}, +-(P - P_C) = {rhs!r}")
    return problems


def balance_problems(node: str, signed_flows) -> list[str]:
    """Flows into a node (outgoing ones negated) must sum to zero."""
    q = np.asarray(signed_flows, dtype=float)
    resid = abs(float(np.sum(q)))
    scale = float(np.sum(np.abs(q)))
    if not resid <= BALANCE_TOL * scale:
        return [f"{node}: flow imbalance {resid:.3e} against summed |Q| {scale:.3e}"]
    return []


def check_tree(layout: dict, fields: dict) -> list[str]:
    """Final state of the symmetric tree. fields maps vessel id to (P, Q)."""
    problems = []
    for vid, (P, Q) in fields.items():
        if not (np.all(np.isfinite(P)) and np.all(np.isfinite(Q))):
            problems.append(f"{vid}: non-finite field")
    for j in layout["junctions"]:
        signed = [fields[j["parent"]][1][-1]] + [-fields[c][1][0] for c in j["children"]]
        problems += balance_problems(j["node"], signed)
    for a, b in layout["siblings"]:
        for k, name in ((0, "P"), (1, "Q")):
            fa, fb = fields[a][k], fields[b][k]
            diff = float(np.max(np.abs(fa - fb)))
            scale = max(float(np.max(np.abs(fa))), float(np.max(np.abs(fb))))
            if not diff <= SIBLING_TOL * scale:
                problems.append(f"siblings {a}/{b}: {name} differs by {diff:.3e} (scale {scale:.3e})")
    for vid in layout["outlets"]:
        if fields[vid][0][-1] != layout["outlet_pressure"]:
            problems.append(f"outlet of {vid}: P={fields[vid][0][-1]!r}, "
                            f"prescribed {layout['outlet_pressure']!r}")
    return problems


def convergence_orders(grids: list) -> dict:
    """Observed order from three grids that double: log2(e1/e2) with
    e1 = |f_2n - f_n| and e2 = |f_4n - f_2n| at the coarse nodes."""
    orders = {}
    for k, name in ((0, "P"), (1, "Q")):
        f1, f2, f4 = (np.asarray(g[k], dtype=float) for g in grids)
        e1 = float(np.max(np.abs(f2[::2] - f1)))
        e2 = float(np.max(np.abs(f4[::2] - f2)))
        orders[name] = math.log2(e1 / e2) if e1 > 0 and e2 > 0 else math.nan
    return orders


def check_refinement(grids: list) -> list[str]:
    """grids holds (P, Q) of the final state on n, 2n and 4n cells."""
    problems = []
    for name, order in convergence_orders(grids).items():
        if not order >= MIN_ORDER:
            problems.append(f"observed order in {name} is {order:.3f} < {MIN_ORDER}")
    return problems
