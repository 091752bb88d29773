"""Seeded inputs for the benchmark workloads.

Everything here is plain data built with the standard library: the
program under test only ever sees the JSON documents written from it.
The seed draws three values from fixed ranges (see RANGES); seed 0 is
the reference draw and reproduces `configs/bifurcation.json` exactly.
"""

from __future__ import annotations

import copy
import json
import math
import random

WORKLOADS = ("cli-bifurcation", "tree-63", "pulse-refine")

# Ranges the seed draws from. Amplitude and phase shape the sine inlet of
# cli-bifurcation and tree-63; the phase stays small so the inlet
# pressure at t=0 is within 1% of the initial field (a larger mismatch is
# an initial-state error and the CLI refuses to run). One pulse height
# serves every vessel, so the generated tree stays symmetric.
RANGES = {
    "amplitude": (1080.0, 1320.0),  # Pa
    "phase": (-0.05, 0.05),  # rad
    "pulse_height": (1350.0, 1650.0),  # Pa
}
REFERENCE = {"amplitude": 1200.0, "phase": 0.0, "pulse_height": 1500.0}

# Workload sizes: the measured size and the smoke size (seconds to run).
TREE_DEPTH = 6  # 1 + 2 + ... + 32 = 63 vessels, 32 outlets
TREE_CELLS = 16
TREE_DT = 0.003
TREE_STEPS = {"full": 20, "smoke": 3}
TREE_P0 = 12000.0
TREE_FREQUENCY = 5.0  # Hz

PULSE_GRIDS = {"full": (800, 1600, 3200), "smoke": (100, 200, 400)}
PULSE_T_END = 0.0125
PULSE_STEPS_PER_100_CELLS = 16  # dt = t_end / (16 n / 100), CFL about 0.6
PULSE_P0 = 8000.0

BIFURCATION_SMOKE_T_END = 0.02


def draw(seed: int) -> dict:
    """Workload parameters for one seed (seed 0: the reference values)."""
    if seed == 0:
        return dict(REFERENCE)
    rng = random.Random(seed)
    return {name: rng.uniform(*RANGES[name]) for name in ("amplitude", "phase", "pulse_height")}


def bump(n_cells: int) -> list[float]:
    """sin^2 pulse on 0.2 < x < 0.6 sampled on x_j = j/n_cells; zero at
    both ends, so every junction and outlet starts compatible."""
    out = []
    for j in range(n_cells + 1):
        y = j / n_cells
        out.append(math.sin(math.pi * (y - 0.2) / 0.4) ** 2 if 0.2 < y < 0.6 else 0.0)
    return out


def _power_vessel(vid, n_cells, x0, x1, C, R0):
    return {
        "id": vid, "n_cells": n_cells, "x0": x0, "x1": x1,
        "alpha": 1.1, "nu": 3.3e-06, "rho": 1050.0,
        "tube_law": {"kind": "power", "C": C, "R0": R0, "beta": 2.0},
    }


def _pressure_node(nid, value):
    return {"id": nid, "kind": "pressure", "signal": {"kind": "constant", "value": value}}


def bifurcation_doc(shipped: dict, params: dict) -> dict:
    """The shipped bifurcation scenario with the seeded inlet sine."""
    doc = copy.deepcopy(shipped)
    inlet = next(n for n in doc["nodes"] if n.get("signal", {}).get("kind") == "sine")
    inlet["signal"]["amplitude"] = params["amplitude"]
    inlet["signal"]["phase"] = params["phase"]
    return doc


def tree_doc(params: dict, size: str, out_dir: str) -> tuple[dict, dict]:
    """Symmetric binary tree of PowerLaw vessels joined by three-way
    branching nodes. Returns the scenario document and the layout the
    checks need (junctions, sibling pairs, outlets)."""
    vessels, nodes = [], []
    junctions, siblings, outlets = [], [], []
    nodes.append({
        "id": "inlet", "kind": "pressure",
        "signal": {
            "kind": "sine", "mean": TREE_P0, "amplitude": params["amplitude"],
            "frequency": TREE_FREQUENCY, "phase": params["phase"],
        },
    })

    def grow(vid, generation, x0):
        # Murray-like taper: radius falls by 2**(-1/3) per generation
        R0 = 0.005 * 2.0 ** (-generation / 3.0)
        leaf = generation == TREE_DEPTH - 1
        x1 = ("out_" if leaf else "j_") + vid
        vessels.append(_power_vessel(vid, TREE_CELLS, x0, x1, 40000.0, R0))
        if leaf:
            nodes.append(_pressure_node(x1, TREE_P0))
            outlets.append(vid)
            return
        kids = [vid + "a", vid + "b"]
        nodes.append({
            "id": x1, "kind": "branching",
            "attachments": [{"vessel": v, "rho_j": 1e-4} for v in [vid] + kids],
        })
        junctions.append({"node": x1, "parent": vid, "children": kids})
        siblings.append(kids)
        for k in kids:
            grow(k, generation + 1, x1)

    grow("v", 0, "inlet")
    pulse = [TREE_P0 + params["pulse_height"] * b for b in bump(TREE_CELLS)]
    leaf = outlets[0]
    doc = {
        "vessels": vessels,
        "nodes": nodes,
        "solver": {"dt": TREE_DT, "t_end": TREE_STEPS[size] * TREE_DT},
        "initial": {"default": {"P": pulse, "Q": 0.0}},
        "probes": [
            {"vessel": "v", "x_fraction": 0.5, "quantities": ["P", "Q"]},
            {"vessel": leaf, "x_index": TREE_CELLS, "quantities": ["Q"]},
            {"node": "j_v", "quantities": ["P_junc"]},
        ],
        "output": {"directory": out_dir, "timeseries": "tree.csv"},
    }
    layout = {
        "junctions": junctions, "siblings": siblings, "outlets": outlets,
        "outlet_pressure": TREE_P0,
    }
    return doc, layout


def pulse_docs(params: dict, size: str, out_dir: str) -> list[dict]:
    """One PowerLaw vessel with a nonlinear pressure pulse, on grids that
    double; dt scales with dx so the refinement is in space and time."""
    docs = []
    for n in PULSE_GRIDS[size]:
        pulse = [PULSE_P0 + params["pulse_height"] * b for b in bump(n)]
        docs.append({
            "vessels": [_power_vessel("v", n, "in", "out", 40000.0, 0.001)],
            "nodes": [_pressure_node("in", PULSE_P0), _pressure_node("out", PULSE_P0)],
            "solver": {
                "dt": PULSE_T_END / (PULSE_STEPS_PER_100_CELLS * n // 100),
                "t_end": PULSE_T_END,
                "check_every": 1000,
            },
            "initial": {"default": {"P": pulse, "Q": 0.0}},
            "probes": [{"vessel": "v", "x_fraction": 0.5, "quantities": ["P", "Q"]}],
            "output": {"directory": out_dir, "timeseries": f"pulse_{n}.csv"},
        })
    return docs


def write_json(path: str, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh)
