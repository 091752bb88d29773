"""Acceptance suite: one test per release criterion.

Each test prints a PASS/FAIL line (visible with pytest -s or on failure)
and asserts the criterion at its stated tolerance, including the
runtime budget.
"""

import json
import time

import numpy as np
import pytest

from vesselflow import (
    BranchAttachment,
    Branching,
    CoefficientSet,
    ConstantSignal,
    ExternalPressure,
    InitSpec,
    Network,
    PowerLaw,
    PrimitiveState,
    SimConfig,
    SineSignal,
    SyntheticCoefficients,
    TransAttachment,
    Transitional,
    Vessel,
    VesselInit,
    eigen,
    from_riemann,
    initial_state,
    run,
    to_riemann,
)
from vesselflow.cli import main
from vesselflow.junctions import TransitionalState
from vesselflow.output import CsvSink, ListSink, ProbeSpec
from vesselflow.verification import (
    EndpointClosureInput,
    RCParams,
    Scenario,
    branching_derivative_matrix,
    dependence_experiment,
    oracle_linear_translation,
    oracle_rc_transitional,
    perturb_initial_pressure_sine,
    rc_system,
    transitional_step_response,
)

SOFT_LAW = PowerLaw(C=1e4, R0=1e-3, beta=2.0)
STIFF_LAW = PowerLaw(C=4e4, R0=1e-3, beta=2.0)


def _report(num, name, ok, detail):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def bump(y):
    y = np.asarray(y)
    out = np.zeros_like(y)
    m = (y > 0.2) & (y < 0.6)
    out[m] = np.sin(np.pi * (y[m] - 0.2) / 0.4) ** 2
    return out


# --- 1. Riemann round-trip --------------------------------------------------


def test_01_riemann_round_trip():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    N = 10_000
    a = rng.uniform(0.05, 10.0, N)
    b = rng.uniform(-5.0, 10.0, N)
    c = rng.uniform(-5.0, 5.0, N)
    keep = c * c + a * b > 1e-6
    while np.count_nonzero(keep) < N:  # top up rejected draws
        m = ~keep
        b[m] = rng.uniform(-5.0, 10.0, np.count_nonzero(m))
        keep = c * c + a * b > 1e-6
    P = rng.uniform(-100.0, 100.0, N)
    Q = rng.uniform(-100.0, 100.0, N)
    cs = CoefficientSet(a=a, b=b, c=c, f=0.0, g=0.0, A=1.0)
    e = eigen(cs)
    back = from_riemann(cs, e, to_riemann(cs, e, PrimitiveState(P=P, Q=Q)))
    err = max(
        np.max(np.abs(back.P - P) / np.maximum(1.0, np.abs(P))),
        np.max(np.abs(back.Q - Q) / np.maximum(1.0, np.abs(Q))),
    )
    el = time.perf_counter() - t0
    _report(
        1, "riemann-round-trip",
        err <= 1e-12 and el < 1.0,
        f"max rel err {err:.3e}, {el:.2f}s",
    )


# --- 2. steady-state preservation --------------------------------------------


def test_02_steady_state_preservation():
    t0 = time.perf_counter()
    P0, Q0 = 2.0, 1.0
    v = Vessel(
        id="v", n_cells=32, x0_node="in", x1_node="out",
        synthetic=SyntheticCoefficients(a=1.0, b=1.0, c=0.3),
    )
    net = Network(
        vessels={"v": v},
        nodes={
            "in": ExternalPressure("in", ConstantSignal(P0)),
            "out": ExternalPressure("out", ConstantSignal(P0)),
        },
    )
    n_steps = 1000
    cfg = SimConfig(dt=0.02, t_end=0.02 * n_steps, check_every=100)
    state0, _ = initial_state(net, InitSpec(default=VesselInit(P=P0, Q=Q0)), cfg)
    report = run(net, state0, cfg)
    f = report.final_state.fields["v"]
    drift = max(np.max(np.abs(f.P - P0)), np.max(np.abs(f.Q - Q0)))
    el = time.perf_counter() - t0
    _report(
        2, "steady-state-preservation",
        report.steps == n_steps and drift <= 1e-11 and el < 1.0,
        f"{report.steps} steps, sup drift {drift:.3e}, {el:.2f}s",
    )


# --- 3. linear translation convergence ----------------------------------------


def test_03_linear_translation_convergence():
    t0 = time.perf_counter()
    t_end = 0.25
    errors = {}
    for n in (100, 200, 400):
        v = Vessel(
            id="v", n_cells=n, x0_node="in", x1_node="out",
            synthetic=SyntheticCoefficients(a=1.0, b=1.0, c=0.0),
        )
        net = Network(
            vessels={"v": v},
            nodes={
                "in": ExternalPressure("in", ConstantSignal(0.0)),
                "out": ExternalPressure("out", ConstantSignal(0.0)),
            },
        )
        cfg = SimConfig(dt=0.5 / n, t_end=t_end, check_every=1000)  # CFL 0.5
        # r = bump, s = 0 (u = a = 1)
        init = InitSpec(
            default=VesselInit(P=lambda x: bump(x) / 2.0, Q=lambda x: bump(x) / 2.0)
        )
        state0, _ = initial_state(net, init, cfg)
        final = run(net, state0, cfg).final_state.fields["v"]
        x = v.grid
        r_ex, s_ex = oracle_linear_translation(
            1.0, 1.0, 0.0, bump, lambda y: np.zeros_like(np.asarray(y)),
            t_end, x, r0_support=(0.2, 0.6),
        )
        errors[n] = np.max(np.abs(final.P - (r_ex - s_ex) / 2.0))
    o1 = np.log2(errors[100] / errors[200])
    o2 = np.log2(errors[200] / errors[400])
    el = time.perf_counter() - t0
    _report(
        3, "linear-translation-convergence",
        o1 >= 0.9 and o2 >= 0.9 and el < 10.0,
        f"errors {errors[100]:.2e}/{errors[200]:.2e}/{errors[400]:.2e}, "
        f"orders {o1:.2f}, {o2:.2f}, {el:.2f}s",
    )


# --- 4 & 11. pulsatile Y-junction: mass balance and determinism ---------------


class TeeSink:
    def __init__(self, *sinks):
        self.sinks = sinks

    def emit_level(self, t, keys, values):
        for s in self.sinks:
            s.emit_level(t, keys, values)


def y_junction_scenario():
    def vessel(vid, x0, x1):
        return Vessel(id=vid, n_cells=24, x0_node=x0, x1_node=x1,
                      tube_law=STIFF_LAW, alpha=1.1)

    net = Network(
        vessels={
            "p": vessel("p", "in", "j"),
            "c1": vessel("c1", "j", "o1"),
            "c2": vessel("c2", "j", "o2"),
        },
        nodes={
            "in": ExternalPressure(
                "in", SineSignal(mean=13000.0, amplitude=1000.0, frequency=4.0)
            ),
            "j": Branching(
                "j",
                (
                    BranchAttachment("p", "x1", 1e-4),
                    BranchAttachment("c1", "x0", 1e-4),
                    BranchAttachment("c2", "x0", 1e-4),
                ),
            ),
            "o1": ExternalPressure("o1", ConstantSignal(13000.0)),
            "o2": ExternalPressure("o2", ConstantSignal(13000.0)),
        },
    )
    # flow-balance exactness and byte determinism do not depend on the
    # iteration tolerance; 1e-7 keeps the 2000-step run well inside its
    # runtime budget
    cfg = SimConfig(dt=2e-3, t_end=4.0, picard_tol=1e-7, check_every=50)  # 2000 steps
    init = InitSpec(default=VesselInit(P=13000.0, Q=0.0))
    probes = [
        ProbeSpec(quantities=("Q",), vessel="p", x_index=24),
        ProbeSpec(quantities=("Q",), vessel="c1", x_index=0),
        ProbeSpec(quantities=("Q",), vessel="c2", x_index=0),
        ProbeSpec(quantities=("P_junc",), node="j"),
    ]
    return net, cfg, init, probes


def run_y_junction(csv_path):
    net, cfg, init, probes = y_junction_scenario()
    state0, diags = initial_state(net, init, cfg)
    assert not [d for d in diags if d.severity == "error"]
    records = ListSink()
    with CsvSink(csv_path) as csv_sink:
        report = run(net, state0, cfg, probes=probes, sink=TeeSink(records, csv_sink))
    return report, records.records


@pytest.fixture(scope="module")
def y_junction_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("yjunction")
    path = out / "run1.csv"
    t0 = time.perf_counter()
    report, records = run_y_junction(str(path))
    elapsed = time.perf_counter() - t0
    return {"report": report, "records": records, "csv": path, "elapsed": elapsed}


def test_04_junction_mass_balance(y_junction_run):
    report = y_junction_run["report"]
    by_step = {}
    for rec in y_junction_run["records"]:
        if rec.quantity == "Q":
            by_step.setdefault(rec.t, {})[rec.id] = rec.value
    worst = 0.0
    for t, qs in by_step.items():
        resid = abs(qs["p"] - qs["c1"] - qs["c2"])
        # relative to the flows at the node (they peak near 1e-8 m^3/s)
        scale = max(1e-300, abs(qs["p"]) + abs(qs["c1"]) + abs(qs["c2"]))
        worst = max(worst, resid / scale)
    el = y_junction_run["elapsed"]
    _report(
        4, "junction-mass-balance",
        report.steps == 2000 and len(by_step) == 2000 and worst <= 1e-10 and el < 10.0,
        f"{report.steps} steps, worst scaled residual {worst:.3e}, {el:.2f}s",
    )


def test_11_determinism_byte_identical(y_junction_run, tmp_path):
    t0 = time.perf_counter()
    second = tmp_path / "run2.csv"
    run_y_junction(str(second))
    b1 = y_junction_run["csv"].read_bytes()
    b2 = second.read_bytes()
    el = time.perf_counter() - t0
    _report(
        11, "determinism-byte-identical",
        b1 == b2 and len(b1) > 0 and el < 10.0,
        f"{len(b1)} bytes, identical={b1 == b2}, second run {el:.2f}s",
    )


# --- 5. branching determinant formula -----------------------------------------


def test_05_branching_determinant_formula():
    t0 = time.perf_counter()
    rng = np.random.default_rng(131)
    worst = 0.0
    for _ in range(100):
        mu = int(rng.integers(2, 6))
        n_in = int(rng.integers(1, mu))
        inputs = []
        for k in range(mu):
            end = "x1" if k < n_in else "x0"
            cs = CoefficientSet(
                a=rng.uniform(0.2, 5), b=rng.uniform(0.1, 5), c=rng.uniform(-0.5, 0.5),
                f=0.0, g=0.0, A=rng.uniform(0.5, 2),
            )
            inputs.append(
                EndpointClosureInput(
                    vessel_id=f"v{k}", end=end, coeffs=cs, eig=eigen(cs),
                    char_value=0.0, rho_j=rng.uniform(1e-4, 1e-1),
                )
            )
        M = branching_derivative_matrix(inputs)
        det = np.linalg.det(M)
        # closed-form product evaluated independently
        expected = (-0.5) ** mu
        for inp in inputs:
            lam = inp.eig.lambda_L if inp.incoming else inp.eig.lambda_R
            expected *= inp.rho_j * lam / (inp.eig.u * inp.coeffs.a * inp.coeffs.A)
        expected *= sum(inp.coeffs.A / inp.rho_j for inp in inputs)
        assert det != 0.0
        worst = max(worst, abs(det - expected) / abs(expected))
    el = time.perf_counter() - t0
    _report(
        5, "branching-determinant-formula",
        worst <= 1e-8 and el < 1.0,
        f"worst rel deviation {worst:.3e}, {el:.2f}s",
    )


# --- 6. transitional junction vs RC oracle -------------------------------------


def test_06_transitional_vs_rc_oracle():
    t0 = time.perf_counter()
    node = Transitional(
        "t",
        arteries=(TransAttachment("a", 2.0),),
        veins=(TransAttachment("v", 3.0),),
        R_C=2.0, C1=0.5, C2=0.5,
    )
    params = RCParams(C1=node.C1, C2=node.C2, R_C=node.R_C, R_vein=3.0, P_vein=0.0)
    q = 0.25
    T = 2.0
    exact = oracle_rc_transitional(params, q, (0.0, 0.0), T)
    errs = []
    for dt in (0.05, 0.025, 0.0125):
        traj = transitional_step_response(
            node, q, 0.0, dt, int(round(T / dt)), TransitionalState(0.0, 0.0)
        )
        errs.append(
            max(abs(g - e) for g, e in zip((traj[-1].P_C1, traj[-1].P_C2), exact))
        )
    orders = [np.log2(e1 / e2) for e1, e2 in zip(errs, errs[1:])]
    first_order = all(0.9 <= o <= 1.5 for o in orders)

    # steady gap after >= 10 time constants of the slowest circuit mode
    M, _ = rc_system(params, q)
    tau = 1.0 / min(abs(np.linalg.eigvals(M).real))
    dt = 0.05
    n_steps = int(round(12.0 * tau / dt))
    traj = transitional_step_response(node, q, 0.0, dt, n_steps, TransitionalState(0.0, 0.0))
    gap = traj[-1].P_C1 - traj[-1].P_C2
    gap_err = abs(gap - node.R_C * q) / abs(node.R_C * q)
    el = time.perf_counter() - t0
    _report(
        6, "transitional-vs-rc-oracle",
        first_order and gap_err <= 1e-3 and el < 5.0,
        f"orders {[f'{o:.2f}' for o in orders]}, steady gap err {gap_err:.2e}, {el:.2f}s",
    )


# --- 7. fixed-point contraction -------------------------------------------------


def test_07_picard_contraction():
    t0 = time.perf_counter()
    n = 100
    v = Vessel(id="v", n_cells=n, x0_node="in", x1_node="out",
               tube_law=STIFF_LAW, alpha=1.1)
    net = Network(
        vessels={"v": v},
        nodes={
            "in": ExternalPressure("in", ConstantSignal(8000.0)),
            "out": ExternalPressure("out", ConstantSignal(8000.0)),
        },
    )
    lam_max = 7.2  # wave speed at the pulse crest
    cfg = SimConfig(dt=0.5 / (n * lam_max), t_end=0.05, check_every=100)  # CFL 0.5
    init = InitSpec(default=VesselInit(P=lambda x: 8000.0 + 1500.0 * bump(x), Q=0.0))
    state0, _ = initial_state(net, init, cfg)
    report = run(net, state0, cfg)
    pairs = report.contraction_pairs
    non_contracting = report.non_contracting_pairs
    med = report.median_iterations()
    el = time.perf_counter() - t0
    _report(
        7, "picard-contraction",
        non_contracting == 0 and med <= 5.0 and el < 10.0,
        f"{report.steps} steps, {pairs} ratio pairs all < 1: {non_contracting == 0}, "
        f"median iters {med}, {el:.2f}s",
    )


# --- 8. nonlinear self-convergence ----------------------------------------------


def test_08_nonlinear_self_convergence():
    t0 = time.perf_counter()

    def run_pulse(n):
        v = Vessel(id="v", n_cells=n, x0_node="in", x1_node="out",
                   tube_law=STIFF_LAW, alpha=1.1)
        net = Network(
            vessels={"v": v},
            nodes={
                "in": ExternalPressure("in", ConstantSignal(8000.0)),
                "out": ExternalPressure("out", ConstantSignal(8000.0)),
            },
        )
        t_end = 0.05
        cfg = SimConfig(dt=t_end / (64 * n // 100), t_end=t_end, check_every=1000)
        init = InitSpec(default=VesselInit(P=lambda x: 8000.0 + 1500.0 * bump(x), Q=0.0))
        state0, _ = initial_state(net, init, cfg)
        return run(net, state0, cfg).final_state.fields["v"]

    f100, f200, f400 = run_pulse(100), run_pulse(200), run_pulse(400)
    orders = []
    for attr in ("P", "Q"):
        e1 = np.max(np.abs(getattr(f200, attr)[::2] - getattr(f100, attr)))
        e2 = np.max(np.abs(getattr(f400, attr)[::2] - getattr(f200, attr)))
        orders.append(np.log2(e1 / e2))
    el = time.perf_counter() - t0
    _report(
        8, "nonlinear-self-convergence",
        all(o >= 0.9 for o in orders) and el < 30.0,
        f"orders P {orders[0]:.2f}, Q {orders[1]:.2f}, {el:.2f}s",
    )


# --- 9. continuity of dependence --------------------------------------------------


def test_09_continuity_of_dependence():
    t0 = time.perf_counter()

    def vessel(vid, x0, x1):
        return Vessel(id=vid, n_cells=50, x0_node=x0, x1_node=x1,
                      tube_law=STIFF_LAW, alpha=1.1)

    net = Network(
        vessels={
            "p": vessel("p", "in", "j"),
            "c1": vessel("c1", "j", "o1"),
            "c2": vessel("c2", "j", "o2"),
        },
        nodes={
            "in": ExternalPressure("in", ConstantSignal(13000.0)),
            "j": Branching(
                "j",
                (
                    BranchAttachment("p", "x1", 1e-4),
                    BranchAttachment("c1", "x0", 1e-4),
                    BranchAttachment("c2", "x0", 1e-4),
                ),
            ),
            "o1": ExternalPressure("o1", ConstantSignal(13000.0)),
            "o2": ExternalPressure("o2", ConstantSignal(13000.0)),
        },
    )
    cfg = SimConfig(dt=0.5 / (50 * 7.6), t_end=0.06, check_every=100)
    init = InitSpec(
        per_vessel={
            "p": VesselInit(P=lambda x: 13000.0 + 1200.0 * bump(x), Q=0.0),
            "c1": VesselInit(P=13000.0, Q=0.0),
            "c2": VesselInit(P=13000.0, Q=0.0),
        }
    )
    rows = dependence_experiment(
        Scenario(net=net, cfg=cfg, init=init),
        perturb_initial_pressure_sine,
        [1e-3, 1e-4, 1e-5],
    )
    ratios = [r.ratio for r in rows]
    grads = [r.grad_ratio for r in rows]
    spread = max(ratios) / min(ratios) - 1.0
    gspread = max(grads) / min(grads) - 1.0
    el = time.perf_counter() - t0
    _report(
        9, "continuity-of-dependence",
        spread <= 0.10 and gspread <= 0.20 and el < 60.0,
        f"ratio spread {spread:.2e}, gradient spread {gspread:.2e}, {el:.2f}s",
    )


# --- 10. well-posedness gating ------------------------------------------------------


def test_10_wellposedness_gating(tmp_path, capsys):
    t0 = time.perf_counter()
    doc = {
        "vessels": [
            {"id": "v1", "n_cells": 16, "x0": "in", "x1": "out",
             "coefficients": {"a": 1.0, "b": -0.5, "c": 1.0}},
        ],
        "nodes": [
            {"id": "in", "kind": "pressure", "signal": {"kind": "constant", "value": 0.0}},
            {"id": "out", "kind": "flow", "signal": {"kind": "constant", "value": 0.0}},
        ],
        "solver": {"dt": 1e-3, "t_end": 1e-2},
    }
    path = tmp_path / "cond3.json"
    path.write_text(json.dumps(doc))
    code = main(["simulate", str(path), "--check-only"])
    out = capsys.readouterr().out
    el = time.perf_counter() - t0
    ok = (
        code == 2
        and "endpoint_split" in out
        and "under-determined" in out
        and el < 1.0
    )
    with capsys.disabled():
        _report(
            10, "wellposedness-gating", ok,
            f"exit={code}, diagnostic classified={('under-determined' in out)}, {el:.2f}s",
        )
