"""Driver tests: fixed-point stepping, time loop, initial state."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from vesselflow import (
    BranchAttachment,
    Branching,
    ConstantSignal,
    ExternalFlow,
    ExternalPressure,
    InitSpec,
    Network,
    PowerLaw,
    SimConfig,
    SineSignal,
    SyntheticCoefficients,
    Vessel,
    VesselInit,
    WellPosednessFailure,
    initial_state,
    picard_step,
    run,
)

LAW = PowerLaw(C=1e4, R0=1e-3, beta=2.0)


def linear_vessel(n_cells=32, a=1.0, b=1.0, c=0.0, f=0.0, g=0.0, vid="v"):
    return Vessel(
        id=vid, n_cells=n_cells, x0_node="in", x1_node="out",
        synthetic=SyntheticCoefficients(a=a, b=b, c=c, f=f, g=g),
    )


def single_net(vessel, inlet=None, outlet=None):
    return Network(
        vessels={vessel.id: vessel},
        nodes={
            "in": inlet or ExternalPressure("in", ConstantSignal(0.0)),
            "out": outlet or ExternalPressure("out", ConstantSignal(0.0)),
        },
    )


def test_steady_state_converges_in_one_iteration():
    v = linear_vessel(c=0.3)
    P0, Q0 = 2.0, 1.0
    u = np.sqrt(0.3**2 + 1.0)
    # boundary signals matching the steady state
    net = single_net(
        v,
        inlet=ExternalPressure("in", ConstantSignal(P0)),
        outlet=ExternalPressure("out", ConstantSignal(P0)),
    )
    cfg = SimConfig(dt=1e-3, t_end=1.0)
    state0, diags = initial_state(
        net, InitSpec(default=VesselInit(P=P0, Q=Q0)), cfg
    )
    state1, iters, hist = picard_step(state0, cfg)
    assert iters == 1
    assert hist[0] <= 1e-12
    assert np.max(np.abs(state1.fields["v"].P - P0)) <= 1e-12
    assert np.max(np.abs(state1.fields["v"].Q - Q0)) <= 1e-12


def test_linear_problem_two_iterations():
    # state-independent coefficients: the second iterate reproduces the
    # first, so the step equals a single linear solve
    v = linear_vessel(g=0.5)
    net = single_net(v)
    cfg = SimConfig(dt=1e-3, t_end=1.0)
    state0, _ = initial_state(net, InitSpec(default=VesselInit()), cfg)
    state1, iters, hist = picard_step(state0, cfg)
    assert iters == 2
    assert hist[0] > 0  # first pass actually moved the state
    assert hist[1] <= cfg.picard_tol


def test_t_end_zero_echoes_initial_state():
    v = linear_vessel()
    net = single_net(v)
    cfg = SimConfig(dt=1e-3, t_end=0.0)
    state0, _ = initial_state(net, InitSpec(default=VesselInit(P=1.0)), cfg)
    report = run(net, state0, cfg)
    assert report.steps == 0
    assert report.final_state is state0


def test_initial_state_samples_fields():
    v = Vessel(id="v", n_cells=8, x0_node="in", x1_node="out", tube_law=LAW, alpha=1.1)
    net = single_net(
        v, inlet=ExternalPressure("in", ConstantSignal(13000.0)),
        outlet=ExternalPressure("out", ConstantSignal(13000.0)),
    )
    cfg = SimConfig(dt=1e-4, t_end=1.0)
    state, diags = initial_state(net, InitSpec(default=VesselInit(P=13000.0, Q=0.0)), cfg)
    assert np.all(state.fields["v"].P == 13000.0)
    assert diags == []  # boundary signals match the constant state


def test_initial_state_area_floor_violation():
    from vesselflow import CollapsedVesselError

    v = Vessel(id="v", n_cells=8, x0_node="in", x1_node="out", tube_law=LAW, alpha=1.1)
    net = single_net(v)
    cfg = SimConfig(dt=1e-4, t_end=1.0, epsilon0=1e-7)
    with pytest.raises(CollapsedVesselError):
        # P near the law's lower bound collapses the area below the floor
        initial_state(net, InitSpec(default=VesselInit(P=-9999.99, Q=0.0)), cfg)


def test_initial_state_wrong_array_length():
    v = linear_vessel(n_cells=8)
    net = single_net(v)
    cfg = SimConfig(dt=1e-4, t_end=1.0)
    with pytest.raises(ValueError, match="length"):
        initial_state(net, InitSpec(default=VesselInit(P=tuple(range(5)))), cfg)


def test_initial_state_callable_and_compatibility_warning():
    v = linear_vessel(n_cells=16)
    net = single_net(v, inlet=ExternalPressure("in", ConstantSignal(0.0)))
    cfg = SimConfig(dt=1e-4, t_end=1.0)
    # P(0) = 0.05 mismatches the inlet signal 0.0 at the 5% level
    state, diags = initial_state(
        net,
        InitSpec(default=VesselInit(P=lambda x: 0.05 * np.cos(2 * np.pi * x), Q=0.0)),
        cfg,
    )
    assert any(d.severity == "error" for d in diags)  # 5% > 1e-2 threshold


def test_branching_compatibility_residual():
    vessels = {
        "p": linear_vessel(vid="p"),
        "c": linear_vessel(vid="c"),
    }
    vessels["p"] = Vessel(id="p", n_cells=8, x0_node="in", x1_node="j",
                          synthetic=SyntheticCoefficients())
    vessels["c"] = Vessel(id="c", n_cells=8, x0_node="j", x1_node="out",
                          synthetic=SyntheticCoefficients())
    net = Network(
        vessels=vessels,
        nodes={
            "in": ExternalPressure("in", ConstantSignal(1.0)),
            "j": Branching("j", (BranchAttachment("p", "x1", 1e-3),
                                 BranchAttachment("c", "x0", 1e-3))),
            "out": ExternalPressure("out", ConstantSignal(0.0)),
        },
    )
    cfg = SimConfig(dt=1e-4, t_end=1.0)
    # pressure jump across the junction with tiny inertance
    init = InitSpec(per_vessel={
        "p": VesselInit(P=1.0, Q=0.0),
        "c": VesselInit(P=0.0, Q=0.0),
    })
    state, diags = initial_state(net, init, cfg)
    assert any("pressure continuity" in d.message for d in diags)


def test_run_aborts_on_endpoint_condition():
    v = linear_vessel(a=1.0, b=-0.5, c=1.0)  # hyperbolic interior, ab < 0
    net = single_net(v)
    cfg = SimConfig(dt=1e-4, t_end=1e-2)
    state0, _ = initial_state(net, InitSpec(default=VesselInit()), cfg)
    with pytest.raises(WellPosednessFailure) as err:
        run(net, state0, cfg)
    assert "endpoint_split" in str(err.value)


def test_linear_translation_against_exact_solution():
    from vesselflow.verification import oracle_linear_translation

    n = 200
    v = linear_vessel(n_cells=n)
    net = single_net(v)
    t_end = 0.25
    dt = 0.5 / n
    cfg = SimConfig(dt=dt, t_end=t_end)

    def bump(y):
        y = np.asarray(y)
        out = np.zeros_like(y)
        m = (y > 0.2) & (y < 0.5)
        out[m] = np.sin(np.pi * (y[m] - 0.2) / 0.3) ** 2
        return out

    def P0(x):
        return bump(x) / 2.0  # r = bump, s = 0 (u = 1)

    def Q0(x):
        return bump(x) / 2.0  # lambda_R * r / (2 u a)

    state0, _ = initial_state(net, InitSpec(default=VesselInit(P=P0, Q=Q0)), cfg)
    report = run(net, state0, cfg)
    x = v.grid
    r_exact, s_exact = oracle_linear_translation(
        1.0, 1.0, 0.0, bump, lambda y: np.zeros_like(np.asarray(y)), t_end, x,
        r0_support=(0.2, 0.5),
    )
    P_exact = (r_exact - s_exact) / 2.0
    err = np.max(np.abs(report.final_state.fields["v"].P - P_exact))
    # first-order scheme: expected error ~ (T/dt) dx^2 |r''|/8 ~ 0.03
    assert err < 0.05


def test_determinism_bitwise():
    v = Vessel(id="v", n_cells=32, x0_node="in", x1_node="out", tube_law=LAW, alpha=1.1)
    net = single_net(
        v,
        inlet=ExternalPressure("in", SineSignal(mean=13000.0, amplitude=400.0, frequency=5.0)),
        outlet=ExternalPressure("out", ConstantSignal(13000.0)),
    )
    cfg = SimConfig(dt=2e-3, t_end=0.05)
    init = InitSpec(default=VesselInit(P=13000.0, Q=0.0))

    def final():
        state0, _ = initial_state(net, init, cfg)
        return run(net, state0, cfg).final_state

    s1, s2 = final(), final()
    assert np.array_equal(s1.fields["v"].P, s2.fields["v"].P)
    assert np.array_equal(s1.fields["v"].Q, s2.fields["v"].Q)


def test_global_mass_conservation_refines_with_dt():
    # flow inlet and outlet: the change of total volume matches the
    # integrated boundary influx, with error shrinking under refinement
    def mass_error(n, dt_scale):
        v = Vessel(id="v", n_cells=n, x0_node="in", x1_node="out",
                   tube_law=LAW, alpha=1.1)
        q_in = 2e-6
        net = single_net(
            v,
            inlet=ExternalFlow("in", SineSignal(mean=0.0, amplitude=q_in, frequency=4.0)),
            outlet=ExternalFlow("out", ConstantSignal(0.0)),
        )
        dt = dt_scale / n
        cfg = SimConfig(dt=dt, t_end=0.05)
        state0, _ = initial_state(net, InitSpec(default=VesselInit(P=13000.0, Q=0.0)), cfg)

        def areas(state):
            from vesselflow.constitutive import PrimitiveState, coefficients

            f = state.fields["v"]
            cs = coefficients(v, v.grid, state.t, PrimitiveState(f.P, f.Q))
            return np.asarray(cs.A)

        m0 = np.trapezoid(areas(state0), v.grid)
        influx = 0.0
        last = {"t": 0.0, "q": float(state0.fields["v"].Q[0] - state0.fields["v"].Q[-1])}

        def on_step(state):
            nonlocal influx
            q = float(state.fields["v"].Q[0] - state.fields["v"].Q[-1])
            influx += 0.5 * (q + last["q"]) * (state.t - last["t"])
            last["t"], last["q"] = state.t, q

        report = run(net, state0, cfg, on_step=on_step)
        m1 = np.trapezoid(areas(report.final_state), v.grid)
        return abs((m1 - m0) - influx), abs(influx)

    coarse, influx = mass_error(50, 0.05)
    fine, _ = mass_error(100, 0.025)
    assert fine < 0.8 * coarse  # budget error shrinks under refinement
    assert coarse < 0.5 * influx  # and is a fraction of the net influx


def test_transitional_network_end_to_end():
    # artery -> lumped microcirculation -> vein, driven by an inlet
    # pressure step above the venous level: the capacitor gap must relax
    # toward R_C times the through-flow, and capacitor states must stay
    # between the arterial and venous pressures
    from vesselflow import ListSink, ProbeSpec, TransAttachment, Transitional

    law = PowerLaw(C=4e4, R0=1e-3, beta=2.0)
    A0 = np.pi * 1e-6
    R_leg = 2e7  # Pa s / m^3
    node = Transitional(
        "t",
        arteries=(TransAttachment("a", R_leg),),
        veins=(TransAttachment("v", R_leg),),
        R_C=4e7, C1=2e-10, C2=2e-10,
    )
    net = Network(
        vessels={
            "a": Vessel(id="a", n_cells=24, x0_node="in", x1_node="t",
                        tube_law=law, alpha=1.1),
            "v": Vessel(id="v", n_cells=24, x0_node="t", x1_node="out",
                        tube_law=law, alpha=1.1),
        },
        nodes={
            "in": ExternalPressure("in", ConstantSignal(12000.0)),
            "t": node,
            "out": ExternalPressure("out", ConstantSignal(9000.0)),
        },
    )
    cfg = SimConfig(dt=2e-3, t_end=0.6, picard_tol=1e-9, check_every=50)
    init = InitSpec(per_vessel={
        "a": VesselInit(P=12000.0, Q=0.0),
        "v": VesselInit(P=9000.0, Q=0.0),
    })
    state0, diags = initial_state(net, init, cfg)
    sink = ListSink()
    probes = [ProbeSpec(quantities=("P_C1", "P_C2", "Q_C"), node="t")]
    report = run(net, state0, cfg, probes=probes, sink=sink)

    final = report.final_state
    ts = final.transitional["t"]
    q_art = float(final.fields["a"].Q[-1])
    q_vein = float(final.fields["v"].Q[0])
    # near steady state the artery feeds Q_C feeds the vein
    q_c = (ts.P_C1 - ts.P_C2) / node.R_C
    assert q_art == pytest.approx(q_c, rel=2e-2)
    assert q_vein == pytest.approx(q_c, rel=2e-2)
    assert q_c > 0
    assert 9000.0 < ts.P_C2 < ts.P_C1 < 12000.0
    # probes emitted for every step and quantity
    assert len(sink.records) == 3 * report.steps
    # base dt violates the Courant bound; the driver halves and completes
    v = linear_vessel(n_cells=16)  # lambda = 1, dx = 1/16
    net = single_net(v)
    cfg = SimConfig(dt=0.1, t_end=0.4)  # needs dt <= 0.9/16
    state0, _ = initial_state(net, InitSpec(default=VesselInit()), cfg)
    report = run(net, state0, cfg)
    assert report.dt_adjustments >= 1
    assert report.final_state.t == pytest.approx(0.4, abs=1e-12)


def bifurcation_case(steps=10):
    from pathlib import Path

    from vesselflow.config import load_config

    loaded = load_config(Path(__file__).resolve().parents[1] / "configs" / "bifurcation.json")
    return loaded.net, loaded.init, dataclasses.replace(loaded.sim, t_end=steps * loaded.sim.dt)


def branching_node(nid, parent, *children):
    return Branching(nid, (BranchAttachment(parent, "x1", 1e-4),)
                     + tuple(BranchAttachment(c, "x0", 1e-4) for c in children))


def transitional_node(nid, arteries, veins):
    from vesselflow import TransAttachment, Transitional

    return Transitional(nid, tuple(TransAttachment(a, 2e7) for a in arteries),
                        tuple(TransAttachment(v, 2e7) for v in veins), R_C=4e7, C1=2e-10, C2=2e-10,
                        P_C1_init=12000.0, P_C2_init=9000.0)


def junction_case(wiring, nodes, veins):
    """A network of 12-cell power-law vessels wired {id: (x0 node, x1
    node)}, a pressure pulse in every vessel but the veins (at rest at
    9 kPa), and settings for 15 steps."""
    law = PowerLaw(C=4e4, R0=3e-3, beta=2.0)
    vessels = {
        vid: Vessel(id=vid, n_cells=12, x0_node=x0, x1_node=x1, tube_law=law, alpha=1.1)
        for vid, (x0, x1) in wiring.items()
    }

    def pulse(x):
        return 12000.0 + 1500.0 * np.where((x > 0.2) & (x < 0.6), np.sin(np.pi * (x - 0.2) / 0.4) ** 2, 0.0)

    init = InitSpec(
        default=VesselInit(P=pulse, Q=0.0),
        per_vessel={v: VesselInit(P=9000.0, Q=0.0) for v in veins},
    )
    return Network(vessels=vessels, nodes=nodes), init, SimConfig(dt=2e-3, t_end=0.03, check_every=5)


def mixed_junction_case():
    """Three- and four-way branching nodes and transitional nodes with
    one and two arteries: four junction groups, one holding two nodes."""
    wiring = {
        "A": ("in", "j1"), "B": ("j1", "j2"), "C": ("j1", "j3"), "D": ("j2", "t1"),
        "E": ("j2", "t2"), "F": ("j2", "t2"), "G": ("j3", "oG"), "H": ("j3", "oH"),
        "V1": ("t1", "o1"), "V2": ("t2", "o2"),
    }
    nodes = {
        "in": ExternalPressure("in", SineSignal(mean=12000.0, amplitude=800.0, frequency=5.0)),
        "j1": branching_node("j1", "A", "B", "C"),
        "j2": branching_node("j2", "B", "D", "E", "F"),
        "j3": branching_node("j3", "C", "G", "H"),
        "t1": transitional_node("t1", ("D",), ("V1",)),
        "t2": transitional_node("t2", ("E", "F"), ("V2",)),
        "oG": ExternalPressure("oG", ConstantSignal(12000.0)),
        "oH": ExternalFlow("oH", ConstantSignal(0.0)),
        "o1": ExternalPressure("o1", ConstantSignal(9000.0)),
        "o2": ExternalPressure("o2", ConstantSignal(9000.0)),
    }
    return junction_case(wiring, nodes, veins=("V1", "V2"))


def varied_pattern_case():
    """Two three-way branching nodes and two three-end transitional
    nodes, each pair one group whose nodes differ in end pattern: j1
    lists its incoming end first and j2 last (its incoming vessel Z
    sorts after its children), tA has two arteries and a vein, tB a vein,
    an artery and a vein."""
    wiring = {
        "A": ("in", "j1"), "B": ("j1", "tA"), "C": ("j1", "tA"), "W": ("tA", "oW"),
        "Z": ("in2", "j2"), "Ka": ("j2", "tB"), "L": ("j2", "oL"), "Jv": ("tB", "oJ"),
        "Mv": ("tB", "oM"),
    }
    nodes = {
        "in": ExternalPressure("in", SineSignal(mean=12000.0, amplitude=800.0, frequency=5.0)),
        "in2": ExternalPressure("in2", SineSignal(mean=12000.0, amplitude=-600.0, frequency=7.0)),
        "j1": branching_node("j1", "A", "B", "C"),
        "j2": branching_node("j2", "Z", "Ka", "L"),
        "tA": transitional_node("tA", ("B", "C"), ("W",)),
        "tB": transitional_node("tB", ("Ka",), ("Jv", "Mv")),
        "oL": ExternalPressure("oL", ConstantSignal(12000.0)),
        **{o: ExternalPressure(o, ConstantSignal(9000.0)) for o in ("oW", "oJ", "oM")},
    }
    return junction_case(wiring, nodes, veins=("W", "Jv", "Mv"))


def run_against_closure_oracle(monkeypatch, net, init, cfg):
    """Run, checking every closure pass against the per-node oracle
    solve_systems(assemble_*(...)) built from the same frozen data.
    Returns the report and the closure passes, nodes and values checked."""
    import vesselflow.solver as solver_mod
    from vesselflow.constitutive import CoefficientSet, EigenData
    from vesselflow.junctions import solve_systems
    from vesselflow.verification import (
        EndpointClosureInput,
        assemble_branching,
        assemble_transitional,
    )
    from vesselflow.network import Transitional, endpoints_by_node, node_attachments

    real_step, real_close = solver_mod.picard_step, solver_mod._close_nodes
    junctions = {nid: n for nid, n in net.nodes.items() if isinstance(n, (Branching, Transitional))}
    ends_by_node = endpoints_by_node(net)
    step, seen, batched, oracle = {}, {"passes": 0, "nodes": 0}, [], []

    def recording_step(state_prev, cfg, dt, **kw):
        step.update(prev=state_prev, dt=dt)
        return real_step(state_prev, cfg, dt, **kw)

    def checked_close(cn, frozen, upd, *args):
        P, Q, P_C1, P_C2, P_junc = args[-5:]
        residual = real_close(cn, frozen, upd, *args)
        pressures = dict(zip(cn.junctions.branching, P_junc))
        trans = {nid: (p1, p2) for nid, p1, p2 in zip(cn.junctions.transitional, P_C1, P_C2)}
        prev, dt = step["prev"], step["dt"]
        cs, eig = frozen.new.coeffs, frozen.new.eig
        for nid, node in junctions.items():
            params = {(vid, end): p for vid, end, p in node_attachments(node)}
            inputs, points = [], []
            for vid, end, _ in ends_by_node[nid]:
                k = cn.vessel_ids.index(vid)
                pt = int(cn.last[k] if end == "x1" else cn.first[k])
                row = 2 * k + (end == "x1")  # the end's entry of upd.ends
                at = {name: float(np.asarray(getattr(cs, name))[pt]) for name in "abcfgA"}
                inputs.append(EndpointClosureInput(
                    vessel_id=vid, end=end, coeffs=CoefficientSet(**at),
                    eig=EigenData(float(eig.lambda_R[pt]), float(eig.lambda_L[pt]), float(eig.u[pt])),
                    char_value=float(upd.ends.known[row]),
                    q_prev=float(prev.fields[vid].Q[-1 if end == "x1" else 0]),
                    rho_j=params[(vid, end)] if isinstance(node, Branching) else None,
                    resistance=None if isinstance(node, Branching) else params[(vid, end)],
                    kP=float(upd.ends.kP[row]), kQ=float(upd.ends.kQ[row]),
                ))
                points.append((vid, end, pt))
            if isinstance(node, Branching):
                M, b = assemble_branching(node, inputs, dt)
                batched.append(pressures[nid])
            else:
                M, b = assemble_transitional(node, inputs, prev.transitional[nid], dt)
                batched.extend(trans[nid])
            x = solve_systems(M[None], b[None], (nid,))[0][0].tolist()
            oracle.extend(x[2 * len(points):])  # P_junc, or P_C1 and P_C2
            for k, (vid, end, pt) in enumerate(points):
                batched.extend((P[pt], Q[pt]))
                oracle.extend(x[2 * k : 2 * k + 2])
            seen["nodes"] += 1
        seen["passes"] += 1
        return residual

    monkeypatch.setattr(solver_mod, "picard_step", recording_step)
    monkeypatch.setattr(solver_mod, "_close_nodes", checked_close)
    state0, _ = initial_state(net, init, cfg)
    report = run(net, state0, cfg)
    # bit for bit, signed zeros included
    same = np.array(batched).view(np.int64) == np.array(oracle).view(np.int64)
    assert same.all(), f"{np.count_nonzero(~same)} of {same.size} values differ"
    return report, seen, len(batched)


def test_batched_closures_equal_per_node_oracle_on_bifurcation(monkeypatch):
    # the shipped bifurcation: one branching and one transitional node
    report, seen, values = run_against_closure_oracle(monkeypatch, *bifurcation_case())
    assert report.steps == 10 and report.dt_adjustments == 0
    assert report.picard_total > report.steps  # the physical model iterates
    assert seen["passes"] == report.picard_total
    assert seen["nodes"] == 2 * report.picard_total
    assert values == (7 + 6) * report.picard_total


def test_batched_closures_equal_per_node_oracle_on_mixed_groups(monkeypatch):
    from vesselflow.compiled import compile_network

    net, init, cfg = mixed_junction_case()
    groups = compile_network(net).junctions.groups
    assert sorted((g.kind.__name__, len(g.node_ids), g.ends.shape[1]) for g in groups) == [
        ("Branching", 1, 4), ("Branching", 2, 3), ("Transitional", 1, 2), ("Transitional", 1, 3),
    ]
    report, seen, _ = run_against_closure_oracle(monkeypatch, net, init, cfg)
    assert report.steps == 15 and report.picard_total > report.steps
    assert seen["passes"] == report.picard_total
    assert seen["nodes"] == 5 * report.picard_total
    # flow runs through every junction (pulse flows are about 1e-6 m^3/s)
    final = report.final_state.fields
    assert all(abs(final[v].Q[0]) > 1e-8 for v in ("B", "C", "D", "E", "G", "H", "V1", "V2"))


def test_batched_closures_equal_per_node_oracle_on_varied_end_patterns(monkeypatch):
    from vesselflow.compiled import compile_network

    net, init, cfg = varied_pattern_case()
    groups = compile_network(net).junctions.groups
    assert sorted((g.kind.__name__, g.node_ids) for g in groups) == [
        ("Branching", ("j1", "j2")), ("Transitional", ("tA", "tB")),
    ]
    # within each group the nodes' in/out (artery/vein) patterns differ
    assert all(len({tuple(row) for row in g.sign}) == 2 for g in groups)
    report, seen, _ = run_against_closure_oracle(monkeypatch, net, init, cfg)
    assert report.steps == 15 and report.picard_total > report.steps
    assert seen["passes"] == report.picard_total
    assert seen["nodes"] == 4 * report.picard_total
    final = report.final_state.fields
    assert all(abs(final[v].Q[0]) > 1e-8 for v in net.vessels)


def test_report_records_closure_residual_and_junction_condition():
    net, init, cfg = bifurcation_case()
    state0, _ = initial_state(net, init, cfg)
    report = run(net, state0, cfg)
    assert report.steps == 10
    assert 0.0 <= report.worst_closure_residual <= 1e-10
    assert np.isfinite(report.worst_junction_condition)
    assert 1.0 <= report.worst_junction_condition < 1e12
    assert report.worst_junction_node in ("fork", "micro")


def test_record_junctions_keeps_the_first_of_equal_estimates():
    from vesselflow.solver import SimReport
    from vesselflow.wellposedness import check_state

    net, init, cfg = bifurcation_case()
    base = check_state(initial_state(net, init, cfg)[0], cfg)
    report = SimReport()
    for nodes, estimates in (
        (("a", "b", "c"), [2.0, 5.0, 5.0]),
        (("d", "e", "f"), [5.0, 1.0, 5.0]),  # equal to the worst so far: kept
        (("g", "h", "i"), [np.nan, 3.0, 3.0]),
    ):
        rep = dataclasses.replace(base, junction_nodes=nodes, junction_estimates=np.array(estimates))
        report.record_junctions(rep)
        assert (report.worst_junction_node, report.worst_junction_condition) == ("b", 5.0)
    rep = dataclasses.replace(base, junction_nodes=("j", "k"), junction_estimates=np.array([np.nan, 6.0]))
    report.record_junctions(rep)
    assert (report.worst_junction_node, report.worst_junction_condition) == ("k", 6.0)


def test_report_summaries_stay_bounded():
    v = Vessel(id="v", n_cells=16, x0_node="in", x1_node="out", tube_law=LAW, alpha=1.1)
    net = single_net(
        v,
        inlet=ExternalPressure("in", SineSignal(mean=13000.0, amplitude=400.0, frequency=5.0)),
        outlet=ExternalPressure("out", ConstantSignal(13000.0)),
    )
    cfg = SimConfig(dt=2e-3, t_end=0.2, check_every=5)
    state0, _ = initial_state(net, InitSpec(default=VesselInit(P=13000.0, Q=0.0)), cfg)
    report = run(net, state0, cfg)
    assert report.steps == 100
    assert sum(report.iteration_histogram.values()) == report.steps
    assert sum(k * n for k, n in report.iteration_histogram.items()) == report.picard_total
    assert report.full_checks == 1 + report.steps // 5
    assert report.non_contracting_pairs == 0 and 0.0 < report.worst_contraction_ratio < 1.0
    # nothing grows with the step count: scalars plus a histogram keyed
    # by iteration count (at most picard_max_iters keys)
    rest = {k: v for k, v in vars(report).items() if k not in ("final_state", "iteration_histogram")}
    assert all(isinstance(v, (int, float, str)) for v in rest.values())
    assert max(report.iteration_histogram) <= cfg.picard_max_iters


# --- tabulated tube laws ------------------------------------------------------


def tabulated_from_power(law, radii, stations=(0.0,)):
    from vesselflow import TabulatedLaw

    row = law.C * ((np.asarray(radii) / law.R0) ** law.beta - 1.0)
    return TabulatedLaw(radii=radii, pressures=[row] * len(stations), x_stations=stations)


def pulse_run(law, n=40, t_end=0.01, P0=8000.0):
    v = Vessel(id="v", n_cells=n, x0_node="in", x1_node="out", tube_law=law, alpha=1.1)
    net = single_net(
        v,
        inlet=ExternalPressure("in", ConstantSignal(P0)),
        outlet=ExternalPressure("out", ConstantSignal(P0)),
    )
    cfg = SimConfig(dt=0.5 / (n * 7.2), t_end=t_end, check_every=10)  # CFL 0.5

    def bump(x):
        return np.where((x > 0.2) & (x < 0.6), np.sin(np.pi * (x - 0.2) / 0.4) ** 2, 0.0)

    init = InitSpec(default=VesselInit(P=lambda x: P0 + 1500.0 * bump(x), Q=0.0))
    state0, diags = initial_state(net, init, cfg)
    assert not [d for d in diags if d.severity == "error"]
    return run(net, state0, cfg)


@pytest.mark.parametrize("stations", [(0.0,), (0.0, 1.0)])
def test_tabulated_vessel_runs(stations):
    stiff = PowerLaw(C=4e4, R0=1e-3, beta=2.0)
    radii = np.linspace(0.9e-3, 1.4e-3, 26)
    law = tabulated_from_power(stiff, radii, stations)
    if len(stations) == 2:
        # stiffer toward x=1, so the dA/dx term of g is not zero
        law = type(law)(radii=radii, pressures=[law.pressures[0], 1.2 * law.pressures[0]],
                        x_stations=stations)
    report = pulse_run(law)
    f = report.final_state.fields["v"]
    assert report.steps > 0 and report.dt_adjustments == 0
    assert np.all(np.isfinite(f.P)) and np.all(np.isfinite(f.Q))
    assert f.P[0] == 8000.0 and f.P[-1] == 8000.0
    assert np.max(np.abs(f.Q)) > 0.0


def test_tabulated_law_reproduces_power_law_run():
    # oracle: a tabulated law sampled densely from a power law follows
    # the power-law run to interpolation accuracy
    stiff = PowerLaw(C=4e4, R0=1e-3, beta=2.0)
    exact = pulse_run(stiff).final_state.fields["v"]
    errors = []
    for k in (51, 201):
        law = tabulated_from_power(stiff, np.linspace(0.9e-3, 1.4e-3, k))
        f = pulse_run(law).final_state.fields["v"]
        errors.append(np.max(np.abs(f.P - exact.P)) / 1500.0)
        assert np.max(np.abs(f.Q - exact.Q)) <= 1e-4 * np.max(np.abs(exact.Q))
    assert errors[1] <= 5e-6
    assert errors[1] < 0.25 * errors[0]  # and it shrinks as the samples refine


# --- extrapolated start ---------------------------------------------------


def constant_start_run(monkeypatch, net, init, cfg):
    """`run` with every step started from the previous level."""
    import vesselflow.solver as solver_mod

    with monkeypatch.context() as m:
        m.setattr(solver_mod, "_extrapolate", lambda levels: None)
        return run(net, initial_state(net, init, cfg)[0], cfg)


def flat_fields(state):
    return {vid: np.concatenate((f.P, f.Q)) for vid, f in state.fields.items()}


def same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


def test_extrapolated_start_cuts_iterations(monkeypatch):
    # the shipped 1000 steps; over the first 200 from rest, under an
    # inlet sine whose time derivative jumps at t = 0, the ratio is only
    # about 0.8
    net, init, cfg = bifurcation_case(steps=1000)
    shipped = run(net, initial_state(net, init, cfg)[0], cfg)
    constant = constant_start_run(monkeypatch, net, init, cfg)
    assert shipped.steps == constant.steps == 1000
    assert shipped.dt_adjustments == constant.dt_adjustments == 0
    assert shipped.picard_total <= 0.75 * constant.picard_total
    assert shipped.picard_total <= 2.6 * shipped.steps
    # every step but the first (one level) and the last, shorter one
    assert shipped.extrapolated_steps == shipped.steps - 2
    assert shipped.extrapolation_retries == 0
    assert constant.extrapolated_steps == constant.extrapolation_retries == 0
    assert shipped.non_contracting_pairs == 0 and shipped.median_iterations() <= 5
    new, old = flat_fields(shipped.final_state), flat_fields(constant.final_state)
    for vid in old:
        scale = np.max(np.abs(old[vid]).reshape(2, -1), axis=1, keepdims=True)
        assert np.all(np.abs(new[vid] - old[vid]).reshape(2, -1) <= 1e-8 * scale), vid
    for nid, ts in constant.final_state.transitional.items():
        got = shipped.final_state.transitional[nid]
        assert abs(got.P_C1 - ts.P_C1) <= 1e-8 * abs(ts.P_C1)
        assert abs(got.P_C2 - ts.P_C2) <= 1e-8 * abs(ts.P_C2)


def test_constant_start_run_equals_picard_step_without_start(monkeypatch):
    # the step-by-step path with no initial iterate, as `run` takes it
    net, init, cfg = bifurcation_case(steps=200)
    constant = constant_start_run(monkeypatch, net, init, cfg)
    state, total = initial_state(net, init, cfg)[0], 0
    while state.t < cfg.t_end - 1e-12 * max(1.0, cfg.t_end):
        state, iters, _ = picard_step(state, cfg, min(cfg.dt, cfg.t_end - state.t))
        total += iters
    assert constant.steps == 200 and total == constant.picard_total
    final = constant.final_state
    assert state.t == final.t
    new, old = flat_fields(final), flat_fields(state)
    assert all(same_bits(new[vid], old[vid]) for vid in old)
    assert final.transitional == state.transitional
    assert final.junction_pressures == state.junction_pressures


def test_picard_step_start_at_previous_level_is_the_default():
    net, init, cfg = bifurcation_case()
    state0 = initial_state(net, init, cfg)[0]
    state1, _, _ = picard_step(state0, cfg)
    base, iters, hist = picard_step(state1, cfg)
    got, got_iters, got_hist = picard_step(state1, cfg, start=state1)
    assert (got_iters, got_hist) == (iters, hist)
    assert all(same_bits(flat_fields(got)[v], flat_fields(base)[v]) for v in net.vessels)
    assert got.transitional == base.transitional


@pytest.mark.parametrize(
    "case, message",
    [
        ("missing vessel", "no field for vessel 'parent'"),
        ("unknown vessel", "field for unknown vessel 'extra'"),
        ("short field", r"vessel 'parent': field of 40 points, expected n_cells \+ 1 = 41"),
        ("missing node", "no transitional state for node 'micro'"),
        ("unknown node", "transitional state for unknown node 'fork'"),
    ],
)
def test_from_fields_rejects_malformed_states(case, message):
    from vesselflow import NetworkState
    from vesselflow.characteristics import VesselField
    from vesselflow.junctions import TransitionalState

    net, init, cfg = bifurcation_case()
    state = initial_state(net, init, cfg)[0]
    fields, transitional = state.fields, state.transitional
    again = NetworkState.from_fields(net, state.t, fields, transitional)
    assert same_bits(again.P, state.P) and same_bits(again.Q, state.Q)
    assert again.transitional == transitional
    if case == "missing vessel":
        del fields["parent"]
    elif case == "unknown vessel":
        fields["extra"] = fields["parent"]
    elif case == "short field":
        f = fields["parent"]
        fields["parent"] = VesselField("parent", f.t, f.P[:-1], f.Q[:-1])
    elif case == "missing node":
        del transitional["micro"]
    else:
        transitional["fork"] = TransitionalState(0.0, 0.0)
    with pytest.raises(ValueError, match=message):
        NetworkState.from_fields(net, state.t, fields, transitional)


def test_run_rejects_a_state_built_on_another_network():
    net, init, cfg = bifurcation_case()
    state = initial_state(net, init, cfg)[0]
    other, _, _ = bifurcation_case()
    with pytest.raises(ValueError, match="not built on this network"):
        run(other, state, cfg)


def test_extrapolation_outside_the_tube_law_is_retried_from_the_constant_start(monkeypatch):
    import vesselflow.solver as solver_mod

    net, init, cfg = bifurcation_case(steps=50)
    constant = constant_start_run(monkeypatch, net, init, cfg)

    def outside(levels):
        # below P = -C the power law has no radius
        return dataclasses.replace(levels[-1], P=np.full_like(levels[-1].P, -1e6))

    monkeypatch.setattr(solver_mod, "_extrapolate", outside)
    report = run(net, initial_state(net, init, cfg)[0], cfg)
    assert report.steps == constant.steps == 50
    assert report.extrapolation_retries == report.steps
    assert report.extrapolated_steps == 0
    assert report.picard_total == constant.picard_total
    assert report.iteration_histogram == constant.iteration_histogram
    assert report.worst_closure_residual == constant.worst_closure_residual
    new, old = flat_fields(report.final_state), flat_fields(constant.final_state)
    assert all(same_bits(new[vid], old[vid]) for vid in old)
    assert report.final_state.transitional == constant.final_state.transitional


def test_constant_start_after_every_dt_change(monkeypatch):
    import vesselflow.solver as solver_mod
    from vesselflow import CFLViolation

    net, init, cfg = bifurcation_case(steps=30)
    real_step, real_extrapolate = solver_mod.picard_step, solver_mod._extrapolate
    calls, levels_used = [], []

    def failing_once_at_base_dt(state_prev, cfg_, dt, **kw):
        calls.append((dt, kw.get("start") is not None))
        if abs(state_prev.t - 5 * cfg.dt) < 1e-9 and dt == cfg.dt:
            raise CFLViolation("forced")
        return real_step(state_prev, cfg_, dt, **kw)

    def counting_extrapolate(levels):
        levels_used.append(len(levels))
        return real_extrapolate(levels)

    monkeypatch.setattr(solver_mod, "picard_step", failing_once_at_base_dt)
    monkeypatch.setattr(solver_mod, "_extrapolate", counting_extrapolate)
    report = run(net, initial_state(net, init, cfg)[0], cfg)
    h = cfg.dt / 2
    assert report.dt_adjustments == 1 and report.extrapolation_retries == 1
    # constant, linear, then quadratic after every dt change
    assert levels_used[:8] == [1, 2, 3, 3, 3, 3, 1, 2]
    assert levels_used[8:19] == [3] * 8 + [1, 2, 3]
    assert calls[:5] == [(cfg.dt, False), (cfg.dt, True), (cfg.dt, True), (cfg.dt, True), (cfg.dt, True)]
    # the failing step from its quadratic start, its retry from the
    # constant start, then ten clean steps at dt/2 and the restored dt
    assert calls[5:8] == [(cfg.dt, True), (cfg.dt, False), (h, False)]
    assert calls[8:17] == [(h, True)] * 9
    assert calls[17:19] == [(cfg.dt, False), (cfg.dt, True)]
    assert report.extrapolated_steps == sum(started for _, started in calls) - 1


# --- one coefficient evaluation per time level ------------------------------

BIFURCATION = Path(__file__).resolve().parents[1] / "configs" / "bifurcation.json"


def test_one_coefficient_evaluation_per_time_level(monkeypatch):
    # each fixed-point iterate is evaluated once, and each accepted level
    # once more: its checks, its probes and the next step's old level
    # read the level's cached coefficients
    import sys

    import vesselflow.compiled as compiled
    from vesselflow.config import load_config
    from vesselflow.output import ListSink

    real, calls = compiled.layout_coefficients, []

    def counted(*args, **kw):
        calls.append(args[1])
        return real(*args, **kw)

    for name, module in list(sys.modules.items()):
        if name.startswith("vesselflow") and getattr(module, "layout_coefficients", None) is real:
            monkeypatch.setattr(module, "layout_coefficients", counted)
    loaded = load_config(BIFURCATION)
    state, _ = initial_state(loaded.net, loaded.init, loaded.sim)
    report = run(loaded.net, state, loaded.sim, probes=loaded.probes, sink=ListSink())
    assert report.steps == 1000 and not report.extrapolation_retries and not report.dt_adjustments
    assert len(calls) == report.picard_total + report.steps + 1


def test_network_state_arrays_are_read_only():
    from vesselflow.config import load_config

    loaded = load_config(BIFURCATION)
    state, _ = initial_state(loaded.net, loaded.init, loaded.sim)
    state = picard_step(state, loaded.sim)[0]
    for name in ("P", "Q", "P_C1", "P_C2", "P_junc"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(state, name)[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        state.fields["parent"].P[0] = 1.0
