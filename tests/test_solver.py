"""Driver tests: fixed-point stepping, time loop, initial state."""

import dataclasses
import re
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


def test_a_non_finite_iterate_never_converges(monkeypatch):
    # one NaN pressure inside the vessel makes the deviation NaN, which
    # must fail the tolerance instead of passing as zero change
    import vesselflow.solver as solver_mod
    from vesselflow import PicardDivergence

    real = solver_mod.from_riemann

    def poisoned(*args):
        st = real(*args)
        st.P[5] = np.nan
        return st

    monkeypatch.setattr(solver_mod, "from_riemann", poisoned)
    net = single_net(linear_vessel(n_cells=10))
    cfg = SimConfig(dt=1e-3, t_end=1.0, picard_max_iters=3)
    state0, _ = initial_state(net, InitSpec(default=VesselInit()), cfg)
    with pytest.raises(PicardDivergence) as exc:
        picard_step(state0, cfg)
    assert len(exc.value.deviations) == 1 and np.all(np.isnan(exc.value.deviations))


def test_a_non_finite_iterate_fails_on_its_first_pass(monkeypatch):
    # g = 1e308 inside the vessel overflows the source sum; the first
    # NaN deviation ends each step, so the run fails after one pass per
    # dt halving and names the first non-finite point
    import vesselflow.solver as solver_mod
    from vesselflow import SimulationError

    passes = []
    real = solver_mod._deviation

    def counted(*args):
        passes.append(1)
        return real(*args)

    monkeypatch.setattr(solver_mod, "_deviation", counted)
    g = lambda x, t: np.where((x > 0.3) & (x < 0.7), 1e308, 0.0)  # noqa: E731
    net = single_net(linear_vessel(n_cells=20, g=g))
    cfg = SimConfig(dt=1e-3, t_end=0.01)
    state0, _ = initial_state(net, InitSpec(default=VesselInit()), cfg)
    with pytest.raises(SimulationError, match=r"after 10 dt halvings") as exc:
        run(net, state0, cfg)
    assert len(passes) == 11
    assert "vessel 'v'" in str(exc.value)
    # the first non-finite point lies where g overflows, 0.3 < x < 0.7
    at = re.search(r"x-index (\d+)", str(exc.value))
    assert at and 0.3 < net.vessels["v"].grid[int(at.group(1))] < 0.7


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


def test_median_iterations_is_the_median_of_the_histogram():
    from vesselflow.solver import SimReport

    report = SimReport()
    assert np.isnan(report.median_iterations())  # no steps, and no empty-slice warning
    for iters in (3, 1, 3, 2):
        report.record_step(iters, [])
    assert report.median_iterations() == 2.5 == np.median([3, 1, 3, 2])
    report.record_step(1, [])
    assert report.median_iterations() == 2.0


def joined_net(node):
    """Synthetic vessels 'a' (in -> node) and 'v' (node -> out) joined
    at a branching or transitional node, zero pressure at both outer ends."""
    return Network(
        vessels={
            "a": Vessel(id="a", n_cells=8, x0_node="in", x1_node=node.id,
                        synthetic=SyntheticCoefficients()),
            "v": Vessel(id="v", n_cells=8, x0_node=node.id, x1_node="out",
                        synthetic=SyntheticCoefficients()),
        },
        nodes={
            "in": ExternalPressure("in", ConstantSignal(0.0)),
            node.id: node,
            "out": ExternalPressure("out", ConstantSignal(0.0)),
        },
    )


def compatibility_cases():
    from vesselflow import TransAttachment, Transitional

    fork = joined_net(Branching("j", (BranchAttachment("a", "x1", 1e-3),
                                      BranchAttachment("v", "x0", 1e-3))))
    bed = joined_net(Transitional("t", arteries=(TransAttachment("a", 10.0),),
                                  veins=(TransAttachment("v", 10.0),), R_C=1e3, C1=1e-3, C2=1e-3))
    inflow = single_net(linear_vessel(n_cells=8), inlet=ExternalFlow("in", ConstantSignal(0.0)))

    def init(Q_a, Q_v=0.0):
        return InitSpec(per_vessel={"a": VesselInit(Q=Q_a), "v": VesselInit(Q=Q_v)})

    # each initial state breaks one compatibility relation and no other;
    # a relative residual of 1e-2 or more is an error, of 1e-6 or more a warning
    return [
        (fork, init(1.0), "error", "j", "initial flow balance residual 1.000e+00"),
        (fork, init(1e-4), "warning", "j", "initial flow balance residual 1.000e-04"),
        # artery: R Q = P - P_C1 at x=1, with P_C1 seeded from the artery's P
        (bed, init(0.5), "error", "t", "initial artery a resistive relation residual 5.000e+00"),
        # vein: R Q = P_C2 - P at x=0
        (bed, init(0.0, 1e-5), "warning", "t", "initial vein v resistive relation residual 1.000e-04"),
        (inflow, InitSpec(default=VesselInit(Q=0.02)), "error", "in",
         "initial boundary flow residual 2.000e-02"),
    ]


@pytest.mark.parametrize("net, init, severity, subject, message", compatibility_cases(),
                         ids=["flow-balance", "flow-balance-warning", "artery-resistive",
                              "vein-resistive-warning", "boundary-flow"])
def test_initial_state_reports_each_compatibility_residual(net, init, severity, subject, message):
    _, diags = initial_state(net, init, SimConfig(dt=1e-3, t_end=1.0))
    assert [(d.severity, d.subject) for d in diags] == [(severity, subject)]
    assert diags[0].message == message


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


def test_run_rejects_a_network_that_fails_validation():
    # a network built in code skips parse_config's validation; run repeats it
    from vesselflow import Network, WellPosednessFailure

    net, init, cfg = bifurcation_case()
    fork = net.nodes["fork"]
    atts = tuple(dataclasses.replace(a, rho_j=-1.0) for a in fork.attachments)
    bad = Network(vessels=net.vessels, nodes={**net.nodes, "fork": dataclasses.replace(fork, attachments=atts)})
    state0 = initial_state(bad, init, cfg)[0]
    with pytest.raises(WellPosednessFailure, match="^network validation failed: fork: inertance rho_j"):
        run(bad, state0, cfg)


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
    one and two arteries: junction systems of 6 to 9 unknowns, two of
    them (j1, j3) of one kind and size."""
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
    nodes, each pair of one kind and size but of two end patterns: j1
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


def binary_tree_case():
    """A depth-3 binary tree: three three-way branching nodes, and two
    of its four leaves end at transitional nodes of one artery and one
    vein."""
    wiring = {
        "r": ("in", "j"), "r0": ("j", "j0"), "r1": ("j", "j1"), "r00": ("j0", "t00"),
        "r01": ("j0", "t01"), "r10": ("j1", "o10"), "r11": ("j1", "o11"),
        "V00": ("t00", "oV00"), "V01": ("t01", "oV01"),
    }
    nodes = {
        "in": ExternalPressure("in", SineSignal(mean=12000.0, amplitude=800.0, frequency=5.0)),
        "j": branching_node("j", "r", "r0", "r1"),
        "j0": branching_node("j0", "r0", "r00", "r01"),
        "j1": branching_node("j1", "r1", "r10", "r11"),
        "t00": transitional_node("t00", ("r00",), ("V00",)),
        "t01": transitional_node("t01", ("r01",), ("V01",)),
        **{o: ExternalPressure(o, ConstantSignal(12000.0)) for o in ("o10", "o11")},
        **{o: ExternalPressure(o, ConstantSignal(9000.0)) for o in ("oV00", "oV01")},
    }
    return junction_case(wiring, nodes, veins=("V00", "V01"))


def stacked_nodes(net):
    """(node id, kind, end count, incoming flag per end) of each junction
    node of net, in the order of its layout's stack."""
    from vesselflow.compiled import compile_network
    from vesselflow.network import endpoints_by_node

    ends = endpoints_by_node(net)
    return [
        (nid, type(net.nodes[nid]).__name__, len(ends[nid]), tuple(end == "x1" for _, end, _ in ends[nid]))
        for nid in compile_network(net).junctions.nodes
    ]


def run_against_closure_oracle(monkeypatch, net, init, cfg):
    """Run, checking every closure pass against the per-node oracle
    solve_node(assemble_*(...)) built from the same frozen data and
    padded to the layout's stack size.
    Returns the report and the closure passes, nodes and values checked."""
    import vesselflow.solver as solver_mod
    from vesselflow.constitutive import CoefficientSet, EigenData
    from vesselflow.verification import (
        EndpointClosureInput,
        assemble_branching,
        assemble_transitional,
        solve_node,
    )
    from vesselflow.network import Transitional, endpoints_by_node, node_attachments

    real_step, real_close = solver_mod.picard_step, solver_mod._close_nodes
    junctions = {nid: n for nid, n in net.nodes.items() if isinstance(n, (Branching, Transitional))}
    ends_by_node = endpoints_by_node(net)
    step, seen, batched, oracle = {}, {"passes": 0, "nodes": 0}, [], []

    def recording_step(state_prev, cfg, dt, **kw):
        step.update(prev=state_prev, dt=dt)
        return real_step(state_prev, cfg, dt, **kw)

    def checked_close(cn, frozen, *args):
        P, Q, P_C1, P_C2, P_junc = args[-5:]
        residual = real_close(cn, frozen, *args)
        pressures = dict(zip(cn.junctions.branching, P_junc))
        trans = {nid: (p1, p2) for nid, p1, p2 in zip(cn.junctions.transitional, P_C1, P_C2)}
        prev, dt = step["prev"], step["dt"]
        cs, eig = frozen.new.coeffs, frozen.new.eig
        for nid, node in junctions.items():
            params = {(vid, end): p for vid, end, p in node_attachments(node)}
            inputs, points = [], []
            for vid, end, _ in ends_by_node[nid]:
                k = cn.vessel_ids.index(vid)
                pt = int(cn.ends[2 * k + 1] if end == "x1" else cn.first[k])
                row = 2 * k + (end == "x1")  # the end's entry of the endpoint rows
                at = {name: float(np.asarray(getattr(cs, name))[pt]) for name in "abcfgA"}
                inputs.append(EndpointClosureInput(
                    vessel_id=vid, end=end, coeffs=CoefficientSet(**at),
                    eig=EigenData(float(eig.lambda_R[pt]), float(eig.lambda_L[pt]), float(eig.u[pt])),
                    char_value=float(frozen.known[row]),
                    q_prev=float(prev.fields[vid].Q[-1 if end == "x1" else 0]),
                    rho_j=params[(vid, end)] if isinstance(node, Branching) else None,
                    resistance=None if isinstance(node, Branching) else params[(vid, end)],
                    kP=float(frozen.kP[row]), kQ=float(frozen.kQ[row]),
                ))
                points.append((vid, end, pt))
            if isinstance(node, Branching):
                M, b = assemble_branching(node, inputs, dt)
                batched.append(pressures[nid])
            else:
                M, b = assemble_transitional(node, inputs, prev.transitional[nid], dt)
                batched.extend(trans[nid])
            x = solve_node(M, b, nid, size=cn.junctions.size).tolist()
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
    net, init, cfg = mixed_junction_case()
    assert [node[:3] for node in stacked_nodes(net)] == [
        ("j1", "Branching", 3), ("j2", "Branching", 4), ("j3", "Branching", 3),
        ("t1", "Transitional", 2), ("t2", "Transitional", 3),
    ]
    report, seen, _ = run_against_closure_oracle(monkeypatch, net, init, cfg)
    assert report.steps == 15 and report.picard_total > report.steps
    assert seen["passes"] == report.picard_total
    assert seen["nodes"] == 5 * report.picard_total
    # flow runs through every junction (pulse flows are about 1e-6 m^3/s)
    final = report.final_state.fields
    assert all(abs(final[v].Q[0]) > 1e-8 for v in ("B", "C", "D", "E", "G", "H", "V1", "V2"))


def test_batched_closures_equal_per_node_oracle_on_varied_end_patterns(monkeypatch):
    net, init, cfg = varied_pattern_case()
    stacked = stacked_nodes(net)
    assert [node[:3] for node in stacked] == [
        ("j1", "Branching", 3), ("j2", "Branching", 3),
        ("tA", "Transitional", 3), ("tB", "Transitional", 3),
    ]
    # nodes of one kind and size differ in their in/out (artery/vein) patterns
    assert stacked[0][3] != stacked[1][3] and stacked[2][3] != stacked[3][3]
    report, seen, _ = run_against_closure_oracle(monkeypatch, net, init, cfg)
    assert report.steps == 15 and report.picard_total > report.steps
    assert seen["passes"] == report.picard_total
    assert seen["nodes"] == 4 * report.picard_total
    final = report.final_state.fields
    assert all(abs(final[v].Q[0]) > 1e-8 for v in net.vessels)


def test_batched_closures_equal_per_node_oracle_on_binary_tree(monkeypatch):
    net, init, cfg = binary_tree_case()
    assert [node[:3] for node in stacked_nodes(net)] == [
        ("j", "Branching", 3), ("j0", "Branching", 3), ("j1", "Branching", 3),
        ("t00", "Transitional", 2), ("t01", "Transitional", 2),
    ]
    report, seen, values = run_against_closure_oracle(monkeypatch, net, init, cfg)
    assert report.steps == 15 and report.picard_total > report.steps
    assert seen["passes"] == report.picard_total
    assert seen["nodes"] == 5 * report.picard_total
    assert values == (3 * 7 + 2 * 6) * report.picard_total
    final = report.final_state.fields
    assert all(abs(final[v].Q[0]) > 1e-8 for v in net.vessels)


def test_one_stacked_solve_per_closure_pass_on_mixed_groups(monkeypatch):
    # five systems of 6 to 9 unknowns, one padded (9, 9, 5) stack
    import vesselflow.solver as solver_mod

    net, init, cfg = mixed_junction_case()
    state0, _ = initial_state(net, init, cfg)
    sizes = [2 * mu + (1 if kind == "Branching" else 2) for _, kind, mu, _ in stacked_nodes(net)]
    assert sizes == [7, 9, 7, 6, 8] and state0.layout.junctions.size == 9
    real_solve, real_close, shapes, passes = solver_mod.solve_systems, solver_mod._close_nodes, [], []

    def counted_solve(M, b, node_ids):
        shapes.append((M.shape, node_ids))
        return real_solve(M, b, node_ids)

    def counted_close(*args):
        passes.append(len(shapes))
        return real_close(*args)

    monkeypatch.setattr(solver_mod, "solve_systems", counted_solve)
    monkeypatch.setattr(solver_mod, "_close_nodes", counted_close)
    report = run(net, state0, cfg)
    assert report.picard_total > report.steps == 15
    # each pass solves once, after the pass before it
    assert passes == list(range(report.picard_total))
    assert shapes == [((9, 9, 5), ("j1", "j2", "j3", "t1", "t2"))] * report.picard_total


def test_singular_nodes_in_one_pass_name_the_first_in_node_id_order(monkeypatch):
    # column k of the stack is node k in node id order, so of two nodes
    # failing in one pass the one named sorts first, as in ConditionReport
    from vesselflow import SingularJunction
    from vesselflow.junctions import JunctionLayout

    net, init, cfg = mixed_junction_case()
    state0, _ = initial_state(net, init, cfg)
    nodes = state0.layout.junctions.nodes
    real_fill = JunctionLayout.fill

    def fill_with_zero_rows(self, M, b, *args):
        real_fill(self, M, b, *args)
        M[0, :, nodes.index("j3")] = 0.0
        M[0, :, nodes.index("j2")] = 0.0

    monkeypatch.setattr(JunctionLayout, "fill", fill_with_zero_rows)
    with pytest.raises(SingularJunction, match="^node 'j2': .*zero row") as err:
        picard_step(state0, cfg)
    assert err.value.node_id == "j2"


def test_junction_estimates_on_mixed_groups_equal_per_node_reference():
    # the padded stack's estimates against each node's own unpadded system
    from vesselflow.constitutive import CoefficientSet, eigen
    from vesselflow.junctions import TransitionalState, condition_estimates
    from vesselflow.network import endpoints_by_node, node_attachments
    from vesselflow.verification import (
        EndpointClosureInput,
        assemble_branching,
        assemble_transitional,
    )
    from vesselflow.wellposedness import check_state

    net, init, cfg = mixed_junction_case()
    state = run(net, initial_state(net, init, cfg)[0], cfg).final_state
    report = check_state(state, cfg)
    cn, cs = state.layout, state.coeffs
    assert report.passed and [j.node for j in report.junction_checks] == list(cn.junctions.nodes)
    ends_by_node = endpoints_by_node(net)
    for j in report.junction_checks:
        node = net.nodes[j.node]
        branching = isinstance(node, Branching)
        params = {(vid, end): p for vid, end, p in node_attachments(node)}
        inputs = []
        for vid, end, _ in ends_by_node[j.node]:
            k = cn.vessel_ids.index(vid)
            pt = int(cn.ends[2 * k + 1] if end == "x1" else cn.first[k])
            at = CoefficientSet(**{name: float(np.asarray(getattr(cs, name))[pt]) for name in "abcfgA"})
            inputs.append(EndpointClosureInput(
                vessel_id=vid, end=end, coeffs=at, eig=eigen(at), char_value=0.0,
                rho_j=params[(vid, end)] if branching else None,
                resistance=None if branching else params[(vid, end)],
            ))
        M, _ = (assemble_branching(node, inputs, cfg.dt) if branching
                else assemble_transitional(node, inputs, TransitionalState(0.0, 0.0), cfg.dt))
        reference = float(condition_estimates(M[..., None], (j.node,))[0])
        assert j.passed and j.condition_estimate == pytest.approx(reference, rel=1e-8)


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


def pulse_case(law, n=40, t_end=0.01, P0=8000.0):
    """A nonlinear pressure pulse in one vessel: the network, its initial
    state and settings at Courant number 0.5."""
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
    return net, state0, cfg


def pulse_run(law, n=40, t_end=0.01, P0=8000.0):
    return run(*pulse_case(law, n, t_end, P0))


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
        m.setattr(solver_mod, "_extrapolate", lambda diffs: None)
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
    assert shipped.picard_total <= 0.45 * constant.picard_total
    assert shipped.picard_total <= 1.6 * shipped.steps
    # every step but the first (one level): the last step is short of dt
    # only by the rounding of t, so it keeps the history
    assert shipped.extrapolated_steps == shipped.steps - 1
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
    got, got_iters, got_hist = picard_step(state1, cfg, start=state1.X)
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


def test_from_fields_rejects_a_network_without_vessels(tmp_path, capsys):
    # the CLI reports it as a config error, exit 1
    import json

    from vesselflow import NetworkState
    from vesselflow.cli import main

    with pytest.raises(ValueError, match="^the network has no vessels$"):
        NetworkState.from_fields(Network(vessels={}, nodes={}), 0.0, {})
    doc = json.loads((Path(__file__).resolve().parents[1] / "configs" / "bifurcation.json").read_text())
    doc.update(vessels=[], nodes=[], initial={"default": {"P": 0.0, "Q": 0.0}}, probes=[])
    (tmp_path / "empty.json").write_text(json.dumps(doc))
    for extra in (["--check-only"], ["--output", str(tmp_path / "out")]):
        assert main(["simulate", str(tmp_path / "empty.json"), *extra]) == 1
        assert capsys.readouterr().err == "config error: the network has no vessels\n"


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
    state = initial_state(net, init, cfg)[0]

    def outside(diffs):
        # below P = -C the power law has no radius
        start = diffs[0].copy()
        start[: state.P.size] = -1e6
        return start

    monkeypatch.setattr(solver_mod, "_extrapolate", outside)
    report = run(net, state, cfg)
    assert report.steps == constant.steps == 50
    assert report.extrapolation_retries == report.steps
    assert report.extrapolated_steps == 0
    assert report.picard_total == constant.picard_total
    assert report.iteration_histogram == constant.iteration_histogram
    assert report.worst_closure_residual == constant.worst_closure_residual
    new, old = flat_fields(report.final_state), flat_fields(constant.final_state)
    assert all(same_bits(new[vid], old[vid]) for vid in old)
    assert report.final_state.transitional == constant.final_state.transitional


def test_two_steppers_in_lockstep_equal_their_solo_runs():
    # two layouts advanced alternately, as dependence and ensemble runs
    # need: the bifurcation at 4 ms halves dt, restores it and restarts
    # the table; the pulse's last step is short
    from vesselflow.solver import SimReport, Stepper, time_tolerance

    net, init, cfg = bifurcation_case()
    cfg = dataclasses.replace(cfg, dt=0.004, t_end=0.1)
    cases = [(net, initial_state(net, init, cfg)[0], cfg), pulse_case(LAW)]
    solo = [run(*case) for case in cases]
    steppers = [Stepper(state, cfg_, SimReport()) for _, state, cfg_ in cases]
    while True:
        moving = [s for s in steppers if s.state.t < s.cfg.t_end - time_tolerance(s.cfg.t_end)]
        if not moving:
            break
        for s in moving:
            s.advance()
    assert solo[0].dt_adjustments == 5 and solo[1].final_state.t == cases[1][2].t_end
    # the stepper sweeps each level it accepts; the sweep of the initial
    # level and final_state are run's
    unchecked = {"full_checks", "worst_junction_condition", "worst_junction_node", "final_state"}
    for s, ref in zip(steppers, solo):
        got, want = s.state, ref.final_state
        assert got.t == want.t
        for name in ("P", "Q", "P_C1", "P_C2", "P_junc"):
            assert same_bits(getattr(got, name), getattr(want, name)), name
        for f in dataclasses.fields(SimReport):
            if f.name not in unchecked:
                assert getattr(s.report, f.name) == getattr(ref, f.name), f.name


def test_the_prebuilt_old_level_steps_as_a_fresh_workspace(monkeypatch):
    # a stepper builds each step's old level once, into its workspace,
    # and passes it to every attempt at the step; the same step on a
    # fresh workspace without it checks and builds that level itself.
    # Both give the same bits, or the same error: on steps whose
    # extrapolated start is retried, through the 4 ms bifurcation's
    # dt-halving ladder, and for two steppers in lockstep.
    import vesselflow.solver as solver_mod
    from vesselflow import SimulationError
    from vesselflow.solver import SimReport, Stepper, time_tolerance

    real, seen = solver_mod.picard_step, {"calls": 0, "prebuilt": 0, "raised": 0}

    def compared(state_prev, cfg_, dt, report=None, start=None, work=None, old=None):
        seen["calls"] += 1
        seen["prebuilt"] += old is work.old and old.t == state_prev.t and old.P is state_prev.P
        try:
            want = real(state_prev, cfg_, dt, start=start)
        except SimulationError as exc:
            want = exc
        try:
            got = real(state_prev, cfg_, dt, report=report, start=start, work=work, old=old)
        except SimulationError as exc:
            assert (type(exc), str(exc)) == (type(want), str(want))
            seen["raised"] += 1
            raise
        assert not isinstance(want, SimulationError), want
        assert got[0].t == want[0].t and got[1:] == want[1:]
        assert same_bits(got[0].X, want[0].X) and same_bits(got[0].P_junc, want[0].P_junc)
        return got

    monkeypatch.setattr(solver_mod, "picard_step", compared)
    net, init, cfg = bifurcation_case(steps=20)
    state = initial_state(net, init, cfg)[0]

    def outside(diffs):
        # below P = -C the power law has no radius
        start = diffs[0].copy()
        start[: state.P.size] = -1e6
        return start

    with monkeypatch.context() as m:
        m.setattr(solver_mod, "_extrapolate", outside)
        report = run(net, state, cfg)
    # every attempt, the retries included, steps from the prebuilt level
    assert report.steps == 20 and report.extrapolation_retries == 20
    assert seen == {"calls": 40, "prebuilt": 40, "raised": 20}

    seen.update(calls=0, prebuilt=0, raised=0)
    ladder = dataclasses.replace(cfg, dt=0.004, t_end=0.1)
    steppers = [Stepper(initial_state(net, init, ladder)[0], ladder, SimReport()),
                Stepper(*pulse_case(LAW)[1:], SimReport())]
    while moving := [s for s in steppers if s.state.t < s.cfg.t_end - time_tolerance(s.cfg.t_end)]:
        for s in moving:
            s.advance()
    assert steppers[0].report.dt_adjustments == 5 and seen["raised"] == 5
    assert seen["calls"] == seen["prebuilt"] == sum(s.report.steps for s in steppers) + 5


def test_a_non_ladder_error_from_the_retry_propagates(monkeypatch):
    # the extrapolated start and its retry from the constant start both
    # raise an error that does not halve dt
    import vesselflow.solver as solver_mod
    from vesselflow.solver import SimReport, Stepper

    net, init, cfg = bifurcation_case()
    real_step, calls = solver_mod.picard_step, []

    def failing_after_three_levels(state_prev, cfg_, dt, **kw):
        calls.append((state_prev, dt, kw["start"] is not None))
        if state_prev.t > 2.5 * cfg.dt:
            raise WellPosednessFailure("forced")
        return real_step(state_prev, cfg_, dt, **kw)

    monkeypatch.setattr(solver_mod, "picard_step", failing_after_three_levels)
    stepper = Stepper(initial_state(net, init, cfg)[0], cfg, SimReport())
    for _ in range(3):
        stepper.advance()
    assert stepper.report.extrapolation_retries == 0
    del calls[:]
    with pytest.raises(WellPosednessFailure, match="forced"):
        stepper.advance()
    assert calls == [(stepper.state, cfg.dt, True), (stepper.state, cfg.dt, False)]
    assert stepper.report.extrapolation_retries == 1 and stepper.report.dt_adjustments == 0
    assert stepper.report.steps == 3


def test_advance_at_t_end_raises_before_any_step():
    # a level that has reached t_end leaves no step: advance() says so
    # before any arithmetic with dt = t_end - t <= 0
    import warnings

    from vesselflow.solver import SimReport, Stepper

    net, init, cfg = bifurcation_case(steps=3)
    state0 = initial_state(net, init, cfg)[0]
    stepper = Stepper(state0, cfg, SimReport())
    for _ in range(3):
        stepper.advance()
    at_end = stepper.state
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=re.escape(f"has reached t_end = {cfg.t_end!r}")):
            stepper.advance()
        with pytest.raises(ValueError, match="has reached t_end = 0.0"):
            Stepper(state0, dataclasses.replace(cfg, t_end=0.0), SimReport()).advance()
    assert stepper.state is at_end and stepper.report.steps == 3


def rebuilt_start(levels):
    """The extrapolated start from the accepted levels, oldest first, by
    rebuilding their whole backward-difference table."""
    diffs = [np.concatenate((s.P, s.Q, s.P_C1, s.P_C2)) for s in levels]
    value = diffs[-1]
    while len(diffs) > 1:
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        value = value + diffs[-1]
    return value


def test_constant_start_after_every_dt_change(monkeypatch):
    # a forced dt halving, the restore, and a last step short by half a dt
    import vesselflow.solver as solver_mod
    from vesselflow import CFLViolation

    net, init, cfg = bifurcation_case(steps=30)
    cfg = dataclasses.replace(cfg, t_end=cfg.t_end - cfg.dt / 2)
    real_step, real_extrapolate = solver_mod.picard_step, solver_mod._extrapolate
    calls, levels_used, steps = [], [], []

    def failing_once_at_base_dt(state_prev, cfg_, dt, **kw):
        calls.append((dt, kw.get("start") is not None))
        steps.append((state_prev, dt, kw.get("start")))
        if abs(state_prev.t - 5 * cfg.dt) < 1e-9 and dt == cfg.dt:
            raise CFLViolation("forced")
        return real_step(state_prev, cfg_, dt, **kw)

    def counting_extrapolate(diffs):
        levels_used.append(len(diffs))
        return real_extrapolate(diffs)

    monkeypatch.setattr(solver_mod, "picard_step", failing_once_at_base_dt)
    monkeypatch.setattr(solver_mod, "_extrapolate", counting_extrapolate)
    state0 = initial_state(net, init, cfg)[0]
    accepted = [state0]
    report = run(net, state0, cfg, on_step=accepted.append)
    h = cfg.dt / 2
    assert report.steps == 35  # ten steps at dt/2 for five at dt
    # every start against the rebuilt table of the last accepted levels
    # spaced by the step's dt, at most five: bit for bit
    tiny, retries, last = 1e-12 * max(1.0, cfg.t_end), 0, None
    for state_prev, dt, start in steps:
        i = next(k for k, s in enumerate(accepted) if s is state_prev)
        n = 1
        while n < 5 and n <= i and abs(accepted[i - n + 1].t - accepted[i - n].t - dt) <= tiny:
            n += 1
        if start is None:
            retry = last is not None and last[0] is state_prev and last[1] == dt and last[2] is not None
            assert n == 1 or retry
            retries += retry
        else:
            assert n > 1 and same_bits(start, rebuilt_start(accepted[i - n + 1 : i + 1]))
        last = (state_prev, dt, start)
    assert retries == report.extrapolation_retries
    assert levels_used[-1] == 1 and calls[-1] == (pytest.approx(h, rel=1e-9), False)
    assert report.dt_adjustments == 1 and report.extrapolation_retries == 1
    # constant, linear, quadratic, cubic, then quartic after every dt change
    assert levels_used[:8] == [1, 2, 3, 4, 5, 5, 1, 2]
    assert levels_used[8:19] == [3, 4, 5, 5, 5, 5, 5, 5, 1, 2, 3]
    assert calls[:5] == [(cfg.dt, False), (cfg.dt, True), (cfg.dt, True), (cfg.dt, True), (cfg.dt, True)]
    # the failing step from its quartic start, its retry from the
    # constant start, then ten clean steps at dt/2 and the restored dt
    assert calls[5:8] == [(cfg.dt, True), (cfg.dt, False), (h, False)]
    assert calls[8:17] == [(h, True)] * 9
    assert calls[17:19] == [(cfg.dt, False), (cfg.dt, True)]
    assert report.extrapolated_steps == sum(started for _, started in calls) - 1


PARTS = ("P", "Q", "P_C1", "P_C2")  # a level vector's parts, in order


def carried_start(levels):
    """The extrapolated start, a level vector, of a difference table
    carried through the levels, oldest first."""
    from vesselflow.solver import _DifferenceTable

    table = _DifferenceTable(levels[0])
    for level in levels[1:]:
        table.push(level)
    return table.start()


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_extrapolation_through_n_levels_is_exact_to_degree_n_minus_one(n):
    # levels sampled at equal spacing from a polynomial of degree n - 1 in
    # t give its next value; the bifurcation's transitional node carries
    # the capacitor pressures
    net, init, cfg = bifurcation_case()
    base = initial_state(net, init, cfg)[0]
    assert base.P_C1.size == base.P_C2.size == 1
    rng = np.random.default_rng(n)
    # each part's coefficients drawn in turn, side by side in the level vector
    coef = np.concatenate([1e4 * rng.uniform(-1.0, 1.0, (n, getattr(base, k).size)) for k in PARTS], axis=1)

    def sample(t):
        return np.polynomial.polynomial.polyval(t, coef)

    times = 0.2 + 0.25 * np.arange(n + 1)
    levels = [dataclasses.replace(base, t=t, X=sample(t)) for t in times[:-1]]
    got, expected = carried_start(levels), sample(times[-1])
    for k, part in zip(PARTS, base.layout.parts):
        assert np.max(np.abs(got[part] - expected[part])) <= 1e-12 * np.max(np.abs(expected[part])), k


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_extrapolation_of_constant_levels_is_the_last_level(n):
    net, init, cfg = bifurcation_case()
    state = picard_step(initial_state(net, init, cfg)[0], cfg)[0]
    levels = [dataclasses.replace(state, t=state.t + i * cfg.dt) for i in range(n)]
    got = carried_start(levels)
    assert same_bits(got, state.X)
    assert all(same_bits(got[part], getattr(state, k)) for k, part in zip(PARTS, state.layout.parts))
    # one level gives no extrapolated start
    assert carried_start(levels[:1]) is None


def test_run_extrapolates_through_at_most_five_equally_spaced_levels(monkeypatch):
    # a last step short of dt by half restarts the history
    import vesselflow.solver as solver_mod

    net, init, cfg = bifurcation_case()
    cfg = dataclasses.replace(cfg, t_end=12.5 * cfg.dt)
    real_extrapolate, seen = solver_mod._extrapolate, []

    def recording(diffs):
        seen.append(len(diffs))
        return real_extrapolate(diffs)

    monkeypatch.setattr(solver_mod, "_extrapolate", recording)
    state0 = initial_state(net, init, cfg)[0]
    accepted = [state0]
    report = run(net, state0, cfg, on_step=accepted.append)
    assert report.steps == 13 and report.extrapolated_steps == 11
    assert seen == [1, 2, 3, 4] + [5] * 8 + [1]
    # step k starts from level k, through the levels it reaches back over
    for k, n in enumerate(seen):
        ts = [level.t for level in accepted[k - n + 1 : k + 1]]
        assert len(ts) == n and np.allclose(np.diff(ts), cfg.dt, rtol=1e-9, atol=0.0)


def test_a_converged_start_is_accepted_after_one_pass():
    from vesselflow.solver import SimReport

    net, init, cfg = bifurcation_case()
    state1 = picard_step(initial_state(net, init, cfg)[0], cfg)[0]
    converged, iters, _ = picard_step(state1, cfg)
    assert iters > 1
    _, iters, hist = picard_step(state1, cfg, start=converged.X)
    assert iters == 1 and len(hist) == 1 and hist[0] <= cfg.picard_tol
    report = SimReport()
    report.record_step(iters, hist)
    assert report.iteration_histogram == {1: 1}
    assert report.contraction_pairs == report.non_contracting_pairs == 0
    assert report.worst_contraction_ratio == 0.0


# --- one coefficient evaluation per time level ------------------------------

BIFURCATION = Path(__file__).resolve().parents[1] / "configs" / "bifurcation.json"


def test_one_coefficient_evaluation_per_time_level(monkeypatch):
    # each fixed-point iterate is evaluated once, and each accepted level
    # once more: its checks, its probes and the next step's old level
    # read the level's cached coefficients. Each step builds its old
    # level once and each iterate its new level once. The coefficients
    # of an accepted level are checked once, when the stepper accepts it
    # (the probes do not check them again, nor does the next step's old
    # level), besides the initial state's and the stepper's first level.
    # A retried start and a halved dt reuse the step's old level: on 20
    # steps whose extrapolated start leaves the tube law, and on the 4 ms
    # bifurcation's ladder.
    import sys

    import vesselflow.characteristics as characteristics
    import vesselflow.compiled as compiled
    import vesselflow.solver as solver_mod
    from vesselflow.config import load_config
    from vesselflow.output import ListSink

    counts = {}

    def counting(name):
        real = getattr(compiled if name != "build_level" else characteristics, name)
        calls = counts.setdefault(name, [])

        def counted(*args, **kw):
            calls.append(args)
            return real(*args, **kw)

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("vesselflow") and getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted)

    def run_counted(net, init, cfg, **kw):
        for calls in counts.values():
            del calls[:]
        accepted = [initial_state(net, init, cfg)[0]]
        report = run(net, accepted[0], cfg, on_step=accepted.append, **kw)
        # old levels hold r and s; each is built from the level it steps from
        old = [args[2] for args in counts["build_level"] if args[-1].rs is not None]
        assert len(old) == report.steps and all(P is s.P for P, s in zip(old, accepted))
        checked = [args[1] for args in counts["check_coefficients"]]
        assert all(sum(P is s.P for P in checked) == 1 for s in accepted[1:])
        return report

    for name in ("layout_coefficients", "build_level", "check_coefficients"):
        counting(name)
    loaded = load_config(BIFURCATION)
    report = run_counted(loaded.net, loaded.init, loaded.sim, probes=loaded.probes, sink=ListSink())
    assert report.steps == 1000 and not report.extrapolation_retries and not report.dt_adjustments
    assert len(counts["layout_coefficients"]) == report.picard_total + report.steps + 1
    assert len(counts["build_level"]) == report.picard_total + report.steps
    # 2.451 per step, of which 1.449 are the iterates'
    assert len(counts["check_coefficients"]) == report.picard_total + report.steps + 2

    net, init, cfg = bifurcation_case(steps=20)
    points = initial_state(net, init, cfg)[0].P.size

    def outside(diffs):
        # below P = -C the power law has no radius
        start = diffs[0].copy()
        start[:points] = -1e6
        return start

    with monkeypatch.context() as m:
        m.setattr(solver_mod, "_extrapolate", outside)
        report = run_counted(net, init, cfg)
    assert report.steps == report.extrapolation_retries == 20
    report = run_counted(net, init, dataclasses.replace(cfg, dt=0.004, t_end=0.1))
    assert report.dt_adjustments == 5


# --- the classification of each accepted level --------------------------------

SYNTHETIC = BIFURCATION.parent / "synthetic.json"


def cli_case(monkeypatch, tmp_path, capsys, doc, b=None):
    """`vesselflow simulate` on doc, whose vessel 'v' takes the synthetic
    b(x, t) if one is given (a config file holds constants only): the
    exit code, the last line of stderr and the timeseries rows."""
    import json

    import vesselflow.cli as cli
    from vesselflow.config import load_config

    path = tmp_path / "case.json"
    path.write_text(json.dumps(doc))
    if b is not None:
        def with_b(p):
            loaded = load_config(p)
            v = loaded.net.vessels["v"]
            v = dataclasses.replace(v, synthetic=dataclasses.replace(v.synthetic, b=b))
            return dataclasses.replace(loaded, net=dataclasses.replace(loaded.net, vessels={"v": v}))

        monkeypatch.setattr(cli, "load_config", with_b)
    out = tmp_path / "out"
    code = cli.main(["simulate", str(path), "--output", str(out)])
    last = capsys.readouterr().err.splitlines()[-1]
    return code, last, (out / "timeseries.csv").read_text().splitlines()


def synthetic_doc():
    import json

    doc = json.loads(SYNTHETIC.read_text())
    doc["solver"].update(t_end=0.1, check_every=5)
    return doc


def zero_rows(levels):
    """The synthetic config's probe rows (P, Q and A at x = 0.5) for its
    resting levels 1 .. levels, dt = 0.01, after the header."""
    t = 0.0
    rows = ["t,kind,id,x,quantity,value"]
    for _ in range(levels):
        t += 0.01
        rows += [f"{t!r},vessel,v,0.5,{q},{v}" for q, v in (("P", 0.0), ("Q", 0.0), ("A", 1.0))]
    return rows


def test_an_endpoint_split_failure_between_full_sweeps_exits_2(monkeypatch, tmp_path, capsys):
    # from t = 0.04, step 4 of a sweep every 5, ab = -0.01 at x = 0 only:
    # c^2 + ab stays positive, so the kernel resolves the step, and the
    # endpoint verdict of the accepted level fails before its probes
    def b(x, t):
        return np.where((x == 0.0) & (t > 0.035), -0.01, 1.0)

    code, last, rows = cli_case(monkeypatch, tmp_path, capsys, synthetic_doc(), b)
    assert code == 2
    assert last == (
        "solvability failure: solvability check failed at t = 0.04: v: endpoint_split fails "
        "at x-index 0 (margin -1.000000e-02): under-determined (source end)"
    )
    assert rows == zero_rows(3)


def test_an_interior_hyperbolicity_failure_between_full_sweeps_exits_3(monkeypatch, tmp_path, capsys):
    # from t = 0.04, c^2 + ab = 0.04 - 0.1 on 0.4 < x < 0.6 only: the
    # step's first new level fails eigen, from either start
    def b(x, t):
        return np.where((np.abs(x - 0.5) < 0.1) & (t > 0.035), -0.1, 1.0)

    code, last, rows = cli_case(monkeypatch, tmp_path, capsys, synthetic_doc(), b)
    assert code == 3
    assert last == (
        "solver failure: vessel 'v': c^2 + a*b must be positive and finite, worst value -6.000000e-02"
    )
    assert rows == zero_rows(3)


def test_an_interior_area_collapse_between_full_sweeps_exits_3(monkeypatch, tmp_path, capsys):
    # two pressure troughs travel toward each other and meet mid-vessel
    # near t = 0.035; the floor lies between the initial smallest area
    # (6.676e-5) and the one where they meet, and the vessel's ends rest
    import math

    n = 40

    def trough(centre):
        return [math.sin(math.pi * (j / n - centre + 0.1) / 0.2) ** 2 if abs(j / n - centre) < 0.1 else 0.0
                for j in range(n + 1)]

    law = PowerLaw(C=40000.0, R0=0.005, beta=2.0)
    P = [-6000.0 * (left + right) for left, right in zip(trough(0.3), trough(0.7))]
    # each a simple wave: Q = +-sqrt(b/a) P at rest, right-going on the left half
    from vesselflow.constitutive import PrimitiveState, coefficients

    cs = coefficients(Vessel("v", n, "in", "out", tube_law=law), 0.5, 0.0, PrimitiveState(0.0, 0.0))
    k = float(np.sqrt(cs.b / cs.a))
    Q = [k * p if j < n // 2 else -k * p for j, p in enumerate(P)]
    doc = {
        "vessels": [{"id": "v", "n_cells": n, "x0": "in", "x1": "out",
                     "tube_law": {"kind": "power", "C": law.C, "R0": law.R0, "beta": law.beta}}],
        "nodes": [{"id": nid, "kind": "pressure", "signal": {"kind": "constant", "value": 0.0}}
                  for nid in ("in", "out")],
        "solver": {"dt": 0.001, "t_end": 0.05, "check_every": 1000, "epsilon0": 6.66e-5},
        "initial": {"default": {"P": P, "Q": Q}},
        "probes": [{"vessel": "v", "x_fraction": 0.5, "quantities": ["P", "A"]}],
    }
    code, last, rows = cli_case(monkeypatch, tmp_path, capsys, doc)
    assert code == 3
    assert last == "solver failure: vessel 'v': area 6.658e-05 m^2 below floor 6.660e-05"
    # levels 1 .. 31 of dt = 0.001, each P then A at x = 0.5
    t, keys = 0.0, []
    for _ in range(31):
        t += 0.001
        keys += [f"{t!r},vessel,v,0.5,{q}" for q in ("P", "A")]
    assert rows[0] == "t,kind,id,x,quantity,value"
    assert [row.rsplit(",", 1)[0] for row in rows[1:]] == keys
    assert rows[-1] == "0.03100000000000002,vessel,v,0.5,A,6.682202872319523e-05"


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


def test_run_keeps_no_earlier_level():
    # the extrapolated start reads a carried difference table, so run
    # releases each accepted level when the next is accepted; only the
    # newest holds its cached coefficients
    import weakref

    from vesselflow.config import load_config

    loaded = load_config(BIFURCATION)
    state, _ = initial_state(loaded.net, loaded.init, loaded.sim)
    cfg = dataclasses.replace(loaded.sim, t_end=20 * loaded.sim.dt)
    accepted, alive = [], []

    def on_step(new):
        assert "coeffs" in vars(new)
        alive.extend(ref().t for ref in accepted if ref() is not None)
        accepted.append(weakref.ref(new))

    report = run(loaded.net, state, cfg, on_step=on_step)
    assert report.steps == 20 and report.extrapolated_steps
    assert alive == []


def test_closure_names_the_first_end_in_layout_order_whose_characteristic_left():
    # a = 1, b = -1, c = 2 is hyperbolic, but both speeds are positive, so
    # the interior-determined s leaves the domain at x=0 of both vessels;
    # the nodes of 'b' come first in node order, 'a' first in layout order
    vessels = {
        vid: Vessel(
            id=vid, n_cells=10, x0_node=f"{node}_in", x1_node=f"{node}_out",
            synthetic=SyntheticCoefficients(a=1.0, b=-1.0, c=2.0),
        )
        for vid, node in (("a", "z"), ("b", "y"))
    }
    nodes = {
        nid: ExternalPressure(nid, ConstantSignal(0.0))
        for nid in ("y_in", "y_out", "z_in", "z_out")
    }
    cfg = SimConfig(dt=0.01, t_end=0.01)
    state, _ = initial_state(Network(vessels=vessels, nodes=nodes), InitSpec(default=VesselInit()), cfg)
    assert state.layout.vessel_ids == ("a", "b")
    with pytest.raises(WellPosednessFailure, match="vessel 'a' end x0: the interior-determined"):
        picard_step(state, cfg)


# --- the kernel's workspace -------------------------------------------------


def workspace_arrays(work):
    """Every array a `Workspace` writes: its own, its levels' and its
    coefficient set's (the layout's read-only zeros excluded), not the
    iterate's P and Q and the old level's coefficients, which a `Level`
    also references."""
    own = [work.pair_a, work.pair_b, work.pair_c, work.pair_d, work.xi, work.row_a, work.row_b,
           work.F, work.g_P, work.g_Q, work.lo, work.hi, work.inside, work.outside,
           work.rs, work.known, work.kP, work.kQ, work.deviation, *vars(work.coeffs).values()]
    for level in (work.old, work.new):
        own += [level.speeds, level.d_x, level.u, level.tmp, level.base, level.adv_lam, level.adv_a, level.rs]
    return [a for a in own if isinstance(a, np.ndarray) and a.flags.writeable]


def bump_case(n):
    """A pressure bump on one power-law vessel of n cells, 8 steps at
    Courant number 0.5 and no full check after t = 0."""
    v = Vessel(id="v", n_cells=n, x0_node="in", x1_node="out",
               tube_law=PowerLaw(C=4e4, R0=1e-3, beta=2.0), alpha=1.1)
    net = single_net(v, inlet=ExternalPressure("in", ConstantSignal(8000.0)),
                     outlet=ExternalPressure("out", ConstantSignal(8000.0)))
    dt = 0.5 / (n * 7.2)  # CFL 0.5
    cfg = SimConfig(dt=dt, t_end=8 * dt, check_every=1000)
    bump = lambda x: np.where((x > 0.2) & (x < 0.6), np.sin(np.pi * (x - 0.2) / 0.4) ** 2, 0.0)  # noqa: E731
    state0, _ = initial_state(net, InitSpec(default=VesselInit(P=lambda x: 8000.0 + 1500.0 * bump(x))), cfg)
    return net, state0, cfg


def test_a_pass_allocates_no_point_arrays_beyond_its_results():
    # every array that dies within a pass lives in the run's workspace,
    # so a warm step allocates only what it returns: the iterates and the
    # accepted level's coefficients. The
    # per-pass temporaries took about 70 point-arrays per step; now about
    # 10 (tracemalloc counts numpy's allocations, deterministically,
    # unlike the page faults the glibc heap trim causes)
    import tracemalloc

    n = 3200
    net, state0, cfg = bump_case(n)
    peaks = []

    def on_step(state):
        peaks.append(tracemalloc.get_traced_memory()[1] - on_step.start)
        tracemalloc.reset_peak()
        on_step.start = tracemalloc.get_traced_memory()[0]

    tracemalloc.start()
    try:
        on_step.start = tracemalloc.get_traced_memory()[0]
        report = run(net, state0, cfg, on_step=on_step)
    finally:
        tracemalloc.stop()
    assert report.steps == 8 and report.picard_total > report.steps
    # the first step includes the workspace itself
    assert max(peaks[1:]) < 16 * 8 * (n + 1)


def test_a_warm_pass_allocates_one_level_vector():
    # a warm pass writes the next iterate into one new level vector X:
    # from_riemann and the closures fill its views, and the deviation
    # reduces it in the workspace. Besides X a pass allocates less than
    # one more point-array. tracemalloc counts numpy's allocations; a
    # small bufsize keeps a broadcasting ufunc's buffers below one
    # point-array
    import tracemalloc

    from vesselflow.characteristics import Workspace

    net, state0, cfg = bump_case(3200)
    n = state0.layout.size
    assert n == 3201
    work = Workspace(state0.layout)
    state1 = picard_step(state0, cfg, work=work)[0]  # warms the workspace
    state1.coeffs  # the old level's coefficients, built before the step
    one_pass = dataclasses.replace(cfg, picard_tol=1.0)
    bufsize = np.setbufsize(1024)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        state2, iterations, _ = picard_step(state1, one_pass, work=work)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
        np.setbufsize(bufsize)
    assert iterations == 1
    assert state2.X.size == 2 * n and state2.P.base is state2.X
    assert state2.X.nbytes <= peak < state2.X.nbytes + 8 * n


def per_part_deviation(cn, new, old):
    """The iterate deviation part by part: P and Q per vessel segment,
    then each capacitor, as computed before a level was one vector."""
    starts = cn.offsets[:-1]
    ratios = []
    for part in cn.parts[:2]:
        scale = 1.0 + np.maximum.reduceat(np.abs(new[part]), starts)
        ratios.append(np.maximum.reduceat(np.abs(new[part] - old[part]), starts) / scale)
    if cn.junctions.transitional:
        for part in cn.parts[2:]:
            ratios.append(np.abs(new[part] - old[part]) / (1.0 + np.abs(new[part])))
    return float(np.maximum.reduce(np.concatenate(ratios)))


def test_the_flat_deviation_equals_the_per_part_reference():
    # bit for bit, on the bifurcation's layout (with capacitors) and on
    # one without a transitional node, with NaN in P and in P_C2
    from vesselflow.solver import _deviation

    net, init, cfg = bifurcation_case()
    bifurcation = picard_step(initial_state(net, init, cfg)[0], cfg)[0]
    assert bifurcation.P_C2.size == 1
    no_capacitors = bump_case(40)[1]
    assert no_capacitors.P_C1.size == no_capacitors.P_C2.size == 0
    rng = np.random.default_rng(5)
    for state in (bifurcation, no_capacitors):
        cn, old = state.layout, state.X
        cases = []
        for scale in (0.0, 1e-12, 1e-6, 1.0, 1e3):
            new = old * (1.0 + scale * rng.standard_normal(old.size))
            new[rng.random(old.size) < 0.1] = old[0]  # ties of the segment maxima
            cases.append(new)
        for part in cn.parts:
            if part.stop > part.start:
                new = cases[2].copy()
                new[part.stop - 1] = np.nan
                cases.append(new)
        for new in cases:
            got = _deviation(cn, new, old, np.empty(new.size))
            assert np.float64(got).tobytes() == np.float64(per_part_deviation(cn, new, old)).tobytes()
        assert np.isnan(got)  # the last case: NaN in P_C2, or in Q without capacitors


def test_accepted_levels_share_no_memory_with_the_workspace(monkeypatch):
    import vesselflow.solver as solver_mod
    from vesselflow.config import load_config

    real, made = solver_mod.Workspace, []

    def recorded(layout):
        made.append(real(layout))
        return made[-1]

    monkeypatch.setattr(solver_mod, "Workspace", recorded)
    loaded = load_config(BIFURCATION)
    state, _ = initial_state(loaded.net, loaded.init, loaded.sim)
    cfg = dataclasses.replace(loaded.sim, t_end=30 * loaded.sim.dt)
    shared = []

    def on_step(new):
        arrays = [new.P, new.Q, new.P_C1, new.P_C2, new.P_junc, *vars(new.coeffs).values()]
        shared.extend(new.t for a in arrays for w in workspace_arrays(made[0]) if np.shares_memory(a, w))

    report = run(loaded.net, state, cfg, on_step=on_step)
    assert report.steps == 30 and len(made) == 1 and shared == []


def test_runs_back_to_back_give_the_same_bits():
    # one workspace per run: a run reads nothing a run before it left,
    # on the same layout or another
    net, init, cfg = bifurcation_case(steps=60)

    def bifurcation():
        report = run(net, initial_state(net, init, cfg)[0], cfg)
        s = report.final_state
        return report.picard_total, np.concatenate((s.P, s.Q, s.P_C1, s.P_C2, s.P_junc))

    first, second = bifurcation(), bifurcation()
    pulse_run(LAW, n=40, t_end=0.002)
    third = bifurcation()
    for other in (second, third):
        assert other[0] == first[0] and same_bits(other[1], first[1])


def test_a_warm_step_calls_no_python_level_numpy_reduction(tmp_path):
    # `.max()`, `.all()`, np.max and the like reach the ufuncs' reduce
    # through numpy's Python-level wrappers, which cost a step on a small
    # network more than the arithmetic; the step calls the reduce itself
    import sys

    from vesselflow import CsvSink
    from vesselflow.config import load_config

    wrappers = {
        "_methods": {"_amax", "_amin", "_sum", "_all", "_any"},
        "fromnumeric": {"max", "amax", "min", "amin", "sum", "any", "all"},
    }
    called = []

    def profile(frame, event, arg):
        if event == "call":
            module = frame.f_globals.get("__name__", "")
            if module.startswith("numpy.") and frame.f_code.co_name in wrappers.get(module.rsplit(".", 1)[-1], ()):
                called.append(f"{module}.{frame.f_code.co_name}")

    loaded = load_config(BIFURCATION)
    state, _ = initial_state(loaded.net, loaded.init, loaded.sim)
    cfg = dataclasses.replace(loaded.sim, t_end=5 * loaded.sim.dt)
    try:
        with CsvSink(str(tmp_path / "probes.csv")) as sink:
            # counted from the end of the first step on
            report = run(loaded.net, state, cfg, probes=loaded.probes, sink=sink,
                         on_step=lambda s: sys.setprofile(profile))
    finally:
        sys.setprofile(None)
    assert report.steps == 5 and report.full_checks == 1  # the sweep at t=0 only
    assert called == []
