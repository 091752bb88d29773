"""Driver tests: fixed-point stepping, time loop, initial state."""

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
    state1, iters, hist = picard_step(net, state0, cfg)
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
    state1, iters, hist = picard_step(net, state0, cfg)
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


def test_one_junction_solve_per_node_per_iteration(monkeypatch):
    # the shipped bifurcation: one branching and one transitional node.
    # Each closure folds the resolved characteristic's coupling to the
    # endpoint state into its matrix, so one solve per node and
    # iteration is exact.
    import dataclasses
    from pathlib import Path

    import vesselflow.solver as solver_mod
    from vesselflow.config import load_config

    loaded = load_config(Path(__file__).resolve().parents[1] / "configs" / "bifurcation.json")
    cfg = dataclasses.replace(loaded.sim, t_end=10 * loaded.sim.dt)
    calls = []
    real = solver_mod.solve_junction

    def counting(sys):
        calls.append(sys.node_id)
        return real(sys)

    monkeypatch.setattr(solver_mod, "solve_junction", counting)
    state0, _ = initial_state(loaded.net, loaded.init, cfg)
    report = run(loaded.net, state0, cfg)
    junctions = [nid for nid, n in loaded.net.nodes.items() if not hasattr(n, "signal")]
    assert report.steps == 10 and len(junctions) == 2
    assert report.picard_total > report.steps  # the physical model iterates
    for nid in junctions:
        assert calls.count(nid) == report.picard_total
    assert len(calls) == 2 * report.picard_total


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
    assert all(isinstance(v, (int, float)) for v in rest.values())
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
