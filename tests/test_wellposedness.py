"""Solvability condition checker tests."""

import numpy as np
import pytest

from vesselflow import (
    ConstantSignal,
    ExternalFlow,
    ExternalPressure,
    Network,
    PowerLaw,
    SimConfig,
    SyntheticCoefficients,
    Vessel,
    check_envelope,
    check_state,
)
from vesselflow.characteristics import VesselField
from vesselflow.solver import NetworkState
from vesselflow.wellposedness import (
    COND_ENDPOINT,
    COND_HYPERBOLIC,
)

LAW = PowerLaw(C=1e4, R0=1e-3, beta=2.0)


def single_net(vessel):
    return Network(
        vessels={vessel.id: vessel},
        nodes={
            vessel.x0_node: ExternalPressure(vessel.x0_node, ConstantSignal(0.0)),
            vessel.x1_node: ExternalFlow(vessel.x1_node, ConstantSignal(0.0)),
        },
    )


def state_for(net, P, Q):
    """A constant state of a one-vessel network."""
    (vessel,) = net.vessels.values()
    n = vessel.n_cells
    return NetworkState.from_fields(
        net, 0.0, {vessel.id: VesselField(vessel.id, 0.0, np.full(n + 1, P), np.full(n + 1, Q))}
    )


CFG = SimConfig(dt=1e-4, t_end=1.0)


def test_rest_state_passes_everywhere():
    v = Vessel(id="v", n_cells=16, x0_node="in", x1_node="out", tube_law=LAW, alpha=1.1)
    net = single_net(v)
    report = check_state(state_for(net, 13000.0, 0.0), CFG)
    assert report.passed
    hyp = [c for c in report.checks if c.condition == COND_HYPERBOLIC]
    # at rest the hyperbolicity slack equals a*b = a*A/rho > 0
    assert all(c.margin > 0 for c in hyp)


def test_interior_hyperbolicity_failure_margin():
    v = Vessel(
        id="v", n_cells=8, x0_node="in", x1_node="out",
        synthetic=SyntheticCoefficients(a=1.0, b=-2.0, c=1.0),
    )
    report = check_state(state_for(single_net(v), 0.0, 0.0), CFG)
    hyp = [c for c in report.checks if c.condition == COND_HYPERBOLIC][0]
    assert not hyp.passed
    assert hyp.margin == pytest.approx(-1.0)
    assert not report.passed


def test_interior_only_hyperbolic_diagnosis():
    # c^2 + ab = 0.5 > 0 but ab = -0.5 < 0: hyperbolic in the interior,
    # yet no end can be closed
    v = Vessel(
        id="v", n_cells=8, x0_node="in", x1_node="out",
        synthetic=SyntheticCoefficients(a=1.0, b=-0.5, c=1.0),
    )
    report = check_state(state_for(single_net(v), 0.0, 0.0), CFG)
    by_cond = {c.condition: c for c in report.checks}
    assert by_cond[COND_HYPERBOLIC].passed
    assert not by_cond[COND_ENDPOINT].passed
    assert by_cond[COND_ENDPOINT].margin == pytest.approx(-0.5)
    assert "under-determined" in by_cond[COND_ENDPOINT].classification or \
        "over-determined" in by_cond[COND_ENDPOINT].classification


def test_endpoint_verdict_matches_eigen_signs():
    # the checker's ab > 0 verdict must agree with lambda_L < 0 < lambda_R
    rng = np.random.default_rng(3)
    for _ in range(200):
        a = rng.uniform(0.1, 5)
        b = rng.uniform(-2, 5)
        c = rng.uniform(-2, 2)
        if c * c + a * b <= 1e-9:
            continue
        u = np.sqrt(c * c + a * b)
        lam_R, lam_L = c + u, c - u
        assert (a * b > 0) == (lam_L < 0 < lam_R)


def test_under_over_determined_classification():
    v = Vessel(
        id="v", n_cells=8, x0_node="in", x1_node="out",
        synthetic=SyntheticCoefficients(a=1.0, b=-0.5, c=1.0),
    )
    report = check_state(state_for(single_net(v), 0.0, 0.0), CFG)
    ep = [c for c in report.checks if c.condition == COND_ENDPOINT][0]
    # worst endpoint reported; with symmetric coefficients it is x=0
    assert ep.x_index in (0, 8)
    if ep.x_index == 0:
        assert "under-determined" in ep.classification
    else:
        assert "over-determined" in ep.classification


def test_junction_condition_estimates_present():
    from vesselflow import BranchAttachment, Branching

    vessels = {
        "p": Vessel(id="p", n_cells=8, x0_node="in", x1_node="j", tube_law=LAW, alpha=1.1),
        "c1": Vessel(id="c1", n_cells=8, x0_node="j", x1_node="o1", tube_law=LAW, alpha=1.1),
        "c2": Vessel(id="c2", n_cells=8, x0_node="j", x1_node="o2", tube_law=LAW, alpha=1.1),
    }
    nodes = {
        "in": ExternalPressure("in", ConstantSignal(13000.0)),
        "j": Branching(
            "j",
            (
                BranchAttachment("p", "x1", 1e-3),
                BranchAttachment("c1", "x0", 1e-3),
                BranchAttachment("c2", "x0", 1e-3),
            ),
        ),
        "o1": ExternalPressure("o1", ConstantSignal(13000.0)),
        "o2": ExternalPressure("o2", ConstantSignal(13000.0)),
    }
    net = Network(vessels=vessels, nodes=nodes)
    state = NetworkState.from_fields(
        net, 0.0, {vid: VesselField(vid, 0.0, np.full(9, 13000.0), np.zeros(9)) for vid in vessels}
    )
    report = check_state(state, CFG)
    assert report.passed
    assert len(report.junction_checks) == 1
    jc = report.junction_checks[0]
    assert jc.node == "j" and jc.passed and np.isfinite(jc.condition_estimate)


def test_envelope_degenerate_matches_state_check():
    v = Vessel(id="v", n_cells=8, x0_node="in", x1_node="out", tube_law=LAW, alpha=1.1)
    net = single_net(v)
    rep_env = check_envelope(net, (13000.0, 13000.0), (0.0, 0.0), samples=2)
    rep_state = check_state(state_for(net, 13000.0, 0.0), CFG)
    env = {c.condition: c.margin for c in rep_env.checks}
    state_margins = {}
    for c in rep_state.checks:
        state_margins.setdefault(c.condition, c.margin)
    for cond in (COND_HYPERBOLIC, COND_ENDPOINT):
        assert env[cond] == pytest.approx(state_margins[cond], rel=1e-12)


def test_envelope_worst_at_smallest_area():
    v = Vessel(id="v", n_cells=4, x0_node="in", x1_node="out", tube_law=LAW, alpha=1.1)
    net = single_net(v)
    report = check_envelope(net, (-5e3, 5e4), (-1e-5, 1e-5), samples=9)
    floor = [c for c in report.checks if c.condition == "area_floor"][0]
    # the smallest admissible area comes from the lowest pressure corner
    R_min = (1.0 - 5e3 / 1e4) ** 0.5 * 1e-3
    assert floor.margin == pytest.approx(np.pi * R_min**2, rel=1e-12)


def test_envelope_flags_unevaluable():
    v = Vessel(id="v", n_cells=4, x0_node="in", x1_node="out", tube_law=LAW, alpha=1.1)
    net = single_net(v)
    report = check_envelope(net, (-5e4, -2e4), (0.0, 0.0), samples=3)
    assert report.unevaluable
    assert not report.passed


def test_envelope_monotone_in_range():
    v = Vessel(id="v", n_cells=4, x0_node="in", x1_node="out", tube_law=LAW, alpha=1.1)
    net = single_net(v)
    wide = check_envelope(net, (-5e3, 5e4), (-2e-5, 2e-5), samples=9)
    narrow = check_envelope(net, (0.0, 4e4), (-1e-5, 1e-5), samples=9)
    wide_m = {c.condition: c.margin for c in wide.checks}
    narrow_m = {c.condition: c.margin for c in narrow.checks}
    for cond, m in narrow_m.items():
        assert m >= wide_m[cond] - 1e-12


def test_envelope_partly_outside_a_two_station_table():
    from vesselflow import TabulatedLaw, radius_from_pressure

    radii = np.linspace(0.9e-3, 1.4e-3, 26)
    row = 4e4 * ((radii / 1e-3) ** 2 - 1.0)  # up to 38.4 kPa at x=0, 46.08 kPa at x=1
    law = TabulatedLaw(radii=radii, pressures=[row, 1.2 * row], x_stations=(0.0, 1.0))
    v = Vessel(id="v", n_cells=4, x0_node="in", x1_node="out", tube_law=law, alpha=1.1)
    # the top P sample, 45 kPa, is above the x=0 station at every grid
    # station (dA/dx differences across both stations)
    report = check_envelope(single_net(v), (-5e3, 4.5e4), (-1e-6, 1e-6), samples=6)
    assert report.unevaluable == ["v: 30 envelope point(s) outside the tube law's range"]
    assert [c.condition for c in report.checks] == ["a_positive", "area_floor", COND_ENDPOINT, COND_HYPERBOLIC]
    floor = [c for c in report.checks if c.condition == "area_floor"][0]
    assert floor.x_index == 0
    assert floor.margin == pytest.approx(np.pi * radius_from_pressure(law, 0.0, -5e3) ** 2, rel=1e-12)


def test_envelope_requires_two_samples():
    v = Vessel(id="v", n_cells=4, x0_node="in", x1_node="out", tube_law=LAW, alpha=1.1)
    with pytest.raises(ValueError):
        check_envelope(single_net(v), (0.0, 1.0), (0.0, 1.0), samples=1)


# --- the layout sweep against a per-vessel reference --------------------------


def reference_vessel_checks(net, state, cfg, endpoints_only):
    """Per-vessel reference: `coefficients` on each vessel's own points
    and np.argmin, in vessel id order; vessels with an unevaluable point
    are listed and skipped."""
    from vesselflow.constitutive import PrimitiveState, coefficients

    rows, unevaluable = [], []
    for vid in sorted(net.vessels):
        v, f = net.vessels[vid], state.fields[vid]
        idx = np.array([0, v.n_cells]) if endpoints_only else np.arange(v.n_cells + 1)
        cs = coefficients(v, v.grid[idx], state.t, PrimitiveState(f.P[idx], f.Q[idx]),
                          epsilon0=cfg.epsilon0, checked=False)
        a, b, c, A = (np.asarray(q, dtype=float) for q in (cs.a, cs.b, cs.c, cs.A))
        if not np.all(np.isfinite(a)):
            unevaluable.append(vid)
            continue
        ends = np.array([0, idx.size - 1])
        everywhere = np.arange(idx.size)
        for cond, values, sel, shift in (
            ("a_positive", a, everywhere, 0.0),
            ("area_floor", A, everywhere, cfg.epsilon0),
            (COND_HYPERBOLIC, c**2 + a * b, everywhere, 0.0),
            (COND_ENDPOINT, a * b, ends, 0.0),
        ):
            k = int(np.argmin(values[sel]))
            margin = float(values[sel][k]) - shift
            x_index = int(idx[sel][k])
            classification = ""
            if cond == COND_ENDPOINT and margin <= 0:
                classification = "under-determined" if x_index == 0 else "over-determined"
            rows.append((vid, cond, margin > 0, x_index, classification, np.float64(margin).tobytes()))
    return rows, unevaluable


def observed_vessel_checks(report):
    rows = [
        (c.subject, c.condition, c.passed, c.x_index, c.classification.split(" (")[0],
         np.float64(c.margin).tobytes())
        for c in report.checks
    ]
    return rows, [u.split(":")[0] for u in report.unevaluable]


def mixed_failing_case(bad_stations=1):
    """Power-law, tabulated and synthetic vessels whose ids sort apart
    from the layout order (power-law vessels first): one interior
    hyperbolicity failure, endpoint failures worst at x=0 and at x=1,
    unevaluable points on a tabulated law of 1 or 2 stations, and tied
    minima."""
    from vesselflow import TabulatedLaw

    radii = np.linspace(0.9e-3, 1.4e-3, 26)
    row = 4e4 * ((radii / 1e-3) ** 2 - 1.0)
    table = TabulatedLaw(radii=radii, pressures=[row, 1.2 * row], x_stations=(0.0, 1.0))
    one_station = TabulatedLaw(radii=radii, pressures=[row], x_stations=(0.0,))

    def syn(**kw):
        return dict(synthetic=SyntheticCoefficients(**kw))

    specs = {
        "z_power": dict(tube_law=LAW, alpha=1.1),  # at rest: every minimum tied
        "m_power": dict(tube_law=LAW, alpha=1.1),
        "b_tab_ok": dict(tube_law=table, alpha=1.1),
        "c_tab_bad": dict(tube_law=one_station if bad_stations == 1 else table, alpha=1.1),
        "a_syn_hyp": syn(a=1.0, c=0.5, b=lambda x, t: 1.0 - 2.0 * np.exp(-(((x - 0.55) / 0.1) ** 2))),
        "d_syn_x0": syn(a=1.0, c=1.0, b=lambda x, t: x - 0.5),
        "e_syn_x1": syn(a=1.0, c=1.0, b=lambda x, t: 0.5 - x),
        "f_syn_tie": syn(a=2.0, b=0.5, c=0.1),
    }
    vessels, nodes, fields = {}, {}, {}
    for k, (vid, kw) in enumerate(specs.items()):
        n = 8 + k
        vessels[vid] = Vessel(id=vid, n_cells=n, x0_node=f"{vid}_in", x1_node=f"{vid}_out", **kw)
        nodes[f"{vid}_in"] = ExternalPressure(f"{vid}_in", ConstantSignal(0.0))
        nodes[f"{vid}_out"] = ExternalFlow(f"{vid}_out", ConstantSignal(0.0))
        x = vessels[vid].grid
        P = np.full(n + 1, 13000.0) if vid.endswith("power") else 2000.0 + 3000.0 * x
        if vid == "m_power":
            P = 13000.0 + 2000.0 * np.cos(3.0 * x)
        if vid == "c_tab_bad":
            P[3:5] = 5e4  # above the table
        fields[vid] = VesselField(vid, 0.2, P, 1e-7 * np.sin(5.0 * x))
    net = Network(vessels=vessels, nodes=nodes)
    return net, NetworkState.from_fields(net, 0.2, fields)


@pytest.mark.parametrize(
    "endpoints_only, bad_stations",
    [(False, 1), (True, 1), (False, 2), (True, 2)],
    ids=["False", "True", "False-2-station", "True-2-station"],
)
def test_layout_sweep_equals_per_vessel_reference(endpoints_only, bad_stations):
    net, state = mixed_failing_case(bad_stations)
    report = check_state(state, CFG, endpoints_only=endpoints_only)
    assert observed_vessel_checks(report) == reference_vessel_checks(net, state, CFG, endpoints_only)
    # the per-vessel views rebuild the same state
    rebuilt = NetworkState.from_fields(net, state.t, state.fields)
    again = check_state(rebuilt, CFG, endpoints_only=endpoints_only)
    assert observed_vessel_checks(again) == observed_vessel_checks(report)

    by = {(c.subject, c.condition): c for c in report.checks}
    # the bad points are interior, so the endpoint sweep cannot see them
    expected = [] if endpoints_only else ["c_tab_bad: tube law unevaluable at 2 grid point(s), first at x-index 3"]
    assert report.unevaluable == expected
    assert by[("d_syn_x0", COND_ENDPOINT)].x_index == 0
    assert "under-determined" in by[("d_syn_x0", COND_ENDPOINT)].classification
    assert by[("e_syn_x1", COND_ENDPOINT)].x_index == net.vessels["e_syn_x1"].n_cells
    assert "over-determined" in by[("e_syn_x1", COND_ENDPOINT)].classification
    assert by[("f_syn_tie", COND_HYPERBOLIC)].x_index == 0  # tie: first occurrence
    assert by[("f_syn_tie", COND_ENDPOINT)].x_index == 0
    assert by[("z_power", "a_positive")].x_index == 0
    hyp = by[("a_syn_hyp", COND_HYPERBOLIC)]
    if not endpoints_only:
        assert not hyp.passed and 0 < hyp.x_index < 8
    assert [c.subject for c in report.checks] == sorted(c.subject for c in report.checks)


def test_junction_estimates_equal_per_node_reference():
    from vesselflow import BranchAttachment, Branching, TabulatedLaw, TransAttachment, Transitional
    from vesselflow.constitutive import PrimitiveState, coefficients, eigen
    from vesselflow.junctions import (
        EndpointClosureInput,
        TransitionalState,
        assemble_branching,
        assemble_transitional,
        junction_condition_estimate,
    )
    from vesselflow.network import endpoints_by_node, node_attachments

    radii = np.linspace(0.9e-3, 1.4e-3, 26)
    table = TabulatedLaw(radii=radii, pressures=[4e4 * ((radii / 1e-3) ** 2 - 1.0)],
                         x_stations=(0.0,))
    syn = SyntheticCoefficients(a=lambda x, t: 2.0 + 50.0 * t + x, b=1e-6, c=0.01, area=2e-6)
    wiring = {"p": ("in", "j"), "tab": ("j", "t"), "syn": ("j", "k"), "q": ("k", "o1"),
              "r": ("k", "o2"), "vein": ("t", "out")}
    kinds = {"tab": dict(tube_law=table, alpha=1.1), "syn": dict(synthetic=syn)}
    vessels = {
        vid: Vessel(id=vid, n_cells=10, x0_node=x0, x1_node=x1,
                    **kinds.get(vid, dict(tube_law=LAW, alpha=1.1)))
        for vid, (x0, x1) in wiring.items()
    }
    nodes = {
        "in": ExternalPressure("in", ConstantSignal(13000.0)),
        "j": Branching("j", (BranchAttachment("p", "x1", 1e-4), BranchAttachment("tab", "x0", 2e-4),
                             BranchAttachment("syn", "x0", 3e-4))),
        "k": Branching("k", (BranchAttachment("syn", "x1", 1e-4), BranchAttachment("q", "x0", 1e-4),
                             BranchAttachment("r", "x0", 5e-4))),
        "t": Transitional("t", (TransAttachment("tab", 2e7),), (TransAttachment("vein", 3e7),),
                          R_C=4e7, C1=2e-10, C2=3e-10),
        "o1": ExternalPressure("o1", ConstantSignal(13000.0)),
        "o2": ExternalPressure("o2", ConstantSignal(13000.0)),
        "out": ExternalPressure("out", ConstantSignal(9000.0)),
    }
    net = Network(vessels=vessels, nodes=nodes)
    rng = np.random.default_rng(12)
    state = NetworkState.from_fields(net, 0.1, {
        vid: VesselField(vid, 0.1, 11000.0 + 3000.0 * rng.random(11), 1e-6 * rng.standard_normal(11))
        for vid in vessels
    }, transitional={"t": TransitionalState(0.0, 0.0)})
    report = check_state(state, CFG)
    assert report.passed
    assert observed_vessel_checks(report) == reference_vessel_checks(net, state, CFG, False)

    ends_by_node = endpoints_by_node(net)
    reference = {}
    for nid in ("j", "k", "t"):
        node = nodes[nid]
        params = {(vid, end): p for vid, end, p in node_attachments(node)}
        inputs = []
        for vid, end, _ in ends_by_node[nid]:
            i = 0 if end == "x0" else -1
            f = state.fields[vid]
            cs = coefficients(vessels[vid], float(vessels[vid].grid[i]), state.t + CFG.dt,
                              PrimitiveState(float(f.P[i]), float(f.Q[i])))
            branching = isinstance(node, Branching)
            inputs.append(EndpointClosureInput(
                vessel_id=vid, end=end, coeffs=cs, eig=eigen(cs), char_value=0.0,
                rho_j=params[(vid, end)] if branching else None,
                resistance=None if branching else params[(vid, end)],
            ))
        sysm = (assemble_branching(node, inputs, CFG.dt) if isinstance(node, Branching)
                else assemble_transitional(node, inputs, TransitionalState(0.0, 0.0), CFG.dt))
        reference[nid] = junction_condition_estimate(sysm)
    assert [j.node for j in report.junction_checks] == ["j", "k", "t"]
    for j in report.junction_checks:
        assert j.passed
        assert j.condition_estimate == pytest.approx(reference[j.node], rel=1e-8)


@pytest.mark.parametrize("endpoints_only", [False, True])
def test_report_lists_follow_the_arrays(endpoints_only):
    from vesselflow.wellposedness import ConditionCheck

    net, state = mixed_failing_case()
    report = check_state(state, CFG, endpoints_only=endpoints_only)
    K = len(net.vessels)
    assert report.value.shape == report.margin.shape == report.x_index.shape == (4, K)
    assert report.conditions == ("a_positive", "area_floor", COND_HYPERBOLIC, COND_ENDPOINT)
    assert report.passed == bool(
        (report.margin > 0).all() and not report.unevaluable_count.any()
    )
    assert not report.passed

    expected, unevaluable = [], []
    for vid in sorted(net.vessels):
        k = report.vessel_ids.index(vid)
        count = int(report.unevaluable_count[k])
        if count:
            assert (report.x_index[:, k] == -1).all()
            unevaluable.append(f"{vid}: tube law unevaluable at {count} grid point(s), "
                               f"first at x-index {report.unevaluable_first[k]}")
            continue
        for i, cond in enumerate(report.conditions):
            margin, x = float(report.margin[i, k]), int(report.x_index[i, k])
            classification = ""
            if cond == COND_ENDPOINT and not margin > 0:
                classification = ("under-determined (source end)" if x == 0
                                  else "over-determined (terminal end)")
            expected.append(ConditionCheck(vid, cond, margin > 0, margin, x,
                                           float(report.value[i, k]), classification))
    assert report.checks == expected
    assert report.unevaluable == unevaluable
    assert report.junction_checks == []
    assert report.failures() == [
        f"{c.subject}: {c.condition} fails at x-index {c.x_index} (margin {c.margin:.6e})"
        + (f": {c.classification}" if c.classification else "")
        for c in expected if not c.passed
    ] + unevaluable
    # built once, then kept
    assert report.checks is report.checks


def test_tree_run_builds_no_check_objects(tmp_path, monkeypatch):
    import importlib.util
    from pathlib import Path

    import vesselflow.wellposedness as wp
    from vesselflow import run
    from vesselflow.config import parse_config
    from vesselflow.solver import initial_state

    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    doc, _ = workloads.tree_doc(workloads.draw(0), "smoke", str(tmp_path))
    loaded = parse_config(doc)

    built = []
    for name in ("ConditionCheck", "JunctionConditionCheck"):
        cls = getattr(wp, name)

        def counted(*args, _cls=cls, **kwargs):
            built.append(_cls.__name__)
            return _cls(*args, **kwargs)

        monkeypatch.setattr(wp, name, counted)
    state0, _ = initial_state(loaded.net, loaded.init, loaded.sim)
    report = run(loaded.net, state0, loaded.sim)
    assert report.steps == 3 and report.full_checks == 4
    assert report.worst_junction_node
    assert built == []
    # the count sees objects when a report's lists are read
    rep = check_state(report.final_state, loaded.sim)
    assert len(rep.checks) == 4 * 63 and len(rep.junction_checks) == 31
    assert len(built) == 4 * 63 + 31
