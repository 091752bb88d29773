"""Oracle self-tests and experiment driver tests."""

import numpy as np
import pytest

from vesselflow import (
    ConstantSignal,
    ExternalPressure,
    InitSpec,
    Network,
    SimConfig,
    SimulationError,
    SyntheticCoefficients,
    TransAttachment,
    Transitional,
    Vessel,
    VesselInit,
)
from vesselflow.constitutive import CoefficientSet, EigenData
from vesselflow.junctions import TransitionalState
from vesselflow.verification import (
    EndpointClosureInput,
    RCParams,
    Scenario,
    assemble_transitional,
    dependence_experiment,
    oracle_linear_translation,
    oracle_rc_transitional,
    perturb_initial_pressure_sine,
    rc_system,
    run_scenario,
    solve_node,
    transitional_step_response,
)


def bump(y):
    y = np.asarray(y)
    out = np.zeros_like(y)
    m = (y > 0.3) & (y < 0.6)
    out[m] = np.sin(np.pi * (y[m] - 0.3) / 0.3) ** 2
    return out


# --- traveling-wave oracle --------------------------------------------------


def test_oracle_identity_at_t0():
    x = np.linspace(0, 1, 101)
    r, s = oracle_linear_translation(1.0, 1.0, 0.0, bump, bump, 0.0, x)
    assert np.array_equal(r, bump(x))
    assert np.array_equal(s, bump(x))


def test_oracle_translation():
    x = np.linspace(0, 1, 401)
    r, s = oracle_linear_translation(
        1.0, 1.0, 0.0, np.sin, lambda y: np.zeros_like(np.asarray(y)), 0.25, x
    )
    assert np.allclose(r, np.sin(x - 0.25), rtol=0, atol=1e-15)


def test_oracle_horizon_guard():
    x = np.linspace(0, 1, 11)
    with pytest.raises(SimulationError, match="horizon"):
        oracle_linear_translation(
            1.0, 1.0, 0.0, bump, bump, 0.5, x, r0_support=(0.3, 0.6)
        )


def test_oracle_energy_conserved():
    # quadrature of r^2 + s^2 on the exact solution is translation
    # invariant while the supports stay interior
    x = np.linspace(0, 1, 4001)
    f0 = None
    for t in (0.0, 0.1, 0.25):
        # s moves left at lambda_L = -1, so give it right-side support
        r, s = oracle_linear_translation(
            1.0, 1.0, 0.0, lambda y: bump(np.asarray(y) + 0.25),
            lambda y: bump(np.asarray(y) - 0.3), t, x,
            r0_support=(0.05, 0.35), s0_support=(0.6, 0.9),
        )
        f = np.trapezoid(r**2 + s**2, x)
        if f0 is None:
            f0 = f
        assert f == pytest.approx(f0, rel=1e-6)


# --- lumped-circuit oracle ----------------------------------------------------


def test_rc_steady_limit():
    params = RCParams(C1=0.5, C2=0.5, R_C=2.0, R_vein=3.0, P_vein=1.0)
    q = 0.25
    t_inf = 200.0  # >> all time constants
    p1, p2 = oracle_rc_transitional(params, q, (0.0, 0.0), t_inf)
    assert p1 - p2 == pytest.approx(params.R_C * q, rel=1e-9)
    # vein leg carries the same flow in steady state
    assert (p2 - params.P_vein) / params.R_vein == pytest.approx(q, rel=1e-9)


def test_rc_difference_mode_eigenvalue():
    # equal capacitors, no vein leg: the gap relaxes at rate 2/(R_C C)
    C, R_C = 0.7, 3.0
    params = RCParams(C1=C, C2=C, R_C=R_C, R_vein=None)
    M, k = rc_system(params, 0.0)
    eigs = sorted(np.linalg.eigvals(M).real)
    assert eigs[0] == pytest.approx(-2.0 / (R_C * C), rel=1e-12)
    assert eigs[1] == pytest.approx(0.0, abs=1e-14)
    # cross-check against a fine-dt explicit integration
    z = np.array([4.0, 1.0])
    dt, T = 1e-4, 0.5
    for _ in range(int(T / dt)):
        z = z + dt * (M @ z + k)
    p1, p2 = oracle_rc_transitional(params, 0.0, (4.0, 1.0), T)
    assert np.allclose([p1, p2], z, rtol=1e-3)


def test_rc_zero_step_constant():
    params = RCParams(C1=0.5, C2=0.5, R_C=2.0, R_vein=None)
    p1, p2 = oracle_rc_transitional(params, 0.0, (3.0, 3.0), 10.0)
    assert p1 == pytest.approx(3.0, rel=1e-12)
    assert p2 == pytest.approx(3.0, rel=1e-12)


# --- decoupled transitional harness -------------------------------------------


def trans_node():
    return Transitional(
        "t",
        arteries=(TransAttachment("a", 2.0),),
        veins=(TransAttachment("v", 3.0),),
        R_C=2.0, C1=0.5, C2=0.5,
    )


def test_step_response_converges_first_order():
    node = trans_node()
    params = RCParams(C1=node.C1, C2=node.C2, R_C=node.R_C, R_vein=3.0, P_vein=0.0)
    q = 0.25
    T = 2.0
    exact = oracle_rc_transitional(params, q, (0.0, 0.0), T)
    errs = []
    for dt in (0.05, 0.025, 0.0125):
        traj = transitional_step_response(
            node, q, 0.0, dt, int(round(T / dt)), TransitionalState(0.0, 0.0)
        )
        got = (traj[-1].P_C1, traj[-1].P_C2)
        errs.append(max(abs(g - e) for g, e in zip(got, exact)))
    orders = [np.log2(e1 / e2) for e1, e2 in zip(errs, errs[1:])]
    assert all(o > 0.9 for o in orders)
    assert all(o < 1.5 for o in orders)  # backward Euler, not more


def test_step_response_steady_gap():
    node = trans_node()
    q = 0.25
    dt = 0.05
    # slowest circuit eigenvalue here is ~0.28 1/s (tau ~ 3.6 s); run 11 tau
    traj = transitional_step_response(node, q, 0.0, dt, 800, TransitionalState(0.0, 0.0))
    gap = traj[-1].P_C1 - traj[-1].P_C2
    assert abs(gap - node.R_C * q) <= 1e-3 * abs(node.R_C * q)


@pytest.mark.parametrize("dt", [0.05, 0.025, 0.0125])
def test_step_response_equals_the_reference_assembly(dt):
    # the harness closes the node through the solver's junction layout;
    # the node-by-node reference assembly of the same ideal sources (a
    # degenerate characteristic row per end: Q = q at the artery, P =
    # p_vein at the vein) gives the same trajectory bit for bit
    node = trans_node()
    q, p_vein, state = 0.25, 1.5, TransitionalState(0.5, 0.25)
    inputs = [
        EndpointClosureInput(
            vessel_id="a", end="x1", coeffs=CoefficientSet(a=1.0, b=1.0, c=0.0, f=0.0, g=0.0, A=1.0),
            eig=EigenData(lambda_R=1.0, lambda_L=0.0, u=1.0), char_value=q, resistance=2.0,
        ),
        EndpointClosureInput(
            vessel_id="v", end="x0", coeffs=CoefficientSet(a=0.0, b=1.0, c=0.0, f=0.0, g=0.0, A=1.0),
            eig=EigenData(lambda_R=-1.0, lambda_L=-2.0, u=0.5), char_value=p_vein, resistance=3.0,
        ),
    ]
    traj = transitional_step_response(node, q, p_vein, dt, 60, state)
    expected = []
    for _ in range(60):
        M, b = assemble_transitional(node, inputs, state, dt)
        x = solve_node(M, b, node.id)
        state = TransitionalState(float(x[-2]), float(x[-1]))
        expected.append(state)
    got = np.array([(s.P_C1, s.P_C2) for s in traj])
    want = np.array([(s.P_C1, s.P_C2) for s in expected])
    assert got.tobytes() == want.tobytes()


# --- dependence experiment ------------------------------------------------------


def linear_scenario():
    v = Vessel(
        id="v", n_cells=50, x0_node="in", x1_node="out",
        synthetic=SyntheticCoefficients(a=1.0, b=1.0, c=0.0),
    )
    net = Network(
        vessels={"v": v},
        nodes={
            "in": ExternalPressure("in", ConstantSignal(0.0)),
            "out": ExternalPressure("out", ConstantSignal(0.0)),
        },
    )
    cfg = SimConfig(dt=0.01, t_end=0.1)
    init = InitSpec(default=VesselInit(P=lambda x: bump(x), Q=0.0))
    return Scenario(net=net, cfg=cfg, init=init)


def test_dependence_zero_epsilon():
    s = linear_scenario()
    rows = dependence_experiment(s, perturb_initial_pressure_sine, [0.0])
    assert rows[0].sup_deviation == 0.0
    assert rows[0].ratio == 0.0


def test_dependence_exactly_linear_scheme():
    # for a linear system the discrete map is affine, so deviation/eps is
    # constant to rounding
    s = linear_scenario()
    rows = dependence_experiment(s, perturb_initial_pressure_sine, [1e-2, 1e-4, 1e-6])
    ratios = [r.ratio for r in rows]
    assert max(ratios) / min(ratios) < 1.0 + 1e-6


def test_run_scenario_returns_final_state():
    s = linear_scenario()
    final = run_scenario(s)
    assert final.t == pytest.approx(0.1, abs=1e-12)
