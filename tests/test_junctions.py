"""Node closure tests: external ends, branching and transitional systems."""

import numpy as np
import pytest

from vesselflow import (
    BranchAttachment,
    Branching,
    PrimitiveState,
    SingularJunction,
    TransAttachment,
    Transitional,
    eigen,
    to_riemann,
)
from vesselflow.constitutive import CoefficientSet, EigenData
from vesselflow.junctions import (
    TransitionalState,
    condition_estimates,
    flow_at_pressure_end,
    junction_layout,
    pressure_at_flow_end,
    solve_systems,
)
from vesselflow.verification import (
    EndpointClosureInput,
    _char_row,
    assemble_branching,
    assemble_transitional,
    branching_derivative_matrix,
    solve_node,
    transitional_reduced_diagonals,
)


def make_input(end, a=1.0, b=1.0, c=0.0, A=1.0, char_value=0.0, q_prev=0.0,
               rho_j=None, resistance=None, vid="v"):
    cs = CoefficientSet(a=a, b=b, c=c, f=0.0, g=0.0, A=A)
    return EndpointClosureInput(
        vessel_id=vid, end=end, coeffs=cs, eig=eigen(cs), char_value=char_value,
        q_prev=q_prev, rho_j=rho_j, resistance=resistance,
    )


def steady_input(end, P, Q, a=1.0, b=1.0, c=0.0, A=1.0, **kw):
    """Closure input whose characteristic value matches a steady state."""
    cs = CoefficientSet(a=a, b=b, c=c, f=0.0, g=0.0, A=A)
    e = eigen(cs)
    rp = to_riemann(cs, e, PrimitiveState(P=P, Q=Q))
    char = rp[0] if end == "x1" else rp[1]
    return EndpointClosureInput(
        vessel_id=kw.pop("vid", "v"), end=end, coeffs=cs, eig=e,
        char_value=float(char), q_prev=Q, **kw,
    )


def end_number(inp):
    """The vessel-end number of inp's end on a one-vessel layout."""
    return np.array([int(inp.end == "x1")])


def close_pressure_end(inp, P_B):
    """One prescribed-pressure end through the elementwise closure."""
    cp, cq, char = _char_row(inp)
    values = np.array([[inp.coeffs.a], [cp], [cq], [char], [P_B]])
    Q = flow_at_pressure_end((inp.vessel_id,), end_number(inp), *values)
    return PrimitiveState(P=P_B, Q=float(Q[0]))


def close_flow_end(inp, Q_B):
    """One prescribed-flow end through the elementwise closure."""
    cp, cq, char = _char_row(inp)
    lam = inp.eig.lambda_L if inp.incoming else inp.eig.lambda_R
    values = np.array([[lam], [inp.eig.u], [cp], [cq], [char], [Q_B]])
    P = pressure_at_flow_end((inp.vessel_id,), end_number(inp), *values)
    return PrimitiveState(P=float(P[0]), Q=Q_B)


def solve(M, b, node_id="n"):
    """Solution vector of one node system, through the stacked solve."""
    return solve_node(M, b, node_id)


def layout_systems(node, inputs, dt, state_prev=None):
    """Matrix and right-hand side of one junction node as the solver
    assembles them: a one-node `junction_layout` and its `step` and
    `fill`, in the unknown order of `assemble_*`."""
    if isinstance(node, Branching):
        params, P_C1, P_C2 = [inp.rho_j for inp in inputs], [], []
    else:
        params = [inp.resistance for inp in inputs]
        P_C1, P_C2 = [state_prev.P_C1], [state_prev.P_C2]
    incoming = np.array([inp.incoming for inp in inputs])
    layout = junction_layout([(node, tuple(range(len(inputs))))], incoming, params)
    q_prev = np.array([inp.q_prev for inp in inputs])
    M, b = layout.step(dt, q_prev, np.array(P_C1, float), np.array(P_C2, float))
    cp, cq, char = np.array([_char_row(inp) for inp in inputs]).T
    layout.fill(M, b, cp, cq, char, np.array([inp.coeffs.A for inp in inputs]))
    return M[..., 0], b[:, 0]


# The closure properties below must hold for the reference assembly and
# for the solver's junction layout alike; both take (node, inputs, dt=,
# state_prev=) by keyword.
BRANCHING_ASSEMBLIES = (assemble_branching, layout_systems)
TRANSITIONAL_ASSEMBLIES = (assemble_transitional, layout_systems)


# --- external closures ----------------------------------------------------


def test_close_pressure_example():
    inp = make_input("x0", char_value=1.0)  # a=1, lambda_R=1, s=1
    st = close_pressure_end(inp, P_B=2.0)
    assert st.P == 2.0
    assert st.Q == pytest.approx(3.0, rel=1e-15)


def test_close_pressure_consistency_with_steady_state():
    inp = steady_input("x0", P=5.0, Q=2.0, a=2.0, b=0.5, c=0.3)
    st = close_pressure_end(inp, P_B=5.0)
    assert st.P == pytest.approx(5.0, rel=1e-14)
    assert st.Q == pytest.approx(2.0, rel=1e-14)


def test_close_pressure_reproduces_characteristic():
    rng = np.random.default_rng(21)
    for _ in range(300):
        a = rng.uniform(0.2, 5)
        b = rng.uniform(0.1, 5)
        c = rng.uniform(-1, 1)
        end = "x0" if rng.random() < 0.5 else "x1"
        s_known = rng.uniform(-10, 10)
        P_B = rng.uniform(-10, 10)
        inp = make_input(end, a=a, b=b, c=c, char_value=s_known)
        st = close_pressure_end(inp, P_B)
        rp = to_riemann(inp.coeffs, inp.eig, PrimitiveState(P=st.P, Q=st.Q))
        got = rp[1] if end == "x0" else rp[0]
        assert got == pytest.approx(s_known, rel=1e-12, abs=1e-12)


def test_close_flow_example():
    inp = make_input("x0", char_value=1.0)
    st = close_flow_end(inp, Q_B=3.0)
    assert st.Q == 3.0
    assert st.P == pytest.approx(2.0, rel=1e-15)


def test_close_flow_zero():
    inp = make_input("x0", char_value=0.0)
    st = close_flow_end(inp, Q_B=0.0)
    assert st.P == 0.0 and st.Q == 0.0


def test_closure_cross_round_trip():
    rng = np.random.default_rng(23)
    for _ in range(200):
        end = "x0" if rng.random() < 0.5 else "x1"
        inp = make_input(
            end, a=rng.uniform(0.2, 5), b=rng.uniform(0.1, 5),
            c=rng.uniform(-1, 1), char_value=rng.uniform(-5, 5),
        )
        q = rng.uniform(-5, 5)
        st1 = close_flow_end(inp, q)
        st2 = close_pressure_end(inp, st1.P)
        assert st2.Q == pytest.approx(q, rel=1e-12, abs=1e-12)


def test_close_flow_degenerate_speed():
    cs = CoefficientSet(a=1.0, b=1.0, c=0.0, f=0.0, g=0.0, A=1.0)
    e = EigenData(lambda_R=0.0, lambda_L=-1.0, u=0.5)
    inp = EndpointClosureInput(vessel_id="v", end="x0", coeffs=cs, eig=e, char_value=0.0)
    with pytest.raises(SingularJunction):
        close_flow_end(inp, 1.0)


def test_pressure_ends_name_the_first_end_with_nonpositive_a():
    ones, a = np.ones(3), np.array([1.0, 0.0, -1.0])
    with pytest.raises(SingularJunction, match="^vessel 'q': coefficient a must be positive"):
        flow_at_pressure_end(("p", "q", "r"), np.array([0, 2, 4]), a, ones, ones, ones, ones)


def test_flow_ends_name_the_first_end_with_vanishing_speed():
    ones = np.ones(3)
    lam = np.array([0.5, 1e-15, 0.0])
    with pytest.raises(SingularJunction, match="^vessel 'q' end x1: characteristic speed vanishes"):
        pressure_at_flow_end(("p", "q", "r"), np.array([0, 3, 4]), lam, ones, ones, ones, ones, ones)


def test_external_closures_are_elementwise():
    # many ends at once give, bit for bit, the Python-float closed forms
    rng = np.random.default_rng(5)
    a, lam, cp, cq, char, value = rng.uniform(0.5, 2.0, (6, 6))
    ids, ends = tuple("abcdef"), np.arange(0, 12, 2)
    Q = flow_at_pressure_end(ids, ends, a, cp, cq, char, value).tolist()
    P = pressure_at_flow_end(ids, ends, lam, a, cp, cq, char, value).tolist()
    a, lam, cp, cq, char, value = (v.tolist() for v in (a, lam, cp, cq, char, value))
    assert Q == [(char[k] - cp[k] * value[k]) / cq[k] for k in range(6)]
    assert P == [(char[k] - cq[k] * value[k]) / cp[k] for k in range(6)]


# --- branching ------------------------------------------------------------


def two_vessel_connector(P, Q, rho_j=1e-3):
    node = Branching(
        "j", (BranchAttachment("u", "x1", rho_j), BranchAttachment("d", "x0", rho_j))
    )
    inputs = [
        steady_input("x1", P, Q, vid="u", rho_j=rho_j),
        steady_input("x0", P, Q, vid="d", rho_j=rho_j),
    ]
    return node, inputs


def test_branching_steady_state_is_fixed_point():
    P, Q = 4.0, 1.5
    node, inputs = two_vessel_connector(P, Q)
    for assemble in BRANCHING_ASSEMBLIES:
        x = solve(*assemble(node, inputs, dt=1e-3))
        assert x[0:-1:2] == pytest.approx([P, P], rel=1e-12)
        assert x[1:-1:2] == pytest.approx([Q, Q], rel=1e-12)
        assert x[-1] == pytest.approx(P, rel=1e-12)


def test_branching_system_size():
    node = Branching(
        "j",
        (
            BranchAttachment("p", "x1", 1e-3),
            BranchAttachment("c1", "x0", 1e-3),
            BranchAttachment("c2", "x0", 1e-3),
        ),
    )
    inputs = [
        steady_input("x1", 1.0, 0.5, vid="p", rho_j=1e-3),
        steady_input("x0", 1.0, 0.25, vid="c1", rho_j=1e-3),
        steady_input("x0", 1.0, 0.25, vid="c2", rho_j=1e-3),
    ]
    M, b = assemble_branching(node, inputs, dt=1e-3)
    assert M.shape == (7, 7)
    assert b.shape == (7,)


def random_branching_inputs(rng, mu=None):
    mu = mu or rng.integers(2, 6)
    n_in = int(rng.integers(1, mu))
    inputs = []
    for k in range(mu):
        end = "x1" if k < n_in else "x0"
        a = rng.uniform(0.2, 5)
        b = rng.uniform(0.1, 5)  # ab > 0: endpoint condition holds
        c = rng.uniform(-0.5, 0.5)
        inputs.append(
            make_input(
                end, a=a, b=b, c=c, A=rng.uniform(0.5, 2),
                char_value=rng.uniform(-5, 5), q_prev=rng.uniform(-1, 1),
                rho_j=rng.uniform(1e-4, 1e-1), vid=f"v{k}",
            )
        )
    return inputs


def paper_product_determinant(inputs):
    """Independent evaluation of the closed-form determinant of the
    reduced block: (-1/2)^mu prod rho*lam/(u a A) * sum A/rho with lam
    the outgoing-family speed at each end."""
    ordered = [i for i in inputs if i.incoming] + [i for i in inputs if not i.incoming]
    mu = len(ordered)
    det = (-0.5) ** mu
    for inp in ordered:
        lam = inp.eig.lambda_L if inp.incoming else inp.eig.lambda_R
        det *= inp.rho_j * lam / (inp.eig.u * inp.coeffs.a * inp.coeffs.A)
    det *= sum(inp.coeffs.A / inp.rho_j for inp in ordered)
    return det


def test_branching_determinant_formula():
    rng = np.random.default_rng(31)
    for _ in range(100):
        inputs = random_branching_inputs(rng)
        M = branching_derivative_matrix(inputs)
        det = np.linalg.det(M)
        expected = paper_product_determinant(inputs)
        assert det != 0.0
        assert det == pytest.approx(expected, rel=1e-8)


def test_branching_mass_balance_exact():
    rng = np.random.default_rng(37)
    for _ in range(100):
        inputs = random_branching_inputs(rng)
        node = Branching(
            "j", tuple(BranchAttachment(i.vessel_id, i.end, i.rho_j) for i in inputs)
        )
        for assemble in BRANCHING_ASSEMBLIES:
            Q = solve(*assemble(node, inputs, dt=1e-3))[1:-1:2].tolist()
            q_in = sum(q for q, i in zip(Q, inputs) if i.end == "x1")
            q_out = sum(q for q, i in zip(Q, inputs) if i.end == "x0")
            q_tot = sum(abs(q) for q in Q)
            assert abs(q_in - q_out) <= 1e-10 * max(1.0, q_tot)


def test_branching_characteristic_consistency():
    rng = np.random.default_rng(41)
    for _ in range(100):
        inputs = random_branching_inputs(rng)
        node = Branching(
            "j", tuple(BranchAttachment(i.vessel_id, i.end, i.rho_j) for i in inputs)
        )
        for assemble in BRANCHING_ASSEMBLIES:
            x = solve(*assemble(node, inputs, dt=1e-3)).tolist()
            for k, inp in enumerate(inputs):
                st = PrimitiveState(P=x[2 * k], Q=x[2 * k + 1])
                rp = to_riemann(inp.coeffs, inp.eig, st)
                got = rp[0] if inp.incoming else rp[1]
                assert abs(got - inp.char_value) <= 1e-10 * max(1.0, abs(inp.char_value))


def test_rho_to_zero_pressure_continuity():
    # the junction pressure gap closes monotonically as inertance shrinks
    for assemble in BRANCHING_ASSEMBLIES:
        gaps = []
        for rho_j in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
            node = Branching(
                "j", (BranchAttachment("u", "x1", rho_j), BranchAttachment("d", "x0", rho_j))
            )
            inputs = [
                steady_input("x1", 4.0, 1.0, vid="u", rho_j=rho_j),
                # downstream sees a different incoming state: transient jump
                steady_input("x0", 3.0, 1.0, vid="d", rho_j=rho_j),
            ]
            P_u, _, P_d = solve(*assemble(node, inputs, dt=1e-3))[:3]
            gaps.append(abs(P_u - P_d))
        assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
        # gap scales like rho/dt once out of the large-inertance regime
        assert gaps[-1] < 2e-3 * gaps[0]


# --- transitional -----------------------------------------------------------


def trans_node(R_a=2.0, R_v=3.0, R_C=2.0, C1=0.5, C2=0.5):
    return Transitional(
        "t",
        arteries=(TransAttachment("a", R_a),),
        veins=(TransAttachment("v", R_v),),
        R_C=R_C, C1=C1, C2=C2,
    )


def test_transitional_equilibrium_reduces_to_identity():
    # P_C1 - P_C2 = R_C * Q with matching endpoint states: nothing moves
    node = trans_node()
    Q = 0.5
    P_C1, P_C2 = 10.0, 10.0 - node.R_C * Q
    P_a = P_C1 + node.arteries[0].resistance * Q
    P_v = P_C2 - node.veins[0].resistance * Q
    inputs = [
        steady_input("x1", P_a, Q, vid="a", resistance=node.arteries[0].resistance),
        steady_input("x0", P_v, Q, vid="v", resistance=node.veins[0].resistance),
    ]
    prev = TransitionalState(P_C1, P_C2)
    for assemble in TRANSITIONAL_ASSEMBLIES:
        x = solve(*assemble(node, inputs, dt=1e-2, state_prev=prev))
        assert x[-2] == pytest.approx(P_C1, rel=1e-12)
        assert x[-1] == pytest.approx(P_C2, rel=1e-12)
        assert x[1] == pytest.approx(Q, rel=1e-12)  # artery ("a", "x1")
        assert x[3] == pytest.approx(Q, rel=1e-12)  # vein ("v", "x0")


def test_capillary_flow_from_capacitor_gap():
    # Q_C = (P_C1 - P_C2)/R_C, observed through the node-probe surface
    from vesselflow import ListSink, Network, ProbeSpec, PowerLaw, Vessel
    from vesselflow import ConstantSignal, ExternalPressure
    from vesselflow.characteristics import VesselField
    from vesselflow.output import emit_probes, probe_plan
    from vesselflow.solver import NetworkState

    law = PowerLaw(C=1e4, R0=1e-3, beta=2.0)
    node = Transitional(
        "t", (TransAttachment("a", 1.0),), (TransAttachment("v", 1.0),),
        R_C=2.0, C1=1.0, C2=1.0,
    )
    net = Network(
        vessels={
            "a": Vessel(id="a", n_cells=2, x0_node="in", x1_node="t", tube_law=law),
            "v": Vessel(id="v", n_cells=2, x0_node="t", x1_node="out", tube_law=law),
        },
        nodes={
            "in": ExternalPressure("in", ConstantSignal(0.0)),
            "t": node,
            "out": ExternalPressure("out", ConstantSignal(0.0)),
        },
    )
    state = NetworkState.from_fields(
        net,
        0.0,
        {vid: VesselField(vid, 0.0, np.zeros(3), np.zeros(3)) for vid in ("a", "v")},
        transitional={"t": TransitionalState(10.0, 4.0)},
    )
    sink = ListSink()
    emit_probes(sink, probe_plan(state.layout, [ProbeSpec(quantities=("Q_C",), node="t")]), state, 1e-10)
    assert sink.records[0].value == 3.0


def test_transitional_system_size():
    node = trans_node()
    inputs = [
        steady_input("x1", 1.0, 0.1, vid="a", resistance=2.0),
        steady_input("x0", 0.5, 0.1, vid="v", resistance=3.0),
    ]
    M, _ = assemble_transitional(node, inputs, TransitionalState(1.0, 0.5), dt=1e-2)
    assert M.shape == (6, 6)


def test_transitional_reduced_diagonals_positive():
    rng = np.random.default_rng(43)
    for _ in range(200):
        inputs = [
            make_input("x1", a=rng.uniform(0.2, 5), b=rng.uniform(0.1, 5),
                       c=rng.uniform(-0.5, 0.5), resistance=rng.uniform(0.1, 10), vid="a"),
            make_input("x0", a=rng.uniform(0.2, 5), b=rng.uniform(0.1, 5),
                       c=rng.uniform(-0.5, 0.5), resistance=rng.uniform(0.1, 10), vid="v"),
        ]
        assert np.all(transitional_reduced_diagonals(inputs) > 0)


# --- solve_systems ----------------------------------------------------------


def test_solve_identity_system():
    rhs = np.array([1.0, 2.0, 3.0])
    assert solve(np.eye(3), rhs.copy()).tolist() == [1.0, 2.0, 3.0]


def test_solve_residual_property_random():
    rng = np.random.default_rng(47)
    for _ in range(50):
        inputs = random_branching_inputs(rng)
        node = Branching(
            "j", tuple(BranchAttachment(i.vessel_id, i.end, i.rho_j) for i in inputs)
        )
        M, b = assemble_branching(node, inputs, dt=1e-3)
        x = solve(M, b)
        resid = np.linalg.norm(b - M @ x, np.inf)
        scale = np.linalg.norm(M, np.inf) * np.linalg.norm(x, np.inf)
        assert resid <= 1e-10 * max(scale, 1e-300)


def test_singular_junction_detected():
    with pytest.raises(SingularJunction):
        solve(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 2.0]))


def _branching_stack(rng, count=6, mu=3):
    """Random branching systems as a node-minor stack: M (n, n, count),
    b (n, count), the node ids, and each node's (M, b)."""
    systems = []
    for k in range(count):
        inputs = random_branching_inputs(rng, mu=mu)
        node = Branching(
            f"n{k}", tuple(BranchAttachment(i.vessel_id, i.end, i.rho_j) for i in inputs)
        )
        systems.append(assemble_branching(node, inputs, dt=1e-3))
    M = np.stack([Mk for Mk, _ in systems], axis=-1)
    b = np.stack([bk for _, bk in systems], axis=-1)
    return M, b, tuple(f"n{k}" for k in range(count)), systems


def _transitional_stack(rng, count=5, arteries=2, veins=1):
    """Random transitional systems as a node-minor stack, like
    `_branching_stack`."""
    systems = []
    for k in range(count):
        inputs = [
            make_input("x1" if i < arteries else "x0", a=rng.uniform(0.2, 5),
                       b=rng.uniform(0.1, 5), c=rng.uniform(-0.5, 0.5), A=rng.uniform(0.5, 2),
                       char_value=rng.uniform(-5, 5), resistance=rng.uniform(0.1, 10), vid=f"v{i}")
            for i in range(arteries + veins)
        ]
        legs = [TransAttachment(i.vessel_id, i.resistance) for i in inputs]
        node = Transitional(f"t{k}", tuple(legs[:arteries]), tuple(legs[arteries:]),
                            R_C=rng.uniform(0.5, 5), C1=rng.uniform(0.1, 2), C2=rng.uniform(0.1, 2))
        prev = TransitionalState(rng.uniform(-1, 1), rng.uniform(-1, 1))
        systems.append(assemble_transitional(node, inputs, prev, dt=1e-2))
    M = np.stack([Mk for Mk, _ in systems], axis=-1)
    b = np.stack([bk for _, bk in systems], axis=-1)
    return M, b, tuple(f"t{k}" for k in range(count)), systems


def equilibrated(A):
    """Row then column scaling of one 2D matrix with plain numpy calls."""
    row = np.max(np.abs(A), axis=1)
    As = (1.0 / row)[:, None] * A
    return As * (1.0 / np.max(np.abs(As), axis=0))[None, :]


def per_matrix_solve(A, b):
    """Reference: equilibration, solve and one refinement pass on one
    2D matrix with plain numpy calls."""
    row = np.max(np.abs(A), axis=1)
    As = (1.0 / row)[:, None] * A
    dc = 1.0 / np.max(np.abs(As), axis=0)
    As = As * dc[None, :]
    dr = 1.0 / row
    x = dc * np.linalg.solve(As, dr * b)
    return x + dc * np.linalg.solve(As, dr * (b - A @ x))


def check_stacked_solve(M, b, ids, systems):
    x, ratio = solve_systems(M, b, ids)
    assert np.all((ratio >= 0) & (ratio <= 1e-10))
    for k, (Mk, bk) in enumerate(systems):
        assert per_matrix_solve(Mk, bk).tobytes() == x[:, k].tobytes()
        x_k, ratio_k = solve_systems(Mk[..., None], bk[:, None], (ids[k],))
        assert x_k[:, 0].tobytes() == x[:, k].tobytes()
        assert ratio_k.tobytes() == ratio[k : k + 1].tobytes()


def test_stacked_solve_equals_per_matrix_arithmetic():
    for seed, mu in ((8, 3), (10, 5)):
        check_stacked_solve(*_branching_stack(np.random.default_rng(seed), mu=mu))


def test_stacked_transitional_solve_equals_per_matrix_arithmetic():
    # n = 8 and 10 unknowns: row sums of 8 or more terms are summed pairwise
    for seed, arteries in ((8, 2), (10, 3)):
        check_stacked_solve(*_transitional_stack(np.random.default_rng(seed), arteries=arteries))


@pytest.mark.parametrize("defect", ["zero row", "zero column", "nan entry", "repeated row"])
def test_singular_node_inside_a_batch_is_named(defect):
    M, b, ids, _ = _branching_stack(np.random.default_rng(9))
    bad = 3
    if defect == "zero row":
        M[2, :, bad] = 0.0
    elif defect == "zero column":
        M[:, 2, bad] = 0.0
    elif defect == "nan entry":
        M[0, 1, bad] = np.nan
    else:  # exactly singular without a zero row or column
        M[2, :, bad] = M[0, :, bad]
    with pytest.raises(SingularJunction) as err:
        solve_systems(M, b, ids)
    assert err.value.node_id == ids[bad]
    assert repr(ids[bad]) in str(err.value)
    if defect == "repeated row":
        assert err.value.condition_estimate > 1e12
    else:
        assert err.value.condition_estimate == np.inf


def test_a_singular_stack_names_its_first_singular_node():
    # nodes 1 and 3 exactly singular, without a zero row or column: LAPACK
    # fails the whole stack, and the first node whose estimate reads inf is named
    M, b, ids, _ = _branching_stack(np.random.default_rng(9))
    for k in (3, 1):
        M[2, :, k] = M[0, :, k]
    with pytest.raises(SingularJunction) as err:
        solve_systems(M, b, ids)
    assert str(err.value) == f"node {ids[1]!r}: junction system is singular (Singular matrix)"
    assert err.value.node_id == ids[1] and err.value.condition_estimate == np.inf


@pytest.mark.parametrize("stack", [_branching_stack, _transitional_stack])
def test_condition_estimates_are_one_norm_condition_numbers(stack):
    M, _, ids, systems = stack(np.random.default_rng(21))
    est = condition_estimates(M, ids)
    want = np.array([np.linalg.cond(equilibrated(Mk), 1) for Mk, _ in systems])
    assert est.tobytes() == want.tobytes()
    # a strided node-minor view of a node-major copy: the same bits
    view = np.ascontiguousarray(M.transpose(2, 0, 1)).transpose(1, 2, 0)
    assert not view.flags.c_contiguous
    assert condition_estimates(view, ids).tobytes() == est.tobytes()
    # a singular or non-finite node reads inf, and the others are unchanged
    M[2, :, 1] = M[0, :, 1]
    M[0, 1, 3] = np.nan
    bad = condition_estimates(M, ids)
    assert bad[1] == bad[3] == np.inf
    assert bad[[0, 2, 4]].tobytes() == est[[0, 2, 4]].tobytes()
