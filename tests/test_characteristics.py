"""Characteristics kernel tests: tracing, source terms, interior update."""

import dataclasses

import numpy as np
import pytest

from vesselflow import CFLViolation, Network, PowerLaw, SyntheticCoefficients, Vessel
from vesselflow.characteristics import _trace, freeze_step, interior_update
from vesselflow.compiled import compile_network
from vesselflow.constitutive import PrimitiveState

EPS0 = 1e-10


def synthetic_vessel(n_cells, a=1.0, b=1.0, c=0.0, f=0.0, g=0.0, vid="v"):
    return Vessel(
        id=vid, n_cells=n_cells, x0_node="L", x1_node="R",
        synthetic=SyntheticCoefficients(a=a, b=b, c=c, f=f, g=g),
    )


def layout_of(*vessels):
    return compile_network(Network(vessels={v.id: v for v in vessels}))


def frozen_for(vessel, P0, Q0, dt, P1=None, Q1=None, t0=0.0):
    P1 = P0 if P1 is None else P1
    Q1 = Q0 if Q1 is None else Q1
    return freeze_step(layout_of(vessel), t0, P0, Q0, t0 + dt, P1, Q1, EPS0)


def feet(frozen, cfl_max=0.9):
    """Foot positions x of the characteristics through every grid node,
    row 0 the right-going family and row 1 the left-going one."""
    return _trace(frozen, cfl_max) / frozen.layout.cells


# --- the vector trace ------------------------------------------------------


def test_trace_constant_speed():
    # a=b=1, c=0 gives lambda_R = 1 everywhere
    v = synthetic_vessel(10)
    z = np.zeros(11)
    fr = frozen_for(v, z, z, dt=0.08)
    x_foot = feet(fr)[0]
    assert 0.0 <= x_foot[5] <= 1.0
    assert x_foot[5] == pytest.approx(0.42, abs=1e-15)


def test_trace_exit_geometry():
    # lambda_L = -1: tracing back moves right; from x=1 it exits
    v = synthetic_vessel(20)  # dx = 0.05, travel 0.04 < 0.9 dx
    z = np.zeros(21)
    fr = frozen_for(v, z, z, dt=0.04)
    x_left = feet(fr)[1]
    assert x_left[1] == pytest.approx(0.09, abs=1e-15)  # from x = 0.05
    assert x_left[20] == pytest.approx(1.04, abs=1e-15)
    assert x_left[20] > 1.0  # exits right
    # and the mirror exit for the right-going family
    assert feet(fr)[0, 0] < 0.0
    upd = interior_update(fr)
    assert np.isnan(upd.rs[1, -1]) and np.isnan(upd.rs[0, 0])


def test_trace_linear_speed_matches_exponential():
    # a=1, c=0, b = phi(x)^2 with phi = (1+x)/2 gives lambda_R = phi, a
    # spatially linear speed: the exact backward trace from (x0, dt)
    # lands at (1+x0) exp(-dt/2) - 1, and the midpoint rule should agree
    # to O(dt^3) (interpolation of a linear speed field is exact).
    n, dt = 200, 0.05
    v = Vessel(
        id="v", n_cells=n, x0_node="L", x1_node="R",
        synthetic=SyntheticCoefficients(
            a=1.0, b=lambda x, t: (0.5 * (1.0 + np.asarray(x))) ** 2, c=0.0
        ),
    )
    z = np.zeros(n + 1)
    fr = frozen_for(v, z, z, dt)
    x0 = 0.5
    x_foot = feet(fr, cfl_max=20.0)[0, 100]  # accuracy test, not a CFL test
    exact = (1.0 + x0) * np.exp(-0.5 * dt) - 1.0
    assert 0.0 <= x_foot <= 1.0
    assert abs(x_foot - exact) <= dt**3


def test_trace_cfl_violation():
    slow = synthetic_vessel(10, vid="slow")  # dx = 0.1, travel 0.05 < 0.09
    fast = synthetic_vessel(50, vid="fast")  # dx = 0.02, travel 0.05 > 0.018
    layout = layout_of(slow, fast)
    z = np.zeros(layout.size)
    fr = freeze_step(layout, 0.0, z, z, 0.05, z, z, EPS0)
    with pytest.raises(CFLViolation, match="'fast' family R"):
        _trace(fr, 0.9)


def test_trace_cfl_violation_in_the_left_going_family_alone():
    # c = -0.5 gives lambda_R = 0.618 and lambda_L = -1.618 on 'left':
    # at dt = 0.04 only its left-going travel (0.065) exceeds 0.9 dx = 0.045
    calm = synthetic_vessel(10, vid="calm")  # travel 0.04 < 0.09 both ways
    left = synthetic_vessel(20, c=-0.5, vid="left")
    layout = layout_of(calm, left)
    z = np.zeros(layout.size)
    fr = freeze_step(layout, 0.0, z, z, 0.04, z, z, EPS0)
    assert np.all(np.abs(0.04 * fr.new.lam[0] * layout.cells) <= 0.9)
    with pytest.raises(CFLViolation, match="^vessel 'left' family L: characteristic travels 6.472e-02"):
        _trace(fr, 0.9)


def test_kernel_guards_reject_nan():
    # a NaN speed or coupling fails every comparison: the Courant and
    # stiffness guards must still raise, naming the vessel, rather than
    # pass NaN on to the stencil
    v = synthetic_vessel(10, vid="v")
    z = np.zeros(11)
    fr = frozen_for(v, z, z, dt=0.05)
    lam = fr.old.lam.copy()
    lam[1, 4] = np.nan
    with pytest.raises(CFLViolation, match="^vessel 'v' family L: characteristic travels nan"):
        _trace(dataclasses.replace(fr, old=dataclasses.replace(fr.old, lam=lam)), 0.9)
    g_P = fr.g_P.copy()
    g_P[0, 4] = np.nan
    with pytest.raises(CFLViolation, match="^vessel 'v': source coupling too stiff"):
        interior_update(dataclasses.replace(fr, g_P=g_P))


def test_trace_clamps_at_segment_ends_like_interp():
    # the midpoint stage reads the speed at a position beyond the vessel
    # end; it must read the end value, as np.interp does, so the feet
    # match an np.interp trace of the same speed field
    n, dt = 16, 0.04
    v = Vessel(
        id="v", n_cells=n, x0_node="L", x1_node="R",
        synthetic=SyntheticCoefficients(a=1.0, b=lambda x, t: 1.0 + np.asarray(x) ** 2, c=0.3),
    )
    z = np.zeros(n + 1)
    fr = frozen_for(v, z, z, dt)
    x = v.grid
    for row, lam in enumerate((fr.new.eig.lambda_R, fr.new.eig.lambda_L)):
        x_half = x - 0.5 * dt * lam
        expected = x - dt * np.interp(x_half, x, lam)
        assert np.max(np.abs(feet(fr, cfl_max=2.0)[row] - expected)) <= 1e-15


def test_foot_monotone_in_target():
    # same-family feet cannot cross
    n = 64
    P = 2.0 + 0.3 * np.sin(2 * np.pi * np.linspace(0, 1, n + 1))
    Q = 0.2 * np.cos(2 * np.pi * np.linspace(0, 1, n + 1))

    def b_fun(x, t):
        return 1.0 + 0.2 * np.sin(2 * np.pi * np.asarray(x))

    v = Vessel(
        id="v", n_cells=n, x0_node="L", x1_node="R",
        synthetic=SyntheticCoefficients(a=1.0, b=b_fun, c=0.1),
    )
    fr = frozen_for(v, P, Q, dt=0.01)
    for x_foot in feet(fr):  # the right-going family, then the left-going one
        assert np.all(np.diff(x_foot) >= 0)


# --- source terms --------------------------------------------------------


def test_source_terms_vanish_for_constant_unforced():
    v = synthetic_vessel(10)
    P, Q = np.full(11, 3.0), np.full(11, -2.0)
    fr = frozen_for(v, P, Q, dt=0.01)
    assert np.all(fr.F[0] == 0.0) and np.all(fr.F[1] == 0.0)


def test_source_terms_constant_forcing():
    v = synthetic_vessel(10, g=1.0)
    z = np.zeros(11)
    fr = frozen_for(v, z, z, dt=0.01)
    assert np.all(fr.F[0] == 1.0) and np.all(fr.F[1] == 1.0)


def test_source_terms_manufactured_field():
    # Smooth manufactured coefficients; oracle = hand-derived analytic
    # derivatives at t=0. The scheme's t-difference of the (nonlinear in
    # t) eigenvalues carries an O(dt) offset, so dt is kept small.
    n = 8000
    x = np.linspace(0, 1, n + 1)
    dt = 1e-6

    def a_fun(xa, t):
        return 2.0 + 0.3 * np.sin(2 * np.pi * np.asarray(xa)) + 0.5 * t

    def b_fun(xa, t):
        return 1.0 + 0.2 * np.cos(2 * np.pi * np.asarray(xa)) - 0.1 * t

    def c_fun(xa, t):
        return 0.3 * np.asarray(xa) + 0.2 * t

    v = Vessel(
        id="v", n_cells=n, x0_node="L", x1_node="R",
        synthetic=SyntheticCoefficients(a=a_fun, b=b_fun, c=c_fun, f=0.1, g=0.2),
    )
    P = 1.0 + 0.5 * np.sin(2 * np.pi * x)
    Q = 0.3 * np.cos(2 * np.pi * x)
    fr = freeze_step(layout_of(v), 0.0, P, Q, dt, P, Q, EPS0)

    # analytic directional derivatives at t = 0 (old level)
    a = a_fun(x, 0.0)
    b = b_fun(x, 0.0)
    c = c_fun(x, 0.0)
    a_x = 0.3 * 2 * np.pi * np.cos(2 * np.pi * x)
    b_x = -0.2 * 2 * np.pi * np.sin(2 * np.pi * x)
    c_x = 0.3 * np.ones_like(x)
    a_t, b_t, c_t = 0.5, -0.1, 0.2
    u = np.sqrt(c**2 + a * b)
    u_x = (c * c_x + 0.5 * (a_x * b + a * b_x)) / u
    u_t = (c * c_t + 0.5 * (a_t * b + a * b_t)) / u
    lamR, lamL = c + u, c - u
    lamR_x, lamR_t = c_x + u_x, c_t + u_t
    lamL_x, lamL_t = c_x - u_x, c_t - u_t
    dR_lamL = lamL_t + lamR * lamL_x
    dR_a = a_t + lamR * a_x
    dL_lamR = lamR_t + lamL * lamR_x
    dL_a = a_t + lamL * a_x
    F_R_exact = -lamL * 0.1 + a * 0.2 - dR_lamL * P + dR_a * Q
    F_L_exact = -lamR * 0.1 + a * 0.2 - dL_lamR * P + dL_a * Q

    scale = np.max(np.abs(F_R_exact))
    assert np.max(np.abs(fr.F[0] - F_R_exact)) <= 1e-6 * scale
    assert np.max(np.abs(fr.F[1] - F_L_exact)) <= 1e-6 * scale


def test_levels_are_frozen_and_the_new_level_riemann_values_unread():
    v = synthetic_vessel(20, c=0.2, g=0.5)
    fr = frozen_for(v, np.full(21, 1.5), np.full(21, 0.3), dt=0.01)
    interior_update(fr)
    assert "rs" in vars(fr.old)
    assert "rs" not in vars(fr.new)
    for obj, name in ((fr, "F"), (fr.old, "base"), (fr.new, "P")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, None)


# --- interior update -----------------------------------------------------


def riemann_initial(vessel, r_fun, s_fun):
    """(P, Q) grids realizing prescribed characteristic profiles for a
    constant-coefficient synthetic vessel."""
    x = vessel.grid
    syn = vessel.synthetic
    u = np.sqrt(syn.c**2 + syn.a * syn.b)
    lamR, lamL = syn.c + u, syn.c - u
    r = r_fun(x)
    s = s_fun(x)
    P = (r - s) / (2 * u)
    Q = (lamR * r - lamL * s) / (2 * u * syn.a)
    return P, Q


def test_interior_translation_one_step():
    n = 200
    v = synthetic_vessel(n)  # lambda_R = 1, lambda_L = -1
    dt = 0.5 / n
    P, Q = riemann_initial(v, lambda x: np.sin(2 * np.pi * x), lambda x: np.zeros_like(x))
    fr = frozen_for(v, P, Q, dt)
    upd = interior_update(fr)
    x = v.grid
    interior = slice(1, n)
    exact = np.sin(2 * np.pi * (x - dt))
    err = np.max(np.abs(upd.rs[0, interior] - exact[interior]))
    assert err <= 1e-3
    assert np.isnan(upd.rs[0, 0])  # foot exited left, closure pending
    assert np.isfinite(upd.ends.known[1]) and np.isfinite(upd.ends.known[0])  # r at x=1, s at x=0


def test_interior_zero_state_fixed():
    v = synthetic_vessel(20)
    z = np.zeros(21)
    fr = frozen_for(v, z, z, dt=0.01)
    upd = interior_update(fr)
    assert np.all(upd.rs[0, 1:] == 0.0)
    assert np.all(upd.rs[1, :-1] == 0.0)


def test_interior_pure_source_integration():
    # g = 1, zero data: one step adds exactly dt to both families
    v = synthetic_vessel(20, g=1.0)
    z = np.zeros(21)
    dt = 0.01
    fr = frozen_for(v, z, z, dt)
    upd = interior_update(fr)
    assert np.allclose(upd.rs[0, 1:], dt, rtol=0, atol=0)
    assert np.allclose(upd.rs[1, :-1], dt, rtol=0, atol=0)


def test_exactness_on_constants_bit_for_bit():
    v = synthetic_vessel(33, c=0.2)
    P = np.full(34, 3.7)
    Q = np.full(34, -1.2)
    fr = frozen_for(v, P, Q, dt=0.005)
    upd = interior_update(fr)
    r0 = float(fr.old.rs[0, 0])
    s0 = float(fr.old.rs[1, 0])
    assert np.all(upd.rs[0, 1:] == r0)
    assert np.all(upd.rs[1, :-1] == s0)


def test_one_step_convergence_order():
    # linear-interp error halves at least ~2x per refinement at fixed CFL
    errs = []
    for n in (100, 200):
        v = synthetic_vessel(n)
        dt = 0.5 / n
        P, Q = riemann_initial(
            v, lambda x: np.sin(2 * np.pi * x), lambda x: np.zeros_like(x)
        )
        fr = frozen_for(v, P, Q, dt)
        upd = interior_update(fr)
        x = v.grid
        exact = np.sin(2 * np.pi * (x - dt))
        errs.append(np.max(np.abs(upd.rs[0, 1:n] - exact[1:n])))
    order = np.log2(errs[0] / errs[1])
    assert order >= 0.9


# --- the compiled layout ----------------------------------------------------


def test_segments_are_isolated_in_the_compiled_kernel():
    # three vessels of different sizes, power-law and synthetic mixed:
    # advancing them in one layout must give each vessel the r, s and
    # feet (also those beyond its ends) it gets when compiled alone
    def b_fun(x, t):
        return 1.0 + 0.3 * np.asarray(x) + 0.1 * t

    vessels = [
        Vessel(id="p1", n_cells=12, x0_node="A", x1_node="B", alpha=1.1,
               tube_law=PowerLaw(C=4e4, R0=1e-3, beta=2.0)),
        Vessel(id="s", n_cells=7, x0_node="B", x1_node="C",
               synthetic=SyntheticCoefficients(a=2.0, b=b_fun, c=0.2, g=0.5)),
        Vessel(id="p2", n_cells=20, x0_node="C", x1_node="D", alpha=1.2,
               tube_law=PowerLaw(C=2e4, R0=2e-3, beta=1.5)),
    ]

    def fields(v, t):
        x = v.grid
        base = 13000.0 if v.tube_law is not None else 1.0
        P = base * (1.0 + 0.05 * np.sin(2 * np.pi * x + t))
        Q = 1e-6 * np.cos(np.pi * x) if v.tube_law is not None else 0.3 * x
        return P, Q

    def advance(layout, dt=2e-4):
        P0 = np.concatenate([fields(layout.vessels[k], 0.0)[0] for k in range(len(layout.vessels))])
        Q0 = np.concatenate([fields(layout.vessels[k], 0.0)[1] for k in range(len(layout.vessels))])
        P1 = np.concatenate([fields(layout.vessels[k], 0.3)[0] for k in range(len(layout.vessels))])
        Q1 = np.concatenate([fields(layout.vessels[k], 0.3)[1] for k in range(len(layout.vessels))])
        fr = freeze_step(layout, 0.0, P0, Q0, dt, P1, Q1, EPS0)
        upd = interior_update(fr)
        out = (*upd.rs, *_trace(fr, 0.9))  # r, s and the feet of both families
        return {vid: [arr[layout.slices[vid]] for arr in out] for vid in layout.vessel_ids}

    together = advance(layout_of(*vessels))
    for v in vessels:
        alone = advance(layout_of(v))[v.id]
        for got, want in zip(together[v.id], alone):
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0, equal_nan=True)
        assert np.isfinite(together[v.id][0][-1]) and np.isfinite(together[v.id][1][0])


def mixed_layout():
    """Power-law, tabulated (one and two stations) and synthetic vessels
    with a smooth in-range state, in layout order."""
    from vesselflow import TabulatedLaw

    radii = np.linspace(0.9e-3, 1.4e-3, 26)
    row = 4e4 * ((radii / 1e-3) ** 2 - 1.0)
    kinds = {
        "p1": dict(tube_law=PowerLaw(C=4e4, R0=1e-3, beta=2.0), alpha=1.1),
        "p2": dict(tube_law=PowerLaw(C=2e4, R0=2e-3, beta=1.5), alpha=1.2),
        "t1": dict(tube_law=TabulatedLaw(radii=radii, pressures=[row]), alpha=1.1),
        "t2": dict(tube_law=TabulatedLaw(radii=radii, pressures=[row, 1.2 * row],
                                         x_stations=(0.0, 1.0)), alpha=1.1),
        "s": dict(synthetic=SyntheticCoefficients(
            a=2.0, b=lambda x, t: 1.0 + x + t, c=0.2, f=lambda x, t: x * t, g=0.5)),
    }
    vessels = [Vessel(id=vid, n_cells=6 + k, x0_node=f"{vid}0", x1_node=f"{vid}1", **kw)
               for k, (vid, kw) in enumerate(kinds.items())]
    layout = layout_of(*vessels)
    P = np.concatenate([13000.0 + 2000.0 * np.sin(3.0 * v.grid) for v in layout.vessels])
    Q = np.concatenate([1e-7 * np.cos(5.0 * v.grid) for v in layout.vessels])
    return layout, P, Q


def test_layout_coefficients_equal_per_vessel_coefficients():
    from vesselflow.compiled import layout_coefficients
    from vesselflow.constitutive import coefficients

    layout, P, Q = mixed_layout()
    assert layout.vessel_ids == ("p1", "p2", "s", "t1", "t2")
    t = 0.3
    every = layout_coefficients(layout, t, P, Q)
    for k, v in enumerate(layout.vessels):
        sl = layout.slices[v.id]
        want = coefficients(v, v.grid, t, PrimitiveState(P[sl], Q[sl]), epsilon0=EPS0)
        for name in ("a", "b", "c", "f", "g", "A"):
            got = getattr(every, name)[sl]
            assert np.broadcast_to(getattr(want, name), got.shape).tobytes() == got.tobytes()
            at_ends = np.broadcast_to(getattr(want, name), got.shape)[[0, -1]]
            assert getattr(every, name)[layout.ends[2 * k : 2 * k + 2]].tobytes() == at_ends.tobytes()


@pytest.mark.parametrize("vid, point, value, error", [
    ("p2", 0, -2e4 * (1.0 - 1e-9), "CollapsedVesselError"),  # area far below the floor
    ("p2", -1, -2e4, "TubeLawError"),  # P = -C: zero area, outside the law
    ("t2", 2, 5e4, "TubeLawError"),  # above the table at both stations
])
def test_layout_coefficients_checked_names_first_failing_vessel(vid, point, value, error):
    # the one check, and every level that must be evaluable: both levels
    # of the kernel (the old one also from cached coefficients), the
    # initial state, a snapshot and a probe of the point
    import vesselflow
    from vesselflow.characteristics import VesselField
    from vesselflow.compiled import check_coefficients, layout_coefficients
    from vesselflow.output import ListSink, ProbeSpec, emit_probes, emit_snapshot
    from vesselflow.solver import InitSpec, NetworkState, SimConfig, VesselInit, initial_state

    layout, P, Q = mixed_layout()
    _, good, _ = mixed_layout()
    sl = layout.slices[vid]
    at = (sl.start if point >= 0 else sl.stop) + point
    P[at] = value
    # a later failing point must not decide the error
    P[layout.slices["t2"].stop - 1] = 5e4
    unchecked = layout_coefficients(layout, 0.0, P, Q)
    assert not unchecked.A[at] >= EPS0
    raises = pytest.raises(getattr(vesselflow, error), match=f"vessel '{vid}'")
    with raises:
        check_coefficients(layout, P, unchecked, EPS0)
    with raises:
        freeze_step(layout, 0.0, good, Q, 0.01, P, Q, EPS0)
    with raises:
        freeze_step(layout, 0.0, P, Q, 0.01, good, Q, EPS0)
    with raises:
        freeze_step(layout, 0.0, P, Q, 0.01, good, Q, EPS0, old_coeffs=unchecked)
    net = layout.network
    fields = {k: VesselField(k, 0.0, P[s], Q[s]) for k, s in layout.slices.items()}
    init = InitSpec(per_vessel={k: VesselInit(P=f.P, Q=f.Q) for k, f in fields.items()})
    with raises:
        initial_state(net, init, SimConfig(dt=0.01, t_end=0.01, epsilon0=EPS0))
    state = NetworkState.from_fields(net, 0.0, fields)
    with raises:
        emit_snapshot(ListSink(), net, state, EPS0)
    probe = ProbeSpec(("A",), vessel=vid, x_index=at - sl.start)
    with raises:
        emit_probes(ListSink(), net, state, [probe], EPS0)

    # synthetic coefficients are taken as given, whatever their area
    cs = layout_coefficients(layout, 0.0, good, Q)
    A = cs.A.copy()
    A[layout.slices["s"]] = 0.0
    check_coefficients(layout, good, dataclasses.replace(cs, A=A), EPS0)
