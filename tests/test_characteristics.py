"""Characteristics kernel tests: tracing, source terms, interior update."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from vesselflow import CFLViolation, Network, PowerLaw, SyntheticCoefficients, Vessel
from vesselflow.characteristics import Workspace, _trace, build_level, freeze_step, interior_update
from vesselflow.compiled import compile_network, layout_coefficients
from vesselflow.config import load_config
from vesselflow.constitutive import PrimitiveState, to_riemann
from vesselflow.solver import initial_state, picard_step

EPS0 = 1e-10


def synthetic_vessel(n_cells, a=1.0, b=1.0, c=0.0, f=0.0, g=0.0, vid="v"):
    return Vessel(
        id=vid, n_cells=n_cells, x0_node="L", x1_node="R",
        synthetic=SyntheticCoefficients(a=a, b=b, c=c, f=f, g=g),
    )


def layout_of(*vessels):
    return compile_network(Network(vessels={v.id: v for v in vessels}))


def freeze(layout, t0, P0, Q0, t1, P1, Q1):
    """The step from (t0, P0, Q0) to (t1, P1, Q1), its old level built
    from the coefficients of P0 and Q0 as a step does."""
    cs = layout_coefficients(layout, t0, P0, Q0)
    return freeze_step(layout, build_level(layout, t0, P0, Q0, cs), t1, P1, Q1, EPS0)


def frozen_for(vessel, P0, Q0, dt, P1=None, Q1=None, t0=0.0):
    P1 = P0 if P1 is None else P1
    Q1 = Q0 if Q1 is None else Q1
    return freeze(layout_of(vessel), t0, P0, Q0, t0 + dt, P1, Q1)


def end_values(frozen, upd):
    """The resolved characteristic value at every vessel end (s at x=0,
    r at x=1, in `layout.ends` order), its coupling evaluated at the
    frozen iterate."""
    ends = frozen.layout.ends
    return upd.known + upd.kP * frozen.new.P[ends] + upd.kQ * frozen.new.Q[ends]


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
    fr = freeze(layout, 0.0, z, z, 0.05, z, z)
    with pytest.raises(CFLViolation, match="'fast' family R"):
        _trace(fr, 0.9)


def test_trace_cfl_violation_in_the_left_going_family_alone():
    # c = -0.5 gives lambda_R = 0.618 and lambda_L = -1.618 on 'left':
    # at dt = 0.04 only its left-going travel (0.065) exceeds 0.9 dx = 0.045
    calm = synthetic_vessel(10, vid="calm")  # travel 0.04 < 0.09 both ways
    left = synthetic_vessel(20, c=-0.5, vid="left")
    layout = layout_of(calm, left)
    z = np.zeros(layout.size)
    fr = freeze(layout, 0.0, z, z, 0.04, z, z)
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
    fr.old.lam[1, 4] = np.nan
    with pytest.raises(CFLViolation, match="^vessel 'v' family L: characteristic travels nan"):
        _trace(fr, 0.9)
    fr = frozen_for(v, z, z, dt=0.05)
    fr.g_P[0, 4] = np.nan
    with pytest.raises(CFLViolation, match="^vessel 'v': source coupling too stiff"):
        interior_update(fr)


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
    fr = freeze(layout_of(v), 0.0, P, Q, dt, P, Q)

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


def test_only_the_old_level_holds_its_riemann_values():
    # the update reads r and s of the old level alone, built with it
    # by the written formula; the new level has no buffer for them
    v = synthetic_vessel(20, c=0.2, g=0.5)
    P = np.where(np.arange(21) % 3 == 0, -0.0, 1.5)
    Q = np.where(np.arange(21) % 2 == 0, -0.0, 0.3)
    fr = frozen_for(v, P, Q, dt=0.01)
    old = fr.old
    assert (-old.lam[::-1] * P + old.coeffs.a * Q).tobytes() == old.rs.tobytes()
    # the public transform gives the same stack, bit for bit
    assert to_riemann(old.coeffs, old.eig, PrimitiveState(P, Q)).tobytes() == old.rs.tobytes()
    # where P and Q are -0.0: r = -lambda_L (-0.0) + a (-0.0) = -0.0 and
    # s = -lambda_R (-0.0) + a (-0.0) = +0.0
    assert np.signbit(old.rs[0, ::6]).all() and not np.signbit(old.rs[1, ::6]).any()
    assert Workspace(fr.layout).new.rs is None
    assert fr.new.rs is None


def test_the_old_level_of_a_power_law_step_holds_to_riemanns_stack():
    # the shipped bifurcation's first step: the closed power-law
    # coefficients, through build_level's in-place formula
    loaded = load_config(Path(__file__).resolve().parents[1] / "configs" / "bifurcation.json")
    state0, _ = initial_state(loaded.net, loaded.init, loaded.sim)
    assert state0.layout.power is not None and not state0.layout.fills
    work = Workspace(state0.layout)
    picard_step(state0, loaded.sim, work=work)
    old = work.old
    assert old.P is state0.P
    expected = to_riemann(old.coeffs, old.eig, PrimitiveState(state0.P, state0.Q))
    assert expected.tobytes() == old.rs.tobytes()


def test_a_pass_sets_no_floating_point_policy_of_its_own(monkeypatch):
    # the kernel runs under picard_step's one np.errstate: of the calls
    # one pass makes, only power_law_coefficients and eigen, which other
    # code calls on their own, enter one
    import sys

    entered = []

    class Counted(np.errstate):
        def __enter__(self):
            entered.append(sys._getframe(1).f_code.co_name)
            return super().__enter__()

    v = Vessel(id="v", n_cells=12, x0_node="A", x1_node="B", alpha=1.1,
               tube_law=PowerLaw(C=4e4, R0=1e-3, beta=2.0))
    layout = layout_of(v)
    P, Q = 13000.0 + 500.0 * np.sin(3.0 * v.grid), 1e-6 * np.cos(v.grid)
    old = build_level(layout, 0.0, P, Q, layout_coefficients(layout, 0.0, P, Q))
    monkeypatch.setattr(np, "errstate", Counted)
    interior_update(freeze_step(layout, old, 2e-4, P, Q, EPS0))
    assert sorted(entered) == ["eigen", "power_law_coefficients"]


def test_kernel_calls_without_a_workspace_leave_earlier_results_alone():
    # a call without a workspace makes its own, so a second step changes
    # nothing the first returned
    v = synthetic_vessel(20, c=lambda x, t: 0.2 + 0.1 * x, g=0.5)
    x = v.grid
    results = []
    for k in range(2):
        fr = frozen_for(v, 1.0 + np.sin(3 * x + k), 0.3 * x, dt=0.01 * (k + 1))
        upd = interior_update(fr)
        arrays = [fr.F, fr.g_P, fr.g_Q, upd.rs, upd.known, upd.kP, upd.kQ]
        for level in (fr.old, fr.new):
            arrays += [level.lam, level.base, level.adv_lam, level.adv_a, level.eig.u]
            arrays += vars(level.coeffs).values()
        arrays.append(fr.old.rs)
        results.append((arrays, [np.array(a, copy=True) for a in arrays]))
    (first, kept), (second, _) = results
    assert not any(np.shares_memory(a, b) for a in first for b in second if a.flags.writeable)
    for a, b in zip(first, kept):
        assert np.array_equal(a, b, equal_nan=True)


def test_a_warm_pass_builds_no_result_records(monkeypatch):
    # a pass's results live in its workspace: into a warm one, freeze_step
    # and interior_update build no coefficient set and allocate no array
    # of the layout's points (tracemalloc counts numpy's allocations; the
    # buffers numpy gives a broadcasting ufunc hold up to bufsize
    # elements, so a small bufsize keeps them below one point-array)
    import tracemalloc

    from vesselflow.constitutive import CoefficientSet

    v = Vessel(id="v", n_cells=3200, x0_node="A", x1_node="B", alpha=1.1,
               tube_law=PowerLaw(C=4e4, R0=1e-3, beta=2.0))
    layout = layout_of(v)
    n = layout.size
    assert n == 3201
    P, Q = 13000.0 + 500.0 * np.sin(3.0 * v.grid), 1e-6 * np.cos(v.grid)
    dt = 0.5 / (3200 * 7.2)  # CFL about 0.5
    old = build_level(layout, 0.0, P, Q, layout_coefficients(layout, 0.0, P, Q))
    work = Workspace(layout)
    interior_update(freeze_step(layout, old, dt, P, Q, EPS0, work))
    P_next, built, real_init = P + 1.0, [], CoefficientSet.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(CoefficientSet, "__init__", counted)
    bufsize = np.setbufsize(1024)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = interior_update(freeze_step(layout, old, dt, P_next, Q, EPS0, work))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
        np.setbufsize(bufsize)
    assert not built
    assert peak < 8 * n
    assert result is work


@pytest.mark.parametrize("t_new", [np.nan, 0.0, -0.01])
def test_freeze_step_rejects_a_new_level_not_after_the_old(t_new):
    # a NaN dt fails the guard too, rather than a Courant check that a
    # stepper would answer by halving dt
    v = synthetic_vessel(10)
    layout, z = layout_of(v), np.zeros(11)
    old = build_level(layout, 0.0, z, z, layout_coefficients(layout, 0.0, z, z))
    with pytest.raises(ValueError, match="^t_new must exceed the old level's t$"):
        freeze_step(layout, old, t_new, z, z, EPS0)


def test_the_stencil_tables_keep_each_foot_in_its_row_and_vessel():
    from vesselflow.characteristics import _at, _stencil

    layout = layout_of(synthetic_vessel(4, vid="a"), synthetic_vessel(7, vid="b"),
                       synthetic_vessel(5, vid="c"))
    n = layout.size
    assert n == 19
    start = np.repeat(layout.first, layout.counts)
    rows = np.arange(2)[:, None] * n
    for name, shape in (("j", (2, n)), ("cells", (2, n)), ("half_cells", (3, n)),
                        ("base", (2, n)), ("top", (2, n))):
        table = getattr(layout, name)
        assert table.shape == shape and table.flags.c_contiguous, name
    assert (layout.j == layout.local).all()
    cells = np.repeat([4.0, 7.0, 5.0], layout.counts)
    assert (layout.cells == cells).all() and (layout.half_cells == 0.5 * cells).all()
    assert (layout.base == rows + start).all() and (layout.top == rows + start + cells.astype(int)).all()

    # feet below 0, at 0, inside, at the end and beyond it, in both rows
    cases = np.stack([np.full(n, -1.5), np.zeros(n), 0.4 * cells + 0.25, cells, cells + 0.7])
    pick = (layout.local + np.arange(2)[:, None] * 2) % 5
    assert all((pick[r, layout.slices[vid]] == c).any()
               for r in range(2) for c in range(5) for vid in layout.vessel_ids)
    xi = np.take_along_axis(cases, pick, axis=0)
    work = Workspace(layout)
    lo, hi, w = _stencil(layout, xi, work)
    own_first, own_last = rows + start, rows + start + cells.astype(int)
    assert ((own_first <= lo) & (lo <= own_last)).all() and ((own_first <= hi) & (hi <= own_last)).all()
    assert ((0.0 <= w) & (w < 1.0)).all()
    below, beyond = xi <= 0.0, xi >= cells
    assert (lo[below] == own_first[below]).all() and (lo[beyond] == own_last[beyond]).all()
    assert (w[below | beyond] == 0.0).all()
    inside = ~(below | beyond)
    assert (lo[inside] == own_first[inside] + np.floor(xi[inside])).all()
    assert (w[inside] == xi[inside] - np.floor(xi[inside])).all()
    f = 1.0 + np.random.default_rng(3).random((2, n))
    got = _at(f, (lo, hi, w), np.empty((2, n)), np.empty((2, n)))
    ends = below | beyond
    assert (got[ends] == f.ravel()[lo[ends]]).all()


def test_a_foot_beyond_the_x1_end_reads_only_its_own_vessel():
    # two 4-cell vessels, every foot 4.5 cells from its segment start: each
    # reads its own vessel's x=1 end, with no weight on the next vessel
    from vesselflow.characteristics import _at, _stencil

    layout = layout_of(synthetic_vessel(4, vid="a"), synthetic_vessel(4, vid="b"))
    n, a, b = layout.size, layout.slices["a"], layout.slices["b"]
    stencil = _stencil(layout, np.full((2, n), 4.5), Workspace(layout))
    f = np.ones((2, n))
    f[:, b.start] = np.inf  # vessel b's first point
    f[:, a.stop - 1] = -0.0  # vessel a's x=1 end
    got = _at(f, stencil, np.empty((2, n)), np.empty((2, n)))
    assert np.isfinite(got[:, a]).all()
    assert np.signbit(got[:, a]).all() and (got[:, a] == 0.0).all()
    assert (got[:, b] == 1.0).all()


def test_the_courant_table_follows_dt_down_the_ladder_and_back():
    # one workspace through dt, dt/2 and dt again, as a halving ladder
    # runs: each level equals, byte for byte, one from a fresh workspace
    loaded = load_config(Path(__file__).resolve().parents[1] / "configs" / "bifurcation.json")
    cfg = loaded.sim
    state, _ = initial_state(loaded.net, loaded.init, cfg)
    for _ in range(20):  # away from rest, so stale feet would read other values
        state = picard_step(state, cfg)[0]
    work = Workspace(state.layout)
    for dt in (cfg.dt, 0.5 * cfg.dt, cfg.dt):
        reused = picard_step(state, cfg, dt=dt, work=work)[0]
        fresh = picard_step(state, cfg, dt=dt)[0]
        assert reused.X.tobytes() == fresh.X.tobytes()
        assert work.dt == pytest.approx(dt, rel=1e-12)  # t_new - t, as the step forms it
        assert work.courant.tobytes() == (work.dt * state.layout.cells).tobytes()
        state = reused


def test_the_trace_stencils_and_ddx_broadcast_no_operand(monkeypatch):
    # each ufunc of _trace, _stencil and _ddx over a family or speed stack
    # takes operands of the stack's own shape, or scalars: no operand is
    # broadcast and none is a reversed view (each would make numpy buffer)
    import sys

    layout, P, Q = mixed_layout()
    old = build_level(layout, 0.0, P, Q, layout_coefficients(layout, 0.0, P, Q))
    work = Workspace(layout)
    interior_update(freeze_step(layout, old, 1e-4, P + 1.0, Q, EPS0, work))
    calls, broadcast = {}, []

    class Counted:
        def __init__(self, ufunc):
            self.ufunc = ufunc

        def __call__(self, *args, **kwargs):
            out = kwargs.get("out")
            arrays = [a for a in (*args, *(out if isinstance(out, tuple) else (out,)))
                      if isinstance(a, np.ndarray) and a.ndim]
            shape = np.broadcast_shapes(*(a.shape for a in arrays)) if arrays else ()
            if len(shape) == 2 and shape[1] == layout.size:
                caller = sys._getframe(1).f_code.co_name
                calls[caller] = calls.get(caller, 0) + 1
                if any(a.shape != shape or min(a.strides) < 0 for a in arrays):
                    broadcast.append((caller, self.ufunc.__name__))
            return self.ufunc(*args, **kwargs)

        def __getattr__(self, name):  # reduce and the other methods
            return getattr(self.ufunc, name)

    for name in dir(np):
        if isinstance(getattr(np, name), np.ufunc):
            monkeypatch.setattr(np, name, Counted(getattr(np, name)))
    interior_update(freeze_step(layout, old, 1e-4, P + 2.0, Q, EPS0, work))
    monkeypatch.undo()
    assert all(calls.get(name, 0) > 0 for name in ("_trace", "_stencil", "_ddx")), calls
    assert [c for c in broadcast if c[0] in ("_trace", "_stencil", "_ddx")] == []


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
    assert np.isfinite(upd.known[1]) and np.isfinite(upd.known[0])  # r at x=1, s at x=0


def test_interior_zero_state_fixed():
    v = synthetic_vessel(20)
    z = np.zeros(21)
    fr = frozen_for(v, z, z, dt=0.01)
    upd = interior_update(fr)
    assert np.all(upd.rs[:, 1:-1] == 0.0)
    assert np.all(end_values(fr, upd) == 0.0)


def test_interior_pure_source_integration():
    # g = 1, zero data: one step adds exactly dt to both families
    v = synthetic_vessel(20, g=1.0)
    z = np.zeros(21)
    dt = 0.01
    fr = frozen_for(v, z, z, dt)
    upd = interior_update(fr)
    assert np.allclose(upd.rs[:, 1:-1], dt, rtol=0, atol=0)
    assert np.allclose(end_values(fr, upd), dt, rtol=0, atol=0)


def test_exactness_on_constants_bit_for_bit():
    v = synthetic_vessel(33, c=0.2)
    P = np.full(34, 3.7)
    Q = np.full(34, -1.2)
    fr = frozen_for(v, P, Q, dt=0.005)
    upd = interior_update(fr)
    r0 = float(fr.old.rs[0, 0])
    s0 = float(fr.old.rs[1, 0])
    assert np.all(upd.rs[0, 1:-1] == r0)
    assert np.all(upd.rs[1, 1:-1] == s0)
    assert np.array_equal(end_values(fr, upd), [s0, r0])  # s at x=0, r at x=1


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
        fr = freeze(layout, 0.0, P0, Q0, dt, P1, Q1)
        upd = interior_update(fr)
        out = (*upd.rs, *_trace(fr, 0.9))  # r, s and the feet of both families
        ends = end_values(fr, upd)
        return {vid: [arr[layout.slices[vid]] for arr in out] + [ends[2 * k : 2 * k + 2]]
                for k, vid in enumerate(layout.vessel_ids)}

    together = advance(layout_of(*vessels))
    for v in vessels:
        alone = advance(layout_of(v))[v.id]
        for got, want in zip(together[v.id], alone):
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0, equal_nan=True)
        assert np.all(np.isfinite(together[v.id][-1]))  # s at x=0, r at x=1


def mixed_layout(names=None):
    """Power-law, tabulated (one and two stations) and synthetic vessels
    with a smooth in-range state, in layout order; names maps a vessel's
    default id (p1, p2, t1, t2, s) to another."""
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
    names = names or {}
    kinds = {names.get(vid, vid): kw for vid, kw in kinds.items()}
    vessels = [Vessel(id=vid, n_cells=6 + k, x0_node=f"{vid}0", x1_node=f"{vid}1", **kw)
               for k, (vid, kw) in enumerate(kinds.items())]
    layout = layout_of(*vessels)
    P = np.concatenate([13000.0 + 2000.0 * np.sin(3.0 * v.grid) for v in layout.vessels])
    Q = np.concatenate([1e-7 * np.cos(5.0 * v.grid) for v in layout.vessels])
    return layout, P, Q


def test_layout_coefficients_equal_per_vessel_coefficients():
    from vesselflow.compiled import layout_coefficients
    from vesselflow.constitutive import coefficients

    t = 0.3
    for names, order in (
        (None, ("p1", "p2", "s", "t1", "t2")),
        # a tabulated id sorts first and a power-law one last
        ({"t1": "a_tab", "p1": "b_pow", "t2": "c_tab", "s": "d_syn", "p2": "z_pow"},
         ("a_tab", "b_pow", "c_tab", "d_syn", "z_pow")),
    ):
        layout, P, Q = mixed_layout(names)
        assert layout.vessel_ids == order
        every = layout_coefficients(layout, t, P, Q)
        for k, v in enumerate(layout.vessels):
            sl = layout.slices[v.id]
            want = coefficients(v, v.grid, t, PrimitiveState(P[sl], Q[sl]))
            for name in ("a", "b", "c", "f", "g", "A"):
                got = getattr(every, name)[sl]
                assert np.broadcast_to(getattr(want, name), got.shape).tobytes() == got.tobytes()
                at_ends = np.broadcast_to(getattr(want, name), got.shape)[[0, -1]]
                assert getattr(every, name)[layout.ends[2 * k : 2 * k + 2]].tobytes() == at_ends.tobytes()


def test_layout_coefficients_skip_an_empty_power_prefix(monkeypatch):
    import vesselflow.compiled as compiled_mod
    from vesselflow.constitutive import coefficients

    def refuse(*args):
        raise AssertionError("power_law_coefficients called without a power-law vessel")

    monkeypatch.setattr(compiled_mod, "power_law_coefficients", refuse)
    vessels = (synthetic_vessel(6, c=0.2, vid="s1"),
               synthetic_vessel(9, a=2.0, g=lambda x, t: x * t, vid="s2"))
    layout = layout_of(*vessels)
    assert layout.power is None
    P, Q = np.linspace(0.0, 1.0, layout.size), np.linspace(0.5, -0.5, layout.size)
    every = compiled_mod.layout_coefficients(layout, 0.3, P, Q)
    for v in vessels:
        sl = layout.slices[v.id]
        want = coefficients(v, v.grid, 0.3, PrimitiveState(P[sl], Q[sl]))
        for name in ("a", "b", "c", "f", "g", "A"):
            assert getattr(every, name)[sl].tobytes() == getattr(want, name).tobytes(), name


@pytest.mark.parametrize("vid, point, value, error", [
    ("p2", 0, -2e4 * (1.0 - 1e-9), "CollapsedVesselError"),  # area far below the floor
    ("p2", -1, -2e4, "TubeLawError"),  # P = -C: zero area, outside the law
    ("t2", 2, 5e4, "TubeLawError"),  # above the table at both stations
])
def test_layout_coefficients_checked_names_first_failing_vessel(monkeypatch, vid, point, value, error):
    # the one check, and every level that must be evaluable: the kernel's
    # new level, the old level of a step (from the state's cached
    # coefficients, by a picard_step that builds it and by a stepper made
    # on it, each before it builds any level), the initial state and a
    # snapshot; a probe reads the level unchecked, since its caller checks
    # it (a run's stepper, when it accepts it)
    import vesselflow
    import vesselflow.solver as solver_mod
    from vesselflow.characteristics import VesselField
    from vesselflow.compiled import check_coefficients, layout_coefficients
    from vesselflow.output import ListSink, ProbeSpec, emit_probes, emit_snapshot, probe_plan
    from vesselflow.solver import (
        InitSpec, NetworkState, SimConfig, SimReport, Stepper, VesselInit, initial_state, picard_step,
    )

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
        freeze(layout, 0.0, good, Q, 0.01, P, Q)
    net = layout.network
    fields = {k: VesselField(k, 0.0, P[s], Q[s]) for k, s in layout.slices.items()}
    init = InitSpec(per_vessel={k: VesselInit(P=f.P, Q=f.Q) for k, f in fields.items()})
    cfg = SimConfig(dt=0.01, t_end=0.01, epsilon0=EPS0)
    with raises:
        initial_state(net, init, cfg)
    state = NetworkState.from_fields(net, 0.0, fields)

    def unbuilt(*args):
        raise AssertionError("a level was built before the check")

    with monkeypatch.context() as m:
        m.setattr(solver_mod, "build_level", unbuilt)
        with raises:
            picard_step(state, cfg)
        with raises:
            Stepper(state, cfg, SimReport())
    with raises:
        emit_snapshot(ListSink(), state, EPS0)
    probe = ProbeSpec(("A",), vessel=vid, x_index=at - sl.start)
    sink = ListSink()
    emit_probes(sink, probe_plan(state.layout, [probe]), state)
    np.testing.assert_array_equal([r.value for r in sink.records], unchecked.A[at : at + 1])

    # synthetic coefficients are taken as given, whatever their area
    cs = layout_coefficients(layout, 0.0, good, Q)
    A = cs.A.copy()
    A[layout.slices["s"]] = 0.0
    check_coefficients(layout, good, dataclasses.replace(cs, A=A), EPS0)


def test_the_first_failing_vessel_in_vessel_id_order_is_named():
    # a tabulated vessel above its table and a power-law vessel below
    # P = -C both fail; a_tab sorts first, so it is named, by the one
    # coefficient check and by the iterate's non-finite guard
    from vesselflow import TubeLawError
    from vesselflow.compiled import check_coefficients
    from vesselflow.solver import _non_finite_site

    layout, P, Q = mixed_layout({"t1": "a_tab", "p1": "z_pow"})
    P[layout.slices["a_tab"].start + 2] = 5e4
    P[layout.slices["z_pow"].start + 1] = -5e4
    with pytest.raises(TubeLawError, match="vessel 'a_tab': pressure 50000.0 outside"):
        check_coefficients(layout, P, layout_coefficients(layout, 0.0, P, Q), EPS0)
    bad = np.where(np.isin(P, (5e4, -5e4)), np.nan, P)
    assert _non_finite_site(layout, bad, Q, np.zeros(0), np.zeros(0)) == " in vessel 'a_tab' at x-index 2"
