"""Semi-Lagrangian characteristics kernel.

One linear update advances the characteristic variables r and s one
time level on the fixed uniform grids of every vessel at once (the
grids laid end to end by `compile_network`). The two families are held
as (2, N) stacks over the N layout points, row 0 the right-going family
(r = -lambda_L P + a Q, speed lambda_R) and row 1 the left-going family
(s = -lambda_R P + a Q, speed lambda_L), so every step below runs once
for both: trace each characteristic backward from every grid node with
a two-stage midpoint rule through the frozen speed field, interpolate
the level-t value at the foot linearly, and add the trapezoidal
integral of the source term along the traced segment:

    r(x, t+dt) = r(foot, t) + dt/2 * (F(foot, t) + F(x, t+dt))

with F = l . (f, g) + (d l) . (P, Q) for the family's left eigenvector
l = (-lambda_L, a) (for r; (-lambda_R, a) for s) and d the derivative
along the family's own speed. Coefficients are frozen at the outer
fixed-point iterate: the directional derivatives of the eigenvector
entries come from centered x-differences and one-sided t-differences
across the two stored time levels.

Every foot lies within cfl_max cells of its target, so the foot values
come from a two-point stencil inside the target's own vessel, clamped
at the vessel's ends. Grid nodes whose foot leaves the vessel are left
unresolved (NaN); the node closures complete them.

A fixed-point pass's state is one `Workspace` per run (a kernel call
without one makes its own): its two `Level`s, each filled in place by
`build_level` (the old level once per step, with its r and s; the new
level once per pass), the new level's coefficients, the step's dt and
source terms F, g_P and g_Q, which `freeze_step` forms, the update's
results, which `interior_update` writes, and the scratch of the trace,
the stencils and the update. Each formula is evaluated with `out=` and
in-place ufuncs in its written order of operations, so its bits equal
those of evaluating it into new arrays. The update's results live
until the next pass overwrites them: what outlives a pass is formed
from them into new arrays that never alias the workspace.

The tables the trace, the stencils and `_ddx` read per point (the
layout's j, cells, base, top and half_cells, and the workspace's
Courant tables) have the shape of the stack they meet, so none of
their ufuncs broadcasts an operand. numpy runs a ufunc with a
broadcast (N,) operand, or with a reversed-row view, through a buffer
of up to 2N elements: at 3201 points such a (2, N) multiply took 6.8 to
7.2 us against 4.0 us without (numpy 2.4, a 2-core x86-64 host). The
per-point data that one row holds for both families (u, a and its time
difference, P and Q of the old level) still broadcast, and the speed
stack is still read through the reversed view lam[::-1] where each
family meets the other's speed: a (2, N) copy of each would cost what
the buffer costs.

`build_level`, `freeze_step` and `interior_update` set no floating-point
policy of their own: a pass runs under `solver.picard_step`'s, which
names the guard that classifies each non-finite value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .compiled import CompiledNetwork, check_coefficients, coefficient_arrays, layout_coefficients
from .constitutive import CoefficientSet, EigenData, eigen
from .errors import CFLViolation, HyperbolicityViolation, SimulationError, WellPosednessFailure


@dataclass
class VesselField:
    """Nodal (P, Q) values on the uniform grid x_j = j/n_cells."""

    vessel_id: str
    t: float
    P: np.ndarray
    Q: np.ndarray

    def __post_init__(self):
        self.P = np.asarray(self.P, dtype=float)
        self.Q = np.asarray(self.Q, dtype=float)
        if self.P.shape != self.Q.shape or self.P.ndim != 1:
            raise ValueError("P and Q must be 1D arrays of equal length")

    @property
    def n_cells(self) -> int:
        return self.P.size - 1


class Level:
    """Every grid point of the layout at one time level, filled in place
    by `build_level`: t, the coefficients coeffs, P and Q (flat in layout
    order), the speed stack (lambda_R, lambda_L, a) that `_ddx`
    differentiates, whose first two rows are lam (and, with u, the eigen
    data eig), and the parts of the source terms that depend on this
    level alone. The family fields are (2, N) stacks: row 0 right-going,
    row 1 left-going. A level made with rs (an old level, the one the
    update reads at the feet) also holds r, s. d_x and tmp are the
    build's scratch (d_x may be given, to share it between levels)."""

    def __init__(self, n: int, d_x: np.ndarray | None = None, rs: bool = True):
        self.t = self.coeffs = self.P = self.Q = None  # set by build_level
        self.speeds = np.empty((3, n))
        self.lam = self.speeds[:2]  # each family's speed: lambda_R, lambda_L
        self.d_x = np.empty((3, n)) if d_x is None else d_x
        self.u, self.tmp = np.empty((2, n))
        self.eig = EigenData(lambda_R=self.speeds[0], lambda_L=self.speeds[1], u=self.u)
        # base: a g - lambda_L f, a g - lambda_R f; the advective parts of
        # the directional derivatives along each family's speed: adv_lam,
        # lambda_R d_x lambda_L and lambda_L d_x lambda_R, and adv_a,
        # lambda_R d_x a and lambda_L d_x a
        self.base, self.adv_lam, self.adv_a = np.empty((3, 2, n))
        self.rs = np.empty((2, n)) if rs else None


class Workspace:
    """The state of one layout's fixed-point pass, every array of which
    dies by the next pass: the old level (built once per step) and the
    new level (once per pass, without rs), the new level's coefficients,
    the step's dt, its Courant tables courant = dt * cells and
    half_courant = 0.5 * courant, (2, N) in cells per unit speed, which
    `freeze_step` refreshes only when dt changes, and the step's source
    terms F = base + g_P P + g_Q Q as (2, N)
    stacks (for r: g_P = -d_R lambda_L and g_Q = d_R a, with d_R the
    derivative along lambda_R; for s the mirror): the old level's F,
    read at the feet, and the new level's state couplings, solved
    implicitly at the targets. `freeze_step` fills these. The update's
    results, which `interior_update` writes: rs, the new (r, s) stack,
    NaN wherever a foot left its vessel (the node closures overwrite
    every vessel end), and per end in `layout.ends` order the resolved
    value (s at x=0, r at x=1) split into a known part and its coupling
    to the endpoint state, char = known + kP * P_end + kQ * Q_end (from
    the trapezoidal rule's new-level source; zero for constant
    coefficients), which the closures fold into their characteristic
    rows. The rest is the scratch of `build_level`, `_trace`,
    `_stencil`, `interior_update` and the solver's inversion of rs,
    shared: each stage reuses arrays whose values are dead by then, and
    `_trace`'s output xi lives until `interior_update` has found the
    feet inside their vessels. `deviation` is the solver's iterate
    deviation's scratch, one level vector of the layout's `parts`."""

    def __init__(self, layout: CompiledNetwork):
        n = layout.size
        self.layout, self.dt = layout, np.nan  # dt set by freeze_step
        self.courant, self.half_courant = np.empty((2, 2, n))  # dt * cells and its half
        scratch = np.empty((12, n))
        self.pair_a, self.pair_b, self.pair_c, self.pair_d, self.xi = scratch[:10].reshape(5, 2, n)
        self.row_a, self.row_b = scratch[10:]
        # a level's d_x is dead once the level is built
        self.old, self.new = Level(n, scratch[:3]), Level(n, scratch[:3], rs=False)
        self.coeffs = coefficient_arrays(layout)
        self.F, self.g_P, self.g_Q = np.empty((3, 2, n))
        self.lo, self.hi = np.empty((2, 2, n), dtype=np.intp)
        self.inside, self.outside = np.empty((2, 2, n), dtype=bool)
        self.rs = np.empty((2, n))
        self.known, self.kP, self.kQ = np.empty((3, layout.ends.size))
        self.deviation = np.empty(layout.parts[-1].stop)


def _ddx(layout: CompiledNetwork, f: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Centered differences inside each segment, second-order one-sided
    at its two ends, along the last axis, into out."""
    np.subtract(f[..., 2:], f[..., :-2], out=out[..., 1:-1])
    # each end's weighted stencil summed left to right: -3 f0 + 4 f1 +
    # (-1) f2 has the bits of -3 f0 + 4 f1 - f2 (and 3, -4, 1 at x=1)
    g = f[..., layout.end_stencil]
    np.multiply(g, layout.end_weights, out=g)
    total = np.add(g[..., 0, :], g[..., 1, :], out=g[..., 0, :])
    out[..., layout.ends] = np.add(total, g[..., 2, :], out=total)
    return np.multiply(out, layout.half_cells, out=out)


def build_level(
    layout: CompiledNetwork, t: float, P: np.ndarray, Q: np.ndarray, epsilon0: float, cs: CoefficientSet,
    level: Level | None = None,
) -> Level:
    """Fill level (a new one without it) with the level at t of P and Q
    (flat in layout order) from cs, their `layout_coefficients`, and
    return it. The level must pass `check_coefficients` and have real,
    finite speeds (else the error names the vessel)."""
    check_coefficients(layout, P, cs, epsilon0)
    level = Level(layout.size) if level is None else level
    try:
        eigen(cs, level.eig)
    except HyperbolicityViolation as exc:
        disc = level.u  # eigen leaves c^2 + a b there when it raises
        first = int(np.argmin((disc > 0) & (disc < np.inf)))
        raise HyperbolicityViolation(f"vessel {layout.vessel_at(first)!r}: {exc}") from exc
    level.t, level.coeffs, level.P, level.Q = t, cs, P, Q
    lam = level.lam
    level.speeds[2] = cs.a
    d_x = _ddx(layout, level.speeds, level.d_x)  # d_x of lambda_R, lambda_L and a
    base = np.multiply(lam[::-1], cs.f, out=level.base)
    np.subtract(np.multiply(cs.a, cs.g, out=level.tmp), base, out=base)
    np.multiply(lam, d_x[1::-1], out=level.adv_lam)
    np.multiply(lam, d_x[2], out=level.adv_a)
    if level.rs is not None:
        rs = np.multiply(np.negative(lam[::-1], out=level.rs), P, out=level.rs)
        np.add(rs, np.multiply(cs.a, Q, out=level.tmp), out=rs)
    return level


def freeze_step(
    layout: CompiledNetwork, old: Level, t_new: float, P_new: np.ndarray, Q_new: np.ndarray,
    epsilon0: float, work: Workspace | None = None,
) -> Workspace:
    """Freeze the coefficients of every vessel of a layout at the new
    level (P_new and Q_new flat in layout order) from one
    `layout_coefficients` evaluation, and form the step's source terms,
    into work (a new workspace without one), which it returns. The old
    level, which the fixed-point iterations of a step share, comes built
    (`build_level`). Raises ValueError unless t_new - old.t > 0."""
    dt = t_new - old.t
    if not dt > 0:  # NaN fails too
        raise ValueError("t_new must exceed the old level's t")
    work = Workspace(layout) if work is None else work
    if dt != work.dt:  # a new workspace's NaN dt differs from every dt
        np.multiply(dt, layout.cells, out=work.courant)  # dt/dx per point
        np.multiply(0.5, work.courant, out=work.half_courant)
    work.dt, work.old = dt, old
    cs = layout_coefficients(layout, t_new, P_new, Q_new, work.coeffs)
    new = build_level(layout, t_new, P_new, Q_new, epsilon0, cs, work.new)

    # g_P = -(lam_t + adv_lam) and g_Q = a_t + adv_a at either level, with
    # lam_t = (d_t lambda_L, d_t lambda_R) and a_t = d_t a
    lam_t = np.divide(np.subtract(new.lam[::-1], old.lam[::-1], out=work.pair_a), dt, out=work.pair_a)
    a_t = np.divide(np.subtract(new.coeffs.a, old.coeffs.a, out=work.row_a), dt, out=work.row_a)
    # F = old.base - (lam_t + old.adv_lam) P + (a_t + old.adv_a) Q,
    # the last term in g_P, which is written after it
    F = np.multiply(np.add(lam_t, old.adv_lam, out=work.F), old.P, out=work.F)
    np.subtract(old.base, F, out=F)
    np.add(F, np.multiply(np.add(a_t, old.adv_a, out=work.g_P), old.Q, out=work.g_P), out=F)
    np.negative(np.add(lam_t, new.adv_lam, out=work.g_P), out=work.g_P)
    np.add(a_t, new.adv_a, out=work.g_Q)
    return work


# --- tracing ------------------------------------------------------------


def _stencil(layout: CompiledNetwork, xi: np.ndarray, work: Workspace):
    """Two-point linear-interpolation stencil at the (2, N) local
    positions xi (in cells from each point's segment start), clamped to
    the segment as np.interp clamps: a position at or beyond an end
    reads that end, with weight 0. The indices are flat into a (2, N)
    stack, lo = base + floor(xi) and hi = lo + 1 clamped to the last
    point of the segment (the layout's base and top), so each stays in
    its own vessel and family row: at or beyond the x=1 end, hi = lo.
    Written into work's lo, hi and pair_a."""
    lo, hi, w = work.lo, work.hi, work.pair_a
    xi = np.minimum(np.maximum(xi, 0.0, out=w), layout.cells, out=w)
    lo[...] = xi  # floor, xi >= 0
    np.subtract(xi, lo, out=w)
    np.add(layout.base, lo, out=lo)
    np.minimum(np.add(lo, 1, out=hi), layout.top, out=hi)
    return lo, hi, w


def _at(f: np.ndarray, stencil, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """f interpolated on a stencil, into out; tmp is scratch. The form
    f_lo - w (f_lo - f_hi) has the bits of f_lo + w (f_hi - f_lo) but
    where f_lo and f_hi are both -0.0, which it keeps: so an x=1 end,
    where hi = lo, reads its value's sign too."""
    lo, hi, w = stencil
    # the clamped stencil's indices lie inside f, so "clip" never clips;
    # it lets take write into out without an internal buffer
    f_lo = f.take(lo, out=out, mode="clip")
    d = np.subtract(f_lo, f.take(hi, out=tmp, mode="clip"), out=tmp)
    return np.subtract(f_lo, np.multiply(w, d, out=d), out=out)


def _trace(work: Workspace, cfl_max: float) -> np.ndarray:
    """Feet of both families' characteristics through every grid node
    at t+dt, by the explicit midpoint rule on the frozen speed fields,
    as a (2, N) stack of local positions in cells (the foot of node j
    of a vessel with n cells lies at x = xi/n; it left the vessel if
    xi < 0 or xi > n), in the workspace's xi. Raises CFLViolation
    naming the vessel and family of the longest (or a non-finite)
    travel beyond cfl_max cells. The half stage reads the workspace's
    half_courant, the full stage its courant, whose product with the
    midpoint speed serves the Courant check and the feet both."""
    layout = work.layout
    xi = np.multiply(work.half_courant, work.new.lam, out=work.xi)
    half = _stencil(layout, np.subtract(layout.j, xi, out=xi), work)
    # interpolating the level average equals averaging the interpolants
    mid = np.add(work.old.lam, work.new.lam, out=work.pair_b)
    lam_mid = _at(np.multiply(0.5, mid, out=mid), half, work.pair_c, work.pair_d)
    shift = np.multiply(work.courant, lam_mid, out=xi)  # in cells; the half stencil is dead
    travel = np.abs(shift, out=work.pair_d)
    # a NaN travel fails this comparison, and argmax finds it first
    if not np.maximum.reduce(travel, axis=None) <= cfl_max:
        family, k = divmod(int(np.argmax(travel)), layout.size)
        raise CFLViolation(
            f"vessel {layout.vessel_at(k)!r} family {'RL'[family]}: characteristic travels "
            f"{abs(work.dt * lam_mid[family, k]):.3e} > cfl_max*dx = "
            f"{cfl_max / layout.cells[family, k]:.3e}; reduce dt"
        )
    return np.subtract(layout.j, shift, out=xi)


def interior_update(work: Workspace, cfl_max: float = 0.9) -> Workspace:
    """Advance r and s one time level on every vessel of the layout,
    into work's rs and endpoint rows (known, kP, kQ), and return work.

    The trapezoidal source integral evaluates the new-level source at
    the target node, where it is linear in the unknown state; that
    coupling is solved in closed form per node (a 2x2 system in r, s),
    so the update solves the frozen-coefficient linear problem exactly
    at interior nodes. Nodes whose foot leaves the vessel stay
    unresolved for the node closures, which receive the resolved
    family's value split as known part + endpoint-state coupling.

    After the Courant and stiffness guards, a resolved value at a vessel
    end that is not finite raises: `SimulationError` naming the vessel
    and family where the foot stayed inside the vessel (the source sum
    overflowed), else the endpoint-split `WellPosednessFailure` naming
    the vessel and end (the foot left the vessel).
    """
    layout, old, new = work.layout, work.old, work.new
    half_dt = 0.5 * work.dt
    xi = _trace(work, cfl_max)
    foot = _stencil(layout, xi, work)
    tmp = work.pair_d
    known = _at(old.rs, foot, work.pair_b, tmp)
    src = np.add(_at(work.F, foot, work.pair_c, tmp), new.base, out=work.pair_c)
    np.add(known, np.multiply(half_dt, src, out=src), out=known)
    inside = np.greater_equal(xi, 0.0, out=work.inside)
    np.bitwise_and(inside, np.less_equal(xi, layout.cells, out=work.outside), out=inside)
    np.copyto(known, np.nan, where=np.logical_not(inside, out=work.outside))

    # state coupling of the new-level source, mapped to (r, s) through
    # the inverse characteristic transform: each family's new value is
    # its known part + kr r + ks s, a 2x2 system per node solved by
    # Cramer's rule
    # u2, ua2 and the speed rows are (N,) and broadcast against the
    # stacks (see the module docstring)
    u2 = np.multiply(2.0, new.eig.u, out=work.row_a)
    ua2 = np.multiply(u2, new.coeffs.a, out=work.row_b)
    # kr = half_dt (g_P / u2 + g_Q lambda_R / ua2),
    # ks = half_dt (-g_P / u2 - g_Q lambda_L / ua2)
    # (-g_P) / u2 has the bits of -(g_P / u2) (only a NaN's sign may
    # differ, and a NaN fails the stiffness guard below)
    kr = np.divide(work.g_P, u2, out=work.pair_c)
    ks = np.negative(kr, out=work.pair_a)
    np.add(kr, np.divide(np.multiply(work.g_Q, new.eig.lambda_R, out=tmp), ua2, out=tmp), out=kr)
    np.multiply(half_dt, kr, out=kr)
    np.subtract(ks, np.divide(np.multiply(work.g_Q, new.eig.lambda_L, out=tmp), ua2, out=tmp), out=ks)
    np.multiply(half_dt, ks, out=ks)
    d_r, d_s = np.subtract(1.0, kr[0], out=xi[0]), np.subtract(1.0, ks[1], out=xi[1])
    det = np.subtract(np.multiply(d_r, d_s, out=tmp[0]), np.multiply(ks[0], kr[1], out=tmp[1]), out=tmp[0])
    # a NaN determinant fails this comparison too
    if not np.minimum.reduce(np.abs(det, out=tmp[1]), axis=None) >= 0.5:
        raise CFLViolation(
            f"vessel {layout.vessel_at(int(np.argmin(np.abs(det) >= 0.5)))!r}: "
            "source coupling too stiff for this dt"
        )
    rs = work.rs
    np.add(np.multiply(d_s, known[0], out=rs[0]), np.multiply(ks[0], known[1], out=tmp[1]), out=rs[0])
    np.add(np.multiply(kr[1], known[0], out=rs[1]), np.multiply(d_r, known[1], out=tmp[1]), out=rs[1])
    np.divide(rs, det, out=rs)

    # endpoint nodes: the companion family usually exited there, so the
    # 2x2 entries are not usable. Hand the exact split to the closures
    # ("clip", as in _at, never clips).
    at = layout.end_families  # s at x=0, r at x=1
    ends = known.take(at, out=work.known, mode="clip")
    np.multiply(half_dt, work.g_P.take(at, out=work.kP, mode="clip"), out=work.kP)
    np.multiply(half_dt, work.g_Q.take(at, out=work.kQ, mode="clip"), out=work.kQ)
    unresolved = ~np.isfinite(ends)
    if np.logical_or.reduce(unresolved):
        # a foot inside the vessel resolved a value that then overflowed
        overflowed = unresolved & inside.take(at)
        if np.any(overflowed):
            e = int(np.argmax(overflowed))
            raise SimulationError(f"vessel {layout.vessel_ids[e // 2]!r} family {'LR'[e % 2]}: "
                                  "characteristic value is not finite")
        e = int(np.argmax(unresolved))
        raise WellPosednessFailure(
            f"vessel {layout.vessel_ids[e // 2]!r} end x{e % 2}: the interior-determined "
            "characteristic left the domain; endpoint split condition violated",
            t=new.t,
        )
    return work
