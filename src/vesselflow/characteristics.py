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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .compiled import CompiledNetwork, check_coefficients, layout_coefficients
from .constitutive import CoefficientSet, EigenData, eigen
from .errors import CFLViolation, HyperbolicityViolation


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


@dataclass(frozen=True)
class LevelData:
    """Frozen data of every grid point of the layout at one time level,
    with the parts of the source terms that depend on this level alone.
    The family fields are (2, N) stacks: row 0 right-going, row 1
    left-going."""

    t: float
    coeffs: CoefficientSet
    eig: EigenData
    P: np.ndarray
    Q: np.ndarray
    lam: np.ndarray  # each family's speed: lambda_R, lambda_L
    base: np.ndarray  # a g - lambda_L f, a g - lambda_R f
    # the advective parts of the directional derivatives along each
    # family's speed: lambda_R d_x lambda_L, lambda_L d_x lambda_R ...
    adv_lam: np.ndarray
    adv_a: np.ndarray  # ... and lambda_R d_x a, lambda_L d_x a

    # the characteristic variables r, s, computed on first use (the old level's only)
    @cached_property
    def rs(self) -> np.ndarray:
        return -self.lam[::-1] * self.P + self.coeffs.a * self.Q


@dataclass(frozen=True)
class FrozenStep:
    """Both time levels of one step of a layout, with each family's
    source term F = base + g_P P + g_Q Q as (2, N) stacks (for r:
    g_P = -d_R lambda_L and g_Q = d_R a, with d_R the derivative along
    lambda_R; for s the mirror): the old level's F, read at the feet,
    and the new level's state couplings, solved implicitly at the
    targets."""

    layout: CompiledNetwork
    dt: float
    old: LevelData
    new: LevelData
    F: np.ndarray
    g_P: np.ndarray
    g_Q: np.ndarray


def _ddx(layout: CompiledNetwork, f: np.ndarray) -> np.ndarray:
    """Centered differences inside each segment, second-order one-sided
    at its two ends, along the last axis."""
    out = np.empty_like(f)
    out[..., 1:-1] = f[..., 2:] - f[..., :-2]
    i, k = layout.first, layout.last
    out[..., i] = -3.0 * f[..., i] + 4.0 * f[..., i + 1] - f[..., i + 2]
    out[..., k] = 3.0 * f[..., k] - 4.0 * f[..., k - 1] + f[..., k - 2]
    return out * (0.5 * layout.cells)


def _build_level(
    layout: CompiledNetwork, t: float, P: np.ndarray, Q: np.ndarray, epsilon0: float, cs=None
) -> LevelData:
    cs = layout_coefficients(layout, t, P, Q) if cs is None else cs
    check_coefficients(layout, P, cs, epsilon0)
    try:
        e = eigen(cs)
    except HyperbolicityViolation as exc:
        with np.errstate(over="ignore"):
            disc = cs.c * cs.c + cs.a * cs.b
        first = int(np.argmin((disc > 0) & (disc < np.inf)))
        raise HyperbolicityViolation(f"vessel {layout.vessel_at(first)!r}: {exc}") from exc
    lam = np.array((e.lambda_R, e.lambda_L))
    # d_x of lambda_L, lambda_R and a
    d_x = _ddx(layout, np.array((e.lambda_L, e.lambda_R, cs.a)))
    # an overflow here is a non-finite travel or determinant, which the
    # kernel's guards classify
    with np.errstate(over="ignore"):
        return LevelData(
            t=t, coeffs=cs, eig=e, P=P, Q=Q, lam=lam,
            base=cs.a * cs.g - lam[::-1] * cs.f,
            adv_lam=lam * d_x[:2],
            adv_a=lam * d_x[2],
        )


def freeze_step(
    layout: CompiledNetwork,
    t_old: float,
    P_old: np.ndarray,
    Q_old: np.ndarray,
    t_new: float,
    P_new: np.ndarray,
    Q_new: np.ndarray,
    epsilon0: float,
    old_level: LevelData | None = None,
    old_coeffs: CoefficientSet | None = None,
) -> FrozenStep:
    """Freeze the coefficient fields of every vessel of a layout at both
    time levels (P and Q are flat arrays in layout order) and precompute
    the characteristic source terms. Passing a previously built
    old_level skips rebuilding it (it does not change across fixed-point
    iterations within a step), and old_coeffs (its `NetworkState.coeffs`)
    skips evaluating its coefficients. Both levels must pass
    `check_coefficients`."""
    dt = t_new - t_old
    if dt <= 0:
        raise ValueError("t_new must exceed t_old")
    P_old, Q_old, P_new, Q_new = (np.asarray(v, dtype=float) for v in (P_old, Q_old, P_new, Q_new))
    old = old_level
    if old is None:
        old = _build_level(layout, t_old, P_old, Q_old, epsilon0, old_coeffs)
    new = _build_level(layout, t_new, P_new, Q_new, epsilon0)

    # g_P = -(lam_t + adv_lam) and g_Q = a_t + adv_a at either level; a
    # non-finite entry fails the kernel's guards or the next level's check
    with np.errstate(over="ignore", invalid="ignore"):
        lam_t = (new.lam[::-1] - old.lam[::-1]) / dt  # d_t lambda_L, d_t lambda_R
        a_t = (new.coeffs.a - old.coeffs.a) / dt
        F = old.base - (lam_t + old.adv_lam) * old.P + (a_t + old.adv_a) * old.Q
        return FrozenStep(layout, dt, old, new, F, -(lam_t + new.adv_lam), a_t + new.adv_a)


# --- tracing ------------------------------------------------------------


def _stencil(layout: CompiledNetwork, xi: np.ndarray):
    """Two-point linear-interpolation stencil at the (2, N) local
    positions xi (in cells from each point's segment start), clamped to
    the segment as np.interp clamps: a position at or beyond an end
    reads that end. The indices are flat into a (2, N) stack."""
    xi = np.minimum(np.maximum(xi, 0.0), layout.cells)
    k = xi.astype(np.intp)  # floor, xi >= 0
    lo = layout.base + k
    hi = np.minimum(lo + 1, layout.size - 1)
    lo[1] += layout.size
    hi[1] += layout.size
    return lo, hi, xi - k


def _at(f: np.ndarray, stencil) -> np.ndarray:
    lo, hi, w = stencil
    f_lo = f.take(lo)
    return f_lo + w * (f.take(hi) - f_lo)


def _trace(frozen: FrozenStep, cfl_max: float) -> np.ndarray:
    """Feet of both families' characteristics through every grid node
    at t+dt, by the explicit midpoint rule on the frozen speed fields,
    as a (2, N) stack of local positions in cells (the foot of node j
    of a vessel with n cells lies at x = xi/n; it left the vessel if
    xi < 0 or xi > n). Raises CFLViolation naming the vessel and family
    of the longest (or a non-finite) travel beyond cfl_max cells."""
    layout = frozen.layout
    courant = frozen.dt * layout.cells  # dt/dx per point
    half = _stencil(layout, layout.j - 0.5 * courant * frozen.new.lam)
    # interpolating the level average equals averaging the interpolants
    lam_mid = _at(0.5 * (frozen.old.lam + frozen.new.lam), half)
    travel = np.abs(courant * lam_mid)  # in cells
    # a NaN travel fails this comparison, and argmax finds it first
    if not np.all(travel <= cfl_max):
        family, k = divmod(int(np.argmax(travel)), layout.size)
        raise CFLViolation(
            f"vessel {layout.vessel_at(k)!r} family {'RL'[family]}: characteristic travels "
            f"{abs(frozen.dt * lam_mid[family, k]):.3e} > cfl_max*dx = {cfl_max / layout.cells[k]:.3e}; "
            "reduce dt"
        )
    return layout.j - courant * lam_mid


@dataclass(frozen=True)
class EndpointRow:
    """The resolved characteristic value at both ends of every vessel,
    in `layout.ends` order (x=0 then x=1 per segment: s at x=0, r at
    x=1), split into its known part and its linear coupling to the
    endpoint state:

        char = known + kP * P_end + kQ * Q_end

    (the coupling comes from the new-level source evaluation of the
    trapezoidal rule; zero for constant coefficients). Node closures fold
    the coupling into their characteristic rows and solve it exactly."""

    known: np.ndarray
    kP: np.ndarray
    kQ: np.ndarray

    def value(self, P, Q):
        return self.known + self.kP * P + self.kQ * Q


@dataclass
class InteriorUpdate:
    """New-level characteristic fields (r, s) as a (2, N) stack in
    layout order; NaN entries are unresolved feet (they exited the
    vessel) awaiting a node closure, which reads `ends`."""

    rs: np.ndarray
    ends: EndpointRow


def interior_update(frozen: FrozenStep, cfl_max: float = 0.9) -> InteriorUpdate:
    """Advance r and s one time level on every vessel of the layout.

    The trapezoidal source integral evaluates the new-level source at
    the target node, where it is linear in the unknown state; that
    coupling is solved in closed form per node (a 2x2 system in r, s),
    so the update solves the frozen-coefficient linear problem exactly
    at interior nodes. Nodes whose foot leaves the vessel stay
    unresolved for the node closures, which receive the resolved
    family's value split as known part + endpoint-state coupling.
    """
    layout = frozen.layout
    old, new = frozen.old, frozen.new
    half_dt = 0.5 * frozen.dt
    xi = _trace(frozen, cfl_max)
    foot = _stencil(layout, xi)
    part = _at(old.rs, foot) + half_dt * (_at(frozen.F, foot) + new.base)
    known = np.where((xi >= 0.0) & (xi <= layout.cells), part, np.nan)

    # state coupling of the new-level source, mapped to (r, s) through
    # the inverse characteristic transform: each family's new value is
    # its known part + kr r + ks s, a 2x2 system per node solved by
    # Cramer's rule
    u2 = 2.0 * new.eig.u
    ua2 = u2 * new.coeffs.a
    kr = half_dt * (frozen.g_P / u2 + frozen.g_Q * new.eig.lambda_R / ua2)
    ks = half_dt * (-frozen.g_P / u2 - frozen.g_Q * new.eig.lambda_L / ua2)
    d_r, d_s = 1.0 - kr[0], 1.0 - ks[1]
    det = d_r * d_s - ks[0] * kr[1]
    # a NaN determinant fails this comparison too
    solvable = np.abs(det) >= 0.5
    if not np.all(solvable):
        raise CFLViolation(
            f"vessel {layout.vessel_at(int(np.argmin(solvable)))!r}: "
            "source coupling too stiff for this dt"
        )
    with np.errstate(invalid="ignore"):
        rs = np.array((d_s * known[0] + ks[0] * known[1], kr[1] * known[0] + d_r * known[1])) / det

    # endpoint nodes: the companion family usually exited there, so the
    # 2x2 entries are not usable. Hand the exact split to the closures,
    # and evaluate the coupling at the frozen iterate for the fields.
    at = layout.ends + layout.size * (layout.ends_local == 0)  # s at x=0, r at x=1
    ends = EndpointRow(known.take(at), half_dt * frozen.g_P.take(at), half_dt * frozen.g_Q.take(at))
    rs.put(at, ends.value(new.P[layout.ends], new.Q[layout.ends]))
    return InteriorUpdate(rs=rs, ends=ends)
