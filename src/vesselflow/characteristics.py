"""Semi-Lagrangian characteristics kernel.

One linear update advances the characteristic variables r and s one
time level on the fixed uniform grids of every vessel at once (the
grids laid end to end by `compile_network`): trace each family's characteristic
backward from every grid node with a two-stage midpoint rule through
the frozen speed field, interpolate the level-t value at the foot
linearly, and add the trapezoidal integral of the source term along the
traced segment:

    r(x, t+dt) = r(foot, t) + dt/2 * (F_R(foot, t) + F_R(x, t+dt))

with F_R = l_R . (f, g) + (d_R l_R) . (P, Q), l_R = (-lambda_L, a), and
d_R the derivative along the right-going characteristic (and the mirror
expressions for s). Coefficients are frozen at the outer fixed-point
iterate: the directional derivatives of the eigenvector entries come
from centered x-differences and one-sided t-differences across the two
stored time levels.

Every foot lies within cfl_max cells of its target, so the foot values
come from a two-point stencil inside the target's own vessel, clamped
at the vessel's ends. Grid nodes whose foot leaves the vessel are left
unresolved (NaN); the node closures complete them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .compiled import CompiledNetwork, layout_coefficients
from .constitutive import CoefficientSet, EigenData, eigen
from .errors import CFLViolation


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
    with the parts of the source terms that depend on this level alone."""

    t: float
    coeffs: CoefficientSet
    eig: EigenData
    P: np.ndarray
    Q: np.ndarray
    # a g - lambda_L f and a g - lambda_R f
    base_R: np.ndarray
    base_L: np.ndarray
    # the advective parts of the directional derivatives:
    # lambda_R d_x lambda_L, lambda_R d_x a, lambda_L d_x lambda_R, lambda_L d_x a
    adv_R_lamL: np.ndarray
    adv_R_a: np.ndarray
    adv_L_lamR: np.ndarray
    adv_L_a: np.ndarray

    # the characteristic variables, computed on first use (the old level's only)
    @cached_property
    def r(self) -> np.ndarray:
        return -self.eig.lambda_L * self.P + self.coeffs.a * self.Q

    @cached_property
    def s(self) -> np.ndarray:
        return -self.eig.lambda_R * self.P + self.coeffs.a * self.Q


@dataclass(frozen=True)
class FrozenStep:
    """Both time levels of one step of a layout, with the source terms
    F_R = a g - lambda_L f + gR_P P + gR_Q Q (gR_P = -d_R lambda_L,
    gR_Q = d_R a) and F_L likewise (gL_P = -d_L lambda_R, gL_Q = d_L a):
    the old level's F, read at the feet, and the new level's state
    couplings, solved implicitly at the targets."""

    layout: CompiledNetwork
    dt: float
    old: LevelData
    new: LevelData
    F_R: np.ndarray
    F_L: np.ndarray
    gR_P: np.ndarray
    gR_Q: np.ndarray
    gL_P: np.ndarray
    gL_Q: np.ndarray


def _ddx(layout: CompiledNetwork, f: np.ndarray) -> np.ndarray:
    """Centered differences inside each segment, second-order one-sided
    at its two ends, along the last axis."""
    out = np.empty_like(f)
    out[..., 1:-1] = f[..., 2:] - f[..., :-2]
    i, k = layout.first, layout.last
    out[..., i] = -3.0 * f[..., i] + 4.0 * f[..., i + 1] - f[..., i + 2]
    out[..., k] = 3.0 * f[..., k] - 4.0 * f[..., k - 1] + f[..., k - 2]
    return out * (0.5 * layout.cells)


def _build_level(layout: CompiledNetwork, t: float, P: np.ndarray, Q: np.ndarray, epsilon0: float) -> LevelData:
    cs = layout_coefficients(layout, t, P, Q, epsilon0)
    e = eigen(cs)
    lamL_x, lamR_x, a_x = _ddx(layout, np.stack((e.lambda_L, e.lambda_R, cs.a)))
    ag = cs.a * cs.g
    return LevelData(
        t=t, coeffs=cs, eig=e, P=P, Q=Q,
        base_R=ag - e.lambda_L * cs.f,
        base_L=ag - e.lambda_R * cs.f,
        adv_R_lamL=e.lambda_R * lamL_x,
        adv_R_a=e.lambda_R * a_x,
        adv_L_lamR=e.lambda_L * lamR_x,
        adv_L_a=e.lambda_L * a_x,
    )


def _couplings(level: LevelData, lamL_t, lamR_t, a_t):
    """A level's gR_P, gR_Q, gL_P and gL_Q from the step's time differences."""
    return (-(lamL_t + level.adv_R_lamL), a_t + level.adv_R_a,
            -(lamR_t + level.adv_L_lamR), a_t + level.adv_L_a)


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
) -> FrozenStep:
    """Freeze the coefficient fields of every vessel of a layout at both
    time levels (P and Q are flat arrays in layout order) and precompute
    the characteristic source terms. Passing a previously built
    old_level skips rebuilding it (it does not change across fixed-point
    iterations within a step)."""
    dt = t_new - t_old
    if dt <= 0:
        raise ValueError("t_new must exceed t_old")
    P_old, Q_old, P_new, Q_new = (np.asarray(v, dtype=float) for v in (P_old, Q_old, P_new, Q_new))
    old = old_level if old_level is not None else _build_level(layout, t_old, P_old, Q_old, epsilon0)
    new = _build_level(layout, t_new, P_new, Q_new, epsilon0)

    lamL_t = (new.eig.lambda_L - old.eig.lambda_L) / dt
    lamR_t = (new.eig.lambda_R - old.eig.lambda_R) / dt
    a_t = (new.coeffs.a - old.coeffs.a) / dt
    gR_P, gR_Q, gL_P, gL_Q = _couplings(old, lamL_t, lamR_t, a_t)
    F_R = old.base_R + gR_P * old.P + gR_Q * old.Q
    F_L = old.base_L + gL_P * old.P + gL_Q * old.Q
    return FrozenStep(layout, dt, old, new, F_R, F_L, *_couplings(new, lamL_t, lamR_t, a_t))


# --- tracing ------------------------------------------------------------


def _stencil(layout: CompiledNetwork, xi: np.ndarray):
    """Two-point linear-interpolation stencil at local positions xi (in
    cells from each point's segment start), clamped to the segment as
    np.interp clamps: a position at or beyond an end reads that end."""
    xi = np.minimum(np.maximum(xi, 0.0), layout.cells)
    k = xi.astype(np.intp)  # floor, xi >= 0
    lo = layout.base + k
    hi = np.minimum(lo + 1, layout.size - 1)
    return lo, hi, xi - k


def _at(f: np.ndarray, stencil) -> np.ndarray:
    lo, hi, w = stencil
    f_lo = f[lo]
    return f_lo + w * (f[hi] - f_lo)


def _trace(frozen: FrozenStep, family: str, cfl_max: float) -> np.ndarray:
    """Feet of the family's characteristics through every grid node at
    t+dt, by the explicit midpoint rule on the frozen speed field, as
    local positions in cells (the foot of node j of a vessel with n
    cells lies at x = xi/n; it left the vessel if xi < 0 or xi > n)."""
    if family == "R":
        lam_old, lam_new = frozen.old.eig.lambda_R, frozen.new.eig.lambda_R
    elif family == "L":
        lam_old, lam_new = frozen.old.eig.lambda_L, frozen.new.eig.lambda_L
    else:
        raise ValueError(f"family must be 'R' or 'L', got {family!r}")
    layout = frozen.layout
    courant = frozen.dt * layout.cells  # dt/dx per point
    half = _stencil(layout, layout.j - 0.5 * courant * lam_new)
    # interpolating the level average equals averaging the interpolants
    lam_mid = _at(0.5 * (lam_old + lam_new), half)
    travel = np.abs(courant * lam_mid)  # in cells
    if np.any(travel > cfl_max):
        k = int(np.argmax(travel))
        raise CFLViolation(
            f"vessel {layout.vessel_at(k)!r} family {family}: characteristic travels "
            f"{abs(frozen.dt * lam_mid[k]):.3e} > cfl_max*dx = {cfl_max / layout.cells[k]:.3e}; "
            "reduce dt"
        )
    return layout.j - courant * lam_mid


@dataclass(frozen=True)
class EndpointRow:
    """The resolved characteristic value at one end of every vessel (one
    entry per segment), split into its known part and its linear
    coupling to the endpoint state:

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
    """New-level characteristic fields in layout order; NaN entries are
    unresolved feet (they exited the vessel) awaiting a node closure."""

    r: np.ndarray
    s: np.ndarray
    # resolved-family rows for the closures: s at x=0, r at x=1
    left: EndpointRow
    right: EndpointRow


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
    known = []
    for family, values, F_old, base_new in (
        ("R", old.r, frozen.F_R, new.base_R),
        ("L", old.s, frozen.F_L, new.base_L),
    ):
        xi = _trace(frozen, family, cfl_max)
        foot = _stencil(layout, xi)
        part = _at(values, foot) + half_dt * (_at(F_old, foot) + base_new)
        known.append(np.where((xi >= 0.0) & (xi <= layout.cells), part, np.nan))
    Ar, As = known

    # state coupling of the new-level source, mapped to (r, s) through
    # the inverse characteristic transform
    u2 = 2.0 * new.eig.u
    ua2 = u2 * new.coeffs.a
    kRr = half_dt * (frozen.gR_P / u2 + frozen.gR_Q * new.eig.lambda_R / ua2)
    kRs = half_dt * (-frozen.gR_P / u2 - frozen.gR_Q * new.eig.lambda_L / ua2)
    kLr = half_dt * (frozen.gL_P / u2 + frozen.gL_Q * new.eig.lambda_R / ua2)
    kLs = half_dt * (-frozen.gL_P / u2 - frozen.gL_Q * new.eig.lambda_L / ua2)
    det = (1.0 - kRr) * (1.0 - kLs) - kRs * kLr
    stiff = np.abs(det) < 0.5
    if np.any(stiff):
        raise CFLViolation(
            f"vessel {layout.vessel_at(int(np.argmax(stiff)))!r}: "
            "source coupling too stiff for this dt"
        )
    with np.errstate(invalid="ignore"):
        r_new = ((1.0 - kLs) * Ar + kRs * As) / det
        s_new = (kLr * Ar + (1.0 - kRr) * As) / det

    # endpoint nodes: the companion family usually exited there, so the
    # 2x2 entries are not usable. Hand the exact split to the closures,
    # and evaluate the coupling at the frozen iterate for the fields.
    i, k = layout.first, layout.last
    left = EndpointRow(As[i], half_dt * frozen.gL_P[i], half_dt * frozen.gL_Q[i])
    right = EndpointRow(Ar[k], half_dt * frozen.gR_P[k], half_dt * frozen.gR_Q[k])
    s_new[i] = left.value(new.P[i], new.Q[i])
    r_new[k] = right.value(new.P[k], new.Q[k])
    return InteriorUpdate(r=r_new, s=s_new, left=left, right=right)
