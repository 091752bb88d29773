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

import numpy as np

from .compiled import CompiledNetwork, layout_coefficients
from .constitutive import (
    CoefficientSet,
    EigenData,
    PrimitiveState,
    eigen,
    to_riemann,
)
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

    def copy(self) -> "VesselField":
        return VesselField(self.vessel_id, self.t, self.P.copy(), self.Q.copy())


@dataclass(frozen=True)
class DirectionalDerivatives:
    """Derivatives of the left-eigenvector entries along each family."""

    dR_lambda_L: float | np.ndarray
    dR_a: float | np.ndarray
    dL_lambda_R: float | np.ndarray
    dL_a: float | np.ndarray


@dataclass
class LevelData:
    """Frozen data of every grid point of the layout at one time level."""

    t: float
    coeffs: CoefficientSet
    eig: EigenData
    P: np.ndarray
    Q: np.ndarray
    r: np.ndarray
    s: np.ndarray
    # level-intrinsic spatial derivatives, built with the level so a level
    # reused across fixed-point iterations is not rebuilt
    lamL_x: np.ndarray
    lamR_x: np.ndarray
    a_x: np.ndarray
    # old level: the source terms F per family, read at the feet
    F_R: np.ndarray | None = None
    F_L: np.ndarray | None = None
    # new level: the source terms split as F = base + gP * P + gQ * Q per
    # family (the state-coupled part is solved implicitly)
    base_F_R: np.ndarray | None = None
    gR_P: np.ndarray | None = None
    gR_Q: np.ndarray | None = None
    base_F_L: np.ndarray | None = None
    gL_P: np.ndarray | None = None
    gL_Q: np.ndarray | None = None


@dataclass
class FrozenStep:
    """Both time levels of frozen coefficients for one step of a layout."""

    layout: CompiledNetwork
    dt: float
    old: LevelData
    new: LevelData


def source_terms(
    cs: CoefficientSet,
    e: EigenData,
    st: PrimitiveState,
    d: DirectionalDerivatives,
) -> tuple[float | np.ndarray, float | np.ndarray]:
    """Source terms of the characteristic equations:

    F_R = -lambda_L f + a g - (d_R lambda_L) P + (d_R a) Q
    F_L = -lambda_R f + a g - (d_L lambda_R) P + (d_L a) Q

    Works elementwise on aligned arrays.
    """
    F_R = -e.lambda_L * cs.f + cs.a * cs.g - d.dR_lambda_L * st.P + d.dR_a * st.Q
    F_L = -e.lambda_R * cs.f + cs.a * cs.g - d.dL_lambda_R * st.P + d.dL_a * st.Q
    return F_R, F_L


def _ddx(layout: CompiledNetwork, f: np.ndarray) -> np.ndarray:
    """Centered differences inside each segment, second-order one-sided
    at its two ends."""
    out = np.empty_like(f)
    out[1:-1] = f[2:] - f[:-2]
    i, k = layout.first, layout.last
    out[i] = -3.0 * f[i] + 4.0 * f[i + 1] - f[i + 2]
    out[k] = 3.0 * f[k] - 4.0 * f[k - 1] + f[k - 2]
    return out * (0.5 * layout.cells)


def _build_level(layout: CompiledNetwork, t: float, P: np.ndarray, Q: np.ndarray, epsilon0: float) -> LevelData:
    cs = layout_coefficients(layout, t, P, Q, epsilon0)
    e = eigen(cs)
    rp = to_riemann(cs, e, PrimitiveState(P, Q))
    return LevelData(
        t=t, coeffs=cs, eig=e, P=P, Q=Q, r=rp.r, s=rp.s,
        lamL_x=_ddx(layout, e.lambda_L),
        lamR_x=_ddx(layout, e.lambda_R),
        a_x=_ddx(layout, cs.a),
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

    def along(lev):
        return DirectionalDerivatives(
            dR_lambda_L=lamL_t + lev.eig.lambda_R * lev.lamL_x,
            dR_a=a_t + lev.eig.lambda_R * lev.a_x,
            dL_lambda_R=lamR_t + lev.eig.lambda_L * lev.lamR_x,
            dL_a=a_t + lev.eig.lambda_L * lev.a_x,
        )

    old.F_R, old.F_L = source_terms(old.coeffs, old.eig, PrimitiveState(old.P, old.Q), along(old))
    d = along(new)
    new.gR_P, new.gR_Q = -d.dR_lambda_L, d.dR_a
    new.gL_P, new.gL_Q = -d.dL_lambda_R, d.dL_a
    ag = new.coeffs.a * new.coeffs.g
    new.base_F_R = ag - new.eig.lambda_L * new.coeffs.f
    new.base_F_L = ag - new.eig.lambda_R * new.coeffs.f
    return FrozenStep(layout=layout, dt=dt, old=old, new=new)


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
        ("R", old.r, old.F_R, new.base_F_R),
        ("L", old.s, old.F_L, new.base_F_L),
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
    kRr = half_dt * (new.gR_P / u2 + new.gR_Q * new.eig.lambda_R / ua2)
    kRs = half_dt * (-new.gR_P / u2 - new.gR_Q * new.eig.lambda_L / ua2)
    kLr = half_dt * (new.gL_P / u2 + new.gL_Q * new.eig.lambda_R / ua2)
    kLs = half_dt * (-new.gL_P / u2 - new.gL_Q * new.eig.lambda_L / ua2)
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
    left = EndpointRow(As[i], half_dt * new.gL_P[i], half_dt * new.gL_Q[i])
    right = EndpointRow(Ar[k], half_dt * new.gR_P[k], half_dt * new.gR_Q[k])
    s_new[i] = left.value(new.P[i], new.Q[i])
    r_new[k] = right.value(new.P[k], new.Q[k])
    return InteriorUpdate(r=r_new, s=s_new, left=left, right=right)
