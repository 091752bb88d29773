"""Constitutive relations and the wave-system coefficient mapping.

Converts between state representations and evaluates the coefficient
functions of the first-order system

    dP/dt + a dQ/dx = f
    dQ/dt + b dP/dx + 2c dQ/dx = g

from the physical vessel model, where

    a = dP/dA,  b = A/rho - alpha Q^2 / (A^2 a),  c = alpha Q / A,
    f = 0,      g = alpha Q^2/A^2 * dA/dx|_P - 4 pi nu alpha/(alpha-1) * Q/A.

Characteristic speeds are lambda_R = c + u and lambda_L = c - u with
u = sqrt(c^2 + a b); the characteristic variables are
r = -lambda_L P + a Q and s = -lambda_R P + a Q.

All operations are pure and accept either scalars or aligned numpy
arrays in the state/position arguments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CollapsedVesselError,
    HyperbolicityViolation,
    SimulationError,
    TubeLawError,
)
from .network import PowerLaw, TabulatedLaw, TubeLaw, Vessel

DEFAULT_EPSILON0 = 1e-10  # area floor (m^2)

_NEWTON_MAX_ITERS = 100


@dataclass(frozen=True)
class PrimitiveState:
    """Pressure (Pa) and volumetric flow (m^3/s); scalar or array."""

    P: float | np.ndarray
    Q: float | np.ndarray


@dataclass(frozen=True)
class CoefficientSet:
    """Wave-system coefficients and area evaluated at one (x, t, P, Q),
    or elementwise on aligned arrays."""

    a: float | np.ndarray
    b: float | np.ndarray
    c: float | np.ndarray
    f: float | np.ndarray
    g: float | np.ndarray
    A: float | np.ndarray


@dataclass(frozen=True)
class EigenData:
    lambda_R: float | np.ndarray
    lambda_L: float | np.ndarray
    u: float | np.ndarray  # sqrt(c^2 + a b)


@dataclass(frozen=True)
class RiemannPair:
    r: float | np.ndarray
    s: float | np.ndarray


# --- tube-law evaluation ------------------------------------------------


def _tabulated(law: TabulatedLaw, x, R, curves):
    """Blend per-station curves (pressure or slope interpolants) between
    the stations bracketing each x; x and R broadcast against each other."""
    x, R = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(R, dtype=float))
    vals = np.stack([curve(R) for curve in curves])
    if len(curves) == 1:
        return vals[0]
    i, w = law._station_weights(x)
    lo = np.take_along_axis(vals, i[None], axis=0)[0]
    hi = np.take_along_axis(vals, i[None] + 1, axis=0)[0]
    return (1.0 - w) * lo + w * hi


def _scalar_or_array(out):
    out = np.asarray(out)
    return float(out) if out.ndim == 0 else out


def pressure_from_radius(law: TubeLaw, x, R):
    """Evaluate the tube law P(x, R). Strictly increasing in R."""
    if isinstance(law, PowerLaw):
        R = np.asarray(R, dtype=float)
        if np.any(R <= 0):
            raise TubeLawError("radius must be positive")
        # expm1/log1p form avoids cancellation near R = R0
        return _scalar_or_array(law.C * np.expm1(law.beta * np.log(R / law.R0)))
    if isinstance(law, TabulatedLaw):
        R_arr = np.asarray(R, dtype=float)
        if np.any(R_arr < law.radii[0]) or np.any(R_arr > law.radii[-1]):
            raise TubeLawError(
                f"radius outside tabulated range [{law.radii[0]}, {law.radii[-1]}]"
            )
        return _scalar_or_array(_tabulated(law, x, R_arr, law._interp))
    raise TypeError(f"not a tube law: {law!r}")


def _dP_dR(law: TabulatedLaw, x, R):
    return _scalar_or_array(_tabulated(law, x, R, law._dinterp))


def radius_from_pressure(law: TubeLaw, x, P):
    """Invert the tube law at fixed x; unique by monotonicity.

    The power law inverts in closed form. Tabulated laws use a Newton
    iteration with a bisection safeguard on the bracketing radius range,
    converging the pressure residual to 1e-14 relative, elementwise on
    aligned arrays of x and P. A pressure outside the law's range raises.
    """
    if isinstance(law, PowerLaw):
        P = np.asarray(P, dtype=float)
        if np.any(P / law.C <= -1.0):
            raise TubeLawError(f"pressure below power-law range (need P > {-law.C})")
        return _scalar_or_array(law.R0 * np.exp(np.log1p(P / law.C) / law.beta))
    if isinstance(law, TabulatedLaw):
        R = _invert_tabulated(law, x, P)
        if np.any(np.isnan(R)):
            raise TubeLawError("pressure outside tabulated range")
        return _scalar_or_array(R)
    raise TypeError(f"not a tube law: {law!r}")


def _invert_tabulated(law: TabulatedLaw, x, P) -> np.ndarray:
    """Radius at (x, P) under a tabulated law; NaN where P lies outside
    the table's pressure range at x (or is NaN)."""
    x, P = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(P, dtype=float))
    lo = np.full(P.shape, law.radii[0])
    hi = np.full(P.shape, law.radii[-1])
    p_lo = pressure_from_radius(law, x, lo)
    p_hi = pressure_from_radius(law, x, hi)
    tol = 1e-14 * np.maximum(1.0, np.abs(P))
    # a NaN radius keeps its residual NaN, so it never turns active
    R = np.where((P >= p_lo) & (P <= p_hi), 0.5 * (lo + hi), np.nan)
    for _ in range(_NEWTON_MAX_ITERS):
        res = pressure_from_radius(law, x, R) - P
        # converged, or the bracket is exhausted at float resolution
        # (interpolant evaluation noise bounds the residual below)
        active = (np.abs(res) > tol) & (hi - lo > 4.0 * np.spacing(hi))
        if not np.any(active):
            return R
        hi = np.where(active & (res > 0), R, hi)
        lo = np.where(active & (res <= 0), R, lo)
        slope = _dP_dR(law, x, R)
        with np.errstate(divide="ignore", invalid="ignore"):
            R_new = R - np.where(slope > 0, res / slope, np.inf)
        # Newton left the bracket: bisect
        R_new = np.where((lo < R_new) & (R_new < hi), R_new, 0.5 * (lo + hi))
        R = np.where(active, R_new, R)
    k = np.flatnonzero(active)[0]
    raise TubeLawError(
        f"tube-law inversion did not converge at x={x.flat[k]}, P={P.flat[k]}"
    )


def _dA_dx_fixed_P(law: TabulatedLaw, x, P):
    """x-derivative of area at fixed pressure under a tabulated law:
    finite differences across stations, zero for a single station; NaN
    where P lies outside the table at a station of the difference."""
    if law.x_stations.size == 1:
        return np.zeros_like(np.asarray(P, dtype=float)) if np.ndim(P) else 0.0
    xs = law.x_stations
    x, P = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(P, dtype=float))
    i = np.clip(np.searchsorted(xs, x) - 1, 0, xs.size - 2)
    centered = np.isclose(x, xs[i]) & (i > 0)
    x_lo = np.where(centered, xs[np.maximum(i - 1, 0)], xs[i])
    x_hi = xs[i + 1]
    R_lo = _invert_tabulated(law, x_lo, P)
    R_hi = _invert_tabulated(law, x_hi, P)
    return _scalar_or_array(np.pi * (R_hi**2 - R_lo**2) / (x_hi - x_lo))


# --- coefficient mapping ------------------------------------------------


def _eval_synthetic(spec, x, t):
    if callable(spec):
        out = np.asarray(spec(x, t), dtype=float)
        return np.broadcast_to(out, np.shape(x)).astype(float) if np.ndim(x) else float(out)
    if np.ndim(x):
        return np.full(np.shape(x), float(spec))
    return float(spec)


@dataclass(frozen=True)
class PowerLawParams:
    """Power tube law and blood parameters of one vessel (scalars) or of
    many grid points (aligned arrays), with the derived constants the
    coefficient kernel uses."""

    C: float | np.ndarray
    beta: float | np.ndarray
    A0: float | np.ndarray  # reference area pi R0^2
    alpha: float | np.ndarray
    visc: float | np.ndarray  # 4 pi nu alpha / (alpha - 1)
    rho: float | np.ndarray

    @classmethod
    def of(cls, C, R0, beta, alpha, nu, rho) -> "PowerLawParams":
        # an overflow gives infinite coefficients, which the checks classify
        with np.errstate(over="ignore"):
            return cls(
                C=C, beta=beta, A0=np.pi * R0 * R0, alpha=alpha,
                visc=4.0 * np.pi * nu * alpha / (alpha - 1.0), rho=rho,
            )

    @classmethod
    def for_vessel(cls, vessel: Vessel) -> "PowerLawParams":
        law = vessel.tube_law
        return cls.of(law.C, law.R0, law.beta, vessel.alpha, vessel.nu, vessel.rho_blood)


def power_law_coefficients(p: PowerLawParams, P, Q) -> CoefficientSet:
    """Coefficients of the physical model under a power tube law, in
    closed form: with 1 + P/C = (R/R0)^beta,

        A = A0 (1 + P/C)^(2/beta),  a = dP/dA = beta (C + P) / (2A).

    The law is x-independent, so g has only its viscous part. Unchecked:
    P <= -C gives NaN (or zero area) and an overflow infinite or NaN
    fields; see `coefficient_failure` and the kernel's guards. f is the
    scalar 0.0.
    """
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        A = p.A0 * np.exp((2.0 / p.beta) * np.log1p(P / p.C))
        a = p.beta * (p.C + P) / (2.0 * A)
        Q_over_A = Q / A
        c = p.alpha * Q_over_A
        b = A / p.rho - c * Q_over_A / a
        g = -p.visc * Q_over_A
    return CoefficientSet(a, b, c, 0.0, g, A)


def coefficient_failure(P, A, a, epsilon0: float, owner) -> SimulationError | None:
    """The error for the first point whose area is not at or above the
    floor or whose slope a is not positive (NaN fails both), or None.
    A point without positive area lies outside its law's range. owner
    maps a flat point index to the id of its vessel."""
    # the ufunc reduction: np.min's dispatch costs as much on small layouts
    if np.minimum.reduce(A, axis=None) >= epsilon0 and np.minimum.reduce(a, axis=None) > 0:
        return None
    P, A, a = (np.ravel(v) for v in np.broadcast_arrays(P, A, a))
    k = int(np.flatnonzero(~((A >= epsilon0) & (a > 0)))[0])
    if not A[k] > 0:
        return TubeLawError(f"vessel {owner(k)!r}: pressure {P[k]} outside the tube law's range")
    if A[k] < epsilon0:
        return CollapsedVesselError(
            f"vessel {owner(k)!r}: area {A[k]:.3e} m^2 below floor {epsilon0:.3e}"
        )
    return TubeLawError(f"vessel {owner(k)!r}: nonpositive slope dP/dA")


def coefficients(
    vessel: Vessel,
    x,
    t: float,
    state: PrimitiveState,
    epsilon0: float = DEFAULT_EPSILON0,
    checked: bool = True,
) -> CoefficientSet:
    """Coefficients (a, b, c, f, g, A) of the wave system at (x, t, P, Q).

    For physical vessels the state's pressure is inverted through the
    tube law to recover area. Points where the law cannot be evaluated
    (pressure outside its range, or outside a tabulated law's table at a
    station of dA/dx) come back as NaN in every field but f. With
    checked=True (the solver path) `coefficient_failure` raises for the
    first such point, a collapsed area (A < epsilon0) or a nonpositive
    slope a; with checked=False callers report them (the
    condition-checker path). Synthetic coefficients are returned as
    given, unchecked.

    x and the state fields may be aligned arrays; scalars in give
    scalars out.
    """
    syn = vessel.synthetic
    if syn is not None:
        shape = np.shape(x)
        A = np.full(shape, syn.area) if shape else syn.area
        return CoefficientSet(
            a=_eval_synthetic(syn.a, x, t),
            b=_eval_synthetic(syn.b, x, t),
            c=_eval_synthetic(syn.c, x, t),
            f=_eval_synthetic(syn.f, x, t),
            g=_eval_synthetic(syn.g, x, t),
            A=A,
        )

    law = vessel.tube_law
    P = np.asarray(state.P, dtype=float)
    Q = np.asarray(state.Q, dtype=float)

    if isinstance(law, PowerLaw):
        cs = power_law_coefficients(PowerLawParams.for_vessel(vessel), P, Q)
        a, b, c, g, A = cs.a, cs.b, cs.c, cs.g, cs.A
    else:
        dAdx = _dA_dx_fixed_P(law, x, P)
        R = np.where(np.isnan(dAdx), np.nan, _invert_tabulated(law, x, P))
        A = np.pi * R**2
        dPdR = _dP_dR(law, x, R)
        with np.errstate(invalid="ignore", divide="ignore"):
            a = dPdR / (2.0 * np.pi * R)
            alpha = vessel.alpha
            b = A / vessel.rho_blood - alpha * Q**2 / (A**2 * a)
            c = alpha * Q / A
            g = alpha * Q**2 / A**2 * dAdx - (
                4.0 * np.pi * vessel.nu * alpha / (alpha - 1.0)
            ) * Q / A
    if checked:
        err = coefficient_failure(P, A, a, epsilon0, lambda k: vessel.id)
        if err is not None:
            raise err
    if P.ndim == 0 and np.ndim(x) == 0:
        return CoefficientSet(float(a), float(b), float(c), 0.0, float(g), float(A))
    return CoefficientSet(a, b, c, np.zeros_like(a), g, A)


# --- eigenstructure and characteristic variables ------------------------


def eigen(cs: CoefficientSet) -> EigenData:
    """Characteristic speeds of the wave system; requires c^2 + a b > 0
    and finite (an overflow would give infinite or NaN speeds)."""
    with np.errstate(over="ignore"):
        disc = cs.c * cs.c + cs.a * cs.b
    lo, hi = np.min(disc), np.max(disc)
    # a NaN also fails these comparisons
    if not (lo > 0 and hi < np.inf):
        raise HyperbolicityViolation(
            f"c^2 + a*b must be positive and finite, worst value {float(hi if lo > 0 else lo):.6e}"
        )
    u = np.sqrt(disc)
    return EigenData(lambda_R=cs.c + u, lambda_L=cs.c - u, u=u)


def to_riemann(cs: CoefficientSet, e: EigenData, st: PrimitiveState) -> RiemannPair:
    """Characteristic variables r = -lambda_L P + a Q, s = -lambda_R P + a Q."""
    return RiemannPair(
        r=-e.lambda_L * st.P + cs.a * st.Q,
        s=-e.lambda_R * st.P + cs.a * st.Q,
    )


def from_riemann(cs: CoefficientSet, e: EigenData, rp: RiemannPair) -> PrimitiveState:
    """Invert the characteristic transform:
    P = (r - s)/(2u), Q = (lambda_R r - lambda_L s)/(2 u a)."""
    P = (rp.r - rp.s) / (2.0 * e.u)
    Q = (e.lambda_R * rp.r - e.lambda_L * rp.s) / (2.0 * e.u * cs.a)
    return PrimitiveState(P=P, Q=Q)
