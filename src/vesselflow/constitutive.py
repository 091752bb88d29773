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
    aligned arrays of x and P.
    """
    if isinstance(law, PowerLaw):
        P = np.asarray(P, dtype=float)
        if np.any(P / law.C <= -1.0):
            raise TubeLawError(f"pressure below power-law range (need P > {-law.C})")
        return _scalar_or_array(law.R0 * np.exp(np.log1p(P / law.C) / law.beta))
    if isinstance(law, TabulatedLaw):
        return _scalar_or_array(_invert_tabulated(law, x, P))
    raise TypeError(f"not a tube law: {law!r}")


def _invert_tabulated(law: TabulatedLaw, x, P) -> np.ndarray:
    x, P = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(P, dtype=float))
    lo = np.full(P.shape, law.radii[0])
    hi = np.full(P.shape, law.radii[-1])
    p_lo = pressure_from_radius(law, x, lo)
    p_hi = pressure_from_radius(law, x, hi)
    outside = (P < p_lo) | (P > p_hi)
    if np.any(outside):
        k = np.flatnonzero(outside)[0]
        raise TubeLawError(
            f"pressure {P.flat[k]} outside tabulated range "
            f"[{np.ravel(p_lo)[k]}, {np.ravel(p_hi)[k]}] at x={x.flat[k]}"
        )
    tol = 1e-14 * np.maximum(1.0, np.abs(P))
    R = 0.5 * (lo + hi)
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
    finite differences across stations, zero for a single station."""
    if law.x_stations.size == 1:
        return np.zeros_like(np.asarray(P, dtype=float)) if np.ndim(P) else 0.0
    xs = law.x_stations
    x, P = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(P, dtype=float))
    i = np.clip(np.searchsorted(xs, x) - 1, 0, xs.size - 2)
    centered = np.isclose(x, xs[i]) & (i > 0)
    x_lo = np.where(centered, xs[np.maximum(i - 1, 0)], xs[i])
    x_hi = xs[i + 1]
    R_lo = np.asarray(radius_from_pressure(law, x_lo, P))
    R_hi = np.asarray(radius_from_pressure(law, x_hi, P))
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
    P <= -C gives NaN (or zero area); see `power_law_failure`. f is the
    scalar 0.0.
    """
    with np.errstate(invalid="ignore", divide="ignore"):
        A = p.A0 * np.exp((2.0 / p.beta) * np.log1p(P / p.C))
        a = p.beta * (p.C + P) / (2.0 * A)
        Q_over_A = Q / A
        c = p.alpha * Q_over_A
        b = A / p.rho - c * Q_over_A / a
        g = -p.visc * Q_over_A
    return CoefficientSet(a, b, c, 0.0, g, A)


def power_law_failure(p: PowerLawParams, P, A, epsilon0: float, owner) -> SimulationError | None:
    """The error for the first point whose area is not at or above the
    floor (NaN included), or None. owner maps a flat point index to the
    id of its vessel."""
    A = np.asarray(A)
    if np.min(A) >= epsilon0:
        return None
    k = int(np.flatnonzero(~(A >= epsilon0))[0])
    C = float(np.ravel(p.C)[k] if np.ndim(p.C) else p.C)
    if not float(np.ravel(P)[k]) / C > -1.0:
        return TubeLawError(
            f"vessel {owner(k)!r}: pressure below power-law range (need P > {-C})"
        )
    return CollapsedVesselError(
        f"vessel {owner(k)!r}: area {float(A.flat[k]):.3e} m^2 below floor {epsilon0:.3e}"
    )


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
    tube law to recover area. With checked=True (the solver path) a
    collapsed area (A < epsilon0) or a nonpositive slope a raises; with
    checked=False out-of-range points come back as NaN so callers can
    report them (the condition-checker path).

    x and the state fields may be aligned arrays.
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
    scalar = P.ndim == 0 and np.ndim(x) == 0

    if isinstance(law, PowerLaw):
        params = PowerLawParams.for_vessel(vessel)
        cs = power_law_coefficients(params, P, Q)
        if checked:
            err = power_law_failure(params, P, cs.A, epsilon0, lambda k: vessel.id)
            if err is not None:
                raise err
        a, b, c, g, A = cs.a, cs.b, cs.c, cs.g, cs.A
    else:
        if checked:
            R = radius_from_pressure(law, x, P)
        else:
            try:
                R = radius_from_pressure(law, x, P)
            except TubeLawError:
                if P.ndim == 0:
                    nan = float("nan")
                    return CoefficientSet(nan, nan, nan, nan, nan, nan)
                R = np.full(P.shape, np.nan)
                for k, p in enumerate(P):
                    try:
                        R[k] = radius_from_pressure(
                            law, x[k] if np.ndim(x) else x, float(p)
                        )
                    except TubeLawError:
                        pass
        R = np.asarray(R, dtype=float)
        A = np.pi * R**2
        if checked and np.any(A < epsilon0):
            raise CollapsedVesselError(
                f"vessel {vessel.id!r}: area {np.min(A):.3e} m^2 below floor {epsilon0:.3e}"
            )

        dPdR = np.asarray(_dP_dR(law, x, R), dtype=float)
        with np.errstate(invalid="ignore", divide="ignore"):
            a = dPdR / (2.0 * np.pi * R)
            if checked and np.any(a <= 0):
                raise TubeLawError(f"vessel {vessel.id!r}: nonpositive slope dP/dA")
            alpha = vessel.alpha
            b = A / vessel.rho_blood - alpha * Q**2 / (A**2 * a)
            c = alpha * Q / A
            dAdx = np.asarray(_dA_dx_fixed_P(law, x, P), dtype=float)
            g = alpha * Q**2 / A**2 * dAdx - (
                4.0 * np.pi * vessel.nu * alpha / (alpha - 1.0)
            ) * Q / A
    if scalar:
        return CoefficientSet(float(a), float(b), float(c), 0.0, float(g), float(A))
    return CoefficientSet(a, b, c, np.zeros_like(a), g, A)


# --- eigenstructure and characteristic variables ------------------------


def eigen(cs: CoefficientSet) -> EigenData:
    """Characteristic speeds of the wave system; requires c^2 + a b > 0."""
    disc = cs.c * cs.c + cs.a * cs.b
    # a NaN minimum also fails this comparison
    if not np.min(disc) > 0:
        raise HyperbolicityViolation(
            f"c^2 + a*b must be positive, worst value {float(np.min(disc)):.6e}"
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
