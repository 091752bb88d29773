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

All operations are pure and take aligned numpy arrays in the
state/position arguments; scalar inputs take the same array path and
give 0-d results (a NumPy scalar or a 0-d array) of the same value.
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


# --- tube-law evaluation ------------------------------------------------


def _tabulated(weights, rows):
    """Blend the station rows (m, ...) of one interpolant evaluation
    between the stations bracketing each point, by the points'
    `TabulatedLaw._station_weights`."""
    if weights is None:
        return rows[0]
    i, w = weights
    lo = np.take_along_axis(rows, i[None], axis=0)[0]
    hi = np.take_along_axis(rows, i[None] + 1, axis=0)[0]
    return (1.0 - w) * lo + w * hi


def pressure_from_radius(law: TubeLaw, x, R):
    """Evaluate the tube law P(x, R). Strictly increasing in R."""
    if isinstance(law, PowerLaw):
        R = np.asarray(R, dtype=float)
        if np.any(R <= 0):
            raise TubeLawError("radius must be positive")
        # expm1/log1p form avoids cancellation near R = R0
        return law.C * np.expm1(law.beta * np.log(R / law.R0))
    if isinstance(law, TabulatedLaw):
        x, R = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(R, dtype=float))
        if np.any(R < law.radii[0]) or np.any(R > law.radii[-1]):
            raise TubeLawError(
                f"radius outside tabulated range [{law.radii[0]}, {law.radii[-1]}]"
            )
        return _tabulated(law._station_weights(x), law._interp(R))
    raise TypeError(f"not a tube law: {law!r}")


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
        return law.R0 * np.exp(np.log1p(P / law.C) / law.beta)
    if isinstance(law, TabulatedLaw):
        R = _invert_tabulated(law, x, P)
        if np.any(np.isnan(R)):
            raise TubeLawError("pressure outside tabulated range")
        return R
    raise TypeError(f"not a tube law: {law!r}")


def _invert_tabulated(law: TabulatedLaw, x, P) -> np.ndarray:
    """Radius at (x, P) under a tabulated law; NaN where P lies outside
    the table's pressure range at x (or is NaN)."""
    x, P = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(P, dtype=float))
    weights = law._station_weights(x)
    lo = np.full(P.shape, law.radii[0])
    hi = np.full(P.shape, law.radii[-1])
    p_lo = _tabulated(weights, law._interp(lo))
    p_hi = _tabulated(weights, law._interp(hi))
    tol = 1e-14 * np.maximum(1.0, np.abs(P))
    # a NaN radius keeps its residual NaN, so it never turns active
    R = np.where((P >= p_lo) & (P <= p_hi), 0.5 * (lo + hi), np.nan)
    for _ in range(_NEWTON_MAX_ITERS):
        res = _tabulated(weights, law._interp(R)) - P
        # converged, or the bracket is exhausted at float resolution
        # (interpolant evaluation noise bounds the residual below)
        active = (np.abs(res) > tol) & (hi - lo > 4.0 * np.spacing(hi))
        if not np.any(active):
            return R
        hi = np.where(active & (res > 0), R, hi)
        lo = np.where(active & (res <= 0), R, lo)
        slope = _tabulated(weights, law._dinterp(R))
        with np.errstate(divide="ignore", invalid="ignore"):
            R_new = R - np.where(slope > 0, res / slope, np.inf)
        # Newton left the bracket: bisect
        R_new = np.where((lo < R_new) & (R_new < hi), R_new, 0.5 * (lo + hi))
        R = np.where(active, R_new, R)
    k = np.flatnonzero(active)[0]
    raise TubeLawError(
        f"tube-law inversion did not converge at x={x.flat[k]}, P={P.flat[k]}"
    )


def _radius_and_dA_dx(law: TabulatedLaw, x, P):
    """Radius at (x, P) under a tabulated law, and the x-derivative of area
    at fixed pressure by finite differences across stations (zero for a
    single station), from one inversion over the positions stacked as
    (x_lo, x_hi, x). dA/dx is NaN where P lies outside the table at a
    station of the difference, R there and where it lies outside at x."""
    xs = law.x_stations
    if xs.size == 1:
        R = _invert_tabulated(law, x, P)
        return R, np.zeros_like(R)
    x, P = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(P, dtype=float))
    i, _ = law._station_weights(x)
    centered = np.isclose(x, xs[i]) & (i > 0)
    x_lo = np.where(centered, xs[i - 1], xs[i])
    x_hi = xs[i + 1]
    R_lo, R_hi, R = _invert_tabulated(law, np.stack((x_lo, x_hi, x)), np.stack((P, P, P)))
    dAdx = np.pi * (R_hi**2 - R_lo**2) / (x_hi - x_lo)
    return np.where(np.isnan(dAdx), np.nan, R), dAdx


# --- coefficient mapping ------------------------------------------------


def _eval_synthetic(spec, x, t):
    if callable(spec):
        return np.broadcast_to(np.asarray(spec(x, t), dtype=float), np.shape(x)).astype(float)
    return np.full(np.shape(x), float(spec))


@dataclass(frozen=True)
class PowerLawParams:
    """Power tube law and blood parameters of one vessel (scalars) or of
    many grid points (aligned arrays), with the derived constants the
    coefficient kernel uses."""

    C: float | np.ndarray
    beta: float | np.ndarray
    two_over_beta: float | np.ndarray  # the area exponent 2 / beta
    A0: float | np.ndarray  # reference area pi R0^2
    alpha: float | np.ndarray
    neg_visc: float | np.ndarray  # -4 pi nu alpha / (alpha - 1), g = neg_visc Q / A
    rho: float | np.ndarray

    @classmethod
    def of(cls, C, R0, beta, alpha, nu, rho) -> "PowerLawParams":
        # an overflow gives infinite coefficients, which the checks classify
        with np.errstate(over="ignore"):
            return cls(
                C=C, beta=beta, two_over_beta=np.divide(2.0, beta), A0=np.pi * R0 * R0,
                alpha=alpha, neg_visc=np.negative(4.0 * np.pi * nu * alpha / (alpha - 1.0)), rho=rho,
            )

    @classmethod
    def for_vessel(cls, vessel: Vessel) -> "PowerLawParams":
        law = vessel.tube_law
        return cls.of(law.C, law.R0, law.beta, vessel.alpha, vessel.nu, vessel.rho_blood)


def power_law_coefficients(p: PowerLawParams, P, Q, out: CoefficientSet | None = None) -> CoefficientSet:
    """Coefficients of the physical model under a power tube law, in
    closed form: with 1 + P/C = (R/R0)^beta,

        A = A0 (1 + P/C)^(2/beta),  a = dP/dA = beta (C + P) / (2A).

    The law is x-independent, so g has only its viscous part. Unchecked:
    P <= -C gives NaN (or zero area) and an overflow infinite or NaN
    fields; see `coefficient_failure` and the kernel's guards. a, b, c, g
    and A are written into the arrays of out (its f is neither read nor
    written), or into a new set whose f is the scalar 0.0; the set is
    returned.
    """
    if out is None:
        shape = np.broadcast_shapes(np.shape(P), np.shape(Q), np.shape(p.C))
        out = CoefficientSet(*(np.empty(shape) for _ in range(3)), 0.0, np.empty(shape), np.empty(shape))
    a, b, c, g, A = out.a, out.b, out.c, out.g, out.A
    # each formula's operations in their written order, the outputs not
    # yet computed holding the intermediates
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        np.divide(P, p.C, out=A)
        np.log1p(A, out=A)
        np.multiply(p.two_over_beta, A, out=A)
        np.exp(A, out=A)
        np.multiply(p.A0, A, out=A)
        np.multiply(p.beta, np.add(p.C, P, out=a), out=a)
        np.divide(a, np.multiply(2.0, A, out=c), out=a)
        Q_over_A = np.divide(Q, A, out=c)
        # b = A / rho - c Q_over_A / a, with c = alpha Q_over_A
        np.multiply(np.multiply(p.alpha, Q_over_A, out=b), Q_over_A, out=b)
        np.divide(b, a, out=b)
        np.subtract(np.divide(A, p.rho, out=g), b, out=b)
        np.multiply(p.neg_visc, Q_over_A, out=g)
        np.multiply(p.alpha, Q_over_A, out=c)
    return out


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


def coefficients(vessel: Vessel, x, t: float, state: PrimitiveState) -> CoefficientSet:
    """Coefficients (a, b, c, f, g, A) of the wave system at (x, t, P, Q).

    For physical vessels the state's pressure is inverted through the
    tube law to recover area. Points where the law cannot be evaluated
    (pressure outside its range, or outside a tabulated law's table at a
    station of dA/dx) come back as NaN in every field but f. Unchecked:
    `coefficient_failure` names such a point, a collapsed area or a
    nonpositive slope a (the solver raises it through
    `compiled.check_coefficients`). Synthetic coefficients are returned
    as given.

    x and the state fields may be aligned arrays; scalar inputs give
    0-d results (a NumPy scalar or a 0-d array) of the same value.
    """
    syn = vessel.synthetic
    if syn is not None:
        return CoefficientSet(
            a=_eval_synthetic(syn.a, x, t),
            b=_eval_synthetic(syn.b, x, t),
            c=_eval_synthetic(syn.c, x, t),
            f=_eval_synthetic(syn.f, x, t),
            g=_eval_synthetic(syn.g, x, t),
            A=np.full(np.shape(x), syn.area),
        )

    law = vessel.tube_law
    P = np.asarray(state.P, dtype=float)
    Q = np.asarray(state.Q, dtype=float)

    if isinstance(law, PowerLaw):
        cs = power_law_coefficients(PowerLawParams.for_vessel(vessel), P, Q)
        a, b, c, g, A = cs.a, cs.b, cs.c, cs.g, cs.A
    else:
        R, dAdx = _radius_and_dA_dx(law, x, P)
        A = np.pi * R**2
        dPdR = _tabulated(law._station_weights(np.broadcast_to(x, R.shape)), law._dinterp(R))
        with np.errstate(invalid="ignore", divide="ignore"):
            a = dPdR / (2.0 * np.pi * R)
            alpha = vessel.alpha
            b = A / vessel.rho_blood - alpha * Q**2 / (A**2 * a)
            c = alpha * Q / A
            g = alpha * Q**2 / A**2 * dAdx - (
                4.0 * np.pi * vessel.nu * alpha / (alpha - 1.0)
            ) * Q / A
    return CoefficientSet(a, b, c, np.zeros_like(a), g, A)


# --- eigenstructure and characteristic variables ------------------------


def eigen(cs: CoefficientSet, out: EigenData | None = None) -> EigenData:
    """Characteristic speeds of the wave system; requires c^2 + a b > 0
    and finite (an overflow would give infinite or NaN speeds). The
    speeds and u are written into the arrays of out, or into new arrays
    without one. When it raises HyperbolicityViolation, out.u holds
    c^2 + a b, so a caller can find the failing points."""
    if out is None:
        shape = np.broadcast_shapes(np.shape(cs.a), np.shape(cs.b), np.shape(cs.c))
        out = EigenData(*(np.empty(shape) for _ in range(3)))
    u = out.u
    with np.errstate(over="ignore"):
        disc = np.add(np.multiply(cs.c, cs.c, out=u), np.multiply(cs.a, cs.b, out=out.lambda_L), out=u)
    # the ufunc reductions: np.min's dispatch costs as much on small layouts
    lo, hi = np.minimum.reduce(disc, axis=None), np.maximum.reduce(disc, axis=None)
    # a NaN also fails these comparisons
    if not (lo > 0 and hi < np.inf):
        raise HyperbolicityViolation(
            f"c^2 + a*b must be positive and finite, worst value {float(hi if lo > 0 else lo):.6e}"
        )
    np.sqrt(disc, out=u)
    np.add(cs.c, u, out=out.lambda_R)
    np.subtract(cs.c, u, out=out.lambda_L)
    return out


def to_riemann(cs: CoefficientSet, e: EigenData, st: PrimitiveState) -> np.ndarray:
    """The family stack (r, s): r = -lambda_L P + a Q, s = -lambda_R P + a Q."""
    aQ = cs.a * st.Q
    return np.stack((-e.lambda_L * st.P + aQ, -e.lambda_R * st.P + aQ))


def from_riemann(
    cs: CoefficientSet, e: EigenData, rs: np.ndarray,
    out: PrimitiveState | None = None, tmp: np.ndarray | None = None,
) -> PrimitiveState:
    """Invert the characteristic transform of the family stack rs = (r, s):
    P = (r - s)/(2u), Q = (lambda_R r - lambda_L s)/(2 u a).
    Given out, a state of arrays, and tmp, one more array of their shape,
    write P and Q into out's arrays, with tmp as the only scratch, and
    return out's arrays; without them, return new values."""
    P_out, Q_out = (None, None) if out is None else (out.P, out.Q)
    num = np.multiply(e.lambda_R, rs[0], out=Q_out)
    num = np.subtract(num, np.multiply(e.lambda_L, rs[1], out=tmp), out=Q_out)
    u2 = np.multiply(2.0, e.u, out=tmp)
    P = np.divide(np.subtract(rs[0], rs[1], out=P_out), u2, out=P_out)
    Q = np.divide(num, np.multiply(u2, cs.a, out=tmp), out=Q_out)
    return PrimitiveState(P=P, Q=Q)
