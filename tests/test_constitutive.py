"""Tube-law, coefficient-mapping, and characteristic-transform tests."""

import numpy as np
import pytest

from vesselflow import (
    CoefficientSet,
    CollapsedVesselError,
    HyperbolicityViolation,
    PowerLaw,
    PrimitiveState,
    SyntheticCoefficients,
    TabulatedLaw,
    TubeLawError,
    Vessel,
    coefficients,
    eigen,
    from_riemann,
    pressure_from_radius,
    radius_from_pressure,
    to_riemann,
)
from vesselflow.constitutive import coefficient_failure

LAW = PowerLaw(C=1e4, R0=1e-3, beta=2.0)


def make_vessel(alpha=3.0, nu=3.3e-6, rho=1050.0, law=LAW):
    return Vessel(
        id="v", n_cells=10, x0_node="a", x1_node="b",
        alpha=alpha, nu=nu, rho_blood=rho, tube_law=law,
    )


def tab_law():
    # 1e-3 and 2e-3 are sample nodes
    radii = np.linspace(0.5e-3, 2e-3, 7)
    pressures = 1e4 * ((radii / 1e-3) ** 2 - 1.0)
    return TabulatedLaw(radii=radii, pressures=[pressures])


# --- forward law ---------------------------------------------------------


def test_power_law_at_reference_radius():
    assert pressure_from_radius(LAW, 0.0, 1e-3) == 0.0


def test_power_law_direct_value():
    assert pressure_from_radius(LAW, 0.0, 2e-3) == pytest.approx(3e4, rel=1e-14)


def test_tabulated_at_sample_point():
    law = tab_law()
    # interpolation nodes are reproduced exactly
    assert pressure_from_radius(law, 0.0, 1e-3) == pytest.approx(0.0, abs=1e-10)
    assert pressure_from_radius(law, 0.0, 2e-3) == pytest.approx(3e4, rel=1e-12)


def test_pressure_monotone_in_radius():
    rng = np.random.default_rng(7)
    for law in (LAW, tab_law()):
        lo, hi = (0.55e-3, 1.9e-3)
        pairs = rng.uniform(lo, hi, size=(1000, 2))
        r1 = np.minimum(pairs[:, 0], pairs[:, 1])
        r2 = np.maximum(pairs[:, 0], pairs[:, 1]) + 1e-9
        p1 = np.array([pressure_from_radius(law, 0.0, r) for r in r1])
        p2 = np.array([pressure_from_radius(law, 0.0, r) for r in r2])
        assert np.all(p2 > p1)


# --- inverse law ---------------------------------------------------------


def test_inverse_examples():
    assert radius_from_pressure(LAW, 0.0, 0.0) == pytest.approx(1e-3, rel=1e-14)
    assert radius_from_pressure(LAW, 0.0, 3e4) == pytest.approx(2e-3, rel=1e-14)


def test_inverse_round_trip_property_power_law():
    rng = np.random.default_rng(11)
    P = rng.uniform(-9e3, 2e5, size=1000)
    R = np.array([radius_from_pressure(LAW, 0.0, p) for p in P])
    P_back = np.array([pressure_from_radius(LAW, 0.0, r) for r in R])
    rel = np.abs(P_back - P) / np.maximum(1.0, np.abs(P))
    assert np.max(rel) <= 1e-12


def test_inverse_round_trip_property_tabulated():
    # P-space residuals bottom out at the interpolant's evaluation noise
    # (eps * pressure span), so measure P against the span and check the
    # cancellation-free R-space round trip at full precision.
    rng = np.random.default_rng(12)
    law = tab_law()
    span = float(np.max(np.abs(law.pressures)))
    P = rng.uniform(-7.4e3, 2.9e4, size=1000)
    R = np.array([radius_from_pressure(law, 0.0, p) for p in P])
    P_back = np.array([pressure_from_radius(law, 0.0, r) for r in R])
    assert np.max(np.abs(P_back - P)) <= 1e-12 * span

    R0 = rng.uniform(0.55e-3, 1.95e-3, size=1000)
    P0 = np.array([pressure_from_radius(law, 0.0, r) for r in R0])
    R_back = np.array([radius_from_pressure(law, 0.0, p) for p in P0])
    assert np.max(np.abs(R_back - R0) / R0) <= 1e-12


def test_inverse_out_of_range():
    with pytest.raises(TubeLawError):
        radius_from_pressure(LAW, 0.0, -1.1e4)
    with pytest.raises(TubeLawError):
        radius_from_pressure(tab_law(), 0.0, 1e6)


# --- coefficient mapping -------------------------------------------------


def test_coefficients_at_rest():
    v = make_vessel()
    cs = coefficients(v, 0.5, 0.0, PrimitiveState(P=0.0, Q=0.0))
    A0 = np.pi * 1e-6
    assert cs.c == 0.0
    assert cs.g == 0.0
    assert cs.f == 0.0
    assert cs.A == pytest.approx(A0, rel=1e-14)
    assert cs.b == pytest.approx(A0 / 1050.0, rel=1e-14)


def test_coefficient_a_against_finite_differences():
    # independent oracle: centered differences of P as a function of area
    v = make_vessel()
    law = v.tube_law

    def pressure_of_area(A):
        return pressure_from_radius(law, 0.0, np.sqrt(A / np.pi))

    A0 = np.pi * 1e-6
    cs = coefficients(v, 0.0, 0.0, PrimitiveState(P=0.0, Q=0.0))
    h = A0 * 1e-5
    a_fd = (pressure_of_area(A0 + h) - pressure_of_area(A0 - h)) / (2 * h)
    a_analytic = LAW.C * LAW.beta / (2 * A0)  # hand-differentiated P(A)
    assert cs.a == pytest.approx(a_analytic, rel=1e-12)
    assert cs.a == pytest.approx(a_fd, rel=1e-8)


def test_coefficient_a_fd_property_random_states():
    rng = np.random.default_rng(3)
    v = make_vessel()
    law = v.tube_law
    for _ in range(50):
        P = rng.uniform(-5e3, 5e4)
        Q = rng.uniform(-1e-5, 1e-5)
        cs = coefficients(v, 0.0, 0.0, PrimitiveState(P=P, Q=Q))
        A = cs.A
        h = A * 1e-5

        def pressure_of_area(Ax):
            return pressure_from_radius(law, 0.0, np.sqrt(Ax / np.pi))

        a_fd = (pressure_of_area(A + h) - pressure_of_area(A - h)) / (2 * h)
        assert cs.a == pytest.approx(a_fd, rel=1e-6)


def test_viscous_part_of_g():
    # alpha=3, A=pi*1e-6, Q=1e-6, nu=3.3e-6; the x-independent law
    # contributes nothing else at fixed pressure
    v = make_vessel(alpha=3.0, nu=3.3e-6)
    A = np.pi * 1e-6
    cs = coefficients(v, 0.0, 0.0, PrimitiveState(P=0.0, Q=1e-6))
    expected = -(4 * np.pi * 3.3e-6 * 3.0 / 2.0) * (1e-6 / A)
    assert cs.g == pytest.approx(expected, rel=1e-12)


def test_area_floor_error():
    v = make_vessel()
    cs = coefficients(v, 0.0, 0.0, PrimitiveState(P=0.0, Q=0.0))
    with pytest.raises(CollapsedVesselError, match="vessel 'v'"):
        raise coefficient_failure(0.0, cs.A, cs.a, 1e-2, lambda k: v.id)


def test_unchecked_mode_returns_nan():
    v = make_vessel()
    cs = coefficients(
        v, np.array([0.0, 1.0]), 0.0, PrimitiveState(P=np.array([-2e4, 0.0]), Q=np.zeros(2))
    )
    assert np.isnan(cs.a[0]) and np.isfinite(cs.a[1])

    # two stations: the table spans up to 3e4 Pa at x=0 and 6e4 Pa at x=1
    radii = np.linspace(0.5e-3, 2e-3, 7)
    row = 1e4 * ((radii / 1e-3) ** 2 - 1.0)
    v = make_vessel(law=TabulatedLaw(radii=radii, pressures=[row, 2.0 * row], x_stations=(0.0, 1.0)))
    x = np.linspace(0.0, 1.0, 5)
    # above the table at x=0.25; above it everywhere; inside at x=0.5 but
    # above the x=0 station that dA/dx differences against
    P = np.array([0.0, 5e4, 1e4, 7e4, 4e4])
    cs = coefficients(v, x, 0.0, PrimitiveState(P=P, Q=np.full(5, 1e-7)))
    bad = np.array([False, True, False, True, True])
    for name in ("a", "b", "c", "g", "A"):
        values = getattr(cs, name)
        assert np.all(np.isnan(values[bad])) and np.all(np.isfinite(values[~bad])), name
    with pytest.raises(TubeLawError, match="vessel 'v'"):
        raise coefficient_failure(P, cs.A, cs.a, 1e-10, lambda k: v.id)


# --- eigenstructure ------------------------------------------------------


def test_eigen_simple():
    e = eigen(CoefficientSet(a=1.0, b=1.0, c=0.0, f=0.0, g=0.0, A=1.0))
    assert (e.u, e.lambda_R, e.lambda_L) == (1.0, 1.0, -1.0)


def test_eigen_asymmetric():
    e = eigen(CoefficientSet(a=2.0, b=0.5, c=1.5, f=0.0, g=0.0, A=1.0))
    u = np.sqrt(3.25)
    assert e.u == pytest.approx(u, rel=1e-15)
    assert e.lambda_R == pytest.approx(1.5 + u, rel=1e-15)
    assert e.lambda_L == pytest.approx(1.5 - u, rel=1e-15)


def test_eigen_violation():
    with pytest.raises(HyperbolicityViolation):
        eigen(CoefficientSet(a=1.0, b=-1.0, c=0.0, f=0.0, g=0.0, A=1.0))


@pytest.mark.parametrize("c", [1e200, np.inf, np.nan], ids=["overflow", "inf", "nan"])
def test_eigen_rejects_non_finite_speeds(c):
    # c^2 overflows to inf for c = 1e200, which would give infinite or NaN speeds
    cs = CoefficientSet(a=np.ones(3), b=np.ones(3), c=np.array([0.0, c, 0.0]), f=0.0, g=0.0, A=1.0)
    with pytest.raises(HyperbolicityViolation, match="must be positive and finite"):
        eigen(cs)


def test_eigen_ordering_random():
    rng = np.random.default_rng(5)
    for _ in range(500):
        a = rng.uniform(0.1, 10)
        b = rng.uniform(-5, 10)
        c = rng.uniform(-5, 5)
        if c * c + a * b <= 1e-12:
            continue
        e = eigen(CoefficientSet(a=a, b=b, c=c, f=0.0, g=0.0, A=1.0))
        assert e.lambda_L < e.lambda_R
        if a * b > 0:
            assert e.lambda_R > 0 and e.lambda_L < 0


# --- characteristic transforms -------------------------------------------


def test_to_riemann_example():
    cs = CoefficientSet(a=1.0, b=1.0, c=0.0, f=0.0, g=0.0, A=1.0)
    e = eigen(cs)
    rp = to_riemann(cs, e, PrimitiveState(P=2.0, Q=3.0))
    assert (rp[0], rp[1]) == (5.0, 1.0)


def test_to_riemann_zero():
    cs = CoefficientSet(a=1.0, b=1.0, c=0.0, f=0.0, g=0.0, A=1.0)
    e = eigen(cs)
    rp = to_riemann(cs, e, PrimitiveState(P=0.0, Q=0.0))
    assert (rp[0], rp[1]) == (0.0, 0.0)


def test_to_riemann_asymmetric_frozen():
    cs = CoefficientSet(a=2.0, b=0.5, c=1.5, f=0.0, g=0.0, A=1.0)
    e = eigen(cs)
    rp = to_riemann(cs, e, PrimitiveState(P=1.0, Q=1.0))
    # frozen from an independent arithmetic pass: u = sqrt(3.25)
    assert rp[0] == pytest.approx(2.3027756377319946, rel=1e-15)
    assert rp[1] == pytest.approx(-1.3027756377319946, rel=1e-15)


def test_from_riemann_example():
    cs = CoefficientSet(a=1.0, b=1.0, c=0.0, f=0.0, g=0.0, A=1.0)
    e = eigen(cs)
    st = from_riemann(cs, e, to_riemann(cs, e, PrimitiveState(P=2.0, Q=3.0)))
    assert st.P == pytest.approx(2.0, rel=1e-15)
    assert st.Q == pytest.approx(3.0, rel=1e-15)


def test_round_trip_property():
    rng = np.random.default_rng(13)
    count = 0
    while count < 1000:
        a = rng.uniform(0.1, 10)
        b = rng.uniform(-5, 10)
        c = rng.uniform(-5, 5)
        if c * c + a * b <= 1e-6:
            continue
        count += 1
        cs = CoefficientSet(a=a, b=b, c=c, f=0.0, g=0.0, A=1.0)
        e = eigen(cs)
        P, Q = rng.uniform(-10, 10, size=2)
        st = from_riemann(cs, e, to_riemann(cs, e, PrimitiveState(P=P, Q=Q)))
        assert abs(st.P - P) <= 1e-12 * max(1.0, abs(P))
        assert abs(st.Q - Q) <= 1e-12 * max(1.0, abs(Q))


# --- tabulated laws on arrays ------------------------------------------------


def two_station_law():
    radii = np.array([1e-3, 2e-3, 3e-3])
    return TabulatedLaw(
        radii=radii,
        pressures=[[0.0, 5000.0, 9000.0], [0.0, 7000.0, 12000.0]],
        x_stations=[0.0, 1.0],
    )


def test_tabulated_station_weights_per_point():
    law = two_station_law()
    out = pressure_from_radius(law, np.array([0.0, 1.0, 0.5]), np.full(3, 2e-3))
    np.testing.assert_allclose(out, [5000.0, 7000.0, 6000.0], rtol=1e-14)
    # and agrees with scalar evaluation point by point
    for x, p in zip((0.0, 1.0, 0.5), out):
        assert pressure_from_radius(law, x, 2e-3) == p

    # a scalar call takes the array path: its 0-d result equals the
    # matching element of the array call bit for bit, for every kind of
    # vessel and for the inverse law
    def same_bits(scalar, element):
        return np.ndim(scalar) == 0 and np.asarray(scalar, dtype=float).tobytes() == element.tobytes()

    def synthetic(**given):
        return Vessel(id="s", n_cells=10, x0_node="a", x1_node="b",
                      synthetic=SyntheticCoefficients(**given))

    vessels = {
        "power": make_vessel(),
        "tabulated, one station": make_vessel(law=tab_law()),
        "tabulated, two stations": make_vessel(law=law),
        "synthetic, constant": synthetic(a=2.0, b=1.5, c=0.2, f=0.1, g=0.5, area=2e-6),
        "synthetic, callable": synthetic(
            a=lambda x, t: 2.0 + x, b=lambda x, t: 1.0 + x + t, c=lambda x, t: 0.2 * x,
            f=lambda x, t: x * t, g=lambda x, t: np.sin(x + t)),
    }
    x = np.array([0.0, 0.3, 0.5, 1.0])
    P = np.array([1000.0, 3000.0, 5000.0, 7000.0])
    Q = np.array([1e-7, -2e-7, 3e-7, 0.0])
    for kind, v in vessels.items():
        cs = coefficients(v, x, 0.25, PrimitiveState(P, Q))
        R = None if v.synthetic else radius_from_pressure(v.tube_law, x, P)
        for k, (xk, Pk, Qk) in enumerate(zip(x.tolist(), P.tolist(), Q.tolist())):
            one = coefficients(v, xk, 0.25, PrimitiveState(Pk, Qk))
            for name in ("a", "b", "c", "f", "g", "A"):
                assert same_bits(getattr(one, name), getattr(cs, name)[k]), (kind, name, k)
            if R is not None:
                assert same_bits(radius_from_pressure(v.tube_law, xk, Pk), R[k]), (kind, k)


def test_tabulated_inverse_and_area_gradient_on_arrays():
    law = two_station_law()
    x = np.array([0.0, 0.25, 1.0])
    P = np.array([5000.0, 5500.0, 7000.0])
    R = radius_from_pressure(law, x, P)
    np.testing.assert_allclose(R, 2e-3, rtol=1e-12)
    np.testing.assert_allclose(pressure_from_radius(law, x, R), P, rtol=1e-12)
    from vesselflow.constitutive import _radius_and_dA_dx

    # at fixed P the stiffer x=1 station holds a smaller area
    _, dAdx = _radius_and_dA_dx(law, x, np.full(3, 5000.0))
    R1 = radius_from_pressure(law, 1.0, 5000.0)
    expected = np.pi * (R1**2 - 2e-3**2)
    np.testing.assert_allclose(dAdx, expected, rtol=1e-10)
    assert np.all(dAdx < 0)


def test_tabulated_coefficients_on_a_grid():
    v = make_vessel(law=two_station_law())
    x = np.linspace(0.0, 1.0, 11)
    cs = coefficients(v, x, 0.0, PrimitiveState(P=np.full(11, 5000.0), Q=np.full(11, 1e-6)))
    assert np.all(np.isfinite(cs.a)) and np.all(cs.a > 0)
    assert np.all(np.diff(cs.A) < 0)  # stiffer along x at fixed P


class PerStationReference:
    """The per-station tabulated algorithm, kept as the reference: one
    PCHIP interpolant per station row, evaluated and blended on every
    call, and separate inversions at x_lo, x_hi and x for dA/dx."""

    def __init__(self, law):
        from scipy.interpolate import PchipInterpolator

        self.law = law
        self.interp = [PchipInterpolator(law.radii, row) for row in law.pressures]
        self.dinterp = [ip.derivative() for ip in self.interp]

    def blend(self, x, R, curves):
        x, R = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(R, dtype=float))
        vals = np.stack([curve(R) for curve in curves])
        if len(curves) == 1:
            return vals[0]
        xs = self.law.x_stations
        i = np.clip(np.searchsorted(xs, x) - 1, 0, xs.size - 2)
        w = np.clip((x - xs[i]) / (xs[i + 1] - xs[i]), 0.0, 1.0)
        lo = np.take_along_axis(vals, i[None], axis=0)[0]
        hi = np.take_along_axis(vals, i[None] + 1, axis=0)[0]
        return (1.0 - w) * lo + w * hi

    def invert(self, x, P):
        x, P = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(P, dtype=float))
        radii = self.law.radii
        lo, hi = np.full(P.shape, radii[0]), np.full(P.shape, radii[-1])
        p_lo, p_hi = self.blend(x, lo, self.interp), self.blend(x, hi, self.interp)
        tol = 1e-14 * np.maximum(1.0, np.abs(P))
        R = np.where((P >= p_lo) & (P <= p_hi), 0.5 * (lo + hi), np.nan)
        for _ in range(100):
            res = self.blend(x, R, self.interp) - P
            active = (np.abs(res) > tol) & (hi - lo > 4.0 * np.spacing(hi))
            if not np.any(active):
                return R
            hi = np.where(active & (res > 0), R, hi)
            lo = np.where(active & (res <= 0), R, lo)
            slope = self.blend(x, R, self.dinterp)
            with np.errstate(divide="ignore", invalid="ignore"):
                R_new = R - np.where(slope > 0, res / slope, np.inf)
            R_new = np.where((lo < R_new) & (R_new < hi), R_new, 0.5 * (lo + hi))
            R = np.where(active, R_new, R)
        raise AssertionError("reference inversion did not converge")

    def dA_dx(self, x, P):
        xs = self.law.x_stations
        if xs.size == 1:
            return np.zeros_like(np.asarray(P, dtype=float))
        x, P = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(P, dtype=float))
        i = np.clip(np.searchsorted(xs, x) - 1, 0, xs.size - 2)
        centered = np.isclose(x, xs[i]) & (i > 0)
        x_lo = np.where(centered, xs[np.maximum(i - 1, 0)], xs[i])
        x_hi = xs[i + 1]
        return np.pi * (self.invert(x_hi, P) ** 2 - self.invert(x_lo, P) ** 2) / (x_hi - x_lo)

    def coefficients(self, vessel, x, P, Q):
        dAdx = self.dA_dx(x, P)
        R = np.where(np.isnan(dAdx), np.nan, self.invert(x, P))
        A = np.pi * R**2
        with np.errstate(invalid="ignore", divide="ignore"):
            a = self.blend(x, R, self.dinterp) / (2.0 * np.pi * R)
            alpha = vessel.alpha
            b = A / vessel.rho_blood - alpha * Q**2 / (A**2 * a)
            c = alpha * Q / A
            g = alpha * Q**2 / A**2 * dAdx - (4.0 * np.pi * vessel.nu * alpha / (alpha - 1.0)) * Q / A
        return R, dAdx, {"a": a, "b": b, "c": c, "f": np.zeros_like(a), "g": g, "A": A}


@pytest.mark.parametrize("stations", [(0.0,), (0.0, 1.0), (0.0, 0.5, 1.0)])
def test_tabulated_law_matches_per_station_reference(stations):
    from vesselflow.constitutive import _radius_and_dA_dx

    def same_bits(got, want):
        got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
        return got.shape == want.shape and got.tobytes() == want.tobytes()

    # 24 radii sampled from a power law, each station stiffer by 5%
    radii = np.linspace(0.6e-3, 1.6e-3, 24)
    row = LAW.C * np.expm1(LAW.beta * np.log(radii / LAW.R0))
    law = TabulatedLaw(radii=radii, pressures=[row * (1.0 + 0.05 * k) for k in range(len(stations))],
                       x_stations=stations)
    ref = PerStationReference(law)
    v = make_vessel(law=law)

    # between stations, on every station (centered on an interior one),
    # and at the ends
    x = np.concatenate((np.linspace(0.0, 1.0, 21), [0.13, 0.5, 0.77]))
    R = np.linspace(0.65e-3, 1.55e-3, x.size)
    assert same_bits(pressure_from_radius(law, x, R), ref.blend(x, R, ref.interp))
    assert same_bits(pressure_from_radius(law, 0.5, 1e-3), ref.blend(0.5, 1e-3, ref.interp))
    P = np.linspace(-4e3, 9e3, x.size)
    assert same_bits(radius_from_pressure(law, x, P), ref.invert(x, P))

    # P above the table at x (the last point), and with two or more
    # stations above it only at the x_lo station of the difference (the
    # second to last): at x = 0.75 the x_lo station's top pressure is the
    # lowest of the three
    m, top = len(stations), row[-1]
    x = np.concatenate((x, [0.75, 0.75]))
    P = np.concatenate((P, [top * (1.01 + 0.05 * max(m - 2, 0)), top * (1.0 + 0.05 * m)]))
    Q = np.linspace(-2e-6, 3e-6, x.size)
    R_ref, dAdx_ref, fields = ref.coefficients(v, x, P, Q)
    got_R, got_dAdx = _radius_and_dA_dx(law, x, P)
    assert same_bits(got_R, R_ref) and same_bits(got_dAdx, dAdx_ref)
    assert np.isnan(got_R[-2:]).all() and np.isfinite(got_R[:-2]).all()
    if m > 1:
        assert np.isfinite(radius_from_pressure(law, 0.75, P[-2]))
    cs = coefficients(v, x, 0.0, PrimitiveState(P, Q))
    for name, want in fields.items():
        assert same_bits(getattr(cs, name), want), name
    # scalar points take the same path
    for k in (0, 10, x.size - 2):
        one = coefficients(v, x[k], 0.0, PrimitiveState(P[k], Q[k]))
        assert all(same_bits(getattr(one, name), fields[name][k]) for name in fields), k
