"""Tube-law, coefficient-mapping, and characteristic-transform tests."""

import numpy as np
import pytest

from vesselflow import (
    CoefficientSet,
    CollapsedVesselError,
    HyperbolicityViolation,
    PowerLaw,
    PrimitiveState,
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
    with pytest.raises(CollapsedVesselError):
        coefficients(v, 0.0, 0.0, PrimitiveState(P=0.0, Q=0.0), epsilon0=1e-2)


def test_unchecked_mode_returns_nan():
    v = make_vessel()
    cs = coefficients(
        v, np.array([0.0, 1.0]), 0.0,
        PrimitiveState(P=np.array([-2e4, 0.0]), Q=np.zeros(2)),
        checked=False,
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
    cs = coefficients(v, x, 0.0, PrimitiveState(P=P, Q=np.full(5, 1e-7)), checked=False)
    bad = np.array([False, True, False, True, True])
    for name in ("a", "b", "c", "g", "A"):
        values = getattr(cs, name)
        assert np.all(np.isnan(values[bad])) and np.all(np.isfinite(values[~bad])), name
    with pytest.raises(TubeLawError, match="vessel 'v'"):
        coefficients(v, x, 0.0, PrimitiveState(P=P, Q=np.full(5, 1e-7)))


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
    assert (rp.r, rp.s) == (5.0, 1.0)


def test_to_riemann_zero():
    cs = CoefficientSet(a=1.0, b=1.0, c=0.0, f=0.0, g=0.0, A=1.0)
    e = eigen(cs)
    rp = to_riemann(cs, e, PrimitiveState(P=0.0, Q=0.0))
    assert (rp.r, rp.s) == (0.0, 0.0)


def test_to_riemann_asymmetric_frozen():
    cs = CoefficientSet(a=2.0, b=0.5, c=1.5, f=0.0, g=0.0, A=1.0)
    e = eigen(cs)
    rp = to_riemann(cs, e, PrimitiveState(P=1.0, Q=1.0))
    # frozen from an independent arithmetic pass: u = sqrt(3.25)
    assert rp.r == pytest.approx(2.3027756377319946, rel=1e-15)
    assert rp.s == pytest.approx(-1.3027756377319946, rel=1e-15)


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


def test_tabulated_inverse_and_area_gradient_on_arrays():
    law = two_station_law()
    x = np.array([0.0, 0.25, 1.0])
    P = np.array([5000.0, 5500.0, 7000.0])
    R = radius_from_pressure(law, x, P)
    np.testing.assert_allclose(R, 2e-3, rtol=1e-12)
    np.testing.assert_allclose(pressure_from_radius(law, x, R), P, rtol=1e-12)
    from vesselflow.constitutive import _dA_dx_fixed_P

    # at fixed P the stiffer x=1 station holds a smaller area
    dAdx = _dA_dx_fixed_P(law, x, np.full(3, 5000.0))
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
