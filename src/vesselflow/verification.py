"""Independent oracles and experiment drivers for validating the solver.

The oracles are implemented without the solver's numerical kernels
(no shared tracing, interpolation, or assembly code), so agreement
between an oracle and the solver is evidence rather than tautology:

- exact traveling-wave solutions of the constant-coefficient system,
- the matrix-exponential solution of the two-capacitor lumped circuit,
- the node-by-node assembly of the junction systems from per-end
  closure inputs (`assemble_branching`, `assemble_transitional`), the
  reference for the solver's junction stack (`junctions.junction_layout`,
  whose column k is junction node k in node id order, and
  `JunctionLayout.step` and `fill`). It shares only the stacked solve
  `junctions.solve_systems` with the solver (`solve_node` hands it one
  node's system, padded to the stack's size as the layout pads it), so
  both assemblies can be compared bit for bit; a failing one-node stack
  names its node, the layout's stack the first failing node in node id
  order,
- the empirical continuity-of-dependence experiment (how much the final
  state moves per unit of initial/boundary/forcing perturbation).

The transitional step-response harness is the exception, on purpose:
it closes the node through the solver's own junction layout (its `step`
and `fill`) and `solve_systems`, so its agreement with the
lumped-circuit oracle tests the closure the solver runs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import expm

from .constitutive import CoefficientSet, EigenData
from .errors import SimulationError
from .junctions import TransitionalState, junction_layout, solve_systems
from .network import Branching, Network, Transitional
from .solver import InitSpec, NetworkState, SimConfig, _sample, initial_state, run


# --- constant-coefficient traveling waves --------------------------------


def oracle_linear_translation(
    a: float,
    b: float,
    c: float,
    r0: Callable[[np.ndarray], np.ndarray],
    s0: Callable[[np.ndarray], np.ndarray],
    t: float,
    x: np.ndarray,
    r0_support: tuple[float, float] | None = None,
    s0_support: tuple[float, float] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact characteristic fields of the constant-coefficient system
    with zero forcing: each family translates its initial profile at its
    own speed, r(x, t) = r0(x - lambda_R t), s(x, t) = s0(x - lambda_L t).

    If profile supports are given, the horizon is validated so that the
    supports never touch the domain ends (where boundary data would be
    required to continue the exact solution).
    """
    disc = c * c + a * b
    if disc <= 0:
        raise SimulationError("need c^2 + a*b > 0 for real characteristic speeds")
    u = np.sqrt(disc)
    lam_R, lam_L = c + u, c - u
    for support, lam, name in ((r0_support, lam_R, "r0"), (s0_support, lam_L, "s0")):
        if support is None:
            continue
        lo, hi = support
        lo_t, hi_t = lo + min(0.0, lam * t), hi + max(0.0, lam * t)
        if lo_t <= 0.0 or hi_t >= 1.0:
            raise SimulationError(
                f"horizon too long: {name} support [{lo}, {hi}] reaches the "
                f"domain end by t={t} at speed {lam:.4g}"
            )
    x = np.asarray(x, dtype=float)
    return np.asarray(r0(x - lam_R * t), float), np.asarray(s0(x - lam_L * t), float)


# --- lumped two-capacitor circuit ----------------------------------------


@dataclass(frozen=True)
class RCParams:
    """Transitional-node circuit driven by a fixed inflow with the vein
    leg terminated at a fixed venous pressure. R_vein=None removes the
    vein leg entirely (pure relaxation between the capacitors)."""

    C1: float
    C2: float
    R_C: float
    R_vein: float | None = None
    P_vein: float = 0.0


def rc_system(params: RCParams, q_in: float) -> tuple[np.ndarray, np.ndarray]:
    """Matrix and constant vector of d/dt (P_C1, P_C2) = M z + k."""
    g_c = 1.0 / params.R_C
    g_v = 0.0 if params.R_vein is None else 1.0 / params.R_vein
    M = np.array(
        [
            [-g_c / params.C1, g_c / params.C1],
            [g_c / params.C2, -(g_c + g_v) / params.C2],
        ]
    )
    k = np.array([q_in / params.C1, g_v * params.P_vein / params.C2])
    return M, k


def oracle_rc_transitional(
    params: RCParams, q_in: float, z0: tuple[float, float], t: float
) -> tuple[float, float]:
    """Closed-form capacitor pressures at time t for a step inflow:
    z(t) = e^{Mt} z0 + integral of e^{M(t-s)} k ds, evaluated exactly
    with the matrix exponential of the augmented system."""
    M, k = rc_system(params, q_in)
    # augment so the affine term rides along: d/dt (z, 1) = [[M, k], [0, 0]]
    aug = np.zeros((3, 3))
    aug[:2, :2] = M
    aug[:2, 2] = k
    z = expm(aug * t) @ np.array([z0[0], z0[1], 1.0])
    return float(z[0]), float(z[1])


# --- reference junction assembly -----------------------------------------


@dataclass(frozen=True)
class EndpointClosureInput:
    """Frozen data for one vessel end entering a node closure."""

    vessel_id: str
    end: str  # "x0" | "x1"
    coeffs: CoefficientSet  # endpoint scalars, frozen at the iterate
    eig: EigenData
    # resolved r (x=1 ends) or s (x=0 ends): char_value + kP * P + kQ * Q
    # at the endpoint state (P, Q) being solved for
    char_value: float
    q_prev: float = 0.0  # endpoint Q at the previous time level
    rho_j: float | None = None  # branching inertance
    resistance: float | None = None  # transitional leg resistance
    kP: float = 0.0
    kQ: float = 0.0

    @property
    def incoming(self) -> bool:
        return self.end == "x1"


def _char_row(inp: EndpointClosureInput) -> tuple[float, float, float]:
    """Coefficients (on P, on Q) and rhs of the resolved characteristic
    relation at a vessel end, with the resolved value's coupling to the
    endpoint state moved to the left-hand side:
    (cp - kP) P + (cq - kQ) Q = char_value."""
    if inp.incoming:  # r = -lambda_L P + a Q known at x=1
        return -inp.eig.lambda_L - inp.kP, inp.coeffs.a - inp.kQ, inp.char_value
    return -inp.eig.lambda_R - inp.kP, inp.coeffs.a - inp.kQ, inp.char_value  # s at x=0


def assemble_branching(
    node: Branching, inputs: list[EndpointClosureInput], dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """Matrix and right-hand side of a branching node: 2*mu+1 unknowns
    (P_i, Q_i per end, then P_junc)."""
    mu = len(inputs)
    n = 2 * mu + 1
    M = np.zeros((n, n))
    b = np.zeros(n)
    ip_junc = n - 1

    for i, inp in enumerate(inputs):
        iP, iQ = 2 * i, 2 * i + 1
        cp, cq, rhs = _char_row(inp)
        M[2 * i, iP] = cp
        M[2 * i, iQ] = cq
        b[2 * i] = rhs
        # backward-Euler momentum ODE; sign of the pressure drop flips
        # with orientation
        sgn = 1.0 if inp.incoming else -1.0
        A = inp.coeffs.A
        M[2 * i + 1, iQ] = inp.rho_j / dt
        M[2 * i + 1, iP] = -sgn * A
        M[2 * i + 1, ip_junc] = sgn * A
        b[2 * i + 1] = inp.rho_j / dt * inp.q_prev
    for i, inp in enumerate(inputs):
        M[n - 1, 2 * i + 1] = 1.0 if inp.incoming else -1.0
    return M, b


def solve_node(M: np.ndarray, b: np.ndarray, node_id: str, size: int | None = None) -> np.ndarray:
    """Solution of one node's system M (n, n), b (n,) of `assemble_*`,
    through the solver's stacked solve as a one-node stack (which the
    node-minor layout stores like M itself). Given a size > n, the
    system is padded to size unknowns as a junction layout pads it:
    identity rows and columns at its tail and a zero right-hand side."""
    n = M.shape[0]
    padded, rhs = np.eye(size or n), np.zeros(size or n)
    padded[:n, :n], rhs[:n] = M, b
    return solve_systems(padded[..., None], rhs[:, None], (node_id,))[0][:n, 0]


def branching_derivative_matrix(inputs: list[EndpointClosureInput]) -> np.ndarray:
    """The mu x mu coefficient block multiplying (ds_i/dt at x=1 ends,
    dr_i/dt at x=0 ends) when the junction relations are reduced to an
    ODE system for the unresolved characteristic variables, with the
    node pressure eliminated against the first incoming end. Nonsingular
    exactly when the node closure is solvable; its determinant equals

        (-1/2)^mu  prod_in [rho lambda_L / (u a A)](1)
                   prod_out [rho lambda_R / (u a A)](0)  sum A/rho.

    Ends are reordered incoming-first internally.
    """
    ordered = [i for i in inputs if i.incoming] + [i for i in inputs if not i.incoming]
    if not ordered or not ordered[0].incoming:
        raise ValueError("branching node needs at least one incoming end")
    mu = len(ordered)
    M = np.zeros((mu, mu))

    def dcoef(inp):
        lam = inp.eig.lambda_L if inp.incoming else inp.eig.lambda_R
        sgn = -1.0 if inp.incoming else 1.0
        return sgn * inp.rho_j * lam / (2.0 * inp.eig.u * inp.coeffs.a * inp.coeffs.A)

    d0 = dcoef(ordered[0])
    for row, inp in enumerate(ordered[1:]):
        M[row, 0] = d0
        M[row, row + 1] = -dcoef(inp) if inp.incoming else dcoef(inp)
    for col, inp in enumerate(ordered):
        lam = inp.eig.lambda_L if inp.incoming else inp.eig.lambda_R
        M[mu - 1, col] = -lam / (2.0 * inp.eig.u * inp.coeffs.a)
    return M


def assemble_transitional(
    node: Transitional,
    inputs: list[EndpointClosureInput],
    state_prev: TransitionalState,
    dt: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Matrix and right-hand side of a transitional node: 2*mu+2
    unknowns (P_i, Q_i per end, then P_C1, P_C2)."""
    mu = len(inputs)
    n = 2 * mu + 2
    M = np.zeros((n, n))
    b = np.zeros(n)
    iC1, iC2 = n - 2, n - 1

    for i, inp in enumerate(inputs):
        iP, iQ = 2 * i, 2 * i + 1
        cp, cq, rhs = _char_row(inp)
        M[2 * i, iP] = cp
        M[2 * i, iQ] = cq
        b[2 * i] = rhs
        if inp.incoming:  # artery: R Q = P - P_C1
            M[2 * i + 1, iQ] = inp.resistance
            M[2 * i + 1, iP] = -1.0
            M[2 * i + 1, iC1] = 1.0
        else:  # vein: R Q = P_C2 - P
            M[2 * i + 1, iQ] = inp.resistance
            M[2 * i + 1, iP] = 1.0
            M[2 * i + 1, iC2] = -1.0
    g_c = 1.0 / node.R_C
    row1, row2 = n - 2, n - 1
    M[row1, iC1] = node.C1 / dt + g_c
    M[row1, iC2] = -g_c
    M[row2, iC1] = -g_c
    M[row2, iC2] = node.C2 / dt + g_c
    for i, inp in enumerate(inputs):
        if inp.incoming:
            M[row1, 2 * i + 1] = -1.0
        else:
            M[row2, 2 * i + 1] = 1.0
    b[row1] = node.C1 / dt * state_prev.P_C1
    b[row2] = node.C2 / dt * state_prev.P_C2
    return M, b


def transitional_reduced_diagonals(inputs: list[EndpointClosureInput]) -> np.ndarray:
    """Diagonal entries of the reduced unresolved-characteristic blocks
    of a transitional node:  -R lambda_L/(2ua) + 1/(2u) per artery and
    R lambda_R/(2ua) + 1/(2u) per vein. All strictly positive whenever
    R > 0, u > 0, and the endpoint condition lambda_L < 0 < lambda_R
    holds, which is what makes the closure uniquely solvable."""
    out = []
    for inp in inputs:
        u, a = inp.eig.u, inp.coeffs.a
        if inp.incoming:
            out.append(-inp.resistance * inp.eig.lambda_L / (2 * u * a) + 1.0 / (2 * u))
        else:
            out.append(inp.resistance * inp.eig.lambda_R / (2 * u * a) + 1.0 / (2 * u))
    return np.asarray(out)


def transitional_step_response(
    node: Transitional,
    q_step: float,
    p_vein: float,
    dt: float,
    n_steps: int,
    state0: TransitionalState,
) -> list[TransitionalState]:
    """Drive one transitional node with ideal endpoint sources: the
    artery delivers exactly q_step and the vein sees the fixed venous
    pressure. Each step closes the node through the solver's junction
    layout, a one-node stack, and `solve_systems`, so the trajectory is
    the backward-Euler integration of the lumped circuit as the
    production code performs it."""
    if len(node.arteries) != 1 or len(node.veins) != 1:
        raise ValueError("step-response harness expects one artery and one vein")
    resistances = (node.arteries[0].resistance, node.veins[0].resistance)
    layout = junction_layout([(node, (0, 1))], np.array([True, False]), resistances)
    # Degenerate characteristic rows cp P + cq Q = char at the artery
    # (end 0) and the vein (end 1) turn the relations into Q = q_step and
    # P = p_vein.
    cp, cq, char, A = np.array([[0.0, 1.0], [1.0, 0.0], [q_step, p_vein], [1.0, 1.0]])
    out = []
    state = state0
    for _ in range(n_steps):
        M, b = layout.step(dt, np.zeros(2), np.array([state.P_C1]), np.array([state.P_C2]))
        layout.fill(M, b, cp, cq, char, A)
        x = solve_systems(M, b, layout.nodes)[0][:, 0]
        state = TransitionalState(float(x[-2]), float(x[-1]))
        out.append(state)
    return out


# --- continuity of dependence --------------------------------------------


@dataclass
class Scenario:
    """A runnable configuration bundle for experiments."""

    net: Network
    cfg: SimConfig
    init: InitSpec


@dataclass(frozen=True)
class DependenceRow:
    epsilon: float
    sup_deviation: float
    ratio: float  # sup_deviation / epsilon
    grad_sup_deviation: float
    grad_ratio: float


def run_scenario(s: Scenario) -> NetworkState:
    state0, diags = initial_state(s.net, s.init, s.cfg)
    report = run(s.net, state0, s.cfg)
    return report.final_state


def _sup_deviation(base: NetworkState, other: NetworkState, gradient: bool) -> float:
    """Relative sup-norm distance between two final states, per vessel
    and field; with gradient=True, between their centered-difference
    x-derivatives."""
    dev = 0.0
    others = other.fields
    for vid, fb in base.fields.items():
        fo = others[vid]
        for arr_b, arr_o in ((fb.P, fo.P), (fb.Q, fo.Q)):
            if gradient:
                arr_b, arr_o = (np.gradient(arr, 1.0 / fb.n_cells) for arr in (arr_b, arr_o))
            scale = max(float(np.max(np.abs(arr_b))), 1e-300)
            dev = max(dev, float(np.max(np.abs(arr_b - arr_o))) / scale)
    return dev


def dependence_experiment(
    base: Scenario,
    perturb: Callable[[Scenario, float], Scenario],
    epsilons: Sequence[float],
) -> list[DependenceRow]:
    """Measure how the final state responds to input perturbations.

    Runs the base scenario once and the perturbed scenario per epsilon,
    then tabulates the relative sup deviation of the final fields and of
    their x-derivatives, each divided by epsilon. A stable ratio across
    decades of epsilon evidences a bounded sensitivity constant.
    """
    base_final = run_scenario(base)
    rows = []
    for eps in epsilons:
        pert_final = run_scenario(perturb(base, eps))
        dev = _sup_deviation(base_final, pert_final, gradient=False)
        gdev = _sup_deviation(base_final, pert_final, gradient=True)
        rows.append(
            DependenceRow(
                epsilon=eps,
                sup_deviation=dev,
                ratio=dev / eps if eps else 0.0,
                grad_sup_deviation=gdev,
                grad_ratio=gdev / eps if eps else 0.0,
            )
        )
    return rows


def perturb_initial_pressure_sine(scenario: Scenario, eps: float, cycles: float = 1.0) -> Scenario:
    """Scale-relative initial-pressure perturbation
    P_I(x) -> P_I(x) + eps * scale * sin(2 pi cycles x) on every vessel,
    where scale is the sup of |P_I| over the network (or 1 if zero)."""
    base_init = scenario.init
    scale = 1.0
    for vid, v in scenario.net.vessels.items():
        P = _sample(base_init.for_vessel(vid).P, v.grid, f"{vid}.P")
        scale = max(scale, float(np.max(np.abs(P))))

    def perturbed(spec_P, what):
        def f(x):
            return _sample(spec_P, x, what) + eps * scale * np.sin(2.0 * np.pi * cycles * x)

        return f

    per_vessel = {}
    for vid in scenario.net.vessels:
        spec = base_init.for_vessel(vid)
        per_vessel[vid] = replace(spec, P=perturbed(spec.P, f"{vid}.P"))
    return replace(scenario, init=InitSpec(default=None, per_vessel=per_vessel))
