"""Independent oracles and experiment drivers for validating the solver.

Everything here is implemented without the solver's numerical kernels
(no shared tracing, interpolation, or assembly code), so agreement
between an oracle and the solver is evidence rather than tautology:

- exact traveling-wave solutions of the constant-coefficient system,
- the matrix-exponential solution of the two-capacitor lumped circuit,
- a decoupled step-response harness for the transitional closure,
- the empirical continuity-of-dependence experiment (how much the final
  state moves per unit of initial/boundary/forcing perturbation).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import expm

from .constitutive import CoefficientSet, EigenData
from .errors import SimulationError
from .junctions import (
    EndpointClosureInput,
    TransitionalState,
    assemble_transitional,
    solve_junction,
)
from .network import Network, Transitional
from .solver import InitSpec, NetworkState, SimConfig, initial_state, run


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
    pressure. Each step assembles and solves the node closure, so the
    trajectory is the backward-Euler integration of the lumped circuit
    as the production code performs it."""
    if len(node.arteries) != 1 or len(node.veins) != 1:
        raise ValueError("step-response harness expects one artery and one vein")
    # Degenerate characteristic rows turn the relations into Q = q_step
    # (artery) and P = p_vein (vein).
    art = EndpointClosureInput(
        vessel_id=node.arteries[0].vessel, end="x1",
        coeffs=CoefficientSet(a=1.0, b=1.0, c=0.0, f=0.0, g=0.0, A=1.0),
        eig=EigenData(lambda_R=1.0, lambda_L=0.0, u=1.0),
        char_value=q_step,
        resistance=node.arteries[0].resistance,
    )
    vein = EndpointClosureInput(
        vessel_id=node.veins[0].vessel, end="x0",
        coeffs=CoefficientSet(a=0.0, b=1.0, c=0.0, f=0.0, g=0.0, A=1.0),
        eig=EigenData(lambda_R=-1.0, lambda_L=-2.0, u=0.5),
        char_value=p_vein,
        resistance=node.veins[0].resistance,
    )
    out = []
    state = state0
    for _ in range(n_steps):
        sysm = assemble_transitional(node, [art, vein], state, dt)
        sol = solve_junction(sysm)
        state = TransitionalState(sol.internals["P_C1"], sol.internals["P_C2"])
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
        spec = base_init.for_vessel(vid)
        x = v.grid
        P = spec.P(x) if callable(spec.P) else np.broadcast_to(np.asarray(spec.P, float), x.shape)
        scale = max(scale, float(np.max(np.abs(P))))

    def perturbed(spec_P):
        def f(x, _spec=spec_P):
            P = _spec(x) if callable(_spec) else np.broadcast_to(np.asarray(_spec, float), x.shape)
            return P + eps * scale * np.sin(2.0 * np.pi * cycles * x)

        return f

    per_vessel = {}
    for vid in scenario.net.vessels:
        spec = base_init.for_vessel(vid)
        per_vessel[vid] = replace(spec, P=perturbed(spec.P))
    return replace(scenario, init=InitSpec(default=None, per_vessel=per_vessel))
