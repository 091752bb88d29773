"""Node closures: external ends, branching junctions, transitional junctions.

Every node closure completes one time level. At each attached vessel
end exactly one characteristic variable is already resolved from the
vessel interior (r at x=1 ends, s at x=0 ends); the closure solves a
small dense linear system for the endpoint (P, Q) values plus the
node-internal unknowns:

- branching: per-end characteristic relation, per-end backward-Euler
  momentum ODE  rho_j dQ/dt = +-A (P - P_junc) + C_off, and exact flow
  balance  sum_in Q = sum_out Q;  unknowns (P, Q) per end plus P_junc.
- transitional: per-end characteristic relation, per-end resistive
  relation R_j Q = +-(P - P_C), and backward-Euler capacitor ODEs
  C1 dP_C1/dt = sum_arteries Q - Q_C,  C2 dP_C2/dt = Q_C - sum_veins Q
  with Q_C = (P_C1 - P_C2)/R_C;  unknowns (P, Q) per end plus P_C1, P_C2.

External ends reduce to a single linear equation and are solved in
closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constitutive import CoefficientSet, EigenData, PrimitiveState
from .errors import SingularJunction
from .network import Branching, Transitional

_RESIDUAL_TOL = 1e-10


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
    c_off: float = 0.0  # linearization offset in the momentum ODE
    rho_j: float | None = None  # branching inertance
    resistance: float | None = None  # transitional leg resistance
    kP: float = 0.0
    kQ: float = 0.0

    @property
    def incoming(self) -> bool:
        return self.end == "x1"


@dataclass
class JunctionSystem:
    """One node's assembled linear system at one time level."""

    node_id: str
    matrix: np.ndarray
    rhs: np.ndarray
    layout: tuple[tuple[str, str, str], ...]  # (role, vessel id or node id, end)


@dataclass
class TransitionalState:
    """Capacitor pressures carried per transitional node per time level."""

    P_C1: float
    P_C2: float


@dataclass
class JunctionSolution:
    states: dict[tuple[str, str], PrimitiveState]  # (vessel id, end) -> state
    internals: dict[str, float] = field(default_factory=dict)


def _char_row(inp: EndpointClosureInput) -> tuple[float, float, float]:
    """Coefficients (on P, on Q) and rhs of the resolved characteristic
    relation at a vessel end, with the resolved value's coupling to the
    endpoint state moved to the left-hand side:
    (cp - kP) P + (cq - kQ) Q = char_value."""
    if inp.incoming:  # r = -lambda_L P + a Q known at x=1
        return -inp.eig.lambda_L - inp.kP, inp.coeffs.a - inp.kQ, inp.char_value
    return -inp.eig.lambda_R - inp.kP, inp.coeffs.a - inp.kQ, inp.char_value  # s at x=0


# --- external ends ------------------------------------------------------


def close_external_pressure(inp: EndpointClosureInput, P_B: float) -> PrimitiveState:
    """Endpoint state when the pressure is prescribed: P = P_B and Q
    follows from the resolved characteristic relation."""
    a = inp.coeffs.a
    if a <= 0:
        raise SingularJunction(
            f"vessel {inp.vessel_id!r}: coefficient a must be positive at the boundary"
        )
    cp, cq, rhs = _char_row(inp)
    return PrimitiveState(P=P_B, Q=(rhs - cp * P_B) / cq)


def close_external_flow(inp: EndpointClosureInput, Q_B: float) -> PrimitiveState:
    """Endpoint state when the flow is prescribed: Q = Q_B and P follows
    from the resolved characteristic relation. Requires a nonzero
    characteristic speed of the incoming family at the end."""
    cp, cq, rhs = _char_row(inp)
    lam = inp.eig.lambda_R if not inp.incoming else inp.eig.lambda_L
    if abs(lam) <= 1e-14 * max(1.0, abs(inp.eig.u)):
        raise SingularJunction(
            f"vessel {inp.vessel_id!r} end {inp.end}: characteristic speed vanishes "
            "at the boundary; the end cannot be closed",
        )
    return PrimitiveState(P=(rhs - cq * Q_B) / cp, Q=Q_B)


# --- branching junctions ------------------------------------------------


def assemble_branching(
    node: Branching, inputs: list[EndpointClosureInput], dt: float
) -> JunctionSystem:
    """Linear system for a branching node: 2*mu+1 unknowns
    (P_i, Q_i per end, then P_junc)."""
    mu = len(inputs)
    n = 2 * mu + 1
    M = np.zeros((n, n))
    b = np.zeros(n)
    layout = []
    for i, inp in enumerate(inputs):
        layout.append(("P", inp.vessel_id, inp.end))
        layout.append(("Q", inp.vessel_id, inp.end))
    layout.append(("P_junc", node.id, ""))
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
        b[2 * i + 1] = inp.rho_j / dt * inp.q_prev + inp.c_off
    for i, inp in enumerate(inputs):
        M[n - 1, 2 * i + 1] = 1.0 if inp.incoming else -1.0
    return JunctionSystem(node.id, M, b, tuple(layout))


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


# --- transitional junctions ---------------------------------------------


def assemble_transitional(
    node: Transitional,
    inputs: list[EndpointClosureInput],
    state_prev: TransitionalState,
    dt: float,
) -> JunctionSystem:
    """Linear system for a transitional node: 2*mu+2 unknowns
    (P_i, Q_i per end, then P_C1, P_C2)."""
    mu = len(inputs)
    n = 2 * mu + 2
    M = np.zeros((n, n))
    b = np.zeros(n)
    layout = []
    for inp in inputs:
        layout.append(("P", inp.vessel_id, inp.end))
        layout.append(("Q", inp.vessel_id, inp.end))
    layout.append(("P_C1", node.id, ""))
    layout.append(("P_C2", node.id, ""))
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
    return JunctionSystem(node.id, M, b, tuple(layout))


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


# --- solving -------------------------------------------------------------


def junction_condition_estimate(sys: JunctionSystem) -> float:
    """Condition number of the row/column-equilibrated matrix (the raw
    matrix mixes Pa- and m^3/s-scaled rows, so its condition number
    mostly measures units)."""
    M, _, _ = _equilibrate(sys.matrix)
    return float(np.linalg.cond(M))


def _equilibrate(A: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    row = np.max(np.abs(A), axis=1)
    if np.any(row == 0):
        raise SingularJunction("zero row in junction matrix")
    dr = 1.0 / row
    As = dr[:, None] * A
    col = np.max(np.abs(As), axis=0)
    if np.any(col == 0):
        raise SingularJunction("zero column in junction matrix")
    dc = 1.0 / col
    return As * dc[None, :], dr, dc


def solve_junction(sys: JunctionSystem) -> JunctionSolution:
    """Direct dense solve of one node system with equilibration and one
    step of iterative refinement; verifies the residual."""
    A, b = sys.matrix, sys.rhs
    try:
        As, dr, dc = _equilibrate(A)
        x = dc * np.linalg.solve(As, dr * b)
        # one refinement pass in the original scaling pushes the row
        # residuals (flow balance, characteristic relations) to rounding
        resid = b - A @ x
        x = x + dc * np.linalg.solve(As, dr * resid)
    except (SingularJunction, np.linalg.LinAlgError) as exc:
        raise SingularJunction(
            f"node {sys.node_id!r}: junction system is singular ({exc})",
            node_id=sys.node_id,
        ) from exc

    scale = float(np.max(np.abs(A).sum(axis=1))) * max(float(np.max(np.abs(x))), 1e-300)
    resid_norm = float(np.max(np.abs(b - A @ x)))
    if not np.isfinite(resid_norm) or resid_norm > _RESIDUAL_TOL * scale:
        raise SingularJunction(
            f"node {sys.node_id!r}: solve residual {resid_norm:.3e} exceeds "
            f"{_RESIDUAL_TOL:.0e} * {scale:.3e}",
            node_id=sys.node_id,
            condition_estimate=junction_condition_estimate(sys),
        )

    states: dict[tuple[str, str], PrimitiveState] = {}
    internals: dict[str, float] = {}
    pending: dict[tuple[str, str], dict[str, float]] = {}
    for (role, subject, end), val in zip(sys.layout, x):
        if role in ("P", "Q"):
            pending.setdefault((subject, end), {})[role] = float(val)
        else:
            internals[role] = float(val)
    for key, d in pending.items():
        states[key] = PrimitiveState(P=d["P"], Q=d["Q"])
    return JunctionSolution(states=states, internals=internals)
