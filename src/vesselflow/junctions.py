"""Node closures: external ends, branching junctions, transitional junctions.

Every node closure completes one time level. At each attached vessel
end exactly one characteristic variable is already resolved from the
vessel interior (r at x=1 ends, s at x=0 ends); the closure solves a
small dense linear system for the endpoint (P, Q) values plus the
node-internal unknowns:

- branching: per-end characteristic relation, per-end backward-Euler
  momentum ODE  rho_j dQ/dt = +-A (P - P_junc), and exact flow
  balance  sum_in Q = sum_out Q;  unknowns (P, Q) per end plus P_junc.
- transitional: per-end characteristic relation, per-end resistive
  relation R_j Q = +-(P - P_C), and backward-Euler capacitor ODEs
  C1 dP_C1/dt = sum_arteries Q - Q_C,  C2 dP_C2/dt = Q_C - sum_veins Q
  with Q_C = (P_C1 - P_C2)/R_C;  unknowns (P, Q) per end plus P_C1, P_C2.

External ends reduce to a single linear equation and are solved in
closed form, elementwise over every end of one kind
(`flow_at_pressure_end`, `pressure_at_flow_end`); the per-node
`close_external_*` run the same functions on one end.

The solver closes all junction nodes of one kind and size together:
`junction_layout` compiles, per group, a static matrix template and
scatter tables that place one per-pass value vector into an (N, n, n)
stack, and `solve_systems` solves the stack with the arithmetic of the
one-node `solve_junction`. `assemble_branching` and
`assemble_transitional` build the same systems node by node and serve
as the independent oracle.
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


def flow_at_pressure_end(vessel_ids, a, cp, cq, char, P_B) -> np.ndarray:
    """Q at ends whose pressure is prescribed (P = P_B), from the
    characteristic rows cp P + cq Q = char, elementwise over arrays
    indexed like vessel_ids. Requires a > 0 at every end; raises
    SingularJunction naming the first end where it fails."""
    bad = a <= 0
    if bad.any():
        raise SingularJunction(
            f"vessel {vessel_ids[int(bad.argmax())]!r}: coefficient a must be positive at the boundary"
        )
    return (char - cp * P_B) / cq


def pressure_at_flow_end(vessel_ids, ends, lam, u, cp, cq, char, Q_B) -> np.ndarray:
    """P at ends whose flow is prescribed (Q = Q_B), from the
    characteristic rows cp P + cq Q = char, elementwise over arrays
    indexed like vessel_ids and ends ("x0" | "x1"). Requires a nonzero
    speed lam of the incoming family at every end; raises
    SingularJunction naming the first end where it vanishes."""
    bad = np.abs(lam) <= 1e-14 * np.fmax(1.0, np.abs(u))
    if bad.any():
        k = int(bad.argmax())
        raise SingularJunction(
            f"vessel {vessel_ids[k]!r} end {ends[k]}: characteristic speed vanishes "
            "at the boundary; the end cannot be closed",
        )
    return (char - cq * Q_B) / cp


def _one_end(*values) -> np.ndarray:
    """Arrays of length one, so that one end runs the elementwise
    closures above."""
    return np.array(values, dtype=float)[:, None]


def close_external_pressure(inp: EndpointClosureInput, P_B: float) -> PrimitiveState:
    """Endpoint state when the pressure is prescribed: P = P_B and Q
    follows from the resolved characteristic relation."""
    Q = flow_at_pressure_end((inp.vessel_id,), *_one_end(inp.coeffs.a, *_char_row(inp), P_B))
    return PrimitiveState(P=P_B, Q=float(Q[0]))


def close_external_flow(inp: EndpointClosureInput, Q_B: float) -> PrimitiveState:
    """Endpoint state when the flow is prescribed: Q = Q_B and P follows
    from the resolved characteristic relation."""
    lam = inp.eig.lambda_R if not inp.incoming else inp.eig.lambda_L
    values = _one_end(lam, inp.eig.u, *_char_row(inp), Q_B)
    P = pressure_at_flow_end((inp.vessel_id,), (inp.end,), *values)
    return PrimitiveState(P=float(P[0]), Q=Q_B)


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
        b[2 * i + 1] = inp.rho_j / dt * inp.q_prev
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


def _equilibrate(M: np.ndarray, node_ids) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row then column scaling of a stack of node matrices (N, n, n)."""
    row = np.abs(M).max(axis=2)
    _require_nonzero(row, node_ids, "row")
    dr = 1.0 / row
    As = dr[..., None] * M
    col = np.abs(As).max(axis=1)
    _require_nonzero(col, node_ids, "column")
    dc = 1.0 / col
    return As * dc[:, None, :], dr, dc


def _require_nonzero(scales: np.ndarray, node_ids, what: str) -> None:
    if scales.all():
        return
    nid = node_ids[int((scales == 0).any(axis=1).argmax())]
    raise SingularJunction(
        f"node {nid!r}: junction system is singular (zero {what} in junction matrix)",
        node_id=nid,
        condition_estimate=float("inf"),
    )


def _condition(As: np.ndarray) -> np.ndarray:
    """2-norm condition numbers of a stack of equilibrated matrices
    (infinite where the SVD fails on non-finite entries)."""
    try:
        return np.linalg.cond(As)
    except np.linalg.LinAlgError:
        if len(As) == 1:
            return np.array([np.inf])
        return np.concatenate([_condition(m[None]) for m in As])


def _solve(As: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    return np.linalg.solve(As, rhs[..., None])[..., 0]


def _apply(M: np.ndarray, x: np.ndarray) -> np.ndarray:
    # stacked matmul runs the same BLAS product per system as M @ x does
    # for one, so a stack reproduces the one-system results bit for bit
    return np.matmul(M, x[..., None])[..., 0]


def solve_systems(M: np.ndarray, b: np.ndarray, node_ids) -> tuple[np.ndarray, np.ndarray]:
    """Solve a stack of node systems M x = b, M (N, n, n), b (N, n).

    Each system is row/column equilibrated, solved directly, and
    refined once in the original scaling (which pushes the row
    residuals, flow balance included, to rounding); then every residual
    is checked against 1e-10 * (max row sum of |M|) * max|x|. Returns
    the solutions and each system's residual divided by that scale
    without the 1e-10 (at most 1e-10 on return). Raises SingularJunction
    naming the first failing node, with its condition estimate.
    """
    As, dr, dc = _equilibrate(M, node_ids)
    try:
        x = dc * _solve(As, dr * b)
        x = x + dc * _solve(As, dr * (b - _apply(M, x)))
    except np.linalg.LinAlgError:
        for k, nid in enumerate(node_ids):
            try:
                _solve(As[k : k + 1], b[k : k + 1])
            except np.linalg.LinAlgError as exc:
                raise SingularJunction(
                    f"node {nid!r}: junction system is singular ({exc})",
                    node_id=nid,
                    condition_estimate=float(_condition(As[k : k + 1])[0]),
                ) from exc
        raise
    scale = np.abs(M).sum(axis=2).max(axis=1) * np.maximum(np.abs(x).max(axis=1), 1e-300)
    resid = np.abs(b - _apply(M, x)).max(axis=1)
    ok = (resid <= _RESIDUAL_TOL * scale) & np.isfinite(resid)
    if not ok.all():
        k = int(ok.argmin())
        raise SingularJunction(
            f"node {node_ids[k]!r}: solve residual {resid[k]:.3e} exceeds "
            f"{_RESIDUAL_TOL:.0e} * {scale[k]:.3e}",
            node_id=node_ids[k],
            condition_estimate=float(_condition(As[k : k + 1])[0]),
        )
    return x, resid / scale


def condition_estimates(M: np.ndarray, node_ids) -> np.ndarray:
    """Condition numbers of a stack of row/column-equilibrated node
    matrices (the raw matrices mix Pa- and m^3/s-scaled rows, so their
    condition numbers mostly measure units)."""
    return _condition(_equilibrate(M, node_ids)[0])


def junction_condition_estimate(sys: JunctionSystem) -> float:
    """Condition number of one node's equilibrated matrix."""
    return float(condition_estimates(sys.matrix[None], (sys.node_id,))[0])


def solve_junction(sys: JunctionSystem) -> JunctionSolution:
    """Solve one node system with the stacked kernel (`solve_systems`)."""
    x, _ = solve_systems(sys.matrix[None], sys.rhs[None], (sys.node_id,))
    states: dict[tuple[str, str], PrimitiveState] = {}
    internals: dict[str, float] = {}
    pending: dict[tuple[str, str], dict[str, float]] = {}
    for (role, subject, end), val in zip(sys.layout, x[0].tolist()):
        if role in ("P", "Q"):
            pending.setdefault((subject, end), {})[role] = val
        else:
            internals[role] = val
    for key, d in pending.items():
        states[key] = PrimitiveState(P=d["P"], Q=d["Q"])
    return JunctionSolution(states=states, internals=internals)


# --- batched closures ----------------------------------------------------

# Sections of the value vector a closure pass scatters into the node
# matrices (`JunctionLayout.values`): seven of one entry per vessel end,
# then four of one entry per transitional node.
_CP, _CQ, _CHAR, _SIGNED_A, _NEG_SIGNED_A, _RHO_DT, _MOMENTUM = range(7)
_C1_DIAG, _C2_DIAG, _C1_RHS, _C2_RHS = range(4)


@dataclass(frozen=True)
class JunctionGroup:
    """Junction nodes of one kind and system size, solved as one stack.
    Each system has the unknown and row order of `assemble_branching` or
    `assemble_transitional`."""

    kind: type  # Branching | Transitional
    node_ids: tuple[str, ...]
    ranks: np.ndarray  # (N,) positions of the nodes in `JunctionLayout.nodes`
    # (N,) positions of the nodes in the layout's arrays over nodes of
    # their kind: P_junc over `branching`, P_C1/P_C2 over `transitional`
    slots: np.ndarray
    ends: np.ndarray  # (N, mu) vessel end indices, in each node's end order
    template: np.ndarray  # (N, n, n) static entries: +-1, R, -1/R_C
    matrix_at: np.ndarray  # flat stack positions of the per-pass entries
    matrix_from: np.ndarray  # their positions in the value vector
    rhs_at: np.ndarray
    rhs_from: np.ndarray

    def systems(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The (N, n, n) matrices and (N, n) right-hand sides."""
        N, n, _ = self.template.shape
        M = self.template.copy()
        M.reshape(-1)[self.matrix_at] = values[self.matrix_from]
        b = np.zeros(N * n)
        b[self.rhs_at] = values[self.rhs_from]
        return M, b.reshape(N, n)


@dataclass(frozen=True)
class JunctionLayout:
    """Every junction node of a network, grouped by kind and size."""

    sign: np.ndarray  # per vessel end: +1 at x=1 (incoming) ends, -1 at x=0
    rho: np.ndarray  # per vessel end: rho_j at branching ends, 0 elsewhere
    nodes: tuple[str, ...]  # every junction node id, in node id order
    branching: tuple[str, ...]  # branching node ids, in node order
    transitional: tuple[str, ...]  # transitional node ids, node-section order
    C1: np.ndarray
    C2: np.ndarray
    g_C: np.ndarray  # 1 / R_C
    groups: tuple[JunctionGroup, ...]

    def step_values(self, dt: float, q_prev: np.ndarray, P_C1: np.ndarray, P_C2: np.ndarray):
        """The value-vector tail fixed within a time step: rho_j/dt and
        the momentum right-hand side per end, then the capacitor entries
        per transitional node."""
        rho_dt = self.rho / dt
        c1, c2 = self.C1 / dt, self.C2 / dt
        return np.concatenate(
            (rho_dt, rho_dt * q_prev, c1 + self.g_C, c2 + self.g_C, c1 * P_C1, c2 * P_C2)
        )

    def values(self, cp, cq, char, A, step: np.ndarray) -> np.ndarray:
        """The full value vector from the characteristic rows
        cp P + cq Q = char and the areas A at every vessel end."""
        signed_A = self.sign * A
        return np.concatenate((cp, cq, char, signed_A, -signed_A, step))


def junction_layout(plans, incoming: np.ndarray, params) -> JunctionLayout:
    """Group tables for the junction nodes among plans, a sequence of
    (node, end indices); incoming and params (rho_j or resistance, None
    at external ends) are indexed by vessel end."""
    E = len(incoming)
    sign = np.where(incoming, 1.0, -1.0)
    rho = np.zeros(E)
    trans = [node for node, _ in plans if isinstance(node, Transitional)]
    branch = [node for node, _ in plans if isinstance(node, Branching)]
    nodes = tuple(sorted(node.id for node in branch + trans))
    rank = {nid: k for k, nid in enumerate(nodes)}
    slot = {node.id: k for nodes in (branch, trans) for k, node in enumerate(nodes)}
    node_section = {node.id: 7 * E + slot[node.id] for node in trans}
    T = len(trans)
    keyed: dict[tuple[type, int], list] = {}
    for node, ends in plans:
        if isinstance(node, (Branching, Transitional)):
            keyed.setdefault((type(node), len(ends)), []).append((node, ends))

    groups = []
    for (kind, mu), members in keyed.items():
        n = 2 * mu + (1 if kind is Branching else 2)
        template = np.zeros((len(members), n, n))
        mat_at, mat_from, rhs_at, rhs_from = [], [], [], []
        for q, (node, ends) in enumerate(members):

            def entry(r, c, source):
                mat_at.append((q * n + r) * n + c)
                mat_from.append(source)

            def rhs(r, source):
                rhs_at.append(q * n + r)
                rhs_from.append(source)

            for i, e in enumerate(ends):
                iP, iQ = 2 * i, 2 * i + 1
                entry(iP, iP, _CP * E + e)
                entry(iP, iQ, _CQ * E + e)
                rhs(iP, _CHAR * E + e)
                if kind is Branching:
                    rho[e] = params[e]
                    entry(iQ, iQ, _RHO_DT * E + e)
                    entry(iQ, iP, _NEG_SIGNED_A * E + e)
                    entry(iQ, n - 1, _SIGNED_A * E + e)
                    rhs(iQ, _MOMENTUM * E + e)
                    template[q, n - 1, iQ] = sign[e]
                else:  # artery: R Q = P - P_C1; vein: R Q = P_C2 - P
                    template[q, iQ, iQ] = params[e]
                    template[q, iQ, iP] = -sign[e]
                    if incoming[e]:
                        template[q, iQ, n - 2] = 1.0
                        template[q, n - 2, iQ] = -1.0
                    else:
                        template[q, iQ, n - 1] = -1.0
                        template[q, n - 1, iQ] = 1.0
            if kind is Transitional:
                t = node_section[node.id]
                g_C = 1.0 / node.R_C
                entry(n - 2, n - 2, t + _C1_DIAG * T)
                entry(n - 1, n - 1, t + _C2_DIAG * T)
                template[q, n - 2, n - 1] = -g_C
                template[q, n - 1, n - 2] = -g_C
                rhs(n - 2, t + _C1_RHS * T)
                rhs(n - 1, t + _C2_RHS * T)
        template.setflags(write=False)
        groups.append(
            JunctionGroup(
                kind=kind,
                node_ids=tuple(node.id for node, _ in members),
                ranks=np.array([rank[node.id] for node, _ in members], dtype=np.intp),
                slots=np.array([slot[node.id] for node, _ in members], dtype=np.intp),
                ends=np.array([ends for _, ends in members], dtype=np.intp),
                template=template,
                matrix_at=np.array(mat_at, dtype=np.intp),
                matrix_from=np.array(mat_from, dtype=np.intp),
                rhs_at=np.array(rhs_at, dtype=np.intp),
                rhs_from=np.array(rhs_from, dtype=np.intp),
            )
        )
    return JunctionLayout(
        sign=sign,
        rho=rho,
        nodes=nodes,
        branching=tuple(node.id for node in branch),
        transitional=tuple(node.id for node in trans),
        C1=np.array([node.C1 for node in trans], dtype=float),
        C2=np.array([node.C2 for node in trans], dtype=float),
        g_C=np.array([1.0 / node.R_C for node in trans], dtype=float),
        groups=tuple(groups),
    )
