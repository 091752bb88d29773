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
(`flow_at_pressure_end`, `pressure_at_flow_end`).

The solver closes every junction node of a network in one stack:
`junction_layout` lays the nodes' systems side by side in node id
order, column k of the stack holding node k, in one `JunctionLayout`.
The layout keeps the static matrix template and flat tables of
positions into the stack, built once: per end, its characteristic
row's entries and its unknowns; per branching end, its sign and its
+-A entries; per entry fixed within a step, its weight (rho_j, C1 or
C2), its additive 1/R_C and its places in the matrices and right-hand
sides. `JunctionLayout.step` builds the stack with every entry fixed
within a time step, `JunctionLayout.fill` writes each closure pass's
entries in place, one `put` per kind of entry, and one `solve_systems`
call per pass solves the whole stack and names the first failing node
in stack order, which is node id order, as the condition report orders
its nodes. This is the only assembly the program runs. The node-by-node
assembly in `vesselflow.verification` builds the same systems without
these tables and serves as their oracle; it solves them with
`solve_systems` too (a one-node stack, padded as the layout pads it),
so the two paths can be compared bit for bit. The step-response
harness there drives a layout on purpose, to test the solver's own
transitional closure.

The stack has the size n of its largest system (2 mu + 1 unknowns for
a branching node, 2 mu + 2 for a transitional one). A smaller system
keeps its own unknown order and is padded at its tail with identity
rows and columns and a zero right-hand side, so its padded unknowns
solve to zero. Padding grows with the largest node: one wide node pads
every other. It changes no condition estimate (see below) and no
residual gate scale (every junction system has a row of +-1 entries,
so its largest row sum is at least the padding's 1), but LAPACK may
round a padded system differently from the system alone.

The stack is node-minor: the matrices of its N nodes with n unknowns
each are one C-contiguous (n, n, N) array, the right-hand sides and
solutions (n, N). Entry (i, j) of every node's system is one
contiguous row over the nodes, so the equilibration's row and column
maxima and the residual gate's maxima reduce whole rows at once; LAPACK
reads the same (N, n, n) values through a view, and the residual
products read a C-ordered copy.

`condition_estimates` reports, per node, the 1-norm condition number
kappa_1 = ||A||_1 ||A^-1||_1 of the row/column-equilibrated matrix A,
from one stacked inverse (the quantity LAPACK's gecon estimates; Higham,
Accuracy and Stability of Numerical Algorithms, 2002, ch. 15). It lies
within a factor n of the 2-norm condition number: kappa_2 / n <=
kappa_1 <= n kappa_2. A singular or non-finite system reads inf. Every
entry of an equilibrated matrix is at most 1 in magnitude, so both
||A||_1 and ||A^-1||_1 are at least 1 (a row of A times the matching
column of A^-1 is 1), and an identity padding leaves kappa_1 as it is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularJunction
from .network import Branching, Transitional

_RESIDUAL_TOL = 1e-10


@dataclass
class TransitionalState:
    """Capacitor pressures carried per transitional node per time level."""

    P_C1: float
    P_C2: float


# --- external ends ------------------------------------------------------


def flow_at_pressure_end(vessel_ids, ends, a, cp, cq, char, P_B) -> np.ndarray:
    """Q at ends whose pressure is prescribed (P = P_B), from the
    characteristic rows cp P + cq Q = char, elementwise over arrays
    indexed like ends, vessel-end numbers on vessel_ids. Requires a > 0
    at every end; raises SingularJunction naming the first end where it fails."""
    bad = a <= 0
    if np.logical_or.reduce(bad):
        vid = vessel_ids[ends[int(bad.argmax())] // 2]
        raise SingularJunction(f"vessel {vid!r}: coefficient a must be positive at the boundary")
    return (char - cp * P_B) / cq


def pressure_at_flow_end(vessel_ids, ends, lam, u, cp, cq, char, Q_B) -> np.ndarray:
    """P at ends whose flow is prescribed (Q = Q_B), from the
    characteristic rows cp P + cq Q = char, elementwise over arrays
    indexed like ends, vessel-end numbers on vessel_ids. Requires a nonzero
    speed lam of the incoming family at every end; raises
    SingularJunction naming the first end where it vanishes."""
    bad = np.abs(lam) <= 1e-14 * np.fmax(1.0, np.abs(u))
    if np.logical_or.reduce(bad):
        e = ends[int(bad.argmax())]
        raise SingularJunction(
            f"vessel {vessel_ids[e // 2]!r} end x{e % 2}: characteristic speed vanishes "
            "at the boundary; the end cannot be closed",
        )
    return (char - cq * Q_B) / cp


# --- solving -------------------------------------------------------------


# The stacks here are node-minor (see the module docstring). The
# reductions call the ufuncs' own reduce: `.max()`, `.sum()` and `.all()`
# run the same loops behind numpy's Python-level wrappers, whose calls
# cost as much as the arithmetic on systems of a few unknowns.


def _equilibrate(M: np.ndarray, abs_M: np.ndarray, node_ids) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row then column scaling of a node-minor stack M (n, n, N), given
    abs_M = |M|: the scaled stack, and the row and column scales (n, N)."""
    row = np.maximum.reduce(abs_M, axis=1)
    _require_nonzero(row, node_ids, "row")
    dr = 1.0 / row
    As = dr[:, None] * M
    col = np.maximum.reduce(np.abs(As), axis=0)
    _require_nonzero(col, node_ids, "column")
    dc = 1.0 / col
    As *= dc
    return As, dr, dc


def _require_nonzero(scales: np.ndarray, node_ids, what: str) -> None:
    if np.logical_and.reduce(scales, axis=None):
        return
    nid = node_ids[int((scales == 0).any(axis=0).argmax())]
    raise SingularJunction(
        f"node {nid!r}: junction system is singular (zero {what} in junction matrix)",
        node_id=nid,
        condition_estimate=float("inf"),
    )


def _condition(As: np.ndarray) -> np.ndarray:
    """1-norm condition numbers ||As||_1 ||As^-1||_1 of a node-minor
    stack of equilibrated matrices (n, n, N), from one stacked inverse:
    the quantity LAPACK's gecon estimates, computed in full. Infinite
    where a system is singular or not finite."""
    try:
        inv = np.linalg.inv(As.transpose(2, 0, 1))
    except np.linalg.LinAlgError:
        if As.shape[2] == 1:
            return np.array([np.inf])
        return np.concatenate([_condition(As[..., k : k + 1]) for k in range(As.shape[2])])
    # np.linalg.norm(., 1): the largest column sum, summed over i in row
    # order, here over node-minor rows
    inv = np.ascontiguousarray(inv.transpose(1, 2, 0))
    with np.errstate(over="ignore"):  # an overflow is an infinite estimate
        kappa = _norm1(np.abs(As)) * _norm1(np.abs(inv, out=inv))
    kappa[np.isnan(kappa)] = np.inf
    return kappa


def _norm1(abs_A: np.ndarray) -> np.ndarray:
    return np.maximum.reduce(np.add.reduce(abs_A, axis=0), axis=0)


def _solve(As3: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    # As3 (N, n, n), rhs (n, N); the solution as an (n, N) view
    return np.linalg.solve(As3, rhs.T[..., None])[..., 0].T


def _apply(M3: np.ndarray, x: np.ndarray) -> np.ndarray:
    # M3 a C-contiguous (N, n, n), x (n, N): stacked matmul runs the same
    # BLAS product per system as M @ x does for one, so a stack
    # reproduces the one-system results bit for bit (on a strided M3
    # numpy leaves BLAS and the bits change)
    return np.matmul(M3, x.T[..., None])[..., 0].T


def solve_systems(M: np.ndarray, b: np.ndarray, node_ids) -> tuple[np.ndarray, np.ndarray]:
    """Solve a node-minor stack of node systems M x = b: M (n, n, N),
    b and x (n, N), one column per node of node_ids.

    Each system is row/column equilibrated, solved directly, and
    refined once in the original scaling (which pushes the row
    residuals, flow balance included, to rounding); then every residual
    is checked against 1e-10 * (max row sum of |M|) * max|x|. Returns
    the solutions and each system's residual divided by that scale
    without the 1e-10 (at most 1e-10 on return). Raises SingularJunction
    naming the first failing node, with its condition estimate (a
    singular stack: the first node whose `_condition` reads inf).
    """
    abs_M = np.abs(M)
    As, dr, dc = _equilibrate(M, abs_M, node_ids)
    # BLAS's matmul and the row sums' summation order need C order
    As3 = As.transpose(2, 0, 1)
    M3 = M.transpose(2, 0, 1).copy()
    abs_M3 = np.abs(M3)
    try:
        x = dc * _solve(As3, dr * b)
        x = x + dc * _solve(As3, dr * (b - _apply(M3, x)))
    except np.linalg.LinAlgError as exc:
        kappa = _condition(As)
        k = int(np.isinf(kappa).argmax())
        if kappa[k] < np.inf:  # no node to name
            raise
        raise SingularJunction(
            f"node {node_ids[k]!r}: junction system is singular ({exc})",
            node_id=node_ids[k],
            condition_estimate=float(kappa[k]),
        ) from exc
    row_sums = np.add.reduce(abs_M3, axis=2)
    x_max = np.maximum.reduce(np.abs(x), axis=0)
    scale = np.maximum.reduce(row_sums, axis=1) * np.maximum(x_max, 1e-300)
    resid = np.maximum.reduce(np.abs(b - _apply(M3, x)), axis=0)
    ok = (resid <= _RESIDUAL_TOL * scale) & np.isfinite(resid)
    if not np.logical_and.reduce(ok):
        k = int(ok.argmin())
        raise SingularJunction(
            f"node {node_ids[k]!r}: solve residual {resid[k]:.3e} exceeds "
            f"{_RESIDUAL_TOL:.0e} * {scale[k]:.3e}",
            node_id=node_ids[k],
            condition_estimate=float(_condition(As[..., k : k + 1])[0]),
        )
    return x, resid / scale


def condition_estimates(M: np.ndarray, node_ids) -> np.ndarray:
    """1-norm condition numbers of a node-minor stack (n, n, N) of
    row/column-equilibrated node matrices, one per node of node_ids (the
    raw matrices mix Pa- and m^3/s-scaled rows, so their condition
    numbers mostly measure units)."""
    return _condition(_equilibrate(M, np.abs(M), node_ids)[0])


# --- the junction stack --------------------------------------------------


@dataclass(frozen=True)
class JunctionLayout:
    """Every junction node of a network as one node-minor stack of N
    systems with n unknowns, n the largest system's size: column k holds
    node k of `nodes`. A system's unknowns are (P, Q) per end in the
    node's end order, then P_junc (branching, 2 mu + 1) or P_C1, P_C2
    (transitional, 2 mu + 2); end i owns rows 2i (its characteristic
    row) and 2i + 1 (its momentum ODE or resistive leg), the rows after
    them up to the system's size are flow balance or the capacitors, and
    any later rows are padding: identity rows and columns, a zero
    right-hand side and so a zero solution.

    The tables hold flat indices into a stack's matrices M (n, n, N) and
    its right-hand sides b and solutions x (n, N), where entry (i, j) of
    node k is M.flat[(i n + j) N + k] and row i is b.flat[i N + k]."""

    nodes: tuple[str, ...]  # every junction node id, in node id order
    branching: tuple[str, ...]  # branching node ids, in node id order
    transitional: tuple[str, ...]  # transitional node ids, in node id order
    template: np.ndarray  # (n, n, N) static entries: +-1, R, -1/R_C, padding
    # every junction end, node after node in each node's end order, by
    # its vessel end e = 2k + x1 (segment k, x1 = 1 at x=1); the M
    # positions of its characteristic row's cp and cq, and the x
    # positions of its P and Q (2, E), P's also its char's in b
    ends: np.ndarray
    at_cp: np.ndarray
    at_cq: np.ndarray
    x_PQ: np.ndarray
    # the branching ends among them, their signs (+1 at x=1, incoming
    # ends, -1 at x=0) and the M positions of -sign A and +sign A in
    # their momentum rows
    br_ends: np.ndarray
    sign: np.ndarray
    at_minus_A: np.ndarray
    at_plus_A: np.ndarray
    # the entries fixed within a step: rho_j of each branching end, then
    # C1, then C2 of each transitional node; M holds w/dt + g (g = 1/R_C
    # on a capacitor's diagonal, else 0) at at_w, and b w/dt times the
    # end's q_prev or the capacitor's pressure at at_wb
    w: np.ndarray
    g: np.ndarray
    at_w: np.ndarray
    at_wb: np.ndarray
    # x positions of P_junc over `branching` and of P_C1 and P_C2 over
    # `transitional` (2, T), the latter also the capacitor rows' in b
    x_junc: np.ndarray
    x_C: np.ndarray

    @property
    def size(self) -> int:
        """n, the number of unknowns of every system of the stack."""
        return self.template.shape[0]

    def step(self, dt: float, q_prev, P_C1, P_C2) -> tuple[np.ndarray, np.ndarray]:
        """The (n, n, N) matrices and (n, N) right-hand sides with every
        entry fixed within a time step: the template, rho_j/dt and
        rho_j q_prev/dt per branching end, and C/dt + 1/R_C and C P_C/dt
        per capacitor. q_prev is indexed by vessel end, P_C1 and P_C2
        over `transitional`."""
        M = self.template.copy()
        b = np.zeros(M.shape[1:])
        w_dt = self.w / dt
        M.put(self.at_w, w_dt + self.g)
        b.put(self.at_wb, w_dt * np.concatenate((q_prev[self.br_ends], P_C1, P_C2)))
        return M, b

    def fill(self, M: np.ndarray, b: np.ndarray, cp, cq, char, A) -> None:
        """Write the entries of one closure pass into a step's M and b in
        place, from the characteristic rows cp P + cq Q = char and the
        areas A (all indexed by vessel end): the characteristic row of
        every end, and -+A of the momentum ODE at branching ends. Every
        pass overwrites all of them."""
        ends = self.ends
        M.put(self.at_cp, cp[ends])
        M.put(self.at_cq, cq[ends])
        b.put(self.x_PQ[0], char[ends])
        signed_A = self.sign * A[self.br_ends]
        M.put(self.at_minus_A, -signed_A)
        M.put(self.at_plus_A, signed_A)


def junction_layout(plans, incoming: np.ndarray, params) -> JunctionLayout:
    """Stack the junction nodes among plans, a sequence of (node, end
    indices) in node id order, as given; incoming and params (rho_j or
    resistance, None at external ends) are indexed by vessel end."""
    plans = [plan for plan in plans if isinstance(plan[0], (Branching, Transitional))]
    sizes = [2 * len(ends) + (1 if isinstance(node, Branching) else 2) for node, ends in plans]
    n, N = max(sizes, default=0), len(plans)
    template = np.repeat(np.eye(n)[..., None], N, axis=2)  # the padding
    # per end: vessel end, column, characteristic row 2i, the node's last
    # row, branching; per branching node: P_junc's x position; per
    # transitional node: column and P_C1's row, and C1, C2, 1/R_C
    end_rows, x_junc, cap_rows, cap_values = [], [], [], []
    for k, ((node, node_ends), s) in enumerate(zip(plans, sizes)):
        block = template[:s, :s, k]  # a view: the node's own block
        block[:] = 0.0
        branching = isinstance(node, Branching)
        for i, e in enumerate(node_ends):
            P, Q, sign = 2 * i, 2 * i + 1, 1.0 if incoming[e] else -1.0
            end_rows.append((e, k, P, s - 1, branching))
            if branching:  # flow balance: sum_in Q - sum_out Q = 0
                block[s - 1, Q] = sign
            else:  # artery: R Q = P - P_C1; vein: R Q = P_C2 - P
                C = s - 2 if incoming[e] else s - 1
                block[Q, Q], block[Q, P] = params[e], -sign
                block[Q, C], block[C, Q] = sign, -sign
        if branching:
            x_junc.append((s - 1) * N + k)
        else:
            g_C = 1.0 / node.R_C
            block[s - 2, s - 1] = block[s - 1, s - 2] = -g_C
            cap_rows.append((k, s - 2))
            cap_values.append((node.C1, node.C2, g_C))
    template.setflags(write=False)

    def at(i, j, k):  # flat positions in M (n, n, N) of entries (i, j) of columns k
        return (i * n + j) * N + k

    e, k, P, last, br = np.array(end_rows, dtype=np.intp).reshape(-1, 5).T.copy()
    br, Q = br.astype(bool), P + 1
    kC, C = np.array(cap_rows, dtype=np.intp).reshape(-1, 2).T
    C1, C2, g_C = np.array(cap_values, dtype=float).reshape(-1, 3).T
    rho = np.array([params[end] for end in e[br]], dtype=float)
    x_P, x_C = P * N + k, np.stack([C * N + kC, (C + 1) * N + kC])
    return JunctionLayout(
        nodes=tuple(node.id for node, _ in plans),
        branching=tuple(node.id for node, _ in plans if isinstance(node, Branching)),
        transitional=tuple(node.id for node, _ in plans if isinstance(node, Transitional)),
        template=template,
        ends=e,
        at_cp=at(P, P, k),
        at_cq=at(P, Q, k),
        x_PQ=np.stack([x_P, x_P + N]),
        br_ends=e[br],
        sign=np.where(incoming[e[br]], 1.0, -1.0),
        at_minus_A=at(Q, P, k)[br],
        at_plus_A=at(Q, last, k)[br],
        w=np.concatenate([rho, C1, C2]),
        g=np.concatenate([np.zeros(rho.size), g_C, g_C]),
        at_w=np.concatenate([at(Q, Q, k)[br], at(C, C, kC), at(C + 1, C + 1, kC)]),
        at_wb=np.concatenate([(x_P + N)[br], x_C.ravel()]),
        x_junc=np.array(x_junc, dtype=np.intp),
        x_C=x_C,
    )
