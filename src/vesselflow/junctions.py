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
`junction_layout` groups the nodes by kind and size and lays the groups'
systems side by side, group after group, in one `JunctionLayout`. Each
`JunctionGroup` keeps its own per-node arrays (end indices, signs,
rho_j or C1, C2, 1/R_C) and owns a range of the stack's columns; the
layout keeps the static matrix template and the indices that scatter a
solution back. `JunctionLayout.step` builds the stack with every entry
fixed within a time step, `JunctionLayout.fill` writes each closure
pass's entries into every group's columns in place, and one
`solve_systems` call per pass solves the whole stack. This is the only
assembly the program runs. The node-by-node assembly in
`vesselflow.verification` builds the same systems without these groups
and serves as their oracle; it solves them with `solve_systems` too (a
one-node stack, padded as the layout pads it), so the two paths can be
compared bit for bit. The step-response harness there drives a layout
on purpose, to test the solver's own transitional closure.

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
solutions (n, N), and each group's per-end arrays (mu, N). Entry (i, j)
of every node's system is one contiguous row over the nodes, so the
equilibration's row and column maxima and the residual gate's maxima
reduce whole rows at once; LAPACK reads the same (N, n, n) values
through a view, and the residual products read a C-ordered copy.

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


def flow_at_pressure_end(vessel_ids, a, cp, cq, char, P_B) -> np.ndarray:
    """Q at ends whose pressure is prescribed (P = P_B), from the
    characteristic rows cp P + cq Q = char, elementwise over arrays
    indexed like vessel_ids. Requires a > 0 at every end; raises
    SingularJunction naming the first end where it fails."""
    bad = a <= 0
    if np.logical_or.reduce(bad):
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
    if np.logical_or.reduce(bad):
        k = int(bad.argmax())
        raise SingularJunction(
            f"vessel {vessel_ids[k]!r} end {ends[k]}: characteristic speed vanishes "
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
    naming the first failing node, with its condition estimate.
    """
    abs_M = np.abs(M)
    As, dr, dc = _equilibrate(M, abs_M, node_ids)
    if M.shape[2] == 1:  # one system: (1, n, n) views in C order
        As3, M3, abs_M3 = As[None, ..., 0], M[None, ..., 0], abs_M[None, ..., 0]
    else:  # BLAS's matmul and the row sums' summation order need C order
        As3 = As.transpose(2, 0, 1)
        M3 = M.transpose(2, 0, 1).copy()
        abs_M3 = np.abs(M3)
    try:
        x = dc * _solve(As3, dr * b)
        x = x + dc * _solve(As3, dr * (b - _apply(M3, x)))
    except np.linalg.LinAlgError:
        for k, nid in enumerate(node_ids):
            try:
                _solve(As3[k : k + 1], b[:, k : k + 1])
            except np.linalg.LinAlgError as exc:
                raise SingularJunction(
                    f"node {nid!r}: junction system is singular ({exc})",
                    node_id=nid,
                    condition_estimate=float(_condition(As[..., k : k + 1])[0]),
                ) from exc
        raise
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


# --- batched closures ----------------------------------------------------


def _bands(M: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Writable views of the main, upper and lower diagonals of a
    C-contiguous node-minor stack (n, n, N): (n, N), (n-1, N), (n-1, N)."""
    n, _, N = M.shape
    flat = M.reshape(n * n, N)
    return flat[:: n + 1], flat[1 :: n + 1], flat[n :: n + 1]


@dataclass(frozen=True)
class JunctionGroup:
    """Junction nodes of one kind and end count mu: the columns `cols`
    of their layout's stack. Each system's `size` unknowns are (P, Q)
    per end in the node's end order, then P_junc (branching, 2 mu + 1)
    or P_C1, P_C2 (transitional, 2 mu + 2); end i owns rows 2i (its
    characteristic row) and 2i + 1 (its momentum ODE or resistive leg),
    the rows after them up to `size` are flow balance or the capacitors,
    and any later rows of the stack are padding. Per-end arrays are
    (mu, N), one row per end position over the group's N nodes."""

    kind: type  # Branching | Transitional
    node_ids: tuple[str, ...]
    cols: slice  # the group's columns of the layout's stack
    size: int
    # (N,) positions of the nodes in the layout's arrays over nodes of
    # their kind: P_junc over `branching`, P_C1/P_C2 over `transitional`
    slots: np.ndarray
    # (mu, N) vessel ends in the layout's numbering e = 2k + x1 (segment
    # k, x1 = 1 at x=1), in each node's end order
    ends: np.ndarray
    sign: np.ndarray  # (mu, N) +1 at x=1 (incoming) ends, -1 at x=0
    rho: np.ndarray | None  # (mu, N) rho_j in branching groups
    C1: np.ndarray | None  # (N,) in transitional groups
    C2: np.ndarray | None
    g_C: np.ndarray | None  # 1 / R_C

    def step(self, M: np.ndarray, b: np.ndarray, dt: float, q_prev, P_C1, P_C2) -> None:
        """Write the group's entries that are fixed within a time step
        into its columns of a layout's stack M (n, n, N), b (n, N):
        rho_j/dt and the momentum right-hand side rho_j q_prev/dt per
        branching end, or C/dt + 1/R_C and C P_C/dt per capacitor. q_prev
        is indexed by vessel end, P_C1 and P_C2 over the layout's
        transitional nodes."""
        cols, s = self.cols, self.size
        if self.kind is Branching:
            Q_rows = slice(1, 2 * self.ends.shape[0], 2)
            rho_dt = self.rho / dt
            _bands(M)[0][Q_rows, cols] = rho_dt
            b[Q_rows, cols] = rho_dt * q_prev[self.ends]
        else:
            c1, c2 = self.C1 / dt, self.C2 / dt
            M[s - 2, s - 2, cols] = c1 + self.g_C
            M[s - 1, s - 1, cols] = c2 + self.g_C
            b[s - 2, cols] = c1 * P_C1[self.slots]
            b[s - 1, cols] = c2 * P_C2[self.slots]

    def fill(self, M: np.ndarray, b: np.ndarray, cp, cq, char, A) -> None:
        """Write the entries of one closure pass into the group's columns
        of a step's M and b in place, from the characteristic rows
        cp P + cq Q = char and the areas A (all indexed by vessel end):
        the characteristic row of every end, and +-A of the momentum ODE
        at branching ends. Every pass overwrites all of them."""
        ends, cols = self.ends, self.cols
        mu = ends.shape[0]
        P_rows = slice(0, 2 * mu, 2)
        diag, upper, lower = _bands(M)
        diag[P_rows, cols] = cp[ends]
        upper[P_rows, cols] = cq[ends]
        b[P_rows, cols] = char[ends]
        if self.kind is Branching:
            signed_A = self.sign * A[ends]
            lower[P_rows, cols] = -signed_A
            M[1 : 2 * mu : 2, self.size - 1, cols] = signed_A


@dataclass(frozen=True)
class JunctionLayout:
    """Every junction node of a network as one node-minor stack of N
    systems with n unknowns, n the largest system's size: its groups'
    columns, group after group. A smaller system keeps its own unknown
    order and is padded at its tail with identity rows and columns, a
    zero right-hand side and so a zero solution."""

    nodes: tuple[str, ...]  # every junction node id, in node id order
    branching: tuple[str, ...]  # branching node ids, in node order
    transitional: tuple[str, ...]  # transitional node ids, in node order
    groups: tuple[JunctionGroup, ...]
    node_ids: tuple[str, ...]  # the stack's nodes, column by column
    ranks: np.ndarray  # (N,) positions of the stack's nodes in `nodes`
    template: np.ndarray  # (n, n, N) static entries: +-1, R, -1/R_C, padding
    # every junction's vessel ends, and flat indices into a stack
    # solution (n, N): of their P and Q (2, E), of P_junc over
    # `branching` and of P_C1 and P_C2 over `transitional` (2, T)
    ends: np.ndarray
    x_PQ: np.ndarray
    x_junc: np.ndarray
    x_C: np.ndarray

    @property
    def size(self) -> int:
        """n, the number of unknowns of every system of the stack."""
        return self.template.shape[0]

    def step(self, dt: float, q_prev, P_C1, P_C2) -> tuple[np.ndarray, np.ndarray]:
        """The (n, n, N) matrices and (n, N) right-hand sides with every
        entry fixed within a time step: the template and each group's
        `JunctionGroup.step`."""
        M = self.template.copy()
        b = np.zeros(M.shape[1:])
        for group in self.groups:
            group.step(M, b, dt, q_prev, P_C1, P_C2)
        return M, b

    def fill(self, M: np.ndarray, b: np.ndarray, cp, cq, char, A) -> None:
        """Each group's `JunctionGroup.fill` of one closure pass."""
        for group in self.groups:
            group.fill(M, b, cp, cq, char, A)


def junction_layout(plans, incoming: np.ndarray, params) -> JunctionLayout:
    """Stack the junction nodes among plans, a sequence of (node, end
    indices), grouped by kind and size in order of first appearance;
    incoming and params (rho_j or resistance, None at external ends) are
    indexed by vessel end."""
    trans = [node for node, _ in plans if isinstance(node, Transitional)]
    branch = [node for node, _ in plans if isinstance(node, Branching)]
    nodes = tuple(sorted(node.id for node in branch + trans))
    rank = {nid: k for k, nid in enumerate(nodes)}
    slot = {node.id: k for nodes in (branch, trans) for k, node in enumerate(nodes)}
    keyed: dict[tuple[type, int], list] = {}
    for node, ends in plans:
        if isinstance(node, (Branching, Transitional)):
            keyed.setdefault((type(node), len(ends)), []).append((node, ends))

    sizes = {key: 2 * key[1] + (1 if key[0] is Branching else 2) for key in keyed}
    n, N = max(sizes.values(), default=0), len(nodes)
    template = np.zeros((n, n, N))
    _bands(template)[0][:] = 1.0  # the padding; each group overwrites its own block
    x_junc, x_C1 = np.empty(len(branch), np.intp), np.empty(len(trans), np.intp)
    groups, all_ends, x_P, start = [], [], [], 0
    for (kind, mu), members in keyed.items():
        cols, s = slice(start, start + len(members)), sizes[kind, mu]
        start = cols.stop
        columns = np.arange(cols.start, cols.stop)
        ends = np.array([e for _, e in members], dtype=np.intp).T.copy()
        inflow = incoming[ends]
        sign = np.where(inflow, 1.0, -1.0)
        param = np.array([[params[e] for e in row] for row in ends], dtype=float)
        slots = np.array([slot[node.id] for node, _ in members], dtype=np.intp)
        block = np.zeros((s, s, len(members)))
        Q_rows = slice(1, 2 * mu, 2)
        rho = C1 = C2 = g_C = None
        if kind is Branching:  # flow balance: sum_in Q - sum_out Q = 0
            block[-1, Q_rows] = sign
            rho = param
            x_junc[slots] = (s - 1) * N + columns
        else:  # artery: R Q = P - P_C1; vein: R Q = P_C2 - P
            diag, _, lower = _bands(block)
            diag[Q_rows] = param
            lower[0 : 2 * mu : 2] = -sign
            block[Q_rows, -2] = np.where(inflow, 1.0, 0.0)
            block[Q_rows, -1] = np.where(inflow, 0.0, -1.0)
            block[-2, Q_rows] = np.where(inflow, -1.0, 0.0)
            block[-1, Q_rows] = np.where(inflow, 0.0, 1.0)
            g_C = np.array([1.0 / node.R_C for node, _ in members])
            block[-2, -1] = block[-1, -2] = -g_C
            C1 = np.array([node.C1 for node, _ in members], dtype=float)
            C2 = np.array([node.C2 for node, _ in members], dtype=float)
            x_C1[slots] = (s - 2) * N + columns
        template[:s, :s, cols] = block
        all_ends.extend(ends.ravel().tolist())
        x_P.extend((2 * N * np.arange(mu)[:, None] + columns).ravel().tolist())
        groups.append(
            JunctionGroup(
                kind=kind,
                node_ids=tuple(node.id for node, _ in members),
                cols=cols,
                size=s,
                slots=slots,
                ends=ends,
                sign=sign,
                rho=rho,
                C1=C1,
                C2=C2,
                g_C=g_C,
            )
        )
    template.setflags(write=False)
    node_ids = tuple(nid for group in groups for nid in group.node_ids)
    x_P = np.array(x_P, dtype=np.intp)
    return JunctionLayout(
        nodes=nodes,
        branching=tuple(node.id for node in branch),
        transitional=tuple(node.id for node in trans),
        groups=tuple(groups),
        node_ids=node_ids,
        ranks=np.array([rank[nid] for nid in node_ids], dtype=np.intp),
        template=template,
        ends=np.array(all_ends, dtype=np.intp),
        x_PQ=np.stack([x_P, x_P + N]),
        x_junc=x_junc,
        x_C=np.stack([x_C1, x_C1 + N]),
    )
