"""Time-stepping driver.

Each time level is advanced by a fixed-point ("freeze and re-solve")
iteration: coefficients are evaluated at the current iterate, one
linear characteristics update plus every node closure produces the next
iterate, and the loop stops when successive iterates agree to the
configured tolerance. For state-independent coefficients the second
iterate reproduces the first, so the step degenerates to one linear
solve; for the physical vessel model the iteration contracts for small
enough dt.

A `NetworkState` holds a time level as one flat vector X = [P | Q |
P_C1 | P_C2] in the layout order of its compiled network, vessel id
order, with read-only views P, Q, P_C1 and P_C2 into it, so levels pass
between the kernels, the condition checks, the extrapolation and the
output without conversion.
A `Stepper` advances one state level by level, adapting dt, choosing
each step's first iterate and checking each level it accepts, the
solvability conditions on the configured cadence included; `run` checks
the initial level, drives a stepper to t_end and emits probe records.

A level's coefficients are evaluated once (`NetworkState.coeffs`) and
checked where a level is accepted or made: `check_coefficients` runs on
each iterate in `freeze_step`, on each accepted level in the stepper's
classification, on the level a stepper starts from, and in a
`picard_step` called without a built old level. There is one way to
build a level, `build_level`, which takes its coefficients as given.

The stepper passes its one `characteristics.Workspace` to every
`picard_step`. The workspace is a pass's state: the step's old
`characteristics.Level`, which the stepper builds into it once per step
and every attempt at the step reads (a `picard_step` without it builds
it there itself), the new level, which each pass's `freeze_step` builds
into it with the step's source terms, and every other array that lives
only within a pass, the interior update's results and the iterate
deviation's scratch included. A warm pass allocates one point-sized
array, the next iterate's level vector X, which never aliases the
workspace: `from_riemann` writes its P and Q and the node closures
scatter into its views, and, accepted, it becomes a read-only
`NetworkState`. Once per step the accepted level's `coeffs`, the
junction pressures and the extrapolated start are allocated too.
`picard_step` sets the one floating-point policy the kernel runs under
and says which guard classifies each non-finite value; a stepper runs
its whole step under it, the old level's build and the accepted level's
checks included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from typing import Callable, Mapping, Sequence

import numpy as np

from .characteristics import Level, VesselField, Workspace, build_level, freeze_step, interior_update
from .compiled import CompiledNetwork, check_coefficients, compile_network, layout_coefficients
from .constitutive import CoefficientSet, PrimitiveState, from_riemann
from .errors import (
    CFLViolation,
    PicardDivergence,
    SimulationError,
    WellPosednessFailure,
)
from .junctions import (
    TransitionalState,
    flow_at_pressure_end,
    pressure_at_flow_end,
    solve_systems,
)
from .network import (
    Branching,
    Diagnostic,
    ExternalFlow,
    ExternalPressure,
    Network,
    Transitional,
    endpoints_by_node,
    validate_network,
)
from .output import ProbeSpec, emit_probes, probe_plan
from .signals import eval_signal
from .wellposedness import ConditionReport, check_state, endpoints_pass

_MAX_HALVINGS = 10
_RESTORE_AFTER = 10


@dataclass
class SimConfig:
    dt: float  # base time step (s)
    t_end: float  # final time (s)
    cfl_max: float = 0.9
    picard_tol: float = 1e-10
    picard_max_iters: int = 50
    epsilon0: float = 1e-10  # area floor (m^2)
    check_every: int = 1  # steps between full condition sweeps

    def __post_init__(self):
        for name in ("dt", "t_end", "cfl_max", "picard_tol", "epsilon0"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.dt <= 0 or self.t_end < 0 or self.cfl_max <= 0:
            raise ValueError("dt, cfl_max must be positive and t_end nonnegative")
        if self.picard_tol <= 0 or self.picard_max_iters < 1:
            raise ValueError("picard_tol must be positive, picard_max_iters >= 1")
        if self.epsilon0 <= 0 or self.check_every < 1:
            raise ValueError("epsilon0 must be positive, check_every >= 1")


@dataclass(frozen=True, eq=False)
class NetworkState:
    """One time level on a compiled layout: its level vector X, P and Q
    at every grid point in layout order, then the capacitor pressures
    P_C1 and P_C2 over `layout.junctions.transitional`, and the junction
    pressures over `layout.junctions.branching` (NaN until a step closes
    the nodes). P, Q, P_C1 and P_C2 are views into X, its
    `layout.parts`. Build one from per-vessel arrays with `from_fields`.
    The arrays are read-only, so `coeffs`, evaluated on first read,
    stays current."""

    t: float
    layout: CompiledNetwork
    X: np.ndarray
    P_junc: np.ndarray
    P: np.ndarray = field(init=False, repr=False)
    Q: np.ndarray = field(init=False, repr=False)
    P_C1: np.ndarray = field(init=False, repr=False)
    P_C2: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.X.setflags(write=False)
        self.P_junc.setflags(write=False)
        for name, part in zip(("P", "Q", "P_C1", "P_C2"), self.layout.parts):
            object.__setattr__(self, name, self.X[part])

    @cached_property
    def coeffs(self) -> CoefficientSet:
        """This level's `layout_coefficients`, unchecked: the one evaluation
        the next step's old level, the condition checks and the output read."""
        return layout_coefficients(self.layout, self.t, self.P, self.Q)

    @classmethod
    def from_fields(
        cls,
        net: Network,
        t: float,
        fields: Mapping[str, VesselField],
        transitional: Mapping[str, TransitionalState] | None = None,
    ) -> "NetworkState":
        """The state of net at time t from one field (P and Q on the
        vessel grid) per vessel and one capacitor state per transitional
        node. Raises ValueError for a network without vessels, or naming
        the vessel or node whose entry is missing, unknown or of the wrong
        length."""
        if not net.vessels:
            raise ValueError("the network has no vessels")
        layout = compile_network(net)
        transitional = {} if transitional is None else transitional
        for what, kind, given, expected in (
            ("field", "vessel", fields, net.vessels),
            ("transitional state", "node", transitional, layout.junctions.transitional),
        ):
            mismatch = sorted(set(given).symmetric_difference(expected))
            if mismatch and mismatch[0] in given:
                raise ValueError(f"{what} for unknown {kind} {mismatch[0]!r}")
            if mismatch:
                raise ValueError(f"no {what} for {kind} {mismatch[0]!r}")
        for vid in layout.vessel_ids:
            n, size = net.vessels[vid].n_cells + 1, fields[vid].P.size
            if size != n:
                raise ValueError(f"vessel {vid!r}: field of {size} points, expected n_cells + 1 = {n}")
        trans = [transitional[nid] for nid in layout.junctions.transitional]
        X = np.concatenate(
            [fields[vid].P for vid in layout.vessel_ids]
            + [fields[vid].Q for vid in layout.vessel_ids]
            + [[ts.P_C1 for ts in trans], [ts.P_C2 for ts in trans]],
            dtype=float,
        )
        return cls(t, layout, X, np.full(len(layout.junctions.branching), np.nan))

    @property
    def fields(self) -> dict[str, VesselField]:
        """Per-vessel views into P and Q, in vessel id order."""
        items = self.layout.slices.items()
        return {vid: VesselField(vid, self.t, self.P[sl], self.Q[sl]) for vid, sl in items}

    @property
    def transitional(self) -> dict[str, TransitionalState]:
        pairs = zip(self.P_C1.tolist(), self.P_C2.tolist())
        return {nid: TransitionalState(*p) for nid, p in zip(self.layout.junctions.transitional, pairs)}

    @property
    def junction_pressures(self) -> dict[str, float]:
        return dict(zip(self.layout.junctions.branching, self.P_junc.tolist()))


@dataclass
class SimReport:
    """Summary of a run. Every field is a running count or extreme, so
    the report's size does not grow with the number of steps."""

    steps: int = 0
    picard_total: int = 0
    # accepted steps by the number of fixed-point iterations they took
    iteration_histogram: dict[int, int] = field(default_factory=dict)
    # successive deviation pairs (d_k, d_k+1) within a step, the pairs
    # with d_k+1 >= d_k, and the largest ratio d_k+1 / d_k
    contraction_pairs: int = 0
    non_contracting_pairs: int = 0
    worst_contraction_ratio: float = 0.0
    dt_adjustments: int = 0
    # accepted steps started from a linear to quartic extrapolation, and
    # steps whose extrapolated start failed and were retried from the
    # previous level
    extrapolated_steps: int = 0
    extrapolation_retries: int = 0
    full_checks: int = 0  # passed full condition sweeps, the t=0 one included
    # largest junction-solve residual over its gate scale (the gate is
    # 1e-10), over every node closure of the run
    worst_closure_residual: float = 0.0
    # largest junction condition estimate of any full sweep, and its node
    worst_junction_condition: float = 0.0
    worst_junction_node: str = ""
    final_state: NetworkState | None = None

    @property
    def t_final(self) -> float:
        return self.final_state.t if self.final_state is not None else 0.0

    def record_step(self, iterations: int, history: Sequence[float]) -> None:
        self.steps += 1
        self.picard_total += iterations
        self.iteration_histogram[iterations] = self.iteration_histogram.get(iterations, 0) + 1
        for d1, d2 in zip(history, history[1:]):
            self.contraction_pairs += 1
            if d2 >= d1:
                self.non_contracting_pairs += 1
            ratio = d2 / d1 if d1 > 0 else float("inf")
            self.worst_contraction_ratio = max(self.worst_contraction_ratio, ratio)

    def record_junctions(self, rep: ConditionReport) -> None:
        """Keep the largest junction condition estimate of a sweep if it
        exceeds the worst so far; ties keep the first node in node id
        order, and NaN estimates are never kept."""
        est = rep.junction_estimates
        if not est.size:
            return
        k = int(np.argmax(np.where(np.isnan(est), -np.inf, est)))
        if est[k] > self.worst_junction_condition:
            self.worst_junction_condition = float(est[k])
            self.worst_junction_node = rep.junction_nodes[k]

    def median_iterations(self) -> float:
        """Median of the per-step iteration counts (as numpy.median)."""
        if not self.steps:
            return float("nan")
        hist = self.iteration_histogram
        return float(np.median(np.repeat(list(hist), list(hist.values()))))


# --- initial state -------------------------------------------------------


InitField = float | Sequence[float] | Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class VesselInit:
    P: InitField = 0.0
    Q: InitField = 0.0


@dataclass(frozen=True)
class InitSpec:
    default: VesselInit | None = None
    per_vessel: dict[str, VesselInit] = field(default_factory=dict)

    def for_vessel(self, vid: str) -> VesselInit:
        if vid in self.per_vessel:
            return self.per_vessel[vid]
        if self.default is not None:
            return self.default
        raise ValueError(f"no initial condition for vessel {vid!r}")


def _sample(spec: InitField, x: np.ndarray, what: str) -> np.ndarray:
    if callable(spec):
        out = np.asarray(spec(x), dtype=float)
        if out.shape != x.shape:
            raise ValueError(f"{what}: callable returned shape {out.shape}, expected {x.shape}")
        return out
    arr = np.asarray(spec, dtype=float)
    if arr.ndim == 0:
        return np.full(x.shape, float(arr))
    if arr.shape != x.shape:
        raise ValueError(f"{what}: array of length {arr.size}, expected {x.size}")
    return arr


def initial_state(
    net: Network, init: InitSpec, cfg: SimConfig
) -> tuple[NetworkState, list]:
    """Sample the initial fields on every vessel grid, seed the
    transitional capacitor states, and report node compatibility
    residuals (warning above 1e-6 relative, error above 1e-2)."""
    fields = {}
    for vid in sorted(net.vessels):
        x = net.vessels[vid].grid
        spec = init.for_vessel(vid)
        fields[vid] = VesselField(
            vid, 0.0, _sample(spec.P, x, f"{vid}.P"), _sample(spec.Q, x, f"{vid}.Q")
        )

    def end_val(arr_name, vid, end):
        arr = getattr(fields[vid], arr_name)
        return float(arr[0] if end == "x0" else arr[-1])

    nodes = sorted(net.nodes.items())
    transitional = {
        nid: TransitionalState(
            node.P_C1_init if node.P_C1_init is not None
            else float(np.mean([end_val("P", a.vessel, "x1") for a in node.arteries])),
            node.P_C2_init if node.P_C2_init is not None
            else float(np.mean([end_val("P", a.vessel, "x0") for a in node.veins])),
        )
        for nid, node in nodes
        if isinstance(node, Transitional)
    }
    state = NetworkState.from_fields(net, 0.0, fields, transitional)
    cn = state.layout
    # raises CollapsedVesselError if the area floor is violated
    check_coefficients(cn, state.P, state.coeffs, cfg.epsilon0)
    # the area at each vessel end, keyed (vessel id, end) in end order
    end_area = dict(zip(product(cn.vessel_ids, ("x0", "x1")), state.coeffs.A[cn.ends].tolist()))

    diags: list[Diagnostic] = []
    ends_by_node = endpoints_by_node(net)
    for nid, node in nodes:
        ends = ends_by_node[nid]
        if isinstance(node, Transitional):
            ts = transitional[nid]
            # artery: R Q = P - P_C1 at x=1; vein: R Q = P_C2 - P at x=0
            for leg, end, sign, p_c, atts in (("artery", "x1", 1.0, ts.P_C1, node.arteries),
                                              ("vein", "x0", -1.0, ts.P_C2, node.veins)):
                for att in atts:
                    P, Q = end_val("P", att.vessel, end), end_val("Q", att.vessel, end)
                    _residual_diag(diags, nid, f"{leg} {att.vessel} resistive relation",
                                   att.resistance * Q - sign * (P - p_c), scale=max(1.0, abs(P)))
        elif isinstance(node, Branching):
            q_in = sum(end_val("Q", vid, end) for vid, end, o in ends if o == "incoming")
            q_out = sum(end_val("Q", vid, end) for vid, end, o in ends if o == "outgoing")
            q_scale = max(1.0, sum(abs(end_val("Q", vid, end)) for vid, end, _ in ends))
            _residual_diag(diags, nid, "flow balance", q_in - q_out, scale=q_scale)
            # implied node pressure minimizing the initial momentum residuals
            weights = [end_area[(att.vessel, att.end)] / att.rho_j for att in node.attachments]
            pressures = [end_val("P", att.vessel, att.end) for att in node.attachments]
            # an overflow gives an infinite spread, reported as any other
            # residual, or a NaN one (inf / inf), which reports nothing
            with np.errstate(over="ignore", invalid="ignore"):
                pj = float(np.dot(weights, pressures) / np.sum(weights))
            spread = max(abs(p - pj) for p in pressures)
            _residual_diag(diags, nid, "pressure continuity", spread,
                           scale=max(1.0, max(abs(p) for p in pressures)))
        elif isinstance(node, (ExternalPressure, ExternalFlow)) and len(ends) == 1:
            vid, end, _ = ends[0]
            sig0 = eval_signal(node.signal, 0.0)
            q, what = ("P", "pressure") if isinstance(node, ExternalPressure) else ("Q", "flow")
            _residual_diag(diags, nid, f"boundary {what}", end_val(q, vid, end) - sig0,
                           scale=max(1.0, abs(sig0)))

    return state, diags


def _residual_diag(diags, nid, what, res, scale):
    rel = abs(res) / scale
    if rel >= 1e-2:
        diags.append(Diagnostic("error", nid, f"initial {what} residual {rel:.3e}"))
    elif rel >= 1e-6:
        diags.append(Diagnostic("warning", nid, f"initial {what} residual {rel:.3e}"))


# --- one time level ------------------------------------------------------


def _deviation(cn: CompiledNetwork, new: np.ndarray, old: np.ndarray, scratch: np.ndarray) -> float:
    """Relative sup-norm distance between iterates, two level vectors:
    the largest of max |new - old| / (1 + max |new|) over each segment
    of the layout's `segments`, each vessel's P and Q and each capacitor.
    A non-finite iterate gives NaN, which never passes the tolerance.
    scratch is one level vector."""
    scale = 1.0 + np.maximum.reduceat(np.abs(new, out=scratch), cn.segments)
    change = np.abs(np.subtract(new, old, out=scratch), out=scratch)
    return float(np.maximum.reduce(np.maximum.reduceat(change, cn.segments) / scale))


def _non_finite_site(cn: CompiledNetwork, P, Q, P_C1, P_C2) -> str:
    """Where an iterate first holds a non-finite value: the vessel and
    local x-index of its first such P or Q point in vessel id order, else
    the transitional node of its first such capacitor pressure."""
    bad = ~(np.isfinite(P) & np.isfinite(Q))
    if bad.any():
        k = int(np.argmax(bad))
        return f" in vessel {cn.vessel_at(k)!r} at x-index {int(cn.local[k])}"
    bad = ~(np.isfinite(P_C1) & np.isfinite(P_C2))
    if bad.any():
        return f" at transitional node {cn.junctions.transitional[int(np.argmax(bad))]!r}"
    return ""


def picard_step(
    state_prev: NetworkState,
    cfg: SimConfig,
    dt: float | None = None,
    report: SimReport | None = None,
    start: np.ndarray | None = None,
    work: Workspace | None = None,
    old: Level | None = None,
) -> tuple[NetworkState, int, list[float]]:
    """Advance one time level of the state's layout by fixed-point
    iteration.

    The step reads old, the state's level built (`build_level`) from its
    cached coefficients, which a `Stepper` passes to every attempt at a
    step; without it, check those coefficients (`check_coefficients`)
    and build the level into work. Starting from the level vector
    `start` (the first iterate of the new level) or, without one, from
    the previous level's X, repeatedly freeze the coefficients at the
    iterate, run the linear characteristics update on all vessels at
    once, close every node, and stop when the relative sup deviation
    between iterates drops below cfg.picard_tol; a non-finite iterate
    raises `PicardDivergence` on the pass that makes it, naming its
    first non-finite point. Returns the converged state, the number of
    iterations used, and the deviation history. A given report collects
    the closure residuals. The passes write into work, a `Workspace` of
    the state's layout (a new one without it).

    The step runs under one floating-point policy: an overflow or an
    invalid operation leaves its inf or NaN without a warning, and a
    guard downstream classifies it. A non-finite coefficient, area or
    slope fails `check_coefficients` before a level is built, and a
    non-finite speed `eigen` when it is; a non-finite travel fails the
    Courant guard and a non-finite source coupling the stiffness guard
    of `interior_update`, which also raises for a non-finite resolved
    value at a vessel end; NaN at a foot that left its vessel is
    overwritten by the node closures, whose junction solves fail a
    non-finite residual; any other non-finite iterate makes the
    deviation NaN, which raises `PicardDivergence`.
    `power_law_coefficients` and `eigen` set their own policy, which
    they need when called alone.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        cn = state_prev.layout
        work = Workspace(cn) if work is None else work
        dt = cfg.dt if dt is None else dt
        t_new = state_prev.t + dt

        boundary = (
            np.array([eval_signal(node.signal, t_new) for node in cn.pressure_ends.nodes]),
            np.array([eval_signal(node.signal, t_new) for node in cn.flow_ends.nodes]),
        )
        q_prev = state_prev.Q[cn.ends]
        systems = cn.junctions.step(dt, q_prev, state_prev.P_C1, state_prev.P_C2)
        cur = state_prev.X if start is None else start
        P, Q = cur[cn.parts[0]], cur[cn.parts[1]]
        P_junc = np.empty(len(cn.junctions.branching))
        if old is None:
            check_coefficients(cn, state_prev.P, state_prev.coeffs, cfg.epsilon0)
            old = build_level(cn, state_prev.t, state_prev.P, state_prev.Q, state_prev.coeffs, work.old)

        history: list[float] = []
        for iteration in range(1, cfg.picard_max_iters + 1):
            freeze_step(cn, old, t_new, P, Q, cfg.epsilon0, work)
            interior_update(work, cfg.cfl_max)
            X = np.empty(cur.size)  # the next iterate
            P, Q, P_C1, P_C2 = [X[part] for part in cn.parts]
            # NaN at unresolved endpoint entries propagates and is
            # overwritten by the node closures below
            from_riemann(work.new.coeffs, work.new.eig, work.rs, PrimitiveState(P, Q), work.row_a)
            residual = _close_nodes(cn, work, boundary, systems, P, Q, P_C1, P_C2, P_junc)
            if report is not None:
                report.worst_closure_residual = max(report.worst_closure_residual, residual)

            dev = _deviation(cn, X, cur, work.deviation)
            history.append(dev)
            if math.isnan(dev):  # a non-finite iterate never passes the tolerance
                raise PicardDivergence(
                    f"fixed-point iterate is not finite{_non_finite_site(cn, P, Q, P_C1, P_C2)} "
                    f"at t = {t_new:.6g} (iteration {iteration}); reduce dt",
                    deviations=history,
                )
            cur = X
            if dev <= cfg.picard_tol:
                return NetworkState(t_new, cn, X, P_junc), iteration, history

        raise PicardDivergence(
            f"fixed-point iteration did not converge in {cfg.picard_max_iters} iterations "
            f"at t = {t_new:.6g} (deviations {history[-3:]}); reduce dt",
            deviations=history,
        )


def _close_nodes(
    cn: CompiledNetwork, work, boundary, systems, P, Q, P_C1, P_C2, P_junc,
) -> float:
    """Close every node at the new time level, writing the endpoint
    states into the flat P and Q, the capacitor pressures into P_C1 and
    P_C2 and the junction pressures into P_junc.

    The resolved characteristic value at each end, work's `known`
    (finite: `interior_update` raises for any other), carries a linear
    coupling `kP`, `kQ` to the endpoint state (from the new-level source
    term of the trapezoidal rule); each closure folds it into its
    characteristic row cp P + cq Q = char, so one solve satisfies the
    closure and the coupling exactly. The external ends of each kind are
    solved in closed form, elementwise; every junction node is solved in
    one stack, the layout's systems of this step (`JunctionLayout.step`),
    which each pass fills in place (`JunctionLayout.fill`).
    Returns the largest junction residual over its gate scale.
    """
    points, char = cn.ends, work.known
    cs, eig = work.new.coeffs, work.new.eig
    lam = work.new.lam.take(cn.end_incoming)
    a = cs.a[points]
    cp = -lam - work.kP
    cq = a - work.kQ

    # prescribed pressures, then prescribed flows, each raising for its
    # first failing end
    P_B, Q_B = boundary
    bc = cn.pressure_ends
    if bc.ends.size:
        k, at = bc.ends, bc.points
        P[at] = P_B
        Q[at] = flow_at_pressure_end(cn.vessel_ids, k, a[k], cp[k], cq[k], char[k], P_B)
    bc = cn.flow_ends
    if bc.ends.size:
        k, at = bc.ends, bc.points
        P[at] = pressure_at_flow_end(cn.vessel_ids, k, lam[k], eig.u[at], cp[k], cq[k], char[k], Q_B)
        Q[at] = Q_B

    jl = cn.junctions
    if not jl.nodes:
        return 0.0
    M, b = systems
    jl.fill(M, b, cp, cq, char, cs.A[points])
    x, ratio = solve_systems(M, b, jl.nodes)
    at = cn.junction_points
    P[at], Q[at] = x.take(jl.x_PQ)
    P_C1[:], P_C2[:] = x.take(jl.x_C)
    x.take(jl.x_junc, out=P_junc)
    return float(np.maximum.reduce(ratio))


# --- outer time loop -----------------------------------------------------


# accepted levels the extrapolated start reaches back over: up to quartic
_LEVELS = 5


class _DifferenceTable:
    """The backward differences of the current level vector X over the
    last `n` accepted levels at one spacing: `rows[k]` holds the k-th
    difference of X for k < n. The rows are those of one preallocated
    (_LEVELS, X.size) table, so accepting a level takes one copy and one
    subtraction per order in place and no level is kept. Its `start` is a
    level vector: a `NetworkState` only ever holds an accepted level."""

    def __init__(self, state: NetworkState):
        self.rows = list(np.empty((_LEVELS, state.X.size)))
        self.n = 0
        self.push(state)

    def push(self, state: NetworkState) -> None:
        """Make `state` the current level, one spacing after the last."""
        # the last row is unused or holds the order the new level drops
        new = self.rows[-1]
        np.copyto(new, state.X)
        lower = new
        for row in self.rows[: min(self.n, _LEVELS - 1)]:
            # the next order: this order at the new level minus it at the last
            np.subtract(lower, row, out=row)
            lower = row
        self.rows = [new] + self.rows[:-1]
        self.n = min(self.n + 1, _LEVELS)

    def start(self) -> np.ndarray | None:
        """`_extrapolate` of the rows: the first iterate of the next
        level as a level vector, or None."""
        return _extrapolate(self.rows[: self.n])


def _extrapolate(diffs: Sequence[np.ndarray]) -> np.ndarray | None:
    """First iterate of the next level, flat: the polynomial of degree
    n - 1 through the last n accepted levels at equal spacing, from the
    backward differences of the current level X as
    X + dX + d^2 X + ... + d^(n-1) X; None (start from the current
    level) for one level. Constant levels return the current level's
    values exactly."""
    if len(diffs) < 2:
        return None
    value = diffs[0] + diffs[1]
    for row in diffs[2:]:
        value += row
    return value


def time_tolerance(t_end: float) -> float:
    """How far short of a time a level may fall and still have reached
    it, on a run to t_end: the rounding that summing steps leaves in t.
    `run` stops at the first level that reaches t_end, and the CLI
    writes each snapshot at the first level that reaches its time."""
    return 1e-12 * max(1.0, t_end)


class Stepper:
    """Advances `state` by one accepted time level per `advance()`, the
    last one ending at cfg.t_end, counting steps, dt halvings and
    extrapolated starts into `report`.

    Each step starts from a polynomial extrapolation in time through the
    last accepted levels that share its dt: constant from one level, up
    to quartic from five (`_extrapolate`). Their backward differences
    live in one `_DifferenceTable`, updated in place as each level is
    accepted and restarted from the current level on any dt change (a
    last step short of dt only by the rounding of t is no change). A step
    that raises from an extrapolated start is retried once from the
    constant start, and only the retry counts, so the start decides how
    many iterations a step takes, never whether it succeeds. Only a
    `CFLViolation` or `PicardDivergence` from the constant start halves
    dt, which climbs back one rung per `_RESTORE_AFTER` clean steps; past
    `_MAX_HALVINGS` halvings the step raises `SimulationError`.

    Each step builds the old level of the state it steps from once,
    before its first attempt, and passes it to every attempt: a retried
    start and a halved dt reuse it, and a build that fails (`eigen`)
    raises at once, without a retry. The whole step runs under
    `picard_step`'s floating-point policy.

    Each accepted level is checked before `advance` returns it
    (`_classify`): a failing condition raises `WellPosednessFailure`, and
    coefficients that fail `check_coefficients` raise its error. Levels
    are swept fully every cfg.check_every steps, counted into report
    with their junction estimates. The level a stepper starts from has
    its coefficients checked when the stepper is made; its conditions
    are its caller's to check.
    """

    def __init__(self, state: NetworkState, cfg: SimConfig, report: SimReport):
        check_coefficients(state.layout, state.P, state.coeffs, cfg.epsilon0)
        self.state, self.cfg, self.report = state, cfg, report
        self._dt, self._depth, self._clean = cfg.dt, 0, 0  # depth: halvings below cfg.dt
        self._tiny = time_tolerance(cfg.t_end)
        # differences of the accepted levels spaced by `_spacing`
        self._table, self._spacing = _DifferenceTable(state), None
        self._work = Workspace(state.layout)

    def advance(self) -> NetworkState:
        """The next accepted level. Raises ValueError, before any step,
        once the state has reached cfg.t_end (within `time_tolerance`)."""
        state, cfg, report = self.state, self.cfg, self.report
        if state.t >= cfg.t_end - self._tiny:
            raise ValueError(f"the state at t = {state.t!r} has reached t_end = {cfg.t_end!r}")
        # the step's one floating-point policy, picard_step's
        with np.errstate(over="ignore", invalid="ignore"):
            old = build_level(state.layout, state.t, state.P, state.Q, state.coeffs, self._work.old)
            retry = False
            while True:
                dt = min(self._dt, cfg.t_end - state.t)
                # a last step short of dt only by the rounding of t keeps the history
                if self._spacing is None or abs(dt - self._spacing) > self._tiny:
                    self._table.n, self._spacing = 1, dt
                start = None if retry else self._table.start()
                try:
                    new, iters, hist = picard_step(
                        state, cfg, dt, report=report, start=start, work=self._work, old=old
                    )
                    break
                except SimulationError as exc:
                    retry = start is not None
                    if retry:
                        report.extrapolation_retries += 1
                        continue
                    if not isinstance(exc, (CFLViolation, PicardDivergence)):
                        raise
                    if self._depth >= _MAX_HALVINGS:
                        raise SimulationError(
                            f"step failed at t = {state.t:.6g} after {self._depth} dt halvings: {exc}"
                        ) from exc
                    self._depth, self._clean, self._dt = self._depth + 1, 0, 0.5 * self._dt
                    report.dt_adjustments += 1

            self.state = new
            report.record_step(iters, hist)
            report.extrapolated_steps += start is not None
            self._table.push(new)
            if self._depth:
                self._clean += 1
                if self._clean >= _RESTORE_AFTER:
                    self._depth, self._clean, self._dt = self._depth - 1, 0, min(cfg.dt, 2.0 * self._dt)
            self._classify(new)
        return new

    def _classify(self, state: NetworkState) -> None:
        """Check an accepted level, in the order that classifies it: the
        condition verdict, which raises `WellPosednessFailure` (a full
        `check_state` sweep every cfg.check_every steps, else
        `endpoints_pass` on the coefficients at the vessel ends, with
        `check_state` at the ends only for the report of a failure), then
        `check_coefficients`. Both read `state.coeffs`, as the caller's
        output of the level does; the next `advance` builds the level
        from them, so a failure of its `eigen` comes after that output."""
        cfg, report = self.cfg, self.report
        layout, cs = state.layout, state.coeffs
        full = report.steps % cfg.check_every == 0
        if full or not endpoints_pass(layout, cs, cfg.epsilon0):
            rep = check_state(state, cfg, endpoints_only=not full)
            if not rep.passed:
                raise WellPosednessFailure(
                    f"solvability check failed at t = {state.t:.6g}: " + "; ".join(rep.failures()),
                    report=rep,
                    t=state.t,
                )
            if full:  # an endpoint-only report carries no junction estimates
                report.full_checks += 1
                report.record_junctions(rep)
        check_coefficients(layout, state.P, cs, cfg.epsilon0)


def run(
    net: Network,
    init: NetworkState,
    cfg: SimConfig,
    probes: Sequence[ProbeSpec] = (),
    sink=None,
    on_step: Callable[[NetworkState], None] | None = None,
) -> SimReport:
    """Advance the network from the initial state to cfg.t_end with a
    `Stepper`, on the layout `init` was built on (`initial_state` or
    `NetworkState.from_fields` with the same `net`; ValueError if not).
    Checks the initial level with a full condition sweep; the stepper
    checks its coefficients, and each level it accepts (a full sweep
    every cfg.check_every steps, the vessel ends otherwise) before the
    level's probe records are emitted, one per probe quantity per step.
    Raises if a check fails, or as `Stepper.advance` does."""
    errors = [d for d in validate_network(net) if d.severity == "error"]
    if errors:
        raise WellPosednessFailure(
            "network validation failed: " + "; ".join(f"{d.subject}: {d.message}" for d in errors)
        )

    if init.layout.network is not net:
        raise ValueError("the initial state was not built on this network")

    plan = probe_plan(init.layout, probes) if sink is not None and probes else None
    report = SimReport()
    state = init
    pre = check_state(state, cfg)
    if not pre.passed:
        raise WellPosednessFailure(
            "solvability check failed at t=0: " + "; ".join(pre.failures()), report=pre, t=state.t
        )
    report.full_checks += 1
    report.record_junctions(pre)

    stepper = Stepper(state, cfg, report)
    t_stop = cfg.t_end - time_tolerance(cfg.t_end)
    while state.t < t_stop:
        state = stepper.advance()  # checked
        if plan is not None:
            emit_probes(sink, plan, state)
        if on_step is not None:
            on_step(state)

    report.final_state = state
    return report
