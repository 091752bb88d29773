"""Time-stepping driver.

Each time level is advanced by a fixed-point ("freeze and re-solve")
iteration: coefficients are evaluated at the current iterate, one
linear characteristics update plus every node closure produces the next
iterate, and the loop stops when successive iterates agree to the
configured tolerance. For state-independent coefficients the second
iterate reproduces the first, so the step degenerates to one linear
solve; for the physical vessel model the iteration contracts for small
enough dt.

The outer loop advances these steps over [0, t_end], runs the
solvability checks on the configured cadence, emits probe records, and
adapts dt (halve, retry, restore) when a step fails on the Courant
bound or fails to converge. It starts each fixed-point loop from a
polynomial extrapolation in time through the last accepted levels that
share the step's dt: constant from one level, linear from two,
quadratic from three. Any dt change restarts that history from the
current level, and a step that fails from an extrapolated start is
retried once from the constant start before dt is halved, so the start
decides how many iterations a step takes, never whether it succeeds.

A `NetworkState` holds a time level as flat arrays in the layout order
of its compiled network, so levels pass between the kernels, the
condition checks, the extrapolation and the output without conversion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Mapping, Sequence

import numpy as np

from .characteristics import VesselField, freeze_step, interior_update
from .compiled import CompiledNetwork, check_coefficients, compile_network, layout_coefficients
from .constitutive import CoefficientSet, RiemannPair, from_riemann
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
from .output import ProbeSpec, emit_probes
from .signals import eval_signal
from .wellposedness import ConditionReport, check_state

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
    """One time level on a compiled layout: P and Q at every grid point
    in layout order, the capacitor pressures over
    `layout.junctions.transitional` and the junction pressures over
    `layout.junctions.branching` (NaN until a step closes the nodes).
    Build one from per-vessel arrays with `from_fields`. The arrays are
    read-only, so `coeffs`, evaluated on first read, stays current."""

    t: float
    layout: CompiledNetwork
    P: np.ndarray
    Q: np.ndarray
    P_C1: np.ndarray
    P_C2: np.ndarray
    P_junc: np.ndarray

    def __post_init__(self):
        for v in (self.P, self.Q, self.P_C1, self.P_C2, self.P_junc):
            v.setflags(write=False)

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
        node. Raises ValueError naming the vessel or node whose entry is
        missing, unknown or of the wrong length."""
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
        return cls(
            t=t,
            layout=layout,
            P=np.concatenate([fields[vid].P for vid in layout.vessel_ids], dtype=float),
            Q=np.concatenate([fields[vid].Q for vid in layout.vessel_ids], dtype=float),
            P_C1=np.array([ts.P_C1 for ts in trans], dtype=float),
            P_C2=np.array([ts.P_C2 for ts in trans], dtype=float),
            P_junc=np.full(len(layout.junctions.branching), np.nan),
        )

    @property
    def fields(self) -> dict[str, VesselField]:
        """Per-vessel views into P and Q, in vessel id order."""
        items = sorted(self.layout.slices.items())
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
    # accepted steps started from a linear or quadratic extrapolation, and
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

        def at(rank):
            seen = 0
            for iters in sorted(self.iteration_histogram):
                seen += self.iteration_histogram[iters]
                if rank < seen:
                    return iters

        return 0.5 * (at((self.steps - 1) // 2) + at(self.steps // 2))


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
    A = state.coeffs.A[cn.end_point]
    end_area = dict(zip(zip(cn.end_vessel_id, cn.end_name), A.tolist()))

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
            # an overflow leaves a non-finite residual, reported as any other
            with np.errstate(over="ignore"):
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


def _deviation(cn: CompiledNetwork, new: Sequence[np.ndarray], old: Sequence[np.ndarray]) -> float:
    """Relative sup-norm distance between iterates (P, Q, P_C1, P_C2):
    max |new - old| / (1 + max |new|) over each vessel segment of P and
    Q, and |new - old| / (1 + |new|) at each capacitor."""
    starts = cn.offsets[:-1]
    dev = 0.0
    for x_new, x_old in zip(new[:2], old[:2]):
        scale = 1.0 + np.maximum.reduceat(np.abs(x_new), starts)
        diff = np.maximum.reduceat(np.abs(x_new - x_old), starts)
        dev = max(dev, float(np.max(diff / scale)))
    if cn.junctions.transitional:
        for x_new, x_old in zip(new[2:], old[2:]):
            dev = max(dev, float(np.max(np.abs(x_new - x_old) / (1.0 + np.abs(x_new)))))
    return dev


def picard_step(
    state_prev: NetworkState,
    cfg: SimConfig,
    dt: float | None = None,
    report: SimReport | None = None,
    start: NetworkState | None = None,
) -> tuple[NetworkState, int, list[float]]:
    """Advance one time level of the state's layout by fixed-point
    iteration.

    Starting from the arrays of `start` (the first iterate of the new
    level) or, without one, from the previous level (constant-in-time
    extrapolation), repeatedly freeze the coefficients at the iterate,
    run the linear characteristics update on all vessels at once, close
    every node, and stop when the relative sup deviation between
    iterates drops below cfg.picard_tol. Returns the converged state,
    the number of iterations used, and the deviation history. A given
    report collects the closure residuals.
    """
    cn = state_prev.layout
    dt = cfg.dt if dt is None else dt
    t_new = state_prev.t + dt

    P_prev, Q_prev = state_prev.P, state_prev.Q
    boundary = tuple(
        np.array([eval_signal(node.signal, t_new) for node in bc.nodes])
        for bc in (cn.pressure_ends, cn.flow_ends)
    )
    q_prev = Q_prev[cn.end_point]
    systems = [
        group.step(dt, q_prev, state_prev.P_C1, state_prev.P_C2) for group in cn.junctions.groups
    ]
    start = state_prev if start is None else start
    cur = (start.P, start.Q, start.P_C1, start.P_C2)
    P_junc = np.empty(len(cn.junctions.branching))

    history: list[float] = []
    old_level = None
    for iteration in range(1, cfg.picard_max_iters + 1):
        frozen = freeze_step(
            cn, state_prev.t, P_prev, Q_prev, t_new, cur[0], cur[1], cfg.epsilon0,
            old_level=old_level, old_coeffs=state_prev.coeffs,
        )
        old_level = frozen.old
        upd = interior_update(frozen, cfg.cfl_max)
        # NaN at unresolved endpoint entries propagates and is
        # overwritten by the node closures below
        with np.errstate(invalid="ignore"):
            st = from_riemann(frozen.new.coeffs, frozen.new.eig, RiemannPair(*upd.rs))
        nxt = (st.P, st.Q, np.empty_like(cur[2]), np.empty_like(cur[3]))
        residual = _close_nodes(cn, frozen, upd, boundary, systems, t_new, *nxt, P_junc)
        if report is not None:
            report.worst_closure_residual = max(report.worst_closure_residual, residual)

        dev = _deviation(cn, nxt, cur)
        history.append(dev)
        cur = nxt
        if dev <= cfg.picard_tol:
            return NetworkState(t_new, cn, *cur, P_junc), iteration, history

    raise PicardDivergence(
        f"fixed-point iteration did not converge in {cfg.picard_max_iters} iterations "
        f"at t = {t_new:.6g} (deviations {history[-3:]}); reduce dt",
        deviations=history,
    )


def _close_nodes(
    cn: CompiledNetwork, frozen, upd, boundary, systems, t_new, P, Q, P_C1, P_C2, P_junc,
) -> float:
    """Close every node at the new time level, writing the endpoint
    states into the flat P and Q, the capacitor pressures into P_C1 and
    P_C2 and the junction pressures into P_junc.

    The resolved characteristic value at each end carries a linear
    coupling to the endpoint state (from the new-level source term of
    the trapezoidal rule); each closure folds it into its characteristic
    row cp P + cq Q = char, so one solve satisfies the closure and the
    coupling exactly. The external ends of each kind are solved in
    closed form, elementwise; the junction nodes of each kind and size
    are solved as one stack, in the group's systems of this step
    (`JunctionGroup.step`), which each pass fills in place.
    Returns the largest junction residual over its gate scale.
    """
    x1, points = cn.end_x1, cn.end_point
    row = 2 * cn.end_vessel + x1  # each end's entry of upd.ends
    char = upd.ends.known[row]
    if not np.all(np.isfinite(char)):
        k = int(np.argmin(np.isfinite(char)))
        raise WellPosednessFailure(
            f"vessel {cn.end_vessel_id[k]!r} end {cn.end_name[k]}: the interior-determined "
            "characteristic left the domain; endpoint split condition violated",
            t=t_new,
        )
    cs, eig = frozen.new.coeffs, frozen.new.eig
    lam = np.where(x1, eig.lambda_L[points], eig.lambda_R[points])
    a = cs.a[points]
    cp = -lam - upd.ends.kP[row]
    cq = a - upd.ends.kQ[row]

    # prescribed pressures, then prescribed flows, each raising for its
    # first failing end
    P_B, Q_B = boundary
    bc = cn.pressure_ends
    if bc.ends.size:
        k, at = bc.ends, points[bc.ends]
        P[at] = P_B
        Q[at] = flow_at_pressure_end(bc.vessel_ids, a[k], cp[k], cq[k], char[k], P_B)
    bc = cn.flow_ends
    if bc.ends.size:
        k, at = bc.ends, points[bc.ends]
        P[at] = pressure_at_flow_end(
            bc.vessel_ids, bc.end_names, lam[k], eig.u[at], cp[k], cq[k], char[k], Q_B
        )
        Q[at] = Q_B

    residual = 0.0
    A = cs.A[points]
    for group, (M, b) in zip(cn.junctions.groups, systems):
        group.fill(M, b, cp, cq, char, A)
        x, ratio = solve_systems(M, b, group.node_ids)
        residual = max(residual, float(np.max(ratio)))
        at = points[group.ends]
        mu = at.shape[1]
        P[at] = x[:, 0 : 2 * mu : 2]
        Q[at] = x[:, 1 : 2 * mu : 2]
        if group.kind is Branching:
            P_junc[group.slots] = x[:, -1]
        else:
            P_C1[group.slots] = x[:, -2]
            P_C2[group.slots] = x[:, -1]
    return residual


# --- outer time loop -----------------------------------------------------


_EXTRAPOLATED = ("P", "Q", "P_C1", "P_C2")


def _extrapolate(levels: Sequence[NetworkState]) -> NetworkState | None:
    """First iterate of the next level (its P, Q, P_C1 and P_C2) from
    the last accepted levels at equal spacing, oldest first: None (start
    from the last level) for one level, linear 2 X1 - X0 for two,
    quadratic 3 X2 - 3 X1 + X0 for three."""
    if len(levels) == 2:
        x0, x1 = levels
        return replace(x1, **{k: 2.0 * getattr(x1, k) - getattr(x0, k) for k in _EXTRAPOLATED})
    if len(levels) == 3:
        x0, x1, x2 = levels
        return replace(x2, **{
            k: 3.0 * (getattr(x2, k) - getattr(x1, k)) + getattr(x0, k) for k in _EXTRAPOLATED
        })
    return None


def run(
    net: Network,
    init: NetworkState,
    cfg: SimConfig,
    probes: Sequence[ProbeSpec] = (),
    sink=None,
    on_step: Callable[[NetworkState], None] | None = None,
) -> SimReport:
    """Advance the network from the initial state to cfg.t_end, on the
    layout `init` was built on (`initial_state` or
    `NetworkState.from_fields` with the same `net`; ValueError if not).

    Emits one probe record per probe quantity per completed step, runs
    the condition checks on the configured cadence (full sweep every
    cfg.check_every steps, endpoint checks every step), and halves dt
    on Courant or convergence failures, restoring the base step after
    ten clean steps. Each step starts from the extrapolation of the last
    accepted levels at its dt (see `_extrapolate`); a step that raises
    from an extrapolated start is retried once from the previous level,
    and only that retry counts. Raises if a condition check fails or dt
    would drop below dt / 2**10.
    """
    errors = [d for d in validate_network(net) if d.severity == "error"]
    if errors:
        raise WellPosednessFailure(
            "network validation failed: " + "; ".join(f"{d.subject}: {d.message}" for d in errors)
        )

    if init.layout.network is not net:
        raise ValueError("the initial state was not built on this network")

    report = SimReport()
    state = init
    pre = check_state(state, cfg)
    if not pre.passed:
        raise WellPosednessFailure(
            "solvability check failed at t=0: " + "; ".join(pre.failures()), report=pre, t=state.t
        )
    report.full_checks += 1
    report.record_junctions(pre)

    base_dt = cfg.dt
    cur_dt = base_dt
    depth = 0  # halving depth below the base step
    clean_streak = 0
    tiny = 1e-12 * max(1.0, cfg.t_end)

    # accepted levels spaced by `spacing`, oldest first, the current one last
    levels, spacing = [state], None
    while state.t < cfg.t_end - tiny:
        dt_step = min(cur_dt, cfg.t_end - state.t)
        if dt_step != spacing:
            levels, spacing = levels[-1:], dt_step
        start = _extrapolate(levels)
        try:
            try:
                state_new, iters, hist = picard_step(state, cfg, dt_step, report=report, start=start)
            except SimulationError:
                if start is None:
                    raise
                # only the retry from the previous level counts
                report.extrapolation_retries += 1
                start = None
                state_new, iters, hist = picard_step(state, cfg, dt_step, report=report)
        except (CFLViolation, PicardDivergence) as exc:
            if depth >= _MAX_HALVINGS:
                raise SimulationError(
                    f"step failed at t = {state.t:.6g} after {depth} dt halvings: {exc}"
                ) from exc
            depth += 1
            clean_streak = 0
            cur_dt *= 0.5
            report.dt_adjustments += 1
            continue

        state = state_new
        report.record_step(iters, hist)
        report.extrapolated_steps += start is not None
        levels = levels[-2:] + [state]

        if depth:
            clean_streak += 1
            if clean_streak >= _RESTORE_AFTER:
                # climb back one rung per ten clean steps
                depth -= 1
                cur_dt = min(base_dt, 2.0 * cur_dt)
                clean_streak = 0

        full = report.steps % cfg.check_every == 0
        rep = check_state(state, cfg, endpoints_only=not full)
        if not rep.passed:
            raise WellPosednessFailure(
                f"solvability check failed at t = {state.t:.6g}: " + "; ".join(rep.failures()),
                report=rep,
                t=state.t,
            )
        report.full_checks += full
        report.record_junctions(rep)

        if sink is not None and probes:
            emit_probes(sink, net, state, probes, epsilon0=cfg.epsilon0)
        if on_step is not None:
            on_step(state)

    report.final_state = state
    return report
