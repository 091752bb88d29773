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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .characteristics import VesselField, freeze_step, interior_update
from .compiled import CompiledNetwork, compile_network
from .constitutive import PrimitiveState, RiemannPair, coefficients, from_riemann
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
        if self.dt <= 0 or self.t_end < 0 or self.cfl_max <= 0:
            raise ValueError("dt, cfl_max must be positive and t_end nonnegative")
        if self.picard_tol <= 0 or self.picard_max_iters < 1:
            raise ValueError("picard_tol must be positive, picard_max_iters >= 1")
        if self.epsilon0 <= 0 or self.check_every < 1:
            raise ValueError("epsilon0 must be positive, check_every >= 1")


@dataclass
class NetworkState:
    """All vessel fields plus node-internal states at one time level."""

    t: float
    fields: dict[str, VesselField]
    transitional: dict[str, TransitionalState] = field(default_factory=dict)
    junction_pressures: dict[str, float] = field(default_factory=dict)


class FlatLevel(NamedTuple):
    """One time level in layout order: P and Q over every grid point,
    the capacitor pressures over the transitional nodes."""

    P: np.ndarray
    Q: np.ndarray
    P_C1: np.ndarray
    P_C2: np.ndarray


def flatten_state(cn: CompiledNetwork, state: NetworkState) -> FlatLevel:
    """A state's level in the layout order of cn."""
    trans = [state.transitional[nid] for nid in cn.junctions.transitional]
    return FlatLevel(
        cn.gather(state.fields, "P"),
        cn.gather(state.fields, "Q"),
        np.array([ts.P_C1 for ts in trans]),
        np.array([ts.P_C2 for ts in trans]),
    )


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
        for j in rep.junction_checks:
            if j.condition_estimate > self.worst_junction_condition:
                self.worst_junction_condition = j.condition_estimate
                self.worst_junction_node = j.node

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
        v = net.vessels[vid]
        x = v.grid
        spec = init.for_vessel(vid)
        P = _sample(spec.P, x, f"{vid}.P")
        Q = _sample(spec.Q, x, f"{vid}.Q")
        # raises CollapsedVesselError if the area floor is violated
        coefficients(v, x, 0.0, PrimitiveState(P, Q), epsilon0=cfg.epsilon0)
        fields[vid] = VesselField(vid, 0.0, P, Q)

    transitional = {}
    diags: list[Diagnostic] = []
    ends_by_node = endpoints_by_node(net)
    for nid in sorted(net.nodes):
        node = net.nodes[nid]
        ends = ends_by_node[nid]

        def end_val(arr_name, vid, end):
            arr = getattr(fields[vid], arr_name)
            return float(arr[0] if end == "x0" else arr[-1])

        if isinstance(node, Transitional):
            art_P = [end_val("P", a.vessel, "x1") for a in node.arteries]
            vein_P = [end_val("P", a.vessel, "x0") for a in node.veins]
            p1 = node.P_C1_init if node.P_C1_init is not None else float(np.mean(art_P))
            p2 = node.P_C2_init if node.P_C2_init is not None else float(np.mean(vein_P))
            transitional[nid] = TransitionalState(p1, p2)
            for att in node.arteries:
                res = att.resistance * end_val("Q", att.vessel, "x1") - (
                    end_val("P", att.vessel, "x1") - p1
                )
                _residual_diag(diags, nid, f"artery {att.vessel} resistive relation", res,
                               scale=max(1.0, abs(end_val("P", att.vessel, "x1"))))
            for att in node.veins:
                res = att.resistance * end_val("Q", att.vessel, "x0") - (
                    p2 - end_val("P", att.vessel, "x0")
                )
                _residual_diag(diags, nid, f"vein {att.vessel} resistive relation", res,
                               scale=max(1.0, abs(end_val("P", att.vessel, "x0"))))
        elif isinstance(node, Branching):
            q_in = sum(end_val("Q", vid, end) for vid, end, o in ends if o == "incoming")
            q_out = sum(end_val("Q", vid, end) for vid, end, o in ends if o == "outgoing")
            q_scale = max(1.0, sum(abs(end_val("Q", vid, end)) for vid, end, _ in ends))
            _residual_diag(diags, nid, "flow balance", q_in - q_out, scale=q_scale)
            # implied node pressure minimizing the initial momentum residuals
            weights, pressures = [], []
            for att in node.attachments:
                A = _end_area(net, fields, att.vessel, att.end, cfg.epsilon0)
                weights.append(A / att.rho_j)
                pressures.append(end_val("P", att.vessel, att.end))
            pj = float(np.dot(weights, pressures) / np.sum(weights))
            spread = max(abs(p - pj) for p in pressures)
            _residual_diag(diags, nid, "pressure continuity", spread,
                           scale=max(1.0, max(abs(p) for p in pressures)))
        elif isinstance(node, (ExternalPressure, ExternalFlow)) and len(ends) == 1:
            vid, end, _ = ends[0]
            sig0 = eval_signal(node.signal, 0.0)
            if isinstance(node, ExternalPressure):
                res = end_val("P", vid, end) - sig0
                what = "boundary pressure"
            else:
                res = end_val("Q", vid, end) - sig0
                what = "boundary flow"
            _residual_diag(diags, nid, what, res, scale=max(1.0, abs(sig0)))

    state = NetworkState(t=0.0, fields=fields, transitional=transitional)
    return state, diags


def _residual_diag(diags, nid, what, res, scale):
    rel = abs(res) / scale
    if rel >= 1e-2:
        diags.append(Diagnostic("error", nid, f"initial {what} residual {rel:.3e}"))
    elif rel >= 1e-6:
        diags.append(Diagnostic("warning", nid, f"initial {what} residual {rel:.3e}"))


def _end_area(net, fields, vid, end, epsilon0):
    v = net.vessels[vid]
    idx = 0 if end == "x0" else -1
    x = v.grid[idx]
    f = fields[vid]
    cs = coefficients(
        v, x, 0.0, PrimitiveState(float(f.P[idx]), float(f.Q[idx])), epsilon0=epsilon0
    )
    return cs.A


# --- one time level ------------------------------------------------------


def _deviation(cn: CompiledNetwork, P_new, Q_new, P_old, Q_old, trans_new, trans_old) -> float:
    """Relative sup-norm distance between iterates, per vessel and field:
    max |new - old| / (1 + max |new|) over each segment."""
    starts = cn.offsets[:-1]
    dev = 0.0
    for new, old in ((P_new, P_old), (Q_new, Q_old)):
        scale = 1.0 + np.maximum.reduceat(np.abs(new), starts)
        diff = np.maximum.reduceat(np.abs(new - old), starts)
        dev = max(dev, float(np.max(diff / scale)))
    for nid in trans_new:
        for new, old in (
            (trans_new[nid].P_C1, trans_old[nid].P_C1),
            (trans_new[nid].P_C2, trans_old[nid].P_C2),
        ):
            dev = max(dev, abs(new - old) / (1.0 + abs(new)))
    return dev


def picard_step(
    net: Network | CompiledNetwork,
    state_prev: NetworkState,
    cfg: SimConfig,
    dt: float | None = None,
    report: SimReport | None = None,
    start: FlatLevel | None = None,
    flat_prev: FlatLevel | None = None,
) -> tuple[NetworkState, int, list[float]]:
    """Advance one time level by fixed-point iteration.

    Starting from `start` (the first iterate of the new level, in layout
    order) or, without one, from the previous level (constant-in-time
    extrapolation), repeatedly freeze the coefficients at the iterate,
    run the linear characteristics update on all vessels at once, close
    every node, and stop when the relative sup deviation between
    iterates drops below cfg.picard_tol. Returns the converged state,
    the number of iterations used, and the deviation history. `net` may
    be compiled already and `flat_prev` may hold state_prev in layout
    order already (`run` passes both). A given report collects the
    closure residuals.
    """
    cn = net if isinstance(net, CompiledNetwork) else compile_network(net)
    dt = cfg.dt if dt is None else dt
    t_new = state_prev.t + dt

    prev = flat_prev if flat_prev is not None else flatten_state(cn, state_prev)
    P_prev, Q_prev = prev.P, prev.Q
    boundary = [eval_signal(node.signal, t_new) for node in cn.externals]
    step_values = cn.junctions.step_values(dt, Q_prev[cn.end_point], prev.P_C1, prev.P_C2)
    start = prev if start is None else start
    P_cur, Q_cur = start.P, start.Q
    trans_cur = {
        nid: TransitionalState(p1, p2)
        for nid, p1, p2 in zip(cn.junctions.transitional, start.P_C1.tolist(), start.P_C2.tolist())
    }

    history: list[float] = []
    old_level = None
    for iteration in range(1, cfg.picard_max_iters + 1):
        frozen = freeze_step(
            cn, state_prev.t, P_prev, Q_prev, t_new, P_cur, Q_cur, cfg.epsilon0,
            old_level=old_level,
        )
        old_level = frozen.old
        upd = interior_update(frozen, cfg.cfl_max)
        # NaN at unresolved endpoint entries propagates and is
        # overwritten by the node closures below
        with np.errstate(invalid="ignore"):
            st = from_riemann(frozen.new.coeffs, frozen.new.eig, RiemannPair(r=upd.r, s=upd.s))
        P_next = np.asarray(st.P, dtype=float)
        Q_next = np.asarray(st.Q, dtype=float)

        junction_pressures, trans_next, residual = _close_nodes(
            cn, frozen, upd, boundary, step_values, t_new, P_next, Q_next
        )
        if report is not None:
            report.worst_closure_residual = max(report.worst_closure_residual, residual)

        dev = _deviation(cn, P_next, Q_next, P_cur, Q_cur, trans_next or trans_cur, trans_cur)
        history.append(dev)
        P_cur, Q_cur = P_next, Q_next
        trans_cur = trans_next if trans_next else trans_cur
        if dev <= cfg.picard_tol:
            fields = {
                vid: VesselField(vid, t_new, P_cur[cn.slices[vid]], Q_cur[cn.slices[vid]])
                for vid in sorted(cn.vessel_ids)
            }
            new_state = NetworkState(
                t=t_new,
                fields=fields,
                transitional=trans_cur,
                junction_pressures=junction_pressures,
            )
            return new_state, iteration, history

    raise PicardDivergence(
        f"fixed-point iteration did not converge in {cfg.picard_max_iters} iterations "
        f"at t = {t_new:.6g} (deviations {history[-3:]}); reduce dt",
        deviations=history,
    )


def _close_nodes(
    cn: CompiledNetwork, frozen, upd, boundary, step_values, t_new, P, Q,
) -> tuple[dict[str, float], dict[str, TransitionalState], float]:
    """Close every node at the new time level, writing the endpoint
    states into the flat P and Q.

    The resolved characteristic value at each end carries a linear
    coupling to the endpoint state (from the new-level source term of
    the trapezoidal rule); each closure folds it into its characteristic
    row cp P + cq Q = char, so one solve satisfies the closure and the
    coupling exactly. External ends are solved in closed form; the
    junction nodes of each kind and size are solved as one stack.
    Returns the junction pressures, the transitional states and the
    largest junction residual over its gate scale.
    """
    x1, seg, points = cn.end_x1, cn.end_vessel, cn.end_point
    char = np.where(x1, upd.right.known[seg], upd.left.known[seg])
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
    cp = -lam - np.where(x1, upd.right.kP[seg], upd.left.kP[seg])
    cq = a - np.where(x1, upd.right.kQ[seg], upd.left.kQ[seg])

    ext = cn.external_ends
    if ext.size:
        at = points[ext]
        ends = zip(
            cn.externals, ext.tolist(), boundary,
            *(v.tolist() for v in (a[ext], lam[ext], eig.u[at], cp[ext], cq[ext], char[ext])),
        )
        P_ext, Q_ext = [], []
        for node, k, value, a_k, lam_k, u_k, cp_k, cq_k, char_k in ends:
            vid = cn.end_vessel_id[k]
            if isinstance(node, ExternalPressure):
                P_ext.append(value)
                Q_ext.append(flow_at_pressure_end(vid, a_k, cp_k, cq_k, char_k, value))
            else:
                end = cn.end_name[k]
                P_ext.append(pressure_at_flow_end(vid, end, lam_k, u_k, cp_k, cq_k, char_k, value))
                Q_ext.append(value)
        P[at] = P_ext
        Q[at] = Q_ext

    junction_pressures: dict[str, float] = {}
    trans_next: dict[str, TransitionalState] = {}
    residual = 0.0
    layout = cn.junctions
    if layout.groups:
        values = layout.values(cp, cq, char, cs.A[points], step_values)
    for group in layout.groups:
        M, b = group.systems(values)
        x, ratio = solve_systems(M, b, group.node_ids)
        residual = max(residual, float(np.max(ratio)))
        at = points[group.ends]
        mu = at.shape[1]
        P[at] = x[:, 0 : 2 * mu : 2]
        Q[at] = x[:, 1 : 2 * mu : 2]
        if group.kind is Branching:
            junction_pressures.update(zip(group.node_ids, x[:, -1].tolist()))
        else:
            for nid, p1, p2 in zip(group.node_ids, x[:, -2].tolist(), x[:, -1].tolist()):
                trans_next[nid] = TransitionalState(p1, p2)
    return junction_pressures, trans_next, residual


# --- outer time loop -----------------------------------------------------


def _extrapolate(levels: Sequence[FlatLevel]) -> FlatLevel | None:
    """First iterate of the next level from the last accepted levels at
    equal spacing, oldest first: None (start from the last level) for
    one level, linear 2 X1 - X0 for two, quadratic 3 X2 - 3 X1 + X0 for
    three."""
    if len(levels) == 2:
        x0, x1 = levels
        return FlatLevel(*(2.0 * b - a for a, b in zip(x0, x1)))
    if len(levels) == 3:
        x0, x1, x2 = levels
        return FlatLevel(*(3.0 * (c - b) + a for a, b, c in zip(x0, x1, x2)))
    return None


def run(
    net: Network,
    init: NetworkState,
    cfg: SimConfig,
    probes: Sequence[ProbeSpec] = (),
    sink=None,
    on_step: Callable[[NetworkState], None] | None = None,
) -> SimReport:
    """Advance the network from the initial state to cfg.t_end.

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

    report = SimReport()
    state = init
    compiled = compile_network(net)
    pre = check_state(compiled, state, cfg)
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
    levels, spacing = [flatten_state(compiled, state)], None
    while state.t < cfg.t_end - tiny:
        dt_step = min(cur_dt, cfg.t_end - state.t)
        if dt_step != spacing:
            levels, spacing = levels[-1:], dt_step
        start = _extrapolate(levels)
        try:
            try:
                state_new, iters, hist = picard_step(
                    compiled, state, cfg, dt_step, report=report, start=start, flat_prev=levels[-1]
                )
            except SimulationError:
                if start is None:
                    raise
                # only the retry from the previous level counts
                report.extrapolation_retries += 1
                start = None
                state_new, iters, hist = picard_step(
                    compiled, state, cfg, dt_step, report=report, flat_prev=levels[-1]
                )
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
        levels = levels[-2:] + [flatten_state(compiled, state)]

        if depth:
            clean_streak += 1
            if clean_streak >= _RESTORE_AFTER:
                # climb back one rung per ten clean steps
                depth -= 1
                cur_dt = min(base_dt, 2.0 * cur_dt)
                clean_streak = 0

        full = report.steps % cfg.check_every == 0
        rep = check_state(compiled, state, cfg, endpoints_only=not full)
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
