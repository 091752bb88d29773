"""Solvability condition checks.

Both real characteristic speeds require c^2 + a*b > 0 throughout the
interior ("hyperbolicity"). Closing a vessel end additionally requires
a*b > 0 there, equivalently lambda_L < 0 < lambda_R, so exactly one
characteristic enters the vessel and one leaves ("endpoint split").
The endpoint condition may fail in the interior without harm. On top
of these, coefficients must satisfy a > 0 and the area must stay above
the configured floor, and every junction system must be solvably
conditioned.

The checker only reports; callers decide whether to abort.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .constitutive import PrimitiveState, coefficients, eigen
from .junctions import (
    EndpointClosureInput,
    TransitionalState,
    assemble_branching,
    assemble_transitional,
    junction_condition_estimate,
)
from .network import Branching, Network, Transitional, Vessel, endpoints_by_node, node_attachments

if TYPE_CHECKING:  # pragma: no cover
    from .solver import NetworkState, SimConfig

COND_A_POSITIVE = "a_positive"
COND_AREA_FLOOR = "area_floor"
COND_HYPERBOLIC = "hyperbolicity"
COND_ENDPOINT = "endpoint_split"

_JUNCTION_COND_MAX = 1e12


@dataclass(frozen=True)
class ConditionCheck:
    subject: str  # vessel id
    condition: str
    passed: bool
    margin: float  # minimum slack over the checked points
    x_index: int  # location of the worst point
    value: float  # raw value at the worst point
    classification: str = ""  # endpoint failures: under-/over-determined


@dataclass(frozen=True)
class JunctionConditionCheck:
    node: str
    condition_estimate: float
    passed: bool


@dataclass
class ConditionReport:
    checks: list[ConditionCheck] = field(default_factory=list)
    junction_checks: list[JunctionConditionCheck] = field(default_factory=list)
    unevaluable: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return (
            all(c.passed for c in self.checks)
            and all(j.passed for j in self.junction_checks)
            and not self.unevaluable
        )

    def failures(self) -> list[str]:
        out = [
            f"{c.subject}: {c.condition} fails at x-index {c.x_index} "
            f"(margin {c.margin:.6e}){': ' + c.classification if c.classification else ''}"
            for c in self.checks
            if not c.passed
        ]
        out += [
            f"{j.node}: junction condition estimate {j.condition_estimate:.3e}"
            for j in self.junction_checks
            if not j.passed
        ]
        out += self.unevaluable
        return out


def _endpoint_classification(end_index: int, n: int) -> str:
    # An x=0 end is the vessel's source: losing the split there leaves
    # the closure short of an equation (under-determined). At x=1 the
    # terminal end collects an extra incoming characteristic
    # (over-determined).
    return "under-determined (source end)" if end_index == 0 else "over-determined (terminal end)"


def _vessel_checks(
    vessel: Vessel,
    t: float,
    P: np.ndarray,
    Q: np.ndarray,
    epsilon0: float,
    endpoints_only: bool,
    report: ConditionReport,
):
    if endpoints_only:
        # fast per-step path: only the two ends are needed
        x = vessel.grid[[0, -1]]
        P = P[[0, -1]]
        Q = Q[[0, -1]]
        idx_map = np.array([0, vessel.n_cells])
    else:
        x = vessel.grid
        idx_map = np.arange(P.size)
    cs = coefficients(vessel, x, t, PrimitiveState(P, Q), epsilon0=epsilon0, checked=False)
    a = np.asarray(cs.a, dtype=float)
    A = np.asarray(cs.A, dtype=float)
    disc = np.asarray(cs.c, dtype=float) ** 2 + a * np.asarray(cs.b, dtype=float)
    ab = a * np.asarray(cs.b, dtype=float)

    bad = ~np.isfinite(a)
    if np.any(bad):
        idxs = np.flatnonzero(bad)
        report.unevaluable.append(
            f"{vessel.id}: tube law unevaluable at {idxs.size} grid point(s), "
            f"first at x-index {int(idx_map[idxs[0]])}"
        )
        return

    def add(condition, values, indices, margin_shift=0.0, classify=False):
        vals = values[indices]
        k = int(np.argmin(vals))
        worst = float(vals[k])
        margin = worst - margin_shift
        grid_index = int(idx_map[indices[k]])
        check = ConditionCheck(
            subject=vessel.id,
            condition=condition,
            passed=bool(margin > 0),
            margin=margin,
            x_index=grid_index,
            value=worst,
            classification=(
                _endpoint_classification(grid_index, vessel.n_cells)
                if classify and margin <= 0
                else ""
            ),
        )
        report.checks.append(check)

    ends = np.array([0, P.size - 1])
    everywhere = ends if endpoints_only else np.arange(P.size)
    add(COND_A_POSITIVE, a, everywhere)
    add(COND_AREA_FLOOR, A, everywhere, margin_shift=epsilon0)
    add(COND_HYPERBOLIC, disc, everywhere)
    add(COND_ENDPOINT, ab, ends, classify=True)


def check_state(
    net: Network,
    state: "NetworkState",
    cfg: "SimConfig",
    endpoints_only: bool = False,
) -> ConditionReport:
    """Evaluate every solvability condition on a network state.

    Full sweeps check a > 0, the area floor, and hyperbolicity at every
    grid node plus the endpoint split at both ends of each vessel, and
    assemble each junction system once, from the coefficients at its
    vessel ends, to record its condition estimate.
    With endpoints_only=True only the (cheap) per-end checks run.
    """
    report = ConditionReport()
    for vid in sorted(net.vessels):
        f = state.fields[vid]
        _vessel_checks(
            net.vessels[vid], state.t, f.P, f.Q, cfg.epsilon0, endpoints_only, report
        )
    if endpoints_only or not report.passed:
        return report

    # junction condition estimates from the endpoint coefficients the
    # first closure of the next step starts from: (x_end, t + dt, P, Q)
    t_next = state.t + cfg.dt
    ends_by_node = endpoints_by_node(net)
    for nid in sorted(net.nodes):
        node = net.nodes[nid]
        if not isinstance(node, (Branching, Transitional)):
            continue
        params = {(vid, end): p for vid, end, p in node_attachments(node)}
        inputs = []
        for vid, end, _orient in ends_by_node[nid]:
            vessel, f = net.vessels[vid], state.fields[vid]
            idx = 0 if end == "x0" else -1
            cs = coefficients(
                vessel, float(vessel.grid[idx]), t_next,
                PrimitiveState(float(f.P[idx]), float(f.Q[idx])), epsilon0=cfg.epsilon0,
            )
            param = params[(vid, end)]
            inputs.append(
                EndpointClosureInput(
                    vessel_id=vid,
                    end=end,
                    coeffs=cs,
                    eig=eigen(cs),
                    char_value=0.0,
                    q_prev=0.0,
                    rho_j=param if isinstance(node, Branching) else None,
                    resistance=param if isinstance(node, Transitional) else None,
                )
            )
        if isinstance(node, Branching):
            sysm = assemble_branching(node, inputs, cfg.dt)
        else:
            sysm = assemble_transitional(node, inputs, TransitionalState(0.0, 0.0), cfg.dt)
        est = junction_condition_estimate(sysm)
        report.junction_checks.append(
            JunctionConditionCheck(node=nid, condition_estimate=est, passed=bool(est < _JUNCTION_COND_MAX))
        )
    return report


def check_envelope(
    net: Network,
    P_range: tuple[float, float],
    Q_range: tuple[float, float],
    samples: int = 16,
) -> ConditionReport:
    """Static pre-flight sweep: sample a (P, Q) tensor grid at every
    grid station of every vessel and report the worst margin of each
    condition over the envelope. Unevaluable points (outside a law's
    range) are flagged but excluded from the margins."""
    if samples < 2:
        raise ValueError("need at least 2 samples per axis")
    if not (np.isfinite(P_range).all() and np.isfinite(Q_range).all()):
        raise ValueError("envelope ranges must be finite")
    P_grid = np.linspace(P_range[0], P_range[1], samples)
    Q_grid = np.linspace(Q_range[0], Q_range[1], samples)
    report = ConditionReport()
    for vid in sorted(net.vessels):
        vessel = net.vessels[vid]
        worst = {}
        n_bad = 0
        for xi, xv in enumerate(vessel.grid):
            for qv in Q_grid:
                cs = coefficients(
                    vessel,
                    np.full(P_grid.shape, xv),
                    0.0,
                    PrimitiveState(P_grid, np.full(P_grid.shape, qv)),
                    checked=False,
                )
                a = np.asarray(cs.a, dtype=float)
                ok = np.isfinite(a)
                n_bad += int(np.sum(~ok))
                if not np.any(ok):
                    continue
                disc = np.asarray(cs.c) ** 2 + a * np.asarray(cs.b)
                ab = a * np.asarray(cs.b)
                at_end = xi in (0, vessel.n_cells)
                quantities = {
                    COND_A_POSITIVE: a,
                    COND_AREA_FLOOR: np.asarray(cs.A) - 0.0,
                    COND_HYPERBOLIC: disc,
                }
                if at_end:
                    quantities[COND_ENDPOINT] = ab
                for cond, vals in quantities.items():
                    v = vals[ok]
                    k = int(np.argmin(v))
                    cur = worst.get(cond)
                    if cur is None or v[k] < cur[0]:
                        worst[cond] = (float(v[k]), xi)
        if n_bad:
            report.unevaluable.append(
                f"{vid}: {n_bad} envelope point(s) outside the tube law's range"
            )
        for cond, (val, xi) in sorted(worst.items()):
            classify = cond == COND_ENDPOINT and val <= 0
            report.checks.append(
                ConditionCheck(
                    subject=vid,
                    condition=cond,
                    passed=bool(val > 0),
                    margin=val,
                    x_index=xi,
                    value=val,
                    classification=_endpoint_classification(xi, vessel.n_cells) if classify else "",
                )
            )
    return report
