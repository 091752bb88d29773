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

from .compiled import layout_coefficients
from .constitutive import CoefficientSet, PrimitiveState, coefficients, eigen
from .junctions import condition_estimates
from .network import Network

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


def _endpoint_classification(end_index: int) -> str:
    # An x=0 end is the vessel's source: losing the split there leaves
    # the closure short of an equation (under-determined). At x=1 the
    # terminal end collects an extra incoming characteristic
    # (over-determined).
    return "under-determined (source end)" if end_index == 0 else "over-determined (terminal end)"


def _segment_min(values: np.ndarray, starts: np.ndarray, counts: np.ndarray):
    """Minimum of each segment and the flat position of its first
    occurrence (a NaN counts as the minimum, as in np.argmin)."""
    mins = np.minimum.reduceat(values, starts)
    hit = (values == np.repeat(mins, counts)) | np.isnan(values)
    first = np.minimum.reduceat(np.where(hit, np.arange(values.size), values.size), starts)
    return mins, first


def check_state(
    state: "NetworkState",
    cfg: "SimConfig",
    endpoints_only: bool = False,
) -> ConditionReport:
    """Evaluate every solvability condition on a network state, on the
    compiled layout it holds.

    Full sweeps check a > 0, the area floor, and hyperbolicity at every
    grid node plus the endpoint split at both ends of each vessel, and
    build every junction system once, from the coefficients at its
    vessel ends, to record its condition estimate.
    With endpoints_only=True only the (cheap) per-end checks run.
    All vessels are evaluated together; checks come out in vessel id
    order.
    """
    cn, P, Q = state.layout, state.P, state.Q
    K = len(cn.vessel_ids)
    n_cells = np.diff(cn.offsets) - 1
    if endpoints_only:
        # fast per-step path: only the two ends of each vessel
        starts, counts = np.arange(0, 2 * K, 2), np.full(K, 2)
        local = np.stack((np.zeros(K, dtype=np.intp), n_cells), axis=1).ravel()
    else:
        starts, counts = cn.offsets[:-1], n_cells + 1
        local = np.arange(cn.size) - np.repeat(starts, counts)
    cs = layout_coefficients(
        cn, state.t, P, Q, cfg.epsilon0, checked=False, points=cn.ends if endpoints_only else None
    )
    a, b, c, A = cs.a, cs.b, cs.c, cs.A
    ab = a * b
    ends = np.stack((starts, starts + counts - 1), axis=1).ravel()
    rows = []
    for condition, values, at, n, shift in (
        (COND_A_POSITIVE, a, starts, counts, 0.0),
        (COND_AREA_FLOOR, A, starts, counts, cfg.epsilon0),
        (COND_HYPERBOLIC, c**2 + ab, starts, counts, 0.0),
        (COND_ENDPOINT, ab[ends], 2 * np.arange(K), np.full(K, 2), 0.0),
    ):
        worst, first = _segment_min(values, at, n)
        x_index = local[first] if condition != COND_ENDPOINT else local[ends[first]]
        rows.append((condition, worst.tolist(), (worst - shift).tolist(), x_index.tolist()))

    bad = ~np.isfinite(a)
    skip = np.add.reduceat(bad, starts, dtype=np.intp) if np.any(bad) else np.zeros(K, np.intp)
    report = ConditionReport()
    for k in sorted(range(K), key=cn.vessel_ids.__getitem__):
        vid = cn.vessel_ids[k]
        if skip[k]:
            first = int(local[starts[k] + np.argmax(bad[starts[k] : starts[k] + counts[k]])])
            report.unevaluable.append(
                f"{vid}: tube law unevaluable at {int(skip[k])} grid point(s), "
                f"first at x-index {first}"
            )
            continue
        for condition, worst, margin, x_index in rows:
            failed_end = condition == COND_ENDPOINT and not margin[k] > 0
            report.checks.append(
                ConditionCheck(
                    subject=vid,
                    condition=condition,
                    passed=margin[k] > 0,
                    margin=margin[k],
                    x_index=x_index[k],
                    value=worst[k],
                    classification=_endpoint_classification(x_index[k]) if failed_end else "",
                )
            )
    if endpoints_only or not report.passed or not cn.junctions.groups:
        return report
    report.junction_checks = _junction_checks(state, cfg, a, b, c, A)
    return report


def _junction_checks(state, cfg, a, b, c, A):
    """Condition estimates of every junction system, built from the
    endpoint coefficients the first closure of the next step starts
    from: (x_end, t + dt, P, Q); only synthetic coefficients depend on
    t, so only their ends are evaluated again."""
    cn, P, Q, pts = state.layout, state.P, state.Q, state.layout.end_point
    a, b, c, A = a[pts], b[pts], c[pts], A[pts]
    k0 = len(cn.vessel_ids) - len(cn.fills)
    for k, vessel in enumerate(cn.fills, start=k0):
        at = np.flatnonzero(cn.end_vessel == k)
        if vessel.synthetic is None or not at.size:
            continue
        p = pts[at]
        seg = coefficients(
            vessel, cn.x[p], state.t + cfg.dt, PrimitiveState(P[p], Q[p]), epsilon0=cfg.epsilon0
        )
        a[at], b[at], c[at], A[at] = seg.a, seg.b, seg.c, seg.A
    eig = eigen(CoefficientSet(a, b, c, 0.0, 0.0, A))
    lam = np.where(cn.end_x1, eig.lambda_L, eig.lambda_R)
    layout = cn.junctions
    zeros = np.zeros(pts.size)
    none = np.zeros(len(layout.transitional))
    values = layout.values(-lam, a, zeros, A, layout.step_values(cfg.dt, zeros, none, none))
    checks = []
    for group in layout.groups:
        M, _ = group.systems(values)
        for nid, est in zip(group.node_ids, condition_estimates(M, group.node_ids).tolist()):
            passed = est < _JUNCTION_COND_MAX
            checks.append(JunctionConditionCheck(node=nid, condition_estimate=est, passed=passed))
    return sorted(checks, key=lambda j: j.node)


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
    # one row per grid station, P fastest within each Q sample
    P_row, Q_row = np.tile(P_grid, samples), np.repeat(Q_grid, samples)
    report = ConditionReport()
    for vid in sorted(net.vessels):
        vessel = net.vessels[vid]
        m = vessel.grid.size
        cs = coefficients(
            vessel,
            np.repeat(vessel.grid, P_row.size),
            0.0,
            PrimitiveState(np.tile(P_row, m), np.tile(Q_row, m)),
            checked=False,
        )
        a, b, c, A = (v.reshape(m, -1) for v in (cs.a, cs.b, cs.c, cs.A))
        ok = np.isfinite(a)
        n_bad = int(np.count_nonzero(~ok))
        if n_bad:
            report.unevaluable.append(
                f"{vid}: {n_bad} envelope point(s) outside the tube law's range"
            )
        everywhere, ends = np.arange(m), np.array([0, m - 1])
        # in condition-name order
        for cond, values, stations in (
            (COND_A_POSITIVE, a, everywhere),
            (COND_AREA_FLOOR, A, everywhere),
            (COND_ENDPOINT, a * b, ends),
            (COND_HYPERBOLIC, c**2 + a * b, everywhere),
        ):
            if not ok[stations].any():
                continue
            # station-major, so ties resolve to the first station
            v = np.where(ok[stations], values[stations], np.inf)
            k = int(np.argmin(v))
            val, xi = float(v.flat[k]), int(stations[k // v.shape[1]])
            classify = cond == COND_ENDPOINT and val <= 0
            report.checks.append(
                ConditionCheck(
                    subject=vid,
                    condition=cond,
                    passed=bool(val > 0),
                    margin=val,
                    x_index=xi,
                    value=val,
                    classification=_endpoint_classification(xi) if classify else "",
                )
            )
    return report
