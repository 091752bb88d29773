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

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

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


@dataclass(frozen=True, eq=False)
class ConditionReport:
    """Outcome of a condition sweep, held as arrays.

    Row i of `value`, `margin` and `x_index` belongs to `conditions[i]`,
    column k to `vessel_ids[k]`: the worst value of that condition over
    the vessel's checked points, its slack (a check passes when the
    margin is > 0) and the vessel-local grid index of the worst point,
    -1 where the condition was not evaluated. Per vessel,
    `unevaluable_count` counts the points where the coefficients could
    not be evaluated and `unevaluable_first` is the x-index of the first
    one (0 from `check_envelope`, whose unevaluable points are samples,
    not grid points). `junction_estimates` holds the equilibrated
    condition estimate of each node in `junction_nodes` (node id order);
    a node passes below 1e12. `passed` is one test over these arrays.

    `checks`, `junction_checks`, `unevaluable` and `failures()` are built
    from the arrays when first read, in vessel id order, and kept.
    """

    vessel_ids: tuple[str, ...]
    conditions: tuple[str, ...]
    value: np.ndarray
    margin: np.ndarray
    x_index: np.ndarray
    unevaluable_count: np.ndarray
    unevaluable_first: np.ndarray
    junction_nodes: tuple[str, ...] = ()
    junction_estimates: np.ndarray = field(default_factory=lambda: np.zeros(0))
    # message for a vessel with unevaluable points (format fields:
    # vessel, count, first)
    unevaluable_format: str = (
        "{vessel}: tube law unevaluable at {count} grid point(s), first at x-index {first}"
    )

    @cached_property
    def passed(self) -> bool:
        return bool(
            (self.margin > 0).all()
            and not self.unevaluable_count.any()
            and (self.junction_estimates < _JUNCTION_COND_MAX).all()
        )

    @cached_property
    def checks(self) -> list[ConditionCheck]:
        value, margin, x_index = (v.tolist() for v in (self.value, self.margin, self.x_index))
        out = []
        for k in sorted(range(len(self.vessel_ids)), key=self.vessel_ids.__getitem__):
            for i, condition in enumerate(self.conditions):
                x, m = x_index[i][k], margin[i][k]
                if x < 0:
                    continue
                failed_end = condition == COND_ENDPOINT and not m > 0
                out.append(
                    ConditionCheck(
                        subject=self.vessel_ids[k],
                        condition=condition,
                        passed=m > 0,
                        margin=m,
                        x_index=x,
                        value=value[i][k],
                        classification=_endpoint_classification(x) if failed_end else "",
                    )
                )
        return out

    @cached_property
    def junction_checks(self) -> list[JunctionConditionCheck]:
        return [
            JunctionConditionCheck(node=nid, condition_estimate=est, passed=est < _JUNCTION_COND_MAX)
            for nid, est in zip(self.junction_nodes, self.junction_estimates.tolist())
        ]

    @cached_property
    def unevaluable(self) -> list[str]:
        counts, first = self.unevaluable_count.tolist(), self.unevaluable_first.tolist()
        return [
            self.unevaluable_format.format(vessel=self.vessel_ids[k], count=counts[k], first=first[k])
            for k in sorted(range(len(self.vessel_ids)), key=self.vessel_ids.__getitem__)
            if counts[k]
        ]

    def failures(self) -> list[str]:
        if self.passed:
            return []
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


def _segment_min(values: np.ndarray, starts: np.ndarray, counts):
    """Minimum of each segment of each row of values (segments start at
    `starts` and hold `counts` points, an array or one count for all)
    and the position of its first occurrence in the row (a NaN counts as
    the minimum, as in np.argmin)."""
    mins = np.minimum.reduceat(values, starts, axis=-1)
    hit = (values == np.repeat(mins, counts, axis=-1)) | np.isnan(values)
    n = values.shape[-1]
    first = np.minimum.reduceat(np.where(hit, np.arange(n), n), starts, axis=-1)
    return mins, first


_STATE_CONDITIONS = (COND_A_POSITIVE, COND_AREA_FLOOR, COND_HYPERBOLIC, COND_ENDPOINT)
# in condition-name order
_ENVELOPE_CONDITIONS = (COND_A_POSITIVE, COND_AREA_FLOOR, COND_ENDPOINT, COND_HYPERBOLIC)


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
    All vessels are evaluated together, from `state.coeffs`, into the
    report's arrays over the layout's vessels; a vessel with an
    unevaluable point reports no condition rows.
    """
    cn, cs = state.layout, state.coeffs
    K = len(cn.vessel_ids)
    a, b, c, A = (v[cn.ends] if endpoints_only else v for v in (cs.a, cs.b, cs.c, cs.A))
    ab = a * b
    if endpoints_only:
        # the two ends of each vessel, interleaved: all four conditions
        # share the segments
        starts, local = cn.pair_starts, cn.ends_local
        worst, first = _segment_min(np.stack((a, A, c**2 + ab, ab)), starts, 2)
        x_index = local[first]
    else:
        starts, local = cn.first, cn.local
        worst, first = _segment_min(np.stack((a, A, c**2 + ab)), starts, cn.counts)
        end_worst, end_first = _segment_min(ab[cn.ends], cn.pair_starts, 2)
        worst = np.concatenate((worst, end_worst[None]))
        x_index = np.concatenate((local[first], cn.ends_local[end_first][None]))
    margin = worst.copy()
    margin[1] -= cfg.epsilon0

    bad = ~np.isfinite(a)
    if np.any(bad):
        skip = np.add.reduceat(bad, starts, dtype=np.intp)
        at = np.minimum.reduceat(np.where(bad, np.arange(a.size), a.size), starts)
        first_bad = np.where(skip > 0, local[np.minimum(at, a.size - 1)], 0)
        x_index[:, skip > 0] = -1
    else:
        skip = first_bad = np.zeros(K, dtype=np.intp)
    report = ConditionReport(
        vessel_ids=cn.vessel_ids,
        conditions=_STATE_CONDITIONS,
        value=worst,
        margin=margin,
        x_index=x_index,
        unevaluable_count=skip,
        unevaluable_first=first_bad,
    )
    if endpoints_only or not report.passed or not cn.junctions.groups:
        return report
    estimates = _junction_estimates(state, cfg)
    return replace(report, junction_nodes=cn.junctions.nodes, junction_estimates=estimates)


def _junction_estimates(state, cfg):
    """Condition estimates of every junction system, in node id order,
    built from the endpoint coefficients the first closure of the next
    step starts from: (x_end, t + dt, P, Q); only synthetic coefficients
    depend on t, so only their ends are evaluated again."""
    cn, P, Q, pts, cs = state.layout, state.P, state.Q, state.layout.end_point, state.coeffs
    a, b, c, A = cs.a[pts], cs.b[pts], cs.c[pts], cs.A[pts]
    k0 = len(cn.vessel_ids) - len(cn.fills)
    for k, vessel in enumerate(cn.fills, start=k0):
        at = np.flatnonzero(cn.end_vessel == k)
        if vessel.synthetic is None or not at.size:
            continue
        p = pts[at]
        seg = coefficients(vessel, cn.x[p], state.t + cfg.dt, PrimitiveState(P[p], Q[p]))
        a[at], b[at], c[at], A[at] = seg.a, seg.b, seg.c, seg.A
    eig = eigen(CoefficientSet(a, b, c, 0.0, 0.0, A))
    lam = np.where(cn.end_x1, eig.lambda_L, eig.lambda_R)
    layout = cn.junctions
    zeros = np.zeros(pts.size)  # the right-hand sides are not needed
    estimates = np.empty(len(layout.nodes))
    for group in layout.groups:
        M, b = group.step(cfg.dt, zeros, state.P_C1, state.P_C2)
        group.fill(M, b, -lam, a, zeros, A)
        estimates[group.ranks] = condition_estimates(M, group.node_ids)
    return estimates


def check_envelope(
    net: Network,
    P_range: tuple[float, float],
    Q_range: tuple[float, float],
    samples: int = 16,
) -> ConditionReport:
    """Static pre-flight sweep: sample a (P, Q) tensor grid at every
    grid station of every vessel and report the worst margin of each
    condition over the envelope. Unevaluable points (outside a law's
    range) are counted but excluded from the margins; a condition with
    no evaluable station is not reported."""
    if samples < 2:
        raise ValueError("need at least 2 samples per axis")
    if not (np.isfinite(P_range).all() and np.isfinite(Q_range).all()):
        raise ValueError("envelope ranges must be finite")
    P_grid = np.linspace(P_range[0], P_range[1], samples)
    Q_grid = np.linspace(Q_range[0], Q_range[1], samples)
    # one row per grid station, P fastest within each Q sample
    P_row, Q_row = np.tile(P_grid, samples), np.repeat(Q_grid, samples)
    vessel_ids = tuple(sorted(net.vessels))
    shape = (len(_ENVELOPE_CONDITIONS), len(vessel_ids))
    value = np.full(shape, np.inf)
    x_index = np.full(shape, -1, dtype=np.intp)
    unevaluable = np.zeros(len(vessel_ids), dtype=np.intp)
    for k, vid in enumerate(vessel_ids):
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
        unevaluable[k] = np.count_nonzero(~ok)
        everywhere, ends = np.arange(m), np.array([0, m - 1])
        for i, (values, stations) in enumerate(
            ((a, everywhere), (A, everywhere), (a * b, ends), (c**2 + a * b, everywhere))
        ):
            if not ok[stations].any():
                continue
            # station-major, so ties resolve to the first station
            v = np.where(ok[stations], values[stations], np.inf)
            j = int(np.argmin(v))
            value[i, k], x_index[i, k] = v.flat[j], stations[j // v.shape[1]]
    return ConditionReport(
        vessel_ids=vessel_ids,
        conditions=_ENVELOPE_CONDITIONS,
        value=value,
        margin=value,
        x_index=x_index,
        unevaluable_count=unevaluable,
        unevaluable_first=np.zeros(len(vessel_ids), dtype=np.intp),
        unevaluable_format="{vessel}: {count} envelope point(s) outside the tube law's range",
    )
