"""Solvability condition checks.

Both real characteristic speeds require c^2 + a*b > 0 throughout the
interior ("hyperbolicity"). Closing a vessel end additionally requires
a*b > 0 there, equivalently lambda_L < 0 < lambda_R, so exactly one
characteristic enters the vessel and one leaves ("endpoint split").
The endpoint condition may fail in the interior without harm. On top
of these, coefficients must satisfy a > 0 and the area must stay above
the configured floor, and every junction system must be solvably
conditioned: its estimate, the 1-norm condition number kappa_1 of the
row/column-equilibrated junction matrix (`junctions.condition_estimates`,
within kappa_2 / n <= kappa_1 <= n kappa_2 of the 2-norm one for n
unknowns), must stay below 1e12.

Every accepted level is checked, so a sweep decides `passed` from
whole-sweep minima, one reduction per condition over every checked
point: `check_state` builds a report's per-vessel arrays only when they
are first read, and `endpoints_pass`, the verdict of the levels between
full sweeps, builds no report at all: it forms ab and c^2 + ab from the
coefficients at the vessel ends, and only a failing level gets a report.

The checker only reports; callers decide whether to abort.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from .compiled import CompiledNetwork, layout_coefficients
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


class SweepArrays(NamedTuple):
    """A condition sweep's per-vessel arrays (see `ConditionReport`)."""

    value: np.ndarray
    margin: np.ndarray
    x_index: np.ndarray
    unevaluable_count: np.ndarray
    unevaluable_first: np.ndarray


@dataclass(frozen=True, eq=False)
class ConditionReport:
    """Outcome of a condition sweep, held as arrays.

    Row i of `arrays.value`, `arrays.margin` and `arrays.x_index` belongs
    to `conditions[i]`, column k to `vessel_ids[k]`, in vessel id order:
    the worst value of that condition over the vessel's checked points,
    its slack (a check passes when the margin is > 0) and the vessel-local
    grid index of the worst point, -1 where the condition was not
    evaluated. Per vessel, `arrays.unevaluable_count` counts the points
    where the coefficients could not be evaluated and
    `arrays.unevaluable_first` is the x-index of the first one (0 from
    `check_envelope`, whose unevaluable points are samples, not grid
    points). `junction_estimates` holds the 1-norm condition number of
    each equilibrated junction matrix of `junction_nodes` (node id order;
    inf where singular or not finite); a node passes below 1e12. `passed`
    is one test over these arrays: `vessels_passed`, which the sweep
    decides (every margin > 0 and no unevaluable point), and every
    junction estimate below 1e12.

    `arrays` is built by `sweep` when first read, and `checks`,
    `junction_checks`, `unevaluable` and `failures()` from them, in their
    column order; each is kept.
    """

    vessel_ids: tuple[str, ...]
    conditions: tuple[str, ...]
    vessels_passed: bool
    sweep: Callable[[], SweepArrays]
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
            self.vessels_passed and np.logical_and.reduce(self.junction_estimates < _JUNCTION_COND_MAX)
        )

    @cached_property
    def arrays(self) -> SweepArrays:
        return self.sweep()

    @cached_property
    def checks(self) -> list[ConditionCheck]:
        a = self.arrays
        value, margin, x_index = (v.tolist() for v in (a.value, a.margin, a.x_index))
        out = []
        for k, vid in enumerate(self.vessel_ids):
            for i, condition in enumerate(self.conditions):
                x, m = x_index[i][k], margin[i][k]
                if x < 0:
                    continue
                failed_end = condition == COND_ENDPOINT and not m > 0
                out.append(
                    ConditionCheck(
                        subject=vid,
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
        counts, first = self.arrays.unevaluable_count.tolist(), self.arrays.unevaluable_first.tolist()
        return [
            self.unevaluable_format.format(vessel=vid, count=n, first=x)
            for vid, n, x in zip(self.vessel_ids, counts, first)
            if n
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

    Both sweeps check a > 0, the area floor, hyperbolicity and the
    endpoint split `a*b`, from `state.coeffs`. A full sweep runs over
    every grid point, with the split read at the two vessel ends only,
    and, if the vessels pass, builds every junction system once, from
    the coefficients at its vessel ends, to record its condition
    estimate. With endpoints_only=True it runs over the two ends of each
    vessel only.

    The vessels pass when the whole sweep's minima do: min a > 0,
    max a < inf, min A - epsilon0 > 0, min(c^2 + ab) > 0 and min ab at
    the vessel ends > 0 (a NaN fails them all). That is the test over
    the report's arrays, which `_sweep_arrays` builds when first read:
    one segment minimum per vessel of each condition, the split +inf off
    the vessel ends. A vessel with an unevaluable point reports no
    condition rows.
    """
    cn, cs = state.layout, state.coeffs
    if endpoints_only:
        # the two ends of each vessel, interleaved: every swept point is an end
        pts, ends, starts, counts, local = cn.ends, slice(None), cn.pair_starts, 2, cn.ends_local
    else:
        pts, ends, starts, counts, local = slice(None), cn.ends, cn.first, cn.counts, cn.local
    a, b, c, A = cs.a[pts], cs.b[pts], cs.c[pts], cs.A[pts]
    ab = a * b
    with np.errstate(over="ignore"):  # eigen classifies an overflow
        disc = c**2 + ab
    passed = _vessels_pass(a, A, disc, ab[ends], cfg.epsilon0)
    sweep = partial(_sweep_arrays, a, A, disc, ab, ends, starts, counts, local, cfg.epsilon0)
    nodes, estimates = (), np.zeros(0)
    if not endpoints_only and passed and cn.junctions.nodes:
        nodes, estimates = cn.junctions.nodes, _junction_estimates(state, cfg)
    return ConditionReport(cn.vessel_ids, _STATE_CONDITIONS, passed, sweep, nodes, estimates)


def _vessels_pass(a, A, disc, split, epsilon0) -> bool:
    """The vessels' verdict from the whole sweep's minima: min a > 0,
    max a < inf, min A - epsilon0 > 0, min(c^2 + ab) > 0 and min split
    > 0 (a NaN fails them all)."""
    least = np.minimum.reduce
    return bool(
        least(a) > 0
        and np.maximum.reduce(a) < np.inf
        and least(A) - epsilon0 > 0
        and least(disc) > 0
        and least(split) > 0
    )


def endpoints_pass(layout: CompiledNetwork, cs: CoefficientSet, epsilon0: float) -> bool:
    """Whether the vessels of a level pass `check_state`'s endpoint sweep,
    without building its report: from a, b, c and A of cs, the level's
    coefficients on layout, taken at the vessel ends, and ab and
    c^2 + ab of those. Equal to `check_state(state, cfg,
    endpoints_only=True).vessels_passed`. Sets no floating-point policy:
    an overflow or invalid product warns unless its caller runs it under
    one, as a `Stepper` does."""
    ends = layout.ends
    a, b, c, A = cs.a.take(ends), cs.b.take(ends), cs.c.take(ends), cs.A.take(ends)
    ab = a * b
    return _vessels_pass(a, A, c * c + ab, ab, epsilon0)


def _sweep_arrays(a, A, disc, ab, ends, starts, counts, local, epsilon0) -> SweepArrays:
    """`check_state`'s per-vessel arrays from a, A, c^2 + ab and ab over
    the swept points: the split is ab at `ends`, an index into them, and
    +inf elsewhere; segments start at `starts` and hold `counts` points,
    whose vessel-local indices are `local`."""
    split = np.full(a.size, np.inf)
    split[ends] = ab[ends]
    worst, first = _segment_min(np.stack((a, A, disc, split)), starts, counts)
    x_index = local[first]
    margin = worst.copy()
    margin[1] -= epsilon0

    bad = ~np.isfinite(a)
    if np.logical_or.reduce(bad):
        skip = np.add.reduceat(bad, starts, dtype=np.intp)
        at = np.minimum.reduceat(np.where(bad, np.arange(a.size), a.size), starts)
        first_bad = np.where(skip > 0, local[np.minimum(at, a.size - 1)], 0)
        x_index[:, skip > 0] = -1
    else:
        skip = first_bad = np.zeros(worst.shape[1], dtype=np.intp)
    return SweepArrays(worst, margin, x_index, skip, first_bad)


def _junction_estimates(state, cfg):
    """Condition estimates of every junction system, in node id order,
    from the layout's one stack, built from the endpoint coefficients
    the first closure of the next step starts from, at (x_end, t + dt,
    P, Q): `state.coeffs`, or, on a layout with a synthetic vessel (the
    only coefficients that depend on t), one `layout_coefficients`
    evaluation at t + dt. An entry that overflows or is invalid gives its
    node an infinite estimate."""
    cn, pts = state.layout, state.layout.ends
    if any(v.synthetic is not None for v in cn.fills):
        cs = layout_coefficients(cn, state.t + cfg.dt, state.P, state.Q)
    else:
        cs = state.coeffs
    a, A = cs.a[pts], cs.A[pts]
    eig = eigen(CoefficientSet(a, cs.b[pts], cs.c[pts], 0.0, 0.0, A))
    lam = np.where(cn.end_x1, eig.lambda_L, eig.lambda_R)
    layout = cn.junctions
    zeros = np.zeros(pts.size)  # the right-hand sides are not needed
    with np.errstate(over="ignore", invalid="ignore"):
        M, b = layout.step(cfg.dt, zeros, state.P_C1, state.P_C2)
        layout.fill(M, b, -lam, a, zeros, A)
        return condition_estimates(M, layout.nodes)


def check_envelope(
    net: Network,
    P_range: tuple[float, float],
    Q_range: tuple[float, float],
    samples: int = 16,
) -> ConditionReport:
    """Static pre-flight sweep: sample a (P, Q) tensor grid at every
    grid station of every vessel and report the worst margin of each
    condition over the envelope. The area_floor margin is the smallest
    area itself, no floor subtracted (check_state's is A - epsilon0).
    Unevaluable points (outside a law's range) are counted but excluded
    from the margins; a condition with no evaluable station is not reported."""
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
        state = PrimitiveState(np.tile(P_row, m), np.tile(Q_row, m))
        cs = coefficients(vessel, np.repeat(vessel.grid, P_row.size), 0.0, state)
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
    arrays = SweepArrays(value, value, x_index, unevaluable, np.zeros(len(vessel_ids), dtype=np.intp))
    return ConditionReport(
        vessel_ids=vessel_ids,
        conditions=_ENVELOPE_CONDITIONS,
        vessels_passed=bool((value > 0).all() and not unevaluable.any()),
        sweep=lambda: arrays,
        unevaluable_format="{vessel}: {count} envelope point(s) outside the tube law's range",
    )
