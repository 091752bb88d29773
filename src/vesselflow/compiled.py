"""Flat structure-of-arrays layout of a vessel network.

`compile_network` lays every vessel grid end to end in one concatenated
array, in vessel id order, so the characteristics kernel runs once per
fixed-point iteration on all grid points instead of once per vessel.
`layout_coefficients` evaluates the coefficients of every point,
unchecked, once per time level: each fixed-point iterate, into the
run's workspace, and each accepted `NetworkState`, into new arrays,
whose cache the checker, the output and the next step read.
`check_coefficients` raises for the first failing point of a physical
vessel in the kernel's levels, the initial state and the output. Vessel
ends have one numbering, e = 2k + x1 for the x=0 (x1 = 0) and x=1
(x1 = 1) end of segment k, the order of `ends` and of the kernel's
endpoint rows. Each node lists its ends in
`endpoints_by_node` order: external nodes keep their single end, and
junction nodes are laid by `junctions.junction_layout`, in node id
order, into one padded stack for the stacked solve, whose flat tables
hold their end indices and parameters. A time level is one flat vector
X = [P | Q | P_C1 | P_C2]: P and Q at every point, then the capacitor
pressures of the transitional nodes; `parts` slices it into the four,
and `segments` starts its segments, each vessel's P, each vessel's Q
and each capacitor, for one `reduceat` over a level. The per-point
tables of the characteristics kernel (j, cells, base, top and
half_cells) come in the shape of the (2, N) family stack or the (3, N)
speed stack they meet, so that none of the kernel's ufuncs broadcasts
them; `local` is the one (N,) local index.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .constitutive import (
    CoefficientSet,
    PowerLawParams,
    PrimitiveState,
    coefficient_failure,
    coefficients,
    power_law_coefficients,
)
from .junctions import JunctionLayout, junction_layout
from .network import (
    ExternalFlow,
    ExternalPressure,
    Network,
    PowerLaw,
    Vessel,
    endpoints_by_node,
    node_attachments,
)


@dataclass(frozen=True)
class ExternalEnds:
    """External nodes of one kind, in node order, and the number e of
    the single vessel end each one closes, its only name (x{e % 2} of
    vessel `vessel_ids[e // 2]`), and that end's grid point."""

    nodes: tuple[ExternalPressure | ExternalFlow, ...]
    ends: np.ndarray  # vessel end indices
    points: np.ndarray  # their grid points


@dataclass(frozen=True)
class CompiledNetwork:
    network: Network  # the network this layout was compiled from
    vessel_ids: tuple[str, ...]  # vessel id order, the layout's order
    vessels: tuple[Vessel, ...]
    offsets: np.ndarray  # segment k holds points offsets[k] .. offsets[k+1]-1
    slices: dict[str, slice]  # vessel id -> its points, in layout order
    first: np.ndarray  # x=0 point of each segment
    counts: np.ndarray  # points of each segment
    # per vessel end e = 2k + x1 of segment k, x1 = 1 at its x=1 end:
    # the one numbering of vessel ends
    ends: np.ndarray  # grid point: first and last point of each segment, interleaved
    end_x1: np.ndarray  # True for x=1 ends: False, True, False, ...
    # each end's three-point one-sided difference: its points (3, 2K)
    # from the end inward and their weights, -3, 4, -1 at x=0 and 3, -4,
    # 1 at x=1
    end_stencil: np.ndarray
    end_weights: np.ndarray
    # each end's resolved family in a flat (2, N) family stack: s (row 1)
    # at x=0, r (row 0) at x=1
    end_families: np.ndarray
    # each end's incoming family, the one its node closes, in the same
    # stack: r (row 0) at x=0, s (row 1) at x=1
    end_incoming: np.ndarray
    ends_local: np.ndarray  # local grid index: 0, n_cells, ...
    pair_starts: np.ndarray  # each segment's first end: 0, 2, 4, ...
    # per point
    x: np.ndarray  # position on the vessel's unit interval
    local: np.ndarray  # local grid index
    zeros: np.ndarray
    # the characteristics kernel's per-point tables in the shape of the
    # stacks they meet, so that none of its ufuncs broadcasts: (2, N), row
    # 0 right-going and row 1 left-going, and (3, N) for the speed stack
    j: np.ndarray  # (2, N) local grid index (float)
    cells: np.ndarray  # (2, N) n_cells of the owning vessel (float)
    half_cells: np.ndarray  # (3, N) 0.5 * n_cells of the owning vessel
    # (2, N) flat index into a (2, N) stack of the owning segment's first
    # and last point, row 1 offset by N
    base: np.ndarray
    top: np.ndarray
    # the power-law parameters at every point, NaN on points of other
    # vessels; None without a power-law vessel
    power: PowerLawParams | None
    fills: tuple[Vessel, ...]  # tabulated and synthetic segments
    physical: tuple[slice, ...]  # the runs of points of non-synthetic vessels
    pressure_ends: ExternalEnds  # the ExternalPressure nodes
    flow_ends: ExternalEnds  # the ExternalFlow nodes
    junctions: JunctionLayout
    junction_points: np.ndarray  # the grid point of each of `junctions.ends`
    # per level vector X: P, Q, P_C1 and P_C2 in it, and the start of each
    # segment (each vessel's P, each vessel's Q, each capacitor)
    parts: tuple[slice, slice, slice, slice]
    segments: np.ndarray

    @property
    def size(self) -> int:
        return int(self.offsets[-1])

    def vessel_at(self, point: int) -> str:
        """Id of the vessel owning a grid point."""
        return self.vessel_ids[int(np.searchsorted(self.offsets, point, side="right")) - 1]


def compile_network(net: Network) -> CompiledNetwork:
    """Build the flat layout of a (validated) network once per run."""
    order = tuple(sorted(net.vessels))
    vessels = tuple(net.vessels[vid] for vid in order)
    counts = np.array([v.n_cells + 1 for v in vessels], dtype=np.intp)
    offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.intp)
    slices = {vid: slice(int(offsets[k]), int(offsets[k + 1])) for k, vid in enumerate(order)}

    def per_point(values):
        """Repeat one value per vessel over that vessel's grid points."""
        return np.repeat(np.asarray(values, dtype=float), counts)

    is_power = [isinstance(v.tube_law, PowerLaw) for v in vessels]

    def power_point(name):
        """One power-law parameter at every point, NaN off the power-law vessels."""
        return per_point([attrgetter(name)(v) if p else np.nan for v, p in zip(vessels, is_power)])

    params = PowerLawParams.of(  # C, R0, beta, alpha, nu, rho
        power_point("tube_law.C"), power_point("tube_law.R0"), power_point("tube_law.beta"),
        power_point("alpha"), power_point("nu"), power_point("rho_blood"),
    ) if any(is_power) else None
    # each run of non-synthetic segments: where a flag steps up and down
    edges = np.flatnonzero(np.diff(np.concatenate(([0], [v.synthetic is None for v in vessels], [0]))))

    seg = {vid: k for k, vid in enumerate(order)}
    end_param, plans = [None] * (2 * len(order)), []
    ends_by_node = endpoints_by_node(net)
    for nid in sorted(net.nodes):
        node = net.nodes[nid]
        node_params = {(vid, end): p for vid, end, p in node_attachments(node)}
        ends = []
        for vid, end, _orient in ends_by_node[nid]:
            e = 2 * seg[vid] + (end == "x1")
            ends.append(e)
            end_param[e] = node_params.get((vid, end))
        plans.append((node, tuple(ends)))
    end_x1 = np.tile([False, True], len(order))
    first, last = offsets[:-1], offsets[1:] - 1

    def external(kind):
        outer = [(node, node_ends[0]) for node, node_ends in plans if isinstance(node, kind)]
        end_numbers = np.array([e for _, e in outer], dtype=np.intp)
        return ExternalEnds(
            nodes=tuple(node for node, _ in outer),
            ends=end_numbers,
            points=ends[end_numbers],
        )

    start = np.repeat(first, counts)  # each point's segment start
    local = np.arange(start.size) - start
    zeros = np.zeros(start.size)
    zeros.setflags(write=False)
    ends = np.stack((first, last), axis=1).ravel()
    inward = np.where(end_x1, -1, 1)
    cells = per_point([v.n_cells for v in vessels])
    junctions = junction_layout(plans, end_x1, end_param)
    n, caps = zeros.size, 2 * len(junctions.transitional)
    row = np.arange(2)[:, None] * n  # each family row's start in a (2, N) stack
    cuts = (0, n, 2 * n, 2 * n + caps // 2, 2 * n + caps)

    return CompiledNetwork(
        network=net,
        vessel_ids=order,
        vessels=vessels,
        offsets=offsets,
        slices=slices,
        first=first,
        counts=counts,
        ends=ends,
        end_x1=end_x1,
        end_stencil=ends + np.arange(3)[:, None] * inward,
        end_weights=np.array([-3.0, 4.0, -1.0])[:, None] * inward,
        end_families=ends + zeros.size * ~end_x1,
        end_incoming=ends + zeros.size * end_x1,
        ends_local=np.stack((np.zeros_like(counts), counts - 1), axis=1).ravel(),
        pair_starts=np.arange(0, 2 * len(counts), 2),
        x=np.concatenate([v.grid for v in vessels]) if vessels else np.zeros(0),
        local=local,
        zeros=zeros,
        j=np.tile(local.astype(float), (2, 1)),
        cells=np.tile(cells, (2, 1)),
        half_cells=np.tile(0.5 * cells, (3, 1)),
        base=row + start,
        top=row + np.repeat(last, counts),
        power=params,
        fills=tuple(v for v, p in zip(vessels, is_power) if not p),
        physical=tuple(slice(int(offsets[a]), int(offsets[b])) for a, b in zip(edges[::2], edges[1::2])),
        pressure_ends=external(ExternalPressure),
        flow_ends=external(ExternalFlow),
        junctions=junctions,
        junction_points=ends[junctions.ends],
        parts=tuple(slice(a, b) for a, b in zip(cuts, cuts[1:])),
        segments=np.concatenate((first, n + first, np.arange(2 * n, 2 * n + caps))),
    )


_FIELDS = ("a", "b", "c", "f", "g", "A")


def coefficient_arrays(cn: CompiledNetwork) -> CoefficientSet:
    """Arrays for one `layout_coefficients` evaluation of every grid
    point. f is the layout's zeros on a power-law-only layout, else
    zeros that the tabulated and synthetic segments overwrite."""
    n = cn.size
    a, b, c, g, A = [np.empty(n) for _ in range(5)]
    return CoefficientSet(a, b, c, np.zeros(n) if cn.fills else cn.zeros, g, A)


def layout_coefficients(
    cn: CompiledNetwork, t: float, P: np.ndarray, Q: np.ndarray, out: CoefficientSet | None = None
) -> CoefficientSet:
    """Coefficients at every grid point of the layout (P and Q in layout
    order), unchecked: one closed form over every point, then one
    `coefficients` call per tabulated or synthetic segment over its own
    points. Unevaluable points come back as NaN; `check_coefficients`
    raises for them. The result is written into out, a
    `coefficient_arrays` set of the layout, or into a new one without it."""
    out = coefficient_arrays(cn) if out is None else out
    if cn.power is not None:  # a layout without power-law vessels skips the closed form
        power_law_coefficients(cn.power, P, Q, out)
    for vessel in cn.fills:
        at = cn.slices[vessel.id]
        seg = coefficients(vessel, cn.x[at], t, PrimitiveState(P[at], Q[at]))
        for name in _FIELDS:
            getattr(out, name)[at] = getattr(seg, name)
    return out


def check_coefficients(cn: CompiledNetwork, P: np.ndarray, cs: CoefficientSet, epsilon0: float) -> None:
    """Raise the `coefficient_failure` of the first failing grid point of
    a physical vessel, in vessel id order, naming its vessel; synthetic
    coefficients are taken as given."""
    for at in cn.physical:
        err = coefficient_failure(P[at], cs.A[at], cs.a[at], epsilon0, lambda k: cn.vessel_at(at.start + k))
        if err is not None:
            raise err
