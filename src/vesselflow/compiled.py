"""Flat structure-of-arrays layout of a vessel network.

`compile_network` lays every vessel grid end to end in one concatenated
array, so the characteristics kernel runs once per fixed-point
iteration on all grid points instead of once per vessel. Vessels with a
power tube law come first (sorted by id) and share per-point parameter
arrays; vessels with a tabulated law or synthetic coefficients follow
(sorted by id). `layout_coefficients` evaluates the coefficients of
every point, unchecked, once per time level: each fixed-point iterate,
and each accepted `NetworkState`, whose cache the checker, the output
and the next step read. `check_coefficients` raises for the first
failing point of a physical vessel in the kernel's levels, the initial
state and the output. The node part lists every vessel end attached to a node
once, in node order and `endpoints_by_node` order within a node, with
its grid point; external nodes keep their single end, and junction
nodes are grouped by kind and size into the `junctions.junction_layout`
groups, each holding its nodes' end indices and parameters for the
stacked solve.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """External nodes of one kind, in node order, and the single vessel
    end each one closes."""

    nodes: tuple[ExternalPressure | ExternalFlow, ...]
    ends: np.ndarray  # vessel end indices
    vessel_ids: tuple[str, ...]
    end_names: tuple[str, ...]


@dataclass(frozen=True)
class CompiledNetwork:
    network: Network  # the network this layout was compiled from
    vessel_ids: tuple[str, ...]  # layout order
    vessels: tuple[Vessel, ...]
    offsets: np.ndarray  # segment k holds points offsets[k] .. offsets[k+1]-1
    slices: dict[str, slice]  # vessel id -> its points
    first: np.ndarray  # x=0 point of each segment
    last: np.ndarray  # x=1 point of each segment
    counts: np.ndarray  # points of each segment
    ends: np.ndarray  # first and last point of each segment, interleaved
    ends_local: np.ndarray  # local grid index of each entry of ends: 0, n_cells, ...
    pair_starts: np.ndarray  # position of each segment's pair in ends: 0, 2, 4, ...
    # per point
    x: np.ndarray  # position on the vessel's unit interval
    j: np.ndarray  # local grid index (float)
    local: np.ndarray  # local grid index
    cells: np.ndarray  # n_cells of the owning vessel (float)
    base: np.ndarray  # offset of the owning segment
    zeros: np.ndarray
    power: PowerLawParams  # per-point arrays over the power prefix
    n_power: int  # points with a power law: the prefix [0, n_power)
    fills: tuple[Vessel, ...]  # tabulated and synthetic segments, after the power prefix
    # per attached vessel end
    end_vessel_id: tuple[str, ...]
    end_name: tuple[str, ...]  # "x0" | "x1"
    end_vessel: np.ndarray  # segment index
    end_x1: np.ndarray  # True for x=1 ends
    end_point: np.ndarray  # grid point
    pressure_ends: ExternalEnds  # the ExternalPressure nodes
    flow_ends: ExternalEnds  # the ExternalFlow nodes
    junctions: JunctionLayout

    @property
    def size(self) -> int:
        return int(self.offsets[-1])

    def vessel_at(self, point: int) -> str:
        """Id of the vessel owning a grid point."""
        return self.vessel_ids[int(np.searchsorted(self.offsets, point, side="right")) - 1]


def compile_network(net: Network) -> CompiledNetwork:
    """Build the flat layout of a (validated) network once per run."""
    power = sorted(vid for vid, v in net.vessels.items() if isinstance(v.tube_law, PowerLaw))
    others = sorted(vid for vid in net.vessels if vid not in set(power))
    order = tuple(power + others)
    vessels = tuple(net.vessels[vid] for vid in order)
    counts = np.array([v.n_cells + 1 for v in vessels], dtype=np.intp)
    offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.intp)
    slices = {vid: slice(int(offsets[k]), int(offsets[k + 1])) for k, vid in enumerate(order)}
    n_power = int(offsets[len(power)])

    def per_point(values):
        """Repeat one value per vessel over that vessel's grid points."""
        return np.repeat(np.asarray(values, dtype=float), counts[: len(values)])

    pw = vessels[: len(power)]
    params = PowerLawParams.of(
        C=per_point([v.tube_law.C for v in pw]),
        R0=per_point([v.tube_law.R0 for v in pw]),
        beta=per_point([v.tube_law.beta for v in pw]),
        alpha=per_point([v.alpha for v in pw]),
        nu=per_point([v.nu for v in pw]),
        rho=per_point([v.rho_blood for v in pw]),
    )

    end_vid, end_name, end_vessel, end_param, plans = [], [], [], [], []
    seg = {vid: k for k, vid in enumerate(order)}
    ends_by_node = endpoints_by_node(net)
    for nid in sorted(net.nodes):
        node = net.nodes[nid]
        node_params = {(vid, end): p for vid, end, p in node_attachments(node)}
        ends = []
        for vid, end, _orient in ends_by_node[nid]:
            ends.append(len(end_vid))
            end_vid.append(vid)
            end_name.append(end)
            end_vessel.append(seg[vid])
            end_param.append(node_params.get((vid, end)))
        plans.append((node, tuple(ends)))
    end_vessel = np.array(end_vessel, dtype=np.intp)
    end_x1 = np.array([e == "x1" for e in end_name], dtype=bool)
    first, last = offsets[:-1], offsets[1:] - 1

    def external(kind):
        outer = [(node, ends[0]) for node, ends in plans if isinstance(node, kind)]
        return ExternalEnds(
            nodes=tuple(node for node, _ in outer),
            ends=np.array([k for _, k in outer], dtype=np.intp),
            vessel_ids=tuple(end_vid[k] for _, k in outer),
            end_names=tuple(end_name[k] for _, k in outer),
        )

    base = np.repeat(first, counts)
    local = np.arange(base.size) - base
    zeros = np.zeros(int(offsets[-1]))
    zeros.setflags(write=False)

    return CompiledNetwork(
        network=net,
        vessel_ids=order,
        vessels=vessels,
        offsets=offsets,
        slices=slices,
        first=first,
        last=last,
        counts=counts,
        ends=np.stack((first, last), axis=1).ravel(),
        ends_local=np.stack((np.zeros_like(counts), counts - 1), axis=1).ravel(),
        pair_starts=np.arange(0, 2 * len(counts), 2),
        x=np.concatenate([v.grid for v in vessels]) if vessels else np.zeros(0),
        j=local.astype(float),
        local=local,
        cells=per_point([v.n_cells for v in vessels]),
        base=base,
        zeros=zeros,
        power=params,
        n_power=n_power,
        fills=tuple(net.vessels[vid] for vid in others),
        end_vessel_id=tuple(end_vid),
        end_name=tuple(end_name),
        end_vessel=end_vessel,
        end_x1=end_x1,
        end_point=np.where(end_x1, last[end_vessel], first[end_vessel]).astype(np.intp),
        pressure_ends=external(ExternalPressure),
        flow_ends=external(ExternalFlow),
        junctions=junction_layout(plans, end_x1, end_param),
    )


_FIELDS = ("a", "b", "c", "f", "g", "A")


def layout_coefficients(cn: CompiledNetwork, t: float, P: np.ndarray, Q: np.ndarray) -> CoefficientSet:
    """Coefficients at every grid point of the layout (P and Q in layout
    order), unchecked: one closed form over the power-law prefix, one
    `coefficients` call per tabulated or synthetic segment. Unevaluable
    points come back as NaN; `check_coefficients` raises for them."""
    n = cn.n_power
    cs = power_law_coefficients(cn.power, P[:n], Q[:n])
    if not cn.fills:
        return CoefficientSet(cs.a, cs.b, cs.c, cn.zeros, cs.g, cs.A)
    out = {name: np.empty(P.size) for name in _FIELDS}
    for name in _FIELDS:
        out[name][:n] = getattr(cs, name)
    for vessel in cn.fills:
        at = cn.slices[vessel.id]
        seg = coefficients(vessel, cn.x[at], t, PrimitiveState(P[at], Q[at]), checked=False)
        for name in _FIELDS:
            out[name][at] = getattr(seg, name)
    return CoefficientSet(**out)


def check_coefficients(cn: CompiledNetwork, P: np.ndarray, cs: CoefficientSet, epsilon0: float) -> None:
    """Raise the `coefficient_failure` of the first failing grid point of
    a physical vessel, in layout order, naming its vessel; synthetic
    coefficients are taken as given."""
    # the power prefix (if any), then each tabulated segment
    spans = [slice(0, cn.n_power)] if cn.n_power else []
    for at in spans + [cn.slices[v.id] for v in cn.fills if v.synthetic is None]:
        err = coefficient_failure(P[at], cs.A[at], cs.a[at], epsilon0, lambda k: cn.vessel_at(at.start + k))
        if err is not None:
            raise err
