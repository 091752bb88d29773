"""Probe records, record sinks, and CSV output.

Each probe observes one grid station of one vessel (quantities P, Q,
A, R, V) or one node (P_C1, P_C2, Q_C on transitional nodes, P_junc on
branching nodes). The solver emits one record per probe quantity per
completed step; rows are ordered by time, then probe declaration order,
then quantity declaration order, and values are formatted with repr so
two identical runs produce byte-identical files.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .compiled import CompiledNetwork, check_coefficients
from .errors import ConfigError
from .network import Branching, Network, Transitional

CSV_HEADER = ("t", "kind", "id", "x", "quantity", "value")

VESSEL_QUANTITIES = ("P", "Q", "A", "R", "V")
NODE_QUANTITIES = ("P_C1", "P_C2", "Q_C", "P_junc")


@dataclass(frozen=True)
class ProbeSpec:
    """One observation point. Set vessel= with x_index or x_fraction,
    or node= for node-internal quantities."""

    quantities: tuple[str, ...]
    vessel: str | None = None
    node: str | None = None
    x_index: int | None = None
    x_fraction: float | None = None

    def __post_init__(self):
        if (self.vessel is None) == (self.node is None):
            raise ConfigError("probe needs exactly one of vessel= or node=")
        if self.vessel is not None:
            if (self.x_index is None) == (self.x_fraction is None):
                raise ConfigError("vessel probe needs exactly one of x_index or x_fraction")
            bad = [q for q in self.quantities if q not in VESSEL_QUANTITIES]
        else:
            bad = [q for q in self.quantities if q not in NODE_QUANTITIES]
        if bad:
            raise ConfigError(f"unknown probe quantities {bad}")
        if not self.quantities:
            raise ConfigError("probe needs at least one quantity")


class ProbeRecord(NamedTuple):
    """One probe value at one time level. A named tuple: the solver
    builds one per probe quantity per step, and a tuple is the cheapest
    immutable record to build."""

    t: float
    kind: str  # "vessel" | "node"
    id: str
    x: float | None
    quantity: str
    value: float


class ListSink:
    """Collects records in memory; handy for tests and experiments."""

    def __init__(self):
        self.records: list[ProbeRecord] = []

    def emit(self, rec: ProbeRecord) -> None:
        self.records.append(rec)


class _Lines(list):
    """A list that a csv.writer writes its lines into."""

    write = list.append


class CsvSink:
    """Streams records to a CSV file with the standard header.

    Every row is the bytes `csv.writer` writes for `_format_row`. The
    records of the first level (the records sharing the first t) are
    written by that writer as they come. From the second level on, the
    sink's own writer formats the constant columns (kind, id, x,
    quantity) of each record key once and keeps them, t is formatted
    once per level, and a row adds repr(value): the reprs of floats
    never need quoting, so the parts join to the writer's row. A sink of
    one level, a snapshot, keeps no keys. kind, id and quantity are
    strings."""

    def __init__(self, path):
        self.path = path
        self._fh = open(path, "w", newline="")
        self._writer = csv.writer(self._fh)
        self._writer.writerow(CSV_HEADER)
        self._lines = _Lines()
        self._format = csv.writer(self._lines).writerow
        self._middle: dict[tuple, str] = {}  # record key -> ",kind,id,x,quantity,"
        self._t = self._t_text = None
        self._keyed = False

    def emit(self, rec: ProbeRecord) -> None:
        t, x = rec.t, rec.x
        if t is not self._t:  # a level's records share its t
            self._t_text = repr(float(t))
            self._keyed, self._t = self._t is not None, t
        if not self._keyed:
            self._writer.writerow(_format_row(rec))
            return
        key = rec[1:5]
        if x == 0:  # 0.0 and -0.0 are equal keys but print apart
            key += (math.copysign(1.0, x),)
        middle = self._middle.get(key)
        if middle is None:
            self._format(("", rec.kind, rec.id, "" if x is None else repr(float(x)), rec.quantity, ""))
            middle = self._lines.pop()[:-2]  # less the writer's "\r\n"
            if x == x:  # a NaN x is never found again
                self._middle[key] = middle
        self._fh.write(f"{self._t_text}{middle}{float(rec.value)!r}\r\n")

    def close(self) -> None:
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def _format_row(rec: ProbeRecord):
    return (
        repr(float(rec.t)),
        rec.kind,
        rec.id,
        "" if rec.x is None else repr(float(rec.x)),
        rec.quantity,
        repr(float(rec.value)),
    )


def write_records(path, records: Iterable[ProbeRecord]) -> None:
    """Write records to a CSV file, header included."""
    with CsvSink(path) as sink:
        for rec in records:
            sink.emit(rec)


def resolve_probe_index(probe: ProbeSpec, n_cells: int) -> int:
    if probe.x_index is not None:
        if not 0 <= probe.x_index <= n_cells:
            raise ConfigError(
                f"probe x_index {probe.x_index} out of range 0..{n_cells} for vessel {probe.vessel!r}"
            )
        return probe.x_index
    if not 0.0 <= probe.x_fraction <= 1.0:
        raise ConfigError(f"probe x_fraction {probe.x_fraction} must lie in [0, 1]")
    return int(round(probe.x_fraction * n_cells))


def validate_probes(net: Network, probes) -> None:
    for p in probes:
        if p.vessel is not None:
            if p.vessel not in net.vessels:
                raise ConfigError(f"probe references unknown vessel {p.vessel!r}")
            resolve_probe_index(p, net.vessels[p.vessel].n_cells)
        else:
            if p.node not in net.nodes:
                raise ConfigError(f"probe references unknown node {p.node!r}")
            node = net.nodes[p.node]
            for q in p.quantities:
                if q == "P_junc" and not isinstance(node, Branching):
                    raise ConfigError(f"P_junc probe needs a branching node, got {p.node!r}")
                if q in ("P_C1", "P_C2", "Q_C") and not isinstance(node, Transitional):
                    raise ConfigError(f"{q} probe needs a transitional node, got {p.node!r}")


class PlanEntry(NamedTuple):
    """One record a probe plan emits per level: the record's kind, id, x
    and quantity, and where its value is read: a grid point in layout
    order, a `P_junc` slot or a transitional slot, whose node's R_C the
    entry carries. A named tuple, like `ProbeRecord`: a snapshot builds
    one per grid point and quantity."""

    kind: str
    id: str
    x: float | None
    quantity: str
    index: int
    R_C: float | None = None


# each quantity at index k of a level s whose areas are A
_READ = {
    "P": lambda s, A, k, R_C: float(s.P[k]),
    "Q": lambda s, A, k, R_C: float(s.Q[k]),
    "A": lambda s, A, k, R_C: float(A[k]),
    "R": lambda s, A, k, R_C: float(np.sqrt(float(A[k]) / np.pi)),
    "V": lambda s, A, k, R_C: float(s.Q[k]) / float(A[k]),
    "P_junc": lambda s, A, k, R_C: float(s.P_junc[k]),
    "P_C1": lambda s, A, k, R_C: float(s.P_C1[k]),
    "P_C2": lambda s, A, k, R_C: float(s.P_C2[k]),
    "Q_C": lambda s, A, k, R_C: (float(s.P_C1[k]) - float(s.P_C2[k])) / R_C,
}


def probe_plan(layout: CompiledNetwork, probes) -> tuple[PlanEntry, ...]:
    """Resolve probes on a compiled layout once: one entry per probe
    quantity, in record order. Raises ConfigError for probes that
    `validate_probes` rejects on the layout's network."""
    validate_probes(layout.network, probes)
    net, junctions = layout.network, layout.junctions
    plan = []
    for p in probes:
        R_C = None
        if p.vessel is not None:
            k = layout.slices[p.vessel].start + resolve_probe_index(p, net.vessels[p.vessel].n_cells)
            kind, pid, x = "vessel", p.vessel, float(layout.x[k])
        elif isinstance(net.nodes[p.node], Branching):
            kind, pid, x, k = "node", p.node, None, junctions.branching.index(p.node)
        else:
            kind, pid, x, k = "node", p.node, None, junctions.transitional.index(p.node)
            R_C = net.nodes[p.node].R_C
        plan.extend(PlanEntry(kind, pid, x, q, k, R_C) for q in p.quantities)
    return tuple(plan)


def emit_probes(sink, plan: Iterable[PlanEntry], state, epsilon0: float) -> None:
    """Emit the records of a `probe_plan` for a state on the plan's
    layout. A, R and V read `state.coeffs` (in a run, already evaluated
    by the checks); a failing point of a physical vessel raises, as in
    `check_coefficients`."""
    check_coefficients(state.layout, state.P, state.coeffs, epsilon0)
    A, t = state.coeffs.A, state.t
    for e in plan:
        value = _READ[e.quantity](state, A, e.index, e.R_C)
        sink.emit(ProbeRecord(t, e.kind, e.id, e.x, e.quantity, value))


def emit_snapshot(sink, state, epsilon0: float) -> None:
    """Emit the full field of every vessel at the current time level:
    `emit_probes` over one entry per vessel quantity at each point of the
    layout, vessels in id order (the layout's order), points in grid
    order. The entries are made as they are emitted, so a snapshot holds
    no plan."""
    x = state.layout.x.tolist()
    entries = (
        PlanEntry("vessel", vid, x[k], q, k)
        for vid, points in state.layout.slices.items()
        for k in range(points.start, points.stop)
        for q in VESSEL_QUANTITIES
    )
    emit_probes(sink, entries, state, epsilon0)
