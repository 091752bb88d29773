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
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .compiled import check_coefficients
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


@dataclass(frozen=True)
class ProbeRecord:
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


class CsvSink:
    """Streams records to a CSV file with the standard header."""

    def __init__(self, path):
        self.path = path
        self._fh = open(path, "w", newline="")
        self._writer = csv.writer(self._fh)
        self._writer.writerow(CSV_HEADER)

    def emit(self, rec: ProbeRecord) -> None:
        self._writer.writerow(_format_row(rec))

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


def _station_values(P: float, Q: float, A: float) -> dict[str, float]:
    """The vessel quantities at one grid station of area A."""
    return {"P": P, "Q": Q, "A": A, "R": float(np.sqrt(A / np.pi)), "V": Q / A}


def emit_probes(sink, net: Network, state, probes, epsilon0: float) -> None:
    """Emit one record per probe quantity for the current state. A, R
    and V read `state.coeffs` (in a run, already evaluated by the checks);
    a failing point of a physical vessel raises, as in `check_coefficients`."""
    cn = state.layout
    check_coefficients(cn, state.P, state.coeffs, epsilon0)
    A = state.coeffs.A
    junction, transitional = state.junction_pressures, state.transitional
    for p in probes:
        if p.vessel is not None:
            k = cn.slices[p.vessel].start + resolve_probe_index(p, net.vessels[p.vessel].n_cells)
            kind, pid, x = "vessel", p.vessel, float(cn.x[k])
            values = _station_values(float(state.P[k]), float(state.Q[k]), float(A[k]))
        elif isinstance(net.nodes[p.node], Branching):
            kind, pid, x, values = "node", p.node, None, {"P_junc": junction[p.node]}
        else:
            kind, pid, x = "node", p.node, None
            ts = transitional[p.node]
            Q_C = (ts.P_C1 - ts.P_C2) / net.nodes[p.node].R_C
            values = {"P_C1": ts.P_C1, "P_C2": ts.P_C2, "Q_C": Q_C}
        for q in p.quantities:
            sink.emit(ProbeRecord(t=state.t, kind=kind, id=pid, x=x, quantity=q, value=values[q]))


def emit_snapshot(sink, net: Network, state, epsilon0: float) -> None:
    """Emit the full field of every vessel (all stations, all vessel
    quantities) at the current time level, from the state's
    coefficients; a failing point of a physical vessel raises, as in
    `check_coefficients`."""
    cn = state.layout
    check_coefficients(cn, state.P, state.coeffs, epsilon0)
    A = state.coeffs.A.tolist()
    P, Q, x = state.P.tolist(), state.Q.tolist(), cn.x.tolist()
    for vid in sorted(net.vessels):
        sl = cn.slices[vid]
        for k in range(sl.start, sl.stop):
            values = _station_values(P[k], Q[k], A[k])
            for q in VESSEL_QUANTITIES:
                rec = ProbeRecord(t=state.t, kind="vessel", id=vid, x=x[k], quantity=q, value=values[q])
                sink.emit(rec)
