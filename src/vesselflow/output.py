"""Probe records, record sinks, and CSV output.

Each probe observes one grid station of one vessel (quantities P, Q,
A, R, V) or one node (P_C1, P_C2, Q_C on transitional nodes, P_junc on
branching nodes). `probe_plan` compiles a run's probes once into a
`ProbePlan`: the key (kind, id, x, quantity) of each record it emits per
time level, in record order (probe declaration order, then quantity
declaration order), and the tables its values are gathered through.

Output goes one level at a time. `emit_probes` reads a level's values
in a few vectorized gathers and hands them to the sink in one call,
`sink.emit_level(t, keys, values)`: keys is the plan's tuple of keys,
the same object at every level of a run, and values a list of floats
in key order. That method is all a sink implements; `ListSink` keeps
one `ProbeRecord` per value, `CsvSink` writes one CSV row per value. A
snapshot is one level over a layout-wide plan, emitted in chunks of at
most `SNAPSHOT_CHUNK` points of one vessel. Values are formatted with
repr so two identical runs produce byte-identical files.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from operator import add
from typing import Iterable, NamedTuple

import numpy as np

from .compiled import CompiledNetwork, check_coefficients
from .errors import ConfigError
from .network import Branching, Network, Transitional

CSV_HEADER = ("t", "kind", "id", "x", "quantity", "value")

VESSEL_QUANTITIES = ("P", "Q", "A", "R", "V")
NODE_QUANTITIES = ("P_C1", "P_C2", "Q_C", "P_junc")

SNAPSHOT_CHUNK = 16  # grid points per sink call of a snapshot


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
    """One probe value at one time level."""

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

    def emit_level(self, t: float, keys, values) -> None:
        self.records += [ProbeRecord(t, *key, value) for key, value in zip(keys, values)]

    def emit(self, rec: ProbeRecord) -> None:
        self.records.append(rec)


class _Middles(list):
    """A list that a csv.writer writes its rows into, each less its last
    two characters: the empty value column's "\r\n"."""

    def write(self, line: str) -> None:
        self.append(line[:-2])


def _middles(keys) -> _Middles:
    """Each key's row between its t and value columns: the constant
    columns (kind, id, x, quantity) as a csv.writer writes them between
    empty ones, from the comma after t through the comma before the
    value."""
    middles = _Middles()
    csv.writer(middles).writerows(
        ("", kind, pid, "" if x is None else repr(float(x)), quantity, "")
        for kind, pid, x, quantity in keys
    )
    return middles


class CsvSink:
    """Streams records to a CSV file with the standard header, one write
    per level.

    Every row is the bytes `csv.writer` writes for the record's columns:
    repr(t), kind, id, repr(x) (empty for None), quantity, repr(value).
    The sink keeps the `_middles` of the last keys object it was given,
    so a run's plan is formatted once, and a level joins repr(t), each
    key's middle and repr(value) per row: the reprs of floats never need
    quoting, so the parts join to the writer's rows. kind, id and
    quantity are strings."""

    def __init__(self, path):
        self.path = path
        self._fh = open(path, "w", newline="")
        csv.writer(self._fh).writerow(CSV_HEADER)
        self._keys = self._middles = None

    def emit_level(self, t: float, keys, values) -> None:
        if not keys:
            return
        if keys is not self._keys:
            self._keys = self._middles = None  # freed before the next are formatted
            self._middles, self._keys = _middles(keys), keys
        t = repr(float(t))
        rows = ("\r\n" + t).join(map(add, self._middles, map(repr, values)))
        self._fh.write(f"{t}{rows}\r\n")

    def emit(self, rec: ProbeRecord) -> None:
        """Write one record, as a level of one key."""
        self.emit_level(rec.t, (rec[1:5],), (float(rec.value),))

    def close(self) -> None:
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


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


@dataclass(frozen=True, eq=False)
class ProbePlan:
    """Compiled probe records: each record's key (kind, id, x,
    quantity), in record order, and how a level's values are read.

    A level is gathered into the plan's own `level` buffer: one `take`
    from the level vector X (for P, Q, P_C1 and P_C2, V's Q, and Q_C's
    P_C1 and P_C2), one from the coefficients' A (for A, R and V's A)
    and one from P_junc, each read an (indices, view of `level`) pair,
    None where no record reads from it. R = sqrt(A / pi), V = Q / A and
    Q_C = (P_C1 - P_C2) / R_C are then computed in place, on the views
    `R`, `V` (Q's, then A's) and `Q_C` (P_C1's, then P_C2's, then each
    node's R_C), and `order` takes each record's value from `level`."""

    keys: tuple[tuple[str, str, float | None, str], ...]
    order: np.ndarray
    level: np.ndarray
    X: tuple[np.ndarray, np.ndarray] | None
    A: tuple[np.ndarray, np.ndarray] | None
    P_junc: tuple[np.ndarray, np.ndarray] | None
    R: np.ndarray | None
    V: tuple[np.ndarray, np.ndarray] | None
    Q_C: tuple[np.ndarray, np.ndarray, np.ndarray] | None

    def values(self, state) -> list[float]:
        """The records' values at a level on the plan's layout, in record
        order: three gathers at most, and R, V and Q_C elementwise by the
        IEEE operations of their scalar forms, so each value has their
        bits. A, R and V read `state.coeffs`, unchecked."""
        # the gathers' indices lie inside their arrays, so "clip" never
        # clips; it lets take write into the view without a buffer
        if self.X is not None:
            at, out = self.X
            state.X.take(at, out=out, mode="clip")
        if self.A is not None:
            at, out = self.A
            state.coeffs.A.take(at, out=out, mode="clip")
        if self.P_junc is not None:
            at, out = self.P_junc
            state.P_junc.take(at, out=out, mode="clip")
        if self.R is not None:
            np.sqrt(np.divide(self.R, np.pi, out=self.R), out=self.R)
        if self.V is not None:
            Q, A = self.V
            np.divide(Q, A, out=Q)
        if self.Q_C is not None:
            P_C1, P_C2, R_C = self.Q_C
            np.divide(np.subtract(P_C1, P_C2, out=P_C1), R_C, out=P_C1)
        return self.level.take(self.order).tolist()


# the runs of a plan's `level` buffer, in order: four gathered from X,
# three from the coefficients' A, and P_junc's
_RUNS = ("X", "V_Q", "P_C1", "P_C2", "A", "R", "V_A", "P_junc")


def _compile(layout: CompiledNetwork, entries) -> ProbePlan:
    """A plan of entries (kind, id, x, quantity, k, R_C) in record
    order; k is a grid point in layout order for a vessel quantity, a
    `P_junc` slot or a transitional slot, and R_C the transitional
    node's for Q_C."""
    n, C1, C2 = layout.size, layout.parts[2].start, layout.parts[3].start
    in_X = {"P": 0, "Q": n, "P_C1": C1, "P_C2": C2}  # each part's start in X
    # each run's gather indices, and the records whose values it holds
    runs, records = {name: [] for name in _RUNS}, {name: [] for name in _RUNS}
    keys, R_C = [], []
    for i, (kind, pid, x, quantity, k, r_c) in enumerate(entries):
        keys.append((kind, pid, x, quantity))
        if quantity in in_X:
            run = "X"
            runs[run].append(in_X[quantity] + k)
        elif quantity == "V":  # Q / A
            run = "V_Q"
            runs[run].append(n + k)
            runs["V_A"].append(k)
        elif quantity == "Q_C":  # (P_C1 - P_C2) / R_C
            run = "P_C1"
            runs[run].append(C1 + k)
            runs["P_C2"].append(C2 + k)
            R_C.append(r_c)
        else:  # A, R and P_junc
            run = quantity
            runs[run].append(k)
        records[run].append(i)

    start, bounds, order = 0, {}, np.empty(len(keys), dtype=np.intp)
    for name in _RUNS:
        bounds[name] = slice(start, start + len(runs[name]))
        order[records[name]] = np.arange(start, start + len(records[name]))
        start += len(runs[name])
    level = np.empty(start)

    def read(*names):
        at = [k for name in names for k in runs[name]]
        return (np.array(at, dtype=np.intp), level[bounds[names[0]].start : bounds[names[-1]].stop]) if at else None

    return ProbePlan(
        keys=tuple(keys),
        order=order,
        level=level,
        X=read("X", "V_Q", "P_C1", "P_C2"),
        A=read("A", "R", "V_A"),
        P_junc=read("P_junc"),
        R=level[bounds["R"]] if runs["R"] else None,
        V=(level[bounds["V_Q"]], level[bounds["V_A"]]) if runs["V_Q"] else None,
        Q_C=(level[bounds["P_C1"]], level[bounds["P_C2"]], np.array(R_C)) if R_C else None,
    )


def probe_plan(layout: CompiledNetwork, probes) -> ProbePlan:
    """Compile probes on a compiled layout once: one record per probe
    quantity, in record order. Raises ConfigError for probes that
    `validate_probes` rejects on the layout's network."""
    validate_probes(layout.network, probes)
    net, junctions = layout.network, layout.junctions
    entries = []
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
        entries += [(kind, pid, x, q, k, R_C) for q in p.quantities]
    return _compile(layout, entries)


def emit_probes(sink, plan: ProbePlan, state, epsilon0: float) -> None:
    """Emit the level of a `probe_plan` for a state on the plan's layout
    in one `sink.emit_level` call. A, R and V read `state.coeffs` (in a
    run, already evaluated by the checks); a failing point of a physical
    vessel raises, as in `check_coefficients`."""
    check_coefficients(state.layout, state.P, state.coeffs, epsilon0)
    sink.emit_level(state.t, plan.keys, plan.values(state))


def emit_snapshot(sink, state, epsilon0: float) -> None:
    """Emit the full field of every vessel at the current time level:
    one level over a layout-wide plan of every vessel quantity at each
    point of the layout, vessels in id order (the layout's order),
    points in grid order. The plan is compiled and emitted in chunks of
    at most `SNAPSHOT_CHUNK` points of one vessel, one `sink.emit_level`
    call each, so a snapshot holds one chunk's plan at a time."""
    layout = state.layout
    check_coefficients(layout, state.P, state.coeffs, epsilon0)
    for vid, points in layout.slices.items():
        for start in range(points.start, points.stop, SNAPSHOT_CHUNK):
            chunk = range(start, min(start + SNAPSHOT_CHUNK, points.stop))
            plan = _compile(layout, (
                ("vessel", vid, x, q, k, None)
                for k, x in zip(chunk, layout.x[chunk.start : chunk.stop].tolist())
                for q in VESSEL_QUANTITIES
            ))
            sink.emit_level(state.t, plan.keys, plan.values(state))
