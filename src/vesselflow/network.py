"""Vessel-network model: vessels, tube laws, nodes, and validation.

A network is a directed graph whose edges are vessels (each carrying a
1D pressure/flow field over x in [0, 1]) and whose nodes are either
external ends (prescribed pressure or flow), branching junctions
(flow-rate balance plus per-vessel momentum ODEs with inertance
constants), or transitional junctions (a lumped
arteriole-capillary-venule circuit of two resistive legs around a
capillary resistance R_C with capacitors C1, C2).

Conventions: SI units throughout; Q > 0 means flow in the +x direction;
a vessel end attached at x=1 is "incoming" to its node and an end
attached at x=0 is "outgoing" from it. Vessels are parameterized to the
unit interval, so lengths are absorbed into the coefficient functions.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Union

import numpy as np

from .errors import ConfigError
from .signals import BoundarySignal


# --- tube laws ---------------------------------------------------------


@dataclass(frozen=True)
class PowerLaw:
    """P(R) = C * ((R/R0)**beta - 1); strictly increasing for C, beta > 0."""

    C: float  # pressure scale (Pa)
    R0: float  # reference radius (m)
    beta: float  # exponent

    def __post_init__(self):
        if not (self.C > 0 and self.R0 > 0 and self.beta > 0):
            raise ConfigError("power law requires C > 0, R0 > 0, beta > 0")


class TabulatedLaw:
    """Pressure-radius law given by monotone samples, optionally varying
    along the vessel.

    Parameters
    ----------
    radii : array (k,), strictly increasing admissible radii (m).
    pressures : array (m, k), pressure samples (Pa) per x-station; each
        row must be strictly increasing in R.
    x_stations : array (m,), station positions in [0, 1], strictly
        increasing. A single station makes the law x-independent.
    """

    def __init__(self, radii, pressures, x_stations=(0.0,)):
        self.radii = np.asarray(radii, dtype=float)
        self.pressures = np.atleast_2d(np.asarray(pressures, dtype=float))
        self.x_stations = np.asarray(x_stations, dtype=float)
        if self.radii.ndim != 1 or self.radii.size < 2:
            raise ConfigError("tabulated law needs >= 2 radius samples")
        if not np.all(np.diff(self.radii) > 0):
            raise ConfigError("tabulated law radii must be strictly increasing")
        if self.pressures.shape != (self.x_stations.size, self.radii.size):
            raise ConfigError("tabulated law pressures must be (n_stations, n_radii)")
        if self.x_stations.size > 1 and not np.all(np.diff(self.x_stations) > 0):
            raise ConfigError("tabulated law stations must be strictly increasing")
        if not np.all(np.diff(self.pressures, axis=1) > 0):
            raise ConfigError("tabulated law must be strictly increasing in R")
        # imported here: only tabulated laws need scipy.interpolate, and
        # it is most of the package's import time
        from scipy.interpolate import PchipInterpolator

        # one interpolant over the station rows: at radii R it gives (m, *R.shape)
        self._interp = PchipInterpolator(self.radii, self.pressures, axis=1)
        self._dinterp = self._interp.derivative()

    def __eq__(self, other):
        return (
            isinstance(other, TabulatedLaw)
            and np.array_equal(self.radii, other.radii)
            and np.array_equal(self.pressures, other.pressures)
            and np.array_equal(self.x_stations, other.x_stations)
        )

    def _station_weights(self, x):
        """Lower bracketing station index and interpolation weight toward
        the next station, elementwise in x; None for a single station."""
        xs = self.x_stations
        if xs.size == 1:
            return None
        i = np.clip(np.searchsorted(xs, x) - 1, 0, xs.size - 2)
        w = np.clip((x - xs[i]) / (xs[i + 1] - xs[i]), 0.0, 1.0)
        return i, w


TubeLaw = Union[PowerLaw, TabulatedLaw]


@dataclass(frozen=True)
class SyntheticCoefficients:
    """State-independent wave-system coefficients for a vessel.

    Fields a, b, c, f, g are constants or callables of (x, t) accepting
    numpy arrays. Vessels carrying synthetic coefficients behave as
    linear systems; `area` is the fixed cross-section used wherever a
    junction closure needs one.
    """

    a: float | Callable = 1.0
    b: float | Callable = 1.0
    c: float | Callable = 0.0
    f: float | Callable = 0.0
    g: float | Callable = 0.0
    area: float = 1.0


# --- vessels and nodes -------------------------------------------------


@dataclass(frozen=True)
class Vessel:
    """One vessel edge. Exactly one of tube_law / synthetic must be set."""

    id: str
    n_cells: int
    x0_node: str
    x1_node: str
    alpha: float = 1.1  # momentum correction factor, > 1
    nu: float = 3.3e-6  # kinematic viscosity (m^2/s)
    rho_blood: float = 1050.0  # blood density (kg/m^3)
    tube_law: TubeLaw | None = None
    synthetic: SyntheticCoefficients | None = None

    def __post_init__(self):
        if (self.tube_law is None) == (self.synthetic is None):
            raise ConfigError(
                f"vessel {self.id!r}: exactly one of tube_law or synthetic required"
            )

    @cached_property
    def grid(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.n_cells + 1)

    def end_node(self, end: str) -> str:
        if end == "x0":
            return self.x0_node
        if end == "x1":
            return self.x1_node
        raise ValueError(f"unknown vessel end {end!r}")


@dataclass(frozen=True)
class ExternalPressure:
    id: str
    signal: BoundarySignal


@dataclass(frozen=True)
class ExternalFlow:
    id: str
    signal: BoundarySignal


@dataclass(frozen=True)
class BranchAttachment:
    vessel: str
    end: str  # "x0" | "x1"
    rho_j: float  # inertance constant (> 0)


@dataclass(frozen=True)
class Branching:
    id: str
    attachments: tuple[BranchAttachment, ...]


@dataclass(frozen=True)
class TransAttachment:
    vessel: str
    resistance: float  # lumped arteriole/venule resistance (> 0)


@dataclass(frozen=True)
class Transitional:
    """Lumped microcirculation node: arteries feed capacitor C1, which
    drains through R_C into capacitor C2 feeding the veins. Arteries
    must attach at x=1 and veins at x=0."""

    id: str
    arteries: tuple[TransAttachment, ...]
    veins: tuple[TransAttachment, ...]
    R_C: float
    C1: float
    C2: float
    P_C1_init: float | None = None
    P_C2_init: float | None = None


Node = Union[ExternalPressure, ExternalFlow, Branching, Transitional]


@dataclass
class Network:
    vessels: dict[str, Vessel] = field(default_factory=dict)
    nodes: dict[str, Node] = field(default_factory=dict)


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    subject: str  # vessel or node id
    message: str


def _err(subject, message):
    return Diagnostic("error", subject, message)


def _warn(subject, message):
    return Diagnostic("warning", subject, message)


# --- validation --------------------------------------------------------


def validate_network(net: Network) -> list[Diagnostic]:
    """Check structural well-formedness. Returns an empty list iff the
    network satisfies every invariant; problems come back as diagnostics
    rather than exceptions so callers can report them all at once."""
    diags: list[Diagnostic] = []

    for vid, v in sorted(net.vessels.items()):
        if v.id != vid:
            diags.append(_err(vid, "vessel key does not match vessel id"))
        if v.n_cells < 2:
            diags.append(_err(vid, f"n_cells must be >= 2, got {v.n_cells}"))
        if v.synthetic is None:
            # `not x > 0` so that NaN parameters fail too
            if not v.alpha > 1:
                diags.append(_err(vid, f"alpha must be > 1, got {v.alpha}"))
            if not v.nu > 0:
                diags.append(_err(vid, f"nu must be > 0, got {v.nu}"))
            if not v.rho_blood > 0:
                diags.append(_err(vid, f"rho_blood must be > 0, got {v.rho_blood}"))
        if v.x0_node == v.x1_node:
            diags.append(_err(vid, "self-loop (both ends on one node) rejected"))
        for end in ("x0", "x1"):
            if v.end_node(end) not in net.nodes:
                diags.append(_err(vid, f"{end} references unknown node {v.end_node(end)!r}"))

    # Vessel-end -> node mapping implied by the vessels themselves.
    end_owner: dict[tuple[str, str], str] = {}
    for vid, v in sorted(net.vessels.items()):
        for end in ("x0", "x1"):
            end_owner[(vid, end)] = v.end_node(end)

    ends_at = Counter(end_owner.values())  # each node's vessel ends
    claimed: set[tuple[str, str]] = set()
    for nid, node in sorted(net.nodes.items()):
        if node.id != nid:
            diags.append(_err(nid, "node key does not match node id"))
        atts = node_attachments(node)
        if isinstance(node, (ExternalPressure, ExternalFlow)):
            if ends_at[nid] != 1:
                diags.append(
                    _err(nid, f"external node must terminate exactly one vessel end, found {ends_at[nid]}")
                )
            continue
        if isinstance(node, Branching):
            if len(atts) < 2:
                diags.append(_err(nid, "branching node needs >= 2 attachments"))
            n_in = sum(1 for _, end, _ in atts if end == "x1")
            n_out = sum(1 for _, end, _ in atts if end == "x0")
            if n_in < 1 or n_out < 1:
                diags.append(
                    _err(nid, "branching node needs at least one incoming (x1) and one outgoing (x0) vessel")
                )
            for vid, end, rho_j in atts:
                if not rho_j > 0:
                    diags.append(_err(nid, f"inertance rho_j for vessel {vid!r} must be > 0"))
        if isinstance(node, Transitional):
            if len(node.arteries) < 1 or len(node.veins) < 1:
                diags.append(_err(nid, "transitional node needs >= 1 artery and >= 1 vein"))
            for att in node.arteries + node.veins:
                if not att.resistance > 0:
                    diags.append(_err(nid, f"resistance for vessel {att.vessel!r} must be > 0"))
            for name in ("R_C", "C1", "C2"):
                if not getattr(node, name) > 0:
                    diags.append(_err(nid, f"{name} must be > 0"))
        # attachment/vessel-end bijection
        for vid, end, _ in atts:
            key = (vid, end)
            if key in claimed:
                diags.append(_err(nid, f"vessel end {vid}:{end} attached twice"))
            claimed.add(key)
            if key not in end_owner:
                diags.append(_err(nid, f"attachment references unknown vessel end {vid}:{end}"))
            elif end_owner[key] != nid:
                diags.append(
                    _err(nid, f"vessel {vid!r} end {end} references node {end_owner[key]!r}, not this node")
                )

    for (vid, end), owner in sorted(end_owner.items()):
        node = net.nodes.get(owner)
        if node is None or isinstance(node, (ExternalPressure, ExternalFlow)):
            continue
        if (vid, end) not in claimed:
            diags.append(_err(owner, f"vessel end {vid}:{end} not listed among node attachments"))

    if net.vessels and not _connected(net):
        diags.append(_warn("network", "network graph is not connected"))
    return diags


def node_attachments(node: Node) -> list[tuple[str, str, float]]:
    """(vessel, end, parameter) triples a junction node claims."""
    if isinstance(node, Branching):
        return [(a.vessel, a.end, a.rho_j) for a in node.attachments]
    if isinstance(node, Transitional):
        return [(a.vessel, "x1", a.resistance) for a in node.arteries] + [
            (a.vessel, "x0", a.resistance) for a in node.veins
        ]
    return []


def _connected(net: Network) -> bool:
    start = next(iter(sorted(net.vessels)))
    seen_v = {start}
    frontier = [start]
    by_node: dict[str, list[str]] = {}
    for vid, v in net.vessels.items():
        by_node.setdefault(v.x0_node, []).append(vid)
        by_node.setdefault(v.x1_node, []).append(vid)
    while frontier:
        vid = frontier.pop()
        v = net.vessels[vid]
        for nid in (v.x0_node, v.x1_node):
            for other in by_node.get(nid, ()):
                if other not in seen_v:
                    seen_v.add(other)
                    frontier.append(other)
    return len(seen_v) == len(net.vessels)


def endpoints_by_node(net: Network) -> dict[str, list[tuple[str, str, str]]]:
    """`endpoints_of` for every node at once, in one pass over the vessels."""
    out: dict[str, list[tuple[str, str, str]]] = {nid: [] for nid in net.nodes}
    for vid, v in sorted(net.vessels.items()):
        for end in ("x0", "x1"):
            ends = out.get(v.end_node(end))
            if ends is not None:
                ends.append((vid, end, "incoming" if end == "x1" else "outgoing"))
    return out


def endpoints_of(net: Network, node_id: str) -> list[tuple[str, str, str]]:
    """Vessel ends meeting a node, as (vessel id, end, orientation) with
    orientation "incoming" for x=1 ends and "outgoing" for x=0 ends.
    Deterministic: sorted by vessel id then end."""
    if node_id not in net.nodes:
        raise ValueError(f"unknown node id {node_id!r}")
    return endpoints_by_node(net)[node_id]
