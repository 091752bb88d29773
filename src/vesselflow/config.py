"""Configuration files: one JSON document per scenario.

Sections: "vessels", "nodes", "solver", "initial", "probes", "output".
Every vessel carries either a tube law (physical model) or constant
synthetic wave-system coefficients (linear model). Junction attachment
ends are inferred from the vessels' own x0/x1 node references, so a
config never states them twice. load_config -> dump_config -> load_config
is the identity on the parsed objects.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields

from .errors import ConfigError
from .network import (
    BranchAttachment,
    Branching,
    ExternalFlow,
    ExternalPressure,
    Network,
    Node,
    PowerLaw,
    SyntheticCoefficients,
    TabulatedLaw,
    TransAttachment,
    Transitional,
    Vessel,
    validate_network,
)
from .output import ProbeSpec, validate_probes
from .signals import BoundarySignal, ConstantSignal, SineSignal, TableSignal
from .solver import InitSpec, SimConfig, VesselInit


@dataclass
class LoadedConfig:
    net: Network
    sim: SimConfig
    init: InitSpec
    probes: list[ProbeSpec]
    output_dir: str = "."
    timeseries: str = "timeseries.csv"
    warnings: list = field(default_factory=list)


_REQUIRED = object()


def _require(mapping, key, path, types=None, default=_REQUIRED):
    """mapping[key], or default where the key is absent and a default is
    given. Raises ConfigError naming the field path when mapping is not
    an object or the field is missing or not of types."""
    if not isinstance(mapping, dict):
        raise ConfigError(f"{path}: expected an object, got {type(mapping).__name__}")
    if key not in mapping:
        if default is not _REQUIRED:
            return default
        raise ConfigError(f"{path}: missing required field {key!r}")
    val = mapping[key]
    if types is not None and not isinstance(val, types):
        raise ConfigError(f"{path}.{key}: expected {types}, got {type(val).__name__}")
    return val


def _out_of_range(path, digits):
    return ConfigError(f"{path}: expected a number in the float range, got an integer of {digits} digits")


def _as_number(val, path, integer=False, finite=True):
    """val as a float, or with integer=True as an int (whole numbers
    only); raises ConfigError naming the field path otherwise, for an
    integer outside the float range, and for NaN or an infinity unless
    finite=False."""
    ok = isinstance(val, (int, float)) and not isinstance(val, bool)
    if ok and integer:
        ok = isinstance(val, int) or val.is_integer()
    if not ok:
        raise ConfigError(f"{path}: expected {'an integer' if integer else 'a number'}, got {val!r}")
    try:
        x = float(val)
    except OverflowError:
        raise _out_of_range(path, len(str(abs(val)))) from None
    if finite and not math.isfinite(x):
        raise ConfigError(f"{path}: expected a finite number, got {val!r}")
    return int(val) if integer else x


def _number(mapping, key, path, default=_REQUIRED, integer=False, finite=True):
    """The numeric field mapping[key] (see _as_number); an absent
    optional field gives default unchanged."""
    val = _require(mapping, key, path, default=default)
    return _as_number(val, f"{path}.{key}", integer, finite) if key in mapping else val


# the JSON keys that differ from the field they fill
_KEYS = {"rho_blood": "rho", "P_C1_init": "P_C1", "P_C2_init": "P_C2"}


def _numbers(cls, mapping, path, names=None, finite=True) -> dict:
    """Keyword arguments for dataclass cls: each of its fields (or those in
    names) read by _number under its JSON key, as an integer where the field
    is an int (annotations are strings) and as its default where absent."""
    return {
        f.name: _number(
            mapping, _KEYS.get(f.name, f.name), path,
            _REQUIRED if f.default is MISSING else f.default,
            integer=f.type == "int", finite=finite,
        )
        for f in fields(cls) if names is None or f.name in names
    }


def _parse_signal(d, path) -> BoundarySignal:
    kind = _require(d, "kind", path, str)
    if kind == "constant":
        return ConstantSignal(**_numbers(ConstantSignal, d, path))
    if kind == "sine":
        return SineSignal(**_numbers(SineSignal, d, path))
    if kind == "table":
        pts = _require(d, "points", path, list)
        if not all(isinstance(p, list) and len(p) == 2 for p in pts):
            raise ConfigError(f"{path}.points: expected [time, value] pairs")
        times = tuple(_as_number(p[0], f"{path}.points[{k}]") for k, p in enumerate(pts))
        values = tuple(_as_number(p[1], f"{path}.points[{k}]") for k, p in enumerate(pts))
        try:
            return TableSignal(times=times, values=values)
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    raise ConfigError(f"{path}.kind: unknown signal kind {kind!r}")


def _signal_dict(sig: BoundarySignal) -> dict:
    if isinstance(sig, TableSignal):
        return {"kind": "table", "points": [[t, v] for t, v in zip(sig.times, sig.values)]}
    return {"kind": "sine" if isinstance(sig, SineSignal) else "constant", **asdict(sig)}


_VESSEL_NUMBERS = ("alpha", "nu", "rho_blood")  # optional; dumped for tube-law vessels only
_CIRCUIT = ("R_C", "C1", "C2", "P_C1_init", "P_C2_init")  # a transitional node's numbers


def _parse_vessel(d, path) -> Vessel:
    vid = _require(d, "id", path, str)
    kwargs = dict(
        id=vid,
        n_cells=_number(d, "n_cells", path, integer=True),
        x0_node=str(_require(d, "x0", path)),
        x1_node=str(_require(d, "x1", path)),
        **_numbers(Vessel, d, path, _VESSEL_NUMBERS),
    )
    has_law = "tube_law" in d
    has_syn = "coefficients" in d
    if has_law == has_syn:
        raise ConfigError(f"{path}: vessel needs exactly one of tube_law or coefficients")
    if has_law:
        law, law_path = d["tube_law"], f"{path}.tube_law"
        lk = _require(law, "kind", law_path, str)
        if lk == "power":
            kwargs["tube_law"] = PowerLaw(**_numbers(PowerLaw, law, law_path))
        elif lk == "tabulated":
            radii = _require(law, "radii", law_path, list)
            pressures = _require(law, "pressures", law_path, list)
            try:
                kwargs["tube_law"] = TabulatedLaw(radii, pressures, law.get("x_stations", (0.0,)))
            except (TypeError, ValueError, OverflowError) as exc:  # a malformed or rejected table
                raise ConfigError(f"{law_path}: {exc}") from exc
        else:
            raise ConfigError(f"{path}.tube_law.kind: unknown law kind {lk!r}")
    else:
        syn, syn_path = d["coefficients"], f"{path}.coefficients"
        kwargs["synthetic"] = SyntheticCoefficients(**_numbers(SyntheticCoefficients, syn, syn_path))
    return Vessel(**kwargs)


def _vessel_dict(v: Vessel) -> dict:
    d = {"id": v.id, "n_cells": v.n_cells, "x0": v.x0_node, "x1": v.x1_node}
    if v.synthetic is not None:
        if any(callable(c) for c in vars(v.synthetic).values()):
            raise ConfigError(f"vessel {v.id!r}: callable coefficients are not serializable")
        d["coefficients"] = asdict(v.synthetic)
        return d
    d.update((_KEYS.get(name, name), getattr(v, name)) for name in _VESSEL_NUMBERS)
    law = v.tube_law
    if isinstance(law, PowerLaw):
        d["tube_law"] = {"kind": "power", **asdict(law)}
    else:
        d["tube_law"] = {
            "kind": "tabulated",
            "radii": law.radii.tolist(),
            "pressures": law.pressures.tolist(),
            "x_stations": law.x_stations.tolist(),
        }
    return d


def _infer_end(vessels: dict[str, Vessel], vid: str, nid: str, path: str) -> str:
    if vid not in vessels:
        raise ConfigError(f"{path}: unknown vessel {vid!r}")
    v = vessels[vid]
    at0, at1 = v.x0_node == nid, v.x1_node == nid
    if at0 == at1:
        raise ConfigError(f"{path}: vessel {vid!r} does not attach to node {nid!r} exactly once")
    return "x0" if at0 else "x1"


def _parse_node(d, vessels, path) -> Node:
    nid = _require(d, "id", path, str)
    kind = _require(d, "kind", path, str)
    if kind == "pressure":
        return ExternalPressure(nid, _parse_signal(_require(d, "signal", path, dict), f"{path}.signal"))
    if kind == "flow":
        return ExternalFlow(nid, _parse_signal(_require(d, "signal", path, dict), f"{path}.signal"))
    if kind == "branching":
        atts = []
        for k, a in enumerate(_require(d, "attachments", path, list)):
            vid = str(_require(a, "vessel", f"{path}.attachments[{k}]"))
            end = _infer_end(vessels, vid, nid, f"{path}.attachments[{k}]")
            atts.append(BranchAttachment(vid, end, _number(a, "rho_j", f"{path}.attachments[{k}]")))
        return Branching(nid, tuple(atts))
    if kind == "transitional":
        arts, veins = [], []
        for group, out, want_end in (("arteries", arts, "x1"), ("veins", veins, "x0")):
            for k, a in enumerate(_require(d, group, path, list)):
                vid = str(_require(a, "vessel", f"{path}.{group}[{k}]"))
                end = _infer_end(vessels, vid, nid, f"{path}.{group}[{k}]")
                if end != want_end:
                    raise ConfigError(
                        f"{path}.{group}[{k}]: vessel {vid!r} must attach at "
                        f"{'x=1' if want_end == 'x1' else 'x=0'}"
                    )
                out.append(TransAttachment(vid, _number(a, "resistance", f"{path}.{group}[{k}]")))
        return Transitional(nid, tuple(arts), tuple(veins), **_numbers(Transitional, d, path, _CIRCUIT))
    raise ConfigError(f"{path}.kind: unknown node kind {kind!r}")


def _node_dict(n: Node) -> dict:
    if isinstance(n, ExternalPressure):
        return {"id": n.id, "kind": "pressure", "signal": _signal_dict(n.signal)}
    if isinstance(n, ExternalFlow):
        return {"id": n.id, "kind": "flow", "signal": _signal_dict(n.signal)}
    if isinstance(n, Branching):
        return {
            "id": n.id, "kind": "branching",
            "attachments": [{"vessel": a.vessel, "rho_j": a.rho_j} for a in n.attachments],
        }
    d = {
        "id": n.id, "kind": "transitional",
        "arteries": [asdict(a) for a in n.arteries],
        "veins": [asdict(a) for a in n.veins],
    }
    # the capacitor seeds are optional: an unseeded one is left out
    d.update((_KEYS.get(name, name), getattr(n, name)) for name in _CIRCUIT if getattr(n, name) is not None)
    return d


def _parse_init(d, path) -> VesselInit:
    return VesselInit(**{
        f.name: _parse_init_field(_require(d, f.name, path, default=f.default), f"{path}.{f.name}")
        for f in fields(VesselInit)
    })


def _init_dict(vi: VesselInit) -> dict:
    return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(vi).items()}


def _parse_init_field(v, path):
    if isinstance(v, list):
        return tuple(_as_number(x, f"{path}[{k}]") for k, x in enumerate(v))
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return _as_number(v, path)
    raise ConfigError(f"{path}: initial field must be a number or an array")


def _parse_probe(d, path) -> ProbeSpec:
    quantities = tuple(str(q) for q in _require(d, "quantities", path, list))
    x_index = _number(d, "x_index", path, None, integer=True)
    x_fraction = _number(d, "x_fraction", path, None)
    try:
        if "vessel" in d:
            return ProbeSpec(
                quantities=quantities, vessel=str(d["vessel"]), x_index=x_index, x_fraction=x_fraction
            )
        if "node" in d:
            return ProbeSpec(quantities=quantities, node=str(d["node"]))
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    raise ConfigError(f"{path}: probe needs vessel= or node=")


def _probe_dict(p: ProbeSpec) -> dict:
    # a probe sets one anchor and, on a vessel, one position: the rest are None
    return {k: list(v) if k == "quantities" else v for k, v in asdict(p).items() if v is not None}


def load_config(path) -> LoadedConfig:
    """Parse and validate a scenario file. Raises ConfigError with the
    offending field path; network validation errors abort, warnings are
    collected on the returned object."""
    try:
        doc = _read_document(path)
    except RecursionError as exc:  # nested deeper than the reader's recursion limit
        raise ConfigError(f"config parse error: {exc}") from exc
    return parse_config(doc)


def _read_document(path):
    try:
        with open(path) as fh:
            text = fh.read()
        doc = json.loads(text)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except ValueError:  # an integer literal longer than Python's int-string limit
        _reject_long_ints(json.loads(text, parse_int=_parse_int), "")
        raise
    return doc


class _LongInt(str):
    """The digits of an integer literal longer than Python's int-string
    limit, and so far outside the float range."""


def _parse_int(literal):
    try:
        return int(literal)
    except ValueError:
        return _LongInt(literal.lstrip("-"))


def _reject_long_ints(node, path):
    """Raise the range error naming the field path of the first _LongInt
    in a document read with parse_int=_parse_int."""
    if isinstance(node, _LongInt):
        raise _out_of_range(path or "config", len(node))
    if isinstance(node, dict):
        for key, child in node.items():
            _reject_long_ints(child, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for k, child in enumerate(node):
            _reject_long_ints(child, f"{path}[{k}]")


def parse_config(doc: dict) -> LoadedConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config root must be an object")

    vessels: dict[str, Vessel] = {}
    for k, vd in enumerate(_require(doc, "vessels", "config", list)):
        v = _parse_vessel(vd, f"vessels[{k}]")
        if v.id in vessels:
            raise ConfigError(f"vessels[{k}]: duplicate vessel id {v.id!r}")
        vessels[v.id] = v

    nodes: dict[str, Node] = {}
    for k, nd in enumerate(_require(doc, "nodes", "config", list)):
        n = _parse_node(nd, vessels, f"nodes[{k}]")
        if n.id in nodes:
            raise ConfigError(f"nodes[{k}]: duplicate node id {n.id!r}")
        nodes[n.id] = n

    net = Network(vessels=vessels, nodes=nodes)
    diags = validate_network(net)
    errors = [d for d in diags if d.severity == "error"]
    if errors:
        raise ConfigError(
            "invalid network: " + "; ".join(f"{d.subject}: {d.message}" for d in errors)
        )

    # non-finite solver settings are left to SimConfig, which names them;
    # read outside the try: a ConfigError is a ValueError too
    settings = _numbers(SimConfig, _require(doc, "solver", "config", dict), "solver", finite=False)
    try:
        sim = SimConfig(**settings)
    except ValueError as exc:  # a rejected setting
        raise ConfigError(f"solver: {exc}") from exc

    init_doc = _require(doc, "initial", "config", dict, {})
    default = _parse_init(_require(init_doc, "default", "initial", dict, {}), "initial.default")
    per_vessel = {}
    for vid, vd in _require(init_doc, "vessels", "initial", dict, {}).items():
        if vid not in vessels:
            raise ConfigError(f"initial.vessels: unknown vessel {vid!r}")
        per_vessel[vid] = _parse_init(vd, f"initial.vessels.{vid}")
    init = InitSpec(default=default, per_vessel=per_vessel)

    probes = [_parse_probe(p, f"probes[{k}]") for k, p in enumerate(_require(doc, "probes", "config", list, []))]
    validate_probes(net, probes)

    out = _require(doc, "output", "config", dict, {})
    return LoadedConfig(
        net=net,
        sim=sim,
        init=init,
        probes=probes,
        output_dir=_require(out, "directory", "output", str, LoadedConfig.output_dir),
        timeseries=_require(out, "timeseries", "output", str, LoadedConfig.timeseries),
        warnings=[d for d in diags if d.severity == "warning"],
    )


def dump_config(cfg: LoadedConfig) -> dict:
    """Normalized JSON-compatible document; load_config of the result
    reproduces identical objects."""
    doc = {
        "vessels": [_vessel_dict(cfg.net.vessels[k]) for k in sorted(cfg.net.vessels)],
        "nodes": [_node_dict(cfg.net.nodes[k]) for k in sorted(cfg.net.nodes)],
        "solver": asdict(cfg.sim),
        "initial": {"default": _init_dict(cfg.init.default or VesselInit())},
        "probes": [_probe_dict(p) for p in cfg.probes],
        "output": {"directory": cfg.output_dir, "timeseries": cfg.timeseries},
    }
    if cfg.init.per_vessel:
        doc["initial"]["vessels"] = {vid: _init_dict(vi) for vid, vi in sorted(cfg.init.per_vessel.items())}
    return doc
