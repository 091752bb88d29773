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
from dataclasses import dataclass, field


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


def _require(mapping, key, path, types=None):
    if key not in mapping:
        raise ConfigError(f"{path}: missing required field {key!r}")
    val = mapping[key]
    if types is not None and not isinstance(val, types):
        raise ConfigError(f"{path}.{key}: expected {types}, got {type(val).__name__}")
    return val


def _parse_signal(d, path) -> BoundarySignal:
    kind = _require(d, "kind", path, str)
    try:
        if kind == "constant":
            return ConstantSignal(float(_require(d, "value", path)))
        if kind == "sine":
            return SineSignal(
                mean=float(_require(d, "mean", path)),
                amplitude=float(_require(d, "amplitude", path)),
                frequency=float(_require(d, "frequency", path)),
                phase=float(d.get("phase", 0.0)),
            )
        if kind == "table":
            pts = _require(d, "points", path, list)
            return TableSignal(
                times=tuple(float(p[0]) for p in pts),
                values=tuple(float(p[1]) for p in pts),
            )
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    raise ConfigError(f"{path}.kind: unknown signal kind {kind!r}")


def _signal_dict(sig: BoundarySignal) -> dict:
    if isinstance(sig, ConstantSignal):
        return {"kind": "constant", "value": sig.value}
    if isinstance(sig, SineSignal):
        return {
            "kind": "sine", "mean": sig.mean, "amplitude": sig.amplitude,
            "frequency": sig.frequency, "phase": sig.phase,
        }
    return {"kind": "table", "points": [[t, v] for t, v in zip(sig.times, sig.values)]}


def _parse_vessel(d, path) -> Vessel:
    vid = _require(d, "id", path, str)
    kwargs = dict(
        id=vid,
        n_cells=int(_require(d, "n_cells", path)),
        x0_node=str(_require(d, "x0", path)),
        x1_node=str(_require(d, "x1", path)),
    )
    for name, key in (("alpha", "alpha"), ("nu", "nu"), ("rho_blood", "rho")):
        if key in d:
            kwargs[name] = float(d[key])
    has_law = "tube_law" in d
    has_syn = "coefficients" in d
    if has_law == has_syn:
        raise ConfigError(f"{path}: vessel needs exactly one of tube_law or coefficients")
    if has_law:
        law = d["tube_law"]
        lk = _require(law, "kind", f"{path}.tube_law", str)
        if lk == "power":
            kwargs["tube_law"] = PowerLaw(
                C=float(_require(law, "C", f"{path}.tube_law")),
                R0=float(_require(law, "R0", f"{path}.tube_law")),
                beta=float(_require(law, "beta", f"{path}.tube_law")),
            )
        elif lk == "tabulated":
            kwargs["tube_law"] = TabulatedLaw(
                radii=_require(law, "radii", f"{path}.tube_law", list),
                pressures=_require(law, "pressures", f"{path}.tube_law", list),
                x_stations=law.get("x_stations", (0.0,)),
            )
        else:
            raise ConfigError(f"{path}.tube_law.kind: unknown law kind {lk!r}")
    else:
        syn = d["coefficients"]
        kwargs["synthetic"] = SyntheticCoefficients(
            a=float(syn.get("a", 1.0)),
            b=float(syn.get("b", 1.0)),
            c=float(syn.get("c", 0.0)),
            f=float(syn.get("f", 0.0)),
            g=float(syn.get("g", 0.0)),
            area=float(syn.get("area", 1.0)),
        )
    return Vessel(**kwargs)


def _vessel_dict(v: Vessel) -> dict:
    d = {"id": v.id, "n_cells": v.n_cells, "x0": v.x0_node, "x1": v.x1_node}
    if v.synthetic is not None:
        s = v.synthetic
        if any(callable(c) for c in (s.a, s.b, s.c, s.f, s.g)):
            raise ConfigError(f"vessel {v.id!r}: callable coefficients are not serializable")
        d["coefficients"] = {"a": s.a, "b": s.b, "c": s.c, "f": s.f, "g": s.g, "area": s.area}
        return d
    d.update(alpha=v.alpha, nu=v.nu, rho=v.rho_blood)
    law = v.tube_law
    if isinstance(law, PowerLaw):
        d["tube_law"] = {"kind": "power", "C": law.C, "R0": law.R0, "beta": law.beta}
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
            atts.append(BranchAttachment(vid, end, float(_require(a, "rho_j", f"{path}.attachments[{k}]"))))
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
                out.append(TransAttachment(vid, float(_require(a, "resistance", f"{path}.{group}[{k}]"))))
        return Transitional(
            nid, tuple(arts), tuple(veins),
            R_C=float(_require(d, "R_C", path)),
            C1=float(_require(d, "C1", path)),
            C2=float(_require(d, "C2", path)),
            P_C1_init=float(d["P_C1"]) if "P_C1" in d else None,
            P_C2_init=float(d["P_C2"]) if "P_C2" in d else None,
        )
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
        "arteries": [{"vessel": a.vessel, "resistance": a.resistance} for a in n.arteries],
        "veins": [{"vessel": a.vessel, "resistance": a.resistance} for a in n.veins],
        "R_C": n.R_C, "C1": n.C1, "C2": n.C2,
    }
    if n.P_C1_init is not None:
        d["P_C1"] = n.P_C1_init
    if n.P_C2_init is not None:
        d["P_C2"] = n.P_C2_init
    return d


def _parse_init_field(v, path):
    if isinstance(v, (int, float)):
        return float(v)
    if isinstance(v, list):
        return tuple(float(x) for x in v)
    raise ConfigError(f"{path}: initial field must be a number or an array")


def _parse_probe(d, path) -> ProbeSpec:
    quantities = tuple(str(q) for q in _require(d, "quantities", path, list))
    try:
        if "vessel" in d:
            return ProbeSpec(
                quantities=quantities,
                vessel=str(d["vessel"]),
                x_index=int(d["x_index"]) if "x_index" in d else None,
                x_fraction=float(d["x_fraction"]) if "x_fraction" in d else None,
            )
        if "node" in d:
            return ProbeSpec(quantities=quantities, node=str(d["node"]))
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    raise ConfigError(f"{path}: probe needs vessel= or node=")


def _probe_dict(p: ProbeSpec) -> dict:
    d = {"quantities": list(p.quantities)}
    if p.vessel is not None:
        d["vessel"] = p.vessel
        if p.x_index is not None:
            d["x_index"] = p.x_index
        else:
            d["x_fraction"] = p.x_fraction
    else:
        d["node"] = p.node
    return d


def load_config(path) -> LoadedConfig:
    """Parse and validate a scenario file. Raises ConfigError with the
    offending field path; network validation errors abort, warnings are
    collected on the returned object."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return parse_config(doc)


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

    s = _require(doc, "solver", "config", dict)
    dt, t_end = _require(s, "dt", "solver"), _require(s, "t_end", "solver")
    try:
        sim = SimConfig(
            dt=float(dt),
            t_end=float(t_end),
            cfl_max=float(s.get("cfl_max", 0.9)),
            picard_tol=float(s.get("picard_tol", 1e-10)),
            picard_max_iters=int(s.get("picard_max_iters", 50)),
            epsilon0=float(s.get("epsilon0", 1e-10)),
            check_every=int(s.get("check_every", 1)),
        )
    except (TypeError, ValueError) as exc:  # a malformed or rejected setting
        raise ConfigError(f"solver: {exc}") from exc

    init_doc = doc.get("initial", {})
    dd = init_doc.get("default", {})
    default = VesselInit(
        P=_parse_init_field(dd.get("P", 0.0), "initial.default.P"),
        Q=_parse_init_field(dd.get("Q", 0.0), "initial.default.Q"),
    )
    per_vessel = {}
    for vid, vd in init_doc.get("vessels", {}).items():
        if vid not in vessels:
            raise ConfigError(f"initial.vessels: unknown vessel {vid!r}")
        per_vessel[vid] = VesselInit(
            P=_parse_init_field(vd.get("P", 0.0), f"initial.vessels.{vid}.P"),
            Q=_parse_init_field(vd.get("Q", 0.0), f"initial.vessels.{vid}.Q"),
        )
    init = InitSpec(default=default, per_vessel=per_vessel)

    probes = [_parse_probe(p, f"probes[{k}]") for k, p in enumerate(doc.get("probes", []))]
    validate_probes(net, probes)

    out = doc.get("output", {})
    return LoadedConfig(
        net=net,
        sim=sim,
        init=init,
        probes=probes,
        output_dir=str(out.get("directory", ".")),
        timeseries=str(out.get("timeseries", "timeseries.csv")),
        warnings=[d for d in diags if d.severity == "warning"],
    )


def dump_config(cfg: LoadedConfig) -> dict:
    """Normalized JSON-compatible document; load_config of the result
    reproduces identical objects."""
    doc = {
        "vessels": [_vessel_dict(cfg.net.vessels[k]) for k in sorted(cfg.net.vessels)],
        "nodes": [_node_dict(cfg.net.nodes[k]) for k in sorted(cfg.net.nodes)],
        "solver": {
            "dt": cfg.sim.dt, "t_end": cfg.sim.t_end, "cfl_max": cfg.sim.cfl_max,
            "picard_tol": cfg.sim.picard_tol, "picard_max_iters": cfg.sim.picard_max_iters,
            "epsilon0": cfg.sim.epsilon0, "check_every": cfg.sim.check_every,
        },
        "initial": {},
        "probes": [_probe_dict(p) for p in cfg.probes],
        "output": {"directory": cfg.output_dir, "timeseries": cfg.timeseries},
    }

    def init_field_doc(v):
        return list(v) if isinstance(v, tuple) else v

    if cfg.init.default is not None:
        doc["initial"]["default"] = {
            "P": init_field_doc(cfg.init.default.P),
            "Q": init_field_doc(cfg.init.default.Q),
        }
    else:
        doc["initial"]["default"] = {"P": 0.0, "Q": 0.0}
    if cfg.init.per_vessel:
        doc["initial"]["vessels"] = {
            vid: {"P": init_field_doc(vi.P), "Q": init_field_doc(vi.Q)}
            for vid, vi in sorted(cfg.init.per_vessel.items())
        }
    return doc
