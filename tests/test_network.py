"""Network structure and validation tests."""

import dataclasses

import pytest

from vesselflow import (
    BranchAttachment,
    Branching,
    ConfigError,
    ConstantSignal,
    ExternalFlow,
    ExternalPressure,
    Network,
    PowerLaw,
    SyntheticCoefficients,
    TabulatedLaw,
    TransAttachment,
    Transitional,
    Vessel,
    endpoints_of,
    validate_network,
)

LAW = PowerLaw(C=1e4, R0=1e-3, beta=2.0)


def make_vessel(vid, x0, x1, n_cells=10, **kw):
    return Vessel(id=vid, n_cells=n_cells, x0_node=x0, x1_node=x1, tube_law=LAW, **kw)


def single_vessel_net():
    return Network(
        vessels={"v1": make_vessel("v1", "in", "out")},
        nodes={
            "in": ExternalPressure("in", ConstantSignal(0.0)),
            "out": ExternalFlow("out", ConstantSignal(0.0)),
        },
    )


def y_junction_net():
    vessels = {
        "1": make_vessel("1", "in", "j"),
        "2": make_vessel("2", "j", "out2"),
        "3": make_vessel("3", "j", "out3"),
    }
    nodes = {
        "in": ExternalPressure("in", ConstantSignal(0.0)),
        "j": Branching(
            "j",
            (
                BranchAttachment("1", "x1", 1e-3),
                BranchAttachment("2", "x0", 1e-3),
                BranchAttachment("3", "x0", 1e-3),
            ),
        ),
        "out2": ExternalPressure("out2", ConstantSignal(0.0)),
        "out3": ExternalPressure("out3", ConstantSignal(0.0)),
    }
    return Network(vessels=vessels, nodes=nodes)


def test_minimal_net_is_valid():
    assert validate_network(single_vessel_net()) == []


def test_branching_needs_incoming_and_outgoing():
    net = Network(
        vessels={
            "a": make_vessel("a", "j", "ea"),
            "b": make_vessel("b", "j", "eb"),
        },
        nodes={
            "j": Branching(
                "j", (BranchAttachment("a", "x0", 1e-3), BranchAttachment("b", "x0", 1e-3))
            ),
            "ea": ExternalPressure("ea", ConstantSignal(0.0)),
            "eb": ExternalPressure("eb", ConstantSignal(0.0)),
        },
    )
    diags = validate_network(net)
    errors = [d for d in diags if d.severity == "error"]
    assert len(errors) == 1
    assert "incoming" in errors[0].message


def test_transitional_positivity_invariant():
    net = Network(
        vessels={
            "a": make_vessel("a", "in", "t"),
            "v": make_vessel("v", "t", "out"),
        },
        nodes={
            "in": ExternalPressure("in", ConstantSignal(0.0)),
            "t": Transitional(
                "t",
                arteries=(TransAttachment("a", 1e8),),
                veins=(TransAttachment("v", 1e8),),
                R_C=1e9,
                C1=0.0,  # invalid
                C2=1e-10,
            ),
            "out": ExternalPressure("out", ConstantSignal(0.0)),
        },
    )
    errors = [d for d in validate_network(net) if d.severity == "error"]
    assert len(errors) == 1
    assert "C1" in errors[0].message


def test_endpoints_of_y_junction():
    net = y_junction_net()
    assert endpoints_of(net, "j") == [
        ("1", "x1", "incoming"),
        ("2", "x0", "outgoing"),
        ("3", "x0", "outgoing"),
    ]


def test_endpoints_of_transitional():
    net = Network(
        vessels={
            "4": make_vessel("4", "in", "t"),
            "5": make_vessel("5", "t", "out"),
        },
        nodes={
            "in": ExternalPressure("in", ConstantSignal(0.0)),
            "t": Transitional(
                "t", (TransAttachment("4", 1e8),), (TransAttachment("5", 1e8),),
                R_C=1e9, C1=1e-10, C2=1e-10,
            ),
            "out": ExternalPressure("out", ConstantSignal(0.0)),
        },
    )
    assert endpoints_of(net, "t") == [("4", "x1", "incoming"), ("5", "x0", "outgoing")]


def test_endpoints_of_unknown_node():
    with pytest.raises(ValueError, match="unknown node"):
        endpoints_of(single_vessel_net(), "nope")


def test_endpoints_of_deterministic():
    net = y_junction_net()
    assert endpoints_of(net, "j") == endpoints_of(net, "j")


def test_attachment_bijection_count():
    net = y_junction_net()
    assert validate_network(net) == []
    total = sum(len(endpoints_of(net, nid)) for nid in net.nodes)
    assert total == 2 * len(net.vessels)


@pytest.mark.parametrize("attachments, message", [
    ((("1", "x1"), ("2", "x0"), ("2", "x0"), ("3", "x0")), "vessel end 2:x0 attached twice"),
    ((("1", "x1"), ("2", "x0"), ("3", "x0"), ("ghost", "x0")),
     "attachment references unknown vessel end ghost:x0"),
    ((("1", "x1"), ("2", "x0"), ("3", "x0"), ("2", "x1")),
     "vessel '2' end x1 references node 'out2', not this node"),
    ((("1", "x1"), ("2", "x0")), "vessel end 3:x0 not listed among node attachments"),
])
def test_attachment_diagnostics(attachments, message):
    net = y_junction_net()
    junction = Branching("j", tuple(BranchAttachment(vid, end, 1e-3) for vid, end in attachments))
    net = dataclasses.replace(net, nodes={**net.nodes, "j": junction})
    assert [(d.severity, d.subject, d.message) for d in validate_network(net)] == [("error", "j", message)]


def test_self_loop_rejected():
    net = Network(
        vessels={"v": make_vessel("v", "j", "j")},
        nodes={
            "j": Branching(
                "j", (BranchAttachment("v", "x0", 1e-3), BranchAttachment("v", "x1", 1e-3))
            )
        },
    )
    assert any("self-loop" in d.message for d in validate_network(net))


def test_dangling_node_reference():
    net = Network(
        vessels={"v": make_vessel("v", "in", "ghost")},
        nodes={"in": ExternalPressure("in", ConstantSignal(0.0))},
    )
    errors = [d for d in validate_network(net) if d.severity == "error"]
    assert any("unknown node" in d.message for d in errors)


def test_external_node_single_end():
    net = Network(
        vessels={
            "a": make_vessel("a", "in", "shared"),
            "b": make_vessel("b", "shared", "out"),
        },
        nodes={
            "in": ExternalPressure("in", ConstantSignal(0.0)),
            "shared": ExternalPressure("shared", ConstantSignal(0.0)),
            "out": ExternalPressure("out", ConstantSignal(0.0)),
        },
    )
    errors = [d for d in validate_network(net) if d.severity == "error"]
    assert any("exactly one vessel end" in d.message for d in errors)


def test_external_node_end_counts_pin_the_diagnostics():
    # "shared" terminates two vessel ends and "lonely" none; the other
    # external nodes one each. The list is pinned in full, order included.
    net = Network(
        vessels={
            "a": make_vessel("a", "in", "shared"),
            "b": make_vessel("b", "shared", "out"),
        },
        nodes={
            "in": ExternalPressure("in", ConstantSignal(0.0)),
            "lonely": ExternalFlow("lonely", ConstantSignal(0.0)),
            "out": ExternalPressure("out", ConstantSignal(0.0)),
            "shared": ExternalPressure("shared", ConstantSignal(0.0)),
        },
    )
    assert [dataclasses.astuple(d) for d in validate_network(net)] == [
        ("error", "lonely", "external node must terminate exactly one vessel end, found 0"),
        ("error", "shared", "external node must terminate exactly one vessel end, found 2"),
    ]


def test_disconnected_graph_warns():
    net = Network(
        vessels={
            "a": make_vessel("a", "i1", "o1"),
            "b": make_vessel("b", "i2", "o2"),
        },
        nodes={
            "i1": ExternalPressure("i1", ConstantSignal(0.0)),
            "o1": ExternalPressure("o1", ConstantSignal(0.0)),
            "i2": ExternalPressure("i2", ConstantSignal(0.0)),
            "o2": ExternalPressure("o2", ConstantSignal(0.0)),
        },
    )
    diags = validate_network(net)
    assert [d.severity for d in diags] == ["warning"]
    assert "not connected" in diags[0].message


def test_alpha_must_exceed_one():
    net = single_vessel_net()
    bad = Vessel(id="v1", n_cells=10, x0_node="in", x1_node="out", tube_law=LAW, alpha=1.0)
    net.vessels["v1"] = bad
    errors = [d for d in validate_network(net) if d.severity == "error"]
    assert any("alpha" in d.message for d in errors)


def test_vessel_needs_exactly_one_model():
    with pytest.raises(ConfigError):
        Vessel(id="v", n_cells=4, x0_node="a", x1_node="b")
    with pytest.raises(ConfigError):
        Vessel(
            id="v", n_cells=4, x0_node="a", x1_node="b",
            tube_law=LAW, synthetic=SyntheticCoefficients(),
        )


def test_tabulated_law_monotonicity_enforced():
    with pytest.raises(ConfigError, match="strictly increasing in R"):
        TabulatedLaw(radii=[1e-3, 2e-3, 3e-3], pressures=[[0.0, 5.0, 4.0]])
    law = TabulatedLaw(radii=[1e-3, 2e-3, 3e-3], pressures=[[0.0, 5.0, 9.0]])
    assert law.x_stations.size == 1


def branching_and_transitional_net():
    """in -> a -> j (branching) -> b -> t (transitional) -> v -> out,
    and j -> c -> oc."""
    vessels = {vid: make_vessel(vid, x0, x1) for vid, x0, x1 in (
        ("a", "in", "j"), ("b", "j", "t"), ("c", "j", "oc"), ("v", "t", "out"))}
    nodes = {
        "in": ExternalPressure("in", ConstantSignal(0.0)),
        "j": Branching("j", (BranchAttachment("a", "x1", 1e-3), BranchAttachment("b", "x0", 1e-3),
                             BranchAttachment("c", "x0", 1e-3))),
        "t": Transitional("t", arteries=(TransAttachment("b", 1e8),),
                          veins=(TransAttachment("v", 1e8),), R_C=1e9, C1=1e-10, C2=1e-10),
        "oc": ExternalPressure("oc", ConstantSignal(0.0)),
        "out": ExternalPressure("out", ConstantSignal(0.0)),
    }
    return Network(vessels=vessels, nodes=nodes)


@pytest.mark.parametrize("param", ["alpha", "nu", "rho_blood", "rho_j", "artery_resistance",
                                   "vein_resistance", "R_C", "C1", "C2"])
def test_nan_parameter_is_an_error(param):
    net = branching_and_transitional_net()
    assert validate_network(net) == []
    nan = float("nan")
    if param in ("alpha", "nu", "rho_blood"):
        net.vessels["a"] = dataclasses.replace(net.vessels["a"], **{param: nan})
        subject, word = "a", param
    elif param == "rho_j":
        j = net.nodes["j"]
        atts = (dataclasses.replace(j.attachments[0], rho_j=nan),) + j.attachments[1:]
        net.nodes["j"] = dataclasses.replace(j, attachments=atts)
        subject, word = "j", "rho_j"
    elif param.endswith("resistance"):
        group = "arteries" if param.startswith("artery") else "veins"
        t = net.nodes["t"]
        bad = (dataclasses.replace(getattr(t, group)[0], resistance=nan),)
        net.nodes["t"] = dataclasses.replace(t, **{group: bad})
        subject, word = "t", "resistance"
    else:
        net.nodes["t"] = dataclasses.replace(net.nodes["t"], **{param: nan})
        subject, word = "t", param
    errors = [d for d in validate_network(net) if d.severity == "error"]
    assert len(errors) == 1
    assert errors[0].subject == subject and word in errors[0].message


@pytest.mark.parametrize("name", ["C", "R0", "beta"])
def test_power_law_rejects_nan(name):
    params = {"C": 1e4, "R0": 1e-3, "beta": 2.0}
    params[name] = float("nan")
    with pytest.raises(ConfigError, match="power law requires"):
        PowerLaw(**params)
