"""Netlist container behaviour and structural validation."""

import inspect

import networkx as nx
import numpy as np
import pytest

import repro.topologies as topologies
from repro.circuits import (
    Capacitor,
    CurrentSource,
    Netlist,
    Resistor,
    VoltageSource,
    ptm45,
)
from repro.circuits.mosfet import Mosfet
from repro.circuits.netlist import GROUND
from repro.errors import NetlistError
from repro.pex import ParasiticExtractor
from repro.zoo import registry


def _minimal() -> Netlist:
    net = Netlist("min")
    net.add(VoltageSource("V1", "a", "0", dc=1.0))
    net.add(Resistor("R1", "a", "0", 1e3))
    return net


class TestContainer:
    def test_add_and_lookup(self):
        net = _minimal()
        assert len(net) == 2
        assert "R1" in net
        assert net["R1"].resistance == 1e3

    def test_duplicate_name_rejected(self):
        net = _minimal()
        with pytest.raises(NetlistError):
            net.add(Resistor("R1", "a", "0", 2e3))

    def test_missing_lookup_raises(self):
        with pytest.raises(NetlistError):
            _minimal()["R9"]

    def test_remove(self):
        net = _minimal()
        removed = net.remove("R1")
        assert removed.name == "R1"
        assert "R1" not in net
        with pytest.raises(NetlistError):
            net.remove("R1")

    def test_nodes_excludes_ground(self):
        assert _minimal().nodes() == {"a"}

    def test_gnd_alias_is_canonicalised(self):
        net = Netlist("alias")
        net.add(VoltageSource("V1", "a", "gnd", dc=1.0))
        net.add(Resistor("R1", "a", "GND", 1e3))
        assert net.nodes() == {"a"}
        net.validate()

    def test_elements_of(self):
        net = _minimal()
        assert [e.name for e in net.elements_of(Resistor)] == ["R1"]
        assert net.elements_of(Capacitor) == []

    def test_copy_shares_elements(self):
        net = _minimal()
        clone = net.copy("clone")
        assert clone.title == "clone"
        assert clone["R1"] is net["R1"]
        assert len(clone) == len(net)

    def test_extend(self):
        net = Netlist("x")
        net.extend([VoltageSource("V1", "a", "0", dc=1.0),
                    Resistor("R1", "a", "0", 1.0)])
        assert len(net) == 2


class TestValidation:
    def test_empty_netlist_invalid(self):
        with pytest.raises(NetlistError, match="empty"):
            Netlist("e").validate()

    def test_no_ground_reference_invalid(self):
        net = Netlist("ng")
        net.add(Resistor("R1", "a", "b", 1e3))
        with pytest.raises(NetlistError, match="ground"):
            net.validate()

    def test_floating_node_via_capacitor_invalid(self):
        net = _minimal()
        net.add(Capacitor("C1", "a", "float", 1e-12))
        with pytest.raises(NetlistError, match="float"):
            net.validate()

    def test_current_source_does_not_anchor_dc(self):
        # A node held only by a current source has no defined DC potential.
        net = _minimal()
        net.add(CurrentSource("I1", "a", "dangling", dc=1e-3))
        with pytest.raises(NetlistError, match="dangling"):
            net.validate()

    def test_valid_circuit_passes(self, divider_netlist):
        divider_netlist.validate()

    def test_connectivity_graph_shape(self, divider_netlist):
        g = divider_netlist.connectivity_graph()
        assert set(g.nodes()) == {"0", "in", "out"}
        assert g.number_of_edges() >= 3


# -- validate() against the networkx reference --------------------------------

def _reference_validate(net: Netlist) -> None:
    """The networkx formulation of :meth:`Netlist.validate`: the ground
    component of the DC connectivity graph must cover every node."""
    if not len(net):
        raise NetlistError(f"netlist {net.title!r} is empty")
    if not any(GROUND in element.nodes for element in net):
        raise NetlistError(f"netlist {net.title!r} never references ground")
    reachable = nx.node_connected_component(
        net.connectivity_graph(dc_only=True), GROUND)
    floating = sorted(net.nodes() - reachable)
    if floating:
        raise NetlistError(
            f"netlist {net.title!r}: nodes without a DC path to ground: "
            f"{', '.join(floating)}")


def _outcome(check, net: Netlist) -> str | None:
    """None when ``check`` passes, else the error text it raised."""
    try:
        check(net)
    except NetlistError as exc:
        return str(exc)
    return None


def _assert_same_verdict(net: Netlist) -> None:
    assert _outcome(Netlist.validate, net) == _outcome(_reference_validate, net)


def _opened(net: Netlist, kind: type) -> Netlist:
    """``net`` with every ``kind`` element open at DC: each is replaced by
    capacitors across its terminal pairs, so its nodes stay but its DC
    paths go."""
    clone = net.copy(f"{net.title}-{kind.__name__}")
    for element in net.elements_of(kind):
        nodes = clone.remove(element.name).nodes
        for k, (a, b) in enumerate(zip(nodes, nodes[1:])):
            clone.add(Capacitor(f"{element.name}_open{k}", a, b, 1e-15))
    return clone


def _topology_netlists(factory):
    """Centre sizing plus two seeded random sizings of one topology, each
    as the schematic and as its parasitic-extracted layout netlist."""
    topology = factory()
    space = topology.parameter_space
    rng = np.random.default_rng(7)
    extractor = ParasiticExtractor()
    for indices in (space.center, space.sample(rng), space.sample(rng)):
        schematic = topology.build(space.values(indices))
        yield schematic
        yield extractor.extract(schematic)


ZOO_FACTORIES = {name: scenario.create for name, scenario in registry().items()}
MODULE_TOPOLOGIES = {
    name: cls for name in topologies.__all__
    if isinstance(cls := getattr(topologies, name), type)
    and issubclass(cls, topologies.Topology) and not inspect.isabstract(cls)}


class TestValidateMatchesNetworkx:
    """The stdlib traversal in ``validate()`` raises or passes exactly
    where the networkx ground-component reference does."""

    @pytest.mark.parametrize("name", sorted(ZOO_FACTORIES))
    def test_every_zoo_scenario(self, name):
        self._check_family(ZOO_FACTORIES[name])

    @pytest.mark.parametrize("name", sorted(MODULE_TOPOLOGIES))
    def test_every_module_topology(self, name):
        self._check_family(MODULE_TOPOLOGIES[name])

    @staticmethod
    def _check_family(factory):
        for net in _topology_netlists(factory):
            assert _outcome(Netlist.validate, net) is None
            _assert_same_verdict(net)
            # Opening every element of one kind reaches the failing
            # branch: opened devices or resistors strand internal nets.
            for kind in sorted({type(e) for e in net}, key=lambda k: k.__name__):
                _assert_same_verdict(_opened(net, kind))

    def test_floating_behind_capacitor_only(self):
        net = _minimal()
        net.add(Capacitor("C1", "a", "x", 1e-12))
        net.add(Resistor("R2", "x", "y", 1e3))
        _assert_same_verdict(net)
        with pytest.raises(NetlistError, match="x, y"):
            net.validate()

    def test_floating_behind_current_source_only(self):
        net = _minimal()
        net.add(CurrentSource("I1", "0", "x", dc=1e-6))
        net.add(Capacitor("C1", "x", "0", 1e-12))
        _assert_same_verdict(net)
        with pytest.raises(NetlistError, match="x"):
            net.validate()

    def test_node_behind_mosfet_gate_only(self):
        # A MOSFET's terminals are chained d-g-s-b, so a node reached only
        # through a gate is anchored to the drain and source nets.
        tech = ptm45()
        net = _minimal()
        net.add(Mosfet("M1", "a", "gate", "0", "0", polarity="nmos",
                       params=tech.nmos, w=1e-6, l=1e-6))
        net.add(Capacitor("C1", "gate", "0", 1e-12))
        _assert_same_verdict(net)
        net.validate()

    def test_empty_and_groundless_messages_match(self):
        _assert_same_verdict(Netlist("e"))
        net = Netlist("ng")
        net.add(Resistor("R1", "a", "b", 1e3))
        _assert_same_verdict(net)
