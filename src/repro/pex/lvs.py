"""Layout-versus-schematic (LVS) comparison.

Real LVS reduces the extracted layout netlist to devices and connectivity,
then checks it is isomorphic to the schematic.  We do exactly that:

1. strip parasitic elements (the extractor prefixes them), *collapsing*
   the nodes joined by parasitic access resistors back together;
2. build a bipartite device/net graph for both netlists, labelling device
   vertices with (type, polarity, electrical size) and edges with the
   terminal role (drain/gate/source/bulk, or p/n);
3. run VF2 graph isomorphism (networkx) with those labels as match
   predicates.

A pass means the layout implements the schematic's devices and
connectivity exactly — the verification the paper counts ("40 LVS passed
designs").
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.circuits.elements import (
    Capacitor,
    CurrentSource,
    Element,
    Inductor,
    Resistor,
    Vccs,
    Vcvs,
    VoltageSource,
)
from repro.circuits.mosfet import Mosfet
from repro.circuits.netlist import Netlist
from repro.errors import LvsError

if TYPE_CHECKING:
    import networkx as nx

#: Terminal role names per element class (edge labels in the LVS graph).
_TERMINALS: dict[type, tuple[str, ...]] = {
    Mosfet: ("d", "g", "s", "b"),
    Resistor: ("p", "n"),
    Capacitor: ("p", "n"),
    Inductor: ("p", "n"),
    VoltageSource: ("p", "n"),
    CurrentSource: ("p", "n"),
    Vccs: ("p", "n", "cp", "cn"),
    Vcvs: ("p", "n", "cp", "cn"),
}

#: Relative tolerance when comparing electrical sizes.
_SIZE_RTOL = 1e-9


def _device_label(element: Element) -> tuple:
    """Hashable vertex label: device type + electrical size."""
    if isinstance(element, Mosfet):
        return ("mosfet", element.polarity, round(element.w, 15),
                round(element.l, 15), round(element.m, 9))
    if isinstance(element, Resistor):
        return ("resistor", round(element.resistance, 6))
    if isinstance(element, Capacitor):
        return ("capacitor", round(element.capacitance, 21))
    if isinstance(element, Inductor):
        return ("inductor", round(element.inductance, 15))
    if isinstance(element, VoltageSource):
        return ("vsource", round(element.dc, 12))
    if isinstance(element, CurrentSource):
        return ("isource", round(element.dc, 12))
    if isinstance(element, Vccs):
        return ("vccs", round(element.gm, 12))
    if isinstance(element, Vcvs):
        return ("vcvs", round(element.gain, 12))
    raise LvsError(f"unsupported element type {type(element).__name__}")


def reduce_extracted(netlist: Netlist, parasitic_prefix: str) -> Netlist:
    """Strip parasitics: drop PEX capacitors, collapse PEX resistors.

    Collapsing uses union-find over the nodes the parasitic resistors
    connect, mapping every collapsed group to its schematic-named node
    (parasitic internal nodes carry the prefix, so the survivor is the
    original name).
    """
    parent: dict[str, str] = {}

    def find(node: str) -> str:
        parent.setdefault(node, node)
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    def union(a: str, b: str) -> None:
        ra, rb = find(a), find(b)
        if ra == rb:
            return
        # Prefer the schematic-named node as the representative.
        if ra.startswith(parasitic_prefix) and not rb.startswith(parasitic_prefix):
            ra, rb = rb, ra
        parent[rb] = ra

    parasitic_shorts = []
    for element in netlist:
        if element.name.startswith(parasitic_prefix) and isinstance(element, Resistor):
            parasitic_shorts.append(element)
    for short in parasitic_shorts:
        union(short.p, short.n)

    reduced = Netlist(f"{netlist.title}_lvs")
    for element in netlist:
        if element.name.startswith(parasitic_prefix):
            continue
        clone = _reclone(element, [find(n) for n in element.nodes])
        reduced.add(clone)
    return reduced


def _reclone(element: Element, nodes: list[str]) -> Element:
    """Shallow-copy an element onto new node names."""
    import copy

    clone = copy.copy(element)
    clone.nodes = tuple(nodes)
    return clone


def netlist_graph(netlist: Netlist) -> nx.Graph:
    """Bipartite device/net graph with LVS labels."""
    import networkx as nx

    graph = nx.Graph()
    for element in netlist:
        terminals = _TERMINALS.get(type(element))
        if terminals is None:
            raise LvsError(f"unsupported element type {type(element).__name__}")
        if len(terminals) != len(element.nodes):
            raise LvsError(f"element {element.name} arity mismatch")
        dev = ("dev", element.name)
        graph.add_node(dev, kind="device", label=_device_label(element))
        for role, net in zip(terminals, element.nodes):
            net_vertex = ("net", net)
            graph.add_node(net_vertex, kind="net", label=("net",))
            # Parallel terminals on the same net (e.g. a diode-connected
            # MOSFET's gate and drain) fold their roles into one edge label.
            if graph.has_edge(dev, net_vertex):
                roles = graph.edges[dev, net_vertex]["roles"] + (role,)
                graph.edges[dev, net_vertex]["roles"] = tuple(sorted(roles))
            else:
                graph.add_edge(dev, net_vertex, roles=(role,))
    return graph


def lvs_compare(schematic: Netlist, extracted: Netlist,
                parasitic_prefix: str = "PEX_") -> bool:
    """True when the extracted netlist implements the schematic exactly."""
    import networkx as nx

    reduced = reduce_extracted(extracted, parasitic_prefix)
    g_sch = netlist_graph(schematic)
    g_lay = netlist_graph(reduced)
    if g_sch.number_of_nodes() != g_lay.number_of_nodes():
        return False
    matcher = nx.algorithms.isomorphism.GraphMatcher(
        g_sch, g_lay,
        node_match=lambda a, b: a["kind"] == b["kind"] and a["label"] == b["label"],
        edge_match=lambda a, b: a["roles"] == b["roles"])
    return matcher.is_isomorphic()
