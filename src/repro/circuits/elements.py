"""Netlist elements.

Elements are light-weight data objects.  They know how to *stamp* themselves
into a modified-nodal-analysis (MNA) system through the small stamping
protocol defined here; the actual matrices live in :mod:`repro.sim.system`.

Stamping protocol
-----------------
The simulator hands each element a *stamper* object exposing:

``stamper.node(name) -> int``
    Index of a node (ground maps to ``-1`` and is skipped by the add
    methods).
``stamper.branch(element) -> int``
    Index of the element's auxiliary branch current (allocated on demand;
    voltage-defined elements need one).
``stamper.add_g(i, j, value)`` / ``stamper.add_c(i, j, value)``
    Accumulate into the conductance / capacitance matrix.
``stamper.add_b_dc(i, value)`` / ``stamper.add_b_ac(i, value)``
    Accumulate into the DC / AC excitation vectors.

A stamp must make the same ``add_*`` calls at the same positions for
every value of the element: the simulator records the positions once
per netlist structure and afterwards only reads
:meth:`Element.stamp_values` (the written values, in call order).

Linear elements implement :meth:`Element.stamp`.  Nonlinear devices (the
MOSFET) additionally set ``is_nonlinear`` and implement
``eval_companion`` — see :mod:`repro.circuits.mosfet`.

Noise
-----
Elements that generate noise implement :meth:`Element.noise_sources`,
returning ``(node_p, node_n, psd_fn)`` triples where ``psd_fn(freq)`` is the
one-sided current-noise power spectral density [A^2/Hz] injected from
``node_n`` into ``node_p``.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.errors import NetlistError
from repro.units import BOLTZMANN

NoiseSource = tuple[str, str, Callable[[float], float]]


class Element:
    """Base class for every netlist element.

    Parameters
    ----------
    name:
        Unique (per netlist) instance name, e.g. ``"R1"`` or ``"M3"``.
    nodes:
        The node names this element connects to, in element-specific order.
    """

    #: True for devices whose current depends nonlinearly on node voltages.
    is_nonlinear: bool = False

    #: True for elements that add an auxiliary MNA branch-current unknown.
    has_branch: bool = False

    def __init__(self, name: str, nodes: Sequence[str]):
        if not name:
            raise NetlistError("element name must be non-empty")
        self.name = str(name)
        self.nodes = tuple(str(n) for n in nodes)

    def stamp(self, stamper) -> None:
        """Stamp the element's linear contribution into the MNA system."""
        raise NotImplementedError

    def stamp_key(self):
        """Hashable snapshot of the values :meth:`stamp` writes.

        The incremental restamp path (``MnaSystem.rebind_values``) freezes
        the stamps of elements whose key never changes across sizings and
        re-stamps only the rest.  ``None`` (the default) means "unknown" —
        the element is always re-stamped, which is safe for any subclass
        that does not override this.
        """
        return None

    def stamp_values(self) -> tuple[float, ...]:
        """The values :meth:`stamp` writes, one per ``add_*`` call, in
        call order (ground-skipped calls included).

        The default replays :meth:`stamp`; built-in elements override it
        with the same arithmetic, which the stamp tests pin call for call.
        """
        recorder = _ValueRecorder()
        self.stamp(recorder)
        return tuple(recorder.values)

    def noise_sources(self, op) -> list[NoiseSource]:
        """Return this element's noise current sources at operating point ``op``."""
        return []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name}, nodes={self.nodes})"


class _ValueRecorder:
    """Stamper that keeps only the stamped values (see
    :meth:`Element.stamp_values`)."""

    def __init__(self):
        self.values: list[float] = []

    def node(self, name: str) -> int:
        return 0

    def branch(self, element: Element) -> int:
        return 0

    def add_g(self, i: int, j: int, value: float) -> None:
        self.values.append(value)

    add_c = add_g

    def add_b_dc(self, i: int, value: float) -> None:
        self.values.append(value)

    add_b_ac = add_b_dc


class TwoTerminal(Element):
    """Convenience base class for two-terminal elements between ``p`` and ``n``."""

    def __init__(self, name: str, p: str, n: str):
        super().__init__(name, (p, n))

    @property
    def p(self) -> str:
        return self.nodes[0]

    @property
    def n(self) -> str:
        return self.nodes[1]


class Resistor(TwoTerminal):
    """Linear resistor.  Contributes Johnson (thermal) current noise 4kT/R."""

    def __init__(self, name: str, p: str, n: str, resistance: float):
        super().__init__(name, p, n)
        if resistance <= 0.0:
            raise NetlistError(f"resistor {name}: resistance must be > 0, got {resistance}")
        self.resistance = float(resistance)

    def stamp(self, stamper) -> None:
        i, j = stamper.node(self.p), stamper.node(self.n)
        g = 1.0 / self.resistance
        stamper.add_g(i, i, g)
        stamper.add_g(j, j, g)
        stamper.add_g(i, j, -g)
        stamper.add_g(j, i, -g)

    def stamp_key(self):
        return self.resistance

    def stamp_values(self) -> tuple[float, ...]:
        g = 1.0 / self.resistance
        return (g, g, -g, -g)

    def noise_sources(self, op) -> list[NoiseSource]:
        psd = 4.0 * BOLTZMANN * op.temperature / self.resistance

        def thermal(freq, _psd: float = psd):
            # White: broadcast against scalar or array frequency input.
            return _psd + np.zeros_like(np.asarray(freq, dtype=float))

        return [(self.p, self.n, thermal)]


class Capacitor(TwoTerminal):
    """Linear capacitor (noiseless)."""

    def __init__(self, name: str, p: str, n: str, capacitance: float):
        super().__init__(name, p, n)
        if capacitance <= 0.0:
            raise NetlistError(f"capacitor {name}: capacitance must be > 0, got {capacitance}")
        self.capacitance = float(capacitance)

    def stamp_key(self):
        return self.capacitance

    def stamp_values(self) -> tuple[float, ...]:
        c = self.capacitance
        return (c, c, -c, -c)

    def stamp(self, stamper) -> None:
        i, j = stamper.node(self.p), stamper.node(self.n)
        c = self.capacitance
        stamper.add_c(i, i, c)
        stamper.add_c(j, j, c)
        stamper.add_c(i, j, -c)
        stamper.add_c(j, i, -c)


class Inductor(TwoTerminal):
    """Linear inductor.

    Implemented with an auxiliary branch current so that it is a DC short:
    ``v_p - v_n - L di/dt = 0``.
    """

    has_branch = True

    def __init__(self, name: str, p: str, n: str, inductance: float):
        super().__init__(name, p, n)
        if inductance <= 0.0:
            raise NetlistError(f"inductor {name}: inductance must be > 0, got {inductance}")
        self.inductance = float(inductance)

    def stamp_key(self):
        return self.inductance

    def stamp_values(self) -> tuple[float, ...]:
        return (1.0, -1.0, 1.0, -1.0, -self.inductance)

    def stamp(self, stamper) -> None:
        i, j = stamper.node(self.p), stamper.node(self.n)
        k = stamper.branch(self)
        stamper.add_g(i, k, 1.0)
        stamper.add_g(j, k, -1.0)
        stamper.add_g(k, i, 1.0)
        stamper.add_g(k, j, -1.0)
        stamper.add_c(k, k, -self.inductance)


class VoltageSource(TwoTerminal):
    """Independent voltage source with a DC value and an AC magnitude.

    The AC magnitude excites small-signal analyses; it does not affect the
    operating point.
    """

    has_branch = True

    def __init__(self, name: str, p: str, n: str, dc: float = 0.0, ac: float = 0.0):
        super().__init__(name, p, n)
        self.dc = float(dc)
        self.ac = float(ac)

    def stamp_key(self):
        return (self.dc, self.ac)

    def stamp_values(self) -> tuple[float, ...]:
        return (1.0, -1.0, 1.0, -1.0, self.dc, self.ac)

    def stamp(self, stamper) -> None:
        i, j = stamper.node(self.p), stamper.node(self.n)
        k = stamper.branch(self)
        stamper.add_g(i, k, 1.0)
        stamper.add_g(j, k, -1.0)
        stamper.add_g(k, i, 1.0)
        stamper.add_g(k, j, -1.0)
        stamper.add_b_dc(k, self.dc)
        stamper.add_b_ac(k, self.ac)


class CurrentSource(TwoTerminal):
    """Independent current source pushing current from ``p`` to ``n``
    through the external circuit (i.e. current is extracted from node ``p``
    and injected into node ``n`` — the SPICE convention)."""

    def __init__(self, name: str, p: str, n: str, dc: float = 0.0, ac: float = 0.0):
        super().__init__(name, p, n)
        self.dc = float(dc)
        self.ac = float(ac)

    def stamp_key(self):
        return (self.dc, self.ac)

    def stamp_values(self) -> tuple[float, ...]:
        return (-self.dc, self.dc, -self.ac, self.ac)

    def stamp(self, stamper) -> None:
        i, j = stamper.node(self.p), stamper.node(self.n)
        stamper.add_b_dc(i, -self.dc)
        stamper.add_b_dc(j, self.dc)
        stamper.add_b_ac(i, -self.ac)
        stamper.add_b_ac(j, self.ac)


class Vccs(Element):
    """Voltage-controlled current source: ``i(p->n) = gm * (v_cp - v_cn)``.

    Current ``gm * v_ctrl`` flows out of node ``p`` and into node ``n``
    through the source (SPICE G-element convention: current is injected
    into ``p``'s KCL as +gm*v_ctrl leaving the node).
    """

    def __init__(self, name: str, p: str, n: str, cp: str, cn: str, gm: float):
        super().__init__(name, (p, n, cp, cn))
        self.gm = float(gm)

    def stamp_key(self):
        return self.gm

    def stamp_values(self) -> tuple[float, ...]:
        gm = self.gm
        return (gm, -gm, -gm, gm)

    def stamp(self, stamper) -> None:
        i, j = stamper.node(self.nodes[0]), stamper.node(self.nodes[1])
        k, l = stamper.node(self.nodes[2]), stamper.node(self.nodes[3])
        gm = self.gm
        stamper.add_g(i, k, gm)
        stamper.add_g(i, l, -gm)
        stamper.add_g(j, k, -gm)
        stamper.add_g(j, l, gm)


class Vcvs(Element):
    """Voltage-controlled voltage source: ``v_p - v_n = gain * (v_cp - v_cn)``.

    Useful for ideal-amplifier testbenches in unit tests.
    """

    has_branch = True

    def __init__(self, name: str, p: str, n: str, cp: str, cn: str, gain: float):
        super().__init__(name, (p, n, cp, cn))
        self.gain = float(gain)

    def stamp_key(self):
        return self.gain

    def stamp_values(self) -> tuple[float, ...]:
        return (1.0, -1.0, 1.0, -1.0, -self.gain, self.gain)

    def stamp(self, stamper) -> None:
        i, j = stamper.node(self.nodes[0]), stamper.node(self.nodes[1])
        k, l = stamper.node(self.nodes[2]), stamper.node(self.nodes[3])
        br = stamper.branch(self)
        stamper.add_g(i, br, 1.0)
        stamper.add_g(j, br, -1.0)
        stamper.add_g(br, i, 1.0)
        stamper.add_g(br, j, -1.0)
        stamper.add_g(br, k, -self.gain)
        stamper.add_g(br, l, self.gain)
