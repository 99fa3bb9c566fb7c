"""Structure-cached stamping: build the MNA system once, restamp per sizing.

A topology's netlist has fixed *structure* across sizings — the same
elements connecting the same nodes — and only element *values* change as an
optimiser moves through the parameter grid.  :class:`StampPlan` exploits
this: the first evaluation builds a full :class:`~repro.sim.system.MnaSystem`
(validation, node ordering, branch allocation, scatter maps); every later
evaluation rebuilds only the netlist (the values mapping) and refreshes the
matrices in place through :meth:`MnaSystem.restamp`.

One plan corresponds to one ``(netlist builder, temperature)`` pair — in
practice one ``(topology, corner, temperature)`` combination.  Plans are
robust to structural drift: if a builder ever returns a netlist whose
structure differs from the cached one (e.g. a parasitic extractor dropping
a zero-valued capacitor for some sizing), the plan transparently rebuilds
the system and re-caches.
"""

from __future__ import annotations

from typing import Callable

from repro.circuits.netlist import Netlist
from repro.sim.assembly import SliceReads
from repro.sim.system import MnaSystem, StructureMismatch
from repro.units import ROOM_TEMPERATURE

#: Builds a sized netlist from physical parameter values.
NetlistBuilder = Callable[[dict[str, float]], Netlist]


class StampPlan:
    """Caches one :class:`MnaSystem`'s structure across sizings.

    Parameters
    ----------
    builder:
        ``values -> Netlist`` callable (``Topology.build``, possibly
        composed with a parasitic extractor).
    temperature:
        Simulation temperature [K] for the cached system.
    updater:
        Optional ``(netlist, values) -> bool`` callable that mutates a
        previously-built netlist's element values in place for a new
        sizing (``Topology.update_netlist``).  When it returns True the
        plan skips the netlist rebuild entirely — the fastest path.
    engine:
        Optional linear-algebra backend override (``"dense"``/``"sparse"``)
        forwarded to every :class:`MnaSystem` the plan builds; None (the
        default) lets each system resolve ``REPRO_ENGINE`` at build time
        (:mod:`repro.sim.engine`).
    """

    def __init__(self, builder: NetlistBuilder,
                 temperature: float = ROOM_TEMPERATURE,
                 updater=None, engine: str | None = None):
        self.builder = builder
        self.temperature = float(temperature)
        self.updater = updater
        self.engine = engine
        self._system: MnaSystem | None = None
        self._netlist = None
        self.rebuilds = 0      # structure (re)constructions, for diagnostics
        self.restamps = 0      # fast-path refreshes

    def restamp(self, values: dict[str, float]) -> MnaSystem:
        """Return the plan's system stamped with the sizing ``values``.

        The returned :class:`MnaSystem` is owned by the plan and reused —
        a later call restamps it in place, so callers must extract what
        they need (specs, operating point copies) before re-invoking.
        """
        system = self._bind_values(values)
        system._refresh_values()
        return system

    def restamp_netlist(self, netlist: Netlist) -> MnaSystem:
        """Like :meth:`restamp` for an already-built netlist (used by
        mismatch Monte Carlo, which perturbs netlists directly)."""
        system = self._bind_netlist(netlist)
        system._refresh_values()
        return system

    def _bind_values(self, values: dict[str, float]) -> MnaSystem:
        """Bind the sizing ``values`` (in-place update or rebuild) without
        refreshing the system's value arrays."""
        if (self._system is not None and self.updater is not None
                and self._netlist is not None
                and self._system.netlist is self._netlist
                and self.updater(self._netlist, values)):
            self.restamps += 1
            self._system._demote_changed()
            return self._system
        netlist = self.builder(values)
        self._netlist = netlist
        return self._bind_netlist(netlist)

    def _bind_netlist(self, netlist: Netlist) -> MnaSystem:
        """Bind ``netlist`` to the cached structure (rebuilding it on
        structural drift) without refreshing the value arrays."""
        if self._system is not None:
            try:
                self._system._check_structure(netlist)
            except StructureMismatch:
                self._system = None
            else:
                self._system._attach(netlist)
                self.restamps += 1
                return self._system
        self._system = MnaSystem(netlist, temperature=self.temperature,
                                 engine=self.engine)
        self.rebuilds += 1
        return self._system

    def stack(self, values_list, into=None, offset: int = 0,
              n_slices: int | None = None, n_corners: int = 1):
        """Stamp every sizing in ``values_list`` into a
        :class:`~repro.sim.batch.SystemStack` in one pass.

        Per sizing only the netlist update (or rebuild) and the reads of
        element values run in Python; the stack's ``G/C/b``, device bank
        and noise constants are then written for all slices at once (see
        :mod:`repro.sim.assembly`).  ``into``/``offset`` let multi-plan
        callers (the corner-stacked PEX sweep) fill one shared stack from
        several plans: the first call creates the stack sized ``n_slices``
        (default ``len(values_list)``), later calls append at ``offset``.
        Returns the stack.
        """
        return self._fill(values_list, self._bind_values, values_list,
                          into, offset, n_slices, n_corners)

    def stack_netlists(self, netlists, values=None):
        """:meth:`stack` for already-built netlists (mismatch Monte Carlo
        chunks); every slice records the sizing ``values``."""
        return self._fill(netlists, self._bind_netlist,
                          [values] * len(netlists), None, 0, None, 1)

    def _fill(self, items, bind, values_list, into, offset, n_slices,
              n_corners):
        from repro.sim.batch import SystemStack
        reads = SliceReads()
        system = None
        for item, values in zip(items, values_list):
            system = bind(item)
            if into is None:
                into = SystemStack(system, n_slices or len(items),
                                   n_corners=n_corners)
            reads.add(system, values)
        reads.write(into, offset)
        if system is not None:
            # Leave the plan's system holding the last slice, as a
            # restamp would have.
            system._refresh_values()
        return into

    @property
    def system(self) -> MnaSystem | None:
        """The cached system (None before the first restamp)."""
        return self._system
