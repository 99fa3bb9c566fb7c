"""Parasitic extraction and the PEX+PVT simulator wrapper.

:class:`ParasiticExtractor` annotates a sized netlist with the parasitics
its pseudo-layout implies:

* **wiring capacitance** — per-net ground capacitance proportional to the
  net's half-perimeter wirelength, plus a per-terminal via/contact cap;
* **access resistance** — series resistance into every MOSFET drain and
  source (contact + LDD), inversely proportional to device width, realised
  by splitting the terminal node;
* **mesh mode** (``ExtractionRules.mesh_segments > 0``) — each net's
  wiring parasitics become a distributed series-R / shunt-C stub of that
  many segments instead of one lumped capacitor.  The extracted netlist
  grows by ``2 * segments`` elements per net, which pushes post-layout
  systems past the sparse-engine threshold (:mod:`repro.sim.engine`) —
  the high-fidelity large-netlist PEX scenario.

:class:`PexSimulator` is the BAG stand-in the transfer experiment deploys
through: it builds the schematic, extracts it, solves it across PVT
corners, takes the worst-case value of every spec, and offers an
:meth:`PexSimulator.lvs_check` that verifies the extracted netlist's
device-level connectivity against the schematic (paper: "AutoCkt is able
to obtain 40 LVS passed designs").

Stacked corner evaluation
-------------------------
A full PVT signoff of B designs is one ``(B*K, n, n)`` problem: every
corner of every design is a same-structure MNA snapshot (the extractor
adds identical parasitic elements for every sizing, and corners only
change device cards, VDD and temperature — values, not structure).
:meth:`PexSimulator.evaluate` and :meth:`PexSimulator.evaluate_batch`
therefore fill one corner-major :class:`~repro.sim.batch.SystemStack`
from the per-corner :class:`~repro.sim.stamp.StampPlan` caches, find all
operating points in a single batched damped-Newton call, measure the
whole stack through the topology's stacked measurement path, and reduce
each spec worst-case over the corner axis — replacing the historical
corner-by-corner loop (kept as :meth:`PexSimulator.evaluate_percorner`
for equivalence testing and benchmarking).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.circuits.elements import Capacitor, Resistor
from repro.circuits.mosfet import Mosfet
from repro.circuits.netlist import GROUND, Netlist
from repro.core.specs import SpecKind
from repro.errors import ConvergenceError, MeasurementError
from repro.pex.corners import CornerSpec, signoff_corners
from repro.pex.layout import PseudoLayout, generate_layout
from repro.pex.lvs import lvs_compare
from repro.sim.batch import SystemStack, solve_dc_batch
from repro.sim.cache import SimulationCache, SimulationCounter, sizing_key
from repro.sim.dc import OperatingPoint, solve_dc
from repro.sim.stamp import StampPlan
from repro.sim.store import SCHEMA_VERSION, get_store, scope_digest
from repro.topologies.base import CircuitSimulator, Topology
from repro.units import MICRO

#: Prefix of every element the extractor adds (LVS strips these).
PEX_PREFIX = "PEX_"


def mesh_segment_values(r_net: float, c_net: float,
                        segments: int) -> tuple[float, float]:
    """Per-segment ``(R, C)`` of a net's distributed mesh stub.

    The single source of the split formula: both the cold extraction
    (:meth:`ParasiticExtractor._add_mesh`) and the in-place updater fast
    path must produce identical element values, or a warm restamp would
    silently drift from a fresh build.
    """
    return max(r_net / segments, 1e-3), c_net / segments


@dataclasses.dataclass(frozen=True)
class ExtractionRules:
    """Technology-style extraction coefficients."""

    #: Wiring capacitance per metre of estimated wirelength [F/m].
    #: 1 fF/um — HPWL underestimates true routed length, so the coefficient
    #: folds in a routing-overhead factor, as fast extractors do.
    c_wire_per_m: float = 1.0e-9
    #: Extra capacitance per device terminal on a net [F] (via + contact).
    c_terminal: float = 0.5e-15
    #: Access resistance coefficient [ohm * m]: R = rho / (W * m);
    #: 40 ohm for a 1 um wide device (contact + LDD).
    r_access_ohm_m: float = 40.0 * MICRO
    #: Floor for access resistance [ohm].
    r_access_min: float = 0.5
    #: Wire sheet resistance per metre of estimated wirelength [ohm/m]
    #: (0.1 ohm/um of mid-level metal); only used by the mesh mode.
    r_wire_per_m: float = 0.1 / MICRO
    #: High-fidelity mesh mode: when > 0, each net's wiring parasitics
    #: are extracted as this many series-R / shunt-C segments (a
    #: distributed RC stub off the net) instead of one lumped ground
    #: capacitor.  Per-segment parasitics multiply the extracted netlist
    #: size, which is exactly the post-layout regime the sparse engine
    #: (:mod:`repro.sim.sparse`) is for.
    mesh_segments: int = 0


class ParasiticExtractor:
    """Annotates netlists with layout parasitics."""

    def __init__(self, rules: ExtractionRules | None = None):
        self.rules = rules or ExtractionRules()

    def extract(self, netlist: Netlist,
                layout: PseudoLayout | None = None) -> Netlist:
        """Return a new netlist: the input plus parasitic elements.

        Node names of the schematic are preserved (measurements still find
        their probe nodes); MOSFET drain/source terminals are moved onto
        new internal nodes behind access resistors.
        """
        layout = layout or generate_layout(netlist)
        rules = self.rules
        extracted = Netlist(f"{netlist.title}_pex")

        for element in netlist:
            if isinstance(element, Mosfet):
                d_int = f"{PEX_PREFIX}{element.name}_d"
                s_int = f"{PEX_PREFIX}{element.name}_s"
                r_acc = max(rules.r_access_ohm_m / (element.w * element.m),
                            rules.r_access_min)
                extracted.add(Resistor(f"{PEX_PREFIX}R_{element.name}_d",
                                       element.d, d_int, r_acc))
                extracted.add(Resistor(f"{PEX_PREFIX}R_{element.name}_s",
                                       element.s, s_int, r_acc))
                extracted.add(Mosfet(element.name, d_int, element.g, s_int,
                                     element.b, polarity=element.polarity,
                                     params=element.params, w=element.w,
                                     l=element.l, m=element.m))
            else:
                extracted.add(element)

        for net, hpwl in layout.net_hpwl.items():
            if net == GROUND:
                continue
            c_net = (rules.c_wire_per_m * hpwl
                     + rules.c_terminal * layout.net_terminals.get(net, 0))
            if c_net <= 0.0:
                continue
            if rules.mesh_segments > 0:
                self._add_mesh(extracted, net, c_net,
                               rules.r_wire_per_m * hpwl)
            else:
                extracted.add(Capacitor(f"{PEX_PREFIX}C_{net}", net, GROUND,
                                        c_net))
        return extracted

    def _add_mesh(self, extracted: Netlist, net: str, c_net: float,
                  r_net: float) -> None:
        """Distributed RC stub for one net (mesh mode).

        The net's total wiring capacitance ``c_net`` and resistance
        ``r_net`` are split over ``mesh_segments`` series-R / shunt-C
        sections hanging off the net: DC connectivity is untouched (the
        stub carries no DC current, and LVS collapses it away), but the
        AC/transient load is a diffusive RC line instead of a single
        pole — per-segment parasitics, as a field-solver-grade extractor
        would report.
        """
        m = self.rules.mesh_segments
        r_seg, c_seg = mesh_segment_values(r_net, c_net, m)
        prev = net
        for k in range(1, m + 1):
            node = f"{PEX_PREFIX}w_{net}__{k}"
            extracted.add(Resistor(f"{PEX_PREFIX}RW_{net}__{k}", prev, node,
                                   r_seg))
            extracted.add(Capacitor(f"{PEX_PREFIX}C_{net}__{k}", node, GROUND,
                                    c_seg))
            prev = node


class PexSimulator(CircuitSimulator):
    """Post-layout, PVT-corner-swept simulator for one topology.

    Parameters
    ----------
    topology_factory:
        Zero-argument callable building the topology; one instance is
        created per PVT corner (each carries the corner's device cards).
    corners:
        PVT corners to sweep; every spec reports its worst-case value
        across them (paper §III-D).
    """

    def __init__(self, topology_factory, corners: list[CornerSpec] | None = None,
                 rules: ExtractionRules | None = None, cache: bool = True):
        self.corners = corners if corners is not None else signoff_corners()
        if not self.corners:
            raise MeasurementError("PexSimulator needs at least one corner")
        self._topology_factory = topology_factory
        self._rules = rules
        self.extractor = ParasiticExtractor(rules)
        self._topologies: list[Topology] = [
            corner.apply(topology_factory) for corner in self.corners]
        # One structure cache per corner: extracted netlists keep their
        # structure across sizings (the extractor adds the same parasitic
        # elements for every sizing of a topology), so each corner's MNA
        # system is built once and restamped per evaluation — through the
        # in-place updater fast path (schematic values via the topology's
        # own update_netlist, parasitic values recomputed directly) when
        # the topology supports it.  StampPlan falls back to a rebuild if
        # a sizing ever changes the extracted structure.
        self._plans: list[StampPlan] = [
            StampPlan(self._corner_builder(topology),
                      temperature=topology.temperature,
                      updater=self._corner_updater(topology))
            for topology in self._topologies]
        self._sch_netlist: Netlist | None = None
        self._cnet_cache: dict[tuple, dict[str, tuple[float, float]]] = {}
        reference = self._topologies[0]
        self.parameter_space = reference.parameter_space
        self.spec_space = reference.spec_space
        self.counter = SimulationCounter()
        self._cache = SimulationCache(50_000) if cache else None
        self._warm: dict[int, np.ndarray] = {}
        self._corner_ref: dict[int, np.ndarray | None] = {}
        self._scope: str | None = None
        self._warm_slices: list[int] = []
        self._last_warm_rows: list[int] = []

    # -- persistent store -----------------------------------------------------
    def _store_scope(self) -> str:
        """Content digest namespacing this signoff configuration in the
        persistent store: schema version, topology identity, extraction
        rules, the full corner list, parameter grids, spec names, the
        extracted netlist's structure signature and the resolved engine
        backend.  Worst-case-reduced spec rows live under this scope;
        per-corner operating points under :meth:`_corner_scope`."""
        if self._scope is None:
            t = self._topologies[0]
            center = self.parameter_space.values(self.parameter_space.center)
            system = self._plans[0].restamp(center)
            self._scope = scope_digest((
                SCHEMA_VERSION, "pex", type(t).__name__, t.name,
                repr(t.technology), repr(self.extractor.rules),
                repr(tuple(self.corners)),
                repr(self.parameter_space.params),
                ",".join(self.spec_space.names),
                system.engine,
                repr(system.netlist.structure_signature())))
        return self._scope

    def _krylov_systems(self) -> list:
        """Every corner plan's cached system (iterative solve counters
        drain from all of them at publish time)."""
        return [plan.system for plan in self._plans
                if plan.system is not None]

    def _corner_scope(self, k: int) -> str:
        """Warm-start namespace of corner ``k`` (operating points of
        different corners must never seed each other)."""
        return f"{self._store_scope()}:corner={k}"

    def _consume_warm_rows(self) -> list[int]:
        """Designs of the last fresh batch with any store-seeded corner
        slice (cleared on read)."""
        rows = self._last_warm_rows
        self._last_warm_rows = []
        return rows

    def reset_warm_start(self) -> None:
        """Drop the per-trajectory (per-corner) warm-start state; the
        canonical corner references and the content-addressed store
        seeds survive — they carry no trajectory history."""
        self._warm.clear()

    # -- evaluation -----------------------------------------------------------
    def evaluate(self, indices: np.ndarray) -> dict[str, float]:
        """Worst-case specs of one sizing across all corners (memoised
        when caching is on, replayed from the persistent ``REPRO_CACHE``
        store when any run of this signoff configuration has evaluated
        the sizing before)."""
        indices = self.parameter_space.clip(indices)
        key = sizing_key(indices)
        if self._cache is not None and key in self._cache:
            self.counter.cached += 1
            return dict(self._cache.get_or_compute(key, dict))
        store = get_store()
        if store is not None:
            row = store.get_result(self._store_scope(), key)
            if row is not None:
                self.counter.cached += 1
                spec = self._row_to_spec(row)
                if self._cache is not None:
                    self._cache.get_or_compute(key, lambda: dict(spec))
                return dict(spec)
        self.counter.fresh += 1
        result = self._evaluate_fresh(indices)
        if self._consume_warm_rows():
            self.counter.warm_started += 1
        if store is not None:
            store.put_result(self._store_scope(), key,
                             self._spec_to_row(result))
        if self._cache is not None:
            result = self._cache.get_or_compute(key, lambda: result)
        return dict(result)

    def evaluate_batch(self, indices_2d: np.ndarray) -> list[dict[str, float]]:
        """Evaluate B sizings across all corners in one stacked solve,
        sharded across worker processes when ``REPRO_SHARDS`` asks for
        them."""
        return self._evaluate_batch_cached(
            indices_2d, self._fresh_batch, self._cache)

    def _inprocess_batch(self, values_list: list[dict[str, float]]
                         ) -> list[dict[str, float]]:
        """Batched engine entry for distinct cache misses (corner stack)."""
        return self._evaluate_fresh_batch(values_list)

    def shard_factory(self):
        """Picklable replica recipe for shard workers, or None.

        Topology classes and corner-kwargs factories (compiled zoo
        scenarios declare ``supports_corner_kwargs`` and pickle whole —
        the same duck check as :meth:`CornerSpec.apply`) shard; ad-hoc
        closures are not spawn-safe and keep the in-process path.
        """
        factory = self._topology_factory
        if not (isinstance(factory, type)
                or getattr(factory, "supports_corner_kwargs", False)):
            return None  # closure factories are not spawn-safe
        return _PexShardFactory(factory, list(self.corners), self._rules)

    def _evaluate_fresh(self, indices: np.ndarray) -> dict[str, float]:
        values = self.parameter_space.values(indices)
        return self._evaluate_fresh_batch([values])[0]

    def _evaluate_fresh_batch(self, values_list: list[dict[str, float]]
                              ) -> list[dict[str, float]]:
        """Corner-stacked evaluation of B sizings (see module docstring).

        All ``B * K`` (design, corner) systems solve in one batched
        damped-Newton call, warm-started from each corner's canonical
        grid-centre operating point; the reference topology's stacked
        measurement runs over the whole stack (its spec extraction only
        consumes stacked matrices, solutions and per-slice metadata, so
        one call serves every corner), and the per-design result is the
        worst spec value across that design's corner slices.
        """
        B, K = len(values_list), len(self.corners)
        stack: SystemStack | None = None
        for k, plan in enumerate(self._plans):
            stack = plan.stack(values_list, into=stack, offset=k * B,
                               n_slices=B * K, n_corners=K)
        result = solve_dc_batch(
            stack, x0=self._corner_warm_start(stack, B, values_list))
        if self._warm_slices and not result.converged.all():
            self._warm_slice_fallback(values_list, result, B)
        self._record_corner_seeds(values_list, result, B)
        specs = self._topologies[0].measure_batch(stack, result)
        if specs is None:
            specs = self._measure_slices(values_list, result)
        return self._reduce_worst_case(specs, B, K)

    def _corner_warm_start(self, stack: SystemStack, B: int,
                           values_list: list[dict[str, float]] | None = None
                           ) -> np.ndarray | None:
        """Stacked Newton seed: each corner's canonical centre operating
        point (solved cold once, cached), tiled over that corner's block.
        Falls back to cold zeros for corners whose centre fails.

        When ``values_list`` is given and the persistent store is wired
        in, each (design, corner) slice's seed is upgraded to the
        nearest previously-converged operating point recorded under that
        corner's scope; the upgraded slices are kept in
        ``_warm_slices`` for the convergence fallback, and the affected
        designs published through :meth:`_consume_warm_rows`."""
        seeds = np.zeros((stack.n_designs, stack.size))
        center = self.parameter_space.values(self.parameter_space.center)
        for k, plan in enumerate(self._plans):
            if (k not in self._corner_ref
                    or (self._corner_ref[k] is not None
                        and self._corner_ref[k].shape != (stack.size,))):
                # One cold solve per corner; a failure is memoised too
                # (None), so a non-convergent centre is not retried on
                # every batch.
                try:
                    self._corner_ref[k] = solve_dc(plan.restamp(center)).x.copy()
                except ConvergenceError:
                    self._corner_ref[k] = None
            ref = self._corner_ref[k]
            if ref is not None:
                seeds[k * B:(k + 1) * B] = ref
        self._warm_slices = []
        self._last_warm_rows = []
        store = get_store()
        if values_list is None or store is None:
            return seeds
        warm_designs: set[int] = set()
        keys = [sizing_key(self.parameter_space.indices_of(values))
                for values in values_list]
        for k in range(len(self._plans)):
            scope = self._corner_scope(k)
            for i, key in enumerate(keys):
                near = store.nearest_seed(scope, key, stack.size)
                if near is None:
                    continue
                s = k * B + i
                seeds[s] = near[0]
                self._warm_slices.append(s)
                warm_designs.add(i)
        self._last_warm_rows = sorted(warm_designs)
        return seeds

    def _warm_slice_fallback(self, values_list, result, B: int) -> None:
        """Re-solve failed store-seeded slices from the canonical seed.

        Mirrors :meth:`repro.topologies.base.Topology._warm_fallback`
        corner-wise: a slice the canonical batch would have converged
        must not fail just because its store seed was a poor guess."""
        for s in self._warm_slices:
            if result.converged[s]:
                continue
            k, i = divmod(s, B)
            system = self._plans[k].restamp(values_list[i])
            ref = self._corner_ref.get(k)
            seed = ref if (ref is not None
                           and ref.shape == (system.size,)) else None
            try:
                op = solve_dc(system, x0=seed)
            except ConvergenceError:
                continue
            result.x[s] = op.x
            result.converged[s] = True
            result.iterations[s] = op.iterations
            result.residual_norm[s] = op.residual_norm

    def _record_corner_seeds(self, values_list, result, B: int) -> None:
        """Record every converged slice's operating point under its
        corner's warm-start scope."""
        store = get_store()
        if store is None:
            return
        keys = [sizing_key(self.parameter_space.indices_of(values))
                for values in values_list]
        for k in range(len(self._plans)):
            scope = self._corner_scope(k)
            for i, key in enumerate(keys):
                s = k * B + i
                if result.converged[s]:
                    store.record_seed(scope, key, result.x[s])

    def _measure_slices(self, values_list, result) -> list[dict[str, float]]:
        """Scalar per-slice measurement fallback (topologies without a
        stacked measurement path)."""
        B = len(values_list)
        specs: list[dict[str, float]] = []
        for k, (plan, topology) in enumerate(zip(self._plans,
                                                 self._topologies)):
            for i, values in enumerate(values_list):
                s = k * B + i
                system = plan.restamp(values)
                try:
                    if result.converged[s]:
                        op = OperatingPoint(system, result.x[s].copy(),
                                            int(result.iterations[s]),
                                            float(result.residual_norm[s]))
                    else:
                        op = solve_dc(system)
                    specs.append(topology.measure(system, op))
                except (ConvergenceError, MeasurementError):
                    specs.append(topology.failure_measurement())
        return specs

    def _reduce_worst_case(self, specs: list[dict[str, float]], B: int,
                           K: int) -> list[dict[str, float]]:
        """Worst spec value across each design's corner slices."""
        worst_list: list[dict[str, float]] = []
        for i in range(B):
            worst: dict[str, float] = {}
            for k in range(K):
                corner_specs = specs[k * B + i]
                for spec in self.spec_space:
                    v = corner_specs[spec.name]
                    if spec.name not in worst:
                        worst[spec.name] = v
                    elif spec.kind is SpecKind.LOWER_BOUND:
                        worst[spec.name] = min(worst[spec.name], v)
                    elif spec.kind is SpecKind.RANGE:
                        worst[spec.name] = min(worst[spec.name], v)
                    else:  # UPPER_BOUND / MINIMIZE: bigger is worse
                        worst[spec.name] = max(worst[spec.name], v)
            worst_list.append(worst)
        return worst_list

    def evaluate_percorner(self, indices: np.ndarray) -> dict[str, float]:
        """Historical corner-by-corner loop (no stacking, no cache).

        Kept as the equivalence/benchmark baseline for the stacked path:
        one warm-started scalar solve and one scalar measurement per
        corner.
        """
        values = self.parameter_space.values(self.parameter_space.clip(indices))
        specs = [self._simulate_corner(c, topology, values)
                 for c, topology in enumerate(self._topologies)]
        return self._reduce_worst_case(specs, 1, len(self.corners))[0]

    def _corner_builder(self, topology: Topology):
        """``values -> extracted netlist`` builder for one corner's plan."""
        def build(values: dict[str, float]):
            return self.extractor.extract(topology.build(values))
        return build

    def _corner_updater(self, topology: Topology):
        """In-place resize of a previously-extracted netlist (fast path).

        The schematic elements are updated through the topology's own
        :meth:`~repro.topologies.base.Topology.update_netlist` (element
        names survive extraction, so the mapping applies directly to the
        extracted netlist), and the parasitic values are recomputed with
        the extractor's formulas: access resistance from the resized
        device widths, wiring capacitance from the (corner-independent,
        per-sizing cached) pseudo-layout of the schematic.  Any structural
        surprise returns False, which makes the plan fall back to a full
        build + extract.
        """
        rules = self.extractor.rules
        cap_prefix = f"{PEX_PREFIX}C_"
        mesh = rules.mesh_segments
        # Element handles of the plan's extracted netlist, resolved on
        # first use (its structure never changes in place).
        handles: dict = {"net": None}

        def wire(extracted: Netlist, net: str):
            if mesh > 0:
                return tuple(
                    (extracted[f"{PEX_PREFIX}RW_{net}__{k}"],
                     extracted[f"{cap_prefix}{net}__{k}"])
                    for k in range(1, mesh + 1))
            return extracted[f"{cap_prefix}{net}"]

        def update(extracted: Netlist, values: dict[str, float]) -> bool:
            if not topology.update_netlist(extracted, values):
                return False
            try:
                if handles["net"] is not extracted:
                    handles.update(
                        net=extracted, wires={},
                        access=[(e, extracted[f"{PEX_PREFIX}R_{e.name}_d"],
                                 extracted[f"{PEX_PREFIX}R_{e.name}_s"])
                                for e in extracted if isinstance(e, Mosfet)],
                        n_caps=sum(e.name.startswith(cap_prefix)
                                   for e in extracted))
                for mosfet, r_d, r_s in handles["access"]:
                    r_acc = max(
                        rules.r_access_ohm_m / (mosfet.w * mosfet.m),
                        rules.r_access_min)
                    r_d.resistance = r_acc
                    r_s.resistance = r_acc
                pars = self._wire_parasitics(values)
                if len(pars) * max(mesh, 1) != handles["n_caps"]:
                    # A wire cap appeared or vanished: structure changed.
                    return False
                wires = handles["wires"]
                for net, (c_net, r_net) in pars.items():
                    elements = wires.get(net)
                    if elements is None:
                        elements = wires[net] = wire(extracted, net)
                    if mesh > 0:
                        r_seg, c_seg = mesh_segment_values(r_net, c_net, mesh)
                        for r_el, c_el in elements:
                            r_el.resistance = r_seg
                            c_el.capacitance = c_seg
                    else:
                        elements.capacitance = c_net
            except KeyError:
                return False
            return True

        return update

    def _wire_parasitics(self, values: dict[str, float]
                         ) -> dict[str, tuple[float, float]]:
        """Per-net ``(wiring capacitance, wiring resistance)`` of a sizing.

        The pseudo-layout only depends on the sizing — never on the PVT
        corner — so one computation (memoised per sizing) serves all
        corner plans of an evaluation.
        """
        key = tuple(sorted(values.items()))
        hit = self._cnet_cache.get(key)
        if hit is not None:
            return hit
        reference = self._topologies[0]
        if (self._sch_netlist is None
                or not reference.update_netlist(self._sch_netlist, values)):
            self._sch_netlist = reference.build(values)
        layout = generate_layout(self._sch_netlist)
        rules = self.extractor.rules
        nets: dict[str, tuple[float, float]] = {}
        for net, hpwl in layout.net_hpwl.items():
            if net == GROUND:
                continue
            c_net = (rules.c_wire_per_m * hpwl
                     + rules.c_terminal * layout.net_terminals.get(net, 0))
            if c_net > 0.0:
                nets[net] = (c_net, rules.r_wire_per_m * hpwl)
        if len(self._cnet_cache) > 4096:
            self._cnet_cache.clear()
        self._cnet_cache[key] = nets
        return nets

    def _simulate_corner(self, c_idx: int, topology: Topology,
                         values: dict[str, float]) -> dict[str, float]:
        system = self._plans[c_idx].restamp(values)
        op = None
        warm = self._warm.get(c_idx)
        if warm is not None and warm.shape == (system.size,):
            try:
                op = solve_dc(system, x0=warm)
            except ConvergenceError:
                op = None
        if op is None:
            try:
                op = solve_dc(system)
            except ConvergenceError:
                self._warm.pop(c_idx, None)
                return topology.failure_measurement()
        self._warm[c_idx] = op.x.copy()
        try:
            return topology.measure(system, op)
        except MeasurementError:
            return topology.failure_measurement()

    # -- verification -------------------------------------------------------------
    def lvs_check(self, indices: np.ndarray) -> bool:
        """Layout-versus-schematic check of the extracted design."""
        values = self.parameter_space.values(self.parameter_space.clip(indices))
        topology = self._topologies[0]
        schematic = topology.build(values)
        extracted = self.extractor.extract(schematic)
        return lvs_compare(schematic, extracted, parasitic_prefix=PEX_PREFIX)

    def layout_for(self, indices: np.ndarray) -> PseudoLayout:
        """The pseudo-layout of a sizing (for reporting/examples)."""
        values = self.parameter_space.values(self.parameter_space.clip(indices))
        return generate_layout(self._topologies[0].build(values))


@dataclasses.dataclass
class _PexShardFactory:
    """Picklable recipe rebuilding a :class:`PexSimulator` replica in a
    shard worker (caches off: the parent dedupes before sharding).

    ``topology_factory`` is a :class:`Topology` subclass or a picklable
    corner-kwargs factory (e.g. a compiled zoo scenario)."""

    topology_factory: object
    corners: list[CornerSpec]
    rules: ExtractionRules | None

    def __call__(self) -> PexSimulator:
        return PexSimulator(self.topology_factory, corners=self.corners,
                            rules=self.rules, cache=False)
