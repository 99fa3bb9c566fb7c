"""Topology interface and the counting/caching simulator wrapper.

A :class:`Topology` owns three things:

* the discretised :class:`~repro.topologies.params.ParameterSpace` (the
  paper's action space),
* a netlist builder mapping physical parameter values to a
  :class:`~repro.circuits.netlist.Netlist` testbench,
* a *measurement declaration* (:meth:`Topology.measurements`): the
  topology's design specs as a composition of reusable pipeline
  primitives (:mod:`repro.measure.pipeline`), which the base class
  evaluates for the scalar and stacked paths alike — scalar
  measurement is literally a batch of one.

:class:`SchematicSimulator` wraps a topology into the object the RL
environment and the baselines consume: ``evaluate(index_vector) -> specs``
with simulation counting (the paper's sample-efficiency metric), optional
memoisation, and warm-started DC solves along sizing trajectories.
"""

from __future__ import annotations

import abc
import dataclasses
import time
import warnings
from typing import Callable

import numpy as np

from repro.circuits.netlist import Netlist
from repro.circuits.technology import Corner, Technology
from repro.core.specs import SpecSpace, failure_measurements
from repro.errors import (ConvergenceError, EvaluationFault,
                          MeasurementError, TicketAbandonedError,
                          TopologyError, TrainingError)
from repro.sim.faults import (PROV_COLD, PROV_HIT, PROV_MEMO, PROV_WARM,
                              BatchReport, FaultRecord, active_profile,
                              check_poison)
from repro.sim.batch import SystemStack, solve_dc_batch
from repro.sim.cache import SimulationCache, SimulationCounter, sizing_key
from repro.sim.dc import OperatingPoint, solve_dc
from repro.sim.stamp import StampPlan
from repro.sim.store import SCHEMA_VERSION, get_store, scope_digest
from repro.sim.system import MnaSystem
from repro.topologies.params import ParameterSpace
from repro.units import ROOM_TEMPERATURE


class Topology(abc.ABC):
    """A sizable circuit with a parameter grid and measurable specs."""

    #: Subclasses set a short identifier, e.g. "tia".
    name: str = "topology"

    #: When this instance was built by a compiled zoo scenario
    #: (:class:`repro.zoo.loader.CompiledScenario`), the scenario recipe
    #: — the picklable ``(technology, corner, temperature)`` factory the
    #: shard/PVT machinery must rebuild from, so declaration overrides
    #: (ctor arguments, attribute patches, narrowed grids) survive the
    #: round trip to a worker process.  None for module-built instances.
    zoo_recipe = None

    def __init__(self, technology: Technology | None = None,
                 corner: Corner = Corner.TT,
                 temperature: float = ROOM_TEMPERATURE):
        self.technology = technology or self.default_technology()
        self.corner = corner
        self.temperature = float(temperature)
        self.parameter_space = self._build_parameter_space()
        self.spec_space = self._build_spec_space()
        self._warm_x: np.ndarray | None = None
        self._batch_ref_x: np.ndarray | None = None  # batch warm-start seed
        #: Persistent warm-start store wiring (set by the owning
        #: simulator before each evaluation; None = store off).
        self.warm_store = None
        self.warm_scope: str | None = None
        #: Rows of the last simulate_batch seeded from the warm store
        #: (consumed by the simulator for provenance/accounting).
        self.last_warm_rows: list[int] = []
        #: Whether the last scalar simulate was seeded from the store.
        self.last_solve_warm = False
        # One structure cache per (topology, corner, temperature): sizings
        # share netlist structure, so the MNA system is built once and
        # restamped per evaluation (see repro.sim.stamp).
        self._plan = StampPlan(self.build, temperature=self.temperature,
                               updater=self.update_netlist)

    # -- subclass API ---------------------------------------------------------
    @classmethod
    @abc.abstractmethod
    def default_technology(cls) -> Technology:
        """Technology card the paper used for this circuit."""

    @abc.abstractmethod
    def _build_parameter_space(self) -> ParameterSpace:
        """The paper's [start, stop, step] action-space grids."""

    @abc.abstractmethod
    def _build_spec_space(self) -> SpecSpace:
        """The paper's design-specification ranges."""

    @abc.abstractmethod
    def build(self, values: dict[str, float]) -> Netlist:
        """Construct the testbench netlist for physical parameter values."""

    def measurements(self):
        """Declare this topology's specs as a measurement-pipeline graph.

        Returns a :class:`~repro.measure.pipeline.MeasurementPlan`
        composing reusable primitives (AC node-response specs, step
        settling, adjoint noise, supply current), or None for legacy
        topologies that override :meth:`measure` directly.  The
        declaration is the *single* source of the topology's measurement
        physics: the base class evaluates it for the scalar path
        (:meth:`measure`, literally a batch of one) and the stacked path
        (:meth:`measure_batch`) alike, on both engine backends.
        """
        return None

    def measure(self, system: MnaSystem, op: OperatingPoint) -> dict[str, float]:
        """Extract all design specs from a solved testbench.

        The default runs the topology's declared measurement plan on a
        batch-of-1 stack snapshot of ``system`` — the same code the
        stacked path runs, so scalar and batched measurements cannot
        drift apart.  Topologies without a declaration must override
        this (the pre-pipeline extension API, still honoured everywhere).
        """
        from repro.measure.pipeline import MeasureContext

        plan = self._measurement_plan()
        if plan is None:
            raise NotImplementedError(
                f"{type(self).__name__} must declare measurements() or "
                "override measure()")
        # One-slice stack cached per system object: the StampPlan reuses
        # one restamped MnaSystem across the sizing loop, so the scalar
        # hot path pays the stack's structure scan once, not per call.
        stack = getattr(self, "_scalar_stack", None)
        if stack is None or stack.template is not system:
            stack = SystemStack(system, 1)
            self._scalar_stack = stack
        stack.set_design(0, system)
        ctx = MeasureContext(self, stack, np.zeros(1, dtype=np.intp),
                             op.x[np.newaxis, :])
        cols, ok = plan.evaluate(ctx)
        if not ok[0]:
            return self.failure_measurement()
        return {name: float(cols[name][0]) for name in plan.spec_names}

    def _measurement_plan(self):
        """The validated, cached measurement declaration (or None).

        Built once per topology instance; the declared spec names are
        checked against the spec space so :meth:`failure_measurement`
        (which is derived from the same declaration surface) always
        covers exactly the measured specs.
        """
        try:
            return self._mplan
        except AttributeError:
            pass
        plan = self.measurements()
        if plan is not None and set(plan.spec_names) != set(
                self.spec_space.names):
            raise TopologyError(
                f"{type(self).__name__} declares specs "
                f"{sorted(plan.spec_names)} but its spec space defines "
                f"{sorted(self.spec_space.names)}")
        self._mplan = plan
        return plan

    def update_netlist(self, netlist: Netlist,
                       values: dict[str, float]) -> bool:
        """Mutate a previously-built netlist's element values in place for
        a new sizing; return True on success.

        Optional fast path mirroring :meth:`build`'s value mapping without
        reconstructing element objects (the netlist *structure* is fixed
        across sizings).  The default returns False, which makes the
        :class:`~repro.sim.stamp.StampPlan` fall back to a full
        :meth:`build`.  Implementations are verified against fresh builds
        by the engine equivalence tests.
        """
        return False

    # -- shared behaviour -------------------------------------------------------
    def device_params(self, polarity: str):
        """Corner/temperature-adjusted device card for this topology.

        Cached per polarity: corner and temperature are fixed for the
        lifetime of a topology instance, and ``build`` runs once per
        simulator evaluation.
        """
        try:
            return self._device_cards[polarity]
        except AttributeError:
            self._device_cards = {}
        except KeyError:
            pass
        card = self.technology.device(polarity, self.corner, self.temperature)
        self._device_cards[polarity] = card
        return card

    def simulate(self, values: dict[str, float]) -> dict[str, float]:
        """Build, solve and measure one sizing; returns the spec dict.

        The MNA system is obtained through the topology's
        :class:`~repro.sim.stamp.StampPlan` — structure built once,
        matrices restamped in place per sizing.

        DC solves are warm-started from the previous sizing's solution
        (sizing trajectories move one grid step at a time, so the previous
        operating point is an excellent initial guess); without trajectory
        state (first solve of an episode, or right after
        :meth:`reset_warm_start`) the persistent warm-start store is
        consulted for the nearest previously-converged sizing when the
        ``REPRO_CACHE`` store is wired in.  On any convergence trouble
        the solve is retried cold, and if that also fails the pessimistic
        :meth:`failure_measurement` is returned so optimisers always
        receive a numeric (heavily penalised) result.
        """
        system = self._plan.restamp(values)
        op = None
        self.last_solve_warm = False
        seed = self._warm_x
        if seed is not None and seed.shape != (system.size,):
            seed = None
        if seed is None and self.warm_store is not None and self.warm_scope:
            near = self.warm_store.nearest_seed(
                self.warm_scope,
                sizing_key(self.parameter_space.indices_of(values)),
                system.size)
            if near is not None:
                seed = near[0]
                self.last_solve_warm = True
        if seed is not None:
            try:
                op = solve_dc(system, x0=seed)
            except ConvergenceError:
                op = None
                self.last_solve_warm = False
        if op is None:
            try:
                op = solve_dc(system)
            except ConvergenceError:
                self._warm_x = None
                return self.failure_measurement()
        self._warm_x = op.x.copy()
        if self.warm_store is not None and self.warm_scope:
            self.warm_store.record_seed(
                self.warm_scope,
                sizing_key(self.parameter_space.indices_of(values)), op.x)
        try:
            return self.measure(system, op)
        except MeasurementError:
            return self.failure_measurement()

    def simulate_batch(self, values_list: list[dict[str, float]]
                       ) -> list[dict[str, float]]:
        """Batch counterpart of :meth:`simulate` for B sizings at once.

        The DC operating points are found with one stacked damped-Newton
        solve (:func:`~repro.sim.batch.solve_dc_batch`), amortising the
        Python/numpy dispatch overhead that dominates sequential solves;
        designs that fail every convergence strategy fall back to
        :meth:`failure_measurement`, exactly like the scalar path.
        Measurements then run per design against the restamped system.

        Every design Newton-solves independently from one canonical seed
        (the grid-centre operating point — see :meth:`_batch_warm_start`),
        so results are reproducible regardless of evaluation history and
        match sequential :meth:`simulate` calls spec for spec within
        solver tolerance; the per-instance warm-start state is left
        untouched.  With the persistent store wired in (``REPRO_CACHE``)
        each design's seed is upgraded to the nearest previously-converged
        operating point where one exists; a warm-seeded design that fails
        to converge is re-solved from the canonical seed, so the result
        set stays spec-equivalent to the store-off run.
        """
        B = len(values_list)
        self.last_warm_rows = []
        if B == 0:
            return []
        stack: SystemStack = self._plan.stack(values_list)
        seeds = self._batch_warm_start(stack, values_list)
        warm_rows = self.last_warm_rows
        result = solve_dc_batch(stack, x0=seeds)
        if warm_rows and not result.converged.all():
            self._warm_fallback(values_list, result, warm_rows)
        self._record_batch_seeds(values_list, result)
        batched = self.measure_batch(stack, result)
        if batched is not None:
            return batched
        specs: list[dict[str, float]] = []
        for i, values in enumerate(values_list):
            if not result.converged[i]:
                specs.append(self.failure_measurement())
                continue
            system = self._plan.restamp(values)
            op = OperatingPoint(system, result.x[i].copy(),
                                int(result.iterations[i]),
                                float(result.residual_norm[i]))
            try:
                specs.append(self.measure(system, op))
            except MeasurementError:
                specs.append(self.failure_measurement())
        return specs

    def _batch_warm_start(self, stack: SystemStack,
                          values_list: list[dict[str, float]] | None = None
                          ) -> np.ndarray | None:
        """Shared warm start for a batch solve.

        Any valid operating point of the topology is a far better Newton
        seed than zeros (supply/bias rails are already up).  The default
        seed is the *canonical* grid-centre operating point, solved cold
        once and cached — deliberately independent of evaluation history,
        so batch results are reproducible regardless of what was
        simulated before.  Falls back to cold (None) when the centre
        itself fails.

        When ``values_list`` is given and the persistent store is wired
        in, each design's seed is upgraded to the nearest
        previously-converged operating point (content-addressed by
        quantized sizing — still history-independent in the exact-repeat
        case); the upgraded rows are published in
        :attr:`last_warm_rows` so callers can fall back and account.
        """
        ref = self._batch_ref_x
        if ref is None or ref.shape != (stack.size,):
            center = self.parameter_space.values(self.parameter_space.center)
            try:
                ref = solve_dc(self._plan.restamp(center)).x
            except ConvergenceError:
                ref = None
            else:
                self._batch_ref_x = ref
        seeds = (np.tile(ref, (stack.n_designs, 1))
                 if ref is not None else None)
        self.last_warm_rows = []
        if (values_list is None or self.warm_store is None
                or not self.warm_scope):
            return seeds
        for i, values in enumerate(values_list):
            near = self.warm_store.nearest_seed(
                self.warm_scope,
                sizing_key(self.parameter_space.indices_of(values)),
                stack.size)
            if near is None:
                continue
            if seeds is None:
                seeds = np.zeros((stack.n_designs, stack.size))
            seeds[i] = near[0]
            self.last_warm_rows.append(i)
        return seeds

    def _warm_fallback(self, values_list, result, warm_rows) -> None:
        """Re-solve failed warm-seeded designs from the canonical seed.

        The spec-equivalence contract of the warm-start store: a design
        the canonical batch would have converged must not fail just
        because its store seed was a poor guess.  Each non-converged
        warm row is retried scalar from the canonical reference (cold
        when the centre itself failed) and its slice of the batch
        result patched in place; designs failing both paths keep their
        non-converged marking, exactly like the store-off run.
        """
        ref = self._batch_ref_x
        for i in warm_rows:
            if result.converged[i]:
                continue
            system = self._plan.restamp(values_list[i])
            seed = ref if (ref is not None
                           and ref.shape == (system.size,)) else None
            try:
                op = solve_dc(system, x0=seed)
            except ConvergenceError:
                continue
            result.x[i] = op.x
            result.converged[i] = True
            result.iterations[i] = op.iterations
            result.residual_norm[i] = op.residual_norm

    def _record_batch_seeds(self, values_list, result) -> None:
        """Record every converged design's operating point in the store."""
        if self.warm_store is None or not self.warm_scope:
            return
        for i, values in enumerate(values_list):
            if result.converged[i]:
                self.warm_store.record_seed(
                    self.warm_scope,
                    sizing_key(self.parameter_space.indices_of(values)),
                    result.x[i])

    def measure_batch(self, stack: SystemStack, result) -> (
            list[dict[str, float]] | None):
        """Stacked measurement for :meth:`simulate_batch`.

        Evaluates the topology's declared measurement plan over every
        converged slice of the stack in one pass — stacked AC/noise/step
        solves on the dense engine, per-design sweep-factorisation reuse
        on the sparse engine — and returns one spec dict per slice
        (pessimistic failure measurements for non-converged or gated-out
        designs).  Returns None (caller measures design by design) only
        for legacy topologies without a declaration, or when a subclass
        overrides :meth:`measure` (whose custom physics the stacked path
        could not reproduce).
        """
        from repro.measure.pipeline import MeasureContext

        plan = self._measurement_plan()
        if plan is None or type(self).measure is not Topology.measure:
            return None
        specs = [self.failure_measurement() for _ in range(stack.n_designs)]
        rows = np.nonzero(result.converged)[0]
        if len(rows) == 0:
            return specs
        ctx = MeasureContext(self, stack, rows, result.x[rows])
        cols, ok = plan.evaluate(ctx)
        for j, b in enumerate(rows):
            if ok[j]:
                specs[b] = {name: float(cols[name][j])
                            for name in plan.spec_names}
        return specs

    def batch_state_arrays(self, stack: SystemStack, X: np.ndarray,
                           rows: np.ndarray) -> dict[str, np.ndarray]:
        """Stacked MOSFET state arrays for designs ``rows`` at solutions
        ``X`` (one row of ``X`` per entry of ``rows``)."""
        from repro.circuits.mosfet import (
            state_arrays_batch, terminal_voltages_batch)
        dev = stack.dev.take(rows)
        Xp = np.concatenate([X, np.zeros((len(X), 1))], axis=1)
        V = Xp[:, stack.template._terms_pad]
        vgs, vds, vsb = terminal_voltages_batch(dev, V)
        return state_arrays_batch(dev, vgs, vds, vsb)

    def batch_small_signal(self, stack: SystemStack, X: np.ndarray,
                           rows: np.ndarray,
                           arrays: dict[str, np.ndarray] | None = None
                           ) -> tuple[np.ndarray, np.ndarray]:
        """Stacked small-signal ``(G_ss, C_ss)`` for designs ``rows``."""
        if arrays is None:
            arrays = self.batch_state_arrays(stack, X, rows)
        tpl = stack.template
        B, n = len(X), stack.size
        n1 = n + 1
        g3 = np.stack([arrays["gm"], arrays["gds"], arrays["gmb"]],
                      axis=-1).reshape(B, -1)
        c4 = np.stack([arrays["cgs"], arrays["cgd"], arrays["cdb"],
                       arrays["csb"]], axis=-1).reshape(B, -1)
        Gp = np.zeros((B, n1, n1))
        Gp[:, :n, :n] = stack.G_rows(rows)
        Gp.reshape(B, -1)[:] += g3 @ tpl.ss_map
        Cp = np.zeros((B, n1, n1))
        Cp[:, :n, :n] = stack.C_rows(rows)
        Cp.reshape(B, -1)[:] += c4 @ tpl.cap_map
        return (np.ascontiguousarray(Gp[:, :n, :n]),
                np.ascontiguousarray(Cp[:, :n, :n]))

    def failure_measurement(self) -> dict[str, float]:
        """Pessimistic spec values reported for non-convergent designs
        (delegates to :func:`repro.core.specs.failure_measurements`, the
        shared penalty-row source)."""
        return failure_measurements(self.spec_space)

    def reset_warm_start(self) -> None:
        """Drop the per-trajectory warm-start state.

        Called when jumping across the grid — and by the RL environment
        on every episode reset, so one episode's final operating point
        never seeds the next episode's first solve (per-episode state
        must not leak between designs).  The *canonical* grid-centre
        seed and the content-addressed store seeds survive by design:
        both are functions of the sizing being solved, not of what was
        solved before, so they carry no trajectory history.
        """
        self._warm_x = None
        self.last_solve_warm = False
        self.last_warm_rows = []


@dataclasses.dataclass
class _BatchPlan:
    """Cache/dedupe plan for one batched evaluation.

    Built by ``CircuitSimulator._plan_batch`` (which also does the
    counter accounting), consumed by ``_finish_batch`` once the distinct
    fresh specs are available.  ``results`` holds the memo and
    store-exact hits already resolved; ``pending`` maps each fresh key
    to the batch rows waiting on it (memoised path), ``fresh_rows`` the
    caller row of each fresh value (uncached path — no longer simply
    positional once the store resolves rows mid-batch), and
    ``provenance`` the per-caller-row resolution code for rows the
    front-end resolved itself (memo/store hits)."""

    results: list
    fresh_keys: list
    fresh_values: list
    pending: dict
    fresh_rows: list = dataclasses.field(default_factory=list)
    provenance: np.ndarray | None = None


class BatchTicket:
    """Handle for an in-flight ``submit_batch`` evaluation.

    Pairs a :class:`_BatchPlan` with the backend handle computing its
    fresh specs: a :class:`~repro.sim.parallel.ShardTicket` when the
    shard pool took the work, the deferred value list when the
    in-process engine will run at collect time, or None when the whole
    batch was served from cache."""

    __slots__ = ("plan", "kind", "handle", "collected")

    def __init__(self, plan: _BatchPlan, kind: str, handle):
        self.plan = plan
        self.kind = kind          # "none" | "shard" | "deferred"
        self.handle = handle
        self.collected = False


class CircuitSimulator(abc.ABC):
    """What optimisers see: index-vector evaluation with sim accounting.

    Batched evaluation can be sharded across worker processes: when the
    ``REPRO_SHARDS`` environment variable asks for more than one shard
    and the simulator provides a picklable :meth:`shard_factory`, the
    distinct cache misses of every ``evaluate_batch`` call are split over
    a persistent :class:`~repro.sim.parallel.ShardPool` (single-process
    fallback otherwise).  Worker results are bitwise identical to the
    in-process engine — each worker runs the same batched solve from the
    same canonical warm seeds.

    Batched evaluation also splits into a non-blocking half-pair —
    :meth:`submit_batch` / :meth:`collect_batch` — used by the async
    rollout pipeline (:mod:`repro.rl.async_env`): submit runs the cache
    front-end and dispatches the distinct misses to the shard pool
    without waiting, so the caller can run policy inference or reward
    bookkeeping while the workers solve.  Without a pool the fresh work
    is simply deferred to collect time (same results, no overlap).
    Tickets are collected in submission order.

    Both paths are *supervised*: a dead/hung shard worker is respawned
    and its shard re-run (bitwise identical — canonical warm seeds), and
    a design whose solve keeps crashing is bisected out and quarantined
    with pessimistic :meth:`failure_measurements` instead of failing the
    batch (the in-process engine applies the same bisection directly).
    Each batched call publishes a
    :class:`~repro.sim.faults.BatchReport` as :attr:`last_batch_report`
    describing any faults, retries and quarantines it absorbed.
    """

    parameter_space: ParameterSpace
    spec_space: SpecSpace
    counter: SimulationCounter
    _pool = None
    #: Address tuple of the current pool when it is remote (None = local).
    _pool_remote = None
    #: Address tuple of a worker set that failed to handshake/connect —
    #: remembered so fallback does not re-dial every batch.
    _remote_failed = None
    #: Whether the one-shot remote-degradation warning already fired.
    _remote_warned = False
    _cache = None
    #: Supervision record of the most recent batched evaluation
    #: (:class:`~repro.sim.faults.BatchReport`; None before the first).
    last_batch_report = None
    _fresh_report = None

    @abc.abstractmethod
    def evaluate(self, indices: np.ndarray) -> dict[str, float]:
        """Simulate the sizing at grid ``indices`` and return its specs."""

    def evaluate_batch(self, indices_2d: np.ndarray) -> list[dict[str, float]]:
        """Evaluate B sizings (rows of ``indices_2d``) and return B spec
        dicts.

        The default runs :meth:`evaluate` row by row; simulators with a
        vectorised engine (:class:`SchematicSimulator`,
        :class:`~repro.pex.extraction.PexSimulator`) override this with a
        stacked solve that is several times faster than the loop.
        """
        indices_2d = self._normalize_batch(indices_2d)
        return [self.evaluate(row) for row in indices_2d]

    def _normalize_batch(self, indices_2d) -> np.ndarray:
        """Coerce a batch argument into a well-formed ``(B, P)`` array.

        ``np.atleast_2d`` maps an empty input to shape ``(1, 0)`` — one
        bogus zero-parameter design — so empty batches are normalised to
        ``(0, P)`` explicitly: they flow through the pipeline as a real
        (trivial) batch and come back as an empty result with a clean,
        well-formed report instead of crashing in the engine or the
        shared-memory layer."""
        indices_2d = np.asarray(indices_2d, dtype=np.int64)
        if indices_2d.size == 0:
            return indices_2d.reshape(0, len(self.parameter_space.names))
        return np.atleast_2d(indices_2d)

    def _plan_batch(self, indices_2d: np.ndarray, cache) -> _BatchPlan:
        """Cache/counting front half of batched evaluation.

        Memo hits (and duplicate rows within the batch) are resolved
        from the memo and counted exactly as the sequential loop would
        count them; rows the persistent result store has seen before
        (``REPRO_CACHE``) are replayed bit for bit and charged
        ``cached`` without ever reaching the engine; the remaining
        misses come back as the plan's fresh value list.  With ``cache``
        None every memo-miss row is fresh (no dedupe) — the uncached
        simulator's historical accounting, under which in-batch
        duplicates really are solved twice (each still checks the store
        individually).
        """
        indices_2d = self.parameter_space.clip(
            self._normalize_batch(indices_2d))
        B = len(indices_2d)
        store = get_store()
        scope = self._store_scope() if store is not None else None
        if store is not None and scope is None:
            store = None   # simulator without a content-addressable scope
        if cache is None and store is None:
            self.counter.fresh += B
            return _BatchPlan(
                results=[None] * B, fresh_keys=[],
                fresh_values=[self.parameter_space.values(row)
                              for row in indices_2d],
                pending={}, fresh_rows=list(range(B)))
        results: list[dict[str, float] | None] = [None] * B
        fresh_values: list[dict[str, float]] = []
        fresh_keys: list[tuple[int, ...]] = []
        fresh_rows: list[int] = []
        pending: dict[tuple[int, ...], list[int]] = {}
        provenance = np.zeros(B, dtype=np.int8)
        for r in range(B):
            indices = indices_2d[r]
            key = sizing_key(indices)
            if cache is not None and key in cache:
                self.counter.cached += 1
                results[r] = dict(cache.get_or_compute(
                    key, dict))  # key present: compute never runs
                provenance[r] = PROV_MEMO
                continue
            if cache is not None and key in pending:
                # Duplicate inside the batch: the sequential loop would
                # have found it in the cache by now.
                self.counter.cached += 1
                pending[key].append(r)
                provenance[r] = PROV_MEMO
                continue
            if store is not None:
                row = store.get_result(scope, key)
                if row is not None:
                    # Exact store hit: bitwise replay of the recorded
                    # solve, charged like a memo hit, promoted into the
                    # memo so in-batch duplicates dedupe as usual.
                    self.counter.cached += 1
                    spec = self._row_to_spec(row)
                    results[r] = spec
                    provenance[r] = PROV_HIT
                    if cache is not None:
                        cache.get_or_compute(key, lambda s=spec: dict(s))
                    continue
            self.counter.fresh += 1
            if cache is not None:
                pending[key] = [r]
            fresh_keys.append(key)
            fresh_rows.append(r)
            fresh_values.append(self.parameter_space.values(indices))
        return _BatchPlan(results=results, fresh_keys=fresh_keys,
                          fresh_values=fresh_values, pending=pending,
                          fresh_rows=fresh_rows, provenance=provenance)

    def _finish_batch(self, plan: _BatchPlan, specs, cache
                      ) -> list[dict[str, float]]:
        """Back half of batched evaluation: record, memoise, scatter.

        ``specs`` are the fresh results in ``plan.fresh_values`` order;
        ``plan.fresh_rows`` maps them back to caller rows on the
        uncached path.  Fresh results are recorded into the persistent
        store (quarantined rows excepted — an injected fault must never
        memorialise its penalty row as the design's result)."""
        store = get_store()
        scope = self._store_scope() if store is not None else None
        if store is not None and scope is not None and plan.fresh_keys:
            quarantined = (self._fresh_report.quarantined
                           if self._fresh_report is not None else None)
            for i, (key, spec) in enumerate(zip(plan.fresh_keys, specs)):
                if (quarantined is not None and i < len(quarantined)
                        and quarantined[i]):
                    continue
                store.put_result(scope, key, self._spec_to_row(spec))
        if cache is None or not plan.pending:
            if plan.fresh_rows:
                for r, spec in zip(plan.fresh_rows, specs):
                    plan.results[r] = dict(spec)
            elif specs:   # legacy positional path (no row mapping)
                plan.results = [dict(spec) for spec in specs]
            return plan.results
        for key, spec in zip(plan.fresh_keys, specs):
            cache.get_or_compute(key, lambda s=spec: s)
            for r in plan.pending[key]:
                plan.results[r] = dict(spec)
        return plan.results

    def _evaluate_batch_cached(self, indices_2d: np.ndarray, fresh_fn,
                               cache) -> list[dict[str, float]]:
        """Shared cache/counting front-end for batched evaluation.

        ``fresh_fn(values_list) -> list[dict]`` computes the distinct
        cache misses (see :meth:`_plan_batch` / :meth:`_finish_batch`).
        The fresh path's supervision record is republished as
        :attr:`last_batch_report` in caller-batch coordinates.
        """
        plan = self._plan_batch(indices_2d, cache)
        self._fresh_report = None
        specs = fresh_fn(plan.fresh_values) if plan.fresh_values else []
        results = self._finish_batch(plan, specs, cache)
        self._publish_report(plan, len(results))
        return results

    def _publish_report(self, plan: _BatchPlan, n_designs: int) -> None:
        """Translate the fresh-path report into caller coordinates.

        ``_fresh_report`` (set by :meth:`_shard_eval` or
        :meth:`_recover_batch`) is indexed by *fresh* row; the cache
        front-end may have deduped, so each fresh row is mapped back to
        the caller rows it served.  All-cache-hit batches publish a
        clean report — nothing was at risk.
        """
        fresh = self._fresh_report
        if fresh is None:
            report = BatchReport(n_designs)
        else:
            if plan.pending:
                row_map = {i: plan.pending[key]
                           for i, key in enumerate(plan.fresh_keys)}
            elif plan.fresh_rows:
                row_map = {i: [r] for i, r in enumerate(plan.fresh_rows)}
            else:   # uncached: fresh rows are caller rows, positionally
                row_map = {i: [i] for i in range(fresh.n_designs)}
            report = fresh.translate(row_map, n_designs)
        if plan.provenance is not None:
            # Rows the front-end resolved itself (memo / store hits)
            # overwrite whatever the fresh translation scattered there.
            mask = plan.provenance != PROV_COLD
            report.provenance[mask] = plan.provenance[mask]
        for system in self._krylov_systems():
            stats = getattr(system, "krylov_state", None)
            if stats is None:
                continue
            taken = stats.stats.take()
            report.krylov_solves += taken["solves"]
            report.krylov_iterations += taken["iterations"]
            report.krylov_fallbacks += taken["fallbacks"]
            report.krylov_residual = max(report.krylov_residual,
                                         taken["max_residual"])
        self.last_batch_report = report

    def _krylov_systems(self) -> list:
        """Systems whose iterative solve counters this batch should
        drain into its report (empty for non-engine simulators; in
        shard/remote runs the workers' counters stay in their own
        processes — only in-process solves are surfaced)."""
        return []

    def failure_measurements(self) -> dict[str, float]:
        """Pessimistic spec values charged to quarantined designs
        (delegates to :func:`repro.core.specs.failure_measurements`)."""
        return failure_measurements(self.spec_space)

    # -- persistent store -----------------------------------------------------
    def _store_scope(self) -> str | None:
        """Content digest namespacing this simulator in the persistent
        store (:mod:`repro.sim.store`), or None when the simulator has
        no content-addressable identity (plain row-by-row simulators) —
        the store is then skipped entirely.  Computed lazily once per
        instance by the engine-backed subclasses."""
        return None

    def _row_to_spec(self, row: np.ndarray) -> dict[str, float]:
        """One stored float64 spec row back to a spec dict."""
        return {name: float(v)
                for name, v in zip(self.spec_space.names, row)}

    def _spec_to_row(self, spec: dict[str, float]) -> np.ndarray:
        """One spec dict as a float64 row in spec-space order (the
        store's bitwise-stable wire format)."""
        return np.array([spec[name] for name in self.spec_space.names],
                        dtype=np.float64)

    def _consume_warm_rows(self) -> list[int]:
        """Rows of the engine's last fresh batch that were seeded from
        the warm-start store (cleared on read).  The base simulator has
        no warm-start engine, so nothing to report."""
        return []

    def _absorb_fresh_provenance(self) -> None:
        """Fold the fresh report's provenance into the counter.

        Exact store hits found *inside* a shard worker were charged
        ``fresh`` at plan time (the front-end missed them — another
        process recorded the row in between); they are re-charged
        ``cached``, keeping the accounting identical wherever the hit
        surfaces.  Store-warm-started solves bump ``warm_started``
        (still ``fresh`` — a Newton solve ran).
        """
        report = self._fresh_report
        if report is None:
            return
        hits = int((report.provenance == PROV_HIT).sum())
        if hits:
            self.counter.fresh -= hits
            self.counter.cached += hits
        self.counter.warm_started += int(
            (report.provenance == PROV_WARM).sum())

    def _worker_batch(self, values_list: list[dict[str, float]]
                      ) -> tuple[list[dict[str, float]], list[int]]:
        """Store-aware engine entry for shard workers.

        The parent front-end resolves exact hits before sharding, so
        rows arriving here are misses *as of plan time* — but with a
        shared disk store another process may have recorded a row since
        (or concurrently), so workers consult the store once more before
        solving.  Returns ``(specs, provenance)``: exact hits replay
        bitwise without a solve, misses run the raw batched engine
        (faults still escape to the supervisor) with store-warm seeds.
        Workers never record result rows — the parent front-end owns the
        exact tier's writes; warm seeds are recorded by whoever solved.
        """
        store = get_store()
        scope = self._store_scope() if store is not None else None
        n = len(values_list)
        provenance = [PROV_COLD] * n
        if store is None or scope is None:
            specs = self._inprocess_batch(values_list)
            for i in self._consume_warm_rows():
                provenance[i] = PROV_WARM
            return specs, provenance
        specs: list[dict[str, float] | None] = [None] * n
        miss: list[int] = []
        for i, values in enumerate(values_list):
            key = sizing_key(self.parameter_space.indices_of(values))
            row = store.get_result(scope, key)
            if row is not None:
                specs[i] = self._row_to_spec(row)
                provenance[i] = PROV_HIT
            else:
                miss.append(i)
        if miss:
            out = self._inprocess_batch([values_list[i] for i in miss])
            warm = set(self._consume_warm_rows())
            for j, i in enumerate(miss):
                specs[i] = out[j]
                if j in warm:
                    provenance[i] = PROV_WARM
        return specs, provenance

    def reset_warm_start(self) -> None:
        """Drop any per-trajectory warm-start state (no-op by default;
        the engine-backed simulators forward to their topology so the
        RL environment can clear episode state between designs)."""

    # -- async submit/collect -------------------------------------------------
    @property
    def supports_batch_pipeline(self) -> bool:
        """Whether :meth:`submit_batch`/:meth:`collect_batch` can run.

        True once the simulator overrides :meth:`_inprocess_batch` with
        a real batched engine (``SchematicSimulator``, ``PexSimulator``);
        plain row-by-row simulators stay on the synchronous path (the
        async consumers check this before pipelining)."""
        return (type(self)._inprocess_batch
                is not CircuitSimulator._inprocess_batch)

    def submit_batch(self, indices_2d: np.ndarray) -> BatchTicket:
        """Non-blocking front half of :meth:`evaluate_batch`.

        Runs the cache/dedupe front-end immediately, dispatches the
        distinct misses to the shard pool when ``REPRO_SHARDS`` provides
        one (defers them to collect time otherwise), and returns a
        :class:`BatchTicket` for :meth:`collect_batch`.  Requires a
        batched engine (:attr:`supports_batch_pipeline`); collect
        tickets in submission order.
        """
        if not self.supports_batch_pipeline:
            raise TrainingError(
                f"{type(self).__name__} has no batched engine for "
                "submit_batch/collect_batch")
        plan = self._plan_batch(indices_2d, self._cache)
        if not plan.fresh_values:
            return BatchTicket(plan, "none", None)
        pool = self._resolve_shard_pool(len(plan.fresh_values))
        if pool is None:
            return BatchTicket(plan, "deferred", plan.fresh_values)
        ticket = pool.submit_values(self._values_matrix(plan.fresh_values))
        return BatchTicket(plan, "shard", ticket)

    def collect_batch(self, ticket: BatchTicket) -> list[dict[str, float]]:
        """Blocking back half of :meth:`submit_batch`: the B spec dicts.

        Supervision (worker respawn, retry, quarantine) happens inside
        the shard pool's collect; the resulting report is republished as
        :attr:`last_batch_report`."""
        if ticket.collected:
            raise TrainingError("batch ticket already collected")
        ticket.collected = True
        self._fresh_report = None
        if ticket.kind == "shard":
            if self._pool is None:
                raise TicketAbandonedError(
                    f"shard pool closed with batches in flight (ticket "
                    f"#{ticket.handle.id}, {ticket.handle.n_rows} designs)")
            specs = self._rows_to_specs(self._pool.collect(ticket.handle))
            self._fresh_report = ticket.handle.report
            self._absorb_fresh_provenance()
        elif ticket.kind == "deferred":
            specs = self._recover_batch(ticket.handle)
        else:
            specs = []
        results = self._finish_batch(ticket.plan, specs, self._cache)
        self._publish_report(ticket.plan, len(results))
        return results

    # -- sharding -------------------------------------------------------------
    def shard_factory(self):
        """Picklable zero-argument factory building an equivalent simulator
        in a worker process (None = sharding unsupported)."""
        return None

    def _inprocess_batch(self, values_list: list[dict[str, float]]
                         ) -> list[dict[str, float]]:
        """Batched engine entry for distinct fresh values (no sharding).

        Overridden by the simulators with a vectorised engine; the base
        simulator has none, so the batched async/shard paths refuse
        rather than silently degrade."""
        raise TrainingError(
            f"{type(self).__name__} has no batched engine")

    def _fresh_batch(self, values_list: list[dict[str, float]]
                     ) -> list[dict[str, float]]:
        """Compute distinct cache misses: sharded when configured,
        in-process (with the same quarantine semantics) otherwise."""
        sharded = self._shard_eval(values_list)
        if sharded is not None:
            return sharded
        return self._recover_batch(values_list)

    def _recover_batch(self, values_list: list[dict[str, float]]
                       ) -> list[dict[str, float]]:
        """In-process engine run with poison quarantine (no pool).

        Mirrors the shard supervisor's contract on the single-process
        path: an evaluation fault (injected poison, a numerical crash
        escaping the solver's own fallbacks) bisects the batch until the
        offending design is isolated, which is then charged
        :meth:`failure_measurements` — healthy designs in the same batch
        are re-run in their sub-batches and keep normal results.  The
        resulting :class:`~repro.sim.faults.BatchReport` lands in
        ``_fresh_report`` for :meth:`_publish_report`.
        """
        report = BatchReport(len(values_list))
        poison = tuple(d for d in active_profile() if d.kind == "poison")
        t0 = time.perf_counter()
        specs: list[dict[str, float] | None] = [None] * len(values_list)
        self._recover_into(values_list, 0, specs, report, poison)
        report.latency[:] = time.perf_counter() - t0
        self._fresh_report = report
        self._absorb_fresh_provenance()
        return specs

    def _recover_into(self, values_list, base: int, specs, report,
                      poison) -> None:
        """Recursive bisection helper of :meth:`_recover_batch`.

        Fills ``specs[base:base+len(values_list)]``; only evaluation
        faults and numerical crashes trigger bisection — configuration
        errors (bad topology parameters, missing engines) still raise.
        """
        rows = tuple(range(base, base + len(values_list)))
        try:
            if poison:
                check_poison(self._values_matrix(values_list), poison)
            out = self._inprocess_batch(values_list)
        except (EvaluationFault, np.linalg.LinAlgError,
                FloatingPointError) as exc:
            self._consume_warm_rows()   # discard partial warm state
            report.faults.append(FaultRecord(
                "solve-error", -1, rows, int(report.attempts[base]) + 1,
                f"{type(exc).__name__}: {exc}"))
            report.attempts[list(rows)] += 1
            if len(values_list) == 1:
                specs[base] = self.failure_measurements()
                report.quarantined[base] = True
                report.faults.append(FaultRecord(
                    "quarantine", -1, (base,),
                    int(report.attempts[base]),
                    "design quarantined after in-process fault"))
                return
            mid = len(values_list) // 2
            report.retries += 1
            self._recover_into(values_list[:mid], base, specs, report,
                               poison)
            self._recover_into(values_list[mid:], base + mid, specs,
                               report, poison)
            return
        for i, spec in enumerate(out):
            specs[base + i] = spec
        for i in self._consume_warm_rows():
            report.provenance[base + i] = PROV_WARM
        report.attempts[list(rows)] += 1

    def _values_matrix(self, values_list: list[dict[str, float]]
                       ) -> np.ndarray:
        """Stack value dicts into the shard pool's (B, P) wire format."""
        names = self.parameter_space.names
        return np.array([[values[name] for name in names]
                         for values in values_list])

    def _rows_to_specs(self, out: np.ndarray) -> list[dict[str, float]]:
        """Inverse of the wire format: (B, S) spec rows back to dicts."""
        spec_names = self.spec_space.names
        return [{name: float(x) for name, x in zip(spec_names, row)}
                for row in out]

    def _remote_hello(self):
        """Handshake payload for remote shard workers, or None when the
        simulator cannot be served remotely (no content-addressable
        identity to verify against the worker's replica) — callers then
        fall back to local evaluation.  Implemented by
        :class:`SchematicSimulator`."""
        return None

    def _warn_remote_once(self, message: str) -> None:
        """Emit one remote-transport degradation warning per simulator.

        Falling back to local evaluation is the healing path (a batch
        must never fail because a worker host is incompatible or down),
        but doing it silently would hide a dead cluster — so the first
        fallback warns and the rest stay quiet."""
        if not self._remote_warned:
            self._remote_warned = True
            warnings.warn(message, RuntimeWarning, stacklevel=3)

    def _resolve_remote_pool(self, addresses):
        """The live remote shard pool for ``addresses``, or None.

        Reuses the current pool while the address list is unchanged;
        reconnects when it changed or the pool died.  Handshake or
        connection failures warn once and return None (local fallback)
        — and are remembered per address list, so an incompatible or
        unreachable worker set is not re-dialled on every batch.
        """
        from repro.sim.parallel import ShardPool

        hello = self._remote_hello()
        if hello is None:
            self._warn_remote_once(
                f"{type(self).__name__} cannot evaluate remotely "
                "(no remote handshake); REPRO_WORKERS ignored")
            return None
        pool = self._pool
        if pool is not None and self._pool_remote == addresses \
                and not pool.closed:
            return pool
        if self._remote_failed == addresses:
            return None
        self.close_shard_pool(abandon_ok=True)
        failed = self.failure_measurements()
        try:
            pool = ShardPool(None, len(addresses),
                             self.parameter_space.names,
                             self.spec_space.names,
                             failure_row=[failed[name] for name
                                          in self.spec_space.names],
                             addresses=addresses, hello=hello)
        except TrainingError as exc:
            self._remote_failed = addresses
            self._warn_remote_once(
                f"remote shard workers unavailable ({exc}); "
                "evaluating locally")
            return None
        self._pool = pool
        self._pool_remote = addresses
        return pool

    def _resolve_shard_pool(self, n_values: int):
        """The live shard pool, or None when sharding does not apply.

        Remote workers (``REPRO_WORKERS=host:port,...``) take precedence
        over local sharding and apply to any non-empty batch; an
        unreachable or incompatible worker set warns once and falls
        back to the local policy below.  Locally, returns None when
        sharding is off (``REPRO_SHARDS`` <= 1), the batch is trivial,
        or the simulator has no factory — callers then run the
        in-process engine.  Spawns/respawns the pool when the requested
        worker count changes or a previous pool died.
        """
        from repro.sim.parallel import ShardPool, shard_count
        from repro.sim.remote import remote_addresses

        addresses = remote_addresses()
        if addresses and n_values >= 1:
            pool = self._resolve_remote_pool(addresses)
            if pool is not None:
                return pool
        elif not addresses and self._pool_remote is not None:
            self.close_shard_pool()   # remote turned off: hang up
        n = shard_count()
        if n <= 1 or n_values < 2:
            if n <= 1:
                self.close_shard_pool()  # sharding turned off: reap workers
            return None
        factory = self.shard_factory()
        if factory is None:
            return None
        pool = self._pool
        if (pool is None or len(pool) != n or pool.closed
                or self._pool_remote is not None):
            self.close_shard_pool(abandon_ok=True)
            failed = self.failure_measurements()
            pool = ShardPool(factory, n, self.parameter_space.names,
                             self.spec_space.names,
                             failure_row=[failed[name] for name
                                          in self.spec_space.names])
            self._pool = pool
        return pool

    def _shard_eval(self, values_list: list[dict[str, float]]
                    ) -> list[dict[str, float]] | None:
        """Distribute fresh evaluations over the shard pool, if configured.

        Returns None when :meth:`_resolve_shard_pool` declines — callers
        then run the in-process engine.  The ticket's supervision record
        lands in ``_fresh_report`` for :meth:`_publish_report`.
        """
        pool = self._resolve_shard_pool(len(values_list))
        if pool is None:
            return None
        ticket = pool.submit_values(self._values_matrix(values_list))
        out = pool.collect(ticket)
        self._fresh_report = ticket.report
        self._absorb_fresh_provenance()
        return self._rows_to_specs(out)

    def close_shard_pool(self, abandon_ok: bool = False) -> None:
        """Shut down this simulator's shard pool, if one was spawned
        (local workers are reaped; remote connections hang up).

        ``abandon_ok`` forwards to :meth:`ShardPool.close`: pool
        reconfiguration tears the old pool down without raising over
        tickets it abandoned."""
        if self._pool is not None:
            self._pool.close(abandon_ok=abandon_ok)
            self._pool = None
        self._pool_remote = None

    def reset_counter(self) -> None:
        """Zero the simulation counter (per-experiment accounting)."""
        self.counter.reset()


class SchematicSimulator(CircuitSimulator):
    """Schematic-level simulator: direct MNA evaluation of the topology.

    Parameters
    ----------
    topology:
        The circuit to size.
    cache:
        When True (default), memoise spec results by grid point.  Cache
        hits are counted separately from fresh solves so benchmarks can
        report either accounting policy.
    """

    def __init__(self, topology: Topology, cache: bool = True,
                 cache_size: int = 200_000):
        self.topology = topology
        self.parameter_space = topology.parameter_space
        self.spec_space = topology.spec_space
        self.counter = SimulationCounter()
        self._cache = SimulationCache(cache_size) if cache else None
        self._scope: str | None = None

    def _store_scope(self) -> str:
        """Content digest namespacing this topology in the persistent
        store: schema version, topology class, corner/temperature/
        technology, parameter grids, spec names, netlist structure
        signature and the *resolved* engine backend (dense, sparse and
        iterative runs never exchange rows — iterative specs agree with
        sparse to 1e-8, not bitwise).  Computed lazily once — the
        grid-centre system it restamps is the same structure every
        evaluation reuses."""
        if self._scope is None:
            t = self.topology
            center = t.parameter_space.values(t.parameter_space.center)
            system = t._plan.restamp(center)
            self._scope = scope_digest((
                SCHEMA_VERSION, "schematic", type(t).__name__, t.name,
                t.corner.name, t.temperature, repr(t.technology),
                repr(t.parameter_space.params), ",".join(t.spec_space.names),
                system.engine,
                repr(system.netlist.structure_signature())))
        return self._scope

    def _krylov_systems(self) -> list:
        """The topology's planned system (iterative counters drain from
        there at publish time)."""
        plan = getattr(self.topology, "_plan", None)
        system = getattr(plan, "system", None)
        return [system] if system is not None else []

    def _wire_store(self) -> None:
        """Point the topology at the current store (resolved per call,
        so flipping ``REPRO_CACHE`` never requires a new simulator)."""
        store = get_store()
        self.topology.warm_store = store
        self.topology.warm_scope = (self._store_scope()
                                    if store is not None else None)

    def evaluate(self, indices: np.ndarray) -> dict[str, float]:
        """Simulate the sizing at grid ``indices`` (memoised when caching
        is on, replayed from the persistent store when ``REPRO_CACHE``
        has seen it before) and return its measured specs."""
        indices = self.parameter_space.clip(indices)
        values = self.parameter_space.values(indices)
        key = sizing_key(indices)
        if self._cache is not None and key in self._cache:
            self.counter.cached += 1
            return dict(self._cache.get_or_compute(key, dict))
        self._wire_store()
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
        result = self.topology.simulate(values)
        if self.topology.last_solve_warm:
            self.counter.warm_started += 1
        if store is not None:
            store.put_result(self._store_scope(), key,
                             self._spec_to_row(result))
        if self._cache is not None:
            result = self._cache.get_or_compute(key, lambda: result)
        return dict(result)

    def evaluate_batch(self, indices_2d: np.ndarray) -> list[dict[str, float]]:
        """Evaluate B sizings in one stacked solve (see
        :meth:`Topology.simulate_batch`), sharded across worker processes
        when ``REPRO_SHARDS`` asks for them (:mod:`repro.sim.parallel`).
        """
        return self._evaluate_batch_cached(
            indices_2d, self._fresh_batch, self._cache)

    def _inprocess_batch(self, values_list: list[dict[str, float]]
                         ) -> list[dict[str, float]]:
        """Batched engine entry for distinct cache misses (stacked solve)."""
        self._wire_store()
        return self.topology.simulate_batch(values_list)

    def _consume_warm_rows(self) -> list[int]:
        """Warm-seeded rows of the topology's last batch (cleared)."""
        rows = self.topology.last_warm_rows
        self.topology.last_warm_rows = []
        return rows

    def reset_warm_start(self) -> None:
        """Forward to the topology: drop per-trajectory warm state."""
        self.topology.reset_warm_start()

    def shard_factory(self):
        """Picklable recipe rebuilding this simulator in a shard worker.

        Zoo-built topologies rebuild through their scenario recipe
        (:attr:`Topology.zoo_recipe`) so declaration overrides survive;
        module-built topologies rebuild from their class."""
        topology = self.topology
        builder = topology.zoo_recipe or type(topology)
        return _SchematicShardFactory(builder, topology.technology,
                                      topology.corner, topology.temperature)

    def _remote_hello(self) -> dict:
        """Handshake payload for remote shard workers.

        The store-scope digest is the compatibility check: it pins the
        schema version, topology class, corner, temperature,
        technology, parameter grids, spec names, resolved engine and
        netlist structure — a worker hosting anything else rejects the
        connection and the client falls back to local evaluation."""
        from repro.sim.remote import REMOTE_SCHEMA_VERSION

        return {"schema": REMOTE_SCHEMA_VERSION,
                "scope": self._store_scope(),
                "param_names": list(self.parameter_space.names),
                "spec_names": list(self.spec_space.names)}

    @property
    def cache_stats(self) -> dict[str, float]:
        """Hit/miss counters of the memo cache (zeros when caching is off)."""
        if self._cache is None:
            return {"hits": 0, "misses": 0, "hit_rate": 0.0}
        return {"hits": self._cache.hits, "misses": self._cache.misses,
                "hit_rate": self._cache.hit_rate}


@dataclasses.dataclass
class _SchematicShardFactory:
    """Picklable recipe rebuilding a :class:`SchematicSimulator` replica
    in a shard worker (caches off: the parent dedupes before sharding).

    ``topology_cls`` is any builder accepting the ``(technology, corner,
    temperature)`` keywords — a :class:`Topology` subclass or a compiled
    zoo scenario."""

    topology_cls: Callable[..., Topology]
    technology: Technology
    corner: Corner
    temperature: float

    def __call__(self) -> SchematicSimulator:
        topology = self.topology_cls(technology=self.technology,
                                     corner=self.corner,
                                     temperature=self.temperature)
        return SchematicSimulator(topology, cache=False)
