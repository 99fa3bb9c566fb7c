"""Per-layer tracing from outside the program.

:class:`Tracer` wraps public functions and methods of ``repro`` at the
module attributes their callers look up at call time, records one span
``(name, start, end, parent, op)`` per call in memory, and restores the
originals on :meth:`Tracer.uninstall`.  ``op`` is the index of the
workload operation (env step, query, target, walk step) the span belongs
to, so spans of one request share an identifier.

Functions imported by name into another module are wrapped at that
import site: ``solve_dc`` / ``solve_dc_batch`` are looked up in
``repro.topologies.base`` and ``repro.pex.extraction``, the AC, noise
and step-response kernels in ``repro.measure.pipeline``.

:func:`summarize` turns the spans and the counters gathered by the
result hooks into the per-layer metrics of ``BENCHMARK.json``.  A span's
self time is its duration minus the time its direct child spans cover;
a layer's busy time counts only its outermost spans, so a layer calling
itself (``StampPlan.stack`` -> ``restamp``) is not counted twice.
"""

from __future__ import annotations

import collections
import functools
import json
import time

#: Per-layer metrics, in report order: name -> unit.  Times and counts
#: are per workload operation so that runs of different lengths compare.
PER_LAYER = {
    "rl.act_calls": "1/op", "rl.act_ms": "ms/op",
    "rl.act_single_calls": "1/op", "rl.act_single_ms": "ms/op",
    "rl.update_calls": "1/op", "rl.update_ms": "ms/op",
    "core.env_calls": "1/op", "core.env_self_ms": "ms/op",
    "topologies.evaluate_calls": "1/op", "topologies.evaluate_ms": "ms/op",
    "topologies.evaluate_batch_calls": "1/op",
    "topologies.evaluate_batch_ms": "ms/op",
    "topologies.batch_rows": "rows/call",
    "topologies.memo_hit_ratio": "ratio",
    "sim.stamp.calls": "1/op", "sim.stamp.ms": "ms/op",
    "sim.dc.solves": "1/op", "sim.dc.ms": "ms/op",
    "sim.dc.newton_iters": "1/op",
    "sim.batch.solves": "1/op", "sim.batch.ms": "ms/op",
    "sim.batch.newton_iters": "1/op", "sim.batch.converged_ratio": "ratio",
    "sim.ac.calls": "1/op", "sim.ac.ms": "ms/op",
    "sim.noise.calls": "1/op", "sim.noise.ms": "ms/op",
    "sim.linear.calls": "1/op", "sim.linear.ms": "ms/op",
    "sim.sparse.calls": "1/op", "sim.sparse.ms": "ms/op",
    "sim.krylov.solves": "1/op", "sim.krylov.iterations": "1/op",
    "sim.krylov.fallbacks": "1/op", "sim.krylov.ms": "ms/op",
    "measure.calls": "1/op", "measure.ms": "ms/op",
    "pex.evaluate_batch_calls": "1/op", "pex.evaluate_batch_ms": "ms/op",
    "pex.slices_per_call": "slices/call",
    "baselines.ga_calls": "1/op", "baselines.ga_self_ms": "ms/op",
    "baselines.ga_fresh_evals": "1/op",
    "sim.faults.quarantined": "count",
    "trace.spans": "1/op",
    "trace.overhead_ms": "ms/op", "trace.overhead_pct": "%",
}

# span name -> (calls metric or None, time metric, report self time?)
_LAYERS = {
    "rl.act": ("rl.act_calls", "rl.act_ms", False),
    "rl.act_single": ("rl.act_single_calls", "rl.act_single_ms", False),
    "rl.update": ("rl.update_calls", "rl.update_ms", False),
    "core.env": ("core.env_calls", "core.env_self_ms", True),
    "topologies.evaluate": ("topologies.evaluate_calls",
                            "topologies.evaluate_ms", False),
    "topologies.evaluate_batch": ("topologies.evaluate_batch_calls",
                                  "topologies.evaluate_batch_ms", False),
    "sim.stamp": ("sim.stamp.calls", "sim.stamp.ms", False),
    "sim.dc": ("sim.dc.solves", "sim.dc.ms", False),
    "sim.batch": ("sim.batch.solves", "sim.batch.ms", False),
    "sim.ac": ("sim.ac.calls", "sim.ac.ms", False),
    "sim.noise": ("sim.noise.calls", "sim.noise.ms", False),
    "sim.linear": ("sim.linear.calls", "sim.linear.ms", False),
    "sim.sparse": ("sim.sparse.calls", "sim.sparse.ms", False),
    "sim.krylov": (None, "sim.krylov.ms", False),
    "measure": ("measure.calls", "measure.ms", False),
    "pex.evaluate_batch": ("pex.evaluate_batch_calls",
                           "pex.evaluate_batch_ms", False),
    "baselines.ga": ("baselines.ga_calls", "baselines.ga_self_ms", True),
}


class Tracer:
    """In-memory span recorder over monkeypatched call sites."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self.counts: collections.Counter = collections.Counter()
        self.op = 0
        self._open: list[int] = []
        self._patches: list = []
        self._sites: list = []

    # -- installation ---------------------------------------------------------
    def site(self, owner, attr: str, name: str, after=None) -> None:
        """Register ``owner.attr`` to be traced as span ``name``;
        ``after(counts, args, result)`` updates counters per call."""
        self._sites.append((owner, attr, name, after))

    def install(self) -> None:
        for owner, attr, name, after in self._sites:
            original = (owner.__dict__[attr] if isinstance(owner, type)
                        else getattr(owner, attr))
            setattr(owner, attr, self._wrap(original, name, after))
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name: str, after):
        spans, open_ = self.spans, self._open
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = open_[-1] if open_ else -1
            open_.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                open_.pop()
                spans[index] = (name, start, end, parent, self.op)
            if after is not None:
                after(counts, args, result)
            return result

        return traced

    # -- output ---------------------------------------------------------------
    def dump(self, path) -> None:
        """Write every span (and the counters) as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "run_id": self.run_id,
            "fields": ["name", "start", "end", "parent", "op"],
            "spans": [list(s) for s in self.spans if s is not None],
            "counts": dict(self.counts),
        }
        path.write_text(json.dumps(payload))


def install_sites(tracer: Tracer) -> None:
    """Register every per-layer call site of the program."""
    from repro.baselines.genetic import GeneticOptimizer
    from repro.core.env import SizingEnv
    from repro.measure import pipeline
    from repro.pex import extraction
    from repro.pex.extraction import PexSimulator
    from repro.rl.env import VectorEnv
    from repro.rl.policy import ActorCritic
    from repro.rl.ppo import PPOTrainer
    from repro.sim import krylov, sparse
    from repro.sim.stamp import StampPlan
    from repro.topologies import base
    from repro.topologies.base import SchematicSimulator, Topology

    site = tracer.site
    site(ActorCritic, "act", "rl.act")
    site(ActorCritic, "act_single", "rl.act_single")
    site(PPOTrainer, "update", "rl.update")
    site(VectorEnv, "step", "core.env")
    site(SizingEnv, "step", "core.env")
    site(SizingEnv, "reset", "core.env")
    site(SchematicSimulator, "evaluate", "topologies.evaluate")
    site(SchematicSimulator, "evaluate_batch", "topologies.evaluate_batch",
         _after_batch)
    site(PexSimulator, "evaluate_batch", "pex.evaluate_batch", _after_pex)
    site(StampPlan, "restamp", "sim.stamp")
    site(StampPlan, "stack", "sim.stamp")
    for module in (base, extraction):
        site(module, "solve_dc", "sim.dc", _after_dc)
        site(module, "solve_dc_batch", "sim.batch", _after_dc_batch)
    site(pipeline, "ac_node_response_batch", "sim.ac")
    site(pipeline, "output_noise_rms_batch", "sim.noise")
    site(pipeline, "output_noise_rms_from_adjoint", "sim.noise")
    site(pipeline, "step_response_node_batch", "sim.linear")
    site(sparse, "solve_dc_batch_sparse", "sim.sparse")
    site(sparse, "stack_sweep_factors", "sim.sparse")
    site(sparse.SweepFactorization, "solve", "sim.sparse")
    site(krylov, "stack_sweep_factors_krylov", "sim.krylov")
    site(krylov.KrylovState, "factor", "sim.krylov")
    site(krylov.KrylovFactor, "solve", "sim.krylov")
    site(krylov.KrylovSweep, "solve", "sim.krylov")
    site(Topology, "measure", "measure")
    site(Topology, "measure_batch", "measure")
    site(GeneticOptimizer, "solve_with_population_sweep", "baselines.ga")


def _after_batch(counts, args, result) -> None:
    report = args[0].last_batch_report
    counts["batch_rows"] += len(result)
    if report is not None:
        counts["quarantined"] += report.n_quarantined
        counts["krylov_solves"] += report.krylov_solves
        counts["krylov_iterations"] += report.krylov_iterations
        counts["krylov_fallbacks"] += report.krylov_fallbacks


def _after_pex(counts, args, result) -> None:
    _after_batch(counts, args, result)
    counts["pex_slices"] += len(result) * len(args[0].corners)


def _after_dc(counts, args, result) -> None:
    counts["dc_newton_iters"] += int(result.iterations)


def _after_dc_batch(counts, args, result) -> None:
    counts["batch_newton_iters"] += int(result.iterations.sum())
    counts["batch_designs"] += int(len(result.converged))
    counts["batch_converged"] += int(result.converged.sum())


def layer_times(spans) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``busy`` (outermost spans of the name)
    and ``self`` seconds."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _op in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict[str, float]] = collections.defaultdict(
        lambda: {"calls": 0, "busy": 0.0, "self": 0.0})
    for i, (name, start, end, parent, _op) in enumerate(spans):
        row = out[name]
        row["calls"] += 1
        row["self"] += end - start - child[i]
        # Outermost span of its name along the parent chain?
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            row["busy"] += end - start
    return out


def summarize(tracer: Tracer, ops: int, memo: tuple[int, int],
              fresh_per_op: float, overhead_ms: float,
              overhead_pct: float) -> dict[str, float]:
    """The per-layer metric values (see :data:`PER_LAYER`)."""
    spans = [s for s in tracer.spans if s is not None]
    times = layer_times(spans)
    counts = tracer.counts
    ops = max(ops, 1)
    values: dict[str, float] = {}
    empty = {"calls": 0, "busy": 0.0, "self": 0.0}
    for span, (calls_key, ms_key, use_self) in _LAYERS.items():
        row = times.get(span, empty)
        if calls_key is not None:
            values[calls_key] = row["calls"] / ops
        values[ms_key] = 1e3 * row["self" if use_self else "busy"] / ops
    batches = (times.get("topologies.evaluate_batch", empty)["calls"]
               + times.get("pex.evaluate_batch", empty)["calls"])
    values["topologies.batch_rows"] = counts["batch_rows"] / max(batches, 1)
    cached, fresh = memo
    values["topologies.memo_hit_ratio"] = cached / max(cached + fresh, 1)
    values["sim.dc.newton_iters"] = counts["dc_newton_iters"] / ops
    values["sim.batch.newton_iters"] = counts["batch_newton_iters"] / ops
    values["sim.batch.converged_ratio"] = (
        counts["batch_converged"] / max(counts["batch_designs"], 1))
    values["sim.krylov.solves"] = counts["krylov_solves"] / ops
    values["sim.krylov.iterations"] = counts["krylov_iterations"] / ops
    values["sim.krylov.fallbacks"] = counts["krylov_fallbacks"] / ops
    pex_calls = times.get("pex.evaluate_batch", empty)["calls"]
    values["pex.slices_per_call"] = counts["pex_slices"] / max(pex_calls, 1)
    values["baselines.ga_fresh_evals"] = fresh_per_op
    values["sim.faults.quarantined"] = counts["quarantined"]
    values["trace.spans"] = len(spans) / ops
    values["trace.overhead_ms"] = overhead_ms
    values["trace.overhead_pct"] = overhead_pct
    missing = set(PER_LAYER) - set(values)
    extra = set(values) - set(PER_LAYER)
    if missing or extra:
        raise KeyError(f"per-layer metric mismatch: missing {sorted(missing)}, "
                       f"unexpected {sorted(extra)}")
    return values
