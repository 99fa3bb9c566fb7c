"""Repository benchmark: the paper's train -> deploy -> post-layout flow.

Run from the repository root::

    python3 perfbench/run.py --workload deploy_opamp --seed 1 --seconds 16 --trace 0

Workloads (see ``workloads.py`` for why each exists): ``train_tia``,
``deploy_opamp``, ``ga_pex_opamp``, ``mesh_walk``.  A run

1. isolates itself (``isolate.py``: inherited ``REPRO_*`` knobs cleared,
   BLAS capped at one thread, ``src/`` first on the path);
2. times its imports here and in ``IMPORT_REPEATS - 1`` fresh
   interpreters, sets the workload up ``SETUP_REPEATS`` times --
   building simulators and agent, loading the frozen policy and doing
   the first structure-building evaluation -- and reports the median
   import plus the median set-up as ``setup_s``;
3. issues requests in a closed loop for ``--seconds`` (and at least the
   workload's fixed prefix of requests), timing the workload's
   calibration kernel (``calibrate.py``) before the first request and
   after each one;
4. checks the outputs against ``data/reference.json``;
5. prints every metric by name with its unit, then one JSON line.

End-to-end metrics (``--trace 0``), the same three for every workload:
``setup_s``; ``op_ms_iqm``, the interquartile mean (the mean of the
middle half) of the wall time of one request (one PPO iteration, one
deployment query, one GA target, one lockstep walk step over both
meshes); ``sims_per_s``, simulations completed per second spent in
requests.  Every one of these times is rescaled to the calibration
kernel's reference speed (``calibrate.py``: the shared host changes
speed by up to 2x within seconds); the raw wall times are printed too,
and so are the rescaled p50 and tail percentile.  Neither the median
nor the mean: a deployment query's time is set by its step count, an
integer whose median jumps 19 -> 20 from seed to seed, and the mean GA
target moves with how many of a run's ~45 targets happen to be reached
early; the middle half of the requests is free of both.  The workload's
own figures (deploy p90, success rate, sims to success, per-mesh
latency, ...) are printed above the JSON line.

With ``--trace 1`` every other request of the timed loop runs traced
(``tracer.py``); the per-layer metrics come from the traced requests,
the tracing overhead is the difference between the median traced and
untraced request times, and every span is written to
``perfbench/out/``.

``attempted``/``failed`` count the simulations of the timed loop; a
simulation fails when it returns a non-finite spec, the pessimistic
failure row, or a quarantined row.  A failed check prints
``"correct": false`` and exits with status 1.
"""

from __future__ import annotations

import isolate  # noqa: I001  (must precede numpy / repro imports)

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

SETUP_REPEATS = 3
#: The imports are timed in this process and in fresh interpreters until
#: there are this many times; ``setup_s`` takes their median.
IMPORT_REPEATS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest sizes (benchmark self-tests only)")
    return parser.parse_args(argv)


def git_commit() -> str | None:
    """HEAD of the checkout read from ``.git`` (None outside a clone)."""
    git = isolate.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def source_digest() -> str:
    """sha256 over every file of ``src/repro`` (path and content)."""
    h = hashlib.sha256()
    for path in sorted((isolate.SRC / "repro").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(isolate.SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def stamp(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "commit": git_commit(), "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas_threads": isolate.BLAS_THREADS,
        "repro_knobs": isolate.effective_knobs(),
        "cleared_knobs": isolate.CLEARED_KNOBS,
    }


def interquartile_mean(values: list[float]) -> float:
    """Mean of the middle half of ``values`` (all of them below four)."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def timed_imports() -> float:
    """Import the benchmark and the program; the wall time it took."""
    global workloads, tracing, PexSimulator, calibrate
    started = time.perf_counter()
    import workloads
    import tracer as tracing
    from repro.pex import PexSimulator
    import calibrate
    return time.perf_counter() - started


def import_seconds() -> float:
    """:func:`timed_imports` in a fresh interpreter."""
    code = ("import isolate; isolate.require_program(); "
            "import run; print(run.timed_imports())")
    proc = subprocess.run([sys.executable, "-c", code],
                          cwd=isolate.BENCH_DIR, capture_output=True,
                          text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def run(args) -> tuple[dict, list[str], int]:
    import_s = timed_imports()

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from "
                         f"{sorted(workloads.WORKLOADS)}")
    reference = json.loads(workloads.REFERENCE.read_text())[args.workload]
    cls = workloads.WORKLOADS[args.workload]
    cal = calibrate.Calibrator(cls.calibration)
    mark = cal.sample(import_s)
    imports = [cal.rescale(import_s, mark, mark)]
    imports_raw = [import_s]
    for _ in range(1 if args.tiny else IMPORT_REPEATS - 1):
        took = import_seconds()
        after = cal.sample(took)
        imports.append(cal.rescale(took, mark, after))
        imports_raw.append(took)
        mark = after

    setups, setups_raw = [], []
    for _ in range(1 if args.tiny else SETUP_REPEATS):
        work = None   # drop the previous build before timing the next
        t0 = time.perf_counter()
        work = cls(args.seed, tiny=args.tiny)
        work.setup()
        took = time.perf_counter() - t0
        after = cal.sample(took)
        setups.append(cal.rescale(took, mark, after))
        setups_raw.append(took)
        mark = after
    setup_s = statistics.median(imports) + statistics.median(setups)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer(f"{args.workload}-seed{args.seed}")
        tracing.install_sites(tracer)

    def sims():
        return [c.inner for c in work.checked]

    def pex_fresh_total():
        return sum(s.counter.fresh for s in sims()
                   if isinstance(s, PexSimulator))

    memo = [0, 0]
    pex_fresh = 0
    evals0, failed0 = work.attempted_failed()
    marks = [mark]    # kernel samples: one before each request, one after
    calls = []        # wall time of each work.op call (incl. scaffolding)
    i = 0
    start = time.perf_counter()
    while i < work.min_ops or time.perf_counter() - start < args.seconds:
        t0 = time.perf_counter()
        # Odd requests run traced, even ones untraced: both halves sample
        # the same phase of the workload (caches filling, training
        # progress), so their difference is the tracing overhead.
        if tracer is not None and i % 2:
            cached0, fresh0 = workloads.memo_counts(sims())
            pex0 = pex_fresh_total()
            tracer.op = i
            tracer.install()
            work.op(i)
            tracer.uninstall()
            cached1, fresh1 = workloads.memo_counts(sims())
            memo[0] += cached1 - cached0
            memo[1] += fresh1 - fresh0
            pex_fresh += pex_fresh_total() - pex0
        else:
            work.op(i)
        calls.append(time.perf_counter() - t0)
        marks.append(cal.sample(calls[-1]))
        i += 1
    wall = time.perf_counter() - start
    evals1, failed1 = work.attempted_failed()

    lines = [f"{args.workload}: {i} requests in {wall:.2f} s, "
             f"{evals1 - evals0} simulations ({failed1 - failed0} failed)"]
    correct = True
    try:
        lines += work.check(reference)
    except workloads.CheckFailed as exc:
        correct = False
        lines.append(f"CHECK FAILED: {exc}")
    for name, (value, unit) in work.details().items():
        lines.append(f"{args.workload} {name} = {value:.6g} {unit}")

    requests = cal.rescale_requests(work.latencies, marks)
    busy = sum(cal.rescale_requests(calls, marks))
    lines += [
        f"calibration kernel {cal.kind}: median "
        f"{1e3 * statistics.median(marks):.3f} ms, min "
        f"{1e3 * min(marks):.3f} ms (reference {cal.ref_ms} ms)",
        "raw: imports " + ", ".join(f"{t:.3f}" for t in imports_raw)
        + " s, set-ups "
        + ", ".join(f"{t:.3f}" for t in setups_raw) + " s, request mean "
        f"{1e3 * statistics.fmean(work.latencies):.4g} ms, "
        f"{(evals1 - evals0) / sum(calls):.6g} sims/s"]
    # The median, and the highest of p90/p99 with ten requests beyond it.
    ms = [1e3 * t for t in requests]
    tail = [q for q in (90, 99) if len(ms) * (100 - q) >= 1000]
    lines.append(f"rescaled request time over {len(ms)} requests: p50 "
                 f"{workloads.percentile(ms, 50):.4g} ms"
                 + "".join(f", p{q} {workloads.percentile(ms, q):.4g} ms"
                           for q in tail[-1:]))

    run_stamp = stamp(args)
    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "op_ms_iqm": (1e3 * interquartile_mean(requests), "ms"),
            "sims_per_s": ((evals1 - evals0) / busy, "sims/s"),
        }
    else:
        plain = statistics.median(work.latencies[0::2])
        traced = statistics.median(work.latencies[1::2])
        ops = len(work.latencies[1::2])
        values = tracing.summarize(
            tracer, ops, tuple(memo), pex_fresh / ops,
            1e3 * (traced - plain), 100.0 * (traced - plain) / plain)
        metrics = {k: (v, tracing.PER_LAYER[k]) for k, v in values.items()}
        record = {"stamp": run_stamp, "traced_requests": ops,
                  "metrics": values}
        isolate.OUT.mkdir(exist_ok=True)
        tracer.dump(isolate.OUT / f"spans-{tracer.run_id}.json")
        (isolate.OUT / f"record-{tracer.run_id}.json").write_text(
            json.dumps(record, indent=1))
    for name, (value, unit) in metrics.items():
        lines.append(f"{name} = {value:.6g} {unit}")
    lines.insert(0, "stamp " + json.dumps(run_stamp, sort_keys=True))
    result = {"correct": correct, "attempted": evals1 - evals0,
              "failed": failed1 - failed0,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    return result, lines, 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        isolate.require_program()
    except isolate.MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    result, lines, status = run(args)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return status


if __name__ == "__main__":
    sys.exit(main())
