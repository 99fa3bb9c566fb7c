"""Self-tests of the benchmark (not part of the repository's test suite).

Run from the repository root::

    python3 -m pytest perfbench -q

They run every workload at its smallest size, so they check the
benchmark's plumbing -- metric names and units, failure accounting,
seeding, the refusal to run without the program -- not its figures.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import isolate  # noqa: E402

isolate.require_program()

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from repro.topologies import SchematicSimulator, TwoStageOpAmp  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, seed: int, trace: int, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
         "--tiny"], cwd=cwd, capture_output=True, text=True, timeout=300)


def metric_units(result: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_pass_emits_every_metric(workload, trace):
    proc = run_bench(workload, seed=3, trace=trace)
    assert proc.returncode == 0, proc.stderr + proc.stdout
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert metric_units(result) == {m["name"]: m["unit"] for m in declared}
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
        # Every metric is printed by name with its unit as well.
        assert f"{name} = " in proc.stdout and metric["unit"] in proc.stdout


def test_declared_layer_metrics_match_tracer():
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        tracer.PER_LAYER


class _FakeReport:
    def __init__(self, quarantined):
        self.quarantined = np.asarray(quarantined, dtype=bool)


class _FakeSimulator:
    """Returns the rows it is told to, with a chosen batch report."""

    def __init__(self, specs, quarantined=None):
        self.specs = specs
        self.last_batch_report = (None if quarantined is None
                                  else _FakeReport(quarantined))

    def failure_measurements(self):
        return {"gain": -1.0}

    def evaluate(self, indices):
        return self.specs[0]

    def evaluate_batch(self, indices_2d):
        return self.specs[:len(indices_2d)]


def test_nan_row_is_a_failed_op():
    sim = workloads.CheckedSimulator(_FakeSimulator([{"gain": math.nan}]))
    sim.evaluate(np.zeros(1))
    assert (sim.evaluations, sim.failed) == (1, 1)


def test_failure_row_is_a_failed_op():
    sim = workloads.CheckedSimulator(
        _FakeSimulator([{"gain": 2.0}, {"gain": -1.0}], quarantined=[0, 0]))
    sim.evaluate_batch(np.zeros((2, 1)))
    assert (sim.evaluations, sim.failed) == (2, 1)


def test_quarantined_row_is_a_failed_op(monkeypatch):
    """A design poisoned through the program's own fault injection is
    quarantined by the in-process engine and counted as failed."""
    from repro.sim.faults import FAULTS_ENV, design_digest

    inner = SchematicSimulator(TwoStageOpAmp(), cache=False)
    space = inner.parameter_space
    rows = np.stack([space.center, space.clip(space.center + 1)])
    values = space.values(rows[1])
    digest = design_digest(np.array([values[n] for n in space.names]))
    monkeypatch.setenv(FAULTS_ENV, f"poison@{digest}")
    sim = workloads.CheckedSimulator(inner)
    sim.evaluate_batch(rows)
    assert inner.last_batch_report.quarantined.tolist() == [False, True]
    assert (sim.evaluations, sim.failed) == (2, 1)


def _inputs(work):
    if isinstance(work, workloads.TrainTia):
        return work.trainer.vec.envs[0].training_targets
    if isinstance(work, (workloads.DeployOpamp, workloads.GaPexOpamp)):
        return work.target(work.sim.spec_space, 0)
    return work.positions["sparse"].tolist()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_changes_inputs_not_metric_names(name):
    cls = workloads.WORKLOADS[name]
    first, second = cls(1, tiny=True), cls(2, tiny=True)
    first.setup()
    second.setup()
    assert _inputs(first) != _inputs(second)
    again = cls(1, tiny=True)
    again.setup()
    assert _inputs(again) == _inputs(first)
    names = [metric_units(json.loads(
        run_bench(name, seed, 0).stdout.strip().splitlines()[-1]))
        for seed in (1, 2)]
    assert names[0] == names[1]


def test_layer_self_time_subtracts_children():
    spans = [("a", 0.0, 10.0, -1, 0), ("b", 1.0, 4.0, 0, 0),
             ("b", 2.0, 3.0, 1, 0), ("c", 5.0, 9.0, 0, 0)]
    times = tracer.layer_times(spans)
    assert times["a"]["self"] == pytest.approx(3.0)
    assert times["b"]["busy"] == pytest.approx(3.0)   # outermost b only
    assert times["b"]["self"] == pytest.approx(3.0)   # 2 + 1
    assert times["b"]["calls"] == 2


@pytest.mark.parametrize("kind", sorted(calibrate.KERNELS))
def test_rescaling_undoes_a_uniformly_slower_host(kind):
    cal = calibrate.Calibrator(kind)
    ref = cal.ref_ms * 1e-3
    assert 0.0 < cal.sample() < 1.0
    # At the reference speed a time is unchanged; on a host running the
    # kernel 2x slower around a request, the request counts half.
    assert cal.rescale(0.5, ref, ref) == pytest.approx(0.5)
    assert cal.rescale_requests([0.4, 0.6], [ref, 2 * ref, 2 * ref]) \
        == pytest.approx([0.4 / 1.5, 0.3])
    with pytest.raises(ValueError):
        cal.rescale_requests([0.4, 0.6], [ref, ref])


def test_interquartile_mean_drops_the_outer_quarters():
    import run
    assert run.interquartile_mean([1.0, 2.0, 3.0]) == pytest.approx(2.0)
    assert run.interquartile_mean([100.0, 2.0, 3.0, 0.0, 4.0, 5.0, 6.0,
                                   -50.0]) == pytest.approx(3.5)


def test_every_workload_names_a_calibration_kernel():
    for cls in workloads.WORKLOADS.values():
        assert cls.calibration in calibrate.KERNELS, cls.name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("deploy_opamp", seed=1, trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_inherited_knobs_are_cleared():
    env = dict(os.environ, REPRO_ENGINE="dense", REPRO_SHARDS="2")
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, 'perfbench'); import isolate, os; "
         "print(isolate.CLEARED_KNOBS, isolate.effective_knobs())"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    assert proc.stdout.strip() == "['REPRO_ENGINE', 'REPRO_SHARDS'] {}"
