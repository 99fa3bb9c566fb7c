"""Import-graph guard: the evaluation path never loads ``scipy.stats`` or
``networkx``.

Both cost a large share of a fresh process's start-up and no evaluation
calls them: ``scipy.stats`` backs the analysis statistics and
``networkx`` backs LVS and :meth:`Netlist.connectivity_graph`, and each
is imported inside the functions that use it.  The check runs in a fresh
interpreter (this test process has long since imported both) and runs
real evaluations before looking, so a dependency moved into the first
request fails it as surely as one imported at module level.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

#: Modules that must stay out of ``sys.modules`` on the evaluation path.
FORBIDDEN = ("scipy.stats", "networkx")

_PROBE = """
import json, sys

import repro.topologies, repro.pex, repro.core, repro.rl.ppo, repro.baselines
from repro.pex import PexSimulator
from repro.topologies import SchematicSimulator, TwoStageOpAmp

sim = SchematicSimulator(TwoStageOpAmp())
centre = sim.parameter_space.center
sim.evaluate_batch([centre, sim.parameter_space.clip(centre + 1)])
sim.evaluate(sim.parameter_space.clip(centre - 1))
PexSimulator(TwoStageOpAmp).evaluate(centre)
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] in ("scipy", "networkx"))))
"""


def test_evaluation_path_skips_stats_and_networkx():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    proc = subprocess.run([sys.executable, "-c", _PROBE], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.strip().splitlines()[-1])
    leaked = [m for m in loaded
              if any(m == f or m.startswith(f + ".") for f in FORBIDDEN)]
    assert leaked == [], f"evaluation path imported {leaked}"
