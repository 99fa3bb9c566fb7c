"""Monte-Carlo device mismatch and yield analysis.

PVT corners (:mod:`repro.pex.corners`) capture *global* process spread —
every device on the die shifts together.  Real silicon adds *local*
mismatch: each transistor's threshold and gain factor deviate
independently, with standard deviation shrinking as the square root of
gate area (the Pelgrom law):

    sigma(dVth)       = A_vt   / sqrt(W * L * m)
    sigma(dbeta/beta) = A_beta / sqrt(W * L * m)

This module samples mismatched instances of a sized circuit, re-simulates
each, and summarises the spec distributions — including the *yield*
against a target specification, which is what a designer actually signs
off.  It is the natural extension of the paper's PEX/PVT flow (its
"future work" axis of robustness) and exercises exactly the same
build/solve/measure path as the schematic simulator.
"""

from __future__ import annotations

import dataclasses
import math
from typing import TYPE_CHECKING

import numpy as np

from repro.analysis.stats import wilson_interval
from repro.circuits.mosfet import Mosfet
from repro.circuits.netlist import Netlist
from repro.core.reward import RewardSpec, compute_reward
from repro.errors import ConvergenceError, MeasurementError, TopologyError
from repro.sim.batch import solve_dc_batch
from repro.sim.dc import OperatingPoint, solve_dc
from repro.sim.stamp import StampPlan
from repro.sim.system import MnaSystem

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.topologies.base import Topology


@dataclasses.dataclass(frozen=True)
class MismatchModel:
    """Pelgrom-law mismatch coefficients.

    Defaults are 45 nm-class: ``a_vth`` = 3.5 mV*um and ``a_beta`` = 1 %*um
    (per sqrt-area in um).  Both are expressed in SI (V*m and m) so they
    divide device areas in m^2 directly.
    """

    a_vth: float = 3.5e-9    # V * m  (3.5 mV * um)
    a_beta: float = 1.0e-8   # m      (1 % * um)

    def __post_init__(self):
        if self.a_vth < 0.0 or self.a_beta < 0.0:
            raise TopologyError("mismatch coefficients must be >= 0")

    def sigma_vth(self, w: float, l: float, m: float = 1.0) -> float:
        """Threshold mismatch sigma [V] for a device of area W*L*m."""
        return self.a_vth / math.sqrt(w * l * m)

    def sigma_beta(self, w: float, l: float, m: float = 1.0) -> float:
        """Relative gain-factor mismatch sigma for a device of area W*L*m."""
        return self.a_beta / math.sqrt(w * l * m)


def apply_mismatch(netlist: Netlist, model: MismatchModel,
                   rng: np.random.Generator) -> int:
    """Perturb every MOSFET in ``netlist`` with an independent mismatch draw.

    Returns the number of devices perturbed.  The perturbation replaces
    each device's technology card with a copy whose ``vth0`` is shifted
    and ``kp`` scaled, so downstream DC/AC/noise analyses see a coherent
    device.
    """
    n = 0
    for element in netlist.elements:
        if not isinstance(element, Mosfet):
            continue
        sigma_v = model.sigma_vth(element.w, element.l, element.m)
        sigma_b = model.sigma_beta(element.w, element.l, element.m)
        dvth = rng.normal(0.0, sigma_v) if sigma_v > 0.0 else 0.0
        dbeta = rng.normal(0.0, sigma_b) if sigma_b > 0.0 else 0.0
        params = element.params
        element.params = dataclasses.replace(
            params,
            vth0=params.vth0 + dvth,
            kp=params.kp * max(1.0 + dbeta, 0.05),
        )
        n += 1
    return n


@dataclasses.dataclass
class MonteCarloResult:
    """Spec distributions over mismatch trials of one sizing."""

    values: dict[str, float]                 # the sized design (SI values)
    specs: dict[str, np.ndarray]             # per-spec sample arrays
    n_trials: int
    n_failed: int                            # non-convergent trials

    def mean(self, name: str) -> float:
        """Sample mean of one spec over the trials."""
        return float(np.mean(self.specs[name]))

    def std(self, name: str) -> float:
        """Sample standard deviation of one spec over the trials."""
        arr = self.specs[name]
        return float(np.std(arr, ddof=1)) if len(arr) > 1 else 0.0

    def quantile(self, name: str, q: float) -> float:
        """Sample quantile of one spec over the trials."""
        return float(np.quantile(self.specs[name], q))

    def sigma_fraction(self, name: str) -> float:
        """Relative spread sigma/|mean| (0 when the mean is 0)."""
        mu = self.mean(name)
        return self.std(name) / abs(mu) if mu else 0.0


class MonteCarloAnalysis:
    """Mismatch Monte Carlo over one topology.

    Parameters
    ----------
    topology:
        The circuit; trials rebuild its testbench from scratch so no
        warm-start state leaks between draws.
    model:
        Pelgrom coefficients.
    """

    def __init__(self, topology: "Topology",
                 model: MismatchModel | None = None):
        self.topology = topology
        self.model = model or MismatchModel()

    def run_trial(self, values: dict[str, float],
                  rng: np.random.Generator) -> dict[str, float] | None:
        """One mismatch draw: build, perturb, solve, measure.

        Returns None when the perturbed circuit fails to converge or
        measure (counted separately by :meth:`run`).
        """
        netlist = self.topology.build(values)
        apply_mismatch(netlist, self.model, rng)
        system = MnaSystem(netlist, temperature=self.topology.temperature)
        try:
            op = solve_dc(system)
            return self.topology.measure(system, op)
        except (ConvergenceError, MeasurementError):
            return None

    #: Mismatch trials solved per stacked batch.
    BATCH_TRIALS = 32

    def _run_batched(self, values: dict[str, float], rng: np.random.Generator,
                     n_trials: int):
        """Yield lists of per-trial spec dicts (None = failed trial).

        Trials share the netlist structure (mismatch only perturbs device
        cards), so each chunk of perturbed netlists fills one
        :class:`~repro.sim.batch.SystemStack` in one pass and solves with
        a single batched Newton — the same sample-stacked slices the
        corner-stacked PEX sweep uses.  When the topology has a stacked
        measurement path (``measure_batch``), converged trials are
        measured in one stacked call too; trials whose batched solve
        fails — or whose stacked measurement reports the pessimistic
        failure value — are retried with the scalar solver (full
        gmin/source machinery) before being declared failed.
        """
        plan = StampPlan(self.topology.build,
                         temperature=self.topology.temperature)
        done = 0
        failure = self.topology.failure_measurement()
        while done < n_trials:
            chunk = min(self.BATCH_TRIALS, n_trials - done)
            netlists = []
            for _ in range(chunk):
                netlist = self.topology.build(values)
                apply_mismatch(netlist, self.model, rng)
                netlists.append(netlist)
            stack = plan.stack_netlists(netlists, values)
            result = solve_dc_batch(stack)
            stacked = self.topology.measure_batch(stack, result)
            batch: list[dict[str, float] | None] = []
            for i, netlist in enumerate(netlists):
                if (stacked is not None and result.converged[i]
                        and stacked[i] != failure):
                    batch.append(stacked[i])
                    continue
                system = plan.restamp_netlist(netlist)
                try:
                    if result.converged[i] and stacked is None:
                        op = OperatingPoint(system, result.x[i].copy(),
                                            int(result.iterations[i]),
                                            float(result.residual_norm[i]))
                    else:
                        op = solve_dc(system)
                    batch.append(self.topology.measure(system, op))
                except (ConvergenceError, MeasurementError):
                    batch.append(None)
            yield batch
            done += chunk

    def run(self, indices: np.ndarray | None = None,
            values: dict[str, float] | None = None,
            n_trials: int = 100, seed: int = 0) -> MonteCarloResult:
        """Run ``n_trials`` mismatch draws of one sizing.

        Trials are solved in stacked batches (see :meth:`_run_batched`);
        the sizing is given either as grid ``indices`` or as physical
        ``values`` (exactly one of the two).
        """
        if (indices is None) == (values is None):
            raise TopologyError("give exactly one of indices/values")
        if n_trials < 2:
            raise TopologyError("Monte Carlo needs n_trials >= 2")
        if values is None:
            space = self.topology.parameter_space
            values = space.values(space.clip(np.asarray(indices)))
        rng = np.random.default_rng(seed)
        traces: dict[str, list[float]] = {}
        failed = 0
        for batch in self._run_batched(values, rng, n_trials):
            for specs in batch:
                if specs is None:
                    failed += 1
                    continue
                for name, value in specs.items():
                    traces.setdefault(name, []).append(float(value))
        if not traces:
            raise ConvergenceError(
                f"all {n_trials} Monte-Carlo trials failed to converge")
        return MonteCarloResult(
            values=dict(values),
            specs={k: np.asarray(v) for k, v in traces.items()},
            n_trials=n_trials,
            n_failed=failed,
        )


@dataclasses.dataclass(frozen=True)
class YieldEstimate:
    """Binomial yield of a sizing against a target specification."""

    passed: int
    trials: int
    ci_low: float
    ci_high: float

    @property
    def rate(self) -> float:
        return self.passed / self.trials


def estimate_yield(result: MonteCarloResult, target: dict[str, float],
                   spec_space, reward: RewardSpec | None = None,
                   confidence: float = 0.95) -> YieldEstimate:
    """Fraction of Monte-Carlo trials meeting ``target`` (with Wilson CI).

    Failed (non-convergent) trials count as fails — silicon that does not
    bias up does not ship.
    """
    reward = reward or RewardSpec()
    names = list(result.specs.keys())
    n_ok = len(result.specs[names[0]])
    passed = 0
    for i in range(n_ok):
        observed = {name: float(result.specs[name][i]) for name in names}
        if compute_reward(observed, target, spec_space, reward).goal_reached:
            passed += 1
    trials = n_ok + result.n_failed
    lo, hi = wilson_interval(passed, trials, confidence=confidence)
    return YieldEstimate(passed=passed, trials=trials, ci_low=lo, ci_high=hi)
