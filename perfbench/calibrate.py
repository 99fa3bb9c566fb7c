"""Host-speed calibration: a fixed kernel timed next to every request.

The benchmark runs on a few cores of a shared host whose speed changes
by up to 2x from one second to the next: other tenants slow the vCPU
itself (a tight timer loop sees no scheduling gap above 0.2 ms), so
the kernels below take 1.65 ms in a quiet second and 3-4 ms in a busy
one.  A run of ``--seconds`` then mostly measures how much of it fell
in busy seconds.  To take that out, a run times a fixed kernel --
touching nothing of ``repro`` -- right before and right after every
request, and rescales the request's wall time by ``ref / kernel time``
around it.  A rescaled time reads as the request's wall time on a host
where the kernel takes its reference time; a change to the program
moves it, a busy neighbour mostly does not.

A busy neighbour slows different code by different amounts, so each
workload names the kernel that is closest to where its requests spend
their time:

* ``interpreter`` -- attribute lookups, small dicts, string keys and
  8-element numpy operations: per-call overhead, as in the scalar
  deployment path and PPO on 4-unknown systems;
* ``numeric`` -- an integer loop and 40 x 40 LAPACK solves: arithmetic
  on stacked systems, as in the GA's batched post-layout solves and the
  meshes' sparse and Krylov solves.

Measured on the 2-vCPU host over six seeds each in a busy hour, the
interpreter kernel took the seed-to-seed spread of the deploy and train
request times from 25% and 44% raw to 5% (numeric: 9% and 10%), and the
numeric kernel took the GA's from 17% to 2.5% (interpreter: 15%).

The raw wall times are printed next to the rescaled ones on every run.
"""

from __future__ import annotations

import math
import time

import numpy as np

#: Share of a request's own time spent calibrating after it (at least
#: one kernel, at most ``MAX_REPS``).
SHARE = 0.05
MAX_REPS = 60


class _Probe:
    def __init__(self, x: float):
        self.x = x

    def scaled(self, y: float) -> float:
        return self.x * y + 1.0


def _interpreter(a: np.ndarray, b: np.ndarray) -> float:
    totals: dict[str, float] = {}
    for i in range(1500):
        key = f"k{i % 40}"
        totals[key] = totals.get(key, 0.0) + _Probe(i).scaled(0.5)
    v = np.arange(8.0)
    for _ in range(250):
        v = np.maximum(v * 0.5 + 1.0, 0.0)
        v = v[[1, 2, 3, 4, 5, 6, 7, 0]]
    for _ in range(8):
        np.linalg.solve(a, b)
    return totals["k0"] + float(v[0])


def _numeric(a: np.ndarray, b: np.ndarray) -> float:
    s = 0
    for i in range(20000):
        s += i * i % 7
    for _ in range(30):
        np.linalg.solve(a, b)
    return float(s)


#: kernel name -> (function, reference time in ms: the kernel's time in
#: a quiet second on the 2-vCPU host the benchmark was written on).
KERNELS = {"interpreter": (_interpreter, 1.65),
           "numeric": (_numeric, 1.65)}


class Calibrator:
    """Times one of the fixed kernels."""

    def __init__(self, kind: str):
        self.kind = kind
        self.kernel, self.ref_ms = KERNELS[kind]
        rng = np.random.default_rng(0)
        self._a = rng.random((40, 40)) + 40.0 * np.eye(40)
        self._b = self._a[:, 0].copy()
        self.kernel(self._a, self._b)   # first call pays lazy set-up

    def sample(self, after_s: float = 0.0) -> float:
        """Time the kernel for about ``SHARE`` of ``after_s`` (the wall
        time of the request just finished); the mean time of one kernel
        in s."""
        reps = min(MAX_REPS, max(1, math.ceil(SHARE * after_s
                                              / (self.ref_ms * 1e-3))))
        start = time.perf_counter()
        for _ in range(reps):
            self.kernel(self._a, self._b)
        return (time.perf_counter() - start) / reps

    def rescale(self, seconds: float, before: float, after: float) -> float:
        """``seconds`` of wall time taken between the kernel samples
        ``before`` and ``after`` (s per kernel), at the reference speed."""
        return seconds * self.ref_ms * 1e-3 / (0.5 * (before + after))

    def rescale_requests(self, latencies: list[float], samples: list[float]
                         ) -> list[float]:
        """Rescale request ``i`` by samples ``i`` and ``i + 1``: a run
        takes one sample before its first request and one after each."""
        if len(samples) != len(latencies) + 1:
            raise ValueError(f"{len(samples)} calibration samples for "
                             f"{len(latencies)} requests")
        return [self.rescale(t, samples[i], samples[i + 1])
                for i, t in enumerate(latencies)]
