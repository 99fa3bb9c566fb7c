"""Statistical helpers for benchmark reporting.

The paper reports point estimates (mean simulation counts, x/y success
fractions).  A reproduction comparing algorithms on a *different*
simulator needs uncertainty estimates to claim that a gap is real:

* :func:`bootstrap_ci` — nonparametric percentile bootstrap for any
  statistic of one sample (sample-efficiency means are heavy-tailed, so
  normal-theory intervals mislead);
* :func:`wilson_interval` — score interval for success *rates* (the
  generalization columns are binomial counts, often near 100 %, where the
  Wald interval collapses);
* :func:`summarize` — one-stop five-number-plus summary used by the bench
  result blocks;
* :func:`compare_samples` — Mann-Whitney U test for "algorithm A needs
  fewer simulations than B" claims;
* :class:`SeedAggregate` — accumulates one scalar per training seed and
  reports mean +/- CI (the paper trains "several times to ensure
  robust[ness] to variations in random seed").
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Sequence

import numpy as np

# scipy.stats (~0.8 s to import) loads inside the two functions that call
# it: repro.pex imports wilson_interval, and evaluation never needs stats.


@dataclasses.dataclass(frozen=True)
class SummaryStats:
    """Five-number summary plus mean/std of one sample."""

    n: int
    mean: float
    std: float
    minimum: float
    q25: float
    median: float
    q75: float
    maximum: float

    def row(self) -> list[float]:
        """Values in table-column order (matches :func:`summary_headers`)."""
        return [self.n, self.mean, self.std, self.minimum, self.q25,
                self.median, self.q75, self.maximum]


def summary_headers() -> list[str]:
    """Column headers matching :meth:`SummaryStats.row`."""
    return ["n", "mean", "std", "min", "q25", "median", "q75", "max"]


def summarize(values: Sequence[float]) -> SummaryStats:
    """Compute a :class:`SummaryStats` over the finite entries of ``values``."""
    arr = np.asarray(values, dtype=float)
    arr = arr[np.isfinite(arr)]
    if arr.size == 0:
        raise ValueError("summarize() needs at least one finite value")
    q25, median, q75 = np.percentile(arr, [25.0, 50.0, 75.0])
    return SummaryStats(
        n=int(arr.size),
        mean=float(arr.mean()),
        std=float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
        minimum=float(arr.min()),
        q25=float(q25),
        median=float(median),
        q75=float(q75),
        maximum=float(arr.max()),
    )


def bootstrap_ci(values: Sequence[float],
                 statistic: Callable[[np.ndarray], float] = np.mean,
                 n_boot: int = 2000, confidence: float = 0.95,
                 seed: int = 0) -> tuple[float, float]:
    """Percentile-bootstrap confidence interval for ``statistic(values)``.

    Resamples with replacement ``n_boot`` times and returns the central
    ``confidence`` percentile interval of the statistic's bootstrap
    distribution.  Deterministic for a fixed ``seed``.
    """
    arr = np.asarray(values, dtype=float)
    arr = arr[np.isfinite(arr)]
    if arr.size == 0:
        raise ValueError("bootstrap_ci() needs at least one finite value")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    if arr.size == 1:
        v = float(statistic(arr))
        return v, v
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, arr.size, size=(n_boot, arr.size))
    replicates = np.array([statistic(arr[row]) for row in idx])
    alpha = (1.0 - confidence) / 2.0
    lo, hi = np.percentile(replicates, [100.0 * alpha, 100.0 * (1.0 - alpha)])
    return float(lo), float(hi)


def wilson_interval(successes: int, trials: int,
                    confidence: float = 0.95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Well-behaved at the extremes (0/n and n/n), which is exactly where the
    paper's generalization numbers live (500/500, 963/1000).
    """
    if trials <= 0:
        raise ValueError("wilson_interval() needs trials >= 1")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes {successes} outside [0, {trials}]")
    from scipy import stats as scipy_stats
    z = float(scipy_stats.norm.ppf(0.5 + confidence / 2.0))
    p = successes / trials
    denom = 1.0 + z * z / trials
    centre = (p + z * z / (2.0 * trials)) / denom
    margin = (z / denom) * math.sqrt(p * (1.0 - p) / trials
                                     + z * z / (4.0 * trials * trials))
    return max(0.0, centre - margin), min(1.0, centre + margin)


@dataclasses.dataclass(frozen=True)
class ComparisonResult:
    """Outcome of a two-sample comparison."""

    statistic: float
    p_value: float
    median_a: float
    median_b: float

    @property
    def significant(self) -> bool:
        """True at the conventional 5 % level."""
        return self.p_value < 0.05


def compare_samples(a: Sequence[float], b: Sequence[float],
                    alternative: str = "less") -> ComparisonResult:
    """Mann-Whitney U test of sample ``a`` against sample ``b``.

    ``alternative="less"`` (default) tests whether ``a`` is stochastically
    smaller than ``b`` — e.g. "AutoCkt needs fewer simulations than the
    GA".  Non-finite entries are dropped.
    """
    arr_a = np.asarray(a, dtype=float)
    arr_b = np.asarray(b, dtype=float)
    arr_a = arr_a[np.isfinite(arr_a)]
    arr_b = arr_b[np.isfinite(arr_b)]
    if arr_a.size == 0 or arr_b.size == 0:
        raise ValueError("compare_samples() needs non-empty finite samples")
    from scipy import stats as scipy_stats
    result = scipy_stats.mannwhitneyu(arr_a, arr_b, alternative=alternative)
    return ComparisonResult(
        statistic=float(result.statistic),
        p_value=float(result.pvalue),
        median_a=float(np.median(arr_a)),
        median_b=float(np.median(arr_b)),
    )


class SeedAggregate:
    """Accumulate one scalar metric per random seed and summarise.

    The paper notes each training session "is conducted several times to
    ensure that AutoCkt is robust to variations in random seed"; benches
    use this to report mean +/- bootstrap CI over seeds.
    """

    def __init__(self, name: str):
        self.name = name
        self._values: list[float] = []
        self._seeds: list[int] = []

    def add(self, seed: int, value: float) -> None:
        """Record ``value`` for ``seed`` (one entry per seed)."""
        if seed in self._seeds:
            raise ValueError(f"duplicate seed {seed} for metric {self.name!r}")
        self._seeds.append(seed)
        self._values.append(float(value))

    def __len__(self) -> int:
        return len(self._values)

    @property
    def values(self) -> list[float]:
        return list(self._values)

    def mean(self) -> float:
        """Mean of the metric over recorded seeds."""
        if not self._values:
            raise ValueError(f"metric {self.name!r} has no values")
        return float(np.mean(self._values))

    def interval(self, confidence: float = 0.95,
                 seed: int = 0) -> tuple[float, float]:
        """Bootstrap CI of the mean over seeds."""
        return bootstrap_ci(self._values, confidence=confidence, seed=seed)

    def describe(self) -> str:
        """One-line ``name: mean [lo, hi] over n seeds`` rendering."""
        if not self._values:
            return f"{self.name}: (no data)"
        if len(self._values) == 1:
            return f"{self.name}: {self._values[0]:.4g} (1 seed)"
        lo, hi = self.interval()
        return (f"{self.name}: {self.mean():.4g} "
                f"[{lo:.4g}, {hi:.4g}] over {len(self)} seeds")


def geometric_mean_speedup(fast: Sequence[float],
                           slow: Sequence[float]) -> float:
    """Geometric mean of per-case ``slow/fast`` ratios.

    The paper's headline "40x faster than a traditional genetic algorithm"
    is a ratio of mean simulation counts; the geometric mean over paired
    targets is the fairer aggregate and is what the benches report
    alongside the plain ratio.
    """
    f = np.asarray(fast, dtype=float)
    s = np.asarray(slow, dtype=float)
    if f.shape != s.shape or f.size == 0:
        raise ValueError("speedup needs matching non-empty samples")
    mask = np.isfinite(f) & np.isfinite(s) & (f > 0) & (s > 0)
    if not mask.any():
        raise ValueError("no valid pairs for speedup")
    return float(np.exp(np.mean(np.log(s[mask] / f[mask]))))
