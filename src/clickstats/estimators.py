"""Point estimates and bootstrap intervals for Q_B and Q_M from click records.

Point estimates are plug-in moment estimates with the unbiased (n-1) sample
variance; the population-variance variant is exposed because it matches the
exact-kernel value of the empirical frequency distribution identically.
Uncertainty comes from a percentile bootstrap: the sampling distribution of
Q_B is skewed near its boundaries, so quantiles of the resampled statistic
are preferred over symmetric standard-error intervals.

Resamples are drawn as multinomial counts over the observed click values,
which is exactly an n-out-of-n resample with replacement reduced to its
sufficient statistics. Each replicate uses its own stream derived from
(seed, replicate index), making results independent of any parallel
execution order.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .click_kernel import ClickDistribution, DEGENERATE_MEAN_TOL
from .errors import (
    AllResamplesDegenerate,
    DegenerateMean,
    InsufficientData,
    InvalidSample,
)
from .simulator import ClickSampleSet, check_workers

MIN_BOOTSTRAP_REPLICATES = 100
MIN_BOOTSTRAP_SAMPLE = 10
DEFAULT_REPLICATES = 1000
DEFAULT_LEVEL = 0.95

_BOOT_DOMAIN = 0x424F4F54

STATISTICS = ("q_b", "q_m")


@dataclass(frozen=True)
class EstimateReport:
    """One estimated statistic with its percentile-bootstrap interval.

    ``ci_low``/``ci_high`` are None when no bootstrap was requested.
    ``degenerate_resamples`` counts the bootstrap resamples discarded for a
    degenerate mean.
    """

    statistic_name: str
    point_estimate: float
    ci_low: float | None
    ci_high: float | None
    confidence_level: float
    sample_size: int
    bootstrap_replicates: int
    degenerate_resamples: int = 0

    def __post_init__(self):
        if self.statistic_name not in STATISTICS:
            raise ValueError(f"unknown statistic {self.statistic_name!r}")
        if self.bootstrap_replicates > 0:
            if not (self.ci_low <= self.point_estimate <= self.ci_high):
                raise ValueError(
                    "confidence interval does not bracket the point estimate"
                )


def _clicks_array(samples) -> tuple[np.ndarray, int | None]:
    """Extract (clicks, N) from a ClickSampleSet or a raw count sequence."""
    if isinstance(samples, ClickSampleSet):
        return samples.clicks, samples.N
    arr = np.asarray(samples, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError("expected a 1-d sequence of counts")
    if arr.size and arr.min() < 0:
        raise InvalidSample("counts must be nonnegative integers")
    return arr, None


def empirical_frequencies(samples: ClickSampleSet) -> ClickDistribution:
    """Observed click frequencies as an exact distribution over 0..N."""
    if samples.trials < 1:
        raise InsufficientData("at least one trial is required")
    clicks = samples.clicks
    if clicks.min(initial=0) < 0 or clicks.max(initial=0) > samples.N:
        raise InvalidSample(
            f"click records must lie in [0, {samples.N}]"
        )
    counts = np.bincount(clicks, minlength=samples.N + 1)
    return ClickDistribution(samples.N, counts / samples.trials)


def _count_moments(counts: np.ndarray, unbiased: bool) -> tuple[float, float]:
    """Sample mean and variance from a value-count vector."""
    n = int(counts.sum())
    ks = np.arange(counts.size, dtype=np.float64)
    mean = float(ks @ counts) / n
    second = float((ks * ks) @ counts) / n
    variance = max(0.0, second - mean * mean)
    if unbiased:
        variance *= n / (n - 1)
    return mean, variance


def _qb_from_counts(counts: np.ndarray, N: int, unbiased: bool) -> float | None:
    """Q_B plug-in value, or None when the sample mean is degenerate."""
    mean, variance = _count_moments(counts, unbiased)
    if mean < DEGENERATE_MEAN_TOL or mean > N - DEGENERATE_MEAN_TOL:
        return None
    return N * variance / (mean * (N - mean)) - 1.0


def _qm_from_counts(counts: np.ndarray, unbiased: bool) -> float | None:
    mean, variance = _count_moments(counts, unbiased)
    if mean < DEGENERATE_MEAN_TOL:
        return None
    return variance / mean - 1.0


class BootstrapInterval(NamedTuple):
    """Percentile interval plus the number of discarded degenerate resamples."""

    ci_low: float
    ci_high: float
    discarded: int


def bootstrap_ci(
    samples: ClickSampleSet,
    statistic: str,
    replicates: int = DEFAULT_REPLICATES,
    level: float = DEFAULT_LEVEL,
    seed: int = 0,
    workers: int = 1,
) -> BootstrapInterval:
    """Percentile bootstrap interval for "q_b" or "q_m" on a click record.

    Deterministic for a fixed seed. Resamples whose mean is degenerate are
    dropped and counted; if every resample degenerates the interval does not
    exist and AllResamplesDegenerate is raised.
    """
    if statistic not in STATISTICS:
        raise ValueError(f"statistic must be one of {STATISTICS}, got {statistic!r}")
    check_workers(workers)
    if replicates < MIN_BOOTSTRAP_REPLICATES:
        raise InsufficientData(
            f"bootstrap needs at least {MIN_BOOTSTRAP_REPLICATES} replicates, "
            f"got {replicates}"
        )
    if not (0.0 < level < 1.0):
        raise ValueError(f"confidence level must lie in (0, 1), got {level!r}")
    clicks, N = _clicks_array(samples)
    if statistic == "q_b" and N is None:
        raise ValueError("Q_B bootstrap needs a ClickSampleSet carrying N")
    n = clicks.size
    if n < MIN_BOOTSTRAP_SAMPLE:
        raise InsufficientData(
            f"bootstrap needs at least {MIN_BOOTSTRAP_SAMPLE} samples, got {n}"
        )
    counts = np.bincount(clicks)
    freqs = counts / n

    def replicate_value(rep: int) -> float:
        rng = np.random.default_rng(
            np.random.SeedSequence([_BOOT_DOMAIN, seed, rep])
        )
        resampled = rng.multinomial(n, freqs)
        if statistic == "q_b":
            value = _qb_from_counts(resampled, N, unbiased=True)
        else:
            value = _qm_from_counts(resampled, unbiased=True)
        return np.nan if value is None else value

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            values = np.fromiter(
                pool.map(replicate_value, range(replicates)), dtype=np.float64
            )
    else:
        values = np.fromiter(
            (replicate_value(r) for r in range(replicates)), dtype=np.float64
        )

    kept = values[~np.isnan(values)]
    discarded = replicates - kept.size
    if kept.size == 0:
        raise AllResamplesDegenerate(
            f"all {replicates} bootstrap resamples had degenerate means"
        )
    alpha = 1.0 - level
    lo, hi = np.quantile(kept, [alpha / 2.0, 1.0 - alpha / 2.0])
    return BootstrapInterval(float(lo), float(hi), discarded)


def _build_report(
    name: str,
    point: float,
    n: int,
    samples,
    replicates: int,
    level: float,
    seed: int | None,
    workers: int,
) -> EstimateReport:
    check_workers(workers)
    if replicates <= 0:
        return EstimateReport(
            statistic_name=name,
            point_estimate=point,
            ci_low=None,
            ci_high=None,
            confidence_level=level,
            sample_size=n,
            bootstrap_replicates=0,
        )
    if seed is None:
        raise ValueError("a seed is required when bootstrap replicates are requested")
    interval = bootstrap_ci(
        samples, name, replicates=replicates, level=level, seed=seed, workers=workers
    )
    # The percentile interval brackets the plug-in estimate in all but
    # pathological discrete cases; widen minimally rather than report an
    # interval excluding its own point estimate.
    lo = min(interval.ci_low, point)
    hi = max(interval.ci_high, point)
    return EstimateReport(
        statistic_name=name,
        point_estimate=point,
        ci_low=lo,
        ci_high=hi,
        confidence_level=level,
        sample_size=n,
        bootstrap_replicates=replicates,
        degenerate_resamples=interval.discarded,
    )


def qb_estimate(
    samples: ClickSampleSet,
    unbiased: bool = True,
    bootstrap_replicates: int = 0,
    level: float = DEFAULT_LEVEL,
    seed: int | None = None,
    workers: int = 1,
) -> EstimateReport:
    """Plug-in Q_B estimate N s^2 / (m (N - m)) - 1 from a click record."""
    clicks, N = _clicks_array(samples)
    if N is None:
        raise ValueError("Q_B estimation needs a ClickSampleSet carrying N")
    if clicks.size < 2:
        raise InsufficientData(f"need at least 2 trials, got {clicks.size}")
    if clicks.min() < 0 or clicks.max() > N:
        raise InvalidSample(f"click records must lie in [0, {N}]")
    point = _qb_from_counts(np.bincount(clicks), N, unbiased)
    if point is None:
        raise DegenerateMean(
            f"sample mean within {DEGENERATE_MEAN_TOL} of the boundary of [0, {N}]"
        )
    return _build_report(
        "q_b", point, clicks.size, samples, bootstrap_replicates, level, seed, workers
    )


def mandel_q_estimate(
    samples: ClickSampleSet | Sequence[int],
    unbiased: bool = True,
    bootstrap_replicates: int = 0,
    level: float = DEFAULT_LEVEL,
    seed: int | None = None,
    workers: int = 1,
) -> EstimateReport:
    """Plug-in Mandel estimate s^2 / m - 1 from any nonnegative count record.

    Works on click records (reproducing the misleading negative values
    binomial clicks produce) and on photon-count records alike.
    """
    counts_arr, _ = _clicks_array(samples)
    if counts_arr.size < 2:
        raise InsufficientData(f"need at least 2 samples, got {counts_arr.size}")
    point = _qm_from_counts(np.bincount(counts_arr), unbiased)
    if point is None:
        raise DegenerateMean(f"sample mean below {DEGENERATE_MEAN_TOL}")
    boot_samples = samples if isinstance(samples, ClickSampleSet) else counts_arr
    return _build_report(
        "q_m",
        point,
        counts_arr.size,
        boot_samples,
        bootstrap_replicates,
        level,
        seed,
        workers,
    )
