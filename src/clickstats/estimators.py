"""Point estimates and bootstrap intervals for Q_B and Q_M from click records.

Point estimates are plug-in moment estimates with the (n-1) sample
variance. The population-variance value is the exact kernel's on
``empirical_frequencies`` (``qb_parameter`` or ``mandel_q``), and for either
statistic estimate + 1 = (that value + 1) n / (n - 1). Uncertainty comes
from a percentile bootstrap: the sampling distribution of Q_B is skewed
near its boundaries, so quantiles of the resampled statistic are preferred
over symmetric standard-error intervals.

Resamples are drawn as multinomial counts over the observed click values,
which is exactly an n-out-of-n resample with replacement reduced to its
sufficient statistics. Replicates are drawn in blocks of BOOTSTRAP_BLOCK
rows, each block from its own stream derived from (seed, block index), and
reduced at once to one mean and one variance per replicate. Q_B and Q_M are
both functions of those two numbers and the streams name no statistic, so
the two statistics of one record share one draw (the last draw's moments
are kept). A block is drawn in sub-blocks of at most BOOTSTRAP_CELLS
(rows x distinct values) cells, the same rows as one draw of the block, so
memory is bounded whatever the replicate count and the number of distinct
click values.

Every argument takes the number rule of ``states`` once per call: the
replicate count an integer in [0, MAX_BOOTSTRAP_REPLICATES], the level a
real in the open interval (0, 1), the seed ``checked_seed``'s when
replicates are asked for, the worker count ``check_workers``'s, and a raw
count sequence ``checked_counts``'s; a ClickSampleSet checked itself when
it was built. ``qb_estimate`` and ``mandel_q_estimate`` are one body,
``_estimate``: one histogram, the plug-in point and the report, with the
interval from ``_interval``, which ``bootstrap_ci`` runs too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .click_kernel import DEGENERATE_MEAN_TOL, MAX_DETECTORS, ClickDistribution, q_from_moments
from .errors import (
    AllResamplesDegenerate, DegenerateMean, InsufficientData, InvalidSample, ValidationError,
)
from .laws import law_moments
from .simulator import MAX_BOOTSTRAP_REPLICATES, ClickSampleSet, check_workers
from .states import (
    COUNT_RULE, MAX_INT64, checked_counts, checked_integer, checked_real, checked_seed,
)

MIN_BOOTSTRAP_REPLICATES = 100
MIN_BOOTSTRAP_SAMPLE = 10
DEFAULT_REPLICATES = 1000
DEFAULT_LEVEL = 0.95
BOOTSTRAP_BLOCK = 256
# Cells (rows x distinct values) of one multinomial draw, about 4 MB of
# counts: a block whose rows would hold more is drawn in sub-blocks.
BOOTSTRAP_CELLS = 1 << 19

_BOOT_DOMAIN = 0x424F4F54

STATISTICS = ("q_b", "q_m")


@dataclass(frozen=True)
class EstimateReport:
    """One estimated statistic with its percentile-bootstrap interval.

    ``ci_low``/``ci_high`` are None when no bootstrap was requested, and
    bracket the point estimate when one was; the point estimate and the
    interval ends are finite numbers. The confidence level must lie
    in (0, 1) either way. ``degenerate_resamples`` counts the bootstrap
    resamples discarded for a degenerate mean. The three counts take the
    number rule (``checked_integer``) and are stored as ints.
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
        if not 0.0 < self.confidence_level < 1.0:
            raise ValueError(
                f"confidence level must lie in (0, 1), got {self.confidence_level!r}"
            )
        for name in ("point_estimate", "ci_low", "ci_high"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name}={value!r} is not finite")
        for name in ("sample_size", "bootstrap_replicates", "degenerate_resamples"):
            count = checked_integer(getattr(self, name), name, 0, MAX_INT64, COUNT_RULE)
            object.__setattr__(self, name, count)
        if self.bootstrap_replicates and not (
            None not in (self.ci_low, self.ci_high)
            and self.ci_low <= self.point_estimate <= self.ci_high
        ):
            raise ValueError("a bootstrap estimate needs an interval bracketing it")


def _clicks_array(samples, statistic: str) -> tuple[np.ndarray, int | None]:
    """(clicks, N) of a ClickSampleSet, which checked itself, or (counts, None)
    of a raw sequence by the count rule; Q_B needs a record's N."""
    if isinstance(samples, ClickSampleSet):
        return samples.clicks, samples.N
    if statistic == "q_b":
        raise ValueError("Q_B estimation needs a ClickSampleSet carrying N")
    counts = checked_counts(samples, "counts")
    if counts.min(initial=0) < 0:
        raise InvalidSample("counts must be nonnegative integers")
    return counts, None


def _checked_arguments(replicates, level, seed, workers) -> tuple[int, float, int | None]:
    """The replicate count, level, seed and worker count by the number rule;
    the seed only when replicates are asked for."""
    replicates = checked_integer(replicates, "bootstrap replicates", 0, MAX_BOOTSTRAP_REPLICATES,
                                 f"must be an integer in [0, {MAX_BOOTSTRAP_REPLICATES}]")
    level = checked_real(level, "confidence level", math.nextafter(0.0, 1.0),
                         math.nextafter(1.0, 0.0), "must lie in (0, 1)")
    check_workers(workers)
    return replicates, level, checked_seed(seed) if replicates else seed


def empirical_frequencies(samples: ClickSampleSet) -> ClickDistribution:
    """Observed click frequencies as an exact distribution over 0..N.

    A click distribution holds N + 1 entries, so N is capped at
    MAX_DETECTORS, as for every exact law; a record from a file may name any
    N below 2^63.
    """
    if not isinstance(samples, ClickSampleSet):
        raise ValidationError(f"samples: must be a ClickSampleSet, got {type(samples).__name__}")
    if samples.trials < 1:
        raise InsufficientData("at least one trial is required")
    if samples.N > MAX_DETECTORS:
        raise ValidationError(
            f"N={samples.N} exceeds {MAX_DETECTORS}, the largest click distribution"
        )
    counts = np.bincount(samples.clicks, minlength=samples.N + 1)
    return ClickDistribution(samples.N, counts / samples.trials)


def _histogram(clicks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Click values in ascending order and how often each occurs.

    Up to MAX_DETECTORS, every count a simulated record can hold, the
    histogram is dense: all values from 0 to the largest, zero counts kept,
    which is the layout every interval of this stream version was computed
    on (moment sums round differently when zeros are dropped). Records with
    larger values, which only a file can carry, list just the values that
    occur, so that memory follows the record rather than its largest value.
    """
    if clicks.max(initial=0) <= MAX_DETECTORS:
        counts = np.bincount(clicks)
        return np.arange(counts.size), counts
    return np.unique(clicks, return_counts=True)


def _sample_moments(counts: np.ndarray, values: np.ndarray | None):
    """Sample mean and (n - 1) sample variance of value-count vectors along
    the last axis; ``values`` names the value each count belongs to (0, 1,
    ... when omitted)."""
    n = counts.sum(axis=-1)
    mean, variance = law_moments(counts, n, values)
    return mean, variance * (n / (n - 1))


@lru_cache(maxsize=1)
def _replicate_moments(
    values: bytes, counts: bytes, seed: int, replicates: int
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and (n - 1) variance of every bootstrap replicate of a histogram.

    ``values`` and ``counts`` are the int64 bytes of ``_histogram``'s arrays.
    Block b of BOOTSTRAP_BLOCK replicates comes from the stream
    (domain, seed, b), which names no statistic, so Q_B and Q_M of one
    record share the same resamples. Both are functions of these two
    numbers per replicate; the last result is kept, so the second statistic
    draws nothing. A block is drawn in sub-blocks of at most BOOTSTRAP_CELLS
    cells; consecutive multinomial draws from one generator give the rows
    that one draw of the whole block gives, bit for bit, and each row's
    moments do not depend on its neighbours. The arrays are read-only
    because every caller gets them.
    """
    value_arr = np.frombuffer(values, dtype=np.int64)
    count_arr = np.frombuffer(counts, dtype=np.int64)
    n = int(count_arr.sum())
    freqs = count_arr / n
    mean = np.empty(replicates)
    variance = np.empty(replicates)
    step = max(1, BOOTSTRAP_CELLS // count_arr.size)
    for block, start in enumerate(range(0, replicates, BOOTSTRAP_BLOCK)):
        rng = np.random.default_rng(
            np.random.SeedSequence([_BOOT_DOMAIN, seed, block])
        )
        stop = min(start + BOOTSTRAP_BLOCK, replicates)
        for first in range(start, stop, step):
            rows = slice(first, min(first + step, stop))
            resampled = rng.multinomial(n, freqs, size=rows.stop - first)
            mean[rows], variance[rows] = _sample_moments(resampled, value_arr)
    mean.setflags(write=False)
    variance.setflags(write=False)
    return mean, variance


class BootstrapInterval(NamedTuple):
    """Percentile interval plus the number of discarded degenerate resamples."""

    ci_low: float
    ci_high: float
    discarded: int


def _interval(
    values: np.ndarray, counts: np.ndarray, N: int | None, statistic: str,
    replicates: int, level: float, seed: int,
) -> BootstrapInterval:
    """Percentile interval of "q_b" or "q_m" over the bootstrap replicates of
    a histogram (``_histogram``), from checked arguments."""
    if replicates < MIN_BOOTSTRAP_REPLICATES:
        raise InsufficientData(
            f"bootstrap needs at least {MIN_BOOTSTRAP_REPLICATES} replicates, "
            f"got {replicates}"
        )
    n = int(counts.sum())
    if n < MIN_BOOTSTRAP_SAMPLE:
        raise InsufficientData(
            f"bootstrap needs at least {MIN_BOOTSTRAP_SAMPLE} samples, got {n}"
        )
    mean, variance = _replicate_moments(values.tobytes(), counts.tobytes(), seed, replicates)
    scores = q_from_moments(mean, variance, statistic, N)
    kept = scores[~np.isnan(scores)]
    if kept.size == 0:
        raise AllResamplesDegenerate(
            f"all {replicates} bootstrap resamples had degenerate means"
        )
    alpha = 1.0 - level
    lo, hi = np.quantile(kept, [alpha / 2.0, 1.0 - alpha / 2.0])
    return BootstrapInterval(float(lo), float(hi), replicates - kept.size)


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
    exist and AllResamplesDegenerate is raised. ``workers`` is accepted;
    it never changes the output.
    """
    if statistic not in STATISTICS:
        raise ValueError(f"statistic must be one of {STATISTICS}, got {statistic!r}")
    replicates, level, seed = _checked_arguments(replicates, level, seed, workers)
    clicks, N = _clicks_array(samples, statistic)
    return _interval(*_histogram(clicks), N, statistic, replicates, level, seed)


def _estimate(
    statistic: str, samples, replicates: int, level: float, seed: int | None, workers: int
) -> EstimateReport:
    """The plug-in estimate of "q_b" or "q_m", with its bootstrap interval
    when ``replicates`` is positive."""
    replicates, level, seed = _checked_arguments(replicates, level, seed, workers)
    clicks, N = _clicks_array(samples, statistic)
    if clicks.size < 2:
        raise InsufficientData(f"need at least 2 trials, got {clicks.size}")
    values, counts = _histogram(clicks)
    point = float(q_from_moments(*_sample_moments(counts, values), statistic, N))
    if np.isnan(point):
        raise DegenerateMean(
            f"sample mean within {DEGENERATE_MEAN_TOL} of the boundary of [0, {N}]"
            if statistic == "q_b" else f"sample mean below {DEGENERATE_MEAN_TOL}"
        )
    ci_low = ci_high = None
    discarded = 0
    if replicates:
        ci_low, ci_high, discarded = _interval(
            values, counts, N, statistic, replicates, level, seed
        )
        # The percentile interval brackets the plug-in estimate in all but
        # pathological discrete cases; widen minimally rather than report an
        # interval excluding its own point estimate.
        ci_low, ci_high = min(ci_low, point), max(ci_high, point)
    return EstimateReport(
        statistic, point, ci_low, ci_high, level, clicks.size, replicates, discarded
    )


def qb_estimate(
    samples: ClickSampleSet,
    bootstrap_replicates: int = 0,
    level: float = DEFAULT_LEVEL,
    seed: int | None = None,
    workers: int = 1,
) -> EstimateReport:
    """Plug-in Q_B estimate N s^2 / (m (N - m)) - 1 from a click record."""
    return _estimate("q_b", samples, bootstrap_replicates, level, seed, workers)


def mandel_q_estimate(
    samples: ClickSampleSet | Sequence[int],
    bootstrap_replicates: int = 0,
    level: float = DEFAULT_LEVEL,
    seed: int | None = None,
    workers: int = 1,
) -> EstimateReport:
    """Plug-in Mandel estimate s^2 / m - 1 from any nonnegative count record.

    Works on click records (reproducing the misleading negative values
    binomial clicks produce) and on photon-count records alike.
    """
    return _estimate("q_m", samples, bootstrap_replicates, level, seed, workers)
