"""Seeded Monte Carlo simulation of the physical on-off detector array.

The simulation is a per-photon physical model, not a draw from the exact
click law: each trial samples a photon number, loses each photon with
probability 1 - eta, throws the survivors into uniformly random detectors,
and adds independent dark clicks on the detectors no photon reached: one
Binomial(N - occupied, 1 - exp(-nu)) draw per trial, the same law as one
dark draw per idle detector. Agreement with the exact kernel distribution
is therefore a genuine cross-validation.

Trials are partitioned into fixed chunks of 4096; every chunk draws from its
own random stream derived from (seed, chunk index), so the output depends
only on (spec, config, trials, seed). STREAM_VERSION names that stream
contract together with the bootstrap's; it is raised whenever the same
inputs start giving different clicks or intervals, and every record
written carries it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .click_kernel import DetectorConfig
from .errors import ValidationError
from .states import StateSpec, checked_integer, checked_real, make_distribution

CHUNK_SIZE = 4096
MAX_TRIALS = 10**8
# 1 (records without a stream tag): one uniform per detector per trial for
# the dark clicks, one stream per bootstrap replicate. 2: one binomial dark
# draw per trial, bootstrap replicates in seeded blocks.
STREAM_VERSION = 2

# Domain tag mixed into chunk seeds so simulation streams can never collide
# with bootstrap streams derived from the same user seed.
_STREAM_DOMAIN = 0x53494D


@dataclass(frozen=True)
class ClickSampleSet:
    """Per-trial click counts plus the provenance needed to reproduce them.

    ``stream`` is the random-stream version that produced the clicks, or
    None when unknown (a record read without a ``stream`` tag).
    """

    N: int
    clicks: np.ndarray
    seed: int
    trials: int
    config_echo: DetectorConfig | None = None
    state_echo: StateSpec | None = None
    stream: int | None = None

    def __post_init__(self):
        if self.N < 1:
            raise ValueError(f"N must be a positive integer, got {self.N!r}")
        arr = np.asarray(self.clicks, dtype=np.int64)
        arr.setflags(write=False)
        object.__setattr__(self, "clicks", arr)
        if arr.ndim != 1 or arr.size != self.trials:
            raise ValueError(
                f"click record length {arr.size} does not match trials={self.trials}"
            )
        if arr.size and (arr.min() < 0 or arr.max() > self.N):
            raise ValueError(f"click counts must lie in [0, {self.N}]")


def check_workers(workers: int) -> None:
    """The worker-count rule shared by every entry point that takes workers.

    The count is accepted and never changes the output: every stage runs
    as vectorized numpy in one thread, which measured faster than the
    thread pools it replaced.
    """
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers!r}")


@lru_cache(maxsize=128)
def _cumulative_table(spec: StateSpec) -> np.ndarray:
    """Shared read-only inverse-CDF table for photon-number sampling."""
    pnd = make_distribution(spec)
    cum = np.cumsum(pnd.probs)
    cum.setflags(write=False)
    return cum


def sample_photon_number(spec: StateSpec, random_draw: float) -> int:
    """Inverse-CDF photon-number sample from a uniform draw in [0, 1).

    Draws at or beyond the truncated cumulative total map to the cutoff
    photon number. The draw takes the number rule of every real input
    (``checked_real``).
    """
    random_draw = checked_real(
        random_draw, "random_draw", 0.0, math.nextafter(1.0, 0.0), "must lie in [0, 1)"
    )
    cum = _cumulative_table(spec)
    idx = int(np.searchsorted(cum, random_draw, side="right"))
    return min(idx, cum.size - 1)


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence([_STREAM_DOMAIN, seed, chunk_index])
    )


def _count_occupied(
    trial_ids: np.ndarray, landed: np.ndarray, size: int, N: int
) -> np.ndarray:
    """Distinct detectors hit per trial, from (trial, detector) photon pairs.

    Each trial owns ceil(N/64) 64-bit words with one bit per detector: the
    photons set their bits and a popcount per trial counts the occupied
    detectors. That is N/8 bytes of scratch per trial, not N.
    """
    words = -(-N // 64)
    occupancy = np.zeros(size * words, dtype=np.uint64)
    np.bitwise_or.at(
        occupancy,
        trial_ids * words + (landed >> 6),
        np.left_shift(np.uint64(1), (landed & 63).astype(np.uint64)),
    )
    return np.bitwise_count(occupancy).reshape(size, words).sum(axis=1, dtype=np.int64)


def _simulate_chunk(
    cum: np.ndarray,
    config: DetectorConfig,
    seed: int,
    chunk_index: int,
    size: int,
) -> np.ndarray:
    rng = _chunk_rng(seed, chunk_index)
    N, eta, nu = config.N, config.eta, config.nu
    n_max = cum.size - 1

    draws = rng.random(size)
    photons = np.minimum(np.searchsorted(cum, draws, side="right"), n_max)
    survivors = rng.binomial(photons, eta)

    trial_ids = np.repeat(np.arange(size), survivors)
    landed = rng.integers(0, N, size=int(survivors.sum()))
    clicks = _count_occupied(trial_ids, landed, size, N)

    if nu > 0.0:
        clicks += rng.binomial(N - clicks, -math.expm1(-nu))
    return clicks


def simulate(
    spec: StateSpec,
    config: DetectorConfig,
    trials: int,
    seed: int,
    workers: int = 1,
) -> ClickSampleSet:
    """Simulate `trials` measurement windows of the detector array.

    Deterministic for fixed (spec, config, trials, seed). ``trials`` takes
    the number rule of every integer input (``checked_integer``). ``seed``
    must be a Python or numpy integer other than a bool, and is kept exact:
    seeds reach 2^64, beyond a float's 53 bits. ``workers`` is accepted; it
    never changes the output.
    """
    trials = checked_integer(
        trials, "trials", 1, MAX_TRIALS, f"must be an integer in [1, {MAX_TRIALS}]"
    )
    exact = isinstance(seed, (int, np.integer)) and not isinstance(seed, bool)
    if not (exact and 0 <= int(seed) < 2**64):
        raise ValidationError(f"seed: must be an integer in [0, 2**64), got {seed!r}")
    seed = int(seed)
    check_workers(workers)
    cum = _cumulative_table(spec)

    clicks = np.concatenate([
        _simulate_chunk(cum, config, seed, c, min(CHUNK_SIZE, trials - start))
        for c, start in enumerate(range(0, trials, CHUNK_SIZE))
    ])
    return ClickSampleSet(
        N=config.N,
        clicks=clicks,
        seed=seed,
        trials=trials,
        config_echo=config,
        state_echo=spec,
        stream=STREAM_VERSION,
    )
