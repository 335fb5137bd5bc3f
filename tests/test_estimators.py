"""Tests for empirical frequencies, plug-in estimates and the bootstrap."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import clickstats
from clickstats import (
    ClickSampleSet,
    DetectorConfig,
    StateSpec,
    bootstrap_ci,
    empirical_frequencies,
    mandel_q,
    mandel_q_estimate,
    qb_estimate,
    qb_parameter,
    simulate,
)
from clickstats import estimators
from clickstats.click_kernel import q_from_moments
from clickstats.estimators import (
    _BOOT_DOMAIN,
    BOOTSTRAP_BLOCK,
    STATISTICS,
    _replicate_moments,
    _sample_moments,
)
from clickstats.errors import (
    AllResamplesDegenerate,
    DegenerateMean,
    InsufficientData,
    InvalidSample,
    ValidationError,
)


def sample_set(clicks, N=2, seed=0):
    return ClickSampleSet(N=N, clicks=np.asarray(clicks), seed=seed, trials=len(clicks))


def scores(rows, statistic, N):
    """Plug-in Q_B or Q_M of each row of value counts over 0, 1, ..."""
    return q_from_moments(*_sample_moments(rows, None), statistic, N)


class TestEmpiricalFrequencies:
    def test_all_zero(self):
        dist = empirical_frequencies(sample_set([0, 0, 0]))
        assert dist.probs.tolist() == [1.0, 0.0, 0.0]

    def test_counting(self):
        dist = empirical_frequencies(sample_set([0, 1, 1, 2]))
        assert dist.probs.tolist() == [0.25, 0.5, 0.25]

    def test_out_of_range_record(self):
        with pytest.raises((InvalidSample, ValueError)):
            empirical_frequencies(sample_set([3], N=2))

    def test_only_a_record(self):
        # A raw count sequence carries no N, so it has no distribution.
        with pytest.raises(ValidationError, match="^samples: must be a ClickSampleSet, got list$"):
            empirical_frequencies([0, 1, 1])

    def test_empty_record(self):
        with pytest.raises(InsufficientData, match="^at least one trial is required"):
            empirical_frequencies(sample_set([]))

    def test_more_detectors_than_a_click_law_holds(self):
        with pytest.raises(ValidationError, match="^N=1025 exceeds 1024"):
            empirical_frequencies(sample_set([0, 1025], N=1025))

    def test_sums_to_one(self):
        rng = np.random.default_rng(8)
        clicks = rng.integers(0, 9, size=1000)
        dist = empirical_frequencies(sample_set(clicks, N=8))
        assert abs(dist.probs.sum() - 1.0) <= 1e-12

    def test_huge_detector_count_rejected_under_a_3gb_address_space(self, tmp_path):
        # A dense bincount over 0..N would allocate 37 GiB here.
        sample_file = tmp_path / "s.csv"
        sample_file.write_text("# N=5000000000\nclicks\n0\n5000000000\n1\n")
        env = dict(os.environ)
        src = str(Path(clickstats.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", (
            "import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))\n"
            "from clickstats import empirical_frequencies\n"
            "from clickstats.records import read_samples\n"
            "from clickstats.errors import ValidationError\n"
            f"samples = read_samples({str(sample_file)!r})\n"
            "try:\n"
            "    empirical_frequencies(samples)\n"
            "except ValidationError as exc:\n"
            "    print('ValidationError', exc)\n"
        )], capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("ValidationError")


class TestQbEstimate:
    def test_hand_value(self):
        report = qb_estimate(sample_set([0, 1, 1, 2]))
        assert report.point_estimate == pytest.approx(1 / 3, abs=1e-15)
        assert report.statistic_name == "q_b"
        assert report.sample_size == 4
        assert report.ci_low is None and report.ci_high is None

    def test_zero_variance_hits_floor(self):
        report = qb_estimate(sample_set([1, 1, 1, 1]))
        assert report.point_estimate == -1.0

    def test_degenerate_mean(self):
        with pytest.raises(DegenerateMean):
            qb_estimate(sample_set([0, 0, 0, 0]))
        with pytest.raises(DegenerateMean):
            qb_estimate(sample_set([2, 2, 2, 2]))

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            qb_estimate(sample_set([1]))

    def test_plugin_consistency_on_large_sample(self):
        out = simulate(
            StateSpec.coherent(4.0), DetectorConfig(N=8, eta=0.5),
            trials=10**6, seed=99,
        )
        report = qb_estimate(out)
        assert abs(report.point_estimate) <= 0.02


class TestMandelEstimate:
    def test_zero_variance(self):
        report = mandel_q_estimate([2, 2, 2])
        assert report.point_estimate == -1.0

    def test_hand_value(self):
        report = mandel_q_estimate([0, 1, 1, 2])
        assert report.point_estimate == pytest.approx(-1 / 3, abs=1e-15)

    def test_degenerate(self):
        with pytest.raises(DegenerateMean):
            mandel_q_estimate([0, 0, 0])

    def test_insufficient(self):
        with pytest.raises(InsufficientData):
            mandel_q_estimate([5])

    @pytest.mark.parametrize("clicks", [
        np.random.default_rng(31).integers(0, 9, size=500), [0, 1, 1, 2, 3, 0, 2],
    ])
    @pytest.mark.parametrize("estimate,kernel", [
        (qb_estimate, qb_parameter), (mandel_q_estimate, mandel_q),
    ])
    def test_estimate_is_the_kernel_on_frequencies_with_n_minus_1(
        self, clicks, estimate, kernel
    ):
        # The (n - 1) sample variance against the population variance of the
        # empirical frequencies: estimate + 1 = (kernel value + 1) n / (n - 1).
        samples = sample_set(clicks, N=8)
        n = samples.trials
        exact = kernel(empirical_frequencies(samples))
        got = estimate(samples).point_estimate
        assert got + 1 == pytest.approx((exact + 1) * n / (n - 1), rel=1e-12)


class TestBootstrap:
    def test_deterministic(self):
        samples = sample_set([0, 1, 1, 2, 0, 1, 2, 1, 0, 1, 1, 2], N=2)
        a = bootstrap_ci(samples, "q_b", replicates=200, level=0.9, seed=5)
        b = bootstrap_ci(samples, "q_b", replicates=200, level=0.9, seed=5)
        assert a == b

    def test_worker_count_does_not_change_interval(self):
        samples = sample_set([0, 1, 1, 2, 0, 1, 2, 1, 0, 1, 1, 2], N=2)
        a = bootstrap_ci(samples, "q_b", replicates=200, level=0.9, seed=5, workers=1)
        b = bootstrap_ci(samples, "q_b", replicates=200, level=0.9, seed=5, workers=4)
        assert a == b

    def test_worker_count_must_be_positive(self):
        samples = sample_set([0, 1, 1, 2, 0, 1, 2, 1, 0, 1, 1, 2], N=2)
        with pytest.raises(ValidationError, match="^workers: must be a positive integer"):
            bootstrap_ci(samples, "q_b", replicates=200, seed=5, workers=0)

    def test_block_statistic_matches_expanded_samples(self):
        rng = np.random.default_rng(4)
        counts = rng.multinomial(50, [0.1, 0.0, 0.3, 0.4, 0.2], size=20)
        counts[3] = [50, 0, 0, 0, 0]  # degenerate mean: NaN for both statistics
        q_b = scores(counts, "q_b", 4)
        q_m = scores(counts, "q_m", None)
        for row, b, m in zip(counts, q_b, q_m):
            x = np.repeat(np.arange(5), row)
            mean, var = x.mean(), x.var(ddof=1)
            if mean == 0.0:
                assert np.isnan(b) and np.isnan(m)
                continue
            assert b == pytest.approx(4 * var / (mean * (4 - mean)) - 1, rel=1e-12)
            assert m == pytest.approx(var / mean - 1, rel=1e-12)

    def test_blocks_against_one_replicate_at_a_time(self):
        # The documented stream: block b of BOOTSTRAP_BLOCK rows comes from
        # SeedSequence([domain, seed, b]); each row is scored on its own here.
        clicks = np.array([0, 1, 1, 2, 0, 1, 2, 1, 0, 1, 1, 2, 2, 0])
        replicates, n = 2 * BOOTSTRAP_BLOCK + 17, clicks.size
        values = []
        for block, start in enumerate(range(0, replicates, BOOTSTRAP_BLOCK)):
            rng = np.random.default_rng(np.random.SeedSequence([_BOOT_DOMAIN, 3, block]))
            rows = rng.multinomial(n, np.bincount(clicks) / n,
                                   size=min(BOOTSTRAP_BLOCK, replicates - start))
            for row in rows:
                x = np.repeat(np.arange(row.size), row)
                values.append(x.var(ddof=1) / x.mean() - 1)
        expected = np.quantile(values, [0.025, 0.975])
        got = bootstrap_ci(sample_set(clicks, N=2), "q_m", replicates=replicates, seed=3)
        assert got.discarded == 0
        assert (got.ci_low, got.ci_high) == pytest.approx(tuple(expected), rel=1e-12)

    def test_replicate_floor(self):
        samples = sample_set([0, 1, 1, 2, 0, 1, 2, 1, 0, 1], N=2)
        with pytest.raises(InsufficientData):
            bootstrap_ci(samples, "q_b", replicates=10, seed=1)

    def test_sample_floor(self):
        with pytest.raises(InsufficientData):
            bootstrap_ci(sample_set([0, 1, 1, 2]), "q_b", replicates=200, seed=1)

    def test_all_resamples_degenerate(self):
        with pytest.raises(AllResamplesDegenerate):
            bootstrap_ci(sample_set([0] * 12), "q_b", replicates=100, seed=1)

    def test_degenerate_resamples_are_counted(self):
        # one nonzero click among ten: many resamples miss it entirely
        samples = sample_set([0] * 9 + [1], N=2)
        interval = bootstrap_ci(samples, "q_m", replicates=500, seed=2)
        assert interval.discarded > 0
        assert interval.discarded < 500

    def test_level_range(self):
        samples = sample_set([0, 1, 1, 2, 0, 1, 2, 1, 0, 1], N=2)
        with pytest.raises(ValidationError):
            bootstrap_ci(samples, "q_b", replicates=200, level=1.0, seed=1)

    def test_interval_brackets_point_estimate(self):
        out = simulate(
            StateSpec.thermal(1.0), DetectorConfig(N=4, eta=0.7),
            trials=2000, seed=13,
        )
        report = qb_estimate(out, bootstrap_replicates=400, seed=21)
        assert report.ci_low <= report.point_estimate <= report.ci_high
        assert report.bootstrap_replicates == 400

    def test_seed_required_for_bootstrap(self):
        samples = sample_set([0, 1, 1, 2, 0, 1, 2, 1, 0, 1], N=2)
        with pytest.raises(ValidationError):
            qb_estimate(samples, bootstrap_replicates=200)

    def test_interval_covers_truth_for_coherent(self):
        out = simulate(
            StateSpec.coherent(4.0), DetectorConfig(N=8, eta=0.5),
            trials=10**4, seed=71,
        )
        report = qb_estimate(out, bootstrap_replicates=1000, seed=72)
        assert report.ci_low <= 0.0 <= report.ci_high


class TestSharedBootstrapDraw:
    """Q_B and Q_M of one record share one memoized draw of replicate moments."""

    @staticmethod
    def _record(seed=13):
        return simulate(StateSpec.thermal(1.5), DetectorConfig(N=8, eta=0.7),
                        trials=3000, seed=seed)

    def test_second_statistic_equals_a_fresh_draw(self):
        samples = self._record()
        _replicate_moments.cache_clear()
        bootstrap_ci(samples, "q_b", replicates=300, seed=4)
        shared = bootstrap_ci(samples, "q_m", replicates=300, seed=4)
        assert _replicate_moments.cache_info().hits == 1
        _replicate_moments.cache_clear()
        fresh = bootstrap_ci(samples, "q_m", replicates=300, seed=4)
        assert shared == fresh
        assert _replicate_moments.cache_info().hits == 0

    def test_new_seed_replicates_or_record_miss_the_memo(self):
        samples, other = self._record(), self._record(seed=14)
        _replicate_moments.cache_clear()
        first = bootstrap_ci(samples, "q_m", replicates=300, seed=4)
        for record, replicates, seed in ((samples, 300, 5), (samples, 301, 4), (other, 300, 4)):
            got = bootstrap_ci(record, "q_m", replicates=replicates, seed=seed)
            assert got != first
        info = _replicate_moments.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 4, 1)

    def test_memoized_arrays_are_read_only(self):
        samples = self._record()
        values, counts = np.unique(samples.clicks, return_counts=True)
        mean, variance = _replicate_moments(values.tobytes(), counts.tobytes(), 4, 300)
        assert mean.shape == variance.shape == (300,)
        for arr in (mean, variance):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    @pytest.mark.parametrize("sparse", [False, True])
    def test_intervals_match_per_statistic_draws(self, sparse):
        # The interval each statistic gets from the shared moments equals the
        # one from scoring its own multinomial draw over the dense histogram,
        # block by block: bit for bit, also where values below and between
        # the observed ones never occur.
        samples = self._record()
        if sparse:
            clicks = np.random.default_rng(2).choice([5, 9, 30, 31, 40, 57], size=3000)
            samples = sample_set(clicks, N=64)
        n = samples.trials
        freqs = np.bincount(samples.clicks) / n
        for statistic, N in (("q_b", samples.N), ("q_m", None)):
            values = []
            for block, start in enumerate(range(0, 600, BOOTSTRAP_BLOCK)):
                rng = np.random.default_rng(np.random.SeedSequence([_BOOT_DOMAIN, 9, block]))
                rows = rng.multinomial(n, freqs, size=min(BOOTSTRAP_BLOCK, 600 - start))
                values.extend(scores(rows, statistic, N))
            expected = tuple(np.quantile(values, [0.025, 0.975]))
            got = bootstrap_ci(samples, statistic, replicates=600, seed=9)
            assert (got.ci_low, got.ci_high) == expected


class TestDistinctValueHistogram:
    """Memory follows the record, not the size of its largest click value."""

    def test_huge_click_values(self):
        big = 5_000_000_000
        clicks = [0, big, 1, big, 2, 0, big, 3, 1, big, 0, 2]
        samples = ClickSampleSet(N=big, clicks=np.array(clicks), seed=0, trials=len(clicks))
        x = np.array(clicks, dtype=np.float64)
        mean, var = x.mean(), x.var(ddof=1)
        qb = qb_estimate(samples, bootstrap_replicates=200, seed=3)
        qm = mandel_q_estimate(samples, bootstrap_replicates=200, seed=3)
        assert qb.point_estimate == pytest.approx(big * var / (mean * (big - mean)) - 1, rel=1e-12)
        assert qm.point_estimate == pytest.approx(var / mean - 1, rel=1e-12)
        for report in (qb, qm):
            assert np.isfinite([report.ci_low, report.ci_high]).all()
            assert report.ci_low <= report.point_estimate <= report.ci_high

    def test_distinct_values_draw_what_the_dense_histogram_draws(self):
        # Values above MAX_DETECTORS, with gaps, are counted by distinct
        # value; a multinomial draws nothing for an empty category, so the
        # resamples equal those over the dense 0..max histogram.
        rng = np.random.default_rng(8)
        clicks = rng.choice([1030, 1031, 1500, 1502, 1990], size=400)
        samples = ClickSampleSet(N=2000, clicks=clicks, seed=0, trials=clicks.size)
        n, freqs = clicks.size, np.bincount(clicks) / clicks.size
        values = []
        for block, start in enumerate(range(0, 300, BOOTSTRAP_BLOCK)):
            draw = np.random.default_rng(np.random.SeedSequence([_BOOT_DOMAIN, 6, block]))
            rows = draw.multinomial(n, freqs, size=min(BOOTSTRAP_BLOCK, 300 - start))
            values.extend(scores(rows, "q_b", 2000))
        expected = np.quantile(values, [0.025, 0.975])
        got = bootstrap_ci(samples, "q_b", replicates=300, seed=6)
        assert (got.ci_low, got.ci_high) == pytest.approx(tuple(expected), rel=1e-12)


class TestErrorPrecedence:
    """Each faulty call names one error, whichever estimate is asked for."""

    RECORD = [0, 1, 1, 2, 0, 1, 2, 1, 0, 1, 1, 2]
    BOOT = dict(bootstrap_replicates=200, seed=5)

    @pytest.mark.parametrize("estimate", [qb_estimate, mandel_q_estimate])
    @pytest.mark.parametrize("clicks,kwargs,error,start", [
        (RECORD, dict(workers=0), ValidationError, "workers: must be a positive integer"),
        (RECORD, dict(BOOT, workers=0), ValidationError, "workers: must be a positive integer"),
        ([1], {}, InsufficientData, "need at least 2 "),
        ([0] * 12, {}, DegenerateMean, "sample mean "),
        (RECORD, dict(BOOT, bootstrap_replicates=50), InsufficientData,
         "bootstrap needs at least 100 replicates, got 50"),
        (RECORD, dict(BOOT, level=7), ValidationError, "confidence level: must lie in (0, 1)"),
        (RECORD, dict(bootstrap_replicates=200), ValidationError, "seed: must be an integer"),
    ], ids=["workers", "workers-bootstrap", "one-trial", "degenerate", "replicates",
            "level", "no-seed"])
    def test_error_and_message(self, estimate, clicks, kwargs, error, start):
        with pytest.raises(error) as info:
            estimate(sample_set(clicks), **kwargs)
        assert type(info.value) is error
        assert str(info.value).startswith(start)

    def test_qb_needs_a_record_carrying_n(self):
        with pytest.raises(ValueError, match="^Q_B estimation needs a ClickSampleSet"):
            qb_estimate(self.RECORD)

    def test_negative_raw_counts(self):
        with pytest.raises(InvalidSample, match="^counts must be nonnegative integers"):
            mandel_q_estimate([1, -1, 2])

    def test_bootstrap_of_an_unknown_statistic(self):
        with pytest.raises(ValueError, match=r"^statistic must be one of \('q_b', 'q_m'\), got 'q_x'$"):
            bootstrap_ci(sample_set(self.RECORD), "q_x", replicates=100, seed=1)


class TestBootstrapMemory:
    """A block's draw is split so that rows x distinct values stays bounded."""

    @staticmethod
    def _record(distinct):
        clicks = np.random.default_rng(1).permutation(np.repeat(np.arange(distinct), 2))
        return ClickSampleSet(N=distinct, clicks=clicks, seed=0, trials=clicks.size)

    def test_peak_memory_at_50000_distinct_values(self, monkeypatch):
        samples = self._record(50_000)
        _replicate_moments.cache_clear()
        tracemalloc.start()
        try:
            bounded = bootstrap_ci(samples, "q_m", replicates=100, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 << 20
        # One draw of the whole block gives the same interval, bit for bit.
        monkeypatch.setattr(estimators, "BOOTSTRAP_CELLS", 1 << 40)
        _replicate_moments.cache_clear()
        assert bootstrap_ci(samples, "q_m", replicates=100, seed=3) == bounded
        _replicate_moments.cache_clear()

    def test_uneven_sub_blocks_draw_the_full_blocks(self, monkeypatch):
        # Seven rows per draw: every block of 256 ends in a short sub-block.
        samples = self._record(3000)
        _replicate_moments.cache_clear()
        full = [bootstrap_ci(samples, s, replicates=600, seed=8) for s in STATISTICS]
        monkeypatch.setattr(estimators, "BOOTSTRAP_CELLS", 7 * 3000)
        _replicate_moments.cache_clear()
        assert [bootstrap_ci(samples, s, replicates=600, seed=8) for s in STATISTICS] == full
        _replicate_moments.cache_clear()


class TestArgumentRules:
    """Every estimator argument takes the number rule once per call."""

    RECORD = [0, 1, 1, 2, 0, 1, 2, 1, 0, 1, 1, 2]

    @pytest.mark.parametrize("counts", [
        [0.5, 1.5, 2.5, 3.9], ["1", "2", "3"], [True, False, True], [1, None, 2],
        [[1, 2], [3, 4]], [1.0, math.nan], [1.0, math.inf], [1e19, 1.0], [2**70, 1],
    ], ids=["fractions", "text", "bools", "object", "2-d", "nan", "inf", "beyond-int64",
            "big-int"])
    def test_count_rule_rejects(self, counts):
        calls = (lambda: mandel_q_estimate(counts),
                 lambda: bootstrap_ci(counts, "q_m", replicates=100, seed=1))
        for call in calls:
            with pytest.raises(ValidationError, match=r"^counts: must be a 1-d array of integers"):
                call()

    def test_whole_floats_and_small_integers_are_counts(self):
        expected = mandel_q_estimate(self.RECORD, bootstrap_replicates=100, seed=4)
        for counts in (np.array(self.RECORD, dtype=np.float64), np.array(self.RECORD, np.uint8)):
            assert mandel_q_estimate(counts, bootstrap_replicates=100, seed=4) == expected

    @pytest.mark.parametrize("estimate", [qb_estimate, mandel_q_estimate])
    @pytest.mark.parametrize("replicates", [-7, 10**6 + 1, 10**12, 200.5, True, "200", math.nan])
    def test_replicate_rule(self, estimate, replicates):
        with pytest.raises(ValidationError,
                           match=r"^bootstrap replicates: must be an integer in \[0, 1000000\]"):
            estimate(sample_set(self.RECORD), bootstrap_replicates=replicates, seed=1)

    def test_whole_float_replicates_count(self):
        a = qb_estimate(sample_set(self.RECORD), bootstrap_replicates=200.0, seed=1)
        assert a == qb_estimate(sample_set(self.RECORD), bootstrap_replicates=200, seed=1)
        assert type(a.bootstrap_replicates) is int

    @pytest.mark.parametrize("level", [0.0, 1.0, -0.5, 7, math.nan, True, "0.9", None])
    def test_level_rule(self, level):
        for call in (lambda: qb_estimate(sample_set(self.RECORD), level=level),
                     lambda: bootstrap_ci(sample_set(self.RECORD), "q_b", 200, level, seed=1)):
            with pytest.raises(ValidationError, match=r"^confidence level: must lie in \(0, 1\)"):
                call()

    @pytest.mark.parametrize("level", [math.nextafter(0.0, 1.0), math.nextafter(1.0, 0.0)])
    def test_level_bounds_are_the_nearest_floats_inside(self, level):
        report = qb_estimate(sample_set(self.RECORD), bootstrap_replicates=200, level=level,
                             seed=1)
        assert report.confidence_level == level

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, "5", True, None])
    def test_seed_rule(self, seed):
        calls = (lambda: qb_estimate(sample_set(self.RECORD), bootstrap_replicates=200, seed=seed),
                 lambda: bootstrap_ci(sample_set(self.RECORD), "q_b", seed=seed))
        for call in calls:
            with pytest.raises(ValidationError, match=r"^seed: must be an integer in \[0, 2\*\*64\)"):
                call()

    def test_numpy_seeds_are_exact(self):
        big = np.uint64(2**64 - 1)
        record = sample_set(self.RECORD)
        assert bootstrap_ci(record, "q_b", seed=big) == bootstrap_ci(record, "q_b", seed=2**64 - 1)

    def test_seed_is_not_read_without_replicates(self):
        assert qb_estimate(sample_set(self.RECORD), seed=-1) == qb_estimate(sample_set(self.RECORD))

    @pytest.mark.parametrize("workers", [0, -1, 1.5, True, "2", None])
    def test_worker_rule(self, workers):
        for call in (lambda: qb_estimate(sample_set(self.RECORD), workers=workers),
                     lambda: bootstrap_ci(sample_set(self.RECORD), "q_b", seed=1, workers=workers)):
            with pytest.raises(ValidationError, match="^workers: must be a positive integer"):
                call()


class TestOneHistogramPerEstimate:
    """An estimate reads its record and counts its histogram once, interval included."""

    @pytest.mark.parametrize("kwargs", [{}, dict(bootstrap_replicates=200, seed=3)])
    @pytest.mark.parametrize("estimate,record", [
        (qb_estimate, sample_set([0, 1, 1, 2, 0, 1, 2, 1, 0, 1, 1, 2])),
        (mandel_q_estimate, sample_set([0, 1, 1, 2, 0, 1, 2, 1, 0, 1, 1, 2])),
        (mandel_q_estimate, [0, 1, 1, 2, 0, 1, 2, 1, 0, 1, 1, 2]),
    ])
    def test_once_per_call(self, monkeypatch, estimate, record, kwargs):
        calls = []
        for name in ("_clicks_array", "_histogram"):
            original = getattr(estimators, name)

            def counted(*args, _name=name, _original=original):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(estimators, name, counted)
        report = estimate(record, **kwargs)
        assert sorted(calls) == ["_clicks_array", "_histogram"]
        assert (report.ci_low is None) == (not kwargs)


class TestReplicateCap:
    def test_peak_memory_at_the_cap(self):
        # About 41 B per replicate: the moments, the scores, the kept copy
        # and the quantile's partition.
        samples = sample_set([0, 1, 1, 2, 0, 1, 2, 1, 0, 1, 1, 2])
        _replicate_moments.cache_clear()
        tracemalloc.start()
        try:
            qb_estimate(samples, bootstrap_replicates=estimators.MAX_BOOTSTRAP_REPLICATES, seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            _replicate_moments.cache_clear()
        assert peak < 48 * estimators.MAX_BOOTSTRAP_REPLICATES
