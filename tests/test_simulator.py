"""Tests for the Monte Carlo detector-array simulation."""

import hashlib
import math

import numpy as np
import pytest

from clickstats import (
    ClickSampleSet,
    DetectorConfig,
    StateSpec,
    bootstrap_ci,
    click_distribution,
    click_moments,
    empirical_frequencies,
    records,
    sample_photon_number,
    simulate,
)
from clickstats.errors import ValidationError
from clickstats.simulator import STREAM_VERSION, _count_occupied

import oracles

COHERENT4 = StateSpec.coherent(4.0)
CFG_8_HALF = DetectorConfig(N=8, eta=0.5)

# Per random-stream version: the sha256 of a short dark-count record file and
# a fixed-seed Q_B bootstrap interval on it. A change that moves either
# stream must raise STREAM_VERSION and add its entry here.
GOLDEN = {
    2: (
        "71991698e881117516fd2117d7ac4d0b76ab0c2c8ab0aa2a6fec107072854473",
        (0.35507130749698873, 0.48343165600964716),
    ),
}
# Clicks without dark counts have been the same in every stream version.
GOLDEN_NO_DARK = "ee0bdfd92749a15f4b9042ff13d7c7b9a0d7a81cc20f3f8e6123a4f7ceeb51d7"


class TestDeterminism:
    def test_identical_inputs_identical_output(self):
        a = simulate(COHERENT4, CFG_8_HALF, trials=20000, seed=123)
        b = simulate(COHERENT4, CFG_8_HALF, trials=20000, seed=123)
        np.testing.assert_array_equal(a.clicks, b.clicks)

    def test_worker_count_does_not_change_output(self):
        a = simulate(COHERENT4, CFG_8_HALF, trials=20000, seed=123, workers=1)
        for workers in (2, 3, 7):
            b = simulate(COHERENT4, CFG_8_HALF, trials=20000, seed=123, workers=workers)
            np.testing.assert_array_equal(a.clicks, b.clicks)

    def test_worker_count_does_not_change_dark_count_output(self):
        config = DetectorConfig(N=64, eta=0.5, nu=0.1)
        a = simulate(COHERENT4, config, trials=20000, seed=123, workers=1)
        for workers in (2, 3, 7):
            b = simulate(COHERENT4, config, trials=20000, seed=123, workers=workers)
            np.testing.assert_array_equal(a.clicks, b.clicks)

    def test_seed_changes_output(self):
        a = simulate(COHERENT4, CFG_8_HALF, trials=5000, seed=1)
        b = simulate(COHERENT4, CFG_8_HALF, trials=5000, seed=2)
        assert not np.array_equal(a.clicks, b.clicks)

    def test_prefix_stability_across_chunk_boundary(self):
        # chunked streams make the first chunk independent of total trials
        a = simulate(COHERENT4, CFG_8_HALF, trials=4096, seed=9)
        b = simulate(COHERENT4, CFG_8_HALF, trials=5000, seed=9)
        np.testing.assert_array_equal(a.clicks, b.clicks[:4096])


class TestStreamVersion:
    def test_golden_record_and_interval(self):
        record_sha, interval = GOLDEN[STREAM_VERSION]
        samples = simulate(StateSpec.thermal(1.5), DetectorConfig(N=16, eta=0.6, nu=0.05),
                           trials=5000, seed=2026)
        text = records.samples_to_text(samples)
        assert f"\n# stream={STREAM_VERSION}\n" in text
        assert hashlib.sha256(text.encode()).hexdigest() == record_sha
        got = bootstrap_ci(samples, "q_b", replicates=300, seed=11)
        assert (got.ci_low, got.ci_high) == pytest.approx(interval, rel=1e-12, abs=0)

    def test_clicks_without_dark_counts_never_moved(self):
        samples = simulate(StateSpec.fock(3), DetectorConfig(N=16, eta=0.6),
                           trials=5000, seed=2026)
        text = ",".join(map(str, samples.clicks.tolist()))
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_NO_DARK


class TestOccupancyCount:
    """The word-packed count of occupied detectors against a boolean scatter."""

    @pytest.mark.parametrize("N", [1, 8, 63, 64, 65, 128, 1024])
    def test_matches_boolean_scatter(self, N):
        rng = np.random.default_rng(N)
        size = 300
        # About a third of the trials get no photon at all; some get many
        # more photons than detectors.
        survivors = rng.choice([0, 1, 2, 5, 3 * N], size=size, p=[0.35, 0.2, 0.2, 0.2, 0.05])
        survivors[-1] = 0
        trial_ids = np.repeat(np.arange(size), survivors)
        landed = rng.integers(0, N, size=trial_ids.size)
        got = _count_occupied(trial_ids, landed, size, N)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(
            got, oracles.occupied_by_scatter(trial_ids, landed, size, N)
        )
        assert not got[survivors == 0].any()

    def test_every_detector_of_every_word(self):
        # One trial per detector of a 130-detector array hit on that detector
        # alone, then one trial with all of them hit.
        N = 130
        trial_ids = np.concatenate([np.arange(N), np.full(N, N)])
        landed = np.concatenate([np.arange(N), np.arange(N)])
        got = _count_occupied(trial_ids, landed, N + 1, N)
        np.testing.assert_array_equal(got, [1] * N + [N])


class TestPhysicalModel:
    def test_single_photon_perfect_detection(self):
        for N in (1, 4, 16):
            out = simulate(StateSpec.fock(1), DetectorConfig(N=N, eta=1.0), 4000, seed=5)
            assert np.all(out.clicks == 1)

    def test_range(self):
        out = simulate(StateSpec.thermal(3.0), DetectorConfig(N=4, eta=0.9, nu=0.3),
                       trials=30000, seed=17)
        assert out.clicks.min() >= 0
        assert out.clicks.max() <= 4

    def test_provenance_echo(self):
        out = simulate(COHERENT4, CFG_8_HALF, trials=100, seed=77, workers=2)
        assert out.N == 8
        assert out.seed == 77
        assert out.trials == 100
        assert out.state_echo == COHERENT4
        assert out.config_echo == CFG_8_HALF

    def test_mean_matches_exact_kernel(self):
        trials = 10**5
        out = simulate(COHERENT4, CFG_8_HALF, trials=trials, seed=42)
        mean, var = click_moments(click_distribution(COHERENT4, CFG_8_HALF))
        se = np.sqrt(var / trials)
        assert abs(out.clicks.mean() - mean) <= 5 * se

    @pytest.mark.parametrize(
        "spec,cfg",
        [
            (COHERENT4, CFG_8_HALF),
            (StateSpec.thermal(1.0), DetectorConfig(N=4, eta=0.8)),
            (StateSpec.fock(3), DetectorConfig(N=8, eta=0.6, nu=0.02)),
        ],
    )
    def test_law_agreement(self, spec, cfg):
        trials = 10**5
        out = simulate(spec, cfg, trials=trials, seed=11)
        exact = click_distribution(spec, cfg)
        emp = empirical_frequencies(out)
        se = np.sqrt(exact.probs * (1.0 - exact.probs) / trials)
        assert np.all(np.abs(emp.probs - exact.probs) <= 5 * np.maximum(se, 1e-300))

    def test_moments_at_1024_detectors_with_dark_counts(self):
        spec, cfg, trials = StateSpec.thermal(6.0), DetectorConfig(N=1024, eta=0.7, nu=0.05), 40000
        out = simulate(spec, cfg, trials=trials, seed=29)
        exact = click_distribution(spec, cfg, "occupancy_dp")
        mean, var = click_moments(exact)
        fourth = float(((np.arange(cfg.N + 1) - mean) ** 4) @ exact.probs)
        assert abs(out.clicks.mean() - mean) <= 5 * np.sqrt(var / trials)
        assert abs(out.clicks.var(ddof=1) - var) <= 5 * np.sqrt((fourth - var**2) / trials)

    def test_dark_counts_only(self):
        nu = 0.5
        out = simulate(StateSpec.fock(0), DetectorConfig(N=6, eta=1.0, nu=nu),
                       trials=10**5, seed=3)
        p = -np.expm1(-nu)
        se = np.sqrt(6 * p * (1 - p) / out.trials)
        assert abs(out.clicks.mean() - 6 * p) <= 5 * se

    @pytest.mark.parametrize("trials,seed,path", [
        (0, 1, "trials"), (10**8 + 1, 1, "trials"), (True, 1, "trials"), (2.5, 1, "trials"),
        ("10", 1, "trials"), (10, -1, "seed"), (10, 2**64, "seed"), (10, True, "seed"),
        (10, 1.5, "seed"), (10, 1.0, "seed"), (10, "1", "seed"), (10, np.int64(-1), "seed"),
    ])
    def test_input_validation(self, trials, seed, path):
        with pytest.raises(ValidationError, match=rf"^{path}: must be an integer in "):
            simulate(COHERENT4, CFG_8_HALF, trials=trials, seed=seed)

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            simulate(COHERENT4, CFG_8_HALF, trials=10, seed=1, workers=0)

    @pytest.mark.parametrize("seed", [np.uint64(2**64 - 1), np.int64(7), np.uint8(3)])
    def test_numpy_integer_seeds_round_trip(self, seed):
        # The seed stays an exact int: a float would round 2**64 - 1 up to 2**64.
        text = records.samples_to_text(simulate(COHERENT4, CFG_8_HALF, trials=300, seed=seed))
        plain = simulate(COHERENT4, CFG_8_HALF, trials=300, seed=int(seed))
        assert text == records.samples_to_text(plain)
        again = records.samples_from_text(text)
        assert again.seed == int(seed) and type(again.seed) is int
        assert records.samples_to_text(again) == text

    def test_sample_set_needs_a_detector(self):
        with pytest.raises(ValueError, match="N must be a positive"):
            ClickSampleSet(N=0, clicks=np.zeros(3, dtype=np.int64), seed=0, trials=3)


class TestSamplePhotonNumber:
    def test_fock_point_mass(self):
        for u in (0.0, 0.3, 0.999999):
            assert sample_photon_number(StateSpec.fock(7), u) == 7

    def test_degenerate_mixture_matches_component(self):
        mix = StateSpec.mixture([(1.0, StateSpec.fock(7)), (0.0, StateSpec.thermal(2.0))])
        for u in (0.0, 0.5, 0.99):
            assert sample_photon_number(mix, u) == sample_photon_number(
                StateSpec.fock(7), u
            )

    def test_draw_at_tail_maps_to_cutoff(self):
        from clickstats.simulator import _cumulative_table

        cum = _cumulative_table(StateSpec.coherent(1.0))
        assert sample_photon_number(StateSpec.coherent(1.0), 1.0 - 1e-16) == cum.size - 1

    def test_coherent_sample_mean(self):
        rng = np.random.default_rng(2026)
        draws = rng.random(10**5)
        values = np.fromiter(
            (sample_photon_number(StateSpec.coherent(1.0), float(u)) for u in draws),
            dtype=np.int64,
        )
        assert abs(values.mean() - 1.0) <= 5 * np.sqrt(1.0 / 10**5)

    @pytest.mark.parametrize("draw", [1.0, -0.01, "0.5", True, math.nan, None])
    def test_rejects_out_of_range_draw(self, draw):
        with pytest.raises(ValidationError, match=r"^random_draw: must lie in \[0, 1\), got "):
            sample_photon_number(StateSpec.fock(1), draw)
