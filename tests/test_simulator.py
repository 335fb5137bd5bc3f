"""Tests for the Monte Carlo detector-array simulation."""

import numpy as np
import pytest

from clickstats import (
    ClickSampleSet,
    DetectorConfig,
    StateSpec,
    click_distribution,
    click_moments,
    empirical_frequencies,
    sample_photon_number,
    simulate,
)

COHERENT4 = StateSpec.coherent(4.0)
CFG_8_HALF = DetectorConfig(N=8, eta=0.5)


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

    def test_seed_changes_output(self):
        a = simulate(COHERENT4, CFG_8_HALF, trials=5000, seed=1)
        b = simulate(COHERENT4, CFG_8_HALF, trials=5000, seed=2)
        assert not np.array_equal(a.clicks, b.clicks)

    def test_prefix_stability_across_chunk_boundary(self):
        # chunked streams make the first chunk independent of total trials
        a = simulate(COHERENT4, CFG_8_HALF, trials=4096, seed=9)
        b = simulate(COHERENT4, CFG_8_HALF, trials=5000, seed=9)
        np.testing.assert_array_equal(a.clicks, b.clicks[:4096])


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

    def test_dark_counts_only(self):
        nu = 0.5
        out = simulate(StateSpec.fock(0), DetectorConfig(N=6, eta=1.0, nu=nu),
                       trials=10**5, seed=3)
        p = -np.expm1(-nu)
        se = np.sqrt(6 * p * (1 - p) / out.trials)
        assert abs(out.clicks.mean() - 6 * p) <= 5 * se

    def test_input_validation(self):
        with pytest.raises(ValueError):
            simulate(COHERENT4, CFG_8_HALF, trials=0, seed=1)
        with pytest.raises(ValueError):
            simulate(COHERENT4, CFG_8_HALF, trials=10**8 + 1, seed=1)
        with pytest.raises(ValueError):
            simulate(COHERENT4, CFG_8_HALF, trials=10, seed=-1)
        with pytest.raises(ValueError):
            simulate(COHERENT4, CFG_8_HALF, trials=10, seed=1, workers=0)

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

        cum = _cumulative_table(StateSpec.coherent(1.0), 1e-12)
        assert sample_photon_number(StateSpec.coherent(1.0), 1.0 - 1e-16) == cum.size - 1

    def test_coherent_sample_mean(self):
        rng = np.random.default_rng(2026)
        draws = rng.random(10**5)
        values = np.fromiter(
            (sample_photon_number(StateSpec.coherent(1.0), float(u)) for u in draws),
            dtype=np.int64,
        )
        assert abs(values.mean() - 1.0) <= 5 * np.sqrt(1.0 / 10**5)

    def test_rejects_out_of_range_draw(self):
        with pytest.raises(ValueError):
            sample_photon_number(StateSpec.fock(1), 1.0)
        with pytest.raises(ValueError):
            sample_photon_number(StateSpec.fock(1), -0.01)
