"""Tests for the exact click-count kernel and the Q_B / Q_M parameters."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import oracles
from clickstats import (
    ClickDistribution,
    DetectorConfig,
    StateSpec,
    binomial_reference,
    click_distribution,
    click_moments,
    generating_function,
    make_distribution,
    mandel_q,
    nonclassicality_report,
    occupancy_distribution,
    qb_parameter,
)
from clickstats import click_kernel
from clickstats.click_kernel import _occupancy_step
from clickstats.errors import (
    DegenerateMean,
    NumericalInstability,
    TruncationOverflow,
    ValidationError,
)
from clickstats.states import MAX_NMAX

GRID_STATES = [
    StateSpec.coherent(0.5),
    StateSpec.coherent(4.0),
    StateSpec.thermal(1.0),
    StateSpec.thermal(5.0),
    StateSpec.fock(1),
    StateSpec.fock(5),
    StateSpec.squeezed_vacuum(0.8),
    StateSpec.mixture([(0.5, StateSpec.fock(2)), (0.5, StateSpec.thermal(0.5))]),
]


class TestDetectorConfig:
    def test_bounds(self):
        DetectorConfig(N=1, eta=0.0, nu=0.0)
        DetectorConfig(N=1024, eta=1.0, nu=10.0)
        for bad in (dict(N=0), dict(N=1025), dict(N=4, eta=1.2),
                    dict(N=4, eta=-0.1), dict(N=4, eta=0.5, nu=-1.0),
                    dict(N=4, eta=0.5, nu=11.0)):
            with pytest.raises(ValidationError):
                DetectorConfig(**{"eta": 1.0, "nu": 0.0, **bad})

    @pytest.mark.parametrize("bad,path", [
        (dict(eta=10**400), "config.eta"), (dict(nu=10**400), "config.nu"),
        (dict(N=10**400), "config.N"), (dict(N=math.inf), "config.N"),
        (dict(N=math.nan), "config.N"), (dict(N="8"), "config.N"),
        (dict(N=8.5), "config.N"), (dict(eta="0.5"), "config.eta"),
        (dict(eta=True), "config.eta"), (dict(nu=None), "config.nu"),
        (dict(N=b"8"), "config.N"), (dict(eta=b"1"), "config.eta"),
        (dict(nu=bytearray(b"0")), "config.nu"), (dict(eta=memoryview(b"1")), "config.eta"),
    ])
    def test_one_number_rule(self, bad, path):
        with pytest.raises(ValidationError, match=rf"^{path}: must "):
            DetectorConfig(**{"N": 8, "eta": 1.0, "nu": 0.0, **bad})

    def test_values_are_stored_normalized(self):
        config = DetectorConfig(N=8.0, eta=1, nu=np.float64(0.5))
        assert (type(config.N), type(config.eta), type(config.nu)) == (int, float, float)
        assert config == DetectorConfig(N=8, eta=1.0, nu=0.5)

    def test_binomial_reference_shares_the_n_rule(self):
        assert binomial_reference(4.0, 0.5).N == 4
        for N in (0, 1025, 2.5, math.inf, "4", True):
            with pytest.raises(ValidationError, match=r"^N: must be an integer in \[1, 1024\]"):
                binomial_reference(N, 0.5)

    @pytest.mark.parametrize("p", [True, "0.5", b"0.5", math.nan, -0.1, 1.5])
    def test_binomial_reference_takes_p_by_the_number_rule(self, p):
        with pytest.raises(ValidationError, match=r"^p: must lie in \[0, 1\]"):
            binomial_reference(4, p)


class TestOccupancy:
    def test_no_balls(self):
        assert occupancy_distribution(0, 5).tolist() == [1.0]

    def test_two_balls_two_bins(self):
        np.testing.assert_allclose(
            occupancy_distribution(2, 2), [0.0, 0.5, 0.5], atol=1e-15
        )

    def test_four_balls_four_bins(self):
        expected = np.array([0, 4, 84, 144, 24]) / 256.0
        np.testing.assert_allclose(occupancy_distribution(4, 4), expected, atol=1e-15)

    @pytest.mark.parametrize("m,N", [(1, 1), (2, 3), (3, 2), (4, 4), (5, 3), (6, 2)])
    def test_against_enumeration(self, m, N):
        exact = [float(f) for f in oracles.occupancy_by_enumeration(m, N)]
        np.testing.assert_allclose(occupancy_distribution(m, N), exact, atol=1e-14)

    @pytest.mark.parametrize(
        "m,N", [(7, 5), (10, 4), (12, 7), (20, 3), (7, 1024), (30, 1024), (40, 5000)]
    )
    def test_against_stirling_formula(self, m, N):
        exact = [float(f) for f in oracles.occupancy_by_stirling(m, N)]
        np.testing.assert_allclose(occupancy_distribution(m, N), exact, rtol=1e-12)

    def test_sums_to_one(self):
        for m, N in [(0, 4), (3, 9), (50, 16), (200, 8)]:
            assert occupancy_distribution(m, N).sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("N", [1, 2, 3, 7, 64, 100, 1000, 1024, 5000])
    def test_bit_identical_to_the_stay_factor_loop(self, N):
        # The chain at eta = 1 is the k/N loop this function once ran alone.
        for m in [*range(80), 200, 500, 1000, 4096]:
            got = occupancy_distribution(m, N)
            assert got.tobytes() == oracles.occupancy_by_kn_loop(m, N).tobytes(), m

    @pytest.mark.parametrize("m,N,path", [
        (-1, 4, "m"), (MAX_NMAX + 1, 4, "m"), (3, 0, "N"), (True, 8, "m"), (3, True, "N"),
        ("3", 8, "m"), (3, "8", "N"), (2.5, 8, "m"), (3, 8.5, "N"), (math.nan, 8, "m"),
    ])
    def test_rejects_bad_input(self, m, N, path):
        with pytest.raises(ValidationError, match=rf"^{path}: must be "):
            occupancy_distribution(m, N)

    def test_integral_values_and_any_bin_count(self):
        got = occupancy_distribution(3.0, np.int64(8))
        assert got.tobytes() == occupancy_distribution(3, 8).tobytes()
        assert occupancy_distribution(MAX_NMAX, 2000).sum() == pytest.approx(1.0, abs=1e-12)


class TestClickDistributionHandCases:
    def test_thermal_two_detectors(self):
        dist = click_distribution(StateSpec.thermal(1.0), DetectorConfig(N=2, eta=1.0))
        np.testing.assert_allclose(dist.probs, [0.5, 1 / 3, 1 / 6], atol=1e-12)

    def test_fock2_two_detectors(self):
        dist = click_distribution(StateSpec.fock(2), DetectorConfig(N=2, eta=1.0))
        np.testing.assert_allclose(dist.probs, [0.0, 0.5, 0.5], atol=1e-12)

    def test_vacuum_never_clicks(self):
        for N in (1, 4, 16):
            dist = click_distribution(StateSpec.fock(0), DetectorConfig(N=N, eta=0.7))
            assert dist.probs[0] == pytest.approx(1.0, abs=1e-15)

    def test_coherent_collapses_to_binomial(self):
        dist = click_distribution(
            StateSpec.coherent(4.0), DetectorConfig(N=8, eta=0.5)
        )
        p = -math.expm1(-0.25)
        ref = binomial_reference(8, p)
        assert np.abs(dist.probs - ref.probs).max() <= 1e-12

    def test_vacuum_with_dark_counts_is_binomial(self):
        nu = 0.3
        dist = click_distribution(
            StateSpec.fock(0), DetectorConfig(N=6, eta=0.9, nu=nu)
        )
        ref = binomial_reference(6, -math.expm1(-nu))
        assert np.abs(dist.probs - ref.probs).max() <= 1e-12

    @pytest.mark.parametrize("method", ["generating_function", "occupancy_dp"])
    @pytest.mark.parametrize("nu", [0.0, 0.2])
    def test_small_cases_against_enumeration(self, method, nu):
        for n, N, eta in [(1, 2, 0.7), (2, 2, 0.5), (3, 3, 0.8), (2, 3, 1.0)]:
            dist = click_distribution(
                StateSpec.fock(n), DetectorConfig(N=N, eta=eta, nu=nu), method
            )
            exact = oracles.fock_clicks_by_enumeration(n, N, eta, nu)
            np.testing.assert_allclose(dist.probs, exact, atol=1e-13)

    def test_explicit_state_against_enumeration(self):
        spec = StateSpec.explicit([0.2, 0.5, 0.3])
        cfg = DetectorConfig(N=3, eta=0.6, nu=0.1)
        exact = oracles.clicks_from_photon_probs([0.2, 0.5, 0.3], 3, 0.6, 0.1)
        for method in ("generating_function", "occupancy_dp"):
            dist = click_distribution(spec, cfg, method)
            np.testing.assert_allclose(dist.probs, exact, atol=1e-13)


class TestPathAgreement:
    @pytest.mark.parametrize("spec", GRID_STATES)
    @pytest.mark.parametrize("N", [1, 2, 4, 8, 16])
    @pytest.mark.parametrize("nu", [0.0, 0.01])
    def test_methods_agree(self, spec, N, nu):
        for eta in (0.1, 0.5, 1.0):
            cfg = DetectorConfig(N=N, eta=eta, nu=nu)
            a = click_distribution(spec, cfg, "generating_function")
            b = click_distribution(spec, cfg, "occupancy_dp")
            assert np.abs(a.probs - b.probs).max() <= 1e-9

    @pytest.mark.parametrize("spec", GRID_STATES)
    def test_normalization_and_support(self, spec):
        for N in (1, 4, 16, 64):
            for eta in (0.05, 0.5, 1.0):
                for nu in (0.0, 0.1):
                    dist = click_distribution(spec, DetectorConfig(N=N, eta=eta, nu=nu))
                    assert abs(dist.probs.sum() - 1.0) <= 1e-9
                    assert dist.probs.min() >= 0.0

    def test_fock_support_cap(self):
        # without dark counts at most min(n, N) detectors can click
        for n, N in [(2, 8), (5, 4), (3, 16)]:
            dist = click_distribution(StateSpec.fock(n), DetectorConfig(N=N, eta=0.8))
            cap = min(n, N)
            assert np.abs(dist.probs[cap + 1 :]).max(initial=0.0) <= 1e-12

    def test_monotone_in_efficiency(self):
        for spec in GRID_STATES:
            means = []
            for eta in np.linspace(0.05, 1.0, 12):
                dist = click_distribution(spec, DetectorConfig(N=8, eta=float(eta)))
                means.append(click_moments(dist)[0])
            assert all(b >= a - 1e-12 for a, b in zip(means, means[1:]))

    def test_moments_match_silent_pair_identities(self):
        for spec in GRID_STATES:
            for N in (2, 8, 32):
                for eta, nu in [(0.7, 0.0), (0.4, 0.15)]:
                    cfg = DetectorConfig(N=N, eta=eta, nu=nu)
                    dist = click_distribution(spec, cfg)
                    mean, var = click_moments(dist)
                    em, ev = oracles.click_moments_from_gf(
                        lambda x: generating_function(spec, x), N, eta, nu
                    )
                    assert mean == pytest.approx(em, abs=1e-9)
                    assert var == pytest.approx(ev, abs=1e-9)


class TestInstabilityHandling:
    def test_forced_path_a_is_exact_where_the_sum_exploded(self):
        # The alternating sum that once served this point lost every digit.
        N, eta, nu = 64, 0.05, 0.0
        spec = StateSpec.squeezed_vacuum(0.8)
        got = click_distribution(spec, DetectorConfig(N=N, eta=eta, nu=nu), "generating_function")
        _assert_entries(got.probs, _exact_law(spec, N, eta, nu), "generating_function")

    def test_auto_is_the_forced_path_a(self):
        cfg = DetectorConfig(N=64, eta=0.05)
        spec = StateSpec.squeezed_vacuum(0.8)
        auto = click_distribution(spec, cfg, "auto")
        gf = click_distribution(spec, cfg, "generating_function")
        dp = click_distribution(spec, cfg, "occupancy_dp")
        np.testing.assert_array_equal(auto.probs, gf.probs)
        assert np.abs(auto.probs - dp.probs).max() <= 1e-9

    def test_clamp_policy(self):
        # entries in [-1e-12, 0) clamp to zero, below that is an error
        d = ClickDistribution(2, np.array([0.5, 0.5 + 5e-13, -5e-13]))
        assert d.probs[2] == 0.0
        with pytest.raises(NumericalInstability):
            ClickDistribution(2, np.array([0.5, 0.5 + 5e-10, -5e-10]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entries_are_rejected(self, bad):
        # NaN fails every comparison, so it has a check of its own.
        message = "^click probability nan is not finite" if math.isnan(bad) else None
        with pytest.raises(NumericalInstability, match=message):
            ClickDistribution(2, [0.5, bad, 0.5])

    def test_thermal_solve_at_the_top_of_the_float_range(self):
        # m (N + 1) overflows here: the first step of the solve once formed
        # inf * 0 and gave a NaN law; c_0 = b_0 / (1 + m N) is formed alone.
        spec, config = StateSpec.thermal(1.7e308), DetectorConfig(N=4, eta=1.0)
        probs = click_distribution(spec, config).probs
        assert np.isfinite(probs).all() and probs[-1] == pytest.approx(1.0, abs=1e-15)
        assert probs[0] == pytest.approx(1.0 / 1.7e308, rel=1e-12)
        with pytest.raises(DegenerateMean):
            nonclassicality_report(spec, config)

    @pytest.mark.parametrize("N", [1, 3, 7, 64, 1024])
    def test_thermal_solve_at_the_largest_float(self, N):
        # At N = 3 and 7, m N = (mu / N) N rounds to inf, and the solve once
        # formed inf * 0 = NaN at k = 1; the law is then the limit of infinite
        # brightness, every detector clicking (the CLI's qb then ends in
        # DegenerateMean, see test_cli).
        spec, config = StateSpec.thermal(1.7976931348623157e308), DetectorConfig(N=N, eta=1.0)
        probs = click_distribution(spec, config).probs
        assert np.isfinite(probs).all() and probs[-1] == pytest.approx(1.0, abs=1e-15)
        if N in (3, 7):
            np.testing.assert_array_equal(probs, np.eye(1, N + 1, N)[0])

    def test_bad_method_name(self):
        with pytest.raises(ValueError):
            click_distribution(StateSpec.fock(1), DetectorConfig(N=2, eta=1.0), "exact")

    @pytest.mark.parametrize("probs", [[0.5, 0.5], [0.25] * 4, [[0.5, 0.5, 0.0]]])
    def test_length_must_be_n_plus_1(self, probs):
        with pytest.raises(ValueError, match=r"^click probabilities must have length N\+1=3"):
            ClickDistribution(2, probs)


# A 25-entry law with weight on every photon number, p_n ~ (n + 1) 0.8^n.
_RAMP = [(n + 1) * 0.8**n for n in range(25)]

EXACT_LEAF_STATES = [
    StateSpec.thermal(2.0),
    StateSpec.thermal(0.05),
    StateSpec.fock(1),
    StateSpec.fock(6),
    StateSpec.mixture([(0.5, StateSpec.fock(2)), (0.5, StateSpec.thermal(0.5))]),
    StateSpec.mixture([
        (0.3, StateSpec.thermal(4.0)),
        (0.3, StateSpec.fock(3)),
        (0.4, StateSpec.coherent(2.0)),
    ]),
    StateSpec.explicit([0.2, 0.5, 0.3]),
    StateSpec.explicit([p / math.fsum(_RAMP) for p in _RAMP]),
]
EXACT_LEAF_CONFIGS = [
    (1, 0.6, 0.05), (8, 1.0, 0.0), (20, 1.0, 0.0), (64, 0.05, 0.0),
    (64, 0.7, 0.05), (128, 0.3, 2.0), (128, 0.0, 0.0),
    (1024, 0.7, 0.05), (1024, 1.0, 0.0),
]
SQUEEZED_STATES = [
    StateSpec.squeezed_vacuum(0.05),
    StateSpec.squeezed_vacuum(0.8),
    StateSpec.squeezed_vacuum(1.5),
    StateSpec.mixture([
        (0.4, StateSpec.squeezed_vacuum(0.8)),
        (0.3, StateSpec.thermal(2.0)),
        (0.3, StateSpec.fock(3)),
    ]),
]
SQUEEZED_CONFIGS = [c for c in EXACT_LEAF_CONFIGS if c[0] <= 128] + [(256, 0.7, 0.05)]


def _exact_law(spec, N, eta, nu):
    """mpmath click law: inclusion-exclusion up to N = 256, leaf forms above.

    The terms reach 3^N, so the sum keeps about dps - N log10(3) digits
    after the decimal point, and an entry near 1e-300 needs some 312 of them
    for 12 significant digits: 420 digits give them up to N = 128, and
    400 + N log10(3) at N = 256 (with 50 + N log10(3), squeezed(0.8) at
    eta = 0.7, nu = 0.05 gets an entry near 1e-127 wrong by a factor 4e25).
    """
    if N <= 256:
        with mpmath.workdps(420 if N <= 128 else 400 + math.ceil(N * math.log10(3))):
            return oracles.clicks_by_inclusion_exclusion_mp(spec, N, eta, nu)
    with mpmath.workdps(40):
        return oracles.leaf_clicks_mp(spec, N, eta, nu)


def _assert_entries(got, exact, method):
    """Every entry above 1e-300 to 5e-12 relative; an entry whose exact value
    lies below the smallest subnormal is exactly 0."""
    for k, (g, e) in enumerate(zip(got.tolist(), exact)):
        if abs(e) < 1e-330:
            assert g == 0.0, (method, k, g, e)
        elif e > 1e-300:
            assert abs(g - e) <= 5e-12 * e, (method, k, g, e)
        else:
            assert abs(g - e) <= 1e-300, (method, k, g, e)


def _count_passes(monkeypatch) -> list:
    """The node count of every squeezed quadrature pass from here on."""
    passes, sums = [], click_kernel._resolvent_sums

    def counted(theta, *args):
        passes.append(theta.size)
        return sums(theta, *args)

    monkeypatch.setattr(click_kernel, "_resolvent_sums", counted)
    return passes


class TestExactLeafRoutes:
    """Every leaf kind evaluates c = G(T) b exactly: every entry above 1e-300
    to 12 digits, and entries whose exact value lies below the smallest
    subnormal come out as exactly 0."""

    @pytest.mark.parametrize("spec", EXACT_LEAF_STATES, ids=lambda s: s.kind)
    @pytest.mark.parametrize("N,eta,nu", EXACT_LEAF_CONFIGS)
    def test_every_entry_against_mpmath(self, spec, N, eta, nu):
        exact = _exact_law(spec, N, eta, nu)
        cfg = DetectorConfig(N=N, eta=eta, nu=nu)
        for method in ("auto", "generating_function"):
            _assert_entries(click_distribution(spec, cfg, method).probs, exact, method)

    @pytest.mark.parametrize("spec", SQUEEZED_STATES, ids=lambda s: f"{s.kind}-{s.r}")
    @pytest.mark.parametrize("N,eta,nu", SQUEEZED_CONFIGS)
    def test_squeezed_leaves_against_mpmath(self, spec, N, eta, nu):
        exact = _exact_law(spec, N, eta, nu)
        cfg = DetectorConfig(N=N, eta=eta, nu=nu)
        for method in ("auto", "generating_function"):
            _assert_entries(click_distribution(spec, cfg, method).probs, exact, method)

    @pytest.mark.parametrize("r", [5.0, 8.0])
    @pytest.mark.parametrize("N,eta,nu", [
        (8, 1.0, 0.0), (8, 0.7, 0.05), (20, 1.0, 0.0), (20, 0.7, 0.05),
    ])
    def test_strong_squeezing_against_mpmath(self, r, N, eta, nu):
        # Thousands of nodes here; the alternating sum erred by up to 1.7e-7.
        spec = StateSpec.squeezed_vacuum(r)
        got = click_distribution(spec, DetectorConfig(N=N, eta=eta, nu=nu)).probs
        _assert_entries(got, _exact_law(spec, N, eta, nu), "auto")

    @pytest.mark.parametrize("r", [0.8, 2.5])
    @pytest.mark.parametrize("N,eta,nu", [(653, 1.0, 0.0), (1024, 0.7, 0.05), (1024, 1.0, 0.0)])
    def test_squeezed_self_convergence_at_large_n(self, monkeypatch, r, N, eta, nu):
        # Beyond N = 256 the reference is the same rule at 4 times the node
        # count of every pass together (at least 4 times the final rule's),
        # in one pass.
        sums = click_kernel._resolvent_sums
        nodes = _count_passes(monkeypatch)
        cfg = DetectorConfig(N=N, eta=eta, nu=nu)
        got = click_distribution(StateSpec.squeezed_vacuum(r), cfg).probs
        n = 4 * sum(nodes)
        cosh_r, t = math.cosh(r), math.tanh(r)
        theta, b = np.pi / n * np.arange(n), click_kernel._dark_law(cfg)
        reference = sums(theta, [(0, n, 1)], cosh_r, t, b, N, eta)[:, 0]
        _assert_entries(got, (reference / (n * cosh_r)).tolist(), "auto")

    @pytest.mark.parametrize("eta,nu", [(1.0, 0.0), (0.7, 0.05)])
    @pytest.mark.parametrize("N,r", [
        *((N, r) for N in (1, 8, 20, 64, 256, 1024) for r in (0.05, 0.8, 1.2, 5.0)),
        *((N, 9.5) for N in (1, 8, 20, 64)),
    ])
    def test_squeezed_law_is_the_doubling_rule_bit_for_bit(self, N, r, eta, nu):
        # One first pass holds the 64-, 128- and 256-node rules; the rule it
        # picks and every entry are those of one pass per rule.
        cfg = DetectorConfig(N=N, eta=eta, nu=nu)
        got = click_distribution(StateSpec.squeezed_vacuum(r), cfg).probs
        expected = oracles.squeezed_law_by_doubling(r, click_kernel._dark_law(cfg), N, eta)
        assert np.array_equal(got, expected)

    def test_squeezed_law_takes_one_pass_where_256_nodes_suffice(self, monkeypatch):
        passes = _count_passes(monkeypatch)
        cfg = DetectorConfig(N=1024, eta=0.7, nu=0.05)
        click_distribution(StateSpec.squeezed_vacuum(0.8), cfg)
        assert passes == [256]

    @pytest.mark.parametrize("spec", GRID_STATES + EXACT_LEAF_STATES)
    @pytest.mark.parametrize("N", [1, 20, 256])
    def test_dark_free_occupancy_law_starts_from_e0(self, spec, N):
        # Without dark counts the start vector is e0, so the occupancy route
        # is the same chain, bit for bit, as one started from e0 by hand.
        pnd = make_distribution(spec)
        occ = np.zeros(N + 1)
        occ[0] = 1.0
        acc = pnd.probs[0] * occ
        for p in pnd.probs[1:]:
            occ = _occupancy_step(occ, N, 0.7)
            acc = acc + p * occ
        got = click_distribution(spec, DetectorConfig(N=N, eta=0.7), "occupancy_dp")
        np.testing.assert_array_equal(got.probs, acc)

    @pytest.mark.parametrize("spec", [
        StateSpec.fock(MAX_NMAX + 1), StateSpec.explicit([1.0 / (MAX_NMAX + 2)] * (MAX_NMAX + 2)),
    ], ids=lambda s: s.kind)
    @pytest.mark.parametrize("method", ["generating_function", "occupancy_dp", "auto"])
    def test_photon_laws_beyond_the_chain_cap_overflow_at_once(self, monkeypatch, spec, method):
        # No route runs a step of the chain, or any other sum, before it fails.
        def refuse(occ, N, eta):
            raise AssertionError("occupancy chain reached")

        monkeypatch.setattr(click_kernel, "_occupancy_step", refuse)
        with pytest.raises(TruncationOverflow, match="exceeds the cap"):
            click_distribution(spec, DetectorConfig(N=8, eta=0.001, nu=0.05), method)

    @pytest.mark.parametrize("N", [1, 64, 1024])
    @pytest.mark.parametrize("nu", [0.0, 0.05])
    def test_never_reach_the_occupancy_route(self, monkeypatch, N, nu):
        # auto has no fallback: it is Path A, for squeezed leaves too.
        def refuse(spec, config):
            raise AssertionError("occupancy route reached")

        for method, route in list(click_kernel._ROUTES.items()):
            if route is click_kernel._path_b:
                monkeypatch.setitem(click_kernel._ROUTES, method, refuse)
        cfg = DetectorConfig(N=N, eta=0.3, nu=nu)
        extra = [StateSpec.coherent(3.0), StateSpec.fock(0)]
        for spec in EXACT_LEAF_STATES + SQUEEZED_STATES + extra:
            for method in ("auto", "generating_function"):
                click_distribution(spec, cfg, method)


class TestChainAgainstExactRationals:
    """The occupancy chain of a Fock state, against the same chain run in
    exact rationals: the stay factor is a sum of nonnegative terms, so no
    step cancels, even at small k/N."""

    @pytest.mark.parametrize("n,N,eta", [(100, 300, 1.0), (40, 1000, 0.999), (200, 100, 1.0)])
    def test_every_entry_to_1e_14(self, n, N, eta):
        exact = oracles.chain_by_fractions([0] * n + [1], [1.0] + [0.0] * N, N, eta)
        got = click_distribution(StateSpec.fock(n), DetectorConfig(N=N, eta=eta)).probs
        for k, (g, e) in enumerate(zip(got.tolist(), exact)):
            if e > 1e-290:
                assert abs(float((g - e) / e)) <= 1e-14, (k, g, float(e))


ROUTE_STATES = [
    StateSpec.coherent(2.0),
    StateSpec.thermal(2.0),
    StateSpec.fock(3),
    StateSpec.squeezed_vacuum(0.8),
    StateSpec.mixture([(0.5, StateSpec.fock(2)), (0.5, StateSpec.squeezed_vacuum(0.3))]),
    StateSpec.explicit([0.2, 0.5, 0.3]),
]


class TestRoutes:
    """auto is the forced gf route, bit for bit, at every point, and the
    occupancy route agrees with it to the method-agreement scale."""

    @pytest.mark.parametrize("spec", ROUTE_STATES, ids=lambda s: s.kind)
    @pytest.mark.parametrize("N", [1, 15, 60, 61, 653, 1024])
    @pytest.mark.parametrize("eta,nu", [(1.0, 0.0), (0.05, 0.05)])
    def test_auto_is_forced_gf(self, spec, N, eta, nu):
        cfg = DetectorConfig(N=N, eta=eta, nu=nu)
        auto = click_distribution(spec, cfg, "auto").probs
        gf = click_distribution(spec, cfg, "generating_function").probs
        np.testing.assert_array_equal(auto, gf)
        assert np.abs(auto - click_distribution(spec, cfg, "occupancy_dp").probs).max() <= 1e-9


class TestBinomialReference:
    def test_degenerate_p(self):
        dist = binomial_reference(5, 0.0)
        assert dist.probs[0] == 1.0
        assert dist.probs[1:].max() == 0.0

    def test_half(self):
        np.testing.assert_allclose(
            binomial_reference(2, 0.5).probs, [0.25, 0.5, 0.25], atol=1e-15
        )

    @pytest.mark.parametrize("N,p", [(2, 0.5), (8, 0.3), (16, 0.9), (64, 0.02)])
    def test_qb_vanishes_on_binomial(self, N, p):
        assert abs(qb_parameter(binomial_reference(N, p))) <= 1e-12


class TestClickMoments:
    def test_point_mass(self):
        d = ClickDistribution(4, np.array([0.0, 0.0, 0.0, 1.0, 0.0]))
        assert click_moments(d) == (3.0, 0.0)

    def test_hand_distribution(self):
        d = ClickDistribution(2, np.array([0.5, 1 / 3, 1 / 6]))
        mean, var = click_moments(d)
        assert mean == pytest.approx(float(Fraction(2, 3)), abs=1e-15)
        assert var == pytest.approx(float(Fraction(5, 9)), abs=1e-15)

    def test_binomial_moments(self):
        p = -math.expm1(-0.25)
        mean, var = click_moments(binomial_reference(8, p))
        assert mean == pytest.approx(8 * p, abs=1e-12)
        assert var == pytest.approx(8 * p * (1 - p), abs=1e-12)


class TestQbParameter:
    def test_thermal_hand_value(self):
        dist = click_distribution(StateSpec.thermal(1.0), DetectorConfig(N=2, eta=1.0))
        assert qb_parameter(dist) == pytest.approx(0.25, abs=1e-12)

    def test_fock1_closed_form(self):
        dist = click_distribution(StateSpec.fock(1), DetectorConfig(N=8, eta=0.5))
        assert qb_parameter(dist) == pytest.approx(-7 / 15, abs=1e-12)

    def test_degenerate_at_zero(self):
        with pytest.raises(DegenerateMean):
            qb_parameter(ClickDistribution(2, np.array([1.0, 0.0, 0.0])))

    def test_degenerate_at_full(self):
        with pytest.raises(DegenerateMean):
            qb_parameter(ClickDistribution(2, np.array([0.0, 0.0, 1.0])))

    @pytest.mark.parametrize("spec", GRID_STATES)
    def test_single_detector_is_always_binomial(self, spec):
        dist = click_distribution(spec, DetectorConfig(N=1, eta=0.6, nu=0.05))
        assert abs(qb_parameter(dist)) <= 1e-12

    @pytest.mark.parametrize("spec", [
        StateSpec.coherent(2.0), StateSpec.thermal(1.5), StateSpec.fock(3),
        StateSpec.squeezed_vacuum(0.8), StateSpec.explicit([0.2, 0.3, 0.5]),
        StateSpec.mixture([(0.4, StateSpec.fock(2)), (0.6, StateSpec.thermal(0.5))]),
    ], ids=lambda spec: spec.kind)
    def test_single_detector_q_b_is_exactly_zero(self, spec):
        from clickstats.cli import run_sweep

        config = DetectorConfig(N=1, eta=0.7, nu=0.05)
        assert nonclassicality_report(spec, config).q_b == 0.0
        assert qb_parameter(click_distribution(spec, config)) == 0.0
        rows = run_sweep(spec, config, "eta", np.array([0.2, 0.5, 0.7]))
        assert [row[1] for row in rows] == [0.0, 0.0, 0.0]

    def test_floor(self):
        # zero click variance drives Q_B to its floor of -1
        d = ClickDistribution(4, np.array([0.0, 0.0, 1.0, 0.0, 0.0]))
        assert qb_parameter(d) == pytest.approx(-1.0, abs=1e-15)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_fock_states_are_sub_binomial(self, n):
        for eta in (0.1, 0.5, 1.0):
            for N in (2, 4, 8, 16):
                dist = click_distribution(
                    StateSpec.fock(n), DetectorConfig(N=N, eta=eta), "occupancy_dp"
                )
                assert qb_parameter(dist) < 0.0

    def test_classical_mixtures_stay_nonnegative(self):
        rng = np.random.default_rng(4242)
        for _ in range(40):
            k = int(rng.integers(1, 4))
            weights = rng.dirichlet(np.ones(k))
            comps = []
            for w in weights:
                if rng.random() < 0.5:
                    comps.append((float(w), StateSpec.coherent(float(rng.uniform(0.05, 8.0)))))
                else:
                    comps.append((float(w), StateSpec.thermal(float(rng.uniform(0.05, 4.0)))))
            spec = StateSpec.mixture(comps)
            cfg = DetectorConfig(
                N=int(rng.choice([1, 2, 4, 8, 16, 64])),
                eta=float(rng.uniform(0.05, 1.0)),
                nu=float(rng.choice([0.0, 0.01, 0.1])),
            )
            assert qb_parameter(click_distribution(spec, cfg)) >= -1e-9

    def test_large_N_approaches_thinned_mandel(self):
        # N -> inf clicks become photon counting: Q_B -> eta * Q_M(photons)
        spec = StateSpec.thermal(1.0)
        eta = 0.5
        target = eta * mandel_q(make_distribution(spec))
        gaps = []
        for N in (64, 256, 1024):
            dist = click_distribution(spec, DetectorConfig(N=N, eta=eta), "occupancy_dp")
            gaps.append(abs(qb_parameter(dist) - target))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] <= 1e-3


class TestMandelQ:
    def test_poisson_is_zero(self):
        pnd = make_distribution(StateSpec.coherent(4.0))
        assert mandel_q(pnd) == pytest.approx(0.0, abs=1e-9)

    def test_thermal_is_mean(self):
        pnd = make_distribution(StateSpec.thermal(1.0))
        assert mandel_q(pnd) == pytest.approx(1.0, abs=1e-7)

    def test_misfires_on_coherent_clicks(self):
        dist = click_distribution(StateSpec.coherent(4.0), DetectorConfig(N=8, eta=0.5))
        p = -math.expm1(-0.25)
        assert mandel_q(dist) == pytest.approx(-p, abs=1e-9)

    def test_accepts_plain_sequence(self):
        assert mandel_q([0.0, 0.0, 1.0]) == pytest.approx(-1.0, abs=1e-15)

    def test_degenerate(self):
        with pytest.raises(DegenerateMean):
            mandel_q([1.0, 0.0])

    @pytest.mark.parametrize("probs", [[], [[0.5, 0.5]]])
    def test_empty_or_2d_sequence_rejected(self, probs):
        with pytest.raises(ValueError, match="^expected a nonempty 1-d probability sequence"):
            mandel_q(probs)


class TestNonclassicalityReport:
    def test_coherent_report(self):
        rep = nonclassicality_report(
            StateSpec.coherent(4.0), DetectorConfig(N=8, eta=0.5)
        )
        p = -math.expm1(-0.25)
        assert abs(rep.q_b) <= 1e-10
        assert rep.q_m_clicks == pytest.approx(-p, abs=1e-9)
        assert rep.q_m_photons == pytest.approx(0.0, abs=1e-9)
        assert rep.click_mean == pytest.approx(8 * p, abs=1e-10)
        assert rep.click_variance == pytest.approx(8 * p * (1 - p), abs=1e-10)

    @pytest.mark.parametrize("spec,exact", [
        (StateSpec.thermal(2.0), 2.0),
        (StateSpec.coherent(300.0), 0.0),
        (StateSpec.fock(7), -1.0),
        (StateSpec.squeezed_vacuum(0.8), math.cosh(1.6)),
    ], ids=lambda v: getattr(v, "kind", ""))
    def test_photon_side_from_exact_moments(self, spec, exact):
        # The truncated law gave thermal(2) 1.99999999839.
        rep = nonclassicality_report(spec, DetectorConfig(N=20, eta=1.0))
        assert rep.q_m_photons == pytest.approx(exact, rel=1e-15, abs=1e-15)

    def test_photon_side_of_a_mixture_against_mpmath(self):
        spec = StateSpec.mixture([
            (0.3, StateSpec.thermal(4.0)),
            (0.3, StateSpec.fock(3)),
            (0.2, StateSpec.squeezed_vacuum(0.6)),
            (0.2, StateSpec.explicit([0.2, 0.5, 0.3])),
        ])
        with mpmath.workdps(50):
            mean, variance = oracles.photon_moments_mp(spec)
            exact = float(variance / mean - 1)
        rep = nonclassicality_report(spec, DetectorConfig(N=8, eta=0.5))
        assert rep.q_m_photons == pytest.approx(exact, rel=1e-14)

    def test_photon_variance_beyond_the_float_range(self):
        # The click law exists (mu eta / N = 0.125); mu (1 + mu) does not.
        with pytest.raises(TruncationOverflow, match="variance"):
            nonclassicality_report(StateSpec.thermal(1e200), DetectorConfig(N=8, eta=1e-200))

    def test_vacuum_photon_side_is_none(self):
        rep = nonclassicality_report(
            StateSpec.fock(0), DetectorConfig(N=4, eta=0.5, nu=0.2)
        )
        assert rep.q_m_photons is None
        assert abs(rep.q_b) <= 1e-12  # dark clicks alone are binomial
