"""Binomial and Poisson laws, the Poisson cutoff and the dark-count start
vector, each checked against an independent reference: mpmath at 40 or more
digits, or the per-row dark-count loop in ``oracles``."""

import math
import warnings

import mpmath
import numpy as np
import pytest

from clickstats import DetectorConfig, click_kernel, states
from clickstats.laws import _bd0, binomial_pmf, poisson_pmf
from clickstats.states import StateSpec

from oracles import dark_convolution_by_rows

REL = 1e-13  # relative accuracy demanded of every entry above FLOOR
FLOOR = 1e-20


def _assert_close(got, ref):
    """Entries above FLOOR within REL relative; the rest within FLOOR absolute."""
    assert len(got) == len(ref)
    for k, (g, r) in enumerate(zip(got, ref)):
        r = float(r)
        if r > FLOOR:
            assert abs(g - r) <= REL * r, (k, g, r)
        else:
            assert abs(g - r) <= FLOOR, (k, g, r)


@pytest.mark.parametrize("N", [1, 8, 64, 256, 1024])
@pytest.mark.parametrize("p", [0.0, 1e-6, 0.01, 0.3, 0.5, 0.9, 1.0])
def test_binomial_pmf_against_mpmath(N, p):
    with mpmath.workdps(40):
        P = mpmath.mpf(p)
        ref = [mpmath.binomial(N, k) * P**k * (1 - P) ** (N - k) for k in range(N + 1)]
    _assert_close(binomial_pmf(N, p), ref)


@pytest.mark.parametrize("p", [5e-324, 1e-310])
def test_binomial_pmf_with_a_subnormal_mean_warns_nothing(p):
    # Every chain starts from binomial_pmf(N, 1 - e^-nu), so a subnormal nu
    # reaches it on the default route; a numpy warning would reach stderr.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        probs = binomial_pmf(1024, p)
        poisson = poisson_pmf(p, 4)
    assert probs[0] == 1.0 and probs[1:].max() <= 1e-300
    assert poisson[0] == 1.0 and poisson[1:].max() <= 1e-300


@pytest.mark.parametrize("mu", [1e-7, 1e-3, 0.5, 4.0, 37.5, 300.0, 999.5, 1000.0])
def test_poisson_pmf_against_mpmath(mu):
    size = int(mu + 12 * math.sqrt(mu) + 40)
    with mpmath.workdps(40):
        M = mpmath.mpf(mu)
        ref = [mpmath.exp(-M) * M**n / mpmath.factorial(n) for n in range(size)]
    _assert_close(poisson_pmf(mu, size), ref)


@pytest.mark.parametrize("m", [0.7, 37.25, 1000.3])
def test_deviance_keeps_relative_accuracy_near_its_zero(m):
    # bd0(x, m) = x log(x/m) + m - x vanishes quadratically at x = m; the
    # plain formula would lose about m eps / (x - m) of it there.
    x = np.concatenate((np.linspace(m / 3, 3 * m, 401), [m + 1e-6, m - 0.5]))
    x = x[x > 0]
    got = _bd0(x, np.full(x.shape, m))
    with mpmath.workdps(80):  # the reference itself cancels ~35 digits
        M = mpmath.mpf(m)
        for xi, g in zip(x, got):
            X = mpmath.mpf(xi)
            ref = X * mpmath.log(X / M) + M - X
            assert abs(g - ref) <= 1e-14 * ref, (xi, g, ref)


@pytest.mark.parametrize("mu", [1e-9, 1e-4, 0.3, 4.0, 25.0, 400.0, 1000.0, 3000.0])
@pytest.mark.parametrize("tol", [1e-6, 1e-12, 1e-15])
def test_coherent_tail_bound_is_a_true_upper_bound(mu, tol):
    probs, tail_bound = states._coherent_probs(mu, tol)
    with mpmath.workdps(40):
        # P(n > n_max) is the regularized lower incomplete gamma at n_max + 1.
        tail = mpmath.gammainc(probs.size, 0, mpmath.mpf(mu), regularized=True)
    assert tail <= tail_bound <= tol


# Photon laws of at most about 20 entries keep the per-row oracle cheap at
# N=1024: one truncated law of each kind, and two with no truncation tail.
DARK_SPECS = [
    StateSpec.squeezed_vacuum(0.3),
    StateSpec.thermal(0.2),
    StateSpec.fock(3),
    StateSpec.explicit([0.1, 0.2, 0.3, 0.25, 0.15]),
]


@pytest.mark.parametrize("N", [1, 8, 64, 256, 1024])
@pytest.mark.parametrize("nu", [1e-4, 0.05, 2.0])
def test_dark_step_matches_per_row_convolution(N, nu):
    # Dark counts enter as the occupancy chain's start vector; the law must
    # equal the dark-free law with dark clicks convolved in afterwards.
    for spec in DARK_SPECS:
        bare = click_kernel._path_b(spec, DetectorConfig(N=N, eta=0.7))
        got = click_kernel._path_b(spec, DetectorConfig(N=N, eta=0.7, nu=nu))
        _assert_close(got, dark_convolution_by_rows(bare, N, nu))


def test_dark_step_keeps_unit_mass_at_n1024():
    # Neither law has a truncation tail, so any mass lost is the chain's.
    for spec in (StateSpec.fock(3), StateSpec.explicit([0.008, 0.02, 0.3, 0.672])):
        out = click_kernel._path_b(spec, DetectorConfig(N=1024, eta=0.7, nu=0.03))
        assert abs(math.fsum(out) - 1.0) <= 1e-15
