"""Exact identities across N and eta, as oracles where mpmath is dear.

The detectors are identical and the light splits uniformly, so:

- **Sub-array thinning.** M of N detectors see an M-detector array of
  efficiency eta M / N and the same nu: the silent-detector factorial
  moments depend on eta / N alone, so Q_B / (N - 1) is the same for both.
- **Loss composition.** A Fock state n at efficiency eta gives the click
  law of the explicit photon law Binomial(n, eta) at eta = 1.
- **The coherent cut.** The Poisson law is evaluated once and cut at the
  first index whose tail bound is at most the tolerance.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from clickstats import DetectorConfig, StateSpec, click_distribution
from clickstats.click_kernel import click_statistics
from clickstats.errors import TruncationOverflow
from clickstats.laws import poisson_pmf
from clickstats.states import MAX_NMAX, _coherent_probs

THINNING_ARRAYS = [(64, 8), (256, 20), (1024, 64)]
THINNING_CONFIGS = [(0.7, 0.05), (0.3, 0.0), (1.0, 0.01)]
# (state, relative tolerance, absolute tolerance): Q_B is exactly 0 for
# coherent light, so it takes an absolute one.
THINNING_STATES = {
    "thermal": (StateSpec.thermal(2.0), 1e-12, 0.0),
    "fock": (StateSpec.fock(5), 1e-12, 0.0),
    "squeezed": (StateSpec.squeezed_vacuum(0.8), 1e-12, 0.0),
    "explicit": (StateSpec.explicit([0.2, 0.3, 0.5]), 1e-12, 0.0),
    "coherent": (StateSpec.coherent(4.0), 0.0, 1e-15),
    "mixture": (StateSpec.mixture([(0.5, StateSpec.fock(0)), (0.5, StateSpec.fock(2))]),
                1e-12, 0.0),
}
# The mixture's Q_B / (N - 1) is small (1.5e-4 down to 6e-9), and a Q_B
# built from the law's moments loses digits there: the relative gap is
# 1.2e-12 to 8.2e-11 at the marked points, and within 1e-12 only at the two
# points left out.
KNOWN_QB_DEFECT = pytest.mark.xfail(
    strict=True,
    reason="Q_B built from the law's moments loses digits where Q_B is small "
           "(ROADMAP, Known defects; item 2's closed form removes it)",
)
DEFECT_FREE_MIXTURE_POINTS = {(1.0, 0.01, 64, 8), (1.0, 0.01, 256, 20)}


def _thinning_cases():
    for name, (spec, rel, abs_) in THINNING_STATES.items():
        for eta, nu in THINNING_CONFIGS:
            for N, M in THINNING_ARRAYS:
                known = name == "mixture" and (eta, nu, N, M) not in DEFECT_FREE_MIXTURE_POINTS
                yield pytest.param(
                    spec, rel, abs_, eta, nu, N, M, id=f"{name}-{eta}-{nu}-{N}-{M}",
                    marks=[KNOWN_QB_DEFECT] if known else [],
                )


def _scaled_qb(spec, N, eta, nu):
    return click_statistics(spec, DetectorConfig(N=N, eta=eta, nu=nu))[0] / (N - 1)


@pytest.mark.parametrize("spec,rel,abs_,eta,nu,N,M", _thinning_cases())
def test_thinning_keeps_qb_per_pair(spec, rel, abs_, eta, nu, N, M):
    whole = _scaled_qb(spec, N, eta, nu)
    part = _scaled_qb(spec, M, eta * M / N, nu)
    assert abs(whole - part) <= max(rel * abs(whole), abs_), (whole, part)


def _binomial_law(n, eta):
    """Binomial(n, eta) in exact rationals, rounded once per entry."""
    p = Fraction(eta)
    return [float(math.comb(n, k) * p**k * (1 - p) ** (n - k)) for k in range(n + 1)]


@pytest.mark.parametrize("method", ["generating_function", "occupancy_dp"])
@pytest.mark.parametrize("eta", [0.3, 0.7])
@pytest.mark.parametrize("N", [8, 64, 1024])
@pytest.mark.parametrize("n", [5, 40])
def test_loss_composes_into_the_photon_law(n, N, eta, method):
    lossy = click_distribution(StateSpec.fock(n), DetectorConfig(N=N, eta=eta, nu=0.05), method)
    attenuated = click_distribution(
        StateSpec.explicit(_binomial_law(n, eta)), DetectorConfig(N=N, eta=1.0, nu=0.05), method
    )
    keep = attenuated.probs > 1e-300
    gap = np.abs(lossy.probs - attenuated.probs)[keep] / attenuated.probs[keep]
    assert gap.max() <= 1e-13


def _coherent_means():
    spread = np.logspace(-12, math.log10(MAX_NMAX), 2000, endpoint=False)
    # The cut passes MAX_NMAX photons from mu ~ 3664.03 at tol 1e-12.
    near_cap = np.linspace(3663.9, 3664.2, 61)
    return [float(mu) for mu in np.concatenate((spread, near_cap, [4095.5, 4096.0, 4100.0]))]


@pytest.mark.parametrize("tol", [1e-12, 1e-15])
def test_the_coherent_cut_is_the_first_index_within_tol(tol):
    returned = raised = 0
    for mu in _coherent_means():
        try:
            probs, bound = _coherent_probs(mu, tol)
        except TruncationOverflow:
            # Raised only where no cut up to MAX_NMAX exists: the bound at
            # MAX_NMAX itself is above tol.
            raised += 1
            at_cap = poisson_pmf(mu, MAX_NMAX + 2)[-1] / (1.0 - mu / (MAX_NMAX + 2))
            assert mu >= MAX_NMAX or at_cap * (1.0 + 1e-12) > tol, mu
            continue
        returned += 1
        n_max = probs.size - 1
        assert n_max <= MAX_NMAX and bound <= tol, (mu, bound)
        # The bound one index earlier, p_{n_max} / (1 - mu/(n_max + 1)), is above tol.
        if n_max:
            earlier = probs[-1] / (1.0 - mu / (n_max + 1)) * (1.0 + 1e-12)
            assert earlier > tol, (mu, earlier)
    assert returned > 1900 and raised > 3
