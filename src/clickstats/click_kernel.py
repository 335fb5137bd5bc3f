"""Exact click-count statistics of N on-off detectors, and the Q_B / Q_M parameters.

An array of N identical on-off detectors splits the field uniformly; each
detector fires on one or more absorbed photons (efficiency eta) or on a dark
event (per-detector no-dark-click factor exp(-nu)). The click law is
c = G(T) b, with G the state's generating function, T the per-photon step of
``_occupancy_step`` and b = Binomial(N, 1 - exp(-nu)) the law of dark clicks
alone (``_dark_law``): dark counts act as lossless Poisson(nu) photons per
detector, which commute with T, so b is the start vector of every chain.
``_chain`` runs that chain, sum_n w_n T^n b, for any photon-number weights.
Two routes evaluate c:

- Path A ("generating_function"), leaf by leaf (``_leaf_law``): exact forms
  for coherent (a binomial law), thermal (one bidiagonal solve) and Fock
  (the chain over a one-hot law) light; squeezed vacuum and explicit laws
  take the inclusion-exclusion sum
  c_k = C(N,k) sum_j C(k,j) (-1)^j exp(-nu(N-k+j)) G(1 - eta(N-k+j)/N),
  which cancels catastrophically for large N at small eta.
- Path B ("occupancy_dp"): the chain weighted by the truncated photon-number
  law. All-nonnegative; the reference and the fallback.

``_ROUTES`` lists the paths each method tries in order and the validity
floor their laws must meet; "auto" tries A, then B. The first law that
passes the validity checks is returned, round-off negatives clipped to 0.

Q_B measures the click variance against the binomial law with the same mean:
Q_B = N <(dc)^2> / (<c>(N - <c>)) - 1. It vanishes for every binomial click
distribution, and a negative value certifies sub-binomial (nonclassical)
light. Mandel's Q_M = <(dn)^2>/<n> - 1 is provided for comparison; applied
to click data it goes negative even for coherent light, which is exactly the
failure Q_B repairs. ``q_from_moments`` is the one rule for both, and
``q_value`` its scalar form, which raises DegenerateMean.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMean, NumericalInstability, ValidationError
from .laws import binomial_pmf, law_moments
from .states import (
    MAX_NMAX,
    PhotonNumberDistribution,
    StateSpec,
    _gf,
    make_distribution,
)

logger = logging.getLogger(__name__)

MAX_DETECTORS = 1024
MAX_DARK_PARAMETER = 10.0

# Entries this far below zero are round-off and clamp to 0; anything lower
# marks the producing path as invalid.
CLAMP_TOL = 1e-12
NORMALIZATION_TOL = 1e-9
DEGENERATE_MEAN_TOL = 1e-12

# Above this N, binomial coefficients leave exact float range; switch to
# log-space evaluation in Path A.
LOG_SPACE_N = 60


@dataclass(frozen=True)
class DetectorConfig:
    """Array size N, quantum efficiency eta, dark-count parameter nu."""

    N: int
    eta: float
    nu: float = 0.0

    def __post_init__(self):
        if isinstance(self.N, bool) or self.N != int(self.N) or not (1 <= self.N <= MAX_DETECTORS):
            raise ValidationError(
                f"config.N: must be an integer in [1, {MAX_DETECTORS}], got {self.N!r}"
            )
        object.__setattr__(self, "N", int(self.N))
        if not (math.isfinite(self.eta) and 0.0 <= self.eta <= 1.0):
            raise ValidationError(f"config.eta: must lie in [0, 1], got {self.eta!r}")
        if not (math.isfinite(self.nu) and 0.0 <= self.nu <= MAX_DARK_PARAMETER):
            raise ValidationError(
                f"config.nu: must lie in [0, {MAX_DARK_PARAMETER}], got {self.nu!r}"
            )


@dataclass(frozen=True)
class ClickDistribution:
    """Probabilities c_0..c_N of observing k clicks on an N-detector array."""

    N: int
    probs: np.ndarray

    def __post_init__(self):
        arr = np.array(self.probs, dtype=np.float64)
        if arr.shape != (self.N + 1,):
            raise ValueError(
                f"click probabilities must have length N+1={self.N + 1}, got {arr.shape}"
            )
        low = float(arr.min(initial=0.0))
        if low < -CLAMP_TOL:
            raise NumericalInstability(
                f"click probability {low!r} below the clamping tolerance -{CLAMP_TOL}"
            )
        np.clip(arr, 0.0, None, out=arr)
        total = float(arr.sum())
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise NumericalInstability(
                f"click probabilities sum to {total!r}, outside 1 +/- {NORMALIZATION_TOL}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)


@dataclass(frozen=True)
class NonclassicalityReport:
    """Q_B and Q_M values for one state/detector configuration."""

    q_b: float
    q_m_clicks: float
    q_m_photons: float | None
    click_mean: float
    click_variance: float

    def __post_init__(self):
        if self.q_b < -1.0 - 1e-9:
            raise ValueError(f"q_b={self.q_b!r} violates the variance floor of -1")


def _silent_set_factors(leaf: StateSpec, config: DetectorConfig) -> np.ndarray:
    """P(a fixed set of s detectors is silent) for s = 0..N."""
    N, eta, nu = config.N, config.eta, config.nu
    g = np.empty(N + 1)
    for s in range(N + 1):
        x = max(0.0, 1.0 - eta * s / N)
        g[s] = math.exp(-nu * s) * _gf(leaf, x)
    return g


def _alternating_sum(g: np.ndarray, N: int) -> np.ndarray:
    """c_k = C(N,k) sum_j C(k,j) (-1)^j g[N-k+j], compensated per entry."""
    raw = np.empty(N + 1)
    if N <= LOG_SPACE_N:
        for k in range(N + 1):
            outer = math.comb(N, k)
            terms = [
                (-1.0) ** j * outer * math.comb(k, j) * g[N - k + j]
                for j in range(k + 1)
            ]
            raw[k] = math.fsum(terms)
    else:
        lg = [math.lgamma(i + 1) for i in range(N + 2)]

        def log_comb(n, k):
            return lg[n] - lg[k] - lg[n - k]

        try:
            for k in range(N + 1):
                lc_outer = log_comb(N, k)
                terms = []
                for j in range(k + 1):
                    gv = g[N - k + j]
                    if gv == 0.0:
                        continue
                    mag = math.exp(lc_outer + log_comb(k, j) + math.log(gv))
                    terms.append(-mag if j % 2 else mag)
                raw[k] = math.fsum(terms)
        except OverflowError:
            # A term beyond float range (from N ~ 650 on): no sum of such
            # terms can be trusted, so the law is marked invalid and fails
            # every validity check.
            raw.fill(math.nan)
    return raw


def _occupancy_step(occ: np.ndarray, N: int, eta: float) -> np.ndarray:
    """Add one photon that survives with probability eta and lands uniformly."""
    ks = np.arange(occ.size)
    new = occ * (1.0 - eta * (N - ks) / N)
    new[1:] += occ[:-1] * (eta * (N - ks[1:] + 1) / N)
    return new


def _thermal_solve(mu: float, b: np.ndarray, N: int, eta: float) -> np.ndarray:
    """G(T) b for thermal light: solve ((1 + mu) I - mu T) c = b.

    Forward substitution c_k = (b_k + m (N-k+1) c_{k-1}) / (1 + m (N-k)),
    m = mu eta / N; every term is nonnegative and nothing is truncated.
    """
    m = mu * eta / N
    out, prev = [], 0.0
    for k, bk in enumerate(b.tolist()):
        prev = (bk + m * (N - k + 1) * prev) / (1.0 + m * (N - k))
        out.append(prev)
    return np.array(out)


def _dark_law(config: DetectorConfig) -> np.ndarray:
    """b = Binomial(N, 1 - exp(-nu)), the click law of dark counts alone."""
    return binomial_pmf(config.N, -math.expm1(-config.nu))


def _chain(weights, start: np.ndarray, N: int, eta: float) -> np.ndarray:
    """sum_n w_n T^n start, with T the per-photon step ``_occupancy_step``.

    A zero weight adds nothing (acc + 0 occ = acc), so it is skipped.
    """
    occ, acc = start, np.zeros(start.size)
    for n, weight in enumerate(weights):
        if n:
            occ = _occupancy_step(occ, N, eta)
        if weight:
            acc = acc + weight * occ
    return acc


def _leaf_law(leaf: StateSpec, config: DetectorConfig, b: np.ndarray) -> np.ndarray:
    """G(T) b for one pure leaf.

    Coherent, thermal and Fock leaves (n up to MAX_NMAX) have exact forms
    free of cancellation: the binomial law with p = 1 - exp(-nu - eta mu / N),
    the thermal solve, and the chain over the one-hot law of n. Other leaves
    take the inclusion-exclusion sum, which may cancel badly for large N.
    """
    N, eta = config.N, config.eta
    if leaf.kind == "coherent":
        return binomial_pmf(N, -math.expm1(-config.nu - eta * leaf.mean_photons / N))
    if leaf.kind == "thermal":
        return _thermal_solve(leaf.mean_photons, b, N, eta)
    if leaf.kind == "fock" and leaf.n <= MAX_NMAX:
        return _chain([0.0] * leaf.n + [1.0], b, N, eta)
    return _alternating_sum(_silent_set_factors(leaf, config), N)


def _path_a(spec: StateSpec, config: DetectorConfig) -> np.ndarray:
    """Generating-function click distribution: the click law is linear in the
    state, so it is the weighted sum of the leaf laws."""
    b = _dark_law(config)
    raw = np.zeros(config.N + 1)
    for weight, leaf in spec.flattened():
        if weight:
            raw += weight * _leaf_law(leaf, config, b)
    return raw


def _path_b(spec: StateSpec, config: DetectorConfig) -> np.ndarray:
    """Occupancy-recurrence click distribution; all terms nonnegative.

    The chain starts from the dark-count law b; each photon independently
    stays undetected with probability 1 - eta or occupies a uniformly chosen
    detector.
    """
    return _chain(make_distribution(spec).probs, _dark_law(config), config.N, config.eta)


def _looks_valid(raw: np.ndarray, floor: float = CLAMP_TOL) -> bool:
    return bool(
        np.all(np.isfinite(raw))
        and float(raw.min()) >= -floor
        and abs(float(raw.sum()) - 1.0) <= NORMALIZATION_TOL
    )


# The paths each method tries in order, the validity floor of their laws and
# how a failure is named. A forced Path A tolerates round-off negatives up to
# the method-agreement scale of 1e-9, not only the stricter threshold that
# drives the auto fallback.
_ROUTES = {
    "generating_function": ((_path_a,), NORMALIZATION_TOL, "generating-function path"),
    "occupancy_dp": ((_path_b,), CLAMP_TOL, "occupancy path"),
    "auto": ((_path_a, _path_b), CLAMP_TOL, "both evaluation paths"),
}


def click_distribution(
    spec: StateSpec, config: DetectorConfig, method: str = "auto"
) -> ClickDistribution:
    """Exact distribution of the number of clicking detectors.

    ``method`` selects the evaluation route: "generating_function" (Path A),
    "occupancy_dp" (Path B), or "auto", which tries Path A and falls back to
    Path B whenever Path A produces a non-finite entry (an overflowing
    log-space sum gives all NaN), an entry below -1e-12, or misses unit
    normalization by more than 1e-9. A requested route that fails its
    validity checks raises NumericalInstability.
    """
    if method not in _ROUTES:
        raise ValueError(f"method must be one of {tuple(_ROUTES)}, got {method!r}")
    spec.validate()
    paths, floor, name = _ROUTES[method]
    for path in paths:
        raw = path(spec, config)
        if _looks_valid(raw, floor):
            return ClickDistribution(config.N, np.maximum(raw, 0.0, out=raw))
        logger.debug(
            "%s failed validity checks at N=%d eta=%g nu=%g",
            path.__name__, config.N, config.eta, config.nu,
        )
    raise NumericalInstability(
        f"{name} failed validity checks at N={config.N}, "
        f"eta={config.eta}, nu={config.nu}"
    )


def occupancy_distribution(m: int, N: int) -> np.ndarray:
    """Distribution of the number of occupied bins after m uniform throws.

    Returns probabilities over k = 0..min(m, N). Equivalent to
    C(N,k) k! S(m,k) / N^m with S the Stirling numbers of the second kind,
    computed by the stable forward recurrence
    O_{m+1}(k) = O_m(k) k/N + O_m(k-1) (N-k+1)/N.
    The stay factor is k/N, not the ``_occupancy_step`` form 1 - (N-k)/N,
    which cancels at small k/N.
    """
    if m < 0 or m != int(m):
        raise ValueError(f"ball count must be a nonnegative integer, got {m!r}")
    if m > 4096:
        raise ValueError(f"ball count {m} exceeds the supported maximum 4096")
    if N < 1 or N != int(N):
        raise ValueError(f"bin count must be a positive integer, got {N!r}")
    size = min(m, N) + 1
    occ = np.zeros(size)
    occ[0] = 1.0
    ks = np.arange(size)
    for _ in range(m):
        new = occ * ks / N
        new[1:] += occ[:-1] * (N - ks[1:] + 1) / N
        occ = new
    return occ


def binomial_reference(N: int, p: float) -> ClickDistribution:
    """Binomial click law C(N,k) p^k (1-p)^{N-k}; the Q_B = 0 reference."""
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"binomial parameter must lie in [0, 1], got {p!r}")
    if isinstance(N, bool) or N != int(N) or not (1 <= N <= MAX_DETECTORS):
        raise ValidationError(
            f"N must be an integer in [1, {MAX_DETECTORS}], got {N!r}"
        )
    return ClickDistribution(int(N), binomial_pmf(int(N), p))


def click_moments(dist: ClickDistribution) -> tuple[float, float]:
    """Mean and variance of the click number."""
    mean, variance = law_moments(dist.probs)
    return float(mean), float(variance)


def _defined(mean, statistic: str, N):
    """Where Q_B (over N detectors) or Q_M is defined: a mean of at least
    1e-12, and for Q_B at most N - 1e-12."""
    upper = N - DEGENERATE_MEAN_TOL if statistic == "q_b" else math.inf
    return (mean >= DEGENERATE_MEAN_TOL) & (mean <= upper)


def _q_formula(mean, variance, statistic: str, N):
    if statistic == "q_b":
        return N * variance / (mean * (N - mean)) - 1.0
    return variance / mean - 1.0


def q_from_moments(mean, variance, statistic: str, N=None):
    """Q_B ("q_b", over N detectors) or Q_M ("q_m") from means and variances.

    Elementwise over arrays; NaN where the statistic is undefined.
    """
    # A degenerate mean turns into NaN before any division, so nothing warns.
    mean = np.where(_defined(mean, statistic, N), mean, np.nan)
    return _q_formula(mean, variance, statistic, N)


def q_value(mean: float, variance: float, statistic: str, N: int | None = None) -> float:
    """``q_from_moments`` for one mean and variance; DegenerateMean where it
    is undefined. Plain float arithmetic: on one value numpy takes about
    3 us against 0.3 us, and a sweep point, about 0.1 ms, needs two values."""
    if not _defined(mean, statistic, N):
        if statistic == "q_b":
            raise DegenerateMean(
                f"click mean {mean!r} is within {DEGENERATE_MEAN_TOL} of the boundary of [0, {N}]"
            )
        raise DegenerateMean(f"mean count {mean!r} below {DEGENERATE_MEAN_TOL}")
    return _q_formula(mean, variance, statistic, N)


def qb_parameter(dist: ClickDistribution) -> float:
    """Binomial-referenced nonclassicality parameter of a click distribution.

    Q_B = N <(dc)^2> / (<c> (N - <c>)) - 1. Zero for every binomial click
    law; negative only for sub-binomial (nonclassical) statistics. Undefined
    when the mean click number sits within 1e-12 of 0 or N.
    """
    return q_value(*click_moments(dist), "q_b", dist.N)


def _as_count_probs(dist) -> np.ndarray:
    if isinstance(dist, ClickDistribution):
        return dist.probs
    if isinstance(dist, PhotonNumberDistribution):
        return dist.probs
    arr = np.asarray(dist, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("expected a nonempty 1-d probability sequence")
    return arr


def mandel_q(dist) -> float:
    """Mandel parameter <(dn)^2>/<n> - 1 of a count distribution.

    Accepts photon-number distributions, click distributions, or any plain
    probability sequence over nonnegative counts. Note that on click data
    this goes negative even for coherent light (binomial clicks give
    Q_M = -p), which is why Q_B exists.
    """
    mean, variance = law_moments(_as_count_probs(dist))
    return q_value(float(mean), float(variance), "q_m")


def nonclassicality_report(
    spec: StateSpec, config: DetectorConfig, method: str = "auto"
) -> NonclassicalityReport:
    """Q_B and Q_M (clicks and photons) for a state and detector array.

    The photon-side Mandel parameter is None when the photon mean is
    degenerate (vacuum).
    """
    dist = click_distribution(spec, config, method)
    mean, variance = click_moments(dist)
    q_b = q_value(mean, variance, "q_b", config.N)
    q_m_clicks = q_value(mean, variance, "q_m")
    try:
        q_m_photons = mandel_q(make_distribution(spec))
    except DegenerateMean:
        q_m_photons = None
    return NonclassicalityReport(
        q_b=q_b,
        q_m_clicks=q_m_clicks,
        q_m_photons=q_m_photons,
        click_mean=mean,
        click_variance=variance,
    )
