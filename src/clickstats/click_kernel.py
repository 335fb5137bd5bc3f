"""Exact click-count statistics of N on-off detectors, and the Q_B / Q_M parameters.

An array of N identical on-off detectors splits the field uniformly; each
detector fires on one or more absorbed photons (efficiency eta) or on a dark
event (per-detector no-dark-click factor exp(-nu)). The click law is
c = G(T) b, with G the state's generating function, T the per-photon step of
``_occupancy_step`` and b = Binomial(N, 1 - exp(-nu)) the law of dark clicks
alone: dark counts act as lossless Poisson(nu) photons per detector, which
commute with T, so b is the start vector of every chain. Two routes:

- Path A ("generating_function"), leaf by leaf: exact forms for coherent
  (a binomial law), thermal (one bidiagonal solve) and Fock (n chain steps)
  light; squeezed vacuum and explicit laws take the inclusion-exclusion sum
  c_k = C(N,k) sum_j C(k,j) (-1)^j exp(-nu(N-k+j)) G(1 - eta(N-k+j)/N),
  which cancels catastrophically for large N at small eta.
- Path B ("occupancy_dp"): the chain from b weighted by the truncated
  photon-number law. All-nonnegative; the reference and the fallback.

Q_B measures the click variance against the binomial law with the same mean:
Q_B = N <(dc)^2> / (<c>(N - <c>)) - 1. It vanishes for every binomial click
distribution, and a negative value certifies sub-binomial (nonclassical)
light. Mandel's Q_M = <(dn)^2>/<n> - 1 is provided for comparison; applied
to click data it goes negative even for coherent light, which is exactly the
failure Q_B repairs.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateMean, NumericalInstability, ValidationError
from .laws import binomial_pmf, law_moments
from .states import (
    DEFAULT_TAIL_TOLERANCE,
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

METHODS = ("generating_function", "occupancy_dp", "auto")


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


def _path_a(spec: StateSpec, config: DetectorConfig) -> np.ndarray:
    """Generating-function click distribution, c = G(T) b leaf by leaf.

    The click law is linear in the state. Coherent, thermal and Fock leaves
    (n up to MAX_NMAX) have exact forms free of cancellation: the binomial
    law with p = 1 - exp(-nu - eta mu / N), the thermal solve, and n chain
    steps from b. Other leaves take the inclusion-exclusion sum, which may
    cancel badly for large N.
    """
    N, eta = config.N, config.eta
    b = binomial_pmf(N, -math.expm1(-config.nu))  # dark clicks alone
    raw = np.zeros(N + 1)
    for weight, leaf in spec.flattened():
        if weight == 0.0:
            continue
        if leaf.kind == "coherent":
            p = -math.expm1(-config.nu - eta * leaf.mean_photons / N)
            law = binomial_pmf(N, p)
        elif leaf.kind == "thermal":
            law = _thermal_solve(leaf.mean_photons, b, N, eta)
        elif leaf.kind == "fock" and leaf.n <= MAX_NMAX:
            law = b
            for _ in range(leaf.n):
                law = _occupancy_step(law, N, eta)
        else:
            law = _alternating_sum(_silent_set_factors(leaf, config), N)
        raw += weight * law
    return raw


def _path_b(
    spec: StateSpec,
    config: DetectorConfig,
    tail_tolerance: float = DEFAULT_TAIL_TOLERANCE,
) -> np.ndarray:
    """Occupancy-recurrence click distribution; all terms nonnegative.

    The chain starts from the dark-count law b; each photon independently
    stays undetected with probability 1 - eta or occupies a uniformly chosen
    detector.
    """
    pnd = make_distribution(spec, tail_tolerance)
    N, eta = config.N, config.eta
    occ = binomial_pmf(N, -math.expm1(-config.nu))  # dark clicks alone
    acc = pnd.probs[0] * occ
    for n in range(1, pnd.probs.size):
        occ = _occupancy_step(occ, N, eta)
        acc = acc + pnd.probs[n] * occ
    return acc


def _looks_valid(raw: np.ndarray, floor: float = CLAMP_TOL) -> bool:
    return bool(
        np.all(np.isfinite(raw))
        and float(raw.min()) >= -floor
        and abs(float(raw.sum()) - 1.0) <= NORMALIZATION_TOL
    )


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
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    spec.validate()

    if method == "generating_function":
        # A forced Path A request tolerates round-off negatives up to the
        # method-agreement scale of 1e-9 (clamped to zero), not only the
        # stricter threshold that drives the auto fallback.
        raw = _path_a(spec, config)
        if not _looks_valid(raw, floor=NORMALIZATION_TOL):
            raise NumericalInstability(
                f"generating-function path failed validity checks at N={config.N}, "
                f"eta={config.eta}, nu={config.nu}"
            )
        return ClickDistribution(config.N, np.clip(raw, 0.0, None))

    if method == "occupancy_dp":
        raw = _path_b(spec, config)
        if not _looks_valid(raw):
            raise NumericalInstability(
                f"occupancy path failed validity checks at N={config.N}, "
                f"eta={config.eta}, nu={config.nu}"
            )
        return ClickDistribution(config.N, raw)

    raw = _path_a(spec, config)
    if _looks_valid(raw):
        return ClickDistribution(config.N, raw)
    logger.debug(
        "inclusion-exclusion path unstable at N=%d eta=%g nu=%g; using occupancy path",
        config.N,
        config.eta,
        config.nu,
    )
    raw = _path_b(spec, config)
    if _looks_valid(raw):
        return ClickDistribution(config.N, raw)
    raise NumericalInstability(
        f"both evaluation paths failed validity checks at N={config.N}, "
        f"eta={config.eta}, nu={config.nu}"
    )


def occupancy_distribution(m: int, N: int) -> np.ndarray:
    """Distribution of the number of occupied bins after m uniform throws.

    Returns probabilities over k = 0..min(m, N). Equivalent to
    C(N,k) k! S(m,k) / N^m with S the Stirling numbers of the second kind,
    computed by the stable forward recurrence
    O_{m+1}(k) = O_m(k) k/N + O_m(k-1) (N-k+1)/N.
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


def _qb_from_moments(mean: float, variance: float, N: int) -> float:
    if mean < DEGENERATE_MEAN_TOL or mean > N - DEGENERATE_MEAN_TOL:
        raise DegenerateMean(
            f"click mean {mean!r} is within {DEGENERATE_MEAN_TOL} of the boundary of [0, {N}]"
        )
    return N * variance / (mean * (N - mean)) - 1.0


def _qm_from_moments(mean: float, variance: float) -> float:
    if mean < DEGENERATE_MEAN_TOL:
        raise DegenerateMean(f"mean count {mean!r} below {DEGENERATE_MEAN_TOL}")
    return variance / mean - 1.0


def qb_parameter(dist: ClickDistribution) -> float:
    """Binomial-referenced nonclassicality parameter of a click distribution.

    Q_B = N <(dc)^2> / (<c> (N - <c>)) - 1. Zero for every binomial click
    law; negative only for sub-binomial (nonclassical) statistics. Undefined
    when the mean click number sits within 1e-12 of 0 or N.
    """
    return _qb_from_moments(*click_moments(dist), dist.N)


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
    return _qm_from_moments(float(mean), float(variance))


def nonclassicality_report(
    spec: StateSpec,
    config: DetectorConfig,
    method: str = "auto",
    tail_tolerance: float = DEFAULT_TAIL_TOLERANCE,
) -> NonclassicalityReport:
    """Q_B and Q_M (clicks and photons) for a state and detector array.

    The photon-side Mandel parameter is None when the photon mean is
    degenerate (vacuum).
    """
    dist = click_distribution(spec, config, method)
    mean, variance = click_moments(dist)
    q_b = _qb_from_moments(mean, variance, config.N)
    q_m_clicks = _qm_from_moments(mean, variance)
    try:
        q_m_photons = mandel_q(make_distribution(spec, tail_tolerance))
    except DegenerateMean:
        q_m_photons = None
    return NonclassicalityReport(
        q_b=q_b,
        q_m_clicks=q_m_clicks,
        q_m_photons=q_m_photons,
        click_mean=mean,
        click_variance=variance,
    )
