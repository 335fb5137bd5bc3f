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

- Path A ("generating_function"), leaf by leaf: ``_LEAF_LAWS`` maps each
  pure kind of ``states.KINDS`` to its click law, which is the one per-kind
  quantity this module owns. Coherent light gives a binomial law, thermal
  light one bidiagonal solve, Fock states and explicit laws the chain over
  their photon law, and squeezed vacuum a trapezoid rule over two-photon
  resolvents (I - q T^2)^-1 b, whose first forward substitution holds the
  64-, 128- and 256-node rules and whose node sums keep the order of one
  pass per rule, so no law depends on how the passes are cut. Every term of
  each is nonnegative. A photon
  law beyond MAX_NMAX photons, or a squeezed leaf whose rule needs more than
  QUADRATURE_CAP nodes, raises TruncationOverflow.
- Path B ("occupancy_dp"): ``_photon_chain``, the helper Path A runs for a
  Fock or explicit leaf, over the whole state's truncated photon-number law
  (a mixture's law is the weight-sum of its leaves'); the independent route
  Path A is checked against.

``_chain`` is the only occupancy recurrence: ``occupancy_distribution`` is
the chain over a one-hot law at eta = 1, started from k = 0.

``_ROUTES`` maps each method to its one route; "auto" is Path A. The law it
returns passes ClickDistribution's checks, round-off negatives clipped to 0,
or raises NumericalInstability.

Q_B measures the click variance against the binomial law with the same mean:
Q_B = N <(dc)^2> / (<c>(N - <c>)) - 1. It vanishes for every binomial click
distribution, and a negative value certifies sub-binomial (nonclassical)
light. Mandel's Q_M = <(dn)^2>/<n> - 1 is provided for comparison; applied
to click data it goes negative even for coherent light, which is exactly the
failure Q_B repairs. ``q_from_moments`` is the one rule for both, and
``q_value`` its scalar form, which raises DegenerateMean.

``click_statistics`` is the one path from a state to its Q numbers: the
click law of the chosen route, its mean and variance, then Q_B and Q_M.
``nonclassicality_report`` and every row of the CLI's ``sweep`` take it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMean, NumericalInstability, TruncationOverflow
from .laws import binomial_pmf, law_moments
from .states import (
    COUNT_RULE,
    MAX_INT64,
    MAX_NMAX,
    UNIT_INTERVAL,
    StateSpec,
    _squeezing,
    checked_integer,
    checked_real,
    make_distribution,
    state_moments,
)

MAX_DETECTORS = 1024
MAX_DARK_PARAMETER = 10.0

# Entries this far below zero are round-off and clamp to 0; anything lower
# makes the law invalid.
CLAMP_TOL = 1e-12
NORMALIZATION_TOL = 1e-9
DEGENERATE_MEAN_TOL = 1e-12

# The squeezed quadrature: its first node count (its first pass also holds
# the two rules after it, 256 nodes), the relative agreement of two
# successive rules that ends the doubling, the node cap, and the floats a
# pass holds in its rolling block of rows.
QUADRATURE_START = 64
QUADRATURE_TOL = 1e-7
QUADRATURE_CAP = 2**17
ROW_BLOCK = 2**14


@dataclass(frozen=True)
class DetectorConfig:
    """Array size N, quantum efficiency eta, dark-count parameter nu.

    Each value is checked when the config is built, by the same number rule
    as a state's fields (``states.checked_real``, with an integral N), and
    stored normalized: N as an int, eta and nu as floats."""

    N: int
    eta: float
    nu: float = 0.0

    def __post_init__(self):
        object.__setattr__(
            self, "N", checked_integer(self.N, "config.N", 1, MAX_DETECTORS, _N_RULE)
        )
        object.__setattr__(self, "eta", checked_real(self.eta, "config.eta", 0.0, 1.0, UNIT_INTERVAL))
        object.__setattr__(
            self, "nu", checked_real(self.nu, "config.nu", 0.0, MAX_DARK_PARAMETER, _NU_RULE)
        )


_NU_RULE = f"must lie in [0, {MAX_DARK_PARAMETER}]"
_N_RULE = f"must be an integer in [1, {MAX_DETECTORS}]"


@dataclass(frozen=True)
class ClickDistribution:
    """Probabilities c_0..c_N of observing k clicks on an N-detector array.

    N takes the number rule (``checked_integer``) and is stored as an int.
    Every entry is finite; entries down to -1e-12 are round-off and clip to
    0, and the sum is 1 within 1e-9 (NumericalInstability otherwise)."""

    N: int
    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "N", checked_integer(self.N, "N", 0, MAX_INT64, COUNT_RULE))
        arr = np.array(self.probs, dtype=np.float64)
        if arr.shape != (self.N + 1,):
            raise ValueError(
                f"click probabilities must have length N+1={self.N + 1}, got {arr.shape}"
            )
        low = float(arr.min(initial=0.0))  # NaN if any entry is NaN
        if math.isnan(low):  # NaN passes every comparison; -inf and +inf fail the two below
            raise NumericalInstability("click probability nan is not finite")
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
    """Q_B and Q_M values for one state/detector configuration.

    Every number is finite (``q_m_photons`` may be None), and Q_B is at
    least -1; ValueError otherwise, so every report can be written and read
    back."""

    q_b: float
    q_m_clicks: float
    q_m_photons: float | None
    click_mean: float
    click_variance: float

    def __post_init__(self):
        for name, value in vars(self).items():
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name}={value!r} is not finite")
        if self.q_b < -1.0 - 1e-9:
            raise ValueError(f"q_b={self.q_b!r} violates the variance floor of -1")


def _occupancy_step(occ: np.ndarray, N: int, eta: float) -> np.ndarray:
    """Add one photon that survives with probability eta and lands uniformly.

    The stay factor (1 - eta) + eta k/N is formed as ((1 - eta) N + eta k)/N,
    a sum of nonnegative terms: 1 - eta (N - k)/N would cancel at small k/N,
    and fl(k/N) errs with one sign at every step. At eta = 1 it is k/N.
    """
    ks = np.arange(occ.size)
    new = occ * ((1.0 - eta) * N + eta * ks) / N
    new[1:] += occ[:-1] * (eta * (N - ks[1:] + 1)) / N
    return new


def _thermal_solve(mu: float, b: np.ndarray, N: int, eta: float) -> np.ndarray:
    """G(T) b for thermal light: solve ((1 + mu) I - mu T) c = b.

    Forward substitution c_k = (b_k + m (N-k+1) c_{k-1}) / (1 + m (N-k)),
    m = mu eta / N; every term is nonnegative and nothing is truncated.
    c_0 = b_0 / (1 + m N) is formed alone: near the top of the float range
    m (N+1) overflows, and inf times the absent c_{-1} = 0 would be NaN.
    Where m N itself overflows (the last floats below the largest, at some
    N), inf times c_0 = 0 would be NaN at k = 1, and the law is its limit
    as m grows: every detector clicks, c = e_N, within about 1/m of the
    exact law.
    """
    m = mu * eta / N
    if m * N == math.inf:
        return np.eye(1, N + 1, N)[0]
    entries = iter(b.tolist())
    prev = next(entries) / (1.0 + m * N)
    out = [prev]
    for k, bk in enumerate(entries, 1):
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


def _resolvent_sums(theta: np.ndarray, parts: list, cosh_r: float, t: float, b: np.ndarray,
                    N: int, eta: float) -> np.ndarray:
    """Per entry k, sums over parts of theta of (I - q T^2)^-1 b,
    q = t^2 sin^2 theta: one forward substitution over T^2's diagonal
    stay_k^2 and its two subdiagonals, the nodes as the numpy vector.

    Each (start, stop, width) of ``parts`` takes theta[start:stop] as
    ``width`` interleaved sets and adds one column per set: at width 1
    numpy sums the nodes pairwise (its order along a contiguous row), at
    width 2 the even and the odd nodes left to right (its order along a
    strided axis). The rows wait in a rolling block of about ROW_BLOCK
    floats and are summed a block at a time, so no buffer grows as
    (N+1) x nodes.

    The divisor 1 - q stay_k^2 is formed as
    cos^2 theta + sin^2 theta / cosh^2 r + q (1 - stay_k)(1 + stay_k), with
    1 - stay_k = eta (N - k)/N, so every term is nonnegative.
    """
    sin2 = np.sin(theta) ** 2
    q = t * t * sin2
    base = np.cos(theta) ** 2 + sin2 / (cosh_r * cosh_r)
    ks = np.arange(-1, N + 1)  # k = -1 too, whose weights only ever meet zero rows
    stay, move = ((1.0 - eta) * N + eta * ks) / N, eta * (N - ks + 1) / N
    one, two = move[1:] * (stay[1:] + stay[:-1]), move[1:] * move[:-1]
    side = eta * (N - ks[1:]) / N * (1.0 + stay[1:])
    # Row k % rows takes c_k, and rows k % rows - 1 and - 2 (wrapping, and
    # zero before they are first written) hold c_{k-1} and c_{k-2}; with at
    # least 3 rows, c_k never overwrites them.
    rows = max(3, ROW_BLOCK // theta.size)
    block, out = np.zeros((rows, theta.size)), np.empty((N + 1, sum(w for *_, w in parts)))
    for k, (bk, one_k, two_k, s) in enumerate(zip(*(v.tolist() for v in (b, one, two, side)))):
        c = np.multiply(block[k % rows - 1], one_k, out=block[k % rows])
        c += block[k % rows - 2] * two_k
        c *= q
        c += bk
        c /= base + q * s
        if k % rows == rows - 1 or k == N:
            done = block[: k % rows + 1]
            out[k - k % rows: k + 1] = np.concatenate(
                [done[:, lo:hi].reshape(len(done), -1, w).sum(axis=1) for lo, hi, w in parts], 1)
    return out


def _squeezed_law(leaf: StateSpec, config: DetectorConfig, b: np.ndarray) -> np.ndarray:
    """G(T) b = (1/cosh r) (1/pi) int_0^pi (I - q_theta T^2)^-1 b dtheta for
    squeezed vacuum, q_theta = tanh^2 r sin^2 theta, by the trapezoid rule.

    The integrand is periodic and analytic, so the rule converges
    geometrically, and its nodes theta_j = pi j/n nest. One forward
    substitution evaluates the rule of 4 QUADRATURE_START nodes: the
    QUADRATURE_START-node rule in natural order, then the odd nodes that
    each of two doublings adds. The rules are tested from QUADRATURE_START
    nodes up, the first against the rule of its even nodes, until two
    successive rules agree to QUADRATURE_TOL relative on every entry above
    1e-300. Past the first pass each doubling evaluates its new odd nodes
    alone; beyond QUADRATURE_CAP nodes, TruncationOverflow.

    Each sum is formed in the order that a pass of its nodes alone takes
    (``_resolvent_sums``' widths), so the rule chosen and every entry are
    those of a doubling that evaluates each rule in a pass of its own.
    """
    (cosh_r, t), N, eta = _squeezing(leaf.r), config.N, config.eta
    n = QUADRATURE_START
    parts = [(0, n, 2), (n, 2 * n, 1), (2 * n, 4 * n, 1)]  # even and odd, then each rule's odd
    theta = np.concatenate([np.pi / n * np.arange(n)]
                           + [np.pi / m * np.arange(1, m, 2) for _, m, _ in parts[1:]])
    even, odd, *added = _resolvent_sums(theta, parts, cosh_r, t, b, N, eta).T
    total = even + odd
    coarse, fine = even / (n // 2 * cosh_r), total / (n * cosh_r)
    while np.any((fine > 1e-300) & (np.abs(fine - coarse) > QUADRATURE_TOL * fine)):
        if n >= QUADRATURE_CAP:
            raise TruncationOverflow(
                f"squeezed vacuum with r={leaf.r} needs more than {QUADRATURE_CAP} "
                f"quadrature nodes at N={N}"
            )
        if not added:  # a pass of the 2n-node rule's odd nodes
            theta = np.pi / (2 * n) * np.arange(1, 2 * n, 2)
            added = [_resolvent_sums(theta, [(0, n, 1)], cosh_r, t, b, N, eta)[:, 0]]
        total = total + added.pop(0)
        n *= 2
        coarse, fine = fine, total / (n * cosh_r)
    return fine


def _photon_chain(spec: StateSpec, config: DetectorConfig, b: np.ndarray) -> np.ndarray:
    """The chain over the photon law of a leaf or of a whole state (a
    mixture's law is the weight-sum of its leaves'); TruncationOverflow
    beyond its cap."""
    return _chain(make_distribution(spec).probs, b, config.N, config.eta)


# G(T) b for each pure leaf kind: the binomial law with
# p = 1 - exp(-nu - eta mu / N), the thermal solve, the chain over the
# photon law (one-hot for a Fock state), and the squeezed quadrature.
_LEAF_LAWS = {
    "coherent": lambda leaf, config, b: binomial_pmf(
        config.N, -math.expm1(-config.nu - config.eta * leaf.mean_photons / config.N)
    ),
    "thermal": lambda leaf, config, b: _thermal_solve(leaf.mean_photons, b, config.N, config.eta),
    "fock": _photon_chain,
    "squeezed_vacuum": _squeezed_law,
    "explicit": _photon_chain,
}


def _path_a(spec: StateSpec, config: DetectorConfig) -> np.ndarray:
    """Generating-function click distribution: the click law is linear in the
    state, so it is the weighted sum of the leaf laws."""
    b = _dark_law(config)
    raw = np.zeros(config.N + 1)
    for weight, leaf in spec.flattened():
        if weight:
            raw += weight * _LEAF_LAWS[leaf.kind](leaf, config, b)
    return raw


def _path_b(spec: StateSpec, config: DetectorConfig) -> np.ndarray:
    """Occupancy-recurrence click distribution; all terms nonnegative.

    The chain over the whole state's truncated photon law, started from the
    dark-count law b; each photon independently stays undetected with
    probability 1 - eta or occupies a uniformly chosen detector.
    """
    return _photon_chain(spec, config, _dark_law(config))


# One route per method: "auto" is the generating-function route, and
# "occupancy_dp" the truncated chain it is checked against.
_ROUTES = {"generating_function": _path_a, "occupancy_dp": _path_b, "auto": _path_a}


def click_distribution(
    spec: StateSpec, config: DetectorConfig, method: str = "auto"
) -> ClickDistribution:
    """Exact distribution of the number of clicking detectors.

    ``method`` selects the evaluation route: "generating_function" or its
    name "auto" (Path A, leaf by leaf), or "occupancy_dp" (Path B). The law
    passes ClickDistribution's checks or raises NumericalInstability.
    """
    if method not in _ROUTES:
        raise ValueError(f"method must be one of {tuple(_ROUTES)}, got {method!r}")
    return ClickDistribution(config.N, _ROUTES[method](spec, config))


def occupancy_distribution(m: int, N: int) -> np.ndarray:
    """Distribution of the number of occupied bins after m uniform throws.

    Returns probabilities over k = 0..min(m, N). Equivalent to
    C(N,k) k! S(m,k) / N^m with S the Stirling numbers of the second kind:
    the chain over the one-hot law of m at eta = 1, started from k = 0,
    which is the stable forward recurrence
    O_{m+1}(k) = O_m(k) k/N + O_m(k-1) (N-k+1)/N. m and N take the number
    rule of every integer input (``checked_integer``); N has no upper bound.
    """
    m = checked_integer(m, "m", 0, MAX_NMAX, f"must be an integer in [0, {MAX_NMAX}]")
    N = checked_integer(N, "N", 1, math.inf, "must be a positive integer")
    start = np.zeros(min(m, N) + 1)
    start[0] = 1.0
    return _chain([0.0] * m + [1.0], start, N, 1.0)


def binomial_reference(N: int, p: float) -> ClickDistribution:
    """Binomial click law C(N,k) p^k (1-p)^{N-k}; the Q_B = 0 reference.

    p and N take the number rule of every real input (``checked_real``)."""
    p = checked_real(p, "p", 0.0, 1.0, UNIT_INTERVAL)
    N = checked_integer(N, "N", 1, MAX_DETECTORS, _N_RULE)
    return ClickDistribution(N, binomial_pmf(N, p))


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
    is undefined, and exactly 0 for Q_B at N = 1, where every click law is a
    Bernoulli law (the sample estimators keep the formula: their unbiased
    variance makes Q_B = 1/(n - 1) there). Plain float arithmetic: on one
    value numpy takes about 3 us against 0.3 us, and a sweep point, about
    0.1 ms, needs two values."""
    if not _defined(mean, statistic, N):
        if statistic == "q_b":
            raise DegenerateMean(
                f"click mean {mean!r} is within {DEGENERATE_MEAN_TOL} of the boundary of [0, {N}]"
            )
        raise DegenerateMean(f"mean count {mean!r} below {DEGENERATE_MEAN_TOL}")
    if statistic == "q_b" and N == 1:
        return 0.0  # one detector's clicks are Bernoulli: variance = mean (1 - mean)
    return _q_formula(mean, variance, statistic, N)


def qb_parameter(dist: ClickDistribution) -> float:
    """Binomial-referenced nonclassicality parameter of a click distribution.

    Q_B = N <(dc)^2> / (<c> (N - <c>)) - 1. Zero for every binomial click
    law; negative only for sub-binomial (nonclassical) statistics. Undefined
    when the mean click number sits within 1e-12 of 0 or N.
    """
    return q_value(*click_moments(dist), "q_b", dist.N)


def _as_count_probs(dist) -> np.ndarray:
    """The ``probs`` of a click or photon-number law, else the sequence."""
    arr = np.asarray(getattr(dist, "probs", dist), dtype=np.float64)
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


def click_statistics(
    spec: StateSpec, config: DetectorConfig, method: str = "auto"
) -> tuple[float, float, float, float]:
    """(Q_B, Q_M of the clicks, click mean, click variance) of a state on a
    detector array: the one path from a state to its Q numbers, shared by
    ``nonclassicality_report`` and every ``sweep`` row. The law comes from
    this module's global ``click_distribution``, so a hook installed there
    (the benchmark's law capture) sees every law."""
    mean, variance = click_moments(click_distribution(spec, config, method))
    q_b = q_value(mean, variance, "q_b", config.N)
    q_m = q_value(mean, variance, "q_m")
    return q_b, q_m, mean, variance


def nonclassicality_report(
    spec: StateSpec, config: DetectorConfig, method: str = "auto"
) -> NonclassicalityReport:
    """Q_B and Q_M (clicks and photons) for a state and detector array.

    The click side is ``click_statistics``. The photon-side Mandel
    parameter comes from the state's exact photon moments
    (``state_moments``), not from its truncated law; it is None when the
    photon mean is degenerate (vacuum).
    """
    q_b, q_m_clicks, mean, variance = click_statistics(spec, config, method)
    try:
        q_m_photons = q_value(*state_moments(spec), "q_m")
    except DegenerateMean:
        q_m_photons = None
    return NonclassicalityReport(
        q_b=q_b,
        q_m_clicks=q_m_clicks,
        q_m_photons=q_m_photons,
        click_mean=mean,
        click_variance=variance,
    )
