"""Binomial and Poisson probability laws in plain numpy.

Both laws use Loader's saddle-point form (C. Loader, "Fast and accurate
computation of binomial probabilities", 2000). The log probability splits
into Stirling-series remainders and the deviance

    bd0(x, m) = x log(x / m) + m - x >= 0,

each small and evaluated without cancellation. Entries above 1e-20 therefore
keep a relative error of a few 1e-14 for N up to 1024 and means up to
several thousand, where differences of log-gamma values lose digits in
proportion to lgamma(N) itself.
"""

from __future__ import annotations

import math

import numpy as np

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)

# Below n = 16 the Stirling series converges too slowly; the remainder is
# formed instead as the log of n! e^n / (n^n sqrt(n)), whose float value is
# accurate to a few ulps because n! and n^n are exact integers.
_SMALL_STIRLERR = np.array(
    [0.0]  # n = 0 is never used
    + [
        math.log(math.factorial(n) / n**n * math.exp(n) / math.sqrt(n)) - _HALF_LOG_2PI
        for n in range(1, 16)
    ]
)

# Deviance arguments with |x - m| < _SERIES_V (x + m) take the series branch.
_SERIES_V = 0.2


def _stirlerr(n: np.ndarray) -> np.ndarray:
    """log(n!) - log(sqrt(2 pi n) (n/e)^n) for integers n >= 1."""
    out = np.empty(n.shape)
    small = n < _SMALL_STIRLERR.size
    out[small] = _SMALL_STIRLERR[n[small]]
    large = n[~small].astype(np.float64)
    inv2 = 1.0 / (large * large)
    out[~small] = (
        1.0 / 12.0
        - inv2 * (1.0 / 360.0
                  - inv2 * (1.0 / 1260.0 - inv2 * (1.0 / 1680.0 - inv2 / 1188.0)))
    ) / large
    return out


def _bd0(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Deviance x log(x/m) + m - x, elementwise for x > 0 and m > 0.

    Near x = m the expression cancels, so there it is summed as the series
    (x - m) v + 2x v^3 (1/3 + v^2/5 + v^4/7 + ...) with v = (x - m)/(x + m),
    cut where the next term falls below 1e-17 of the first. Elsewhere the
    parts of x log1p((x - m)/m) + m - x cancel by a factor of six at most.
    """
    diff = x - m
    v = diff / (x + m)
    # A subnormal m overflows diff / m; the deviance is then +inf, and the
    # probability built from it, whose true value is subnormal, comes out 0.
    with np.errstate(over="ignore"):
        out = x * np.log1p(diff / m) - diff
    near = np.abs(v) < _SERIES_V
    if near.any():
        vn = v[near]
        v2 = vn * vn
        top = float(v2.max())
        terms = 1 + int(math.log(1e-17) / math.log(top)) if top > 0.0 else 1
        poly = 1.0 / (2 * terms + 1)
        for j in range(terms - 1, 0, -1):
            poly = poly * v2 + 1.0 / (2 * j + 1)
        out[near] = diff[near] * vn + 2.0 * x[near] * vn * v2 * poly
    return out


def binomial_pmf(N: int, p: float) -> np.ndarray:
    """C(N,k) p^k (1-p)^(N-k) for k = 0..N, by Loader's saddle-point form."""
    probs = np.zeros(N + 1)
    if p == 0.0 or p == 1.0:
        probs[0 if p == 0.0 else N] = 1.0
        return probs
    probs[0] = math.exp(N * math.log1p(-p))
    probs[N] = math.exp(N * math.log(p))
    if N > 1:
        # k and N - k share one Stirling table and one deviance call.
        k = np.arange(1, N)
        stirl = _stirlerr(np.arange(1, N + 1))
        x = np.concatenate((k, N - k)).astype(np.float64)
        m = np.repeat((N * p, N * (1.0 - p)), N - 1)
        dev = _bd0(x, m)
        log_core = (stirl[-1] - stirl[:-1] - stirl[-2::-1]) - (dev[: N - 1] + dev[N - 1 :])
        probs[1:N] = np.exp(log_core) / np.sqrt(2.0 * math.pi * k * (N - k) / N)
    return probs


def poisson_pmf(mu: float, size: int) -> np.ndarray:
    """exp(-mu) mu^n / n! for n = 0..size-1, by Loader's saddle-point form."""
    probs = np.empty(size)
    probs[0] = math.exp(-mu)
    if size > 1:
        n = np.arange(1, size)
        x = n.astype(np.float64)
        log_core = -_stirlerr(n) - _bd0(x, np.full(x.shape, mu))
        probs[1:] = np.exp(log_core) / np.sqrt(2.0 * math.pi * x)
    return probs


def law_moments(weights: np.ndarray, total: float = 1.0, values=None):
    """Mean and variance of the values under the weights w_k / total.

    The values default to k = 0, 1, ...; explicit ones, one per weight, let a
    histogram list only the values that occur. Works along the last axis, so
    a 2-d array of count vectors gives one mean and one variance per row. The
    variance is the two-pass sum sum_k (x_k - mean)^2 w_k / total: every term
    is nonnegative, whereas E[x^2] - mean^2 loses digits in proportion to
    E[x^2] / variance.
    """
    if values is None:
        k = np.arange(weights.shape[-1], dtype=np.float64)
    else:
        k = np.asarray(values, dtype=np.float64)
    mean = (weights @ k) / total
    dev = k - mean[..., None]
    dev *= dev
    dev *= weights
    return mean, dev.sum(axis=-1) / total
