"""Independent brute-force oracles the tests check the library against.

Everything here is deliberately naive: exhaustive enumeration, exact
rational arithmetic, and closed-form factorial-moment identities. None of
it shares code with the evaluation paths under test.
"""

from fractions import Fraction
from itertools import product
import math

import numpy as np


def occupancy_by_enumeration(m: int, N: int) -> list[Fraction]:
    """Occupied-bin law by enumerating all N^m equally likely placements."""
    counts = [0] * (min(m, N) + 1)
    for placement in product(range(N), repeat=m):
        counts[len(set(placement))] += 1
    total = N**m
    return [Fraction(c, total) for c in counts]


def stirling2(m: int, k: int) -> int:
    """Stirling numbers of the second kind by the standard recurrence."""
    if m == 0:
        return 1 if k == 0 else 0
    if k == 0 or k > m:
        return 0
    return k * stirling2(m - 1, k) + stirling2(m - 1, k - 1)


def occupancy_by_stirling(m: int, N: int) -> list[Fraction]:
    """Occupied-bin law as C(N,k) k! S(m,k) / N^m."""
    return [
        Fraction(math.comb(N, k) * math.factorial(k) * stirling2(m, k), N**m)
        for k in range(min(m, N) + 1)
    ]


def fock_clicks_by_enumeration(
    n: int, N: int, eta: float, nu: float = 0.0
) -> np.ndarray:
    """Click law for an n-photon input by enumerating every sample path.

    Iterates over all survival patterns, all placements of the survivors,
    and all dark-click patterns. Exponential cost; keep n and N tiny.
    """
    d = -math.expm1(-nu)
    law = np.zeros(N + 1)
    for survive in product((0, 1), repeat=n):
        m = sum(survive)
        p_survive = eta**m * (1.0 - eta) ** (n - m)
        if p_survive == 0.0:
            continue
        for placement in product(range(N), repeat=m):
            p_place = p_survive / N**m
            occupied = set(placement)
            for dark in product((0, 1), repeat=N):
                p_dark = 1.0
                for bit in dark:
                    p_dark *= d if bit else (1.0 - d)
                if p_dark == 0.0:
                    continue
                clicks = sum(
                    1 for i in range(N) if i in occupied or dark[i]
                )
                law[clicks] += p_place * p_dark
    return law


def clicks_from_photon_probs(
    probs, N: int, eta: float, nu: float = 0.0
) -> np.ndarray:
    """Click law of an arbitrary small photon-number distribution."""
    law = np.zeros(N + 1)
    for n, p in enumerate(probs):
        if p:
            law += p * fock_clicks_by_enumeration(n, N, eta, nu)
    return law


def click_moments_from_gf(gf, N: int, eta: float, nu: float = 0.0):
    """Click mean and variance from silent-detector pair probabilities.

    With S silent detectors, E[S] = N p1 and E[S(S-1)] = N(N-1) p2 where
    p1 = exp(-nu) G(1 - eta/N) and p2 = exp(-2 nu) G(1 - 2 eta/N); the
    click count is c = N - S.
    """
    p1 = math.exp(-nu) * gf(1.0 - eta / N)
    p2 = math.exp(-2.0 * nu) * gf(max(0.0, 1.0 - 2.0 * eta / N)) if N > 1 else 0.0
    e_s = N * p1
    e_s_pair = N * (N - 1) * p2
    var_s = e_s_pair + e_s - e_s * e_s
    return N - e_s, var_s


def binomial_row(n: int, d: float) -> np.ndarray:
    """C(n,m) d^m (1-d)^(n-m) for m = 0..n, one float product per entry."""
    q = 1.0 - d
    return np.array([float(math.comb(n, m)) * d**m * q ** (n - m) for m in range(n + 1)])


def dark_convolution_by_rows(occ_probs, N: int, nu: float) -> np.ndarray:
    """Occupied-detector law convolved with dark clicks, one binomial row per k.

    The per-k loop the library used before its dark step became a single
    matrix product: k occupied detectors leave N-k free ones, each firing
    with probability d = 1 - exp(-nu).
    """
    d = -math.expm1(-nu)
    out = np.zeros(N + 1)
    for k, weight in enumerate(occ_probs):
        if weight:
            out[k:] += weight * binomial_row(N - k, d)
    return out
