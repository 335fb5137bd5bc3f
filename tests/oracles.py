"""Independent brute-force oracles the tests check the library against.

Everything here is deliberately naive: exhaustive enumeration, exact
rational arithmetic, closed-form factorial-moment identities, click laws in
high-precision mpmath, and a sample record reader that converts one line at
a time. None of it shares code with
the evaluation paths under test; the reader only builds its result from the
package's data types and state parser.
"""

import functools
import json
from fractions import Fraction
from itertools import product
import math

import mpmath
import numpy as np


def occupancy_by_enumeration(m: int, N: int) -> list[Fraction]:
    """Occupied-bin law by enumerating all N^m equally likely placements."""
    counts = [0] * (min(m, N) + 1)
    for placement in product(range(N), repeat=m):
        counts[len(set(placement))] += 1
    total = N**m
    return [Fraction(c, total) for c in counts]


@functools.cache
def stirling2(m: int, k: int) -> int:
    """Stirling numbers of the second kind by the standard recurrence.

    Cached: uncached, the recurrence takes time exponential in m.
    """
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


def chain_by_fractions(weights, start, N: int, eta: float) -> list[Fraction]:
    """sum_n w_n T^n start in exact rationals, T the one-photon occupancy step.

    Each photon survives with probability eta (taken as the exact binary
    value of the float) and lands on one of N detectors uniformly:
    k occupied detectors stay k with probability (1 - eta) + eta k/N and
    become k + 1 with probability eta (N - k)/N. Float inputs convert
    exactly, so the result is the true value of the float problem.
    """
    e = Fraction(eta)
    occ = [Fraction(x) for x in start]
    acc = [Fraction(0)] * len(occ)
    for n, weight in enumerate(weights):
        if n:
            occ = [
                occ[k] * (1 - e + e * Fraction(k, N))
                + (occ[k - 1] * e * Fraction(N - k + 1, N) if k else 0)
                for k in range(len(occ))
            ]
        if weight:
            acc = [a + Fraction(weight) * o for a, o in zip(acc, occ)]
    return acc


def occupancy_by_kn_loop(m: int, N: int) -> np.ndarray:
    """Occupied-bin law by the float forward recurrence with stay factor k/N.

    The loop ``occupancy_distribution`` ran on its own before it became a
    chain over a one-hot law: O_{m+1}(k) = O_m(k) k/N + O_m(k-1) (N-k+1)/N,
    started from k = 0.
    """
    size = min(m, N) + 1
    occ = np.zeros(size)
    occ[0] = 1.0
    ks = np.arange(size)
    for _ in range(m):
        new = occ * ks / N
        new[1:] += occ[:-1] * (N - ks[1:] + 1) / N
        occ = new
    return occ


def binomial_row(n: int, d: float) -> np.ndarray:
    """C(n,m) d^m (1-d)^(n-m) for m = 0..n, one float product per entry."""
    q = 1.0 - d
    return np.array([float(math.comb(n, m)) * d**m * q ** (n - m) for m in range(n + 1)])


def dark_convolution_by_rows(occ_probs, N: int, nu: float) -> np.ndarray:
    """Occupied-detector law convolved with dark clicks, one binomial row per k.

    The per-k loop the library once used as its dark step: k occupied
    detectors leave N-k free ones, each firing with probability
    d = 1 - exp(-nu).
    """
    d = -math.expm1(-nu)
    out = np.zeros(N + 1)
    for k, weight in enumerate(occ_probs):
        if weight:
            out[k:] += weight * binomial_row(N - k, d)
    return out


def _resolvent_sums_per_pass(theta, cosh_r: float, t: float, b, N: int, eta: float):
    """Per entry k, the sum over the last axis of theta of (I - q T^2)^-1 b,
    q = t^2 sin^2 theta: the forward substitution over T^2 with every row
    summed as it is formed, one pass per call."""
    sin2 = np.sin(theta) ** 2
    q = t * t * sin2
    base = np.cos(theta) ** 2 + sin2 / (cosh_r * cosh_r)
    out = np.empty((N + 1,) + theta.shape[:-1])
    c1 = c2 = stay1 = move1 = 0.0
    for k, bk in enumerate(b.tolist()):
        stay = ((1.0 - eta) * N + eta * k) / N
        move = eta * (N - k + 1) / N
        c = (bk + q * (move * (stay + stay1) * c1 + move * move1 * c2)) / (
            base + q * (eta * (N - k) / N * (1.0 + stay))
        )
        out[k] = c.sum(axis=-1)
        c2, c1, stay1, move1 = c1, c, stay, move
    return out


def squeezed_law_by_doubling(r: float, b, N: int, eta: float, tol: float = 1e-7):
    """The squeezed-vacuum click law by the nested trapezoid rule, one pass
    per rule: a first pass over 64 nodes, whose even nodes give the 32-node
    rule, then one pass per doubling over its new odd nodes, until two
    successive rules agree to ``tol`` relative on every entry above 1e-300.

    The rule ``click_kernel`` ran before its first pass held three rules;
    b is the dark-count law, taken as given. No node cap."""
    cosh_r, t = math.cosh(r), math.tanh(r)
    n = 64
    theta = np.pi / n * np.arange(n).reshape(n // 2, 2).T  # even nodes, odd nodes
    even, odd = _resolvent_sums_per_pass(theta, cosh_r, t, b, N, eta).T
    total = even + odd
    coarse, fine = even / (n // 2 * cosh_r), total / (n * cosh_r)
    while np.any((fine > 1e-300) & (np.abs(fine - coarse) > tol * fine)):
        nodes = np.pi / (2 * n) * (2 * np.arange(n) + 1)  # the new odd nodes
        total = total + _resolvent_sums_per_pass(nodes, cosh_r, t, b, N, eta)
        n *= 2
        coarse, fine = fine, total / (n * cosh_r)
    return fine


def _explicit_mp(spec) -> list:
    """An explicit law's table in mpmath, normalized exactly."""
    total = mpmath.fsum(mpmath.mpf(p) for p in spec.probs)
    return [mpmath.mpf(p) / total for p in spec.probs]


def gf_mp(spec, x):
    """G(x) of a coherent, thermal, Fock, squeezed-vacuum or explicit state,
    or a mixture of them, in mpmath."""
    if spec.kind == "explicit":
        return mpmath.fsum(p * x**n for n, p in enumerate(_explicit_mp(spec)))
    if spec.kind == "coherent":
        return mpmath.exp(-mpmath.mpf(spec.mean_photons) * (1 - x))
    if spec.kind == "thermal":
        return 1 / (1 + mpmath.mpf(spec.mean_photons) * (1 - x))
    if spec.kind == "fock":
        return x**spec.n
    if spec.kind == "squeezed_vacuum":
        r = mpmath.mpf(spec.r)
        return 1 / (mpmath.cosh(r) * mpmath.sqrt(1 - (x * mpmath.tanh(r)) ** 2))
    if spec.kind == "mixture":
        return mpmath.fsum(mpmath.mpf(w) * gf_mp(leaf, x) for w, leaf in spec.components)
    raise ValueError(f"no mpmath generating function for {spec.kind!r}")


def clicks_by_inclusion_exclusion_mp(spec, N: int, eta: float, nu: float) -> list:
    """c_k = C(N,k) sum_j C(k,j) (-1)^j e^{-nu s} G(1 - eta s/N), s = N-k+j.

    Evaluated at the caller's mpmath precision: the terms reach 3^N, so the
    alternating sum keeps about dps - N log10(3) digits.
    """
    eta, nu = mpmath.mpf(eta), mpmath.mpf(nu)
    g = [mpmath.exp(-nu * s) * gf_mp(spec, 1 - eta * s / N) for s in range(N + 1)]
    return [
        math.comb(N, k)
        * mpmath.fsum((-1) ** j * math.comb(k, j) * g[N - k + j] for j in range(k + 1))
        for k in range(N + 1)
    ]


def _binomial_mp(n: int, p) -> list:
    return [math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(n + 1)]


def leaf_clicks_mp(spec, N: int, eta: float, nu: float) -> list:
    """Click law of a coherent, thermal, Fock or explicit state (or a
    mixture), in mpmath.

    Coherent light gives Binomial(N, 1 - e^{-nu - eta mu/N}). Thermal light
    solves ((1+mu) I - mu T) c = b by forward substitution, b the dark-count
    binomial. A Fock state n, or an explicit law p_n, sums over j occupied
    detectors, the occupancy law
    sum_n p_n sum_m Binomial(n, eta)(m) C(N,j) j! S(m,j) / N^m, with dark
    clicks on the N - j others.
    """
    eta, nu = mpmath.mpf(eta), mpmath.mpf(nu)
    d = 1 - mpmath.exp(-nu)
    if spec.kind == "mixture":
        laws = [(w, leaf_clicks_mp(leaf, N, eta, nu)) for w, leaf in spec.components]
        return [mpmath.fsum(mpmath.mpf(w) * law[k] for w, law in laws) for k in range(N + 1)]
    if spec.kind == "coherent":
        return _binomial_mp(N, 1 - mpmath.exp(-nu - eta * mpmath.mpf(spec.mean_photons) / N))
    if spec.kind == "thermal":
        m = mpmath.mpf(spec.mean_photons) * eta / N
        out, prev = [], mpmath.mpf(0)
        for k, bk in enumerate(_binomial_mp(N, d)):
            prev = (bk + m * (N - k + 1) * prev) / (1 + m * (N - k))
            out.append(prev)
        return out
    if spec.kind == "fock":
        photons = [0] * spec.n + [1]
    elif spec.kind == "explicit":
        photons = _explicit_mp(spec)
    else:
        raise ValueError(f"no mpmath click law for {spec.kind!r}")
    # survivors[m]: the probability that m photons survive the loss.
    survivors = [mpmath.mpf(0)] * len(photons)
    for n, p in enumerate(photons):
        if p:
            for m, q in enumerate(_binomial_mp(n, eta)):
                survivors[m] += p * q
    out = [mpmath.mpf(0)] * (N + 1)
    for j in range(min(len(photons) - 1, N) + 1):
        occupied = math.comb(N, j) * math.factorial(j) * mpmath.fsum(
            survivors[m] * stirling2(m, j) / mpmath.mpf(N) ** m
            for m in range(j, len(photons))
        )
        for extra, weight in enumerate(_binomial_mp(N - j, d)):
            out[j + extra] += occupied * weight
    return out


def photon_moments_mp(spec, terms: int = 3000):
    """Mean and variance of a state's photon number, in mpmath, by summing
    n p_n and n^2 p_n over the first ``terms`` photon numbers of its law.

    Coherent, thermal and squeezed-vacuum laws are built from their closed
    forms; a mixture mixes the raw moments of its components.
    """

    def raw(leaf):
        if leaf.kind == "mixture":
            parts = [(mpmath.mpf(w), raw(sub)) for w, sub in leaf.components]
            return tuple(mpmath.fsum(w * m[i] for w, m in parts) for i in (0, 1))
        if leaf.kind == "fock":
            return mpmath.mpf(leaf.n), mpmath.mpf(leaf.n) ** 2
        if leaf.kind == "explicit":
            probs = _explicit_mp(leaf)
        elif leaf.kind == "coherent":
            mu = mpmath.mpf(leaf.mean_photons)
            probs = [mpmath.exp(-mu) * mu**n / mpmath.factorial(n) for n in range(terms)]
        elif leaf.kind == "thermal":
            mu = mpmath.mpf(leaf.mean_photons)
            probs = [mu**n / (1 + mu) ** (n + 1) for n in range(terms)]
        else:  # squeezed vacuum: p_2m = (2m)! tanh^2m r / (2^m m!)^2 / cosh r
            r = mpmath.mpf(leaf.r)
            probs = [mpmath.mpf(0)] * terms
            for m in range(terms // 2):
                probs[2 * m] = (
                    mpmath.factorial(2 * m) * mpmath.tanh(r) ** (2 * m)
                    / (2**m * mpmath.factorial(m)) ** 2 / mpmath.cosh(r)
                )
        return (
            mpmath.fsum(n * p for n, p in enumerate(probs)),
            mpmath.fsum(n * n * p for n, p in enumerate(probs)),
        )

    first, second = raw(spec)
    return first, second - first**2


def occupied_by_scatter(trial_ids, landed, size: int, N: int) -> np.ndarray:
    """Distinct detectors hit per trial, from a (size, N) boolean matrix.

    The simulator's count before it packed the occupancy into 64-bit words:
    every (trial, detector) photon pair marks its cell and each row is
    counted.
    """
    hit = np.zeros((size, N), dtype=bool)
    hit[trial_ids, landed] = True
    return np.count_nonzero(hit, axis=1).astype(np.int64)


def samples_from_text_by_lines(text: str):
    """The sample-record reader as it was before it became vectorized.

    It walks every line and converts each click with ``int``, so it states
    the accepted grammar directly: stripped lines, blank lines and ``#``
    lines skipped after the header, one integer per line. The additions are
    the ``stream`` preamble tag, an integer when present. The ranges of N, the
    clicks, the seed and the stream, and the rule that a ``config`` echo
    repeats N, are the record's own checks (``ClickSampleSet``).
    """
    from clickstats import ClickSampleSet, DetectorConfig
    from clickstats.errors import InsufficientData, ParseError
    from clickstats.states import parse_state_spec

    meta: dict[str, str] = {}
    rows: list[int] = []
    seen_header = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if seen_header:
                continue
            body = line[1:].strip()
            if "=" in body:
                key, _, value = body.partition("=")
                meta[key.strip()] = value.strip()
            continue
        if not seen_header:
            if line != "clicks":
                raise ParseError(f"line {lineno}: expected header, got {line!r}")
            seen_header = True
            continue
        try:
            rows.append(int(line))
        except ValueError:
            raise ParseError(f"line {lineno}: expected an integer, got {line!r}")

    if not rows:
        raise InsufficientData("sample file contains no click records")
    if "N" not in meta:
        raise ParseError("sample file preamble is missing N")

    def integer(key):
        try:
            return int(meta[key])
        except ValueError:
            raise ParseError(f"preamble {key} is not an integer")

    N = integer("N")
    try:
        clicks = np.asarray(rows, dtype=np.int64)
    except OverflowError:
        raise ParseError("click records must fit a 64-bit integer")
    seed = integer("seed") if "seed" in meta else 0
    if "trials" in meta and integer("trials") != len(rows):
        raise ParseError("preamble trials do not match the file")
    stream = integer("stream") if "stream" in meta else None

    state_echo = parse_state_spec(meta["state"]) if "state" in meta else None
    config_echo = None
    if "config" in meta:
        try:
            raw_cfg = json.loads(meta["config"])
        except (json.JSONDecodeError, RecursionError):
            raise ParseError("preamble config is not valid JSON")
        if not isinstance(raw_cfg, dict) or set(raw_cfg) != {"N", "eta", "nu"}:
            raise ParseError("preamble config must carry exactly N, eta, nu")
        config_echo = DetectorConfig(**raw_cfg)
    return ClickSampleSet(
        N=N, clicks=clicks, seed=seed, trials=len(rows),
        config_echo=config_echo, state_echo=state_echo, stream=stream,
    )
