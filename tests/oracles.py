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


def gf_mp(spec, x):
    """G(x) of a coherent, thermal or Fock state, or a mixture of them, in mpmath."""
    if spec.kind == "coherent":
        return mpmath.exp(-mpmath.mpf(spec.mean_photons) * (1 - x))
    if spec.kind == "thermal":
        return 1 / (1 + mpmath.mpf(spec.mean_photons) * (1 - x))
    if spec.kind == "fock":
        return x**spec.n
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
    """Click law of a coherent, thermal or Fock state (or a mixture), in mpmath.

    Coherent light gives Binomial(N, 1 - e^{-nu - eta mu/N}). Thermal light
    solves ((1+mu) I - mu T) c = b by forward substitution, b the dark-count
    binomial. A Fock state sums over j occupied detectors, the occupancy law
    sum_m Binomial(n, eta)(m) C(N,j) j! S(m,j) / N^m, with dark clicks on the
    N - j others.
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
        n = spec.n
        survivors = _binomial_mp(n, eta)
        out = [mpmath.mpf(0)] * (N + 1)
        for j in range(min(n, N) + 1):
            occupied = math.comb(N, j) * math.factorial(j) * mpmath.fsum(
                survivors[m] * stirling2(m, j) / mpmath.mpf(N) ** m for m in range(j, n + 1)
            )
            for extra, weight in enumerate(_binomial_mp(N - j, d)):
                out[j + extra] += occupied * weight
        return out
    raise ValueError(f"no mpmath click law for {spec.kind!r}")


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
    lines skipped after the header, one integer per line. The only addition
    is the ``stream`` preamble tag, an integer when present.
    """
    from clickstats import ClickSampleSet, DetectorConfig
    from clickstats.errors import InsufficientData, InvalidSample, ParseError
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
    if not 1 <= N < 2**63:
        raise ParseError("preamble N is not a positive 64-bit integer")
    try:
        clicks = np.asarray(rows, dtype=np.int64)
    except OverflowError:
        raise ParseError("click records must fit a 64-bit integer")
    if clicks.min() < 0 or clicks.max() > N:
        raise InvalidSample(f"click records must lie in [0, {N}]")
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
        if not all(
            (isinstance(v, int) and not isinstance(v, bool))
            or (isinstance(v, float) and math.isfinite(v))
            for v in raw_cfg.values()
        ):
            raise ParseError("preamble config values must be finite numbers")
        config_echo = DetectorConfig(
            N=raw_cfg["N"], eta=float(raw_cfg["eta"]), nu=float(raw_cfg["nu"])
        )
    return ClickSampleSet(
        N=N, clicks=clicks, seed=seed, trials=len(rows),
        config_echo=config_echo, state_echo=state_echo, stream=stream,
    )
