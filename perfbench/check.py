"""Independent reference values and the output checker.

Nothing here calls clickstats. States arrive as the schema dictionaries the
workload generator produced (the same layout ``clickstats.state_from_dict``
accepts), and every reference is computed from the closed-form generating
function G(x) = sum_n p_n x^n of the untruncated state:

- the factorial-moment identity for the number S of silent detectors,
  E[S] = N e^{-nu} G(1 - eta/N) and E[S(S-1)] = N(N-1) e^{-2nu} G(1 - 2 eta/N),
  which gives the click mean N - E[S], the click variance and Q_B;
- the inclusion-exclusion click law
  c_k = C(N,k) sum_j C(k,j) (-1)^j e^{-nu(N-k+j)} G(1 - eta(N-k+j)/N),
  evaluated in mpmath with enough digits that the alternating sum loses
  nothing;
- the plug-in Q_B / Q_M of a click record, from ``np.bincount``.

Tolerances allow for the documented truncation of the photon-number law at
a tail mass of 1e-12 (``DEFAULT_TAIL_TOLERANCE``), which moves any click
probability by at most that mass, the mean by at most N times it and the
second moment by at most N^2 times it.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

TAIL = 1e-12  # documented default truncation tail of the photon-number law
NORMALIZATION_TOL = 1e-9  # documented tolerance of a returned click law
DIGITS_REL = 5e-12  # 12 significant digits
DEGENERATE_TOL = 1e-12  # documented boundary band of DegenerateMean
MOMENT_REL = 1e-11  # rounding allowance of a float moment sum
ESTIMATE_REL = 1e-9  # plug-in estimate against the benchmark's own bincount


# ---------------------------------------------------------------------------
# generating functions of the untruncated states


def gf(state: dict, x):
    """G(x) of a schema-form state at an mpmath point x in [0, 1]."""
    kind = state["kind"]
    if kind == "coherent":
        return mpmath.exp(-mpmath.mpf(state["mean_photons"]) * (1 - x))
    if kind == "thermal":
        return 1 / (1 + mpmath.mpf(state["mean_photons"]) * (1 - x))
    if kind == "fock":
        return x ** state["n"]
    if kind == "squeezed_vacuum":
        r = mpmath.mpf(state["r"])
        return 1 / (mpmath.cosh(r) * mpmath.sqrt(1 - (x * mpmath.tanh(r)) ** 2))
    if kind == "mixture":
        return mpmath.fsum(
            mpmath.mpf(c["weight"]) * gf(c["state"], x) for c in state["components"]
        )
    if kind == "explicit":
        probs = [mpmath.mpf(p) for p in state["probs"]]
        return mpmath.polyval(probs[::-1], x) / mpmath.fsum(probs)
    raise ValueError(f"unknown state kind {kind!r}")


def _silent_factor(state: dict, N: int, eta: float, nu: float, s: int):
    """P(a fixed set of s detectors stays silent)."""
    x = 1 - mpmath.mpf(eta) * s / N
    return mpmath.exp(-mpmath.mpf(nu) * s) * gf(state, x)


# ---------------------------------------------------------------------------
# click moments and Q_B from the factorial-moment identity


class Moments:
    """Reference click mean, variance, Q_B and Q_M of one (state, config)."""

    def __init__(self, state: dict, N: int, eta: float, nu: float):
        with mpmath.workdps(40):
            es = N * _silent_factor(state, N, eta, nu, 1)
            ess = N * (N - 1) * _silent_factor(state, N, eta, nu, 2) if N > 1 else 0
            mean = N - es
            var = ess + es - es * es
            self.N = N
            self.mean = float(mean)
            self.variance = float(max(var, 0))
            self.second = float(var + mean * mean)
            self.degenerate = bool(
                mean < DEGENERATE_TOL * 10 or mean > N - DEGENERATE_TOL * 10
            )
            # Inside this band the program may or may not call the mean
            # degenerate; only a clear interior mean demands a value.
            self.must_be_degenerate = bool(
                mean < DEGENERATE_TOL / 10 or mean > N - DEGENERATE_TOL / 10
            )
            if not self.degenerate:
                self.q_b = float(N * var / (mean * (N - mean)) - 1)
                self.q_m = float(var / mean - 1)

    def mean_tol(self) -> float:
        return 2 * TAIL * self.N + MOMENT_REL * max(self.mean, 1.0)

    def variance_tol(self) -> float:
        return 2 * TAIL * self.N**2 + MOMENT_REL * max(self.second, 1.0)

    def q_b_tol(self) -> float:
        m, N = self.mean, self.N
        rel = self.variance_tol() / max(self.variance, 1e-300) + self.mean_tol() * (
            abs(N - 2 * m) / (m * (N - m))
        )
        return (abs(self.q_b) + 1) * rel + 1e-12

    def q_m_tol(self) -> float:
        rel = self.variance_tol() / max(self.variance, 1e-300) + self.mean_tol() / self.mean
        return (abs(self.q_m) + 1) * rel + 1e-12


def _off(value: float, ref: float, tol: float, printed: float = 0.0) -> bool:
    """Whether value misses ref by more than tol (plus a printing allowance).

    ``printed`` is the relative rounding of a value read back from text,
    0 for a value taken from the program in memory.
    """
    tol += printed * abs(ref)
    return not (math.isfinite(value) and abs(value - ref) <= tol)


def _check_moments(q_b, q_m, mean, variance, ref: Moments, printed: float) -> list[str]:
    bad = []
    for name, value, expected, tol in (
        ("click_mean", mean, ref.mean, ref.mean_tol()),
        ("click_variance", variance, ref.variance, ref.variance_tol()),
        ("q_b", q_b, ref.q_b, ref.q_b_tol()),
        ("q_m_clicks", q_m, ref.q_m, ref.q_m_tol()),
    ):
        if _off(value, expected, tol, printed):
            bad.append(f"{name} {value!r} vs {expected!r}")
    return bad


def check_report(report, ref: Moments, printed: float = 0.0) -> list[str]:
    """Mismatches of a NonclassicalityReport against the moment identity."""
    return _check_moments(
        report.q_b, report.q_m_clicks, report.click_mean, report.click_variance,
        ref, printed,
    )


def check_sweep_row(row, ref: Moments, printed: float = 0.0) -> list[str]:
    """Mismatches of one run_sweep row (value, Q_B, Q_M, mean, variance)."""
    _, q_b, q_m, mean, variance = row
    return _check_moments(q_b, q_m, mean, variance, ref, printed)


# ---------------------------------------------------------------------------
# the click law itself


def check_law(probs, ref: Moments, printed: float = 0.0) -> list[str]:
    """Normalization, nonnegativity and the first two moments of c_0..c_N."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.shape != (ref.N + 1,) or not np.all(np.isfinite(probs)):
        return [f"click law has shape {probs.shape} or non-finite entries"]
    bad = []
    if float(probs.min()) < 0.0:
        bad.append(f"negative click probability {float(probs.min())!r}")
    total = math.fsum(probs)
    if abs(total - 1.0) > NORMALIZATION_TOL + printed:
        bad.append(f"click law sums to {total!r}")
    k = np.arange(probs.size, dtype=np.float64)
    mean = math.fsum(k * probs)
    if _off(mean, ref.mean, ref.mean_tol(), printed):
        bad.append(f"law mean {mean!r} vs {ref.mean!r}")
    return bad


def reference_law(state: dict, N: int, eta: float, nu: float) -> list:
    """Inclusion-exclusion c_0..c_N in mpmath (mpf values)."""
    # The largest term is at most C(N,k) C(k,j) <= 4^N; 40 spare digits
    # keep every entry exact far below the absolute tolerance used.
    with mpmath.workdps(40 + int(N * math.log10(4)) + 1):
        g = [_silent_factor(state, N, eta, nu, s) for s in range(N + 1)]
        law = []
        for k in range(N + 1):
            acc = mpmath.fsum(
                (-1) ** j * math.comb(k, j) * g[N - k + j] for j in range(k + 1)
            )
            law.append(math.comb(N, k) * acc)
        return [+c for c in law]


def check_digits(probs, ref_law: list) -> list[str]:
    """Every c_k to 12 significant digits, up to the truncation tail."""
    bad = []
    for k, (p, ref) in enumerate(zip(probs, ref_law)):
        ref = float(ref)
        if abs(float(p) - ref) > DIGITS_REL * abs(ref) + TAIL:
            bad.append(f"c_{k} = {float(p)!r}, reference {ref!r}")
    return bad


# ---------------------------------------------------------------------------
# click records


def plug_in(clicks: np.ndarray, N: int) -> tuple[float, float]:
    """Plug-in Q_B and Q_M with the unbiased sample variance, via bincount."""
    counts = np.bincount(clicks, minlength=N + 1)
    n = int(counts.sum())
    values = np.arange(counts.size)
    total = sum(int(c) * int(v) for c, v in zip(counts, values))
    total_sq = sum(int(c) * int(v) * int(v) for c, v in zip(counts, values))
    mean = total / n
    variance = (total_sq - total * total / n) / (n - 1)
    return N * variance / (mean * (N - mean)) - 1.0, variance / mean - 1.0


def read_clicks(path: str) -> np.ndarray:
    """The click column of a sample-record file, parsed without clickstats."""
    with open(path) as fh:
        lines = [line.strip() for line in fh if line.strip()]
    body = lines[lines.index("clicks") + 1:]
    return np.array([int(line) for line in body], dtype=np.int64)


def check_estimate(report, expected: float, printed: float = 0.0) -> list[str]:
    """A point estimate against the benchmark's own plug-in value."""
    value = report.point_estimate
    if _off(value, expected, ESTIMATE_REL * (abs(expected) + 1), printed):
        return [f"{report.statistic_name} estimate {value!r} vs plug-in {expected!r}"]
    if report.bootstrap_replicates and not (report.ci_low <= value <= report.ci_high):
        return [f"{report.statistic_name} interval does not bracket the estimate"]
    return []
