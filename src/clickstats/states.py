"""Photon-number distributions and generating functions for the state catalog.

The catalog covers coherent, thermal, Fock and squeezed-vacuum states plus
convex mixtures and explicit user-supplied distributions. Everything a
detector array sees downstream is phase insensitive, so a state enters only
through its photon-number probabilities p_n and their generating function
G(x) = sum_n p_n x^n.

A StateSpec checks itself when it is built (``__post_init__``), so every
spec that exists is valid: a bad field raises ValidationError naming its
path, and no function downstream checks a spec again. Photon laws are cut
where a closed-form tail bound falls below TAIL_TOLERANCE.
"""

from __future__ import annotations

import json
import math
from dataclasses import InitVar, dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import ParseError, TruncationOverflow, ValidationError
from .laws import law_moments, poisson_pmf

STATE_KINDS = ("coherent", "thermal", "fock", "squeezed_vacuum", "mixture", "explicit")

MAX_NMAX = 4096
MAX_MIXTURE_DEPTH = 8
MIXTURE_WEIGHT_TOL = 1e-9
EXPLICIT_SUM_TOL = 1e-6
TAIL_TOLERANCE = 1e-12


@dataclass(frozen=True)
class StateSpec:
    """Symbolic description of a quantum light state.

    Exactly the fields relevant to ``kind`` are set:

    - ``coherent`` / ``thermal``: ``mean_photons`` (mu >= 0)
    - ``fock``: ``n`` (photon number)
    - ``squeezed_vacuum``: ``r`` (squeeze parameter, mean photons sinh^2 r)
    - ``mixture``: ``components`` as ((weight, StateSpec), ...)
    - ``explicit``: ``probs`` as a tuple of probabilities over n = 0, 1, ...,
      summing to 1 within 1e-6

    Construction raises ValidationError on any violated invariant, with the
    field path rooted at ``path`` (``state`` by default), e.g.
    ``state.components[0].state.mean_photons``. Mixtures nest at most
    MAX_MIXTURE_DEPTH levels deep. Instances are frozen and hashable so
    that derived tables (truncated distributions, sampling CDFs) can be
    cached per spec.
    """

    kind: str
    mean_photons: float | None = None
    n: int | None = None
    r: float | None = None
    components: tuple[tuple[float, "StateSpec"], ...] | None = None
    probs: tuple[float, ...] | None = None
    path: InitVar[str] = "state"
    # Mixture levels above the deepest leaf; set by __post_init__.
    _levels: int = field(default=0, init=False, repr=False, compare=False)

    @staticmethod
    def coherent(mean_photons: float) -> "StateSpec":
        return StateSpec(kind="coherent", mean_photons=float(mean_photons))

    @staticmethod
    def thermal(mean_photons: float) -> "StateSpec":
        return StateSpec(kind="thermal", mean_photons=float(mean_photons))

    @staticmethod
    def fock(n: int) -> "StateSpec":
        return StateSpec(kind="fock", n=int(n))

    @staticmethod
    def squeezed_vacuum(r: float) -> "StateSpec":
        return StateSpec(kind="squeezed_vacuum", r=float(r))

    @staticmethod
    def mixture(components: Iterable[tuple[float, "StateSpec"]]) -> "StateSpec":
        comps = tuple((float(w), s) for w, s in components)
        return StateSpec(kind="mixture", components=comps)

    @staticmethod
    def explicit(probs: Iterable[float]) -> "StateSpec":
        return StateSpec(kind="explicit", probs=tuple(float(p) for p in probs))

    def __post_init__(self, path: str) -> None:
        """Check every invariant, raising ValidationError with a field path.

        A mixture's components checked themselves when they were built, so
        a mixture checks only its weights, their sum and its nesting depth.
        """
        if self.kind not in STATE_KINDS:
            raise ValidationError(
                f"{path}.kind: {self.kind!r} is not one of {STATE_KINDS}"
            )
        if self.kind in ("coherent", "thermal"):
            mu = self.mean_photons
            if mu is None or not math.isfinite(mu) or mu < 0:
                raise ValidationError(
                    f"{path}.mean_photons: must be a nonnegative real, got {mu!r}"
                )
        elif self.kind == "fock":
            if self.n is None or isinstance(self.n, bool) or self.n != int(self.n) or self.n < 0:
                raise ValidationError(
                    f"{path}.n: must be a nonnegative integer, got {self.n!r}"
                )
        elif self.kind == "squeezed_vacuum":
            if self.r is None or not math.isfinite(self.r) or self.r < 0:
                raise ValidationError(
                    f"{path}.r: must be a nonnegative real, got {self.r!r}"
                )
        elif self.kind == "mixture":
            if not self.components:
                raise ValidationError(f"{path}.components: must be a nonempty list")
            total, levels = 0.0, 0
            for i, (weight, sub) in enumerate(self.components):
                if not math.isfinite(weight) or weight < 0 or weight > 1:
                    raise ValidationError(
                        f"{path}.components[{i}].weight: must lie in [0, 1], got {weight!r}"
                    )
                if not isinstance(sub, StateSpec):
                    raise ValidationError(
                        f"{path}.components[{i}].state: not a state spec"
                    )
                levels = max(levels, sub._levels + 1)
                total += weight
            if levels > MAX_MIXTURE_DEPTH:
                raise ValidationError(
                    f"{path}: mixture nesting depth exceeds {MAX_MIXTURE_DEPTH}"
                )
            if abs(total - 1.0) > MIXTURE_WEIGHT_TOL:
                raise ValidationError(
                    f"{path}.components: weights sum to {total!r}, expected 1"
                )
            object.__setattr__(self, "_levels", levels)
        else:  # explicit
            if not self.probs:
                raise ValidationError(f"{path}.probs: must be a nonempty list")
            for i, p in enumerate(self.probs):
                if not 0.0 <= p <= 1.0 + EXPLICIT_SUM_TOL:
                    raise ValidationError(
                        f"{path}.probs[{i}]: must lie in [0, 1], got {p!r}"
                    )
            total = math.fsum(self.probs)
            if abs(total - 1.0) > EXPLICIT_SUM_TOL:
                raise ValidationError(
                    f"{path}.probs: sum {total!r} deviates from 1 by more than "
                    f"{EXPLICIT_SUM_TOL}"
                )

    def flattened(self) -> list[tuple[float, "StateSpec"]]:
        """Collapse nested mixtures into a flat (weight, leaf-spec) list."""
        if self.kind != "mixture":
            return [(1.0, self)]
        flat: list[tuple[float, StateSpec]] = []
        for weight, sub in self.components:
            for w, leaf in sub.flattened():
                flat.append((weight * w, leaf))
        return flat

    def to_dict(self) -> dict:
        """Schema-form dictionary, the same layout parse_state_spec accepts."""
        if self.kind in ("coherent", "thermal"):
            return {"kind": self.kind, "mean_photons": self.mean_photons}
        if self.kind == "fock":
            return {"kind": "fock", "n": self.n}
        if self.kind == "squeezed_vacuum":
            return {"kind": "squeezed_vacuum", "r": self.r}
        if self.kind == "mixture":
            return {
                "kind": "mixture",
                "components": [
                    {"weight": w, "state": s.to_dict()} for w, s in self.components
                ],
            }
        return {"kind": "explicit", "probs": list(self.probs)}


def parse_state_spec(text: str) -> StateSpec:
    """Parse the JSON state-spec schema into a validated StateSpec."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"state spec is not valid JSON: {exc}")
    except RecursionError:
        raise ParseError("state spec JSON nests too deeply to parse") from None
    return state_from_dict(data)


def state_from_dict(data: object, path: str = "state", _depth: int = 0) -> StateSpec:
    """Build a StateSpec from its schema dictionary.

    The JSON shape and types are checked here, and the nesting depth before
    each recursion; every range rule is the spec's own, checked as each
    spec is built, with the field path of this dictionary.
    """
    if _depth > MAX_MIXTURE_DEPTH:
        raise ValidationError(f"{path}: mixture nesting depth exceeds {MAX_MIXTURE_DEPTH}")
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: expected an object, got {type(data).__name__}")
    kind = data.get("kind")
    if kind not in STATE_KINDS:
        raise ValidationError(f"{path}.kind: {kind!r} is not one of {STATE_KINDS}")
    allowed = {
        "coherent": {"kind", "mean_photons"},
        "thermal": {"kind", "mean_photons"},
        "fock": {"kind", "n"},
        "squeezed_vacuum": {"kind", "r"},
        "mixture": {"kind", "components"},
        "explicit": {"kind", "probs"},
    }[kind]
    extra = set(data) - allowed
    if extra:
        raise ValidationError(f"{path}: unexpected fields {sorted(extra)} for kind {kind!r}")
    missing = allowed - set(data)
    if missing:
        raise ValidationError(f"{path}: missing fields {sorted(missing)} for kind {kind!r}")

    if kind in ("coherent", "thermal"):
        value = data["mean_photons"]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValidationError(f"{path}.mean_photons: expected a number")
        return StateSpec(kind=kind, mean_photons=float(value), path=path)
    if kind == "fock":
        value = data["n"]
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValidationError(f"{path}.n: expected an integer")
        return StateSpec(kind=kind, n=value, path=path)
    if kind == "squeezed_vacuum":
        value = data["r"]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValidationError(f"{path}.r: expected a number")
        return StateSpec(kind=kind, r=float(value), path=path)
    if kind == "mixture":
        raw = data["components"]
        if not isinstance(raw, list):
            raise ValidationError(f"{path}.components: expected a list")
        comps = []
        for i, item in enumerate(raw):
            if not isinstance(item, dict) or set(item) != {"weight", "state"}:
                raise ValidationError(
                    f"{path}.components[{i}]: expected an object with "
                    "'weight' and 'state'"
                )
            weight = item["weight"]
            if isinstance(weight, bool) or not isinstance(weight, (int, float)):
                raise ValidationError(f"{path}.components[{i}].weight: expected a number")
            sub = state_from_dict(item["state"], f"{path}.components[{i}].state", _depth + 1)
            comps.append((float(weight), sub))
        return StateSpec(kind=kind, components=tuple(comps), path=path)
    raw = data["probs"]
    if not isinstance(raw, list) or not raw:
        raise ValidationError(f"{path}.probs: expected a nonempty list")
    for i, p in enumerate(raw):
        if isinstance(p, bool) or not isinstance(p, (int, float)):
            raise ValidationError(f"{path}.probs[{i}]: expected a number")
    return StateSpec(kind=kind, probs=tuple(float(p) for p in raw), path=path)


@dataclass(frozen=True)
class PhotonNumberDistribution:
    """Truncated photon-number probabilities p_0 .. p_nmax.

    ``tail_bound`` is an upper bound on the probability mass dropped by the
    truncation, so sum(probs) >= 1 - tail_bound up to rounding.
    """

    probs: np.ndarray
    tail_bound: float

    def __post_init__(self):
        arr = np.asarray(self.probs, dtype=np.float64)
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("probs must be a nonempty 1-d array")
        if np.any(arr < 0):
            raise ValueError("photon-number probabilities must be nonnegative")
        total = float(arr.sum())
        if not (1.0 - 1e-9 - self.tail_bound <= total <= 1.0 + 1e-12):
            raise ValueError(
                f"probability mass {total!r} inconsistent with tail bound "
                f"{self.tail_bound!r}"
            )

    @property
    def n_max(self) -> int:
        return self.probs.size - 1


def _coherent_probs(mu: float, tol: float) -> tuple[np.ndarray, float]:
    """Poisson probabilities truncated once a closed-form upper tail <= tol.

    Past the mean the term ratio mu/(n+1) is below 1, so the mass after index
    n (with n + 2 > mu) is at most p_{n+1} / (1 - mu/(n+2)). The bound is
    raised by 1e-12 relative, far above the rounding error of p_{n+1}, so
    that it stays an upper bound in floating point.
    """
    if mu == 0.0:
        return np.array([1.0]), 0.0
    start = int(mu)  # n + 2 > mu from here on
    size = start + 22 + int(10.0 * math.sqrt(mu))
    while start < MAX_NMAX:
        probs = poisson_pmf(mu, size)
        n = np.arange(start, size - 1)
        bounds = probs[start + 1 :] / (1.0 - mu / (n + 2)) * (1.0 + 1e-12)
        below = np.flatnonzero(bounds <= tol)
        if below.size:
            n_max = start + int(below[0])
            if n_max > MAX_NMAX:
                break
            return probs[: n_max + 1].copy(), float(bounds[below[0]])
        if size > MAX_NMAX:
            break
        size *= 2
    raise TruncationOverflow(
        f"coherent state with mean {mu} needs a cutoff beyond {MAX_NMAX}"
    )


def _thermal_probs(mu: float, tol: float) -> tuple[np.ndarray, float]:
    """Geometric probabilities mu^n / (1+mu)^{n+1}; tail after M is q^{M+1}."""
    if mu == 0.0:
        return np.array([1.0]), 0.0
    q = mu / (1.0 + mu)
    if q == 1.0:  # past mu ~ 1e16: no cutoff, and log q would be 0
        raise TruncationOverflow(
            f"thermal state with mean {mu} needs a cutoff beyond {MAX_NMAX}"
        )
    n_max = max(0, math.ceil(math.log(tol) / math.log(q)) - 1)
    while q ** (n_max + 1) > tol:
        n_max += 1
    if n_max > MAX_NMAX:
        raise TruncationOverflow(
            f"thermal state with mean {mu} needs cutoff {n_max} > {MAX_NMAX}"
        )
    n = np.arange(n_max + 1)
    probs = np.exp(n * math.log(q)) / (1.0 + mu)
    return probs, float(q ** (n_max + 1))


def _squeezing(r: float) -> tuple[float, float]:
    """cosh r and tanh r of a squeeze parameter, while tanh^2 r is below 1.

    From r ~ 19.06 on tanh r rounds to 1: the photon law (mean sinh^2 r,
    about 9e15 photons there) has no finite cutoff, the generating function
    is singular at x = 1, and from r ~ 710 cosh r overflows. All of these
    report TruncationOverflow.
    """
    t = math.tanh(r)
    if t * t == 1.0:
        raise TruncationOverflow(
            f"squeezed vacuum with r={r} needs a cutoff beyond {MAX_NMAX}"
        )
    return math.cosh(r), t


def _squeezed_probs(r: float, tol: float) -> tuple[np.ndarray, float]:
    """Even-photon probabilities of squeezed vacuum.

    p_{2m} = (2m)! tanh^{2m} r / (2^m m!)^2 / cosh r, built by the term
    ratio t^2 (2m+1) / (2m+2) with t = tanh r. Successive ratios are < t^2,
    so the remaining mass after index 2m is bounded by p_{2m} t^2/(1-t^2).
    """
    if r == 0.0:
        return np.array([1.0]), 0.0
    cosh_r, t = _squeezing(r)
    t2 = t * t
    entries = [1.0 / cosh_r]  # p_0
    tail_bound = entries[-1] * t2 / (1.0 - t2)
    m = 0
    while tail_bound > tol:
        entries.append(entries[-1] * t2 * (2 * m + 1) / (2 * m + 2))
        m += 1
        tail_bound = entries[-1] * t2 / (1.0 - t2)
        if 2 * m > MAX_NMAX:
            raise TruncationOverflow(
                f"squeezed vacuum with r={r} needs cutoff beyond {MAX_NMAX}"
            )
    probs = np.zeros(2 * m + 1)
    probs[::2] = entries
    return probs, float(tail_bound)


def make_distribution(spec: StateSpec) -> PhotonNumberDistribution:
    """Truncate a state's photon-number distribution to a tail mass of 1e-12.

    The cutoff is the smallest one whose analytic tail bound falls below
    TAIL_TOLERANCE, capped at MAX_NMAX = 4096 (TruncationOverflow beyond
    that). Explicit distributions, which a spec holds to unit sum within
    1e-6, are renormalized.
    """
    if spec.kind == "coherent":
        probs, tail = _coherent_probs(spec.mean_photons, TAIL_TOLERANCE)
    elif spec.kind == "thermal":
        probs, tail = _thermal_probs(spec.mean_photons, TAIL_TOLERANCE)
    elif spec.kind == "fock":
        if spec.n > MAX_NMAX:
            raise TruncationOverflow(f"fock n={spec.n} exceeds the cap {MAX_NMAX}")
        probs = np.zeros(spec.n + 1)
        probs[spec.n] = 1.0
        tail = 0.0
    elif spec.kind == "squeezed_vacuum":
        probs, tail = _squeezed_probs(spec.r, TAIL_TOLERANCE)
    elif spec.kind == "explicit":
        raw = np.asarray(spec.probs, dtype=np.float64)
        total = float(raw.sum())
        if raw.size - 1 > MAX_NMAX:
            raise TruncationOverflow(
                f"explicit distribution length {raw.size} exceeds the cap {MAX_NMAX + 1}"
            )
        probs = raw / total
        tail = 0.0
    else:  # mixture
        parts = [
            (w, make_distribution(leaf)) for w, leaf in spec.flattened()
        ]
        n_max = max(p.n_max for _, p in parts)
        probs = np.zeros(n_max + 1)
        tail = 0.0
        for w, part in parts:
            probs[: part.probs.size] += w * part.probs
            tail += w * part.tail_bound
    return PhotonNumberDistribution(probs=probs, tail_bound=tail)


def generating_function(spec: StateSpec, x: float) -> float:
    """Evaluate G(x) = sum_n p_n x^n on [0, 1].

    Closed forms: coherent exp(-mu(1-x)), thermal 1/(1+mu(1-x)), Fock x^n,
    squeezed vacuum 1/(cosh r * sqrt(1 - x^2 tanh^2 r)). Mixtures evaluate
    as the weight-sum over flattened components; explicit distributions as
    a truncated polynomial.
    """
    if not (0.0 <= x <= 1.0):
        raise ValueError(f"generating function argument must lie in [0, 1], got {x!r}")
    return _gf(spec, float(x))


def _fock_n(leaf: StateSpec) -> float:
    """A Fock state's photon number as a float; TruncationOverflow beyond
    the float range, where no route can hold its law."""
    try:
        return float(leaf.n)
    except OverflowError:
        raise TruncationOverflow(
            f"fock n={leaf.n} exceeds the cap {MAX_NMAX} and the float range"
        ) from None


def _gf(spec: StateSpec, x: float) -> float:
    if spec.kind == "coherent":
        return math.exp(-spec.mean_photons * (1.0 - x))
    if spec.kind == "thermal":
        return 1.0 / (1.0 + spec.mean_photons * (1.0 - x))
    if spec.kind == "fock":
        return x**_fock_n(spec)
    if spec.kind == "squeezed_vacuum":
        cosh_r, t = _squeezing(spec.r)
        return 1.0 / (cosh_r * math.sqrt(1.0 - (x * t) ** 2))
    if spec.kind == "mixture":
        return math.fsum(w * _gf(leaf, x) for w, leaf in spec.flattened())
    return polynomial_gf(np.asarray(spec.probs, dtype=np.float64), x)


def polynomial_gf(probs: Sequence[float] | np.ndarray, x: float) -> float:
    """Truncated-sum generating function sum_n p_n x^n (Horner)."""
    acc = 0.0
    for p in reversed(np.asarray(probs, dtype=np.float64)):
        acc = acc * x + p
    return float(acc)


def photon_moments(pnd: PhotonNumberDistribution) -> tuple[float, float]:
    """Mean and variance of the photon number under a truncated distribution."""
    mean, variance = law_moments(pnd.probs)
    return float(mean), float(variance)


def _leaf_moments(leaf: StateSpec) -> tuple[float, float]:
    if leaf.kind == "coherent":
        return leaf.mean_photons, leaf.mean_photons
    if leaf.kind == "thermal":
        return leaf.mean_photons, leaf.mean_photons * (1.0 + leaf.mean_photons)
    if leaf.kind == "fock":
        return _fock_n(leaf), 0.0
    if leaf.kind == "squeezed_vacuum":
        cosh_r, t = _squeezing(leaf.r)
        s = (cosh_r * t) ** 2  # sinh^2 r
        return s, 2.0 * s * (1.0 + s)
    probs = np.asarray(leaf.probs, dtype=np.float64)
    mean, variance = law_moments(probs / probs.sum())
    return float(mean), float(variance)


def state_moments(spec: StateSpec) -> tuple[float, float]:
    """Exact mean and variance of a state's photon number, with no truncation.

    Coherent (mu, mu), thermal (mu, mu (1 + mu)), Fock (n, 0), squeezed
    vacuum (s, 2 s (1 + s)) with s = sinh^2 r, and an explicit law from its
    normalized table. A mixture has mean m = sum w_i m_i and variance
    sum w_i (v_i + (m_i - m)^2); leaves of zero weight are skipped. A
    variance beyond the float range raises TruncationOverflow, as the
    truncated law of such a state does.
    """
    parts = [(w, *_leaf_moments(leaf)) for w, leaf in spec.flattened() if w]
    mean = sum(w * m for w, m, _ in parts)
    # Nonnegative terms, so a plain sum is good to a few ulps, and it gives
    # inf on overflow where math.fsum and ** raise.
    variance = sum(w * (v + (m - mean) * (m - mean)) for w, m, v in parts)
    if not math.isfinite(variance):
        raise TruncationOverflow(
            f"{spec.kind} state has a photon-number variance beyond the float range"
        )
    return mean, variance
