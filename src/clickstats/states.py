"""Photon-number distributions and generating functions for the state catalog.

The catalog covers coherent, thermal, Fock and squeezed-vacuum states plus
convex mixtures and explicit user-supplied distributions. Everything a
detector array sees downstream is phase insensitive, so a state enters only
through its photon-number probabilities p_n and their generating function
G(x) = sum_n p_n x^n.

``KINDS`` holds one row per kind: the one field a spec of that kind carries
and, for the five pure (leaf) kinds, its truncated photon law, its
generating function and its exact photon moments. A mixture has the field
alone: ``make_distribution``, ``generating_function`` and ``state_moments``
sum the weighted leaf results over ``flattened()``. Only the photon-law
column decides the MAX_NMAX cap. The click law of each leaf kind is the one
per-kind quantity kept in ``click_kernel``, which this module cannot import.

A StateSpec checks itself when it is built (``__post_init__``), so every
spec that exists is valid: a bad field, of the wrong type or out of range,
raises ValidationError naming its path, and no function downstream checks a
spec again. ``checked_real`` is the one rule for a real input, here and in
the detector config. Photon laws are cut where a closed-form tail bound
falls below TAIL_TOLERANCE.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import InitVar, dataclass, field
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import ParseError, TruncationOverflow, ValidationError
from .laws import law_moments, poisson_pmf

MAX_NMAX = 4096
MAX_MIXTURE_DEPTH = 8
MIXTURE_WEIGHT_TOL = 1e-9
EXPLICIT_SUM_TOL = 1e-6
TAIL_TOLERANCE = 1e-12
UNIT_INTERVAL = "must lie in [0, 1]"


# Concrete types, not numbers.Real: the ABC check costs about 0.5 us per field,
# and a sweep point rebuilds a spec or config.
_REAL_TYPES = (int, float, np.integer, np.floating)


def checked_real(value: object, path: str, low: float, high: float, rule: str) -> float:
    """The one rule for a real input: ``value`` as a float, if it is a
    Python or numpy int or float other than a bool, lies inside the float
    range, is finite and within [low, high]; otherwise ValidationError
    ``<path>: <rule>, got <value>``. Text (str, bytes, any buffer), which
    ``float()`` would parse, is never a number."""
    number = math.nan
    if isinstance(value, _REAL_TYPES) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            pass
    if not (math.isfinite(number) and low <= number <= high):
        raise ValidationError(f"{path}: {rule}, got {value!r}")
    return number


def checked_integer(value: object, path: str, low: float, high: float, rule: str) -> int:
    """``checked_real`` with an integral value, returned as an exact int:
    8 and 8.0 pass, 8.5, True and "8" do not."""
    if not checked_real(value, path, low, high, rule).is_integer():
        raise ValidationError(f"{path}: {rule}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class StateSpec:
    """Symbolic description of a quantum light state.

    A spec carries the one field its row of ``KINDS`` names for its ``kind``:

    - ``coherent`` / ``thermal``: ``mean_photons`` (mu >= 0)
    - ``fock``: ``n`` (photon number)
    - ``squeezed_vacuum``: ``r`` (squeeze parameter, mean photons sinh^2 r)
    - ``mixture``: ``components`` as ((weight, StateSpec), ...)
    - ``explicit``: ``probs`` as a tuple of probabilities over n = 0, 1, ...,
      summing to 1 within 1e-6

    Construction checks the field's type as well as its range, and stores
    reals as floats (``checked_real``: anything but a real number, a bool, or
    an integer beyond the float range is rejected) and lists as tuples. It raises
    ValidationError on any violated invariant, with the field path rooted at
    ``path`` (``state`` by default), e.g.
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
        return StateSpec(kind="coherent", mean_photons=mean_photons)

    @staticmethod
    def thermal(mean_photons: float) -> "StateSpec":
        return StateSpec(kind="thermal", mean_photons=mean_photons)

    @staticmethod
    def fock(n: int) -> "StateSpec":
        return StateSpec(kind="fock", n=n)

    @staticmethod
    def squeezed_vacuum(r: float) -> "StateSpec":
        return StateSpec(kind="squeezed_vacuum", r=r)

    @staticmethod
    def mixture(components: Iterable[tuple[float, "StateSpec"]]) -> "StateSpec":
        return StateSpec(kind="mixture", components=tuple(components))

    @staticmethod
    def explicit(probs: Iterable[float]) -> "StateSpec":
        return StateSpec(kind="explicit", probs=tuple(probs))

    def __post_init__(self, path: str) -> None:
        """Check the kind's field, type and range, and store it normalized:
        reals as floats, lists as tuples. ValidationError names the path.

        A mixture's components checked themselves when they were built, so
        a mixture checks only its weights, their sum and its nesting depth.
        """
        if self.kind not in STATE_KINDS:  # a tuple: an unhashable kind is no error
            raise ValidationError(
                f"{path}.kind: {self.kind!r} is not one of {STATE_KINDS}"
            )
        name = KINDS[self.kind].field
        value = getattr(self, name)
        where = f"{path}.{name}"
        if name == "n":
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
                raise ValidationError(f"{where}: must be a nonnegative integer, got {value!r}")
            value = int(value)
        elif name in ("mean_photons", "r"):
            value = checked_real(value, where, 0.0, math.inf, "must be a nonnegative real")
        elif not isinstance(value, (list, tuple)) or not value:
            raise ValidationError(f"{where}: must be a nonempty list")
        elif name == "probs":
            value = tuple(
                checked_real(p, f"{where}[{i}]", 0.0, 1.0 + EXPLICIT_SUM_TOL, UNIT_INTERVAL)
                for i, p in enumerate(value)
            )
            total = math.fsum(value)
            if abs(total - 1.0) > EXPLICIT_SUM_TOL:
                raise ValidationError(
                    f"{where}: sum {total!r} deviates from 1 by more than {EXPLICIT_SUM_TOL}"
                )
        else:
            value = tuple(_checked_component(pair, f"{where}[{i}]") for i, pair in enumerate(value))
            total = sum(weight for weight, _ in value)
            levels = max(sub._levels for _, sub in value) + 1
            if levels > MAX_MIXTURE_DEPTH:
                raise ValidationError(
                    f"{path}: mixture nesting depth exceeds {MAX_MIXTURE_DEPTH}"
                )
            if abs(total - 1.0) > MIXTURE_WEIGHT_TOL:
                raise ValidationError(f"{where}: weights sum to {total!r}, expected 1")
            object.__setattr__(self, "_levels", levels)
        object.__setattr__(self, name, value)

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
        name = KINDS[self.kind].field
        value = getattr(self, name)
        if name == "components":
            value = [{"weight": w, "state": s.to_dict()} for w, s in value]
        return {"kind": self.kind, name: list(value) if name == "probs" else value}


def _checked_component(pair, path: str) -> tuple[float, StateSpec]:
    weight, sub = pair
    weight = checked_real(weight, f"{path}.weight", 0.0, 1.0, UNIT_INTERVAL)
    if not isinstance(sub, StateSpec):
        raise ValidationError(f"{path}.state: not a state spec")
    return weight, sub


def parse_state_spec(text: str) -> StateSpec:
    """Parse the JSON state-spec schema into a validated StateSpec."""
    try:
        data = json.loads(text)
    except ValueError as exc:  # also an integer literal beyond Python's digit limit
        raise ParseError(f"state spec is not valid JSON: {exc}")
    except RecursionError:
        raise ParseError("state spec JSON nests too deeply to parse") from None
    return state_from_dict(data)


def state_from_dict(data: object, path: str = "state", _depth: int = 0) -> StateSpec:
    """Build a StateSpec from its schema dictionary.

    Only the JSON shape is checked here: an object with a known kind and
    exactly its field, mixture components as objects with a weight and a
    state, and the nesting depth before each recursion. Every value's type
    and range is the spec's own rule, checked as each spec is built, with
    the field path of this dictionary.
    """
    if _depth > MAX_MIXTURE_DEPTH:
        raise ValidationError(f"{path}: mixture nesting depth exceeds {MAX_MIXTURE_DEPTH}")
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: expected an object, got {type(data).__name__}")
    kind = data.get("kind")
    if kind not in STATE_KINDS:
        raise ValidationError(f"{path}.kind: {kind!r} is not one of {STATE_KINDS}")
    name = KINDS[kind].field
    extra = set(data) - {"kind", name}
    if extra:
        raise ValidationError(f"{path}: unexpected fields {sorted(extra)} for kind {kind!r}")
    if name not in data:
        raise ValidationError(f"{path}: missing fields [{name!r}] for kind {kind!r}")
    value = data[name]
    if name == "components" and isinstance(value, list):
        value = [_component_from_dict(item, f"{path}.components[{i}]", _depth)
                 for i, item in enumerate(value)]
    return StateSpec(kind=kind, path=path, **{name: value})


def _component_from_dict(item: object, path: str, depth: int) -> tuple[object, StateSpec]:
    if not isinstance(item, dict) or set(item) != {"weight", "state"}:
        raise ValidationError(f"{path}: expected an object with 'weight' and 'state'")
    return item["weight"], state_from_dict(item["state"], f"{path}.state", depth + 1)


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


def _fock_probs(leaf: StateSpec) -> tuple[np.ndarray, float]:
    """The one-hot law of a Fock state, up to the cap."""
    if leaf.n > MAX_NMAX:
        raise TruncationOverflow(f"fock n={leaf.n} exceeds the cap {MAX_NMAX}")
    probs = np.zeros(leaf.n + 1)
    probs[leaf.n] = 1.0
    return probs, 0.0


def _fock_n(leaf: StateSpec) -> float:
    """A Fock state's photon number as a float; TruncationOverflow beyond
    the float range, where no route can hold its law."""
    try:
        return float(leaf.n)
    except OverflowError:
        raise TruncationOverflow(
            f"fock n={leaf.n} exceeds the cap {MAX_NMAX} and the float range"
        ) from None


def _squeezed_gf(leaf: StateSpec, x: float) -> float:
    cosh_r, t = _squeezing(leaf.r)
    return 1.0 / (cosh_r * math.sqrt(1.0 - (x * t) ** 2))


def _squeezed_moments(leaf: StateSpec) -> tuple[float, float]:
    cosh_r, t = _squeezing(leaf.r)
    s = (cosh_r * t) ** 2  # sinh^2 r
    return s, 2.0 * s * (1.0 + s)


def _explicit_law(leaf: StateSpec) -> np.ndarray:
    """The explicit table renormalized, with no cap."""
    raw = np.asarray(leaf.probs, dtype=np.float64)
    return raw / raw.sum()


def _explicit_probs(leaf: StateSpec) -> tuple[np.ndarray, float]:
    if len(leaf.probs) - 1 > MAX_NMAX:
        raise TruncationOverflow(
            f"explicit distribution length {len(leaf.probs)} exceeds the cap {MAX_NMAX + 1}"
        )
    return _explicit_law(leaf), 0.0


def _explicit_moments(leaf: StateSpec) -> tuple[float, float]:
    mean, variance = law_moments(_explicit_law(leaf))
    return float(mean), float(variance)


class Kind(NamedTuple):
    """One row of KINDS.

    ``field`` is the one field a spec of the kind carries besides ``kind``.
    A pure (leaf) kind also gives ``law(leaf) -> (probs, tail_bound)``, its
    photon law cut at TAIL_TOLERANCE and capped at MAX_NMAX (the only place
    that tests the cap), ``gf(leaf, x)``, its generating function on [0, 1],
    and ``moments(leaf) -> (mean, variance)``, its exact photon moments with
    no cap. A mixture has the field alone.
    """

    field: str
    law: Callable[[StateSpec], tuple[np.ndarray, float]] | None = None
    gf: Callable[[StateSpec, float], float] | None = None
    moments: Callable[[StateSpec], tuple[float, float]] | None = None


# Coherent: Poisson law, G = exp(-mu(1-x)), moments (mu, mu). Thermal:
# geometric law, G = 1/(1+mu(1-x)), moments (mu, mu(1+mu)). Fock: one-hot
# law, G = x^n, moments (n, 0). Squeezed vacuum: even-photon law,
# G = 1/(cosh r sqrt(1 - x^2 tanh^2 r)), moments (s, 2s(1+s)) with
# s = sinh^2 r. Explicit: the normalized table and its polynomial.
KINDS = {
    "coherent": Kind(
        "mean_photons",
        lambda leaf: _coherent_probs(leaf.mean_photons, TAIL_TOLERANCE),
        lambda leaf, x: math.exp(-leaf.mean_photons * (1.0 - x)),
        lambda leaf: (leaf.mean_photons, leaf.mean_photons),
    ),
    "thermal": Kind(
        "mean_photons",
        lambda leaf: _thermal_probs(leaf.mean_photons, TAIL_TOLERANCE),
        lambda leaf, x: 1.0 / (1.0 + leaf.mean_photons * (1.0 - x)),
        lambda leaf: (leaf.mean_photons, leaf.mean_photons * (1.0 + leaf.mean_photons)),
    ),
    "fock": Kind(
        "n", _fock_probs, lambda leaf, x: x ** _fock_n(leaf), lambda leaf: (_fock_n(leaf), 0.0)
    ),
    "squeezed_vacuum": Kind(
        "r", lambda leaf: _squeezed_probs(leaf.r, TAIL_TOLERANCE), _squeezed_gf, _squeezed_moments
    ),
    "mixture": Kind("components"),
    "explicit": Kind(
        "probs", _explicit_probs, lambda leaf, x: polynomial_gf(leaf.probs, x), _explicit_moments
    ),
}
STATE_KINDS = tuple(KINDS)


def make_distribution(spec: StateSpec) -> PhotonNumberDistribution:
    """Truncate a state's photon-number distribution to a tail mass of 1e-12.

    The cutoff is the smallest one whose analytic tail bound falls below
    TAIL_TOLERANCE, capped at MAX_NMAX = 4096 (TruncationOverflow beyond
    that). Explicit distributions, which a spec holds to unit sum within
    1e-6, are renormalized. A mixture's law and tail bound are the
    weight-sums of its leaves'.
    """
    parts = [(w, KINDS[leaf.kind].law(leaf)) for w, leaf in spec.flattened()]
    probs = np.zeros(max(leaf_probs.size for _, (leaf_probs, _) in parts))
    tail = 0.0
    for w, (leaf_probs, leaf_tail) in parts:
        probs[: leaf_probs.size] += w * leaf_probs
        tail += w * leaf_tail
    return PhotonNumberDistribution(probs=probs, tail_bound=tail)


def generating_function(spec: StateSpec, x: float) -> float:
    """Evaluate G(x) = sum_n p_n x^n on [0, 1].

    Each leaf kind has its closed form (``KINDS``); an explicit law is its
    polynomial. A mixture is the weight-sum over its flattened leaves. x
    takes the number rule of every real input (``checked_real``).
    """
    x = checked_real(x, "x", 0.0, 1.0, UNIT_INTERVAL)
    return math.fsum(w * KINDS[leaf.kind].gf(leaf, x) for w, leaf in spec.flattened())


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


def state_moments(spec: StateSpec) -> tuple[float, float]:
    """Exact mean and variance of a state's photon number, with no truncation.

    Each leaf kind gives its own (``KINDS``). A mixture has mean
    m = sum w_i m_i and variance sum w_i (v_i + (m_i - m)^2); leaves of zero
    weight are skipped. A variance beyond the float range raises
    TruncationOverflow, as the truncated law of such a state does.
    """
    parts = [(w, *KINDS[leaf.kind].moments(leaf)) for w, leaf in spec.flattened() if w]
    mean = sum(w * m for w, m, _ in parts)
    # Nonnegative terms, so a plain sum is good to a few ulps, and it gives
    # inf on overflow where math.fsum and ** raise.
    variance = sum(w * (v + (m - mean) * (m - mean)) for w, m, v in parts)
    if not math.isfinite(variance):
        raise TruncationOverflow(
            f"{spec.kind} state has a photon-number variance beyond the float range"
        )
    return mean, variance
