"""One SHA-256 per state kind over everything the kernel derives from a state.

A seeded corpus of about 300 (state, detector) points covers all six kinds at
N <= 256, plus the cap edges of the photon-number law: a Fock state beyond
MAX_NMAX, an explicit law of more than MAX_NMAX + 1 entries, a Fock number
beyond the float range, and squeezed vacuum whose tanh r rounds to 1. Per
point the digest takes the bytes of the click law under every method, the
nonclassicality report, the truncated photon law and its tail bound, the
generating function at four arguments and the exact photon moments; every
error enters by its class and message. The coherent and thermal digests were
pinned on the code in which each kind's photon law, generating function,
moments and click law were still four if-chains, so moving a kind's
computation to another place must leave every byte and message as it was.
The squeezed, mixture, Fock and explicit digests were pinned again when the
squeezed trapezoid rule replaced the inclusion-exclusion sum: every changed
squeezed or mixture law was then within 5e-12 of mpmath on its entries above
1e-300, and Fock and explicit outputs changed only at the beyond-cap edges,
which now raise TruncationOverflow on every route. The mixture and explicit
digests were pinned again when mixture weights came to be renormalized in
``flattened()`` and an explicit law's generating function came to be the
polynomial of its renormalized table. A per-point diff against the code
before showed that only these changed: the generating function of 24 of the
52 explicit points and of 3 mixtures holding an explicit leaf, by at most
1.8e-15 relative, and the click laws, photon law, tail bound, generating
function and moments of the one mixture whose weights do not sum to exactly
1.0 in floating point, by at most 3.7e-16 relative (its report is unchanged).
"""

from __future__ import annotations

import functools
import hashlib
import random

import pytest

from clickstats import (
    DetectorConfig,
    StateSpec,
    click_distribution,
    generating_function,
    make_distribution,
    nonclassicality_report,
)
from clickstats.states import state_moments

METHODS = ("generating_function", "occupancy_dp", "auto")
GF_ARGUMENTS = (0.0, 0.3, 0.9, 1.0)
LEAF_KINDS = ("coherent", "thermal", "fock", "squeezed_vacuum", "explicit")
DIGESTS = {
    "coherent": "947e5b4462af8d7db28138ef5b62e4fda5a9021be74f4c67ca5ee73b8b8fd98d",
    "thermal": "d49e07cc5821d1bb2533e02c1526fd47fbe19c8c1656499f52d6c0a0d80d0768",
    "fock": "4faae60ef7c8d138799f2b31ec334ef037863df7abfcc60fc463e87bae83199b",
    "squeezed_vacuum": "242a596ff0f988833eaa031ded97355c977d20e6e56e999ff59d638942647059",
    "mixture": "94323410276a13ee03eb2d0fc663fe1d0d7a7d45468c5ff1c811338cc86ce51d",
    "explicit": "96e9c0249647f02bdd2e97112bff318db3ca8cfded993f381b507b6ffecbe7fa",
}


def _leaf(rng: random.Random, kind: str) -> StateSpec:
    if kind == "coherent":
        return StateSpec.coherent(rng.choice([0.0, rng.uniform(0, 1), rng.uniform(0, 12)]))
    if kind == "thermal":
        return StateSpec.thermal(rng.choice([0.0, rng.uniform(0, 1), rng.uniform(0, 6)]))
    if kind == "fock":
        return StateSpec.fock(rng.choice([0, 1, 2, rng.randint(0, 40)]))
    if kind == "squeezed_vacuum":
        r = rng.choice([0.0, rng.uniform(0, 0.6), rng.uniform(0, 1.6)])
        return StateSpec.squeezed_vacuum(r)
    weights = [rng.random() ** 2 for _ in range(rng.randint(1, 12))]
    return StateSpec.explicit([w / sum(weights) for w in weights])


def _state(rng: random.Random, kind: str) -> StateSpec:
    if kind != "mixture":
        return _leaf(rng, kind)
    parts = [_leaf(rng, rng.choice(LEAF_KINDS)) for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.3:  # one nested level
        parts.append(StateSpec.mixture([(0.5, _leaf(rng, "thermal")), (0.5, _leaf(rng, "fock"))]))
    # Some zero weights; the last one is positive.
    raw = [rng.choice([0.0, rng.random()]) for _ in parts[:-1]] + [0.1 + rng.random()]
    return StateSpec.mixture((w / sum(raw), part) for w, part in zip(raw, parts))


def _config(rng: random.Random) -> DetectorConfig:
    N = rng.choice([1, 2, 3, 5, 8, 13, 20, 20, 40, 64, 100, 256])
    eta = rng.choice([1.0, 0.0, rng.uniform(0.01, 1.0), rng.uniform(0.01, 1.0)])
    nu = rng.choice([0.0, 0.0, rng.uniform(0.0, 0.3)])
    return DetectorConfig(N=N, eta=eta, nu=nu)


def _corpus() -> list[tuple[StateSpec, DetectorConfig]]:
    rng = random.Random(2012)
    points = [(_state(rng, kind), _config(rng)) for _ in range(50) for kind in DIGESTS]
    edges = [
        StateSpec.fock(5000),
        StateSpec.explicit([1.0 / 4201] * 4201),
        StateSpec.fock(10**400),
        StateSpec.squeezed_vacuum(20.0),
    ]
    for spec in edges:
        points.append((spec, DetectorConfig(N=8, eta=0.5, nu=0.05)))
        points.append((spec, DetectorConfig(N=1, eta=1.0)))
    return points


def _outcome(compute) -> str:
    try:
        value = compute()
    except Exception as exc:  # noqa: BLE001 - every error is part of the fingerprint
        return f"{type(exc).__name__}: {exc}"
    return value


def _click_law_text(dist) -> str:
    return dist.probs.tobytes().hex()


def _photon_law_text(pnd) -> str:
    return pnd.probs.tobytes().hex() + repr(pnd.tail_bound)


def _point_text(spec: StateSpec, config: DetectorConfig) -> str:
    parts = [repr(config)]
    for method in METHODS:
        parts.append(_outcome(lambda: _click_law_text(click_distribution(spec, config, method))))
    parts.append(_outcome(lambda: repr(nonclassicality_report(spec, config))))
    parts.append(_outcome(lambda: _photon_law_text(make_distribution(spec))))
    parts.extend(_outcome(lambda: repr(generating_function(spec, x))) for x in GF_ARGUMENTS)
    parts.append(_outcome(lambda: repr(state_moments(spec))))
    return "\n".join(parts) + "\n"


@functools.cache
def fingerprints() -> dict[str, str]:
    """The SHA-256 of the corpus outcomes, by the kind of each point's state."""
    hashes = {kind: hashlib.sha256() for kind in DIGESTS}
    for spec, config in _corpus():
        hashes[spec.kind].update(repr(spec).encode() + _point_text(spec, config).encode())
    return {kind: h.hexdigest() for kind, h in hashes.items()}


@pytest.mark.parametrize("kind", list(DIGESTS))
def test_fingerprint_per_kind(kind):
    assert fingerprints()[kind] == DIGESTS[kind]


if __name__ == "__main__":  # print the digests of the tree at hand
    for kind, digest in fingerprints().items():
        print(f'    "{kind}": "{digest}",')
