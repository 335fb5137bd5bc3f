"""Seeded input generation for the four workloads.

Every input is a plain dictionary or number drawn from ``numpy.random`` with
the workload seed, so the same seed gives the same inputs. States use the
schema layout of ``clickstats.state_from_dict``; the checker reads these
dictionaries, never the program's parsed objects.
"""

from __future__ import annotations

import math

import numpy as np

MAX_N = 1024  # documented MAX_DETECTORS
KINDS = ("coherent", "thermal", "fock", "squeezed_vacuum", "mixture", "explicit")
N_STRATA = 8

# Thermal(2), N=20, eta=1 is where the accepted inclusion-exclusion result
# prints c_19 with only 3 correct digits. The first grid cycle starts with
# it so that this defect is measured on every seed.
ANCHOR = ({"kind": "thermal", "mean_photons": 2.0}, 20, 1.0, 0.0)


def _leaf(rng: np.random.Generator, kind: str) -> dict:
    if kind == "coherent":
        return {"kind": kind, "mean_photons": float(np.exp(rng.uniform(np.log(0.01), np.log(20.0))))}
    if kind == "thermal":
        return {"kind": kind, "mean_photons": float(np.exp(rng.uniform(np.log(0.01), np.log(5.0))))}
    if kind == "fock":
        return {"kind": kind, "n": int(rng.integers(0, 17))}
    return {"kind": kind, "r": float(rng.uniform(0.05, 1.2))}


def random_state(rng: np.random.Generator, kind: str) -> dict:
    """One state of the given catalog kind with seeded parameters."""
    if kind == "mixture":
        size = int(rng.integers(2, 4))
        weights = rng.dirichlet(np.ones(size))
        weights = [float(w) for w in weights[:-1]]
        weights.append(1.0 - math.fsum(weights))
        return {
            "kind": "mixture",
            "components": [
                {"weight": w, "state": _leaf(rng, KINDS[int(rng.integers(0, 4))])}
                for w in weights
            ],
        }
    if kind == "explicit":
        probs = rng.dirichlet(np.full(int(rng.integers(2, 25)), 0.5))
        return {"kind": "explicit", "probs": [float(p) for p in probs / probs.sum()]}
    return _leaf(rng, kind)


def grid_cycle(rng: np.random.Generator) -> list[tuple[dict, int, float, float]]:
    """One cycle of (state, N, eta, nu) points for exact-grid: six rounds.

    log N is split into N_STRATA strata and each stratum into one sub-stratum
    per state kind. In each round every kind gets one sub-stratum of every
    stratum, rotating so that over the six rounds of a cycle every kind meets
    every sub-stratum once (a Latin square, with a seeded start per
    stratum). Within its six points each (stratum, kind) has eta = 1 once
    and nu = 0 three times, nu log-uniform in [1e-4, 0.1] otherwise. Every
    cycle therefore holds the same mix of kinds, sizes and dark counts, which
    keeps its work steady, while no two points share a state, N or eta.
    """
    width = math.log(MAX_N) / N_STRATA
    kinds = len(KINDS)
    start = [rng.permutation(kinds) for _ in range(N_STRATA)]
    eta_one = rng.integers(0, kinds, size=(N_STRATA, kinds))
    dark = np.array([[rng.permutation(kinds) % 2 for _ in range(kinds)] for _ in range(N_STRATA)])
    points = []
    for round_ in range(kinds):
        for stratum in range(N_STRATA):
            for kind in range(kinds):
                slot = (start[stratum][kind] + round_) % kinds
                u = (slot + rng.random()) / kinds
                N = int(min(MAX_N, max(1, round(math.exp((stratum + u) * width)))))
                eta = 1.0 if eta_one[stratum, kind] == round_ else float(1.0 - rng.random())
                nu = 0.0
                if dark[stratum, kind, round_]:
                    nu = float(np.exp(rng.uniform(np.log(1e-4), np.log(0.1))))
                points.append((random_state(rng, KINDS[kind]), N, eta, nu))
    return points


def sweep_pairs(rng: np.random.Generator) -> list[dict]:
    """The fixed (state, N) pairs of eta-sweep, each with its two sweeps.

    For each N in {8, 64, 256} a thermal and a coherent state (the kinds the
    mean_photons axis accepts). The eta sweep runs with a dark count nu > 0
    at N = 8 and 64, the mean_photons sweep at nu = 0 and a fixed eta, so
    both the dark step and the dark-free chain are under load. At N = 256
    both sweeps are dark-free: a dark step there would double the longest
    op and leave room for too few cycles in a run. The mean photon numbers,
    which set the truncation and with it the work of a point, vary within
    narrow bands so that every seed does about the same work.
    """
    pairs = []
    for N in (8, 64, 256):
        for kind, mu, top in (("thermal", 2.0, 4.5), ("coherent", 4.0, 9.0)):
            nu = float(np.exp(rng.uniform(np.log(1e-4), np.log(0.1))))
            pairs.append(
                {
                    "state": {"kind": kind, "mean_photons": float(rng.uniform(0.8, 1.2) * mu)},
                    "N": N,
                    "nu": nu if N < 256 else 0.0,
                    "eta": float(rng.uniform(0.3, 1.0)),
                    "eta_from": float(rng.uniform(0.01, 0.1)),
                    "mu_from": float(rng.uniform(0.05, 0.5)),
                    "mu_to": float(rng.uniform(0.9, 1.1) * top),
                }
            )
    return pairs


def record_shapes(rng: np.random.Generator) -> list[dict]:
    """The two record shapes of record-pipeline.

    N=8 with nu=0 and many trials, where writing and reading the record text
    dominate; N=1024 with nu>0, where the per-detector dark draws of the
    simulator dominate. The N=8 state is thermal, Fock or squeezed at random
    (classical or sub-binomial), each with about two photons on average, so
    that every seed draws about as many photons and no estimate is
    degenerate.
    """
    kind = ("thermal", "fock", "squeezed_vacuum")[int(rng.integers(0, 3))]
    mean = float(rng.uniform(1.6, 2.4))
    small_state = {
        "thermal": {"kind": "thermal", "mean_photons": mean},
        "fock": {"kind": "fock", "n": 2},
        "squeezed_vacuum": {"kind": "squeezed_vacuum", "r": math.asinh(math.sqrt(mean))},
    }[kind]
    return [
        {
            "state": small_state,
            "N": 8,
            "eta": float(rng.uniform(0.6, 0.8)),
            "nu": 0.0,
            "trials": 200_000,
        },
        {
            "state": {"kind": "thermal", "mean_photons": float(rng.uniform(4.0, 8.0))},
            "N": 1024,
            "eta": float(rng.uniform(0.6, 0.8)),
            "nu": float(rng.uniform(0.01, 0.1)),
            "trials": 12_000,
        },
    ]
