"""Tests for the state catalog: distributions, generating functions, moments."""

import dataclasses
import math
import re

import numpy as np
import pytest

from clickstats import (
    StateSpec,
    generating_function,
    make_distribution,
    photon_moments,
    state_from_dict,
)
from clickstats.errors import TruncationOverflow, ValidationError
from clickstats.states import polynomial_gf, state_moments

CATALOG = [
    StateSpec.coherent(0.0),
    StateSpec.coherent(1.0),
    StateSpec.coherent(4.0),
    StateSpec.coherent(10.0),
    StateSpec.thermal(0.5),
    StateSpec.thermal(1.0),
    StateSpec.thermal(5.0),
    StateSpec.fock(0),
    StateSpec.fock(3),
    StateSpec.fock(20),
    StateSpec.squeezed_vacuum(0.5),
    StateSpec.squeezed_vacuum(1.5),
    StateSpec.mixture(
        [(0.25, StateSpec.coherent(2.0)), (0.75, StateSpec.thermal(0.8))]
    ),
    StateSpec.explicit([0.5, 0.25, 0.125, 0.125]),
]


class TestMakeDistribution:
    def test_fock_point_mass(self):
        pnd = make_distribution(StateSpec.fock(3))
        assert pnd.probs[3] == 1.0
        assert pnd.probs.sum() == 1.0
        assert pnd.tail_bound == 0.0

    def test_coherent_poisson_entries(self):
        pnd = make_distribution(StateSpec.coherent(1.0))
        expected = math.exp(-1.0)
        assert pnd.probs[0] == pytest.approx(expected, abs=1e-15)
        assert pnd.probs[1] == pytest.approx(expected, abs=1e-15)
        # full Poisson law, not just the first entries
        mu = 1.0
        for n in range(pnd.probs.size):
            assert pnd.probs[n] == pytest.approx(
                math.exp(-mu) * mu**n / math.factorial(n), rel=1e-12
            )

    def test_thermal_geometric_entries(self):
        pnd = make_distribution(StateSpec.thermal(1.0))
        assert pnd.probs[0] == pytest.approx(0.5, abs=1e-15)
        assert pnd.probs[1] == pytest.approx(0.25, abs=1e-15)
        assert pnd.probs[2] == pytest.approx(0.125, abs=1e-15)

    def test_squeezed_vacuum_odd_entries_vanish(self):
        pnd = make_distribution(StateSpec.squeezed_vacuum(0.5))
        assert pnd.probs[1] == 0.0
        assert pnd.probs[3] == 0.0
        assert np.all(pnd.probs[1::2] == 0.0)

    @pytest.mark.parametrize("r", [0.3, 0.8, 1.5])
    def test_squeezed_vacuum_even_entries_formula(self, r):
        pnd = make_distribution(StateSpec.squeezed_vacuum(r))
        t = math.tanh(r)
        for m in range(min(6, pnd.probs.size // 2)):
            direct = (
                math.factorial(2 * m)
                * t ** (2 * m)
                / (2**m * math.factorial(m)) ** 2
                / math.cosh(r)
            )
            assert pnd.probs[2 * m] == pytest.approx(direct, rel=1e-12)

    def test_mixture_is_convex_combination(self):
        a, b = StateSpec.coherent(2.0), StateSpec.thermal(0.8)
        mix = StateSpec.mixture([(0.25, a), (0.75, b)])
        pnd = make_distribution(mix)
        pa, pb = make_distribution(a), make_distribution(b)
        n = pnd.probs.size
        pad = lambda arr: np.pad(arr, (0, n - arr.size))
        np.testing.assert_allclose(
            pnd.probs, 0.25 * pad(pa.probs) + 0.75 * pad(pb.probs), atol=1e-15
        )

    def test_explicit_small_deviation_renormalized(self):
        pnd = make_distribution(StateSpec.explicit([0.3, 0.7000005]))
        assert pnd.probs.sum() == pytest.approx(1.0, abs=1e-15)

    def test_explicit_large_deviation_rejected(self):
        with pytest.raises(ValidationError, match="deviates from 1"):
            make_distribution(StateSpec.explicit([0.3, 0.72]))

    def test_vacuum_limits(self):
        for spec in (StateSpec.coherent(0.0), StateSpec.thermal(0.0),
                     StateSpec.squeezed_vacuum(0.0)):
            pnd = make_distribution(spec)
            assert pnd.probs.tolist() == [1.0]

    @pytest.mark.parametrize("spec", CATALOG)
    def test_catalog_normalization_and_sign(self, spec):
        pnd = make_distribution(spec)
        assert np.all(pnd.probs >= 0.0)
        total = float(pnd.probs.sum())
        assert 1.0 - 2e-12 <= total <= 1.0 + 1e-12
        assert pnd.tail_bound <= 1e-12

    def test_truncation_overflow(self):
        with pytest.raises(TruncationOverflow):
            make_distribution(StateSpec.thermal(400.0))
        with pytest.raises(TruncationOverflow):
            make_distribution(StateSpec.fock(5000))

    def test_fock_number_beyond_the_float_range(self):
        spec = StateSpec.fock(10**400)
        for compute in (make_distribution, state_moments,
                        lambda s: generating_function(s, 0.5)):
            with pytest.raises(TruncationOverflow):
                compute(spec)
        # Below the float range the generating function keeps its value.
        assert generating_function(StateSpec.fock(5000), 1.0) == 1.0


class TestValidation:
    """A StateSpec checks itself when it is built."""

    def test_mixture_weights_must_sum_to_one(self):
        with pytest.raises(ValidationError, match="weights sum"):
            StateSpec(kind="mixture", components=((0.9, StateSpec.fock(1)),))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValidationError):
            StateSpec(
                kind="mixture",
                components=((-0.1, StateSpec.fock(1)), (1.1, StateSpec.fock(2))),
            )

    def test_nesting_depth_cap(self):
        spec = StateSpec.fock(1)
        for _ in range(8):
            spec = StateSpec.mixture([(1.0, spec)])  # depth 8 is allowed
        with pytest.raises(ValidationError, match="depth"):
            StateSpec.mixture([(1.0, spec)])

    def test_bad_parameters(self):
        with pytest.raises(ValidationError):
            StateSpec.coherent(-1.0)
        with pytest.raises(ValidationError):
            StateSpec.squeezed_vacuum(-0.5)
        with pytest.raises(ValidationError):
            StateSpec(kind="fock", n=-2)
        with pytest.raises(ValidationError):
            StateSpec(kind="laser")

    BEYOND_FLOATS = 10**400

    @pytest.mark.parametrize("build,path", [
        (lambda big: StateSpec.coherent(big), "state.mean_photons"),
        (lambda big: StateSpec.thermal(big), "state.mean_photons"),
        (lambda big: StateSpec.squeezed_vacuum(big), "state.r"),
        (lambda big: StateSpec.mixture([(big, StateSpec.fock(1))]),
         "state.components[0].weight"),
        (lambda big: StateSpec.explicit([0.0, big]), "state.probs[1]"),
    ], ids=["coherent", "thermal", "squeezed", "weight", "probs"])
    def test_integer_beyond_the_float_range(self, build, path):
        with pytest.raises(ValidationError, match="^" + re.escape(f"{path}: must ")):
            build(self.BEYOND_FLOATS)

    @pytest.mark.parametrize("spec,message", [
        (dict(kind="coherent", mean_photons="2"),
         "state.mean_photons: must be a nonnegative real, got '2'"),
        (dict(kind="thermal", mean_photons=True),
         "state.mean_photons: must be a nonnegative real, got True"),
        (dict(kind="squeezed_vacuum"), "state.r: must be a nonnegative real, got None"),
        (dict(kind="fock", n=2.0), "state.n: must be a nonnegative integer, got 2.0"),
        (dict(kind="fock", n=False), "state.n: must be a nonnegative integer, got False"),
        (dict(kind="explicit", probs=0.5), "state.probs: must be a nonempty list"),
        (dict(kind="coherent", mean_photons=b"2"),
         "state.mean_photons: must be a nonnegative real, got b'2'"),
        (dict(kind="squeezed_vacuum", r=bytearray(b"0.5")),
         "state.r: must be a nonnegative real, got bytearray(b'0.5')"),
        (dict(kind="explicit", probs=[b"1"]), "state.probs[0]: must lie in [0, 1], got b'1'"),
    ])
    def test_field_types_are_checked_at_construction(self, spec, message):
        with pytest.raises(ValidationError) as info:
            StateSpec(**spec)
        assert str(info.value) == message

    def test_reals_are_stored_as_floats_and_lists_as_tuples(self):
        spec = StateSpec.mixture([(1, StateSpec.coherent(2))])
        ((weight, leaf),) = spec.components
        assert type(weight) is float and type(leaf.mean_photons) is float
        assert spec == state_from_dict(
            {"kind": "mixture", "components": [
                {"weight": 1.0, "state": {"kind": "coherent", "mean_photons": 2.0}}]}
        )
        assert type(StateSpec.fock(np.int64(3)).n) is int
        explicit = StateSpec(kind="explicit", probs=[1, 0])
        assert explicit.probs == (1.0, 0.0) and hash(explicit) == hash(StateSpec.explicit([1.0, 0.0]))
        assert explicit.to_dict() == {"kind": "explicit", "probs": [1.0, 0.0]}

    def test_no_validate_method(self):
        assert not hasattr(StateSpec, "validate")

    def test_replace_checks_the_new_spec(self):
        with pytest.raises(ValidationError, match=r"^state\.mean_photons: "):
            dataclasses.replace(StateSpec.thermal(1.0), mean_photons=-1.0)

    def test_explicit_sum_rejected_at_construction(self):
        with pytest.raises(ValidationError, match=r"^state\.probs: sum 1\.02 deviates"):
            StateSpec.explicit([0.3, 0.72])

    def test_bad_leaf_two_mixtures_deep_names_its_path(self):
        leaf = {"kind": "thermal", "mean_photons": -1.0}
        inner = {"kind": "mixture", "components": [
            {"weight": 0.5, "state": {"kind": "fock", "n": 1}},
            {"weight": 0.5, "state": leaf},
        ]}
        outer = {"kind": "mixture", "components": [{"weight": 1.0, "state": inner}]}
        with pytest.raises(ValidationError) as info:
            state_from_dict(outer)
        assert str(info.value) == (
            "state.components[0].state.components[1].state.mean_photons: "
            "must be a nonnegative real, got -1.0"
        )

    @pytest.mark.parametrize("depth,ok", [(8, True), (9, False)])
    def test_nesting_depth_through_state_from_dict(self, depth, ok):
        data = {"kind": "fock", "n": 1}
        for _ in range(depth):
            data = {"kind": "mixture", "components": [{"weight": 1.0, "state": data}]}
        if ok:
            assert state_from_dict(data).to_dict() == data
        else:
            with pytest.raises(ValidationError, match="nesting depth exceeds 8"):
                state_from_dict(data)

    def test_roundtrip_through_dict(self):
        for spec in CATALOG:
            again = state_from_dict(spec.to_dict())
            assert again == spec


class TestGeneratingFunction:
    @pytest.mark.parametrize("spec", CATALOG)
    def test_normalization_at_one(self, spec):
        assert generating_function(spec, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_coherent_closed_form(self):
        assert generating_function(StateSpec.coherent(4.0), 0.75) == pytest.approx(
            math.exp(-1.0), abs=1e-15
        )

    def test_thermal_closed_form(self):
        assert generating_function(StateSpec.thermal(1.0), 0.5) == pytest.approx(
            2.0 / 3.0, abs=1e-15
        )

    @pytest.mark.parametrize("spec", CATALOG)
    def test_matches_truncated_sum(self, spec):
        pnd = make_distribution(spec)
        for x in (0.0, 0.3, 0.7, 1.0):
            assert generating_function(spec, x) == pytest.approx(
                polynomial_gf(pnd.probs, x), abs=1e-9
            )

    @pytest.mark.parametrize("spec", CATALOG)
    def test_nondecreasing_on_unit_interval(self, spec):
        grid = np.linspace(0.0, 1.0, 100)
        values = [generating_function(spec, x) for x in grid]
        assert all(b - a >= -1e-12 for a, b in zip(values, values[1:]))

    def test_mixture_linearity(self):
        a, b = StateSpec.coherent(3.0), StateSpec.squeezed_vacuum(0.9)
        mix = StateSpec.mixture([(0.6, a), (0.4, b)])
        for x in np.linspace(0.0, 1.0, 11):
            combo = 0.6 * generating_function(a, x) + 0.4 * generating_function(b, x)
            assert generating_function(mix, x) == pytest.approx(combo, abs=1e-12)

    def test_finite_difference_matches_mean(self):
        # (G(1) - G(1-h))/h -> <n> on the truncated distribution
        h = 1e-6
        for spec in (StateSpec.coherent(1.0), StateSpec.thermal(1.0),
                     StateSpec.fock(5), StateSpec.squeezed_vacuum(0.8)):
            pnd = make_distribution(spec)
            assert pnd.probs.size <= 101
            mean, _ = photon_moments(pnd)
            slope = (polynomial_gf(pnd.probs, 1.0) - polynomial_gf(pnd.probs, 1.0 - h)) / h
            assert slope == pytest.approx(mean, abs=1e-4)

    @pytest.mark.parametrize("x", [1.5, -0.1, True, "0.5", b"0.5", math.nan, None])
    def test_domain_check(self, x):
        with pytest.raises(ValidationError, match=r"^x: must lie in \[0, 1\], got "):
            generating_function(StateSpec.fock(3), x)

    def test_integral_and_numpy_arguments(self):
        spec = StateSpec.fock(3)
        assert generating_function(spec, 1) == generating_function(spec, np.int64(1)) == 1.0
        assert generating_function(spec, np.float64(0.5)) == 0.125


class TestPhotonMoments:
    def test_fock_point_mass(self):
        mean, var = photon_moments(make_distribution(StateSpec.fock(5)))
        assert mean == 5.0
        assert var == 0.0

    def test_thermal_variance(self):
        mean, var = photon_moments(make_distribution(StateSpec.thermal(1.0)))
        assert mean == pytest.approx(1.0, abs=1e-9)
        # truncation shifts the second moment by ~n_max^2 * tail
        assert var == pytest.approx(2.0, abs=1e-7)

    def test_coherent_poisson_variance(self):
        mean, var = photon_moments(make_distribution(StateSpec.coherent(4.0)))
        assert mean == pytest.approx(4.0, abs=1e-9)
        assert var == pytest.approx(4.0, abs=1e-9)

    def test_squeezed_vacuum_moments(self):
        r = 0.8
        mean, var = photon_moments(make_distribution(StateSpec.squeezed_vacuum(r)))
        sh2 = math.sinh(r) ** 2
        assert mean == pytest.approx(sh2, abs=1e-9)
        assert var == pytest.approx(2.0 * sh2 * (1.0 + sh2), abs=1e-7)
