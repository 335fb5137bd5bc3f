"""End-to-end tests of the command-line verbs and their exit codes."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import clickstats
import oracles
from clickstats import click_kernel, errors, records
from clickstats.cli import MAX_SWEEP_STEPS, main, parse_state_spec
from clickstats.errors import ParseError, ValidationError

COHERENT4 = '{"kind":"coherent","mean_photons":4.0}'
FOCK1 = '{"kind":"fock","n":1}'
# Mixtures at the two edges of the weight rule, which holds the weights to
# unit sum within 1e-9: each sums to 1 +/- (1e-9 minus an ulp).
EDGE_MIXTURES = [
    json.dumps({"kind": "mixture", "components": [
        {"weight": 0.5, "state": first}, {"weight": weight, "state": second}]})
    for weight in (0.5000000009999999, 0.49999999900000003)
    for first, second in [
        ({"kind": "fock", "n": 2}, {"kind": "coherent", "mean_photons": 1.0}),
        ({"kind": "thermal", "mean_photons": 2.0}, {"kind": "squeezed_vacuum", "r": 0.5}),
        ({"kind": "explicit", "probs": [0.25, 0.75]}, {"kind": "fock", "n": 0}),
    ]
]
ERROR_NAMES = {
    name for name, value in vars(errors).items()
    if isinstance(value, type) and issubclass(value, errors.ClickStatsError)
}
SRC = str(Path(clickstats.__file__).resolve().parents[1])


def _assert_printed_law(got, exact):
    """Each printed entry above 1e-300 is its exact value to the 12 printed
    digits, and the rest print within 1e-300."""
    assert len(got) == len(exact)
    for k, (g, e) in enumerate(zip(got.tolist(), exact)):
        assert abs(g - e) <= (1e-11 * e if e > 1e-300 else 1e-300), (k, g, e)


def _fresh_python(*argv):
    """Run a fresh interpreter that imports this checkout of clickstats."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=120
    )


class TestParseStateSpec:
    def test_fock(self):
        spec = parse_state_spec('{"kind":"fock","n":3}')
        assert spec.kind == "fock"
        assert spec.n == 3

    def test_mixture(self):
        spec = parse_state_spec(
            '{"kind":"mixture","components":['
            '{"weight":0.7,"state":{"kind":"coherent","mean_photons":2.0}},'
            '{"weight":0.3,"state":{"kind":"fock","n":1}}]}'
        )
        assert spec.kind == "mixture"
        assert len(spec.components) == 2
        assert spec.components[0][0] == 0.7

    def test_underweight_mixture_rejected(self):
        with pytest.raises(ValidationError, match="weights sum"):
            parse_state_spec(
                '{"kind":"mixture","components":['
                '{"weight":0.9,"state":{"kind":"fock","n":1}}]}'
            )

    def test_malformed_json(self):
        with pytest.raises(ParseError):
            parse_state_spec('{"kind":"fock",')

    def test_unknown_field(self):
        with pytest.raises(ValidationError):
            parse_state_spec('{"kind":"fock","n":1,"mu":2.0}')


def _mixture(*components):
    return '{"kind":"mixture","components":[%s]}' % ",".join(
        '{"weight":%s,"state":%s}' % pair for pair in components
    )


def _nested(depth):
    text = FOCK1
    for _ in range(depth):
        text = _mixture(("1.0", text))
    return text


_KINDS_TEXT = "('coherent', 'thermal', 'fock', 'squeezed_vacuum', 'mixture', 'explicit')"


class TestStateErrorMessages:
    """Every malformed state exits 2 with one message naming its field path."""

    @pytest.mark.parametrize("state,message", [
        ('{"kind":"coherent","mean_photons":-1}',
         "state.mean_photons: must be a nonnegative real, got -1"),
        ('{"kind":"coherent","mean_photons":"2"}',
         "state.mean_photons: must be a nonnegative real, got '2'"),
        ('{"kind":"coherent","mean_photons":true}',
         "state.mean_photons: must be a nonnegative real, got True"),
        ('{"kind":"coherent","mean_photons":null}',
         "state.mean_photons: must be a nonnegative real, got None"),
        ('{"kind":"coherent","mean_photons":[1]}',
         "state.mean_photons: must be a nonnegative real, got [1]"),
        ('{"kind":"coherent","mean_photons":NaN}',
         "state.mean_photons: must be a nonnegative real, got nan"),
        ('{"kind":"coherent","mean_photons":1e400}',
         "state.mean_photons: must be a nonnegative real, got inf"),
        ('{"kind":"thermal","mean_photons":-0.5}',
         "state.mean_photons: must be a nonnegative real, got -0.5"),
        ('{"kind":"thermal","mean_photons":"x"}',
         "state.mean_photons: must be a nonnegative real, got 'x'"),
        ('{"kind":"thermal","mean_photons":false}',
         "state.mean_photons: must be a nonnegative real, got False"),
        ('{"kind":"fock","n":-2}', "state.n: must be a nonnegative integer, got -2"),
        ('{"kind":"fock","n":1.5}', "state.n: must be a nonnegative integer, got 1.5"),
        ('{"kind":"fock","n":2.0}', "state.n: must be a nonnegative integer, got 2.0"),
        ('{"kind":"fock","n":"3"}', "state.n: must be a nonnegative integer, got '3'"),
        ('{"kind":"fock","n":true}', "state.n: must be a nonnegative integer, got True"),
        ('{"kind":"fock","n":null}', "state.n: must be a nonnegative integer, got None"),
        ('{"kind":"squeezed_vacuum","r":-0.1}', "state.r: must be a nonnegative real, got -0.1"),
        ('{"kind":"squeezed_vacuum","r":"0.5"}', "state.r: must be a nonnegative real, got '0.5'"),
        ('{"kind":"squeezed_vacuum","r":false}', "state.r: must be a nonnegative real, got False"),
        ('{"kind":"squeezed_vacuum","r":-Infinity}',
         "state.r: must be a nonnegative real, got -inf"),
        (_mixture(("1.5", FOCK1)), "state.components[0].weight: must lie in [0, 1], got 1.5"),
        (_mixture(("-0.5", FOCK1), ("1.5", FOCK1)),
         "state.components[0].weight: must lie in [0, 1], got -0.5"),
        (_mixture(('"0.5"', FOCK1), ("0.5", FOCK1)),
         "state.components[0].weight: must lie in [0, 1], got '0.5'"),
        (_mixture(("true", FOCK1)), "state.components[0].weight: must lie in [0, 1], got True"),
        (_mixture(("0.9", FOCK1)), "state.components: weights sum to 0.9, expected 1"),
        (_mixture(("1.0", '{"kind":"fock","n":-1}')),
         "state.components[0].state.n: must be a nonnegative integer, got -1"),
        (_mixture(("1.0", '"fock"')), "state.components[0].state: expected an object, got str"),
        ('{"kind":"mixture","components":[]}', "state.components: must be a nonempty list"),
        ('{"kind":"mixture","components":{"weight":1}}', "state.components: must be a nonempty list"),
        ('{"kind":"mixture","components":[{"weight":1.0}]}',
         "state.components[0]: expected an object with 'weight' and 'state'"),
        ('{"kind":"mixture","components":[[1.0,%s]]}' % FOCK1,
         "state.components[0]: expected an object with 'weight' and 'state'"),
        ('{"kind":"explicit","probs":[]}', "state.probs: must be a nonempty list"),
        ('{"kind":"explicit","probs":0.5}', "state.probs: must be a nonempty list"),
        ('{"kind":"explicit","probs":[0.5,"0.5"]}',
         "state.probs[1]: must lie in [0, 1], got '0.5'"),
        ('{"kind":"explicit","probs":[0.5,true]}', "state.probs[1]: must lie in [0, 1], got True"),
        ('{"kind":"explicit","probs":[0.5,null]}', "state.probs[1]: must lie in [0, 1], got None"),
        ('{"kind":"explicit","probs":[-0.5,1.5]}', "state.probs[0]: must lie in [0, 1], got -0.5"),
        ('{"kind":"explicit","probs":[0.3,0.72]}',
         "state.probs: sum 1.02 deviates from 1 by more than 1e-06"),
        ('{"kind":"laser","mean_photons":1}', f"state.kind: 'laser' is not one of {_KINDS_TEXT}"),
        ('{"mean_photons":1}', f"state.kind: None is not one of {_KINDS_TEXT}"),
        ('{"kind":["fock"],"n":1}', f"state.kind: ['fock'] is not one of {_KINDS_TEXT}"),
        ('{"kind":"coherent"}', "state: missing fields ['mean_photons'] for kind 'coherent'"),
        ('{"kind":"coherent","mean_photons":1,"n":2}',
         "state: unexpected fields ['n'] for kind 'coherent'"),
        ('{"kind":"fock","n":1,"mu":2.0}', "state: unexpected fields ['mu'] for kind 'fock'"),
        (_nested(9), "state" + ".components[0].state" * 9
         + ": mixture nesting depth exceeds 8"),
    ])
    def test_exit_2_and_first_stderr_line(self, capsys, state, message):
        assert main(["qb", "--state", state, "--detectors", "4"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[0] == f"error: ValidationError: {message}"

    def test_depth_8_is_accepted(self, capsys):
        assert main(["qb", "--state", _nested(8), "--detectors", "4"]) == 0


class TestDistVerb:
    def test_coherent_binomial(self, tmp_path, capsys):
        out = tmp_path / "dist.csv"
        code = main([
            "dist", "--state", COHERENT4, "--detectors", "8",
            "--eta", "0.5", "--out", str(out),
        ])
        assert code == 0
        dist = records.parse_distribution(out.read_text(), "table")
        p = -math.expm1(-0.25)
        expected = [math.comb(8, k) * p**k * (1 - p) ** (8 - k) for k in range(9)]
        np.testing.assert_allclose(dist.probs, expected, atol=1e-11)

    def test_stdout_structured(self, capsys):
        code = main(["dist", "--state", FOCK1, "--detectors", "2",
                     "--format", "structured"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["N"] == 2
        assert payload["probs"] == [0.0, 1.0, 0.0]

    def test_state_from_file(self, tmp_path):
        state_file = tmp_path / "state.json"
        state_file.write_text(COHERENT4)
        code = main(["dist", "--state", str(state_file), "--detectors", "4"])
        assert code == 0

    def test_missing_state_file(self, tmp_path, capsys):
        code = main(["dist", "--state", str(tmp_path / "nope.json"),
                     "--detectors", "4"])
        assert code == 2

    def test_forced_gf_gives_the_exact_law(self, capsys):
        # The alternating sum once failed its checks here, and gf exited 1.
        code = main([
            "dist", "--state", '{"kind":"squeezed_vacuum","r":0.8}',
            "--detectors", "64", "--eta", "0.05", "--method", "gf",
        ])
        assert code == 0
        got = records.parse_distribution(capsys.readouterr().out, "table").probs
        with mpmath.workdps(420):
            exact = oracles.clicks_by_inclusion_exclusion_mp(
                clickstats.StateSpec.squeezed_vacuum(0.8), 64, 0.05, 0.0
            )
        _assert_printed_law(got, [float(e) for e in exact])


class TestQbVerb:
    def test_coherent_report(self, capsys):
        code = main(["qb", "--state", COHERENT4, "--detectors", "8",
                     "--eta", "0.5"])
        assert code == 0
        rep = records.parse_nonclassicality(capsys.readouterr().out, "table")
        assert abs(rep.q_b) <= 1e-10
        assert rep.q_m_clicks == pytest.approx(-0.2211992169, abs=1e-9)
        assert rep.q_m_photons == pytest.approx(0.0, abs=1e-9)

    def test_vacuum_is_degenerate(self, capsys):
        code = main(["qb", "--state", '{"kind":"fock","n":0}', "--detectors", "4"])
        assert code == 1
        assert "DegenerateMean" in capsys.readouterr().err

    @pytest.mark.parametrize("N", ["1", "3", "7", "64", "1024"])
    def test_thermal_at_the_largest_float_is_degenerate(self, capsys, N):
        # At N = 3 and 7 this once ended in NumericalInstability "nan".
        code = main(["qb", "--state", '{"kind":"thermal","mean_photons":1.7976931348623157e308}',
                     "--detectors", N, "--eta", "1"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: DegenerateMean")

    @pytest.mark.parametrize("state,extra,q_m_photons", [
        ('{"kind":"thermal","mean_photons":200}', [], "200"),
        ('{"kind":"squeezed_vacuum","r":3.5}', [], format(math.cosh(7.0), ".12g")),
        ('{"kind":"coherent","mean_photons":4000}', ["--eta", "0.001"], "0"),
    ], ids=["thermal", "squeezed", "coherent"])
    def test_photon_laws_beyond_the_cutoff(self, capsys, state, extra, q_m_photons):
        # Each needs more than MAX_NMAX photons; dist and sweep never did.
        assert main(["qb", "--state", state, "--detectors", "8", *extra]) == 0
        rows = dict(line.split(",") for line in capsys.readouterr().out.splitlines())
        assert rows["q_m_photons"] == q_m_photons

    @pytest.mark.parametrize("state", [
        '{"kind":"fock","n":5000}',
        '{"kind":"explicit","probs":[%s]}' % ",".join([repr(1.0 / 4201)] * 4201),
    ], ids=["fock", "explicit"])
    @pytest.mark.parametrize("method", ["gf", "dp", "auto"])
    def test_photon_laws_beyond_the_chain_cap(self, capsys, state, method):
        # No route holds these laws; auto once printed a wrong one for Fock 5000.
        code = main(["qb", "--state", state, "--detectors", "8", "--eta", "0.001",
                     "--nu", "0.05", "--method", method])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: TruncationOverflow: ")


class TestSimulateAnalyzeRoundTrip:
    def test_byte_identical_and_worker_independent(self, tmp_path):
        args = ["simulate", "--state", COHERENT4, "--detectors", "8",
                "--eta", "0.5", "--trials", "5000", "--seed", "42"]
        f1, f2, f3 = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
        assert main(args + ["--out", str(f1)]) == 0
        assert main(args + ["--out", str(f2)]) == 0
        assert main(args + ["--workers", "3", "--out", str(f3)]) == 0
        assert f1.read_bytes() == f2.read_bytes() == f3.read_bytes()

    def test_seed_is_mandatory(self, capsys):
        code = main(["simulate", "--state", COHERENT4, "--detectors", "8",
                     "--trials", "100"])
        assert code == 2

    @pytest.mark.parametrize(
        "state,n,eta,true_qb",
        [
            (COHERENT4, 8, 0.5, 0.0),
            ('{"kind":"thermal","mean_photons":1.0}', 2, 1.0, 0.25),
            (FOCK1, 8, 0.5, -7 / 15),
        ],
    )
    def test_round_trip_recovers_kernel_value(self, tmp_path, state, n, eta, true_qb):
        sample_file = tmp_path / "samples.csv"
        code = main([
            "simulate", "--state", state, "--detectors", str(n),
            "--eta", str(eta), "--trials", "100000", "--seed", "21",
            "--out", str(sample_file),
        ])
        assert code == 0
        report_file = tmp_path / "report.csv"
        code = main([
            "analyze", "--in", str(sample_file), "--bootstrap", "1000",
            "--seed", "22", "--out", str(report_file),
        ])
        assert code == 0
        reports = records.parse_estimates(report_file.read_text(), "table")
        qb = next(r for r in reports if r.statistic_name == "q_b")
        assert qb.ci_low <= true_qb <= qb.ci_high
        assert qb.sample_size == 100000

    def test_analyze_without_bootstrap(self, tmp_path, capsys):
        sample_file = tmp_path / "s.csv"
        main(["simulate", "--state", FOCK1, "--detectors", "4", "--eta", "0.7",
              "--trials", "1000", "--seed", "3", "--out", str(sample_file)])
        code = main(["analyze", "--in", str(sample_file)])
        assert code == 0
        reports = records.parse_estimates(capsys.readouterr().out, "table")
        assert {r.statistic_name for r in reports} == {"q_b", "q_m"}
        assert all(r.ci_low is None for r in reports)

    def test_analyze_requires_seed_with_bootstrap(self, tmp_path, capsys):
        sample_file = tmp_path / "s.csv"
        main(["simulate", "--state", FOCK1, "--detectors", "4", "--eta", "0.7",
              "--trials", "1000", "--seed", "3", "--out", str(sample_file)])
        assert main(["analyze", "--in", str(sample_file), "--bootstrap", "500"]) == 2

    @pytest.mark.parametrize("level", ["7", "nan", "-1", "0", "1"])
    @pytest.mark.parametrize("extra", [[], ["--format", "structured"],
                                       ["--bootstrap", "200", "--seed", "5"]])
    def test_analyze_rejects_a_level_outside_0_1(self, tmp_path, level, extra):
        sample_file = tmp_path / "s.csv"
        main(["simulate", "--state", FOCK1, "--detectors", "4", "--eta", "0.7",
              "--trials", "1000", "--seed", "3", "--out", str(sample_file)])
        proc = _fresh_python("-m", "clickstats", "analyze", "--in", str(sample_file),
                             "--level", level, *extra)
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert "confidence level: must lie in (0, 1)" in proc.stderr

    def test_analyze_empty_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        code = main(["analyze", "--in", str(empty)])
        assert code == 1
        assert "InsufficientData" in capsys.readouterr().err

    def test_analyze_small_bootstrap_rejected(self, tmp_path, capsys):
        sample_file = tmp_path / "s.csv"
        main(["simulate", "--state", FOCK1, "--detectors", "4", "--eta", "0.7",
              "--trials", "1000", "--seed", "3", "--out", str(sample_file)])
        code = main(["analyze", "--in", str(sample_file), "--bootstrap", "10",
                     "--seed", "4"])
        assert code == 1
        assert "InsufficientData" in capsys.readouterr().err


class TestSweepVerb:
    def test_eta_sweep_fock1_closed_form(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--state", FOCK1, "--detectors", "8",
            "--sweep-axis", "eta", "--from", "0.1", "--to", "1.0",
            "--steps", "10", "--out", str(out),
        ])
        assert code == 0
        axis, rows = records.parse_sweep(out.read_text(), "table")
        assert axis == "eta"
        assert len(rows) == 10
        grid = np.linspace(0.1, 1.0, 10)
        for (value, qb, qm, mean, var), eta in zip(rows, grid):
            assert value == pytest.approx(eta, abs=1e-12)
            # float noise in the small-mean ratio plus 12-digit file rounding
            assert qb == pytest.approx(-eta * 7 / (8 - eta), abs=1e-10)
            assert mean == pytest.approx(eta, abs=1e-12)

    def test_detector_sweep(self, capsys):
        code = main([
            "sweep", "--state", COHERENT4, "--detectors", "2", "--eta", "0.5",
            "--sweep-axis", "N", "--from", "2", "--to", "10", "--steps", "5",
        ])
        assert code == 0
        axis, rows = records.parse_sweep(capsys.readouterr().out, "table")
        assert axis == "N"
        assert [r[0] for r in rows] == [2, 4, 6, 8, 10]
        assert all(abs(r[1]) <= 1e-10 for r in rows)  # coherent stays binomial

    def test_mean_photons_sweep(self, capsys):
        code = main([
            "sweep", "--state", '{"kind":"thermal","mean_photons":1.0}',
            "--detectors", "4", "--eta", "0.8", "--sweep-axis", "mean_photons",
            "--from", "0.5", "--to", "2.0", "--steps", "4",
        ])
        assert code == 0
        _, rows = records.parse_sweep(capsys.readouterr().out, "table")
        assert all(r[1] > 0 for r in rows)  # thermal clicks are super-binomial

    def test_r_axis_needs_squeezed_state(self, capsys):
        code = main([
            "sweep", "--state", COHERENT4, "--detectors", "4",
            "--sweep-axis", "r", "--from", "0.1", "--to", "1.0", "--steps", "5",
        ])
        assert code == 2

    def test_non_integer_detector_grid(self, capsys):
        code = main([
            "sweep", "--state", COHERENT4, "--detectors", "2",
            "--sweep-axis", "N", "--from", "2", "--to", "5", "--steps", "5",
        ])
        assert code == 2

    def test_points_are_evaluated_in_grid_order(self, capsys):
        # The first point's degenerate mean is reported before the second
        # point's non-integer N is reached.
        code = main([
            "sweep", "--state", '{"kind":"fock","n":0}', "--detectors", "1",
            "--sweep-axis", "N", "--from", "1", "--to", "1.5", "--steps", "2",
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: DegenerateMean")


class TestUsageErrors:
    def test_unknown_verb(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_required(self, capsys):
        assert main(["dist", "--detectors", "4"]) == 2

    def test_out_of_range_eta(self, capsys):
        code = main(["dist", "--state", FOCK1, "--detectors", "4", "--eta", "1.5"])
        assert code == 2

    def test_bad_state_json(self, capsys):
        code = main(["dist", "--state", '{"kind":"fock"', "--detectors", "4"])
        assert code == 2


class TestWorkerRule:
    """Every verb with --workers applies the same rule, with the same message."""

    def test_simulate_and_analyze_reject_zero_workers(self, tmp_path, capsys):
        sample_file = tmp_path / "s.csv"
        sim = ["simulate", "--state", FOCK1, "--detectors", "4", "--eta", "0.7",
               "--trials", "1000", "--seed", "3"]
        assert main(sim + ["--out", str(sample_file)]) == 0
        capsys.readouterr()
        assert main(sim + ["--workers", "0"]) == 2
        expected = capsys.readouterr().err
        assert "workers: must be a positive integer" in expected
        for extra in ([], ["--bootstrap", "200", "--seed", "5"]):
            code = main(["analyze", "--in", str(sample_file), "--workers", "0", *extra])
            assert code == 2
            assert capsys.readouterr().err == expected

    def test_zero_detector_record_rejected(self, tmp_path, capsys):
        sample_file = tmp_path / "s.csv"
        sample_file.write_text("# N=0\nclicks\n0\n0\n0\n")
        assert main(["analyze", "--in", str(sample_file)]) == 2
        assert "ValidationError: N: " in capsys.readouterr().err


class TestMalformedInputExitsCleanly:
    """Malformed input exits 2 with a one-line error, never a traceback."""

    def _assert_usage_error(self, proc):
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")

    def test_click_value_beyond_64_bits(self, tmp_path):
        sample_file = tmp_path / "s.csv"
        sample_file.write_text("# N=8\nclicks\n1\n12345678901234567890\n")
        self._assert_usage_error(
            _fresh_python("-m", "clickstats", "analyze", "--in", str(sample_file))
        )

    def test_detector_count_beyond_64_bits(self, tmp_path):
        sample_file = tmp_path / "s.csv"
        sample_file.write_text("# N=99999999999999999999\nclicks\n1\n2\n")
        self._assert_usage_error(
            _fresh_python("-m", "clickstats", "analyze", "--in", str(sample_file))
        )

    @pytest.mark.parametrize("config", [
        '{"N":8,"eta":[1],"nu":0}', '{"N":1e400,"eta":1,"nu":0}',
    ])
    def test_config_echo_with_non_numbers(self, tmp_path, config):
        sample_file = tmp_path / "s.csv"
        sample_file.write_text(f"# N=8\n# config={config}\nclicks\n1\n2\n")
        self._assert_usage_error(
            _fresh_python("-m", "clickstats", "analyze", "--in", str(sample_file))
        )

    def test_config_echo_with_another_n(self, tmp_path):
        sample_file = tmp_path / "s.csv"
        sample_file.write_text(
            '# N=8\n# config={"N":16,"eta":0.5,"nu":0.0}\nclicks\n1\n2\n3\n1\n'
        )
        proc = _fresh_python("-m", "clickstats", "analyze", "--in", str(sample_file))
        self._assert_usage_error(proc)
        assert proc.stderr.startswith("error: ValidationError: config_echo.N: "), proc.stderr

    def test_explicit_probabilities_overflowing_their_sum(self):
        self._assert_usage_error(_fresh_python(
            "-m", "clickstats", "qb", "--state",
            '{"kind":"explicit","probs":[1e308,1e308]}', "--detectors", "4",
        ))

    def test_mixture_nested_3000_deep(self, tmp_path):
        text = FOCK1
        for _ in range(3000):
            text = '{"kind":"mixture","components":[{"weight":1.0,"state":%s}]}' % text
        state_file = tmp_path / "deep.json"
        state_file.write_text(text)
        self._assert_usage_error(_fresh_python(
            "-m", "clickstats", "qb", "--state", str(state_file), "--detectors", "4",
        ))
        sample_file = tmp_path / "s.csv"
        sample_file.write_text(f"# N=8\n# state={text}\nclicks\n1\n2\n")
        self._assert_usage_error(
            _fresh_python("-m", "clickstats", "analyze", "--in", str(sample_file))
        )

    def test_nesting_beyond_the_cap_rejected_before_recursing(self):
        data = {"kind": "fock", "n": 1}
        for _ in range(3000):
            data = {"kind": "mixture", "components": [{"weight": 1.0, "state": data}]}
        with pytest.raises(ValidationError, match="depth"):
            clickstats.state_from_dict(data)


class TestUserNamedFiles:
    """A user-named file that cannot be read, decoded or written exits 2
    with a ParseError naming it."""

    @pytest.mark.parametrize("verb,extra", [
        ("dist", []), ("simulate", ["--trials", "10", "--seed", "1"]),
    ])
    def test_unwritable_out(self, tmp_path, verb, extra):
        out = str(tmp_path / "missing" / "x.csv")
        proc = _fresh_python(
            "-m", "clickstats", verb, "--state", FOCK1, "--detectors", "4", *extra,
            "--out", out,
        )
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(
            f"error: ParseError: cannot write output file {out!r}: "
        ), proc.stderr

    @pytest.mark.parametrize("argv,what", [
        (["qb", "--detectors", "4", "--state"], "state file"),
        (["analyze", "--in"], "sample file"),
    ])
    def test_undecodable_input(self, tmp_path, capsys, argv, what):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"\xff\xfe not utf-8\n")
        assert main([*argv, str(path)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: ParseError: cannot read {what} {str(path)!r}: 'utf-8' codec"
        )


class TestSweepGridEnds:
    """Sweep ends that no grid can span exit 2 naming the flag, before numpy
    sees them, so no numpy warning is printed."""

    @pytest.mark.parametrize("start,stop,steps,message", [
        ("1", "inf", "2", "--to must be a finite number"),
        ("-1.7e308", "1.7e308", "3", "--to minus --from overflows"),
        ("nan", "nan", "1", "--from must be a finite number"),
        *(("1", "2", str(steps), f"--steps must be an integer in [1, {MAX_SWEEP_STEPS}]")
          for steps in (0, MAX_SWEEP_STEPS + 1, 10**12, 10**30)),
    ])
    def test_rejected_before_the_grid(self, start, stop, steps, message):
        proc = _fresh_python(
            "-m", "clickstats", "sweep", "--state", FOCK1, "--detectors", "8",
            "--sweep-axis", "N", f"--from={start}", f"--to={stop}", "--steps", steps,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: ValidationError"), proc.stderr
        assert message in proc.stderr
        assert "Warning" not in proc.stderr


class TestExtremeStateParameters:
    """States whose photon law no cutoff can hold exit 1, and real fields
    beyond the float range exit 2; never a traceback."""

    BIG = "1" + "0" * 400

    @pytest.mark.parametrize("state,path", [
        ('{"kind":"coherent","mean_photons":%s}' % BIG, "state.mean_photons"),
        ('{"kind":"thermal","mean_photons":%s}' % BIG, "state.mean_photons"),
        ('{"kind":"squeezed_vacuum","r":%s}' % BIG, "state.r"),
        (_mixture((BIG, FOCK1)), "state.components[0].weight"),
        ('{"kind":"explicit","probs":[0,%s]}' % BIG, "state.probs[1]"),
    ], ids=["coherent", "thermal", "squeezed", "weight", "probs"])
    def test_real_field_beyond_the_float_range(self, state, path):
        proc = _fresh_python(
            "-m", "clickstats", "dist", "--state", state, "--detectors", "4",
        )
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"error: ValidationError: {path}: must "), proc.stderr

    def test_integer_beyond_the_digit_limit(self):
        # Python's JSON reader refuses integer literals over 4300 digits.
        proc = _fresh_python(
            "-m", "clickstats", "qb", "--detectors", "4",
            "--state", '{"kind":"coherent","mean_photons":1%s}' % ("0" * 5000),
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: ParseError: state spec is not valid JSON: "), proc.stderr

    @pytest.mark.parametrize("echo,path", [
        ('# config={"N":8,"eta":%s,"nu":0}' % BIG, "config.eta"),
        ('# state={"kind":"coherent","mean_photons":%s}' % BIG, "state.mean_photons"),
    ], ids=["config", "state"])
    def test_record_echo_beyond_the_float_range(self, tmp_path, echo, path):
        sample_file = tmp_path / "s.csv"
        sample_file.write_text(f"# N=8\n{echo}\nclicks\n1\n2\n")
        proc = _fresh_python("-m", "clickstats", "analyze", "--in", str(sample_file))
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"error: ValidationError: {path}: must "), proc.stderr

    @pytest.mark.parametrize("state,method", [
        ('{"kind":"thermal","mean_photons":1e17}', "dp"),
        ('{"kind":"squeezed_vacuum","r":50}', "auto"),
        ('{"kind":"squeezed_vacuum","r":1e300}', "auto"),
    ])
    def test_truncation_overflow(self, state, method):
        proc = _fresh_python(
            "-m", "clickstats", "qb", "--state", state, "--detectors", "8",
            "--method", method,
        )
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: TruncationOverflow")

    FOCK_BEYOND_FLOATS = '{"kind":"fock","n":1%s}' % ("0" * 400)

    @pytest.mark.parametrize("verb,extra", [
        ("dist", ["--method", "auto"]),
        ("dist", ["--method", "gf"]),
        ("dist", ["--method", "dp"]),
        ("qb", []),
        ("sweep", ["--sweep-axis", "eta", "--from", "0.5", "--to", "1", "--steps", "2"]),
        ("simulate", ["--trials", "10", "--seed", "1"]),
    ])
    def test_fock_number_beyond_the_float_range(self, verb, extra):
        # Every route names the overflow: the occupancy route and the
        # simulator at the cutoff, the generating function at the float range.
        proc = _fresh_python(
            "-m", "clickstats", verb, "--state", self.FOCK_BEYOND_FLOATS,
            "--detectors", "4", *extra,
        )
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: TruncationOverflow"), proc.stderr


class TestSqueezedAtLargeN:
    """Where the log-space inclusion-exclusion once overflowed (from N ~ 650),
    auto and a forced gf both print the exact squeezed law, never with a
    traceback."""

    @pytest.mark.parametrize("N", ["653", "1024"])
    def test_auto_report_is_the_gf_report(self, N):
        state = '{"kind":"squeezed_vacuum","r":0.8}'
        auto = _fresh_python("-m", "clickstats", "qb", "--state", state, "--detectors", N)
        gf = _fresh_python("-m", "clickstats", "qb", "--state", state, "--detectors", N,
                           "--method", "gf")
        assert auto.returncode == 0, auto.stderr
        assert gf.returncode == 0, gf.stderr
        assert auto.stdout == gf.stdout
        assert "q_b," in auto.stdout

    @pytest.mark.parametrize("N", [653, 1024])
    def test_forced_gf_is_the_exact_law(self, N):
        proc = _fresh_python(
            "-m", "clickstats", "dist", "--state", '{"kind":"squeezed_vacuum","r":0.8}',
            "--detectors", str(N), "--method", "gf",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        got = records.parse_distribution(proc.stdout, "table").probs
        # The reference: the same trapezoid rule at a fixed 4096 nodes, in one
        # pass; at r = 0.8 it converges from 256.
        n, r = 4096, 0.8
        b = click_kernel._dark_law(clickstats.DetectorConfig(N=N, eta=1.0))
        nodes, cosh_r = np.pi / n * np.arange(n), math.cosh(r)
        sums = click_kernel._resolvent_sums(nodes, [(0, n, 1)], cosh_r, math.tanh(r), b, N, 1.0)
        _assert_printed_law(got, (sums[:, 0] / (n * cosh_r)).tolist())


class TestHugeClickValues:
    def test_analyze_under_a_3gb_address_space(self, tmp_path):
        # Counting click values by bincount would allocate 37 GiB here.
        sample_file = tmp_path / "s.csv"
        clicks = [0, 5000000000, 1, 2, 5000000000, 3, 0, 1, 5000000000, 2, 4, 0]
        sample_file.write_text(
            "# N=5000000000\nclicks\n" + "".join(f"{c}\n" for c in clicks)
        )
        proc = _fresh_python("-c", (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))\n"
            "from clickstats.cli import main\n"
            f"sys.exit(main(['analyze', '--in', {str(sample_file)!r}, "
            "'--bootstrap', '200', '--seed', '1']))\n"
        ))
        assert proc.returncode == 0, proc.stderr
        rows = records.parse_estimates(proc.stdout)
        assert [r.statistic_name for r in rows] == ["q_b", "q_m"]
        for r in rows:
            assert all(math.isfinite(v) for v in (r.point_estimate, r.ci_low, r.ci_high))


class TestRecordAndEstimatorRules:
    """The estimator arguments and a record's fields exit 2 when out of range."""

    @pytest.mark.parametrize("replicates", ["-7", "1000001", "1000000000000"])
    def test_bootstrap_outside_its_range(self, tmp_path, replicates):
        # 10^12 replicates would ask numpy for 7.3 TiB of moments.
        sample_file = tmp_path / "s.csv"
        sample_file.write_text("# N=4\nclicks\n" + "0\n1\n2\n" * 5)
        proc = _fresh_python("-c", (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))\n"
            "from clickstats.cli import main\n"
            f"sys.exit(main(['analyze', '--in', {str(sample_file)!r}, "
            f"'--bootstrap', {replicates!r}, '--seed', '1']))\n"
        ))
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.startswith(
            "error: ValidationError: bootstrap replicates: must be an integer in [0, 1000000]"
        ), proc.stderr

    @pytest.mark.parametrize("line,path", [
        ("# seed=-1", "seed"), ("# seed=18446744073709551616", "seed"),
        ("# stream=0", "stream"), ("# stream=-2", "stream"),
    ])
    def test_record_seed_and_stream(self, tmp_path, capsys, line, path):
        sample_file = tmp_path / "s.csv"
        sample_file.write_text(f"# N=4\n{line}\nclicks\n0\n1\n2\n")
        assert main(["analyze", "--in", str(sample_file)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: ValidationError: {path}: must ")


@pytest.fixture(scope="module")
def record_files(tmp_path_factory):
    """A valid, a malformed and a missing sample file for the argv property."""
    root = tmp_path_factory.mktemp("argv")
    good = root / "good.csv"
    assert main(["simulate", "--state", COHERENT4, "--detectors", "8", "--eta", "0.5",
                 "--trials", "300", "--seed", "2", "--out", str(good)]) == 0
    bad = root / "bad.csv"
    bad.write_text("# N=8\nclicks\n1\nbanana\n")
    return [str(good), str(bad), str(root / "missing.csv")]


def _mostly(good, odd):
    """Draws from ``good`` about five times in six, so that many argvs run.

    The odd branch sits mid-range: hypothesis favours the ends of a range.
    """
    return st.integers(0, 5).flatmap(lambda pick: odd if pick == 2 else good)


def _text(values):
    return st.sampled_from([str(v) for v in values])


_STATES = _mostly(
    _text([
        COHERENT4, FOCK1, '{"kind":"thermal","mean_photons":2.0}',
        '{"kind":"squeezed_vacuum","r":0.5}', '{"kind":"fock","n":0}',
        '{"kind":"explicit","probs":[0.5,0.5]}',
        '{"kind":"mixture","components":[{"weight":0.5,"state":{"kind":"fock","n":2}},'
        '{"weight":0.5,"state":{"kind":"coherent","mean_photons":1.0}}]}',
    ]),
    _text([
        '{"kind":"thermal","mean_photons":-1}', '{"kind":"fock","n":1.5}',
        '{"kind":"squeezed_vacuum","r":30}', '{"kind":"thermal","mean_photons":1e17}',
        '{"kind":"nope"}', "{bad json", "[]", "no/such/state.json",
        *EDGE_MIXTURES, '{"kind":"thermal","mean_photons":1.7e308}',
    ]),
)
_BAD_NUMBER = _text(["nan", "inf", "-inf", "1e400", "-1", "x", ""])
_DETECTORS = _mostly(st.integers(1, 64).map(str), _text(["0", "-1", "99999", "1.5", "x"]))
_ETA = _mostly(st.floats(0, 1).map(repr), _text(["1.5", "-0.1"]) | _BAD_NUMBER)
_NU = _mostly(st.floats(0, 0.5).map(repr), _text(["11"]) | _BAD_NUMBER)
_SEED = _mostly(st.integers(0, 1000).map(str), _text([-1, 2**64, "y"]))


def _option(flag, values):
    """``[flag, value]`` mostly, and sometimes nothing, so options go missing."""
    present = values.map(lambda v: [flag, v])
    return st.integers(0, 7).flatmap(lambda pick: st.just([]) if pick == 3 else present)


@st.composite
def _argv(draw, files):
    """CLI arguments of every verb, with bad and missing values mixed in."""
    verb = draw(_mostly(_text(["dist", "qb", "simulate", "analyze", "sweep"]), _text(["fit"])))
    argv = [verb]
    if verb == "analyze":
        argv += draw(_option("--in", _mostly(st.just(files[0]), st.sampled_from(files[1:]))))
        argv += draw(_option("--bootstrap", _mostly(_text([0, 100, 200]), _text([50, -3, "x"]))))
        argv += draw(_option("--level", _mostly(st.floats(0.01, 0.99).map(repr),
                                                _text([0, 1]) | _BAD_NUMBER)))
        argv += draw(_option("--seed", _SEED))
    else:
        argv += draw(_option("--state", _STATES))
        argv += draw(_option("--detectors", _DETECTORS))
        argv += draw(_option("--eta", _ETA))
        argv += draw(_option("--nu", _NU))
        if verb != "simulate":
            argv += draw(_option("--method", _mostly(_text(["gf", "dp", "auto"]),
                                                     _text(["exact"]))))
    if verb == "simulate":
        argv += draw(_option("--trials", _mostly(st.integers(1, 500).map(str),
                                                 _text([0, -5, "x"]))))
        argv += draw(_option("--seed", _SEED))
    if verb in ("simulate", "analyze"):
        argv += draw(_option("--workers", _mostly(_text([1, 2, 3]), _text([0, -1, "x"]))))
    if verb == "sweep":
        axis = draw(_mostly(_text(["eta", "nu", "N", "mean_photons", "r"]), _text(["q"])))
        argv += draw(_option("--sweep-axis", st.just(axis)))
        bound = _mostly(st.integers(1, 64).map(str), _BAD_NUMBER) if axis == "N" else _ETA
        argv += draw(_option("--from", bound))
        argv += draw(_option("--to", bound))
        argv += draw(_option("--steps", _mostly(_text([1, 2, 5]), _text(
            [0, -1, "x", MAX_SWEEP_STEPS + 1, 10**12, 10**30]))))
    if verb != "simulate":
        argv += draw(_option("--format", _mostly(_text(["table", "structured"]), _text(["xml"]))))
    return argv


def _assert_exit_code_contract(argv):
    """main returns 0, 1 or 2 and raises nothing, and a nonzero exit prints
    argparse's usage or ``error: <Name>: `` naming a ClickStatsError."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    assert code in (0, 1, 2), (argv, err.getvalue())
    if code:
        named = re.match(r"error: (\w+): ", err.getvalue())
        assert err.getvalue().startswith("usage: ") or (
            named and named[1] in ERROR_NAMES
        ), (argv, err.getvalue())


class TestArgvExitCodes:
    """Whatever the argv, main returns 0, 1 or 2, raises nothing, and names
    the error of every nonzero exit."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_exit_code_contract(self, record_files, data):
        _assert_exit_code_contract(data.draw(_argv(record_files)))

    # Inputs that once reached an unnamed error or a traceback, run every time.
    @pytest.mark.parametrize("argv", [
        *(["dist", "--state", state, "--detectors", "8", "--method", "dp"]
          for state in EDGE_MIXTURES),
        *(["simulate", "--state", state, "--detectors", "8", "--trials", "50", "--seed", "1"]
          for state in EDGE_MIXTURES),
        ["qb", "--state", '{"kind":"thermal","mean_photons":1.7e308}', "--detectors", "4"],
        *(["sweep", "--state", COHERENT4, "--detectors", "8", "--sweep-axis", "eta",
           "--from", "0", "--to", "1", "--steps", str(steps)]
          for steps in (MAX_SWEEP_STEPS + 1, 10**12, 10**30)),
    ])
    def test_inputs_that_once_failed_anonymously(self, argv):
        _assert_exit_code_contract(argv)


class TestMixturesAtTheEdgesOfTheWeightRule:
    """A mixture whose weights the spec accepts computes on every route:
    its weights are renormalized where its laws are built."""

    @pytest.mark.parametrize("method", ["gf", "dp"])
    @pytest.mark.parametrize("N", [1, 8, 64, 1024])
    @pytest.mark.parametrize("state", EDGE_MIXTURES)
    def test_dist(self, capsys, state, N, method):
        assert main(["dist", "--state", state, "--detectors", str(N), "--eta", "0.7",
                     "--method", method]) == 0, capsys.readouterr().err
        probs = [float(line.split(",")[1]) for line in capsys.readouterr().out.split()[1:]]
        assert len(probs) == N + 1 and math.fsum(probs) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("state", EDGE_MIXTURES)
    def test_simulate(self, capsys, state):
        assert main(["simulate", "--state", state, "--detectors", "8", "--trials", "100",
                     "--seed", "5"]) == 0, capsys.readouterr().err
        record = records.samples_from_text(capsys.readouterr().out)
        assert record.trials == 100 and record.state_echo == parse_state_spec(state)


class TestMomentAccuracy:
    def test_click_variance_of_a_nearly_full_array(self, capsys):
        # A one-pass E[c^2] - mean^2 loses digits on this law: it gives
        # 0.91893057582 and q_b = -7.4e-13 against 0.918930575821152 and 0.
        assert main(["qb", "--state", '{"kind":"coherent","mean_photons":300}',
                     "--detectors", "64", "--eta", "0.9", "--nu", "0.01"]) == 0
        rows = dict(line.split(",") for line in capsys.readouterr().out.splitlines())
        assert rows["click_variance"] == "0.918930575821"
        assert abs(float(rows["q_b"])) <= 1e-14


class TestThermalAnchor:
    """thermal(2) on 20 perfect detectors, whose exact values are known:
    c_19 = 3.32833916042e-07, q_b = 19/12 and click_mean = 20/11."""

    THERMAL2 = '{"kind":"thermal","mean_photons":2.0}'

    def test_dist_entry(self, capsys):
        assert main(["dist", "--state", self.THERMAL2, "--detectors", "20"]) == 0
        rows = dict(line.split(",") for line in capsys.readouterr().out.splitlines())
        assert rows["19"] == "3.32833916042e-07"

    def test_qb_report(self, capsys):
        assert main(["qb", "--state", self.THERMAL2, "--detectors", "20"]) == 0
        rows = dict(line.split(",") for line in capsys.readouterr().out.splitlines())
        assert rows["q_b"] == "1.58333333333"
        assert rows["click_mean"] == "1.81818181818"


class TestNoScipy:
    """The package runs on numpy alone; scipy must not even be imported."""

    def test_import_loads_no_scipy(self):
        proc = _fresh_python(
            "-c", "import sys, clickstats; print('scipy' in sys.modules)"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_qb_verb_loads_no_scipy(self):
        # -X importtime lists every module the process imports on stderr.
        proc = _fresh_python(
            "-X", "importtime", "-m", "clickstats", "qb",
            "--state", COHERENT4, "--detectors", "8", "--nu", "0.01",
        )
        assert proc.returncode == 0, proc.stderr
        assert "q_b," in proc.stdout
        assert "clickstats.cli" in proc.stderr
        assert "scipy" not in proc.stderr
