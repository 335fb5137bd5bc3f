"""Round-trip tests for every emitted file format."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clickstats import (
    ClickDistribution,
    ClickSampleSet,
    DetectorConfig,
    EstimateReport,
    NonclassicalityReport,
    StateSpec,
    binomial_reference,
    simulate,
)
from clickstats.errors import (
    ClickStatsError,
    InsufficientData,
    InvalidSample,
    ParseError,
    ValidationError,
)
from clickstats import records
from clickstats.simulator import STREAM_VERSION

import oracles


class TestSampleFiles:
    def test_round_trip_identity(self, tmp_path):
        out = simulate(
            StateSpec.coherent(2.5), DetectorConfig(N=4, eta=0.35, nu=0.01),
            trials=500, seed=99,
        )
        path = tmp_path / "samples.csv"
        records.write_samples(path, out)
        back = records.read_samples(path)
        assert back.N == out.N
        assert back.seed == out.seed
        assert back.trials == out.trials
        assert back.state_echo == out.state_echo
        assert back.config_echo == out.config_echo
        assert back.stream == out.stream == STREAM_VERSION
        np.testing.assert_array_equal(back.clicks, out.clicks)

    def test_write_is_deterministic(self, tmp_path):
        out = simulate(StateSpec.thermal(1.0), DetectorConfig(N=2, eta=0.8),
                       trials=100, seed=5)
        assert records.samples_to_text(out) == records.samples_to_text(out)

    def test_minimal_file(self):
        text = "# N=2\nclicks\n0\n1\n2\n"
        samples = records.samples_from_text(text)
        assert samples.N == 2
        assert samples.clicks.tolist() == [0, 1, 2]
        assert samples.state_echo is None

    def test_empty_file_means_no_data(self):
        with pytest.raises(InsufficientData):
            records.samples_from_text("")
        with pytest.raises(InsufficientData):
            records.samples_from_text("# N=2\nclicks\n")

    def test_out_of_range_record(self):
        with pytest.raises(InvalidSample):
            records.samples_from_text("# N=2\nclicks\n3\n")

    def test_config_echo_must_repeat_n(self):
        text = '# N=8\n# config={"N":%d,"eta":0.5,"nu":0.0}\nclicks\n1\n2\n3\n1\n'
        assert records.samples_from_text(text % 8).config_echo.N == 8
        with pytest.raises(ValidationError, match="config_echo.N: must be N=8, got 16"):
            records.samples_from_text(text % 16)

    def test_unwritable_path_is_a_parse_error(self, tmp_path):
        # The rule of the CLI's --out: the file is named, and no OSError escapes.
        out = simulate(StateSpec.coherent(1.0), DetectorConfig(N=2, eta=0.5), trials=10, seed=1)
        path = str(tmp_path / "missing-dir" / "samples.csv")
        with pytest.raises(ParseError, match=f"^cannot write output file {re.escape(repr(path))}: "):
            records.write_samples(path, out)

    def test_malformed_rows(self):
        with pytest.raises(ParseError):
            records.samples_from_text("# N=2\nclicks\nbanana\n")
        with pytest.raises(ParseError):
            records.samples_from_text("# N=2\nnot-a-header\n1\n")
        with pytest.raises(ParseError):
            records.samples_from_text("clicks\n1\n")  # no N
        with pytest.raises(ParseError):
            records.samples_from_text("# N=2\n# trials=5\nclicks\n1\n")

    def test_stream_tag(self):
        assert records.samples_from_text("# N=2\nclicks\n1\n").stream is None
        tagged = records.samples_from_text("# N=2\n# stream=7\nclicks\n1\n")
        assert tagged.stream == 7
        assert "# stream=7\n" in records.samples_to_text(tagged)
        with pytest.raises(ParseError, match="stream"):
            records.samples_from_text("# N=2\n# stream=2.0\nclicks\n1\n")

    def test_line_grammar(self):
        text = "  # N=4 \n\nclicks\n 1\n\n# a comment\n\t2 \n+3\n"
        assert records.samples_from_text(text).clicks.tolist() == [1, 2, 3]
        with pytest.raises(ParseError, match="^line 5: expected an integer, got '1 2'$"):
            records.samples_from_text("# N=4\nclicks\n1\n\n1 2\n")
        with pytest.raises(ParseError, match="^line 4: expected an integer, got 'x'$"):
            records.samples_from_text("# N=4\nclicks\n1\nx\n")
        with pytest.raises(ParseError, match="^click records must fit a 64-bit integer$"):
            records.samples_from_text("# N=4\nclicks\n1\n\n9223372036854775808\n")
        with pytest.raises(ParseError, match="^click records must fit a 64-bit integer$"):
            records.samples_from_text("# N=4\nclicks\n1\n -9223372036854775809\n")

    def test_writer_renders_values_up_to_int64(self):
        clicks = np.array([2**63 - 1, 0, 5, 2**63 - 1, 5], dtype=np.int64)
        samples = ClickSampleSet(N=2**63 - 1, clicks=clicks, seed=3, trials=5)
        text = records.samples_to_text(samples)
        assert text.endswith("clicks\n" + "".join(f"{c}\n" for c in clicks.tolist()))
        np.testing.assert_array_equal(records.samples_from_text(text).clicks, clicks)

    def test_digit_lines_and_every_other_body_read_alike(self):
        # Short digit lines take the vectorized path; the rest fall back to the
        # line-by-line grammar and must give the same clicks.
        head = "# N=99999\nclicks\n"
        cases = {
            "1234\n0\n0042\n7\n": [1234, 0, 42, 7],
            "12345\n1\n": [12345, 1],
            "12\n3": [12, 3],
            "12\r\n3\r\n": [12, 3],
            "12\n\n3\n": [12, 3],
            "12\n# note\n3\n": [12, 3],
            " 12\n3\n": [12, 3],
            "+12\n3\n": [12, 3],
        }
        for body, clicks in cases.items():
            got = records.samples_from_text(head + body)
            assert got.clicks.tolist() == clicks, body
            assert got.clicks.dtype == np.int64
            assert got.N == 99999
        with pytest.raises(ParseError, match="line 4"):
            records.samples_from_text(head + "1\n-\n")
        with pytest.raises(InvalidSample):
            records.samples_from_text(head + "1\n100000\n")
        with pytest.raises(ParseError, match="64-bit"):
            records.samples_from_text(head + "1\n9223372036854775808\n")

    def test_header_is_the_first_non_comment_line(self):
        # A stripped " clicks" line before the first bare one is the header.
        text = "# N=9\n clicks\n4\nclicks\n5\n"
        with pytest.raises(ParseError, match="line 4"):
            records.samples_from_text(text)
        text = "# N=9\n clicks\n4\n5\nclicks\n"
        with pytest.raises(ParseError, match="line 5"):
            records.samples_from_text(text)
        with pytest.raises(ParseError, match="missing N"):
            records.samples_from_text("clicks\n1\n2\n")
        with pytest.raises(ParseError, match="line 2"):
            records.samples_from_text("# N=9\nbanana\nclicks\n1\n")

    def test_empty_record_writes_header_only(self):
        samples = ClickSampleSet(N=2, clicks=np.zeros(0, dtype=np.int64), seed=0, trials=0)
        assert records.samples_to_text(samples).endswith("\nclicks\n")

    def test_missing_path(self):
        with pytest.raises(ParseError):
            records.read_samples("/nonexistent/samples.csv")


def _mostly(good, odd):
    """Draws from ``good`` three times in four, so that many texts parse."""
    return st.integers(0, 3).flatmap(lambda pick: odd if pick == 0 else good)


_PAD = st.sampled_from(["", " ", "\t", "\u2003", "\x1f", "\x0b", "\r"])
# Clicks of 1-5 and of 18-20 digits, the widest beyond int64; sometimes
# with leading zeros.
_CLICK_DIGITS = st.tuples(
    st.sampled_from(["", "", "0", "00"]),
    st.one_of(st.integers(0, 8), st.integers(0, 99999),
              st.integers(10**17, 10**20 - 1)).map(str),
).map("".join)
_CLICK_LINE = _mostly(
    _CLICK_DIGITS,
    st.tuples(_PAD, st.one_of(
        st.integers(-2, 10).map(str),
        st.integers(2**63 - 2, 2**64).map(str),
        st.sampled_from([
            "", "+3", "007", "1_0", "\u0663", "1 2", "1.0", "x", "#", "# note",
            "0x1", "-0", "9" * 25, "clicks",
        ]),
    ), _PAD).map("".join),
)
_PREAMBLE_LINE = _mostly(
    st.sampled_from([
        "# N=8", "#N = 12 ", "# seed=5", "# stream=2", "# stream=-1", "# comment",
        "#", "", '# state={"kind":"fock","n":1}', '# config={"N":8,"eta":0.5,"nu":0.0}',
    ]),
    st.sampled_from([
        "# N=0", "# N=x", "# N=99999999999999999999", "# seed=s", "# trials=3",
        "# trials=q", "# stream=x", "# state={bad", "# config=[1]",
    ]),
)
_HEADER = _mostly(st.just("clicks"), st.sampled_from([" clicks\t", "click", "# clicks"]))


# Lines as the writer emits them, up to one digit too wide for the fast reader.
_SHORT_CLICK = st.tuples(
    st.sampled_from([""] * 7 + ["0"]), st.integers(0, 9999).map(str)
).map("".join)
_N_LINE = st.sampled_from(["# N=8", "# N=99999", "# N=9223372036854775807"])


@st.composite
def _sample_texts(draw):
    pre = draw(_mostly(_N_LINE.map(lambda line: [line]), st.just([]))) + draw(
        st.lists(_PREAMBLE_LINE, max_size=4)
    )
    body = draw(st.one_of(
        st.lists(_SHORT_CLICK, min_size=1, max_size=8),
        st.lists(_CLICK_LINE, min_size=1, max_size=8),
    ))
    newline = draw(_mostly(st.just("\n"), st.just("\r\n")))
    end = draw(_mostly(
        st.just(newline), st.sampled_from(["", "\n\n", newline + "# end" + newline])
    ))
    return newline.join(pre + [draw(_HEADER)] + body) + end


def _record_tuple(got):
    return (got.N, got.seed, got.trials, got.stream, got.clicks.tolist(),
            got.state_echo, got.config_echo)


def _outcome(reader, text):
    try:
        got = reader(text)
    except (ClickStatsError, ValueError) as exc:
        return type(exc)
    return _record_tuple(got)


_ODD_NUMBERS = st.sampled_from([True, "3", "x", 2.5, math.nan, None, -1, 0, 2**63, 2**64])
_STATE_ECHOES = st.sampled_from([
    StateSpec.coherent(1.5), StateSpec.fock(2), StateSpec.explicit([0.25, 0.75]),
    StateSpec.mixture([(0.5, StateSpec.thermal(0.3)), (0.5, StateSpec.squeezed_vacuum(0.4))]),
])


@st.composite
def _record_fields(draw):
    """ClickSampleSet fields, mostly valid, sometimes of a wrong type or range."""
    N = draw(_mostly(st.integers(1, 12), st.one_of(
        st.integers(1, 2**63 - 1), st.sampled_from([2.0, np.uint16(5)]), _ODD_NUMBERS,
    )))
    top = int(N) if isinstance(N, (int, float, np.integer)) and 1 <= N < 2**63 else 12
    clicks = draw(st.lists(st.integers(0, top), min_size=1, max_size=12))
    clicks = draw(_mostly(st.just(clicks), st.sampled_from([
        [float(c) for c in clicks], np.array(clicks, dtype=np.uint64), [c + 0.5 for c in clicks],
        [str(c) for c in clicks], [c > 0 for c in clicks], [*clicks[:-1], None], [-1, *clicks],
    ])))
    config = DetectorConfig(N=top if top <= 1024 else 1, eta=draw(st.floats(0, 1)),
                            nu=draw(st.floats(0, 10)))
    return dict(
        N=N,
        clicks=clicks,
        seed=draw(_mostly(st.integers(0, 2**64 - 1),
                          st.one_of(st.just(np.uint64(2**64 - 1)), _ODD_NUMBERS))),
        trials=draw(_mostly(st.just(len(clicks)),
                            st.sampled_from([len(clicks) + 1, float(len(clicks))]))),
        config_echo=draw(_mostly(st.sampled_from([None, config]),
                                 st.sampled_from(["config", DetectorConfig(N=3, eta=0.5)]))),
        state_echo=draw(_mostly(st.one_of(st.none(), _STATE_ECHOES), st.just("state"))),
        stream=draw(_mostly(st.one_of(st.none(), st.integers(1, 2**63 - 1)),
                            st.one_of(st.sampled_from(["v2", 2.0]), _ODD_NUMBERS))),
    )


@st.composite
def _distribution_fields(draw):
    N = draw(_mostly(st.integers(0, 8), st.sampled_from([2.0, True, "2", -1, 1.5, None])))
    size = int(N) + 1 if isinstance(N, (int, float)) and N >= 0 and N == int(N) else 3
    weights = np.array(draw(st.lists(st.floats(0, 1), min_size=size, max_size=size)))
    probs = weights / weights.sum() if weights.sum() > 0 else np.eye(size)[0]
    return N, probs


class TestWhatBuildsRoundTrips:
    """Every record and click distribution that can be built is written and
    read back equal: the checks of the data model are the reader's rules."""

    @settings(max_examples=300, deadline=None)
    @given(_record_fields())
    def test_records(self, fields):
        try:
            samples = ClickSampleSet(**fields)
        except ClickStatsError:
            return
        text = records.samples_to_text(samples)
        back = records.samples_from_text(text)
        assert _record_tuple(back) == _record_tuple(samples)
        assert all(type(v) is int for v in (back.N, back.seed, back.trials, samples.N,
                                             samples.seed, samples.trials))
        assert records.samples_to_text(back) == text

    @settings(max_examples=200, deadline=None)
    @given(_distribution_fields())
    def test_distributions(self, fields):
        try:
            dist = ClickDistribution(*fields)
        except (ClickStatsError, ValueError):
            return
        for fmt in ("table", "structured"):
            text = records.emit_distribution(dist, fmt)
            back = records.parse_distribution(text, fmt)
            assert back.N == dist.N and type(back.N) is type(dist.N) is int
            assert back.probs.tolist() == [float(records.format_number(p)) for p in dist.probs]
            assert records.emit_distribution(back, fmt) == text


class TestRecordFieldRules:
    """A record's N, seed and stream are the record's own rules, from a file too."""

    @pytest.mark.parametrize("line,path", [
        ("# N=0", "N"), ("# N=9223372036854775808", "N"), ("# N=99999999999999999999", "N"),
        ("# seed=-1", "seed"), ("# seed=18446744073709551616", "seed"),
        ("# stream=0", "stream"), ("# stream=-3", "stream"),
        ("# stream=9223372036854775808", "stream"),
    ])
    def test_reader_rejects(self, line, path):
        text = "# N=8\n" * (path != "N") + line + "\nclicks\n1\n2\n"
        with pytest.raises(ValidationError, match=f"^{path}: must "):
            records.samples_from_text(text)

    def test_extreme_values_read(self):
        text = "# N=9223372036854775807\n# seed=18446744073709551615\nclicks\n1\n"
        back = records.samples_from_text(text)
        assert (back.N, back.seed) == (2**63 - 1, 2**64 - 1)

    @pytest.mark.parametrize("fields,path", [
        (dict(seed="x"), "seed"), (dict(stream="v2"), "stream"), (dict(N=2**63), "N"),
        (dict(N=True), "N"), (dict(trials=4), "trials"), (dict(clicks=["1", "2", "0"]), "clicks"),
        (dict(clicks=[0.5, 1, 2]), "clicks"), (dict(state_echo="x"), "state_echo"),
        (dict(config_echo=DetectorConfig(N=4, eta=0.5)), "config_echo.N"),
    ])
    def test_sample_set_rejects(self, fields, path):
        good = dict(N=2, clicks=[0, 1, 2], seed=0, trials=3)
        with pytest.raises(ValidationError, match=f"^{path}: must "):
            ClickSampleSet(**{**good, **fields})

    def test_sample_set_stores_ints(self):
        samples = ClickSampleSet(N=2.0, clicks=[0.0, 1.0, 2.0], seed=np.uint8(3), trials=3.0,
                                 stream=np.int16(2))
        assert [type(v) for v in (samples.N, samples.seed, samples.trials, samples.stream)] \
            == [int] * 4
        assert samples.clicks.dtype == np.int64 and not samples.clicks.flags.writeable
        with pytest.raises(InvalidSample, match=r"^click records must lie in \[0, 2\]"):
            ClickSampleSet(N=2, clicks=[0, 3], seed=0, trials=2)


class TestEstimateReportCounts:
    ROW = dict(statistic_name="q_b", point_estimate=0.1, ci_low=None, ci_high=None,
               confidence_level=0.95, sample_size=10, bootstrap_replicates=0)

    def test_counts_take_the_number_rule(self):
        report = EstimateReport(**{**self.ROW, "sample_size": 10.0})
        assert type(report.sample_size) is int
        for name in ("sample_size", "bootstrap_replicates", "degenerate_resamples"):
            for bad in (True, -1, 2.5, "10"):
                with pytest.raises(ValidationError, match=f"^{name}: must be an integer"):
                    EstimateReport(**{**self.ROW, name: bad})

    def test_a_bootstrap_needs_its_interval(self):
        with pytest.raises(ValueError, match="needs an interval"):
            EstimateReport("q_b", 0.1, None, None, 0.95, 10, 200)

    @pytest.mark.parametrize("row", ["q_b,0.1,,,0.95,10,200,0", "q_b,0.1,,,0.95,-10,0,0"])
    def test_such_a_table_is_malformed(self, row):
        with pytest.raises(ParseError):
            records.parse_estimates(_ESTIMATE_HEADER + row + "\n")


class TestReportsHoldFiniteNumbers:
    """A report holds finite numbers only (an optional one may be None), so
    every report that exists can be written and read back."""

    REPORT = dict(q_b=0.1, q_m_clicks=-0.2, q_m_photons=None, click_mean=1.0,
                  click_variance=0.5)
    ESTIMATE = dict(statistic_name="q_m", point_estimate=0.1, ci_low=0.0, ci_high=0.2,
                    confidence_level=0.95, sample_size=10, bootstrap_replicates=200)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", list(REPORT))
    def test_nonclassicality_report(self, name, bad):
        with pytest.raises(ValueError, match=f"^{name}=.* is not finite$"):
            NonclassicalityReport(**{**self.REPORT, name: bad})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["point_estimate", "ci_low", "ci_high"])
    def test_estimate_report(self, name, bad):
        with pytest.raises(ValueError, match=f"^{name}=.* is not finite$"):
            EstimateReport(**{**self.ESTIMATE, name: bad})


class TestReaderAgainstLineOracle:
    """The vectorized reader accepts exactly what a line-by-line reader does."""

    @settings(max_examples=400, deadline=None)
    @given(_mostly(_sample_texts(), st.text(max_size=40)))
    def test_same_records_or_same_error(self, text):
        expected = _outcome(oracles.samples_from_text_by_lines, text)
        assert _outcome(records.samples_from_text, text) == expected


class TestDistributionFormats:
    @pytest.mark.parametrize("fmt", ["table", "structured"])
    def test_round_trip(self, fmt):
        dist = binomial_reference(5, 0.37)
        text = records.emit_distribution(dist, fmt)
        back = records.parse_distribution(text, fmt)
        assert back.N == 5
        np.testing.assert_allclose(back.probs, dist.probs, rtol=1e-11)
        # emit -> parse -> emit is a fixed point
        assert records.emit_distribution(back, fmt) == text

    def test_table_header(self):
        text = records.emit_distribution(binomial_reference(2, 0.5), "table")
        assert text.splitlines()[0] == "k,c_k"

    def test_bad_table(self):
        with pytest.raises(ParseError):
            records.parse_distribution("wrong\n0,0.5\n", "table")
        with pytest.raises(ParseError):
            records.parse_distribution("k,c_k\n1,0.5\n", "table")  # index gap


class TestReportFormats:
    @pytest.mark.parametrize("fmt", ["table", "structured"])
    @pytest.mark.parametrize("photons", [0.25, None])
    def test_round_trip(self, fmt, photons):
        rep = NonclassicalityReport(
            q_b=-0.125, q_m_clicks=-0.25, q_m_photons=photons,
            click_mean=1.5, click_variance=0.75,
        )
        text = records.emit_nonclassicality(rep, fmt)
        back = records.parse_nonclassicality(text, fmt)
        assert back.q_b == pytest.approx(rep.q_b, rel=1e-11)
        assert back.q_m_photons == (pytest.approx(photons, rel=1e-11) if photons is not None else None)
        assert records.emit_nonclassicality(back, fmt) == text


class TestEstimateFormats:
    @pytest.mark.parametrize("fmt", ["table", "structured"])
    def test_round_trip(self, fmt):
        reports = [
            EstimateReport(
                statistic_name="q_b", point_estimate=0.01, ci_low=-0.02,
                ci_high=0.05, confidence_level=0.95, sample_size=1000,
                bootstrap_replicates=500, degenerate_resamples=3,
            ),
            EstimateReport(
                statistic_name="q_m", point_estimate=-0.2, ci_low=None,
                ci_high=None, confidence_level=0.95, sample_size=1000,
                bootstrap_replicates=0,
            ),
        ]
        text = records.emit_estimates(reports, fmt)
        back = records.parse_estimates(text, fmt)
        assert [r.statistic_name for r in back] == ["q_b", "q_m"]
        assert back[0].ci_low == pytest.approx(-0.02, rel=1e-11)
        assert back[1].ci_low is None
        assert back[0].degenerate_resamples == 3
        assert records.emit_estimates(back, fmt) == text

    @pytest.mark.parametrize("level", [7.0, float("nan"), -1.0, 0.0, 1.0])
    @pytest.mark.parametrize("fmt", ["table", "structured"])
    def test_level_outside_0_1_is_neither_written_nor_read(self, fmt, level):
        # A report that cannot be built cannot be written; a text carrying
        # such a level is malformed.
        with pytest.raises(ValueError, match="confidence level"):
            EstimateReport(
                statistic_name="q_m", point_estimate=-0.2, ci_low=None, ci_high=None,
                confidence_level=level, sample_size=1000, bootstrap_replicates=0,
            )
        good = EstimateReport(
            statistic_name="q_m", point_estimate=-0.2, ci_low=None, ci_high=None,
            confidence_level=0.5, sample_size=1000, bootstrap_replicates=0,
        )
        text = records.emit_estimates([good], fmt).replace("0.5", repr(level))
        if fmt == "structured":
            text = text.replace("nan", "NaN")
        with pytest.raises(ParseError):
            records.parse_estimates(text, fmt)


class TestSweepFormats:
    @pytest.mark.parametrize("fmt", ["table", "structured"])
    def test_round_trip(self, fmt):
        rows = [
            (0.1, -0.05, -0.01, 0.4, 0.38),
            (0.2, -0.11, -0.02, 0.8, 0.71),
        ]
        text = records.emit_sweep("eta", rows, fmt)
        axis, back = records.parse_sweep(text, fmt)
        assert axis == "eta"
        np.testing.assert_allclose(np.asarray(back), np.asarray(rows), rtol=1e-11)

    def test_number_formatting_is_12_digits(self):
        text = records.emit_sweep("eta", [(1 / 3, 0.0, 0.0, 2 / 3, 0.0)], "table")
        row = text.splitlines()[1].split(",")
        assert row[0] == "0.333333333333"
        assert row[3] == "0.666666666667"

    @pytest.mark.parametrize("fmt,text", [
        ("table", "eta,q_b,q_m_clicks,click_mean,click_variance\n"),
        ("table", "eta,q_b,q_m_clicks,click_mean,click_variance\n\n"),
        ("structured", "[]"),
    ], ids=["table", "table-blank-line", "structured"])
    def test_a_sweep_without_rows_is_rejected(self, fmt, text):
        with pytest.raises(ParseError, match="^sweep has no rows$"):
            records.parse_sweep(text, fmt)


_ESTIMATE_HEADER = (
    "statistic,point_estimate,ci_low,ci_high,confidence_level,"
    "sample_size,bootstrap_replicates,degenerate_resamples\n"
)
_SWEEP_HEADER = "eta,q_b,q_m_clicks,click_mean,click_variance\n"
_DEEP = "[" * 100000
_REPORT_BELOW_FLOOR = (
    '{"q_b":-5,"q_m_clicks":1,"q_m_photons":null,"click_mean":1,"click_variance":1}'
)
_REPORT_TABLE = (
    "quantity,value\nq_b,%s\nq_m_clicks,1\nq_m_photons,\nclick_mean,1\nclick_variance,1\n"
)
_REPORT_JSON = (
    '{"q_b":%s,"q_m_clicks":1,"q_m_photons":null,"click_mean":1,"click_variance":1}'
)
_NO_AXIS = '[{"q_b":1,"q_m_clicks":1,"click_mean":1,"click_variance":1}]'
_ESTIMATE = (
    '{"statistic":"%s","point_estimate":0.1,"ci_low":null,"ci_high":null,'
    '"confidence_level":0.95,"sample_size":10,"bootstrap_replicates":0,'
    '"degenerate_resamples":0}'
)


class TestMalformedReports:
    """Every malformed report raises ParseError; each text here escaped as
    another exception (named in the id) before the codecs were shared, or
    was accepted (``-accepted``: a NaN entry passes every comparison, and a
    report number was not held finite), or takes an error branch that no
    other test reaches (``-branch``)."""

    @pytest.mark.parametrize("parser,fmt,text", [
        pytest.param("distribution", "structured", _DEEP, id="dist-json-RecursionError"),
        pytest.param("nonclassicality", "structured", _DEEP, id="report-json-RecursionError"),
        pytest.param("estimates", "structured", _DEEP, id="estimates-json-RecursionError"),
        pytest.param("sweep", "structured", _DEEP, id="sweep-json-RecursionError"),
        pytest.param("distribution", "structured", '{"N":"a","probs":[1]}',
                     id="dist-json-ValueError"),
        pytest.param("distribution", "structured", '{"N":1,"probs":[0.5,{"a":1}]}',
                     id="dist-json-TypeError"),
        pytest.param("distribution", "table", "k,c_k\n0,0.5\n1,0.6\n",
                     id="dist-table-NumericalInstability"),
        pytest.param("distribution", "table", "k,c_k\n0,nan\n1,0.5\n2,0.5\n",
                     id="dist-table-nan-accepted"),
        pytest.param("distribution", "structured", '{"N":2,"probs":[NaN,0.5,0.5]}',
                     id="dist-json-nan-accepted"),
        pytest.param("nonclassicality", "structured", "1", id="report-json-TypeError"),
        pytest.param("nonclassicality", "structured", _REPORT_BELOW_FLOOR,
                     id="report-json-ValueError"),
        pytest.param("nonclassicality", "table", "quantity,value\nq_b,x\n",
                     id="report-table-ValueError"),
        pytest.param("estimates", "structured", "[{}]", id="estimates-json-KeyError"),
        pytest.param("estimates", "structured", "[1]", id="estimates-json-TypeError"),
        pytest.param("estimates", "structured", "[%s]" % (_ESTIMATE % "q_x"),
                     id="estimates-json-ValueError"),
        pytest.param("estimates", "table", _ESTIMATE_HEADER + "q_b,x,,,0.95,10,0,0\n",
                     id="estimates-table-ValueError"),
        pytest.param("sweep", "structured", _NO_AXIS, id="sweep-json-StopIteration"),
        pytest.param("sweep", "structured", '[{"eta":1}]', id="sweep-json-KeyError"),
        pytest.param("sweep", "structured", "[1]", id="sweep-json-TypeError"),
        pytest.param("sweep", "table", _SWEEP_HEADER + "1,2,3,4,x\n", id="sweep-table-ValueError"),
        pytest.param("sweep", "table", _SWEEP_HEADER, id="sweep-table-header-only-accepted"),
        pytest.param("nonclassicality", "table", _REPORT_TABLE % "nan",
                     id="report-table-nan-accepted"),
        pytest.param("nonclassicality", "structured", _REPORT_JSON % "1e999",
                     id="report-json-inf-accepted"),
        pytest.param("sweep", "structured",
                     '[{"eta":NaN,"q_b":Infinity,"q_m_clicks":1,"click_mean":1,"click_variance":1}]',
                     id="sweep-json-nan-inf-accepted"),
        pytest.param("estimates", "table", _ESTIMATE_HEADER + "q_b,inf,,,0.95,10,0,0\n",
                     id="estimates-table-inf-accepted"),
        pytest.param("sweep", "table", _SWEEP_HEADER + "1,2,3\n", id="sweep-table-cells-branch"),
        pytest.param("nonclassicality", "structured", '{"q_b":', id="report-json-invalid-branch"),
        pytest.param("distribution", "table", "k,c_k\n", id="dist-table-header-only-branch"),
        pytest.param("sweep", "structured", "[]", id="sweep-json-empty-branch"),
    ])
    def test_parse_error(self, parser, fmt, text):
        with pytest.raises(ParseError):
            getattr(records, f"parse_{parser}")(text, fmt)


_REPORT = '{"q_b":%s,"q_m_clicks":1,"q_m_photons":%s,"click_mean":1,"click_variance":1}'


class TestStructuredValueTypes:
    """A structured report's numbers must be JSON numbers and its counts JSON
    integers: a string or a boolean in their place is malformed."""

    @pytest.mark.parametrize("parser,text", [
        ("distribution", '{"N":1,"probs":["0.5",0.5]}'),
        ("distribution", '{"N":"1","probs":[0.5,0.5]}'),
        ("distribution", '{"N":true,"probs":[0.5,0.5]}'),
        ("distribution", '{"N":1.0,"probs":[0.5,0.5]}'),
        ("nonclassicality", _REPORT % ('"1"', "null")),
        ("nonclassicality", _REPORT % ("1", '""')),
        ("nonclassicality", _REPORT % ('"nan"', "null")),
        ("nonclassicality", _REPORT % ("true", "null")),
        ("estimates", "[%s]" % (_ESTIMATE % "q_b").replace("10", '"10"')),
        ("estimates", "[%s]" % (_ESTIMATE % "q_b").replace('"ci_low":null', '"ci_low":""')),
        ("sweep", '[{"eta":"inf","q_b":1,"q_m_clicks":1,"click_mean":1,"click_variance":1}]'),
    ])
    def test_non_number_rejected(self, parser, text):
        with pytest.raises(ParseError):
            getattr(records, f"parse_{parser}")(text, "structured")

    def test_json_numbers_accepted(self):
        report = records.parse_nonclassicality(_REPORT % ("-0.5", "null"), "structured")
        assert report.q_b == -0.5 and report.q_m_photons is None
        (estimate,) = records.parse_estimates("[%s]" % (_ESTIMATE % "q_b"), "structured")
        assert estimate.sample_size == 10 and estimate.ci_low is None
