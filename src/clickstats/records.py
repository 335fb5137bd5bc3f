"""Readers and writers for every file format the command-line tool emits.

All formats are deterministic plain text: sample-record files are
comment-preambled integer columns, tables are comma-separated with a header
row, and structured output is compact JSON. Computed numbers are printed
with 12 significant digits; echoed parameters (state, config) use exact
shortest-round-trip JSON floats so a written file reparses to the identical
data model.
"""

from __future__ import annotations

import functools
import json
import math
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .click_kernel import (
    MAX_DETECTORS,
    ClickDistribution,
    DetectorConfig,
    NonclassicalityReport,
)
from .errors import InsufficientData, NumericalInstability, ParseError, ValidationError
from .estimators import EstimateReport
from .simulator import ClickSampleSet
from .states import checked_real, load_json, parse_state_spec

SAMPLE_HEADER = "clicks"
# Widest click line the vectorized reader takes: every count N <= MAX_DETECTORS
# the simulator can write.
_FAST_DIGITS = len(str(MAX_DETECTORS))


def format_number(value: float) -> str:
    """Fixed 12-significant-digit rendering used for all computed output."""
    return format(float(value), ".12g")


def _format_optional(value: float | None) -> str:
    return "" if value is None else format_number(value)


def _json_compact(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _round12(value: float | None):
    if value is None:
        return None
    return float(format_number(value))


# ---------------------------------------------------------------------------
# sample-record files


def samples_to_text(samples: ClickSampleSet) -> str:
    lines = [
        f"# N={samples.N}",
        f"# seed={samples.seed}",
        f"# trials={samples.trials}",
    ]
    if samples.stream is not None:
        lines.append(f"# stream={samples.stream}")
    if samples.state_echo is not None:
        lines.append(f"# state={_json_compact(samples.state_echo.to_dict())}")
    if samples.config_echo is not None:
        cfg = samples.config_echo
        lines.append(
            "# config="
            + _json_compact({"N": cfg.N, "eta": cfg.eta, "nu": cfg.nu})
        )
    lines.append(SAMPLE_HEADER)
    return "\n".join(lines) + "\n" + _digit_lines(samples.clicks)


def _digit_lines(clicks: np.ndarray) -> str:
    """Nonnegative int64 values as decimal lines, rendered in one pass.

    Row i of a (n, width + 1) byte matrix holds value i zero-padded to the
    width of the largest value, then a newline; the pad bytes before each
    value's leading digit are masked out.
    """
    if not clicks.size:
        return ""
    width = len(str(int(clicks.max())))
    digits = np.empty((clicks.size, width + 1), dtype=np.uint8)
    rest = clicks
    for column in range(width - 1, -1, -1):
        # Floor division by a constant is fast in numpy; % and divmod are not.
        quotient = rest // 10
        digits[:, column] = rest - 10 * quotient
        rest = quotient
    digits[:, :width] += ord("0")
    digits[:, width] = ord("\n")
    keep = np.ones(digits.shape, dtype=bool)
    powers = 10 ** np.arange(width - 1, 0, -1, dtype=np.int64)
    keep[:, : width - 1] = powers <= clicks[:, None]
    return digits[keep].tobytes().decode("ascii")


def write_text(path: str, text: str) -> None:
    """Write ``text`` to a user-named file with newline line ends;
    ParseError naming the file and the cause when it cannot be written."""
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseError(f"cannot write output file {path!r}: {exc}") from None


def write_samples(path: str, samples: ClickSampleSet) -> None:
    write_text(path, samples_to_text(samples))


def _parse_int(meta: dict[str, str], key: str) -> int:
    try:
        return int(meta[key])
    except ValueError:
        raise ParseError(f"preamble {key}={meta[key]!r} is not an integer") from None


def _parse_clicks(rows: list[str], first_lineno: int) -> np.ndarray:
    """The click column: one integer per line, blank and ``#`` lines skipped.

    The kept lines are parsed in one numpy call. Only when numpy rejects
    them are they read one by one with ``int()``, which names a bad line.
    """
    kept = [
        (lineno, line)
        for lineno, line in enumerate((raw.strip() for raw in rows), first_lineno)
        if line and not line.startswith("#")
    ]
    try:
        return np.array([line for _, line in kept], dtype=np.int64)
    except ValueError:  # a bad line, or one that int() reads and numpy does not
        return np.array([_line_int(lineno, line) for lineno, line in kept], dtype=np.int64)


def _line_int(lineno: int, line: str) -> int:
    try:
        return int(line)
    except ValueError:
        raise ParseError(f"line {lineno}: expected an integer, got {line!r}") from None


def _read_preamble(lines: list[str]) -> tuple[dict[str, str], int]:
    """The ``key=value`` comments before the header, and the header's index.

    The index is ``len(lines)`` when no header line is found.
    """
    meta: dict[str, str] = {}
    for index, raw in enumerate(lines):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, _, value = body.partition("=")
                meta[key.strip()] = value.strip()
            continue
        if line != SAMPLE_HEADER:
            raise ParseError(
                f"line {index + 1}: expected header {SAMPLE_HEADER!r}, got {line!r}"
            )
        return meta, index
    return meta, len(lines)


def _digit_column(body: str) -> np.ndarray | None:
    """The clicks of a record body as written here, or None for any other body.

    A body as written here holds only newline-terminated lines of 1 to
    ``_FAST_DIGITS`` ASCII digits. Each line's digits are gathered right-aligned into a (lines, width)
    matrix, the bytes before a line's start masked to zero, and the columns
    are combined by Horner's rule.
    """
    if not body.isascii():
        return None
    raw = np.frombuffer(body.encode("ascii"), dtype=np.uint8)
    ends = np.flatnonzero(raw == ord("\n"))
    if not ends.size or ends[-1] != raw.size - 1:
        return None
    lengths = np.diff(ends, prepend=-1) - 1
    digit_bytes = np.count_nonzero((raw >= ord("0")) & (raw <= ord("9")))
    if (digit_bytes + ends.size != raw.size or lengths.min() < 1
            or lengths.max() > _FAST_DIGITS):
        return None
    width = int(lengths.max())
    offsets = np.arange(-width, 0)
    digits = raw[np.maximum(ends[:, None] + offsets, 0)] - ord("0")
    digits[offsets < -lengths[:, None]] = 0
    clicks = digits[:, 0].astype(np.int64)
    for column in range(1, width):
        clicks *= 10
        clicks += digits[:, column]
    return clicks


def samples_from_text(text: str) -> ClickSampleSet:
    """Parse a sample-record file.

    The grammar is line based: ``# key=value`` preamble comments, a
    ``clicks`` header, then one integer per line, stripped, with blank and
    ``#`` lines skipped. A record as written here (the first ``clicks``
    line followed only by short digit lines) takes a vectorized path;
    every other text is read line by line by the same rules. The reader
    checks what is about the file: a record with no clicks, a preamble value
    that is not an integer, and a declared trial count that the clicks do
    not match. The record checks its fields itself (``ClickSampleSet``).
    """
    clicks = None
    # The leading newline also finds a header on the first line.
    cut = ("\n" + text).find(f"\n{SAMPLE_HEADER}\n")
    if cut >= 0:
        head = text[:cut].splitlines()
        meta, header = _read_preamble(head)
        if header == len(head):
            clicks = _digit_column(text[cut + len(SAMPLE_HEADER) + 1 :])
    if clicks is None:
        lines = text.splitlines()
        meta, header = _read_preamble(lines)
        try:
            clicks = _parse_clicks(lines[header + 1 :], header + 2)
        except OverflowError:
            raise ParseError("click records must fit a 64-bit integer") from None
    if not clicks.size:
        raise InsufficientData("sample file contains no click records")
    if "N" not in meta:
        raise ParseError("sample file preamble is missing N")
    N = _parse_int(meta, "N")
    seed = _parse_int(meta, "seed") if "seed" in meta else 0
    trials = clicks.size
    if "trials" in meta:
        declared = _parse_int(meta, "trials")
        if declared != trials:
            raise ParseError(
                f"preamble declares {declared} trials but file holds {trials}"
            )
    stream = _parse_int(meta, "stream") if "stream" in meta else None

    state_echo = None
    if "state" in meta:
        state_echo = parse_state_spec(meta["state"])
    config_echo = None
    if "config" in meta:
        raw_cfg = _read_json(meta["config"], "preamble config", ("N", "eta", "nu"))
        config_echo = DetectorConfig(**raw_cfg)

    return ClickSampleSet(
        N=N,
        clicks=clicks,
        seed=seed,
        trials=trials,
        config_echo=config_echo,
        state_echo=state_echo,
        stream=stream,
    )


def read_text(path: str, what: str) -> str:
    """The text of a user-named file; ParseError naming the file and the
    cause when it cannot be opened, read or decoded."""
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {what} {path!r}: {exc}") from None


def read_samples(path: str) -> ClickSampleSet:
    return samples_from_text(read_text(path, "sample file"))


# ---------------------------------------------------------------------------
# reports
#
# Every report is a table or structured JSON, written by ``_write_table`` or
# ``_json_compact`` and read back by ``_read_table`` or ``_read_json``. A
# field's kind says how its value is written to a table cell and to JSON, and
# how a cell or a JSON value is read back.


class _Kind(NamedTuple):
    cell: Callable
    json: Callable
    read: Callable
    load: Callable


def _finite(value) -> float:
    """A report number: a JSON int or float, or a cell's ``float()``, that
    is finite (``checked_real``); no computed report holds NaN or an infinity."""
    return checked_real(value, "value", -math.inf, math.inf, "must be a finite number")


def _optional(read: Callable, missing: str | None) -> Callable:
    """``read``, with ``missing`` (an empty table cell, a JSON null) read as no value."""
    return lambda raw: None if raw == missing else read(raw)


def _json_reader(read: Callable, *types: type) -> Callable:
    """``read`` applied to a JSON value of one of ``types``; a bool is none of them."""

    def load(value):
        if isinstance(value, bool) or not isinstance(value, types):
            raise TypeError(f"JSON value {value!r} is not a {types[-1].__name__}")
        return read(value)

    return load


_NUMBER = _Kind(format_number, _round12, lambda cell: _finite(float(cell)), _finite)
_OPTIONAL = _Kind(
    _format_optional, _round12, _optional(_NUMBER.read, ""), _optional(_NUMBER.load, None)
)
# The confidence level is the user's choice, not a computed number: JSON keeps it exact.
_LEVEL = _Kind(format_number, float, _NUMBER.read, _NUMBER.load)
_COUNT = _Kind(str, int, int, _json_reader(int, int))
_NAME = _Kind(str, str, str, _json_reader(str, str))


def _write_table(header: Iterable[str], rows: Iterable[Iterable[str]]) -> str:
    """The header line, then one comma-separated line per row of cells."""
    return "\n".join(",".join(cells) for cells in [header, *rows]) + "\n"


def _read_table(text: str, what: str, header: Sequence[str | None]):
    """The header cells and the rows of cells of a table; blank lines are skipped.

    The header must match ``header``, where None stands for any one name,
    and every row must have as many cells.
    """
    first, *rows = [line.split(",") for line in text.splitlines() if line.strip()] or [[]]
    if len(first) != len(header) or any(h not in (None, c) for h, c in zip(header, first)):
        named = ",".join(h or "<name>" for h in header)
        raise ParseError(f"{what} table must start with the header {named!r}")
    for lineno, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise ParseError(f"{what} table row {lineno} has {len(row)} cells, not {len(header)}")
    return first, rows


def _read_json(text: str, what: str, fields: Sequence[str | None], many: bool = False):
    """One JSON object, or a list of them when ``many``, each with exactly ``fields``.

    None in ``fields`` stands for one key of any other name.
    """
    payload = load_json(text, what)
    objects = payload if many else [payload]
    named = set(fields) - {None}
    if not isinstance(objects, list) or not all(
        isinstance(obj, dict) and named <= obj.keys() and len(obj) == len(fields)
        for obj in objects
    ):
        shape = "a JSON list of objects" if many else "a JSON object"
        raise ParseError(f"{what} must be {shape} with exactly the fields {tuple(fields)}")
    return payload


def _report_parser(what: str):
    """Raise ParseError for every malformed report: a value that does not
    convert, or that the report's own checks reject, is malformed text."""

    def decorate(parse):
        @functools.wraps(parse)
        def parsed(text: str, fmt: str = "table"):
            try:
                return parse(text, fmt)
            except (ArithmeticError, LookupError, TypeError, ValueError,
                    NumericalInstability, ValidationError) as exc:
                raise ParseError(f"malformed {what}: {exc}") from None

        return parsed

    return decorate


def _read_fields(fields: dict, values: dict, fmt: str) -> dict:
    """Every field's value read by its kind: as JSON when structured, else as a cell."""
    return {
        name: (kind.load if fmt == "structured" else kind.read)(values[name])
        for name, kind in fields.items()
    }


def _emit_rows(fields: dict, rows: Sequence[dict], fmt: str) -> str:
    """A list report: one table row or JSON object per row of field values."""
    if fmt == "structured":
        return _json_compact(
            [{name: kind.json(row[name]) for name, kind in fields.items()} for row in rows]
        ) + "\n"
    return _write_table(
        fields, ([kind.cell(row[name]) for name, kind in fields.items()] for row in rows)
    )


# ---------------------------------------------------------------------------
# click distributions


def emit_distribution(dist: ClickDistribution, fmt: str = "table") -> str:
    if fmt == "structured":
        return _json_compact({"N": dist.N, "probs": [_round12(p) for p in dist.probs]}) + "\n"
    rows = ((str(k), format_number(p)) for k, p in enumerate(dist.probs))
    return _write_table(("k", "c_k"), rows)


@_report_parser("distribution")
def parse_distribution(text: str, fmt: str = "table") -> ClickDistribution:
    if fmt == "structured":
        payload = _read_json(text, "structured distribution", ("N", "probs"))
        probs = [_NUMBER.load(p) for p in _json_reader(list, list)(payload["probs"])]
        return ClickDistribution(_COUNT.load(payload["N"]), np.array(probs))
    _, rows = _read_table(text, "distribution", ("k", "c_k"))
    if not rows:
        raise ParseError("distribution table has no rows")
    if [int(k) for k, _ in rows] != list(range(len(rows))):
        raise ParseError("distribution table rows must count k = 0, 1, ..., N")
    return ClickDistribution(len(rows) - 1, np.array([_NUMBER.read(p) for _, p in rows]))


# ---------------------------------------------------------------------------
# nonclassicality reports


_REPORT_FIELDS = {
    "q_b": _NUMBER,
    "q_m_clicks": _NUMBER,
    "q_m_photons": _OPTIONAL,
    "click_mean": _NUMBER,
    "click_variance": _NUMBER,
}


def emit_nonclassicality(report: NonclassicalityReport, fmt: str = "table") -> str:
    values = vars(report)
    if fmt == "structured":
        return _json_compact(
            {name: kind.json(values[name]) for name, kind in _REPORT_FIELDS.items()}
        ) + "\n"
    return _write_table(
        ("quantity", "value"),
        ((name, kind.cell(values[name])) for name, kind in _REPORT_FIELDS.items()),
    )


@_report_parser("report")
def parse_nonclassicality(text: str, fmt: str = "table") -> NonclassicalityReport:
    if fmt == "structured":
        values = _read_json(text, "structured report", tuple(_REPORT_FIELDS))
    else:
        values = dict(_read_table(text, "report", ("quantity", "value"))[1])
        if values.keys() != _REPORT_FIELDS.keys():
            raise ParseError(f"report must carry exactly {tuple(_REPORT_FIELDS)}")
    return NonclassicalityReport(**_read_fields(_REPORT_FIELDS, values, fmt))


# ---------------------------------------------------------------------------
# estimate reports


_ESTIMATE_FIELDS = {
    "statistic": _NAME,
    "point_estimate": _NUMBER,
    "ci_low": _OPTIONAL,
    "ci_high": _OPTIONAL,
    "confidence_level": _LEVEL,
    "sample_size": _COUNT,
    "bootstrap_replicates": _COUNT,
    "degenerate_resamples": _COUNT,
}


def emit_estimates(reports: Sequence[EstimateReport], fmt: str = "table") -> str:
    rows = [{"statistic": r.statistic_name, **vars(r)} for r in reports]
    return _emit_rows(_ESTIMATE_FIELDS, rows, fmt)


@_report_parser("estimates")
def parse_estimates(text: str, fmt: str = "table") -> list[EstimateReport]:
    if fmt == "structured":
        rows = _read_json(text, "structured estimates", tuple(_ESTIMATE_FIELDS), many=True)
    else:
        header, cells = _read_table(text, "estimate", tuple(_ESTIMATE_FIELDS))
        rows = [dict(zip(header, row)) for row in cells]
    values = [_read_fields(_ESTIMATE_FIELDS, row, fmt) for row in rows]
    return [EstimateReport(statistic_name=v.pop("statistic"), **v) for v in values]


# ---------------------------------------------------------------------------
# sweep tables


_SWEEP_FIELDS = dict.fromkeys(("q_b", "q_m_clicks", "click_mean", "click_variance"), _NUMBER)


def emit_sweep(
    axis_name: str, rows: Sequence[tuple[float, float, float, float, float]],
    fmt: str = "table",
) -> str:
    fields = {axis_name: _NUMBER, **_SWEEP_FIELDS}
    return _emit_rows(fields, [dict(zip(fields, row)) for row in rows], fmt)


@_report_parser("sweep")
def parse_sweep(text: str, fmt: str = "table") -> tuple[str, list[tuple[float, ...]]]:
    # The axis is the column beside the value columns: the first header cell
    # of a table, the extra key of every JSON object.
    columns = (None, *_SWEEP_FIELDS)
    if fmt == "structured":
        objects = _read_json(text, "structured sweep", columns, many=True)
        if not objects:
            raise ParseError("structured sweep must be a nonempty list")
        axis = (objects[0].keys() - _SWEEP_FIELDS.keys()).pop()
        rows = [[obj[name] for name in (axis, *_SWEEP_FIELDS)] for obj in objects]
        read = _NUMBER.load
    else:
        (axis, *_), rows = _read_table(text, "sweep", columns)
        read = _NUMBER.read
    return axis, [tuple(read(value) for value in row) for row in rows]
