"""Readers and writers for every file format the command-line tool emits.

All formats are deterministic plain text: sample-record files are
comment-preambled integer columns, tables are comma-separated with a header
row, and structured output is compact JSON. Computed numbers are printed
with 12 significant digits; echoed parameters (state, config) use exact
shortest-round-trip JSON floats so a written file reparses to the identical
data model.
"""

from __future__ import annotations

import json
import math
from typing import Sequence

import numpy as np

from .click_kernel import (
    MAX_DETECTORS,
    ClickDistribution,
    DetectorConfig,
    NonclassicalityReport,
)
from .errors import InsufficientData, InvalidSample, ParseError, ValidationError
from .estimators import EstimateReport
from .simulator import ClickSampleSet
from .states import parse_state_spec

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


def write_samples(path: str, samples: ClickSampleSet) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(samples_to_text(samples))


def _parse_int(meta: dict[str, str], key: str) -> int:
    try:
        return int(meta[key])
    except ValueError:
        raise ParseError(f"preamble {key}={meta[key]!r} is not an integer") from None


def _parse_clicks(rows: list[str], first_lineno: int) -> np.ndarray:
    """The click column: one integer per line, blank and ``#`` lines skipped.

    A column with nothing else in it, as written here, parses in one numpy
    call. Otherwise the skipped lines are dropped and the rest parsed in one
    call again; the lines are walked one by one only to name a bad one.
    """
    try:
        return np.array(rows, dtype=np.int64)
    except ValueError:
        pass
    kept = [
        (lineno, line)
        for lineno, line in enumerate((raw.strip() for raw in rows), first_lineno)
        if line and not line.startswith("#")
    ]
    try:
        return np.array([line for _, line in kept], dtype=np.int64)
    except ValueError:
        for lineno, line in kept:
            try:
                int(line)
            except ValueError:
                raise ParseError(
                    f"line {lineno}: expected an integer, got {line!r}"
                ) from None
        raise


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
    every other text is read line by line by the same rules.
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
    if not 1 <= N < 2**63:
        raise ParseError(f"preamble N={meta['N']!r} is not a positive 64-bit integer")
    if clicks.min() < 0 or clicks.max() > N:
        raise InvalidSample(f"click records must lie in [0, {N}]")

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
        try:
            raw_cfg = json.loads(meta["config"])
        except json.JSONDecodeError as exc:
            raise ParseError(f"preamble config is not valid JSON: {exc}")
        except RecursionError:
            raise ParseError("preamble config JSON nests too deeply to parse") from None
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
        N=N,
        clicks=clicks,
        seed=seed,
        trials=trials,
        config_echo=config_echo,
        state_echo=state_echo,
        stream=stream,
    )


def read_samples(path: str) -> ClickSampleSet:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read sample file {path!r}: {exc}")
    return samples_from_text(text)


# ---------------------------------------------------------------------------
# click distributions


def emit_distribution(dist: ClickDistribution, fmt: str = "table") -> str:
    if fmt == "structured":
        payload = {"N": dist.N, "probs": [_round12(p) for p in dist.probs]}
        return _json_compact(payload) + "\n"
    lines = ["k,c_k"]
    lines.extend(f"{k},{format_number(p)}" for k, p in enumerate(dist.probs))
    return "\n".join(lines) + "\n"


def parse_distribution(text: str, fmt: str = "table") -> ClickDistribution:
    if fmt == "structured":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid structured distribution: {exc}")
        if not isinstance(payload, dict) or set(payload) != {"N", "probs"}:
            raise ParseError("structured distribution must carry N and probs")
        return ClickDistribution(int(payload["N"]), np.asarray(payload["probs"]))
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "k,c_k":
        raise ParseError("distribution table must start with header 'k,c_k'")
    probs = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected 'k,c_k' columns")
        try:
            k, p = int(parts[0]), float(parts[1])
        except ValueError:
            raise ParseError(f"line {lineno}: malformed row {line!r}")
        if k != len(probs):
            raise ParseError(f"line {lineno}: click index {k} out of order")
        probs.append(p)
    if not probs:
        raise ParseError("distribution table has no rows")
    return ClickDistribution(len(probs) - 1, np.asarray(probs))


# ---------------------------------------------------------------------------
# nonclassicality reports


_REPORT_FIELDS = ("q_b", "q_m_clicks", "q_m_photons", "click_mean", "click_variance")


def emit_nonclassicality(report: NonclassicalityReport, fmt: str = "table") -> str:
    values = {name: getattr(report, name) for name in _REPORT_FIELDS}
    if fmt == "structured":
        return _json_compact({k: _round12(v) for k, v in values.items()}) + "\n"
    lines = ["quantity,value"]
    lines.extend(f"{k},{_format_optional(v)}" for k, v in values.items())
    return "\n".join(lines) + "\n"


def parse_nonclassicality(text: str, fmt: str = "table") -> NonclassicalityReport:
    if fmt == "structured":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid structured report: {exc}")
        if set(payload) != set(_REPORT_FIELDS):
            raise ParseError(f"report must carry exactly {_REPORT_FIELDS}")
        return NonclassicalityReport(**payload)
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "quantity,value":
        raise ParseError("report table must start with header 'quantity,value'")
    values: dict[str, float | None] = {}
    for line in lines[1:]:
        key, _, raw = line.partition(",")
        if key not in _REPORT_FIELDS:
            raise ParseError(f"unknown report quantity {key!r}")
        values[key] = float(raw) if raw else None
    if set(values) != set(_REPORT_FIELDS):
        raise ParseError(f"report must carry exactly {_REPORT_FIELDS}")
    return NonclassicalityReport(**values)


# ---------------------------------------------------------------------------
# estimate reports


_ESTIMATE_COLUMNS = (
    "statistic",
    "point_estimate",
    "ci_low",
    "ci_high",
    "confidence_level",
    "sample_size",
    "bootstrap_replicates",
    "degenerate_resamples",
)


def emit_estimates(reports: Sequence[EstimateReport], fmt: str = "table") -> str:
    if fmt == "structured":
        payload = [
            {
                "statistic": r.statistic_name,
                "point_estimate": _round12(r.point_estimate),
                "ci_low": _round12(r.ci_low),
                "ci_high": _round12(r.ci_high),
                "confidence_level": r.confidence_level,
                "sample_size": r.sample_size,
                "bootstrap_replicates": r.bootstrap_replicates,
                "degenerate_resamples": r.degenerate_resamples,
            }
            for r in reports
        ]
        return _json_compact(payload) + "\n"
    lines = [",".join(_ESTIMATE_COLUMNS)]
    for r in reports:
        lines.append(
            ",".join(
                [
                    r.statistic_name,
                    format_number(r.point_estimate),
                    _format_optional(r.ci_low),
                    _format_optional(r.ci_high),
                    format_number(r.confidence_level),
                    str(r.sample_size),
                    str(r.bootstrap_replicates),
                    str(r.degenerate_resamples),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def _estimate_from_fields(fields: dict) -> EstimateReport:
    return EstimateReport(
        statistic_name=fields["statistic"],
        point_estimate=float(fields["point_estimate"]),
        ci_low=fields["ci_low"],
        ci_high=fields["ci_high"],
        confidence_level=float(fields["confidence_level"]),
        sample_size=int(fields["sample_size"]),
        bootstrap_replicates=int(fields["bootstrap_replicates"]),
        degenerate_resamples=int(fields["degenerate_resamples"]),
    )


def parse_estimates(text: str, fmt: str = "table") -> list[EstimateReport]:
    if fmt == "structured":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid structured estimates: {exc}")
        if not isinstance(payload, list):
            raise ParseError("structured estimates must be a list")
        return [_estimate_from_fields(item) for item in payload]
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != ",".join(_ESTIMATE_COLUMNS):
        raise ParseError("estimate table header does not match")
    out = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != len(_ESTIMATE_COLUMNS):
            raise ParseError(f"estimate row has {len(parts)} columns")
        fields = dict(zip(_ESTIMATE_COLUMNS, parts))
        fields["ci_low"] = float(fields["ci_low"]) if fields["ci_low"] else None
        fields["ci_high"] = float(fields["ci_high"]) if fields["ci_high"] else None
        out.append(_estimate_from_fields(fields))
    return out


# ---------------------------------------------------------------------------
# sweep tables


_SWEEP_VALUE_COLUMNS = ("q_b", "q_m_clicks", "click_mean", "click_variance")


def emit_sweep(
    axis_name: str, rows: Sequence[tuple[float, float, float, float, float]],
    fmt: str = "table",
) -> str:
    if fmt == "structured":
        payload = [
            {
                axis_name: _round12(row[0]),
                **{col: _round12(v) for col, v in zip(_SWEEP_VALUE_COLUMNS, row[1:])},
            }
            for row in rows
        ]
        return _json_compact(payload) + "\n"
    lines = [",".join((axis_name,) + _SWEEP_VALUE_COLUMNS)]
    for row in rows:
        lines.append(",".join(format_number(v) for v in row))
    return "\n".join(lines) + "\n"


def parse_sweep(text: str, fmt: str = "table") -> tuple[str, list[tuple[float, ...]]]:
    if fmt == "structured":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid structured sweep: {exc}")
        if not isinstance(payload, list) or not payload:
            raise ParseError("structured sweep must be a nonempty list")
        axis = next(
            k for k in payload[0] if k not in _SWEEP_VALUE_COLUMNS
        )
        rows = [
            (item[axis],) + tuple(item[c] for c in _SWEEP_VALUE_COLUMNS)
            for item in payload
        ]
        return axis, rows
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("sweep table is empty")
    header = lines[0].split(",")
    if len(header) != 5 or tuple(header[1:]) != _SWEEP_VALUE_COLUMNS:
        raise ParseError("sweep table header does not match")
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 5:
            raise ParseError(f"sweep row has {len(parts)} columns")
        rows.append(tuple(float(p) for p in parts))
    return header[0], rows
