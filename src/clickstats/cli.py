"""Command-line surface: dist, qb, simulate, analyze, sweep.

Exit codes: 0 on success, 1 for domain errors, 2 for usage and parse
errors, among them a user-named file (``--state``, ``--in``, ``--out``)
that cannot be read, decoded or written. Every error is named: argparse
prints its usage and exits 2, and past it ``main`` has one handler, which
prints ``error: <Class>: <message>`` for every ClickStatsError and exits 1
for a DomainError (e.g. DegenerateMean) and 2 for the rest (ParseError,
ValidationError). No other exception is caught, so an input that would
raise one is rejected by name first, such as ``--steps`` beyond
MAX_SWEEP_STEPS.

The four state verbs build their StateSpec and DetectorConfig once, and
those check every value; a sweep point is the same spec or config with one
field replaced, checked again as it is built. ``qb`` and every ``sweep``
row take their numbers from one function, ``click_kernel.click_statistics``.
Randomized verbs demand an explicit --seed; reproducibility is part of the
contract, so there is no wall-clock default. A file named by ``--out`` is
written by ``records.write_text``.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

import numpy as np

from . import records
from .click_kernel import (
    DetectorConfig,
    click_distribution,
    click_statistics,
    nonclassicality_report,
)
from .errors import ClickStatsError, DomainError, ValidationError
from .estimators import mandel_q_estimate, qb_estimate
from .simulator import simulate
from .states import KINDS, StateSpec, parse_state_spec

SWEEP_AXES = ("eta", "nu", "N", "mean_photons", "r")
# Grid points of one sweep. The verb computes them _SWEEP_BLOCK at a time, one
# run_sweep call each, and each row becomes text as it is made, so a sweep
# holds its grid, one block of rows and about twice its output: at this size
# a table sweep (63 MB) peaks at about 160 MB, a structured one (122 MB) at
# 270 MB.
MAX_SWEEP_STEPS = 10**6
_SWEEP_BLOCK = 100
METHOD_ALIASES = {"gf": "generating_function", "dp": "occupancy_dp", "auto": "auto"}
WORKERS_HELP = "worker count, at least 1; accepted, never changes the output"


def _load_state(arg: str) -> StateSpec:
    """Accept an inline JSON object or a path to a file holding one."""
    text = arg.strip()
    if not text.startswith("{"):
        text = records.read_text(arg, "state file")
    return parse_state_spec(text)


def _add_state_config_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--state", required=True,
        help="state spec: inline JSON or a path to a JSON file",
    )
    parser.add_argument(
        "--detectors", type=int, required=True, metavar="N",
        help="number of on-off detectors",
    )
    parser.add_argument("--eta", type=float, default=1.0, help="quantum efficiency")
    parser.add_argument("--nu", type=float, default=0.0, help="dark-count parameter")


def _add_method_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--method", choices=tuple(METHOD_ALIASES), default="auto",
        help="gf (exact, leaf by leaf), dp (occupancy chain over truncated law), or auto (= gf)",
    )


def _add_output_args(parser: argparse.ArgumentParser, formats: bool = True) -> None:
    parser.add_argument("--out", help="output path (stdout when omitted)")
    if formats:
        parser.add_argument(
            "--format", choices=("table", "structured"), default="table",
            help="table (CSV) or structured (JSON) output",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clickstats",
        description=(
            "Exact click statistics of N on-off detectors, the sub-binomial "
            "Q_B parameter, Monte Carlo simulation and estimation from data."
        ),
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_dist = sub.add_parser("dist", help="exact click-count distribution")
    _add_state_config_args(p_dist)
    _add_method_arg(p_dist)
    _add_output_args(p_dist)

    p_qb = sub.add_parser("qb", help="Q_B / Q_M nonclassicality report")
    _add_state_config_args(p_qb)
    _add_method_arg(p_qb)
    _add_output_args(p_qb)

    p_sim = sub.add_parser("simulate", help="Monte Carlo click record")
    _add_state_config_args(p_sim)
    p_sim.add_argument("--trials", type=int, required=True)
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--workers", type=int, default=1, help=WORKERS_HELP)
    _add_output_args(p_sim, formats=False)

    p_an = sub.add_parser("analyze", help="estimate Q_B and Q_M from a sample file")
    p_an.add_argument("--in", dest="input", required=True, metavar="PATH")
    p_an.add_argument(
        "--bootstrap", type=int, default=0, metavar="B",
        help="bootstrap replicates (0 disables the interval)",
    )
    p_an.add_argument("--level", type=float, default=0.95)
    p_an.add_argument("--seed", type=int, default=None)
    p_an.add_argument("--workers", type=int, default=1, help=WORKERS_HELP)
    _add_output_args(p_an)

    p_sw = sub.add_parser("sweep", help="scan one axis and tabulate Q_B / Q_M")
    _add_state_config_args(p_sw)
    _add_method_arg(p_sw)
    p_sw.add_argument("--sweep-axis", choices=SWEEP_AXES, required=True)
    p_sw.add_argument("--from", dest="sweep_from", type=float, required=True)
    p_sw.add_argument("--to", dest="sweep_to", type=float, required=True)
    p_sw.add_argument("--steps", type=int, required=True)
    _add_output_args(p_sw)

    return parser


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        records.write_text(out, text)


def _sweep_grid(args) -> np.ndarray:
    if not 1 <= args.steps <= MAX_SWEEP_STEPS:
        raise ValidationError(f"--steps must be an integer in [1, {MAX_SWEEP_STEPS}]")
    for flag, end in (("--from", args.sweep_from), ("--to", args.sweep_to)):
        if not math.isfinite(end):
            raise ValidationError(f"{flag} must be a finite number, got {end!r}")
    if not math.isfinite(args.sweep_to - args.sweep_from):
        raise ValidationError(
            f"--to minus --from overflows a float: {args.sweep_from!r} to {args.sweep_to!r}"
        )
    if args.steps == 1:
        if args.sweep_from != args.sweep_to:
            raise ValidationError("--steps 1 requires --from and --to to coincide")
        return np.array([args.sweep_from])
    return np.linspace(args.sweep_from, args.sweep_to, args.steps)


def _sweep_point(
    spec: StateSpec, config: DetectorConfig, axis: str, value: float
) -> tuple[StateSpec, DetectorConfig]:
    """The spec and config of one grid point: ``axis`` replaced by ``value``."""
    if axis == "N":
        if abs(value - round(value)) > 1e-9:
            raise ValidationError(f"sweep over N hit a non-integer grid point {value!r}")
        value = round(value)
    if axis in ("eta", "nu", "N"):
        return spec, dataclasses.replace(config, **{axis: value})
    if KINDS[spec.kind].field != axis:
        kinds = " or ".join(kind for kind, row in KINDS.items() if row.field == axis)
        raise ValidationError(f"axis {axis} requires a {kinds} state, got {spec.kind!r}")
    return dataclasses.replace(spec, **{axis: value}), config


def run_sweep(
    spec: StateSpec,
    config: DetectorConfig,
    axis: str,
    grid: np.ndarray,
    method: str = "auto",
) -> list[tuple[float, float, float, float, float]]:
    """One row per grid point: (axis value, Q_B, Q_M on clicks, mean, variance),
    the point's ``click_statistics``."""
    rows = []
    for value in grid:
        pt_spec, pt_config = _sweep_point(spec, config, axis, float(value))
        rows.append((float(value), *click_statistics(pt_spec, pt_config, method)))
    return rows


def _run(args) -> str:
    """The text the verb writes to ``--out`` or stdout."""
    if args.verb == "analyze":
        if args.bootstrap > 0 and args.seed is None:
            raise ValidationError("--seed is required when --bootstrap is requested")
        samples = records.read_samples(args.input)
        kwargs = dict(
            bootstrap_replicates=args.bootstrap,
            level=args.level,
            seed=args.seed,
            workers=args.workers,
        )
        reports = [
            qb_estimate(samples, **kwargs),
            mandel_q_estimate(samples, **kwargs),
        ]
        return records.emit_estimates(reports, args.format)

    spec = _load_state(args.state)
    config = DetectorConfig(N=args.detectors, eta=args.eta, nu=args.nu)
    if args.verb == "simulate":
        samples = simulate(
            spec, config, trials=args.trials, seed=args.seed, workers=args.workers
        )
        return records.samples_to_text(samples)
    method = METHOD_ALIASES[args.method]
    if args.verb == "dist":
        return records.emit_distribution(click_distribution(spec, config, method), args.format)
    if args.verb == "qb":
        report = nonclassicality_report(spec, config, method)
        return records.emit_nonclassicality(report, args.format)
    grid = _sweep_grid(args)
    blocks = (grid[start : start + _SWEEP_BLOCK] for start in range(0, grid.size, _SWEEP_BLOCK))
    rows = (row for b in blocks for row in run_sweep(spec, config, args.sweep_axis, b, method))
    return records.emit_sweep(args.sweep_axis, rows, args.format)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _emit(_run(args), args.out)
    except ClickStatsError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, DomainError) else 2
    return 0


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
