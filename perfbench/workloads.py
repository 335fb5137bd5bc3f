"""The four workloads: their ops, their cycles and the check of every op.

A workload turns the seeded inputs of ``inputs.py`` into ops. ``cycles()``
yields lists of ops; the measuring loop in ``worker.py`` always finishes a
cycle, so every run covers whole cycles and its op mix is the same on every
seed. ``run(op)`` is the timed call and catches whatever the program raises;
``check(op, outcome)`` runs outside the timed region and returns None for a
correct op or a ``Failure``.

A failure is *known* when it is one of the two defects of the click kernel
recorded in ROADMAP item 2: a raw ``OverflowError`` from the
inclusion-exclusion path, or a wrong digit in a law that ``auto`` took from
that path. Known failures count in ``failed`` like any other; only an
unknown failure makes the run incorrect.
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import inputs
from clickstats import (
    DetectorConfig, cli, click_kernel, estimators, records, simulator, state_from_dict,
)
from clickstats.errors import DegenerateMean

# Ops call the program through its module attributes, where the hooks sit.
# The checker uses these unwrapped entry points, taken before any hook is
# installed, so that checking records no spans and captures no laws.
_click_distribution = click_kernel.click_distribution
_simulate = simulator.simulate
_qb_estimate = estimators.qb_estimate
_mandel_q_estimate = estimators.mandel_q_estimate

SWEEP_POINTS = 100
BOOTSTRAP = 1000
DIGIT_CHECKS_PER_SWEEP = 3
DIGITS_MAX_N = 64


@dataclass
class Failure:
    known: bool
    reason: str


@dataclass
class Outcome:
    value: object = None
    error: BaseException | None = None
    laws: list | None = None


def _path_a_taken(spec, config, law) -> bool:
    """Whether ``auto`` returned the inclusion-exclusion law for this input."""
    try:
        forced = _click_distribution(spec, config, "generating_function")
    except Exception:
        return False
    return bool(np.array_equal(forced.probs, law.probs))


def _check_point(state, spec, config, law, digits: bool, report_check) -> Failure | None:
    """Check one exact click law, plus the report or sweep row built from it."""
    import check

    ref = check.Moments(state, config.N, config.eta, config.nu)
    if ref.degenerate:
        if ref.must_be_degenerate:
            return Failure(False, f"expected DegenerateMean at mean {ref.mean!r}")
        return None
    law_bad = check.check_law(law.probs, ref)
    if digits:
        ref_law = check.reference_law(state, config.N, config.eta, config.nu)
        law_bad += check.check_digits(law.probs, ref_law)
    bad = law_bad + report_check(ref)
    if not bad:
        return None
    where = f"{state['kind']} N={config.N} eta={config.eta:.6g} nu={config.nu:.3g}"
    # The known defect is a wrong law from the inclusion-exclusion route; a
    # wrong report built from a right law is something else.
    known = bool(law_bad) and _path_a_taken(spec, config, law)
    label = "inclusion-exclusion accuracy" if known else "wrong result"
    return Failure(known, f"{label} at {where}: {bad[0]}")


def _classify_error(error: BaseException, state, config) -> Failure | None:
    import check

    if isinstance(error, DegenerateMean):
        if check.Moments(state, config.N, config.eta, config.nu).degenerate:
            return None  # a documented domain error the input predicts
    known = isinstance(error, OverflowError)
    return Failure(
        known,
        f"{type(error).__name__} at {state['kind']} N={config.N}: {error}",
    )


class ExactGrid:
    """One op is one ``nonclassicality_report(spec, config)`` with method auto."""

    name = "exact-grid"

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng([seed, 1])
        self.laws: list = []

    @staticmethod
    def _op(point):
        state, N, eta, nu = point
        return state, state_from_dict(state), DetectorConfig(N=N, eta=eta, nu=nu)

    @staticmethod
    def detectors(op) -> int:
        return op[2].N

    def warm_up(self) -> None:
        _, spec, config = self._op(inputs.ANCHOR)
        self.run((None, spec, config))

    def cycles(self):
        first = [inputs.ANCHOR] + inputs.grid_cycle(self.rng)
        yield [self._op(p) for p in first]
        while True:
            yield [self._op(p) for p in inputs.grid_cycle(self.rng)]

    def run(self, op) -> Outcome:
        _, spec, config = op
        self.laws.clear()
        try:
            report = click_kernel.nonclassicality_report(spec, config)
        except Exception as exc:
            return Outcome(error=exc)
        return Outcome(value=report, laws=list(self.laws))

    def check(self, op, outcome: Outcome) -> Failure | None:
        import check

        state, spec, config = op
        if outcome.error is not None:
            return _classify_error(outcome.error, state, config)
        law = outcome.laws[0] if len(outcome.laws) == 1 else _click_distribution(spec, config)
        return _check_point(
            state, spec, config, law, config.N <= DIGITS_MAX_N,
            lambda ref: check.check_report(outcome.value, ref),
        )


class EtaSweep:
    """One op is one ``cli.run_sweep`` of 100 points over eta or mean_photons."""

    name = "eta-sweep"

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 2])
        self.digit_rng = np.random.default_rng([seed, 3])
        self.laws: list = []
        self.ops = []
        for pair in inputs.sweep_pairs(rng):
            spec = state_from_dict(pair["state"])
            self.ops.append(
                (pair, spec, DetectorConfig(N=pair["N"], eta=1.0, nu=pair["nu"]), "eta",
                 np.linspace(pair["eta_from"], 1.0, SWEEP_POINTS))
            )
            self.ops.append(
                (pair, spec, DetectorConfig(N=pair["N"], eta=pair["eta"], nu=0.0), "mean_photons",
                 np.linspace(pair["mu_from"], pair["mu_to"], SWEEP_POINTS))
            )

    @staticmethod
    def detectors(op) -> int:
        return op[2].N

    def warm_up(self) -> None:
        self.run(self.ops[0])

    def cycles(self):
        while True:
            yield self.ops

    def run(self, op) -> Outcome:
        _, spec, config, axis, grid = op
        self.laws.clear()
        try:
            rows = cli.run_sweep(spec, config, axis, grid)
        except Exception as exc:
            return Outcome(error=exc)
        return Outcome(value=rows, laws=list(self.laws))

    def check(self, op, outcome: Outcome) -> Failure | None:
        import check

        pair, spec, config, axis, grid = op
        if outcome.error is not None:
            return _classify_error(outcome.error, pair["state"], config)
        rows = outcome.value
        if len(rows) != len(grid):
            return Failure(False, f"sweep returned {len(rows)} rows for {len(grid)} points")
        digit_points = set()
        if config.N <= DIGITS_MAX_N:
            digit_points = set(self.digit_rng.choice(len(grid), DIGIT_CHECKS_PER_SWEEP, replace=False))
        first = None
        for i, row in enumerate(rows):
            value = row[0]
            if axis == "eta":
                state, pt_config = pair["state"], dataclasses.replace(config, eta=value)
                pt_spec = spec
            else:
                state = {**pair["state"], "mean_photons": value}
                pt_config, pt_spec = config, state_from_dict(state)
            if len(outcome.laws) == len(rows):
                law = outcome.laws[i]
            else:
                law = _click_distribution(pt_spec, pt_config)
            failure = _check_point(
                state, pt_spec, pt_config, law, i in digit_points,
                lambda ref, row=row: check.check_sweep_row(row, ref),
            )
            if failure is not None and (first is None or not failure.known):
                first = failure
        return first


class RecordPipeline:
    """One op simulates, writes, reads back and estimates two record shapes."""

    name = "record-pipeline"

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 4])
        self.seed = seed
        self.shapes = []
        for shape in inputs.record_shapes(rng):
            config = DetectorConfig(N=shape["N"], eta=shape["eta"], nu=shape["nu"])
            self.shapes.append((shape, state_from_dict(shape["state"]), config))
        self.index = 0

    @staticmethod
    def detectors(op) -> int:
        return 0  # the photon law is built once per shape and cached

    def warm_up(self) -> None:
        self.run(-1)

    def cycles(self):
        while True:
            self.index += 1
            yield [self.index]

    def _seeds(self, op: int, shape: int) -> tuple[int, int]:
        base = (self.seed * 1_000_003 + op * 2 + shape) % 2**63
        return base, base ^ 0x5EED

    def run(self, op) -> Outcome:
        try:
            value = []
            for i, (shape, spec, config) in enumerate(self.shapes):
                sim_seed, boot_seed = self._seeds(op, i)
                samples = simulator.simulate(spec, config, shape["trials"], sim_seed, workers=1)
                text = records.samples_to_text(samples)
                back = records.samples_from_text(text)
                kwargs = dict(bootstrap_replicates=BOOTSTRAP, seed=boot_seed, workers=1)
                value.append(
                    (samples, len(text), back, estimators.qb_estimate(back, **kwargs),
                     estimators.mandel_q_estimate(back, **kwargs))
                )
        except Exception as exc:
            return Outcome(error=exc)
        return Outcome(value=value)

    def check(self, op, outcome: Outcome) -> Failure | None:
        import check

        if outcome.error is not None:
            return Failure(False, f"{type(outcome.error).__name__}: {outcome.error}")
        for i, ((shape, spec, config), result) in enumerate(zip(self.shapes, outcome.value)):
            samples, _, back, qb, qm = result
            if not (back.N == samples.N and back.trials == samples.trials
                    and back.seed == samples.seed
                    and np.array_equal(back.clicks, samples.clicks)):
                return Failure(False, f"N={config.N} record did not round-trip")
            q_b, q_m = check.plug_in(back.clicks, config.N)
            bad = check.check_estimate(qb, q_b) + check.check_estimate(qm, q_m)
            if op == 1:  # once per run and shape: two workers change nothing
                bad += self._check_workers(op, i, samples, qb, qm)
            if bad:
                return Failure(False, f"N={config.N}: {bad[0]}")
        return None

    def _check_workers(self, op, i, samples, qb, qm) -> list[str]:
        shape, spec, config = self.shapes[i]
        sim_seed, boot_seed = self._seeds(op, i)
        two = _simulate(spec, config, shape["trials"], sim_seed, workers=2)
        if not np.array_equal(two.clicks, samples.clicks):
            return ["workers=2 simulated different clicks"]
        kwargs = dict(bootstrap_replicates=BOOTSTRAP, seed=boot_seed, workers=2)
        for one, estimate in ((qb, _qb_estimate), (qm, _mandel_q_estimate)):
            other = estimate(samples, **kwargs)
            if (one.point_estimate, one.ci_low, one.ci_high) != (
                other.point_estimate, other.ci_low, other.ci_high
            ):
                return [f"workers=2 changed the {one.statistic_name} interval"]
        return []


class CliCold:
    """One op is one fresh ``python -m clickstats`` process."""

    name = "cli-cold"
    VERBS = ("dist", "qb", "sweep", "simulate", "analyze")

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng([seed, 5])
        self.workdir = workdir
        src = str(Path(cli.__file__).resolve().parents[1])
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )
        self.cycle = 0

    def _inputs(self) -> dict:
        """Small inputs (N <= 8), so that each verb's own work stays small
        beside process start-up, which is what this workload measures; the
        kernel's accuracy at larger N is exact-grid's concern."""
        rng = self.rng
        kind = inputs.KINDS[int(rng.integers(0, len(inputs.KINDS)))]
        state = inputs.random_state(rng, kind)
        if kind == "fock":
            state["n"] = int(rng.integers(1, 9))
        return {
            "state": state,
            "N": int(rng.integers(2, 9)),
            "eta": float(rng.uniform(0.3, 1.0)),
            "nu": float(np.exp(rng.uniform(np.log(1e-4), np.log(0.1)))),
            "sim_state": {"kind": "thermal", "mean_photons": float(rng.uniform(0.5, 4.0))},
            "seed": int(rng.integers(0, 2**31)),
        }

    def _ops(self, cycle: int) -> list:
        """Three rounds of the five verbs, each round on fresh inputs.

        A cycle of 15 processes keeps more than ten samples in every run, so
        the tail latency always has ten samples beyond it.
        """
        return [op for round_ in range(3) for op in self._round(f"{cycle}-{round_}")]

    def _round(self, tag: str) -> list:
        p = self._inputs()
        common = ["--state", json.dumps(p["state"]), "--detectors", str(p["N"]),
                  "--eta", repr(p["eta"]), "--nu", repr(p["nu"])]
        record = str(self.workdir / f"record-{tag}.txt")
        sim = ["--state", json.dumps(p["sim_state"]), "--detectors", "8",
               "--eta", repr(p["eta"])]
        argvs = {
            "dist": ["dist", *common],
            "qb": ["qb", *common],
            "sweep": ["sweep", *common, "--sweep-axis", "eta", "--from", "0.1",
                      "--to", "1.0", "--steps", "10"],
            "simulate": ["simulate", *sim, "--trials", "20000",
                         "--seed", str(p["seed"]), "--out", record],
            "analyze": ["analyze", "--in", record, "--bootstrap", "200",
                        "--seed", str(p["seed"] + 1)],
        }
        return [(verb, argvs[verb], p, record) for verb in self.VERBS]

    @staticmethod
    def detectors(op) -> int:
        return 0  # the program runs in another process

    def warm_up(self) -> None:
        self.run(self._round("warm-up")[0])

    def cycles(self):
        while True:
            self.cycle += 1
            yield self._ops(self.cycle)

    def run(self, op) -> Outcome:
        _, argv, _, _ = op
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "clickstats", *argv],
                capture_output=True, text=True, env=self.env, cwd=self.workdir,
                timeout=60,
            )
        except subprocess.TimeoutExpired as exc:
            return Outcome(error=exc)
        return Outcome(value=proc)

    def check(self, op, outcome: Outcome) -> Failure | None:
        verb = op[0]
        if outcome.error is not None:
            return Failure(False, f"{verb}: {outcome.error}")
        proc = outcome.value
        if proc.returncode != 0:
            return Failure(False, f"{verb} exited {proc.returncode}: {proc.stderr.strip()[-200:]}")
        try:
            bad = self._check_output(op, proc.stdout)
        except Exception as exc:  # a parse error is a failed op, not a crash
            bad = [f"{type(exc).__name__}: {exc}"]
        return Failure(False, f"{verb}: {bad[0]}") if bad else None

    def _check_output(self, op, stdout: str) -> list[str]:
        import check

        verb, _, p, record = op
        ref = check.Moments(p["state"], p["N"], p["eta"], p["nu"])
        printed = check.DIGITS_REL  # the CLI prints 12 significant digits
        if verb == "dist":
            law = records.parse_distribution(stdout)
            return check.check_law(law.probs, ref, printed)
        if verb == "qb":
            return check.check_report(records.parse_nonclassicality(stdout), ref, printed)
        if verb == "sweep":
            _, rows = records.parse_sweep(stdout)
            bad = [] if len(rows) == 10 else [f"sweep printed {len(rows)} rows"]
            for row, eta in zip(rows, np.linspace(0.1, 1.0, 10)):
                point = check.Moments(p["state"], p["N"], float(eta), p["nu"])
                bad += check.check_sweep_row(row, point, printed)
            return bad
        if verb == "simulate":
            clicks = check.read_clicks(record)
            if stdout or clicks.size != 20000 or not 0 <= clicks.min() <= clicks.max() <= 8:
                return ["record file does not hold 20000 click counts in [0, 8]"]
            return []
        clicks = check.read_clicks(record)
        q_b, q_m = check.plug_in(clicks, 8)
        estimates = {r.statistic_name: r for r in records.parse_estimates(stdout)}
        return (check.check_estimate(estimates["q_b"], q_b, printed)
                + check.check_estimate(estimates["q_m"], q_m, printed))


WORKLOADS = {w.name: w for w in (ExactGrid, EtaSweep, RecordPipeline, CliCold)}


def cli_in_process(argv: list[str]) -> str:
    """Run one CLI verb in this process and return what it printed."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"clickstats {argv[0]} exited {code}")
    return out.getvalue()
