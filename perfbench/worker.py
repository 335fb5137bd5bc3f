"""One workload process: set up, print ``ready``, then measure and check.

``run.py`` starts this file as a fresh interpreter and takes the time until
the ``ready`` line as one set-up sample. With ``--setup-only`` the process
stops there; otherwise it measures for ``--seconds`` and prints one JSON
object with its metrics, counts and notes as the last line.

Untraced (``--trace 0``) the end-to-end metrics are measured. Traced
(``--trace 1``) the process measures the workload for half the time
untraced and half traced, then runs the layer probes, and reports the
per-layer metrics from the spans; see ``layer_metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

from clock import SpeedClock

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

# Each metric's unit; BENCHMARK.json lists the same names.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "success_rate": "ratio",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "import.total_s": "s",
    "import.scipy_s": "s",
    "import.numpy_s": "s",
    "states.make_distribution_ms": "ms",
    "states.calls": "count",
    "states.n_max_mean": "count",
    "click_kernel.path_a_ms": "ms",
    "click_kernel.path_a_ok_frac": "ratio",
    "click_kernel.path_b_ms": "ms",
    "click_kernel.dark_ms": "ms",
    "click_kernel.occupancy_steps": "count",
    "cli.run_sweep_s": "s",
    "cli.dist_s": "s",
    "cli.qb_s": "s",
    "cli.sweep_s": "s",
    "cli.simulate_s": "s",
    "cli.analyze_s": "s",
    "simulator.simulate_s": "s",
    "simulator.trials_per_s": "1/s",
    "simulator.uniforms_drawn": "count",
    "simulator.speedup_w2": "ratio",
    "records.write_s": "s",
    "records.read_s": "s",
    "records.bytes": "B",
    "estimators.point_ms": "ms",
    "estimators.bootstrap_s": "s",
    "estimators.replicates_per_s": "1/s",
    "estimators.degenerate_frac": "ratio",
    "estimators.speedup_w2": "ratio",
    "states.self_s": "s",
    "click_kernel.self_s": "s",
    "simulator.self_s": "s",
    "records.self_s": "s",
    "estimators.self_s": "s",
    "cli.self_s": "s",
    "tracing.overhead_ops_per_s": "1/s",
}
# Per-layer metrics that are not timed spans, printed beside their value.
LABELS = {
    "click_kernel.dark_ms": "derived: forced occupancy route at nu minus at nu=0",
    "click_kernel.occupancy_steps": "computed: sum of n_max*(N+1) per op",
    "simulator.uniforms_drawn": "computed: trials*(1+N) with dark counts, else trials",
    "tracing.overhead_ops_per_s": "untraced minus traced ops_per_s",
}
PROBE_BOOTSTRAP = 1000
PROBE_TRIALS = 20_000


class Loop:
    """What one measuring loop saw: latencies, cycle rates and failures."""

    def __init__(self):
        self.latencies: list[float] = []
        self.cycle_rates: list[float] = []
        self.op_detectors: list[int] = []
        self.attempted = 0
        self.known = Counter()
        self.unknown: list[str] = []

    @property
    def failed(self) -> int:
        return sum(self.known.values()) + len(self.unknown)

    @property
    def ops_per_s(self) -> float:
        return statistics.median(self.cycle_rates)


def measure(workload, cycles, seconds: float, tracer=None) -> Loop:
    """Run the whole number of cycles whose op time comes closest to ``seconds``.

    Only the ops are timed, in reference seconds of the speed clock; the
    checker runs between cycles. Whole cycles keep the op mix, and with it
    the latency percentiles, the same on every run. The rate of a run is the
    median over its cycles. No cycle starts after twice ``seconds`` of wall
    time, so that a machine slowed for the whole run still ends it in time.
    """
    loop = Loop()
    starts, ends, cycle_sizes = [], [], []
    busy = wall = 0.0
    with SpeedClock() as clock:
        for ops in cycles:
            outcomes = []
            for op in ops:
                if tracer is not None:
                    tracer.op = len(starts)
                starts.append(time.perf_counter())
                outcomes.append(workload.run(op))
                ends.append(time.perf_counter())
                loop.op_detectors.append(workload.detectors(op))
            cycle_sizes.append(len(ops))
            busy += float(clock.reference([starts[-len(ops)]], [ends[-1]])[0])
            wall += ends[-1] - starts[-len(ops)]
            if tracer is not None:
                tracer.op, tracer.enabled = -1, False
            for op, outcome in zip(ops, outcomes):
                loop.attempted += 1
                failure = workload.check(op, outcome)
                if failure is None:
                    continue
                if failure.known:
                    loop.known[failure.reason.split(" at ")[0]] += 1
                else:
                    loop.unknown.append(failure.reason)
            if tracer is not None:
                tracer.enabled = True
            if busy + busy / len(cycle_sizes) / 2 >= seconds or wall >= 2 * seconds:
                break
    # Converted after the loop, when the probes that follow each op are known.
    loop.latencies = clock.reference(starts, ends).tolist()
    first = np.cumsum([0] + cycle_sizes[:-1])
    last = np.cumsum(cycle_sizes) - 1
    took = clock.reference(np.asarray(starts)[first], np.asarray(ends)[last])
    loop.cycle_rates = (np.asarray(cycle_sizes) / took).tolist()
    return loop


def end_to_end(loop: Loop, own_rss: bool) -> tuple[dict, dict]:
    lat = sorted(loop.latencies)
    n = len(lat)
    # The highest rank with ten samples above it; the maximum in a run too
    # short to have one.
    tail_index = n - 11 if n > 10 else n - 1
    usage = resource.getrusage(resource.RUSAGE_SELF if own_rss else resource.RUSAGE_CHILDREN)
    values = {
        "ops_per_s": loop.ops_per_s,
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": lat[tail_index] * 1e3,
        "success_rate": 1.0 - loop.failed / loop.attempted,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }
    notes = {
        "ops": n,
        "cycles": len(loop.cycle_rates),
        "tail_percentile": 100.0 * (tail_index + 1) / n,
        "tail_samples_beyond": n - tail_index - 1,
        "error_rate": loop.failed / loop.attempted,
    }
    return values, notes


# ---------------------------------------------------------------------------
# traced run


def _fresh_python(argv: list[str], env: dict) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=120,
        check=True,
    )
    return time.perf_counter() - t0, proc


def run_probes(tracer, seed: int, workdir: Path, cpus: set[int]) -> dict:
    """Call every layer once more on seeded inputs, inside probe spans.

    The probes make every per-layer metric exist on every workload, also
    for the layers a workload does not call, and take the measurements that
    need a special call: forced routes, two workers, each CLI verb.
    """

    import inputs
    import spans
    from clickstats import (
        DetectorConfig, click_kernel, estimators, records, simulator, state_from_dict, states,
    )
    from workloads import cli_in_process

    rng = np.random.default_rng([seed, 9])
    out = {}

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out["import.total_s"], _ = _fresh_python(["-c", "import clickstats"], env)
    _, proc = _fresh_python(["-X", "importtime", "-c", "import clickstats"], env)
    by_package = spans.import_self_seconds(proc.stderr)
    out["import.scipy_s"] = by_package["scipy"]
    out["import.numpy_s"] = by_package["numpy"]

    ok = attempts = 0
    for kind in inputs.KINDS:
        for N in (16, 256):
            state = inputs.random_state(rng, kind)
            spec = state_from_dict(state)
            eta, nu = float(rng.uniform(0.3, 1.0)), float(rng.uniform(0.01, 0.1))
            config = DetectorConfig(N=N, eta=eta, nu=nu)
            states.make_distribution(spec)
            attempts += 1
            with tracer.span("probe.path_a"):
                try:
                    click_kernel.click_distribution(spec, config, "generating_function")
                    ok += 1
                except Exception:
                    pass
            with tracer.span("probe.path_b"):
                click_kernel.click_distribution(spec, config, "occupancy_dp")
            with tracer.span("probe.path_b_nodark"):
                click_kernel.click_distribution(
                    spec, DetectorConfig(N=N, eta=eta), "occupancy_dp"
                )
    out["click_kernel.path_a_ok_frac"] = ok / attempts

    state = {"kind": "thermal", "mean_photons": float(rng.uniform(1.0, 4.0))}
    spec = state_from_dict(state)
    config = DetectorConfig(N=64, eta=float(rng.uniform(0.4, 0.9)), nu=0.05)
    sim_seed = int(rng.integers(0, 2**31))
    # The run is pinned to one CPU; the two-worker probes get every CPU.
    pinned = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        for workers in (1, 2):
            with tracer.span(f"probe.simulate_w{workers}"):
                samples = simulator.simulate(spec, config, PROBE_TRIALS, sim_seed, workers=workers)
        back = records.samples_from_text(records.samples_to_text(samples))
        with tracer.span("probe.point"):
            estimators.qb_estimate(back)
        for workers in (1, 2):
            with tracer.span(f"probe.bootstrap_w{workers}"):
                estimators.bootstrap_ci(back, "q_b", replicates=PROBE_BOOTSTRAP, seed=sim_seed,
                                        workers=workers)
    finally:
        os.sched_setaffinity(0, pinned)

    record = str(workdir / "probe-record.txt")
    common = ["--state", json.dumps(state), "--detectors", "8", "--eta", "0.7", "--nu", "0.01"]
    for verb, argv in (
        ("dist", ["dist", *common]),
        ("qb", ["qb", *common]),
        ("sweep", ["sweep", *common, "--sweep-axis", "eta", "--from", "0.1", "--to", "1",
                   "--steps", "10"]),
        ("simulate", ["simulate", *common, "--trials", str(PROBE_TRIALS), "--seed",
                      str(sim_seed), "--out", record]),
        ("analyze", ["analyze", "--in", record, "--bootstrap", "200", "--seed", "1"]),
    ):
        with tracer.span(f"probe.cli_{verb}"):
            cli_in_process(argv)
    return out


def _mean(values: list[float]) -> float:
    return sum(values) / len(values)


def layer_metrics(tracer, probes: dict, traced: Loop, untraced: Loop) -> dict:
    """Every per-layer metric from the spans of the traced run.

    Durations are means over every span of that name, from the traced ops
    and the probes together. ``states.calls`` and
    ``click_kernel.occupancy_steps`` are per traced op; the latter is
    computed as the sum of n_max * (N + 1) over the photon laws built in an
    op. ``click_kernel.dark_ms`` is derived: the forced occupancy route at
    the probe's nu minus the same at nu = 0. ``simulator.uniforms_drawn`` is
    computed per call as trials * (1 + N) with dark counts, else trials.
    """
    spans = tracer.spans

    def durations(name):
        return tracer.durations(name)

    def extras(name, key):
        return [s[5][key] for s in spans if s[0] == name and key in s[5]]

    ops = len(traced.latencies)
    laws = [s for s in spans if s[0] == "states.make_distribution" and s[4] >= 0]
    steps = sum(s[5]["n_max"] * (traced.op_detectors[s[4]] + 1) for s in laws)
    sim = durations("simulator.simulate")
    boot = durations("estimators.bootstrap_ci")
    replicates = extras("estimators.bootstrap_ci", "replicates")
    values = dict(probes)
    values.update({
        "states.make_distribution_ms": _mean(durations("states.make_distribution")) * 1e3,
        "states.calls": len(laws) / ops,
        "states.n_max_mean": _mean(extras("states.make_distribution", "n_max")),
        "click_kernel.path_a_ms": _mean(durations("probe.path_a")) * 1e3,
        "click_kernel.path_b_ms": _mean(durations("probe.path_b")) * 1e3,
        "click_kernel.dark_ms": (
            _mean(durations("probe.path_b")) - _mean(durations("probe.path_b_nodark"))
        ) * 1e3,
        "click_kernel.occupancy_steps": steps / ops,
        "cli.run_sweep_s": _mean(durations("cli.run_sweep")),
        "simulator.simulate_s": _mean(sim),
        "simulator.trials_per_s": sum(extras("simulator.simulate", "trials")) / sum(sim),
        "simulator.uniforms_drawn": _mean(extras("simulator.simulate", "uniforms")),
        "simulator.speedup_w2": (
            durations("probe.simulate_w1")[0] / durations("probe.simulate_w2")[0]
        ),
        "records.write_s": _mean(durations("records.samples_to_text")),
        "records.read_s": _mean(durations("records.samples_from_text")),
        "records.bytes": _mean(extras("records.samples_to_text", "bytes")),
        "estimators.point_ms": durations("probe.point")[0] * 1e3,
        "estimators.bootstrap_s": _mean(boot),
        "estimators.replicates_per_s": sum(replicates) / sum(boot),
        "estimators.degenerate_frac": (
            sum(extras("estimators.bootstrap_ci", "discarded")) / sum(replicates)
        ),
        "estimators.speedup_w2": (
            durations("probe.bootstrap_w1")[0] / durations("probe.bootstrap_w2")[0]
        ),
        "tracing.overhead_ops_per_s": untraced.ops_per_s - traced.ops_per_s,
    })
    for verb in ("dist", "qb", "sweep", "simulate", "analyze"):
        values[f"cli.{verb}_s"] = durations(f"probe.cli_{verb}")[0]
    for module, seconds in tracer.self_seconds().items():
        values[f"{module}.self_s"] = seconds
    return values


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--cpus", default="", help="CPUs the two-worker probes may use")
    args = parser.parse_args(argv)

    import spans
    from workloads import WORKLOADS

    workdir = Path(args.workdir)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    hooks = spans.Hooks()
    if hasattr(workload, "laws"):
        spans.capture_laws(hooks, workload.laws)
    workload.warm_up()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    import check  # noqa: F401  (the checker's mpmath import is not set-up)

    cycles = workload.cycles()
    import scipy

    result = {
        "workload": args.workload,
        "units": PER_LAYER if args.trace else END_TO_END,
        "versions": {"numpy": np.__version__, "scipy": scipy.__version__},
    }
    if not args.trace:
        loop = measure(workload, cycles, args.seconds)
        values, notes = end_to_end(loop, own_rss=args.workload != "cli-cold")
    else:
        untraced = measure(workload, cycles, args.seconds / 2)
        tracer = spans.Tracer()
        tracer.install(hooks)
        loop = measure(workload, cycles, args.seconds / 2, tracer)
        cpus = {int(c) for c in args.cpus.split(",") if c} or os.sched_getaffinity(0)
        probes = run_probes(tracer, args.seed, workdir, cpus)
        hooks.remove()
        values = layer_metrics(tracer, probes, loop, untraced)
        notes = {"ops": len(loop.latencies), "untraced_ops_per_s": untraced.ops_per_s,
                 "traced_ops_per_s": loop.ops_per_s, "spans": len(tracer.spans)}
        tracer.write(str(workdir / "spans.jsonl"))
    result.update(
        attempted=loop.attempted,
        failed=loop.failed,
        correct=not loop.unknown,
        values=values,
        notes=dict(notes, known_failures=dict(loop.known), unknown_failures=loop.unknown[:20]),
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
