"""The clickstats benchmark: four workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout (the package is imported from
``src/``, nothing needs installing):

    python3 perfbench/run.py --workload exact-grid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Workloads (see BENCHMARK.json for why each exists):

- ``exact-grid``: one op is one ``nonclassicality_report`` with method auto
  on a fresh point of a seeded, stratified grid over every state kind,
  N log-uniform in 1..1024, eta in (0, 1], nu 0 or in [1e-4, 0.1];
- ``eta-sweep``: one op is one 100-point ``cli.run_sweep`` over eta or over
  mean_photons, on fixed (state, N) pairs with N in {8, 64, 256};
- ``record-pipeline``: one op simulates, writes, reads back and estimates
  Q_B / Q_M (1000 bootstrap replicates, one worker) for an N=8, nu=0 record
  and an N=1024, nu>0 record;
- ``cli-cold``: one op is one fresh ``python -m clickstats`` process,
  cycling through dist, qb, sweep, simulate --out and analyze --in.

Load comes from one process with a single closed-loop caller, and the run
is pinned to one CPU. Each run starts the workload process three times and
reports the median time from interpreter start to ready as ``setup_s``; the
third process then measures whole cycles of ops for about ``--seconds`` of
op time and checks every op against the references in ``check.py``.

End-to-end times are reference times from the speed clock of ``clock.py``:
wall time scaled by the measured speed of the CPU, which on a shared
virtual machine changes by up to a factor of two from second to second.

``--trace 0`` prints the end-to-end metrics: setup_s, ops_per_s (median
over cycles), op_p50_ms, op_tail_ms (the latency with exactly ten samples
above it; its percentile and the sample count are printed beside it),
success_rate (1 - error_rate; a rate that is 0 on a healthy workload cannot
carry a relative bound) and peak_rss_mb (the workload process, or for
cli-cold the largest CLI process). ``--trace 1`` prints the per-layer
metrics of ``worker.py``, in wall time. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics; the
lines before it give the metrics in words and the provenance of the run,
which is also written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import worker
from clock import SpeedClock, pin_to_one_cpu

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("exact-grid", "eta-sweep", "record-pipeline", "cli-cold")
SETUPS = 3
DEADLINE_S = 170


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "clickstats").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def provenance(args, workload: str, result: dict, cpus: set[int]) -> dict:
    versions = result.get("versions", {})
    return {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "tracing_overhead_ops_per_s": result["values"].get("tracing.overhead_ops_per_s"),
        "nproc": len(cpus),
        "python": platform.python_version(),
        "numpy": versions.get("numpy"),
        "scipy": versions.get("scipy"),
        "git_revision": _git_revision(),
        "source_sha256": _source_digest(),
    }


def run_workload(args, workload: str, deadline: float, cpus: set[int]) -> dict:
    """Start the workload process SETUPS times; the last one measures.

    The time to ``ready`` is read off a speed clock that runs in this
    process, which shares its one CPU with the child.
    """
    workdir = ROOT / ".perfbench_out" / f"{workload}-seed{args.seed}-trace{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)
    setups = []
    starts = 1 if args.trace else SETUPS
    for i in range(starts):
        measuring = i == starts - 1
        argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--workdir", str(workdir),
                "--cpus", ",".join(map(str, sorted(cpus)))]
        if not measuring:
            argv.append("--setup-only")
        clock = SpeedClock()
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            with clock:
                first = proc.stdout.readline()
                t1 = time.perf_counter()
            setups.append(float(clock.reference([t0], [t1])[0]))
            rest, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if first.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"{workload} worker failed (exit {proc.returncode})")
    result = json.loads(rest.strip().splitlines()[-1])
    result["setups"] = setups
    if not args.trace:
        result["values"]["setup_s"] = statistics.median(setups)
    result["provenance"] = provenance(args, workload, result, cpus)
    with open(workdir / "result.json", "w") as fh:
        json.dump(result, fh, indent=1)
    return result


def report(args, result: dict) -> None:
    """Print the metrics in words, then the provenance line."""
    units = result["units"]
    notes = result["notes"]
    print(f"== {result['workload']}  seed={args.seed}  seconds={args.seconds}  "
          f"trace={args.trace}")
    for name, unit in units.items():
        line = f"  {name:30s} {result['values'][name]:14.6g} {unit}"
        if name == "setup_s":
            line += f"  (median of {len(result['setups'])} fresh starts)"
        elif name == "ops_per_s":
            line += f"  (median over {notes['cycles']} cycles, {notes['ops']} ops)"
        elif name == "op_tail_ms":
            line += (f"  (p{notes['tail_percentile']:.1f}: {notes['tail_samples_beyond']} "
                     f"of {notes['ops']} samples beyond)")
        elif name in worker.LABELS:
            line += f"  ({worker.LABELS[name]})"
        elif name == "success_rate":
            line += (f"  (error_rate {notes['error_rate']:.6g}: {result['failed']} of "
                     f"{result['attempted']} ops failed)")
        print(line)
    for reason, count in notes["known_failures"].items():
        print(f"  known defect: {count} x {reason}")
    for reason in notes["unknown_failures"]:
        print(f"  FAILED: {reason}")
    print("provenance " + json.dumps(result["provenance"], sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="clickstats benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "clickstats" / "__init__.py").is_file():
        print(f"error: no clickstats sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    cpus = pin_to_one_cpu()
    deadline = time.monotonic() + DEADLINE_S
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        try:
            result = run_workload(args, workload, deadline, cpus)
        except (RuntimeError, ValueError, IndexError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        report(args, result)
        metrics = {
            name: {"value": result["values"][name], "unit": unit}
            for name, unit in result["units"].items()
        }
        print(json.dumps({
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }), flush=True)
        if args.workload == "all":
            deadline = time.monotonic() + DEADLINE_S
    return 0


if __name__ == "__main__":
    sys.exit(main())
