"""The benchmark's own tests: every metric is printed, the checker catches errors.

Run from the repository root with ``python -m pytest perfbench``. The smoke
tests start the benchmark as a user would and take a few minutes.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import clickstats  # noqa: E402
import inputs  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS, ExactGrid, Outcome, RecordPipeline  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=900,
    )


def test_benchmark_json_names_the_metrics_the_worker_reports():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    for key, table in (("end_to_end", worker.END_TO_END), ("per_layer", worker.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in BENCHMARK[key]} == table


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_prints_every_metric_with_its_unit(trace, key):
    proc = _run("--workload", "all", "--seed", "5", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert len(results) == len(BENCHMARK["workloads"])
    expected = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1
        assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
        assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    for name, unit in expected.items():
        assert proc.stdout.count(f" {name} ") == len(results)
        assert any(line.split()[:1] == [name] and line.split()[2] == unit
                   for line in proc.stdout.splitlines())
    assert json.loads(proc.stdout.splitlines()[-1]) == results[-1]


def test_without_the_sources_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "exact-grid", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def _grid_op(state, N, eta, nu=0.0):
    return ExactGrid._op((state, N, eta, nu))


def test_a_perturbed_click_law_counts_as_a_failure():
    grid = ExactGrid(1, None)
    op = _grid_op({"kind": "coherent", "mean_photons": 3.0}, 16, 0.8, 0.01)
    _, spec, config = op
    law = clickstats.click_distribution(spec, config)
    report = clickstats.nonclassicality_report(spec, config)
    assert grid.check(op, Outcome(value=report, laws=[law])) is None

    probs = law.probs.copy()
    probs[3] += 1e-7
    probs[4] -= 1e-7
    perturbed = clickstats.ClickDistribution(config.N, probs)
    failure = grid.check(op, Outcome(value=report, laws=[perturbed]))
    assert failure is not None and not failure.known

    skewed = dataclasses.replace(report, q_b=report.q_b + 1e-6)
    failure = grid.check(op, Outcome(value=skewed, laws=[law]))
    assert failure is not None and not failure.known


def test_a_perturbed_estimate_counts_as_a_failure(tmp_path):
    pipeline = RecordPipeline(3, tmp_path)
    outcome = pipeline.run(2)
    assert pipeline.check(2, outcome) is None

    samples, size, back, qb, qm = outcome.value[0]
    nudged = dataclasses.replace(qb, point_estimate=qb.point_estimate + 1e-6)
    outcome.value[0] = (samples, size, back, nudged, qm)
    failure = pipeline.check(2, outcome)
    assert failure is not None and not failure.known


def test_the_known_kernel_defects_show_as_failures():
    anchor = _grid_op(*inputs.ANCHOR)
    grid = ExactGrid(1, None)
    failure = grid.check(anchor, grid.run(anchor))
    assert failure is not None and failure.known
    assert failure.reason.startswith("inclusion-exclusion accuracy")

    large = _grid_op({"kind": "thermal", "mean_photons": 2.0}, 1024, 0.7)
    failure = grid.check(large, grid.run(large))
    assert failure is not None and failure.known
    assert failure.reason.startswith("OverflowError")
