"""Tests for the benchmark itself. Run from the repository root:

    python3 -m pytest perfbench/tests -q

The workload tests run every workload once at the shortest length (one
pass), untraced and traced, so the module takes a few minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

PERFBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERFBENCH)
sys.path.insert(0, PERFBENCH)

import run  # noqa: E402
import tracer  # noqa: E402


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def reference_digest(workload: str) -> str:
    """Correctness digest of a pass whose outputs all equal the reference."""
    reference = run.load_json(run.REFERENCE_JSON)
    return run.correctness_digest({job.id: reference[job.id] for job in run.WORKLOADS[workload]})


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_workload_runs_clean(workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    *_, detail_line, result_line = proc.stdout.strip().splitlines()
    detail, result = json.loads(detail_line), json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["failed"] == 0 and result["correct"], detail["failed_jobs"]
    assert result["attempted"] == len(run.WORKLOADS[workload])
    # Seed 5 reads other spec bytes than the reference's seed 0, yet every
    # output is the same: the digests of the two seeds agree.
    assert detail["correctness_digest"] == reference_digest(workload)

    spec = run.load_json(run.BENCHMARK_JSON)
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        # Traced outputs matched the reference, so they equal untraced ones.
        assert result["metrics"]["trace.coverage"]["value"] >= 0.9
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_seed_relabels_specs(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    seeds = (0, 1, 2, 3)
    for seed in seeds:
        subprocess.run(
            [sys.executable, os.path.join(PERFBENCH, "specs.py"),
             "--seed", str(seed), "--out", str(tmp_path / str(seed))],
            check=True, env=env, timeout=120,
        )
    names = sorted(os.listdir(tmp_path / "0"))
    changed = {
        name for name in names
        if len({(tmp_path / str(seed) / name).read_bytes() for seed in seeds}) > 1
    }
    # lamplighter specs are not relabelled and conjugation fixes the center
    # {+-I}; every other spec (and so the manifest) changes with the seed.
    assert set(names) - changed == {"lamplighter.json", "sl2_3_center.json"}


def test_refuses_without_program(tmp_path):
    shutil.copy(run.BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-cases",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_summarize_self_time():
    doc = {
        "overhead_s": 0.5,
        "spans": [
            ["cli.main", 0.0, 10.0, -1, None],
            ["table.enumerate_group", 1.0, 4.0, 0, {"elements": 30}],
            ["catalog.catalog", 5.0, 9.0, 0, None],
            ["catalog.catalog", 6.0, 7.0, 2, None],
            ["table.ensure_dense", 7.0, 8.0, 2, {"entries": 4, "peak_rss_mib": 9.0}],
        ],
    }
    s = tracer.summarize([doc, doc])
    assert s["self_s"]["cli.main"] == pytest.approx(2 * 3.0)
    assert s["self_s"]["catalog.catalog"] == pytest.approx(2 * (2.0 + 1.0))
    assert s["calls"]["catalog.catalog"] == 4
    assert s["counts"]["table.enumerate_group"] == {"elements": 60}
    assert s["coverage"] == pytest.approx(0.7)
    assert s["overhead_s"] == pytest.approx(1.0)
    assert run.layer_value(s, "table.enumerate_group.us_per_element") == pytest.approx(1e5)
    assert run.layer_value(s, "table.ensure_dense.peak_rss_mib") == 9.0
    assert run.layer_value(s, "table.ensure_dense.entries") == 8
    assert run.layer_value(s, "bounds.is_irreducible.calls") == 0
