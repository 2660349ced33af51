"""Self-tests of the benchmark (tiny geometries, a few seconds in all).

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import child  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def child_result(tmp_path, workload, mode, seed=3):
    command = [sys.executable, "-B", str(HERE / "child.py"), "--mode", mode]
    command += ["--workload", workload, "--seed", str(seed), "--seconds", "0"]
    command += ["--size", "tiny", "--out", str(tmp_path)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        command, capture_output=True, text=True, env=env, timeout=120, check=True
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert run.WORKLOADS == workloads.WORKLOADS


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_run_repeats_its_digests(tmp_path, name):
    first = child_result(tmp_path, name, "timed")
    second = child_result(tmp_path, name, "timed")
    assert first["failed"] == 0 and second["failed"] == 0
    assert first["digests"]["0"] == second["digests"]["0"]


@pytest.mark.parametrize("name", ["campaign_session", "soak", "campaign_sharded"])
def test_traced_digests_equal_untraced(tmp_path, name):
    timed = child_result(tmp_path, name, "timed")
    traced = child_result(tmp_path, name, "traced")
    # Every traced pass reran an untraced one; a differing rerun fails.
    assert traced["failed"] == 0
    assert traced["attempted"] >= 2 * child.TRACED_PASSES
    assert traced["digests"]["0"] == timed["digests"]["0"]
    assert 0 <= traced["unattributed_share"] <= 1
    assert set(traced["per_layer"]) == set(run.PER_LAYER)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_changed_seed_changes_inputs(name):
    def inputs(seed, index):
        workload = workloads.make(name, "tiny")
        workload.setup(seed, workloads.NULL_TRACER)
        try:
            made = workload.prepare(index)
        finally:
            workload.close()
        return [s.seed for s in made] if name == "soak" else made.words

    assert inputs(1, 0) == inputs(1, 0)
    assert inputs(1, 0) != inputs(2, 0)
    assert inputs(1, 0) != inputs(1, 1)


def test_corrupted_pin_counts_as_failed_op():
    workload = workloads.make("campaign_compare", "tiny")
    workload.setup(0, workloads.NULL_TRACER)
    result = workload.run(workload.prepare(0), workloads.NULL_TRACER)
    pin = {"digest": result.digest, "counts": result.counts}
    pins = {"seed": 0, "size": "tiny", "passes": {"campaign_compare": [pin]}}
    good = child.Checker("campaign_compare", 0, "tiny", pins)
    good.record(0, result)
    assert not good.failed

    pin["digest"] = "0" * 16
    bad = child.Checker("campaign_compare", 0, "tiny", pins)
    bad.attempt(0, lambda: result)
    assert bad.attempted == 1 and bad.failed == {0}


def test_without_the_program_there_is_no_result(tmp_path):
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    command = [sys.executable, "perfbench/run.py", "--workload", "soak"]
    command += ["--seed", "1", "--seconds", "1", "--trace", "0"]
    out = subprocess.run(
        command, cwd=tmp_path, capture_output=True, text=True, timeout=60
    )
    assert out.returncode != 0
    assert out.stdout == ""
