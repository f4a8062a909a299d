"""Self-test of the benchmark: every workload at ``ci`` scale, briefly.

    python -m pytest plimbench -q

Checks that each run prints every metric ``BENCHMARK.json`` names, with
its unit, that nothing fails on correct programs, and that one flipped
RM3 operand is caught and makes the command exit nonzero.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("table1", "translate", "serve")


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _run(workload: str, trace: int, *extra: str):
    # serve: 75 requests over 3 s for its 54 ci keys; the compile
    # workloads: a pass or two
    seconds = "3" if workload == "serve" else "0.5"
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", seconds, "--trace", str(trace),
         "--scale", "ci", "--rate", "25", *extra],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    assert lines, proc.stderr
    return proc, json.loads(lines[-1])


def test_spec_names_the_workloads_and_metrics_the_runner_prints():
    sys.path.insert(0, HERE)
    try:
        import run
    finally:
        sys.path.remove(HERE)
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit_and_nothing_fails(workload, trace):
    proc, result = _run(workload, trace)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] / result["attempted"] == 0
    section = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in _spec()[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert f"metric {name} = " in proc.stdout
        assert isinstance(result["metrics"][name]["value"], (int, float))
    if not trace:
        assert all(result["metrics"][name]["value"] > 0 for name in expected)


@pytest.mark.parametrize("workload", ["table1", "serve"])
def test_a_flipped_operand_is_a_failure(workload):
    proc, result = _run(workload, 0, "--corrupt")
    assert proc.returncode != 0
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert "program disagrees with its MIG" in proc.stdout


def test_without_the_program_the_command_fails_without_a_result(tmp_path):
    bench = tmp_path / "plimbench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (bench / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "table1",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
