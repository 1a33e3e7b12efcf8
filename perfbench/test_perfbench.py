"""Tests of the benchmark harness itself, at the small modulus q=1009.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import random
import re
import subprocess
import sys
import time

import pytest

import run

sys.path.insert(0, str(run.SRC))

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_metric_printed_with_unit(workload, trace, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(run.ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "0", "--trace", str(trace), "--q", "1009"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == len(run.WORKLOADS[workload]) * (1 + trace)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == expected
    for name, metric in result["metrics"].items():
        assert NAME.fullmatch(name)
        assert isinstance(metric["value"], (int, float))
        if trace and name.endswith("_s") and name != "trace.overhead_s":
            assert metric["value"] >= 0, name


def test_traced_and_untraced_passes_run_the_same_commands(tmp_path):
    lists = run.command_lists("desk_10007", seed=2, q=1009)
    rounds, _ = run.run_rounds(lists, tmp_path, 0, random.Random(2), time.perf_counter() + 150, trace=True)
    (plain, traced), = rounds
    assert [row["argv"] for row in plain["commands"]] == lists
    assert [row["argv"] for row in traced["commands"]] == lists
    # the traced child records the argv it handed to molliclt.cli.main
    assert [row["trace"]["argv"][:-2] for row in traced["commands"]] == lists
    assert all(row["trace"]["spans"] for row in traced["commands"])
