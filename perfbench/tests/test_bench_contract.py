"""BENCHMARK.json matches the code, and the benchmark refuses to run without sources."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import layers
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parents[1]
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_spec_names_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = set(layers.op_metrics({}, {})) | {"trace.overhead"}
    assert {m["name"] for m in SPEC["per_layer"]} == names
    assert set(layers.EXACT) <= names


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ensemble", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
