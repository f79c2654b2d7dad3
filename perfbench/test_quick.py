"""The benchmark's own tests: quick runs of every workload, all checks on.

    python3 -m pytest perfbench

Each run makes one short pass of a reduced op list, so a broken harness
or a wrong answer from gemkit fails in seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNTS = ("calls", "errors", "forms", "classes", "entries", "nonzeros", "arrangements", "bytes")


def quick_run(workload: str, trace: int, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--quick"],
        capture_output=True, text=True, timeout=180, cwd=cwd,
    )


def declared(kind: str) -> set[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"] for m in spec[kind]}


@pytest.mark.parametrize("workload", ["search", "topology", "session"])
def test_quick_pass_is_correct(workload):
    proc = quick_run(workload, 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["search", "topology", "session"])
def test_traced_counts_repeat(workload):
    runs = []
    for _ in range(2):
        proc = quick_run(workload, 1)
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout.splitlines()[-1])["metrics"])
    assert set(runs[0]) == declared("per_layer")
    counts = [name for name in runs[0] if name.rsplit(".", 1)[-1] in COUNTS]
    assert {n: runs[0][n]["value"] for n in counts} == {n: runs[1][n]["value"] for n in counts}


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = quick_run("search", 0, cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_checks_reject_wrong_answers():
    sys.path.insert(0, str(HERE))
    import oracle
    import workloads

    class Profile:
        groups = ((1, ()), (0, (5,)), (0, ()), (1, ()))

    assert workloads._profile_check(oracle.lens_profile(5, 2))(Profile()) is None
    assert workloads._profile_check(oracle.lens_profile(7, 2))(Profile()) is not None

    a = [[1, 0, 3, 2], [3, 2, 1, 0], [2, 3, 0, 1]]
    assert oracle.witness_error(a, a, [0, 1, 2, 3], [0, 1, 2]) is None
    assert oracle.witness_error(a, a, [1, 0, 2, 3], [0, 1, 2]) is not None
    spec = {"colors": 3, "order": 4, "vertex_types": (4, 4, 4)}
    assert workloads._spec_error(spec, a) is None
    assert workloads._spec_error(dict(spec, vertex_types=(4, 4, 6)), a) is not None
