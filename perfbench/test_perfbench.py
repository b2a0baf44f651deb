"""The benchmark's own tests.

Run from the repository root (they start benchmark processes, so they take
minutes and are not part of the program's test suite)::

    python3 -m pytest -q perfbench/test_perfbench.py

``test_steadiness`` runs two sets of seeds per workload and takes tens of
minutes; it is skipped unless ``PERFBENCH_STEADY=1``.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile

import pytest

sys.path.insert(0, os.path.dirname(__file__))

import steady  # noqa: E402

WORKLOADS = [w["name"] for w in steady.load_spec()["workloads"]]
DIGEST = re.compile(r"sha256 of simulated outputs .*: ([0-9a-f]{64})")


def _digest(stdout: str) -> str:
    return DIGEST.search(stdout).group(1)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_back_to_back_runs_give_the_same_digest(workload):
    first, out1 = steady.run_once(workload, seed=7, seconds=0)
    second, out2 = steady.run_once(workload, seed=7, seconds=0)
    assert first["correct"] and second["correct"]
    assert first["failed"] == 0 and first["attempted"] > 0
    assert _digest(out1) == _digest(out2)
    spec = steady.load_spec()
    assert set(first["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(v["value"] > 0 for v in first["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    result, out = steady.run_once("sql-durable", seed=3, seconds=0, trace=1)
    spec = steady.load_spec()
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert "digest matches" in out


def test_fails_without_the_program():
    """In a directory holding only BENCHMARK.json and the benchmark, the
    command must fail without printing a result."""
    scratch = steady.ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=scratch)
    try:
        shutil.copy(steady.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(steady.ROOT / "perfbench", os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        spec = steady.load_spec()
        proc = subprocess.run(
            [sys.executable, *spec["command"][1:], "--workload", WORKLOADS[0], "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass


@pytest.mark.skipif(not os.environ.get("PERFBENCH_STEADY"), reason="set PERFBENCH_STEADY=1 (slow)")
@pytest.mark.parametrize("workload", WORKLOADS)
def test_steadiness(workload):
    """Two sets of runs agree on every end-to-end metric within its bound."""
    assert steady.check(workload, seeds=[1, 2, 3, 4, 5], sets=2)
