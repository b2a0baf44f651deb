"""Steadiness check: run the benchmark on several seeds and compare spreads
with the bounds in BENCHMARK.json.

Run from the repository root::

    python3 perfbench/steady.py --workload sql-durable --seeds 10
    python3 perfbench/steady.py --workload cluster-closed --seeds 5 --sets 2

Each run is a fresh ``run.py`` process with its own seed.  For every
end-to-end metric it prints the median, the quartiles (``statistics.
quantiles(values, n=4)``) and the spread ``(Q3 - Q1) / median``.  A
metric passes when its spread is within its bound (``setup_s`` is
exempt); the target is a third of the bound.  With ``--sets 2`` the seeds
run twice and the second set's median must not be worse than the first's
by more than the bound.  Exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_once(workload: str, seed: int, seconds: float, trace: int = 0) -> tuple:
    """One benchmark process; returns ``(result JSON, stdout text)``."""
    spec = load_spec()
    cmd = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def spread(values: list) -> tuple:
    """``(median, q1, q3, (q3 - q1) / median)``."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if better == "lower" else -change


def check(workload: str, seeds: list, sets: int) -> bool:
    """Run ``sets`` sets of ``seeds`` at ``run_seconds``; True if all hold."""
    spec = load_spec()
    seconds = spec["run_seconds"]
    medians = []
    ok = True
    for s in range(sets):
        values: dict = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in seeds:
            t0 = time.perf_counter()
            result, _ = run_once(workload, seed, seconds)
            wall = time.perf_counter() - t0
            if not result["correct"] or result["failed"]:
                print(f"seed {seed}: incorrect result {result}")
                ok = False
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"set {s} seed {seed} ({wall:.1f} s wall): " + ", ".join(
                f"{k}={v[-1]:.6g}" for k, v in values.items()), flush=True)
        set_medians = {}
        for m in spec["end_to_end"]:
            med, q1, q3, sp = spread(values[m["name"]])
            set_medians[m["name"]] = med
            exempt = m["name"] == "setup_s"
            verdict = "exempt" if exempt else (
                "ok" if sp <= m["bound"] / 3 else "within bound" if sp <= m["bound"] else "TOO WIDE")
            if not exempt and sp > m["bound"]:
                ok = False
            print(f"set {s} {workload:<16} {m['name']:<20} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {sp:.4f} bound {m['bound']} -> {verdict}")
        medians.append(set_medians)
    for m in spec["end_to_end"]:
        for s in range(1, sets):
            w = worse_by(medians[0][m["name"]], medians[s][m["name"]], m["better"])
            verdict = "ok" if w <= m["bound"] else "WORSE"
            if w > m["bound"]:
                ok = False
            print(f"set {s} vs 0 {workload:<16} {m['name']:<20} worse by {w:+.4f} "
                  f"bound {m['bound']} -> {verdict}")
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, default=10, help="run seeds 1..N")
    ap.add_argument("--sets", type=int, default=1)
    args = ap.parse_args(argv)
    seeds = list(range(1, args.seeds + 1))
    return 0 if check(args.workload, seeds, args.sets) else 1


if __name__ == "__main__":
    sys.exit(main())
