"""Wall-clock benchmark of the declustering system, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload cluster-closed --seed 1 --seconds 12 --trace 0

It generates the workload's inputs from ``--seed``, sets the system up
several times (``setup_s`` is the median), then runs measured rounds until
``--seconds`` have passed, checking every output against an independent
oracle.  It prints a human-readable report and, as its last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``;
with ``--trace 1`` a second, traced run of the same inputs follows and the
metrics are the per-layer ones.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _load_program():
    """Import the benchmark's modules, which import the program from
    ``<root>/src``; return None if the program is not there."""
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import spans
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return None
    return spans, workloads


def run_workload(cls, seed, seconds, sp, workdir, n_setups=None, max_rounds=None):
    """Set up, run rounds until ``seconds`` pass, run end-of-run checks.

    Of the ``n_setups`` (default ``cls.n_setups``) set-ups, the first half
    (rounded up) runs before the measured rounds, which use the last of
    them, and the rest after, so the ``setup_s`` median spans the run.
    At least ``cls.digest_rounds`` rounds always run; ``max_rounds`` caps
    the count (the traced run replays exactly the digest rounds).
    Returns the workload object and the measurements.
    """
    wl = cls(seed, workdir)
    n_setups = n_setups or cls.n_setups
    setups, rounds = [], []

    try:
        for _ in range((n_setups + 1) // 2):
            setups.append(wl.setup(sp))
        t_end = time.perf_counter() + seconds
        while len(rounds) < wl.digest_rounds or time.perf_counter() < t_end:
            if max_rounds is not None and len(rounds) >= max_rounds:
                break
            rounds.append(wl.run_round(len(rounds), sp))
        wl.finish(sp)
        # Peak memory of set-up plus measured phase; the extra set-ups
        # below overlap the old state with the new and would blur it.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for _ in range(n_setups // 2):
            setups.append(wl.setup(sp))
    finally:
        wl.close()
    rates = [ops / s for ops, s in rounds]
    return wl, {
        "setup_s": statistics.median(setups),
        "setups": setups,
        "peak_rss_mb": peak_rss_mb,
        "ops_per_s": statistics.median(rates),
        "rates": rates,
        "rounds": len(rounds),
        "ops": sum(ops for ops, _ in rounds),
        "measured_s": sum(s for _, s in rounds),
    }


def end_to_end(wl, m) -> dict:
    """The ``end_to_end`` metrics of BENCHMARK.json."""
    return {
        "setup_s": (m["setup_s"], "s"),
        "ops_per_s": (m["ops_per_s"], "1/s"),
        "peak_rss_mb": (m["peak_rss_mb"], "MB"),
        "sim_rq_blocks_mean": (wl.sim_rq_blocks_mean, "blocks"),
    }


#: Per-layer time metric -> the span (public call or program phase) it sums.
SPAN_SECONDS = {
    "datasets.load_s": "datasets.load",
    "gridfile.build_s": "gridfile.build",
    "core.assign_s": "core.assign",
    "core.minimax.weights_s": "minimax.weights",
    "core.minimax.partition_s": "minimax.partition",
    "core.sminimax.graph_s": "minimax.sparse.graph",
    "core.sminimax.coarse_s": "minimax.sparse.coarse",
    "core.sminimax.refine_s": "minimax.sparse.refine",
    "sim.resolve_s": "resolve_query_buckets",
    "sim.response_times_s": "response_times",
    "parallel.coordinator.plan_s": "cluster.plan",
    "parallel.engine.des_s": "cluster.run",
    "parallel.online.run_s": "online.run",
    "sql.parse_s": "sql.parse",
    "sql.plan_s": "sql.plan",
    "sql.exec_s": "sql.exec",
}

#: Per-layer counts a workload may report; zero on workloads that bypass
#: the layer.
LAYER_COUNTS = {
    "gridfile.buckets": "count",
    "parallel.coordinator.records_examined_per_returned": "ratio",
    "parallel.engine.requests_sent": "count",
    "parallel.engine.blocks_read": "count",
    "parallel.engine.cache_hit_rate": "ratio",
    "parallel.online.splits": "count",
    "parallel.online.cache_invalidations": "count",
    "storage.commits": "count",
    "storage.wal.fsyncs": "count",
    "storage.fsyncs_per_commit": "ratio",
    "storage.pages_written_per_commit": "ratio",
    "storage.wal_bytes_per_user_byte": "ratio",
    "sql.plan_pick.gridfile": "count",
    "sql.plan_pick.rtree": "count",
    "sql.plan_pick.scan": "count",
}


def per_layer(sp, wl, m_traced, m_untraced, minimax_cache) -> dict:
    """The ``per_layer`` metrics of BENCHMARK.json from the traced run."""
    out = {name: (sp.inclusive(prefix), "s") for name, prefix in SPAN_SECONDS.items()}
    # Time inside assign that no program phase covers.
    out["core.assign_unattributed_s"] = (sp.self_time("core.assign"), "s")
    for layer, seconds in sp.layer_self_times().items():
        if layer != "bench":
            out[f"{layer}.self_s"] = (seconds, "s")
    counts = wl.layer_counts()
    records = counts.get("gridfile.records", (0,))[0]
    assigned = counts.get("core.assign_buckets", (0,))[0]
    build, assign = out["gridfile.build_s"][0], out["core.assign_s"][0]
    out["gridfile.insert_us_per_record"] = (build / records * 1e6 if records else 0.0, "us")
    out["core.assign_buckets_per_s"] = (assigned / assign if assign else 0.0, "1/s")
    out["core.minimax.cache_hits"] = (minimax_cache["hits"], "count")
    out["core.minimax.cache_misses"] = (minimax_cache["misses"], "count")
    for name, unit in LAYER_COUNTS.items():
        out[name] = counts.get(name, (0, unit))
    # Timed time outside every public call: the harness's own share.
    timed = sp.inclusive("bench.timed")
    unattributed = sp.self_time("bench.timed")
    out["unattributed_s"] = (unattributed, "s")
    out["unattributed_frac"] = (unattributed / timed if timed else 0.0, "ratio")
    out["trace.spans"] = (len(sp.records), "count")
    out["trace.ops_per_s"] = (m_traced["ops_per_s"], "1/s")
    # Against the same rounds untraced: later rounds can differ in cost.
    same_rounds = statistics.median(m_untraced["rates"][: m_traced["rounds"]])
    out["trace.overhead_frac"] = (1.0 - m_traced["ops_per_s"] / same_rounds, "ratio")
    return out


def _why(workload: str) -> str:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return next(w["why"] for w in spec["workloads"] if w["name"] == workload)


def _print_block(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<52} {shown} {unit}".rstrip())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    loaded = _load_program()
    if loaded is None:
        return 2
    spans_mod, workloads = loaded
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.workload]

    scratch = Path.cwd() / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        off = spans_mod.Spans(enabled=False)
        wl, m = run_workload(cls, args.seed, args.seconds, off, workdir)
        e2e = end_to_end(wl, m)
        attempted, failed = wl.attempted, wl.failed
        digest = wl.digest
        print(f"workload {cls.name} seed {args.seed} seconds {args.seconds:g}: {_why(cls.name)}")
        print(f"  sha256 of simulated outputs (first {cls.digest_rounds} round(s)): {digest}")
        print(f"  set-ups (s): {', '.join(f'{s:.4f}' for s in m['setups'])}; "
              f"rounds {m['rounds']}, ops {m['ops']}, measured {m['measured_s']:.3f} s")
        _print_block("end-to-end", e2e)
        _print_block("workload detail", wl.report())
        print(f"  failed_frac {failed / attempted:.6g} ({failed} of {attempted} checked operations)")
        metrics = e2e
        if args.trace:
            traced = spans_mod.Spans(enabled=True)
            before = workloads.GLOBAL_METRICS.snapshot()
            with spans_mod.capture_phases(traced):
                twl, tm = run_workload(cls, args.seed, 0.0, traced, workdir,
                                       n_setups=1, max_rounds=cls.digest_rounds)
            after = workloads.GLOBAL_METRICS.snapshot()
            cache = {k: workloads.counter_delta(before, after, f"minimax.cache.{k}")
                     for k in ("hits", "misses")}
            spans_path = scratch / f"spans-{cls.name}-seed{args.seed}.jsonl"
            traced.write_jsonl(spans_path)
            digest_same = twl.digest == digest
            sim_same = all(v == twl.report()[k] for k, v in wl.report().items() if k.startswith("sim_"))
            print(f"  traced replay of {tm['rounds']} round(s): digest "
                  f"{'matches' if digest_same else 'DIFFERS'}, sim_* metrics "
                  f"{'identical' if sim_same else 'DIFFER'}, failed {twl.failed}; "
                  f"{len(traced.records)} spans in {spans_path}")
            # One more check: the replay reproduces the untraced run.
            attempted += twl.attempted + 1
            failed += twl.failed + (not (digest_same and sim_same))
            metrics = per_layer(traced, twl, tm, m, cache)
            _print_block("per-layer (traced run)", metrics)
        result = {
            "correct": failed == 0,
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {name: {"value": float(v), "unit": u} for name, (v, u) in metrics.items()},
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()  # kept when it holds a spans file
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
