"""The benchmark's three workloads.

Each workload generates its inputs from the seed in ``__init__`` (before
any timing), then offers:

* ``setup(sp) -> seconds`` — build the system under test from scratch and
  return the host seconds it took; the harness calls it several times and
  keeps the last build for the measured phase;
* ``run_round(i, sp) -> (ops, seconds)`` — one measured round; only the
  program's calls are timed, the correctness checks run outside the timed
  region and add to ``attempted`` / ``failed``;
* ``finish(sp)`` — end-of-run checks (durability, for ``sql-durable``);
* ``digest`` — sha256 over the deterministic simulated outputs of the
  first ``digest_rounds`` rounds;
* ``report()`` — workload-specific figures printed beside the metrics;
* ``layer_counts()`` — the per-layer counts of the run.

``sp`` is a :class:`spans.Spans` recorder (disabled outside the traced run);
every public call into the program sits in a span named after it.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import tempfile
import time

import numpy as np

from repro.core import make_method
from repro.datasets import build_gridfile, load
from repro.obs import GLOBAL_METRICS
from repro.parallel import ClusterParams, ParallelGridFile
from repro.sim import evaluate_queries, resolve_query_buckets, response_times, square_queries
from repro.sql import NaiveDatabase, SqlEngine
from repro.storage import DurableGridFile

__all__ = ["WORKLOADS", "ClusterClosed", "SqlDurable", "DeclusterScale"]


#: Seed of the datasets themselves.  They stay fixed, like the paper's
#: files, so the workload seed varies only the queries, statements and
#: declustering seeds, and run-to-run spread reflects the host, not the data.
DATASET_SEED = 1996


def _rng(seed: int, stream: int) -> np.random.Generator:
    """Independent generator ``stream`` of workload seed ``seed``."""
    return np.random.default_rng([seed, stream])


def _counts_per_disk(bls, assignment: np.ndarray, n_disks: int) -> np.ndarray:
    """``(queries, disks)`` bucket counts N_i(q), counted independently of
    the program's kernels."""
    nq = len(bls)
    seg = np.repeat(np.arange(nq, dtype=np.int64), bls.counts)
    key = seg * n_disks + assignment[bls.ids]
    return np.bincount(key, minlength=nq * n_disks).reshape(nq, n_disks)


def _brute_counts(points: np.ndarray, queries) -> np.ndarray:
    """Points inside each closed query box, by brute force."""
    order = np.argsort(points[:, 0], kind="stable")
    pts = points[order]
    xs = pts[:, 0]
    out = np.empty(len(queries), dtype=np.int64)
    for i, q in enumerate(queries):
        s, e = np.searchsorted(xs, q.lo[0], "left"), np.searchsorted(xs, q.hi[0], "right")
        cand = pts[s:e]
        out[i] = int(np.all((cand >= q.lo) & (cand <= q.hi), axis=1).sum())
    return out


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else float("nan")


def _counter(snapshot: dict, name: str) -> int:
    return int(snapshot.get("counters", {}).get(name, 0))


def counter_delta(before: dict, after: dict, name: str) -> int:
    """Growth of counter ``name`` between two registry snapshots."""
    return _counter(after, name) - _counter(before, name)


class _Workload:
    name = ""
    #: Rounds hashed into the digest; the traced run replays exactly these.
    digest_rounds = 1
    #: Set-ups per measured run; ``setup_s`` is their median.
    n_setups = 3

    def __init__(self, seed: int, workdir: str):
        self.seed = int(seed)
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self._sha = hashlib.sha256()

    @property
    def digest(self) -> str:
        return self._sha.hexdigest()

    def _hash(self, round_no: int, *arrays) -> None:
        if round_no < self.digest_rounds:
            for a in arrays:
                self._sha.update(np.ascontiguousarray(a).tobytes())

    def _check(self, n_attempted: int, n_failed: int) -> None:
        self.attempted += int(n_attempted)
        self.failed += int(n_failed)

    def finish(self, sp) -> None:
        """End-of-run checks (none by default)."""

    def close(self) -> None:
        """Release what the last set-up holds (nothing by default)."""


class ClusterClosed(_Workload):
    """stock.3d, minimax over 16 disks, square queries in a closed loop."""

    name = "cluster-closed"
    DATASET = "stock.3d"
    METHOD = "minimax"
    DISKS = 16
    N_QUERIES = 2000
    #: Queries per ``run_queries`` call; round ``i`` runs batch ``i % 4``.
    #: Short rounds give the per-run median enough samples to be steady.
    BATCH = 500
    RATIO = 0.05
    n_setups = 7
    digest_rounds = N_QUERIES // BATCH

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        domain = load(self.DATASET, rng=DATASET_SEED)
        self.queries = square_queries(
            self.N_QUERIES, self.RATIO, domain.domain_lo, domain.domain_hi, rng=_rng(self.seed, 1)
        )
        self.expected_records = _brute_counts(domain.points, self.queries)
        self.latencies: dict = {}  # batch -> PerfReport.latencies of its first run
        self.reports: list = []  # first run of each batch
        self.examined = 0  # candidate records scanned by those runs' plans
        self.plans: list = []

    def setup(self, sp) -> float:
        with sp.span("bench.timed", group="setup"):
            t0 = time.perf_counter()
            with sp.span("datasets.load"):
                ds = load(self.DATASET, rng=DATASET_SEED)
            with sp.span("gridfile.build"):
                gf = build_gridfile(ds)
            with sp.span("core.assign"):
                assignment = make_method(self.METHOD).assign(gf, self.DISKS, rng=self.seed)
            with sp.span("parallel.deploy"):
                pgf = ParallelGridFile(gf, assignment, self.DISKS, ClusterParams())
            seconds = time.perf_counter() - t0
        self.gf, self.assignment, self.pgf = gf, assignment, pgf
        # Record the plans the run itself makes (the coordinator's public
        # ``plan``), so each query's per-disk block counts can be checked.
        plan = pgf.coordinator.plan

        def recording_plan(qid, query):
            p = plan(qid, query)
            self.plans.append(p)
            return p

        pgf.coordinator.plan = recording_plan
        with sp.paused():
            bls = resolve_query_buckets(gf, self.queries)
            self.rq = response_times(bls, assignment, self.DISKS)
            self.expected_blocks = _counts_per_disk(bls, assignment, self.DISKS)
        return seconds

    def run_round(self, i: int, sp) -> tuple:
        b = i % self.digest_rounds
        batch = slice(b * self.BATCH, (b + 1) * self.BATCH)
        self.plans.clear()
        with sp.span("bench.timed", group=f"batch{i}"):
            t0 = time.perf_counter()
            with sp.span("parallel.run_queries"):
                rep = self.pgf.run_queries(self.queries[batch])
            seconds = time.perf_counter() - t0
        with sp.paused():
            self._check_round(i, b, batch, rep)
        return self.BATCH, seconds

    def _check_round(self, i: int, b: int, batch: slice, rep) -> None:
        bad = np.zeros(self.BATCH, dtype=bool)
        rq, records = self.rq[batch], self.expected_records[batch]
        if len(self.plans) != self.BATCH:
            bad[:] = True
        else:
            blocks = np.stack([p.blocks_per_disk for p in self.plans])
            qualified = np.array([p.total_qualified for p in self.plans])
            bad |= (blocks != self.expected_blocks[batch]).any(axis=1)
            bad |= blocks.max(axis=1) != rq
            bad |= qualified != records
        if rep.records_returned != int(records.sum()) or rep.blocks_fetched != int(rq.sum()):
            bad[:] = True
        if b not in self.latencies:
            self.latencies[b] = rep.latencies.copy()
            self.reports.append(rep)
            self.examined += sum(sum(p.candidates_per_node.values()) for p in self.plans)
        elif not np.array_equal(rep.latencies, self.latencies[b]):
            bad[:] = True  # a repeated batch must replay bit for bit
        self._check(self.BATCH, bad.sum())
        self._hash(i, self.assignment, rep.latencies, np.int64([rep.blocks_fetched, rep.records_returned]))

    @property
    def sim_rq_blocks_mean(self) -> float:
        return float(self.rq.mean())

    def report(self) -> dict:
        lat = np.concatenate([self.latencies[b] for b in sorted(self.latencies)]) * 1e3
        return {
            "sim_latency_ms_p50": (_pct(lat, 50), "ms"),
            "sim_latency_ms_p99": (_pct(lat, 99), "ms"),
            "sim_rq_blocks_mean": (self.sim_rq_blocks_mean, "blocks"),
            "queries": (self.N_QUERIES, "count"),
            "queries_per_call": (self.BATCH, "count"),
            "buckets": (self.gf.n_buckets, "count"),
        }

    def layer_counts(self) -> dict:
        reps = self.reports

        def total(counter):
            return sum(r.metrics["counters"].get(counter, 0) for r in reps)

        returned = sum(r.records_returned for r in reps)
        hits, misses = total("cache.hits"), total("cache.misses")
        return {
            "gridfile.buckets": (self.gf.n_buckets, "count"),
            "gridfile.records": (self.gf.n_records, "count"),
            "core.assign_buckets": (self.gf.n_buckets, "count"),
            "parallel.coordinator.records_examined_per_returned": (self.examined / max(returned, 1), "ratio"),
            "parallel.engine.requests_sent": (total("requests.sent"), "count"),
            "parallel.engine.blocks_read": (total("blocks.read"), "count"),
            "parallel.engine.cache_hit_rate": (hits / max(hits + misses, 1), "ratio"),
        }


class DeclusterScale(_Workload):
    """hot.2d grown by dynamic insertion, declustered with sminimax at three
    disk counts and evaluated analytically."""

    name = "decluster-scale"
    DATASET = "hot.2d"
    N_RECORDS = 20_000
    CAPACITY = 4
    METHOD = "sminimax"
    #: Round ``i`` declusters at ``DISKS[i % 3]`` disks.
    DISKS = (8, 16, 32)
    N_QUERIES = 2000
    RATIO = 0.01
    digest_rounds = len(DISKS)

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        domain = load(self.DATASET, rng=DATASET_SEED, n=self.N_RECORDS)
        self.queries = square_queries(
            self.N_QUERIES, self.RATIO, domain.domain_lo, domain.domain_hi, rng=_rng(self.seed, 1)
        )
        self.assignments0: dict = {}
        self.rq_means: dict = {}
        self.ratio_means: dict = {}

    def setup(self, sp) -> float:
        with sp.span("bench.timed", group="setup"):
            t0 = time.perf_counter()
            with sp.span("datasets.load"):
                ds = load(self.DATASET, rng=DATASET_SEED, n=self.N_RECORDS)
            with sp.span("gridfile.build"):
                gf = build_gridfile(ds, capacity=self.CAPACITY)
            seconds = time.perf_counter() - t0
        self.gf = gf
        self.nonempty = gf.nonempty_bucket_ids()
        return seconds

    def run_round(self, i: int, sp) -> tuple:
        m = self.DISKS[i % len(self.DISKS)]
        with sp.span("bench.timed", group=f"round{i}.m{m}"):
            t0 = time.perf_counter()
            with sp.span("sim.resolve"):
                bls = resolve_query_buckets(self.gf, self.queries)
            with sp.span("core.assign"):
                a = make_method(self.METHOD).assign(self.gf, m, rng=self.seed)
            with sp.span("sim.evaluate"):
                ev = evaluate_queries(self.gf, a, None, m, bucket_lists=bls)
            seconds = time.perf_counter() - t0
        with sp.paused():
            self._check_assignment(i, m, a, ev, bls)
        return self.gf.n_buckets, seconds

    def _check_assignment(self, i: int, m: int, a: np.ndarray, ev, bls) -> None:
        n = self.nonempty.size
        load_per_disk = np.bincount(a[self.nonempty], minlength=m)
        cap = -(-n // m) + 1  # sminimax's ⌈N/M⌉ + balance_slack(1) cap
        cap_ok = a.shape == (self.gf.n_buckets,) and load_per_disk.max() <= cap
        independent = _counts_per_disk(bls, a, m).max(axis=1)
        bad_q = (ev.response < ev.optimal) | (ev.response != independent)
        if m not in self.assignments0:
            self.assignments0[m] = a.copy()
            self.rq_means[m] = ev.mean_response
            self.ratio_means[m] = ev.mean_response / ev.mean_optimal
        elif not np.array_equal(a, self.assignments0[m]):
            cap_ok = False  # the same seed must give the same assignment
        self._check(1 + self.N_QUERIES, (not cap_ok) + int(bad_q.sum()))
        self._hash(i, a, ev.response)

    @property
    def sim_rq_blocks_mean(self) -> float:
        return float(np.mean(list(self.rq_means.values())))

    def report(self) -> dict:
        out = {
            "sim_rq_blocks_mean": (self.sim_rq_blocks_mean, "blocks"),
            "sim_rq_ratio": (float(np.mean(list(self.ratio_means.values()))), "ratio"),
            "buckets": (self.gf.n_buckets, "count"),
            "records": (self.gf.n_records, "count"),
        }
        for m in self.DISKS:
            out[f"sim_rq_blocks_mean.m{m}"] = (self.rq_means[m], "blocks")
            out[f"sim_rq_ratio.m{m}"] = (self.ratio_means[m], "ratio")
        return out

    def layer_counts(self) -> dict:
        return {
            "gridfile.buckets": (self.gf.n_buckets, "count"),
            "gridfile.records": (self.gf.n_records, "count"),
            "core.assign_buckets": (self.gf.n_buckets * len(self.DISKS), "count"),
        }


class SqlDurable(_Workload):
    """A WAL-backed SQL table under a closed loop of mixed statements."""

    name = "sql-durable"
    DISKS = 8
    DOMAIN = 1000.0
    BULK_ROWS = 1500
    ROUND = 50  # statements per round
    SELECT_SIDE = 50.0
    DELETE_SIDE = 20.0
    WAL_SYNC = "commit"
    TABLE = "pts"
    digest_rounds = 8

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        rows = _rng(self.seed, 0).uniform(0.0, self.DOMAIN, size=(self.BULK_ROWS, 2))
        self.create_sql = (
            f"CREATE TABLE {self.TABLE} (x REAL(0, {self.DOMAIN:g}), y REAL(0, {self.DOMAIN:g})) "
            "USING GRIDFILE, RTREE CAPACITY 8;"
        )
        self.bulk_sql = f"INSERT INTO {self.TABLE} VALUES " + ", ".join(
            f"({x:.3f}, {y:.3f})" for x, y in rows
        ) + ";"
        self._stream = _rng(self.seed, 1)
        self.n_statements = 0
        self.latency = {"select": [], "write": []}
        self.sim_latency: list = []
        self.sim_blocks: list = []
        self.engine = None
        self.store_dir = None
        self.rows_inserted = 0
        self.rows_deleted = 0
        self.storage_counts = {"storage.commits": 0, "storage.pages_written": 0}
        self.online_counts = {"parallel.online.splits": 0, "parallel.online.cache_invalidations": 0}

    # ----------------------------------------------------------- inputs
    def _next_statement(self) -> tuple:
        """The next statement of the closed loop: 60% SELECT, 25% INSERT,
        15% DELETE, each a small box or a single row."""
        r = self._stream
        u = r.random()
        t = self.TABLE
        if u < 0.60:
            x, y = r.uniform(0.0, self.DOMAIN - self.SELECT_SIDE, 2)
            s = self.SELECT_SIDE
            return "select", (f"SELECT * FROM {t} WHERE x BETWEEN {x:.3f} AND {x + s:.3f} "
                              f"AND y BETWEEN {y:.3f} AND {y + s:.3f};")
        if u < 0.85:
            x, y = r.uniform(0.0, self.DOMAIN, 2)
            return "insert", f"INSERT INTO {t} VALUES ({x:.3f}, {y:.3f});"
        x, y = r.uniform(0.0, self.DOMAIN - self.DELETE_SIDE, 2)
        s = self.DELETE_SIDE
        return "delete", (f"DELETE FROM {t} WHERE x BETWEEN {x:.3f} AND {x + s:.3f} "
                          f"AND y BETWEEN {y:.3f} AND {y + s:.3f};")

    # ----------------------------------------------------------- set-up
    def setup(self, sp) -> float:
        self.close()
        self.store_dir = tempfile.mkdtemp(prefix="store-", dir=self.workdir)
        with sp.span("bench.timed", group="setup"):
            t0 = time.perf_counter()
            with sp.span("sql.engine"):
                engine = SqlEngine(
                    n_disks=self.DISKS,
                    store_backend="file",
                    store_path=self.store_dir,
                    wal_sync=self.WAL_SYNC,
                    seed=self.seed,
                )
            with sp.span("sql.execute"):
                engine.execute_script(self.create_sql)
            with sp.span("sql.execute"):
                bulk = engine.execute_script(self.bulk_sql)[0]
            seconds = time.perf_counter() - t0
        self.engine = engine
        with sp.paused():
            self.oracle = NaiveDatabase()
            self.oracle.execute_script(self.create_sql)
            ref = self.oracle.execute_script(self.bulk_sql)[0]
            ok = np.array_equal(bulk.record_ids, np.asarray(ref.record_ids, dtype=np.int64))
        self._check(1, not ok)
        return seconds

    def close(self) -> None:
        if self.engine is not None:
            for table in self.engine.tables.values():
                table.store.close()
            self.engine = None
        if self.store_dir is not None:
            shutil.rmtree(self.store_dir, ignore_errors=True)
            self.store_dir = None

    # ----------------------------------------------------------- measured
    def run_round(self, i: int, sp) -> tuple:
        if i == 0:
            self._wal0 = GLOBAL_METRICS.snapshot()
            self._picks0 = self.engine.metrics.snapshot()
        seconds = 0.0
        for _ in range(self.ROUND):
            kind, text = self._next_statement()
            n = self.n_statements
            self.n_statements += 1
            with sp.span("bench.timed", group=f"stmt{n}"):
                t0 = time.perf_counter()
                with sp.span("sql.execute"):
                    res = self.engine.execute_script(text)[0]
                dt = time.perf_counter() - t0
            seconds += dt
            with sp.paused():
                ref = self.oracle.execute_script(text)[0]
                ok = np.array_equal(
                    np.sort(res.record_ids), np.asarray(sorted(ref.record_ids), dtype=np.int64)
                )
                self._check(1, not ok)
                self._hash(i, np.int64([n]), res.record_ids)
                self._account(i, kind, res, dt)
        return self.ROUND, seconds

    def _account(self, i: int, kind: str, res, dt: float) -> None:
        self.latency["select" if kind == "select" else "write"].append(dt)
        if kind == "select":
            if i < self.digest_rounds:
                self.sim_latency.append(float(res.perf.latencies[0]))
                self.sim_blocks.append(int(res.perf.blocks_fetched))
            return
        if kind == "insert":
            self.rows_inserted += res.rowcount
        else:
            self.rows_deleted += res.rowcount
        if res.online is not None:
            snap = res.online.perf.metrics
            for name in self.storage_counts:
                self.storage_counts[name] += _counter(snap, name)
            self.online_counts["parallel.online.splits"] += res.online.n_splits
            self.online_counts["parallel.online.cache_invalidations"] += res.online.cache_invalidations

    def finish(self, sp) -> None:
        """Durability: reopen the table's store from disk and require every
        acknowledged write to be there."""
        self._wal1 = GLOBAL_METRICS.snapshot()
        self._picks1 = self.engine.metrics.snapshot()
        table = self.engine.tables[self.TABLE]
        path = os.path.join(self.store_dir, f"{self.TABLE}.gfdb")
        with sp.paused():
            expected = self.oracle.execute_script(f"SELECT * FROM {self.TABLE};")[0].record_ids
        with sp.span("storage.close"):
            table.store.close()
        with sp.span("storage.open"):
            durable = DurableGridFile.open(path)
        try:
            live = durable.gf.live_record_ids()
            self.durable_rows = int(live.size)
            ok = np.array_equal(np.sort(live), np.asarray(sorted(expected), dtype=np.int64))
        finally:
            with sp.span("storage.close"):
                durable.close()
        self.engine.tables.clear()
        self._check(1, not ok)
        self.durable_ok = ok

    # ----------------------------------------------------------- reports
    @property
    def sim_rq_blocks_mean(self) -> float:
        return float(np.mean(self.sim_blocks))

    def report(self) -> dict:
        sel = np.array(self.latency["select"]) * 1e3
        wr = np.array(self.latency["write"]) * 1e3
        sim = np.array(self.sim_latency) * 1e3
        return {
            "select_ms_p50": (_pct(sel, 50), "ms"),
            "select_ms_p95": (_pct(sel, 95), "ms"),
            "select_samples": (sel.size, "count"),
            "write_ms_p50": (_pct(wr, 50), "ms"),
            "write_ms_p95": (_pct(wr, 95), "ms"),
            "write_samples": (wr.size, "count"),
            "sim_latency_ms_p50": (_pct(sim, 50), "ms"),
            "sim_latency_ms_p99": (_pct(sim, 99), "ms"),
            "sim_rq_blocks_mean": (self.sim_rq_blocks_mean, "blocks"),
            "durable_rows_after_reopen": (getattr(self, "durable_rows", -1), "count"),
            "flush_policy": (f"wal_sync={self.WAL_SYNC} (fsync per commit)", ""),
            "store_filesystem": (_filesystem_of(self.workdir), ""),
        }

    def layer_counts(self) -> dict:
        commits = self.storage_counts["storage.commits"]
        fsyncs = counter_delta(self._wal0, self._wal1, "storage.wal.fsyncs")
        wal_bytes = counter_delta(self._wal0, self._wal1, "storage.wal.bytes")
        user_bytes = self.rows_inserted * 2 * 8 + self.rows_deleted * 8
        out = {
            "storage.commits": (commits, "count"),
            "storage.wal.fsyncs": (fsyncs, "count"),
            "storage.fsyncs_per_commit": (fsyncs / commits if commits else 0.0, "ratio"),
            "storage.pages_written_per_commit": (
                self.storage_counts["storage.pages_written"] / commits if commits else 0.0, "ratio"),
            "storage.wal_bytes_per_user_byte": (wal_bytes / user_bytes if user_bytes else 0.0, "ratio"),
        }
        for name, value in self.online_counts.items():
            out[name] = (value, "count")
        for path in ("gridfile", "rtree", "scan"):
            out[f"sql.plan_pick.{path}"] = (
                counter_delta(self._picks0, self._picks1, f"sql.plan.pick.{path}"), "count")
        return out


def _filesystem_of(path: str) -> str:
    """Filesystem type of the mount holding ``path`` ("unknown" if unreadable)."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mounts", encoding="utf-8") as fh:
            for line in fh:
                fields = line.split()
                if len(fields) > 2 and (path == fields[1] or path.startswith(fields[1].rstrip("/") + "/")):
                    if len(fields[1]) > len(best):
                        best, fstype = fields[1], fields[2]
    except OSError:
        pass
    return fstype


#: Workload name -> class, in report order.
WORKLOADS = {w.name: w for w in (ClusterClosed, SqlDurable, DeclusterScale)}
