"""Oracle tests for the vectorised ``Coordinator.plan`` kernel.

``reference_plan`` is the per-page planner the kernel replaced: for each
node in ascending order it walks that node's pages in query order, reads
each page's records and runs one containment test per page.  The kernel
must reproduce every ``QueryPlan`` field exactly — request order, bucket
order inside each request, dtypes, and the key order of all four dicts —
on grid-file and R-tree stores, for resolved (``RoutedQuery.page_ids``)
and plain queries, with one or several disks per node.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.gridfile import GridFile, RangeQuery, bulk_load
from repro.parallel import GridFileStore, RTreeStore
from repro.parallel.coordinator import Coordinator, QueryPlan
from repro.parallel.message import BlockRequest
from repro.rtree import RTree
from repro.sim import square_queries
from repro.sql.plan import RoutedQuery


def reference_plan(coord: Coordinator, query_id: int, query) -> QueryPlan:
    """The per-page planning loop, kept as the oracle of the kernel."""
    page_ids = getattr(query, "page_ids", None)
    if page_ids is not None:
        bids = np.asarray(page_ids, dtype=np.int64)
    else:
        bids = coord.store.query_pages(query.lo, query.hi)
    disks = coord.assignment[bids]
    blocks_per_disk = np.bincount(disks, minlength=coord.n_disks)
    requests = []
    candidates: dict[int, int] = {}
    qualified: dict[int, int] = {}
    cand_bucket: dict[int, int] = {}
    qual_bucket: dict[int, int] = {}
    nodes = disks // coord.disks_per_node
    for node in np.unique(nodes):
        node_bids = bids[nodes == node]
        cand = 0
        qual = 0
        for b in node_bids:
            rec = coord.store.page_records(int(b))
            bq = 0
            if rec.size:
                pts = coord.store.record_coords(rec)
                bq = int(np.all((pts >= query.lo) & (pts <= query.hi), axis=1).sum())
            cand_bucket[int(b)] = rec.size
            qual_bucket[int(b)] = bq
            cand += rec.size
            qual += bq
        requests.append(
            BlockRequest(query_id, int(node), node_bids, candidates=cand, qualified=qual)
        )
        candidates[int(node)] = cand
        qualified[int(node)] = qual
    return QueryPlan(
        query_id=query_id,
        requests=requests,
        blocks_per_disk=blocks_per_disk,
        candidates_per_node=candidates,
        qualified_per_node=qualified,
        candidates_per_bucket=cand_bucket,
        qualified_per_bucket=qual_bucket,
    )


def assert_plans_equal(got: QueryPlan, want: QueryPlan) -> None:
    """Field-by-field equality, dtypes and dict key order included."""
    assert got.query_id == want.query_id
    assert got.blocks_per_disk.dtype == want.blocks_per_disk.dtype
    assert np.array_equal(got.blocks_per_disk, want.blocks_per_disk)
    for name in (
        "candidates_per_node",
        "qualified_per_node",
        "candidates_per_bucket",
        "qualified_per_bucket",
    ):
        g, w = getattr(got, name), getattr(want, name)
        assert list(g.items()) == list(w.items()), name
        assert all(type(k) is int and type(v) is int for k, v in g.items()), name
    assert len(got.requests) == len(want.requests)
    for g, w in zip(got.requests, want.requests):
        assert (g.query_id, g.node_id, g.candidates, g.qualified, g.attempt) == (
            w.query_id,
            w.node_id,
            w.candidates,
            w.qualified,
            w.attempt,
        )
        assert type(g.node_id) is int
        assert type(g.candidates) is int and type(g.qualified) is int
        assert g.bucket_ids.dtype == w.bucket_ids.dtype
        assert np.array_equal(g.bucket_ids, w.bucket_ids)
        assert g.target_disks is None and w.target_disks is None
    assert got.total_qualified == want.total_qualified
    assert got.response_by_definition == want.response_by_definition


def check_queries(coord: Coordinator, queries) -> None:
    for qid, q in enumerate(queries):
        assert_plans_equal(coord.plan(qid, q), reference_plan(coord, qid, q))


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(13)
    return np.concatenate(
        [rng.uniform(0, 1, (1200, 2)), np.clip(rng.normal(0.3, 0.05, (1200, 2)), 0, 1)]
    )


@pytest.fixture(scope="module")
def queries():
    qs = square_queries(60, 0.04, [0, 0], [1, 1], rng=np.random.default_rng(2))
    return qs + [RangeQuery([0.0, 0.0], [1.0, 1.0]), RangeQuery([0.5, 0.5], [0.5, 0.5])]


def _assignment(n_pages: int, n_disks: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, n_disks, n_pages)


class TestGridFileStore:
    @pytest.mark.parametrize("disks_per_node", [1, 2, 4])
    def test_matches_reference(self, data, queries, disks_per_node):
        gf = bulk_load(data, [0, 0], [1, 1], capacity=25)
        coord = Coordinator(
            GridFileStore(gf), _assignment(gf.n_buckets, 8, 1), 8, disks_per_node
        )
        check_queries(coord, queries)
        # Second pass reads the filled coordinate caches.
        check_queries(coord, queries)

    def test_dynamic_file_after_writes(self, data, queries):
        gf = GridFile.from_points(data[:800], [0, 0], [1, 1], capacity=12)
        coord = Coordinator(gf, _assignment(gf.n_buckets, 6, 3), 6, 2)
        check_queries(coord, queries)  # fill every touched cache
        for p in data[800:1400]:
            gf.insert_point(p)
        for rid in range(0, 1400, 2):
            gf.delete_record(rid)
        gf.check_invariants()  # includes cache coherence
        coord.assignment = _assignment(gf.n_buckets, 6, 4)
        check_queries(coord, queries)

    def test_empty_results(self, queries):
        gf = GridFile.empty([0, 0], [1, 1], capacity=8)
        coord = Coordinator(gf, np.zeros(gf.n_buckets, dtype=np.int64), 4)
        for qid, q in enumerate(queries[:3]):
            plan = coord.plan(qid, q)
            assert_plans_equal(plan, reference_plan(coord, qid, q))
            assert plan.requests == [] and plan.total_qualified == 0
            assert plan.blocks_per_disk.tolist() == [0, 0, 0, 0]


class TestRoutedQuery:
    def test_page_ids_honoured(self, data, queries):
        gf = bulk_load(data, [0, 0], [1, 1], capacity=25)
        coord = Coordinator(gf, _assignment(gf.n_buckets, 8, 5), 8, 2)
        rng = np.random.default_rng(6)
        routed = []
        for q in queries:
            pages = gf.query_buckets(q.lo, q.hi)
            keep = pages[rng.random(pages.size) < 0.6]
            routed.append(RoutedQuery(q.lo, q.hi, page_ids=tuple(keep.tolist())))
        check_queries(coord, routed)

    def test_empty_pages_and_empty_page_set(self, data, queries):
        gf = bulk_load(data, [0, 0], [1, 1], capacity=25)
        gf.merge_trigger = 0.0  # keep emptied buckets instead of merging them
        for b in (3, 10, 20):
            gf.delete_records(gf.records_in_bucket(b))
        coord = Coordinator(gf, _assignment(gf.n_buckets, 4, 7), 4)
        empty = np.flatnonzero(gf.bucket_sizes() == 0)
        full = gf.nonempty_bucket_ids()
        assert empty.tolist() == [3, 10, 20]
        # Empty pages first, last and between non-empty ones.
        pages = (int(empty[0]), int(full[0]), int(empty[-1]), int(full[1]), int(empty[0]))
        q = queries[-2]
        cases = [
            RoutedQuery(q.lo, q.hi, page_ids=pages),
            RoutedQuery(q.lo, q.hi, page_ids=tuple(empty.tolist())),
            RoutedQuery(q.lo, q.hi, page_ids=()),
        ]
        check_queries(coord, cases)
        assert coord.plan(0, cases[2]).requests == []


class TestRTreeStore:
    @pytest.mark.parametrize("disks_per_node", [1, 3])
    def test_matches_reference(self, data, queries, disks_per_node):
        store = RTreeStore(RTree.bulk_load(data, max_entries=20))
        coord = Coordinator(
            store, _assignment(store.n_pages, 6, 8), 6, disks_per_node
        )
        check_queries(coord, queries)
        check_queries(coord, queries)

    def test_page_coords_and_sizes(self, data):
        store = RTreeStore(RTree.bulk_load(data, max_entries=20))
        sizes = store.page_sizes()
        for p in range(store.n_pages):
            rec = store.page_records(p)
            coords = store.page_coords(p)
            assert np.array_equal(coords, data[rec])
            assert store.page_coords(p) is coords  # cached
            assert not coords.flags.writeable
            assert sizes[p] == rec.size


def test_gridfile_store_page_reads(data):
    gf = bulk_load(data, [0, 0], [1, 1], capacity=25)
    store = GridFileStore(gf)
    assert np.array_equal(store.page_sizes(), gf.bucket_sizes())
    for b in range(store.n_pages):
        coords = store.page_coords(b)
        assert np.array_equal(coords, gf.points[gf.records_in_bucket(b)])
        assert store.page_coords(b) is coords
        assert not coords.flags.writeable


def test_assigning_record_ids_drops_bucket_coords(data):
    gf = bulk_load(data, [0, 0], [1, 1], capacity=25)
    bucket = gf.buckets[0]
    gf.bucket_coords(0)
    bucket.record_ids = bucket.record_ids[:3]
    assert bucket.coords is None
    assert np.array_equal(gf.bucket_coords(0), data[bucket.record_ids])
