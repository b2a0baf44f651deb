"""Tests for worker nodes and the coordinator's query planning."""

import numpy as np
import pytest

from repro.core import Minimax
from repro.gridfile import RangeQuery
from repro.parallel import ClusterParams, ParallelGridFile
from repro.parallel.coordinator import Coordinator
from repro.parallel.disk import DiskModel
from repro.parallel.message import BlockRequest
from repro.parallel.node import WorkerNode


def serve(node, arrival, request, disk_of_bucket, candidates, qualified):
    """One block request through the stages :class:`WorkerStage` runs on a
    node under the FIFO discipline: cache probe, parallel per-disk reads,
    then the filter pass.  Returns ``(ready_time, reply)``."""
    misses_per_disk, n_misses = node.probe_cache(request, disk_of_bucket)
    disk_done = arrival
    for d, n_blocks in misses_per_disk.items():
        service, _ = node.disk_service(d, n_blocks)
        _, end = node.disks[d].reserve(arrival, service)
        disk_done = max(disk_done, end)
    return node.finish_request(disk_done, request, candidates, qualified, n_misses)


class TestWorkerNode:
    def make_node(self, cache_blocks=8, disks=1):
        return WorkerNode.create(0, DiskModel(), cache_blocks, disks_per_node=disks)

    def test_serve_counts(self):
        node = self.make_node()
        req = BlockRequest(0, 0, np.array([1, 2, 3]))
        ready, reply = serve(node, 0.0, req, lambda b: 0, candidates=100, qualified=10)
        assert reply.n_blocks == 3
        assert reply.n_cache_misses == 3
        assert reply.n_candidates == 100
        assert reply.n_qualified == 10
        assert ready > 0.0

    def test_cache_hits_skip_disk(self):
        node = self.make_node()
        req = BlockRequest(0, 0, np.array([1, 2]))
        t1, _ = serve(node, 0.0, req, lambda b: 0, 10, 1)
        busy_after_first = node.disks[0].busy_time
        misses, n_misses = node.probe_cache(BlockRequest(1, 0, np.array([1, 2])), lambda b: 0)
        assert (misses, n_misses) == ({}, 0)  # no disk job to submit
        t2, reply = serve(node, t1, BlockRequest(2, 0, np.array([1, 2])), lambda b: 0, 10, 1)
        assert reply.n_cache_misses == 0
        assert node.disks[0].busy_time == busy_after_first  # no new disk work

    def test_multiple_disks_parallel(self):
        """Blocks split over two disks finish earlier than on one disk."""
        one = self.make_node(cache_blocks=0, disks=1)
        two = self.make_node(cache_blocks=0, disks=2)
        split, _ = two.probe_cache(BlockRequest(0, 0, np.arange(8)), lambda b: b % 2)
        assert split == {0: 4, 1: 4}
        t_one, _ = serve(one, 0.0, BlockRequest(0, 0, np.arange(8)), lambda b: 0, 0, 0)
        t_two, _ = serve(two, 0.0, BlockRequest(0, 0, np.arange(8)), lambda b: b % 2, 0, 0)
        assert t_two < t_one

    def test_stats_accumulate(self):
        node = self.make_node()
        serve(node, 0.0, BlockRequest(0, 0, np.array([1])), lambda b: 0, 5, 2)
        serve(node, 1.0, BlockRequest(1, 0, np.array([2])), lambda b: 0, 7, 3)
        assert node.blocks_requested == 2
        assert node.blocks_read == 2
        assert node.records_filtered == 12
        assert node.records_qualified == 5

    def test_pipeline_run_counts_worker_stages(self, small_gridfile):
        """Two queries through the real pipeline: every block a node is
        asked for is either a cache hit or a disk read."""
        gf = small_gridfile
        assignment = Minimax().assign(gf, 4, rng=0)
        q = RangeQuery(np.array([200.0, 200.0]), np.array([1400.0, 1400.0]))
        pgf = ParallelGridFile(gf, assignment, 4, ClusterParams(disks_per_node=2))
        report = pgf.run_queries([q, q])
        planned = int(pgf.coordinator.plan(0, q).blocks_per_disk.sum())
        assert planned > 0
        assert report.blocks_requested_total == 2 * planned
        assert report.blocks_read == planned  # the repeat is served from cache


@pytest.fixture
def coordinator(small_gridfile):
    gf = small_gridfile
    assignment = Minimax().assign(gf, 8, rng=0)
    return gf, Coordinator(gf, assignment, 8, disks_per_node=2)


class TestCoordinator:
    def test_topology(self, coordinator):
        gf, coord = coordinator
        assert coord.n_nodes == 4
        for b in range(gf.n_buckets):
            assert coord.node_of_bucket(b) == coord.assignment[b] // 2
            assert coord.local_disk_of_bucket(b) == coord.assignment[b] % 2

    def test_rejects_indivisible_disks(self, small_gridfile):
        a = np.zeros(small_gridfile.n_buckets, dtype=np.int64)
        with pytest.raises(ValueError):
            Coordinator(small_gridfile, a, 7, disks_per_node=2)

    def test_plan_covers_query_buckets(self, coordinator):
        gf, coord = coordinator
        q = RangeQuery(np.array([200.0, 200.0]), np.array([1400.0, 1400.0]))
        plan = coord.plan(0, q)
        want = set(gf.query_buckets(q.lo, q.hi).tolist())
        got = set()
        for req in plan.requests:
            got |= set(int(b) for b in req.bucket_ids)
            assert req.node_id == coord.node_of_bucket(int(req.bucket_ids[0]))
        assert got == want

    def test_response_by_definition(self, coordinator):
        gf, coord = coordinator
        q = RangeQuery(np.array([0.0, 0.0]), np.array([2000.0, 2000.0]))
        plan = coord.plan(0, q)
        bids = gf.query_buckets(q.lo, q.hi)
        counts = np.bincount(coord.assignment[bids], minlength=8)
        assert plan.response_by_definition == counts.max()

    def test_qualified_counts_exact(self, coordinator):
        gf, coord = coordinator
        q = RangeQuery(np.array([500.0, 500.0]), np.array([900.0, 900.0]))
        plan = coord.plan(0, q)
        want = int(q.contains(gf.coords()).sum())
        assert plan.total_qualified == want

    def test_empty_query_plan(self, coordinator):
        gf, coord = coordinator
        # A sliver in a data-free corner may touch one merged bucket or none;
        # candidates >= qualified always.
        q = RangeQuery(np.array([0.0, 1999.9]), np.array([0.1, 2000.0]))
        plan = coord.plan(0, q)
        for node, cand in plan.candidates_per_node.items():
            assert plan.qualified_per_node[node] <= cand

    def test_plan_cpu_time_grows_with_buckets(self, coordinator):
        gf, coord = coordinator
        small = coord.plan(0, RangeQuery(np.array([0.0, 0.0]), np.array([100.0, 100.0])))
        big = coord.plan(1, RangeQuery(np.array([0.0, 0.0]), np.array([2000.0, 2000.0])))
        assert coord.plan_cpu_time(big) > coord.plan_cpu_time(small)
