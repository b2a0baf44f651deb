"""Cross-layer conservation on fault-free closed runs.

The simulated cluster and the analytic disk model count the same things
two independent ways: the DES plans each query through the coordinator
and its replica selector, while :func:`repro.sim.response_times` bins the
grid file's bucket lists by disk in one vectorised kernel.  On a
fault-free run the two must agree block for block, and the records the
workers return must equal a brute-force containment count.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Minimax
from repro.gridfile import GridFile
from repro.parallel import ClusterParams, ParallelGridFile, RequestPipeline
from repro.parallel.engine.runners import run_closed
from repro.sim import resolve_query_buckets, response_times, square_queries

N_DISKS = 8


@pytest.fixture(scope="module")
def scenario():
    rng = np.random.default_rng(5)
    pts = rng.uniform(0.0, 1.0, size=(3000, 2))
    gf = GridFile.from_points(pts, [0.0, 0.0], [1.0, 1.0], capacity=20)
    assignment = Minimax().assign(gf, N_DISKS, rng=5)
    queries = square_queries(200, 0.05, [0.0, 0.0], [1.0, 1.0], rng=5)
    return gf, pts, assignment, queries


@pytest.mark.parametrize("disks_per_node", [1, 2])
def test_des_matches_analytic_kernel_and_brute_force(scenario, disks_per_node):
    gf, pts, assignment, queries = scenario
    pgf = ParallelGridFile(
        gf, assignment, N_DISKS, ClusterParams(disks_per_node=disks_per_node)
    )
    pipe = RequestPipeline(pgf, queries)
    rep = run_closed(pipe)

    bls = resolve_query_buckets(gf, queries)
    rq = response_times(bls, assignment, N_DISKS)
    assert rep.blocks_fetched == int(rq.sum())
    # Per query, the planned blocks per disk are the analytic N_i(q).
    for plan, bids in zip(pipe.plans, bls):
        np.testing.assert_array_equal(
            plan.blocks_per_disk, np.bincount(assignment[bids], minlength=N_DISKS)
        )

    brute = sum(int(np.count_nonzero(q.contains(pts))) for q in queries)
    assert rep.records_returned == brute
    assert rep.aborted_queries == 0
