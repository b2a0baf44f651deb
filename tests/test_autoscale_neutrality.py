"""Null-autoscale neutrality: the seam is invisible until switched on.

``ClusterParams(autoscale="null")`` must reproduce the PR 5 golden digests
byte for byte on the closed, open and online runs — the null policy
installs no selector of its own, so it cannot perturb a single event.  The
digests are imported from ``tests/test_engine_neutrality.py`` (the
canonical pins), so a legitimate engine change that re-pins them cannot
silently fork this file's expectations.

The replicating policies are pinned on a faulted closed run as well: a
crash and a recovery of node 3 drive their route and failover with a
suspected node, the path no other test reaches.
"""

from __future__ import annotations

import pytest

from repro.core import make_method
from repro.parallel import (
    AutoscaleCluster,
    ClusterParams,
    DegradationMonitor,
    FaultPlan,
    OnlineCluster,
    ParallelGridFile,
)
from repro.sim import mixed_workload, square_queries
from tests.test_engine_neutrality import (
    DOMAIN,
    GOLDEN_CLOSED,
    GOLDEN_ONLINE,
    GOLDEN_OPEN,
    _build,
    _online_data,
    _perf_data,
    _sha,
)

NULL = ClusterParams(autoscale="null")

#: ``_perf_data`` digests of the faulted closed run below, per policy.
GOLDEN_FAULTED = {
    "static": "21dd75d3c8593ac051643f2718848afdcce9de56d18d49c3054f7f4d474b4831",
    "heat-replicate": "0fa7f1b6767940213ba3c0136a248deb5ebaaa1d674d93657db7a7c01a9229a1",
}


@pytest.fixture(scope="module")
def deployment():
    gf = _build()
    assignment = make_method("minimax").assign(gf, 8, rng=42)
    queries = square_queries(40, 0.06, *DOMAIN, rng=42)
    return gf, assignment, queries


def test_null_closed_run_matches_golden(deployment):
    gf, assignment, queries = deployment
    rep = ParallelGridFile(gf, assignment, 8, NULL).run_queries(queries)
    assert _sha(_perf_data(rep)) == GOLDEN_CLOSED


def test_null_driver_closed_run_matches_golden(deployment):
    """The elastic driver with the null policy and no plan is the plain
    closed loop, to the digest."""
    gf, assignment, queries = deployment
    rep = AutoscaleCluster(gf, assignment, 8, NULL).run(queries)
    assert _sha(_perf_data(rep.perf)) == GOLDEN_CLOSED


def test_null_open_run_matches_golden(deployment):
    gf, assignment, queries = deployment
    rep = ParallelGridFile(gf, assignment, 8, NULL).run_open(
        queries, arrival_rate=150.0, rng=9
    )
    assert _sha(_perf_data(rep)) == GOLDEN_OPEN


def test_null_online_run_matches_golden():
    gf = _build()
    assignment = make_method("minimax").assign(gf, 8, rng=42)
    ops = mixed_workload(150, 0.3, *DOMAIN, rng=13)
    monitor = DegradationMonitor(window=16, threshold=1.2, cooldown=16, budget=0.3)
    rep = OnlineCluster(
        gf, assignment, 8, params=NULL,
        placement="rr-least-loaded", monitor=monitor, seed=42,
    ).run(ops)
    assert _sha(_online_data(rep)) == GOLDEN_ONLINE


@pytest.mark.parametrize("policy", sorted(GOLDEN_FAULTED))
def test_replicating_policy_faulted_run_matches_golden(deployment, policy):
    gf, assignment, queries = deployment
    faults = FaultPlan().node_crash(0.02, 3).node_recover(0.2, 3)
    rep = ParallelGridFile(
        gf, assignment, 8, ClusterParams(autoscale=policy)
    ).run_queries(queries, faults=faults)
    # The suspected-node path is reached: timeouts fire and a query whose
    # bucket has no surviving copy aborts.
    assert rep.timeouts > 0 and rep.aborted_queries > 0
    assert _sha(_perf_data(rep)) == GOLDEN_FAULTED[policy]


def test_default_autoscale_is_off():
    """The seam defaults to absent."""
    assert ClusterParams().autoscale is None
