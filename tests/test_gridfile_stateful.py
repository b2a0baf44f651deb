"""Stateful property tests: random insert/delete/query interleavings.

Hypothesis drives the grid file as a state machine — the exact workload the
online engine (:mod:`repro.parallel.online`) generates — and checks, after
*every* step, the invariants the rest of the repo takes for granted:

* bucket regions tile the directory and every record sits in the bucket
  owning its cell (:meth:`GridFile.check_invariants`);
* record bookkeeping (``n_records`` / ``n_deleted`` / ``live_record_ids`` /
  ``bucket_sizes``) agrees with a shadow model;
* ``query_records`` matches a brute-force scan of the shadow model,
  including the full-domain query;
* deleting a deleted or never-existing record raises ``KeyError``;
* ``Coordinator.plan`` equals the per-page reference planner and counts
  exactly the shadow model's hits, while bursts of inserts and whole-bucket
  deletes split, merge and swap-remove buckets whose coordinate caches the
  plans filled (``check_invariants`` asserts every filled cache equals
  ``points[record_ids]``).

The default (tier-1) run keeps the example count small; the ``slow`` CI job
runs the derandomized deep version (``REPRO_STATEFUL_EXAMPLES``, 500+).
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.gridfile import GridFile, RangeQuery
from repro.parallel.coordinator import Coordinator
from tests.test_coordinator_plan import assert_plans_equal, reference_plan

CAPACITY = 6  # tiny buckets: a short run still splits, refines and merges

coord = st.floats(
    min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False
)
point = st.tuples(coord, coord)


class GridFileMachine(RuleBasedStateMachine):
    """Random operation sequences against a live grid file + shadow model."""

    def __init__(self):
        super().__init__()
        self.gf = GridFile.empty(
            [0.0, 0.0], [1.0, 1.0], capacity=CAPACITY, reserve=4
        )
        self.live: dict[int, tuple[float, float]] = {}
        self.deleted: set[int] = set()

    # -- operations ---------------------------------------------------------

    @rule(p=point)
    def insert(self, p):
        rid = self.gf.insert_point(np.array(p, dtype=np.float64))
        assert rid not in self.live and rid not in self.deleted
        self.live[rid] = p

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def insert_duplicate_coords(self, data):
        """Coincident points must coexist (splits cannot separate them)."""
        rid0 = data.draw(st.sampled_from(sorted(self.live)), label="source")
        p = self.live[rid0]
        rid = self.gf.insert_point(np.array(p, dtype=np.float64))
        assert rid != rid0
        self.live[rid] = p

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def delete(self, data):
        rid = data.draw(st.sampled_from(sorted(self.live)), label="victim")
        self.gf.delete_record(rid)
        del self.live[rid]
        self.deleted.add(rid)

    @rule(p=point)
    def insert_burst(self, p):
        """More than a bucket's worth of nearby points: forces splits."""
        for i in range(CAPACITY + 1):
            q = (min(1.0, p[0] + i * 1e-3), min(1.0, p[1] + i * 7e-4))
            rid = self.gf.insert_point(np.array(q, dtype=np.float64))
            self.live[rid] = q

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def delete_bucket(self, data):
        """Empty one bucket: forces merges and swap-removal renumbering."""
        full = self.gf.nonempty_bucket_ids().tolist()
        bid = data.draw(st.sampled_from(full), label="bucket")
        for rid in self.gf.records_in_bucket(bid).tolist():
            self.gf.delete_record(rid)
            del self.live[rid]
            self.deleted.add(rid)

    @rule(a=point, b=point, disks_per_node=st.sampled_from([1, 2]))
    def plan_matches_reference(self, a, b, disks_per_node):
        coord = Coordinator(
            self.gf, np.arange(self.gf.n_buckets) % 4, 4, disks_per_node
        )
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        for qid, q in enumerate([RangeQuery(lo, hi), RangeQuery([0.0, 0.0], [1.0, 1.0])]):
            plan = coord.plan(qid, q)
            assert_plans_equal(plan, reference_plan(coord, qid, q))
            expected = sum(
                1
                for x, y in self.live.values()
                if q.lo[0] <= x <= q.hi[0] and q.lo[1] <= y <= q.hi[1]
            )
            assert plan.total_qualified == expected

    @precondition(lambda self: self.deleted)
    @rule(data=st.data())
    def delete_twice_raises(self, data):
        rid = data.draw(st.sampled_from(sorted(self.deleted)), label="ghost")
        with pytest.raises(KeyError):
            self.gf.delete_record(rid)
        assert rid in self.deleted and rid not in self.live

    @rule()
    def delete_unknown_raises(self):
        with pytest.raises(KeyError):
            self.gf.delete_record(self.gf._n + 1)
        with pytest.raises(KeyError):
            self.gf.delete_record(-1)

    @rule(a=point, b=point)
    def query_matches_brute_force(self, a, b):
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        got = np.sort(self.gf.query_records(lo, hi)).tolist()
        expected = sorted(
            rid
            for rid, (x, y) in self.live.items()
            if lo[0] <= x <= hi[0] and lo[1] <= y <= hi[1]
        )
        assert got == expected

    # -- invariants (checked after every step) ------------------------------

    @invariant()
    def structure_is_consistent(self):
        self.gf.check_invariants()

    @invariant()
    def bookkeeping_matches_shadow_model(self):
        assert self.gf.n_records == len(self.live)
        assert self.gf.n_deleted == len(self.deleted)
        assert sorted(self.gf.live_record_ids().tolist()) == sorted(self.live)
        assert int(self.gf.bucket_sizes().sum()) == len(self.live)

    @invariant()
    def full_domain_query_returns_everything(self):
        got = np.sort(self.gf.query_records([0.0, 0.0], [1.0, 1.0])).tolist()
        assert got == sorted(self.live)


class TestGridFileStateful(GridFileMachine.TestCase):
    """Fast tier-1 run."""

    settings = settings(max_examples=30, stateful_step_count=30, deadline=None)


@pytest.mark.slow
class TestGridFileStatefulDeep(GridFileMachine.TestCase):
    """Deep run for the dedicated CI job (derandomized ``ci`` profile)."""

    settings = settings(
        max_examples=int(os.environ.get("REPRO_STATEFUL_EXAMPLES", "500")),
        stateful_step_count=50,
        deadline=None,
    )
