"""Tests for the R-tree (insertion, quadratic split, STR, queries)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rtree import RTree
from tests.conftest import brute_force_query


class TestConstruction:
    def test_defaults(self):
        t = RTree(2, max_entries=12)
        assert t.min_entries == 4
        assert t.n_records == 0
        t.check_invariants()

    def test_min_entries_bound(self):
        with pytest.raises(ValueError):
            RTree(2, max_entries=8, min_entries=5)

    def test_rejects_wrong_point_shape(self):
        t = RTree(2)
        with pytest.raises(ValueError):
            t.insert_point([1.0])


class TestInsert:
    def test_single(self):
        t = RTree(2, max_entries=4)
        rid = t.insert_point([0.5, 0.5])
        assert rid == 0
        assert t.height() == 1
        t.check_invariants()

    def test_split_grows_height(self, rng):
        t = RTree(2, max_entries=4)
        for p in rng.uniform(0, 1, size=(30, 2)):
            t.insert_point(p)
        assert t.height() >= 2
        assert len(t.leaves()) >= 30 // 4
        t.check_invariants()

    def test_duplicate_points_fine(self):
        t = RTree(2, max_entries=4)
        for _ in range(20):
            t.insert_point([0.3, 0.3])
        t.check_invariants()
        assert t.query_records([0.3, 0.3], [0.3, 0.3]).size == 20

    def test_queries_match_brute_force(self, rng):
        pts = rng.uniform(0, 2000, size=(800, 2))
        t = RTree(2, max_entries=20)
        for p in pts:
            t.insert_point(p)
        t.check_invariants()
        for _ in range(30):
            lo = rng.uniform(0, 1500, 2)
            hi = lo + rng.uniform(0, 500, 2)
            assert np.array_equal(t.query_records(lo, hi), brute_force_query(pts, lo, hi))

    def test_3d(self, rng):
        pts = rng.uniform(-1, 1, size=(300, 3))
        t = RTree(3, max_entries=10)
        for p in pts:
            t.insert_point(p)
        t.check_invariants()
        got = t.query_records([-0.5] * 3, [0.5] * 3)
        assert np.array_equal(got, brute_force_query(pts, [-0.5] * 3, [0.5] * 3))


class TestBulkLoad:
    def test_structure(self, rng):
        pts = rng.uniform(0, 1, size=(5000, 2))
        t = RTree.bulk_load(pts, max_entries=50)
        t.check_invariants()
        assert t.n_records == 5000
        assert len(t.leaves()) >= 100

    def test_empty(self):
        t = RTree.bulk_load(np.empty((0, 2)))
        assert t.n_records == 0
        t.check_invariants()

    def test_tiny(self):
        t = RTree.bulk_load(np.array([[0.5, 0.5]]), max_entries=4)
        assert t.height() == 1
        t.check_invariants()

    def test_queries_match_brute_force(self, rng):
        pts = rng.uniform(0, 1, size=(3000, 2)) ** 2  # skewed
        t = RTree.bulk_load(pts, max_entries=40)
        for _ in range(25):
            lo = rng.uniform(0, 0.7, 2)
            hi = lo + rng.uniform(0, 0.3, 2)
            assert np.array_equal(t.query_records(lo, hi), brute_force_query(pts, lo, hi))

    def test_str_leaves_tight(self, rng):
        """STR leaves overlap far less than worst-case random grouping."""
        pts = rng.uniform(0, 1, size=(2000, 2))
        t = RTree.bulk_load(pts, max_entries=40)
        areas = [leaf.mbr.area() for leaf in t.leaves()]
        # Total leaf area stays near the domain area (low overlap).
        assert sum(areas) < 2.0

    def test_leaf_fill(self, rng):
        pts = rng.uniform(0, 1, size=(1000, 2))
        t = RTree.bulk_load(pts, max_entries=50)
        fills = [leaf.n_entries for leaf in t.leaves()]
        assert max(fills) <= 50
        assert np.mean(fills) > 25  # STR packs pages well


class TestEquivalenceWithGridFile:
    def test_same_answers(self, rng):
        """R-tree and grid file agree on every query (both exact)."""
        from repro.gridfile import bulk_load as gf_bulk

        pts = rng.uniform(0, 100, size=(1500, 2))
        t = RTree.bulk_load(pts, max_entries=30)
        gf = gf_bulk(pts, [0, 0], [100, 100], capacity=30)
        for _ in range(20):
            lo = rng.uniform(0, 70, 2)
            hi = lo + rng.uniform(0, 30, 2)
            assert np.array_equal(t.query_records(lo, hi), gf.query_records(lo, hi))


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(min_value=4, max_value=24))
def test_rtree_property(seed, max_entries):
    """Property: random dynamic builds keep invariants and query exactness."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 150))
    pts = np.round(rng.uniform(0, 10, size=(n, 2)), decimals=int(rng.integers(0, 3)))
    t = RTree(2, max_entries=max_entries)
    for p in pts:
        t.insert_point(p)
    t.check_invariants()
    lo = rng.uniform(0, 6, 2)
    hi = lo + rng.uniform(0, 4, 2)
    assert np.array_equal(t.query_records(lo, hi), brute_force_query(pts, lo, hi))
