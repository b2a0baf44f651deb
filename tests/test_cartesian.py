"""Tests for Cartesian product files."""

import numpy as np
import pytest

from repro.gridfile import cartesian_product_file, cartesian_scales


class TestScales:
    def test_equal_resolution(self):
        s = cartesian_scales([0, 0], [8, 4], (4, 2))
        assert s.nintervals == (4, 2)
        assert s.boundaries[0].tolist() == [2.0, 4.0, 6.0]

    def test_quantile_needs_points(self):
        with pytest.raises(ValueError):
            cartesian_scales([0], [1], (4,), scale_mode="quantile")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            cartesian_scales([0], [1], (4,), scale_mode="x")


class TestStructure:
    def test_one_bucket_per_cell(self):
        pts = np.random.default_rng(0).uniform(0, 1, size=(100, 2))
        gf = cartesian_product_file(pts, [0, 0], [1, 1], (5, 4))
        assert gf.n_buckets == 20
        assert gf.scales.n_cells == 20
        lo, hi = gf.bucket_cell_boxes()
        assert (hi - lo == 1).all()
        gf.check_invariants()

    def test_bucket_id_is_flat_cell_index(self):
        gf = cartesian_product_file(np.empty((0, 2)), [0, 0], [1, 1], (3, 3))
        assert gf.directory.grid.ravel().tolist() == list(range(9))

    def test_empty_point_set(self):
        gf = cartesian_product_file(np.empty((0, 2)), [0, 0], [1, 1], (2, 2))
        assert gf.n_records == 0
        assert (gf.bucket_sizes() == 0).all()
        gf.check_invariants()

    def test_records_distributed(self):
        pts = np.array([[0.1, 0.1], [0.9, 0.9], [0.9, 0.1]])
        gf = cartesian_product_file(pts, [0, 0], [1, 1], (2, 2))
        sizes = gf.bucket_sizes()
        assert sizes.sum() == 3
        assert sizes.tolist() == [1, 0, 1, 1]

    def test_rejects_bad_points(self):
        with pytest.raises(ValueError):
            cartesian_product_file(np.zeros(3), [0], [1], (2,))

    def test_no_merging_no_overflow_flagging(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(0, 1, size=(500, 2))
        gf = cartesian_product_file(pts, [0, 0], [1, 1], (4, 4))
        stats = gf.stats()
        assert stats.n_merged_buckets == 0
        assert stats.n_overflowed == 0

    def test_3d(self):
        pts = np.random.default_rng(2).uniform(0, 1, size=(50, 3))
        gf = cartesian_product_file(pts, [0, 0, 0], [1, 1, 1], (3, 2, 4))
        assert gf.n_buckets == 24
        gf.check_invariants()

    def test_queries_exact(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(0, 1, size=(300, 2))
        gf = cartesian_product_file(pts, [0, 0], [1, 1], (8, 8))
        lo, hi = np.array([0.2, 0.3]), np.array([0.7, 0.8])
        want = np.nonzero(np.all((pts >= lo) & (pts <= hi), axis=1))[0]
        assert np.array_equal(gf.query_records(lo, hi), want)
