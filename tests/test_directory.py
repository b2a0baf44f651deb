"""Tests for the grid directory."""

import numpy as np
import pytest

from repro.gridfile import Directory


class TestBasics:
    def test_fill(self):
        d = Directory((2, 3), fill=7)
        assert d.shape == (2, 3)
        assert d.n_cells == 6
        assert (d.grid == 7).all()

    def test_from_array_copies(self):
        arr = np.zeros((2, 2), dtype=np.int32)
        d = Directory.from_array(arr)
        arr[0, 0] = 5
        assert d.grid[0, 0] == 0

    def test_bucket_at(self):
        d = Directory((2, 2))
        d.grid[1, 0] = 3
        assert d.bucket_at([1, 0]) == 3

    def test_buckets_at_vectorized(self):
        d = Directory.from_array(np.arange(6).reshape(2, 3))
        out = d.buckets_at(np.array([[0, 0], [1, 2]]))
        assert out.tolist() == [0, 5]

    def test_set_box(self):
        d = Directory((3, 3))
        d.set_box([1, 1], [3, 3], 9)
        assert d.grid[1:, 1:].tolist() == [[9, 9], [9, 9]]
        assert d.grid[0, 0] == 0


class TestRanges:
    def test_buckets_in_ranges_unique_sorted(self):
        d = Directory.from_array(np.array([[0, 0, 1], [2, 0, 1]]))
        out = d.buckets_in_ranges([(0, 2), (0, 3)])
        assert out.tolist() == [0, 1, 2]

    def test_subrange(self):
        d = Directory.from_array(np.array([[0, 0, 1], [2, 0, 1]]))
        assert d.buckets_in_ranges([(0, 1), (0, 2)]).tolist() == [0]


class TestRefine:
    def test_refine_duplicates_slab(self):
        d = Directory.from_array(np.array([[0, 1], [2, 3]]))
        d.refine(0, 0)
        assert d.grid.tolist() == [[0, 1], [0, 1], [2, 3]]

    def test_refine_last_interval(self):
        d = Directory.from_array(np.array([[0, 1], [2, 3]]))
        d.refine(1, 1)
        assert d.grid.tolist() == [[0, 1, 1], [2, 3, 3]]

    def test_refine_out_of_range(self):
        d = Directory((2, 2))
        with pytest.raises(IndexError):
            d.refine(0, 2)

    def test_refine_3d(self):
        d = Directory.from_array(np.arange(8).reshape(2, 2, 2))
        d.refine(2, 0)
        assert d.shape == (2, 2, 3)
        assert d.grid[0, 0].tolist() == [0, 0, 1]


class TestRegionOf:
    def test_region_of(self):
        d = Directory.from_array(np.array([[5, 5, 1], [5, 5, 1]]))
        lo, hi = d.region_of(5)
        assert lo.tolist() == [0, 0]
        assert hi.tolist() == [2, 2]

    def test_region_of_missing(self):
        d = Directory((2, 2))
        with pytest.raises(KeyError):
            d.region_of(42)

    def test_copy_independent(self):
        d = Directory((2, 2))
        c = d.copy()
        c.grid[0, 0] = 1
        assert d.grid[0, 0] == 0
