"""Tests for repro._util (rng plumbing, validation, norms, table rendering)."""

import math

import numpy as np
import pytest

from repro._util import (
    as_rng,
    check_dimension,
    check_positive_int,
    check_probability,
    format_series,
    format_table,
    row_norms,
    spawn_rng,
)


class TestAsRng:
    def test_none_gives_generator(self):
        assert isinstance(as_rng(None), np.random.Generator)

    def test_int_seed_is_deterministic(self):
        a = as_rng(7).integers(0, 1 << 30, size=10)
        b = as_rng(7).integers(0, 1 << 30, size=10)
        assert np.array_equal(a, b)

    def test_numpy_integer_seed(self):
        g = as_rng(np.int64(5))
        assert isinstance(g, np.random.Generator)

    def test_generator_passthrough_shares_stream(self):
        g = np.random.default_rng(0)
        assert as_rng(g) is g

    def test_rejects_bad_type(self):
        with pytest.raises(TypeError):
            as_rng("seed")

    def test_spawn_rng_children_independent(self):
        kids = spawn_rng(3, 4)
        assert len(kids) == 4
        draws = [k.integers(0, 1 << 30) for k in kids]
        assert len(set(draws)) == 4  # overwhelmingly likely distinct

    def test_spawn_rng_reproducible(self):
        a = [g.integers(0, 1 << 30) for g in spawn_rng(9, 3)]
        b = [g.integers(0, 1 << 30) for g in spawn_rng(9, 3)]
        assert a == b


class TestValidate:
    def test_positive_int_accepts_numpy(self):
        assert check_positive_int(np.int32(4), "x") == 4

    def test_positive_int_rejects_bool(self):
        with pytest.raises(TypeError):
            check_positive_int(True, "x")

    def test_positive_int_rejects_float(self):
        with pytest.raises(TypeError):
            check_positive_int(3.0, "x")

    def test_positive_int_minimum(self):
        with pytest.raises(ValueError):
            check_positive_int(1, "x", minimum=2)

    def test_dimension_upper_bound(self):
        with pytest.raises(ValueError):
            check_dimension(33)

    def test_probability_bounds(self):
        assert check_probability(0.5, "p") == 0.5
        with pytest.raises(ValueError):
            check_probability(1.5, "p")
        with pytest.raises(ValueError):
            check_probability(-0.1, "p")


class TestRowNorms:
    def test_no_underflow_or_overflow(self):
        rows = np.array([[3.41e-204, 0.0], [3e200, 4e200], [0.0, 0.0], [-3.0, 4.0]])
        got = row_norms(rows)
        want = [math.dist(r, (0.0, 0.0)) for r in rows]
        np.testing.assert_allclose(got, want, rtol=1e-15)
        assert got[0] > 0.0

    def test_bit_identical_to_squared_sum_in_range(self, rng):
        rows = rng.normal(size=(2000, 3)) * 10.0 ** rng.integers(-100, 100, size=(2000, 1))
        assert np.array_equal(row_norms(rows), np.sqrt((rows**2).sum(axis=1)))

    def test_single_row(self):
        assert float(row_norms(np.array([3.0, 4.0]))) == 5.0


class TestTables:
    def test_format_table_basic(self):
        text = format_table(["a", "bb"], [[1, 2.5], [30, 4.0]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "a" in lines[0] and "bb" in lines[0]
        assert "2.50" in lines[2]

    def test_format_table_title(self):
        text = format_table(["x"], [[1]], title="T")
        assert text.splitlines()[0] == "T"

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_format_series_alignment(self):
        text = format_series("m", [4, 8], {"dm": [1.0, 2.0], "fx": [3.0, 4.0]})
        assert "dm" in text and "fx" in text
        assert "4.00" in text

    def test_format_series_length_mismatch(self):
        with pytest.raises(ValueError):
            format_series("m", [4, 8], {"dm": [1.0]})

    def test_precision(self):
        text = format_table(["v"], [[1.23456]], precision=4)
        assert "1.2346" in text
