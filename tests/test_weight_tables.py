"""Per-dimension interval weight tables against the broadcasting oracle.

Every weight row minimax reads must be bit-for-bit the one-vs-all
broadcast ``weight_fn(lo[y], hi[y], lo, hi, L)``, whether it is gathered
from the ``U_k × U_k`` tables or computed at its step from the distinct
intervals, and no code path may hold an ``n × n`` weight matrix.
"""

import tracemalloc

import numpy as np
import pytest

import repro.core.minimax as minimax_mod
from repro.core import Minimax
from repro.core.minimax import interval_weights, minimax_partition
from repro.core.proximity import (
    IntervalWeights,
    euclidean_similarity,
    proximity_index,
    proximity_matrix,
)
from repro.core.scalable import scalable_minimax_partition
from repro.obs import GLOBAL_METRICS

ORACLES = {"proximity": proximity_index, "euclidean": euclidean_similarity}


def _cuts(rng, d, cells, length=10.0):
    """Per-dimension scales: sorted random cut points spanning ``[0, L]``."""
    inner = np.sort(rng.uniform(0, length, size=(d, cells - 1)), axis=1)
    return np.concatenate([np.zeros((d, 1)), inner, np.full((d, 1), length)], axis=1)


def grid_boxes(n, d, rng, cells=12):
    """Boxes that are unions of 1–3 grid cells: intervals are shared."""
    cuts = _cuts(rng, d, cells)
    a = rng.integers(0, cells, size=(n, d))
    b = np.minimum(a + rng.integers(1, 4, size=(n, d)), cells)
    dims = np.arange(d)
    return cuts[dims, a], cuts[dims, b]


def tile_boxes(n, d, rng):
    """Single grid cells: neighbouring cells touch (intersection exactly 0)."""
    cuts = _cuts(rng, d, 6)
    a = rng.integers(0, 6, size=(n, d))
    dims = np.arange(d)
    return cuts[dims, a], cuts[dims, a + 1]


def zero_width_boxes(n, d, rng):
    """Grid boxes of which about a third collapse to ``lo == hi`` per dim."""
    lo, hi = grid_boxes(n, d, rng)
    flat = rng.random((n, d)) < 0.3
    return lo, np.where(flat, lo, hi)


def continuous_boxes(n, d, rng):
    """Random boxes with all-distinct intervals (``U_k = n``)."""
    lo = rng.uniform(0, 9, size=(n, d))
    return lo, np.minimum(lo + rng.uniform(0.0, 2.0, size=(n, d)), 10.0)


GENERATORS = {
    "grid": grid_boxes,
    "touching": tile_boxes,
    "zero_width": zero_width_boxes,
    "continuous": continuous_boxes,
}


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


@pytest.mark.parametrize("weight", sorted(ORACLES))
@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", sorted(GENERATORS))
class TestRowsMatchOracle:
    def _boxes(self, kind, d, weight):
        rng = np.random.default_rng([d, len(kind), len(weight)])
        lo, hi = GENERATORS[kind](90, d, rng)
        return lo, hi, np.full(d, 10.0)

    def test_tabled_and_streamed_rows_are_exact(self, kind, d, weight):
        lo, hi, L = self._boxes(kind, d, weight)
        streamed = IntervalWeights(lo, hi, L, weight)
        tabled = IntervalWeights(lo, hi, L, weight).build_tables()
        assert streamed.tables is None
        for y in range(lo.shape[0]):
            oracle = _bits(ORACLES[weight](lo[y], hi[y], lo, hi, L))
            np.testing.assert_array_equal(_bits(streamed.row(y)), oracle)
            np.testing.assert_array_equal(_bits(tabled.row(y)), oracle)

    def test_matrix_rows_are_exact(self, kind, d, weight):
        lo, hi, L = self._boxes(kind, d, weight)
        mat = IntervalWeights(lo, hi, L, weight).matrix()
        oracle = np.stack([ORACLES[weight](lo[y], hi[y], lo, hi, L) for y in range(lo.shape[0])])
        np.testing.assert_array_equal(_bits(mat), _bits(oracle))


@pytest.mark.parametrize("d", [5, 7, 8, 9])
def test_high_dimensional_rows(d):
    """Products stay exact at any ``d``; ``np.sum`` adds eight or more terms
    in another order than the left fold, so there Euclidean rows agree to
    rounding only."""
    lo, hi = grid_boxes(60, d, np.random.default_rng(d))
    L = np.full(d, 10.0)
    for weight, oracle_fn in ORACLES.items():
        w = IntervalWeights(lo, hi, L, weight).build_tables()
        for y in range(lo.shape[0]):
            row, oracle = w.row(y), oracle_fn(lo[y], hi[y], lo, hi, L)
            if weight == "proximity" or d < 8:
                np.testing.assert_array_equal(_bits(row), _bits(oracle))
            else:
                np.testing.assert_allclose(row, oracle, rtol=8 * np.finfo(np.float64).eps)


class TestGenerators:
    """The edge cases the oracle tests rely on are really present."""

    def test_touching_pairs_exist(self):
        lo, hi = tile_boxes(90, 2, np.random.default_rng(0))
        inter = np.minimum(hi[:, None, :], hi[None]) - np.maximum(lo[:, None, :], lo[None])
        assert (inter == 0.0).any()

    def test_zero_width_boxes_exist(self):
        lo, hi = zero_width_boxes(90, 2, np.random.default_rng(0))
        assert (lo == hi).any()

    def test_grid_intervals_are_shared(self):
        lo, hi = grid_boxes(300, 2, np.random.default_rng(0))
        w = IntervalWeights(lo, hi, [10.0, 10.0])
        assert all(ulo.size < 300 // 4 for ulo, _, _, _ in w.dims)


class TestProximityMatrix:
    def test_matches_broadcast(self, rng):
        lo, hi = grid_boxes(70, 3, rng)
        L = np.full(3, 10.0)
        dense = proximity_index(lo[:, None, :], hi[:, None, :], lo[None], hi[None], L)
        np.testing.assert_array_equal(_bits(proximity_matrix(lo, hi, L)), _bits(dense))

    def test_unknown_weight_rejected(self):
        with pytest.raises(ValueError, match="unknown weight"):
            IntervalWeights(np.zeros((2, 1)), np.ones((2, 1)), [1.0], "manhattan")


@pytest.mark.parametrize(
    "lengths", [[10.0, 0.0], [10.0, -1.0], [10.0, np.inf], [10.0, np.nan], [10.0], [[10.0, 10.0]]]
)
def test_invalid_lengths_rejected(lengths):
    """Zero, negative, non-finite or misshapen domain lengths would give
    NaN weights and ``-1`` disk ids; every entry point refuses them."""
    lo, hi = grid_boxes(50, 2, np.random.default_rng(0))
    with pytest.raises(ValueError, match="lengths"):
        IntervalWeights(lo, hi, lengths)
    with pytest.raises(ValueError, match="lengths"):
        minimax_partition(lo, hi, lengths, 4, rng=0)
    for threshold in (4096, 0):
        with pytest.raises(ValueError, match="lengths"):
            scalable_minimax_partition(lo, hi, lengths, 4, rng=0, dense_threshold=threshold)


class TestTablePolicy:
    """Tables are built when ``Σ U_k² · 8`` fits both the module cap and a
    dense ``n × n`` matrix; otherwise rows are streamed."""

    def test_auto_builds_tables_for_shared_intervals(self, rng):
        lo, hi = grid_boxes(200, 2, rng)
        assert interval_weights(lo, hi, [10.0, 10.0], "proximity").tables is not None

    def test_auto_streams_when_tables_exceed_a_dense_matrix(self, rng):
        lo, hi = continuous_boxes(200, 2, rng)
        assert interval_weights(lo, hi, [10.0, 10.0], "proximity").tables is None

    def test_cap(self, rng, monkeypatch):
        lo, hi = grid_boxes(200, 2, rng)
        w = interval_weights(lo, hi, [10.0, 10.0], "proximity")
        monkeypatch.setattr(minimax_mod, "DEFAULT_CACHE_BYTES", w.table_bytes - 1)
        assert interval_weights(lo, hi, [10.0, 10.0], "proximity").tables is None
        monkeypatch.setattr(minimax_mod, "DEFAULT_CACHE_BYTES", w.table_bytes)
        assert interval_weights(lo, hi, [10.0, 10.0], "proximity").tables is not None

    @pytest.mark.parametrize("weight", sorted(ORACLES))
    @pytest.mark.parametrize("kind", ["grid", "continuous"])
    def test_precompute_modes_give_identical_partitions(self, kind, weight):
        """Streamed and tabled weights (and the default policy) partition
        identically."""
        rng = np.random.default_rng(3)
        lo, hi = GENERATORS[kind](150, 3, rng)
        L = np.full(3, 10.0)
        runs = [
            minimax_partition(lo, hi, L, 6, rng=4, weight=weight, intervals=intervals)
            for intervals in (
                IntervalWeights(lo, hi, L, weight).build_tables(),
                IntervalWeights(lo, hi, L, weight),
                None,
            )
        ]
        for other in runs[1:]:
            np.testing.assert_array_equal(runs[0], other)

    def test_rows_counted_as_hits_or_misses(self, rng):
        lo, hi = grid_boxes(50, 2, rng)
        L = [10.0, 10.0]
        hits = GLOBAL_METRICS.counter("minimax.cache.hits")
        misses = GLOBAL_METRICS.counter("minimax.cache.misses")
        h0, m0 = hits.value, misses.value
        tabled = IntervalWeights(lo, hi, L).build_tables()
        minimax_partition(lo, hi, L, 4, rng=0, intervals=tabled)
        assert (hits.value - h0, misses.value - m0) == (50, 0)
        minimax_partition(lo, hi, L, 4, rng=0, intervals=IntervalWeights(lo, hi, L))
        assert (hits.value - h0, misses.value - m0) == (50, 50)

    def test_prebuilt_intervals_must_match(self, rng):
        lo, hi = grid_boxes(40, 2, rng)
        w = IntervalWeights(lo, hi, [10.0, 10.0], "euclidean")
        with pytest.raises(ValueError, match="intervals"):
            minimax_partition(lo, hi, [10.0, 10.0], 4, rng=0, intervals=w)
        with pytest.raises(ValueError, match="intervals"):
            minimax_partition(lo[:30], hi[:30], [10.0, 10.0], 4, rng=0, weight="euclidean", intervals=w)


class TestMinimaxMemo:
    def test_hit_on_same_regions_and_lengths(self, rng):
        lo, hi = grid_boxes(60, 2, rng)
        method = Minimax()
        first = method._interval_weights(lo, hi, [10.0, 10.0])
        assert method._interval_weights(lo.copy(), hi.copy(), [10.0, 10.0]) is first

    def test_different_lengths_miss(self, rng):
        lo, hi = grid_boxes(60, 2, rng)
        method = Minimax()
        first = method._interval_weights(lo, hi, [10.0, 10.0])
        second = method._interval_weights(lo, hi, [20.0, 10.0])
        assert second is not first
        np.testing.assert_array_equal(
            second.row(0), proximity_index(lo[0], hi[0], lo, hi, [20.0, 10.0])
        )

    def test_memo_not_pickled(self, small_gridfile):
        method = Minimax()
        method.assign(small_gridfile, 4, rng=0)
        assert method._memo is not None
        assert method.__getstate__()["_memo"] is None


class TestNoDenseMatrix:
    """``minimax_partition`` must stay far below the ``n² · 8`` bytes of a
    dense weight matrix, in both the tabled and the streamed mode."""

    @pytest.mark.parametrize("kind", ["grid", "continuous"])
    def test_peak_memory(self, kind):
        n = 3000
        lo, hi = GENERATORS[kind](n, 2, np.random.default_rng(5))
        tracemalloc.start()
        try:
            minimax_partition(lo, hi, [10.0, 10.0], 8, rng=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 // 16
