"""Tests for the minimax spanning-tree algorithm (paper Algorithm 2).

Includes a literal, loop-by-loop reference implementation of the paper's
pseudocode; the vectorized production code must reproduce it exactly
(given identical seeds and tie-breaking by lowest index).
"""

import numpy as np
import pytest

from repro.core import Minimax
from repro.core.minimax import minimax_partition
from repro.core.proximity import proximity_index
from repro.obs import PROFILER
from repro.sim.metrics import closest_pairs_same_disk


def reference_minimax(lo, hi, lengths, m, seeds):
    """Algorithm 2 exactly as printed, with explicit Python loops."""
    n = lo.shape[0]
    assign = np.full(n, -1, dtype=np.int64)
    B = set(range(n)) - set(int(s) for s in seeds)
    for k, s in enumerate(seeds):
        assign[s] = k
    # Step 1: MAX_x(i) <- c(x, v_i).
    MAX = {
        x: [float(proximity_index(lo[x], hi[x], lo[s], hi[s], lengths)) for s in seeds]
        for x in B
    }
    k = 0
    while B:
        # Step 2: y = argmin over B of MAX_y(K)  (lowest index on ties).
        y = min(sorted(B), key=lambda x: MAX[x][k])
        assign[y] = k
        B.discard(y)
        # Step 3: MAX_x(K) <- max(c(y, x), MAX_x(K)).
        for x in B:
            c = float(proximity_index(lo[y], hi[y], lo[x], hi[x], lengths))
            MAX[x][k] = max(MAX[x][k], c)
        k = (k + 1) % m
    return assign


def random_boxes(n, rng, d=2):
    lo = rng.uniform(0, 9, size=(n, d))
    hi = lo + rng.uniform(0.05, 1.0, size=(n, d))
    return lo, np.minimum(hi, 10.0)


L2 = np.array([10.0, 10.0])


class TestAgainstReference:
    @pytest.mark.parametrize("n,m", [(10, 2), (17, 3), (25, 5), (31, 4)])
    def test_matches_paper_pseudocode(self, n, m, rng):
        lo, hi = random_boxes(n, rng)
        seeds = rng.choice(n, size=m, replace=False)
        got = minimax_partition(lo, hi, L2, m, seeds=seeds)
        want = reference_minimax(lo, hi, L2, m, seeds)
        assert np.array_equal(got, want)

    def test_seeds_keep_their_trees(self, rng):
        lo, hi = random_boxes(12, rng)
        seeds = np.array([3, 7, 11])
        out = minimax_partition(lo, hi, L2, 3, seeds=seeds)
        assert out[3] == 0 and out[7] == 1 and out[11] == 2


class TestBalance:
    @pytest.mark.parametrize("n,m", [(20, 4), (21, 4), (23, 4), (100, 7), (50, 50)])
    def test_perfect_balance(self, n, m, rng):
        """Every disk receives at most ceil(N/M) buckets (paper property 2)."""
        lo, hi = random_boxes(n, rng)
        out = minimax_partition(lo, hi, L2, m, rng=rng)
        counts = np.bincount(out, minlength=m)
        assert counts.max() <= -(-n // m)

    def test_all_disks_used(self, rng):
        lo, hi = random_boxes(40, rng)
        out = minimax_partition(lo, hi, L2, 8, rng=rng)
        assert set(out.tolist()) == set(range(8))


class TestEdgeCases:
    def test_empty_input(self):
        out = minimax_partition(np.empty((0, 2)), np.empty((0, 2)), L2, 3, rng=0)
        assert out.size == 0

    def test_more_disks_than_boxes(self, rng):
        lo, hi = random_boxes(3, rng)
        out = minimax_partition(lo, hi, L2, 10, rng=rng)
        assert sorted(out.tolist()) == [0, 1, 2]

    def test_single_disk(self, rng):
        lo, hi = random_boxes(5, rng)
        out = minimax_partition(lo, hi, L2, 1, rng=rng)
        assert (out == 0).all()

    def test_bad_seeds_rejected(self, rng):
        lo, hi = random_boxes(5, rng)
        with pytest.raises(ValueError):
            minimax_partition(lo, hi, L2, 2, seeds=np.array([1, 1]))
        with pytest.raises(ValueError):
            minimax_partition(lo, hi, L2, 2, seeds=np.array([1]))

    def test_out_of_range_seeds_rejected(self, rng):
        """``-1`` would alias the last box and ``n`` would index past it."""
        lo, hi = random_boxes(50, rng)
        for seeds in ([49, -1, 0, 1], [0, 1, 2, 50], [0, 1, 2, 99]):
            with pytest.raises(ValueError, match="seeds"):
                minimax_partition(lo, hi, L2, 4, seeds=np.array(seeds))
        out = minimax_partition(lo, hi, L2, 4, seeds=np.array([49, 48, 0, 1]))
        assert out.min() == 0 and out.max() == 3

    def test_unknown_weight(self, rng):
        lo, hi = random_boxes(5, rng)
        with pytest.raises(ValueError):
            minimax_partition(lo, hi, L2, 2, weight="cosine")

    def test_unknown_seeding(self, rng):
        lo, hi = random_boxes(5, rng)
        with pytest.raises(ValueError):
            minimax_partition(lo, hi, L2, 2, seeding="grid")

    def test_unknown_seeding_rejected_at_construction(self):
        with pytest.raises(ValueError, match="seeding"):
            Minimax(seeding="bogus")
        with pytest.raises(ValueError, match="weight"):
            Minimax(weight="bogus")

    def test_deterministic_given_seed(self, rng):
        lo, hi = random_boxes(30, rng)
        a = minimax_partition(lo, hi, L2, 4, rng=42)
        b = minimax_partition(lo, hi, L2, 4, rng=42)
        assert np.array_equal(a, b)


class TestVariants:
    def test_euclidean_weight_runs(self, rng):
        lo, hi = random_boxes(20, rng)
        out = minimax_partition(lo, hi, L2, 4, rng=rng, weight="euclidean")
        assert np.bincount(out, minlength=4).max() <= 5

    def test_farthest_seeding_spreads_seeds(self, rng):
        # Boxes on a line: farthest-point seeds should not be adjacent.
        n = 16
        lo = np.stack([np.arange(n, dtype=float) * 0.5, np.zeros(n)], axis=1)
        hi = lo + 0.4
        out = minimax_partition(lo, hi, np.array([10.0, 10.0]), 2, rng=0, seeding="farthest")
        assert np.bincount(out).max() == 8


class TestOnGridFiles:
    def test_method_interface(self, small_gridfile):
        method = Minimax()
        a = method.assign(small_gridfile, 8, rng=0)
        assert a.shape == (small_gridfile.n_buckets,)
        ne = small_gridfile.nonempty_bucket_ids()
        counts = np.bincount(a[ne], minlength=8)
        assert counts.max() <= -(-ne.size // 8)

    def test_separates_nearest_neighbors(self, small_gridfile):
        """Paper property 3: closest pairs rarely share a disk."""
        a = Minimax().assign(small_gridfile, 16, rng=1)
        pairs = closest_pairs_same_disk(small_gridfile, a)
        ne = small_gridfile.nonempty_bucket_ids().size
        assert pairs <= max(2, ne // 20)

    def test_variant_names(self):
        assert Minimax().name == "MiniMax"
        assert "euclidean" in Minimax(weight="euclidean").name

    def test_invalid_weight(self):
        with pytest.raises(ValueError):
            Minimax(weight="manhattan")


class TestWeightPhaseAttribution:
    """The memoized weight matrix is built inside ``minimax.weights``."""

    @pytest.fixture
    def profiler(self):
        saved = PROFILER.enabled
        PROFILER.reset()
        yield PROFILER
        PROFILER.enabled = saved
        PROFILER.reset()

    def test_memo_miss_records_phase_and_hit_does_not(self, small_gridfile, profiler):
        profiler.enabled = True
        method = Minimax()
        first = method.assign(small_gridfile, 4, rng=0)
        assert profiler.snapshot()["minimax.weights"]["calls"] == 1
        profiler.reset()
        second = method.assign(small_gridfile, 8, rng=0)
        assert "minimax.weights" not in profiler.snapshot()
        assert "minimax.partition" in profiler.snapshot()
        profiler.reset()
        profiler.enabled = False
        assert np.array_equal(Minimax().assign(small_gridfile, 4, rng=0), first)
        assert np.array_equal(method.assign(small_gridfile, 8, rng=0), second)
        assert profiler.snapshot() == {}
