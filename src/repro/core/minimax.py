"""The minimax spanning-tree declustering algorithm (paper §3.1, Algorithm 2).

The grid-file declustering problem is viewed as an M-way partitioning of the
complete graph on buckets, edges weighted by the probability of co-access
(the proximity index).  The algorithm extends Prim's MST construction:

1. **Random seeding** — M distinct buckets seed M spanning trees.
2. **Expanding** — trees take turns (round robin).  The tree whose turn it
   is receives the unassigned bucket whose *maximum* edge weight to the
   tree's current members is *minimum* — the bucket least likely to be
   co-accessed with anything already on that disk.

Properties (paper §3.1, verified by the test suite):

* O(N²) weight evaluations for N buckets (gathered from per-dimension
  interval tables, see :class:`~repro.core.proximity.IntervalWeights`);
* perfectly balanced partitions: every disk gets at most ``⌈N/M⌉`` buckets;
* nearest-neighbour buckets land on the same disk only rarely (Tables 2–3).

The inner loop is vectorized: per step one argmin over the frontier and one
one-vs-all weight row, both numpy array passes, so declustering the
paper's 19 956-bucket 4-d file stays in seconds.  No ``n × n`` weight matrix
is ever held: a row is a fold of one gathered table row per dimension.
"""

from __future__ import annotations

import numpy as np

from repro._util import as_rng, check_positive_int
from repro.core.base import DeclusteringMethod, validate_assignment
from repro.core.proximity import IntervalWeights, proximity_index
from repro.gridfile.gridfile import GridFile
from repro.obs import GLOBAL_METRICS, PROFILER

__all__ = ["Minimax", "minimax_partition"]

#: Memory cap for the per-dimension weight tables (bytes).  Grid files have
#: few distinct intervals per dimension, so their tables are megabytes even
#: for the paper's 19,956-bucket 4-d file.
DEFAULT_CACHE_BYTES = 256 * 1024 * 1024

#: Seed placements: the paper's random seeds, or greedy max-min spread.
SEEDINGS = ("random", "farthest")


def interval_weights(lo, hi, lengths, weight: str) -> IntervalWeights:
    """The weight rows of ``n`` boxes, with tables built when they pay.

    The per-dimension tables are built while ``Σ U_k² · 8`` bytes stay
    within :data:`DEFAULT_CACHE_BYTES` and within the ``n² · 8`` bytes of a
    dense matrix (grid-file regions); otherwise (continuous boxes, where
    ``U_k = n``) each row is computed at its step from the distinct
    intervals.  Rows are bit-for-bit identical either way.
    """
    weights = IntervalWeights(lo, hi, lengths, weight)
    n = weights.n
    if weights.table_bytes <= min(DEFAULT_CACHE_BYTES, n * n * 8):
        weights.build_tables()
    return weights


def _farthest_point_seeds(lo, hi, lengths, m, rng) -> np.ndarray:
    """Greedy max-min (k-center) seeding: spread seeds across the domain."""
    n = lo.shape[0]
    seeds = [int(rng.integers(n))]
    # Track, for each bucket, the max similarity to any chosen seed (lower =
    # farther); pick the bucket minimizing it.
    best_sim = proximity_index(lo[seeds[0]], hi[seeds[0]], lo, hi, lengths)
    for _ in range(m - 1):
        best_sim[seeds] = np.inf
        nxt = int(np.argmin(best_sim))
        seeds.append(nxt)
        sim = proximity_index(lo[nxt], hi[nxt], lo, hi, lengths)
        np.maximum(best_sim, sim, out=best_sim)
    return np.asarray(seeds, dtype=np.int64)


def minimax_partition(
    lo: np.ndarray,
    hi: np.ndarray,
    lengths: np.ndarray,
    n_disks: int,
    rng=None,
    weight: str = "proximity",
    seeding: str = "random",
    seeds: "np.ndarray | None" = None,
    intervals: "IntervalWeights | None" = None,
) -> np.ndarray:
    """Partition ``n`` boxes over ``n_disks`` with Algorithm 2.

    Parameters
    ----------
    lo, hi:
        ``(n, d)`` box bounds (bucket regions in domain coordinates).
    lengths:
        Domain extent per dimension.
    n_disks:
        Number of disks ``M`` (``<= n``).
    rng:
        Seed / generator for the seeding phase.
    weight:
        Edge-weight function: ``"proximity"`` (paper) or ``"euclidean"``
        (ablation).
    seeding:
        ``"random"`` (paper) or ``"farthest"`` (greedy max-min ablation).
    seeds:
        Explicit seed bucket indices (length ``n_disks``, distinct, each
        in ``[0, n)``); overrides ``seeding``.  Used by tests to compare
        against reference implementations step by step.
    intervals:
        Optional prebuilt :class:`~repro.core.proximity.IntervalWeights`
        of these boxes and ``weight`` (e.g. shared across the disk counts
        of a sweep).  By default they are built here, with the
        per-dimension tables when those fit (see :func:`interval_weights`).

    Returns
    -------
    numpy.ndarray
        ``(n,)`` disk ids; each disk receives at most ``⌈n/M⌉`` boxes.
    """
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    n = lo.shape[0]
    m = check_positive_int(n_disks, "n_disks")
    if seeding not in SEEDINGS:
        raise ValueError(f"unknown seeding {seeding!r}; choose from {list(SEEDINGS)}")
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if m > n:
        # Degenerate but convenient: every box on its own disk.
        return np.arange(n, dtype=np.int64)
    rng = as_rng(rng)

    if intervals is None:
        with PROFILER.phase("minimax.weights"):
            intervals = interval_weights(lo, hi, lengths, weight)
    elif intervals.n != n or intervals.weight != weight:
        raise ValueError(
            f"intervals hold {intervals.n} {intervals.weight!r} boxes, expected {n} {weight!r}"
        )

    # Phase 1: seeding.
    if seeds is not None:
        seeds = np.asarray(seeds, dtype=np.int64)
        if (
            seeds.shape != (m,)
            or len(np.unique(seeds)) != m
            or seeds.min() < 0
            or seeds.max() >= n
        ):
            raise ValueError(f"seeds must be {m} distinct indices in [0, {n})")
    elif seeding == "random":
        seeds = rng.choice(n, size=m, replace=False).astype(np.int64)
    else:
        seeds = _farthest_point_seeds(lo, hi, lengths, m, rng)

    assign = np.full(n, -1, dtype=np.int64)
    assign[seeds] = np.arange(m)
    unassigned = np.ones(n, dtype=bool)
    unassigned[seeds] = False

    # One row per bucket (M seeds, N - M growth steps): rows gathered from
    # the tables count as cache hits, rows computed at their step as misses.
    if intervals.tables is not None:
        GLOBAL_METRICS.counter("minimax.cache.hits").inc(n)
    else:
        GLOBAL_METRICS.counter("minimax.cache.misses").inc(n)
        GLOBAL_METRICS.counter("minimax.weight_rows").inc(n)

    # Phase 2: round-robin expansion.
    GLOBAL_METRICS.counter("minimax.growth_steps").inc(n - m)
    with PROFILER.phase("minimax.partition"):
        # MAX_x(K): max edge weight from bucket x to members of tree K.
        max_w = np.empty((n, m), dtype=np.float64)
        for k in range(m):
            max_w[:, k] = intervals.row(int(seeds[k]))
        max_w[~unassigned, :] = np.inf  # never re-select assigned buckets
        k = 0
        for _ in range(n - m):
            y = int(np.argmin(max_w[:, k]))
            assign[y] = k
            unassigned[y] = False
            np.maximum(max_w[:, k], intervals.row(y), out=max_w[:, k])
            max_w[y, :] = np.inf
            k = (k + 1) % m
    return assign


class Minimax(DeclusteringMethod):
    """Minimax spanning-tree declustering (the paper's proposed algorithm).

    Parameters
    ----------
    weight:
        Edge-weight function, ``"proximity"`` (default, the paper's choice)
        or ``"euclidean"``.
    seeding:
        Seed placement, ``"random"`` (default) or ``"farthest"``.

    Notes
    -----
    Empty buckets occupy no disk page; they are excluded from the spanning
    trees (so balance guarantees refer to data buckets) and dealt round-robin
    afterwards.
    """

    name = "MiniMax"

    def __init__(self, weight: str = "proximity", seeding: str = "random"):
        if weight not in IntervalWeights.WEIGHTS:
            raise ValueError(f"unknown weight {weight!r}")
        if seeding not in SEEDINGS:
            raise ValueError(f"unknown seeding {seeding!r}; choose from {list(SEEDINGS)}")
        self.weight = weight
        self.seeding = seeding
        if weight != "proximity" or seeding != "random":
            self.name = f"MiniMax[{weight},{seeding}]"
        # Memoized (lo, hi, lengths, weights) of the last grid file
        # declustered, so a sweep over disk counts builds the tables once.
        self._memo: "tuple[np.ndarray, np.ndarray, np.ndarray, IntervalWeights] | None" = None

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_memo"] = None  # never ship the tables to workers
        return state

    def _interval_weights(self, lo: np.ndarray, hi: np.ndarray, lengths) -> IntervalWeights:
        """Weight rows for these regions, memoized across calls."""
        lengths = np.asarray(lengths, dtype=np.float64)
        memo = self._memo
        if memo is not None and all(
            np.array_equal(a, b) for a, b in zip(memo[:3], (lo, hi, lengths))
        ):
            return memo[3]
        with PROFILER.phase("minimax.weights"):
            weights = interval_weights(lo, hi, lengths, self.weight)
        self._memo = (lo.copy(), hi.copy(), lengths.copy(), weights)
        return weights

    def assign(self, gf: GridFile, n_disks: int, rng=None) -> np.ndarray:
        rng = as_rng(rng)
        lo, hi = gf.bucket_regions()
        nonempty = gf.nonempty_bucket_ids()
        lo_ne = np.ascontiguousarray(lo[nonempty])
        hi_ne = np.ascontiguousarray(hi[nonempty])
        part = minimax_partition(
            lo_ne,
            hi_ne,
            gf.scales.lengths,
            min(n_disks, max(1, nonempty.size)),
            rng=rng,
            weight=self.weight,
            seeding=self.seeding,
            intervals=self._interval_weights(lo_ne, hi_ne, gf.scales.lengths),
        )
        assignment = np.zeros(gf.n_buckets, dtype=np.int64)
        assignment[nonempty] = part
        empty = np.setdiff1d(np.arange(gf.n_buckets), nonempty, assume_unique=False)
        assignment[empty] = np.arange(empty.size) % n_disks
        return validate_assignment(assignment, gf.n_buckets, n_disks)
