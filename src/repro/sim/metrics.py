"""Secondary metrics: data balance, closest-pair collisions, speedup.

* **Degree of data balance** (paper §2.2): ``B_max · M / B_sum`` over the
  per-disk counts of non-empty data buckets — 1.0 is perfect, larger is
  worse (Table 1).
* **Closest pairs on the same disk** (Tables 2–3): how often a bucket and
  its nearest neighbour (highest proximity) share a disk — the direct
  measure of how well a method separates co-accessed buckets.
* **Speedup** (Figure 7, right): response time at the smallest configuration
  divided by response time at M disks.
"""

from __future__ import annotations

import numpy as np

from repro._util import check_positive_int
from repro.core.proximity import proximity_index
from repro.gridfile.gridfile import GridFile

__all__ = [
    "degree_of_data_balance",
    "nearest_neighbors",
    "closest_pairs_same_disk",
    "speedup_series",
]


def degree_of_data_balance(assignment: np.ndarray, n_disks: int, sizes=None) -> float:
    """``B_max * M / B_sum`` over non-empty buckets (1.0 = perfect balance).

    Parameters
    ----------
    assignment:
        ``(n_buckets,)`` disk ids.
    n_disks:
        Number of disks ``M``.
    sizes:
        Optional per-bucket record counts; buckets with zero records occupy
        no disk page and are excluded.
    """
    check_positive_int(n_disks, "n_disks")
    assignment = np.asarray(assignment, dtype=np.int64)
    if sizes is not None:
        assignment = assignment[np.asarray(sizes) > 0]
    if assignment.size == 0:
        return 1.0
    counts = np.bincount(assignment, minlength=n_disks)
    return float(counts.max() * n_disks / counts.sum())


def nearest_neighbors(lo: np.ndarray, hi: np.ndarray, lengths) -> np.ndarray:
    """Index of each box's nearest neighbour under the proximity index.

    O(n²) row-streamed; ties resolved to the lowest index (deterministic).
    """
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    n = lo.shape[0]
    out = np.empty(n, dtype=np.int64)
    for i in range(n):
        sim = proximity_index(lo[i], hi[i], lo, hi, lengths)
        sim[i] = -np.inf
        out[i] = int(np.argmax(sim))
    return out


def closest_pairs_same_disk(
    gf: GridFile, assignment: np.ndarray, neighbors: "np.ndarray | None" = None
) -> int:
    """Number of closest bucket pairs mapped to the same disk (Tables 2–3).

    A *closest pair* is an unordered pair ``{x, nn(x)}`` where ``nn(x)`` is
    the non-empty bucket with the highest proximity to ``x``; the count is
    over distinct pairs whose members share a disk.

    Parameters
    ----------
    gf:
        The grid file (non-empty buckets define the pairs).
    assignment:
        ``(n_buckets,)`` disk ids.
    neighbors:
        Optional already-computed :func:`nearest_neighbors` over the non-empty
        buckets (pass it when sweeping methods over one grid file).
    """
    assignment = np.asarray(assignment, dtype=np.int64)
    nonempty = gf.nonempty_bucket_ids()
    if nonempty.size < 2:
        return 0
    if neighbors is None:
        lo, hi = gf.bucket_regions()
        neighbors = nearest_neighbors(lo[nonempty], hi[nonempty], gf.scales.lengths)
    disks = assignment[nonempty]
    same = disks == disks[neighbors]
    idx = np.arange(nonempty.size)
    pairs = {(min(a, b), max(a, b)) for a, b in zip(idx[same], neighbors[same])}
    return len(pairs)


def speedup_series(responses, baseline_index: int = 0) -> np.ndarray:
    """Speedup relative to the smallest configuration (Figure 7, right).

    ``speedup[i] = responses[baseline_index] / responses[i]``.
    """
    responses = np.asarray(responses, dtype=np.float64)
    base = responses[baseline_index]
    if base <= 0:
        raise ValueError("baseline response time must be positive")
    return base / responses
