"""The grid directory: a dense d-dimensional array of bucket ids.

One entry per grid cell.  Multiple entries may carry the same bucket id —
that is exactly the grid file's "merged subspaces".  Refinement (inserting a
new scale boundary) duplicates one hyperplane slab of the array, which leaves
every bucket's region box-shaped.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Directory"]


class Directory:
    """Dense grid directory mapping cells to bucket ids.

    Parameters
    ----------
    shape:
        Directory shape (``Scales.nintervals``).
    fill:
        Bucket id initially assigned to every cell.
    """

    def __init__(self, shape: tuple[int, ...], fill: int = 0):
        self.grid = np.full(shape, fill, dtype=np.int32)

    @classmethod
    def from_array(cls, grid: np.ndarray) -> "Directory":
        """Wrap an existing integer array (copied) as a directory."""
        out = cls.__new__(cls)
        out.grid = np.asarray(grid, dtype=np.int32).copy()
        return out

    @property
    def shape(self) -> tuple[int, ...]:
        """Number of intervals along each dimension."""
        return self.grid.shape

    @property
    def dims(self) -> int:
        """Dimensionality of the directory."""
        return self.grid.ndim

    @property
    def n_cells(self) -> int:
        """Total number of cells."""
        return self.grid.size

    def bucket_at(self, cell) -> int:
        """Bucket id stored for a single cell index vector."""
        return int(self.grid[tuple(np.asarray(cell, dtype=np.int64))])

    def buckets_at(self, cells: np.ndarray) -> np.ndarray:
        """Bucket ids for an ``(n, d)`` array of cell index vectors."""
        cells = np.asarray(cells, dtype=np.int64)
        return self.grid[tuple(cells[:, k] for k in range(self.dims))]

    def set_box(self, lo, hi, bucket_id: int) -> None:
        """Assign every cell of the half-open box ``[lo, hi)`` to ``bucket_id``."""
        self.grid[tuple(map(slice, lo, hi))] = bucket_id

    def buckets_in_ranges(self, ranges) -> np.ndarray:
        """Unique bucket ids inside per-dimension half-open cell ranges.

        Parameters
        ----------
        ranges:
            Sequence of ``(start, stop)`` pairs, one per dimension.

        Returns
        -------
        numpy.ndarray
            Sorted unique bucket ids of the sub-box.
        """
        sl = tuple(slice(int(a), int(b)) for a, b in ranges)
        return np.unique(self.grid[sl])

    def refine(self, dim: int, interval: int) -> None:
        """Duplicate interval ``interval`` along ``dim`` (scale refinement).

        After refinement the old interval's cells appear twice (indices
        ``interval`` and ``interval + 1``); bucket regions are preserved.
        Callers that keep cell boxes must shift them too: along ``dim``
        every box bound above ``interval`` moves up by one (``GridFile``
        does this for all its buckets in one vectorised step).
        """
        if not 0 <= interval < self.grid.shape[dim]:
            raise IndexError(
                f"interval {interval} out of range for dim {dim} "
                f"(shape {self.grid.shape})"
            )
        dup = np.take(self.grid, [interval], axis=dim)
        self.grid = np.concatenate(
            [
                np.take(self.grid, range(interval + 1), axis=dim),
                dup,
                np.take(self.grid, range(interval + 1, self.grid.shape[dim]), axis=dim),
            ],
            axis=dim,
        )

    def region_of(self, bucket_id: int) -> tuple[np.ndarray, np.ndarray]:
        """Bounding cell box ``(lo, hi)`` of all cells carrying ``bucket_id``.

        For a well-formed grid file this box contains *only* that bucket's
        cells (checked by ``GridFile.check_invariants``).
        """
        mask = self.grid == bucket_id
        if not mask.any():
            raise KeyError(f"bucket {bucket_id} not present in directory")
        idx = np.nonzero(mask)
        lo = np.array([int(ix.min()) for ix in idx], dtype=np.int64)
        hi = np.array([int(ix.max()) + 1 for ix in idx], dtype=np.int64)
        return lo, hi

    def copy(self) -> "Directory":
        """Deep copy."""
        return Directory.from_array(self.grid)

    def __repr__(self) -> str:
        return f"Directory(shape={self.grid.shape}, n_buckets~{len(np.unique(self.grid))})"
