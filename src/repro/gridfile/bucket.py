"""Data buckets: the unit of disk storage and of declustering."""

from __future__ import annotations

import numpy as np

__all__ = ["Bucket"]


class Bucket:
    """A grid-file data bucket.

    A bucket stores the records of a box-shaped region of grid cells and is
    the unit placed on a disk by declustering.  The region itself is kept by
    the owning grid file (:meth:`GridFile.bucket_cell_boxes`, one row per
    bucket id).  Records are held as integer
    ids into the grid file's shared point array (column-oriented storage —
    the numpy-friendly layout the simulation works on).

    Attributes
    ----------
    id:
        Stable bucket id; also the value stored in the directory.
    record_ids:
        List of record indices into ``GridFile.points``.  Assigning a new
        list drops :attr:`coords`; code that mutates the list in place
        (``append``/``remove``/``extend``) must set ``coords = None`` itself.
    coords:
        Cached ``points[record_ids]`` (read-only), filled lazily by
        :meth:`GridFile.bucket_coords`; ``None`` while stale.  It lives on
        the bucket, so it follows the bucket through swap-removal
        renumbering.
    overflowed:
        True when the bucket holds more than ``capacity`` records because no
        scale boundary can separate them (all remaining records coincide in
        every splittable dimension).  Real grid files chain overflow pages in
        this situation; we keep the records in place and flag it.
    """

    __slots__ = ("id", "_record_ids", "coords", "overflowed")

    def __init__(self, bucket_id: int, record_ids=None):
        self.id = int(bucket_id)
        self.record_ids = list(record_ids) if record_ids is not None else []
        self.overflowed = False

    @property
    def record_ids(self) -> list[int]:
        """Record indices into ``GridFile.points``."""
        return self._record_ids

    @record_ids.setter
    def record_ids(self, value: list[int]) -> None:
        self._record_ids = value
        self.coords = None

    @property
    def n_records(self) -> int:
        """Number of records currently stored."""
        return len(self._record_ids)

    def record_array(self) -> np.ndarray:
        """Record ids as an int64 array (copy)."""
        return np.asarray(self._record_ids, dtype=np.int64)

    def __repr__(self) -> str:
        return f"Bucket(id={self.id}, records={self.n_records})"
