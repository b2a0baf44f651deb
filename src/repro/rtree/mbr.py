"""Minimum bounding rectangles (MBRs) for the R-tree."""

from __future__ import annotations

import numpy as np

__all__ = ["MBR"]


class MBR:
    """A closed axis-aligned box ``[lo, hi]`` (degenerate boxes allowed).

    Unlike a grid-file bucket's cell box (integer, half-open, grid-aligned;
    see :meth:`repro.gridfile.GridFile.bucket_cell_boxes`) an MBR lives in
    continuous domain coordinates and may be a point.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        self.lo = np.asarray(lo, dtype=np.float64).copy()
        self.hi = np.asarray(hi, dtype=np.float64).copy()
        if self.lo.shape != self.hi.shape or self.lo.ndim != 1:
            raise ValueError("lo/hi must be 1-d arrays of equal shape")
        if np.any(self.lo > self.hi):
            raise ValueError(f"inverted MBR: lo={self.lo}, hi={self.hi}")

    @classmethod
    def of_point(cls, p) -> "MBR":
        """Degenerate MBR around a single point."""
        p = np.asarray(p, dtype=np.float64)
        return cls(p, p)

    @classmethod
    def of_points(cls, pts: np.ndarray) -> "MBR":
        """Tight MBR of a non-empty point set."""
        pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
        if pts.size == 0:
            raise ValueError("cannot bound an empty point set")
        return cls(pts.min(axis=0), pts.max(axis=0))

    @property
    def dims(self) -> int:
        """Dimensionality."""
        return self.lo.shape[0]

    @property
    def center(self) -> np.ndarray:
        """Box center."""
        return (self.lo + self.hi) / 2.0

    def area(self) -> float:
        """Volume of the box (0 for degenerate boxes)."""
        return float(np.prod(self.hi - self.lo))

    def union(self, other: "MBR") -> "MBR":
        """Smallest MBR covering both boxes."""
        return MBR(np.minimum(self.lo, other.lo), np.maximum(self.hi, other.hi))

    def enlargement(self, other: "MBR") -> float:
        """Area increase needed to also cover ``other`` (Guttman's metric)."""
        return self.union(other).area() - self.area()

    def intersects(self, lo, hi) -> bool:
        """Whether the closed boxes overlap (touching counts)."""
        return bool(np.all(self.lo <= hi) and np.all(lo <= self.hi))

    def contains_box(self, other: "MBR") -> bool:
        """Whether ``other`` lies entirely inside this box."""
        return bool(np.all(self.lo <= other.lo) and np.all(other.hi <= self.hi))

    def contains_point(self, p) -> bool:
        """Whether the point lies inside the closed box."""
        p = np.asarray(p, dtype=np.float64)
        return bool(np.all(self.lo <= p) and np.all(p <= self.hi))

    def copy(self) -> "MBR":
        """Deep copy."""
        return MBR(self.lo, self.hi)

    def __eq__(self, other):
        if not isinstance(other, MBR):
            return NotImplemented
        return np.array_equal(self.lo, other.lo) and np.array_equal(self.hi, other.hi)

    def __hash__(self):
        return hash((self.lo.tobytes(), self.hi.tobytes()))

    def __repr__(self) -> str:
        return f"MBR({self.lo.tolist()}, {self.hi.tolist()})"
