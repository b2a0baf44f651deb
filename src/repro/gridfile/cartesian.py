"""Cartesian product files: the no-merging special case.

A Cartesian product file stores every subspace (cell) in its own disk
bucket.  Index-based declustering schemes (DM, FX, HCAM) were designed for
this structure, and the paper's Theorems 1–2 are stated over it.  We model it
as a :class:`~repro.gridfile.gridfile.GridFile` whose directory is a
permutation (bucket id == flattened cell index), so all downstream machinery
(queries, declustering, simulation) applies unchanged.
"""

from __future__ import annotations

import numpy as np

from repro.gridfile.bucket import Bucket
from repro.gridfile.bulkload import equal_width_boundaries, quantile_boundaries
from repro.gridfile.directory import Directory
from repro.gridfile.gridfile import GridFile
from repro.gridfile.scales import Scales

__all__ = ["cartesian_scales", "cartesian_product_file"]


def cartesian_scales(
    domain_lo,
    domain_hi,
    resolution,
    points: "np.ndarray | None" = None,
    scale_mode: str = "equal",
) -> Scales:
    """Scales for a Cartesian product file of the given per-dim resolution."""
    domain_lo = np.asarray(domain_lo, dtype=np.float64)
    domain_hi = np.asarray(domain_hi, dtype=np.float64)
    boundaries = []
    for k, n_k in enumerate(resolution):
        if scale_mode == "equal":
            boundaries.append(equal_width_boundaries(int(n_k), domain_lo[k], domain_hi[k]))
        elif scale_mode == "quantile":
            if points is None:
                raise ValueError("quantile scales need the point set")
            boundaries.append(
                quantile_boundaries(points[:, k], int(n_k), domain_lo[k], domain_hi[k])
            )
        else:
            raise ValueError(f"unknown scale_mode {scale_mode!r}")
    return Scales(domain_lo, domain_hi, boundaries)


def cartesian_product_file(
    points: np.ndarray,
    domain_lo,
    domain_hi,
    resolution,
    scale_mode: str = "equal",
    capacity: "int | None" = None,
) -> GridFile:
    """Build a Cartesian product file: one bucket per cell, no merging.

    Parameters
    ----------
    points:
        ``(n, d)`` records (may be empty — the analytic theorems only need
        the structure).
    domain_lo, domain_hi:
        Closed data domain.
    resolution:
        Number of intervals per dimension.
    scale_mode:
        ``"equal"`` width (default) or ``"quantile"``.
    capacity:
        Declared bucket capacity; purely informational here (cells are never
        split), defaults to a bound that never flags overflow.

    Returns
    -------
    GridFile
        Grid file with ``bucket id == flattened cell index`` (row-major).
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError("points must be a 2-d array")
    scales = cartesian_scales(domain_lo, domain_hi, resolution, points, scale_mode)
    shape = scales.nintervals
    n_cells = int(np.prod(shape))
    directory = Directory.from_array(np.arange(n_cells, dtype=np.int32).reshape(shape))

    buckets = [Bucket(flat) for flat in range(n_cells)]

    if len(points):
        cells = scales.locate(points)
        flat = np.ravel_multi_index(tuple(cells[:, k] for k in range(scales.dims)), shape)
        order = np.argsort(flat, kind="stable")
        sorted_flat = flat[order]
        starts = np.searchsorted(sorted_flat, np.arange(n_cells))
        ends = np.searchsorted(sorted_flat, np.arange(n_cells) + 1)
        for bid in range(n_cells):
            buckets[bid].record_ids = order[starts[bid] : ends[bid]].tolist()

    if capacity is None:
        capacity = max(2, max((b.n_records for b in buckets), default=2))
    gf = GridFile(scales, directory, buckets, points, capacity)
    return gf
