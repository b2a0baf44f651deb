"""Structural golden pins for grid-file builds.

A sha256 over everything that defines a built grid file: the directory
grid, every bucket's cell box (``bucket_cell_boxes()``), the scale
boundaries, each bucket's record ids and its overflow flag.  Any change to
splitting, refinement, merging, bulk loading or the Cartesian builder that
moves a single record or boundary changes the digest.  The values were
captured with the same recipe before bucket cell boxes became arrays owned
by ``GridFile``.
"""

import hashlib

import numpy as np
import pytest

from repro.datasets import build_gridfile, load
from repro.gridfile import cartesian_product_file

SEED = 1996


def structure_digest(gf) -> str:
    h = hashlib.sha256()
    h.update(np.asarray(gf.directory.shape, dtype="<i8").tobytes())
    h.update(gf.directory.grid.astype("<i8").tobytes())
    lo, hi = gf.bucket_cell_boxes()
    h.update(np.asarray(lo, dtype="<i8").tobytes())
    h.update(np.asarray(hi, dtype="<i8").tobytes())
    for b in gf.scales.boundaries:
        h.update(np.asarray(b.size, dtype="<i8").tobytes())
        h.update(np.asarray(b, dtype="<f8").tobytes())
    for bid in range(gf.n_buckets):
        rec = gf.records_in_bucket(bid)
        h.update(np.asarray(rec.size, dtype="<i8").tobytes())
        h.update(rec.astype("<i8").tobytes())
    h.update(np.array([b.overflowed for b in gf.buckets], dtype=np.uint8).tobytes())
    return h.hexdigest()


GOLDEN = {
    "uniform.2d": "5fc9b42332f567012364adaea4ed6be2087f16d7134876c2a88a2dde78d60134",
    "hot.2d": "6315f00d00398c238c51275b5ce1c0ba1c9caa2a0d446c29a39ae314f163750e",
    "correl.2d": "4a35abf39e8d13f926f18799588d8595f5e040b967150ef01c84b54eefe4210b",
    "dsmc.3d": "068d947725d09a73cc740f61896423b32419a2c608037faa132a29f40b52041d",
    "stock.3d": "36393b28f08c8989262c026c3bdc7adf2bc8ae5682b3b908a82839a298de2c7c",
}
GOLDEN_CARTESIAN = "4bd0eb92639a1ec906cac81133e6051576a03bffac14f3ffe40f1f99d2b80e37"
GOLDEN_HOT_20K = "0cdcc26eaad4ca7de03bce8fa8bcc6b11283b1d226192b6a81a23f4e93bbf54e"


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_dataset_build_structure_pinned(name):
    gf = build_gridfile(load(name, rng=SEED))
    gf.check_invariants()
    assert structure_digest(gf) == GOLDEN[name]


def test_cartesian_structure_pinned():
    ds = load("correl.2d", rng=SEED)
    gf = cartesian_product_file(
        ds.points, ds.domain_lo, ds.domain_hi, (12, 9), scale_mode="quantile"
    )
    assert gf.n_buckets == 108
    gf.check_invariants()
    assert structure_digest(gf) == GOLDEN_CARTESIAN


@pytest.mark.slow
def test_hot_20k_capacity4_structure_pinned():
    gf = build_gridfile(load("hot.2d", rng=SEED, n=20_000), capacity=4)
    assert gf.n_buckets == 6990
    assert structure_digest(gf) == GOLDEN_HOT_20K
