"""DurableGridFile: create/commit/reopen roundtrip fidelity.

A reopened store must rebuild a grid file that is *observably identical*
to the live one — same records, same structure, same query answers, and
(the property the crash harness leans on) same future behaviour: applying
the same operation to both must produce byte-identical catalogs.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.gridfile import GridFile
from repro.storage import DurableGridFile, StorageError, default_workload

CAPACITY = 4


def _fresh_gf():
    return GridFile.empty([0.0, 0.0], [1.0, 1.0], capacity=CAPACITY, reserve=4)


def _populated(tmp_path, n_ops=40, seed=7):
    d = DurableGridFile.create(_fresh_gf(), tmp_path / "store", page_size=512)
    for op in default_workload(n_ops=n_ops, capacity=CAPACITY, seed=seed):
        d.apply(op)
    return d


def _assert_same_gridfile(a: GridFile, b: GridFile):
    assert a.n_records == b.n_records
    assert a.n_deleted == b.n_deleted
    assert a._deleted == b._deleted
    assert a._next_split_dim == b._next_split_dim
    assert a.capacity == b.capacity
    assert a.split_policy == b.split_policy
    assert (a.merge_trigger, a.merge_fill) == (b.merge_trigger, b.merge_fill)
    assert a.n_buckets == b.n_buckets
    assert a.directory.shape == b.directory.shape
    np.testing.assert_array_equal(a.directory.grid, b.directory.grid)
    for sa, sb in zip(a.scales.boundaries, b.scales.boundaries):
        np.testing.assert_array_equal(sa, sb)
    for box_a, box_b in zip(a.bucket_cell_boxes(), b.bucket_cell_boxes()):
        np.testing.assert_array_equal(box_a, box_b)
    for ba, bb in zip(a.buckets, b.buckets):
        assert ba.id == bb.id
        assert ba.overflowed == bb.overflowed
        assert sorted(ba.record_ids) == sorted(bb.record_ids)
    live = a.live_record_ids()
    np.testing.assert_array_equal(np.sort(live), np.sort(b.live_record_ids()))
    np.testing.assert_allclose(a.points[live], b.points[live])


def test_create_then_open_empty(tmp_path):
    d = DurableGridFile.create(_fresh_gf(), tmp_path / "store", page_size=512)
    d.close()
    d2 = DurableGridFile.open(tmp_path / "store", page_size=512)
    assert d2.gf.n_records == 0
    d2.gf.check_invariants()
    d2.close()


def test_roundtrip_after_workload(tmp_path):
    d = _populated(tmp_path)
    d.gf.check_invariants()
    d.close()

    d2 = DurableGridFile.open(tmp_path / "store", page_size=512)
    d2.gf.check_invariants()
    _assert_same_gridfile(d.gf, d2.gf)
    d2.close()


def test_roundtrip_preserves_queries(tmp_path):
    d = _populated(tmp_path, n_ops=60)
    d.close()
    d2 = DurableGridFile.open(tmp_path / "store", page_size=512)
    rng = np.random.default_rng(3)
    for _ in range(20):
        a, b = rng.random(2), rng.random(2)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        got = np.sort(d2.gf.query_records(lo, hi))
        want = np.sort(d.gf.query_records(lo, hi))
        np.testing.assert_array_equal(got, want)
    d2.close()


def test_roundtrip_preserves_deletions(tmp_path):
    """A file that already has deletions reopens with the same tombstones."""
    rng = np.random.default_rng(5)
    gf = GridFile.from_points(rng.uniform(0, 100, size=(60, 2)), [0, 0], [100, 100], 8)
    gf.delete_records([1, 5, 9])
    DurableGridFile.create(gf, tmp_path / "store", page_size=512).close()
    d2 = DurableGridFile.open(tmp_path / "store", page_size=512)
    d2.gf.check_invariants()
    assert d2.gf.n_records == 57
    assert d2.gf.n_deleted == 3
    _assert_same_gridfile(gf, d2.gf)
    np.testing.assert_array_equal(
        d2.gf.query_records([0, 0], [100, 100]), gf.query_records([0, 0], [100, 100])
    )
    d2.close()


def test_reopened_store_continues_identically(tmp_path):
    """Same ops applied to the live and the reopened file → same bytes."""
    ops = default_workload(n_ops=50, capacity=CAPACITY, seed=11)
    head, tail = ops[:30], ops[30:]

    d = DurableGridFile.create(_fresh_gf(), tmp_path / "a", page_size=512)
    for op in head:
        d.apply(op)
    d.close()

    # continue the stored file after a reopen...
    d2 = DurableGridFile.open(tmp_path / "a", page_size=512)
    for op in tail:
        d2.apply(op)
    d2.checkpoint()
    d2.close()

    # ...and compare with the never-reopened oracle
    oracle = DurableGridFile.create(_fresh_gf(), tmp_path / "b", page_size=512)
    for op in ops:
        oracle.apply(op)
    oracle.checkpoint()
    oracle.close()

    got = (tmp_path / "a" / "pages.dat").read_bytes()
    want = (tmp_path / "b" / "pages.dat").read_bytes()
    assert got == want


def test_commit_op_noop_without_changes(tmp_path):
    d = _populated(tmp_path, n_ops=10)
    assert d.commit_op() is None  # nothing dirty
    seq = d.engine.commit_seq
    assert d.commit_op() is None
    assert d.engine.commit_seq == seq
    d.close()


def test_multi_page_bucket_blobs(tmp_path):
    """Coincident points overflow one bucket past a single 512-byte page."""
    gf = _fresh_gf()
    d = DurableGridFile.create(gf, tmp_path / "store", page_size=512)
    p = np.array([0.5, 0.5])
    for _ in range(40):  # 40 records * 24 bytes > one page payload
        d.insert(p)
    d.close()
    d2 = DurableGridFile.open(tmp_path / "store", page_size=512)
    assert d2.gf.n_records == 40
    d2.gf.check_invariants()
    assert any(len(pages) > 1 for pages in d2._bucket_pages.values())
    d2.close()


def test_open_rejects_rootless_store(tmp_path):
    from repro.storage import StorageEngine

    StorageEngine.create(tmp_path / "store", page_size=512).close()
    with pytest.raises(StorageError):
        DurableGridFile.open(tmp_path / "store", page_size=512)


def test_open_rejects_catalog_boxes_that_disagree_with_directory(tmp_path):
    """Cell boxes are derived from the directory; the catalog copy must agree."""
    d = _populated(tmp_path, n_ops=40)
    cat = json.loads(d._catalog_blob())
    cat["buckets"][0]["hi"][0] += 1
    d._catalog_blob = lambda: json.dumps(cat, sort_keys=True).encode("ascii")
    d._pending = True
    d.commit_op()
    d.close()
    with pytest.raises(StorageError, match="cell boxes"):
        DurableGridFile.open(tmp_path / "store", page_size=512)


def test_delete_releases_pages(tmp_path):
    """Deleting everything shrinks back to one bucket and recycles pages."""
    d = DurableGridFile.create(_fresh_gf(), tmp_path / "store", page_size=512)
    rng = np.random.default_rng(5)
    rids = [d.insert(rng.random(2)) for _ in range(30)]
    peak = d.engine.allocator.next_page_id
    for rid in rids:
        d.delete(rid)
    assert d.gf.n_records == 0
    # all bucket pages for removed buckets returned to the free-list
    assert len(d.engine.allocator.free_pages) > 0
    assert d.engine.allocator.next_page_id == peak  # nothing leaked past peak
    assert d.engine.fsck().ok
    d.close()
