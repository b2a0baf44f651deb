"""Durable grid files: a GridFile paged onto a transactional StorageEngine.

:class:`DurableGridFile` keeps a live in-memory
:class:`~repro.gridfile.GridFile` (all queries stay vectorized and
unchanged) and mirrors its state onto engine pages:

* each bucket serialises to a small binary blob — record ids plus their
  coordinates — chunked across one or more pages;
* a JSON **catalog** blob holds everything else needed to rebuild the
  grid file (scales, directory, deleted set, split cursor) plus the page
  list of every bucket blob, and each bucket's cell box, which
  :meth:`DurableGridFile.open` checks against the directory;
* the engine's root blob points at the catalog pages.

The class subscribes to the grid file's structural listener events
(:meth:`GridFile.add_listener`), so splits, merges, bucket removals and
refinements mark exactly the right pages dirty.  :meth:`commit_op`
flushes everything dirtied since the last call as **one** engine
transaction — the natural unit is one logical operation (one insert or
delete, including any restructuring it triggered), which makes recovery
land precisely on an operation boundary.

Determinism: page allocation, blob bytes and the catalog JSON are all
deterministic functions of the operation sequence, so a crashed store
that is recovered and replayed to the same operation count is
byte-identical to a never-crashed one (the crash-injection harness in
:mod:`repro.storage.harness` asserts exactly this).
"""

from __future__ import annotations

import json
import struct

import numpy as np

from repro.gridfile.bucket import Bucket
from repro.gridfile.directory import Directory
from repro.gridfile.gridfile import GridFile
from repro.gridfile.scales import Scales
from repro.storage.engine import StorageEngine
from repro.storage.page import HEADER_SIZE, StorageError

__all__ = ["DurableGridFile"]

_BUCKET_HEADER = "<III"  # bucket id, n_records, dims
_BUCKET_HEADER_SIZE = struct.calcsize(_BUCKET_HEADER)


def _bucket_blob(gf: GridFile, bucket: Bucket) -> bytes:
    rec = bucket.record_array()
    coords = gf.points[rec] if rec.size else np.empty((0, gf.dims))
    return (
        struct.pack(_BUCKET_HEADER, bucket.id, rec.size, gf.dims)
        + rec.astype("<i8").tobytes()
        + coords.astype("<f8").tobytes()
    )


def _parse_bucket_blob(blob: bytes, expected_bid: int, dims: int):
    if len(blob) < _BUCKET_HEADER_SIZE:
        raise StorageError(f"bucket {expected_bid}: blob too short ({len(blob)} bytes)")
    bid, n_rec, d = struct.unpack_from(_BUCKET_HEADER, blob)
    if bid != expected_bid or d != dims:
        raise StorageError(
            f"bucket {expected_bid}: blob header mismatch (id={bid}, dims={d})"
        )
    off = _BUCKET_HEADER_SIZE
    rids = np.frombuffer(blob, dtype="<i8", count=n_rec, offset=off)
    off += 8 * n_rec
    coords = np.frombuffer(blob, dtype="<f8", count=n_rec * d, offset=off)
    return rids.astype(np.int64), coords.reshape(n_rec, d).astype(np.float64)


class DurableGridFile:
    """A grid file whose every committed operation survives a crash.

    Build one with :meth:`create` (wrap a fresh in-memory grid file) or
    :meth:`open` (rebuild from disk, running crash recovery first).  The
    live grid file is ``self.gf``; mutate it directly (or via
    :meth:`insert` / :meth:`delete`) and call :meth:`commit_op` at each
    operation boundary.
    """

    def __init__(self, gf: GridFile, engine: StorageEngine, catalog_pages, bucket_pages):
        self.gf = gf
        self.engine = engine
        self._catalog_pages: list[int] = list(catalog_pages)
        self._bucket_pages: dict[int, list[int]] = {
            int(b): list(p) for b, p in bucket_pages.items()
        }
        self._dirty: set[int] = set()
        self._freed: list[int] = []
        self._pending = False
        gf.add_listener(self)

    # ----------------------------------------------------------- lifecycle

    @classmethod
    def create(cls, gf: GridFile, directory, **engine_kwargs) -> "DurableGridFile":
        """Persist ``gf`` into a freshly created store (full snapshot)."""
        engine = StorageEngine.create(directory, **engine_kwargs)
        d = cls(gf, engine, [], {})
        d._dirty.update(range(gf.n_buckets))
        d._pending = True
        d.commit_op()
        return d

    @classmethod
    def open(cls, directory, recover: bool = True, **engine_kwargs) -> "DurableGridFile":
        """Rebuild the grid file from disk (crash recovery runs first)."""
        engine = StorageEngine.open(directory, recover=recover, **engine_kwargs)
        try:
            root = json.loads(engine.root.decode("ascii"))
            catalog_pages = [int(p) for p in root["catalog_pages"]]
        except (ValueError, KeyError) as exc:
            engine.close()
            raise StorageError(f"store root does not name a catalog: {exc}") from None
        blob = b"".join(engine.read(p) for p in catalog_pages)
        cat = json.loads(blob.decode("ascii"))
        scales = Scales(
            np.array(cat["domain_lo"]),
            np.array(cat["domain_hi"]),
            [np.array(b, dtype=np.float64) for b in cat["boundaries"]],
        )
        grid = np.array(cat["directory"], dtype=np.int64).reshape(cat["directory_shape"])
        directory_obj = Directory.from_array(grid)
        dims = scales.dims
        n = int(cat["n"])
        points = np.zeros((n, dims), dtype=np.float64)
        buckets = []
        bucket_pages = {}
        for bid, entry in enumerate(cat["buckets"]):
            pages = [int(p) for p in entry["pages"]]
            rids, coords = _parse_bucket_blob(
                b"".join(engine.read(p) for p in pages), bid, dims
            )
            bucket = Bucket(bid, rids.tolist())
            bucket.overflowed = bool(entry["overflowed"])
            buckets.append(bucket)
            bucket_pages[bid] = pages
            if rids.size:
                points[rids] = coords
        gf = GridFile(
            scales, directory_obj, buckets, points, cat["capacity"], cat["split_policy"]
        )
        lo, hi = gf.bucket_cell_boxes()
        entries = cat["buckets"]
        if [e["lo"] for e in entries] != lo.tolist() or [e["hi"] for e in entries] != hi.tolist():
            engine.close()
            raise StorageError("catalog cell boxes disagree with the directory")
        gf._deleted = set(int(r) for r in cat["deleted"])
        gf._next_split_dim = int(cat["next_split_dim"])
        gf.merge_trigger = float(cat["merge_trigger"])
        gf.merge_fill = float(cat["merge_fill"])
        return cls(gf, engine, catalog_pages, bucket_pages)

    def close(self) -> None:
        """Detach from the grid file and close the engine."""
        self.gf.remove_listener(self)
        self.engine.close()

    def checkpoint(self) -> None:
        """fsync the device and truncate the WAL (engine checkpoint)."""
        self.engine.checkpoint()

    # ------------------------------------------------------ listener events

    def on_record(self, gf, bucket_id, kind) -> None:
        self._dirty.add(bucket_id)
        self._pending = True

    def on_split(self, gf, bucket_id, new_bucket_id) -> None:
        self._dirty.add(bucket_id)
        self._dirty.add(new_bucket_id)
        self._pending = True

    def on_merge(self, gf, survivor_id, absorbed_id) -> None:
        self._dirty.add(survivor_id)
        self._pending = True

    def on_remove(self, gf, bucket_id, moved_id) -> None:
        self._freed.extend(self._bucket_pages.pop(bucket_id, []))
        self._dirty.discard(bucket_id)
        if moved_id is not None:
            # The last bucket was renumbered into the freed slot; its blob
            # encodes the bucket id, so it must be rewritten either way.
            self._bucket_pages[bucket_id] = self._bucket_pages.pop(moved_id, [])
            self._dirty.discard(moved_id)
            self._dirty.add(bucket_id)
        self._pending = True

    def on_refine(self, gf, dim, interval) -> None:
        # Scales, directory and every cell box live in the catalog, which
        # is rewritten on every commit anyway.
        self._pending = True

    # ------------------------------------------------------------- commits

    def _chunks(self, blob: bytes) -> list[bytes]:
        cap = self.engine.page_size - HEADER_SIZE
        return [blob[i : i + cap] for i in range(0, len(blob), cap)] or [b""]

    def _write_blob(self, blob: bytes, old_pages: list) -> list:
        """Stage ``blob`` over pages, reusing ``old_pages`` prefix-first."""
        chunks = self._chunks(blob)
        pages = list(old_pages[: len(chunks)])
        while len(pages) < len(chunks):
            pages.append(self.engine.alloc())
        for pid in old_pages[len(chunks) :]:
            self.engine.release(pid)
        for pid, chunk in zip(pages, chunks):
            self.engine.put(pid, chunk)
        return pages

    def _catalog_blob(self) -> bytes:
        gf = self.gf
        lo, hi = gf.bucket_cell_boxes()
        cat = {
            "capacity": gf.capacity,
            "split_policy": gf.split_policy,
            "merge_trigger": gf.merge_trigger,
            "merge_fill": gf.merge_fill,
            "n": gf._n,
            "next_split_dim": gf._next_split_dim,
            "deleted": sorted(int(r) for r in gf._deleted),
            "domain_lo": gf.scales.domain_lo.tolist(),
            "domain_hi": gf.scales.domain_hi.tolist(),
            "boundaries": [b.tolist() for b in gf.scales.boundaries],
            "directory_shape": list(gf.directory.shape),
            "directory": gf.directory.grid.ravel().tolist(),
            "buckets": [
                {
                    "lo": b_lo,
                    "hi": b_hi,
                    "overflowed": b.overflowed,
                    "pages": self._bucket_pages.get(b.id, []),
                }
                for b, b_lo, b_hi in zip(gf.buckets, lo.tolist(), hi.tolist())
            ],
        }
        return json.dumps(cat, sort_keys=True, separators=(",", ":")).encode("ascii")

    def commit_op(self) -> "int | None":
        """Commit everything dirtied since the last call as one transaction.

        Returns the txid, or ``None`` when nothing changed.
        """
        if not self._pending:
            return None
        self.engine.begin()
        for pid in self._freed:
            self.engine.release(pid)
        for bid in sorted(b for b in self._dirty if b < self.gf.n_buckets):
            blob = _bucket_blob(self.gf, self.gf.buckets[bid])
            self._bucket_pages[bid] = self._write_blob(
                blob, self._bucket_pages.get(bid, [])
            )
        self._catalog_pages = self._write_blob(self._catalog_blob(), self._catalog_pages)
        self.engine.set_root(
            json.dumps({"catalog_pages": self._catalog_pages}).encode("ascii")
        )
        txid = self.engine.commit()
        self._dirty.clear()
        self._freed.clear()
        self._pending = False
        return txid

    # -------------------------------------------------------- conveniences

    def insert(self, coords) -> int:
        """Insert a point and commit the operation; returns the record id."""
        rid = self.gf.insert_point(coords)
        self.commit_op()
        return rid

    def delete(self, rid: int) -> None:
        """Delete a record and commit the operation."""
        self.gf.delete_record(rid)
        self.commit_op()

    def apply(self, op) -> None:
        """Apply one ``("insert", coords)`` / ``("delete", rid)`` op and commit."""
        kind, arg = op
        if kind == "insert":
            self.insert(arg)
        elif kind == "delete":
            self.delete(int(arg))
        else:
            raise ValueError(f"unknown op kind {kind!r}")
