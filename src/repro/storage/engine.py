"""Transactional storage engine: meta page + allocator + WAL over a device.

A :class:`StorageEngine` owns two files inside one directory::

    <dir>/pages.dat   the page device (any BlockStore backend)
    <dir>/wal.log     the write-ahead log (unless durability is "off")

Page 0 is the **meta page**; its payload carries the commit sequence
number, an opaque *root* blob (the client's catalog pointer) and the
serialised :class:`~repro.storage.allocator.PageAllocator`.  All client
state is therefore reachable from page 0, and because the meta page is
written inside every transaction, a commit atomically publishes the new
root, the new allocator and every page image at once.

Commit protocol (durability ``"commit"``, the default)::

    begin()                 txid = commit_seq + 1
    put()/alloc()/release() stage work (nothing touches the device)
    commit():
        1. frame every staged page (and the meta page) with lsn = txid
        2. append all images + a COMMIT record to the WAL, fsync
        3. apply the images to the device (no fsync — the WAL covers them)

The device is fsynced only at :meth:`checkpoint`, which then truncates
the WAL.  :meth:`recover` replays the WAL's committed redo set, rewrites
any device page that differs (torn, bit-flipped or stale), fsyncs and
checkpoints — after which the engine is exactly at the last committed
transaction, no matter where a crash hit.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs import GLOBAL_METRICS
from repro.storage.allocator import PageAllocator
from repro.storage.blockstore import make_block_store
from repro.storage.page import (
    DEFAULT_PAGE_SIZE,
    HEADER_SIZE,
    PageCorruptionError,
    StorageError,
    hexdump,
    pack_page,
    unpack_page,
)
from repro.storage.wal import WriteAheadLog

__all__ = [
    "DATA_FILE",
    "DURABILITY_MODES",
    "META_PAGE",
    "WAL_FILE",
    "FsckReport",
    "RecoveryReport",
    "StorageEngine",
]

DATA_FILE = "pages.dat"
WAL_FILE = "wal.log"
META_PAGE = 0

#: ``commit``: fsync the WAL on every commit (crash-safe, the default).
#: ``checkpoint``: WAL kept but fsynced only at checkpoints (a crash may
#: roll back to the last checkpoint, never to an inconsistent state).
#: ``off``: no WAL at all (fastest; a crash mid-commit can corrupt pages).
DURABILITY_MODES = ("commit", "checkpoint", "off")

_META_PREFIX = "<QI"  # commit_seq, root length
_META_PREFIX_SIZE = struct.calcsize(_META_PREFIX)


@dataclass
class RecoveryReport:
    """What :meth:`StorageEngine.recover` found and repaired."""

    last_txid: int = 0
    wal_records: int = 0
    #: Device pages rewritten because they failed verification.
    pages_torn: int = 0
    #: Device pages rewritten because they held an older committed image.
    pages_stale: int = 0
    torn_tail: bool = False

    @property
    def pages_restored(self) -> int:
        """Total device pages rewritten from the WAL."""
        return self.pages_torn + self.pages_stale


@dataclass
class FsckReport:
    """Result of :meth:`StorageEngine.fsck`."""

    ok: bool = True
    pages_checked: int = 0
    pages_repaired: int = 0
    problems: list = field(default_factory=list)
    #: ``page_id -> hexdump`` of each corrupt page (artifact material).
    dumps: dict = field(default_factory=dict)


class StorageEngine:
    """Single-writer transactional page storage (see module docstring).

    Use :meth:`create` for a fresh store and :meth:`open` for an existing
    one — the bare constructor is shared plumbing.
    """

    def __init__(
        self,
        directory,
        backend: str = "file",
        page_size: int = DEFAULT_PAGE_SIZE,
        durability: str = "commit",
        file_factory=None,
        metrics=None,
    ):
        if durability not in DURABILITY_MODES:
            raise StorageError(
                f"unknown durability {durability!r} (choose from {DURABILITY_MODES})"
            )
        self.directory = Path(directory)
        self.backend = backend
        self.page_size = int(page_size)
        self.durability = durability
        self.metrics = metrics if metrics is not None else GLOBAL_METRICS
        self._file_factory = file_factory
        if backend == "memory":
            self.store = make_block_store("memory", page_size=page_size)
        else:
            self.directory.mkdir(parents=True, exist_ok=True)
            self.store = make_block_store(
                backend, self.directory / DATA_FILE, page_size=page_size,
                file_factory=file_factory,
            )
        self.wal = None
        if durability != "off" and backend != "memory":
            self.wal = WriteAheadLog(
                self.directory / WAL_FILE,
                sync_on_commit=(durability == "commit"),
                file_factory=file_factory,
                metrics=self.metrics,
            )
        self.commit_seq = 0
        self.root = b""
        self.allocator = PageAllocator()
        self._tx: "dict[int, bytes] | None" = None
        self._tx_root: "bytes | None" = None
        self._tx_alloc_backup = b""
        #: :class:`RecoveryReport` of the most recent :meth:`recover` run.
        self.last_recovery: "RecoveryReport | None" = None

    # ------------------------------------------------------------ lifecycle

    @classmethod
    def create(cls, directory, **kwargs) -> "StorageEngine":
        """Initialise a fresh store (commits the empty meta page as txid 1)."""
        if kwargs.get("backend", "file") != "memory" and (
            Path(directory) / DATA_FILE
        ).exists():
            raise StorageError(f"refusing to create over existing store in {directory}")
        eng = cls(directory, **kwargs)
        eng.begin()
        eng.commit()
        return eng

    @classmethod
    def open(cls, directory, recover: bool = True, **kwargs) -> "StorageEngine":
        """Open an existing store, running crash :meth:`recover` by default."""
        eng = cls(directory, **kwargs)
        if recover:
            eng.recover()
        else:
            eng._load_meta()
        return eng

    def close(self) -> None:
        """Close the device and the WAL (no implicit checkpoint)."""
        if self.wal is not None:
            self.wal.close()
        self.store.close()

    def __enter__(self) -> "StorageEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ---------------------------------------------------------- meta page

    def _meta_payload(self, commit_seq: int, root: bytes) -> bytes:
        blob = struct.pack(_META_PREFIX, commit_seq, len(root)) + root
        blob += self.allocator.to_bytes()
        if len(blob) > self.page_size - HEADER_SIZE:
            raise StorageError(
                f"meta payload of {len(blob)} bytes exceeds page capacity; "
                f"raise page_size above {len(blob) + HEADER_SIZE}"
            )
        return blob

    def _load_meta(self) -> None:
        buf = self.store.read_page(META_PAGE)
        try:
            _, payload = unpack_page(buf, META_PAGE)
        except PageCorruptionError as exc:
            raise StorageError(
                f"meta page unreadable ({exc.reason}); store is empty or needs recovery"
            ) from exc
        commit_seq, root_len = struct.unpack_from(_META_PREFIX, payload)
        root_end = _META_PREFIX_SIZE + root_len
        self.commit_seq = commit_seq
        self.root = bytes(payload[_META_PREFIX_SIZE:root_end])
        self.allocator = PageAllocator.from_bytes(payload[root_end:])

    # -------------------------------------------------------- transactions

    def begin(self) -> int:
        """Open the (single) transaction; returns its txid."""
        if self._tx is not None:
            raise StorageError("transaction already open")
        self._tx = {}
        self._tx_root = None
        self._tx_alloc_backup = self.allocator.to_bytes()
        return self.commit_seq + 1

    def _require_tx(self) -> None:
        if self._tx is None:
            raise StorageError("no open transaction (call begin() first)")

    def put(self, page_id: int, payload: bytes) -> None:
        """Stage ``payload`` as the new content of ``page_id``."""
        self._require_tx()
        if page_id == META_PAGE:
            raise StorageError("page 0 is the meta page; use set_root()")
        if len(payload) > self.page_size - HEADER_SIZE:
            raise ValueError(
                f"payload of {len(payload)} bytes exceeds page capacity "
                f"{self.page_size - HEADER_SIZE}"
            )
        self._tx[page_id] = bytes(payload)

    def set_root(self, root: bytes) -> None:
        """Stage a new root blob (published atomically with the commit)."""
        self._require_tx()
        self._tx_root = bytes(root)

    def alloc(self) -> int:
        """Allocate a page id within the open transaction."""
        self._require_tx()
        return self.allocator.alloc()

    def release(self, page_id: int) -> None:
        """Release a page id within the open transaction."""
        self._require_tx()
        self.allocator.release(page_id)

    def abort(self) -> None:
        """Drop the open transaction (restores the allocator)."""
        self._require_tx()
        self.allocator = PageAllocator.from_bytes(self._tx_alloc_backup)
        self._tx = None
        self._tx_root = None

    def commit(self) -> int:
        """Durably apply the open transaction; returns its txid."""
        self._require_tx()
        txid = self.commit_seq + 1
        root = self.root if self._tx_root is None else self._tx_root
        images = {
            pid: pack_page(pid, txid, payload, self.page_size)
            for pid, payload in self._tx.items()
        }
        images[META_PAGE] = pack_page(
            META_PAGE, txid, self._meta_payload(txid, root), self.page_size
        )
        if self.wal is not None:
            for pid in sorted(images):
                self.wal.log_page(txid, pid, images[pid])
            self.wal.commit(txid)
        for pid in sorted(images):
            self.store.write_page(pid, images[pid])
        self.commit_seq = txid
        self.root = root
        self._tx = None
        self._tx_root = None
        self.metrics.counter("storage.commits").inc()
        self.metrics.counter("storage.pages_written").inc(len(images))
        return txid

    # ------------------------------------------------------------- reading

    def read(self, page_id: int) -> bytes:
        """Verified payload of ``page_id`` (raises on any corruption)."""
        buf = self.store.read_page(page_id)
        _, payload = unpack_page(buf, page_id)
        return payload

    # ------------------------------------------- durability points & repair

    def checkpoint(self) -> None:
        """fsync the device, then truncate the WAL (bounds recovery work)."""
        if self._tx is not None:
            raise StorageError("cannot checkpoint with an open transaction")
        self.store.sync()
        if self.wal is not None:
            self.wal.checkpoint(self.commit_seq)
        else:
            self.metrics.counter("storage.checkpoints").inc()

    def recover(self) -> RecoveryReport:
        """Replay the WAL's committed redo set onto the device, then load meta.

        Idempotent: a second call finds nothing to redo.  Raises
        :class:`StorageError` when no committed state exists at all (the
        caller should then re-create the store from scratch).
        """
        report = RecoveryReport()
        if self.wal is not None:
            rp = self.wal.replay()
            report.wal_records = rp.n_records
            report.torn_tail = rp.torn_tail
            for pid in sorted(rp.images):
                image = rp.images[pid]
                current = self.store.read_page(pid)
                if current == image:
                    continue
                try:
                    unpack_page(current, pid)
                except PageCorruptionError:
                    report.pages_torn += 1
                else:
                    report.pages_stale += 1
                self.store.write_page(pid, image)
            self.store.sync()
        self._load_meta()
        report.last_txid = self.commit_seq
        if self.wal is not None:
            self.wal.checkpoint(self.commit_seq)
        self.metrics.counter("storage.recovery.runs").inc()
        self.metrics.counter("storage.recovery.pages_restored").inc(
            report.pages_restored
        )
        self.last_recovery = report
        return report

    def live_pages(self) -> list:
        """Allocated, non-free page ids (excluding the meta page)."""
        free = set(self.allocator.free_pages)
        return [p for p in range(1, self.allocator.next_page_id) if p not in free]

    def fsck(self, repair: bool = False) -> FsckReport:
        """Verify the meta page, the free-list and every live page's CRC.

        With ``repair=True``, corrupt pages that have a committed image in
        the WAL are rewritten from it (same redo rule as :meth:`recover`).
        """
        report = FsckReport()
        images = self.wal.replay().images if (repair and self.wal is not None) else {}
        try:
            self._load_meta()
        except StorageError as exc:
            report.ok = False
            report.problems.append(str(exc))
            report.dumps[META_PAGE] = hexdump(self.store.read_page(META_PAGE))
            if META_PAGE in images:
                self.store.write_page(META_PAGE, images[META_PAGE])
                report.pages_repaired += 1
                report.problems.append("meta page: repaired from WAL")
                self._load_meta()
            else:
                self.metrics.counter("storage.fsck.runs").inc()
                return report
        for problem in self.allocator.validate():
            report.ok = False
            report.problems.append(f"allocator: {problem}")
        unrepaired = 0
        for pid in self.live_pages():
            report.pages_checked += 1
            buf = self.store.read_page(pid)
            try:
                unpack_page(buf, pid)
            except PageCorruptionError as exc:
                report.ok = False
                report.problems.append(f"page {pid}: {exc.reason}")
                report.dumps[pid] = hexdump(buf)
                if pid in images:
                    self.store.write_page(pid, images[pid])
                    report.pages_repaired += 1
                    report.problems.append(f"page {pid}: repaired from WAL")
                elif repair:
                    report.problems.append(f"page {pid}: no WAL image to repair from")
                    unrepaired += 1
                else:
                    unrepaired += 1
        if report.pages_repaired:
            self.store.sync()
            if unrepaired == 0 and not any(
                p.startswith("allocator:") for p in report.problems
            ):
                report.ok = True
        self.metrics.counter("storage.fsck.runs").inc()
        return report
