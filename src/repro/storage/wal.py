"""Write-ahead logging, checkpointing, and crash recovery.

The paper's algebra is read-only, but the update module
(:mod:`repro.storage.update`) makes stores mutable — and a mutable store
that persists via a non-atomic whole-file rewrite loses data the moment
a crash lands mid-save.  This module closes that gap with a classic
redo-only design, adapted to the repository's determinism rules:

* **Logical redo log.**  Every update operation (insert, delete-subtree,
  value update) is appended to a side log as a *logical* entry — the
  operation and its arguments, not page deltas.  Each entry carries a
  monotonically increasing LSN and a CRC32 over its bytes, so recovery
  can replay the valid prefix and stop cleanly at a torn or corrupt
  tail.  Logical logging is sound here because replay is deterministic:
  update operations are pure functions of store state (slot reuse is
  canonicalised — see :class:`repro.storage.page.Page`), so replaying
  the same operations against the checkpoint image reproduces the same
  physical records *and the same NodeIDs*, which later log entries
  reference.

* **Apply-then-log.**  An operation is applied in memory first and
  appended to the log only once it succeeded.  Operations that fail
  validation (bad position, full page with nothing relocatable) never
  enter the log, so replay never faces a failing entry.  The cost is the
  usual one: an operation interrupted *between* apply and append is lost
  on recovery — it was never acknowledged, so nothing durable claimed
  it.  Acknowledged operations (the append returned, with an fsync under
  the default per-op sync policy) are never lost.

* **Checkpoint = atomic whole-image save.**  :meth:`WriteAheadLog.checkpoint`
  stamps the store's ``checkpoint_lsn`` and writes the image through the
  atomic :func:`~repro.storage.persist.save_checkpoint` (staging file,
  fsync, rename), then resets the log.  A crash anywhere in that
  sequence leaves either the old image + full log, or the new image + a
  log whose entries are all already covered (replay skips ``lsn <=
  checkpoint_lsn``), or the new image + an empty log.

* **A log reset in place.**  The reset keeps the log file and its open
  handle: it zeroes the bytes the epoch wrote, fsyncs, overwrites the
  header with the new base LSN, fsyncs, and appends on from the
  header's end.  Nothing is truncated or removed, so no block is freed.
  Every byte past the header that is not a live entry is zero: the log
  starts header-only and each reset zeroes what its epoch wrote.

* **A recycled staging file.**  The WAL owns a spare file beside the
  store, ``store_path + ".spare"``, as it owns its log.  Every image it
  writes (:meth:`WriteAheadLog.create` and each checkpoint) is
  overwritten into the spare in place, and the image it replaces is
  renamed into the spare rather than deleted: dropping a file's last
  link frees its blocks, which on a filesystem that discards them costs
  tens of milliseconds per checkpoint.  The disk holds one more image
  for it.  Recovery never reads the spare; a second name a crash leaves
  mid-install (``store_path + ".prev"``) is settled by the next
  checkpoint.

* **Snapshots repaired by the update layer.**  Every update operation,
  logged or not, patches the document's cluster synopsis and path
  summary over the pages it touched (:mod:`repro.storage.update`).
  Replay calls the same operations, so a recovered store's snapshots
  are bit-identical to the uncrashed one.  Schema *statistics* stay
  invalidated on update either way (the AUTO chooser degrades
  identically with and without a crash).

Log file format (all integers little-endian)::

    header: magic "RWAL" | u16 version | u64 base_lsn
    entry:  u64 lsn | u8 op | u32 payload_len | payload
            | u32 crc32(head + payload)

``base_lsn`` is the LSN already folded into the checkpoint when the log
was created or last reset; entry LSNs continue from it without gaps.
The entries may be followed by zeros up to the file's end (what earlier,
longer epochs wrote): an entry head of zero bytes ends the log cleanly,
as the file's end does, since no entry has LSN 0.  A short read or CRC
mismatch at the tail is the expected shape of a crash and ends the
scan; a bad magic number, unsupported version, or LSN discontinuity in
the *body* is structural damage and raises
:class:`~repro.errors.WalCorruptError`.

Crash points for the kill-and-recover tests are injected through
:class:`repro.sim.faults.CrashInjector`: log appends and checkpoint page
writes route their bytes through it (so writes can be *torn*, not just
skipped), and the checkpoint temp/rename/log-reset steps announce
themselves.  With no injector attached, none of these paths cost
anything — and with the WAL disabled entirely (``Database.wal is
None``), the query engine never touches this module.
"""

from __future__ import annotations

import io
import os
import struct
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, BinaryIO, Iterator

from repro.errors import StorageError, StoreCorruptError, WalCorruptError
from repro.model.tree import Kind
from repro.sim.faults import CRASH_WAL_APPEND, CRASH_WAL_TRUNCATE
from repro.storage.nodeid import NodeID
from repro.storage.persist import load_store, save_checkpoint
from repro.storage.store import DocumentStore
from repro.storage.update import _touched_pages, delete_subtree, insert_node, update_value

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.faults import CrashInjector

_WAL_MAGIC = b"RWAL"
_WAL_VERSION = 1
#: header tail after the magic: ``u16 version | u64 base_lsn``
_WAL_HEADER = struct.Struct("<HQ")
#: entry head: ``u64 lsn | u8 op | u32 payload_len``
_ENTRY_HEAD = struct.Struct("<QBI")
_CRC = struct.Struct("<I")
#: offset of the first entry: the header's end
_LOG_START = len(_WAL_MAGIC) + _WAL_HEADER.size

OP_INSERT = 1
OP_DELETE = 2
OP_SET_VALUE = 3

_KNOWN_OPS = frozenset({OP_INSERT, OP_DELETE, OP_SET_VALUE})


# ------------------------------------------------------------ payloads


def _p_str(out: io.BytesIO, text: str) -> None:
    data = text.encode("utf-8")
    out.write(struct.pack("<H", len(data)))
    out.write(data)


def _p_long_str(out: io.BytesIO, text: str) -> None:
    data = text.encode("utf-8")
    out.write(struct.pack("<I", len(data)))
    out.write(data)


def _take(inp: io.BytesIO, n: int, what: str) -> bytes:
    data = inp.read(n)
    if len(data) != n:
        raise WalCorruptError(
            f"undecodable WAL payload: wanted {n} byte(s) of {what}, got {len(data)}"
        )
    return data


def _u_str(inp: io.BytesIO, what: str) -> str:
    (length,) = struct.unpack("<H", _take(inp, 2, what))
    return _take(inp, length, what).decode("utf-8")


def _u_long_str(inp: io.BytesIO, what: str) -> str:
    (length,) = struct.unpack("<I", _take(inp, 4, what))
    return _take(inp, length, what).decode("utf-8")


def _encode_insert(
    doc_name: str,
    parent: NodeID,
    position: int,
    tag_name: str,
    kind: Kind,
    value: str | None,
    result: NodeID,
) -> bytes:
    out = io.BytesIO()
    _p_str(out, doc_name)
    out.write(struct.pack("<QI", int(parent), position))
    _p_str(out, tag_name)
    out.write(struct.pack("<BB", int(kind), 0 if value is None else 1))
    if value is not None:
        _p_long_str(out, value)
    out.write(struct.pack("<Q", int(result)))
    return out.getvalue()


def _encode_delete(doc_name: str, nid: NodeID, removed: int) -> bytes:
    out = io.BytesIO()
    _p_str(out, doc_name)
    out.write(struct.pack("<QI", int(nid), removed))
    return out.getvalue()


def _encode_set_value(doc_name: str, nid: NodeID, value: str) -> bytes:
    out = io.BytesIO()
    _p_str(out, doc_name)
    out.write(struct.pack("<Q", int(nid)))
    _p_long_str(out, value)
    return out.getvalue()


# ------------------------------------------------------------- scanning


def _read_wal_header(inp: BinaryIO, wal_path: str) -> tuple[int, bool]:
    """Parse the log header; returns (base_lsn, torn).

    A header shorter than its fixed size is what a crash leaves while
    the header is first written — the log holds no entry yet, so it is
    reported as a torn, entry-less log rather than an error.
    """
    magic = inp.read(4)
    if len(magic) < 4:
        return 0, True
    if magic != _WAL_MAGIC:
        raise WalCorruptError(f"{wal_path} is not a repro WAL file")
    head = inp.read(_WAL_HEADER.size)
    if len(head) < _WAL_HEADER.size:
        return 0, True
    version, base_lsn = _WAL_HEADER.unpack(head)
    if version != _WAL_VERSION:
        raise WalCorruptError(f"unsupported WAL version {version} in {wal_path}")
    return base_lsn, False


def _scan_wal(wal_path: str) -> tuple[int, list[tuple[int, int, bytes]], bool]:
    """Scan the log into (base_lsn, [(lsn, op, payload)], torn_tail).

    Ends cleanly at the file's end or at an all-zero entry head (the
    tail a log reset leaves), and stops at the first torn or
    checksum-failing entry (the tail a crash leaves behind); raises
    :class:`WalCorruptError` for damage that cannot be a tail — bad magic, bad version, an LSN that does not
    follow its predecessor, an unknown operation code on an entry whose
    checksum *passed*.
    """
    entries: list[tuple[int, int, bytes]] = []
    with open(wal_path, "rb") as inp:
        size = os.fstat(inp.fileno()).st_size
        base_lsn, torn = _read_wal_header(inp, wal_path)
        if torn:
            return base_lsn, entries, True
        expected = base_lsn
        while True:
            head = inp.read(_ENTRY_HEAD.size)
            if not head.strip(b"\0"):
                # clean end: the file's end, or the zeroed tail a log
                # reset leaves (no entry has LSN 0)
                return base_lsn, entries, False
            if len(head) < _ENTRY_HEAD.size:
                return base_lsn, entries, True
            lsn, op, payload_len = _ENTRY_HEAD.unpack(head)
            # checked before read() allocates payload_len bytes: an entry
            # that runs past the file's end is a torn tail
            if payload_len + _CRC.size > size - inp.tell():
                return base_lsn, entries, True
            payload = inp.read(payload_len)
            (crc,) = _CRC.unpack(inp.read(_CRC.size))
            if zlib.crc32(head + payload) != crc:
                return base_lsn, entries, True
            # from here on the entry is checksum-clean: anything odd is
            # real corruption, not a torn tail
            if lsn != expected + 1:
                raise WalCorruptError(
                    f"WAL LSN discontinuity in {wal_path}: "
                    f"entry {lsn} follows {expected}"
                )
            if op not in _KNOWN_OPS:
                raise WalCorruptError(
                    f"unknown WAL operation code {op} at LSN {lsn} in {wal_path}"
                )
            expected = lsn
            entries.append((lsn, op, payload))


# -------------------------------------------------------------- replay


def _replay_entry(store: DocumentStore, lsn: int, op: int, payload: bytes) -> None:
    """Re-apply one logged operation.

    Replay validates its own determinism: the logged result (the NodeID
    an insert minted, the node count a delete removed) must match the
    re-applied operation's result, or the checkpoint and the log do not
    describe the same history.
    """
    inp = io.BytesIO(payload)
    doc_name = _u_str(inp, "document name")
    doc = store.document(doc_name)
    if op == OP_INSERT:
        parent_raw, position = struct.unpack(
            "<QI", _take(inp, 12, "insert target")
        )
        tag_name = _u_str(inp, "tag name")
        kind_raw, has_value = struct.unpack("<BB", _take(inp, 2, "insert kind"))
        value = _u_long_str(inp, "insert value") if has_value else None
        (logged_nid,) = struct.unpack("<Q", _take(inp, 8, "insert result"))
        nid = insert_node(
            store, doc, NodeID(parent_raw), position, tag_name, Kind(kind_raw), value
        )
        if int(nid) != logged_nid:
            raise StoreCorruptError(
                f"replay diverged at LSN {lsn}: insert produced node "
                f"{int(nid)}, log recorded {logged_nid}"
            )
    elif op == OP_DELETE:
        nid_raw, logged_removed = struct.unpack(
            "<QI", _take(inp, 12, "delete target")
        )
        removed = delete_subtree(store, doc, NodeID(nid_raw))
        if removed != logged_removed:
            raise StoreCorruptError(
                f"replay diverged at LSN {lsn}: delete removed {removed} "
                f"node(s), log recorded {logged_removed}"
            )
    else:  # OP_SET_VALUE — _scan_wal already rejected unknown codes
        (nid_raw,) = struct.unpack("<Q", _take(inp, 8, "value target"))
        update_value(store, NodeID(nid_raw), _u_long_str(inp, "new value"))


@dataclass(frozen=True, slots=True)
class RecoveryReport:
    """What :func:`recover_store` found and did."""

    store_path: str
    wal_path: str
    #: LSN the loaded checkpoint image was taken at.
    checkpoint_lsn: int
    #: LSN of the last operation the recovered store reflects.
    last_lsn: int
    #: log entries re-applied (``lsn > checkpoint_lsn``).
    replayed: int
    #: log entries skipped as already covered by the checkpoint.
    skipped: int
    #: True if the log ended in a torn or checksum-failing entry.
    torn_tail: bool
    #: pages touched by replay, ascending (empty when nothing replayed).
    touched_pages: tuple[int, ...]


def recover_store(
    path: str, wal_path: str | None = None
) -> tuple[DocumentStore, RecoveryReport]:
    """Load the last good checkpoint and replay the log's valid prefix.

    ``path`` is the checkpoint image; the log defaults to
    ``path + ".wal"``.  A leftover ``path + ".tmp"`` from an interrupted
    :func:`~repro.storage.persist.save_store` is deleted (it is never a
    source of truth — the rename either happened, making it ``path``, or
    the old image is intact).  The WAL's spare and a leftover
    ``path + ".prev"`` are neither read nor removed here: the next
    checkpoint recycles them.  A missing log file means no updates ran
    since the last checkpoint.

    Returns the recovered store and a :class:`RecoveryReport`.  The
    recovered store matches the uncrashed store after its first
    ``report.last_lsn`` operations exactly: records, NodeIDs, free
    slots, synopsis rows and path-summary rows (repaired incrementally
    for the touched pages only).
    """
    if wal_path is None:
        wal_path = path + ".wal"
    stale_tmp = path + ".tmp"
    if os.path.exists(stale_tmp):
        os.remove(stale_tmp)
    store = load_store(path)
    checkpoint_lsn = store.checkpoint_lsn
    if not os.path.exists(wal_path):
        report = RecoveryReport(
            store_path=path,
            wal_path=wal_path,
            checkpoint_lsn=checkpoint_lsn,
            last_lsn=checkpoint_lsn,
            replayed=0,
            skipped=0,
            torn_tail=False,
            touched_pages=(),
        )
        return store, report
    base_lsn, entries, torn_tail = _scan_wal(wal_path)
    if entries and base_lsn > checkpoint_lsn:
        raise WalCorruptError(
            f"WAL {wal_path} begins at LSN {base_lsn} but the checkpoint "
            f"only covers LSN {checkpoint_lsn}: operations are missing"
        )
    versions = [page.version for page in store.segment.pages()]
    replayed = 0
    skipped = 0
    last_lsn = checkpoint_lsn
    for lsn, op, payload in entries:
        if lsn <= checkpoint_lsn:
            # the checkpoint already contains this operation (a crash hit
            # between the image rename and the log reset)
            skipped += 1
            continue
        _replay_entry(store, lsn, op, payload)
        replayed += 1
        last_lsn = lsn
    # the in-memory store now reflects last_lsn, not the image's LSN: a
    # later checkpoint (e.g. WriteAheadLog.create re-attaching) must
    # stamp the covered LSN, and fresh operations must continue past the
    # replayed tail rather than reuse its numbers
    store.checkpoint_lsn = last_lsn
    report = RecoveryReport(
        store_path=path,
        wal_path=wal_path,
        checkpoint_lsn=checkpoint_lsn,
        last_lsn=last_lsn,
        replayed=replayed,
        skipped=skipped,
        torn_tail=torn_tail,
        touched_pages=tuple(_touched_pages(store.segment, versions)),
    )
    return store, report


# -------------------------------------------------------------- manager


class WriteAheadLog:
    """Durability manager binding one store to a checkpoint + log pair.

    All updates to a managed store must go through :meth:`insert`,
    :meth:`delete` and :meth:`set_value` — they apply the operation
    (which repairs the document's snapshots itself) and append the log
    entry.  :meth:`checkpoint` folds the log into a new atomic image.

    The default sync policy is one fsync per operation; wrap a run of
    operations in :meth:`group_commit` for one fsync per run (the batch
    executor does) — operations inside the window are not durable until
    it closes.
    """

    __slots__ = (
        "store",
        "store_path",
        "wal_path",
        "spare_path",
        "checkpoint_every",
        "crash",
        "_out",
        "_lsn",
        "_since_checkpoint",
        "_deferred_sync",
    )

    def __init__(
        self,
        store: DocumentStore,
        store_path: str,
        out: BinaryIO,
        lsn: int,
        *,
        wal_path: str,
        checkpoint_every: int | None = None,
        crash: "CrashInjector | None" = None,
    ) -> None:
        if checkpoint_every is not None and checkpoint_every < 1:
            raise StorageError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        self.store = store
        self.store_path = store_path
        self.wal_path = wal_path
        #: the staging file every image goes through; between checkpoints
        #: it holds the image the last one replaced (see
        #: :func:`~repro.storage.persist.save_checkpoint`)
        self.spare_path = store_path + ".spare"
        self.checkpoint_every = checkpoint_every
        self.crash = crash
        self._out = out
        self._lsn = lsn
        self._since_checkpoint = 0
        self._deferred_sync = False
        # crash points inside update operations read the injector off the
        # store (update.py has no manager handle)
        store.crash = crash

    # -- lifecycle -----------------------------------------------------

    @classmethod
    def create(
        cls,
        store: DocumentStore,
        store_path: str,
        *,
        wal_path: str | None = None,
        checkpoint_every: int | None = None,
        crash: "CrashInjector | None" = None,
    ) -> "WriteAheadLog":
        """Put ``store`` under WAL management, checkpointing it now.

        The initial checkpoint guarantees a recoverable image exists
        before the first logged operation.  If the files already exist
        they are overwritten — use :func:`recover_store` +
        :meth:`create` (or :meth:`Database.recover
        <repro.engine.Database.recover>`) to continue an existing pair.

        The crash injector is *not* consulted during this setup: the
        kill-and-recover contract starts once a recoverable image
        exists, so crash points count occurrences from the first logged
        operation onwards.
        """
        if wal_path is None:
            wal_path = store_path + ".wal"
        manager = cls(
            store,
            store_path,
            out=_fresh_log(wal_path, store.checkpoint_lsn),
            lsn=store.checkpoint_lsn,
            wal_path=wal_path,
            checkpoint_every=checkpoint_every,
            crash=crash,
        )
        save_checkpoint(store, store_path, manager.spare_path)
        return manager

    def close(self) -> None:
        """Flush, fsync and release the log file handle."""
        if not self._out.closed:
            self.sync()
            self._out.close()
        self.store.crash = None

    # -- logged operations ---------------------------------------------

    @property
    def lsn(self) -> int:
        """LSN of the last acknowledged operation."""
        return self._lsn

    def insert(
        self,
        doc_name: str,
        parent: NodeID,
        position: int,
        tag_name: str,
        kind: Kind = Kind.ELEMENT,
        value: str | None = None,
    ) -> NodeID:
        """Logged :func:`~repro.storage.update.insert_node`."""
        doc = self.store.document(doc_name)
        nid = insert_node(self.store, doc, parent, position, tag_name, kind, value)
        self._append(
            OP_INSERT,
            _encode_insert(doc_name, parent, position, tag_name, kind, value, nid),
        )
        return nid

    def delete(self, doc_name: str, nid: NodeID) -> int:
        """Logged :func:`~repro.storage.update.delete_subtree`."""
        removed = delete_subtree(self.store, self.store.document(doc_name), nid)
        self._append(OP_DELETE, _encode_delete(doc_name, nid, removed))
        return removed

    def set_value(self, doc_name: str, nid: NodeID, value: str) -> None:
        """Logged :func:`~repro.storage.update.update_value`."""
        self.store.document(doc_name)  # an unknown name fails before the update
        update_value(self.store, nid, value)
        self._append(OP_SET_VALUE, _encode_set_value(doc_name, nid, value))

    # -- sync & checkpoint ---------------------------------------------

    def sync(self) -> None:
        """Push appended entries to stable storage (flush + fsync)."""
        self._out.flush()
        os.fsync(self._out.fileno())

    @contextmanager
    def group_commit(self) -> Iterator[None]:
        """Defer fsync to the end of the block: one sync per update run.

        The group-commit durability trade: operations inside the window
        are applied and logged but not yet stable — a crash inside the
        window can lose the whole run (never a prefix-breaking subset;
        the log is still strictly ordered).
        """
        if self._deferred_sync:
            yield  # already inside a window: the outermost one syncs
            return
        self._deferred_sync = True
        try:
            yield
        finally:
            self._deferred_sync = False
            if not self._out.closed:
                self.sync()

    def checkpoint(self) -> None:
        """Fold the log into a fresh atomic image and reset the log."""
        self.store.checkpoint_lsn = self._lsn
        save_checkpoint(self.store, self.store_path, self.spare_path, crash=self.crash)
        # the image now covers every logged operation; a crash from here
        # on leaves a log whose entries replay as no-ops (lsn <=
        # checkpoint_lsn) or an empty log
        self._reset_log()
        self._since_checkpoint = 0

    def _reset_log(self) -> None:
        """Empty the log in place on its open handle, based at ``_lsn``.

        Zero the bytes this epoch wrote (header end to ``tell()``) and
        fsync, then overwrite the header with the new base LSN and fsync,
        then seek back to the header's end.  The file keeps its inode and
        its blocks: a truncation would free them, which on a filesystem
        that discards freed blocks is the bulk of a checkpoint.  Every
        byte past the header that is not a live entry stays zero, and
        :func:`_scan_wal` reads a zero entry head as the log's end.

        The ``wal-truncate`` crash point fires between the two fsyncs:
        the old header over an all-zero body, beside an image that
        covers every entry the body held, so recovery replays nothing.
        """
        out = self._out
        end = out.tell()
        out.seek(_LOG_START)
        out.write(bytes(end - _LOG_START))
        out.flush()
        os.fsync(out.fileno())
        if self.crash is not None:
            self.crash.check(CRASH_WAL_TRUNCATE)
        out.seek(0)
        out.write(_log_header(self._lsn))
        out.flush()
        os.fsync(out.fileno())
        out.seek(_LOG_START)

    def _append(self, op: int, payload: bytes) -> None:
        lsn = self._lsn + 1
        head = _ENTRY_HEAD.pack(lsn, op, len(payload))
        entry = head + payload + _CRC.pack(zlib.crc32(head + payload))
        crash = self.crash
        if crash is not None:
            crash.write(CRASH_WAL_APPEND, self._out, entry)
        else:
            self._out.write(entry)
        self._lsn = lsn
        if not self._deferred_sync:
            self.sync()
        self._since_checkpoint += 1
        if (
            self.checkpoint_every is not None
            and self._since_checkpoint >= self.checkpoint_every
        ):
            self.checkpoint()


def _log_header(base_lsn: int) -> bytes:
    return _WAL_MAGIC + _WAL_HEADER.pack(_WAL_VERSION, base_lsn)


def _fresh_log(wal_path: str, base_lsn: int) -> BinaryIO:
    """Create the log file (or overwrite an existing one) holding only a
    header: the empty log :meth:`WriteAheadLog.create` starts from."""
    out = open(wal_path, "wb")
    try:
        out.write(_log_header(base_lsn))
        out.flush()
        os.fsync(out.fileno())
    except BaseException:
        out.close()
        raise
    return out
