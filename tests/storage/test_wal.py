"""Tests for the write-ahead log: logging, checkpointing, recovery."""

import io
import os
import struct
import zlib

import pytest

from repro import Database
from repro.errors import (
    SimulatedCrashError,
    StorageError,
    StoreCorruptError,
    WalCorruptError,
)
from repro.sim.faults import CrashInjector, CrashPoint
from repro.storage import wal as wal_mod
from repro.storage.store import check_document, export_tree
from repro.storage.wal import recover_store
from repro.xml.escape import serialize


XML = (
    "<root><people><person><name>alice</name></person>"
    "<person><name>bob</name></person></people>"
    "<items><item>one</item><item>two</item></items></root>"
)


def durable_db(tmp_path, checkpoint_every=None):
    db = Database(page_size=512, buffer_pages=32)
    db.load_xml(XML, "d")
    path = str(tmp_path / "store.rpro")
    db.attach_wal(path, checkpoint_every=checkpoint_every)
    return db, path


def run_ops(db, n=6):
    """A deterministic little workload; returns the op count logged."""
    root = db.execute("/root", doc="d", plan="simple").nodes[0]
    wal = db.wal
    extra = wal.insert("d", root, 0, "extra")
    wal.insert("d", extra, 0, "leaf", value=None)
    text = db.execute("//name/text()", doc="d", plan="simple").nodes[0]
    wal.set_value("d", text, "carol")
    wal.insert("d", root, 1, "gone")
    gone = db.execute("/root/gone", doc="d", plan="simple").nodes[0]
    wal.delete("d", gone)
    wal.insert("d", extra, 1, "tail")
    return 6


def _page_image(page):
    """A comparable per-slot fingerprint of a page's records."""
    rows = []
    for record in page.records:
        if record is None:
            rows.append(None)
        elif record.is_border:
            rows.append(
                (
                    "border",
                    record.companion,
                    record.local_slot,
                    record.down,
                    record.continuation,
                    record.child_slots,
                )
            )
        else:
            rows.append(
                (
                    "core",
                    record.kind,
                    record.tag,
                    str(record.ordpath),
                    record.parent_slot,
                    record.child_slots,
                    record.value,
                )
            )
    return rows


def assert_stores_identical(left, right):
    """The recovered store must be *bit*-identical, not just equivalent."""
    assert left.segment.n_pages == right.segment.n_pages
    for page_no in range(left.segment.n_pages):
        a, b = left.segment.page(page_no), right.segment.page(page_no)
        assert a.used_bytes == b.used_bytes
        assert a.free_slots == b.free_slots
        assert _page_image(a) == _page_image(b)
    for name, doc in left.documents.items():
        other = right.document(name)
        check_document(right, other)
        assert serialize(export_tree(left, doc)) == serialize(
            export_tree(right, other)
        )
        assert doc.synopsis == other.synopsis
        assert doc.pathsummary == other.pathsummary


def test_recover_replays_full_log(tmp_path):
    db, path = durable_db(tmp_path)
    n = run_ops(db)
    db.wal.sync()
    store, report = recover_store(path)
    assert report.checkpoint_lsn == 0
    assert report.last_lsn == n
    assert report.replayed == n
    assert report.skipped == 0
    assert not report.torn_tail
    assert report.touched_pages
    assert_stores_identical(db.store, store)


def test_recover_without_updates(tmp_path):
    db, path = durable_db(tmp_path)
    store, report = recover_store(path)
    assert report.replayed == 0 and report.last_lsn == 0
    assert_stores_identical(db.store, store)


def test_recover_missing_wal_file(tmp_path):
    db, path = durable_db(tmp_path)
    db.wal.close()
    os.remove(path + ".wal")
    store, report = recover_store(path)
    assert report.replayed == 0 and not report.torn_tail
    assert_stores_identical(db.store, store)


def test_checkpoint_empties_log(tmp_path):
    db, path = durable_db(tmp_path)
    n = run_ops(db)
    db.wal.checkpoint()
    store, report = recover_store(path)
    assert report.checkpoint_lsn == n
    assert report.replayed == 0
    assert_stores_identical(db.store, store)
    # post-checkpoint operations land in the emptied log and replay alone
    root = db.execute("/root", doc="d", plan="simple").nodes[0]
    db.wal.insert("d", root, 0, "post")
    store, report = recover_store(path)
    assert report.checkpoint_lsn == n
    assert report.replayed == 1 and report.last_lsn == n + 1
    assert_stores_identical(db.store, store)


def read(path):
    with open(path, "rb") as inp:
        return inp.read()


def test_checkpoint_resets_the_log_in_place(tmp_path):
    """Three checkpoints with appends between them: the log stays the
    same file, and it never gives blocks back."""
    db, path = durable_db(tmp_path)
    wal_path = path + ".wal"
    stats = [os.stat(wal_path)]
    root = db.execute("/root", doc="d", plan="simple").nodes[0]
    for n in (3, 1, 2):
        for i in range(n):
            db.wal.insert("d", root, 0, f"e{i}")
        stats.append(os.stat(wal_path))
        db.wal.checkpoint()
        stats.append(os.stat(wal_path))
    assert {stat.st_ino for stat in stats} == {stats[0].st_ino}
    for before, after in zip(stats, stats[1:]):
        assert after.st_size >= before.st_size
        assert after.st_blocks >= before.st_blocks
    store, report = recover_store(path)
    assert report.replayed == 0
    assert_stores_identical(db.store, store)


def test_reset_leaves_zeros_past_the_live_end(tmp_path):
    db, path = durable_db(tmp_path)
    root = db.execute("/root", doc="d", plan="simple").nodes[0]
    start = wal_mod._LOG_START
    for n in (4, 1, 2):
        for i in range(n):
            db.wal.insert("d", root, 0, f"e{i}")
        db.wal.checkpoint()
        data = read(path + ".wal")
        assert data[:start] == wal_mod._log_header(db.wal.lsn)
        assert len(data) > start and not data[start:].strip(b"\0")


def test_shorter_epoch_replays_alone(tmp_path):
    """A long epoch, a checkpoint, then a shorter one: recovery replays
    exactly the short epoch and finds a clean end in the zeroed tail."""
    db, path = durable_db(tmp_path)
    n = run_ops(db)
    long_size = os.path.getsize(path + ".wal")
    db.wal.checkpoint()
    store, report = recover_store(path)
    assert report.checkpoint_lsn == n
    assert report.replayed == 0 and not report.torn_tail
    assert_stores_identical(db.store, store)
    root = db.execute("/root", doc="d", plan="simple").nodes[0]
    db.wal.insert("d", root, 0, "post")
    db.wal.set_value("d", db.execute("//item/text()", doc="d", plan="simple").nodes[0], "3")
    assert os.path.getsize(path + ".wal") == long_size  # over the zeroed tail
    store, report = recover_store(path)
    assert report.checkpoint_lsn == n
    assert report.replayed == 2 and report.last_lsn == n + 2
    assert not report.torn_tail
    assert_stores_identical(db.store, store)


def test_zero_tail_shorter_than_an_entry_head_is_a_clean_end(tmp_path):
    """A stale tail can end closer to the live end than one entry head."""
    db, path = durable_db(tmp_path)
    n = run_ops(db)
    with open(path + ".wal", "ab") as out:
        out.write(bytes(wal_mod._ENTRY_HEAD.size - 1))
    store, report = recover_store(path)
    assert report.replayed == n and not report.torn_tail
    assert_stores_identical(db.store, store)


def test_torn_entry_over_a_zeroed_tail(tmp_path):
    """A torn append that lands on a reset's zeros is still a torn tail,
    and recovery keeps the entries before it."""
    db = Database(page_size=512, buffer_pages=32)
    db.load_xml(XML, "d")
    path = str(tmp_path / "store.rpro")
    crash = CrashInjector(CrashPoint("wal-append", at=8, torn_fraction=0.5))
    db.attach_wal(path, crash=crash)
    n = run_ops(db)
    long_size = os.path.getsize(path + ".wal")
    db.wal.checkpoint()
    root = db.execute("/root", doc="d", plan="simple").nodes[0]
    db.wal.insert("d", root, 0, "kept")
    before = serialize(export_tree(db.store, db.store.document("d")))
    with pytest.raises(SimulatedCrashError):
        db.wal.insert("d", root, 0, "torn")
    assert crash.tripped
    assert os.path.getsize(path + ".wal") == long_size
    store, report = recover_store(path)
    assert report.torn_tail
    assert report.checkpoint_lsn == n
    assert report.replayed == 1 and report.last_lsn == n + 1
    doc = store.document("d")
    check_document(store, doc)
    assert serialize(export_tree(store, doc)) == before


def test_crash_between_zeroed_body_and_new_header(tmp_path):
    """``wal-truncate`` fires once the zeroed body is durable and before
    the new header lands: the old header over an empty body, beside an
    image that covers every entry the body held."""
    db = Database(page_size=512, buffer_pages=32)
    db.load_xml(XML, "d")
    path = str(tmp_path / "store.rpro")
    db.attach_wal(path, crash=CrashInjector(CrashPoint("wal-truncate", at=1)))
    n = run_ops(db)
    with pytest.raises(SimulatedCrashError):
        db.wal.checkpoint()
    data = read(path + ".wal")
    start = wal_mod._LOG_START
    assert data[:start] == wal_mod._log_header(0)
    assert len(data) > start and not data[start:].strip(b"\0")
    store, report = recover_store(path)
    assert report.checkpoint_lsn == n and report.last_lsn == n
    assert report.replayed == 0 and report.skipped == 0
    assert not report.torn_tail
    assert_stores_identical(db.store, store)


def test_auto_checkpoint_every(tmp_path):
    db, path = durable_db(tmp_path, checkpoint_every=2)
    n = run_ops(db)
    assert db.wal.lsn == n
    store, report = recover_store(path)
    # n is even, so the last auto-checkpoint covered everything
    assert report.checkpoint_lsn == n and report.replayed == 0
    assert_stores_identical(db.store, store)


def test_checkpoint_every_must_be_positive(tmp_path):
    db = Database(page_size=512)
    db.load_xml(XML, "d")
    with pytest.raises(StorageError):
        db.attach_wal(str(tmp_path / "s.rpro"), checkpoint_every=0)


def test_attach_twice_rejected(tmp_path):
    db, path = durable_db(tmp_path)
    from repro.errors import ReproError

    with pytest.raises(ReproError):
        db.attach_wal(str(tmp_path / "other.rpro"))


def test_torn_tail_recovers_valid_prefix(tmp_path):
    db, path = durable_db(tmp_path)
    run_ops(db)
    db.wal.sync()
    data = open(path + ".wal", "rb").read()
    # chop bytes off the end one at a time: every truncation point must
    # recover some valid prefix without raising (each cut a log file of
    # its own: truncating one file per cut costs a filesystem truncation)
    seen_lsns = set()
    for cut in range(len(data) - 1, 9, -7):
        wal_path = f"{path}.wal{cut}"
        with open(wal_path, "xb") as out:
            out.write(data[:cut])
        store, report = recover_store(path, wal_path)
        assert report.last_lsn <= 6
        seen_lsns.add(report.last_lsn)
        check_document(store, store.document("d"))
    assert min(seen_lsns) < 6  # at least one truncation actually cut entries


def test_corrupt_crc_stops_scan(tmp_path):
    db, path = durable_db(tmp_path)
    n = run_ops(db)
    db.wal.sync()
    wal_path = path + ".wal"
    data = bytearray(open(wal_path, "rb").read())
    # flip one bit near the end: the final entry fails its checksum and
    # is treated as torn; earlier entries still replay
    data[-3] ^= 0x40
    open(wal_path, "wb").write(bytes(data))
    store, report = recover_store(path)
    assert report.torn_tail
    assert report.last_lsn == n - 1
    check_document(store, store.document("d"))


def test_a_payload_past_the_end_is_a_torn_tail(tmp_path, monkeypatch):
    """A damaged entry head whose payload length runs past the file's
    end is a torn tail, as a short read is, and it is found before the
    payload is read: no read asks for more bytes than the file has left
    (a u32 length could ask for 4 GiB)."""
    db, path = durable_db(tmp_path)
    n = run_ops(db)
    db.wal.sync()
    wal_path = path + ".wal"
    data = bytearray(open(wal_path, "rb").read())
    last = wal_mod._LOG_START
    for _ in range(n - 1):
        _, _, payload_len = wal_mod._ENTRY_HEAD.unpack_from(data, last)
        last += wal_mod._ENTRY_HEAD.size + payload_len + wal_mod._CRC.size
    lsn, op, _ = wal_mod._ENTRY_HEAD.unpack_from(data, last)
    assert lsn == n
    wal_mod._ENTRY_HEAD.pack_into(data, last, lsn, op, 2**32 - 1)
    open(wal_path, "wb").write(bytes(data))

    class Bounded(io.FileIO):
        """A file whose reads may not ask past its end."""

        def read(self, size):
            left = os.fstat(self.fileno()).st_size - self.tell()
            assert size <= left, f"read({size}) with {left} byte(s) left"
            return super().read(size)

    monkeypatch.setattr(wal_mod, "open", lambda path, mode: Bounded(path), raising=False)
    store, report = recover_store(path)
    assert report.torn_tail
    assert report.last_lsn == n - 1
    check_document(store, store.document("d"))


def test_bad_magic_raises(tmp_path):
    db, path = durable_db(tmp_path)
    open(path + ".wal", "wb").write(b"XXXX" + b"\0" * 10)
    with pytest.raises(WalCorruptError):
        recover_store(path)


def test_bad_version_raises(tmp_path):
    db, path = durable_db(tmp_path)
    open(path + ".wal", "wb").write(b"RWAL" + struct.pack("<HQ", 99, 0))
    with pytest.raises(WalCorruptError):
        recover_store(path)


def test_short_header_is_empty_log(tmp_path):
    db, path = durable_db(tmp_path)
    run_ops(db)
    db.wal.sync()
    # a crash during log reset leaves a header-less file: sound only
    # because resets follow checkpoints, so simulate that pairing
    db.wal.checkpoint()
    open(path + ".wal", "wb").write(b"RW")
    store, report = recover_store(path)
    assert report.torn_tail and report.replayed == 0
    assert_stores_identical(db.store, store)


def test_missing_operations_raise(tmp_path):
    db, path = durable_db(tmp_path)
    run_ops(db)
    db.wal.checkpoint()
    root = db.execute("/root", doc="d", plan="simple").nodes[0]
    db.wal.insert("d", root, 0, "post")
    # roll the *image* back to the pre-checkpoint one: now the log's
    # base LSN is ahead of the image and operations are unaccounted for
    db2 = Database(page_size=512, buffer_pages=32)
    db2.load_xml(XML, "d")
    from repro.storage.persist import save_store

    save_store(db2.store, path)
    with pytest.raises(WalCorruptError):
        recover_store(path)


def test_replay_divergence_detected(tmp_path):
    db, path = durable_db(tmp_path)
    run_ops(db)
    db.wal.sync()
    wal_path = path + ".wal"
    data = bytearray(open(wal_path, "rb").read())
    # rewrite the first entry's logged insert-result NodeID and fix up
    # its CRC: the entry is checksum-clean but describes another history
    offset = 4 + wal_mod._WAL_HEADER.size
    head_size = wal_mod._ENTRY_HEAD.size
    lsn, op, payload_len = wal_mod._ENTRY_HEAD.unpack(
        data[offset : offset + head_size]
    )
    assert op == wal_mod.OP_INSERT
    payload_at = offset + head_size
    nid_at = payload_at + payload_len - 8
    data[nid_at : nid_at + 8] = struct.pack("<Q", 0xDEAD)
    crc_at = payload_at + payload_len
    data[crc_at : crc_at + 4] = struct.pack(
        "<I", zlib.crc32(bytes(data[offset:crc_at]))
    )
    open(wal_path, "wb").write(bytes(data))
    with pytest.raises(StoreCorruptError, match="replay diverged"):
        recover_store(path)


def test_unknown_op_with_good_crc_raises(tmp_path):
    db, path = durable_db(tmp_path)
    db.wal.sync()
    wal_path = path + ".wal"
    head = wal_mod._ENTRY_HEAD.pack(1, 77, 0)
    entry = head + struct.pack("<I", zlib.crc32(head))
    with open(wal_path, "ab") as out:
        out.write(entry)
    with pytest.raises(WalCorruptError, match="unknown WAL operation"):
        recover_store(path)


def test_lsn_discontinuity_raises(tmp_path):
    db, path = durable_db(tmp_path)
    db.wal.sync()
    wal_path = path + ".wal"
    # first entry claims LSN 5 on a base-0 log
    payload = b""
    head = wal_mod._ENTRY_HEAD.pack(5, wal_mod.OP_DELETE, len(payload))
    entry = head + payload + struct.pack("<I", zlib.crc32(head + payload))
    with open(wal_path, "ab") as out:
        out.write(entry)
    with pytest.raises(WalCorruptError, match="discontinuity"):
        recover_store(path)


def test_stale_tmp_removed(tmp_path):
    db, path = durable_db(tmp_path)
    run_ops(db)
    db.wal.sync()
    open(path + ".tmp", "wb").write(b"half a checkpoint")
    store, report = recover_store(path)
    assert not os.path.exists(path + ".tmp")
    assert_stores_identical(db.store, store)


def test_slot_reuse_is_deterministic(tmp_path):
    """Delete-then-insert must reuse slots identically live and replayed
    — NodeIDs minted after a delete appear in later log entries."""
    db, path = durable_db(tmp_path)
    wal = db.wal
    root = db.execute("/root", doc="d", plan="simple").nodes[0]
    person = db.execute("//person", doc="d", plan="simple").nodes[0]
    wal.delete("d", person)
    nid = wal.insert("d", root, 0, "reborn")
    wal.set_value("d", db.execute("//item/text()", doc="d", plan="simple").nodes[0], "3")
    wal.insert("d", nid, 0, "child")
    wal.sync()
    store, report = recover_store(path)
    assert report.replayed == 4
    assert_stores_identical(db.store, store)


def test_group_commit_defers_sync(tmp_path, monkeypatch):
    db, path = durable_db(tmp_path)
    root = db.execute("/root", doc="d", plan="simple").nodes[0]
    syncs = []
    monkeypatch.setattr(os, "fsync", lambda fd: syncs.append(fd))
    with db.wal.group_commit():
        db.wal.insert("d", root, 0, "one")
        db.wal.insert("d", root, 0, "two")
        with db.wal.group_commit():  # nested window must not double-sync
            db.wal.insert("d", root, 0, "three")
        inner = len(syncs)
    assert inner == 0  # nothing synced inside the window
    assert len(syncs) == 1  # exactly one sync as the window closed
    db.wal.insert("d", root, 0, "four")
    assert len(syncs) == 2  # per-op sync policy is back


def test_recovered_synopsis_matches_full_recollect(tmp_path):
    from repro.storage.pathsummary import PathSummary
    from repro.storage.synopsis import ClusterSynopsis

    db, path = durable_db(tmp_path)
    run_ops(db)
    db.wal.sync()
    store, _ = recover_store(path)
    doc = store.document("d")
    pages = [store.segment.page(page_no) for page_no in doc.page_nos]
    assert doc.synopsis == ClusterSynopsis.collect(pages)
    assert doc.pathsummary == PathSummary.collect(store.segment, doc.page_nos)


def test_database_recover_runs_queries(tmp_path):
    db, path = durable_db(tmp_path)
    run_ops(db)
    db.wal.sync()
    recovered, report = Database.recover(path)
    assert report.replayed == 6
    for query in ("count(//person)", "count(//extra)", "count(//item)"):
        want = db.execute(query, doc="d").value
        assert recovered.execute(query, doc="d").value == want


def test_recover_custom_wal_path(tmp_path):
    db = Database(page_size=512, buffer_pages=32)
    db.load_xml(XML, "d")
    path = str(tmp_path / "store.rpro")
    side = str(tmp_path / "side.log")
    db.attach_wal(path, wal_path=side)
    run_ops(db)
    db.wal.sync()
    assert os.path.exists(side) and not os.path.exists(path + ".wal")
    store, report = recover_store(path, wal_path=side)
    assert report.replayed == 6
    assert_stores_identical(db.store, store)


def test_failed_operation_is_not_logged(tmp_path):
    db, path = durable_db(tmp_path)
    root = db.execute("/root", doc="d", plan="simple").nodes[0]
    before = db.wal.lsn
    with pytest.raises(StorageError):
        db.wal.insert("d", root, 999, "nope")  # position out of range
    assert db.wal.lsn == before
    store, report = recover_store(path)
    assert report.last_lsn == before
    assert_stores_identical(db.store, store)
