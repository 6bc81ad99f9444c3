"""Failure-path tests for update operations.

Every update keeps the planning snapshots — cluster synopsis and path
summary — equal to a full collection from the pages, also when it fails
midway: the maintenance step runs when an operation raises as when it
returns.  The one exception is a simulated process death
(:class:`~repro.errors.SimulatedCrashError`): memory is gone, and what
must be exact is the store recovered from the WAL, at every crash point
of the operation.  Schema statistics are dropped before the first
mutation, so no failure leaves stale ones behind.
"""

import pytest

from repro import Database
from repro.errors import SimulatedCrashError, StorageError
from repro.sim.faults import CRASH_UPDATE_APPLY, CrashInjector, CrashPoint
from repro.storage.pathsummary import PathSummary
from repro.storage.store import check_document
from repro.storage.synopsis import ClusterSynopsis
from repro.storage.update import insert_node, update_value
from repro.storage.wal import recover_store


XML = (
    "<root><people><person><name>alice</name></person>"
    "<person><name>bob</name></person></people>"
    "<items><item>one</item><item>two</item></items></root>"
)


def fresh_db():
    db = Database(page_size=512, buffer_pages=32)
    db.load_xml(XML, "d")
    return db


def arm(db, at=1):
    db.store.crash = CrashInjector(CrashPoint(step=CRASH_UPDATE_APPLY, at=at))
    return db.store.crash


def assert_snapshots_exact(store, doc):
    pages = [store.segment.page(page_no) for page_no in doc.page_nos]
    assert doc.synopsis == ClusterSynopsis.collect(pages)
    assert doc.pathsummary == PathSummary.collect(store.segment, doc.page_nos)


def people(db):
    return db.execute("/root/people", doc="d", plan="simple").nodes[0]


def fill_people(db):
    """Fill ``people`` until the next insert must relocate or exile."""
    for i in range(12):
        db.wal.insert("d", people(db), 0, f"filler{i}")


def assert_every_crash_point_recovers_exact(tmp_path, operation, least=1):
    """Logged updates, then ``operation`` dying at each of its crash
    points: recovery replays the acknowledged prefix, snapshots exact."""
    probe = fresh_db()
    probe.attach_wal(str(tmp_path / "probe.rpro"))
    fill_people(probe)
    counter = arm(probe, at=10**6)
    operation(probe)
    total = counter.occurrences(CRASH_UPDATE_APPLY)
    assert total >= least
    for at in range(1, total + 1):
        db = fresh_db()
        path = str(tmp_path / f"crash{at}.rpro")
        db.attach_wal(path)
        fill_people(db)
        arm(db, at=at)
        with pytest.raises(SimulatedCrashError):
            operation(db)
        store, report = recover_store(path)
        assert report.last_lsn == 12  # the acknowledged prefix, nothing more
        doc = store.document("d")
        check_document(store, doc)
        assert_snapshots_exact(store, doc)


def test_interrupted_insert_leaves_no_stale_synopsis(tmp_path):
    assert_every_crash_point_recovers_exact(
        tmp_path, lambda db: db.wal.insert("d", people(db), 0, "extra")
    )


def test_interrupted_delete_every_step(tmp_path):
    """The tombstone walk announces one crash point per record: sweep
    them all."""
    assert_every_crash_point_recovers_exact(
        tmp_path, lambda db: db.wal.delete("d", people(db)), least=3
    )


class FailAt:
    """Stands in for a crash injector: its ``at``-th update step raises
    an ordinary :class:`StorageError` — a failure, not a process death."""

    def __init__(self, at):
        self.at = at
        self.seen = 0

    def check(self, step):
        self.seen += 1
        if self.seen == self.at:
            raise StorageError(f"injected failure at {step}")


def test_failed_update_leaves_exact_snapshots():
    """A bare insert that fails — before any mutation (out-of-range
    position) or after its first ones (at every update step, both on the
    parent's page and exiled through a border pair) — leaves snapshots
    equal to a full collect, and no statistics."""
    db = fresh_db()
    doc = db.document("d")
    with pytest.raises(StorageError, match="out of range"):
        insert_node(db.store, doc, people(db), 99, "extra")
    assert_snapshots_exact(db.store, doc)
    for filler in range(14):
        for at in (1, 2):
            db = fresh_db()
            doc = db.document("d")
            for i in range(filler):
                insert_node(db.store, doc, people(db), 0, f"filler{i}")
            db.store.crash = FailAt(at)
            try:
                insert_node(db.store, doc, people(db), 0, "extra")
            except StorageError:
                pass
            assert_snapshots_exact(db.store, doc)
            assert doc.statistics is None


def test_interrupted_set_value_keeps_old_value():
    db = fresh_db()
    doc = db.document("d")
    text = db.execute("//name/text()", doc="d", plan="simple").nodes[0]
    arm(db)
    with pytest.raises(SimulatedCrashError):
        update_value(db.store, text, "carol")
    db.store.crash = None
    # the crash lands between byte re-accounting and the value swap; the
    # value itself is still the old one and the document checks out
    assert db.node_info(text)[2] == "alice"
    check_document(db.store, doc)


def test_uninterrupted_ops_ignore_armed_injector_at_later_step():
    db = fresh_db()
    doc = db.document("d")
    root = db.execute("/root", doc="d", plan="simple").nodes[0]
    arm(db, at=1000)  # armed but never reached
    nid = insert_node(db.store, doc, root, 0, "extra")
    assert int(nid) >= 0
    check_document(db.store, doc)


def test_wal_recovery_discards_interrupted_operation(tmp_path):
    """With a WAL attached, a mid-operation crash recovers to the last
    acknowledged operation: the torn one was never logged."""
    db = fresh_db()
    path = str(tmp_path / "store.rpro")
    db.attach_wal(path, crash=CrashInjector(
        CrashPoint(step=CRASH_UPDATE_APPLY, at=5)
    ))
    root = db.execute("/root", doc="d", plan="simple").nodes[0]
    acked = 0
    try:
        for i in range(10):
            db.wal.insert("d", root, 0, f"n{i}")
            acked += 1
    except SimulatedCrashError:
        pass
    assert 0 < acked < 10
    store, report = recover_store(path)
    assert report.last_lsn == acked  # everything acknowledged, nothing more
    doc = store.document("d")
    check_document(store, doc)
    assert_snapshots_exact(store, doc)  # repaired, not nulled, on recovery


def test_colviews_invalidated_on_touched_pages():
    """Pages mutated before the crash must not serve pre-update columnar
    views (version bump + colview invalidation happen together)."""
    db = fresh_db()
    doc = db.document("d")
    # warm the colviews through a columnar scan
    db.execute("count(//person)", doc="d", plan="xscan")
    segment = db.store.segment
    warmed = {
        page.page_no for page in segment.pages() if page._colview is not None
    }
    assert warmed
    versions = {page.page_no: page.version for page in segment.pages()}
    root = db.execute("/root", doc="d", plan="simple").nodes[0]
    arm(db)
    with pytest.raises(SimulatedCrashError):
        insert_node(db.store, doc, root, 0, "extra")
    moved = [
        page
        for page in segment.pages()
        if page.version != versions.get(page.page_no, -1)
    ]
    assert moved  # the interrupted insert did mutate at least one page
    for page in moved:
        assert page._colview is None
