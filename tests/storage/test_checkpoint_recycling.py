"""The WAL's checkpoint recycles the image it replaces as its next
staging file.

Every image the WAL writes is staged in the spare file beside the store
(``store_path + ".spare"``), overwritten in place, and the image it
replaces is renamed into the spare instead of being deleted: dropping a
file's last link frees its blocks, which on a filesystem that discards
freed blocks is the bulk of a checkpoint.  These tests pin that the
recycled images are the bytes a fresh :func:`save_store` writes, that no
checkpoint drops an image's last link, that a filesystem without hard
links still gets its checkpoint, and that a crash mid-install leaves a
name the next checkpoint settles.
"""

import errno
import os

import pytest

from repro import Database
from repro.errors import SimulatedCrashError
from repro.model.tree import Kind
from repro.sim.faults import CrashInjector, CrashPoint
from repro.storage.persist import save_store
from repro.storage.store import check_document, export_tree
from repro.storage.wal import recover_store
from repro.xml.escape import serialize

XML = "<root>" + "".join(f"<sec><a>t{i}</a></sec>" for i in range(12)) + "</root>"
BLOB = "v" * 200


def durable_db(tmp_path, checkpoint_every=None, crash=None):
    db = Database(page_size=512, buffer_pages=64)
    db.load_xml(XML, "d")
    path = str(tmp_path / "store.rpro")
    db.attach_wal(path, checkpoint_every=checkpoint_every, crash=crash)
    return db, path


def grow(db, n):
    """``n`` new ``blob`` elements, each with a long text child."""
    root = db.execute("/root", doc="d", plan="simple").nodes[0]
    for _ in range(n):
        blob = db.wal.insert("d", root, 0, "blob")
        db.wal.insert("d", blob, 0, "text", kind=Kind.TEXT, value=BLOB)


def shrink(db):
    """Delete every ``blob``."""
    for blob in db.execute("//blob", doc="d", plan="simple").nodes[::-1]:
        db.wal.delete("d", blob)


def resize(db, n):
    """``n`` more blobs, or none left when ``n`` is 0."""
    if n:
        grow(db, n)
    else:
        shrink(db)


def fresh_image(store, tmp_path):
    target = str(tmp_path / "fresh.rpro")
    save_store(store, target)
    with open(target, "rb") as inp:
        return inp.read()


def read(path):
    with open(path, "rb") as inp:
        return inp.read()


def state(store):
    doc = store.document("d")
    check_document(store, doc)
    return (
        serialize(export_tree(store, doc)),
        doc.synopsis,
        doc.pathsummary,
        store.segment.n_pages,
    )


def test_each_recycled_image_is_a_fresh_save(tmp_path):
    """Six checkpoints over a store that grows and shrinks: each image is
    the bytes save_store writes, whether the spare it overwrote was
    longer than the new image or shorter."""
    db, path = durable_db(tmp_path)
    spare = db.wal.spare_path
    assert read(path) == fresh_image(db.store, tmp_path)
    longer = shorter = 0
    for n in (3, 0, 1, 0, 4, 0):
        resize(db, n)
        before = os.path.getsize(spare) if os.path.exists(spare) else None
        db.wal.checkpoint()
        image = read(path)
        assert image == fresh_image(db.store, tmp_path)
        if before is not None:
            longer += before > len(image)
            shorter += before < len(image)
    assert longer and shorter
    assert sorted(os.listdir(tmp_path)) == [
        "fresh.rpro",
        "store.rpro",
        "store.rpro.spare",
        "store.rpro.wal",
    ]
    store, report = recover_store(path)
    assert report.replayed == 0
    assert state(store) == state(db.store)


def test_no_checkpoint_drops_the_last_link_of_an_image(tmp_path, monkeypatch):
    """After the first checkpoint, every replace or removal a checkpoint
    makes lands on a name whose file has another link."""
    db, path = durable_db(tmp_path)
    grow(db, 2)
    db.wal.checkpoint()
    dropped, calls = [], []

    def last_link(target):
        try:
            return os.stat(target).st_nlink == 1
        except FileNotFoundError:
            return False

    def watched(name, target_of):
        real = getattr(os, name)

        def call(*args, **kwargs):
            target = target_of(*args)
            calls.append((name, os.path.basename(target)))
            if last_link(target):
                dropped.append((name, target))
            return real(*args, **kwargs)

        return call

    monkeypatch.setattr(os, "replace", watched("replace", lambda src, dst: dst))
    monkeypatch.setattr(os, "remove", watched("remove", lambda target: target))
    monkeypatch.setattr(os, "unlink", watched("unlink", lambda target: target))
    for n in (0, 3, 0, 1):
        resize(db, n)
        db.wal.checkpoint()
    # a second link a crash left behind is dropped, which frees nothing
    os.link(path, path + ".prev")
    db.wal.checkpoint()
    monkeypatch.undo()
    assert dropped == []
    assert calls.count(("replace", "store.rpro")) == 5
    assert calls.count(("replace", "store.rpro.spare")) == 5
    assert calls.count(("remove", "store.rpro.prev")) == 1
    assert not os.path.exists(path + ".prev")
    store, _ = recover_store(path)
    assert state(store) == state(db.store)


def test_a_refused_link_still_installs(tmp_path, monkeypatch):
    """A filesystem without hard links gets the checkpoint as save_store
    installs it (the old image is dropped, and the next checkpoint stages
    into a new spare); recovery still holds."""
    db, path = durable_db(tmp_path)

    def refuse(src, dst, **kwargs):
        raise OSError(errno.EPERM, "hard links not supported", dst)

    monkeypatch.setattr(os, "link", refuse)
    for n in (2, 0, 1):
        resize(db, n)
        db.wal.checkpoint()
        assert read(path) == fresh_image(db.store, tmp_path)
        assert not os.path.exists(path + ".prev")
        assert not os.path.exists(db.wal.spare_path)
    grow(db, 1)  # logged past the last checkpoint: replayed
    db.wal.sync()
    store, report = recover_store(path)
    assert report.replayed == 2
    assert state(store) == state(db.store)


def oracle_states(tmp_path):
    """State after every acknowledged operation of :func:`workload`."""
    db, _ = durable_db(tmp_path / "oracle", checkpoint_every=2)
    states = [state(db.store)]
    for op in workload(db):
        op()
        states.append(state(db.store))
    return states


def workload(db):
    """Eight logged operations; with ``checkpoint_every=2`` they make
    four checkpoints."""

    def root():
        return db.execute("/root", doc="d", plan="simple").nodes[0]

    def blob(i):
        return lambda: db.wal.insert("d", root(), 0, f"b{i}", kind=Kind.ELEMENT)

    def text(i):
        def op():
            parent = db.execute(f"//b{i}", doc="d", plan="simple").nodes[0]
            db.wal.insert("d", parent, 0, "text", kind=Kind.TEXT, value=BLOB)

        return op

    def drop(i):
        return lambda: db.wal.delete(
            "d", db.execute(f"//b{i}", doc="d", plan="simple").nodes[0]
        )

    return [blob(0), text(0), blob(1), text(1), drop(0), blob(2), drop(1), text(2)]


@pytest.mark.parametrize(
    "step, at, left",
    [
        ("page-write", 2, None),
        ("checkpoint-temp", 1, "second link"),
        ("checkpoint-temp", 2, "second link"),
        ("checkpoint-rename", 1, "replaced image"),
        ("checkpoint-rename", 2, "replaced image"),
    ],
)
def test_a_crash_mid_install_leaves_a_name_the_next_checkpoint_settles(
    tmp_path, step, at, left
):
    """Crash inside a checkpoint, recover, attach again, run two more
    checkpoints and recover again: each recovery matches the uncrashed
    run, and the name the crash left is settled."""
    (tmp_path / "oracle").mkdir()
    states = oracle_states(tmp_path)
    crash = CrashInjector(CrashPoint(step=step, at=at, torn_fraction=0.5))
    db, path = durable_db(tmp_path, checkpoint_every=2, crash=crash)
    with pytest.raises(SimulatedCrashError):
        for op in workload(db):
            op()
    assert crash.tripped
    previous = path + ".prev"
    if left is None:
        assert not os.path.exists(previous)
    else:
        assert os.path.exists(previous)
        assert os.path.samefile(previous, path) == (left == "second link")

    recovered, report = Database.recover(path)
    assert state(recovered.store) == states[report.last_lsn]
    recovered.attach_wal(path, checkpoint_every=2)
    assert not os.path.exists(previous)
    grow(recovered, 2)  # four logged inserts: two more checkpoints
    assert os.path.exists(recovered.wal.spare_path)
    assert not os.path.exists(previous)
    store, again = recover_store(path)
    assert again.last_lsn == report.last_lsn + 4
    assert state(store) == state(recovered.store)
