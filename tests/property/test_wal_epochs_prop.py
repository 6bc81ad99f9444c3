"""Property: logged update runs with checkpoints at drawn positions
recover to the live store.

A checkpoint empties the log in place: it zeroes what its epoch wrote
and keeps the file, so an epoch shorter than the one before it ends in
the zeros of the longer one.  Drawing the checkpoint positions makes the
epochs differ in length, in both directions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database
from repro.errors import StorageError
from repro.storage.wal import recover_store
from tests.storage.test_wal import assert_stores_identical

XML = "<root><a>seed text</a><b/><c><d/></c></root>"

#: one step: an operation and the draw that picks its target and shape
steps = st.tuples(
    st.sampled_from(("insert", "delete", "set-value", "checkpoint")),
    st.integers(min_value=0, max_value=10**6),
)


def apply(db, op, draw):
    wal = db.wal
    if op == "checkpoint":
        wal.checkpoint()
        return
    elements = db.execute("/root//*", doc="d", plan="simple").nodes
    if op == "delete" and elements:
        wal.delete("d", elements[draw % len(elements)])
    elif op == "set-value":
        texts = db.execute("//text()", doc="d", plan="simple").nodes
        if texts:
            wal.set_value("d", texts[draw % len(texts)], "u" * (draw % 5 + 1))
    else:
        parents = [db.execute("/root", doc="d", plan="simple").nodes[0], *elements]
        value = "v" * (draw % 40) if draw % 3 else None
        wal.insert("d", parents[draw % len(parents)], 0, "wxyz"[draw % 4], value=value)


@pytest.fixture(scope="module")
def store_path(tmp_path_factory):
    """One store for every example: each ``attach_wal`` overwrites it,
    and a file removed per example would cost a block free each."""
    return str(tmp_path_factory.mktemp("epochs") / "store.rpro")


@given(run=st.lists(steps, min_size=1, max_size=24))
@settings(max_examples=15, deadline=None)
def test_recovery_after_uneven_epochs_equals_the_live_store(store_path, run):
    db = Database(page_size=512, buffer_pages=64)
    db.load_xml(XML, "d")
    db.attach_wal(store_path)
    with db.wal.group_commit():  # one fsync per run, not per operation
        for op, draw in run:
            try:
                apply(db, op, draw)
            except StorageError:
                pass  # a refused update is not logged: nothing to recover
    store, report = recover_store(store_path)
    db.wal.close()
    assert not report.torn_tail
    assert report.last_lsn == db.wal.lsn
    assert_stores_identical(db.store, store)
