"""Tests for statistics recollection after updates."""

from repro import Database
from repro.storage.pathsummary import PathSummary
from repro.storage.store import DocumentStatistics, recollect_statistics
from repro.storage.update import delete_subtree, insert_node

from tests.conftest import make_random_tree, small_database


def test_recollection_matches_import_time_statistics():
    db, tree = small_database(seed=41, n_top=40)
    doc = db.document("d")
    original = doc.statistics
    # read the pages, not the import's summary
    doc.pathsummary = PathSummary.collect(db.store.segment, doc.page_nos)
    recollected = recollect_statistics(db.store, doc)
    assert recollected.n_nodes == original.n_nodes
    assert recollected.n_elements == original.n_elements
    assert recollected.tag_counts == original.tag_counts
    assert recollected.child_pairs == original.child_pairs
    assert recollected.desc_pairs == original.desc_pairs


def test_recollection_after_updates():
    db = Database(page_size=512, buffer_pages=32)
    db.load_xml("<root><a/><a/></root>", "d")
    doc = db.document("d")
    root = db.execute("/root", doc="d", plan="simple").nodes[0]
    insert_node(db.store, doc, root, 0, "a")
    insert_node(db.store, doc, root, 0, "b")
    assert doc.statistics is None  # invalidated by the updates
    stats = recollect_statistics(db.store, doc)
    a = db.tags.lookup("a")
    b = db.tags.lookup("b")
    assert stats.tag_counts[a] == 3
    assert stats.tag_counts[b] == 1
    # and the AUTO plan chooser has statistics again
    result = db.execute("count(//a)", doc="d", plan="auto")
    assert result.value == 3.0


def test_recollection_after_delete():
    db = Database(page_size=512, buffer_pages=32)
    db.load_xml("<root><a><x/></a><a/></root>", "d")
    doc = db.document("d")
    victim = db.execute("/root/a", doc="d", plan="simple").nodes[0]
    delete_subtree(db.store, doc, victim)
    stats = recollect_statistics(db.store, doc)
    assert stats.tag_counts[db.tags.lookup("a")] == 1
    assert db.tags.lookup("x") not in stats.tag_counts or stats.tag_counts[
        db.tags.lookup("x")
    ] == 0
    assert doc.n_nodes == stats.n_nodes
