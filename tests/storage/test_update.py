"""Tests for in-place updates (insert / delete / value update)."""

import random

import pytest

from repro import Database, ImportOptions
from repro.errors import StorageError
from repro.model.tree import Kind
from repro.storage.store import check_document, export_tree
from repro.storage.update import delete_subtree, insert_node, update_value

from tests import golden
from tests.conftest import make_random_tree


def make_db(xml="<root><a>one</a><b/><c>two</c></root>", page_size=512):
    db = Database(page_size=page_size, buffer_pages=32)
    db.load_xml(xml, "d")
    return db


def find_one(db, query):
    result = db.execute(query, doc="d", plan="simple")
    assert len(result.nodes) == 1
    return result.nodes[0]


def test_append_child():
    db = make_db()
    doc = db.document("d")
    root = find_one(db, "/root")
    insert_node(db.store, doc, root, 3, "z")
    assert db.execute("count(/root/z)", doc="d").value == 1.0
    names = [db.node_info(n)[1] for n in db.execute("/root/*", doc="d", plan="simple").nodes]
    assert names == ["a", "b", "c", "z"]


def test_insert_between_siblings_keeps_document_order():
    db = make_db()
    doc = db.document("d")
    root = find_one(db, "/root")
    insert_node(db.store, doc, root, 1, "m")
    names = [db.node_info(n)[1] for n in db.execute("/root/*", doc="d", plan="simple").nodes]
    assert names == ["a", "m", "b", "c"]


def test_insert_first_child():
    db = make_db()
    doc = db.document("d")
    root = find_one(db, "/root")
    insert_node(db.store, doc, root, 0, "first")
    names = [db.node_info(n)[1] for n in db.execute("/root/*", doc="d", plan="simple").nodes]
    assert names[0] == "first"


def test_insert_into_empty_element():
    db = make_db()
    doc = db.document("d")
    b = find_one(db, "/root/b")
    insert_node(db.store, doc, b, 0, "inner")
    assert db.execute("count(/root/b/inner)", doc="d").value == 1.0


def test_insert_text_node():
    db = make_db()
    doc = db.document("d")
    b = find_one(db, "/root/b")
    nid = insert_node(db.store, doc, b, 0, "#text", kind=Kind.TEXT, value="hello")
    kind, _, value = db.node_info(nid)
    assert kind == "TEXT" and value == "hello"
    texts = db.execute("/root/b/text()", doc="d", plan="simple")
    assert len(texts.nodes) == 1


def test_many_inserts_at_same_position_carets_hold():
    """Stress ORDPATH careting: always insert at position 1."""
    db = make_db()
    doc = db.document("d")
    root = find_one(db, "/root")
    for i in range(50):
        insert_node(db.store, doc, root, 1, f"n{i}")
    names = [db.node_info(n)[1] for n in db.execute("/root/*", doc="d", plan="simple").nodes]
    assert names[0] == "a"
    assert names[1:51] == [f"n{49 - i}" for i in range(50)]
    assert names[51:] == ["b", "c"]
    check_document(db.store, doc)


def test_inserts_spill_to_other_pages():
    """Filling a page forces exile borders; queries stay correct."""
    db = make_db(page_size=256)
    doc = db.document("d")
    root = find_one(db, "/root")
    pages_before = db.store.segment.n_pages
    for i in range(60):
        insert_node(db.store, doc, root, i, "fat", value="x" * 40)
    assert db.execute("count(/root/fat)", doc="d").value == 60.0
    assert db.store.segment.n_pages > pages_before
    check_document(db.store, doc)


def test_all_plans_agree_after_updates():
    db = make_db()
    doc = db.document("d")
    root = find_one(db, "/root")
    for i in range(20):
        insert_node(db.store, doc, root, i % 3, "x")
    counts = {
        plan: db.execute("count(/root/x)", doc="d", plan=plan).value
        for plan in ("simple", "xschedule", "xscan")
    }
    assert set(counts.values()) == {20.0}


def test_delete_leaf():
    db = make_db()
    doc = db.document("d")
    b = find_one(db, "/root/b")
    removed = delete_subtree(db.store, doc, b)
    assert removed == 1
    assert db.execute("count(/root/b)", doc="d").value == 0.0
    names = [db.node_info(n)[1] for n in db.execute("/root/*", doc="d", plan="simple").nodes]
    assert names == ["a", "c"]


def test_delete_subtree_counts_descendants():
    db = make_db("<root><a><b><c/><c/></b>text</a><keep/></root>")
    doc = db.document("d")
    a = find_one(db, "/root/a")
    removed = delete_subtree(db.store, doc, a)
    assert removed == 5  # a, b, c, c, text
    assert db.execute("count(//c)", doc="d").value == 0.0
    assert db.execute("count(/root/keep)", doc="d").value == 1.0


def test_delete_exiled_subtree_crosses_borders():
    db = Database(page_size=256, buffer_pages=32)
    tree = make_random_tree(db.tags, seed=3, n_top=30)
    db.add_tree(tree, "d", ImportOptions(page_size=256))
    doc = db.document("d")
    before = db.execute("count(//a)", doc="d").value
    target = db.execute("/root/a", doc="d", plan="simple").nodes[0]
    delete_subtree(db.store, doc, target)
    after = db.execute("count(//a)", doc="d").value
    assert after < before


def test_delete_root_rejected():
    db = make_db()
    doc = db.document("d")
    with pytest.raises(StorageError):
        delete_subtree(db.store, doc, doc.root)


def test_update_value():
    db = make_db()
    doc = db.document("d")
    text = db.execute("/root/a/text()", doc="d", plan="simple").nodes[0]
    update_value(db.store, text, "changed")
    assert db.node_info(text)[2] == "changed"


def test_update_value_rejects_elements():
    db = make_db()
    a = find_one(db, "/root/a")
    with pytest.raises(StorageError):
        update_value(db.store, a, "nope")


def test_insert_position_out_of_range():
    db = make_db()
    doc = db.document("d")
    root = find_one(db, "/root")
    with pytest.raises(StorageError):
        insert_node(db.store, doc, root, 7, "z")


def test_statistics_invalidated_by_updates():
    db = make_db()
    doc = db.document("d")
    assert doc.statistics is not None
    insert_node(db.store, doc, find_one(db, "/root"), 0, "z")
    assert doc.statistics is None
    # AUTO still works without statistics
    assert db.execute("count(/root/z)", doc="d", plan="auto").value == 1.0


def test_randomized_update_storm_round_trips():
    """Apply a random mix of inserts and deletes; storage stays sound."""
    rng = random.Random(5)
    db = make_db(page_size=256)
    doc = db.document("d")
    for step in range(80):
        elements = db.execute("//*", doc="d", plan="simple").nodes
        if rng.random() < 0.7 or len(elements) < 4:
            parent = rng.choice(elements + [doc.root])
            kind, _, _ = db.node_info(parent)
            if kind == "TEXT":
                continue
            entries = db.execute("count(//*)", doc="d").value
            insert_node(db.store, doc, parent, 0, rng.choice("xyz"))
        else:
            victim = rng.choice(elements)
            if victim == doc.root:
                continue
            delete_subtree(db.store, doc, victim)
    check_document(db.store, doc)
    exported = export_tree(db.store, doc)
    exported.validate()
    # all plans still agree after the storm
    for query in ("count(//x)", "count(//*)", "//y"):
        results = [db.execute(query, doc="d", plan=p) for p in ("simple", "xschedule", "xscan")]
        values = {r.value if r.value is not None else tuple(r.nodes) for r in results}
        assert len(values) == 1, query


def test_update_storm_soundness():
    """Update storms, logged and bare, on three page sizes: the golden
    file's ``storm`` rows (``tests/golden.py``).  After every operation
    the planning snapshots equal a rebuild and pruned answers the
    reference evaluator's; at the end the store is sound and every plan
    and both exports agree."""
    for key in golden.STORMS:
        assert golden.other(key) == golden.row(key), key
