"""Tests for the document store and its validators."""

import pytest

from repro.errors import StorageError
from repro.model.builder import tree_from_nested
from repro.model.tags import TagDictionary
from repro.storage.importer import ImportOptions
from repro.storage.store import (
    DocumentStatistics,
    DocumentStore,
    check_document,
    export_tree,
)
from repro.xml.escape import serialize

from tests.conftest import make_random_tree


def test_import_and_lookup():
    tags = TagDictionary()
    store = DocumentStore(page_size=512, tags=tags)
    tree = tree_from_nested(("a", [("b",)]), tags)
    doc = store.import_document(tree, "mine")
    assert store.document("mine") is doc
    assert doc.n_nodes == 3
    with pytest.raises(StorageError):
        store.document("other")


def test_duplicate_name_rejected():
    tags = TagDictionary()
    store = DocumentStore(page_size=512, tags=tags)
    tree = tree_from_nested(("a",), tags)
    store.import_document(tree, "d")
    with pytest.raises(StorageError):
        store.import_document(tree, "d")


def test_foreign_tag_dictionary_rejected():
    store = DocumentStore(page_size=512)
    tree = tree_from_nested(("a",))  # its own dictionary
    with pytest.raises(StorageError):
        store.import_document(tree, "d")


def test_mismatched_page_size_rejected():
    tags = TagDictionary()
    store = DocumentStore(page_size=512, tags=tags)
    tree = tree_from_nested(("a",), tags)
    with pytest.raises(StorageError):
        store.import_document(tree, "d", ImportOptions(page_size=1024))


def test_multiple_documents_share_segment():
    tags = TagDictionary()
    store = DocumentStore(page_size=512, tags=tags)
    t1 = make_random_tree(tags, seed=1, n_top=20)
    t2 = make_random_tree(tags, seed=2, n_top=20)
    d1 = store.import_document(t1, "one")
    d2 = store.import_document(t2, "two")
    assert set(d1.page_nos).isdisjoint(d2.page_nos)
    assert max(d1.page_nos) < min(d2.page_nos)
    check_document(store, d1)
    check_document(store, d2)
    assert serialize(export_tree(store, d1)) == serialize(t1)
    assert serialize(export_tree(store, d2)) == serialize(t2)


def test_statistics_collected():
    tags = TagDictionary()
    store = DocumentStore(page_size=512, tags=tags)
    tree = tree_from_nested(("a", [("b", [("c",)]), ("b",)]), tags)
    doc = store.import_document(tree, "d")
    stats = doc.statistics
    assert stats is not None
    assert stats.n_nodes == len(tree)
    b = tags.lookup("b")
    a = tags.lookup("a")
    c = tags.lookup("c")
    assert stats.tag_counts[b] == 2
    assert stats.child_pairs[(a, b)] == 2
    assert stats.desc_pairs[(a, c)] == 1
    assert stats.desc_pairs[(b, c)] == 1


def test_statistics_standalone_collect():
    tree = tree_from_nested(("a", ["text", ("b",)]))
    stats = DocumentStatistics.collect(tree)
    assert stats.n_elements == 2
    assert stats.n_nodes == 4


def test_statistics_from_summary_equal_a_sweep_of_the_tree():
    """The statistics are derived from the path summary; their definition
    is a sweep: every node under each of its ancestors, recursive tags
    (``a`` under ``a``) counted once per ancestor."""
    tags = TagDictionary()
    store = DocumentStore(page_size=512, tags=tags)
    tree = make_random_tree(tags, seed=11, n_top=30, tag_pool="ab")
    stats = store.import_document(tree, "d").statistics
    tag_counts, child_pairs, desc_pairs = {}, {}, {}
    for node in range(len(tree)):
        tag = tree.tag[node]
        tag_counts[tag] = tag_counts.get(tag, 0) + 1
        ancestor = parent = tree.parent[node]
        if parent >= 0:
            child_pairs[tree.tag[parent], tag] = child_pairs.get((tree.tag[parent], tag), 0) + 1
        while ancestor >= 0:
            desc_pairs[tree.tag[ancestor], tag] = desc_pairs.get((tree.tag[ancestor], tag), 0) + 1
            ancestor = tree.parent[ancestor]
    assert (stats.tag_counts, stats.child_pairs, stats.desc_pairs) == (
        tag_counts,
        child_pairs,
        desc_pairs,
    )
    assert stats.n_nodes == len(tree)
    assert stats == DocumentStatistics.collect(tree)
    a = tags.lookup("a")
    assert desc_pairs[a, a] > child_pairs[a, a]  # nesting deeper than one level occurred
