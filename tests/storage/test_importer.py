"""Tests for subtree clustering (the importer)."""

import functools
import hashlib

import pytest

from repro.errors import StorageError
from repro.model.builder import TreeBuilder, tree_from_nested
from repro.model.tags import TagDictionary
from repro.storage.importer import ClusterPolicy, ImportOptions, import_tree
from repro.storage.nodeid import page_of, slot_of
from repro.storage.persist import save_store
from repro.storage.record import BorderRecord, CoreRecord
from repro.storage.store import DocumentStore, check_document, export_tree
from repro.xmark import generate_xmark
from repro.xml.escape import serialize

from tests.conftest import make_random_tree


def test_tiny_tree_single_page():
    tree = tree_from_nested(("a", [("b",), ("c",)]))
    result = import_tree(tree, ImportOptions(page_size=512))
    assert len(result.pages) == 1
    assert result.n_border_pairs == 0
    assert result.n_continuations == 0


def test_root_nodeid_points_at_document_record():
    tree = tree_from_nested(("a",))
    result = import_tree(tree, ImportOptions(page_size=512))
    record = result.pages[0].records[slot_of(result.root)]
    assert isinstance(record, CoreRecord)
    assert record.parent_slot == -1


def test_large_tree_spans_pages_with_borders():
    tags = TagDictionary()
    tree = make_random_tree(tags, seed=11, n_top=50)
    result = import_tree(tree, ImportOptions(page_size=512))
    assert len(result.pages) > 3
    assert result.n_border_pairs > 0


def test_every_node_has_a_location():
    tags = TagDictionary()
    tree = make_random_tree(tags, seed=2, n_top=30)
    result = import_tree(tree, ImportOptions(page_size=512))
    page_nos = set(result.page_nos)
    for node in range(len(tree)):
        nid = result.nodeid_of(node)
        assert page_of(nid) in page_nos
        record = result.pages[result.page_nos.index(page_of(nid))].records[slot_of(nid)]
        assert isinstance(record, CoreRecord)
        assert record.tag == tree.tag_of(node)


def test_ordpath_labels_encode_document_order():
    tags = TagDictionary()
    tree = make_random_tree(tags, seed=5, n_top=25)
    result = import_tree(tree, ImportOptions(page_size=512))

    def ordpath_of(node):
        nid = result.nodeid_of(node)
        page = result.pages[result.page_nos.index(page_of(nid))]
        return page.records[slot_of(nid)].ordpath

    # logical node ids are preorder ranks; ORDPATHs must sort identically
    labels = [ordpath_of(n) for n in range(len(tree))]
    assert labels == sorted(labels)


def test_borders_always_cross_pages():
    tags = TagDictionary()
    tree = make_random_tree(tags, seed=9, n_top=60)
    result = import_tree(tree, ImportOptions(page_size=512))
    for page in result.pages:
        for record in page.records:
            if isinstance(record, BorderRecord):
                assert page_of(record.target()) != page.page_no


def test_high_fanout_forces_continuations():
    builder = TreeBuilder()
    builder.start_element("root")
    for i in range(400):
        builder.start_element("leaf")
        builder.text("v" * (i % 13))
        builder.end_element()
    builder.end_element()
    tree = builder.finish()
    result = import_tree(tree, ImportOptions(page_size=512))
    assert result.n_continuations > 0


def test_fragmentation_permutes_pages_only():
    tags = TagDictionary()
    tree = make_random_tree(tags, seed=4, n_top=50)
    plain = import_tree(tree, ImportOptions(page_size=512, fragmentation=0.0))
    shuffled = import_tree(tree, ImportOptions(page_size=512, fragmentation=1.0, seed=3))
    assert len(plain.pages) == len(shuffled.pages)
    # same logical content, different physical positions for most nodes
    moved = sum(
        1
        for n in range(len(tree))
        if page_of(plain.nodeid_of(n)) != page_of(shuffled.nodeid_of(n))
    )
    assert moved > len(tree) // 2


def test_first_page_offset():
    tree = tree_from_nested(("a", [("b",)]))
    result = import_tree(tree, ImportOptions(page_size=512), first_page_no=10)
    assert result.page_nos == [10]
    assert page_of(result.root) == 10


def test_sequential_policy_round_trip():
    tags = TagDictionary()
    tree = make_random_tree(tags, seed=6, n_top=50)
    store = DocumentStore(page_size=512, tags=tags)
    doc = store.import_document(
        tree, "d", ImportOptions(page_size=512, policy=ClusterPolicy.SEQUENTIAL)
    )
    check_document(store, doc)
    assert serialize(export_tree(store, doc)) == serialize(tree)


def test_sequential_policy_denser_layout_order():
    """Sequential fill keeps pages closer to document order than best fit."""
    tags = TagDictionary()
    tree = make_random_tree(tags, seed=6, n_top=80)
    seq = import_tree(tree, ImportOptions(page_size=512, policy=ClusterPolicy.SEQUENTIAL))

    def inversions(result):
        pages = [page_of(result.nodeid_of(n)) for n in range(len(tree))]
        return sum(1 for a, b in zip(pages, pages[1:]) if a > b)

    best_fit = import_tree(tree, ImportOptions(page_size=512))
    assert inversions(seq) <= inversions(best_fit)


def test_page_size_too_small_rejected():
    tree = tree_from_nested(("a",))
    with pytest.raises(StorageError):
        import_tree(tree, ImportOptions(page_size=64))


@pytest.mark.parametrize("page_size", [256, 512, 2048, 8192])
def test_round_trip_across_page_sizes(page_size):
    tags = TagDictionary()
    tree = make_random_tree(tags, seed=13, n_top=40)
    store = DocumentStore(page_size=page_size, tags=tags)
    doc = store.import_document(tree, "d", ImportOptions(page_size=page_size))
    check_document(store, doc)
    assert serialize(export_tree(store, doc)) == serialize(tree)


@functools.cache
def _xmark_tree() -> tuple[TagDictionary, object]:
    tags = TagDictionary()
    return tags, generate_xmark(scale=0.05, tags=tags, seed=3)


def _layout_digest(store: DocumentStore, doc, path: str) -> str:
    """sha256 over the store image, every page's booked bytes and version,
    and the logical-to-physical node maps."""
    save_store(store, path)
    digest = hashlib.sha256()
    with open(path, "rb") as image:
        digest.update(image.read())
    for page in store.segment.pages():
        digest.update(b"%d %d %d;" % (page.page_no, page.used_bytes, page.version))
    digest.update(doc.import_result.node_page.tobytes())
    digest.update(doc.import_result.node_slot.tobytes())
    return digest.hexdigest()


#: digests of the XMark sf 0.05 (seed 3) layouts, computed before the
#: packer booked whole subtrees at once: a packer change must leave every
#: byte, every page's accounting and every node's place as it was
_PINNED_LAYOUTS = {
    "2048/best_fit/0.0/0": "7da0a97109a2823cd59fbb95219d67d911d03e8744d09c5339ead55dec685de4",
    "2048/best_fit/0.3/5": "4d9932eb482de510e4f5eca7df1b0734eaad963d140a4fc460d372c50164bc2e",
    "2048/best_fit/1.0/3": "800f2f0bee604c7fe888895c8def3b9d650b6a6a218e683549ade348b7966db7",
    "2048/sequential/0.0/0": "8194d0e1b1608201b3159028ef1c627da9326359ca686c3bb8cac3630acdf78c",
    "2048/sequential/0.3/5": "ec46deef5f524a5b7abeddf4c16cd77691d29535ba7b1d5278b9a73d4bd37498",
    "2048/sequential/1.0/3": "1735a69e87451917a9374b054ada5b65af6ace92e20894260ef78ec39b078bdd",
    "8192/best_fit/0.0/0": "6d062bc96123cb1c3954b20eb86ba4f0ef7c5da30bbd0fa58c3097658f16b414",
    "8192/best_fit/0.3/5": "235c1026e4b9394a0ab4d89369860e411d52d525822a4a8525932ba7a17d3138",
    "8192/best_fit/1.0/3": "66333cde7e66ccd613ec81717bfbb6a8122997534b65eabd0d61531a082d9e94",
    "8192/sequential/0.0/0": "003be66632aea0946117143aeddced4fb37f1a53dc01fdfed21cef6ea042cfea",
    "8192/sequential/0.3/5": "5778036953b7bc241280ed78ed2c001cddca055afa9005810d2d6d35e1312612",
    "8192/sequential/1.0/3": "044119c1c78185c542be9884219a0f2ac38e00128e607e1f4c344d38d2587f75",
}


@pytest.mark.parametrize("page_size", [2048, 8192])
@pytest.mark.parametrize("policy", [ClusterPolicy.BEST_FIT, ClusterPolicy.SEQUENTIAL])
@pytest.mark.parametrize("fragmentation,seed", [(0.0, 0), (0.3, 5), (1.0, 3)])
def test_layouts_are_pinned(tmp_path, page_size, policy, fragmentation, seed):
    tags, tree = _xmark_tree()
    store = DocumentStore(page_size=page_size, tags=tags)
    options = ImportOptions(page_size, policy, fragmentation, seed)
    doc = store.import_document(tree, "xmark", options)
    check_document(store, doc)
    key = f"{page_size}/{policy.value}/{fragmentation}/{seed}"
    assert _layout_digest(store, doc, str(tmp_path / "store.rpro")) == _PINNED_LAYOUTS[key]
