"""White-box tests for intra-cluster navigation on the paper's example tree.

The expectations are derived by hand from the paper's figure (see
``tests/paper_tree.py``): which nodes one axis reaches inside a cluster,
which of them are borders left for a later crossing, and how many
``intra_hop`` charges the enumeration costs — read off the candidate
batches of :class:`~repro.storage.colview.ColumnView` that every
navigating kernel walks.
"""

import pytest

from repro.axes import Axis
from repro.errors import StorageError, StoreCorruptError
from repro.storage.colview import KIND_BORDER
from repro.storage.nodeid import make_nodeid, page_of, slot_of

from tests.paper_tree import PAGE_A, PAGE_B, PAGE_C, PAGE_D, build_paper_tree


@pytest.fixture(scope="module")
def paper():
    return build_paper_tree()


def nav(paper, name, axis, resume=False):
    """Run a navigation and render results as paper node names, with the
    hop charges the batch's shape encodes."""
    nid = paper.nodes[name]
    view = paper.db.store.segment.page(page_of(nid)).colview()
    candidates = view.resume_candidates if resume else view.axis_candidates
    upfront, free_head, slots = candidates(slot_of(nid), axis)
    reverse = {v: k for k, v in paper.nodes.items()}
    named = [
        (view.kinds[slot] == KIND_BORDER, reverse[make_nodeid(view.page_no, slot)])
        for slot in slots
    ]
    return named, upfront + max(0, len(slots) - free_head)


def test_child_axis_yields_borders_unexpanded(paper):
    results, hops = nav(paper, "d1", Axis.CHILD)
    assert results == [(True, "d2"), (True, "d3"), (False, "d4")]
    assert hops == 3


def test_child_axis_within_cluster(paper):
    results, hops = nav(paper, "c2", Axis.CHILD)
    assert results == [(False, "c3"), (False, "c4")]
    assert hops == 2


def test_descendant_stops_at_borders(paper):
    results, hops = nav(paper, "d1", Axis.DESCENDANT)
    assert results == [(True, "d2"), (True, "d3"), (False, "d4"), (True, "d5")]
    assert hops == 4


def test_descendant_or_self_includes_self(paper):
    results, hops = nav(paper, "c2", Axis.DESCENDANT_OR_SELF)
    assert results == [(False, "c2"), (False, "c3"), (False, "c4")]
    assert hops == 2  # the node itself is reached for free


def test_self_axis(paper):
    results, hops = nav(paper, "a2", Axis.SELF)
    assert results == [(False, "a2")]
    assert hops == 0


def test_parent_within_cluster(paper):
    results, hops = nav(paper, "a3", Axis.PARENT)
    assert results == [(False, "a2")]
    assert hops == 1


def test_parent_across_border(paper):
    results, hops = nav(paper, "a2", Axis.PARENT)
    assert results == [(True, "a1")]
    assert hops == 1


def test_parent_of_root_is_empty(paper):
    results, hops = nav(paper, "d1", Axis.PARENT)
    assert results == []
    assert hops == 0


def test_ancestor_stops_at_border(paper):
    results, hops = nav(paper, "a3", Axis.ANCESTOR)
    assert results == [(False, "a2"), (True, "a1")]
    assert hops == 2


def test_ancestor_or_self(paper):
    results, hops = nav(paper, "c4", Axis.ANCESTOR_OR_SELF)
    assert results == [(False, "c4"), (False, "c2"), (True, "c1")]
    assert hops == 2


def test_following_sibling_intra(paper):
    results, hops = nav(paper, "c3", Axis.FOLLOWING_SIBLING)
    assert results == [(False, "c4")]
    assert hops == 2  # the holder's child list, then the sibling


def test_following_sibling_of_cluster_root_crosses(paper):
    results, hops = nav(paper, "a2", Axis.FOLLOWING_SIBLING)
    assert results == [(True, "a1")]
    assert hops == 1  # the siblings live across the border: one hop to it


def test_preceding_sibling_intra(paper):
    results, hops = nav(paper, "c4", Axis.PRECEDING_SIBLING)
    assert results == [(False, "c3")]
    assert hops == 2


# ------------------------------------------------------------------ resume


def test_resume_child_at_up_border(paper):
    """A paused child step entering cluster a tests only the local root."""
    results, hops = nav(paper, "a1", Axis.CHILD, resume=True)
    assert results == [(False, "a2")]
    assert hops == 1


def test_resume_descendant_is_descendant_or_self(paper):
    results, hops = nav(paper, "c1", Axis.DESCENDANT, resume=True)
    assert results == [(False, "c2"), (False, "c3"), (False, "c4")]
    assert hops == 3


def test_resume_parent_at_down_border(paper):
    results, hops = nav(paper, "d2", Axis.PARENT, resume=True)
    assert results == [(False, "d1")]
    assert hops == 1


def test_resume_ancestor_at_down_border(paper):
    results, hops = nav(paper, "d5", Axis.ANCESTOR, resume=True)
    assert results == [(False, "d4"), (False, "d1")]
    assert hops == 2


def test_resume_following_sibling_at_down_border(paper):
    """a2's siblings resume in cluster d after border d2."""
    results, hops = nav(paper, "d2", Axis.FOLLOWING_SIBLING, resume=True)
    assert results == [(True, "d3"), (False, "d4")]
    assert hops == 3


def test_resume_preceding_sibling_at_down_border(paper):
    results, hops = nav(paper, "d3", Axis.PRECEDING_SIBLING, resume=True)
    assert results == [(True, "d2")]
    assert hops == 2


def test_resume_sibling_candidate_at_up_border(paper):
    """Crossing into an exiled sibling yields the sibling itself."""
    results, hops = nav(paper, "c1", Axis.FOLLOWING_SIBLING, resume=True)
    assert results == [(False, "c2")]
    assert hops == 1


# -------------------------------------------------------------- speculation


def test_speculative_entries_downward(paper):
    segment = paper.db.store.segment
    assert segment.page(PAGE_A).colview().entry_slots(Axis.DESCENDANT) == [0]
    assert segment.page(PAGE_D).colview().entry_slots(Axis.CHILD) == []


def test_speculative_entries_upward(paper):
    segment = paper.db.store.segment
    # cluster d holds three downward borders: entries for upward axes
    assert segment.page(PAGE_D).colview().entry_slots(Axis.ANCESTOR) == [1, 2, 4]
    assert segment.page(PAGE_A).colview().entry_slots(Axis.PARENT) == []


def test_speculative_entries_sibling(paper):
    segment = paper.db.store.segment
    # every border is a potential sibling entry
    assert segment.page(PAGE_D).colview().entry_slots(Axis.FOLLOWING_SIBLING) == [1, 2, 4]
    assert segment.page(PAGE_C).colview().entry_slots(Axis.FOLLOWING_SIBLING) == [0]
    # a self step never pauses, so it has no entry anywhere
    assert segment.page(PAGE_B).colview().entry_slots(Axis.SELF) == []


# ----------------------------------------------------------- corrupt stores


def test_continuation_proxy_without_child_list_is_a_corrupt_store():
    """The upward side of a continuation carries the rest of a split
    child list; one that lost it cannot be resumed into."""
    paper = build_paper_tree()
    page = paper.db.store.segment.page(PAGE_C)
    slot = slot_of(paper.nodes["c1"])
    proxy = page.records[slot]
    proxy.continuation = True
    proxy.child_slots = None
    page.invalidate_colview()
    view = page.colview()
    for axis in (Axis.CHILD, Axis.DESCENDANT, Axis.FOLLOWING_SIBLING):
        with pytest.raises(StoreCorruptError, match="has no child list"):
            view.resume_candidates(slot, axis)


def test_navigation_from_the_wrong_kind_of_slot_is_a_storage_error(paper):
    """An axis starts at a core node, a resume at a border record."""
    view = paper.db.store.segment.page(PAGE_D).colview()
    with pytest.raises(StorageError, match="non-core slot"):
        view.axis_candidates(slot_of(paper.nodes["d2"]), Axis.CHILD)
    with pytest.raises(StorageError, match="non-border slot"):
        view.resume_candidates(slot_of(paper.nodes["d4"]), Axis.CHILD)
