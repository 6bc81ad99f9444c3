"""Tests for the columnar cluster view (storage/colview.py).

Two layers of guarantees:

* events — for every core slot and axis of a stored document, an
  extension indexed by event accounts for exactly what its candidate
  batch charges, candidate by candidate, and :meth:`entry_slots` lists
  the borders each axis can enter through (the enumerations themselves
  are held against the paper's example tree in ``test_nav.py``);
* coherence — every mutation door (``Page.add``, ``Page.tombstone``,
  the direct-write sites in ``storage/update.py``) drops the view, so a
  query after an update can never see stale columns.  The tombstone
  slot-reuse case is the regression this PR fixes: ``Page.add`` popping
  a ``free_slots`` entry rewrites the middle of the record array and
  must invalidate exactly as deletes do.
"""

import pytest

from repro import Database, ImportOptions
from repro.algebra.steps import (
    CompiledNodeTest,
    CompiledStep,
    _never_batch,
    compile_match_batch,
)
from repro.axes import Axis
from repro.model.tree import Kind
from repro.storage import colview
from repro.storage.colview import KIND_BORDER, KIND_TOMBSTONE, ColumnView
from repro.storage.record import CoreRecord
from repro.storage.update import delete_subtree, insert_node

from tests import golden
from tests.conftest import make_random_tree

AXES = (
    Axis.SELF,
    Axis.CHILD,
    Axis.ATTRIBUTE,
    Axis.DESCENDANT,
    Axis.DESCENDANT_OR_SELF,
    Axis.PARENT,
    Axis.ANCESTOR,
    Axis.ANCESTOR_OR_SELF,
    Axis.FOLLOWING_SIBLING,
    Axis.PRECEDING_SIBLING,
)


def build_db(seed=7, fragmentation=1.0, page_size=512):
    db = Database(page_size=page_size, buffer_pages=48)
    tree = make_random_tree(db.tags, seed=seed, n_top=25)
    db.add_tree(
        tree,
        "d",
        ImportOptions(page_size=page_size, fragmentation=fragmentation, seed=seed),
    )
    return db


def every_extension(db):
    """Every (page, view, slot, axis, resumed) a plan could extend from."""
    doc = db.document("d")
    for page_no in doc.page_nos:
        page = db.store.segment.page(page_no)
        view = page.colview()
        for slot, record in enumerate(page.records):
            if record is None:
                assert view.kinds[slot] == KIND_TOMBSTONE
                continue
            resumed = record.is_border
            if resumed:
                assert view.kinds[slot] == KIND_BORDER
                # resume only at axes that can actually enter through this
                # border (mirrors speculative_entries): downward steps
                # pause at upward borders, upward steps at downward ones,
                # sibling scans at either; a self step never crosses
                axes = tuple(
                    axis
                    for axis in AXES
                    if axis is not Axis.SELF
                    and (
                        (axis.is_downward and not record.down)
                        or (axis.is_upward and record.down)
                        or (not axis.is_downward and not axis.is_upward)
                    )
                )
            else:
                axes = AXES
            for axis in axes:
                yield page, view, slot, axis, resumed


def candidate_events(view, slot, axis, resumed, test):
    """What navigation charges, one candidate at a time, between the
    candidates that matter: ``([(slot | ~border_slot, hops, tests)...],
    (hops, tests) after the last)`` — the batch's upfront hops first, no
    hop for its first ``free_head`` candidates and one for every other,
    one test per core candidate.  ``None`` for enumerations real plans
    never reach."""
    try:
        if resumed:
            upfront, free_head, cands = view.resume_candidates(slot, axis)
        else:
            upfront, free_head, cands = view.axis_candidates(slot, axis)
    except Exception:
        return None
    hops, tests = upfront, 0
    events = []
    for i, cand in enumerate(cands):
        if cand < 0:
            return None
        hops += i >= free_head
        border = view.kinds[cand] == KIND_BORDER
        if not border:
            tests += 1
            if not test.matches(view.kinds[cand], view.tags[cand]):
                continue
        events.append((~cand if border else cand, hops, tests))
        hops = tests = 0
    return events, (hops, tests)


@pytest.mark.parametrize("fragmentation", [0.0, 1.0])
def test_extension_events_charge_what_nav_charges(fragmentation):
    """Indexed by event, an extension still accounts for every candidate
    navigation charges: matches and borders (``~slot``) in candidate
    order, each carrying the hops and tests since the previous one, the
    rest in the tail; the upfront hops come before the first."""
    db = build_db(fragmentation=fragmentation)
    tests = [
        CompiledNodeTest.compile("wildcard", Axis.CHILD, None),
        CompiledNodeTest.compile("name", Axis.CHILD, db.tags.lookup("a")),
        CompiledNodeTest.compile("name", Axis.CHILD, None),
        CompiledNodeTest.compile("text", Axis.CHILD, None),
        CompiledNodeTest.compile("node", Axis.CHILD, None),
    ]
    checked = with_events = shared_empty = 0
    for page, view, slot, axis, resumed in every_extension(db):
        for test in tests:
            want = candidate_events(view, slot, axis, resumed, test)
            if want is None:
                continue
            upfront, size, ev_slots, ev_hops, ev_tests, tail = view.extension(
                compile_match_batch(test), slot, axis, resumed
            )
            got = list(zip(ev_slots, ev_hops, ev_tests))
            context = (page.page_no, slot, axis, resumed, test)
            # the upfront hops are charged before the first candidate
            if got:
                got[0] = (got[0][0], got[0][1] + upfront, got[0][2])
            else:
                tail = (tail[0] + upfront, tail[1])
            assert (got, tail) == want, context
            candidates = (view.resume_candidates if resumed else view.axis_candidates)(
                slot, axis
            )[2]
            assert size == len(candidates), context
            checked += 1
            if got:
                with_events += 1
            else:
                # one shared triple for every event-free extension
                assert ev_slots is ev_hops is ev_tests, context
                assert ev_slots is view.extension(_never_batch, slot, axis, resumed)[2]
                shared_empty += 1
    assert checked > 500 and with_events > 100 and shared_empty > 100


def speculative_entries(page, axis):
    """The borders a paused ``axis`` step can enter ``page`` through:
    downward steps through upward borders (proxies included), upward
    steps through downward ones, sibling steps through every border, and
    a ``self`` step never pauses."""
    if axis is Axis.SELF:
        return []

    def enters(border):
        if axis.is_downward:
            return not border.down
        if axis.is_upward:
            return border.down
        return True

    return [
        slot
        for slot, record in enumerate(page.records)
        if record is not None and record.is_border and enters(record)
    ]


def test_entry_slots_match_speculative_entries():
    db = build_db()
    doc = db.document("d")
    for page_no in doc.page_nos:
        page = db.store.segment.page(page_no)
        view = page.colview()
        for axis in AXES:
            assert view.entry_slots(axis) == speculative_entries(page, axis), (page_no, axis)


def test_view_is_lazy_and_memoized():
    db = build_db()
    doc = db.document("d")
    page = db.store.segment.page(doc.page_nos[0])
    assert page._colview is None
    view = page.colview()
    assert isinstance(view, ColumnView)
    assert page.colview() is view
    core = next(
        s for s, r in enumerate(page.records) if r is not None and not r.is_border
    )
    batch = view.axis_candidates(core, Axis.DESCENDANT)
    assert view.axis_candidates(core, Axis.DESCENDANT) is batch


def test_one_extension_memo_under_int_keys():
    """``memo_key`` tells every (axis, node test) apart and is equal for
    equal steps of different compilations, so the navigating plans share
    one memo per view and step, kept under ints only."""
    db = build_db()
    tags = [None, -1] + [db.tags.lookup(name) for name in "abc"]
    steps = [
        CompiledStep(axis, CompiledNodeTest.compile(kind, axis, tag))
        for axis in AXES
        for kind in ("name", "wildcard", "text", "node", "comment")
        for tag in (tags if kind == "name" else [None])
    ]
    distinct = {(step.axis, step.test) for step in steps}
    assert len({step.memo_key for step in steps}) == len(distinct)
    again = [CompiledStep(step.axis, step.test) for step in steps]
    assert [step.memo_key for step in again] == [step.memo_key for step in steps]
    for plan in ("simple", "xschedule", "xscan"):
        db.execute("count(//a/b)+count(//c/ancestor::a)", doc="d", plan=plan)
    views = [db.store.segment.page(p).colview() for p in db.document("d").page_nos]
    assert all(type(key) is int for view in views for key in view._flag_cache)
    assert sum(len(memo) for view in views for memo in view._flag_cache.values()) > 100


def test_a_view_keeps_a_bounded_number_of_step_memos():
    """A stream of distinct steps over one page cannot grow its view's
    extension memos without bound: past ``TAPE_LIMIT`` steps one more
    drops them all, and what a memo hands back is still the extension."""
    db = build_db()
    tags = [None, -1] + [db.tags.lookup(name) for name in "abc"]
    steps = [
        CompiledStep(axis, CompiledNodeTest.compile(kind, axis, tag))
        for axis in AXES
        for kind in ("name", "wildcard", "text", "node", "comment")
        for tag in (tags if kind == "name" else [None])
    ]
    assert len({step.memo_key for step in steps}) > colview.TAPE_LIMIT
    page = db.store.segment.page(db.document("d").page_nos[0])
    view = page.colview()
    slot = next(i for i, r in enumerate(page.records) if isinstance(r, CoreRecord))
    most = 0
    for _ in range(2):
        for step in steps:
            got = view.extension_batch(step.memo_key, step.match_batch, slot, step.axis, False)
            assert got == view.extension(step.match_batch, slot, step.axis, False)
            most = max(most, len(view._flag_cache))
    assert most == colview.TAPE_LIMIT


def test_tombstone_invalidates_view():
    db = build_db()
    doc = db.document("d")
    page = db.store.segment.page(doc.page_nos[0])
    view = page.colview()
    slot = next(
        s
        for s, r in enumerate(page.records)
        if r is not None and not r.is_border and not r.child_slots and r.parent_slot >= 0
    )
    parent = page.records[slot].parent_slot
    if not page.records[parent].is_border:
        page.records[parent].child_slots.remove(slot)
    page.tombstone(slot)
    assert page._colview is None
    rebuilt = page.colview()
    assert rebuilt is not view
    assert rebuilt.kinds[slot] == KIND_TOMBSTONE


def test_add_reusing_tombstoned_slot_invalidates_view():
    """The satellite regression: ``Page.add`` into a ``free_slots`` entry
    rewrites the middle of the record array and must drop the view."""
    db = build_db()
    doc = db.document("d")
    page = db.store.segment.page(doc.page_nos[0])
    slot = next(
        s
        for s, r in enumerate(page.records)
        if r is not None and not r.is_border and not r.child_slots and r.parent_slot >= 0
    )
    record = page.records[slot]
    parent = record.parent_slot
    if not page.records[parent].is_border:
        page.records[parent].child_slots.remove(slot)
    page.tombstone(slot)
    stale = page.colview()
    assert stale.kinds[slot] == KIND_TOMBSTONE
    reused = page.add(
        CoreRecord(Kind.ELEMENT, record.tag, record.ordpath, parent)
    )
    assert reused == slot, "expected the tombstoned slot to be reused"
    assert page._colview is None, "slot reuse must invalidate the columnar view"
    assert page.colview().kinds[slot] >= 0


def _names(db, query):
    result = db.execute(query, doc="d", plan="simple")
    return [db.node_info(nid)[1] for nid in result.nodes]


def test_update_then_query_sees_fresh_columns():
    """End-to-end: delete + insert (reusing slots) between queries
    returns the hand-derived names, at the pinned books."""
    db = Database(page_size=512, buffer_pages=32)
    db.load_xml("<root><a>one</a><b/><c>two</c></root>", "d")
    doc = db.document("d")
    assert _names(db, "/root/*") == ["a", "b", "c"]
    b = db.execute("/root/b", doc="d", plan="simple").nodes[0]
    delete_subtree(db.store, doc, b)
    assert _names(db, "/root/*") == ["a", "c"]
    root = db.execute("/root", doc="d", plan="simple").nodes[0]
    insert_node(db.store, doc, root, 2, "z")
    assert _names(db, "/root/*") == ["a", "c", "z"]
    assert _names(db, "//z") == ["z"]
    seen = golden.other("updates/fresh-columns")
    assert seen == golden.row("updates/fresh-columns")
    assert [names for _, names, _ in seen["seen"]] == [["a", "c", "z"], ["z"], ["z"]]


def test_random_update_storm_keeps_batched_scalar_identical():
    """Many structural updates; after each, every query returns the
    reference evaluator's count, at the books the scalar chain kept."""
    assert golden.other("updates/storm") == golden.row("updates/storm")


def _delivery_tapes(db) -> dict:
    """``(page_no, key) -> {start: tape}`` of every book of delivery
    tapes the document's views keep."""
    from repro.algebra.xassembly import DeliveryTapes

    out = {}
    for page_no in db.document("d").page_nos:
        view = db.store.segment.page(page_no)._colview
        if view is not None:
            for key, book in view.tapes.items():
                if isinstance(book, DeliveryTapes):
                    out[page_no, key] = dict(book)
    return out


def test_a_view_past_its_tape_limit_rebuilds_delivery_tapes_alike(monkeypatch):
    """A view keeps the delivery tapes of one (path, step) under one
    ``tapes`` key, so ``TAPE_LIMIT`` still counts (path, step) pairs: a
    view pushed past it drops every tape it keeps, and the next
    execution of the path rebuilds them with identical books."""
    from repro import EvalOptions
    from repro.storage import colview

    monkeypatch.setattr(colview, "TAPE_LIMIT", 3)
    db = Database(page_size=512, buffer_pages=48)
    tree = make_random_tree(db.tags, seed=3, n_top=25)
    db.add_tree(tree, "d", ImportOptions(page_size=512, fragmentation=1.0, seed=3))
    options = EvalOptions(k_min_queue=1)
    query = "count(//a//b)"

    def run(path):
        result = db.execute(path, doc="d", plan="xschedule", options=options)
        return result.value, result.stats.as_dict(), result.total_time.hex()

    first = run(query)
    kept = _delivery_tapes(db)
    assert kept and len({key for _, key in kept}) >= 2
    for page_no in db.document("d").page_nos:
        view = db.store.segment.page(page_no)._colview
        assert view is None or len(view.tapes) <= 3
    for other in ("count(//b//c)", "count(//c/ancestor::a)", "count(//a/b/c)"):
        run(other)
    held = _delivery_tapes(db)
    dropped = [where for where in kept if where not in held]
    assert dropped, "no view was pushed past its limit"
    assert run(query) == first
    rebuilt = _delivery_tapes(db)
    again = [
        (where, start)
        for where in dropped
        for start in kept[where].keys() & rebuilt.get(where, {}).keys()
    ]
    assert again, "no dropped tape was built again"
    for where, start in again:
        assert rebuilt[where][start] == kept[where][start], (where, start)
