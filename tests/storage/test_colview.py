"""Tests for the columnar cluster view (storage/colview.py).

Two layers of guarantees:

* parity — for every core slot and axis of a stored document,
  :meth:`ColumnView.axis_candidates` / :meth:`resume_candidates` /
  :meth:`entry_slots` enumerate exactly what ``iter_axis`` /
  ``iter_resume`` / ``speculative_entries`` do, with the same number of
  hop charges encoded in the batch shape;
* coherence — every mutation door (``Page.add``, ``Page.tombstone``,
  the direct-write sites in ``storage/update.py``) drops the view, so a
  query after an update can never see stale columns.  The tombstone
  slot-reuse case is the regression this PR fixes: ``Page.add`` popping
  a ``free_slots`` entry rewrites the middle of the record array and
  must invalidate exactly as deletes do.
"""

import pytest

from repro import Database, EvalOptions, ImportOptions
from repro.algebra.steps import (
    CompiledNodeTest,
    _never_batch,
    compile_match,
    compile_match_batch,
)
from repro.axes import Axis
from repro.model.tree import Kind
from repro.storage.colview import KIND_BORDER, KIND_TOMBSTONE, ColumnView
from repro.storage.nav import iter_axis, iter_resume, speculative_entries
from repro.storage.record import CoreRecord
from repro.storage.update import delete_subtree, insert_node

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


def scalar_enumeration(page, slot, axis, resumed):
    """Drain the nav generator, counting hop charges.

    Enumerations that raise (degenerate border/axis combos never reached
    by real plans) reduce to the exception's type and message, so parity
    extends to the error contract.
    """
    hops = 0

    def charge():
        nonlocal hops
        hops += 1

    try:
        nav = (
            iter_resume(page, slot, axis, charge)
            if resumed
            else iter_axis(page, slot, axis, charge)
        )
        return _normalize(list(nav)), hops
    except Exception as exc:
        return ("raised", type(exc).__name__, str(exc))


def batch_enumeration(view, slot, axis, resumed):
    """Replay a candidate batch into (is_border, slot) pairs + hop count."""
    try:
        if resumed:
            upfront, free_head, cands = view.resume_candidates(slot, axis)
        else:
            upfront, free_head, cands = view.axis_candidates(slot, axis)
    except Exception as exc:
        return ("raised", type(exc).__name__, str(exc))
    kinds = view.kinds
    pairs = _normalize([(s >= 0 and kinds[s] < 0, s) for s in cands])
    hops = upfront + max(0, len(cands) - free_head)
    return pairs, hops


def _normalize(pairs):
    """Collapse the borderness flag for sentinel slots.

    Slot -1 is a continuation proxy's "no local root" marker; degenerate
    resumes (axes real plans never resume at a proxy) surface it as a
    candidate, where any flag derived from it is a Python index
    wraparound artefact on both sides.  Slot identity still must agree.
    """
    return [(("degenerate", s) if s < 0 else (flag, s)) for flag, s in pairs]


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


@pytest.mark.parametrize("fragmentation", [0.0, 1.0])
def test_axis_and_resume_parity_everywhere(fragmentation):
    """Every (slot, axis) batch mirrors nav candidate-for-candidate."""
    db = build_db(fragmentation=fragmentation)
    checked = {False: set(), True: set()}
    for page, view, slot, axis, resumed in every_extension(db):
        want = scalar_enumeration(page, slot, axis, resumed)
        got = batch_enumeration(view, slot, axis, resumed)
        assert got == want, (page.page_no, slot, axis, resumed)
        checked[resumed].add((page.page_no, slot))
    assert len(checked[False]) > 50 and len(checked[True]) > 5


def scalar_events(page, slot, axis, resumed, match):
    """What a scalar XStep does between the candidates that matter:
    ``([(slot | ~border_slot, hops, tests)...], (hops, tests) after the
    last)``, the hops as ``nav`` charges them, one test per core
    candidate.  ``None`` for enumerations real plans never reach."""
    hops = tests = 0

    def charge():
        nonlocal hops
        hops += 1

    events = []
    try:
        nav = (
            iter_resume(page, slot, axis, charge)
            if resumed
            else iter_axis(page, slot, axis, charge)
        )
        for is_border, cand in nav:
            if cand < 0:
                return None
            if not is_border:
                tests += 1
                record = page.records[cand]
                if not match(record.kind, record.tag):
                    continue
            events.append((~cand if is_border else cand, hops, tests))
            hops = tests = 0
    except Exception:
        return None
    return events, (hops, tests)


@pytest.mark.parametrize("fragmentation", [0.0, 1.0])
def test_extension_events_charge_what_nav_charges(fragmentation):
    """Indexed by event, an extension still accounts for every candidate:
    matches and borders (``~slot``) in candidate order, each carrying the
    hops and tests since the previous one, the rest in the tail; the
    upfront hops come before the first."""
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
            want = scalar_events(page, slot, axis, resumed, compile_match(test))
            if want is None:
                continue
            upfront, size, ev_slots, ev_hops, ev_tests, tail = view.extension(
                compile_match_batch(test), slot, axis, resumed
            )
            got = list(zip(ev_slots, ev_hops, ev_tests))
            context = (page.page_no, slot, axis, resumed, test)
            # nav charges the upfront hops before the first candidate
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


def test_entry_slots_match_speculative_entries():
    db = build_db()
    doc = db.document("d")
    for page_no in doc.page_nos:
        page = db.store.segment.page(page_no)
        view = page.colview()
        for axis in AXES:
            assert view.entry_slots(axis) == list(speculative_entries(page, axis)), (
                page_no,
                axis,
            )


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


def _names(db, query, batched):
    result = db.execute(
        query, doc="d", plan="simple", options=EvalOptions(batched=batched)
    )
    return [db.node_info(nid)[1] for nid in result.nodes]


def test_update_then_query_sees_fresh_columns():
    """End-to-end: delete + insert (reusing slots) between batched
    queries returns exactly the scalar (pre-refactor) results."""
    db = Database(page_size=512, buffer_pages=32)
    db.load_xml("<root><a>one</a><b/><c>two</c></root>", "d")
    doc = db.document("d")
    assert _names(db, "/root/*", batched=True) == ["a", "b", "c"]
    b = db.execute("/root/b", doc="d", plan="simple").nodes[0]
    delete_subtree(db.store, doc, b)
    assert _names(db, "/root/*", batched=True) == ["a", "c"]
    root = db.execute("/root", doc="d", plan="simple").nodes[0]
    insert_node(db.store, doc, root, 2, "z")
    for query in ("/root/*", "/root/z", "//z"):
        batched = _names(db, query, batched=True)
        scalar = _names(db, query, batched=False)
        assert batched == scalar, query
    assert _names(db, "/root/*", batched=True) == ["a", "c", "z"]


def test_random_update_storm_keeps_batched_scalar_identical():
    """Many structural updates; after each, batched == scalar results."""
    db = build_db(page_size=512)
    doc = db.document("d")
    queries = ("//a", "/root/*", "//b//c", "//e")
    for round_no in range(6):
        victims = db.execute("//a", doc="d", plan="simple").nodes
        if victims:
            delete_subtree(db.store, doc, victims[round_no % len(victims)])
        roots = db.execute("/root", doc="d", plan="simple").nodes
        insert_node(db.store, doc, roots[0], 0, "a")
        for query in queries:
            on = db.execute(query, doc="d", options=EvalOptions(batched=True))
            off = db.execute(query, doc="d", options=EvalOptions(batched=False))
            assert sorted(on.nodes) == sorted(off.nodes), (round_no, query)
            assert on.total_time == off.total_time, (round_no, query)
