"""Unit tests for the per-cluster synopsis (collection, persistence,
maintenance under updates, and the paper-example pruning guarantees)."""

import pytest

from repro import Database, DiskGeometry, EvalOptions
from repro.axes import Axis
from repro.algebra.steps import CompiledNodeTest, CompiledStep
from repro.storage.synopsis import (
    CHILD_TRANSIT,
    HAS_DOWN,
    HAS_UPSIDE,
    ClusterSynopsis,
    cost_effective_skips,
)
from repro.storage.store import export_tree
from repro.storage.update import insert_node
from repro.xpath.reference import evaluate_query

from tests.conftest import small_database
from tests.paper_tree import PAGE_A, PAGE_B, PAGE_C, PAGE_D, build_paper_tree


def _step(tags, axis, name):
    return CompiledStep(axis, CompiledNodeTest.compile("name", axis, tags.lookup(name)))


# ------------------------------------------------------------- collection


def test_import_collects_synopsis():
    db, _ = small_database(seed=71, n_top=40, fragmentation=1.0)
    doc = db.document("d")
    synopsis = doc.synopsis
    assert synopsis is not None
    assert synopsis.n_clusters == doc.n_pages
    # occupancy counts every core record exactly once
    assert synopsis.n_records == doc.n_nodes
    assert sum(synopsis.occupancy(p) for p in doc.page_nos) == doc.n_nodes
    assert synopsis.mean_occupancy() >= 1.0


def test_recollect_matches_import_time_synopsis():
    db, _ = small_database(seed=72, n_top=30)
    doc = db.document("d")
    recollected = ClusterSynopsis.collect(db.store.segment.page(p) for p in doc.page_nos)
    assert recollected == doc.synopsis


def test_paper_tree_rows():
    paper = build_paper_tree()
    synopsis = paper.doc.synopsis
    tags = paper.db.tags
    tag_a, tag_b, tag_x = (tags.lookup(t) for t in ("A", "B", "X"))
    rows = synopsis.rows()
    # cluster a: up-border entering at a2:A; holds A and B
    tag_bits, entry_bits, flags, occupancy = rows[PAGE_A]
    assert flags == HAS_UPSIDE
    assert occupancy == 2
    assert tag_bits >> tag_a & 1 and tag_bits >> tag_b & 1
    assert entry_bits == 1 << tag_a
    # cluster b: up-border entering at b2:X; holds only X
    tag_bits, entry_bits, flags, occupancy = rows[PAGE_B]
    assert flags == HAS_UPSIDE
    assert tag_bits == 1 << tag_x
    assert entry_bits == 1 << tag_x
    # cluster d holds the root and three down borders, no up-side entry
    _, _, flags, _ = rows[PAGE_D]
    assert flags & HAS_DOWN
    assert not flags & HAS_UPSIDE
    assert not flags & CHILD_TRANSIT


# ------------------------------------------------- paper example 6 pruning


def test_paper_example_never_processes_cluster_b():
    """Example 6/7: for ``/A//B`` cluster b (one X node) can contribute to
    neither step — the synopsis proves it.  On a seek-free disk the scan
    skips the page outright; on the default disk the skip-scan break-even
    keeps streaming through the isolated 512-byte page (a seek costs more
    than the transfer) but every speculation round in it is skipped."""
    paper = build_paper_tree()
    synopsis = paper.doc.synopsis
    tags = paper.db.tags
    child_a = _step(tags, Axis.CHILD, "A")
    desc_b = _step(tags, Axis.DESCENDANT, "B")
    assert not synopsis.can_contribute(PAGE_B, child_a)
    assert not synopsis.can_contribute(PAGE_B, desc_b)
    # the scan's prunable set: clusters every step is refused in
    prunable = synopsis.refusals(child_a)[0] & synopsis.refusals(desc_b)[0]
    assert prunable >> PAGE_B & 1
    # clusters a and c hold B nodes: provably not prunable
    for page_no in (PAGE_A, PAGE_C):
        assert synopsis.can_contribute(page_no, desc_b)
        assert not prunable >> page_no & 1
    # default disk: interior singleton skip loses to the seek, so the
    # page is read — but no speculative work happens inside it
    pruned = paper.db.execute("/A//B", doc="paper", plan="xscan")
    unpruned = paper.db.execute(
        "/A//B", doc="paper", plan="xscan", options=EvalOptions(synopsis=False)
    )
    assert pruned.nodes == unpruned.nodes
    assert pruned.stats.pages_read == 4
    assert pruned.stats.synopsis_clusters_pruned == 0
    assert pruned.stats.synopsis_entries_pruned > 0
    assert pruned.stats.speculative_instances < unpruned.stats.speculative_instances
    # seek-free disk: skipping is free, so the scan reads 3 of 4 pages
    free_seeks = DiskGeometry(
        page_size=512, min_seek=0.0, seek_factor=0.0, rotational_latency=0.0
    )
    cheap = build_paper_tree(geometry=free_seeks)
    skipped = cheap.db.execute("/A//B", doc="paper", plan="xscan")
    assert skipped.nodes == unpruned.nodes
    assert skipped.stats.synopsis_clusters_pruned == 1
    assert skipped.stats.pages_read == 3


def test_cost_effective_skips_break_even():
    """The skip planner only drops runs whose saved transfers beat the
    seek+rotation penalty their gap induces."""
    geo = DiskGeometry()  # 8 KiB pages: transfer ~0.4 ms, seek ~3.4 ms
    pages = list(range(100))
    # isolated interior prunable page: cheaper to stream through
    prunable = [False] * 100
    prunable[50] = True
    assert cost_effective_skips(pages, prunable, geo) == set()
    # a long interior run pays for its seek many times over
    for i in range(40, 60):
        prunable[i] = True
    assert cost_effective_skips(pages, prunable, geo) == set(range(40, 60))
    # a tail run induces no seek: always skipped
    prunable = [False] * 100
    prunable[98] = prunable[99] = True
    assert cost_effective_skips(pages, prunable, geo) == {98, 99}
    # a run across a pre-existing hole in the numbering pays its seek
    # anyway: skipped regardless of length
    holed = [0, 1, 2, 500, 501]
    assert cost_effective_skips(holed, [False, False, True, False, False], geo) == {2}
    # seek-free disk: every prunable page is worth skipping
    free = DiskGeometry(min_seek=0.0, seek_factor=0.0, rotational_latency=0.0)
    single = [False] * 100
    single[50] = True
    assert cost_effective_skips(pages, single, free) == {50}


def test_targeted_resume_is_never_pruned_for_existing_borders():
    """can_extend must admit every cluster a real crossing targets."""
    paper = build_paper_tree()
    synopsis = paper.doc.synopsis
    tags = paper.db.tags
    # /A//B crosses into a and c for child::A and descendant::B
    assert synopsis.can_extend(PAGE_A, _step(tags, Axis.CHILD, "A"))
    assert synopsis.can_extend(PAGE_C, _step(tags, Axis.CHILD, "A"))
    assert synopsis.can_extend(PAGE_A, _step(tags, Axis.DESCENDANT, "B"))
    # but a downward resume into b can prove emptiness for child::A
    assert not synopsis.can_extend(PAGE_B, _step(tags, Axis.CHILD, "A"))


def test_unknown_cluster_is_never_pruned():
    paper = build_paper_tree()
    synopsis = paper.doc.synopsis
    step = _step(paper.db.tags, Axis.DESCENDANT, "B")
    assert synopsis.can_contribute(999, step)
    assert synopsis.can_extend(999, step)
    contribute, extend = synopsis.refusals(step)
    assert not (contribute | extend) >> 999


def test_verdicts_are_memoised_on_the_synopsis(monkeypatch, tmp_path):
    """A second cold xscan of the same path over the same store asks the
    row predicates nothing: its masks come off the synopsis's memo.  A
    WAL insert replaces the synopsis with a new one that carries the memo
    over, asking the row predicates about the touched pages only; every
    carried entry equals a refill from the rows, and the pruned scan
    still answers as the reference does."""
    db, _ = small_database(seed=77, n_top=30, fragmentation=1.0)
    db.attach_wal(str(tmp_path / "wal.log"))
    doc = db.document("d")
    asked = []
    for name in ("can_contribute", "can_extend", "contribute_transit", "extend_transit"):
        predicate = getattr(ClusterSynopsis, name)

        def counted(self, *args, _predicate=predicate):
            asked.append(args)
            return _predicate(self, *args)

        monkeypatch.setattr(ClusterSynopsis, name, counted)
    query = "count(//a/b)"
    first = db.execute(query, doc="d", plan="xscan")
    assert asked and doc.synopsis._memo
    asked.clear()
    second = db.execute(query, doc="d", plan="xscan")
    assert asked == []
    assert (second.value, second.stats.as_dict()) == (first.value, first.stats.as_dict())

    before = doc.synopsis
    touched, refilled = [], []
    patched = ClusterSynopsis.patched

    def spied(self, fresh):
        touched.extend(fresh)
        asked.clear()
        new = patched(self, fresh)
        refilled.extend(page_no for page_no, _ in asked)
        return new

    monkeypatch.setattr(ClusterSynopsis, "patched", spied)
    parent = db.execute("//a", doc="d", plan="simple").nodes[0]
    db.wal.insert("d", parent, 0, "b")
    repaired = doc.synopsis
    assert repaired is not before and repaired._memo.keys() == before._memo.keys()
    assert touched and refilled and len(set(touched)) < repaired.n_clusters
    assert set(refilled) <= set(touched)
    asked.clear()
    after = db.execute(query, doc="d", plan="xscan")
    assert asked == []
    assert after.value == evaluate_query(export_tree(db.store, doc), query) == first.value + 1
    fresh = ClusterSynopsis.from_rows(repaired.rows())
    for masks, source in repaired._memo.values():
        assert masks == repaired._fill(source) == fresh._fill(source)


# ------------------------------------------------------------ estimators


def test_estimator_accessors_on_paper_tree():
    paper = build_paper_tree()
    synopsis = paper.doc.synopsis
    tags = paper.db.tags
    for name in ("A", "B", "X"):  # a and c, a and c, b and c
        assert synopsis.clusters_matching(_step(tags, Axis.CHILD, name).test) == 2
    assert synopsis.clusters_matching(_step(tags, Axis.CHILD, "nosuchtag").test) == 0
    steps = [
        _step(tags, Axis.CHILD, "A"),
        _step(tags, Axis.DESCENDANT, "B"),
    ]
    # context cluster + 2 for child::A + 2 for descendant::B
    assert synopsis.relevant_clusters(steps) == 4  # capped at n_clusters


# ----------------------------------------------------------- persistence


def test_synopsis_round_trips_through_persistence(tmp_path):
    db, _ = small_database(seed=73, n_top=40, fragmentation=1.0)
    original = db.document("d").synopsis
    path = str(tmp_path / "store.rpro")
    db.save(path)
    loaded = Database.load(path, buffer_pages=64)
    restored = loaded.document("d").synopsis
    assert restored is not None
    assert restored == original
    assert restored.rows() == original.rows()


def test_from_rows_round_trip():
    db, _ = small_database(seed=75, n_top=20)
    synopsis = db.document("d").synopsis
    clone = ClusterSynopsis.from_rows(synopsis.rows())
    assert clone == synopsis
    assert clone.n_records == synopsis.n_records


# ----------------------------------------------------------- maintenance


def _bare_insert_db():
    """A document-order layout (``fragmentation=0.0``), where ``//a``
    leaves whole regions prunable, plus one bare (WAL-less) insert."""
    db, _ = small_database(seed=76, n_top=40, fragmentation=0.0)
    doc = db.document("d")
    root = db.execute("/root", doc="d", plan="simple").nodes[0]
    insert_node(db.store, doc, root, 0, "fresh")
    return db, doc


def test_bare_update_keeps_the_synopsis_exact():
    db, doc = _bare_insert_db()
    pages = [db.store.segment.page(page_no) for page_no in doc.page_nos]
    assert doc.synopsis == ClusterSynopsis.collect(pages)
    assert doc.synopsis.clusters_matching(_step(db.tags, Axis.CHILD, "fresh").test) == 1


def test_queries_keep_pruning_after_a_bare_update():
    """The repaired synopsis prunes as before the update, and the pruned
    scan answers as the reference evaluator does."""
    db, doc = _bare_insert_db()
    for query in ("count(//fresh)", "count(//a/b)"):
        result = db.execute(query, doc="d", plan="xscan")
        assert result.value == evaluate_query(export_tree(db.store, doc), query)
        assert result.stats.synopsis_clusters_pruned > 0
