"""Tests for full-tree navigation (Simple method / fallback mode)."""

import pytest

from repro import EvalOptions
from repro.axes import Axis
from repro.algebra.fullnav import exists_path, full_axis, full_step
from repro.algebra.steps import CompiledNodeTest, CompiledPredicate, CompiledStep
from repro.storage.nav import speculative_entries
from repro.storage.nodeid import make_nodeid, page_of, slot_of

from tests.conftest import books, pinned_pages, small_database
from tests.paper_tree import build_paper_tree


@pytest.fixture()
def paper():
    return build_paper_tree()


def run_axis(paper, name, axis, resumed=False):
    ctx = paper.db.make_context()
    nid = paper.nodes[name]
    reverse = {v: k for k, v in paper.nodes.items()}
    out = [
        reverse[make_nodeid(p, s)]
        for p, s in full_axis(ctx, page_of(nid), slot_of(nid), axis, resumed=resumed)
    ]
    ctx.release()
    return out, ctx


def test_child_crosses_borders(paper):
    names, ctx = run_axis(paper, "d1", Axis.CHILD)
    assert names == ["a2", "c2", "d4"]
    assert ctx.stats.buffer_misses >= 3  # d, a, c pages


def test_descendant_covers_whole_tree(paper):
    names, _ = run_axis(paper, "d1", Axis.DESCENDANT)
    assert set(names) == {"a2", "a3", "c2", "c3", "c4", "d4", "b2"}


def test_descendant_in_document_order(paper):
    names, _ = run_axis(paper, "d1", Axis.DESCENDANT)
    assert names == ["a2", "a3", "c2", "c3", "c4", "d4", "b2"]


def test_ancestor_crosses_up(paper):
    names, _ = run_axis(paper, "a3", Axis.ANCESTOR)
    assert names == ["a2", "d1"]


def test_following_sibling_across_clusters(paper):
    names, _ = run_axis(paper, "a2", Axis.FOLLOWING_SIBLING)
    assert names == ["c2", "d4"]


def test_preceding_sibling_across_clusters(paper):
    names, _ = run_axis(paper, "d4", Axis.PRECEDING_SIBLING)
    assert set(names) == {"a2", "c2"}


def test_abandoned_generator_releases_pins(paper):
    """Early termination (as in exists_path) must unfix everything."""
    ctx = paper.db.make_context()
    nid = paper.nodes["d1"]
    gen = full_axis(ctx, page_of(nid), slot_of(nid), Axis.DESCENDANT)
    next(gen)
    gen.close()
    assert ctx.buffer.n_resident >= 1
    # all frames unpinned: a full buffer sweep can evict everything
    for _ in range(ctx.buffer.capacity + 1):
        pass
    frame = ctx.buffer.fix(page_of(nid))
    ctx.buffer.unfix(frame)


def name_step(paper, name, axis=Axis.CHILD):
    tag = paper.db.tags.lookup(name)
    return CompiledStep(axis, CompiledNodeTest.compile("name", axis, tag))


def test_exists_path_true(paper):
    ctx = paper.db.make_context()
    nid = paper.nodes["d1"]
    steps = [name_step(paper, "A"), name_step(paper, "B")]
    assert exists_path(ctx, page_of(nid), slot_of(nid), steps)
    assert pinned_pages(ctx) == []  # returned at the first hit, inside cluster a


def test_exists_path_false(paper):
    ctx = paper.db.make_context()
    nid = paper.nodes["d1"]
    steps = [name_step(paper, "C"), name_step(paper, "B")]
    assert not exists_path(ctx, page_of(nid), slot_of(nid), steps)


def test_exists_path_short_circuits(paper):
    """The first witness suffices: cluster b is never needed for /A."""
    ctx = paper.db.make_context()
    nid = paper.nodes["d1"]
    exists_path(ctx, page_of(nid), slot_of(nid), [name_step(paper, "A")])
    from tests.paper_tree import PAGE_B

    assert not ctx.buffer.is_resident(PAGE_B)


# ------------------------------------------------- full_step, the one walker


@pytest.fixture(scope="module")
def fragmented():
    """Every child list split over tiny pages: crossings nest deeply."""
    db, _ = small_database(seed=5, page_size=256, fragmentation=1.0, n_top=8)
    return db


def passes(db, step, page_no, slot):
    record = db.store.segment.page(page_no).record(slot)
    return step.test.matches(int(record.kind), record.tag)


def test_full_step_from_every_entry_border(fragmented):
    """A step resumed at an entry border (fallback mode on an instance
    from XSchedule's queue, or on a run's entry): on every axis the
    walker yields what ``full_axis`` does, filtered by the node test,
    and both datapaths keep the same books."""
    db = fragmented
    resumed_walks = 0
    for axis in Axis:
        for kind, name in (("node", None), ("name", "b"), ("text", None)):
            tag = db.tags.lookup(name) if name else None
            step = CompiledStep(axis, CompiledNodeTest.compile(kind, axis, tag))
            for page_no in db.document("d").page_nos:
                page = db.store.segment.page(page_no)
                for entry in speculative_entries(page, axis):
                    ctx = db.make_context()
                    expected = [
                        (p, s)
                        for p, s in full_axis(ctx, page_no, entry, axis, resumed=True)
                        if passes(db, step, p, s)
                    ]
                    walked = {}
                    for batched in (True, False):
                        ctx = db.make_context(EvalOptions(batched=batched))
                        got = list(full_step(ctx, step, page_no, entry, resumed=True))
                        assert got == expected, (axis, kind, page_no, entry)
                        walked[batched] = books(ctx)
                        assert pinned_pages(ctx) == []
                    assert walked[True] == walked[False], (axis, kind, page_no, entry)
                    resumed_walks += 1
    assert resumed_walks > 500


def test_full_step_closed_mid_stream_leaves_no_pin(fragmented):
    """Abandon the walk after every possible number of matches — under
    one, two, three and more suspended crossings: the page in hand is
    released, nothing else was pinned, and both datapaths have charged
    the same by then."""
    db = fragmented
    root = db.document("d").root
    step = CompiledStep(
        Axis.DESCENDANT, CompiledNodeTest.compile("node", Axis.DESCENDANT, None)
    )
    total = len(list(full_step(db.make_context(), step, page_of(root), slot_of(root))))
    deepest = 0
    for taken in range(1, total + 1):
        closed = {}
        for batched in (True, False):
            ctx = db.make_context(EvalOptions(batched=batched))
            walk = full_step(ctx, step, page_of(root), slot_of(root), instances=True)
            got = [next(walk) for _ in range(taken)]
            if batched:
                deepest = max(deepest, len(walk.gi_frame.f_locals["stack"]))
            walk.close()
            closed[batched] = (got, books(ctx))
            assert pinned_pages(ctx) == [], (taken, batched)
        assert closed[True] == closed[False], taken
    assert deepest >= 3, "no walk was closed three crossings deep"


@pytest.mark.parametrize("batched", [True, False])
def test_exists_path_exits_early_without_a_pin(fragmented, batched):
    """Nested predicate paths return at the first witness, however many
    crossings deep the walkers below them are suspended."""
    db = fragmented
    root = db.document("d").root
    tag = db.tags.lookup

    def name(axis, label, predicates=()):
        test = CompiledNodeTest.compile("name", axis, tag(label))
        return CompiledStep(axis, test, list(predicates))

    has_text = CompiledPredicate(
        [CompiledStep(Axis.DESCENDANT, CompiledNodeTest.compile("text", Axis.DESCENDANT, None))],
        op="!=",
        literal="x",
    )
    steps = [name(Axis.DESCENDANT, "c", [has_text]), name(Axis.CHILD, "a")]
    ctx = db.make_context(EvalOptions(batched=batched))
    assert exists_path(ctx, page_of(root), slot_of(root), steps)
    assert pinned_pages(ctx) == []
    whole = db.execute("count(//c[.//text() != 'x']/a)", doc="d", plan="simple")
    assert whole.value > 1  # more witnesses than the one it stopped at
    assert ctx.stats.node_tests < whole.stats.node_tests
