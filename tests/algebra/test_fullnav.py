"""Tests for full-tree navigation (Simple method / fallback mode)."""

import pytest

from repro.axes import Axis
from repro.algebra.fullnav import exists_path, full_step
from repro.algebra.steps import CompiledNodeTest, CompiledPredicate, CompiledStep
from repro.errors import PageReadError
from repro.sim.iosys import AsyncIOSystem
from repro.storage.nodeid import make_nodeid, page_of, slot_of

from tests import golden
from tests.conftest import books, pinned_pages, small_database
from tests.paper_tree import build_paper_tree


@pytest.fixture()
def paper():
    return build_paper_tree()


def every_node(axis):
    return CompiledStep(axis, CompiledNodeTest.compile("node", axis, None))


def run_axis(paper, name, axis):
    ctx = paper.db.make_context()
    nid = paper.nodes[name]
    reverse = {v: k for k, v in paper.nodes.items()}
    out = [
        reverse[make_nodeid(p, s)]
        for p, s in full_step(ctx, every_node(axis), page_of(nid), slot_of(nid))
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
    gen = full_step(ctx, every_node(Axis.DESCENDANT), page_of(nid), slot_of(nid))
    next(gen)
    gen.close()
    assert pinned_pages(ctx) == []
    assert ctx.buffer.n_resident >= 1
    # all frames unpinned: a full buffer sweep can evict everything
    for _ in range(ctx.buffer.capacity + 1):
        pass
    frame = ctx.buffer.fix(page_of(nid))
    ctx.buffer.unfix(frame)


@pytest.mark.parametrize(
    "page,failing_read", [("a", 1), ("d", 2)], ids=["into-the-target", "back-to-the-source"]
)
def test_a_read_failing_at_a_crossing_leaves_no_pin(monkeypatch, page, failing_read):
    """d1's children over a one-frame buffer: every crossing evicts the
    page it leaves.  The first read of cluster a (going into the target)
    or the second read of cluster d (coming back to the source) fails:
    the read's error leaves the walk, and the page released at the
    crossing is released once."""
    paper = build_paper_tree(buffer_pages=1)
    failing = page_of(paper.nodes[f"{page}1"])
    reads = []
    read_sync = AsyncIOSystem.read_sync

    def flaky(self, page_no):
        reads.append(page_no)
        if page_no == failing and reads.count(page_no) == failing_read:
            raise PageReadError(page_no, 1, self.clock.now)
        read_sync(self, page_no)

    monkeypatch.setattr(AsyncIOSystem, "read_sync", flaky)
    ctx = paper.db.make_context()
    nid = paper.nodes["d1"]
    with pytest.raises(PageReadError):
        list(full_step(ctx, every_node(Axis.CHILD), page_of(nid), slot_of(nid)))
    assert reads.count(failing) == failing_read
    assert pinned_pages(ctx) == []


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


def test_full_step_from_every_entry_border(fragmented):
    """A step resumed at an entry border (fallback mode on an instance
    from XSchedule's queue, or on a run's entry): on every axis and under
    a node, a name and a text test, every walk yields and charges what
    the golden row pins, and leaves no pin."""
    seen = []
    for where, got, ctx in golden.resumed_walks(fragmented):
        seen.append((where, got, golden.ctx_books(ctx)))
        assert pinned_pages(ctx) == [], where
    assert len(seen) > 500
    assert golden.walks(seen) == golden.row("walk/resumed")


def test_full_step_closed_mid_stream_leaves_no_pin(fragmented):
    """Abandon the walk after every possible number of matches — under
    one, two, three and more suspended crossings: the page in hand is
    released, nothing else was pinned, and what was charged by then is
    pinned."""
    seen = []
    deepest = 0
    for got, walk, ctx in golden.closed_walks(fragmented):
        deepest = max(deepest, len(walk.gi_frame.f_locals["stack"]))
        walk.close()
        seen.append((got, golden.ctx_books(ctx)))
        assert pinned_pages(ctx) == [], len(got)
    assert golden.walks(seen) == golden.row("walk/closed")
    assert deepest >= 3, "no walk was closed three crossings deep"


@pytest.mark.parametrize("warm", [True, False])
def test_exists_path_exits_early_without_a_pin(warm):
    """Nested predicate paths return at the first witness, however many
    crossings deep the walkers below them are suspended — over the
    extensions a whole-query run memoised first (``warm``) or over
    extensions computed as they go, with the same books either way."""
    query = "count(//c[.//text() != 'x']/a)"

    def walk(db):
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
        ctx = db.make_context()
        assert exists_path(ctx, page_of(root), slot_of(root), steps)
        booked = books(ctx)
        assert pinned_pages(ctx) == []
        return booked

    def fragmented_db():
        return small_database(seed=5, page_size=256, fragmentation=1.0, n_top=8)[0]

    db = fragmented_db()
    if warm:
        db.execute(query, doc="d", plan="simple")
    booked = walk(db)
    assert booked == walk(fragmented_db())
    whole = db.execute(query, doc="d", plan="simple")
    assert whole.value > 1  # more witnesses than the one it stopped at
    assert booked[2]["node_tests"] < whole.stats.node_tests
