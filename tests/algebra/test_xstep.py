"""Unit tests for XStep's applicability and outputs, as the path kernel's
levels (``XAssembly(..., steps=...)``) run it on the paper's tree."""

import pytest

from repro.axes import Axis
from repro.algebra.base import Operator
from repro.algebra.steps import CompiledNodeTest, CompiledPredicate, CompiledStep
from repro.algebra.xassembly import XAssembly
from repro.errors import PlanError
from repro.storage.nodeid import make_nodeid

from tests.paper_tree import PAGE_A, PAGE_D, build_paper_tree


class ListSource(Operator):
    def __init__(self, ctx, items):
        super().__init__(ctx)
        self.items = items

    def _produce(self):
        yield from self.items


@pytest.fixture()
def paper():
    return build_paper_tree()


def make_step(paper, axis, name):
    return CompiledStep(axis, CompiledNodeTest.compile("name", axis, paper.db.tags.lookup(name)))


def pin(paper, page_no):
    ctx = paper.db.make_context()
    frame = ctx.buffer.fix(page_no)
    ctx.set_current_frame(frame)
    return ctx


def kernel(paper, ctx, items, steps, path_len=None):
    """The path kernel over a hand-made feed of Q's tuples
    ``(s_r, seq, s_l, n_l, left_open, target, resumed)`` on the pinned
    cluster."""
    return XAssembly(
        ctx, ListSource(ctx, items), path_len or len(steps), paper.doc, steps=steps
    )


def drain(op):
    op.open()
    out = list(op)
    op.close()
    return out


def test_applicable_instance_extended(paper):
    """Two deferred borders (a, c: tested later) and d4 matching C."""
    ctx = pin(paper, PAGE_D)
    d1 = paper.nodes["d1"]
    context = (0, 0, 0, d1, False, d1, False)
    top = kernel(paper, ctx, [context], [make_step(paper, Axis.CHILD, "C")])
    assert drain(top) == [paper.nodes["d4"]]
    assert ctx.stats.border_crossings_deferred == 2
    # the paused crossings reached the intake: their junctions are proven
    assert {(0, paper.nodes[b]) for b in ("a1", "c1")} <= top._r
    ctx.release()


def test_non_applicable_passes_through(paper):
    """An instance no level applies to (every step done) is handed up as
    it is: a full result, no navigation."""
    ctx = pin(paper, PAGE_D)
    done = (5, 0, 0, None, False, make_nodeid(PAGE_D, 0), False)
    top = kernel(paper, ctx, [done], [make_step(paper, Axis.CHILD, "C")], path_len=5)
    assert drain(top) == [make_nodeid(PAGE_D, 0)]
    assert ctx.stats.intra_hops == ctx.stats.node_tests == 0
    ctx.release()


def test_resumed_instance_processed(paper):
    ctx = pin(paper, PAGE_A)
    resumed = (0, 0, 0, None, False, paper.nodes["a1"], True)
    top = kernel(paper, ctx, [resumed], [make_step(paper, Axis.CHILD, "A")])
    assert drain(top) == [paper.nodes["a2"]]
    ctx.release()


def test_failed_node_test_kills_instance(paper):
    ctx = pin(paper, PAGE_A)
    resumed = (0, 0, 0, None, False, paper.nodes["a1"], True)
    top = kernel(paper, ctx, [resumed], [make_step(paper, Axis.CHILD, "Z")])  # unknown tag
    assert drain(top) == []
    assert ctx.stats.node_tests == 1
    ctx.release()


def test_left_open_flag_propagates(paper):
    """A left-incomplete instance extended to the end keeps its left
    junction: unproven, it waits in S under it."""
    ctx = pin(paper, PAGE_A)
    a1 = paper.nodes["a1"]
    speculative = (1, 0, 1, a1, True, a1, True)
    steps = [make_step(paper, Axis.CHILD, "A"), make_step(paper, Axis.CHILD, "A")]
    top = kernel(paper, ctx, [speculative], steps)
    assert drain(top) == []
    assert top._s == {(1, a1): [(2, paper.nodes["a2"], False)]}
    ctx.release()


def test_predicates_rejected(paper):
    ctx = paper.db.make_context()
    step = make_step(paper, Axis.CHILD, "A")
    step.predicates.append(CompiledPredicate([]))
    with pytest.raises(PlanError):
        kernel(paper, ctx, [], [step])


def test_wrong_page_instance_raises(paper):
    ctx = pin(paper, PAGE_D)
    wrong = (0, 0, 0, None, False, make_nodeid(PAGE_A, 0), False)
    top = kernel(paper, ctx, [wrong], [make_step(paper, Axis.CHILD, "A")])
    top.open()
    with pytest.raises(PlanError):
        top.next()
    ctx.release()
