"""Focused tests for XAssembly's R/S machinery."""

import dataclasses

import pytest

from repro.algebra.context import EvalOptions
from repro.algebra.xassembly import XAssembly
from repro.algebra.base import Operator
from repro.errors import StorageError

from tests import golden
from tests.conftest import fail_extension_at, small_xmark
from tests.paper_tree import build_paper_tree


class ListSource(Operator):
    def __init__(self, ctx, items):
        super().__init__(ctx)
        self.items = items

    def _produce(self):
        yield from self.items


def entry(s_r, s_l, n_l, left_open, target, resumed=False):
    """An instance as Q's tuple.  With no steps to run, ``resumed`` is
    "paused at the border ``target``": its junction is the border's
    target."""
    return (s_r, 0, s_l, n_l, left_open, target, resumed)


def full(nid, s_r=2, n_l=None):
    return entry(s_r, 0, n_l, False, nid)


def assembly_over(paper, ctx, items, **kwargs):
    """The path kernel with no steps over a hand-made feed."""
    return XAssembly(ctx, ListSource(ctx, items), path_len=2, document=paper.doc, **kwargs)


def drain(assembly):
    assembly.open()
    out = list(assembly)
    assembly.close()
    return out


def test_full_instances_pass_through(paper_tree=None):
    paper = build_paper_tree()
    ctx = paper.db.make_context()
    items = [full(paper.nodes["a3"]), full(paper.nodes["c4"])]
    assembly = assembly_over(paper, ctx, items)
    assert drain(assembly) == [paper.nodes["a3"], paper.nodes["c4"]]


def test_final_duplicates_eliminated_via_r():
    paper = build_paper_tree()
    ctx = paper.db.make_context()
    items = [full(paper.nodes["a3"])] * 3
    assembly = assembly_over(paper, ctx, items)
    assert drain(assembly) == [paper.nodes["a3"]]
    assert ctx.stats.duplicates_suppressed == 2


def test_right_incomplete_goes_to_schedule_queue():
    paper = build_paper_tree()
    ctx = paper.db.make_context()

    class FakeSchedule:
        def __init__(self):
            self.added = []

        def _enqueue(self, s_r, s_l, n_l, left_open, target, resumed):
            assert not left_open and resumed
            self.added.append((s_l, n_l, s_r, target))

    schedule = FakeSchedule()
    # paused at border d2 (cluster d) while processing step 1
    paused = entry(0, 0, paper.nodes["d1"], False, paper.nodes["d2"], True)
    assembly = assembly_over(paper, ctx, [paused], schedule=schedule)
    assert drain(assembly) == []
    assert schedule.added == [(0, paper.nodes["d1"], 0, paper.nodes["a1"])]


def test_same_junction_not_scheduled_twice():
    paper = build_paper_tree()
    ctx = paper.db.make_context()

    class FakeSchedule:
        def __init__(self):
            self.added = []

        def _enqueue(self, s_r, s_l, n_l, left_open, target, resumed):
            assert not left_open and resumed
            self.added.append((s_l, n_l, s_r, target))

    schedule = FakeSchedule()
    paused = entry(0, 0, paper.nodes["d1"], False, paper.nodes["d2"], True)
    again = entry(0, 0, paper.nodes["d1"], False, paper.nodes["d2"], True)
    assembly = assembly_over(paper, ctx, [paused, again], schedule=schedule)
    drain(assembly)
    assert len(schedule.added) == 1
    assert ctx.stats.duplicates_suppressed == 1


def test_left_incomplete_merges_when_junction_proven():
    """An S-resident speculative result activates when its left end enters R."""
    paper = build_paper_tree()
    ctx = paper.db.make_context()
    # speculative: "if a1 is reachable at step 1, a3 is a result" (Table 1 row 9)
    speculative = entry(2, 1, paper.nodes["a1"], True, paper.nodes["a3"])
    # real paused instance proving (1, a1): d1 -> step 1 paused at d2
    paused = entry(1, 0, paper.nodes["d1"], False, paper.nodes["d2"], True)
    assembly = assembly_over(paper, ctx, [speculative, paused])
    assert drain(assembly) == [paper.nodes["a3"]]
    assert ctx.stats.merges == 1


def test_left_incomplete_activates_immediately_if_already_proven():
    paper = build_paper_tree()
    ctx = paper.db.make_context()
    paused = entry(1, 0, paper.nodes["d1"], False, paper.nodes["d2"], True)
    speculative = entry(2, 1, paper.nodes["a1"], True, paper.nodes["a3"])
    assembly = assembly_over(paper, ctx, [paused, speculative])
    assert drain(assembly) == [paper.nodes["a3"]]


def test_cascading_activation_across_clusters():
    """A speculative fragment ending at another border cascades through R."""
    paper = build_paper_tree()
    ctx = paper.db.make_context()
    # fragment 1: if c1 is reachable at step 0, step 2 pauses at border
    # d2, whose junction is a1
    frag = entry(1, 0, paper.nodes["c1"], True, paper.nodes["d2"], True)
    # fragment 2: if a1 reachable at step 1 -> full result a3
    frag2 = entry(2, 1, paper.nodes["a1"], True, paper.nodes["a3"])
    # proof: (0, c1) is reachable, through border d3
    proof = entry(0, 0, paper.nodes["d1"], False, paper.nodes["d3"], True)
    assembly = assembly_over(paper, ctx, [frag, frag2, proof])
    assert drain(assembly) == [paper.nodes["a3"]]
    assert ctx.stats.merges == 2


def test_memory_limit_triggers_fallback():
    paper = build_paper_tree()
    ctx = paper.db.make_context(EvalOptions(memory_limit=1))
    fragments = [
        entry(2, 1, paper.nodes["a1"], True, paper.nodes["a3"]),
        entry(2, 1, paper.nodes["c1"], True, paper.nodes["c4"]),
    ]
    assembly = assembly_over(paper, ctx, fragments)
    drain(assembly)
    assert ctx.fallback
    assert ctx.stats.fallbacks == 1
    assert assembly._s_size == 0


def test_descendant_root_opt_skips_step1_keys():
    paper = build_paper_tree()
    ctx = paper.db.make_context()
    paused = entry(1, 0, paper.nodes["d1"], False, paper.nodes["d2"], True)
    assembly = assembly_over(paper, ctx, [paused], descendant_root_opt=True)
    drain(assembly)
    # step-1 junction keys are implicit: nothing stored in R
    assert len(assembly._r) == 0


@pytest.mark.parametrize("plan", ["xscan", "xscan-shared"])
def test_descendant_root_opt_saves_r_checks(plan):
    """Sec. 5.4.5.4: under a scan, a ``//`` prefix the rewrite cannot fold
    takes every step-1 junction as proven instead of storing and probing
    it in R — the same nodes for fewer set operations and no more CPU
    than the plan with the check forced back on."""
    db = golden.database(golden.ENTRY_DOC)
    compiled = db.prepare(golden.IMPLIED, "d", plan)
    ((path, counted),) = compiled.leaves
    assert path.descendant_root_opt
    off = dataclasses.replace(path, descendant_root_opt=False)
    checked = dataclasses.replace(compiled, expr=off, leaves=[(off, counted)])
    runs = []
    for query in (compiled, checked):
        ctx = db.make_context()
        _, nodes = query.execute(ctx)
        runs.append((nodes, ctx.stats.set_ops, ctx.clock.cpu_time))
    (nodes, set_ops, cpu), (nodes_checked, set_ops_checked, cpu_checked) = runs
    assert nodes and nodes == nodes_checked
    assert set_ops < set_ops_checked
    assert cpu <= cpu_checked


@pytest.mark.parametrize("call", [5, 50])
def test_an_error_leaves_the_kernels_charges_on_the_clock(monkeypatch, call):
    """A typed error raised mid-walk leaves the path kernel through its
    ``finally``, and the next query on the warm runtime runs with the
    CPU seconds of its slice its counters priced."""
    db, _ = small_xmark()
    session = db.session(warm=True)
    query = "count(/site/regions//item/name)"
    raised = fail_extension_at(monkeypatch, call)
    with pytest.raises(StorageError):
        session.execute(query, doc="xmark", plan="xschedule")
    assert raised
    ctx = session.context()
    monkeypatch.undo()
    result = session.execute(query, doc="xmark", plan="xschedule")
    assert result.cpu_time == ctx.costs.price(result.stats)
