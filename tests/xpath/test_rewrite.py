"""Unit tests for the whole-query rewrite pass (refute / expand / price)."""

import pytest

from repro import Database, EvalOptions, ImportOptions
from repro.axes import Axis
from repro.algebra.steps import CompiledNodeTest, CompiledStep
from repro.model.builder import tree_from_nested
from repro.xpath.rewrite import rewrite_path


def make_db(spec, page_size=512):
    db = Database(page_size=page_size, buffer_pages=32)
    db.add_tree(tree_from_nested(spec, db.tags), "d", ImportOptions(page_size=page_size))
    return db


def step(db, axis, name=None, kind="name"):
    tag = db.tags.lookup(name) if name else None
    test_kind = "name" if name else kind
    return CompiledStep(axis, CompiledNodeTest.compile(test_kind, axis, tag))


def deep_db():
    """``x`` occurs only on the single chain a/b/c/x; plenty of other
    nodes pad the subtrees so a descendant sweep dwarfs the child chain."""
    pad = [("p", [("q",), ("q",), ("q",)]) for _ in range(6)]
    spec = ("a", [("b", [("c", [("x",), ("x",)])] + pad)] + pad)
    return make_db(spec)


def test_refutation_returns_early_with_no_postings():
    db = deep_db()
    summary = db.document("d").pathsummary
    outcome = rewrite_path(summary, [step(db, Axis.CHILD, "nosuch")], ())
    assert outcome.refuted
    assert outcome.expanded == 0
    assert outcome.postings.relevant_pages() == 0
    assert outcome.evaluation.cardinality == 0.0


def test_descendant_single_suffix_expands_to_child_chain():
    db = deep_db()
    summary = db.document("d").pathsummary
    outcome = rewrite_path(summary, [step(db, Axis.DESCENDANT, "x")], ())
    assert not outcome.refuted
    assert outcome.expanded == 1
    assert [s.axis for s in outcome.steps] == [Axis.CHILD] * 4
    names = [s.test.tag for s in outcome.steps]
    assert names == [db.tags.lookup(n) for n in ("a", "b", "c", "x")]
    # the expansion is an equivalence: exact cardinality is preserved
    assert outcome.evaluation.exact
    assert outcome.evaluation.cardinality == 2.0
    assert outcome.postings.relevant_pages() >= 1


def test_descendant_multi_suffix_blocks_expansion():
    # x lives on two distinct chains: no single child chain is equivalent
    spec = ("a", [("b", [("x",)]), ("c", [("x",)])])
    db = make_db(spec)
    summary = db.document("d").pathsummary
    outcome = rewrite_path(summary, [step(db, Axis.DESCENDANT, "x")], ())
    assert outcome.expanded == 0
    assert [s.axis for s in outcome.steps] == [Axis.DESCENDANT]


def test_tiny_document_fails_the_cost_gate():
    # expansion is possible (single suffix) but sweeps no fewer nodes
    db = make_db(("a", [("x",)]))
    summary = db.document("d").pathsummary
    outcome = rewrite_path(summary, [step(db, Axis.DESCENDANT, "x")], ())
    assert outcome.expanded == 0


def test_wildcard_and_dos_steps_never_expand():
    db = deep_db()
    summary = db.document("d").pathsummary
    wild = rewrite_path(summary, [step(db, Axis.DESCENDANT, None, kind="wildcard")], ())
    assert wild.expanded == 0
    dos = rewrite_path(summary, [step(db, Axis.DESCENDANT_OR_SELF, "x")], ())
    assert dos.expanded == 0


def test_expansion_keeps_predicates_on_the_final_step():
    db = deep_db()
    summary = db.document("d").pathsummary

    class Pred:
        def __init__(self, steps):
            self.steps = steps

    predicate = Pred([step(db, Axis.CHILD, "x")])
    tag = db.tags.lookup("c")
    with_pred = CompiledStep(
        Axis.DESCENDANT, CompiledNodeTest.compile("name", Axis.DESCENDANT, tag), [predicate]
    )
    outcome = rewrite_path(summary, [with_pred], ())
    assert outcome.expanded == 1
    assert [s.predicates for s in outcome.steps[:-1]] == [[]] * (len(outcome.steps) - 1)
    assert outcome.steps[-1].predicates == [predicate]
    assert not outcome.evaluation.exact  # predicates clear exactness


# ------------------------------------------------- end-to-end equivalences


@pytest.mark.parametrize("plan", ("simple", "xscan", "xschedule"))
def test_expanded_query_results_are_bit_identical(plan):
    db = deep_db()
    compiled = db.prepare("//x", "d", plan)
    (path,) = compiled.path_plans()
    assert [s.axis for s in path.steps] == [Axis.CHILD] * 4  # really expanded
    on = db.execute("//x", doc="d", plan=plan)
    off = db.execute("//x", doc="d", plan=plan, options=EvalOptions(pathsummary=False))
    assert on.nodes == off.nodes


def test_expansion_is_sound_before_sibling_steps():
    """The PR 5 hazard anchor: the descendant-root R-optimisation is
    unsound before sibling axes because it changes the *node set*; the
    summary expansion replaces an equal node set, so sibling steps after
    an expanded step keep their exact semantics."""
    spec = ("a", [("b", [("c", [("x",), ("y",), ("x",), ("z",)])])])
    db = make_db(spec)
    query = "//x/following-sibling::*"
    for plan in ("simple", "xscan", "xschedule"):
        on = db.execute(query, doc="d", plan=plan)
        off = db.execute(
            query, doc="d", plan=plan, options=EvalOptions(pathsummary=False)
        )
        assert on.nodes == off.nodes, plan


def test_refuted_query_skips_all_io():
    db = deep_db()
    for plan in ("simple", "xscan", "xschedule", "xscan-shared", "auto"):
        result = db.execute("/a/b/nosuch", doc="d", plan=plan)
        assert result.nodes == []
        assert result.stats.paths_refuted == 1
        assert result.stats.pages_requested == 0
        assert result.stats.clusters_visited == 0
        assert result.total_time == 0.0


def test_refuted_plan_explains_as_const_empty():
    db = deep_db()
    compiled = db.prepare("/a/nosuch", "d", "auto")
    assert "refuted" in compiled.explain()


def test_rewrite_disabled_keeps_steps_untouched():
    db = deep_db()
    compiled = db.prepare("//x", "d", "xscan", EvalOptions(pathsummary=False))
    (path,) = compiled.path_plans()
    assert [s.axis for s in path.steps] == [Axis.DESCENDANT]
    # postings of every page: they refuse nothing the synopsis does not
    assert path.postings.relevant_pages() == db.document("d").n_pages
    assert not path.refuted
