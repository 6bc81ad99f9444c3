"""Tests for the plan compiler and the AUTO cost model."""

import pytest

from repro import Database, EvalOptions, ImportOptions, UnsupportedQueryError
from repro.axes import Axis
from repro.model.builder import tree_from_nested
from repro.sim.disk import DiskGeometry
from repro.xpath.compile import PlanKind, compile_query
from repro.xpath.estimate import estimate_path
from repro.algebra.steps import CompiledNodeTest, CompiledStep

from tests.conftest import make_random_tree


def db_with(tree_spec):
    db = Database(page_size=512, buffer_pages=32)
    tree = tree_from_nested(tree_spec, db.tags)
    db.add_tree(tree, "d", ImportOptions(page_size=512))
    return db


def compiled_steps(db, query, plan="xschedule", **options):
    compiled = compile_query(
        query, db.document("d"), db.tags, plan=plan,
        options=EvalOptions(**options), geometry=db.geometry,
    )
    node = compiled.expr
    if isinstance(node, tuple):
        node = node[1]
    return node.steps


def test_rewrite_merges_descendant_or_self():
    db = db_with(("a", [("b",)]))
    steps = compiled_steps(db, "/a//b")
    assert [s.axis for s in steps] == [Axis.CHILD, Axis.DESCENDANT]


def test_rewrite_chains_of_double_slashes():
    db = db_with(("a", [("b",)]))
    steps = compiled_steps(db, "//a//b")
    assert [s.axis for s in steps] == [Axis.DESCENDANT, Axis.DESCENDANT]


def test_unknown_tag_compiles_to_unmatchable_test():
    db = db_with(("a",))
    steps = compiled_steps(db, "/nonexistent")
    assert steps[0].test.tag == -1
    result = db.execute("/nonexistent", doc="d", plan="xschedule")
    assert result.nodes == []


def test_predicates_rejected_by_cost_plans():
    db = db_with(("a", [("b",)]))
    with pytest.raises(UnsupportedQueryError):
        db.execute("/a[b]", doc="d", plan="xschedule")
    # but the SIMPLE plan evaluates them
    result = db.execute("/a[b]", doc="d", plan="simple")
    assert len(result.nodes) == 1


def test_absolute_predicates_rejected_everywhere():
    db = db_with(("a", [("b",)]))
    with pytest.raises(UnsupportedQueryError):
        db.execute("/a[/a]", doc="d", plan="simple")


def test_nodeset_arithmetic_rejected():
    db = db_with(("a", [("b",)]))
    with pytest.raises(UnsupportedQueryError):
        db.execute("/a + 1", doc="d")


def test_plan_kinds_reported():
    db = db_with(("a", [("b",)]))
    result = db.execute("count(/a)+count(/a/b)", doc="d", plan="simple")
    assert result.plan_kinds == [PlanKind.SIMPLE, PlanKind.SIMPLE]
    assert result.value == 2.0


# ------------------------------------------------------------- estimation


def name_step(tags, name, axis=Axis.CHILD):
    return CompiledStep(axis, CompiledNodeTest.compile("name", axis, tags.lookup(name)))


def test_estimate_child_cardinality_exact_on_uniform_schema():
    db = Database(page_size=512, buffer_pages=8)
    tree = tree_from_nested(
        ("a", [("b", [("c",), ("c",)]), ("b", [("c",)])]), db.tags
    )
    db.add_tree(tree, "d", ImportOptions(page_size=512))
    stats = db.document("d").statistics
    steps = [
        name_step(db.tags, "a"),
        name_step(db.tags, "b"),
        name_step(db.tags, "c"),
    ]
    estimate = estimate_path(stats, steps)
    assert estimate.result_cardinality == pytest.approx(3.0)


def test_estimate_descendant_visits_more_than_result():
    tags_db = Database(page_size=512, buffer_pages=8)
    tree = make_random_tree(tags_db.tags, seed=3, n_top=30)
    tags_db.add_tree(tree, "d", ImportOptions(page_size=512))
    stats = tags_db.document("d").statistics
    steps = [
        CompiledStep(
            Axis.DESCENDANT,
            CompiledNodeTest.compile("name", Axis.DESCENDANT, tags_db.tags.lookup("a")),
        )
    ]
    estimate = estimate_path(stats, steps)
    assert estimate.visited_nodes > estimate.result_cardinality
    assert 0 < estimate.visited_fraction <= 1.0


def test_auto_prefers_scan_for_low_selectivity(xmark_small):
    db, _ = xmark_small
    result = db.execute("count(/site//description)", doc="xmark", plan="auto")
    assert result.plan_kinds == [PlanKind.XSCAN]


def test_auto_prefers_schedule_for_high_selectivity(xmark_small):
    db, _ = xmark_small
    # a path visiting almost nothing: XSchedule must win at any size
    result = db.execute("count(/site/regions/africa)", doc="xmark", plan="auto")
    assert result.plan_kinds == [PlanKind.XSCHEDULE]


def test_auto_crossover_depends_on_document_size(xmark_small):
    """Q15 on a tiny document legitimately favours the scan; on larger
    documents the random-I/O side shrinks relative to the scan and the
    chooser flips to XSchedule (as observed in the benchmarks)."""
    db, _ = xmark_small
    query = (
        "/site/closed_auctions/closed_auction/annotation/description"
        "/parlist/listitem/parlist/listitem/text/emph/keyword/text()"
    )
    result = db.execute(query, doc="xmark", plan="auto")
    assert result.plan_kinds[0] in (PlanKind.XSCAN, PlanKind.XSCHEDULE)
