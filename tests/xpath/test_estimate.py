"""Unit tests for the cardinality estimator and I/O chooser."""

import pytest

from repro import Database, EvalOptions, ImportOptions
from repro.axes import Axis
from repro.algebra.steps import CompiledNodeTest, CompiledStep
from repro.model.builder import tree_from_nested
from repro.sim.disk import DiskGeometry
from repro.xpath.compile import resolve_auto
from repro.xpath.estimate import estimate_path, predict_io_costs


def predicted(doc, steps, geo, options=EvalOptions()):
    """Both plan families' predicted costs under ``options``' gates."""
    return predict_io_costs(doc, steps, geo, *options.snapshots(doc))


def make_db(spec):
    db = Database(page_size=512, buffer_pages=16)
    tree = tree_from_nested(spec, db.tags)
    db.add_tree(tree, "d", ImportOptions(page_size=512))
    return db


def step(db, axis, name=None, kind="name"):
    tag = db.tags.lookup(name) if name else None
    test_kind = kind if name is None and kind != "name" else "name" if name else kind
    return CompiledStep(axis, CompiledNodeTest.compile(test_kind, axis, tag))


def test_child_chain_exact():
    db = make_db(("a", [("b", [("c",), ("c",)]), ("b", [("c",)]), ("d",)]))
    stats = db.document("d").statistics
    steps = [step(db, Axis.CHILD, "a"), step(db, Axis.CHILD, "b"), step(db, Axis.CHILD, "c")]
    estimate = estimate_path(stats, steps)
    assert estimate.result_cardinality == pytest.approx(3.0)
    # matching children at each level cost potential crossings: 1 + 2 + 3
    assert estimate.visited_nodes >= 6


def test_descendant_step_counts_whole_subtrees():
    db = make_db(("a", [("b", [("c", [("c",)])])]))
    stats = db.document("d").statistics
    steps = [step(db, Axis.DESCENDANT, "c")]
    estimate = estimate_path(stats, steps)
    assert estimate.result_cardinality == pytest.approx(2.0)
    assert estimate.visited_fraction > 0.5


def test_unknown_tag_estimates_zero():
    db = make_db(("a", [("b",)]))
    stats = db.document("d").statistics
    steps = [step(db, Axis.CHILD, None, kind="name")]
    steps[0] = CompiledStep(Axis.CHILD, CompiledNodeTest.compile("name", Axis.CHILD, None))
    estimate = estimate_path(stats, steps)
    assert estimate.result_cardinality == 0.0


def test_empty_path_is_context_only():
    db = make_db(("a",))
    stats = db.document("d").statistics
    estimate = estimate_path(stats, [])
    assert estimate.result_cardinality == pytest.approx(1.0)


def test_chooser_prefers_schedule_without_statistics():
    db = make_db(("a",))
    doc = db.document("d")
    doc.statistics = None
    steps = [step(db, Axis.DESCENDANT, "a")]
    assert predicted(doc, steps, DiskGeometry()) is None
    assert resolve_auto(doc, steps, DiskGeometry(), EvalOptions())[0] == "xschedule"


def test_chooser_scales_with_visited_fraction():
    # the document must be large enough that streaming it all is NOT
    # trivially cheaper than a couple of random reads
    wide = Database(page_size=256, buffer_pages=16)
    children = [("x", [("y",)])] * 800
    tree = tree_from_nested(("root", children), wide.tags)
    wide.add_tree(tree, "d", ImportOptions(page_size=256))
    doc = wide.document("d")
    geo = DiskGeometry(page_size=256)
    full_scan_steps = [step(wide, Axis.DESCENDANT, "y")]
    selective_steps = [step(wide, Axis.CHILD, "nothing", kind="name")]
    assert predicted(doc, full_scan_steps, geo).choice == "xscan"
    assert predicted(doc, selective_steps, geo).choice == "xschedule"


def test_zero_tag_count_does_not_divide():
    """A stored tag count of 0 (stale/degenerate statistics) must yield a
    crude estimate, never a ZeroDivisionError."""
    db = make_db(("a", [("b", [("c",)])]))
    stats = db.document("d").statistics
    a = db.tags.lookup("a")
    stats.tag_counts[a] = 0
    steps = [step(db, Axis.CHILD, "a"), step(db, Axis.CHILD, "b")]
    estimate = estimate_path(stats, steps)
    assert estimate.result_cardinality >= 0.0


def test_empty_document_statistics():
    """A document with no element pairs estimates without crashing."""
    db = make_db(("a",))
    stats = db.document("d").statistics
    steps = [step(db, Axis.CHILD, "a"), step(db, Axis.DESCENDANT, "b")]
    estimate = estimate_path(stats, steps)
    assert estimate.result_cardinality == 0.0
    assert 0.0 <= estimate.visited_fraction <= 1.0


def test_zero_selectivity_step_short_circuits():
    """A step no node can match empties the frontier; later steps add
    nothing and the estimate stays finite."""
    db = make_db(("a", [("b",)] * 4))
    stats = db.document("d").statistics
    steps = [
        step(db, Axis.CHILD, "nothing", kind="name"),
        step(db, Axis.DESCENDANT, "b"),
    ]
    estimate = estimate_path(stats, steps)
    assert estimate.result_cardinality == 0.0
    assert estimate.visited_nodes >= 1.0


def test_chooser_prefers_scan_on_tiny_documents():
    """On a handful of small pages, streaming everything beats any seek
    at all — the chooser should say so."""
    db = make_db(("a", [("b",)] * 30))
    steps = [step(db, Axis.CHILD, "nothing", kind="name")]
    geo = DiskGeometry(page_size=512)
    # either answer is defensible at this scale; the call must simply be
    # consistent with the cost inequality it implements
    choice = predicted(db.document("d"), steps, geo).choice
    assert choice in ("xscan", "xschedule")


def test_descendant_or_self_counts_context_nodes():
    """Regression: ``descendant-or-self`` tests every context node itself,
    and that work must land in ``visited_nodes``.

    Hand-computed tree ``#doc -> a -> (b, b)``:

    * ``child::a``   — 1 initial context + 1 matching child  -> visited 2
    * ``dos::b``     — sweeps the 2 descendants (+2) and tests the ``a``
      context node itself (+1)                               -> visited 5

    The old code skipped the self-contribution and reported 4.
    """
    db = make_db(("a", [("b",), ("b",)]))
    stats = db.document("d").statistics
    steps = [step(db, Axis.CHILD, "a"), step(db, Axis.DESCENDANT_OR_SELF, "b")]
    estimate = estimate_path(stats, steps)
    assert estimate.result_cardinality == pytest.approx(2.0)
    assert estimate.visited_nodes == pytest.approx(5.0)
    # with a node() test the self node also matches and joins the result
    node_steps = [
        step(db, Axis.CHILD, "a"),
        CompiledStep(
            Axis.DESCENDANT_OR_SELF,
            CompiledNodeTest.compile("node", Axis.DESCENDANT_OR_SELF, None),
        ),
    ]
    estimate = estimate_path(stats, node_steps)
    assert estimate.result_cardinality == pytest.approx(3.0)
    assert estimate.visited_nodes == pytest.approx(5.0)


@pytest.mark.parametrize("axis", (Axis.PARENT, Axis.FOLLOWING_SIBLING))
def test_upward_fallback_clamped_by_frontier(axis):
    """Regression: the upward/sibling fallback's per-tag ``+ 1.0`` floor
    summed over a wide tag dictionary used to *amplify* cardinality —
    one context node stepping ``parent::node()`` over a 40-tag store
    came back as ~40 nodes.  The summed fallback is now rescaled so it
    never exceeds the incoming frontier."""
    db = make_db(("root", [(f"t{i}",) for i in range(40)]))
    stats = db.document("d").statistics
    steps = [
        step(db, Axis.CHILD, "root"),
        CompiledStep(axis, CompiledNodeTest.compile("node", axis, None)),
    ]
    estimate = estimate_path(stats, steps)
    assert estimate.result_cardinality == pytest.approx(1.0)
    # and the clamp composes: later steps see a sane frontier
    more = steps + [step(db, Axis.DESCENDANT, "t0")]
    follow_on = estimate_path(stats, more)
    assert follow_on.result_cardinality <= stats.n_nodes


def test_synopsis_occupancy_fixes_skewed_layout_choice():
    """Regression: the uniform nodes-per-page guess mis-chooses on skew.

    The document below has ~120 fat pages (one padded element each) and
    a few dense pages holding all 600 ``y`` nodes.  The uniform estimate
    spreads the ``y`` candidates over the whole document, concludes the
    random reads would touch a large share of the pages and picks the
    sequential scan.  The synopsis knows every candidate cluster, caps
    the visited-page estimate at a handful and picks XSchedule — which
    really is the faster plan.
    """
    from repro.storage.importer import ClusterPolicy

    db = Database(page_size=8192, buffer_pages=256)
    bulk = [("x", ["pad " * 1500]) for _ in range(120)]
    spec = ("root", bulk + [("h", [("y",) for _ in range(600)])])
    tree = tree_from_nested(spec, db.tags)
    db.add_tree(
        tree, "d", ImportOptions(page_size=8192, policy=ClusterPolicy.SEQUENTIAL)
    )
    doc = db.document("d")
    steps = [
        step(db, Axis.CHILD, "root"),
        step(db, Axis.CHILD, "h"),
        step(db, Axis.CHILD, "y"),
    ]
    # the layout really is skewed: all y's in a few clusters
    assert doc.synopsis.clusters_matching(steps[2].test) <= 8
    geo = DiskGeometry()
    assert predicted(doc, steps, geo, EvalOptions(synopsis=False)).choice == "xscan"
    assert predicted(doc, steps, geo).choice == "xschedule"
    # ground truth: the synopsis-backed choice wins on simulated time
    scheduled = db.execute("/root/h/y", doc="d", plan="xschedule")
    scanned = db.execute(
        "/root/h/y", doc="d", plan="xscan", options=EvalOptions(synopsis=False)
    )
    assert scheduled.nodes == scanned.nodes
    assert scheduled.total_time < scanned.total_time
    # AUTO follows the synopsis and lands on the cheap plan
    auto = db.execute("/root/h/y", doc="d", plan="auto")
    assert [kind.value for kind in auto.plan_kinds] == ["xschedule"]


# ------------------------------------------- absent-tag handling (path summary)


def _degenerate_stats_and_summary():
    """Hand-built statistics whose pair table references a source tag the
    ``tag_counts`` dict has no entry for, plus a matching path summary.

    Tag ids: 5 = ``a`` (the root element), 6 = ``b`` (its children).
    The summary knows the true structure; the statistics are degenerate
    on purpose — the document tag is missing from ``tag_counts``.
    """
    from repro.model.tags import DOCUMENT_TAG
    from repro.storage.pathsummary import PathSummary
    from repro.storage.store import DocumentStatistics

    stats = DocumentStatistics(
        n_nodes=4,
        n_elements=3,
        tag_counts={5: 1, 6: 2},  # no DOCUMENT_TAG entry
        child_pairs={(DOCUMENT_TAG, 5): 1, (5, 6): 2},
        desc_pairs={(DOCUMENT_TAG, 5): 1, (DOCUMENT_TAG, 6): 2, (5, 6): 2},
    )
    summary = PathSummary.from_page_rows(
        {0: {((DOCUMENT_TAG,), 0): 1, ((DOCUMENT_TAG, 5), 1): 1, ((DOCUMENT_TAG, 5, 6), 1): 2}}
    )
    return stats, summary


def _raw_step(axis, tag=None, kind="name"):
    test_kind = "name" if tag is not None else kind
    return CompiledStep(axis, CompiledNodeTest.compile(test_kind, axis, tag))


def test_absent_source_tag_contributes_zero_with_summary():
    """Regression (pair-walk site): a live pair count whose source tag is
    absent from ``tag_counts`` used to clamp the divisor to 1 and invent
    cardinality.  With a path summary the absent tag is *known* absent
    and contributes nothing; the statistics-only fallback keeps the
    clamp (a crude guess beats a ZeroDivisionError)."""
    stats, summary = _degenerate_stats_and_summary()
    # the trailing parent step keeps the evaluation inexact, so the
    # estimator walk really runs instead of short-circuiting
    steps = [_raw_step(Axis.CHILD, 5), _raw_step(Axis.PARENT, kind="node")]
    without = estimate_path(stats, steps)
    assert without.result_cardinality > 0.0  # clamped divisor, not a crash
    with_summary = estimate_path(stats, steps, summary=summary)
    assert with_summary.result_cardinality == 0.0


def test_upward_fallback_floor_only_without_summary():
    """Regression (upward-fallback site): the per-tag ``+ 1.0`` smoothing
    floor exists to keep rare tags from rounding to zero when only the
    statistics are available; with a path summary the floor disappears
    and the fallback scales with the true frontier."""
    from repro.model.tags import DOCUMENT_TAG
    from repro.storage.pathsummary import PathSummary
    from repro.storage.store import DocumentStatistics

    stats = DocumentStatistics(
        n_nodes=1000,
        n_elements=999,
        tag_counts={DOCUMENT_TAG: 1, 5: 1, 7: 1, 8: 997},
        child_pairs={(DOCUMENT_TAG, 5): 1, (5, 7): 1, (5, 8): 997},
        desc_pairs={(DOCUMENT_TAG, 5): 1, (DOCUMENT_TAG, 7): 1, (DOCUMENT_TAG, 8): 997,
                    (5, 7): 1, (5, 8): 997},
    )
    summary = PathSummary.from_page_rows(
        {0: {((DOCUMENT_TAG,), 0): 1, ((DOCUMENT_TAG, 5), 1): 1,
             ((DOCUMENT_TAG, 5, 7), 1): 1, ((DOCUMENT_TAG, 5, 8), 1): 997}}
    )
    steps = [_raw_step(Axis.CHILD, 5), _raw_step(Axis.CHILD, 7), _raw_step(Axis.PARENT, 5)]
    without = estimate_path(stats, steps)
    assert without.result_cardinality == pytest.approx(1.0)  # smoothing floor
    with_summary = estimate_path(stats, steps, summary=summary)
    assert with_summary.result_cardinality == pytest.approx(1.0 / 1000.0)


def test_summary_short_circuits_exact_and_refuted_paths():
    stats, summary = _degenerate_stats_and_summary()
    exact = estimate_path(stats, [_raw_step(Axis.CHILD, 5), _raw_step(Axis.CHILD, 6)],
                          summary=summary)
    assert exact.result_cardinality == pytest.approx(2.0)
    refuted = estimate_path(stats, [_raw_step(Axis.CHILD, 99)], summary=summary)
    assert refuted.result_cardinality == 0.0
