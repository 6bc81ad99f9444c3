"""Tests for the shared-scan multi-path extension."""

import pytest

from repro import (
    BudgetExceededError,
    Database,
    EvalOptions,
    ImportOptions,
)
from repro.xmark import Q7, generate_xmark
from repro.xpath.reference import evaluate_query

from tests import golden
from tests.conftest import small_database


@pytest.fixture(scope="module")
def db_tree():
    return small_database(seed=31, n_top=60)


def test_shared_scan_counts_match(db_tree):
    db, _ = db_tree
    query = "count(//a)+count(//b)+count(//c)"
    separate = db.execute(query, doc="d", plan="xscan")
    shared = db.execute(query, doc="d", plan="xscan-shared")
    assert shared.value == separate.value


def test_shared_scan_single_path(db_tree):
    db, _ = db_tree
    separate = db.execute("//a/b", doc="d", plan="xscan")
    shared = db.execute("//a/b", doc="d", plan="xscan-shared")
    assert shared.nodes == separate.nodes


def test_shared_scan_reads_document_once(db_tree):
    db, _ = db_tree
    doc = db.document("d")
    query = "count(//a)+count(//b)+count(//c)"
    separate = db.execute(query, doc="d", plan="xscan")
    shared = db.execute(query, doc="d", plan="xscan-shared")
    # each page is visited once (or skipped via the synopsis) by the
    # shared scan, versus once per path by the separate scans
    assert (
        shared.stats.clusters_visited + shared.stats.synopsis_clusters_pruned
        == doc.n_pages
    )
    assert (
        separate.stats.clusters_visited + separate.stats.synopsis_clusters_pruned
        == 3 * doc.n_pages
    )
    assert shared.stats.pages_read < separate.stats.pages_read


def test_shared_scan_faster_than_separate_scans(db_tree):
    db, _ = db_tree
    query = "count(//a)+count(//b)+count(//c)"
    separate = db.execute(query, doc="d", plan="xscan")
    shared = db.execute(query, doc="d", plan="xscan-shared")
    assert shared.total_time < separate.total_time


def test_shared_scan_on_xmark_q7(xmark_small):
    db, _ = xmark_small
    separate = db.execute(Q7, doc="xmark", plan="xscan")
    shared = db.execute(Q7, doc="xmark", plan="xscan-shared")
    assert shared.value == separate.value
    assert shared.total_time < separate.total_time


def test_shared_scan_plan_kind_reported(db_tree):
    db, _ = db_tree
    shared = db.execute("count(//a)+count(//b)", doc="d", plan="xscan-shared")
    assert all(k.value == "xscan-shared" for k in shared.plan_kinds)


@pytest.mark.parametrize("on_exceeded", ["partial", "raise"])
def test_budget_blow_closes_every_path_kernel(db_tree, on_exceeded):
    """A blow inside the shared scan closes the XAssembly it interrupts:
    no fallback hook stays registered on the (possibly warm) runtime and
    the kernel's counters are on the books at once, not when the
    generator happens to be finalised."""
    db, _ = db_tree
    query = "count(//a)+count(//b//c)"
    full = db.execute(query, doc="d", plan="xscan-shared")
    # a third of the run, on the same document; the books are pinned
    cut = golden.check(f"shared/cut/{on_exceeded}")
    assert cut.ctx.options.budget.max_seconds == full.total_time / 3
    if on_exceeded == "raise":
        # the error's traceback keeps the scan's frames alive
        assert isinstance(cut.error, BudgetExceededError)
    else:
        assert cut.result.partial
    assert cut.ctx.fallback_hooks == []
    assert cut.ctx.current_frame is None
    assert 0 < cut.ctx.stats.node_tests < full.stats.node_tests


# ------------------------------------------------------------- fallback

#: a three-path sum, child chains, a deep chain, an upward and a sibling step
SWEEP_QUERIES = [
    "count(//description)+count(//annotation)+count(//emailaddress)",
    "count(/site/regions//item)",
    "count(/site/people/person/name)",
    "count(/site/closed_auctions/closed_auction/annotation/description/text/keyword)",
    "count(//keyword/ancestor::item)",
    "count(//item/following-sibling::item)",
]


@pytest.fixture(scope="module")
def xmark_layouts():
    """XMark sf 0.05 on 2 KiB pages, clustered to fully fragmented."""
    tree = None
    layouts = {}
    for fragmentation in (0.0, 0.5, 1.0):
        db = Database(page_size=2048, buffer_pages=128)
        tree = generate_xmark(scale=0.05, tags=db.tags, seed=3)
        db.add_tree(
            tree,
            "xmark",
            ImportOptions(page_size=2048, fragmentation=fragmentation, seed=3),
        )
        layouts[fragmentation] = db
    return layouts, tree


@pytest.mark.parametrize("fragmentation", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("query", SWEEP_QUERIES)
def test_shared_scan_survives_a_memory_limit_trip(xmark_layouts, query, fragmentation):
    """Sec. 5.4.6 on the shared scan: wherever ``memory_limit`` trips a
    path's S, the scan stops, every path is re-evaluated in full and the
    answer is the one every other plan gives."""
    layouts, tree = xmark_layouts
    db = layouts[fragmentation]
    expected = evaluate_query(tree, query)
    assert db.execute(query, doc="xmark", plan="simple").value == expected
    tripped = 0
    for limit in (0, 5, 50, 200):
        options = EvalOptions(memory_limit=limit)
        shared = db.execute(query, doc="xmark", plan="xscan-shared", options=options)
        scan = db.execute(query, doc="xmark", plan="xscan", options=options)
        assert shared.value == scan.value == expected, limit
        if scan.stats.fallbacks:
            tripped += 1
            assert shared.stats.fallbacks >= 1, limit
            assert "memory-limit" in shared.degradation.reasons, limit
    assert tripped, "no limit of the sweep trips this query"


def test_a_tripped_shared_scan_leaves_the_context_clean(xmark_layouts):
    layouts, _ = xmark_layouts
    db = layouts[0.0]
    ctx = db.env.fresh_context(EvalOptions(memory_limit=5))
    tripped = db.execute(SWEEP_QUERIES[0], doc="xmark", plan="xscan-shared", context=ctx)
    assert tripped.stats.fallbacks == 1
    assert ctx.fallback is False
    assert ctx.fallback_hooks == []
    assert ctx.current_frame is None


# ------------------------------------------------------------ readahead


def test_scan_readahead_applies_to_the_shared_scan(xmark_layouts):
    """The shared scan is a consumer of the one sequential pass: the
    prefetch window is the pass's, not XScan's.  (With the default
    window of 0 nothing moves: the golden rows of ``tests/golden.py`` pin it.)"""
    layouts, _ = xmark_layouts
    db = layouts[0.0]
    query = SWEEP_QUERIES[0]
    serial = db.execute(query, doc="xmark", plan="xscan-shared")
    ahead = db.execute(
        query, doc="xmark", plan="xscan-shared", options=EvalOptions(scan_readahead=8)
    )
    assert serial.stats.async_requests == 0
    assert ahead.stats.async_requests > 0
    assert ahead.value == serial.value
    assert ahead.stats.pages_read == serial.stats.pages_read
    assert ahead.total_time < serial.total_time
