"""Tests for the shared-scan multi-path extension."""

import pytest

from repro import BudgetExceededError, EvalOptions, ExecutionBudget
from repro.xmark import Q7

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
    booked = {}
    for batched in (True, False):
        options = EvalOptions(
            batched=batched,
            budget=ExecutionBudget(
                max_seconds=full.total_time / 3, on_exceeded=on_exceeded
            ),
        )
        ctx = db.env.fresh_context(options)
        held = None
        try:
            result = db.execute(
                query, doc="d", plan="xscan-shared", options=options, context=ctx
            )
            assert result.partial
        except BudgetExceededError as exc:
            held = exc  # its traceback keeps the scan's frames alive
        assert (held is not None) == (on_exceeded == "raise")
        assert ctx.fallback_hooks == []
        assert ctx.current_frame is None
        booked[batched] = ctx.stats.as_dict()
    assert booked[True] == booked[False]
    assert 0 < booked[True]["node_tests"] < full.stats.node_tests
