"""End-to-end tracing contract: non-perturbation and the single book.

The two invariants docs/observability.md promises, exercised through the
whole stack (engine → session → batch, clean and faulty disks):

* installing a tracer never changes the simulated physics — values,
  timings and ``Stats`` are bit-identical to an untraced run;
* ``Result.trace_summary.counters`` *is* ``Result.stats`` for the same
  slice (nothing to reconcile), while the event-derived rollups — built
  from a different source — must still add up to those counters.
"""

import pytest

from repro import PROFILES, Database, Tracer
from tests.conftest import small_database

PLANS = ("simple", "xschedule", "xscan", "xscan-shared")
QUERIES = ("count(//a)", "/root/a/b", "//b//c", "count(//e)")
FAULT_PROFILES = ("transient-errors", "mixed")


def _traced_twin(db, tracer, faults=None):
    """A database over the same store, same physics, plus a tracer."""
    return Database(
        page_size=db.store.segment.page_size,
        buffer_pages=db.buffer_pages,
        store=db.store,
        faults=faults,
        tracer=tracer,
    )


def _assert_one_book(result):
    """The summary's counters are the result's stats, field for field."""
    assert result.trace_summary is not None
    assert result.trace_summary.counters == result.stats.as_dict()


@pytest.mark.parametrize("plan", PLANS)
def test_tracing_is_non_perturbing_and_reconciles(plan):
    db, _ = small_database(seed=11)
    tracer = Tracer()
    traced_db = _traced_twin(db, tracer)
    for query in QUERIES:
        vanilla = db.execute(query, doc="d", plan=plan)
        traced = traced_db.execute(query, doc="d", plan=plan)
        assert traced.value == vanilla.value
        assert traced.nodes == vanilla.nodes
        assert traced.total_time == vanilla.total_time
        assert traced.stats.as_dict() == vanilla.stats.as_dict()
        assert vanilla.trace_summary is None
        _assert_one_book(traced)
    assert tracer.events_recorded > 0


@pytest.mark.parametrize("profile_name", FAULT_PROFILES)
def test_reconciles_under_fault_recovery(profile_name):
    """Retries, backoff and timeouts do not perturb either — including
    the float-valued backoff_wait counter."""
    db, _ = small_database(seed=12)
    vanilla_db = _traced_twin(db, None, faults=PROFILES[profile_name])
    traced_db = _traced_twin(db, Tracer(), faults=PROFILES[profile_name])
    for plan in ("xschedule", "xscan"):
        vanilla = vanilla_db.execute("//b//c", doc="d", plan=plan)
        traced = traced_db.execute("//b//c", doc="d", plan=plan)
        assert traced.total_time == vanilla.total_time
        assert traced.stats.as_dict() == vanilla.stats.as_dict()
        _assert_one_book(traced)


def test_warm_session_runs_reconcile_individually():
    """Per-run summaries on a shared runtime carry the per-run Stats
    delta, not the runtime's cumulative totals."""
    db, _ = small_database(seed=13)
    tracer = Tracer()
    traced_db = _traced_twin(db, tracer)
    session = traced_db.session(warm=True)
    cumulative = 0
    for query in ("count(//a)", "count(//a)", "//b"):
        result = session.execute(query, doc="d", plan="xschedule")
        _assert_one_book(result)
        cumulative += result.stats.node_tests
    assert cumulative == session.context().stats.node_tests
    assert tracer.plan_cache["misses"] == 2
    assert tracer.plan_cache["hits"] == 1


def test_batch_attribution_reconciles():
    db, _ = small_database(seed=14)
    tracer = Tracer()
    traced_db = _traced_twin(db, tracer)
    outcome = traced_db.run_batch(
        [("//a", "d", "xscan"), ("//b", "d", "xscan"), ("//a/b", "d", "xschedule")]
    )
    assert outcome.trace_summary is not None
    assert outcome.trace_summary.counters == outcome.stats.as_dict()
    for result in outcome.results:
        _assert_one_book(result)
    assert tracer.batches["batches"] == 1
    assert tracer.batches["scan_shared"] == 2
    assert tracer.batches["interleaved"] == 1


def test_export_summary_is_the_export_stats():
    db, _ = small_database(seed=15)
    traced_db = _traced_twin(db, Tracer())
    for method in ("scan", "navigate"):
        _, result = traced_db.export_xml("d", method=method)
        _assert_one_book(result)
        assert result.stats.pages_read > 0


def test_operator_spans_cover_the_plan():
    db, _ = small_database(seed=15)
    tracer = Tracer()
    traced_db = _traced_twin(db, tracer)
    traced_db.execute("//a/b", doc="d", plan="xschedule")
    assert "XSchedule" in tracer.operators
    assert "XAssembly" in tracer.operators
    assert tracer.operators["XSchedule"]["opens"] >= 1


@pytest.mark.parametrize("profile_name", (None, *FAULT_PROFILES))
@pytest.mark.parametrize("plan", PLANS)
def test_event_rollups_add_up_to_the_counters(plan, profile_name):
    """Two independent sources: the heatmap and the retry histogram are
    tallied from disk-service and retry *events*, the counters at the
    charge sites — every physical service and every retry must be in
    both."""
    db, _ = small_database(seed=12)
    faults = PROFILES[profile_name] if profile_name else None
    # a fresh tracer per run keeps the lifetime rollups per-run
    result = _traced_twin(db, Tracer(), faults=faults).execute(
        "//b//c", doc="d", plan=plan
    )
    summary = result.trace_summary
    assert result.stats.pages_read > 0
    assert sum(summary.cluster_reads.values()) == result.stats.pages_read
    assert sum(summary.retry_histogram.values()) == result.stats.retries
    if profile_name == "transient-errors":
        assert result.stats.retries > 0  # the cross-check is not vacuous
