"""Recovery accounting: no double counting across retry → sideline →
fallback recovery.

A page that exhausts its async retries, is sidelined, fails one
synchronous recovery round and finally recovers on the second must be

* charged ONCE against ``ExecutionBudget.max_pages`` (the budget meters
  logical reads, not the 13 physical service attempts recovery took), and
* reported ONCE in the :class:`~repro.algebra.context.DegradationReport`
  (the async failure and each sync round all observe the same dead page).
"""

import pytest

from repro import Database, EvalOptions, ExecutionBudget, FaultProfile, PROFILES, Tracer
from repro.errors import BudgetExceededError
from tests.conftest import small_database

QUERY = "//b//c"


def _twin(db, faults=None, tracer=None):
    return Database(
        page_size=db.store.segment.page_size,
        buffer_pages=db.buffer_pages,
        store=db.store,
        faults=faults,
        tracer=tracer,
    )


def _visited_pages(db):
    """Pages the clean xschedule run physically services, via the tracer."""
    tracer = Tracer()
    traced = _twin(db, tracer=tracer)
    result = traced.execute(QUERY, doc="d", plan="xschedule")
    return result, sorted(tracer.cluster_reads)


def test_recovered_dead_page_charged_and_reported_once():
    db, _ = small_database(seed=21)
    clean, pages = _visited_pages(db)
    assert len(pages) > 2, "document too small to stage a mid-plan failure"
    root_page = pages[0]
    dead = next(p for p in reversed(pages) if p != root_page)

    # 12 dead services: async attempts 1-5 fail (initial + 4 retries),
    # sync recovery round one (6-10) fails, round two (11-13) succeeds
    faults = FaultProfile(
        name="dead-then-recovers", dead_pages=frozenset({dead}), dead_services=12
    )
    # headroom of 4 logical reads over the clean run: enough for the
    # recovery re-requests, nowhere near the 12 extra *physical* attempts
    budget = ExecutionBudget(
        max_pages=clean.stats.pages_requested + 4, on_exceeded="raise"
    )
    faulty = _twin(db, faults=faults)
    result = faulty.execute(
        QUERY, doc="d", plan="xschedule", options=EvalOptions(budget=budget)
    )

    assert set(result.nodes) == set(clean.nodes)  # degraded, never wrong
    assert result.stats.pages_read > result.stats.pages_requested
    assert result.degraded
    dead_events = [e for e in result.degradation.events if e.reason == "dead-page"]
    assert len(dead_events) == 1, dead_events
    assert dead_events[0].page == dead
    assert result.stats.fallbacks == 1


def test_transient_retry_storm_does_not_eat_the_page_budget():
    """Under transient errors every page costs several physical attempts;
    a budget sized to the *logical* footprint must still hold."""
    db, _ = small_database(seed=22)
    clean = db.execute(QUERY, doc="d", plan="xschedule")
    faulty = _twin(db, faults=PROFILES["transient-errors"])
    budget = ExecutionBudget(max_pages=clean.stats.pages_requested, on_exceeded="raise")
    result = faulty.execute(
        QUERY, doc="d", plan="xschedule", options=EvalOptions(budget=budget)
    )
    assert set(result.nodes) == set(clean.nodes)
    assert result.stats.retries > 0
    assert result.stats.pages_read > result.stats.pages_requested
    assert result.stats.pages_requested <= clean.stats.pages_requested


def test_physical_metering_would_have_tripped():
    """Sanity for the scenario above: the old physical metering would
    blow the same budget — pinning that this test can catch a regression
    to double counting."""
    db, _ = small_database(seed=22)
    clean = db.execute(QUERY, doc="d", plan="xschedule")
    faulty = _twin(db, faults=PROFILES["transient-errors"])
    result = faulty.execute(QUERY, doc="d", plan="xschedule")
    # the physical dimension really does exceed the logical budget line
    assert result.stats.pages_read > clean.stats.pages_requested
