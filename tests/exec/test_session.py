"""Tests for QuerySession: plan cache, warm runtimes, aggregation."""

import pytest

from repro import (
    BudgetExceededError,
    ClockHorizonError,
    EvalOptions,
    ExecutionBudget,
    UnsupportedQueryError,
    run_batch,
)
from repro.sim.clock import HORIZON, on_grid
from repro.sim.stats import Stats

from tests.conftest import small_database


# ------------------------------------------------------------- plan cache


def test_repeat_execute_hits_plan_cache():
    db, _ = small_database(seed=0)
    session = db.session()
    first = session.execute("//a/b", doc="d")
    assert (session.compiles, session.cache_hits) == (1, 0)
    for _ in range(4):
        result = session.execute("//a/b", doc="d")
        assert result.nodes == first.nodes
    assert session.compiles == 1  # zero recompiles after the first run
    assert session.cache_hits == 4


def test_xmark_query_recompiles_zero_times(xmark_small):
    """Acceptance: re-executing the same XMark query hits the plan cache."""
    db, _ = xmark_small
    session = db.session()
    a = session.execute("count(/site/regions//item)", doc="xmark")
    b = session.execute("count(/site/regions//item)", doc="xmark")
    assert a.value == b.value
    assert session.compiles == 1
    assert session.cache_misses == 1
    assert session.cache_hits == 1


def test_cache_key_includes_plan_doc_and_options():
    db, _ = small_database(seed=1)
    session = db.session()
    session.execute("//a", doc="d", plan="simple")
    session.execute("//a", doc="d", plan="xscan")
    session.execute("//a", doc="d", plan="simple", options=EvalOptions(k_min_queue=9))
    assert session.compiles == 3
    assert session.cache_hits == 0


def test_lru_eviction():
    db, _ = small_database(seed=1)
    session = db.session(cache_size=2)
    session.prepare("//a", doc="d")
    session.prepare("//b", doc="d")
    session.prepare("//c", doc="d")  # evicts //a
    assert session.cached_plans == 2
    session.prepare("//a", doc="d")
    assert session.compiles == 4  # //a was recompiled
    session.prepare("//a", doc="d")
    assert session.cache_hits == 1


def test_lru_hit_refreshes_recency():
    """A cache hit must move the entry to the MRU end: with capacity 2,
    touching //a before inserting //c must evict //b, not //a."""
    db, _ = small_database(seed=1)
    session = db.session(cache_size=2)
    session.prepare("//a", doc="d")
    session.prepare("//b", doc="d")
    session.prepare("//a", doc="d")  # refresh //a
    session.prepare("//c", doc="d")  # must evict //b, the true LRU
    compiles = session.compiles
    session.prepare("//a", doc="d")
    assert session.compiles == compiles  # //a survived
    session.prepare("//b", doc="d")
    assert session.compiles == compiles + 1  # //b was the victim


def test_lru_evicts_on_insert_not_on_lookup():
    """A lookup (hit or miss before compilation) never shrinks the
    cache; only inserting a new entry over capacity evicts — and exactly
    one victim per insert."""
    db, _ = small_database(seed=1)
    session = db.session(cache_size=2)
    session.prepare("//a", doc="d")
    session.prepare("//b", doc="d")
    assert session.cached_plans == 2
    session.prepare("//a", doc="d")  # hit: no eviction
    session.prepare("//b", doc="d")  # hit: no eviction
    assert session.cached_plans == 2
    session.prepare("//c", doc="d")  # one insert, one victim
    assert session.cached_plans == 2


def test_lru_counter_accounting_order():
    """hits + misses == lookups, compiles == misses, and a re-prepared
    victim counts as a fresh miss (never a phantom hit)."""
    db, _ = small_database(seed=1)
    session = db.session(cache_size=2)
    for query in ("//a", "//b", "//c", "//a", "//c", "//c"):
        session.prepare(query, doc="d")
    # //a, //b, //c compile; //a was evicted by //c so recompiles; the
    # final two //c lookups hit
    assert session.compiles == 4
    assert session.cache_misses == 4
    assert session.cache_hits == 2
    assert session.cache_hits + session.cache_misses == 6


def test_clear_cache_forces_recompile():
    db, _ = small_database(seed=1)
    session = db.session()
    session.execute("//a", doc="d")
    session.clear_cache()
    session.execute("//a", doc="d")
    assert session.compiles == 2


# ------------------------------------------------------- warm vs cold runs


def test_cold_session_runs_are_identical():
    db, _ = small_database(seed=2)
    session = db.session()
    a = session.execute("count(//b)", doc="d", plan="xschedule")
    b = session.execute("count(//b)", doc="d", plan="xschedule")
    assert a.total_time == b.total_time
    assert a.stats.as_dict() == b.stats.as_dict()


def test_warm_session_timing_monotonicity():
    db, _ = small_database(seed=2)
    cold = db.session().execute("count(//b)", doc="d", plan="simple")
    warm = db.session(warm=True)
    first = warm.execute("count(//b)", doc="d", plan="simple")
    second = warm.execute("count(//b)", doc="d", plan="simple")
    assert second.value == first.value == cold.value
    # the first warm run IS the cold run; the second reuses the buffer
    assert first.total_time == pytest.approx(cold.total_time)
    assert second.total_time < first.total_time
    assert second.io_wait <= first.io_wait
    assert second.stats.pages_read <= first.stats.pages_read


def test_warm_session_buffer_survives_across_queries():
    db, _ = small_database(seed=3)
    warm = db.session(warm=True)
    warm.execute("//a", doc="d", plan="simple")
    second = warm.execute("//a/b", doc="d", plan="simple")
    cold = db.session().execute("//a/b", doc="d", plan="simple")
    assert second.total_time < cold.total_time


def test_warm_session_runs_each_call_on_its_own_options():
    """Options passed to one call govern that call and no other: the warm
    runtime is the session's, a call's own options get a view of it."""
    db, _ = small_database(seed=5, buffer_pages=1024)
    session = db.session(warm=True)
    query = "//a/b//c"

    def budget(on_exceeded):
        return EvalOptions(
            budget=ExecutionBudget(max_seconds=1e-4, on_exceeded=on_exceeded)
        )

    cut = session.execute(query, doc="d", plan="xscan", options=budget("partial"))
    assert cut.partial
    with pytest.raises(BudgetExceededError):
        session.execute(query, doc="d", plan="xscan", options=budget("raise"))
    full = session.execute(query, doc="d", plan="xscan")
    assert not full.degraded and len(full.nodes) > len(cut.nodes)
    tripped = session.execute(
        query, doc="d", plan="xscan", options=EvalOptions(memory_limit=0)
    )
    assert tripped.stats.fallbacks == 1 and tripped.nodes == full.nodes
    # the view shares the warm buffer, and leaves nothing of itself behind
    assert tripped.stats.buffer_misses == 0
    again = session.execute(query, doc="d", plan="xscan")
    assert again.stats.fallbacks == 0 and again.nodes == full.nodes


def test_unknown_plan_name_is_a_typed_error_at_every_entry_point():
    db, _ = small_database(seed=5)
    session = db.session()
    calls = [
        lambda: db.execute("//a", doc="d", plan="xscan_shared"),
        lambda: session.execute("//a", doc="d", plan="xscan_shared"),
        lambda: run_batch(session, [("//a", "d", "xscan_shared")]),
        lambda: run_batch(session, ["//a"], doc="d", plan="xscan_shared"),
    ]
    for call in calls:
        with pytest.raises(UnsupportedQueryError, match="'xscan-shared'"):
            call()


def test_shared_scan_trip_does_not_leak_into_the_next_warm_run(xmark_small):
    """A shared scan that tripped into fallback resets the warm context's
    flag like every other plan: the next query starts speculating, trips
    on its own and says so."""
    db, _ = xmark_small
    session = db.session(warm=True, options=EvalOptions(memory_limit=5))
    first = session.execute(
        "count(//description)+count(//annotation)+count(//emailaddress)",
        doc="xmark",
        plan="xscan-shared",
    )
    assert first.stats.fallbacks == 1
    assert session.context().fallback is False
    second = session.execute("count(/site/regions//item)", doc="xmark", plan="xscan")
    assert second.value == db.execute("count(/site/regions//item)", doc="xmark").value
    assert second.stats.speculative_instances > 0
    assert second.stats.fallbacks == 1
    assert second.degraded is True
    assert second.degradation.reasons == ["memory-limit"]


def test_cool_discards_warm_runtime():
    db, _ = small_database(seed=3)
    warm = db.session(warm=True)
    first = warm.execute("count(//b)", doc="d", plan="simple")
    warm.cool()
    again = warm.execute("count(//b)", doc="d", plan="simple")
    assert again.total_time == pytest.approx(first.total_time)
    assert again.stats.pages_read == first.stats.pages_read


def test_clock_past_the_horizon_is_refused_at_the_next_execute_not_mid_query():
    """A warm runtime whose clock leaves the range of exact time
    arithmetic finishes the query it is running; the next request —
    execute, batch, or an explicit context — gets the typed error, and a
    cooled session starts over at zero."""
    db, _ = small_database(seed=3)
    warm = db.session(warm=True)
    first = warm.execute("count(//b)", doc="d", plan="simple")
    clock = warm.context().clock
    # iterator calls worth the rest of the range, to within a call
    seconds = HORIZON - clock.now - on_grid(1e-5)
    clock.stats.iterator_calls += int(seconds // clock.costs.iterator_call)
    crossing = warm.execute("count(//b)", doc="d", plan="xscan")  # crosses mid-query
    assert crossing.value == first.value
    assert clock.now > HORIZON
    for request in (
        lambda: warm.execute("count(//b)", doc="d", plan="simple"),
        lambda: warm.run_batch(["//a", "//b"], doc="d"),
        lambda: db.execute("//a", doc="d", context=warm.context()),
    ):
        with pytest.raises(ClockHorizonError) as err:
            request()
        assert err.value.sim_time == clock.now
    warm.cool()
    assert warm.execute("count(//b)", doc="d", plan="simple").total_time == first.total_time


# ------------------------------------------------------------ aggregation


def test_session_aggregates_runs_and_time():
    db, _ = small_database(seed=4)
    session = db.session()
    results = [session.execute(q, doc="d") for q in ("//a", "//b", "count(//c)")]
    assert session.runs == 3
    assert session.total_time == pytest.approx(sum(r.total_time for r in results))
    assert session.io_wait == pytest.approx(sum(r.io_wait for r in results))


def test_session_stats_equal_merged_per_run_stats_warm_and_cold():
    for warm in (False, True):
        db, _ = small_database(seed=5)
        session = db.session(warm=warm)
        merged = Stats()
        for query in ("//a", "//a", "//b/c", "count(//d)"):
            merged.merge(session.execute(query, doc="d").stats)
        assert session.stats.as_dict() == merged.as_dict(), f"warm={warm}"
