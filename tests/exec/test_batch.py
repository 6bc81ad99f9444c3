"""Tests for batched multi-query execution over one shared runtime."""

import pytest

from repro import BudgetExceededError, EvalOptions, ExecutionBudget, run_batch
from repro.errors import PlanError
from repro.xmark import Q6_PRIME, Q7

from tests.conftest import small_database

#: the location paths underneath the paper's Q6' and Q7
Q6_Q7_PATHS = [
    "/site/regions//item",
    "/site//description",
    "/site//annotation",
    "/site//emailaddress",
]


def test_batch_matches_sequential_and_shares_io(xmark_small):
    """Acceptance: identical node sets, strictly fewer io_requests than
    the sum of one-at-a-time cold runs."""
    db, _ = xmark_small
    sequential = [db.execute(p, doc="xmark") for p in Q6_Q7_PATHS]
    outcome = db.run_batch(Q6_Q7_PATHS, doc="xmark")
    for result, cold in zip(outcome.results, sequential):
        assert result.nodes == cold.nodes
    assert outcome.stats.io_requests < sum(r.stats.io_requests for r in sequential)
    assert outcome.stats.pages_read < sum(r.stats.pages_read for r in sequential)


def test_batch_numeric_queries_match(xmark_small):
    db, _ = xmark_small
    outcome = db.run_batch([Q6_PRIME, Q7], doc="xmark")
    assert outcome.results[0].value == db.execute(Q6_PRIME, doc="xmark").value
    assert outcome.results[1].value == db.execute(Q7, doc="xmark").value


def test_explicit_plans_route_to_the_right_phase():
    db, _ = small_database(seed=0)
    outcome = db.run_batch(
        [("//a", "d", "xscan"), ("//b", "d", "xscan"), ("//a/b", "d", "xschedule")]
    )
    assert outcome.scan_shared == 2
    assert outcome.interleaved == 1
    assert outcome.results[0].nodes == db.execute("//a", doc="d").nodes
    assert outcome.results[2].nodes == db.execute("//a/b", doc="d").nodes


def test_auto_paths_promoted_onto_shared_scan():
    db, _ = small_database(seed=1)
    outcome = db.run_batch(["//a", "//b"], doc="d")
    assert outcome.scan_shared == 2
    assert outcome.interleaved == 0


def test_simple_plan_queries_interleave():
    db, _ = small_database(seed=1)
    outcome = db.run_batch([("//a", "d", "simple"), ("//b", "d", "simple")])
    assert outcome.scan_shared == 0
    assert outcome.interleaved == 2
    assert outcome.results[0].nodes == db.execute("//a", doc="d").nodes
    assert outcome.results[1].nodes == db.execute("//b", doc="d").nodes


def test_shared_io_attribution():
    db, _ = small_database(seed=2)
    outcome = db.run_batch(["//a", "//b", "//c"], doc="d")
    assert all(r.shared_io_queries == 3 for r in outcome.results)
    assert all(r.stats is outcome.stats for r in outcome.results)
    # a standalone execute is unshared
    assert db.execute("//a", doc="d").shared_io_queries == 1


def test_batch_timing_is_finished_at_on_the_shared_clock():
    db, _ = small_database(seed=2)
    outcome = db.run_batch(["//a", "//b"], doc="d")
    for result in outcome.results:
        assert 0 < result.total_time <= outcome.total_time
        assert result.total_time == result.cpu_time + result.io_wait
    assert outcome.total_time == outcome.cpu_time + outcome.io_wait


def test_duplicate_queries_share_one_plan():
    db, _ = small_database(seed=3)
    outcome = db.run_batch(["//a", "//a"], doc="d")
    assert outcome.results[0].nodes == outcome.results[1].nodes
    assert outcome.results[0].nodes == db.execute("//a", doc="d").nodes


def test_batch_through_warm_session_reuses_buffer():
    # buffer large enough to hold the whole document, so the second
    # batch's scan finds every page resident
    db, _ = small_database(seed=4, buffer_pages=512)
    session = db.session(warm=True)
    first = session.run_batch(["//a", "//b"], doc="d")
    compiles_after_first = session.compiles
    second = session.run_batch(["//a", "//b"], doc="d")
    assert [r.nodes for r in second.results] == [r.nodes for r in first.results]
    assert second.stats.pages_read <= first.stats.pages_read
    assert second.total_time < first.total_time
    assert session.runs == 4
    # the second batch is all plan-cache hits
    assert session.compiles == compiles_after_first


def test_batch_accounts_shared_stats_once():
    db, _ = small_database(seed=4)
    session = db.session()
    outcome = session.run_batch(["//a", "//b"], doc="d")
    assert session.stats.io_requests == outcome.stats.io_requests
    assert session.total_time == pytest.approx(outcome.total_time)


def test_empty_batch_rejected():
    db, _ = small_database(seed=0)
    with pytest.raises(PlanError):
        db.run_batch([])


def test_module_level_run_batch_entry_point():
    db, _ = small_database(seed=5)
    outcome = run_batch(db.session(), ["//a"], doc="d")
    assert outcome.results[0].nodes == db.execute("//a", doc="d").nodes


# ------------------------------------------------- one evaluator, three doors

#: comparison, union, count of a union, a path the summary refutes
EXPRESSIONS = [
    "count(//item) = count(//item)",
    "count(//item) != count(//item)",
    "count(//item) = 3",
    "//item/name | //person/name",
    "count(//item | //person)",
    "count(/site/people/person/bidder)",
]


def _answer(result):
    return result.value if result.nodes is None else result.nodes


@pytest.mark.parametrize("query", EXPRESSIONS)
def test_interleaved_member_evaluates_like_execute(xmark_small, query):
    """An interleaved batch member is evaluated by the walk that
    ``Database.execute`` uses, whatever expression it is."""
    db, _ = xmark_small
    alone = db.execute(query, doc="xmark", plan="xschedule")
    outcome = db.run_batch([query, "count(//person)"], doc="xmark", plan="xschedule")
    assert outcome.interleaved == 2
    assert _answer(outcome.results[0]) == _answer(alone)
    assert outcome.stats.paths_refuted == alone.stats.paths_refuted
    assert outcome.stats.paths_refuted == ("bidder" in query)


def test_interleaved_refuted_path_builds_no_plan(xmark_small):
    db, _ = xmark_small
    beside = "count(//person)"
    without = db.run_batch([beside], doc="xmark", plan="xschedule")
    outcome = db.run_batch([EXPRESSIONS[-1], beside], doc="xmark", plan="xschedule")
    assert outcome.results[0].value == 0.0
    assert outcome.stats.as_dict() == {**without.stats.as_dict(), "paths_refuted": 1}


@pytest.mark.parametrize("plan", ["xschedule", "xscan"])
def test_batch_members_run_under_their_budget(xmark_small, plan):
    """Both phases arm the budget: ``partial`` truncates and says so,
    ``raise`` raises — as a lone execute does."""
    db, _ = xmark_small
    requests = ["count(//item)", "count(//person)"]
    full = db.run_batch(requests, doc="xmark", plan=plan)
    cut = db.run_batch(
        requests,
        doc="xmark",
        plan=plan,
        options=EvalOptions(budget=ExecutionBudget(max_pages=3, on_exceeded="partial")),
    )
    assert all(r.partial for r in cut.results)
    assert [r.value for r in cut.results] < [r.value for r in full.results]
    assert cut.stats.pages_read < 10 < full.stats.pages_read
    with pytest.raises(BudgetExceededError):
        db.run_batch(
            requests,
            doc="xmark",
            plan=plan,
            options=EvalOptions(budget=ExecutionBudget(max_pages=3)),
        )


def test_scan_group_keeps_a_refuted_path_out_of_the_scan(xmark_small):
    db, _ = xmark_small
    group = [("count(//item)", "xmark", "xscan"), ("//person/name", "xmark", "xscan")]
    refuted = ("count(/site/people/person/bidder)", "xmark", "xscan")
    without = db.run_batch(group)
    outcome = db.run_batch(group + [refuted])
    assert outcome.scan_shared == 3
    assert outcome.results[2].value == 0.0
    assert outcome.stats.paths_refuted == 1
    assert outcome.stats.speculative_instances == without.stats.speculative_instances
    assert outcome.stats.pages_read == without.stats.pages_read
