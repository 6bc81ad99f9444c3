"""The speculative hand-off: one entry run per (cluster, step).

An I/O operator that speculates hands the path kernel every entry border
of a (cluster, step) as one :class:`~repro.algebra.pathinstance.EntryRun`.
The document here has clusters with three and more entry borders per
step, so every run of the kernel's in-place walk is exercised
deterministically, and the books of each draw are the pinned ones of the
golden file (``tests/golden.py``), which the record-at-a-time chain
booked when it still existed: untraced and traced, a budget that blows
*inside* a run, a memory-limit trip with entries still to come.
Non-speculative XSchedule hands the kernel *delivery runs* — the entries
queued on the cluster it holds, taken in place — which get the same
budget cut and a producer that falls due mid-run.  The golden file also
pins Q7 and Q15 under the speculating plans, and Q6', Q7 and Q15 under
the navigating ones.
"""

import traceback

import pytest

from repro.algebra.xschedule import XSchedule
from repro.algebra.xassembly import XAssembly
from repro.axes import Axis
from repro.sim.clock import TICK
from tests import golden

PLANS = golden.SPECULATING
PATHS = golden.ENTRY_PATHS
#: the navigating rows: ``simple``, and ``xschedule`` without speculation,
#: whose every delivery is a queue entry, at ``k_min_queue`` 1 and 100
NAVIGATING = ("simple", "xschedule-k100", "xschedule-k1")


@pytest.fixture(scope="module")
def store():
    held = golden.store(golden.ENTRY_DOC)[0]
    views = [held.segment.page(p).colview() for p in held.document("d").page_nos]
    for axis in (Axis.CHILD, Axis.ANCESTOR, Axis.FOLLOWING_SIBLING):
        assert max(len(view.entry_slots(axis)) for view in views) >= 3, axis
    return held


@pytest.mark.parametrize("plan", PLANS)
@pytest.mark.parametrize("query", PATHS)
def test_kernel_equals_scalar_chain_over_entry_runs(store, plan, query):
    """The kernel's books are the pinned ones the scalar chain booked.
    Traced, nothing moves, and the crossings replayed inside a run are
    reported under the I/O operator that the chain pulled per entry."""
    key = f"runs/{plan}/{PATHS.index(query)}"
    kernel = golden.check(key).result
    assert kernel.stats.speculative_instances > kernel.stats.clusters_visited
    traced = golden.check(f"{key}/traced").result
    pinned = golden.pinned_books(golden.row(f"{key}/traced"))
    assert {k: v for k, v in pinned.items() if k != "ops"} == golden.pinned_books(golden.row(key))
    assert traced.trace_summary.counters == kernel.stats.as_dict()


@pytest.mark.parametrize(
    "plan,speculative",
    [pytest.param(plan, True, id=plan) for plan in PLANS]
    + [pytest.param("xschedule", False, id="xschedule-nonspeculative")],
)
def test_budget_blows_inside_a_run(store, plan, speculative):
    """Wherever ``max_seconds`` falls — half a tick short of the budget
    check the kernel makes for the crossing it replays between two
    entries of one run included — the partial result and the raise are
    the pinned ones.  All three producers charge an entry's instance as
    they hand it on (the shared scan draws a cluster's runs lazily); so
    does the kernel for an entry of a delivery run, which
    non-speculative XSchedule's input is made of."""
    config = plan if speculative else "xschedule-nonspeculative"
    rows = [(key, row) for key, row in golden.rows("runs-cut") if key.split("/")[1] == config]
    draw = rows[0][1]["draw"]
    armed = {**draw, "options": {**draw["options"], "budget": {"max_seconds": (1e9).hex()}}}
    with golden.replayed_crossing_checks(delivery=not speculative) as instants:
        golden.run(armed)
    assert len(instants) > 100
    # half a tick short of a replayed crossing's check: it is the first to fail
    aimed = {(t - TICK / 2).hex() for t in instants[5 :: len(instants) // 7]}
    assert len(rows) == 2 * (4 + len(aimed))
    for key, row in rows:
        outcome = golden.check(key)
        _, _, name, mode = key.split("/")
        if mode == "partial":
            assert outcome.result.partial, key
            continue
        if name.startswith("aimed"):
            assert row["draw"]["options"]["budget"]["max_seconds"] in aimed, key
            frames = list(traceback.walk_tb(outcome.error.__traceback__))
            assert [f.f_code.co_name for f, _ in frames[-4:]] == [
                "_produce", "charge_call", "check_budget", "_budget_blown"
            ]
            assert golden.in_run(frames[-4][0].f_locals, not speculative), key


@pytest.mark.parametrize("plan", PLANS)
def test_memory_limit_trips_mid_run(store, plan, monkeypatch):
    """The trip discards S with entries of the run still to come: they
    flow on, as from XScan's inner loop, each through full navigation."""
    still_to_come = []
    enter_fallback = XAssembly._enter_fallback

    def spy(self):
        entries = self._iter.gi_frame.f_locals["entries"]
        if entries is not None:
            still_to_come.append(entries.__length_hint__())
        enter_fallback(self)

    monkeypatch.setattr(XAssembly, "_enter_fallback", spy)
    keys = [key for key, _ in golden.rows("runs-memory") if key.split("/")[1] == plan]
    assert len(keys) == 8
    for key in keys:
        assert golden.check(key).result.stats.fallbacks == 1, key
    assert any(still_to_come), "no trip happened with entries left in the run"


@pytest.mark.parametrize("k_min_queue", [1, 3, 100])
def test_the_producer_ends_a_delivery_run(store, k_min_queue, monkeypatch):
    """A delivery run ends where a pull would first replenish Q from its
    producer — whose contexts may join the held cluster's queue ahead of
    the entries waiting there — and every tuple is handed on at the
    pinned clock and counters."""
    ended_by_producer = []
    take = XSchedule.take_in_place

    def spy(self):
        entry = take(self)
        if entry is None and self._q.get(self._current):
            ended_by_producer.append(self._qcount)
        return entry

    monkeypatch.setattr(XSchedule, "take_in_place", spy)
    key = f"delivery/{k_min_queue}"
    assert golden.other(key) == golden.row(key)
    assert golden.row(key)["yields"][0] > 20
    if k_min_queue > 1:
        assert ended_by_producer, "no delivery run was ended by its producer"


# ------------------------------------------------------------------ golden


def _paper_keys(navigating):
    keys = [key for key, _ in golden.rows("paper")]
    return [key for key in keys if (key.split("/")[1] in NAVIGATING) == navigating]


def test_golden_q7_q15_under_the_speculating_plans():
    keys = _paper_keys(navigating=False)
    assert len(keys) == 6
    for key in keys:
        golden.check(key)


def test_golden_q6_q7_q15_under_the_navigating_plans():
    """Delivery runs, pruning verdicts memoised per (cluster, step) and
    the one extension memo leave every book of a navigating plan as it
    was pinned."""
    keys = _paper_keys(navigating=True)
    assert len(keys) == 9
    for key in keys:
        golden.check(key)
