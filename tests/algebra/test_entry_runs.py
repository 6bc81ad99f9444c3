"""The speculative hand-off: one entry run per (cluster, step).

An I/O operator that speculates hands the path kernel every entry border
of a (cluster, step) as one :class:`~repro.algebra.pathinstance.EntryRun`;
the scalar chain (``batched=False``) still gets one ``PathInstance`` per
border and is the oracle.  The document here has clusters with three and
more entry borders per step, so every run of the kernel's in-place walk
is exercised deterministically: equality on every observable, a budget
that blows *inside* a run, a memory-limit trip with entries still to
come.  A small golden file pins the same plans on Q7 and Q15, so the
oracle outlives the scalar chain; ``python -m tests.algebra.test_entry_runs``
regenerates it, which only a declared physics change may do.
"""

import json
import pathlib
import sys
import traceback

import pytest

from repro import (
    BudgetExceededError,
    Database,
    EvalOptions,
    ExecutionBudget,
    ImportOptions,
    Tracer,
)
from repro.algebra.context import EvalContext
from repro.algebra.xassembly import XAssembly
from repro.axes import Axis
from repro.sim.clock import TICK
from repro.xmark import Q7, Q15, generate_xmark
from tests.conftest import small_database

PLANS = ["xscan", "xscan-shared", "xschedule"]
#: downward, upward and sibling steps: entries through up-side borders,
#: down borders and every border
PATHS = [
    "/descendant-or-self::node()/child::*/child::*/child::*",
    "count(//a/b)+count(//b//c/*/a)",
    "//c/ancestor::a/b",
    "count(//b/following-sibling::a/c)",
]
GOLDEN = pathlib.Path(__file__).with_name("golden_entry_runs.json")


@pytest.fixture(scope="module")
def store():
    db, _ = small_database(seed=3, page_size=512, fragmentation=0.7, n_top=25)
    views = [db.store.segment.page(p).colview() for p in db.store.document("d").page_nos]
    for axis in (Axis.CHILD, Axis.ANCESTOR, Axis.FOLLOWING_SIBLING):
        assert max(len(view.entry_slots(axis)) for view in views) >= 3, axis
    return db.store


def _run(store, query, plan, batched, tracer=None, **options):
    db = Database(page_size=512, buffer_pages=48, store=store, tracer=tracer)
    options = EvalOptions(speculative=True, batched=batched, **options)
    return db.execute(query, doc="d", plan=plan, options=options)


def _observed(result):
    return (
        result.value,
        result.nodes,
        result.stats.as_dict(),
        result.total_time,
        result.cpu_time,
        result.partial,
    )


@pytest.mark.parametrize("plan", PLANS)
@pytest.mark.parametrize("query", PATHS)
def test_kernel_equals_scalar_chain_over_entry_runs(store, plan, query):
    kernel = _run(store, query, plan, True)
    scalar = _run(store, query, plan, False)
    assert _observed(kernel) == _observed(scalar)
    assert kernel.stats.speculative_instances > kernel.stats.clusters_visited
    # traced: nothing moves, and the crossings replayed inside a run are
    # reported under the I/O operator that the scalar chain pulls per entry
    traced = {
        batched: _run(store, query, plan, batched, tracer=Tracer())
        for batched in (True, False)
    }
    assert _observed(traced[True]) == _observed(kernel)
    crossings = {
        batched: {
            name: (roll["calls"], roll["out"])
            for name, roll in traced[batched].trace_summary.operators.items()
        }
        for batched in (True, False)
    }
    assert crossings[True] == crossings[False]
    assert traced[True].trace_summary.counters == scalar.stats.as_dict()


def _in_run(kernel_locals):
    """Is the kernel between two entries of a run, past the level crossings?"""
    return (
        kernel_locals["entries"] is not None
        and kernel_locals["top"] == 0
        and kernel_locals["calls"] == 0
    )


def _instants_of_replayed_crossings(store, query, plan, monkeypatch):
    """Simulated time at each budget check the kernel makes for the
    crossing it replays per entry (a cold run: the budget starts at 0)."""
    instants = []
    check_budget = EvalContext.check_budget

    def spy(self):
        kernel = sys._getframe(2)  # check_budget <- charge_call <- the kernel
        if kernel.f_code is XAssembly._produce.__code__ and _in_run(kernel.f_locals):
            instants.append(self.clock.now)
        check_budget(self)

    with monkeypatch.context() as patch:
        patch.setattr(EvalContext, "check_budget", spy)
        _run(store, query, plan, True, budget=ExecutionBudget(max_seconds=1e9))
    return instants


@pytest.mark.parametrize("plan", PLANS)
def test_budget_blows_inside_a_run(store, plan, monkeypatch):
    """Wherever ``max_seconds`` falls — between two entries of one run
    included — both datapaths stop at the same instant with the same
    partial result.  All three producers charge an entry's instance as
    they hand it on (the shared scan draws a cluster's runs lazily)."""
    query = PATHS[0]
    instants = _instants_of_replayed_crossings(store, query, plan, monkeypatch)
    assert len(instants) > 100
    # half a tick short of a replayed crossing's check: it is the first to fail
    aimed = [t - TICK / 2 for t in instants[5 :: len(instants) // 7]]
    # (past the last of them the run is ordering its result, unchecked)
    for limit in [instants[-1] * i / 12 for i in range(1, 12)] + aimed:
        cut = {
            batched: _run(
                store, query, plan, batched,
                budget=ExecutionBudget(max_seconds=limit, on_exceeded="partial"),
            )
            for batched in (True, False)
        }
        assert cut[True].partial
        assert _observed(cut[True]) == _observed(cut[False]), limit
        errors = {}
        for batched in (True, False):
            with pytest.raises(BudgetExceededError) as err:
                _run(store, query, plan, batched, budget=ExecutionBudget(max_seconds=limit))
            errors[batched] = err
        assert errors[True].value.spent == errors[False].value.spent, limit
        if limit in aimed:
            frames = list(traceback.walk_tb(errors[True].tb))
            assert [f.f_code.co_name for f, _ in frames[-4:]] == [
                "_produce", "charge_call", "check_budget", "_budget_blown"
            ]
            assert _in_run(frames[-4][0].f_locals), limit


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
    for limit in (0, 1, 2, 3, 5, 8, 13, 21):
        kernel = _run(store, PATHS[0], plan, True, memory_limit=limit)
        scalar = _run(store, PATHS[0], plan, False, memory_limit=limit)
        assert kernel.stats.fallbacks == 1
        assert _observed(kernel) == _observed(scalar), limit
    assert any(still_to_come), "no trip happened with entries left in the run"


# ------------------------------------------------------------------ golden


def _golden_rows():
    """Q7 and Q15 under the three speculating plans at sf 0.05."""
    db = Database(page_size=2048, buffer_pages=128)
    tree = generate_xmark(scale=0.05, tags=db.tags, seed=3)
    db.add_tree(tree, "xmark", ImportOptions(page_size=2048, fragmentation=1.0, seed=3))
    rows = {}
    for name, query in (("Q7", Q7), ("Q15", Q15)):
        for plan in PLANS:
            result = db.execute(
                query, doc="xmark", plan=plan, options=EvalOptions(speculative=True)
            )
            rows[f"{name}/{plan}"] = {
                "value": result.value,
                "n_nodes": None if result.nodes is None else len(result.nodes),
                "time": [
                    result.total_time.hex(),
                    result.cpu_time.hex(),
                    result.io_wait.hex(),
                ],
                "stats": result.stats.as_dict(),
            }
    return rows


def test_golden_q7_q15_under_the_speculating_plans():
    assert _golden_rows() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_golden_rows(), indent=1, sort_keys=True) + "\n")
