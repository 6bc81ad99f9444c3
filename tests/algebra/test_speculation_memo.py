"""A scanned cluster's speculation, memoised on its view.

Which steps of a path speculate on a cluster, which the synopsis or the
postings refuse, and the entry slots each run starts at depend only on
the cluster's records, the path and the path's refusals, so
:func:`repro.algebra.xscan.speculation` builds them once per view and
key, and every later visit draws the same runs (:func:`~repro.algebra.
xscan.draw`).  The seams: the pruned steps are booked run by run as the
runs are drawn; XScan and the shared scan stop drawing at a fallback
trip, speculative XSchedule does not; a memo hit books exactly what a
miss books.
"""

import pytest

import repro.algebra.xscan as xscan
import repro.algebra.xschedule as xschedule
from repro import Database, EvalOptions, ExecutionBudget
from repro.algebra.xscan import scan, step_refusals
from repro.storage.colview import ColumnView
from tests import golden
from tests.conftest import speculated

SPECULATING = golden.SPECULATING
#: an armed budget no run can exhaust: the kernel walks level by level
INERT = ExecutionBudget(max_pages=10**9)


def test_pruned_steps_are_booked_as_each_run_is_drawn():
    """On a miss and on a hit alike: nothing is booked when the scan
    gets to a cluster, each draw books the steps pruned before its run,
    and the draw past the last run the steps pruned after it."""
    held, _ = golden.imported(golden.xmark_doc(0.7))
    db = golden.database(golden.xmark_doc(0.7), shared=held)
    document = db.document("d")
    ((plan, _),) = db.prepare("count(/site/regions//item)", "d", "xscan").leaves
    (steps, postings), booked = (plan.steps, plan.postings), []
    for _ in range(2):
        ctx = db.make_context(EvalOptions())
        stats = ctx.stats
        synopsis, _ = ctx.options.snapshots(document)
        refused = step_refusals(synopsis, steps, postings)[0]
        seen = []
        booked_so_far = 0, 0
        try:
            for page_no, (runs,) in scan(ctx, document, [(steps, postings)], ()):
                view = ctx.current_frame.page.colview()
                assert view.page_no == page_no
                for step, slots, by_synopsis, by_postings in speculated(view, steps, refused):
                    pruned = (stats.synopsis_entries_pruned, stats.pathsummary_entries_pruned)
                    assert pruned == booked_so_far
                    run = next(runs, None)
                    drawn = (None, None) if run is None else (run.step, run.slots)
                    assert drawn == (step, slots)
                    booked_so_far = (pruned[0] + by_synopsis, pruned[1] + by_postings)
                    seen.append((page_no, step, by_synopsis, by_postings))
        finally:
            ctx.release()
        assert booked_so_far == (stats.synopsis_entries_pruned, stats.pathsummary_entries_pruned)
        booked.append((seen, stats.as_dict()))
    assert booked[0] == booked[1]
    seen = booked[0][0]
    assert any(s for _, step, s, _ in seen if step is not None), "no run after a refused step"
    assert any(p for _, _, _, p in seen), "the postings refused no step"
    assert any(s or p for _, step, s, p in seen if step is None), "nothing pruned after a run"


@pytest.fixture
def drawn(monkeypatch):
    """Per draw of a cluster's runs: how many runs its speculation has,
    how many were drawn, how many had been when a fallback trip was
    first seen (None: never), whether it stops at one, and the
    ``memory_limit`` it ran under."""
    seen = []
    draw = xscan.draw

    def spy(ctx, memo, stop=True):
        record = {"runs": len(memo[0]), "drawn": 0, "tripped": None, "stop": stop}
        record["limit"] = ctx.options.memory_limit
        seen.append(record)
        runs = draw(ctx, memo, stop)
        while True:
            if ctx.fallback and record["tripped"] is None:
                record["tripped"] = record["drawn"]
            run = next(runs, None)
            if run is None:
                return
            record["drawn"] += 1
            yield run

    monkeypatch.setattr(xscan, "draw", spy)
    monkeypatch.setattr(xschedule, "draw", spy)
    return seen


@pytest.mark.parametrize("plan", SPECULATING)
def test_a_trip_mid_cluster_stops_the_scans_draw_not_xschedules(plan, drawn):
    """Under a ``memory_limit`` that trips with runs of the cluster still
    to come (its memo already built by a run before), XScan and the
    shared scan draw no further run, speculative XSchedule draws them
    all — and the books are the level-stack walk's."""
    held, _ = golden.imported(golden.random_doc(3, 1.0))
    db = Database(page_size=512, buffer_pages=48, store=held)
    query = golden.ENTRY_PATHS[0]
    db.execute(query, doc="d", plan=plan, options=EvalOptions(speculative=True))
    mid_cluster = []
    for limit in (1, 2, 3, 5, 8, 13, 21, 34):
        del drawn[:]
        options = EvalOptions(speculative=True, memory_limit=limit)
        result = db.execute(query, doc="d", plan=plan, options=options)
        inert = EvalOptions(speculative=True, memory_limit=limit, budget=INERT)
        walked = db.execute(query, doc="d", plan=plan, options=inert)
        assert (result.value, result.stats.as_dict()) == (walked.value, walked.stats.as_dict())
        for record in drawn:
            if record["tripped"] is not None and record["tripped"] < record["runs"]:
                mid_cluster.append(record)
    assert mid_cluster, "no limit tripped with runs of the cluster still to come"
    for record in mid_cluster:
        assert record["stop"] == (plan != "xschedule")
        want = record["tripped"] if record["stop"] else record["runs"]
        assert record["drawn"] == want, record


@pytest.mark.parametrize("plan", SPECULATING)
def test_a_memo_hit_books_what_a_miss_books(plan, monkeypatch):
    """The same path over a fresh import (every cluster a miss), then
    again (every cluster a hit), then with each gate switched off (new
    refusals: misses again, then hits): the books of every hit are the
    miss's before it, and those of a fresh import.  Without the synopsis
    the postings refuse nothing either, so ``unpruned`` hits the memo
    ``no-synopsis`` left."""
    built = []
    keep = ColumnView.keep_speculation

    def spy(view, key, memo):
        built.append(view.page_no)
        keep(view, key, memo)

    monkeypatch.setattr(ColumnView, "keep_speculation", spy)
    doc = golden.random_doc(3, 0.7)
    held, _ = golden.imported(doc)
    query = golden.TAPE_PATHS[1]
    for name, gates in [("pruned", {}), *golden.GATES.items()]:
        options = EvalOptions(speculative=True, **gates)
        runs = []
        for store in (held, held, golden.imported(doc)[0]):
            del built[:]
            db = Database(page_size=512, buffer_pages=48, store=store)
            result = db.execute(query, doc="d", plan=plan, options=options)
            runs.append((result.value, result.stats.as_dict(), result.total_time.hex(), built[:]))
        (miss, hit, fresh) = runs
        assert bool(miss[3]) == (name != "unpruned") and not hit[3] and fresh[3], name
        assert miss[:3] == hit[:3] == fresh[:3], name


def test_the_scanmemo_row_trips_inside_a_memoised_cluster(drawn, monkeypatch):
    """The golden row ``scanmemo/ways`` is as pinned, and its last way
    trips with runs of a cluster still to come in each of its four
    executions, every cluster of it off the memos the ways before left."""
    stamps = []  # per speculation built: how many draws had begun
    keep = ColumnView.keep_speculation

    def spy(view, key, memo):
        stamps.append(len(drawn))
        keep(view, key, memo)

    monkeypatch.setattr(ColumnView, "keep_speculation", spy)
    assert golden.other("scanmemo/ways") == golden.row("scanmemo/ways")
    limited = [at for at, record in enumerate(drawn) if record["limit"] is not None]
    assert limited and max(stamps) < limited[0], "a cluster of the last way was a miss"
    tripped = [
        (record["limit"], record["stop"])
        for record in drawn
        if record["tripped"] is not None and record["tripped"] < record["runs"]
    ]
    # each plan's limit, once per run: a scan stops its draw there
    assert sorted(tripped) == sorted((limit, True) for *_, limit in golden.SCANMEMO_QUERIES * 2)
