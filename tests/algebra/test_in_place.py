"""The tape players' in-place branches, each seen firing off a tape.

``XAssembly._deliveries`` proves, files and takes without a call per
item where nothing can read the clock, ``XAssembly._replay`` activates,
proves and finalises in place, and ``order_results`` counts a resident
label read as a hit.  The books are the same as through the methods, so
what shows a branch firing is a pinned row built so that only that
branch can have booked what it counts (``tests/golden.py``, the
``inplace`` rows), read off its counters and ``XSchedule._parked``.
"""

from repro.algebra.misc import order_results, result_nodeids
from repro.storage.buffer import BufferManager
from tests import golden


def test_every_in_place_branch_fires_off_a_tape():
    rows = {key: golden.row(key) for key in golden.OTHER_KEYS if key.startswith("inplace/")}
    assert len(rows) == 3
    for key, row in rows.items():
        assert golden.other(key) == row, key

    # _deliveries: with every page resident no proof can submit a read,
    # and without speculation S stays empty, so every proof off a
    # delivery tape is taken in place
    runs = rows["inplace/deliveries"]["runs"]
    assert not any(run["reads"] for run in runs), "a page left the buffer"
    walked = [run for run in runs if not run["speculative"]]
    for branch in ("duplicates", "synopsis", "postings", "filed"):
        assert any(run[branch] for run in walked), branch
    # speculating, a delivered entry's crossing into a visited cluster is
    # parked; under a key no run of that cluster parks, S never held it,
    # so the proof released nothing and was taken in place
    assert any(run["parked_in_place"] for run in runs if run["speculative"])

    # _replay, every activation in place: R starts empty, so an entry is
    # activated at intake only where the // prefix implies its key ...
    replay = rows["inplace/replay"]
    implied, duplicate, cascade = replay["implied"], replay["duplicate"], replay["cascade"]
    assert implied["outcomes"] and implied["merges"] == implied["outcomes"]
    assert implied["s_size"] == 0
    # ... a run taken in twice activates its full paths twice, and only
    # the first activation of each result is one ...
    assert duplicate["results"] < duplicate["full"]
    # ... and a step-1 run's proof releases the entries an earlier run
    # parked under its junction: merges beyond its own outcomes
    assert cascade["merges"] > cascade["outcomes"]

    # order_results: both kinds of label read in one ordering's slice
    order = rows["inplace/order"]
    assert order["hits"] and order["misses"]


def test_untraced_order_results_fixes_only_its_misses(monkeypatch):
    """The ``inplace/order`` books are the same through ``fix``; what
    shows the in-place branch firing is that, untraced, only a miss
    calls ``fix`` (a resident label read goes to ``count_hits``)."""
    fixed = []
    fix = BufferManager.fix

    def counted(self, page_no):
        fixed.append(page_no)
        return fix(self, page_no)

    monkeypatch.setattr(BufferManager, "fix", counted)
    db = golden.database(golden.ENTRY_DOC)
    ctx = db.make_context()
    ((plan, _),) = db.prepare("//b", "d", "xschedule").leaves
    nodes = result_nodeids(plan.build(ctx))
    before = ctx.stats.snapshot()
    fixed.clear()
    order_results(ctx, nodes)
    stats = ctx.stats.diff(before)
    ctx.release()
    assert stats.buffer_hits and stats.buffer_misses
    assert len(fixed) == stats.buffer_misses
