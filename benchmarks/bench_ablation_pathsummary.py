"""Ablation: the path-summary index — refute, rewrite, price, prune.

Three claims (the path-summary contract, docs/storage.md and
docs/simulation.md):

* the rewrite pass is *invisible* in the results: every paper query
  under every physical plan returns bit-identical values with the
  summary on and off — refutation only ever removes provably empty
  paths, ``//``-expansion only ever replaces a step list with an
  equivalent one, and postings only ever skip clusters that hold no
  candidate for any step;
* refuted queries short-circuit *completely*: a location path the
  summary proves empty finishes without requesting a single page,
  visiting a single cluster, or advancing the simulated clock;
* the flag costs nothing when off: ``EvalOptions(pathsummary=False)``
  never consults the summary — the same simulated timings and counters
  whatever summary the document carries — and with the summary on,
  simulated time never regresses on any point of the paper grid.
"""

import pytest

from repro import Database, EvalOptions
from repro.storage.pathsummary import PathSummary
from harness import QUERY_BY_EXP, run_query

SCALE = 0.1
PLANS = ("simple", "xschedule", "xscan", "xscan-shared")
OFF = EvalOptions(pathsummary=False)

#: absent on every XMark document: ``site`` has no ``nowhere`` child,
#: so the summary refutes the path at its second step
REFUTED_QUERY = "/site/nowhere/child"


def _shared_store_db(base):
    return Database(
        page_size=base.store.segment.page_size,
        buffer_pages=base.buffer_pages,
        store=base.store,
    )


def _outcome(result):
    if result.value is not None:
        return result.value
    return tuple(result.nodes)


@pytest.mark.parametrize("plan", PLANS)
@pytest.mark.parametrize("exp_id", ("q6", "q7", "q15"))
def test_pathsummary_results_bit_identical(xmark_store, exp_id, plan):
    """Refute/rewrite/prune on vs off: same answer, never more I/O."""
    db = xmark_store(SCALE)
    on = run_query(db, QUERY_BY_EXP[exp_id], plan)
    off = run_query(db, QUERY_BY_EXP[exp_id], plan, options=OFF)
    assert _outcome(on) == _outcome(off)
    assert on.stats.pages_requested <= off.stats.pages_requested
    assert off.stats.paths_refuted == 0
    assert off.stats.pathsummary_clusters_pruned == 0
    assert off.stats.pathsummary_entries_pruned == 0


@pytest.mark.parametrize("plan", PLANS + ("auto",))
def test_refuted_query_touches_nothing(xmark_store, record_result, plan):
    """A summary-refuted path is answered from the trie alone: zero
    pages requested, zero clusters visited, zero simulated time — under
    every physical plan and under AUTO."""
    db = xmark_store(SCALE)
    result = run_query(db, REFUTED_QUERY, plan)
    # without the summary the same query pays real I/O for its empty answer
    off = run_query(db, REFUTED_QUERY, plan if plan != "auto" else "xscan", options=OFF)
    record_result(
        "ablation_pathsummary",
        mode="refuted",
        plan=plan,
        total=result.total_time,
        off_total=off.total_time,
        pages=float(result.stats.pages_requested),
    )
    assert result.nodes == []
    assert result.stats.paths_refuted == 1
    assert result.stats.pages_requested == 0
    assert result.stats.clusters_visited == 0
    assert result.total_time == 0.0
    assert _outcome(off) == _outcome(result)
    assert off.stats.pages_requested > 0


@pytest.mark.parametrize("plan", ("xschedule", "xscan"))
@pytest.mark.parametrize("exp_id", ("q6", "q7", "q15"))
def test_pathsummary_never_regresses_simulated_time(
    xmark_store, record_result, exp_id, plan
):
    """The grid of Figures 9-11: on the fully fragmented benchmark
    layout the postings filter composes with the synopsis skip planner,
    and the whole-query rewrite only fires behind its cost gate — so
    simulated time never regresses on any (query, plan) point."""
    db = xmark_store(SCALE)
    on = run_query(db, QUERY_BY_EXP[exp_id], plan)
    off = run_query(db, QUERY_BY_EXP[exp_id], plan, options=OFF)
    record_result(
        "ablation_pathsummary",
        mode=f"grid:{exp_id}",
        plan=plan,
        total=on.total_time,
        off_total=off.total_time,
        pages=float(on.stats.pages_requested),
    )
    assert on.total_time <= off.total_time
    assert on.cpu_time <= off.cpu_time


def test_pathsummary_off_is_free(xmark_store):
    """``pathsummary=False`` never reads the summary: with an empty one
    in its place (which would refute every path), the flagged run is
    identical, tick for tick."""
    base = xmark_store(SCALE)
    flagged = run_query(base, QUERY_BY_EXP["q6"], "xscan", options=OFF)

    bare_db = _shared_store_db(base)
    doc = bare_db.document("xmark")
    saved = doc.pathsummary
    doc.pathsummary = PathSummary.from_page_rows({})
    try:
        bare = run_query(bare_db, QUERY_BY_EXP["q6"], "xscan", options=OFF)
    finally:
        doc.pathsummary = saved
    assert _outcome(flagged) == _outcome(bare)
    assert flagged.total_time == bare.total_time
    assert flagged.stats.as_dict() == bare.stats.as_dict()


def test_evaluations_are_computed_once_per_summary(xmark_store, monkeypatch):
    """A path evaluation is a property of the summary, not of a compile:
    the second cold AUTO compile of Q7 and Q15 over one store walks the
    trie not once — rewrite, chooser and postings cap read the summary's
    memo — and answers with the same value and counters as the first."""
    db = _shared_store_db(xmark_store(SCALE))
    doc = db.document("xmark")
    # an equal summary with an empty memo, whatever ran on the store before
    monkeypatch.setattr(doc, "pathsummary", PathSummary.from_page_rows(doc.pathsummary.page_rows()))
    walks = []
    step_result = PathSummary._step_result

    def counted_step_result(self, contexts, step):
        walks.append(step)
        return step_result(self, contexts, step)

    monkeypatch.setattr(PathSummary, "_step_result", counted_step_result)
    first = {exp: db.execute(QUERY_BY_EXP[exp], doc="xmark") for exp in ("q7", "q15")}
    assert walks
    walks.clear()
    for exp, result in first.items():
        again = db.execute(QUERY_BY_EXP[exp], doc="xmark")
        assert _outcome(again) == _outcome(result)
        assert again.stats.as_dict() == result.stats.as_dict()
    assert walks == []


@pytest.mark.parametrize("plan", ("xschedule", "xscan"))
def test_pathsummary_consultation_charges_no_simulated_time(xmark_store, plan):
    """The summary is planning metadata: evaluating the trie, expanding
    steps and filtering postings are all free on the simulated clock, so
    CPU time can only go *down* (fewer entries processed), never up."""
    db = xmark_store(SCALE)
    on = run_query(db, QUERY_BY_EXP["q15"], plan)
    off = run_query(db, QUERY_BY_EXP["q15"], plan, options=OFF)
    assert on.cpu_time <= off.cpu_time
