"""Ablation: cluster-synopsis pruning — correctness, I/O savings, overhead.

Three claims (the synopsis contract, docs/storage.md):

* pruning is *invisible* in the results: every paper query under every
  physical plan returns bit-identical values with the synopsis on and
  off — the predicates only ever skip clusters that provably cannot
  contribute;
* pruning is *visible* in the physics, and only ever as an improvement:
  on the selective Q15 a document-order layout has XScan skip whole
  dead regions (every skipped cluster accounted for:
  ``pages_read + pruned == n_pages``), while on the fully fragmented
  benchmark layout the cost-aware planner streams through scattered
  prunable pages — skipping them would trade cheap transfers for
  seeks — and still wins via the skipped speculation rounds;
* the flag costs nothing when off: ``EvalOptions(synopsis=False)``
  never consults the synopsis — the same simulated timings and counters
  whatever synopsis the document carries.
"""

import pytest

from repro import ClusterSynopsis, Database, EvalOptions, ImportOptions
from repro.xmark import generate_xmark
from harness import QUERY_BY_EXP, bench_seed, run_query, run_query_timed

SCALE = 0.1
PLANS = ("simple", "xschedule", "xscan", "xscan-shared")
OFF = EvalOptions(synopsis=False)


def _document_order_db(scale):
    """fragmentation=0.0: pages in cluster-creation (document) order,
    so prunable regions stay contiguous and runs clear the skip-scan
    break-even."""
    seed = bench_seed()
    db = Database(page_size=8192, buffer_pages=1000)
    tree = generate_xmark(scale=scale, tags=db.tags, seed=seed)
    db.add_tree(tree, "xmark", ImportOptions(fragmentation=0.0, seed=seed))
    return db


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
def test_synopsis_results_bit_identical(xmark_store, exp_id, plan):
    """Pruning on vs off: same answer, never more I/O."""
    db = xmark_store(SCALE)
    on = run_query(db, QUERY_BY_EXP[exp_id], plan)
    off = run_query(db, QUERY_BY_EXP[exp_id], plan, options=OFF)
    assert _outcome(on) == _outcome(off)
    assert on.stats.pages_read <= off.stats.pages_read
    assert off.stats.synopsis_clusters_pruned == 0
    assert off.stats.synopsis_entries_pruned == 0


@pytest.mark.parametrize("exp_id", ("q6", "q15"))
def test_synopsis_scan_pruning_accounted(xmark_store, record_result, exp_id):
    """Every page of the document is either read or provably skipped."""
    db = xmark_store(SCALE)
    doc = db.document("xmark")
    result = run_query(db, QUERY_BY_EXP[exp_id], "xscan")
    stats = result.stats
    record_result(
        "ablation_synopsis",
        query=exp_id,
        pages=float(stats.pages_read),
        pruned=float(stats.synopsis_clusters_pruned),
        of=float(doc.n_pages),
    )
    assert stats.pages_read + stats.synopsis_clusters_pruned == doc.n_pages


def test_synopsis_skips_dead_regions_on_clustered_layout(benchmark):
    """On a document-order layout Q15's dead regions are contiguous, so
    the cost-aware planner skips whole runs of pages; simulated time and
    pages read must both strictly improve over the unpruned scan."""
    db = _document_order_db(SCALE)
    result, _ = benchmark.pedantic(
        lambda: run_query_timed(db, QUERY_BY_EXP["q15"], "xscan"),
        rounds=1,
        iterations=1,
    )
    unpruned = run_query(db, QUERY_BY_EXP["q15"], "xscan", options=OFF)
    assert tuple(result.nodes) == tuple(unpruned.nodes)
    assert result.stats.synopsis_clusters_pruned > 0
    assert result.stats.pages_read < unpruned.stats.pages_read
    assert result.total_time < unpruned.total_time


@pytest.mark.parametrize("plan", ("xschedule", "xscan"))
@pytest.mark.parametrize("exp_id", ("q6", "q7", "q15"))
def test_synopsis_never_regresses_simulated_time(xmark_store, exp_id, plan):
    """The cost-aware skip planner's contract: even on the fully
    fragmented benchmark layout, where skipping scattered pages would
    pay more in seeks than it saves in transfers, pruning never makes a
    query slower on the simulated clock."""
    db = xmark_store(SCALE)
    on = run_query(db, QUERY_BY_EXP[exp_id], plan)
    off = run_query(db, QUERY_BY_EXP[exp_id], plan, options=OFF)
    assert on.total_time <= off.total_time


def test_synopsis_off_is_free(xmark_store):
    """``synopsis=False`` never reads the synopsis: with an empty one in
    its place, the flagged run is identical, tick for tick."""
    base = xmark_store(SCALE)
    flagged = run_query(base, QUERY_BY_EXP["q6"], "xscan", options=OFF)

    bare_db = _shared_store_db(base)
    doc = bare_db.document("xmark")
    saved = doc.synopsis
    doc.synopsis = ClusterSynopsis.from_rows({})  # prunes nothing, if read
    try:
        bare = run_query(bare_db, QUERY_BY_EXP["q6"], "xscan", options=OFF)
    finally:
        doc.synopsis = saved
    assert _outcome(flagged) == _outcome(bare)
    assert flagged.total_time == bare.total_time
    assert flagged.stats.as_dict() == bare.stats.as_dict()


def test_verdicts_are_computed_once_per_synopsis(xmark_store, monkeypatch):
    """A pruning verdict is a property of the synopsis, not of an
    execution: the second cold XScan of Q7 and Q15 over one store
    computes none — its masks come off the synopsis's memo — and answers
    with the same value and counters as the first."""
    db = _shared_store_db(xmark_store(SCALE))
    doc = db.document("xmark")
    # an equal synopsis with an empty memo, whatever ran on the store before
    monkeypatch.setattr(doc, "synopsis", ClusterSynopsis.from_rows(doc.synopsis.rows()))
    computed = []
    fill = ClusterSynopsis._fill

    def counted_fill(self, source, *pages):
        computed.append(source)
        return fill(self, source, *pages)

    monkeypatch.setattr(ClusterSynopsis, "_fill", counted_fill)
    first = {exp: run_query(db, QUERY_BY_EXP[exp], "xscan") for exp in ("q7", "q15")}
    assert computed
    computed.clear()
    for exp, result in first.items():
        again = run_query(db, QUERY_BY_EXP[exp], "xscan")
        assert _outcome(again) == _outcome(result)
        assert again.stats.as_dict() == result.stats.as_dict()
    assert computed == []


@pytest.mark.parametrize("plan", ("xschedule", "xscan"))
def test_synopsis_consultation_charges_no_simulated_time(xmark_store, plan):
    """The synopsis is planning metadata: consulting it is free on the
    simulated clock, so CPU time can only go *down* with pruning on
    (fewer pages processed), never up."""
    db = xmark_store(SCALE)
    on = run_query(db, QUERY_BY_EXP["q15"], plan)
    off = run_query(db, QUERY_BY_EXP["q15"], plan, options=OFF)
    assert on.cpu_time <= off.cpu_time
