"""Ablation: batch-at-a-time columnar kernels — identity, cost, speedup.

Three claims (the batched contract, docs/algebra.md):

* batching is *invisible* in the physics: every paper query under every
  physical plan returns bit-identical values, ``Stats`` and simulated
  time with ``batched`` on and off — the kernels replay the scalar
  charge and fix/unfix sequences exactly;
* the flag costs nothing when off: ``EvalOptions(batched=False)`` is
  the scalar datapath itself (kernel selection happens once at open
  time), and no column view is ever built on its runs;
* batching is *visible* on the wall clock: the warm columnar datapath
  must never be slower than the scalar one, and the measured speedup is
  recorded into the ablation table / ``BENCH_*.json`` artifacts.
"""

import time
from dataclasses import replace

import pytest

from repro import EvalOptions, Tracer
from harness import QUERY_BY_EXP, run_query

SCALE = 0.1
PLANS = ("simple", "xschedule", "xscan", "xscan-shared")
OFF = EvalOptions(batched=False)
ON = EvalOptions(batched=True)
#: where full-tree navigation is not a predicate-free Unnest-Map: a
#: predicate step under ``simple``, and the fallback levels of a scan
#: that trips its memory limit — (label, query, plan, extra options)
PREDICATE = ("item[location]", "count(//item[location = 'United States']/name)", "simple", {})
TRIPPED = ("q7-tripped", QUERY_BY_EXP["q7"], "xscan", {"memory_limit": 50})
WALKER_CASES = [pytest.param(*case, id=case[0]) for case in (PREDICATE, TRIPPED)]


def _outcome(result):
    if result.value is not None:
        return result.value
    return tuple(result.nodes)


@pytest.mark.parametrize(
    "label,query,plan,extra",
    [
        pytest.param(exp_id, QUERY_BY_EXP[exp_id], plan, {}, id=f"{exp_id}-{plan}")
        for exp_id in ("q6", "q7", "q15")
        for plan in PLANS
    ]
    + WALKER_CASES,
)
def test_batched_bit_identical(xmark_store, label, query, plan, extra):
    """Batched on vs off: same answer, same Stats, same simulated time."""
    db = xmark_store(SCALE)
    on = run_query(db, query, plan, options=replace(ON, **extra))
    off = run_query(db, query, plan, options=replace(OFF, **extra))
    assert bool(on.stats.fallbacks) == bool(extra)  # every path of a tripped scan falls back
    assert _outcome(on) == _outcome(off)
    assert on.stats.as_dict() == off.stats.as_dict()
    assert on.total_time == off.total_time
    assert on.cpu_time == off.cpu_time


def test_batched_off_builds_no_views(xmark_store):
    """``batched=False`` must leave the store exactly as the scalar
    engine does: no ColumnView is materialized anywhere."""
    db = xmark_store(SCALE)
    segment = db.store.segment
    for page_no in db.document("xmark").page_nos:
        segment.page(page_no).invalidate_colview()
    for plan in PLANS:
        run_query(db, QUERY_BY_EXP["q6"], plan, options=OFF)
    for _, query, plan, extra in (PREDICATE, TRIPPED):
        run_query(db, query, plan, options=replace(OFF, **extra))
    views = sum(
        segment.page(p)._colview is not None
        for p in db.document("xmark").page_nos
    )
    assert views == 0, f"scalar runs materialized {views} column views"


@pytest.mark.parametrize(
    "label,query,plan,extra",
    [
        pytest.param("q6", QUERY_BY_EXP["q6"], plan, {}, id=plan)
        for plan in ("simple", "xscan")
    ]
    + WALKER_CASES,
)
def test_batched_wall_clock_never_regresses(
    xmark_store, record_result, label, query, plan, extra
):
    """Warm wall clock, min of 3 rounds per mode.  The columnar kernels
    must at worst break even (generous noise margin); the measured
    speedup lands in the ablation table and the BENCH artifacts."""
    db = xmark_store(SCALE)
    modes = {"on": replace(ON, **extra), "off": replace(OFF, **extra)}
    for options in modes.values():  # warm buffer + views + caches
        run_query(db, query, plan, options=options)
    walls = {}
    for mode, options in modes.items():
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            run_query(db, query, plan, options=options)
            best = min(best, time.perf_counter() - t0)
        walls[mode] = best
    record_result(
        "ablation_batched",
        query=label,
        plan=plan,
        wall_on=walls["on"],
        wall_off=walls["off"],
        speedup=walls["off"] / walls["on"],
    )
    # hard gate only on "not slower": machine-noise tolerant (25%); the
    # wall-clock trajectory itself is tracked by the perf ledger
    # (benchmarks/ledger, `host_ops_per_s` per workload)
    assert walls["on"] <= walls["off"] * 1.25, walls


def test_batched_trace_reconciles(xmark_store):
    """The columnar kernels emit per-batch span events, and the traced
    summary carries the run's counters."""
    from repro import Database

    base = xmark_store(SCALE)
    db = Database(
        page_size=base.store.segment.page_size,
        buffer_pages=base.buffer_pages,
        store=base.store,
        tracer=Tracer(),
    )
    node_tests = 0
    for plan in PLANS:
        result = db.execute(QUERY_BY_EXP["q7"], doc="xmark", plan=plan, options=ON)
        assert result.trace_summary is not None
        assert result.trace_summary.counters == result.stats.as_dict()
        node_tests += result.trace_summary.counters["node_tests"]
    batch_events = [
        e for e in db.env.tracer.events if e.name in ("xstep-batch", "unnest-batch")
    ]
    assert batch_events, "batched kernels emitted no batch span events"
    assert all(e.args.get("batch_size", 0) >= 1 for e in batch_events)
    assert node_tests > 0
