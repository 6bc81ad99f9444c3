"""Ablation: execution tracing — overhead and non-perturbation.

Three claims (the observability layer's contract, docs/observability.md):

* with no tracer installed the instrumentation hook is free — the same
  query on the same store produces bit-identical simulated timings and
  counters, so the paper figures (9-11) are unaffected by this layer;
* with a tracer installed the *simulated* physics are still identical
  (the tracer reads the clock, never charges it) for the paper queries
  under every physical plan;
* the Chrome trace export is well-formed trace-viewer JSON.
"""

import json

import pytest

from repro import Database, Tracer
from harness import QUERY_BY_EXP, run_query

SCALE = 0.1
PLANS = ("simple", "xschedule", "xscan", "xscan-shared")


def _shared_store_db(base, tracer=None):
    return Database(
        page_size=base.store.segment.page_size,
        buffer_pages=base.buffer_pages,
        store=base.store,
        tracer=tracer,
    )


def test_tracing_off_is_free(benchmark, xmark_store, record_result):
    """No tracer installed => identical physics, to the last tick."""
    base = xmark_store(SCALE)
    vanilla = run_query(base, QUERY_BY_EXP["q6"], "xschedule")
    hooked_db = _shared_store_db(base)  # same stack, trace hooks compiled in
    hooked = benchmark.pedantic(
        lambda: run_query(hooked_db, QUERY_BY_EXP["q6"], "xschedule"),
        rounds=1,
        iterations=1,
    )
    record_result(
        "ablation_trace",
        mode="off",
        total=hooked.total_time,
        overhead=hooked.total_time / vanilla.total_time,
        events=0.0,
    )
    assert hooked.value == vanilla.value
    assert hooked.total_time == vanilla.total_time
    assert hooked.stats.as_dict() == vanilla.stats.as_dict()
    assert hooked.trace_summary is None


@pytest.mark.parametrize("plan", PLANS)
@pytest.mark.parametrize("exp_id", ("q6", "q7", "q15"))
def test_tracing_on_is_non_perturbing(
    benchmark, xmark_store, record_result, exp_id, plan
):
    """Tracing on: same simulated time, same counters, to the last tick."""
    base = xmark_store(SCALE)
    baseline = run_query(base, QUERY_BY_EXP[exp_id], plan)
    tracer = Tracer()
    db = _shared_store_db(base, tracer=tracer)
    result = benchmark.pedantic(
        lambda: run_query(db, QUERY_BY_EXP[exp_id], plan),
        rounds=1,
        iterations=1,
    )
    record_result(
        "ablation_trace",
        mode=f"{exp_id}/{plan}",
        total=result.total_time,
        overhead=result.total_time / baseline.total_time,
        events=float(tracer.events_recorded),
    )
    assert result.value == baseline.value
    assert result.total_time == baseline.total_time  # bit-identical clock
    assert result.stats.as_dict() == baseline.stats.as_dict()
    assert result.trace_summary is not None
    assert tracer.events_recorded > 0


def test_chrome_export_well_formed(xmark_store, tmp_path):
    base = xmark_store(SCALE)
    tracer = Tracer()
    db = _shared_store_db(base, tracer=tracer)
    run_query(db, QUERY_BY_EXP["q6"], "xschedule")
    out = tmp_path / "trace.json"
    tracer.export_chrome(str(out))
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert "traceEvents" in payload
    events = payload["traceEvents"]
    assert events, "empty trace"
    phases = {e["ph"] for e in events}
    assert "X" in phases  # spans (disk service, operators)
    assert "M" in phases  # thread-name metadata
    for e in events:
        assert {"ph", "pid", "tid", "name"} <= e.keys()
