"""Unit tests for the tracer: ring semantics, rollups, exports."""

import dataclasses
import json

import pytest

from repro.obs import TraceEvent, Tracer, format_metrics
from repro.sim.stats import Stats


def test_ring_is_bounded_but_counters_survive_overflow():
    tracer = Tracer(capacity=4)
    for i in range(10):
        tracer.event(float(i), "io", "request", page=i)
        tracer.cluster_read(i % 2)
    assert len(tracer.events) == 4
    assert tracer.events_recorded == 10
    assert tracer.dropped == 6
    # the online rollups are exact even though 6 events fell off the ring
    assert tracer.cluster_reads == {0: 5, 1: 5}
    assert [e.page for e in tracer.events] == [6, 7, 8, 9]


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        Tracer(capacity=0)


def test_summary_counters_are_the_stats_slice_it_is_handed():
    """One book: a counter added to Stats shows up in the summary with
    no second site to keep in step, and the summary is detached data."""
    ExtendedStats = dataclasses.make_dataclass(
        "ExtendedStats",
        [("shiny_new", int, dataclasses.field(default=0))],
        bases=(Stats,),
    )
    stats = ExtendedStats()
    stats.pages_read = 2
    stats.shiny_new = 3
    summary = Tracer().summary(stats)
    assert summary.counters == stats.as_dict()
    assert summary.counters["shiny_new"] == 3
    stats.pages_read += 1  # later activity belongs to a later slice
    assert summary.counters["pages_read"] == 2


def test_operator_rollups():
    tracer = Tracer()
    tracer.op_call("XStep", produced=True)
    tracer.op_call("XStep", produced=False)
    tracer.op_span("XStep", t0=1.0, t1=3.5, out=1)
    roll = tracer.summary(Stats()).operators["XStep"]
    assert roll["calls"] == 2
    assert roll["out"] == 1
    assert roll["opens"] == 1
    assert roll["busy"] == pytest.approx(2.5)


def test_cluster_heatmap_and_retry_histogram():
    tracer = Tracer()
    for page in (7, 7, 7, 3):
        tracer.cluster_read(page)
    tracer.io_retry(1)
    tracer.io_retry(1)
    tracer.io_retry(2)
    summary = tracer.summary(Stats())
    assert summary.hottest_clusters(1) == [(7, 3)]
    assert summary.retry_histogram == {1: 2, 2: 1}


def test_jsonl_export_round_trips(tmp_path):
    tracer = Tracer()
    tracer.event(0.5, "io", "request", page=9)
    tracer.event(1.0, "disk", "service", page=9, dur=0.25, args={"outcome": "ok"})
    path = tmp_path / "trace.jsonl"
    assert tracer.export_jsonl(str(path)) == 2
    lines = path.read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in lines]
    assert records[0] == {"ts": 0.5, "cat": "io", "name": "request", "page": 9}
    assert records[1]["dur"] == 0.25
    assert records[1]["args"] == {"outcome": "ok"}


def test_chrome_export_shape(tmp_path):
    tracer = Tracer()
    tracer.event(0.001, "io", "request", page=9)
    tracer.event(0.002, "disk", "service", page=9, dur=0.0005)
    path = tmp_path / "trace.json"
    tracer.export_chrome(str(path))
    payload = json.loads(path.read_text(encoding="utf-8"))
    events = payload["traceEvents"]
    # one metadata row per category, then the events themselves
    metas = [e for e in events if e["ph"] == "M"]
    assert {m["args"]["name"] for m in metas} == {"io", "disk"}
    span = next(e for e in events if e["ph"] == "X")
    assert span["ts"] == pytest.approx(2000.0)  # seconds -> microseconds
    assert span["dur"] == pytest.approx(500.0)
    instant = next(e for e in events if e["ph"] == "i")
    assert instant["args"]["page"] == 9


def test_format_metrics_renders_the_live_sections():
    tracer = Tracer()
    tracer.cluster_read(5)
    tracer.plan_cache_event(False, "//a", "d", "xscan")
    text = format_metrics(tracer.summary(Stats(pages_read=3)))
    assert "pages_read" in text
    assert "hottest clusters" in text
    assert "plan cache: 0 hits, 1 misses" in text
    assert "events:" in text


def test_trace_event_as_dict_omits_empty_fields():
    event = TraceEvent(1.0, "op", "XScan")
    assert event.as_dict() == {"ts": 1.0, "cat": "op", "name": "XScan"}
