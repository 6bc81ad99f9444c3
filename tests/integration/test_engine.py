"""End-to-end engine tests."""

import pytest

from repro import Database, EvalOptions, ImportOptions, ReproError, Tracer
from repro.sim.disk import DiskGeometry, SchedulingPolicy
from repro.xpath.compile import PlanKind


def make_db(tracer=None):
    db = Database(page_size=512, buffer_pages=32, tracer=tracer)
    db.load_xml(
        "<site><a><b>one</b><b>two</b></a><a><b>three</b></a><c/></site>", "d"
    )
    return db


def test_load_xml_and_count():
    db = make_db()
    result = db.execute("count(//b)", doc="d")
    assert result.value == 3.0
    assert result.nodes is None


def test_node_query_returns_document_order():
    db = make_db()
    result = db.execute("//b", doc="d", plan="simple")
    values = [db.node_info(n) for n in result.nodes]
    assert [v[1] for v in values] == ["b", "b", "b"]
    texts = db.execute("//b/text()", doc="d", plan="simple")
    assert [db.node_info(n)[2] for n in texts.nodes] == ["one", "two", "three"]


def test_result_accounting_consistent():
    db = make_db()
    result = db.execute("count(//b)", doc="d", plan="xschedule")
    assert result.total_time == result.cpu_time + result.io_wait
    assert result.total_time > 0
    assert 0 < result.cpu_fraction <= 1
    assert result.stats.pages_read >= 1


def test_node_count_guard():
    db = make_db()
    result = db.execute("count(//b)", doc="d")
    with pytest.raises(ReproError):
        result.node_count


def test_root_query():
    db = make_db()
    result = db.execute("/", doc="d", plan="simple")
    assert len(result.nodes) == 1
    assert db.node_info(result.nodes[0])[0] == "DOCUMENT"
    for plan in ("xschedule", "xscan"):
        assert len(db.execute("/", doc="d", plan=plan).nodes) == 1


def test_empty_result():
    db = make_db()
    for plan in ("simple", "xschedule", "xscan"):
        result = db.execute("//missing", doc="d", plan=plan)
        assert result.nodes == []


def test_warm_context_reuses_buffer():
    for tracer in (None, Tracer()):
        db = make_db(tracer)
        ctx = db.make_context()
        first = db.execute("count(//b)", doc="d", plan="simple", context=ctx)
        first_stats = first.stats.as_dict()
        second = db.execute("count(//b)", doc="d", plan="simple", context=ctx)
        assert second.value == first.value
        assert second.io_wait < first.io_wait or second.io_wait == 0.0
        assert second.total_time < first.total_time
        # each result carries its own per-run slice of the reused context
        assert first.stats.as_dict() == first_stats
        assert second.stats is not first.stats
        assert second.stats.buffer_misses == 0 < first.stats.buffer_misses
        assert second.stats.node_tests == first.stats.node_tests
        if tracer is not None:
            assert second.trace_summary.counters == second.stats.as_dict()


def test_cold_runs_are_deterministic():
    db = make_db()
    a = db.execute("count(//b)", doc="d", plan="xschedule")
    b = db.execute("count(//b)", doc="d", plan="xschedule")
    assert a.total_time == b.total_time
    assert a.stats.as_dict() == b.stats.as_dict()


def test_multiple_documents():
    db = Database(page_size=512, buffer_pages=32)
    db.load_xml("<a><x/></a>", "one")
    db.load_xml("<a><x/><x/></a>", "two")
    assert db.execute("count(//x)", doc="one").value == 1.0
    assert db.execute("count(//x)", doc="two").value == 2.0


def test_disk_policy_configurable():
    db = Database(page_size=512, buffer_pages=32, disk_policy=SchedulingPolicy.FIFO)
    db.load_xml("<a><b/><b/></a>", "d")
    assert db.execute("count(//b)", doc="d", plan="xschedule").value == 2.0


def test_geometry_page_size_mismatch_rejected():
    with pytest.raises(ReproError):
        Database(page_size=512, geometry=DiskGeometry(page_size=8192))


def test_prepare_then_inspect_plan():
    db = make_db()
    compiled = db.prepare("count(//b)", doc="d", plan="xscan")
    assert compiled.plan_kinds == [PlanKind.XSCAN]


def test_builder_shares_tag_dictionary():
    db = Database(page_size=512, buffer_pages=8)
    builder = db.builder()
    builder.start_element("a")
    builder.end_element()
    db.add_tree(builder.finish(), "d")
    assert db.execute("count(/a)", doc="d").value == 1.0
