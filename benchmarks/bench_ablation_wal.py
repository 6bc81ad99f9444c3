"""Ablation: write-ahead logging — query-path overhead and repair cost.

Three claims:

* the WAL never touches the query path: the same query on the same
  store produces byte-identical simulated timings whether or not a log
  is attached, so the paper figures (9-11) are unaffected by the
  durability layer;
* pure-query batches through a WAL-attached database take the historical
  batch path unchanged — identical makespan to the last tick;
* incremental synopsis repair is equivalent to a full recollect but
  touches only the mutated pages (recovery reports the touched set, a
  small fraction of the document).
"""

from repro import ClusterSynopsis, Database
from repro.storage.wal import recover_store
from harness import QUERY_BY_EXP, build_xmark_db, run_query

SCALE = 0.25


def _shared_store_db(base):
    return Database(
        page_size=base.store.segment.page_size,
        buffer_pages=base.buffer_pages,
        store=base.store,
    )


def test_wal_is_free_on_the_query_path(
    benchmark, xmark_store, record_result, tmp_path
):
    """No log consulted during reads => identical physics, every tick."""
    base = xmark_store(SCALE)
    vanilla = run_query(base, QUERY_BY_EXP["q6"], "xschedule")
    logged_db = _shared_store_db(base)
    logged_db.attach_wal(str(tmp_path / "store.rpro"))
    logged = benchmark.pedantic(
        lambda: run_query(logged_db, QUERY_BY_EXP["q6"], "xschedule"),
        rounds=1,
        iterations=1,
    )
    record_result(
        "ablation_wal",
        mode="query-path",
        total=logged.total_time,
        overhead=logged.total_time / vanilla.total_time,
    )
    assert logged.value == vanilla.value
    assert logged.total_time == vanilla.total_time
    assert logged.cpu_time == vanilla.cpu_time
    assert logged.io_wait == vanilla.io_wait


def test_pure_query_batch_unchanged_under_wal(
    benchmark, xmark_store, record_result, tmp_path
):
    base = xmark_store(SCALE)
    batch = [QUERY_BY_EXP["q6"], QUERY_BY_EXP["q15"], "count(//keyword)"]
    plain = base.run_batch(batch, doc="xmark")
    logged_db = _shared_store_db(base)
    logged_db.attach_wal(str(tmp_path / "store.rpro"))
    logged = benchmark.pedantic(
        lambda: logged_db.run_batch(batch, doc="xmark"), rounds=1, iterations=1
    )
    record_result(
        "ablation_wal",
        mode="batch-path",
        total=logged.total_time,
        overhead=logged.total_time / plain.total_time,
    )
    assert logged.total_time == plain.total_time
    assert logged.updates == 0
    assert [r.value for r in logged.results] == [r.value for r in plain.results]


def test_incremental_repair_touches_few_pages(
    benchmark, record_result, tmp_path
):
    """Repair == recollect, but recovery only recollects touched pages."""
    db = build_xmark_db(0.1, buffer_pages=256)
    path = str(tmp_path / "store.rpro")
    db.attach_wal(path)
    root = db.execute("/site", doc="xmark", plan="simple").nodes[0]
    for i in range(4):
        db.wal.insert("xmark", root, 0, f"probe{i}")
    doc = db.store.document("xmark")
    assert doc.synopsis == ClusterSynopsis.collect(
        db.store.segment.page(p) for p in doc.page_nos
    )
    store, report = benchmark.pedantic(
        lambda: recover_store(path), rounds=1, iterations=1
    )
    touched = len(report.touched_pages)
    total = len(store.document("xmark").page_nos)
    assert 0 < touched < total  # incremental, not a full sweep
    recovered_doc = store.document("xmark")
    assert recovered_doc.synopsis == ClusterSynopsis.collect(
        store.segment.page(p) for p in recovered_doc.page_nos
    )
    record_result(
        "ablation_wal_repair",
        touched=float(touched),
        pages=float(total),
        replayed=float(report.replayed),
    )
