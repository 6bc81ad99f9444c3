"""Mixed read/write batches: queries interleaved with durable updates.

Two claims:

* a batch with updates interleaved still evaluates its query runs
  through the shared-I/O machinery — the query results and the
  simulated query cost stay well-formed at every write ratio, and every
  applied update is durably acknowledged in the WAL (``last_lsn`` equals
  the number of updates);
* cost-aware synopsis pruning *survives* updates: every update, logged
  or bare (no WAL), repairs the per-cluster synopsis incrementally, so
  the next columnar scan skips the same clusters either way.
"""

import pytest

from repro import Database, DeleteOp, InsertOp, SetValueOp
from repro.storage.store import check_document
from repro.storage.synopsis import ClusterSynopsis
from repro.storage.update import insert_node
from repro.storage.wal import recover_store
from harness import build_xmark_db, run_query

SCALE = 0.1
QUERIES = (
    "count(//keyword)",
    "count(//item)",
    "count(//listitem)",
    "count(//bold)",
)
WRITE_RATIOS = (0.0, 0.25, 0.5)


def _mutable_db(tmp_path, name):
    """A private store (the shared cache must stay read-only) under WAL."""
    db = build_xmark_db(SCALE, buffer_pages=256)
    db.attach_wal(str(tmp_path / f"{name}.rpro"))
    return db


def _mixed_batch(db, ratio):
    """Interleave queries with updates at the requested write ratio.

    NodeID-referencing operations (set-value, delete) are placed before
    the inserts: inserts may relocate records off full pages, and the
    batch applies operations strictly in order.
    """
    n_queries = len(QUERIES)
    n_updates = round(ratio * n_queries / (1.0 - ratio)) if ratio else 0
    updates = []
    if n_updates >= 1:
        text = db.execute("//keyword/text()", doc="xmark", plan="simple").nodes[0]
        old = db.node_info(text)[2]
        updates.append(SetValueOp(nid=text, value="x" * len(old)))
    if n_updates >= 2:
        victim = db.execute("//mail", doc="xmark", plan="simple").nodes[0]
        updates.append(DeleteOp(nid=victim))
    root = db.execute("/site", doc="xmark", plan="simple").nodes[0]
    while len(updates) < n_updates:
        updates.append(
            InsertOp(parent=root, position=0, tag_name=f"rw{len(updates)}")
        )
    # queries first and last, updates woven between them
    batch = list(QUERIES)
    for offset, op in enumerate(updates):
        batch.insert(1 + 2 * offset if 1 + 2 * offset < len(batch) else len(batch) - 1, op)
    return batch, n_updates


@pytest.mark.parametrize("ratio", WRITE_RATIOS)
def test_mixed_batch_write_ratios(benchmark, record_result, tmp_path, ratio):
    db = _mutable_db(tmp_path, f"ratio{ratio}")
    session = db.session(warm=True)
    batch, n_updates = _mixed_batch(db, ratio)
    outcome = benchmark.pedantic(
        lambda: session.run_batch(batch, doc="xmark"), rounds=1, iterations=1
    )
    assert outcome.updates == n_updates
    queries = [r for r in outcome.results if r.plan_kinds != []]
    assert len(queries) == len(QUERIES)
    assert all(r.value is not None for r in queries)
    check_document(db.store, db.store.document("xmark"))
    # every applied update was durably acknowledged before the batch returned
    store, report = recover_store(db.wal.store_path)
    assert report.last_lsn == n_updates
    record_result(
        "mixed_rw",
        ratio=ratio,
        requests=float(len(batch)),
        updates=float(n_updates),
        total=outcome.total_time,
        io_per_query=outcome.stats.io_requests / len(QUERIES),
    )


def _collected(db):
    doc = db.store.document("xmark")
    return ClusterSynopsis.collect(db.store.segment.page(p) for p in doc.page_nos)


def test_pruning_survives_wal_managed_updates(benchmark, record_result, tmp_path):
    """Synopsis skips survive a WAL-managed update, and a bare update
    keeps exactly as many.

    Uses the document-order layout (``fragmentation=0.0``): with records
    fully dispersed every cluster holds every tag and nothing is
    prunable, so the dispersed layout cannot witness this claim.
    """
    managed = build_xmark_db(SCALE, buffer_pages=256, fragmentation=0.0)
    managed.attach_wal(str(tmp_path / "managed.rpro"))
    doc = managed.store.document("xmark")
    before = run_query(managed, "count(//mail)", "xscan")
    assert before.stats.synopsis_clusters_pruned > 0

    root = managed.execute("/site", doc="xmark", plan="simple").nodes[0]
    managed.wal.insert("xmark", root, 0, "probe")
    after = benchmark.pedantic(
        lambda: run_query(managed, "count(//mail)", "xscan"),
        rounds=1,
        iterations=1,
    )
    assert after.stats.synopsis_clusters_pruned > 0  # repair kept it alive
    assert doc.synopsis == _collected(managed)

    bare = build_xmark_db(SCALE, buffer_pages=256, fragmentation=0.0)
    bare_doc = bare.store.document("xmark")
    bare_root = bare.execute("/site", doc="xmark", plan="simple").nodes[0]
    insert_node(bare.store, bare_doc, bare_root, 0, "probe")
    assert bare_doc.synopsis == _collected(bare)  # repaired, not dropped
    kept = run_query(bare, "count(//mail)", "xscan")
    assert kept.value == after.value
    assert kept.stats.synopsis_clusters_pruned == after.stats.synopsis_clusters_pruned
    record_result(
        "mixed_rw_pruning",
        managed=float(after.stats.synopsis_clusters_pruned),
        bare=float(kept.stats.synopsis_clusters_pruned),
        managed_io=float(after.stats.io_requests),
        bare_io=float(kept.stats.io_requests),
    )
