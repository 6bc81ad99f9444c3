"""Property: arbitrary update storms — logged or bare — keep the store
sound, the planning snapshots exact, and all physical plans in
agreement with each other and with the reference evaluator."""

import os
import random
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database
from repro.errors import StorageError
from repro.storage.pathsummary import PathSummary
from repro.storage.store import check_document, export_tree, recollect_statistics
from repro.storage.synopsis import ClusterSynopsis
from repro.xpath.reference import evaluate_query

#: answered after every operation with pruning on (the default options)
PRUNED_QUERIES = ("count(//w)", "count(//*/x)")


@st.composite
def storms(draw):
    seed = draw(st.integers(min_value=0, max_value=5000))
    n_steps = draw(st.integers(min_value=5, max_value=50))
    page_size = draw(st.sampled_from([256, 512, 1024]))
    logged = draw(st.booleans())
    return seed, n_steps, page_size, logged


def assert_exact_and_answering(db, doc):
    segment = db.store.segment
    assert doc.synopsis == ClusterSynopsis.collect(segment.page(p) for p in doc.page_nos)
    assert doc.pathsummary == PathSummary.collect(segment, doc.page_nos)
    tree = export_tree(db.store, doc)
    for query in PRUNED_QUERIES:
        want = evaluate_query(tree, query)
        for plan in ("xscan", "xschedule"):
            assert db.execute(query, doc="d", plan=plan).value == want, (query, plan)


@given(storms())
@settings(max_examples=25, deadline=None)
def test_update_storm_soundness(storm):
    seed, n_steps, page_size, logged = storm
    with tempfile.TemporaryDirectory() as scratch:
        run_storm(seed, n_steps, page_size, logged, os.path.join(scratch, "store.rpro"))


def run_storm(seed, n_steps, page_size, logged, store_path):
    rng = random.Random(seed)
    db = Database(page_size=page_size, buffer_pages=64)
    db.load_xml("<root><a>seed text</a><b/><c><d/></c></root>", "d")
    doc = db.document("d")
    if logged:
        db.attach_wal(store_path)
    session = db.session()  # updates go through the log when one is attached

    for _ in range(n_steps):
        action = rng.random()
        elements = db.execute("//*", doc="d", plan="simple").nodes
        if action < 0.55 or len(elements) < 3:
            parent = rng.choice(elements + [doc.root])
            if db.node_info(parent)[0] == "TEXT":
                continue
            position = rng.randrange(0, 3)
            session.insert(
                "d",
                parent,
                min(position, 0),
                rng.choice("wxyz"),
                value=None if rng.random() < 0.6 else "v" * rng.randrange(1, 30),
            )
        elif action < 0.7:
            texts = db.execute("//text()", doc="d", plan="simple").nodes
            if texts:
                try:
                    session.set_value("d", rng.choice(texts), "u" * rng.randrange(1, 8))
                except StorageError:
                    # in-place growth on a full page is documented to
                    # raise; the storm cares about soundness, not fit
                    pass
        else:
            session.delete("d", rng.choice(elements))
        assert_exact_and_answering(db, doc)

    check_document(db.store, doc)
    exported = export_tree(db.store, doc)
    exported.validate()
    statistics = recollect_statistics(db.store, doc)
    assert statistics.n_nodes == doc.n_nodes

    for query in ("count(//*)", "count(//w)", "//x", "count(//text())"):
        results = [
            db.execute(query, doc="d", plan=plan)
            for plan in ("simple", "xschedule", "xscan")
        ]
        outcomes = {
            r.value if r.value is not None else tuple(r.nodes) for r in results
        }
        assert len(outcomes) == 1, query

    # exports agree with each other after the storm
    scan_text, _ = db.export_xml(doc="d", method="scan")
    navigate_text, _ = db.export_xml(doc="d", method="navigate")
    assert scan_text == navigate_text
    if logged:
        db.wal.close()
