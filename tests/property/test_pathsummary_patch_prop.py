"""Property: a path summary patched through updates answers every path
as a summary rebuilt from its rows does, and keeps every key's id.

Insert, delete and set-value sequences over small documents add new
tags, delete the last node of a path key and add that key back.  After
each update the maintained summary and ``PathSummary.from_page_rows`` of
its rows (ids interned afresh, in row order) must give the same
evaluation of paths over all ten axes, field by field, with the step
sets decoded to path keys; and no key the summary has ever held may
change its id.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database, ImportOptions
from repro.algebra.steps import CompiledNodeTest, CompiledStep
from repro.axes import Axis
from repro.errors import StorageError
from repro.storage.pathsummary import PathSummary
from tests.conftest import make_random_tree

#: ``q`` and ``r`` never occur in the generated documents
TAGS = ("a", "b", "q", "r")
TESTS = [("name", name) for name in TAGS + ("id",)] + [
    (kind, None) for kind in ("wildcard", "node", "text")
]

operations = st.lists(
    st.tuples(
        st.sampled_from(["insert", "cycle", "delete", "set-value"]),
        st.integers(min_value=0, max_value=10**6),
        st.sampled_from(TAGS),
    ),
    min_size=1,
    max_size=6,
)
paths = st.lists(
    st.lists(st.tuples(st.sampled_from(list(Axis)), st.sampled_from(TESTS)), min_size=1, max_size=3),
    min_size=1,
    max_size=4,
)


def compiled(db, path):
    return [
        CompiledStep(axis, CompiledNodeTest.compile(kind, axis, name and db.tags.lookup(name)))
        for axis, (kind, name) in path
    ]


def decoded(summary, steps):
    evaluation = summary.evaluate(steps)
    sets = [frozenset(summary.keys_of(ids)) for ids in evaluation.step_sets]
    return (evaluation.refuted, evaluation.exact, evaluation.cardinality, evaluation.visited.hex(), sets)


def updates(db, session, op, pick, tag):
    """Apply one drawn operation, yielding after each update it makes.
    A ``cycle`` inserts a node, deletes it (with a new tag, the last node
    of its key) and inserts it again (the key comes back)."""
    elements = db.execute("//*", doc="d", plan="simple").nodes
    if op == "delete" and len(elements) > 1:
        session.delete("d", elements[1 + pick % (len(elements) - 1)])
        yield
    elif op == "set-value":
        texts = db.execute("//text()", doc="d", plan="simple").nodes
        if texts:
            text = texts[pick % len(texts)]
            length = len(db.node_info(text)[2]) + pick % 3 - 1  # same length a third of the time
            try:
                session.set_value("d", text, "u" * max(1, length))
            except StorageError:  # in-place growth on a full page may not fit
                pass
            yield
    elif op in ("insert", "cycle"):
        at = pick % len(elements)
        nid = session.insert("d", elements[at], 0, tag)
        yield
        if op == "cycle":
            session.delete("d", nid)
            yield
            # the insert may have relocated the parent (a new NodeID);
            # with its child gone it is again the ``at``-th element
            parent = db.execute("//*", doc="d", plan="simple").nodes[at]
            session.insert("d", parent, 0, tag)
            yield


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(min_value=0, max_value=50), ops=operations, drawn=paths)
def test_patched_summary_equals_a_rebuild_and_keeps_ids(seed, ops, drawn):
    db = Database(page_size=256, buffer_pages=32)
    for name in TAGS + ("id",):
        db.tags.intern(name)
    tree = make_random_tree(db.tags, seed, n_top=6, max_depth=3, tag_pool="abc")
    db.add_tree(tree, "d", ImportOptions(page_size=256, fragmentation=0.5, seed=seed))
    doc = db.document("d")
    session = db.session()
    steps = [compiled(db, path) for path in drawn]
    for op, pick, tag in ops:
        before = doc.pathsummary
        for _ in updates(db, session, op, pick, tag):
            after = doc.pathsummary
            assert all(after._ids[key] == i for key, i in before._ids.items())
            rebuilt = PathSummary.from_page_rows(after.page_rows())
            assert after == rebuilt
            for path in steps:
                assert decoded(after, path) == decoded(rebuilt, path)
            before = after
