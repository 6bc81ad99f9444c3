"""Property: physical navigation equals logical navigation, per axis.

For random documents, random layouts and every supported axis,
``full_step`` (intra-cluster candidate batches + border crossing +
resume semantics) must yield exactly the nodes the logical tree model
defines for that axis that pass its node test — in document order for
the downward axes — and ``string_value`` (the same walker over
``descendant::text()``) the logical string value.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database, ImportOptions
from repro.axes import Axis
from repro.algebra.fullnav import full_step, string_value
from repro.algebra.steps import CompiledNodeTest, CompiledStep
from repro.model.tree import Kind
from repro.storage.nodeid import make_nodeid, page_of, slot_of
from repro.xpath.reference import _axis_nodes, string_value as logical_string_value

from tests.conftest import make_random_tree, pinned_pages

AXES = [
    Axis.SELF,
    Axis.CHILD,
    Axis.DESCENDANT,
    Axis.DESCENDANT_OR_SELF,
    Axis.PARENT,
    Axis.ANCESTOR,
    Axis.ANCESTOR_OR_SELF,
    Axis.FOLLOWING_SIBLING,
    Axis.PRECEDING_SIBLING,
]
DOCUMENT_ORDER = (Axis.CHILD, Axis.DESCENDANT, Axis.DESCENDANT_OR_SELF, Axis.SELF, Axis.ATTRIBUTE)
NODE_TESTS = [
    ("node", None),
    ("wildcard", None),
    ("text", None),
    ("name", "a"),
    ("name", "d"),
    ("name", "id"),
    ("name", "nosuchtag"),
]


@st.composite
def stores(draw):
    seed = draw(st.integers(min_value=0, max_value=2000))
    fragmentation = draw(st.floats(min_value=0.0, max_value=1.0))
    page_size = draw(st.sampled_from([256, 512]))
    db = Database(page_size=page_size, buffer_pages=64)
    tree = make_random_tree(db.tags, seed, n_top=25)
    db.add_tree(
        tree, "d", ImportOptions(page_size=page_size, fragmentation=fragmentation, seed=seed)
    )
    return db, tree


@given(
    stores(),
    st.sampled_from(AXES + [Axis.ATTRIBUTE]),
    st.sampled_from(NODE_TESTS),
    st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=80, deadline=None)
def test_full_step_matches_logical_step(store, axis, node_test, node_pick):
    """The one walker, from a core node: the logical axis filtered by the
    node test, no pin left."""
    db, tree = store
    ir = db.document("d").import_result
    candidates = [n for n in range(len(tree)) if tree.kind_of(n) != Kind.ATTRIBUTE]
    node = candidates[node_pick % len(candidates)]
    kind, name = node_test
    test = CompiledNodeTest.compile(kind, axis, db.tags.lookup(name) if name else None)
    step = CompiledStep(axis, test)
    expected = [
        ir.nodeid_of(n)
        for n in _axis_nodes(tree, node, axis)
        if test.matches(int(tree.kind_of(n)), tree.tag[n])
    ]
    nid = ir.nodeid_of(node)
    ctx = db.make_context()
    got = [make_nodeid(p, s) for p, s in full_step(ctx, step, page_of(nid), slot_of(nid))]
    assert pinned_pages(ctx) == []
    if axis in DOCUMENT_ORDER:
        assert got == expected
    else:
        assert sorted(got) == sorted(expected)


@given(stores(), st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_string_value_matches_logical(store, node_pick):
    db, tree = store
    ir = db.document("d").import_result
    node = node_pick % len(tree)
    ctx = db.make_context()
    nid = ir.nodeid_of(node)
    assert string_value(ctx, page_of(nid), slot_of(nid)) == logical_string_value(tree, node)
    ctx.release()
