"""Property: the chooser never crashes and never goes non-finite.

``estimate_path`` and ``predict_io_costs`` run at planning time over
whatever statistics the store happens to carry — including degenerate
ones (zero tag counts left by updates, empty pair tables, tags the
dictionary has never seen).  For *any* generated
:class:`~repro.storage.store.DocumentStatistics` and *any* step
sequence, the estimate must stay finite and non-negative, the visited
fraction must stay a fraction, and the chooser must return one of its
two families instead of raising.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database, EvalOptions, ImportOptions
from repro.axes import Axis
from repro.algebra.steps import UNKNOWN_TAG, CompiledNodeTest, CompiledStep
from repro.model.builder import tree_from_nested
from repro.model.tags import DOCUMENT_TAG
from repro.sim.disk import DiskGeometry
from repro.storage.store import DocumentStatistics
from repro.xpath.compile import resolve_auto
from repro.xpath.estimate import estimate_path, predict_io_costs

AXES = list(Axis)

#: a small closed tag universe, DOCUMENT_TAG included
TAGS = st.integers(min_value=DOCUMENT_TAG, max_value=6)


@st.composite
def statistics(draw):
    """Arbitrary — including degenerate — document statistics."""
    tag_counts = draw(
        st.dictionaries(TAGS, st.integers(min_value=0, max_value=500), max_size=8)
    )
    pairs = st.tuples(TAGS, TAGS)
    child_pairs = draw(
        st.dictionaries(pairs, st.integers(min_value=0, max_value=300), max_size=12)
    )
    desc_pairs = draw(
        st.dictionaries(pairs, st.integers(min_value=0, max_value=300), max_size=12)
    )
    n_nodes = draw(st.integers(min_value=0, max_value=2000))
    return DocumentStatistics(
        n_nodes=n_nodes,
        n_elements=max(0, n_nodes - 1),
        tag_counts=tag_counts,
        child_pairs=child_pairs,
        desc_pairs=desc_pairs,
    )


@st.composite
def step_sequences(draw):
    steps = []
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        axis = draw(st.sampled_from(AXES))
        kind = draw(st.sampled_from(["name", "node", "wildcard"]))
        tag = None
        if kind == "name":
            # None compiles to UNKNOWN_TAG — the never-matching test
            tag = draw(st.one_of(st.none(), TAGS, st.just(UNKNOWN_TAG)))
        steps.append(CompiledStep(axis, CompiledNodeTest.compile(kind, axis, tag)))
    return steps


@given(statistics(), step_sequences())
@settings(max_examples=200, deadline=None)
def test_estimate_path_finite_and_non_negative(stats, steps):
    estimate = estimate_path(stats, steps)
    assert math.isfinite(estimate.result_cardinality)
    assert math.isfinite(estimate.visited_nodes)
    assert estimate.result_cardinality >= 0.0
    assert estimate.visited_nodes >= 0.0
    assert 0.0 <= estimate.visited_fraction <= 1.0


@given(statistics(), step_sequences(), st.integers(min_value=1, max_value=200))
@settings(max_examples=100, deadline=None)
def test_choose_io_operator_never_raises(stats, steps, queue_depth):
    """The chooser must return a family for any statistics a store could
    carry — it runs against a real document whose statistics have been
    replaced wholesale by the generated (possibly degenerate) ones."""
    db = Database(page_size=512, buffer_pages=16)
    tree = tree_from_nested(("a", [("b",), ("c",)]), db.tags)
    db.add_tree(tree, "d", ImportOptions(page_size=512))
    document = db.document("d")
    document.statistics = stats
    for synopsis in (False, True):
        options = EvalOptions(synopsis=synopsis)
        prediction = predict_io_costs(
            document,
            steps,
            DiskGeometry(page_size=512),
            *options.snapshots(document),
            queue_depth=queue_depth,
        )
        assert prediction is not None
        assert prediction.choice in ("xscan", "xschedule")
        assert math.isfinite(prediction.sequential_cost)
        assert math.isfinite(prediction.random_cost)
        assert prediction.sequential_cost >= 0.0
        assert prediction.random_cost >= 0.0


def test_chooser_without_statistics_defaults_to_schedule():
    db = Database(page_size=512, buffer_pages=16)
    tree = tree_from_nested(("a", [("b",)]), db.tags)
    db.add_tree(tree, "d", ImportOptions(page_size=512))
    document = db.document("d")
    document.statistics = None
    steps = [
        CompiledStep(Axis.CHILD, CompiledNodeTest.compile("node", Axis.CHILD, None))
    ]
    geometry = DiskGeometry(page_size=512)
    options = EvalOptions()
    assert resolve_auto(document, steps, geometry, options)[0] == "xschedule"
    assert predict_io_costs(document, steps, geometry, *options.snapshots(document)) is None
