"""Property: all physical plans agree with the logical reference evaluator
on random documents and random location paths (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import EvalOptions
from repro.xpath.parser import parse_path
from repro.xpath.reference import evaluate_path

from tests import golden
from tests.golden import AXES

TESTS = ["a", "b", "c", "*", "node()", "text()"]


@st.composite
def location_paths(draw):
    n_steps = draw(st.integers(min_value=1, max_value=4))
    steps = []
    for _ in range(n_steps):
        axis = draw(st.sampled_from(AXES))
        test = draw(st.sampled_from(TESTS))
        steps.append(f"{axis}::{test}")
    return "/" + "/".join(steps)


@st.composite
def databases(draw):
    """A private import of a golden ``exile`` document of a drawn seed and
    fragmentation, and a cold database over it."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    fragmentation = draw(st.floats(min_value=0.0, max_value=1.0))
    doc = ("exile", seed, fragmentation, None, 512, 48)
    held, tree = golden.imported(doc)
    return golden.database(doc, shared=held), tree


@given(databases(), location_paths(), st.booleans())
@settings(max_examples=50, deadline=None)
def test_plans_match_reference(db_tree, query, speculative):
    db, tree = db_tree
    expected = [
        db.document("d").import_result.nodeid_of(n)
        for n in evaluate_path(tree, parse_path(query))
    ]
    options = EvalOptions(speculative=speculative, k_min_queue=4)
    for plan in ("simple", "xschedule", "xscan"):
        result = db.execute(query, doc="d", plan=plan, options=options)
        assert result.nodes == expected, (plan, query)


@given(databases(), location_paths(), st.integers(min_value=1, max_value=8))
@settings(max_examples=30, deadline=None)
def test_fallback_matches_reference(db_tree, query, memory_limit):
    db, tree = db_tree
    expected = sorted(
        db.document("d").import_result.nodeid_of(n)
        for n in evaluate_path(tree, parse_path(query))
    )
    options = EvalOptions(speculative=True, memory_limit=memory_limit, k_min_queue=2)
    for plan in ("xschedule", "xscan"):
        result = db.execute(query, doc="d", plan=plan, options=options)
        assert sorted(result.nodes) == expected, (plan, query)
