"""Property: a batch answers every member as a lone execute does.

``Database.execute``, the shared scan and the interleaved batch reach
one expression evaluator, so whatever mix of expressions and plans a
batch holds — routed onto a scan group, interleaved, or both — each
request gets exactly the single-query answer, which is the reference
evaluator's.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.xpath.reference import evaluate_query

from tests.conftest import small_database

PLANS = ["auto", "simple", "xschedule", "xscan", "xscan-shared"]
PATHS = [
    "//a",
    "//a/b",
    "/root/c",
    "//b//c",
    "//c/ancestor::a",
    "//b/following-sibling::a",
    "//d/parent::*/e",
    "/a/b",  # refuted: the document element is <root>
    "//a/nosuchtag",  # refuted: no such tag in the summary
]

_DB = small_database(seed=11, n_top=30)

paths = st.sampled_from(PATHS)
unions = st.builds(" | ".join, st.lists(paths, min_size=2, max_size=3))
counts = st.builds("count({})".format, st.one_of(paths, unions))
numbers = st.one_of(counts, st.sampled_from(["0", "3"]))
binaries = st.builds(
    "{} {} {}".format, numbers, st.sampled_from(["+", "-", "=", "!="]), numbers
)
expressions = st.one_of(paths, unions, counts, binaries)
requests = st.lists(
    st.tuples(expressions, st.just("d"), st.sampled_from(PLANS)), min_size=1, max_size=4
)


def _answer(result):
    return result.value if result.nodes is None else result.nodes


@settings(max_examples=40, deadline=None)
@given(batch=requests)
def test_batch_members_equal_single_executes_and_the_reference(batch):
    db, tree = _DB
    nodeid_of = db.document("d").import_result.nodeid_of
    outcome = db.run_batch(batch)
    assert outcome.scan_shared + outcome.interleaved == len(batch)
    for (query, doc, plan), result in zip(batch, outcome.results):
        expected = evaluate_query(tree, query)
        if isinstance(expected, list):
            expected = [nodeid_of(n) for n in expected]
        assert _answer(result) == expected, (query, plan)
        assert _answer(db.execute(query, doc=doc, plan=plan)) == expected, (query, plan)
