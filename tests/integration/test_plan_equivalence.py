"""Plan equivalence: every physical plan agrees with the logical reference.

This is the central correctness theorem of the reproduction: Simple,
XSchedule (with and without speculation), XScan, the ``//`` prefixes the
rewrite cannot fold and the fallback paths must produce identical result
sets, and the ordered plans must produce identical document-ordered
sequences.
"""

import pytest

from repro import Database, EvalOptions, ImportOptions
from repro.axes import Axis
from repro.xpath.parser import parse_path
from repro.xpath.reference import evaluate_path

from tests.conftest import make_random_tree, small_database

PATHS = [
    "/root/a",
    "//b",
    "/root//c/d",
    "//a//b",
    "/root/a/b/c",
    "//e/text()",
    "//c/ancestor::a",
    "//d/parent::*",
    "//b/following-sibling::c",
    "//c/preceding-sibling::*",
    "//a/@id",
    "//b/descendant-or-self::d",
    "/root/*/*",
    "//a/..",
    "//*/self::d",
    "//b/ancestor-or-self::*",
]


def expected_for(db, tree, query):
    ir = db.document("d").import_result
    return [ir.nodeid_of(n) for n in evaluate_path(tree, parse_path(query))]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("query", PATHS)
def test_all_plans_match_reference(seed, query):
    db, tree = small_database(seed=seed)
    expected = expected_for(db, tree, query)
    for plan in ("simple", "xschedule", "xscan"):
        result = db.execute(query, doc="d", plan=plan)
        assert result.nodes == expected, f"{plan} diverged on {query!r}"


@pytest.mark.parametrize("query", PATHS[:8])
def test_speculative_xschedule_matches(query):
    db, tree = small_database(seed=4)
    expected = expected_for(db, tree, query)
    result = db.execute(
        query, doc="d", plan="xschedule", options=EvalOptions(speculative=True, k_min_queue=4)
    )
    assert result.nodes == expected


@pytest.mark.parametrize("query", PATHS[:8])
@pytest.mark.parametrize("plan", ["xschedule", "xscan"])
def test_fallback_mode_matches(query, plan):
    db, tree = small_database(seed=5)
    expected = expected_for(db, tree, query)
    result = db.execute(
        query,
        doc="d",
        plan=plan,
        options=EvalOptions(speculative=True, memory_limit=2, k_min_queue=3),
    )
    assert sorted(result.nodes) == sorted(expected)


#: ``//`` prefixes the logical rewrite cannot fold into the next step (an
#: upward or attribute step follows): under a scan, the ones at the root
#: leave their step-1 junctions to the R-check shortcut (Sec. 5.4.5.4)
UNFOLDABLE = [
    "/descendant-or-self::node()/parent::b/a/c",
    "/descendant-or-self::node()/ancestor::a/b",
    "/descendant-or-self::node()/parent::*",
    "//@id",
    "/*//../a",
]


@pytest.mark.parametrize("query", UNFOLDABLE)
def test_unfoldable_descendant_prefixes_match_reference(query):
    db, tree = small_database(seed=6)
    expected = expected_for(db, tree, query)
    for plan in ("simple", "xschedule", "xscan", "xscan-shared", "auto"):
        result = db.execute(query, doc="d", plan=plan)
        assert result.nodes == expected, f"{plan} diverged on {query!r}"
    (scanned,) = db.prepare(query, "d", "xscan").path_plans()
    assert Axis.DESCENDANT_OR_SELF in [step.axis for step in scanned.steps]  # not folded
    assert scanned.descendant_root_opt is not query.startswith("/*")


def test_tiny_queue_still_correct():
    db, tree = small_database(seed=7)
    for query in PATHS[:6]:
        expected = expected_for(db, tree, query)
        result = db.execute(
            query, doc="d", plan="xschedule", options=EvalOptions(k_min_queue=1)
        )
        assert result.nodes == expected


@pytest.mark.parametrize("seed", [0, 1])
def test_run_batch_matches_sequential_execute(seed):
    """Batched execution (shared scan + interleaving) agrees with the
    reference on every path, query by query."""
    db, tree = small_database(seed=seed)
    outcome = db.run_batch(PATHS, doc="d")
    assert len(outcome.results) == len(PATHS)
    for query, result in zip(PATHS, outcome.results):
        assert result.nodes == expected_for(db, tree, query), f"batch diverged on {query!r}"


def test_run_batch_interleaved_matches_sequential_execute():
    db, tree = small_database(seed=2)
    outcome = db.run_batch([(q, "d", "xschedule") for q in PATHS[:8]])
    assert outcome.interleaved == len(PATHS[:8])
    for query, result in zip(PATHS[:8], outcome.results):
        assert result.nodes == expected_for(db, tree, query), f"interleave diverged on {query!r}"


def test_fragmented_layout_matches_clean_layout():
    db_clean = Database(page_size=512, buffer_pages=64)
    tree = make_random_tree(db_clean.tags, seed=8)
    db_clean.add_tree(tree, "d", ImportOptions(page_size=512, fragmentation=0.0))

    db_frag = Database(page_size=512, buffer_pages=64)
    tree_frag = make_random_tree(db_frag.tags, seed=8)
    db_frag.add_tree(tree_frag, "d", ImportOptions(page_size=512, fragmentation=1.0, seed=1))

    for query in PATHS[:8]:
        clean = db_clean.execute(query, doc="d", plan="xscan")
        frag = db_frag.execute(query, doc="d", plan="xscan")
        assert len(clean.nodes) == len(frag.nodes), query


def _first_child_exile_database():
    """Document whose layout exiles several *first* children into their
    own clusters.

    That shape is the regression trigger for the ``//``-prefix
    optimisation: XScan speculates a sibling entry at every up-border,
    and an implicitly-proven step-1 junction would emit the exiled first
    child as a following-sibling result even though it has no preceding
    sibling at all.
    """
    import random

    from repro.model.builder import TreeBuilder

    rng = random.Random(0)
    db = Database(page_size=512, buffer_pages=48)
    builder = TreeBuilder(db.tags)
    builder.start_element("root")

    def gen(depth):
        builder.start_element(rng.choice("abc"))
        for _ in range(rng.randrange(4) if depth < 5 else 0):
            if rng.random() < 0.25:
                builder.text("t" * rng.randrange(1, 10))
            else:
                gen(depth + 1)
        builder.end_element()

    for _ in range(rng.randrange(10, 40)):
        gen(0)
    builder.end_element()
    tree = builder.finish()
    db.add_tree(tree, "d", ImportOptions(page_size=512, fragmentation=0.0, seed=0))
    return db, tree


@pytest.mark.parametrize(
    "query",
    [
        "/descendant-or-self::node()/following-sibling::a",
        "/descendant-or-self::node()/preceding-sibling::b",
    ],
)
@pytest.mark.parametrize("speculative", [False, True])
def test_sibling_step_after_descendant_prefix_matches(query, speculative):
    db, tree = _first_child_exile_database()
    expected = expected_for(db, tree, query)
    options = EvalOptions(speculative=speculative, k_min_queue=4)
    for plan in ("simple", "xschedule", "xscan"):
        result = db.execute(query, doc="d", plan=plan, options=options)
        assert result.nodes == expected, f"{plan} diverged on {query!r}"
