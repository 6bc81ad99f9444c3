"""Unit tests for the document path summary (trie, repair, postings)."""

import pytest

from repro import Database, ImportOptions
from repro.axes import Axis
from repro.algebra.steps import CompiledNodeTest, CompiledPredicate, CompiledStep
from repro.model.builder import tree_from_nested
from repro.model.tree import Kind
from repro.storage.pathsummary import EVALUATION_LIMIT, PathSummary
from repro.storage.store import export_tree, repair_pathsummary
from repro.xpath.reference import evaluate_query
from tests.conftest import make_random_tree, small_database


def step(db, axis, name=None, kind="name"):
    tag = db.tags.lookup(name) if name else None
    test_kind = "name" if name else kind
    return CompiledStep(axis, CompiledNodeTest.compile(test_kind, axis, tag))


def pred_step(db, axis, name, predicates):
    tag = db.tags.lookup(name)
    return CompiledStep(
        axis, CompiledNodeTest.compile("name", axis, tag), predicates
    )


# ----------------------------------------------------------- construction


@pytest.mark.parametrize("seed", (0, 3, 7))
@pytest.mark.parametrize("fragmentation", (0.0, 0.6, 1.0))
def test_tree_collection_equals_physical_collection(seed, fragmentation):
    """The import-time (logical tree) and load-time (physical record)
    collectors must agree page-row-for-page-row on any layout."""
    db = Database(page_size=512, buffer_pages=64)
    tree = make_random_tree(db.tags, seed, n_top=20)
    db.add_tree(
        tree,
        "d",
        ImportOptions(page_size=512, fragmentation=fragmentation, seed=seed),
    )
    doc = db.document("d")
    assert doc.pathsummary is not None
    physical = PathSummary.collect(db.store.segment, doc.page_nos)
    assert doc.pathsummary == physical
    assert doc.pathsummary.n_nodes == physical.n_nodes == tree_core_nodes(doc)


def tree_core_nodes(doc):
    return doc.n_nodes


def test_counts_and_postings_match_structure():
    db = Database(page_size=512, buffer_pages=16)
    spec = ("a", [("b", [("c",), ("c",)]), ("b", [("c",)]), ("d",)])
    db.add_tree(tree_from_nested(spec, db.tags), "d", ImportOptions(page_size=512))
    doc = db.document("d")
    summary = doc.pathsummary
    t = db.tags.lookup
    root_chain = summary.root_key()[0]
    a = root_chain + (t("a"),)
    key_c = (a + (t("b"), t("c")), int(Kind.ELEMENT))
    assert summary.count(key_c) == 3
    assert summary.count((a + (t("d"),), int(Kind.ELEMENT))) == 1
    assert summary.count((a + (t("nope"),), int(Kind.ELEMENT))) == 0
    # every posted page really holds an instance; nothing else does
    rows = summary.page_rows()
    posted = summary.postings(key_c)
    for page_no in doc.page_nos:
        holds = key_c in rows.get(page_no, {})
        assert bool(posted >> page_no & 1) == holds


def test_roundtrip_page_rows_and_equality():
    db, _ = small_database(seed=4)
    summary = db.document("d").pathsummary
    clone = PathSummary.from_page_rows(summary.page_rows())
    assert clone == summary
    assert clone.n_paths == summary.n_paths
    assert clone.n_nodes == summary.n_nodes
    # mutating the clone's rows must not have aliased the original
    rows = summary.page_rows()
    some_page = next(iter(rows))
    rows[some_page] = {}
    assert PathSummary.from_page_rows(rows) != summary


# ----------------------------------------------------------------- repair


def test_repair_after_updates_equals_full_recollect(tmp_path):
    """WAL-maintained repair recollects only touched pages yet lands on
    the exact summary a from-scratch physical collection produces."""
    db, _ = small_database(seed=9)
    db.attach_wal(str(tmp_path / "store.bin"))
    session = db.session()
    doc = db.document("d")
    (root_elem,) = db.execute("/root", doc="d", plan="simple").nodes
    for position in range(3):
        session.insert("d", root_elem, position, "zz", Kind.ELEMENT)
    after_insert = doc.pathsummary
    assert after_insert is not None
    fresh = PathSummary.collect(db.store.segment, doc.page_nos)
    assert after_insert == fresh

    victim = db.execute("/root/*", doc="d", plan="simple").nodes[0]
    session.delete("d", victim)
    assert doc.pathsummary == PathSummary.collect(db.store.segment, doc.page_nos)


def test_patched_adjusts_derived_tables_like_a_rebuild():
    """``patched`` never re-reads untouched pages, so its counts,
    postings and trie must come out as the constructor's over the
    patched rows — for paths that vanish, appear, move between pages and
    vanish-then-reappear within one patch.  ``==`` covers all of them."""
    db, _ = small_database(seed=5)
    summary = db.document("d").pathsummary
    rows = summary.page_rows()
    first, second, third = sorted(rows)[:3]
    new_key = ((0, 9_999), int(Kind.ELEMENT))
    only_on_first = next(k for k in rows[first] if summary.postings(k) == 1 << first)
    fresh = {
        first: {k: c for k, c in rows[first].items() if k != only_on_first},
        second: {**rows[second], only_on_first: 2, new_key: 1},
        third: {},
        max(rows) + 1: {new_key: 4},
    }
    patched = summary.patched(fresh)
    rebuilt = PathSummary({**rows, **fresh})
    assert patched == rebuilt
    assert patched.count(new_key) == 5
    assert patched.postings(only_on_first) == 1 << second
    assert new_key in patched.child_keys((0,))
    assert patched.n_nodes == rebuilt.n_nodes
    # the base summary is a value: patching must not have touched it
    assert summary == PathSummary(rows)
    # and patching back restores it, dropping the paths that died again
    restored = patched.patched({**{p: rows[p] for p in (first, second, third)}, max(rows) + 1: {}})
    assert restored.count(new_key) == 0 and new_key not in restored.child_keys((0,))
    assert restored.page_rows() == {**rows, max(rows) + 1: {}}


def test_repair_from_none_recollects_everything():
    """Repair from an empty summary over every page is a full collect."""
    db, _ = small_database(seed=2)
    doc = db.document("d")
    want = doc.pathsummary
    doc.pathsummary = PathSummary.from_page_rows({})
    repair_pathsummary(db.store, doc, doc.page_nos)
    assert doc.pathsummary == want == PathSummary.collect(db.store.segment, doc.page_nos)


def test_plain_update_keeps_the_summary_exact():
    """Without a WAL, structural updates repair the summary like a
    logged one: it equals a full collect and still refutes and answers."""
    db, _ = small_database(seed=1)
    doc = db.document("d")
    from repro.storage.update import insert_node

    (root_elem,) = db.execute("/root", doc="d", plan="simple").nodes
    insert_node(db.store, doc, root_elem, 0, "zz", Kind.ELEMENT)
    assert doc.pathsummary == PathSummary.collect(db.store.segment, doc.page_nos)
    found = db.execute("count(/root/zz)", doc="d", plan="xscan")
    assert found.value == evaluate_query(export_tree(db.store, doc), "count(/root/zz)") == 1
    refuted = db.execute("/root/zz/nowhere", doc="d", plan="xscan")
    assert refuted.nodes == [] and refuted.stats.paths_refuted == 1


# ------------------------------------------------------------- evaluation


def test_evaluate_refutes_absent_paths():
    db = make_eval_db()
    summary = db.document("d").pathsummary
    steps = [
        step(db, Axis.CHILD, "a"),
        step(db, Axis.CHILD, "nosuch"),
        step(db, Axis.CHILD, "c"),
    ]
    evaluation = summary.evaluate(steps)
    assert evaluation.refuted
    assert evaluation.cardinality == 0.0
    # refutation is per-position: the same tag in a valid position passes
    ok = summary.evaluate([step(db, Axis.CHILD, "a"), step(db, Axis.CHILD, "b")])
    assert not ok.refuted


def make_eval_db():
    db = Database(page_size=512, buffer_pages=16)
    spec = (
        "a",
        [
            ("b", [("c",), ("c", [("d",)])]),
            ("b", [("c",)]),
            ("e", [("d",)]),
        ],
    )
    db.add_tree(tree_from_nested(spec, db.tags), "d", ImportOptions(page_size=512))
    return db


def test_evaluate_exact_cardinality_matches_execution():
    db = make_eval_db()
    summary = db.document("d").pathsummary
    cases = [
        ("/a/b/c", [step(db, Axis.CHILD, "a"), step(db, Axis.CHILD, "b"), step(db, Axis.CHILD, "c")]),
        ("//d", [step(db, Axis.DESCENDANT, "d")]),
        ("//c/d", [step(db, Axis.DESCENDANT, "c"), step(db, Axis.CHILD, "d")]),
    ]
    for query, steps in cases:
        evaluation = summary.evaluate(steps)
        assert evaluation.exact, query
        result = db.execute(query, doc="d", plan="simple")
        assert evaluation.cardinality == float(len(result.nodes)), query


def test_evaluate_upward_axes_are_supersets_never_exact():
    db = make_eval_db()
    summary = db.document("d").pathsummary
    steps = [
        step(db, Axis.DESCENDANT, "d"),
        step(db, Axis.PARENT, None, kind="node"),
    ]
    evaluation = summary.evaluate(steps)
    assert not evaluation.refuted
    assert not evaluation.exact
    assert evaluation.cardinality is None
    # the parent step's set covers both true parent paths (c and e)
    tails = {chain[-1] for chain, _ in evaluation.step_sets[1]}
    assert {db.tags.lookup("c"), db.tags.lookup("e")} <= tails


def test_predicate_refutation_is_sound_and_clears_exact():
    db = make_eval_db()
    summary = db.document("d").pathsummary
    satisfiable = [step(db, Axis.CHILD, "c")]
    impossible = [step(db, Axis.CHILD, "nosuch")]

    class Pred:
        def __init__(self, steps):
            self.steps = steps

    base = [step(db, Axis.CHILD, "a")]
    ok = summary.evaluate(base + [pred_step(db, Axis.CHILD, "b", [Pred(satisfiable)])])
    assert not ok.refuted and not ok.exact
    refuted = summary.evaluate(
        base + [pred_step(db, Axis.CHILD, "b", [Pred(impossible)])]
    )
    assert refuted.refuted


def test_evaluations_are_memoised_on_the_summary(monkeypatch, tmp_path):
    """Rewrite, estimator and postings cap share one trie walk per
    (summary, path): a recompile walks nothing, a re-execution off the
    memo answers with the cold run's value and counters, and equal steps
    of two compilations share one entry; a WAL insert builds a new summary whose
    memo starts empty; a predicate path, which the memo key cannot tell
    from its predicate-free twin, is evaluated afresh."""
    db, _ = small_database(seed=77, n_top=30, fragmentation=1.0)
    db.attach_wal(str(tmp_path / "wal.log"))
    doc = db.document("d")
    walks = []
    step_result = PathSummary._step_result

    def counted(self, contexts, compiled_step):
        walks.append(compiled_step)
        return step_result(self, contexts, compiled_step)

    monkeypatch.setattr(PathSummary, "_step_result", counted)
    query = "count(//a/b)"
    first = db.execute(query, doc="d", plan="auto")
    summary = doc.pathsummary
    entries = dict(summary._memo)
    assert walks and entries
    walks.clear()
    db.prepare(query, doc="d", plan="auto")
    assert walks == []
    assert summary._memo.keys() == entries.keys()
    assert all(summary._memo[key] is entry for key, entry in entries.items())
    again = db.execute(query, doc="d", plan="auto")
    assert walks == []
    assert (again.value, again.stats.as_dict()) == (first.value, first.stats.as_dict())

    parent = db.execute("//a", doc="d", plan="simple").nodes[0]
    db.wal.insert("d", parent, 0, "b")
    assert doc.pathsummary is not summary and not doc.pathsummary._memo
    after = db.execute(query, doc="d", plan="auto").value
    assert after == evaluate_query(export_tree(db.store, doc), query) == first.value + 1

    summary = doc.pathsummary
    plain = [step(db, Axis.DESCENDANT, "a"), step(db, Axis.CHILD, "b")]
    impossible = CompiledPredicate([step(db, Axis.CHILD, "nosuchtag")])
    guarded = plain[:1] + [pred_step(db, Axis.CHILD, "b", [impossible])]
    entries = dict(summary._memo)
    assert summary.evaluate(guarded) == summary._evaluate(guarded)
    assert summary.evaluate(guarded).refuted and not summary.evaluate(plain).refuted
    assert summary._memo.keys() - entries.keys() <= {tuple(s.memo_key for s in plain)}


def test_evaluation_memo_is_bounded():
    """Streaming more distinct paths than :data:`EVALUATION_LIMIT`
    through one summary keeps the memo within the limit, and every
    answer equals a fresh walk of the trie."""
    db, _ = small_database(seed=3)
    summary = PathSummary.from_page_rows(db.document("d").pathsummary.page_rows())
    singles = [
        step(db, axis, name, kind)
        for axis in Axis
        for name, kind in (("a", "name"), ("b", "name"), (None, "wildcard"), (None, "node"))
    ]
    paths = [[first, second] for first in singles for second in singles]
    assert len({tuple(s.memo_key for s in steps) for steps in paths}) > EVALUATION_LIMIT
    for steps in paths:
        assert summary.evaluate(steps) == summary._evaluate(steps)
        assert 0 < len(summary._memo) <= EVALUATION_LIMIT


# --------------------------------------------------------------- postings


def test_postings_cover_all_result_pages():
    """Every cluster that physically holds a step match is posted for
    that step — the pre-scan filter can never skip a contributing page."""
    from repro.storage.pathsummary import PathPostings
    from repro.storage.nodeid import page_of

    db, _ = small_database(seed=6, fragmentation=1.0)
    doc = db.document("d")
    summary = doc.pathsummary
    steps = [step(db, Axis.DESCENDANT, "b"), step(db, Axis.CHILD, "a")]
    postings = PathPostings.for_steps(summary, steps)
    result = db.execute("//b/a", doc="d", plan="simple")
    final = len(steps) - 1
    for nid in result.nodes:
        assert postings.holds_candidate(final, page_of(nid))
    assert postings.relevant_pages() <= doc.n_pages
