"""The paper's worked examples as executable tests.

* Example 5 / Table 1 — classification of partial path instances.
* Example 6 / Fig. 6 — XSchedule visits clusters d, a, c and never b.
* Example 7 / Fig. 8 — XScan scans a, b, c, d; the two results are
  produced only after the scan reaches cluster d, via speculative
  left-incomplete instances merged in XAssembly.
"""

import pytest

from repro.storage.nodeid import page_of
from repro.xpath.compile import PlanKind

from tests.paper_tree import PAGE_B, build_paper_tree

QUERY = "/A//B"


@pytest.fixture()
def paper():
    return build_paper_tree()


def run(paper, plan, **options):
    from repro.algebra.context import EvalOptions

    return paper.db.execute(
        QUERY, doc="paper", plan=plan, options=EvalOptions(**options)
    )


def test_query_results_are_a3_and_c4(paper):
    for plan in ("simple", "xschedule", "xscan"):
        result = run(paper, plan)
        assert sorted(result.nodes) == sorted([paper.nodes["a3"], paper.nodes["c4"]])
        # document order: a3 (under first child) precedes c4
        assert result.nodes == [paper.nodes["a3"], paper.nodes["c4"]]


def test_example6_xschedule_never_visits_cluster_b(paper):
    """Fig. 6: cluster b is never accessed because d4 fails the node test."""
    result = run(paper, "xschedule")
    assert result.stats.pages_read == 3
    assert not paper.db.make_context().buffer.is_resident(PAGE_B)  # fresh ctx sanity
    # b's page was not read: 3 pages for clusters d, a, c
    assert result.stats.clusters_visited == 3


def test_example6_visit_starts_with_context_cluster(paper):
    """Cluster d (the context) is processed first; a and c follow."""
    result = run(paper, "xschedule")
    # the context page is read synchronously or via the queue first;
    # everything else is asynchronous
    assert result.stats.async_requests >= 2


def test_example7_xscan_visits_all_clusters_once(paper):
    result = run(paper, "xscan")
    assert result.stats.clusters_visited == 4
    assert result.stats.pages_read == 4
    assert result.stats.sequential_reads == 4  # a,b,c,d in physical order
    assert result.stats.seeks == 0


def test_example7_speculation_creates_left_incomplete_instances(paper):
    result = run(paper, "xscan")
    # clusters a and c each speculate at their up-border for both steps;
    # cluster b too (its instances die at the node test)
    assert result.stats.speculative_instances >= 4
    assert result.stats.merges >= 2  # a3 and c4 resolved via merging


def test_xschedule_without_speculation_has_no_speculative_instances(paper):
    result = run(paper, "xschedule", speculative=False)
    assert result.stats.speculative_instances == 0


def test_xschedule_with_speculation_single_visit_guarantee(paper):
    result = run(paper, "xschedule", speculative=True)
    assert result.stats.clusters_visited == 3
    assert result.stats.pages_read == 3


# ----------------------------------------------------- Table 1 (Example 5)


def classify(instance: tuple, path_len: int) -> str:
    """Render the paper's F/L/R/C flags for a pipeline instance, Q's
    tuple ``(s_r, seq, s_l, n_l, left_open, target, resumed)``: a
    right-incomplete one is paused at a crossing, ``target`` its
    junction."""
    s_r, _, s_l, _, left_open, _, resumed = instance
    left_complete = not left_open
    right_complete = not resumed
    complete = left_complete and right_complete
    full = complete and s_l == 0 and s_r == path_len
    return "".join(
        flag if condition else "-"
        for flag, condition in (
            ("F", full),
            ("L", left_complete),
            ("R", right_complete),
            ("C", complete),
        )
    )


def test_table1_classification_flags(paper):
    n = paper.nodes
    path_len = 2
    # row 1: context instance (d1, eps, eps)
    row1 = (0, 0, 0, n["d1"], False, n["d1"], False)
    assert classify(row1, path_len) == "-LRC"
    # row 4: full instance d1 -> c2 -> c4
    row4 = (2, 0, 0, n["d1"], False, n["c4"], False)
    assert classify(row4, path_len) == "FLRC"
    # row 6: right-incomplete at border d2 while processing step 1, its
    # junction a1
    row6 = (0, 0, 0, n["d1"], False, n["a1"], True)
    assert classify(row6, path_len) == "-L--"
    # row 9: left-incomplete starting at border a1, ending at core a3
    row9 = (2, 0, 0, n["a1"], True, n["a3"], False)
    assert classify(row9, path_len) == "--R-"


def test_auto_plan_on_paper_doc_without_statistics(paper):
    """AUTO degrades to XSchedule when no statistics were collected."""
    result = run(paper, "auto")
    assert result.plan_kinds == [PlanKind.XSCHEDULE]
    assert sorted(result.nodes) == sorted([paper.nodes["a3"], paper.nodes["c4"]])
