"""Plan equivalence: every physical plan agrees with the logical reference.

This is the central correctness theorem of the reproduction: Simple,
XSchedule (with and without speculation), XScan, the ``//`` prefixes the
rewrite cannot fold and the fallback paths must produce identical result
sets, and the ordered plans must produce identical document-ordered
sequences.  Each point is a pinned draw of the golden file's
``equivalence`` family (``tests/golden.py``): checking one runs it cold,
compares its books with the row and its answer with the reference
evaluator's.
"""

import pytest

from repro.axes import Axis
from tests import golden
from tests.golden import EQUIVALENCE_PATHS as PATHS
from tests.golden import equivalence_doc

PLANS = ("simple", "xschedule", "xscan")


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("query", PATHS)
def test_all_plans_match_reference(seed, query):
    for plan in PLANS:
        golden.check(f"equivalence/{seed}/{plan}/{query}")


@pytest.mark.parametrize("query", PATHS[:8])
def test_speculative_xschedule_matches(query):
    golden.check(f"equivalence/speculative/{query}")


@pytest.mark.parametrize("query", PATHS[:8])
@pytest.mark.parametrize("plan", ["xschedule", "xscan"])
def test_fallback_mode_matches(query, plan):
    """Every point enters fallback mode; the path the summary refutes
    before a page is read is checked with the summary off."""
    family = "fallback-unrefuted" if query == golden.REFUTED_PATH else "fallback"
    outcome = golden.check(f"equivalence/{family}/{plan}/{query}")
    assert outcome.result.stats.fallbacks >= 1


@pytest.mark.parametrize("query", golden.UNFOLDABLE)
def test_unfoldable_descendant_prefixes_match_reference(query):
    for plan in golden.GATE_PLANS:
        golden.check(f"equivalence/unfoldable/{plan}/{query}")
    db = golden.database(equivalence_doc(6))
    (scanned,) = db.prepare(query, "d", "xscan").path_plans()
    assert Axis.DESCENDANT_OR_SELF in [step.axis for step in scanned.steps]  # not folded
    assert scanned.descendant_root_opt is not query.startswith("/*")


def test_tiny_queue_still_correct():
    for query in PATHS[:6]:
        golden.check(f"equivalence/k1/{query}")


def batch_matches_reference(seed, requests, queries):
    doc = equivalence_doc(seed)
    outcome = golden.database(doc).run_batch(requests, doc="d")
    for query, result in zip(queries, outcome.results, strict=True):
        assert result.nodes == golden.reference(doc, query), f"batch diverged on {query!r}"
    return outcome


@pytest.mark.parametrize("seed", [0, 1])
def test_run_batch_matches_sequential_execute(seed):
    """Batched execution (shared scan + interleaving) agrees with the
    reference on every path, query by query."""
    batch_matches_reference(seed, PATHS, PATHS)


def test_run_batch_interleaved_matches_sequential_execute():
    requests = [(query, "d", "xschedule") for query in PATHS[:8]]
    assert batch_matches_reference(2, requests, PATHS[:8]).interleaved == len(requests)


def test_fragmented_layout_matches_clean_layout():
    for fragmentation in (0.0, 1.0):
        for query in PATHS[:8]:
            golden.check(f"equivalence/layout/{fragmentation}/{query}")


@pytest.mark.parametrize("query", golden.EXILE_QUERIES)
@pytest.mark.parametrize("speculative", [False, True])
def test_sibling_step_after_descendant_prefix_matches(query, speculative):
    """Over ``golden.EXILE_DOC``, whose layout exiles first children."""
    for plan in PLANS:
        golden.check(f"equivalence/exile/{speculative}/{plan}/{query}")
