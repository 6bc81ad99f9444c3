"""Property: the path summary is invisible except in planning and I/O.

For any random document, physical layout, location path (every axis),
physical plan and fault profile, executing with the path summary on
returns bit-identical results to executing with it off.  When the run
refutes nothing, expands nothing and prunes nothing, the whole ``Stats``
dict — and the simulated clock — is identical tick-for-tick.  Refuted
queries complete without requesting a single page, and traced runs
reconcile counter-for-counter whichever way the toggle points.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PROFILES, Database, EvalOptions, ImportOptions, Tracer
from tests.conftest import make_random_tree

AXES = [
    "child",
    "descendant",
    "descendant-or-self",
    "self",
    "parent",
    "ancestor",
    "ancestor-or-self",
    "following-sibling",
    "preceding-sibling",
]
TESTS = ["a", "b", "c", "nosuchtag", "*", "node()", "text()"]

_SUMMARY_COUNTERS = (
    "paths_refuted",
    "pathsummary_clusters_pruned",
    "pathsummary_entries_pruned",
)


@st.composite
def location_paths(draw):
    n_steps = draw(st.integers(min_value=1, max_value=4))
    steps = [
        f"{draw(st.sampled_from(AXES))}::{draw(st.sampled_from(TESTS))}"
        for _ in range(n_steps)
    ]
    return "/" + "/".join(steps)


_STORE_CACHE: dict = {}


def _store(seed: int, fragmentation: float):
    key = (seed, fragmentation)
    if key not in _STORE_CACHE:
        db = Database(page_size=512, buffer_pages=48)
        tree = make_random_tree(db.tags, seed=seed, n_top=25)
        db.add_tree(
            tree,
            "d",
            ImportOptions(page_size=512, fragmentation=fragmentation, seed=seed),
        )
        _STORE_CACHE[key] = db.store
    return _STORE_CACHE[key]


def _outcome(result):
    if result.value is not None:
        return ("value", result.value)
    return ("nodes", tuple(result.nodes))


def _expanded(db, path, plan):
    """True when the rewrite pass changed the compiled step list."""
    on = db.prepare(path, "d", plan, EvalOptions(pathsummary=True))
    off = db.prepare(path, "d", plan, EvalOptions(pathsummary=False))
    shape = lambda q: [
        [(s.axis, s.test.tag) for s in leaf.steps] for leaf in q.path_plans()
    ]
    return shape(on) != shape(off)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=7),
    fragmentation=st.sampled_from([0.0, 0.7, 1.0]),
    plan=st.sampled_from(["simple", "xschedule", "xscan", "xscan-shared"]),
    speculative=st.booleans(),
    path=location_paths(),
)
def test_summary_run_equals_plain_run(seed, fragmentation, plan, speculative, path):
    store = _store(seed, fragmentation)
    results = {}
    for pathsummary in (True, False):
        db = Database(page_size=512, buffer_pages=48, store=store)
        options = EvalOptions(speculative=speculative, pathsummary=pathsummary)
        results[pathsummary] = db.execute(path, doc="d", plan=plan, options=options)
    on, off = results[True], results[False]
    assert _outcome(on) == _outcome(off)
    stats_on, stats_off = on.stats.as_dict(), off.stats.as_dict()
    for counter in _SUMMARY_COUNTERS:
        assert stats_off.pop(counter) == 0
    refuted = stats_on.pop("paths_refuted") > 0
    pruned_clusters = stats_on.pop("pathsummary_clusters_pruned")
    pruned_entries = stats_on.pop("pathsummary_entries_pruned")
    if refuted:
        # a refuted query touches nothing: no requests, no clusters, no time
        assert on.stats.pages_requested == 0
        assert on.stats.clusters_visited == 0
        assert on.total_time == 0.0
        return
    db = Database(page_size=512, buffer_pages=48, store=store)
    if pruned_clusters == 0 and pruned_entries == 0 and not _expanded(db, path, plan):
        # the summary decided nothing: the two runs are bit-identical
        assert stats_on == stats_off
        assert on.total_time == off.total_time
    else:
        # refinement may only ever remove work
        assert stats_on["pages_requested"] <= stats_off["pages_requested"]


@settings(max_examples=25, deadline=None)
@given(
    plan=st.sampled_from(["xschedule", "xscan"]),
    profile_name=st.sampled_from([n for n in PROFILES if n != "none"]),
    fault_seed=st.integers(min_value=0, max_value=25),
    path=location_paths(),
)
def test_summary_is_sound_under_faults(plan, profile_name, fault_seed, path):
    """Retries, latency spikes and lost requests never interact badly
    with refutation, expansion or postings pruning: the answer still
    matches the summary-free fault-free run."""
    store = _store(3, 0.7)
    profile = dataclasses.replace(PROFILES[profile_name], seed=fault_seed)
    baseline = Database(page_size=512, buffer_pages=48, store=store).execute(
        path, doc="d", plan=plan, options=EvalOptions(pathsummary=False)
    )
    faulty = Database(
        page_size=512, buffer_pages=48, store=store, faults=profile
    ).execute(path, doc="d", plan=plan)
    assert _outcome(faulty) == _outcome(baseline)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=5),
    plan=st.sampled_from(["simple", "xschedule", "xscan"]),
    pathsummary=st.booleans(),
    path=location_paths(),
)
def test_traced_runs_reconcile_either_way(seed, plan, pathsummary, path):
    """The summary's counters are the run's ``Stats``, with the path
    summary on or off — including runs that refute, expand or prune."""
    store = _store(seed, 1.0)
    tracer = Tracer()
    db = Database(page_size=512, buffer_pages=48, store=store, tracer=tracer)
    result = db.execute(
        path, doc="d", plan=plan, options=EvalOptions(pathsummary=pathsummary)
    )
    assert result.trace_summary is not None
    assert result.trace_summary.counters == result.stats.as_dict()
