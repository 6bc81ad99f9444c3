"""Property: synopsis pruning is invisible except in the I/O counters.

For any random document, physical layout, location path (every axis),
physical plan and fault profile, executing with the cluster synopsis on
returns bit-identical results to executing with it off.  When the run
prunes nothing, the whole ``Stats`` dict is identical tick-for-tick;
when it does prune, only fewer pages are read — and for XScan every
skipped page is accounted for by the pruned-clusters counter.
"""

import dataclasses
import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import PROFILES, Database, EvalOptions, ImportOptions
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

# The path-summary postings filter composes with the synopsis (it only
# runs when the synopsis is on), so an on/off comparison must account
# for its skips alongside the synopsis-attributed ones.
_PRUNE_COUNTERS = (
    "synopsis_clusters_pruned",
    "synopsis_entries_pruned",
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


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=7),
    fragmentation=st.sampled_from([0.0, 0.7, 1.0]),
    plan=st.sampled_from(["simple", "xschedule", "xscan"]),
    speculative=st.booleans(),
    path=location_paths(),
)
# pruning one cluster shifts buffer evictions for the rest of the run, so
# physical pages_read may legitimately differ by more than the pruned
# count; this example pins the scan-accounting invariant at the visited-
# clusters level where it is buffer-independent
@example(
    seed=2, fragmentation=1.0, plan="xscan", speculative=False, path="/descendant::b"
)
# XSchedule with queue requests dropped visits its clusters in another
# order, and behind a buffer smaller than the document another order
# evicts other frames: 275 pages read pruned against 272 unpruned here
# (231 against 230 cluster visits), 162 against 162 once nothing is evicted
@example(
    seed=0,
    fragmentation=0.7,
    plan="xschedule",
    speculative=False,
    path="/descendant::*/child::a",
)
def test_pruned_run_equals_unpruned_run(seed, fragmentation, plan, speculative, path):
    store = _store(seed, fragmentation)

    def run(synopsis, buffer_pages=48):
        db = Database(page_size=512, buffer_pages=buffer_pages, store=store)
        options = EvalOptions(speculative=speculative, synopsis=synopsis)
        return db.execute(path, doc="d", plan=plan, options=options)

    on, off = run(True), run(False)
    assert _outcome(on) == _outcome(off)
    stats_on, stats_off = on.stats.as_dict(), off.stats.as_dict()
    for counter in _PRUNE_COUNTERS:
        assert stats_off.pop(counter) == 0
    pruned = {counter: stats_on.pop(counter) for counter in _PRUNE_COUNTERS}
    pruned_clusters = (
        pruned["synopsis_clusters_pruned"] + pruned["pathsummary_clusters_pruned"]
    )
    if not any(pruned.values()):
        # nothing pruned: the two executions must be bit-identical
        assert stats_on == stats_off
        assert on.total_time == off.total_time
    else:
        # pruning may only ever remove I/O — a theorem where every page
        # is read at most once; past that, which frames a run evicts and
        # re-reads depends on its visiting order, which pruning changes
        reads = {True: on, False: off}
        if on.stats.evictions or off.stats.evictions:
            reads = {s: run(s, buffer_pages=store.segment.n_pages) for s in reads}
            assert not (reads[True].stats.evictions or reads[False].stats.evictions)
            assert _outcome(reads[True]) == _outcome(reads[False]) == _outcome(on)
        assert reads[True].stats.pages_read <= reads[False].stats.pages_read
    if plan == "xscan" and on.stats.fallbacks == 0:
        # every page is either visited by the scan or provably skipped.
        # The accounting holds on clusters_visited, not pages_read: the
        # extra page the unpruned run fixes can evict a frame the run
        # still needs, so its physical re-read count is not comparable.
        assert (
            stats_on["clusters_visited"] + pruned_clusters
            == stats_off["clusters_visited"]
        )


@settings(max_examples=25, deadline=None)
@given(
    plan=st.sampled_from(["xschedule", "xscan"]),
    profile_name=st.sampled_from([n for n in PROFILES if n != "none"]),
    fault_seed=st.integers(min_value=0, max_value=25),
    path=location_paths(),
)
def test_pruning_is_sound_under_faults(plan, profile_name, fault_seed, path):
    """Retries, latency spikes and lost requests never interact badly
    with pruning: the answer still matches the unpruned fault-free run."""
    store = _store(3, 0.7)
    profile = dataclasses.replace(PROFILES[profile_name], seed=fault_seed)
    baseline = Database(page_size=512, buffer_pages=48, store=store).execute(
        path, doc="d", plan=plan, options=EvalOptions(synopsis=False)
    )
    faulty = Database(
        page_size=512, buffer_pages=48, store=store, faults=profile
    ).execute(path, doc="d", plan=plan)
    assert _outcome(faulty) == _outcome(baseline)
