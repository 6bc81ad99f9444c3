"""Property: the batched datapath is invisible, bit for bit.

Unlike the synopsis (whose pruning legitimately changes I/O counters),
batch-at-a-time execution is a pure CPU reorganisation of the scalar
kernels: for any random document, physical layout, location path (every
axis), physical plan and fault profile — and for every XMark paper
query — ``batched=True`` must return the same results, the same
``Stats`` tick-for-tick and the same simulated time as
``batched=False``.  A tracer attached to a batched run must not
perturb any of it.

For cost-sensitive plans ``batched=True`` is the fused path kernel
(``XAssembly._produce`` over the I/O operator) and ``batched=False`` the
stacked scalar ``XStep`` chain it replays, so the matrix also pins the
places where the fusion could drift: memory-limit fallback tripping
under a stack of live extensions, a budget blowing inside a replayed
``iterator_call`` crossing, the shared scan re-opening the kernel per
cluster, XSchedule's queue fill ending the delivery runs the kernel
takes in place (``k_min_queue``), and the operator roll-up of a traced
run.

Full-tree navigation is one walker on either side (``fullnav.full_step``:
columnar when batched, ``full_axis`` record by record when not), so the
matrix draws what only it evaluates as well: steps with predicates
under the ``simple`` plan, and the levels that run after a
``memory_limit`` trip.
"""

import dataclasses
import traceback

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    PROFILES,
    BudgetExceededError,
    Database,
    EvalOptions,
    ExecutionBudget,
    ImportOptions,
    Tracer,
)
from repro.algebra.xassembly import XAssembly
from repro.sim.clock import TICK
from repro.xmark import PAPER_QUERIES, generate_xmark
from repro.xpath.reference import evaluate_query
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
PLANS = ["simple", "xschedule", "xscan", "xscan-shared"]
DEEP_PATH = "/descendant-or-self::node()/child::*/child::*/child::*"
#: existence, nested, two on one step, comparisons with a literal and
#: with the context node itself; "" (none) as often as not
PREDICATES = [
    "",
    "",
    "",
    "",
    "[b]",
    "[b/c]",
    "[b[c]/a]",
    "[a][.//c]",
    "[text() = 'ttt']",
    "[c != 'tt']",
    "[. != 'x']",
    "[@id = '7']",
    "[ancestor::a]",
    "[following-sibling::b[@id]]",
    "[nosuchtag]",
]
#: XSchedule's queue fill: the producer due after every delivery, often,
#: and (the default) rarely — it ends the kernel's delivery runs
K_MIN_QUEUE = [1, 3, 100]
PREDICATE_PATH = "/descendant::a[b/c][. != 'x']/child::*[.//text() = 'tt']"
XMARK_PREDICATE_QUERIES = [
    "count(//item[location = 'United States']/name)",
    "count(/site/open_auctions/open_auction[bidder]/current)",
    "/site/people/person[profile/education][address]/name",
    "count(//item[mailbox/mail[from]]/name)",
]


@st.composite
def location_paths(draw):
    n_steps = draw(st.integers(min_value=1, max_value=4))
    steps = [
        f"{draw(st.sampled_from(AXES))}::{draw(st.sampled_from(TESTS))}"
        for _ in range(n_steps)
    ]
    return "/" + "/".join(steps)


def _with_predicate(path: str, predicate: str, at: int) -> str:
    steps = path[1:].split("/")
    steps[at % len(steps)] += predicate
    return "/" + "/".join(steps)


_STORE_CACHE: dict = {}
_TREES: dict = {}  # the logical tree behind each random store, for the reference evaluator


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
        _TREES[key] = tree
    return _STORE_CACHE[key]


def _xmark_store(fragmentation: float):
    key = ("xmark", fragmentation)
    if key not in _STORE_CACHE:
        db = Database(page_size=2048, buffer_pages=64)
        tree = generate_xmark(scale=0.01, tags=db.tags, seed=0)
        db.add_tree(
            tree,
            "d",
            ImportOptions(page_size=2048, fragmentation=fragmentation, seed=0),
        )
        _STORE_CACHE[key] = db.store
    return _STORE_CACHE[key]


def _outcome(result):
    if result.value is not None:
        return ("value", result.value)
    return ("nodes", tuple(result.nodes))


def _assert_identical(on, off, context):
    assert _outcome(on) == _outcome(off), context
    assert on.stats.as_dict() == off.stats.as_dict(), context
    assert on.total_time == off.total_time, context
    assert on.cpu_time == off.cpu_time, context


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=7),
    fragmentation=st.sampled_from([0.0, 0.7, 1.0]),
    plan=st.sampled_from(PLANS),
    speculative=st.booleans(),
    memory_limit=st.sampled_from([None, None, 0, 1, 3, 8, 30]),
    k_min_queue=st.sampled_from(K_MIN_QUEUE),
    path=location_paths(),
    predicate=st.sampled_from(PREDICATES),
    at=st.integers(min_value=0, max_value=3),
)
def test_batched_run_is_bit_identical(
    seed, fragmentation, plan, speculative, memory_limit, k_min_queue, path, predicate, at
):
    store = _store(seed, fragmentation)
    if plan == "simple":  # the one plan that evaluates predicates
        path = _with_predicate(path, predicate, at)
    results = {}
    for batched in (True, False):
        db = Database(page_size=512, buffer_pages=48, store=store)
        options = EvalOptions(
            speculative=speculative,
            memory_limit=memory_limit,
            k_min_queue=k_min_queue,
            batched=batched,
        )
        results[batched] = db.execute(path, doc="d", plan=plan, options=options)
    _assert_identical(results[True], results[False], (plan, memory_limit, k_min_queue, path))
    if plan == "simple" and predicate:
        tree = _TREES[seed, fragmentation]
        ir = store.documents["d"].import_result
        assert results[True].nodes == [ir.nodeid_of(n) for n in evaluate_query(tree, path)], path


@settings(max_examples=8, deadline=None)
@given(
    fragmentation=st.sampled_from([0.0, 1.0]),
    plan=st.sampled_from(PLANS),
)
def test_xmark_queries_are_bit_identical(fragmentation, plan):
    """Every paper query shape, both layouts, all four plans."""
    store = _xmark_store(fragmentation)
    queries = [query for _, _, query in PAPER_QUERIES]
    if plan == "simple":
        queries += XMARK_PREDICATE_QUERIES
    for query in queries:
        results = {}
        for batched in (True, False):
            db = Database(page_size=2048, buffer_pages=64, store=store)
            results[batched] = db.execute(
                query, doc="d", plan=plan, options=EvalOptions(batched=batched)
            )
        _assert_identical(results[True], results[False], (plan, query))


@settings(max_examples=25, deadline=None)
@given(
    plan=st.sampled_from(PLANS),
    profile_name=st.sampled_from([n for n in PROFILES if n != "none"]),
    fault_seed=st.integers(min_value=0, max_value=25),
    k_min_queue=st.sampled_from(K_MIN_QUEUE),
    path=location_paths(),
)
def test_batched_is_bit_identical_under_faults(plan, profile_name, fault_seed, k_min_queue, path):
    """Retries, latency spikes and lost requests replay identically:
    the batched kernels issue the same fix/unfix sequence at the same
    simulated instants, so the fault dice roll the same on both sides."""
    store = _store(3, 0.7)
    profile = dataclasses.replace(PROFILES[profile_name], seed=fault_seed)
    results = {}
    for batched in (True, False):
        db = Database(page_size=512, buffer_pages=48, store=store, faults=profile)
        options = EvalOptions(k_min_queue=k_min_queue, batched=batched)
        results[batched] = db.execute(path, doc="d", plan=plan, options=options)
    _assert_identical(results[True], results[False], (plan, profile_name, k_min_queue, path))


@pytest.mark.parametrize(
    "profile_name,recovered_by",
    [
        ("transient-errors", ("retries", "backoff_wait")),
        ("latency-spikes", ("slow_services",)),
        ("lost-requests", ("timeouts", "retries")),
        ("mixed", ("retries", "backoff_wait", "slow_services", "timeouts")),
    ],
)
def test_every_recovery_duration_is_on_the_time_grid(profile_name, recovered_by):
    """Whatever hypothesis draws above, each recovery mechanism runs here
    on every plan: a backoff delay, a spiked service or a resubmission
    deadline created off the time grid would make the sums depend on
    their order, and the kernel (one multiply per event) would part from
    the scalar chain (one addition per candidate)."""
    store = _store(3, 0.7)
    fired = dict.fromkeys(recovered_by, 0)
    for plan in PLANS:
        for fault_seed in (1, 2, 3):
            profile = dataclasses.replace(PROFILES[profile_name], seed=fault_seed)
            results = {}
            for batched in (True, False):
                db = Database(page_size=512, buffer_pages=48, store=store, faults=profile)
                results[batched] = db.execute(
                    DEEP_PATH, doc="d", plan=plan, options=EvalOptions(batched=batched)
                )
            on = results[True]
            _assert_identical(on, results[False], (plan, profile_name, fault_seed))
            assert on.total_time == on.cpu_time + on.io_wait
            assert (on.total_time / TICK).is_integer()
            for counter in recovered_by:
                fired[counter] += getattr(on.stats, counter)
    assert all(fired.values()), fired


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=3),
    plan=st.sampled_from(PLANS),
    path=location_paths(),
    predicate=st.sampled_from(PREDICATES),
    at=st.integers(min_value=0, max_value=3),
)
def test_batched_trace_reconciles_and_does_not_perturb(seed, plan, path, predicate, at):
    """The per-batch span events keep the tracer contract: attaching
    one changes nothing, and the summary's counters are the run's
    ``Stats``."""
    store = _store(seed, 1.0)
    if plan == "simple":
        path = _with_predicate(path, predicate, at)
    vanilla = Database(page_size=512, buffer_pages=48, store=store).execute(
        path, doc="d", plan=plan, options=EvalOptions(batched=True)
    )
    tracer = Tracer()
    traced = Database(
        page_size=512, buffer_pages=48, store=store, tracer=tracer
    ).execute(path, doc="d", plan=plan, options=EvalOptions(batched=True))
    _assert_identical(traced, vanilla, (plan, path))
    assert traced.trace_summary is not None
    assert traced.trace_summary.counters == traced.stats.as_dict()
    # against the traced scalar run: the same counters, and the same
    # crossings per operator — the kernel reports
    # one XStep call per iterator_call charge it replays, which is what
    # the scalar chain's XStep.next() calls count
    scalar = Database(
        page_size=512, buffer_pages=48, store=store, tracer=Tracer()
    ).execute(path, doc="d", plan=plan, options=EvalOptions(batched=False))
    assert traced.trace_summary.counters == scalar.trace_summary.counters
    crossings = {
        name: (roll["calls"], roll["out"])
        for name, roll in traced.trace_summary.operators.items()
    }
    assert crossings == {
        name: (roll["calls"], roll["out"])
        for name, roll in scalar.trace_summary.operators.items()
    }, (plan, path)
    if plan in ("xschedule", "xscan") and traced.stats.node_tests:
        assert any(e.name == "xstep-batch" for e in tracer.events), (plan, path)
    if plan == "simple" and traced.stats.node_tests:
        # every Unnest-Map extension reports itself, predicate steps too
        assert any(e.name == "unnest-batch" for e in tracer.events), path


# ---------------------------------------------- where the fusion could drift

@pytest.mark.parametrize(
    "plan,speculative", [("xscan", False), ("xschedule", True), ("xscan-shared", False)]
)
def test_fallback_under_a_stack_of_live_extensions(monkeypatch, plan, speculative):
    """The memory limit trips while several levels of the kernel hold an
    extension: those finish intra-cluster, every extension started after
    the trip navigates the full tree — the kernel's levels over the
    columnar walker, the stacked chain's record by record — on a layout
    with few borders, a mixed one and one that is all borders."""
    live_levels = []
    enter_fallback = XAssembly._enter_fallback

    def spy(self):
        # the kernel's suspended levels, plus the one that was running
        live_levels.append(len(self._iter.gi_frame.f_locals["stack"]) + 1)
        enter_fallback(self)

    monkeypatch.setattr(XAssembly, "_enter_fallback", spy)
    deepest = 0
    for fragmentation in (0.7, 0.0, 1.0):
        store = _store(3, fragmentation)
        for limit in (0, 1, 2, 3, 5, 8, 13):
            results = {}
            for batched in (True, False):
                live_levels.clear()
                db = Database(page_size=512, buffer_pages=48, store=store)
                options = EvalOptions(
                    memory_limit=limit, speculative=speculative, batched=batched
                )
                results[batched] = db.execute(DEEP_PATH, doc="d", plan=plan, options=options)
                if batched:
                    deepest = max(deepest, *live_levels)
            assert results[True].stats.fallbacks == 1
            _assert_identical(results[True], results[False], (plan, fragmentation, limit))
    assert deepest >= 2, "no trip happened under a stack of live extensions"


@pytest.mark.parametrize("plan", ["xscan", "xschedule", "simple"])
def test_budget_blows_inside_a_replayed_crossing(plan):
    """Sweep ``max_seconds`` across the run: wherever the clock crosses
    the limit — including between two of the iterator_call charges the
    kernel replays for idle levels, or (``simple``) with the walkers of a
    step and of its predicates suspended on one another — both datapaths
    stop at the same simulated instant with the same partial result."""
    store = _store(3, 0.7)
    path = PREDICATE_PATH if plan == "simple" else DEEP_PATH

    def run(batched, budget):
        db = Database(page_size=512, buffer_pages=48, store=store)
        options = EvalOptions(speculative=True, batched=batched, budget=budget)
        return db.execute(path, doc="d", plan=plan, options=options)

    # most of the run is ordering the result, past the last budget
    # check: sweep the head, where the plan itself runs
    total = run(True, None).total_time
    in_replayed_crossing = cuts = 0
    for i in range(1, 60):
        limit = total * i / 400
        cut = {
            batched: run(batched, ExecutionBudget(max_seconds=limit, on_exceeded="partial"))
            for batched in (True, False)
        }
        _assert_identical(cut[True], cut[False], (plan, limit))
        assert cut[True].partial == cut[False].partial
        if not cut[True].partial:
            continue
        cuts += 1
        errors = {}
        for batched in (True, False):
            with pytest.raises(BudgetExceededError) as err:
                run(batched, ExecutionBudget(max_seconds=limit))
            errors[batched] = err
        assert errors[True].value.spent == errors[False].value.spent
        frames = [f.name for f in traceback.extract_tb(errors[True].tb)]
        # raised by a charge the kernel itself replayed, not by the
        # consumer's or the I/O operator's own next()
        in_replayed_crossing += frames[-4:-2] == ["_produce", "charge_call"]
    assert cuts > 20, "the sweep hardly ever cut the run short"
    if plan != "simple":
        assert in_replayed_crossing, "no limit fell inside a replayed crossing"


def test_shared_scan_reopens_one_kernel_per_cluster():
    """Two paths of different length over one physical pass: each path's
    kernel is re-opened for every cluster while its R and S carry over
    (losing them would lose every result that crosses a border)."""
    store = _store(3, 0.7)
    query = "count(//a/b)+count(//b//c/*/a)"
    results = {}
    for batched in (True, False):
        db = Database(page_size=512, buffer_pages=48, store=store)
        results[batched] = db.execute(
            query, doc="d", plan="xscan-shared", options=EvalOptions(batched=batched)
        )
    _assert_identical(results[True], results[False], query)
    separate = Database(page_size=512, buffer_pages=48, store=store).execute(
        query, doc="d", plan="xscan"
    )
    assert results[True].value == separate.value
    assert results[True].stats.merges > 0
