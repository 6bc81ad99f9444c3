"""Fault matrix: every plan returns correct results under every profile.

The CI fault-injection job runs this module under several fault seeds
(``REPRO_FAULT_SEED``); locally it runs with the shipped seeds.
"""

import dataclasses
import os

import pytest

from repro import PROFILES, Database, EvalOptions, ImportOptions, Tracer
from repro.errors import PageReadError
from repro.sim.faults import FaultProfile
from repro.xmark import generate_xmark
from tests.conftest import pinned_pages

SEED = int(os.environ.get("REPRO_FAULT_SEED", "1"))
FAULTY_PROFILES = tuple(name for name in PROFILES if name != "none")
PLANS = ("simple", "xschedule", "xscan")
QUERIES = (
    "count(/site/regions//item)",
    "/site/people/person/name",
    "count(//keyword)",
)


@pytest.fixture(scope="module")
def fault_store():
    """One imported XMark document shared by every faulty database."""
    db = Database(page_size=2048, buffer_pages=96)
    tree = generate_xmark(scale=0.03, tags=db.tags, seed=3)
    db.add_tree(
        tree, "xmark", ImportOptions(page_size=2048, fragmentation=1.0, seed=3)
    )
    return db.store


@pytest.fixture(scope="module")
def baseline(fault_store):
    """Fault-free simple-plan answers: the ground truth for the matrix."""
    db = Database(page_size=2048, buffer_pages=96, store=fault_store)
    return {
        query: _answer(db.execute(query, doc="xmark", plan="simple"))
        for query in QUERIES
    }


def _answer(result):
    return (result.value, result.nodes)


def _faulty_db(store, profile_name):
    profile = dataclasses.replace(PROFILES[profile_name], seed=SEED)
    return Database(page_size=2048, buffer_pages=96, store=store, faults=profile)


@pytest.mark.parametrize("plan", PLANS)
@pytest.mark.parametrize("profile_name", FAULTY_PROFILES)
def test_results_survive_faults(fault_store, baseline, profile_name, plan):
    db = _faulty_db(fault_store, profile_name)
    for query in QUERIES:
        result = db.execute(query, doc="xmark", plan=plan)
        assert _answer(result) == baseline[query], (
            f"{plan} under {profile_name!r} (seed {SEED}) got a wrong "
            f"answer for {query!r}"
        )


def test_mixed_profile_actually_injects(fault_store):
    """Guard against a silently inert fault layer."""
    db = _faulty_db(fault_store, "mixed")
    result = db.execute(QUERIES[0], doc="xmark", plan="xschedule")
    stats = result.stats
    assert stats.io_errors + stats.timeouts + stats.slow_services > 0
    # recovery is honestly billed on the simulated clock
    if stats.retries:
        assert stats.backoff_wait > 0.0


@pytest.mark.parametrize("profile_name", FAULTY_PROFILES)
def test_same_seed_same_run(fault_store, profile_name):
    """Determinism regression: one FaultPlan seed fixes the whole run."""
    snapshots = []
    for _ in range(2):
        db = _faulty_db(fault_store, profile_name)
        result = db.execute(QUERIES[0], doc="xmark", plan="xschedule")
        snapshots.append(
            (result.value, result.total_time, result.stats.as_dict())
        )
    assert snapshots[0] == snapshots[1]


@pytest.mark.parametrize("batched", [True, False], ids=["batched", "scalar"])
@pytest.mark.parametrize(
    "query",
    ["count(//item)", "count(/site/open_auctions/open_auction[bidder]/current)"],
)
def test_dead_page_under_simple_plan_is_a_typed_error(fault_store, query, batched):
    """Full-tree navigation releases the source page before it reads the
    page across a border.  When that read exhausts its retries the error
    is the read's own — not a second unfix of the released frame — and
    no pin survives it, on either datapath."""
    tracer = Tracer()
    clean = Database(page_size=2048, buffer_pages=96, store=fault_store, tracer=tracer)
    clean.execute(query, doc="xmark", plan="simple")
    misses = [e.page for e in tracer.events if e.cat == "buffer" and e.name == "miss"]
    dead = misses[1]  # the first page the plan reaches across a border
    db = Database(
        page_size=2048,
        buffer_pages=96,
        store=fault_store,
        faults=FaultProfile(dead_pages=frozenset({dead})),
        eval_options=EvalOptions(batched=batched),
    )
    session = db.session(warm=True)
    with pytest.raises(PageReadError) as err:
        session.execute(query, doc="xmark", plan="simple")
    assert err.value.page == dead
    ctx = session.context()
    assert ctx.current_frame is None
    assert pinned_pages(ctx) == []
