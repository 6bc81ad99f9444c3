"""Fault matrix: every plan returns correct results under every profile,
and a fault it cannot recover from surfaces as a typed error that leaves
the runtime able to serve the next request.

Each point of the matrix is a pinned draw of the golden file's
``faults-xmark`` family (``tests/golden.py``): every recovering profile
under the fault seeds 1-3, every navigating plan and three queries over
one XMark document.  Checking one runs it cold, compares its books with
the row and its answer with the reference evaluator's.
"""

import dataclasses

import pytest

from repro import PROFILES, Tracer
from repro.errors import PageReadError, ReproError
from repro.sim.faults import FaultProfile
from tests import golden
from tests.conftest import pinned_pages

FAULTY_PROFILES = tuple(golden.RECOVERED_BY)
PLANS = ("simple", "xschedule", "xscan")


def database(**options):
    """A cold database over the matrix's XMark document."""
    return golden.database(golden.DEAD_PAGE_DOC, **options)


@pytest.mark.parametrize("plan", PLANS)
@pytest.mark.parametrize("profile_name", FAULTY_PROFILES)
def test_results_survive_faults(profile_name, plan):
    for seed in golden.FAULT_SEEDS:
        for i in range(len(golden.FAULT_MATRIX_QUERIES)):
            golden.check(f"faults-xmark/{seed}/{profile_name}/{plan}/{i}")


def test_mixed_profile_actually_injects():
    """Guard against a silently inert fault layer: every ``mixed`` row
    pins injected faults, and recovery billed on the simulated clock."""
    mixed = [(key, r["stats"]) for key, r in golden.rows("faults-xmark") if "/mixed/" in key]
    assert len(mixed) == len(golden.FAULT_SEEDS) * len(PLANS) * len(golden.FAULT_MATRIX_QUERIES)
    for key, stats in mixed:
        assert stats["io_errors"] + stats["timeouts"] + stats["slow_services"] > 0, key
        if stats["retries"]:
            assert stats["backoff_wait"] > 0.0, key


@pytest.mark.parametrize("profile_name", FAULTY_PROFILES)
def test_same_seed_same_run(profile_name):
    """Determinism regression: one FaultPlan seed fixes the whole run,
    twice in one process."""
    golden.replay(f"faults-xmark/1/{profile_name}/xschedule/0")


@pytest.mark.parametrize("query", golden.DEAD_PAGE_QUERIES)
def test_dead_page_under_simple_plan_is_a_typed_error(query):
    """Full-tree navigation releases the source page before it reads the
    page across a border.  When that read exhausts its retries the error
    is the read's own — not a second unfix of the released frame — no
    pin survives it, and the books at the raise are the pinned ones."""
    tracer = Tracer()
    clean = database(tracer=tracer)
    clean.execute(query, doc="d", plan="simple")
    misses = [e.page for e in tracer.events if e.cat == "buffer" and e.name == "miss"]
    dead = misses[1]  # the first page the plan reaches across a border
    db = database(faults=FaultProfile(dead_pages=frozenset({dead})))
    session = db.session(warm=True)
    with pytest.raises(PageReadError) as err:
        session.execute(query, doc="d", plan="simple")
    assert err.value.page == dead
    ctx = session.context()
    assert ctx.current_frame is None
    assert pinned_pages(ctx) == []
    key = f"dead/{golden.DEAD_PAGE_QUERIES.index(query)}"
    assert golden.row(key)["draw"]["faults"] == {"dead_pages": [dead]}
    assert isinstance(golden.check(key).error, PageReadError)


@pytest.mark.parametrize("plan", PLANS)
@pytest.mark.parametrize("profile_name", FAULTY_PROFILES)
def test_an_unrecoverable_page_leaves_priced_books(profile_name, plan):
    """A page that never reads, on top of each profile's faults (fault
    seed 1): the plan gives up with a typed error, and the warm runtime
    it leaves behind serves the next request."""
    query, then = golden.FAULT_MATRIX_QUERIES[:2]
    tracer = Tracer()
    clean = database(tracer=tracer)
    clean.execute(query, doc="d", plan=plan)
    read = [e.page for e in tracer.events if e.cat == "buffer" and e.page is not None]
    dead = read[len(read) // 3]
    profile = dataclasses.replace(PROFILES[profile_name], seed=1, dead_pages=frozenset({dead}))
    session = database(faults=profile).session(warm=True)
    with pytest.raises(ReproError):
        session.execute(query, doc="d", plan=plan)
    try:
        session.execute(then, doc="d", plan=plan)
    except ReproError:
        pass  # a scan reads the dead page again
