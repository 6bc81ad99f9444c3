"""Property: delivery tapes hand on what the level-stack walk hands on
(hypothesis).

The path kernel takes XSchedule's deliveries in from memoised *delivery
tapes* (docs/algebra.md, "Delivery tapes") whenever nothing can observe
the clock inside them, and walks them level by level otherwise — an
armed budget, however generous, is one such observer.  For a random
document, path, ``k_min_queue`` and speculation, every result tuple
leaves the kernel at the same simulated instant and with the same
``Stats`` under the tapes (the execution that builds them and the one
that finds them) as under the walk, and the books at the end agree.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database, EvalOptions, ExecutionBudget, ImportOptions
from repro.algebra.xassembly import DeliveryTapes
from tests.conftest import make_random_tree

AXES = [
    "child",
    "descendant",
    "descendant-or-self",
    "parent",
    "ancestor",
    "ancestor-or-self",
    "following-sibling",
    "preceding-sibling",
]
TESTS = ["a", "b", "c", "*", "node()"]
#: generous enough never to trip, armed all the same: the walk runs
INERT = ExecutionBudget(max_seconds=1e9)


@st.composite
def paths(draw):
    """A path whose first step goes down from the root (few are refuted
    by the path summary), then any axis."""
    first = draw(st.sampled_from(AXES[:3]))
    axes = [first] + [draw(st.sampled_from(AXES)) for _ in range(draw(st.integers(0, 3)))]
    return "/" + "/".join(f"{axis}::{draw(st.sampled_from(TESTS))}" for axis in axes)


def _database(seed: int, fragmentation: float) -> Database:
    db = Database(page_size=256, buffer_pages=24)
    tree = make_random_tree(db.tags, seed=seed, n_top=12)
    db.add_tree(tree, "d", ImportOptions(page_size=256, fragmentation=fragmentation, seed=seed))
    return db


def _yields(db, query: str, options: EvalOptions) -> tuple[list, tuple]:
    """Every result tuple with the clock and counters it leaves the
    kernel at, and the books once the plan is drained."""
    ctx = db.make_context(options)
    ((path, _),) = db.prepare(query, "d", "xschedule", options).leaves
    armed = ctx.arm_budget(options.budget)
    top = path.build(ctx)
    top.open()
    seen = []
    try:
        while (nid := top.next()) is not None:
            seen.append((nid, ctx.clock.now.hex(), ctx.stats.as_dict()))
    finally:
        top.close()
        ctx.release()
        if armed:
            ctx.disarm_budget()
    return seen, (ctx.clock.now.hex(), ctx.clock.cpu_time.hex(), ctx.stats.as_dict())


def _taped(db) -> int:
    """How many delivery tapes the document's views keep."""
    return sum(
        len(tape)
        for page_no in db.document("d").page_nos
        if (view := db.store.segment.page(page_no)._colview) is not None
        for tape in view.tapes.values()
        if isinstance(tape, DeliveryTapes)
    )


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=500),
    fragmentation=st.sampled_from([0.0, 0.5, 1.0]),
    query=paths(),
    k_min_queue=st.sampled_from([1, 2, 5, 100]),
    speculative=st.booleans(),
)
def test_delivery_tapes_hand_on_what_the_walk_hands_on(
    seed, fragmentation, query, k_min_queue, speculative
):
    # (a path the summary refutes runs as a constant-empty plan: both
    # sides agree trivially, and nothing is filtered out)
    db = _database(seed, fragmentation)
    options = EvalOptions(k_min_queue=k_min_queue, speculative=speculative)
    walked = _yields(db, query, dataclasses.replace(options, budget=INERT))
    assert _taped(db) == 0, "an armed budget must keep the kernel on the walk"
    built = _yields(db, query, options)
    found = _yields(db, query, options)
    assert built == walked
    assert found == walked


def test_the_property_takes_deliveries_off_tapes():
    """Not vacuous: a drawn path over a fragmented document keeps tapes,
    and a second execution runs off them."""
    db = _database(3, 1.0)
    query = "/descendant::a/child::b/ancestor::*"
    options = EvalOptions(k_min_queue=2)
    first = _yields(db, query, options)
    taped = _taped(db)
    assert taped > 10
    assert _yields(db, query, options) == first
    assert _taped(db) == taped
