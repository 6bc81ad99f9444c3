"""Property: a speculating producer hands a run over in place exactly as
a pull would hand it on (hypothesis).

The path kernel takes a cluster's entry runs after the first with
``take_run()`` (docs/algebra.md, "Run tapes"): ``next()`` on the very
speculation the producer is suspended in.  For a random document, path
and producer — XScan, speculative XSchedule, the shared scan's replay —
a drive that takes runs in place wherever the protocol allows (right
after a run) hands on the same item sequence as a drive by pulls alone,
with the same ``Stats`` and clock when each take is charged the pull's
crossing, as the kernel charges it.  Every run taken in place belongs
to the pinned cluster, and ``take_run`` gives None rather than anything
a pull would deliver that is not a run of that cluster: a context, a
delivery, the next cluster.  A drawn fallback trip lands between two
items, where the speculation must stop for a take as for a pull.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database, EvalOptions, ImportOptions
from repro.algebra.multiscan import _Replay
from repro.algebra.pathinstance import EntryRun
from repro.algebra.xscan import scan
from repro.storage.nodeid import page_of
from repro.storage.record import BorderRecord
from tests.conftest import make_random_tree

PRODUCERS = ["xscan", "xschedule", "shared"]
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


def _item(item) -> tuple:
    if type(item) is EntryRun:
        return ("run", item.step, item.page_no, tuple(item.slots))
    assert type(item) is tuple  # Q's (s_r, seq, s_l, n_l, left_open, target, resumed)
    return ("instance", *item)


class _Drive:
    """One drive of a producer: pulls, and takes where ``takes`` says."""

    def __init__(self, ctx, takes, trip_at, junctions, schedule=None) -> None:
        self.ctx = ctx
        self.takes = takes
        self.trip_at = trip_at
        self.junctions = junctions
        self.schedule = schedule
        self.seen: list[tuple] = []
        self.taken = 0

    def drain(self, producer) -> None:
        ctx = self.ctx
        last = None  # the last item handed on
        while True:
            at = len(self.seen)
            if at == self.trip_at:
                ctx.trip_fallback("memory-limit", detail="drawn")
            for step, junction in self.junctions.get(at, ()):
                # a junction the kernel would have proven: another visit
                self.schedule._enqueue(step, 0, None, False, junction, True)
            if type(last) is EntryRun and self.takes[at % len(self.takes)]:
                run = producer.take_run()
                if run is not None:
                    assert type(run) is EntryRun
                    assert run.page_no == ctx.current_frame.page.page_no == last.page_no
                    ctx.charge_call()  # the crossing the kernel charges for it
                    self.taken += 1
                    self.seen.append(_item(run))
                    last = run
                    continue
                after = producer.next()
                # a pull after a None take: never another run of the cluster
                assert not (type(after) is EntryRun and after.page_no == last.page_no)
            else:
                after = producer.next()
            if after is None:
                return
            self.seen.append(_item(after))
            last = after


def _drive(db, query, kind, takes, trip_at, junctions) -> tuple:
    """Drive the producer of ``kind`` for ``query`` to its end: the items
    it handed on, the runs taken in place, and the books."""
    options = EvalOptions(speculative=True)
    plan = "xschedule" if kind == "xschedule" else "xscan"
    ((path, _),) = db.prepare(query, "d", plan, options).leaves
    ctx = db.make_context(options)
    try:
        if kind == "shared":
            drive = _Drive(ctx, takes, trip_at, junctions)
            replay = _Replay(ctx)
            root = path.document.root
            context = (0, 0, 0, root, False, root, False)
            feeds = scan(ctx, path.document, [(path.steps, path.postings)], (page_of(root),))
            for page_no, (runs,) in feeds:
                replay.context = context if page_no == page_of(root) else None
                replay.runs = runs
                replay.open()
                try:
                    drive.drain(replay)
                finally:
                    replay.close()
        else:
            producer = path.build(ctx).producer
            schedule = producer if kind == "xschedule" else None
            drive = _Drive(ctx, takes, trip_at, junctions, schedule)
            producer.open()
            try:
                drive.drain(producer)
            finally:
                producer.close()
    finally:
        ctx.release()
    return drive.seen, drive.taken, (ctx.clock.now.hex(), ctx.stats.as_dict())


def _junctions(db, rng: random.Random, n_steps: int) -> dict:
    """Up to eight ``(step, junction)`` pairs for XSchedule to visit, each
    filed at a drawn position of the drive among the first few: the
    remote ends of the document's down borders."""
    targets = [
        record.target()
        for page_no in db.document("d").page_nos
        for record in db.store.segment.page(page_no).records
        if isinstance(record, BorderRecord) and record.down
    ]
    junctions: dict = {}
    for _ in range(min(8, len(targets))):
        at = rng.randrange(4)
        junctions.setdefault(at, []).append((rng.randrange(n_steps), rng.choice(targets)))
    return junctions


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=500),
    fragmentation=st.sampled_from([0.0, 0.5, 1.0]),
    query=paths(),
    kind=st.sampled_from(PRODUCERS),
    takes=st.lists(st.booleans(), min_size=1, max_size=8),
    trip_at=st.none() | st.integers(min_value=0, max_value=60),
    draw_seed=st.integers(min_value=0, max_value=2**16),
)
def test_taking_runs_in_place_hands_on_what_pulls_hand_on(
    seed, fragmentation, query, kind, takes, trip_at, draw_seed
):
    db = _database(seed, fragmentation)
    n_steps = len(db.prepare(query, "d", "xscan").leaves[0][0].steps)
    junctions = _junctions(db, random.Random(draw_seed), n_steps) if kind == "xschedule" else {}
    pulled, _, books = _drive(db, query, kind, [False], trip_at, junctions)
    seen, _, taken_books = _drive(db, query, kind, takes, trip_at, junctions)
    assert seen == pulled
    assert taken_books == books


def test_runs_are_taken_in_place_by_every_producer():
    """The property is not vacuous: on a fragmented document every
    producer hands runs over in place."""
    db = _database(3, 1.0)
    query = "/descendant::a/child::b/child::c"
    for kind in PRODUCERS:
        junctions = {}
        if kind == "xschedule":
            junctions = _junctions(db, random.Random(0), 3)
        _, taken, _ = _drive(db, query, kind, [True], None, junctions)
        assert taken > 0, kind
