"""Run tapes: an entry run taken in from its memoised transcription.

The path kernel walks a (cluster, path, step)'s entry run level by level
once, charge-free (:func:`repro.algebra.xassembly.build_tape`), and from
then on takes the run in from that tape whenever nothing can observe the
clock inside it.  The level-stack walk stays the reference — an armed
budget, however inert, forces it — and the scalar chain the oracle of
both: all three must agree with ``==`` on value, nodes, every ``Stats``
field and the hex time triple.  The seams get a test each: the room
check under ``memory_limit`` flipping between the two walks mid-scan, a
corrupt page, tapes across an update, the per-view bound, two documents
sharing a page, an S entry grown over a tape's own tuple.
"""

import json
import random
import sys

import pytest

import repro.algebra.xassembly as kernel
from repro import Database, EvalOptions, ExecutionBudget, ImportOptions
from repro.algebra.base import Operator
from repro.algebra.pathinstance import EntryRun
from repro.algebra.xassembly import XAssembly, build_tape
from repro.axes import Axis
from repro.errors import StorageError
from repro.storage import colview
from repro.storage.nodeid import make_nodeid
from repro.storage.record import BorderRecord, CoreRecord
from repro.storage.store import export_tree
from repro.storage.update import delete_subtree, insert_node
from repro.xpath.reference import evaluate_query
from tests.algebra.test_entry_runs import GOLDEN, _golden_rows
from tests.conftest import make_random_tree, small_database

PLANS = ["xscan", "xscan-shared", "xschedule"]
#: a ``//`` prefix the rewrite cannot fold away: under a scan every entry
#: of its second step is implied reachable (``descendant_root_opt``)
IMPLIED = "/descendant-or-self::node()/parent::b/a/c"
#: downward, upward and sibling steps
PATHS = [
    "/root/a/b/c",
    "count(//a/b)+count(//b//c/*/a)",
    "//c/ancestor::a/b",
    "count(//b/following-sibling::a/c)",
    "/descendant-or-self::node()/child::*/child::*/child::*",
    IMPLIED,
]
#: an armed budget no run can exhaust: the kernel walks level by level
INERT = ExecutionBudget(max_pages=10**9)


@pytest.fixture(scope="module", params=[0.0, 1.0], ids=["contiguous", "fragmented"])
def store(request):
    """Contiguous: clusters follow their parents, so more entries are
    reachable at intake.  Fragmented: nearly all are parked."""
    db, _ = small_database(seed=3, page_size=512, fragmentation=request.param, n_top=25)
    return db.store


@pytest.fixture
def replays(monkeypatch):
    """Counts the runs taken in from a tape."""
    taken = []
    replay = XAssembly._replay

    def spy(self, tape, implied):
        taken.append(implied)
        return replay(self, tape, implied)

    monkeypatch.setattr(XAssembly, "_replay", spy)
    return taken


def _run(store, query, plan, doc="d", **options):
    db = Database(page_size=store.segment.page_size, buffer_pages=48, store=store)
    options.setdefault("speculative", True)
    return db.execute(query, doc=doc, plan=plan, options=EvalOptions(**options))


def _observed(result):
    return (
        result.value,
        result.nodes,
        result.stats.as_dict(),
        result.total_time.hex(),
        result.cpu_time.hex(),
        result.io_wait.hex(),
        result.partial,
    )


def _cached_tapes(store, doc="d"):
    for page_no in store.document(doc).page_nos:
        page = store.segment.page(page_no)
        if page._colview is not None:
            for key, tape in page._colview.tapes.items():
                yield page, key, tape


@pytest.mark.parametrize("plan", PLANS)
@pytest.mark.parametrize("query", PATHS)
def test_tape_equals_level_stack_equals_scalar_chain(store, plan, query, replays):
    first = _run(store, query, plan)  # builds what tapes are missing
    again = _run(store, query, plan)  # finds them all
    assert replays, "no run was taken in from a tape"
    taken = len(replays)
    walked = _run(store, query, plan, budget=INERT)
    scalar = _run(store, query, plan, batched=False)
    assert len(replays) == taken, "an armed budget must force the level-stack walk"
    assert _observed(first) == _observed(again) == _observed(walked) == _observed(scalar)
    assert first.stats.speculative_instances > first.stats.clusters_visited
    assert any(replays) == (query is IMPLIED and plan != "xschedule")
    # taking a run in leaves its tape as it was built
    for page, _, tape in _cached_tapes(store):
        assert build_tape(tape.owner, page.colview(), page.records, tape.steps, tape.index) == tape


def _yields(store, query, plan, **options):
    """What a consumer can see at each result tuple: the tuple, the
    clock and every counter."""
    db = Database(page_size=512, buffer_pages=48, store=store)
    options = EvalOptions(speculative=True, **options)
    ctx = db.make_context(options)
    ((path, _),) = db.prepare(query, "d", plan, options).leaves
    armed = ctx.arm_budget(options.budget)
    top = path.build(ctx)
    top.open()
    seen = []
    try:
        while (item := top.next()) is not None:
            seen.append((item.page_no, item.slot, ctx.clock.now.hex(), ctx.stats.as_dict()))
    finally:
        top.close()
        ctx.release()
        if armed:
            ctx.disarm_budget()
    return seen


@pytest.mark.parametrize("plan", ["xscan", "xschedule"])
@pytest.mark.parametrize("query", ["//a/b", "//c/ancestor::a/b", IMPLIED])
def test_every_yield_sees_the_level_stack_walks_clock_and_counters(store, plan, query, replays):
    """Results activated in the middle of a run taken in from its tape
    leave the kernel at the instant, and with the counters posted, that
    the level-stack walk leaves them with."""
    tape = _yields(store, query, plan)
    assert replays and len(tape) >= 4
    assert tape == _yields(store, query, plan, budget=INERT)


def test_both_intakes_are_exercised(monkeypatch, replays):
    """Activated at intake where clusters follow their parents, parked
    by reference where they do not — and some of each on either layout,
    so neither half of the three-way test is vacuous."""
    settled = []  # set_ops per settlement: one per activation, one per run's end
    settle = XAssembly._settle

    def spy(self, done, upto, sets):
        settled.append(sets)
        settle(self, done, upto, sets)

    monkeypatch.setattr(XAssembly, "_settle", spy)
    at_intake = {}
    for fragmentation in (0.0, 1.0):
        db, _ = small_database(seed=3, page_size=512, fragmentation=fragmentation, n_top=25)
        del replays[:], settled[:]
        _run(db.store, "/root/a/b/c", "xscan")
        activated = len(settled) - len(replays)
        parked = (sum(settled) - activated) // 2
        assert activated > 0 and parked > 0, fragmentation
        at_intake[fragmentation] = activated / (activated + parked)
    assert at_intake[0.0] > at_intake[1.0]


@pytest.mark.parametrize("plan", PLANS)
def test_room_check_flips_between_the_walks_mid_scan(store, plan, replays, monkeypatch):
    """Under ``memory_limit`` a run is taken in from its tape only while
    S has room for all of it: early runs are, a later one is walked and
    trips inside the run, and every observable is the scalar chain's."""
    query = PATHS[4]
    unlimited = _run(store, query, plan)
    peak = max(1, unlimited.stats.speculative_instances // 8)
    trips = []  # per trip: entries of the run being walked still to come
    enter_fallback = XAssembly._enter_fallback

    def spy(self):
        entries = self._iter.gi_frame.f_locals["entries"]
        trips.append(None if entries is None else entries.__length_hint__())
        enter_fallback(self)

    monkeypatch.setattr(XAssembly, "_enter_fallback", spy)
    flipped = []
    for limit in sorted({1, 5, peak // 4, peak // 2, peak, 2 * peak, 10**9}):
        del replays[:]
        del trips[:]
        tape = _run(store, query, plan, memory_limit=limit)
        taken = len(replays)
        scalar = _run(store, query, plan, batched=False, memory_limit=limit)
        assert _observed(tape) == _observed(scalar), limit
        if tape.stats.fallbacks and taken:
            assert trips[0] is not None, "the trip did not land inside a run"
            flipped.append(trips[0])
    assert flipped, "no limit let some runs through their tapes and then tripped"
    assert any(flipped), "no trip with entries of the run still to come"


def test_golden_rows_come_off_the_tapes(replays):
    assert _golden_rows() == json.loads(GOLDEN.read_text())
    assert len(replays) > 1000


# ------------------------------------------------------------ corrupt pages


def _raising_run(store, query):
    db = Database(page_size=512, buffer_pages=48, store=store)
    ctx = db.make_context(EvalOptions())
    compiled = db.prepare(query, "d", "xscan")
    with pytest.raises(ValueError, match="not back-patched") as err:
        compiled.execute(ctx)
    return str(err.value), ctx.stats.as_dict(), ctx.clock.now.hex(), ctx.clock.cpu_time.hex()


def test_unpatched_companion_raises_where_the_walk_does(monkeypatch):
    """A tape whose construction raises is not kept: the run is walked
    level by level and the error surfaces at the same point of the scan
    with the same ``Stats`` and clock — and the clusters before it were
    taken in from their tapes."""
    db, _ = small_database(seed=3, page_size=512, fragmentation=1.0, n_top=25)
    store = db.store
    query = "//a/b/c"
    # a down border in the middle of the scan loses its companion
    page_nos = store.document("d").page_nos
    for page_no in page_nos[len(page_nos) // 2 :]:
        page = store.segment.page(page_no)
        downs = [r for r in page.records if isinstance(r, BorderRecord) and r.down]
        if downs and page.colview().entries_up:
            downs[0].companion = None
            page.invalidate_colview()
            break
    cold = _raising_run(store, query)
    assert page.colview().tapes == {}
    kept = {p.page_no for p, _, _ in _cached_tapes(store)}
    assert kept and max(kept) < page.page_no
    assert _raising_run(store, query) == cold  # the clean clusters off their tapes
    monkeypatch.setattr(XAssembly, "_tape", lambda self, run: None)
    assert _raising_run(store, query) == cold  # every run walked level by level


# ---------------------------------------------------------- across an update


def test_warm_session_rebuilds_tapes_on_touched_pages_only(monkeypatch, tmp_path):
    """Query, update, query through one warm session: tapes die with the
    views the update drops and with no other (under a WAL the synopsis is
    repaired, so the same runs are speculated before and after)."""
    built = []
    build = kernel.build_tape

    def spy(owner, view, records, steps, index):
        # (the kernel's builds only: armed, the mutation sanitizer
        # rebuilds every cached tape after an update)
        if sys._getframe(1).f_code is XAssembly._tape.__code__:
            built.append(view.page_no)
        return build(owner, view, records, steps, index)

    monkeypatch.setattr(kernel, "build_tape", spy)
    db, _ = small_database(seed=3, page_size=512, fragmentation=1.0, n_top=25)
    db.attach_wal(str(tmp_path / "wal.log"))
    doc = db.document("d")
    session = db.session(warm=True)
    query = "count(//a/b/c)"
    before = session.execute(query, doc="d", plan="xscan").value
    assert built
    had_tapes = set(built)
    del built[:]
    assert session.execute(query, doc="d", plan="xscan").value == before
    assert not built
    versions = {p: db.store.segment.page(p).version for p in doc.page_nos}
    # inserts into full pages: exiled through border pairs, with relocations
    rng = random.Random(1)
    for _ in range(6):
        page_no = rng.choice(doc.page_nos)
        cores = [
            slot
            for slot, record in enumerate(db.store.segment.page(page_no).records)
            if isinstance(record, CoreRecord) and int(record.kind) == 1
        ]
        if cores:
            session.insert("d", make_nodeid(page_no, rng.choice(cores)), 0, "c")
    touched = {
        p for p in doc.page_nos if db.store.segment.page(p).version != versions.get(p)
    }
    assert touched & had_tapes and not touched >= had_tapes
    after = session.execute(query, doc="d", plan="xscan")
    assert touched & had_tapes <= set(built) <= touched
    assert after.value == db.execute(query, doc="d", plan="simple").value != before
    del built[:]
    assert session.execute(query, doc="d", plan="xscan").value == after.value
    assert not built


def test_update_storm_with_warm_tapes_between_the_updates():
    """Regression (the junction a tape remembers is the *remote* border's
    ``companion``): relocations re-patch it in place, and the page that
    holds it must drop its view.  256-byte pages relocate all the time;
    the scan queries between the updates keep every page's tapes warm."""
    queries = (
        "count(//*)",
        "count(//x/y)",
        "count(//y/ancestor::x)",
        "count(//z/following-sibling::*)",
    )
    for seed in (3, 21, 57, 59):
        rng = random.Random(seed)
        db = Database(page_size=256, buffer_pages=32)
        db.load_xml("<root><a>one</a><b/><c>two</c></root>", "d")
        doc = db.document("d")
        for step in range(40):
            elements = db.execute("//*", doc="d", plan="simple").nodes
            try:
                if rng.random() < 0.75 or len(elements) < 4:
                    insert_node(
                        db.store, doc, rng.choice(elements + [doc.root]), 0, rng.choice("xyz")
                    )
                else:
                    delete_subtree(db.store, doc, rng.choice(elements))
            except StorageError:
                continue  # a page too full to make room on: not this test's
            tree = export_tree(db.store, doc)
            for query in queries:
                want = evaluate_query(tree, query)
                scan = db.execute(query, doc="d", plan="xscan").value
                simple = db.execute(query, doc="d", plan="simple").value
                assert scan == simple == want, (seed, step, query)


# ------------------------------------------------------------------ the bound


def test_a_view_keeps_a_bounded_number_of_tapes(monkeypatch, replays):
    monkeypatch.setattr(colview, "TAPE_LIMIT", 4)
    db, _ = small_database(seed=3, page_size=512, fragmentation=1.0, n_top=25)
    queries = [f"count(//{x}/{y}/{z})" for x in "abc" for y in "ab" for z in "cd"]
    tapes = [_run(db.store, query, "xscan") for query in queries]
    sizes = [len(p.colview().tapes) for p in map(db.store.segment.page, db.document("d").page_nos)]
    assert 0 < max(sizes) <= 4, "twelve paths of three steps ran over every cluster"
    assert replays
    for query, tape in zip(queries, tapes):
        assert _observed(tape) == _observed(_run(db.store, query, "xscan", batched=False))
        assert _observed(tape) == _observed(_run(db.store, query, "xscan"))


# ------------------------------------------------- two documents on one page


def test_documents_sharing_a_page_do_not_share_tapes():
    """Path ids are per document, and a relocation can land one
    document's records on another's page: a tape is only taken for the
    document that numbered its path."""
    db = Database(page_size=256, buffer_pages=64)
    for name, seed in (("one", 1), ("two", 2)):
        tree = make_random_tree(db.tags, seed, n_top=10)
        db.add_tree(tree, name, ImportOptions(page_size=256, fragmentation=0.5, seed=seed))
    one, two = db.document("one"), db.document("two")
    rng = random.Random(0)
    for _ in range(60):
        page_no = rng.choice(one.page_nos)
        cores = [
            slot
            for slot, record in enumerate(db.store.segment.page(page_no).records)
            if isinstance(record, CoreRecord) and int(record.kind) == 1
        ]
        if cores:
            insert_node(db.store, one, make_nodeid(page_no, rng.choice(cores)), 0, "a")
    assert set(one.page_nos) & set(two.page_nos), "no page came to be shared"
    # the first path each document runs gets id 0
    asked = {"one": "count(//a/b)", "two": "count(//b//c)"}
    for _ in range(2):
        for name, query in asked.items():
            scan = db.execute(query, doc=name, plan="xscan").value
            assert scan == db.execute(query, doc=name, plan="simple").value, name
    assert one.path_ids.keys() != two.path_ids.keys()
    assert set(one.path_ids.values()) & set(two.path_ids.values())


# --------------------------------------------- S entries are never grown in place


class _SameRunTwice(Operator):
    """Pins one cluster and hands its step-0 entry run on twice."""

    def __init__(self, ctx, page_no, axis):
        super().__init__(ctx)
        self.page_no = page_no
        self.axis = axis

    def _produce(self):
        ctx = self.ctx
        ctx.set_current_frame(ctx.buffer.fix(self.page_no))
        slots = ctx.current_frame.page.colview().entry_slots(self.axis)
        for _ in range(2):
            yield from EntryRun(0, self.page_no, slots).feed(ctx)


def test_an_s_entry_is_grown_by_replacing_it():
    """The same run delivered twice.  With room for both, the second
    tape intake doubles the S entries the first parked as the tape's own
    tuples; short of room, it is walked level by level and grows them
    outcome by outcome until it trips.  Either way the tape comes out
    as it was built and the scalar chain agrees."""
    db, _ = small_database(seed=3, page_size=512, fragmentation=1.0, n_top=25)
    doc = db.document("d")
    steps = db.prepare("/descendant::a/descendant::b", "d", "xscan").leaves[0][0].steps
    page = max(
        map(db.store.segment.page, doc.page_nos),
        key=lambda p: build_tape(doc, p.colview(), p.records, steps, 0).parked,
    )
    parked = build_tape(doc, page.colview(), page.records, steps, 0).parked
    assert parked >= 4

    def drain(batched, memory_limit):
        ctx = db.make_context(EvalOptions(batched=batched, memory_limit=memory_limit))
        top = XAssembly(
            ctx, _SameRunTwice(ctx, page.page_no, Axis.DESCENDANT), 2, steps=steps, document=doc
        )
        top.open()
        try:
            while top.next() is not None:
                pass
            held = sorted(map(len, top._s.values()))
        finally:
            top.close()
            ctx.release()
        return held, ctx.stats.as_dict(), ctx.clock.now.hex(), ctx.clock.cpu_time.hex()

    for memory_limit, fallbacks in ((None, 0), (parked + parked // 2, 1)):
        kernel_run = drain(True, memory_limit)
        (tape,) = page.colview().tapes.values()
        assert build_tape(doc, page.colview(), page.records, steps, 0) == tape
        assert kernel_run[1]["fallbacks"] == fallbacks
        assert fallbacks or sum(kernel_run[0]) == 2 * parked
        assert kernel_run == drain(False, memory_limit)
