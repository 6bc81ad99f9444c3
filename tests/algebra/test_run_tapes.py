"""Run tapes: an entry run taken in from its memoised transcription.

The path kernel walks a (cluster, path, step)'s entry run level by level
once, charge-free (:func:`repro.algebra.xassembly.build_tape`), and from
then on takes the run in from that tape whenever nothing can observe the
clock inside it.  The level-stack walk stays the reference — an armed
budget, however inert, forces it — and the golden rows
(``tests/golden.py``), the books the scalar chain kept, the oracle of
both: all three must agree with ``==`` on value, node count, every
``Stats`` field and the hex time triple.  A cluster's runs after the
first are taken in place, inside the one replay of the cluster.  The
seams get a test each: the room check under ``memory_limit`` flipping
between the two walks mid-scan, and running out at a run taken in place;
a corrupt page, also under a run taken in place; a shared scan whose
paths end their runs of a cluster apart; tapes across an update, the
per-view bound, two documents sharing a page, an S entry grown over a
tape's own tuple.
"""

import random
import sys

import pytest

import repro.algebra.xassembly as kernel
from repro import Database, EvalOptions, ExecutionBudget, ImportOptions
from repro.algebra.multiscan import _Replay
from repro.algebra.xassembly import DeliveryTapes, XAssembly, build_tape
from repro.algebra.xscan import XScan, speculation_id, step_refusals
from repro.algebra.xschedule import XSchedule
from repro.errors import StorageError
from repro.storage import colview
from repro.storage.nodeid import make_nodeid
from repro.storage.record import BorderRecord, CoreRecord
from repro.storage.store import export_tree
from repro.storage.update import delete_subtree, insert_node
from repro.xpath.reference import evaluate_query
from tests import golden
from tests.conftest import make_random_tree, small_database, speculated

PLANS = ["xscan", "xscan-shared", "xschedule"]
IMPLIED = golden.IMPLIED
#: downward, upward and sibling steps
PATHS = golden.TAPE_PATHS
#: the other paths run over the shared ``store``
YIELDED = ["//a/b", "//c/ancestor::a/b"]
#: an armed budget no run can exhaust: the kernel walks level by level
INERT = ExecutionBudget(max_pages=10**9)


@pytest.fixture(scope="module", params=[0.0, 1.0], ids=["contiguous", "fragmented"])
def store(request):
    """Contiguous: clusters follow their parents, so more entries are
    reachable at intake.  Fragmented: nearly all are parked.  A private
    import: its views start without tapes."""
    held, _ = golden.imported(golden.random_doc(3, request.param))
    return held


@pytest.fixture
def replays(monkeypatch):
    """Counts the runs taken in from a tape, one per run — a cluster's
    first run, then each run its one ``_replay`` takes in place, but the
    one it hands back to the walk (a run taken in place brings its tape
    along, so ``_kept`` sees only the runs that do not) — and whether
    the ``//`` prefix implies each."""
    taken = []
    kernels = {}  # producer -> the kernel replaying its runs
    replay = XAssembly._replay

    def spy(self, tape, run):
        kernels[self.producer] = self
        taken.append(self.descendant_root_opt and run.step == 1)
        back = yield from replay(self, tape, run)
        if back is not None:
            taken.pop()  # taken in place, then walked
        return back

    def spy_take(take):
        def taking(producer):
            run = take(producer)
            if run is not None:
                taken.append(kernels[producer].descendant_root_opt and run.step == 1)
            return run

        return taking

    monkeypatch.setattr(XAssembly, "_replay", spy)
    for producer in (XScan, XSchedule, _Replay):
        monkeypatch.setattr(producer, "take_run", spy_take(producer.take_run))
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
def test_tape_equals_level_stack_equals_scalar_chain(request, store, plan, query, replays):
    """Tape, level-stack walk and the pinned books of the scalar chain."""
    layout = request.node.callspec.id.split("-")[0]
    key = f"tapes/{layout}/{plan}/{PATHS.index(query)}"
    first = golden.check(key, shared=store).result  # builds what tapes are missing
    again = golden.check(key, shared=store).result  # finds them all
    assert replays, "no run was taken in from a tape"
    taken = len(replays)
    walked = golden.check(key, shared=store, budget=INERT).result
    assert len(replays) == taken, "an armed budget must force the level-stack walk"
    assert _observed(first) == _observed(again) == _observed(walked)
    assert first.stats.speculative_instances > first.stats.clusters_visited
    assert any(replays) == (query is IMPLIED and plan != "xschedule")
    # taking a run or a delivery in leaves its tape as it was built
    delivered = False
    for page, _, tape in _cached_tapes(store):
        view = page.colview()
        if isinstance(tape, DeliveryTapes):
            delivered = True
            for start, kept in tape.items():
                rebuilt = build_tape(tape.owner, view, page.records, tape.steps, tape.index, start)
                assert rebuilt == kept
        else:
            assert build_tape(tape.owner, view, page.records, tape.steps, tape.index) == tape
    assert delivered or plan != "xschedule"
    assert _audited_speculations(store, [*PATHS, *YIELDED]) > 0


def _audited_speculations(store, queries) -> int:
    """Every speculation the views keep under a key a scan of ``queries``
    can still look it up by, re-derived from the view's entry lists and
    the path's refusals and compared, run by run — and the tape each run
    caches rebuilt and compared.  Returns how many were audited."""
    db = Database(page_size=store.segment.page_size, buffer_pages=48, store=store)
    document = store.document("d")
    synopsis, _ = EvalOptions().snapshots(document)
    derivations = {}
    for query in queries:
        for plan, _ in db.prepare(query, "d", "xscan").leaves:
            refused = step_refusals(synopsis, plan.steps, plan.postings)[0]
            derivations[speculation_id(store.segment, plan.steps, refused)] = (plan.steps, refused)
    live = set(store.segment.speculation_ids.values())
    audited = 0
    for page_no in document.page_nos:
        page = store.segment.page(page_no)
        view = page._colview
        for key, (runs, *pruned) in view.speculations.items() if view else ():
            if key not in live:
                continue  # interned no more: no scan looks it up again
            got = [(r.step, r.slots, r.synopsis_pruned, r.postings_pruned) for r in runs]
            assert got + [(None, None, *pruned)] == speculated(view, *derivations[key])
            assert {run.page_no for run in runs} <= {page_no}
            for run in runs:
                tape = run.tape
                if tape is not None:
                    assert tape.index == run.step
                    assert build_tape(tape.owner, view, page.records, tape.steps, run.step) == tape
            audited += 1
    return audited


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
        while (nid := top.next()) is not None:
            seen.append((nid, ctx.clock.now.hex(), ctx.stats.as_dict()))
    finally:
        top.close()
        ctx.release()
        if armed:
            ctx.disarm_budget()
    return seen


@pytest.mark.parametrize("plan", ["xscan", "xschedule"])
@pytest.mark.parametrize("query", [*YIELDED, IMPLIED])
def test_every_yield_sees_the_level_stack_walks_clock_and_counters(store, plan, query, replays):
    """Results activated in the middle of a run taken in from its tape
    leave the kernel at the instant, and with the counters posted, that
    the level-stack walk leaves them with."""
    tape = _yields(store, query, plan)
    assert replays and len(tape) >= 4
    assert tape == _yields(store, query, plan, budget=INERT)


class _Parking(dict):
    """S, counting the outcomes parked into it (an entry is grown by
    replacing it, so every park is one assignment)."""

    parked = 0

    def __setitem__(self, key, outcomes):
        self.parked += len(outcomes) - len(self.get(key, ()))
        super().__setitem__(key, outcomes)


def test_both_intakes_are_exercised(monkeypatch, replays):
    """Activated at intake where clusters follow their parents, parked
    by reference where they do not — and some of each on either layout,
    so neither half of the three-way test is vacuous.  Every outcome of
    a run taken off a tape is either parked in S or activated at intake
    — a ``merges`` of its own — so the outcomes S did not take are the
    ones activated, and the run's ``merges`` count at least those."""
    tapes = []  # every tape a run was taken in from
    kernels = []  # every kernel the run opens
    keep = XAssembly._kept
    open_ = XAssembly.open

    def keep_spy(self, view, records, step):
        tape = keep(self, view, records, step)
        if tape is not None:
            tapes.append(tape)
        return tape

    def open_spy(self):
        self._s = _Parking()
        kernels.append(self)
        open_(self)

    monkeypatch.setattr(XAssembly, "_kept", keep_spy)
    monkeypatch.setattr(XAssembly, "open", open_spy)
    at_intake = {}
    for fragmentation in (0.0, 1.0):
        db, _ = small_database(seed=3, page_size=512, fragmentation=fragmentation, n_top=25)
        del replays[:], tapes[:], kernels[:]
        _run(db.store, "/root/a/b/c", "xscan")
        outcomes = sum(len(walked[1]) for tape in tapes for walked in tape.walked)
        activated = outcomes - sum(kernel._s.parked for kernel in kernels)
        assert 0 < activated < outcomes, fragmentation
        assert sum(kernel.ctx.stats.merges for kernel in kernels) >= activated, fragmentation
        at_intake[fragmentation] = activated / outcomes
    assert at_intake[0.0] > at_intake[1.0]


@pytest.mark.parametrize("plan", PLANS)
def test_room_check_flips_between_the_walks_mid_scan(
    request, store, plan, replays, monkeypatch
):
    """Under ``memory_limit`` a run is taken in from its tape only while
    S has room for all of it: early runs are, a later one is walked and
    trips inside the run, and every observable is the pinned one."""
    layout = request.node.callspec.id.split("-")[0]
    trips = []  # per trip: entries of the run being walked still to come
    enter_fallback = XAssembly._enter_fallback

    def spy(self):
        entries = self._iter.gi_frame.f_locals["entries"]
        trips.append(None if entries is None else entries.__length_hint__())
        enter_fallback(self)

    monkeypatch.setattr(XAssembly, "_enter_fallback", spy)
    flipped = []
    keys = [key for key, _ in golden.rows("room") if key.startswith(f"room/{layout}/{plan}/")]
    assert len(keys) >= 5
    for key in keys:
        del replays[:]
        del trips[:]
        tape = golden.check(key, shared=store).result
        taken = len(replays)
        if tape.stats.fallbacks and taken:
            assert trips[0] is not None, "the trip did not land inside a run"
            flipped.append(trips[0])
    assert flipped, "no limit let some runs through their tapes and then tripped"
    assert any(flipped), "no trip with entries of the run still to come"


@pytest.fixture
def handed_back(monkeypatch):
    """``(page_no, step)`` of every run ``_replay`` takes in place but
    cannot take in from a tape, and so hands back to the walk."""
    handed = []
    replay = XAssembly._replay

    def spy(self, tape, run):
        back = yield from replay(self, tape, run)
        if back is not None:
            handed.append((back.page_no, back.step))
        return back

    monkeypatch.setattr(XAssembly, "_replay", spy)
    return handed


@pytest.mark.parametrize("plan", PLANS)
def test_a_later_run_without_room_is_handed_back_and_trips_in_the_walk(
    request, store, plan, handed_back, monkeypatch
):
    """``memory_limit`` leaves room for the first runs of a cluster but
    not for one taken in place after them: the replay settles, hands
    that run back, and the level-stack walk trips on the outcome it
    trips on without tapes — the books are the walk's and the row's."""
    layout = request.node.callspec.id.split("-")[0]
    trips = []  # per trip: (page_no, step) of the run being walked
    enter_fallback = XAssembly._enter_fallback

    def spy(self):
        walking = self._iter.gi_frame.f_locals
        trips.append((walking["page_no"], walking["s_l"]))
        enter_fallback(self)

    monkeypatch.setattr(XAssembly, "_enter_fallback", spy)
    landed = 0
    for key, _ in golden.rows("room"):
        if not key.startswith(f"room/{layout}/{plan}/"):
            continue
        del handed_back[:], trips[:]
        tape = golden.check(key, shared=store).result
        if not handed_back:
            continue
        assert trips == handed_back[-1:], key
        landed += 1
        walked = golden.check(key, shared=store, budget=INERT).result
        assert _observed(tape) == _observed(walked), key
    assert landed, "no limit ran out of room at a run taken in place"


def test_a_shared_scan_path_ends_its_runs_of_a_cluster_before_the_other(
    monkeypatch, replays
):
    """Two paths of different length over one shared scan: on a cluster
    where both take runs in place, the shorter path's runs are spent
    (``take_run`` gives None) while the other still has some to take.
    Each path's kernel drains its own runs, and the books are the
    walk's and the row's."""
    taken = {}  # (path's replay, page_no) -> runs taken in place, until None
    take = _Replay.take_run

    def spy(self):
        run = take(self)
        key = (self, self.ctx.current_frame.page.page_no)
        if run is not None:
            assert run.page_no == key[1]
            taken[key] = taken.get(key, 0) + 1
        return run

    monkeypatch.setattr(_Replay, "take_run", spy)
    key = "shared/reopen"
    held, _ = golden.imported(golden.ENTRY_DOC)
    tape = golden.check(key, shared=held).result
    assert replays
    sources = {source for source, _ in taken}
    assert len(sources) == 2, "both paths take runs in place"
    uneven = [
        page_no
        for page_no in {page_no for _, page_no in taken}
        if len({taken.get((source, page_no), 0) for source in sources}) == 2
    ]
    assert uneven, "no cluster where one path's runs end before the other's"
    walked = golden.check(key, shared=held, budget=INERT).result
    assert _observed(tape) == _observed(walked)


def test_golden_rows_come_off_the_tapes(replays):
    """The paper's queries at sf 0.05, on a private import: the tapes
    are built and replayed within these runs."""
    held, _ = golden.imported(golden.PAPER_DOC)
    keys = [key for key, _ in golden.rows("paper")]
    assert len(keys) == 15
    for key in keys:
        golden.check(key, shared=held)
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
    assert not [run.tape for runs, *_ in page.colview().speculations.values() for run in runs
                if run.tape is not None]  # fmt: skip
    kept = {p.page_no for p, _, _ in _cached_tapes(store)}
    assert kept and max(kept) < page.page_no
    assert _raising_run(store, query) == cold  # the clean clusters off their tapes
    monkeypatch.setattr(XAssembly, "_tape", lambda self, run: None)
    assert _raising_run(store, query) == cold  # every run walked level by level


def test_a_corrupt_page_fails_a_run_taken_in_place_where_the_walk_does(monkeypatch):
    """A cluster whose first run comes off its tape and whose second
    step's tape build raises: the replay settles the first, hands the
    second back, and the walk raises the same error at the same point
    with the same ``Stats`` and clock as a scan that walks every run."""
    db, _ = small_database(seed=3, page_size=512, fragmentation=1.0, n_top=25)
    store = db.store
    query = "/root/a/b/c"
    failed = []  # (page_no, step) of each tape build that raised inside a take
    build = kernel.build_tape

    def spy(owner, view, records, steps, index, start=None):
        try:
            return build(owner, view, records, steps, index, start)
        except ValueError:
            if sys._getframe(2).f_code is XAssembly._replay.__code__:
                failed.append((view.page_no, index))
            raise

    monkeypatch.setattr(kernel, "build_tape", spy)
    # the first down border whose lost companion only the second step's
    # walk runs into, on a cluster that runs the first step too
    for page_no in store.document("d").page_nos:
        page = store.segment.page(page_no)
        downs = [r for r in page.records if isinstance(r, BorderRecord) and r.down]
        for border in downs:
            companion, border.companion = border.companion, None
            page.invalidate_colview()
            del failed[:]
            try:
                _run(store, query, "xscan")
            except ValueError:
                if failed == [(page_no, 1)]:
                    break
            border.companion = companion
            page.invalidate_colview()
        else:
            continue
        break
    assert failed == [(page_no, 1)], "no corrupt border fails a run taken in place"
    del failed[:]
    cold = _raising_run(store, query)
    assert _raising_run(store, query) == cold  # the clean runs off their tapes
    assert failed == [(page_no, 1)] * 2
    monkeypatch.setattr(XAssembly, "_tape", lambda self, run: None)
    assert _raising_run(store, query) == cold  # every run walked level by level


# ---------------------------------------------------------- across an update


def test_warm_session_rebuilds_tapes_on_touched_pages_only(monkeypatch, tmp_path):
    """Query, update, query through one warm session: tapes die with the
    views the update drops and with no other (under a WAL the synopsis is
    repaired, so the same runs are speculated before and after)."""
    built = []
    build = kernel.build_tape

    def spy(owner, view, records, steps, index, start=None):
        # (the kernel's builds only: armed, the mutation sanitizer
        # rebuilds every cached tape after an update)
        if sys._getframe(1).f_code is XAssembly._kept.__code__:
            built.append(view.page_no)
        return build(owner, view, records, steps, index, start)

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
    for query in queries:
        golden.check(f"bounded/{query}", shared=db.store)
    views = [p.colview() for p in map(db.store.segment.page, db.document("d").page_nos)]
    assert 0 < max(len(view.tapes) for view in views) <= 4, "twelve paths of three steps ran"
    assert 0 < max(len(view.speculations) for view in views) <= 4
    assert replays
    for query in queries:
        golden.check(f"bounded/{query}", shared=db.store)


# ---------------------------------------------------- the one extension memo


@pytest.mark.parametrize("plan", ["simple", "xschedule"])
def test_a_tape_reads_what_navigation_memoised(plan, monkeypatch):
    """Walker, kernel and ``build_tape`` share one extension memo per view
    (``ColumnView.step_memo``, under the step's ``memo_key``): a tape
    built after a navigating run of the same path computes no extension
    that run memoised, and grows the memo by none of its own."""
    query = "count(//a/b/c)"
    build = kernel.build_tape
    extension = colview.ColumnView.extension
    building = {}  # (match_batch, axis) -> memo_key of the steps of the run being taped
    computed, held, grown = [], [], []

    def spy_extension(view, match_batch, slot, axis, resumed):
        if sys._getframe(1).f_code is build.__code__ and building:
            computed.append(slot)
            memo = view._flag_cache.get(building[match_batch, axis], {})
            held.append(slot << 1 | resumed in memo)
        return extension(view, match_batch, slot, axis, resumed)

    def spy_build(owner, view, records, steps, index, start=None):
        # (a delivery tape fills the memo, as the walk it replaces would)
        building.clear()
        if start is not None:
            return build(owner, view, records, steps, index, start)
        building.update({(step.match_batch, step.axis): step.memo_key for step in steps})
        sizes = {key: len(memo) for key, memo in view._flag_cache.items()}
        tape = build(owner, view, records, steps, index)
        grown.append({key: len(memo) for key, memo in view._flag_cache.items()} != sizes)
        building.clear()
        return tape

    monkeypatch.setattr(colview.ColumnView, "extension", spy_extension)
    monkeypatch.setattr(kernel, "build_tape", spy_build)
    tapes_computed = []
    for navigate_first in (False, True):
        del computed[:]
        db, _ = small_database(seed=3, page_size=512, fragmentation=1.0, n_top=25)
        if navigate_first:
            navigated = db.execute(query, doc="d", plan=plan).value
            assert db.execute(query, doc="d", plan="xscan").value == navigated
        else:
            db.execute(query, doc="d", plan="xscan")
        tapes_computed.append(len(computed))
    assert not any(held), "a tape computed an extension the memo held"
    assert not any(grown), "a tape filled the shared memo"
    cold, after_navigation = tapes_computed
    assert 0 < after_navigation < cold


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


def test_an_s_entry_is_grown_by_replacing_it():
    """The same run delivered twice.  With room for both, the second
    tape intake doubles the S entries the first parked as the tape's own
    tuples; short of room, it is walked level by level and grows them
    outcome by outcome until it trips.  Either way the tape comes out
    as it was built and the books are the pinned ones."""
    for name, fallbacks in (("unlimited", 0), ("tight", 1)):
        db = golden.database(golden.TWICE_DOC, shared=golden.imported(golden.TWICE_DOC)[0])
        doc = db.document("d")
        page, steps, parked = golden.twice_setup(db)
        assert parked >= 4
        limit = None if fallbacks == 0 else parked + parked // 2
        held, booked = golden.drain_twice(db, page, steps, limit)
        (tape,) = page.colview().tapes.values()
        assert build_tape(doc.path_ids, page.colview(), page.records, steps, 0) == tape
        assert booked[2]["fallbacks"] == fallbacks
        assert fallbacks or sum(held) == 2 * parked
        assert golden.other(f"twice/{name}") == golden.row(f"twice/{name}")
