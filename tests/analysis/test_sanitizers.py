"""Seeded-bug matrix: each bug class and the oracle that catches it.

We *seed* a deliberate bug and assert its oracle trips on it.  Counters
booked wrong (doubled, or a crossing left unbooked) move the clock with
them, since it reads CPU seconds off the counters: the golden books
catch those.  A duration created off the time grid is refused where the
clock would wait for it (:class:`~repro.errors.OffGridTimeError`, one
test per blocking read).  A run-count-dependent clock moves a golden
draw run twice in one process (``python -m tests.golden --replay``).
The mutation sanitizer catches a corrupted incremental repair (after a
logged and after a bare update), a synopsis or summary edited in place
under its memo, a stale columnar cache, and a stale junction in a run
tape or a delivery tape.  Its overhead contract: with ``REPRO_SAN``
unset no sanitizer state exists, and with it set the observable outcome
— value, counters, simulated timings — is bit-identical to an
unsanitized run.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.algebra.context import EvalOptions
from repro.algebra.xassembly import XAssembly, build_tape
from repro.algebra.xscan import XScan
from repro.analysis.sanitize import SanitizerError
from repro.errors import OffGridTimeError
from repro.model.tree import Kind
from repro.obs.tracer import Tracer
from repro.sim.clock import SimClock
from repro.sim.costmodel import CostModel
from repro.sim.disk import DiskDevice
from repro.sim.faults import FaultPlan, FaultProfile
from repro.sim.iosys import AsyncIOSystem
from repro.sim.stats import Stats
from repro.storage.buffer import BufferManager
from repro.storage.nodeid import page_of, slot_of
from repro.storage.record import CoreRecord
from repro.storage.update import update_value
from tests import golden
from tests.conftest import small_database


@pytest.fixture(autouse=True)
def _sanitizers_off(monkeypatch):
    """Each test opts in explicitly; none inherits the runner's env."""
    monkeypatch.delenv("REPRO_SAN", raising=False)
    monkeypatch.delenv("REPRO_SAN_REPORT", raising=False)


def _find_text_node(db, doc_name="d"):
    doc = db.document(doc_name)
    for page_no in doc.page_nos:
        page = db.store.segment.page(page_no)
        for slot, record in enumerate(page.records):
            if isinstance(record, CoreRecord) and record.kind == Kind.TEXT:
                from repro.storage.nodeid import make_nodeid

                return make_nodeid(page_no, slot)
    raise AssertionError("random document unexpectedly has no text node")


# ------------------------------------------------------------ mode parsing


def test_modes_parsing(monkeypatch):
    """``REPRO_SAN`` arms the sanitizer when set (``1`` and ``mutation``
    alike); unset, a stale columnar cache goes unchecked."""
    for value in (None, "1", "mutation"):
        db, _ = small_database()
        nid = _find_text_node(db)
        db.store.segment.page(page_of(nid)).colview().tags[slot_of(nid)] += 1
        if value is None:
            update_value(db.store, nid, "x")
            continue
        monkeypatch.setenv("REPRO_SAN", value)
        with pytest.raises(SanitizerError, match="column view"):
            update_value(db.store, nid, "x")


# ------------------------------------------------------- overhead contract


def test_off_allocates_no_shadow_structures():
    db, _ = small_database()
    ctx = db.make_context()
    assert ctx.tracer is None
    result = db.execute("count(/root/a)", doc="d")
    assert result.trace_summary is None


def test_sanitized_run_is_bit_identical(monkeypatch):
    db, _ = small_database()
    plain = db.execute("//a/b", doc="d", plan="xscan")
    monkeypatch.setenv("REPRO_SAN", "1")
    db2, _ = small_database()
    sanitized = db2.execute("//a/b", doc="d", plan="xscan")
    assert sanitized.nodes == plain.nodes
    assert sanitized.total_time == plain.total_time
    assert sanitized.cpu_time == plain.cpu_time
    assert sanitized.io_wait == plain.io_wait
    assert sanitized.stats.as_dict() == plain.stats.as_dict()
    assert sanitized.trace_summary is None


def test_user_tracer_still_surfaces_under_sanitizers(monkeypatch):
    monkeypatch.setenv("REPRO_SAN", "1")
    db, _ = small_database()
    db.env.tracer = Tracer()
    result = db.execute("count(/root/a)", doc="d")
    assert result.trace_summary is not None
    assert result.trace_summary.counters == result.stats.as_dict()


# ------------------------------------------------------------ golden books


def test_double_charge_breaks_scalar_kernel_agreement(monkeypatch):
    """The oracle for CPU-work counters is the golden file: the books the
    scalar chain kept, which the kernel must keep with ``==``.  A doubled
    hop charge in the kernel moves a golden row; without it the row
    holds."""
    key = "runs/xscan/0"
    golden.check(key)

    def double_hops(*args):  # seeded bug: every hop of a run charged twice
        tape = build_tape(*args)
        hops, *rest = tape.totals
        return tape._replace(totals=(2 * hops, *rest))

    monkeypatch.setattr("repro.algebra.xassembly.build_tape", double_hops)
    held, _ = golden.imported(golden.row(key)["draw"]["doc"])  # views without tapes
    with pytest.raises(AssertionError, match=key):
        golden.check(key, shared=held)


def test_skipped_io_request_moves_a_golden_row(monkeypatch):
    """``io_requests`` prices nothing, so the identity cannot see a disk
    submission that forgets it; the golden books can."""
    key = "runs/xscan/0"
    golden.check(key)
    submit = DiskDevice.submit
    read_sync = DiskDevice.read_sync

    def uncounted_submit(self, page, now):  # seeded bug: the submission
        request = submit(self, page, now)  # is not counted
        self.stats.io_requests -= 1
        return request

    def uncounted_read(self, page, now):  # nor is a read an idle disk
        done = read_sync(self, page, now)  # serves in the call
        if done is not None:
            self.stats.io_requests -= 1
        return done

    monkeypatch.setattr(DiskDevice, "submit", uncounted_submit)
    monkeypatch.setattr(DiskDevice, "read_sync", uncounted_read)
    with pytest.raises(AssertionError, match=key):
        golden.check(key)


def test_miss_without_a_read_moves_a_golden_row(monkeypatch):
    """A buffer hit also booked as a miss: the pairing of misses with
    reads is the golden books' to keep."""
    key = "predicate/00"
    golden.check(key)
    fix = BufferManager.fix

    def miss_on_hit(self, page_no):  # seeded bug: a miss counted
        resident = self.is_resident(page_no)  # with no read behind it
        frame = fix(self, page_no)
        if resident:
            self.stats.buffer_misses += 1
        return frame

    monkeypatch.setattr(BufferManager, "fix", miss_on_hit)
    with pytest.raises(AssertionError, match=key):
        golden.check(key)


def test_a_doubled_logical_read_moves_a_golden_row(monkeypatch):
    """A read booked twice prices an extra ``io_submit`` onto the clock;
    the clock reads it off the counters, so only the golden books can
    tell it from a real second read."""
    key = "runs/xschedule/0"
    golden.check(key)
    request = AsyncIOSystem.request

    def doubled_request(self, page):  # seeded bug: one logical read,
        issued = request(self, page)  # two pages_requested
        if issued:
            self.stats.pages_requested += 1
        return issued

    monkeypatch.setattr(AsyncIOSystem, "request", doubled_request)
    with pytest.raises(AssertionError, match=key):
        golden.check(key)


def test_an_unbooked_take_in_place_moves_a_golden_row(monkeypatch):
    """A run the path kernel takes in place stands for a pull and owes
    its crossing.  Seeded bug: the take's ``iterator_call`` is not
    booked, so neither the counter nor the clock sees the crossing; the
    golden books do."""
    key = "runs/xscan/0"
    golden.check(key)
    take = XScan.take_run
    taken = []

    def uncounted_take(self):  # seeded bug: the crossing is not booked
        run = take(self)
        if run is not None:
            taken.append(run)
            self.ctx.stats.iterator_calls -= 1
        return run

    monkeypatch.setattr(XScan, "take_run", uncounted_take)
    with pytest.raises(AssertionError, match=key):
        golden.check(key)
    assert taken


def test_unbooked_delivery_tape_crossings_move_a_golden_row(monkeypatch):
    """Deliveries taken in from their tapes book the level crossings of
    the first pull of a held cluster.  Seeded bug: those crossings are
    not booked; the golden books catch it."""
    key = "deliveries/fragmented/0/k1"
    golden.check(key)
    deliveries = XAssembly._deliveries
    dropped = []

    def uncounted_crossings(self, entry):  # seeded bug: the pull's crossings are not booked
        if not dropped and self.schedule._q.get(self.schedule._current):
            dropped.append(entry)
            self.ctx.stats.iterator_calls -= len(self.steps)
        return (yield from deliveries(self, entry))

    monkeypatch.setattr(XAssembly, "_deliveries", uncounted_crossings)
    with pytest.raises(AssertionError, match=key):
        golden.check(key)
    assert dropped


# ---------------------------------------------------- time off the grid


def _off_grid_disk(monkeypatch) -> None:
    """Seeded bug: the disk's service durations skip ``on_grid()``."""
    monkeypatch.setattr("repro.sim.disk.on_grid", lambda seconds: seconds)


def _io_stack(faults=None):
    clock = SimClock(Stats(), CostModel())
    disk = DiskDevice(stats=clock.stats, faults=faults)
    return AsyncIOSystem(disk, clock), clock


def test_an_off_grid_read_served_in_the_call_is_refused(monkeypatch):
    """An idle disk serves a synchronous read in the submitting call; a
    done time off the grid is refused where the clock would wait for
    it, before ``io_wait`` leaves the grid."""
    _off_grid_disk(monkeypatch)
    iosys, clock = _io_stack()
    with pytest.raises(OffGridTimeError, match="off the time grid"):
        iosys.read_sync(100)
    assert iosys.outstanding() == 0  # never filed: served in the call
    assert clock.io_wait == 0.0


def test_an_off_grid_completion_is_refused(monkeypatch):
    _off_grid_disk(monkeypatch)
    iosys, clock = _io_stack()
    iosys.request(10)
    with pytest.raises(OffGridTimeError):
        iosys.get_completion()
    assert clock.io_wait == 0.0


def test_an_off_grid_completion_in_the_sync_drain_loop_is_refused(monkeypatch):
    """A synchronous read behind an asynchronous one drains completions
    until its own: the first it waits for is off the grid."""
    _off_grid_disk(monkeypatch)
    iosys, clock = _io_stack()
    iosys.request(10)
    with pytest.raises(OffGridTimeError):
        iosys.read_sync(500)
    assert iosys.outstanding() == 2  # filed for the drain loop
    assert clock.io_wait == 0.0


def test_an_off_grid_blocking_backoff_is_refused(monkeypatch):
    """The same bug in the retry policy: a backoff delay that skips
    ``on_grid()`` is refused when a synchronous read blocks through it."""
    monkeypatch.setattr("repro.sim.faults.on_grid", lambda seconds: seconds)
    faults = FaultPlan(FaultProfile(dead_pages=frozenset({7}), dead_services=1))
    iosys, clock = _io_stack(faults)
    with pytest.raises(OffGridTimeError):
        iosys.read_sync(7)
    assert clock.stats.retries == 1  # the failed service was waited for
    assert clock.io_wait > 0.0


def test_an_off_grid_disk_moves_golden_rows(monkeypatch):
    """Through the engine, the refusal is a raised draw: the row moves."""
    _off_grid_disk(monkeypatch)
    key = "runs/xscan/0"
    with pytest.raises(AssertionError, match=key):
        golden.check(key)
    assert isinstance(golden.run(golden.row(key)["draw"]).error, OffGridTimeError)


# ------------------------------------------------------------- replay


def test_a_replayed_draw_is_its_row_twice():
    """``--replay``'s check of one traced draw: both runs are the row,
    and their event streams agree tick for tick."""
    golden.replay("runs/xscan/2/traced")


def test_a_run_count_dependent_clock_moves_a_replayed_draw(monkeypatch):
    built = {"n": 0}
    original = SimClock.__init__

    def skewed_init(self, stats, costs):  # seeded bug: every second runtime starts late
        original(self, stats, costs)
        built["n"] += 1
        if built["n"] % 2 == 0:
            self.io_wait = 1e-9

    monkeypatch.setattr(SimClock, "__init__", skewed_init)
    key = "runs/xscan/2/traced"
    golden.check(key)  # the first runtime of the process starts on time
    with pytest.raises(AssertionError, match=key):
        golden.replay(key)  # the second does not


def test_determinism_trace_diff_is_tick_for_tick():
    first, second = Tracer(), Tracer()
    first.event(0.5, "io", "read", page=3)
    second.event(0.5, "io", "read", page=3)
    golden.same_events(first, second)  # identical streams: silent
    first.event(0.7, "io", "read", page=4)
    second.event(0.7, "io", "read", page=5)
    with pytest.raises(AssertionError, match="trace event 1"):
        golden.same_events(first, second)
    second.event(0.8, "io", "read", page=6)
    with pytest.raises(AssertionError, match="differ in length"):
        golden.same_events(first, second)


# ------------------------------------------------------- mutation sanitizer


def test_mutation_sanitizer_catches_stale_synopsis_repair(monkeypatch, tmp_path):
    import repro.storage.update as update

    db, _ = small_database()
    db.attach_wal(str(tmp_path / "wal.log"))
    doc = db.document("d")

    def stale_repair(store, document, touched):  # seeded bug: the repair
        pass  # "forgets" the touched pages

    monkeypatch.setattr(update, "repair_synopsis", stale_repair)
    monkeypatch.setenv("REPRO_SAN", "mutation")
    with pytest.raises(SanitizerError, match="synopsis"):
        db.wal.insert("d", doc.root, 0, "zzz")


def test_mutation_sanitizer_checks_bare_updates(monkeypatch):
    """A bare (WAL-less) insert goes through the same maintenance step:
    with its synopsis repair taken out, the sanitizer trips on it too."""
    import repro.storage.update as update

    db, _ = small_database()
    doc = db.document("d")
    monkeypatch.setattr(update, "repair_synopsis", lambda store, document, touched: None)
    monkeypatch.setenv("REPRO_SAN", "mutation")
    with pytest.raises(SanitizerError, match="synopsis"):
        update.insert_node(db.store, doc, doc.root, 0, "zzz")


def test_mutation_sanitizer_catches_a_synopsis_edited_in_place(monkeypatch, tmp_path):
    """A repair that writes the touched rows into the live synopsis gets
    every row right, so the rows diff passes; the cluster bitsets the
    synopsis memoised before the write are what give it away."""
    import repro.storage.update as update
    from repro.storage.synopsis import ClusterSynopsis

    db, _ = small_database()
    db.attach_wal(str(tmp_path / "wal.log"))
    doc = db.document("d")
    for query in ("count(//a/b)", "count(//c)"):
        db.execute(query, doc="d", plan="xscan")  # masks memoised on doc.synopsis
    db.execute("count(//a)", doc="d", plan="auto")  # and the estimator's bitsets
    assert doc.synopsis._memo

    def repair_in_place(store, document, touched):  # seeded bug: rows
        for page_no in document.page_nos:  # written in place, memo kept
            document.synopsis._rows[page_no] = ClusterSynopsis.collect_row(
                store.segment.page(page_no)
            )

    monkeypatch.setattr(update, "repair_synopsis", repair_in_place)
    monkeypatch.setenv("REPRO_SAN", "mutation")
    with pytest.raises(SanitizerError, match="memoised cluster bitset"):
        for i in range(20):  # c's land in more and more clusters
            parent = db.execute("//b", doc="d", plan="simple").nodes[i]
            db.wal.insert("d", parent, 0, "c")


@pytest.mark.parametrize("diffed", (True, False))
def test_mutation_sanitizer_catches_a_summary_edited_in_place(monkeypatch, tmp_path, diffed):
    """A repair that writes the patched trie into the live summary gets
    every table right, so the full-recollection diff passes; the path
    evaluations the summary memoised before the write are what give it
    away — and only the memo diff sees them."""
    import repro.analysis.sanitize.mutation as mutation
    import repro.storage.update as update
    from repro.storage.pathsummary import PathSummary

    db, _ = small_database()
    db.attach_wal(str(tmp_path / "wal.log"))
    doc = db.document("d")
    db.execute("count(//a/b)", doc="d", plan="auto")  # evaluations memoised
    assert doc.pathsummary._memo

    def repair_in_place(store, document, touched):  # seeded bug: the
        base = document.pathsummary
        rows = {p: PathSummary.collect_row(store.segment, store.segment.page(p))
                for p in touched if p in document.page_nos}
        right = base.patched(rows)
        for name in PathSummary.__slots__:
            if name != "_memo":
                setattr(base, name, getattr(right, name))  # trie edited, memo kept

    monkeypatch.setattr(update, "repair_pathsummary", repair_in_place)
    if not diffed:
        monkeypatch.setattr(mutation, "check_evaluations", lambda summary: None)
    monkeypatch.setenv("REPRO_SAN", "mutation")
    parent = db.execute("//a", doc="d", plan="simple").nodes[0]
    if diffed:
        with pytest.raises(SanitizerError, match="memoised path evaluation"):
            db.wal.insert("d", parent, 0, "b")
    else:
        db.wal.insert("d", parent, 0, "b")  # the other diffs miss it


def test_mutation_sanitizer_passes_real_repair(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_SAN", "mutation")
    db, _ = small_database()
    db.attach_wal(str(tmp_path / "wal.log"))
    doc = db.document("d")
    nid = db.wal.insert("d", doc.root, 0, "zzz")
    assert db.execute("count(//zzz)", doc="d").value == 1.0
    assert db.wal.delete("d", nid) == 1


def test_mutation_sanitizer_catches_stale_colview(monkeypatch):
    db, _ = small_database()
    nid = _find_text_node(db)
    page = db.store.segment.page(page_of(nid))
    view = page.colview()  # build and cache the columnar mirror
    view.tags[slot_of(nid)] += 1  # seeded bug: a cache gone stale
    monkeypatch.setenv("REPRO_SAN", "mutation")
    with pytest.raises(SanitizerError, match="column view"):
        update_value(db.store, nid, "x")


def test_mutation_sanitizer_catches_stale_junction_in_a_run_tape(monkeypatch):
    """A relocation re-patches the *remote* border's companion in place;
    the page holding that border keeps its arrays but not its junctions,
    which only its run tapes remember."""
    import repro.storage.update as update

    def patch_and_keep_the_view(page, border, companion):  # seeded bug:
        border.companion = companion  # the invalidate_colview is dropped

    db, _ = small_database(seed=3, page_size=256, fragmentation=1.0, n_top=12)
    doc = db.document("d")

    def relocating_inserts(seed):
        rng = random.Random(seed)
        for _ in range(12):
            db.execute("count(//a/b)", doc="d", plan="xscan")  # tapes warm everywhere
            parent = rng.choice(db.execute("//*", doc="d", plan="simple").nodes)
            update.insert_node(db.store, doc, parent, 0, "zzz")

    monkeypatch.setenv("REPRO_SAN", "mutation")
    relocating_inserts(0)  # the real invalidate: clean
    monkeypatch.setattr(update, "_patch_companion", patch_and_keep_the_view)
    with pytest.raises(SanitizerError, match="run tape"):
        relocating_inserts(1)


def test_mutation_sanitizer_catches_stale_junction_in_a_delivery_tape(monkeypatch):
    """The same dropped invalidate under navigation: the junctions a
    page's delivery tapes remember go stale with the remote companion."""
    import repro.storage.update as update

    def patch_and_keep_the_view(page, border, companion):  # seeded bug:
        border.companion = companion  # the invalidate_colview is dropped

    db, _ = small_database(seed=3, page_size=256, fragmentation=1.0, n_top=12)
    doc = db.document("d")
    options = EvalOptions(k_min_queue=1)

    def relocating_inserts(seed):
        rng = random.Random(seed)
        for _ in range(12):
            # delivery tapes warm on every cluster the path enters
            db.execute("count(//a//b)", doc="d", plan="xschedule", options=options)
            parent = rng.choice(db.execute("//*", doc="d", plan="simple").nodes)
            update.insert_node(db.store, doc, parent, 0, "zzz")

    monkeypatch.setenv("REPRO_SAN", "mutation")
    relocating_inserts(0)  # the real invalidate: clean
    monkeypatch.setattr(update, "_patch_companion", patch_and_keep_the_view)
    with pytest.raises(SanitizerError, match="delivery tape"):
        relocating_inserts(1)


# ------------------------------------------------------------ the artifact


def test_failures_land_in_the_report_artifact(monkeypatch, tmp_path):
    report = tmp_path / "reprosan.jsonl"
    db, _ = small_database()
    nid = _find_text_node(db)
    view = db.store.segment.page(page_of(nid)).colview()
    view.tags[slot_of(nid)] += 1  # seeded bug: a cache gone stale
    monkeypatch.setenv("REPRO_SAN", "mutation")
    monkeypatch.setenv("REPRO_SAN_REPORT", str(report))
    with pytest.raises(SanitizerError):
        update_value(db.store, nid, "x")
    lines = report.read_text(encoding="utf-8").splitlines()
    assert lines
    record = json.loads(lines[0])
    assert record["sanitizer"] == "mutation"
    assert "column view" in record["message"]
