"""The reprosan runtime sanitizers: seeded-bug matrix and overhead contract.

Each sanitizer must demonstrably catch its bug class: we *seed* a
deliberate bug (time charged outside both clock buckets, a
run-count-dependent clock, a corrupted incremental repair, a stale
columnar cache, a stale junction in a run tape) and assert the sanitizer
trips on it.  The flip side is
the overhead contract: with ``REPRO_SAN`` unset no sanitizer state
exists, and with it set the
observable outcome — value, counters, simulated timings — is
bit-identical to an unsanitized run.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.algebra.context import EvalContext, EvalOptions
from repro.analysis.sanitize import ALL_MODES, SanitizerError, modes
from repro.model.tree import Kind
from repro.obs.tracer import Tracer
from repro.sim.clock import TICK, SimClock
from repro.storage.nodeid import page_of, slot_of
from repro.storage.record import CoreRecord
from repro.storage.update import update_value
from tests.conftest import small_database

#: forces the scalar navigation path, whose charges flow through the
#: EvalContext.charge_* helpers the charge tests seed bugs into
SCALAR = EvalOptions(batched=False)


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
    assert modes() == frozenset()
    monkeypatch.setenv("REPRO_SAN", "1")
    assert modes() == ALL_MODES
    monkeypatch.setenv("REPRO_SAN", "all")
    assert modes() == ALL_MODES
    monkeypatch.setenv("REPRO_SAN", "charge, mutation")
    assert modes() == frozenset({"charge", "mutation"})
    monkeypatch.setenv("REPRO_SAN", "chrage")
    with pytest.raises(SanitizerError, match="unknown REPRO_SAN mode"):
        modes()


# ------------------------------------------------------- overhead contract


def test_off_allocates_no_shadow_structures():
    db, _ = small_database()
    ctx = db.make_context()
    assert ctx.san is None
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


# --------------------------------------------------------- charge sanitizer


def test_double_charge_breaks_scalar_kernel_agreement(monkeypatch):
    """The oracle for CPU-work counters: the scalar chain books hops
    through ``charge_hop``, the fused kernel as deltas of its own, so a
    double charge at either site breaks the ``==`` between the two that
    tests/property/test_batched_prop.py asserts."""
    db, _ = small_database()

    def hops(batched):
        options = EvalOptions(batched=batched)
        return db.execute("//a/b", doc="d", plan="xscan", options=options).stats.intra_hops

    assert hops(False) == hops(True) > 0
    original = EvalContext.charge_hop

    def double_charge_hop(self):  # seeded bug: the PR 3 shape, one
        original(self)  # logical event charged at two layers
        self.stats.intra_hops += 1

    monkeypatch.setattr(EvalContext, "charge_hop", double_charge_hop)
    assert hops(False) != hops(True)


def test_charge_sanitizer_catches_clock_identity_breach(monkeypatch):
    monkeypatch.setenv("REPRO_SAN", "charge")
    original = EvalContext.charge_hop

    def untracked_time(self):  # seeded bug: now moves outside both buckets
        original(self)
        self.clock.now += 1e-6

    monkeypatch.setattr(EvalContext, "charge_hop", untracked_time)
    db, _ = small_database()
    with pytest.raises(SanitizerError, match="clock identity"):
        db.execute("//a/b", doc="d", plan="xscan", options=SCALAR)


def test_charge_sanitizer_catches_a_duration_created_off_the_grid(monkeypatch):
    """Both buckets move together, so the identity holds — but the clock
    is no longer a whole number of ticks, and exact sums are forfeit."""
    monkeypatch.setenv("REPRO_SAN", "charge")
    original = EvalContext.charge_hop

    def off_grid_hop(self):  # seeded bug: a cost that skipped on_grid()
        original(self)
        self.clock.work(1.25 * TICK)

    monkeypatch.setattr(EvalContext, "charge_hop", off_grid_hop)
    db, _ = small_database()
    with pytest.raises(SanitizerError, match="left the time grid"):
        db.execute("//a/b", doc="d", plan="xscan", options=SCALAR)


# ---------------------------------------------------- determinism sanitizer


def test_determinism_sanitizer_passes_clean_runs(monkeypatch):
    monkeypatch.setenv("REPRO_SAN", "determinism")
    db, _ = small_database()
    result = db.execute("//a/b", doc="d")
    assert result.nodes is not None
    # the re-execution ran on an uncounted shadow runtime
    assert db.env.contexts_built == 1


def test_determinism_sanitizer_catches_run_dependence(monkeypatch):
    db, _ = small_database()
    built = {"n": 0}
    original = SimClock.__init__

    def skewed_init(self):  # seeded bug: every second runtime starts late
        original(self)
        built["n"] += 1
        if built["n"] % 2 == 0:
            self.now = 1e-9

    monkeypatch.setattr(SimClock, "__init__", skewed_init)
    monkeypatch.setenv("REPRO_SAN", "determinism")
    with pytest.raises(SanitizerError, match="clock differs|stats\\."):
        db.execute("//a/b", doc="d")


def test_determinism_trace_diff_is_tick_for_tick():
    from repro.analysis.sanitize.determinism import _diff_events

    first, second = Tracer(), Tracer()
    first.event(0.5, "io", "read", page=3)
    second.event(0.5, "io", "read", page=3)
    _diff_events(first, 0, second)  # identical streams: silent
    first.event(0.7, "io", "read", page=4)
    second.event(0.7, "io", "read", page=5)
    with pytest.raises(SanitizerError, match="trace event 1"):
        _diff_events(first, 0, second)
    second.event(0.8, "io", "read", page=6)
    with pytest.raises(SanitizerError, match="differ in length"):
        _diff_events(first, 0, second)


# ------------------------------------------------------- mutation sanitizer


def test_mutation_sanitizer_catches_stale_synopsis_repair(monkeypatch, tmp_path):
    import repro.storage.wal as walmod

    db, _ = small_database()
    db.attach_wal(str(tmp_path / "wal.log"))
    doc = db.document("d")
    assert doc.synopsis is not None

    def stale_repair(store, document, base, touched):  # seeded bug: the
        document.synopsis = base  # repair "forgets" the touched pages
        return base

    monkeypatch.setattr(walmod, "repair_synopsis", stale_repair)
    monkeypatch.setenv("REPRO_SAN", "mutation")
    with pytest.raises(SanitizerError, match="synopsis"):
        db.wal.insert("d", doc.root, 0, "zzz")


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


# ------------------------------------------------------------ the artifact


def test_failures_land_in_the_report_artifact(monkeypatch, tmp_path):
    report = tmp_path / "reprosan.jsonl"
    monkeypatch.setenv("REPRO_SAN", "charge")
    monkeypatch.setenv("REPRO_SAN_REPORT", str(report))

    original = EvalContext.charge_hop

    def untracked_time(self):
        original(self)
        self.clock.now += 1e-6

    monkeypatch.setattr(EvalContext, "charge_hop", untracked_time)
    db, _ = small_database()
    with pytest.raises(SanitizerError):
        db.execute("//a/b", doc="d", plan="xscan", options=SCALAR)
    lines = report.read_text(encoding="utf-8").splitlines()
    assert lines
    record = json.loads(lines[0])
    assert record["sanitizer"] == "charge"
    assert "clock identity" in record["message"]
