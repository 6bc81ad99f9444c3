"""Tests for the execution environment: runtime wiring in one place."""

import pytest

from repro import Database, EvalOptions, ReproError
from repro.exec.environment import ExecutionEnvironment
from repro.sim.disk import DiskGeometry, SchedulingPolicy

from tests.conftest import small_database


def test_fresh_context_is_cold():
    db, _ = small_database(seed=0)
    ctx = db.env.fresh_context()
    assert ctx.clock.now == 0.0
    assert ctx.stats.pages_read == 0
    assert ctx.current_frame is None
    assert not ctx.fallback


def test_fresh_contexts_are_independent():
    db, _ = small_database(seed=0)
    a = db.env.fresh_context()
    b = db.env.fresh_context()
    assert a.clock is not b.clock
    assert a.buffer is not b.buffer
    assert a.stats is not b.stats
    a.stats.iterator_calls += round(1.0 / a.costs.iterator_call)  # a second of CPU
    assert a.clock.now > 0.0
    assert b.clock.now == 0.0


def test_view_shares_physical_components():
    db, _ = small_database(seed=1)
    shared = db.env.fresh_context()
    view = db.env.view(shared)
    assert view.clock is shared.clock
    assert view.buffer is shared.buffer
    assert view.iosys is shared.iosys
    assert view.stats is shared.stats
    # ... but has private per-query state
    assert view is not shared
    view.fallback = True
    assert not shared.fallback


def test_view_options_override():
    db, _ = small_database(seed=1)
    shared = db.env.fresh_context()
    opts = EvalOptions(k_min_queue=7)
    assert db.env.view(shared, opts).options.k_min_queue == 7
    assert db.env.view(shared).options is shared.options


def test_geometry_mismatch_rejected():
    db, _ = small_database(seed=0)
    with pytest.raises(ReproError):
        ExecutionEnvironment(db.store.segment, db.store.tags, geometry=DiskGeometry(page_size=8192))


def test_environment_counts_contexts():
    db, _ = small_database(seed=0)
    built = db.env.contexts_built
    db.execute("count(//a)", doc="d")
    assert db.env.contexts_built == built + 1


def test_database_wires_through_environment():
    db = Database(page_size=512, buffer_pages=32, disk_policy=SchedulingPolicy.FIFO)
    assert db.env.buffer_pages == 32
    assert db.env.disk_policy is SchedulingPolicy.FIFO
    assert db.env.segment is db.store.segment
    assert db.geometry is db.env.geometry


# --------------------------------------------------- Database.load sharing


def test_load_shares_constructor_fields(tmp_path):
    """``load`` goes through ``__init__``: a new engine field can never be
    silently missing on the load path."""
    db, _ = small_database(seed=3)
    path = str(tmp_path / "store.rpro")
    db.save(path)
    loaded = Database.load(path, buffer_pages=17)
    assert set(vars(loaded)) == set(vars(db))
    assert loaded.buffer_pages == 17
    assert loaded.env.buffer_pages == 17


def test_load_roundtrip_executes_identically(tmp_path):
    db, _ = small_database(seed=4)
    expected = db.execute("//a/b", doc="d", plan="xscan")
    path = str(tmp_path / "store.rpro")
    db.save(path)
    loaded = Database.load(path)
    result = loaded.execute("//a/b", doc="d", plan="xscan")
    assert result.nodes == expected.nodes


def test_load_rejects_mismatched_geometry(tmp_path):
    db, _ = small_database(seed=4)  # page_size 512
    path = str(tmp_path / "store.rpro")
    db.save(path)
    with pytest.raises(ReproError):
        Database.load(path, geometry=DiskGeometry(page_size=8192))
