"""The cyclic garbage collector and the store.

The two bulk builders — an import and a load — run with the collector
paused (:func:`repro.storage.store.collector_paused`).  That is safe
because they make no reference cycles, and it defers nothing because the
program leaves no cyclic garbage of its own: a finished query frees its
context, and a dropped store is freed by reference counting.
"""

import gc
import weakref
import zlib

import pytest

from repro import Database, ImportOptions
from repro.errors import StorageError, StoreCorruptError
from repro.model.builder import tree_from_nested
from repro.storage import DocumentStore, persist, store as store_module
from repro.storage.persist import load_store, save_store

from tests.conftest import make_random_tree, small_database

PLANS = ("simple", "xschedule", "xscan", "auto")
QUERIES = ("count(//*)", "/*/*/*", "//*/..")


@pytest.fixture
def collector_off():
    """The collector disabled and every earlier cycle collected; its
    state and debug flags are put back afterwards."""
    was = gc.isenabled()
    gc.disable()
    gc.collect()
    yield
    gc.set_debug(0)
    if was:
        gc.enable()


@pytest.fixture
def collector_on():
    was = gc.isenabled()
    gc.enable()
    yield
    if not was:
        gc.disable()


def cyclic_garbage() -> list[str]:
    """The type names of what a collection finds unreachable now."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        found = sorted({type(obj).__name__ for obj in gc.garbage})
    finally:
        gc.garbage.clear()
        gc.set_debug(0)
        gc.collect()
    return found


def queries(db: Database, plan: str) -> None:
    for query in QUERIES:
        db.execute(query, doc="d", plan=plan)


# ------------------------------------------------------------- the premise


def test_import_and_load_make_no_cyclic_garbage(collector_off, tmp_path):
    """What the pause rests on: a collection during either builder would
    have nothing to free."""
    db = Database(page_size=512)
    tree = make_random_tree(db.tags, seed=5, n_top=30)
    cyclic_garbage()  # the generator's own
    db.add_tree(tree, "d", ImportOptions(page_size=512, fragmentation=0.5, seed=5))
    assert cyclic_garbage() == []
    path = str(tmp_path / "store.rpro")
    save_store(db.store, path)
    loaded = load_store(path)
    assert cyclic_garbage() == []
    assert loaded.documents["d"].n_nodes == db.document("d").n_nodes


@pytest.mark.parametrize("plan", PLANS)
def test_a_finished_query_leaves_no_cyclic_garbage(collector_off, plan):
    db, _ = small_database(seed=7, n_top=30, buffer_pages=8)
    cyclic_garbage()
    queries(db, plan)
    db.session(warm=True).execute("count(//*)", doc="d", plan=plan)
    assert cyclic_garbage() == []


def test_a_dropped_store_is_freed_by_reference_counting(collector_off, tmp_path):
    """After a query under every plan (each leaves run or delivery tapes
    on the pages' views), dropping the database frees its segment and
    its document without a collection; so does dropping a loaded one.
    (A page's tapes name the document's path-id table: were it the
    document, whose import result lists the pages, each page would be on
    a cycle with it.)"""
    db, _ = small_database(seed=9, n_top=30, buffer_pages=8)
    for plan in PLANS:
        queries(db, plan)
    path = str(tmp_path / "store.rpro")
    db.save(path)
    held = [weakref.ref(db.store.segment), weakref.ref(db.document("d"))]
    del db
    assert [ref() for ref in held] == [None, None]

    loaded = Database.load(path, buffer_pages=8)
    for plan in PLANS:
        queries(loaded, plan)
    held = [weakref.ref(loaded.store.segment), weakref.ref(loaded.document("d"))]
    del loaded
    assert [ref() for ref in held] == [None, None]


# --------------------------------------------------------- the pause itself


def test_the_builders_run_with_the_collector_paused(collector_on, monkeypatch, tmp_path):
    seen = []

    def watched(function):
        def call(*args, **kwargs):
            seen.append((function.__name__, gc.isenabled()))
            return function(*args, **kwargs)

        return call

    monkeypatch.setattr(store_module, "import_tree", watched(store_module.import_tree))
    monkeypatch.setattr(persist, "_read_body", watched(persist._read_body))
    db, _ = small_database(seed=3, n_top=10)
    assert gc.isenabled()
    path = str(tmp_path / "store.rpro")
    save_store(db.store, path)
    load_store(path)
    assert gc.isenabled()
    assert seen == [("import_tree", False), ("_read_body", False)]


def _import(page_size: int) -> None:
    store = DocumentStore(page_size=page_size)
    store.import_document(tree_from_nested(("a", [("b", ["x" * 500])]), store.tags), "d")


def _load(tmp_path, cut: bool) -> None:
    """Load a saved store; ``cut``, with its body cut in half behind a
    checksum that matches, so the load raises inside the body."""
    db, _ = small_database(seed=11, n_top=10)
    path = str(tmp_path / "store.rpro")
    save_store(db.store, path)
    if cut:
        data = open(path, "rb").read()
        head = 4 + 6  # magic | version | page size
        sums = persist._HEADER_SUMS
        lsn, _, body_len = sums.unpack_from(data, head)
        body = data[head + sums.size :][: body_len // 2]
        with open(path, "wb") as out:
            out.write(data[:head] + sums.pack(lsn, zlib.crc32(body), len(body)) + body)
    load_store(path)


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_the_collector_state_is_kept(enabled, tmp_path):
    """After an import or a load, whether it returns or raises, the
    collector is enabled exactly when it was before: a caller that
    disabled it finds it still disabled."""
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        _import(8192)
        assert gc.isenabled() is enabled
        with pytest.raises(StorageError, match="too small for import"):
            _import(128)
        assert gc.isenabled() is enabled
        _load(tmp_path, cut=False)
        assert gc.isenabled() is enabled
        with pytest.raises(StoreCorruptError, match="at offset"):
            _load(tmp_path, cut=True)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
