"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random

import pytest

from repro import Database, ImportOptions
from repro.model.builder import TreeBuilder
from repro.model.tags import TagDictionary
from repro.model.tree import LogicalTree

# the golden-row checks are asserts in a helper module: rewritten like a
# test module's, they report a diff and survive ``python -O``
pytest.register_assert_rewrite("tests.golden")


def make_random_tree(
    tags: TagDictionary,
    seed: int,
    n_top: int = 40,
    max_depth: int = 6,
    tag_pool: str = "abcde",
    with_attributes: bool = True,
    with_text: bool = True,
) -> LogicalTree:
    """A reproducible random document used across the suite."""
    rng = random.Random(seed)
    builder = TreeBuilder(tags)
    builder.start_element("root")

    def gen(depth: int) -> None:
        attrs = []
        if with_attributes and rng.random() < 0.35:
            attrs = [("id", str(rng.randrange(64)))]
        builder.start_element(rng.choice(tag_pool), attrs)
        n = rng.randrange(5) if depth < max_depth else 0
        for _ in range(n):
            if with_text and rng.random() < 0.25:
                builder.text("t" * rng.randrange(1, 15))
            else:
                gen(depth + 1)
        builder.end_element()

    for _ in range(n_top):
        gen(0)
    builder.end_element()
    return builder.finish()


def small_database(
    seed: int = 0,
    page_size: int = 512,
    buffer_pages: int = 64,
    fragmentation: float = 0.5,
    n_top: int = 40,
) -> tuple[Database, LogicalTree]:
    """A database with one imported random document named ``d``."""
    db = Database(page_size=page_size, buffer_pages=buffer_pages)
    tree = make_random_tree(db.tags, seed, n_top=n_top)
    db.add_tree(
        tree, "d", ImportOptions(page_size=page_size, fragmentation=fragmentation, seed=seed)
    )
    return db, tree


def books(ctx) -> tuple:
    """What a run has charged so far: the clock and every counter."""
    return ctx.clock.now, ctx.clock.cpu_time, ctx.stats.as_dict()


def speculated(view, steps, refused) -> list[tuple]:
    """The reference of a scan's speculation of ``steps`` over the
    cluster ``view`` mirrors, step by step: per run its step, entry slots
    and the synopsis- and postings-pruned steps since the run before,
    then ``(None, None, ...)`` and the steps pruned after the last.
    ``refused`` are the path's contribute refusals (``xscan.step_refusals``)."""
    page_no = view.page_no
    out = []
    synopsis = postings = 0
    for index, step in enumerate(steps):
        if refused[0][index] >> page_no & 1:
            synopsis += 1
        elif refused[1][index] >> page_no & 1:
            postings += 1
        elif view.entries[step.entries]:
            out.append((index, view.entries[step.entries], synopsis, postings))
            synopsis = postings = 0
    return out + [(None, None, synopsis, postings)]


def pinned_pages(ctx) -> list[int]:
    """Pages still pinned in ``ctx``'s buffer."""
    return sorted(page_no for page_no, frame in ctx.buffer._frames.items() if frame.pins)


@pytest.fixture
def db_and_tree() -> tuple[Database, LogicalTree]:
    return small_database(seed=7)


def small_xmark() -> tuple[Database, LogicalTree]:
    """A fresh XMark database at scale 0.05, the document named "xmark"."""
    from repro.xmark import generate_xmark

    db = Database(page_size=2048, buffer_pages=128)
    tree = generate_xmark(scale=0.05, tags=db.tags, seed=3)
    db.add_tree(
        tree, "xmark", ImportOptions(page_size=2048, fragmentation=1.0, seed=3)
    )
    return db, tree


@pytest.fixture(scope="session")
def xmark_small():
    """A small XMark database shared across integration tests."""
    return small_xmark()


def fail_extension_at(monkeypatch, call: int) -> list:
    """Make the ``call``-th ``ColumnView.extension`` from now raise a
    :class:`~repro.errors.StorageError` (a corrupt page found mid-walk),
    and every later extension of the same page, step, slot and
    resumption raise it again: a tape build that meets the fault hands
    the walk an entry that meets it too.  Returns a list that holds the
    error once it has been raised."""
    from repro.errors import StorageError
    from repro.storage.colview import ColumnView

    extension = ColumnView.extension
    calls = []
    raised = []
    corrupt = []  # the page and arguments of the failing extension

    def failing(self, *args):
        calls.append(None)
        if len(calls) == call:
            raised.append(StorageError(f"injected fault at extension call {call}"))
            corrupt.append((self.page_no, *args))
        if raised and (self.page_no, *args) == corrupt[0]:
            raise raised[0]
        return extension(self, *args)

    monkeypatch.setattr(ColumnView, "extension", failing)
    return raised
