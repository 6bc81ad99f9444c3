"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random

import pytest

from repro import Database, ImportOptions
from repro.model.builder import TreeBuilder
from repro.model.tags import TagDictionary
from repro.model.tree import LogicalTree


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


def pinned_pages(ctx) -> list[int]:
    """Pages still pinned in ``ctx``'s buffer.  Probing swizzles, so it
    charges the clock: call it when the run under test is over."""
    pinned = []
    for page_no in range(ctx.segment.n_pages):
        frame = ctx.buffer.try_fix_resident(page_no)
        if frame is not None:
            ctx.buffer.unfix(frame)
            if frame.pins:
                pinned.append(page_no)
    return pinned


@pytest.fixture
def db_and_tree() -> tuple[Database, LogicalTree]:
    return small_database(seed=7)


@pytest.fixture(scope="session")
def xmark_small():
    """A small XMark database shared across integration tests."""
    from repro.xmark import generate_xmark

    db = Database(page_size=2048, buffer_pages=128)
    tree = generate_xmark(scale=0.05, tags=db.tags, seed=3)
    db.add_tree(
        tree, "xmark", ImportOptions(page_size=2048, fragmentation=1.0, seed=3)
    )
    return db, tree
