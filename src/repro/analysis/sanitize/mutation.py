"""The mutation-coherence sanitizer: incremental repair vs full rebuild.

Structural updates maintain three derived structures incrementally:

* the cluster synopsis — the update layer's maintenance step, run after
  every update operation (logged or bare, returned or failed), patches
  rows for exactly the touched pages
  (:func:`repro.storage.store.repair_synopsis`) into a new synopsis, so
  the cluster bitsets memoised on the old one are never read against the
  new rows;
* the path summary — same patching discipline
  (:func:`repro.storage.store.repair_pathsummary`), so the path
  evaluations memoised on the old summary are never read against the
  new trie;
* per-page columnar views — caches invalidated on mutation
  (:meth:`repro.storage.page.Page.invalidate_colview`) and lazily
  rebuilt.

Each has a slow, obviously-correct counterpart: recollect everything
from the physical records.  The incremental result must be
*indistinguishable* from the full rebuild — a stale synopsis row can
make pruning skip real results, and a stale columnar view feeds the
navigating kernels records that no longer exist.  This sanitizer runs the
slow path after every update operation and diffs.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.analysis.sanitize import fail

#: the structural arrays one page's ColumnView is made of; values never
#: appear in a view, which is why ``update_value`` may leave caches alone
_COLVIEW_ARRAYS: tuple[str, ...] = (
    "kinds",
    "tags",
    "parents",
    "child_start",
    "child_end",
    "children",
    "border_down",
    "border_cont",
    "entries_up",
    "entries_down",
    "entries_all",
)


def check_maintenance(store: Any, doc: Any) -> None:
    """Diff the incrementally repaired snapshots against full recollection.

    Called by the update layer's maintenance step
    (:func:`repro.storage.update._maintained`) right after its repairs,
    once per document.
    """
    from repro.storage.pathsummary import PathSummary
    from repro.storage.synopsis import ClusterSynopsis

    repaired = doc.synopsis
    full = ClusterSynopsis.collect(store.segment.page(page_no) for page_no in doc.page_nos)
    if repaired != full:
        fail(
            "mutation",
            "incrementally repaired cluster synopsis differs from a full "
            "recollection after an update: a touched page's row was "
            "missed or patched wrongly",
        )
    # memoised masks, carried over by repair with the touched pages'
    # bits refilled, stay right only because repair builds a new
    # synopsis: a row written in place leaves them stale
    for value, source in repaired._memo.values():
        if repaired._fill(source) != value:
            fail(
                "mutation",
                "a memoised cluster bitset of the synopsis differs from a "
                "recompute from its rows: a row was written in place "
                "instead of the repair building a new synopsis",
            )
    if doc.pathsummary != PathSummary.collect(store.segment, doc.page_nos):
        fail(
            "mutation",
            "incrementally repaired path summary differs from a full "
            "recollection after an update",
        )
    check_evaluations(doc.pathsummary)


def check_evaluations(summary: Any) -> None:
    """Every evaluation memoised on ``summary`` must equal a fresh walk of
    its trie: they stay right only because repair builds a new summary,
    so a trie edited in place leaves them stale."""
    for evaluation, steps in summary._memo.values():
        if summary._evaluate(steps) != evaluation:
            fail(
                "mutation",
                "a memoised path evaluation of the summary differs from a "
                "fresh walk of its trie: the summary was edited in place "
                "instead of the repair building a new one",
            )


def check_colviews(segment: Any, page_nos: Iterable[int]) -> None:
    """Any cached columnar view must match one rebuilt from the records.

    A cache the update path forgot to invalidate keeps serving the
    pre-update structure; rebuilding from the records and diffing the
    structural arrays catches that the moment it happens.  The view's
    run and delivery tapes (and those cached on its memoised speculation's
    runs) are rebuilt and diffed as well: they hold junction
    NodeIDs, which no array of the view shows, so a ``companion`` patched
    without invalidating the page that holds the border is caught here.
    """
    from repro.algebra.xassembly import DeliveryTapes, build_tape
    from repro.storage.colview import ColumnView

    for page_no in page_nos:
        page = segment.page(page_no)
        cached = page._colview
        if cached is None:
            continue  # no cache to go stale
        fresh = ColumnView(page)
        for name in _COLVIEW_ARRAYS:
            if getattr(cached, name) != getattr(fresh, name):
                fail(
                    "mutation",
                    f"cached column view of page {page_no} is stale in "
                    f"{name!r} after an update (a mutation path is missing "
                    "its invalidate_colview call)",
                )
        cached_on_runs = [run.tape for runs, *_ in cached.speculations.values() for run in runs]
        for kept in [*cached.tapes.values(), *filter(None, cached_on_runs)]:
            # a run tape, or a book of delivery tapes by their start
            tapes: list[tuple[str, int | None, object]] = [("run tape", None, kept)]
            if isinstance(kept, DeliveryTapes):
                tapes = [("delivery tape", start, tape) for start, tape in kept.items()]
            for kind, start, tape in tapes:
                try:
                    rebuilt = build_tape(
                        kept.owner, fresh, page.records, kept.steps, kept.index, start
                    )
                except Exception:  # the records no longer bear the walk at all
                    rebuilt = None
                if rebuilt != tape:
                    fail(
                        "mutation",
                        f"cached {kind} of page {page_no} (step {kept.index}) is stale "
                        "after an update: a junction or an extension changed under "
                        "it (a companion write is missing the invalidate_colview of "
                        "the page holding the border)",
                    )
