"""The mutation-coherence sanitizer: incremental repair vs full rebuild.

Structural updates maintain three derived structures incrementally:

* the cluster synopsis — the WAL manager patches rows for exactly the
  touched pages (:func:`repro.storage.store.repair_synopsis`);
* the path summary — same patching discipline
  (:func:`repro.storage.store.repair_pathsummary`);
* per-page columnar views — caches invalidated on mutation
  (:meth:`repro.storage.page.Page.invalidate_colview`) and lazily
  rebuilt.

Each has a slow, obviously-correct counterpart: recollect everything
from the physical records.  The incremental result must be
*indistinguishable* from the full rebuild — a stale synopsis row can
make pruning skip real results, and a stale columnar view feeds the
batched kernels records that no longer exist.  This sanitizer runs the
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

    Called by the WAL manager right after
    :func:`~repro.storage.wal._maintained_apply`'s repairs; a document
    without snapshots (bare, un-maintained updates null them) is vacuous.
    """
    from repro.storage.pathsummary import PathSummary
    from repro.storage.synopsis import ClusterSynopsis

    repaired = doc.synopsis
    if repaired is not None:
        full = ClusterSynopsis.collect(
            store.segment.page(page_no) for page_no in doc.page_nos
        )
        if repaired != full:
            fail(
                "mutation",
                "incrementally repaired cluster synopsis differs from a full "
                "recollection after an update: a touched page's row was "
                "missed or patched wrongly",
            )
    repaired_summary = doc.pathsummary
    if repaired_summary is not None:
        full_summary = PathSummary.collect(store.segment, doc.page_nos)
        if repaired_summary != full_summary:
            fail(
                "mutation",
                "incrementally repaired path summary differs from a full "
                "recollection after an update",
            )


def check_colviews(segment: Any, page_nos: Iterable[int]) -> None:
    """Any cached columnar view must match one rebuilt from the records.

    A cache the update path forgot to invalidate keeps serving the
    pre-update structure; rebuilding from the records and diffing the
    structural arrays catches that the moment it happens.  The view's
    run tapes are rebuilt and diffed as well: they hold junction
    NodeIDs, which no array of the view shows, so a ``companion`` patched
    without invalidating the page that holds the border is caught here.
    """
    from repro.algebra.xassembly import build_tape
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
        for tape in cached.tapes.values():
            try:
                rebuilt = build_tape(tape.owner, fresh, page.records, tape.steps, tape.index)
            except Exception:  # the records no longer bear the walk at all
                rebuilt = None
            if rebuilt != tape:
                fail(
                    "mutation",
                    f"cached run tape of page {page_no} (step {tape.index}) is stale "
                    "after an update: a junction or an extension changed under "
                    "it (a companion write is missing the invalidate_colview of "
                    "the page holding the border)",
                )
