"""Slotted pages and segments.

A :class:`Page` is the unit of clustering and of I/O (paper Sec. 3.3):
whole pages move between disk and the buffer.  A :class:`Segment` is the
on-disk image — an ordered sequence of pages whose index is the physical
position used by the disk model's seek calculation.
"""

from __future__ import annotations

from bisect import insort
from typing import Iterator, Union

from repro.errors import StorageError
from repro.storage.colview import ColumnView
from repro.storage.record import BorderRecord, CoreRecord

Record = Union[CoreRecord, BorderRecord]

#: Fixed page header (simulated bytes).
PAGE_HEADER = 32
#: Slot directory entry per record (simulated bytes).
SLOT_ENTRY = 4


class Page:
    """A slotted page holding core and border records.

    Slots are stable: deleting a record leaves a tombstone (``None``)
    whose slot-directory entry may later be reused by :meth:`add`, so
    NodeIDs of other records are never invalidated.

    ``free_slots`` is kept sorted ascending and :meth:`add` always reuses
    the *highest* free slot.  The order is a durability invariant, not a
    style choice: persistence rebuilds the free list by scanning slots in
    ascending order, so canonicalising the live list the same way makes
    slot reuse — and therefore the NodeIDs minted by replayed updates —
    identical between a store that kept running and one that was
    recovered from a checkpoint (see ``docs/robustness.md``).
    """

    __slots__ = (
        "page_no",
        "capacity",
        "records",
        "used_bytes",
        "free_slots",
        "version",
        "_colview",
    )

    def __init__(self, page_no: int, capacity: int) -> None:
        self.page_no = page_no
        self.capacity = capacity
        self.records: list[Record | None] = []
        self.used_bytes = PAGE_HEADER
        self.free_slots: list[int] = []
        #: mutation counter: bumped by every record/byte mutation, never
        #: by reads.  The update layer diffs it against
        #: :attr:`Segment.seen_versions` to find the pages an operation
        #: touched (incremental snapshot repair); it is runtime state and
        #: is not persisted.
        self.version = 0
        #: lazily built columnar mirror; None = not built or invalidated
        self._colview: ColumnView | None = None

    def free_bytes(self) -> int:
        return self.capacity - self.used_bytes

    def fits(self, nbytes: int) -> bool:
        """Can a record of ``nbytes`` be added (reusing a tombstone slot
        if one exists, else paying for a new slot entry)?"""
        slot_cost = 0 if self.free_slots else SLOT_ENTRY
        return self.used_bytes + nbytes + slot_cost <= self.capacity

    def add(self, record: Record) -> int:
        """Store ``record``; returns its slot number."""
        nbytes = record.size()
        if not self.fits(nbytes):
            raise StorageError(
                f"page {self.page_no} overflow: {nbytes} bytes requested, "
                f"{self.free_bytes()} free"
            )
        self._colview = None
        self.version += 1
        if self.free_slots:
            # reusing a tombstoned slot mutates the middle of the record
            # array: the columnar mirror must drop here exactly as it does
            # for deletes, or a stale view would keep reporting the slot
            # as a tombstone (update-then-query staleness).  The list is
            # sorted ascending, so pop() reuses the highest free slot —
            # the canonical choice replay reproduces after recovery.
            slot = self.free_slots.pop()
            self.records[slot] = record
            self.used_bytes += nbytes
            return slot
        self.records.append(record)
        self.used_bytes += nbytes + SLOT_ENTRY
        return len(self.records) - 1

    def tombstone(self, slot: int) -> None:
        """Delete the record at ``slot``, reclaiming its bytes; the slot
        entry remains and becomes reusable."""
        record = self.record(slot)
        if record is None:
            raise StorageError(f"double tombstone of slot {slot} on page {self.page_no}")
        self._colview = None
        self.version += 1
        self.used_bytes -= record.size()
        self.records[slot] = None
        insort(self.free_slots, slot)

    def grow(self, extra_bytes: int) -> None:
        """Account for a record growing in place (e.g. a new child link).

        Used by the importer when appending child links to an
        already-placed core record.
        """
        if self.used_bytes + extra_bytes > self.capacity:
            raise StorageError(f"page {self.page_no} overflow while growing a record")
        self.version += 1
        self.used_bytes += extra_bytes

    def record(self, slot: int) -> Record:
        try:
            return self.records[slot]
        except IndexError:
            raise StorageError(f"bad slot {slot} on page {self.page_no}") from None

    def colview(self) -> ColumnView:
        """The page's columnar mirror, built lazily on first hot access."""
        view = self._colview
        if view is None:
            view = self._colview = ColumnView(self)
        return view

    def invalidate_colview(self) -> None:
        """Drop the columnar mirror after a direct record mutation.

        :meth:`add` and :meth:`tombstone` invalidate automatically; any
        code that mutates ``records`` entries, child-slot lists or
        parent/local links *in place* (the update module does) must call
        this itself — the coherence contract of the columnar views.
        Those in-place mutations bump :attr:`version` through this call,
        which is why it also feeds touched-page detection.
        """
        self._colview = None
        self.version += 1

    def __len__(self) -> int:
        return len(self.records)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Page({self.page_no}, records={len(self.records)}, used={self.used_bytes})"


class Segment:
    """The on-disk page sequence of a document store."""

    def __init__(self, page_size: int) -> None:
        if page_size <= PAGE_HEADER + SLOT_ENTRY:
            raise StorageError(f"page size {page_size} too small")
        self.page_size = page_size
        self._pages: list[Page] = []
        #: every page's :attr:`Page.version` as the update layer's
        #: maintenance step last saw it (index = page number); a page
        #: joins with its version at that moment
        self.seen_versions: list[int] = []
        #: (steps' ``memo_key``s, refusal bitsets) -> the int the pages'
        #: views memoise a scan's speculation under (``xscan.speculation_id``)
        self.speculation_ids: dict[tuple, int] = {}
        self.next_speculation_id = 0

    def allocate(self) -> Page:
        """Append a fresh page and return it."""
        page = Page(len(self._pages), self.page_size)
        self._pages.append(page)
        self.seen_versions.append(page.version)
        return page

    def page(self, page_no: int) -> Page:
        try:
            return self._pages[page_no]
        except IndexError:
            raise StorageError(f"no such page: {page_no}") from None

    @property
    def n_pages(self) -> int:
        return len(self._pages)

    def pages(self) -> Iterator[Page]:
        return iter(self._pages)

    def adopt(self, page: Page) -> None:
        """Install an externally built page at its ``page_no`` position.

        Used by the importer, which assigns physical page numbers itself
        (possibly permuted, to model layout fragmentation) and back-patches
        NodeIDs before handing pages over.  Pages must arrive in page-number
        order.
        """
        if page.page_no != len(self._pages):
            raise StorageError(
                f"adopt out of order: expected page {len(self._pages)}, got {page.page_no}"
            )
        self._pages.append(page)
        self.seen_versions.append(page.version)
